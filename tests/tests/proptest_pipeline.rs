//! Property-based tests over the *whole pipeline* on randomized small
//! graphs: whatever the input looks like, discovery must terminate with a
//! schema that is complete, consistent, and stable.

use pg_hive_core::{ClusterMethod, Discoverer, PipelineConfig};
use pg_hive_graph::{GraphBuilder, PropertyGraph, Value};
use proptest::prelude::*;

#[path = "support/parse.rs"]
mod parse;

/// A randomized property graph: up to 5 "types" (label/keyset templates),
/// up to 40 nodes and 40 edges, with optional unlabeled nodes and missing
/// properties.
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let node = (
        0u8..5,
        any::<bool>(),
        proptest::collection::vec(any::<bool>(), 3),
    );
    (
        proptest::collection::vec(node, 1..40),
        proptest::collection::vec((0u8..40, 0u8..40, 0u8..3), 0..40),
    )
        .prop_map(|(nodes, edges)| {
            let mut b = GraphBuilder::new();
            let mut ids = Vec::new();
            for (ty, labeled, key_mask) in &nodes {
                let label = format!("T{ty}");
                let labels: Vec<&str> = if *labeled { vec![&label] } else { vec![] };
                let keys = ["alpha", "beta", "gamma"];
                let props: Vec<(&str, Value)> = keys
                    .iter()
                    .zip(key_mask)
                    .filter(|(_, &m)| m)
                    .map(|(k, _)| (*k, Value::Int(*ty as i64)))
                    .collect();
                ids.push(b.add_node(&labels, &props));
            }
            for (s, t, e) in &edges {
                let si = *s as usize % ids.len();
                let ti = *t as usize % ids.len();
                let label = format!("E{e}");
                b.add_edge(ids[si], ids[ti], &[&label], &[]);
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn discovery_types_every_element(g in arb_graph()) {
        for method in [ClusterMethod::Elsh, ClusterMethod::MinHash] {
            let cfg = PipelineConfig { method, ..PipelineConfig::default() };
            let r = Discoverer::new(cfg).discover(&g);
            // Assignments are total and in range.
            prop_assert_eq!(r.node_assignment.len(), g.node_count());
            for &a in &r.node_assignment {
                prop_assert!((a as usize) < r.schema.node_types.len());
            }
            for &a in &r.edge_assignment {
                prop_assert!((a as usize) < r.schema.edge_types.len());
            }
            // Member lists partition the graph.
            let total: usize = r.schema.node_types.iter().map(|t| t.members.len()).sum();
            prop_assert_eq!(total, g.node_count());
            // Instance counts agree with member lists.
            for t in &r.schema.node_types {
                prop_assert_eq!(t.instance_count as usize, t.members.len());
            }
        }
    }

    #[test]
    fn discovery_preserves_every_label_and_key(g in arb_graph()) {
        let r = Discoverer::new(PipelineConfig::default()).discover(&g);
        let labels = r.schema.node_label_universe();
        let keys = r.schema.node_key_universe();
        for (_, n) in g.nodes() {
            for &l in &n.labels {
                prop_assert!(labels.contains(g.label_str(l)));
            }
            for k in n.keys() {
                prop_assert!(keys.contains(g.key_str(k)));
            }
        }
    }

    #[test]
    fn mandatory_constraints_are_sound_on_random_graphs(g in arb_graph()) {
        let r = Discoverer::new(PipelineConfig::default()).discover(&g);
        for t in &r.schema.node_types {
            for (key, spec) in &t.props {
                if spec.is_mandatory(t.instance_count) {
                    let sym = g.keys().get(key).unwrap();
                    for &m in &t.members {
                        prop_assert!(
                            g.node(pg_hive_graph::NodeId(m)).get(sym).is_some(),
                            "mandatory {} missing", key
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn discovery_is_deterministic(g in arb_graph()) {
        let d = Discoverer::new(PipelineConfig::default());
        let a = d.discover(&g);
        let b = d.discover(&g);
        prop_assert_eq!(a.node_assignment, b.node_assignment);
        prop_assert_eq!(a.schema, b.schema);
    }

    #[test]
    fn incremental_generalizes_every_prefix(g in arb_graph()) {
        let d = Discoverer::new(PipelineConfig::default());
        let batches = pg_hive_graph::split_batches(&g, 3, 5);
        let mut prev: Option<pg_hive_core::SchemaGraph> = None;
        for upto in 1..=3 {
            let r = d.discover_batches(&g, &batches[..upto]);
            if let Some(p) = &prev {
                prop_assert!(pg_hive_core::merge::is_generalization_of(&r.schema, p));
            }
            prev = Some(r.schema);
        }
    }

    #[test]
    fn strict_serialization_parses_back(g in arb_graph()) {
        let r = Discoverer::new(PipelineConfig::default()).discover(&g);
        let text = pg_hive_core::serialize::pg_schema_strict(&r.schema, "P");
        let (parsed, _) = parse::parse_pg_schema(&text).expect("round trip");
        prop_assert_eq!(parsed.node_types.len(), r.schema.node_types.len());
        prop_assert_eq!(parsed.edge_types.len(), r.schema.edge_types.len());
    }
}
