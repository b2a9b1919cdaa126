//! Row-weighted extraction and the element-order full scan against the
//! per-element references they replaced (`support/extract.rs`):
//!
//! 1. the row kernel, fed the pipeline's rows (the representation pass's
//!    and the signature scan's `rep_of` with the distinct-row clustering,
//!    on the dedup and the naive path), gives the reference's candidates
//!    for the per-element clustering;
//! 2. `candidate_*_types` and the kernel stay exact on random clusterings
//!    that split one signature across clusters, over shuffled batches;
//! 3. `SchemaState::postprocess(g, None)` gives the kinds of a per-type
//!    member walk, also when an element is listed in two pooled types.
//!
//! The graphs mix multi-label and unlabeled elements, stub endpoints left
//! out of the batch (as a streamed chunk's are), and values whose variant
//! and lexical kind disagree.

#[path = "support/extract.rs"]
mod reference;

use pg_hive_core::cluster::cluster_elements;
use pg_hive_core::extract::{
    candidate_edge_types, candidate_edge_types_from_rows, candidate_node_types,
    candidate_node_types_from_rows,
};
use pg_hive_core::preprocess::{edge_representations, node_representations, signature_scan};
use pg_hive_core::{Discoverer, EdgeType, NodeType, PipelineConfig, PropertySpec, SchemaGraph};
use pg_hive_embed::HashEmbedder;
use pg_hive_graph::{EdgeId, GraphBatch, GraphBuilder, NodeId, PropertyGraph, Value};
use pg_hive_lsh::{Clustering, ElementClass};
use proptest::prelude::*;
use std::collections::BTreeMap;

const KEYS: [&str; 4] = ["k0", "k1", "k2", "k3"];

/// Values whose variant and lexical kind disagree, plus plain ones.
fn value(code: u8) -> Value {
    match code % 14 {
        0 => Value::Int(7),
        1 => Value::Int(-40),
        2 => Value::from("x"),
        3 => Value::from("123"),
        4 => Value::from(" 7 "),
        5 => Value::from("2020-01-01"),
        6 => Value::from("TRUE"),
        7 => Value::Float(2.0),
        8 => Value::Float(1e300),
        9 => Value::Float(0.25),
        10 => Value::Date {
            year: 10000,
            month: 1,
            day: 2,
        },
        11 => Value::Date {
            year: -5,
            month: 3,
            day: 4,
        },
        12 => Value::Bool(false),
        _ => Value::DateTime {
            year: 2020,
            month: 2,
            day: 29,
            hour: 1,
            minute: 2,
            second: 3,
        },
    }
}

/// Label sets by template: unlabeled, single and multi-label.
fn labels(template: u8) -> Vec<&'static str> {
    match template % 6 {
        0 | 5 => vec![],
        1 => vec!["A"],
        2 => vec!["A", "B"],
        3 => vec!["B"],
        _ => vec!["A", "B", "C"],
    }
}

/// A random graph where few templates repeat, so rows hold many elements.
/// Node: (template, dropped key, values, stub roll); a stub keeps only the
/// template's labels. Edge: (source, target, label template, key mask,
/// values).
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let node = (
        0u8..6,
        0u8..8,
        proptest::collection::vec(0u8..14, 4),
        0u8..10,
    );
    let edge = (
        0u8..60,
        0u8..60,
        0u8..4,
        0u8..4,
        proptest::collection::vec(0u8..14, 2),
    );
    (
        proptest::collection::vec(node, 1..60),
        proptest::collection::vec(edge, 0..50),
    )
        .prop_map(|(nodes, edges)| {
            let mut b = GraphBuilder::new();
            let mut ids = Vec::new();
            for (template, dropped, values, stub) in &nodes {
                let ls = labels(*template);
                if *stub < 2 {
                    ids.push(b.add_stub_node(&ls));
                    continue;
                }
                // Template t carries keys k0..k(t % 4), minus one dropped key.
                let props: Vec<(&str, Value)> = (0..=(*template as usize % 4))
                    .filter(|&k| k != *dropped as usize)
                    .map(|k| (KEYS[k], value(values[k])))
                    .collect();
                ids.push(b.add_node(&ls, &props));
            }
            for (s, t, label, mask, values) in &edges {
                let src = ids[*s as usize % ids.len()];
                let tgt = ids[*t as usize % ids.len()];
                let ls: Vec<&str> = match label {
                    0 => vec![],
                    1 => vec!["R"],
                    2 => vec!["R", "S"],
                    _ => vec!["S"],
                };
                let props: Vec<(&str, Value)> = (0..2)
                    .filter(|&k| mask >> k & 1 == 1)
                    .map(|k| (KEYS[k], value(values[k])))
                    .collect();
                b.add_edge(src, tgt, &ls, &props);
            }
            b.finish()
        })
}

/// The batch a streamed chunk runs: every node but the stubs, every edge.
fn chunk_batch(g: &PropertyGraph) -> GraphBatch {
    GraphBatch {
        nodes: g
            .nodes()
            .filter(|&(id, _)| !g.is_stub(id))
            .map(|(id, _)| id)
            .collect(),
        edges: g.edges().map(|(id, _)| id).collect(),
    }
}

/// A deterministic xorshift stream.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A random clustering of `n` elements into `k` clusters.
fn random_clustering(n: usize, k: usize, next: &mut impl FnMut() -> u64) -> Clustering {
    Clustering {
        assignment: (0..n).map(|_| (next() % k as u64) as u32).collect(),
        num_clusters: k,
    }
}

/// A shuffled subset of `ids`.
fn shuffled_subset<T: Copy>(ids: &[T], next: &mut impl FnMut() -> u64) -> Vec<T> {
    let mut out: Vec<T> = ids
        .iter()
        .copied()
        .filter(|_| !next().is_multiple_of(4))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    out
}

/// Every element in its own row: the finest rows any clustering allows.
fn singleton_rows(clustering: &Clustering) -> (Vec<u32>, Clustering) {
    let rows = (0..clustering.assignment.len() as u32).collect();
    (rows, clustering.clone())
}

fn configs() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::elsh_adaptive(),
        PipelineConfig::minhash_default(),
        PipelineConfig {
            dedup: false,
            ..PipelineConfig::elsh_adaptive()
        },
    ]
}

/// Kinds and occurrences of every type, in schema order, with labels.
type Props = Vec<(Vec<String>, BTreeMap<String, PropertySpec>)>;

fn node_props(types: &[NodeType]) -> Props {
    types
        .iter()
        .map(|t| (t.labels.iter().cloned().collect(), t.props.clone()))
        .collect()
}

fn edge_props(types: &[EdgeType]) -> Props {
    types
        .iter()
        .map(|t| (t.labels.iter().cloned().collect(), t.props.clone()))
        .collect()
}

/// Every key any of `members` carries, as an unfilled spec.
fn keys_of<'a>(
    g: &PropertyGraph,
    members: impl Iterator<Item = &'a [(pg_hive_graph::Symbol, Value)]>,
) -> BTreeMap<String, PropertySpec> {
    let mut props = BTreeMap::new();
    for slice in members {
        for (k, _) in slice {
            props.insert(
                g.key_str(*k).to_string(),
                PropertySpec {
                    occurrences: 1,
                    kind: None,
                },
            );
        }
    }
    props
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_kernel_matches_the_reference_on_the_pipeline_rows(g in arb_graph()) {
        let batch = chunk_batch(&g);
        let scan = signature_scan(&g, &batch);
        for cfg in configs() {
            let embedder = HashEmbedder::new(cfg.embedding_dim, cfg.seed);
            let nodes = node_representations(&g, &batch.nodes, &embedder, cfg.label_weight);
            let edges = edge_representations(&g, &batch.edges, &embedder, cfg.label_weight);
            let node_out = cluster_elements(&nodes.repr, ElementClass::Nodes, &cfg);
            let edge_out = cluster_elements(&edges.repr, ElementClass::Edges, &cfg);
            let node_rows = node_out.distinct.as_ref().expect("row clustering");
            let edge_rows = edge_out.distinct.as_ref().expect("row clustering");
            let want_nodes =
                reference::candidate_node_types(&g, &batch.nodes, &node_out.clustering);
            let want_edges =
                reference::candidate_edge_types(&g, &batch.edges, &edge_out.clustering);
            for rep_of in [&nodes.repr.rep_of, &scan.nodes.rep_of] {
                prop_assert_eq!(
                    &candidate_node_types_from_rows(&g, &batch.nodes, rep_of, node_rows),
                    &want_nodes,
                    "dedup {}", cfg.dedup
                );
            }
            for rep_of in [&edges.repr.rep_of, &scan.edges.rep_of] {
                prop_assert_eq!(
                    &candidate_edge_types_from_rows(&g, &batch.edges, rep_of, edge_rows),
                    &want_edges,
                    "dedup {}", cfg.dedup
                );
            }
            prop_assert_eq!(
                &candidate_node_types(&g, &batch.nodes, &node_out.clustering),
                &want_nodes
            );
            prop_assert_eq!(
                &candidate_edge_types(&g, &batch.edges, &edge_out.clustering),
                &want_edges
            );
        }
    }

    #[test]
    fn candidates_are_exact_for_clusterings_that_split_signatures(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 1usize..6,
    ) {
        let mut next = stream(seed);
        let all = chunk_batch(&g);
        let nodes: Vec<NodeId> = shuffled_subset(&all.nodes, &mut next);
        let edges: Vec<EdgeId> = shuffled_subset(&all.edges, &mut next);
        let node_clusters = random_clustering(nodes.len(), k, &mut next);
        let edge_clusters = random_clustering(edges.len(), k, &mut next);
        let want_nodes = reference::candidate_node_types(&g, &nodes, &node_clusters);
        let want_edges = reference::candidate_edge_types(&g, &edges, &edge_clusters);
        prop_assert_eq!(&candidate_node_types(&g, &nodes, &node_clusters), &want_nodes);
        prop_assert_eq!(&candidate_edge_types(&g, &edges, &edge_clusters), &want_edges);
        let (rows, clusters) = singleton_rows(&node_clusters);
        prop_assert_eq!(
            &candidate_node_types_from_rows(&g, &nodes, &rows, &clusters),
            &want_nodes
        );
        let (rows, clusters) = singleton_rows(&edge_clusters);
        prop_assert_eq!(
            &candidate_edge_types_from_rows(&g, &edges, &rows, &clusters),
            &want_edges
        );
    }

    #[test]
    fn element_order_full_scan_matches_per_type_member_walks(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 1usize..6,
    ) {
        let mut next = stream(seed);
        let batch = chunk_batch(&g);
        let node_clusters = random_clustering(batch.nodes.len(), k, &mut next);
        let edge_clusters = random_clustering(batch.edges.len(), k, &mut next);
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let mut state = d.new_state();
        state.absorb_node_candidates(candidate_node_types(&g, &batch.nodes, &node_clusters));
        state.absorb_edge_candidates(candidate_edge_types(&g, &batch.edges, &edge_clusters));
        // A labeled type per class that lists elements other pooled types
        // list too.
        let dup_nodes: Vec<u32> = shuffled_subset(&batch.nodes, &mut next)
            .into_iter()
            .map(|id| id.0)
            .collect();
        let dup_edges: Vec<u32> = shuffled_subset(&batch.edges, &mut next)
            .into_iter()
            .map(|id| id.0)
            .collect();
        state.absorb_node_candidates(vec![NodeType {
            labels: ["Dup".to_string()].into(),
            props: keys_of(&g, dup_nodes.iter().map(|&m| g.node(NodeId(m)).props.as_slice())),
            instance_count: dup_nodes.len() as u64,
            members: dup_nodes,
        }]);
        state.absorb_edge_candidates(vec![EdgeType {
            labels: ["DUP".to_string()].into(),
            props: keys_of(&g, dup_edges.iter().map(|&m| g.edge(EdgeId(m)).props.as_slice())),
            endpoints: Default::default(),
            instance_count: dup_edges.len() as u64,
            members: dup_edges,
            cardinality: None,
        }]);

        let mut want: SchemaGraph = state.finalize();
        for t in &mut want.node_types {
            reference::infer_node_type_datatypes_full(t, &g);
        }
        for t in &mut want.edge_types {
            reference::infer_edge_type_datatypes_full(t, &g);
        }
        state.postprocess(&g, None);
        let got = state.finalize();
        prop_assert_eq!(node_props(&got.node_types), node_props(&want.node_types));
        prop_assert_eq!(edge_props(&got.edge_types), edge_props(&want.edge_types));
    }
}
