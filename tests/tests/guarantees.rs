//! The §4.7 theoretical guarantees, checked against real pipeline output:
//! mandatory-constraint soundness, datatype compatibility, cardinality
//! upper bounds, and incremental monotonicity.

use pg_hive_core::merge::is_generalization_of;
use pg_hive_core::{Discoverer, DiscoveryResult, LabelSet, PipelineConfig};
use pg_hive_datasets::{inject_noise, DatasetId, NoiseSpec};
use pg_hive_graph::{EdgeId, NodeId};
use std::collections::{HashMap, HashSet};

#[test]
fn mandatory_properties_are_present_in_every_instance() {
    let mut d = DatasetId::Pole.generate(0.05, 21);
    inject_noise(&mut d.graph, &NoiseSpec::grid(20, 100, 21));
    let r = Discoverer::new(PipelineConfig::elsh_adaptive()).discover(&d.graph);
    for t in &r.schema.node_types {
        for (key, spec) in &t.props {
            if !spec.is_mandatory(t.instance_count) {
                continue;
            }
            let sym = d.graph.keys().get(key).unwrap();
            for &m in &t.members {
                assert!(
                    d.graph.node(NodeId(m)).get(sym).is_some(),
                    "mandatory '{key}' missing on a member of {:?}",
                    t.labels
                );
            }
        }
    }
}

#[test]
fn inferred_datatypes_are_compatible_with_all_values() {
    // Full-scan inference: every observed value's kind must join into the
    // inferred kind without generalizing further.
    let d = DatasetId::Cord19.generate(0.05, 22);
    let r = Discoverer::new(PipelineConfig::elsh_adaptive()).discover(&d.graph);
    for t in &r.schema.node_types {
        for (key, spec) in &t.props {
            let Some(kind) = spec.kind else {
                panic!("datatype pass should fill every kind");
            };
            let sym = d.graph.keys().get(key).unwrap();
            for &m in &t.members {
                if let Some(v) = d.graph.node(NodeId(m)).get(sym) {
                    let vkind = pg_hive_core::postprocess::infer_value_kind(&v.lexical());
                    assert_eq!(
                        kind.join(vkind),
                        kind,
                        "value kind {vkind:?} incompatible with inferred {kind:?} for '{key}'"
                    );
                }
            }
        }
    }
}

#[test]
fn cardinalities_are_exact_over_members() {
    let d = DatasetId::Ldbc.generate(0.05, 23);
    let r = Discoverer::new(PipelineConfig::elsh_adaptive()).discover(&d.graph);
    for t in &r.schema.edge_types {
        let card = t.cardinality.expect("cardinality pass ran");
        // Recompute from scratch.
        let mut out: HashMap<u32, HashSet<u32>> = HashMap::new();
        let mut inc: HashMap<u32, HashSet<u32>> = HashMap::new();
        for &m in &t.members {
            let e = d.graph.edge(EdgeId(m));
            out.entry(e.src.0).or_default().insert(e.tgt.0);
            inc.entry(e.tgt.0).or_default().insert(e.src.0);
        }
        let max_out = out.values().map(HashSet::len).max().unwrap_or(0) as u64;
        let max_in = inc.values().map(HashSet::len).max().unwrap_or(0) as u64;
        assert_eq!(card.max_out, max_out, "{:?}", t.labels);
        assert_eq!(card.max_in, max_in, "{:?}", t.labels);
    }
}

#[test]
fn incremental_schemas_form_a_monotone_chain() {
    let d = DatasetId::Mb6.generate(0.05, 24);
    let discoverer = Discoverer::new(PipelineConfig::elsh_adaptive());
    let batches = pg_hive_graph::split_batches(&d.graph, 6, 24);
    let mut prev: Option<pg_hive_core::SchemaGraph> = None;
    for upto in 1..=6 {
        let r = discoverer.discover_batches(&d.graph, &batches[..upto]);
        if let Some(p) = &prev {
            assert!(
                is_generalization_of(&r.schema, p),
                "S_{upto} must generalize S_{}",
                upto - 1
            );
        }
        prev = Some(r.schema);
    }
}

#[test]
fn incremental_final_instance_counts_match_static() {
    let d = DatasetId::Pole.generate(0.05, 25);
    let discoverer = Discoverer::new(PipelineConfig::elsh_adaptive());
    let incr = discoverer.discover_incremental(&d.graph, 5);
    let stat = discoverer.discover(&d.graph);
    assert_eq!(incr.schema.node_instances(), stat.schema.node_instances());
    assert_eq!(incr.schema.edge_instances(), stat.schema.edge_instances());
    assert_eq!(incr.schema.node_instances() as usize, d.graph.node_count());
}

/// Every node type's label set, sorted.
fn node_label_sets(r: &DiscoveryResult) -> Vec<LabelSet> {
    let mut sets: Vec<_> = r
        .schema
        .node_types
        .iter()
        .map(|t| t.labels.clone())
        .collect();
    sets.sort();
    sets
}

/// Batches of a few dozen elements must not merge elements with different
/// label sets into one type: at every batch count, on every dataset, the
/// incremental run finds exactly the static run's label sets.
#[test]
fn incremental_discovers_same_labeled_type_inventory_as_static() {
    // (datasets, generator seed, pipeline seed, batch counts): LDBC under
    // the library's default seed, then every dataset under the CLI's
    // default seed for the generator and the pipeline alike.
    let cases: [(&[DatasetId], u64, u64, &[usize]); 2] = [
        (
            &[DatasetId::Ldbc],
            26,
            PipelineConfig::elsh_adaptive().seed,
            &[8],
        ),
        (&DatasetId::ALL, 42, 42, &[10, 20, 50]),
    ];
    for (ids, data_seed, seed, batch_counts) in cases {
        let discoverer = Discoverer::new(PipelineConfig {
            seed,
            ..PipelineConfig::elsh_adaptive()
        });
        for &id in ids {
            let d = id.generate(0.05, data_seed);
            let stat = node_label_sets(&discoverer.discover(&d.graph));
            for &batches in batch_counts {
                assert_eq!(
                    node_label_sets(&discoverer.discover_incremental(&d.graph, batches)),
                    stat,
                    "{} (generator seed {data_seed}) at {batches} batches",
                    id.name()
                );
            }
        }
    }
}

#[test]
fn abstract_types_only_arise_without_labels() {
    let d = DatasetId::Cord19.generate(0.05, 27);
    let r = Discoverer::new(PipelineConfig::elsh_adaptive()).discover(&d.graph);
    assert!(
        r.schema.node_types.iter().all(|t| !t.is_abstract()),
        "fully labeled input must not produce ABSTRACT types"
    );
}
