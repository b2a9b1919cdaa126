//! The labeled social-network input shared by `stream_labeled` and
//! `validate_stream`: 12 node types and 8 edge types, every element
//! labeled, text-valued node properties (the spec `bench_stream_json`
//! streams, at 400k elements).

use pg_hive_core::schema::SchemaGraph;
use pg_hive_datasets::{Dataset, DatasetSpec, EdgeDef, NodeDef, PropDef, ValueGen};
use std::collections::BTreeSet;

/// Elements (nodes + edges) in the generated file: four chunks' worth at
/// the product's default chunk size, so the read-ahead producer and every
/// worker have work.
pub const ELEMENTS: usize = 400_000;

fn spec() -> DatasetSpec {
    let nodes = (0..12)
        .map(|i| {
            let name = format!("Type{i}");
            let key = |k: &str, presence: f64| {
                PropDef::opt(&format!("type{i}_{k}"), ValueGen::Text, presence)
            };
            NodeDef {
                labels: vec![name.clone()],
                props: vec![
                    key("id", 1.0),
                    key("name", 1.0),
                    key("opt_a", 0.7),
                    key("opt_b", 0.4),
                ],
                weight: 1.0 + (i % 3) as f64,
                name,
            }
        })
        .collect();
    let edges = (0..8)
        .map(|i| EdgeDef {
            name: format!("REL{i}"),
            label: format!("REL{i}"),
            props: vec![PropDef::opt("since", ValueGen::Int(1990, 2025), 0.5)],
            src: i % 12,
            tgt: (i * 5 + 3) % 12,
            weight: 1.0,
        })
        .collect();
    DatasetSpec {
        name: "social".to_string(),
        nodes,
        edges,
    }
}

/// Nodes among the elements (65%; the rest are edges).
pub const NODES: usize = ELEMENTS * 13 / 20;

/// The dataset for `seed`.
pub fn generate(seed: u64) -> Dataset {
    spec().generate(NODES, ELEMENTS - NODES, seed)
}

/// Every generated node and edge is counted exactly once by the schema's
/// instance counts (endpoint stubs are not).
pub fn counts_match(schema: &SchemaGraph) -> bool {
    schema.node_instances() == NODES as u64 && schema.edge_instances() == (ELEMENTS - NODES) as u64
}

/// Ground-truth type inventory: node label sets and edge label sets.
pub type Inventory = (BTreeSet<Vec<String>>, BTreeSet<Vec<String>>);

pub fn truth_inventory() -> Inventory {
    let s = spec();
    (
        s.nodes.iter().map(|n| n.labels.clone()).collect(),
        s.edges.iter().map(|e| vec![e.label.clone()]).collect(),
    )
}

/// The labeled-type inventory a discovered schema reports.
pub fn inventory(schema: &SchemaGraph) -> Inventory {
    (
        schema
            .node_types
            .iter()
            .map(|t| t.labels.iter().cloned().collect())
            .collect(),
        schema
            .edge_types
            .iter()
            .map(|t| t.labels.iter().cloned().collect())
            .collect(),
    )
}
