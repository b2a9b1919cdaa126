//! Test-support references for row-weighted extraction and the
//! element-order full scan: the per-element candidate builders and the
//! per-type full-scan datatype inference that the library replaced. Each
//! candidate is built one member at a time, and each type's kinds come from
//! a walk over its own members, so the row kernel and
//! `SchemaState::postprocess(g, None)` must give the same types.

use pg_hive_core::postprocess::infer_value_kind;
use pg_hive_core::{EdgeType, NodeType, PropertySpec};
use pg_hive_graph::{EdgeId, NodeId, PropertyGraph, Symbol, Value, ValueKind};
use pg_hive_lsh::Clustering;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Build candidate node types from a clustering of `ids`.
pub fn candidate_node_types(
    g: &PropertyGraph,
    ids: &[NodeId],
    clustering: &Clustering,
) -> Vec<NodeType> {
    let mut cands: Vec<NodeType> = (0..clustering.num_clusters)
        .map(|_| NodeType {
            labels: Default::default(),
            props: BTreeMap::new(),
            instance_count: 0,
            members: Vec::new(),
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let c = clustering.assignment[i] as usize;
        let n = g.node(id);
        let t = &mut cands[c];
        t.instance_count += 1;
        t.members.push(id.0);
        for &l in &n.labels {
            t.labels.insert(g.label_str(l).to_string());
        }
        for k in n.keys() {
            t.props
                .entry(g.key_str(k).to_string())
                .or_insert(PropertySpec {
                    occurrences: 0,
                    kind: None,
                })
                .occurrences += 1;
        }
    }
    cands
}

/// Build candidate edge types from a clustering of `ids`.
pub fn candidate_edge_types(
    g: &PropertyGraph,
    ids: &[EdgeId],
    clustering: &Clustering,
) -> Vec<EdgeType> {
    let mut cands: Vec<EdgeType> = (0..clustering.num_clusters)
        .map(|_| EdgeType {
            labels: Default::default(),
            props: BTreeMap::new(),
            endpoints: Default::default(),
            instance_count: 0,
            members: Vec::new(),
            cardinality: None,
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let c = clustering.assignment[i] as usize;
        let e = g.edge(id);
        let t = &mut cands[c];
        t.instance_count += 1;
        t.members.push(id.0);
        for &l in &e.labels {
            t.labels.insert(g.label_str(l).to_string());
        }
        for k in e.keys() {
            t.props
                .entry(g.key_str(k).to_string())
                .or_insert(PropertySpec {
                    occurrences: 0,
                    kind: None,
                })
                .occurrences += 1;
        }
        let (src, tgt) = g.edge_endpoint_labels(e);
        t.endpoints.insert((
            src.iter().map(|&l| g.label_str(l).to_string()).collect(),
            tgt.iter().map(|&l| g.label_str(l).to_string()).collect(),
        ));
    }
    cands
}

/// The kind of one [`Value`] through its *lexical* form — the §4.4 rule is
/// defined on serialized values, so a `Str("123")` re-infers as Integer.
/// Strings are inspected in place; every other variant is formatted into
/// `scratch` (its `Display` is exactly [`Value::lexical`]) so the hot loop
/// never allocates per value.
fn value_kind_via_lexical(v: &Value, scratch: &mut String) -> ValueKind {
    match v {
        Value::Str(s) => infer_value_kind(s),
        other => {
            scratch.clear();
            let _ = write!(scratch, "{other}");
            infer_value_kind(scratch)
        }
    }
}

/// Full-scan stage (f) for one type, shared between nodes and edges: a
/// **single pass** over the members' property slices instead of one member
/// scan per key. Each property is matched against a small sorted
/// `(symbol, slot)` table via binary search and its kind joined into a
/// per-slot accumulator — `ValueKind::join` is a semilattice join
/// (commutative, associative, idempotent), so folding in member order
/// yields exactly the same result as the per-key order the two-scan
/// sampling path uses.
fn infer_type_datatypes_full<'g>(
    props: &mut BTreeMap<String, PropertySpec>,
    g: &PropertyGraph,
    member_props: impl Iterator<Item = &'g [(Symbol, Value)]>,
) {
    let keys: Vec<&String> = props.keys().collect();
    // Keys absent from this batch's store belong to another chunk: skip
    // them, matching the `None => continue` of the sampling path.
    let mut table: Vec<(Symbol, u32)> = keys
        .iter()
        .enumerate()
        .filter_map(|(slot, k)| g.keys().get(k.as_str()).map(|sym| (sym, slot as u32)))
        .collect();
    if table.is_empty() {
        return;
    }
    table.sort_unstable_by_key(|&(sym, _)| sym);
    let mut kinds: Vec<Option<ValueKind>> = vec![None; keys.len()];
    let mut scratch = String::new();
    for slice in member_props {
        for (sym, v) in slice {
            let Ok(i) = table.binary_search_by_key(sym, |&(s, _)| s) else {
                continue;
            };
            let slot = table[i].1 as usize;
            let k = value_kind_via_lexical(v, &mut scratch);
            kinds[slot] = Some(match kinds[slot] {
                Some(prev) => prev.join(k),
                None => k,
            });
        }
    }
    for (spec, kind) in props.values_mut().zip(kinds) {
        if let Some(k) = kind {
            spec.kind = Some(match spec.kind {
                Some(prev) => prev.join(k),
                None => k,
            });
        }
    }
}

/// Full-scan stage (f) for one node type: a walk over its own members.
pub fn infer_node_type_datatypes_full(t: &mut NodeType, g: &PropertyGraph) {
    let members = t
        .members
        .iter()
        .map(|&m| g.node(NodeId(m)).props.as_slice());
    infer_type_datatypes_full(&mut t.props, g, members);
}

/// Full-scan stage (f) for one edge type: a walk over its own members.
pub fn infer_edge_type_datatypes_full(t: &mut EdgeType, g: &PropertyGraph) {
    let members = t
        .members
        .iter()
        .map(|&m| g.edge(EdgeId(m)).props.as_slice());
    infer_type_datatypes_full(&mut t.props, g, members);
}
