//! Test-support reference for carried-edge resolution: the per-edge path
//! that `Discoverer::resolve_pending` batches per edge signature. Every
//! resolvable edge is absorbed alone, in its own two-stub mini-graph, so
//! the batched path must finalize to the same bytes.

use pg_hive_core::{Discoverer, SchemaState};
use pg_hive_graph::{GraphBuilder, LabelSetRegistry, Record, Value};

/// Resolve `pending` against `registry` one edge at a time into `state`.
/// Returns the records whose endpoints `registry` does not know, in
/// arrival order, and the number resolved.
pub fn resolve_pending_reference(
    d: &Discoverer,
    state: &mut SchemaState,
    registry: &LabelSetRegistry,
    pending: Vec<Record>,
) -> (Vec<Record>, u64) {
    let mut unresolved = Vec::new();
    let mut resolved = 0u64;
    for rec in pending {
        let (Some(src_ls), Some(tgt_ls)) =
            (registry.label_set(&rec.src), registry.label_set(&rec.tgt))
        else {
            unresolved.push(rec);
            continue;
        };
        let mut b = GraphBuilder::new();
        let src_labels: Vec<&str> = src_ls.iter().map(String::as_str).collect();
        let tgt_labels: Vec<&str> = tgt_ls.iter().map(String::as_str).collect();
        let s = b.add_stub_node(&src_labels);
        let t = b.add_stub_node(&tgt_labels);
        let edge_labels: Vec<&str> = rec.labels.iter().map(String::as_str).collect();
        let edge_props: Vec<(&str, Value)> = rec
            .props
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        b.add_edge(s, t, &edge_labels, &edge_props);
        state.merge(d.discover_chunk_state(&b.finish()));
        resolved += 1;
    }
    (unresolved, resolved)
}
