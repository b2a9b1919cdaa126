//! Proptests for the incremental steady-state engine: every shortcut the
//! hot path takes must be **byte-identical** in strict schema text to the
//! uncached engine it replaces.
//!
//! Two oracles, each the retained slow path of one optimization:
//!
//! 1. **Signature cache** — `absorb_stream_cached` (cold, warm, and
//!    resumed from serialized cache lines) against `absorb_stream`, across
//!    wire formats × chunk sizes × thread counts, asserting the warm pass
//!    actually hits.
//! 2. **Batched pending resolution** — `resolve_pending` (one mini-graph
//!    per endpoint-signature group) against `resolve_pending_reference`
//!    (`support/resolve.rs`, one mini-graph per carried edge): same
//!    resolved count, same leftovers, same schema.
//!
//! Shard partitions and random merge-tree fold orders are certified
//! separately in `proptest_shard_merge.rs`.

use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::snapshot::{ResumeContext, SnapshotConfig};
use pg_hive_core::{Discoverer, Ingest, PipelineConfig, SignatureCache};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::csv::{save_edges_csv, save_nodes_csv, CsvSource};
use pg_hive_graph::stream::jsonl::{save_jsonl, JsonlSource};
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{
    ChunkedTextReader, GraphBuilder, LabelSetRegistry, PropertyGraph, RawGraphSource, Value,
};
use proptest::prelude::*;
use std::io::Cursor;

#[path = "support/resolve.rs"]
mod resolve;
use resolve::resolve_pending_reference;

/// A factory producing fresh readers over one serialized wire-format text,
/// so cold/warm/reloaded runs each consume an independent source.
type SourceFactory = Box<dyn Fn() -> Box<dyn RawGraphSource>>;

/// Random small graphs: labeled/unlabeled nodes over a few types, edges
/// free to reference any node, values the wire formats must escape.
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let node = (
        0u8..4,
        any::<bool>(),
        proptest::collection::vec(any::<bool>(), 3),
    );
    (
        proptest::collection::vec(node, 1..20),
        proptest::collection::vec((0u8..25, 0u8..25, 0u8..3), 0..16),
    )
        .prop_map(|(nodes, edges)| {
            let mut b = GraphBuilder::new();
            let mut ids = Vec::new();
            for (ty, labeled, key_mask) in &nodes {
                let label = format!("T{ty}");
                let labels: Vec<&str> = if *labeled { vec![&label] } else { vec![] };
                let keys = ["alpha", "beta", "gamma"];
                let values = [
                    Value::Int(7),
                    Value::from("x, \"quoted\"=tricky %"),
                    Value::from("1999-12-19"),
                ];
                let props: Vec<(&str, Value)> = keys
                    .iter()
                    .zip(key_mask)
                    .enumerate()
                    .filter(|(_, (_, &m))| m)
                    .map(|(i, (k, _))| (*k, values[i].clone()))
                    .collect();
                ids.push(b.add_node(&labels, &props));
            }
            for (s, t, e) in &edges {
                let si = *s as usize % ids.len();
                let ti = *t as usize % ids.len();
                let label = format!("E{e}");
                b.add_edge(ids[si], ids[ti], &[&label], &[("w", Value::Int(*e as i64))]);
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Oracle 1: the signature-cache stream — cold, warm, and resumed from
    /// serialized cache lines — is byte-identical to the uncached engine
    /// for every wire format, chunk size, and thread count, and the warm
    /// pass actually re-uses memoized clusterings.
    #[test]
    fn signature_cached_stream_matches_uncached_across_formats(
        g in arb_graph(),
        chunk in 1usize..8,
        threads in 1usize..=4,
    ) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let texts: [(&str, SourceFactory); 3] = [
            ("pgt", {
                let t = save_text(&g);
                Box::new(move || Box::new(PgtSource::new(Cursor::new(t.clone().into_bytes()))))
            }),
            ("jsonl", {
                let t = save_jsonl(&g);
                Box::new(move || Box::new(JsonlSource::new(Cursor::new(t.clone().into_bytes()))))
            }),
            ("csv", {
                let (n, e) = (save_nodes_csv(&g), save_edges_csv(&g));
                Box::new(move || {
                    Box::new(CsvSource::new(
                        Cursor::new(n.clone().into_bytes()),
                        Some(Cursor::new(e.clone().into_bytes())),
                    ))
                })
            }),
        ];
        for (fmt, mk_source) in &texts {
            let run = |cache: Option<&SignatureCache>| {
                let mut state = d.new_state();
                let mut reader = ChunkedTextReader::with_registry(
                    mk_source(),
                    chunk,
                    LabelSetRegistry::default(),
                );
                let chunks = std::iter::from_fn(|| reader.next_chunk().expect("valid input"));
                match cache {
                    Some(c) => d.absorb_stream_cached(chunks, &mut state, threads, c),
                    None => d.absorb_stream(chunks, &mut state, threads),
                };
                pg_schema_strict(&state.finalize(), "G")
            };
            let uncached = run(None);
            let cache = SignatureCache::default();
            prop_assert_eq!(&run(Some(&cache)), &uncached, "cold {} run diverged", fmt);
            // A cold pass may already hit when the stream repeats a chunk
            // shape — that is the cross-chunk memoization working. The
            // warm pass over the same stream must hit on *every* chunk.
            let cold = cache.stats();
            prop_assert_eq!(&run(Some(&cache)), &uncached, "warm {} run diverged", fmt);
            let warm = cache.stats();
            let chunks = cold.hits + cold.misses;
            prop_assert!(
                chunks > 0 && warm.hits - cold.hits == chunks,
                "warm {} pass should hit every chunk: {:?} -> {:?}", fmt, cold, warm
            );
            // Persisted cache (snapshot lines) resumes to the same bytes.
            let reloaded =
                SignatureCache::from_snapshot_lines(&cache.snapshot_lines(), 4096)
                    .expect("cache lines parse");
            prop_assert_eq!(&run(Some(&reloaded)), &uncached, "resumed {} run diverged", fmt);
            prop_assert!(reloaded.stats().hits > 0);
        }
    }

    /// Oracle 2: batched pending-edge resolution (one mini-graph per
    /// endpoint-signature group) returns exactly what the per-edge
    /// reference does — same resolved count, same leftover records, same
    /// finalized schema.
    #[test]
    fn batched_pending_resolution_matches_per_edge_reference(
        g in arb_graph(),
        fraction in 1u8..100,
        chunk in 1usize..8,
    ) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let config = SnapshotConfig::new(d.config(), chunk);
        let text = save_text(&g);
        let lines: Vec<&str> = text.lines().collect();
        let k = lines.len() * usize::from(fraction) / 100;
        let mut contexts = Vec::new();
        for part_lines in [&lines[..k], &lines[k..]] {
            let mut part = part_lines.join("\n");
            if !part.is_empty() {
                part.push('\n');
            }
            let mut state = d.new_state();
            let mut reader = ChunkedTextReader::with_registry(
                PgtSource::new(Cursor::new(part.into_bytes())),
                chunk,
                LabelSetRegistry::default(),
            );
            reader.set_carry_unresolved(true);
            d.absorb_stream(
                std::iter::from_fn(|| reader.next_chunk().expect("valid input")),
                &mut state,
                1,
            );
            let pending = reader.take_pending();
            contexts.push(ResumeContext {
                config: config.clone(),
                ingest: Ingest {
                    registry: reader.into_registry(),
                    pending,
                    ..Ingest::new(state)
                },
                cache: SignatureCache::default(),
                watch: None,
            });
        }
        let base = contexts.remove(0);
        let next = contexts.remove(0);
        base.config.ensure_matches(&next.config).expect("configs match");
        let mut merged = base.ingest;
        merged.merge(next.ingest);

        let (mut batched_state, mut reference_state) = (merged.state.clone(), merged.state);
        let (batched_left, batched_n) =
            d.resolve_pending(&mut batched_state, &merged.registry, merged.pending.clone());
        let (reference_left, reference_n) =
            resolve_pending_reference(&d, &mut reference_state, &merged.registry, merged.pending);
        prop_assert_eq!(batched_n, reference_n);
        prop_assert_eq!(&batched_left, &reference_left);
        prop_assert_eq!(
            pg_schema_strict(&batched_state.finalize(), "G"),
            pg_schema_strict(&reference_state.finalize(), "G")
        );
    }
}
