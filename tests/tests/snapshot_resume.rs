//! Proptests for snapshot persistence: a streaming discovery cut at a
//! random record boundary, checkpointed, reloaded, and resumed must
//! finalize to the **exact schema text** of the uninterrupted run — across
//! all three wire formats (pgt / CSV / JSONL) and 1–4 worker threads.
//!
//! This is the kill/restart guarantee `pg-hive watch --state-dir` and
//! `discover --save-state/--load-state` rest on: persistence must be
//! lossless for every piece of resumable context (the `SchemaState`
//! pools, the id → label-set registry that resolves post-cut edges
//! against pre-cut nodes, and the config guard), not just for the happy
//! path a hand-written example exercises.

use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::snapshot::{ResumeContext, SnapshotConfig};
use pg_hive_core::{Discoverer, Ingest, PipelineConfig, SchemaState, SignatureCache};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::csv::{save_edges_csv, save_nodes_csv, CsvSource};
use pg_hive_graph::stream::jsonl::{save_jsonl, JsonlSource};
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{
    ChunkedTextReader, GraphBuilder, LabelSetRegistry, PropertyGraph, RawGraphSource, Value,
};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Random small graphs with escaper-hostile *values* (commas, quotes,
/// `%`, spaces) and a mix of labeled/unlabeled nodes, so the snapshot
/// codec and the registry both see awkward content. Keys stay wire-safe —
/// the pgt/CSV line formats do not escape keys (hostile keys and labels
/// are covered by the snapshot codec's unit tests, which do not go through
/// a wire format).
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let node = (
        0u8..4,
        any::<bool>(),
        proptest::collection::vec(any::<bool>(), 3),
    );
    (
        proptest::collection::vec(node, 1..25),
        proptest::collection::vec((0u8..25, 0u8..25, 0u8..3), 0..20),
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

#[derive(Clone, Copy, Debug)]
enum Fmt {
    Pgt,
    Csv,
    Jsonl,
}

/// One watch-style pass worth of input text: a single file for pgt/jsonl,
/// the (nodes, edges) pair for CSV.
#[derive(Clone)]
enum PassText {
    Single(String),
    Csv { nodes: String, edges: String },
}

impl PassText {
    fn into_source(self, fmt: Fmt) -> Box<dyn RawGraphSource> {
        match (fmt, self) {
            (Fmt::Pgt, PassText::Single(t)) => {
                Box::new(PgtSource::new(Cursor::new(t.into_bytes())))
            }
            (Fmt::Jsonl, PassText::Single(t)) => {
                Box::new(JsonlSource::new(Cursor::new(t.into_bytes())))
            }
            (Fmt::Csv, PassText::Csv { nodes, edges }) => Box::new(CsvSource::new(
                Cursor::new(nodes.into_bytes()),
                Some(Cursor::new(edges.into_bytes())),
            )),
            _ => unreachable!("format/text mismatch"),
        }
    }
}

/// Cut `text`'s lines at `fraction` (0..=100) of the way through,
/// mimicking how `pg-hive watch` consumes an appended file: pass 1 sees
/// the prefix, pass 2 the remainder.
fn cut_lines(text: &str, fraction: u8) -> (String, String) {
    let lines: Vec<&str> = text.lines().collect();
    let k = lines.len() * usize::from(fraction) / 100;
    let join = |ls: &[&str]| {
        let mut out = ls.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    };
    (join(&lines[..k]), join(&lines[k..]))
}

/// Cut a CSV file (header + data lines) the way the watcher does: the
/// header is retained and prepended to every later delta.
fn cut_csv(text: &str, fraction: u8) -> (String, String) {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let data: Vec<&str> = lines.collect();
    let k = data.len() * usize::from(fraction) / 100;
    let mk = |ls: &[&str]| {
        let mut out = String::from(header);
        out.push('\n');
        for l in ls {
            out.push_str(l);
            out.push('\n');
        }
        out
    };
    (mk(&data[..k]), mk(&data[k..]))
}

/// Serialize `g` in `fmt` and split it into two watch-style passes at
/// `fraction`.
fn passes(g: &PropertyGraph, fmt: Fmt, fraction: u8) -> (PassText, PassText) {
    match fmt {
        Fmt::Pgt => {
            let (a, b) = cut_lines(&save_text(g), fraction);
            (PassText::Single(a), PassText::Single(b))
        }
        Fmt::Jsonl => {
            let (a, b) = cut_lines(&save_jsonl(g), fraction);
            (PassText::Single(a), PassText::Single(b))
        }
        Fmt::Csv => {
            let (na, nb) = cut_csv(&save_nodes_csv(g), fraction);
            let (ea, eb) = cut_csv(&save_edges_csv(g), fraction);
            (
                PassText::Csv {
                    nodes: na,
                    edges: ea,
                },
                PassText::Csv {
                    nodes: nb,
                    edges: eb,
                },
            )
        }
    }
}

/// Absorb one pass into the resident state, carrying the registry across
/// passes exactly like the watch loop does.
fn absorb_pass(
    d: &Discoverer,
    text: PassText,
    fmt: Fmt,
    chunk: usize,
    threads: usize,
    state: &mut SchemaState,
    registry: &mut LabelSetRegistry,
) {
    let mut reader =
        ChunkedTextReader::with_registry(text.into_source(fmt), chunk, std::mem::take(registry));
    d.absorb_stream(
        std::iter::from_fn(|| reader.next_chunk().expect("valid generated input")),
        state,
        threads,
    );
    *registry = reader.into_registry();
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_snapshot_path() -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "pg-hive-snapshot-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// A `discover --save-state` context over `ingest`.
fn context(config: &SnapshotConfig, ingest: Ingest) -> ResumeContext {
    ResumeContext {
        config: config.clone(),
        ingest,
        cache: SignatureCache::default(),
        watch: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Save-at-pass-1 → load → absorb the remainder finalizes to the exact
    /// schema text of the uninterrupted two-pass run, for every format and
    /// thread count.
    #[test]
    fn checkpointed_run_is_byte_identical_to_uninterrupted(
        g in arb_graph(),
        fraction in 0u8..=100,
        chunk in 1usize..8,
        threads in 1usize..=4,
    ) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let config = SnapshotConfig::new(d.config(), chunk);
        for fmt in [Fmt::Pgt, Fmt::Csv, Fmt::Jsonl] {
            let (part1, part2) = passes(&g, fmt, fraction);

            // Uninterrupted: both passes against one resident context.
            let uninterrupted = {
                let mut state = d.new_state();
                let mut registry = LabelSetRegistry::default();
                absorb_pass(&d, part1.clone(), fmt, chunk, threads, &mut state, &mut registry);
                absorb_pass(&d, part2.clone(), fmt, chunk, threads, &mut state, &mut registry);
                pg_schema_strict(&state.finalize(), "G")
            };

            // Kill/restart: checkpoint after pass 1, reload, resume.
            let resumed = {
                let mut state = d.new_state();
                let mut registry = LabelSetRegistry::default();
                absorb_pass(&d, part1.clone(), fmt, chunk, threads, &mut state, &mut registry);
                let path = temp_snapshot_path();
                context(&config, Ingest { registry, ..Ingest::new(state) })
                    .save(&path)
                    .expect("checkpoint saved");
                // Everything in-memory is gone now; reload from disk.
                let ctx = ResumeContext::load(&path).expect("checkpoint loads");
                prop_assert!(ctx.config.ensure_matches(&config).is_ok());
                // The snapshot file is a fixed point: re-serializing the
                // loaded context reproduces the exact bytes.
                let saved = std::fs::read_to_string(&path).expect("snapshot readable");
                ctx.save(&path).expect("checkpoint saved again");
                prop_assert_eq!(
                    std::fs::read_to_string(&path).expect("snapshot readable"),
                    saved
                );
                let mut state = ctx.ingest.state;
                let mut registry = ctx.ingest.registry;
                let mut reader = ChunkedTextReader::with_registry(
                    part2.clone().into_source(fmt),
                    chunk,
                    std::mem::take(&mut registry),
                );
                d.absorb_stream(
                    std::iter::from_fn(|| reader.next_chunk().expect("valid input")),
                    &mut state,
                    threads,
                );
                let _ = std::fs::remove_file(&path);
                pg_schema_strict(&state.finalize(), "G")
            };

            prop_assert_eq!(
                &resumed,
                &uninterrupted,
                "format {:?}, fraction {}, chunk {}, threads {}",
                fmt,
                fraction,
                chunk,
                threads
            );
        }
    }

    /// A state alone, saved and loaded through the one snapshot writer and
    /// loader, round-trips any reachable state to a byte-identical
    /// finalize.
    #[test]
    fn schema_state_save_load_is_lossless(g in arb_graph()) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let mut state = d.discover_chunk_state(&g);
        state.clear_members();
        let expected = pg_schema_strict(&state.finalize(), "G");
        let path = temp_snapshot_path();
        context(&SnapshotConfig::new(d.config(), 1), Ingest::new(state))
            .save(&path)
            .expect("state saved");
        let back = ResumeContext::load(&path).expect("state loads").ingest.state;
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(pg_schema_strict(&back.finalize(), "G"), expected);
    }
}
