//! End-to-end check for the `pg-hive merge-state` streaming fold.
//!
//! The CLI folds saved snapshots **two-at-a-time**: the first file becomes
//! the base context and every further file is loaded, merged, and dropped
//! before the next one is opened, so peak residency is two contexts no
//! matter how many snapshots are folded. Because `Ingest::merge` is
//! associative and commutative on the state and registry/pending merging
//! is a plain union/concatenation, that fold must be **byte-identical** —
//! in the serialized snapshot and in the strict schema text — to
//! materializing every `ResumeContext` up front and folding them all at
//! once. This test
//! pins that equivalence over many snapshots, and additionally checks the
//! merged-and-resolved schema equals the single uninterrupted run over the
//! concatenated input (the semantic guarantee `merge-state` exists for).

use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::snapshot::{context_snapshot_cached, ResumeContext, SnapshotConfig};
use pg_hive_core::{Discoverer, Ingest, PipelineConfig, SignatureCache};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{ChunkedTextReader, GraphBuilder, LabelSetRegistry, PropertyGraph, Value};
use std::io::Cursor;
use std::path::{Path, PathBuf};

/// A graph whose pgt serialization interleaves enough structure that
/// splitting it into parts strands edges away from their endpoint
/// declarations — every part carries cross-input pending edges.
fn sample_graph() -> PropertyGraph {
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for i in 0..24u32 {
        let (labels, props): (Vec<&str>, Vec<(&str, Value)>) = match i % 3 {
            0 => (
                vec!["Person"],
                vec![
                    ("name", Value::from(format!("p{i}"))),
                    ("age", Value::Int(20 + i as i64)),
                ],
            ),
            1 => (vec!["Org"], vec![("url", Value::from(format!("o{i}.com")))]),
            _ => (vec![], vec![("note", Value::from("anon"))]),
        };
        ids.push(b.add_node(&labels, &props));
    }
    for i in 0..20usize {
        let (s, t) = (ids[i], ids[(i * 7 + 3) % ids.len()]);
        let label = if i % 2 == 0 { "KNOWS" } else { "WORKS_AT" };
        b.add_edge(s, t, &[label], &[("since", Value::Int(2000 + i as i64))]);
    }
    b.finish()
}

/// Split `text` into `n` roughly equal line-ranges (each part newline
/// terminated when non-empty).
fn split_lines(text: &str, n: usize) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let per = lines.len().div_ceil(n);
    lines
        .chunks(per.max(1))
        .map(|c| {
            let mut s = c.join("\n");
            if !s.is_empty() {
                s.push('\n');
            }
            s
        })
        .collect()
}

/// Absorb one part the way `discover --stream --save-state` does —
/// carrying end-of-stream unresolved edges into the snapshot instead of
/// dropping them — and persist it.
fn save_part_snapshot(
    d: &Discoverer,
    config: &SnapshotConfig,
    part: &str,
    chunk: usize,
    path: &Path,
) {
    let mut state = d.new_state();
    let mut reader = ChunkedTextReader::with_registry(
        PgtSource::new(Cursor::new(part.as_bytes().to_vec())),
        chunk,
        LabelSetRegistry::default(),
    );
    reader.set_carry_unresolved(true);
    d.absorb_stream(
        std::iter::from_fn(|| reader.next_chunk().expect("valid generated input")),
        &mut state,
        1,
    );
    let pending = reader.take_pending();
    let registry = reader.into_registry();
    ResumeContext {
        config: config.clone(),
        ingest: Ingest {
            registry,
            pending,
            ..Ingest::new(state)
        },
        cache: SignatureCache::default(),
        watch: None,
    }
    .save(path)
    .expect("part snapshot saved");
}

/// The `merge-state` fold: the first context is the base, every further one
/// must carry its configuration and merges in through `Ingest::merge`.
fn fold(mut contexts: impl Iterator<Item = ResumeContext>) -> (SnapshotConfig, Ingest) {
    let base = contexts.next().expect("at least one context");
    let mut acc = base.ingest;
    for next in contexts {
        base.config
            .ensure_matches(&next.config)
            .expect("configs match");
        acc.merge(next.ingest);
    }
    (base.config, acc)
}

/// The bytes `merge-state` writes for a folded accumulator.
fn snapshot_text(config: &SnapshotConfig, acc: &Ingest) -> String {
    context_snapshot_cached(config, &acc.state, &acc.registry, None, &acc.pending, None).to_text()
}

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pg-hive-merge-e2e-{}-{tag}", std::process::id()));
    p
}

#[test]
fn streaming_fold_is_byte_identical_to_all_at_once_fold() {
    const PARTS: usize = 7;
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let chunk = 4usize;
    let config = SnapshotConfig::new(d.config(), chunk);
    let text = save_text(&sample_graph());
    let parts = split_lines(&text, PARTS);
    assert_eq!(parts.len(), PARTS);

    let paths: Vec<PathBuf> = (0..PARTS).map(|i| temp_path(&format!("part{i}"))).collect();
    for (part, path) in parts.iter().zip(&paths) {
        save_part_snapshot(&d, &config, part, chunk, path);
    }
    // The split must actually exercise cross-input edges, or the merge
    // fold degenerates to disjoint unions.
    let load = |p: &PathBuf| ResumeContext::load(p).expect("part loads");
    let carried: usize = paths.iter().map(|p| load(p).ingest.pending.len()).sum();
    assert!(carried > 0, "expected stranded cross-part edges, got none");

    // Streaming two-at-a-time fold — exactly what `pg-hive merge-state`
    // runs: base := first, then load / merge / drop each further file.
    let (config, streamed) = fold(paths.iter().map(load));

    // All-at-once fold: materialize every context first, then reduce.
    let contexts: Vec<ResumeContext> = paths.iter().map(load).collect();
    let (_, allatonce) = fold(contexts.into_iter());

    // Collisions are the duplicate node ids the merges counted.
    assert_eq!(
        streamed.warnings.duplicate_nodes,
        allatonce.warnings.duplicate_nodes
    );
    assert_eq!(
        snapshot_text(&config, &streamed),
        snapshot_text(&config, &allatonce),
        "streaming fold and all-at-once fold must serialize identically"
    );

    // Resolve the carried edges against the merged registry (what the CLI
    // does before printing) and compare against the single uninterrupted
    // run over the full input: merge-state must lose nothing at the seams.
    let mut merged = streamed;
    merged.resolve(&d);
    assert!(
        merged.pending.is_empty(),
        "all cross-part edges resolve after merge"
    );
    let single = {
        let mut state = d.new_state();
        let mut reader = ChunkedTextReader::with_registry(
            PgtSource::new(Cursor::new(text.into_bytes())),
            chunk,
            LabelSetRegistry::default(),
        );
        d.absorb_stream(
            std::iter::from_fn(|| reader.next_chunk().expect("valid input")),
            &mut state,
            1,
        );
        pg_schema_strict(&state.finalize(), "G")
    };
    assert_eq!(pg_schema_strict(&merged.state.finalize(), "G"), single);

    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}
