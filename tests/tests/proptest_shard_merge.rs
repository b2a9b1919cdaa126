//! Proptests for the shard merge-tree: a mixed-format directory of inputs
//! (pgt / CSV / JSONL), randomly partitioned into 2–5 shards and folded
//! back along a **random merge tree**, must finalize to the exact schema
//! text of the unpartitioned serial run.
//!
//! This is the algebraic guarantee `pg-hive merge-state` rests on:
//! snapshot-to-snapshot merge is associative and commutative (on inputs
//! whose node ids are unique), so *any* partition of the input files and
//! *any* fold order — split `--save-state` runs, hierarchical pairwise
//! folds, or offline `merge-state` over saved shards — produce one
//! byte-identical schema. A hand-picked fold order would only certify one
//! tree shape; the random tree certifies the algebra.

use pg_hive_core::snapshot::{ResumeContext, SnapshotConfig};
use pg_hive_core::{Discoverer, PipelineConfig, SchemaState, SignatureCache};
use pg_hive_graph::loader::save_text;
use pg_hive_graph::stream::csv::{save_edges_csv, save_nodes_csv};
use pg_hive_graph::stream::jsonl::save_jsonl;
use pg_hive_graph::{GraphBuilder, MultiSource, PropertyGraph, Value};
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Random small graphs: a mix of labeled/unlabeled nodes, edges that can
/// reference any node (so file cuts produce cross-file edges), and values
/// the wire formats must escape.
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

/// Cut line-oriented text at `fraction` (0..=100) of its lines.
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

/// Cut a CSV file (header + data lines), repeating the header on both
/// halves so each stays a parseable CSV input.
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

/// One input unit of the generated directory tree: either a single file
/// (`.pgt` / `.jsonl`) or a CSV dataset directory.
enum Unit {
    File(&'static str, String),
    Csv(&'static str, String, String),
}

impl Unit {
    fn write_into(&self, dir: &Path) {
        match self {
            Unit::File(name, text) => std::fs::write(dir.join(name), text).unwrap(),
            Unit::Csv(name, nodes, edges) => {
                let sub = dir.join(name);
                std::fs::create_dir_all(&sub).unwrap();
                std::fs::write(sub.join("nodes.csv"), nodes).unwrap();
                std::fs::write(sub.join("edges.csv"), edges).unwrap();
            }
        }
    }
}

/// Serialize `g` once per wire format and split each serialization into
/// two units — six units total, every record covered by all three formats
/// (identical ids bind identical label sets, so registry collisions across
/// shards are value-equal and cannot break commutativity).
fn units(g: &PropertyGraph, cuts: (u8, u8, u8)) -> Vec<Unit> {
    let (pa, pb) = cut_lines(&save_text(g), cuts.0);
    let (ja, jb) = cut_lines(&save_jsonl(g), cuts.1);
    let (na, nb) = cut_csv(&save_nodes_csv(g), cuts.2);
    let (ea, eb) = cut_csv(&save_edges_csv(g), cuts.2);
    vec![
        Unit::File("a.pgt", pa),
        Unit::File("b.pgt", pb),
        Unit::File("c.jsonl", ja),
        Unit::File("d.jsonl", jb),
        Unit::Csv("e", na, ea),
        Unit::Csv("f", nb, eb),
    ]
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_case_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "pg-hive-shard-prop-{}-{}-{tag}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Discover one shard's directory into a mergeable [`ResumeContext`]:
/// within-shard pending edges are resolved by `discover_tree` itself;
/// cross-shard ones come back in `pending` and ride along for the fold.
fn shard_context(d: &Discoverer, dir: &Path, chunk: usize, threads: usize) -> ResumeContext {
    let source = MultiSource::enumerate(dir).expect("shard dir enumerates");
    let r = d
        .discover_tree(&source, chunk, threads)
        .expect("valid generated input");
    ResumeContext {
        config: SnapshotConfig::new(d.config(), chunk),
        ingest: r,
        cache: SignatureCache::default(),
        watch: None,
    }
}

/// Fold the shard contexts along a random binary tree driven by `picks`:
/// each step merges two randomly chosen survivors the way `merge-state`
/// does (config check, then `Ingest::merge`). Associativity +
/// commutativity say the tree shape cannot matter.
fn fold_random(mut ctxs: Vec<ResumeContext>, picks: &[u8]) -> ResumeContext {
    let mut i = 0;
    while ctxs.len() > 1 {
        let a = usize::from(picks[i % picks.len()]) % ctxs.len();
        let mut left = ctxs.swap_remove(a);
        let b = usize::from(picks[(i + 1) % picks.len()]) % ctxs.len();
        let right = ctxs.swap_remove(b);
        left.config
            .ensure_matches(&right.config)
            .expect("same config merges");
        left.ingest.merge(right.ingest);
        ctxs.push(left);
        i += 2;
    }
    ctxs.pop().expect("at least one shard context")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random partition into 2–5 shards, random fold tree ⇒ the merged
    /// context finalizes byte-identically to the unpartitioned serial run
    /// over the same mixed-format directory.
    #[test]
    fn random_shard_partition_and_fold_tree_match_serial(
        g in arb_graph(),
        cuts in (0u8..=100, 0u8..=100, 0u8..=100),
        shard_count in 2usize..=5,
        assign in proptest::collection::vec(0u8..=255, 6),
        picks in proptest::collection::vec(0u8..=255, 8),
        chunk in 1usize..8,
        threads in 1usize..=2,
    ) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let all = units(&g, cuts);

        // Serial reference: every unit in one directory, one shard.
        let full = temp_case_dir("full");
        for u in &all {
            u.write_into(&full);
        }
        let serial = {
            let source = MultiSource::enumerate(&full).expect("dir enumerates");
            let r = d
                .discover_tree(&source, chunk, 1)
                .expect("valid generated input");
            pg_hive_core::serialize::pg_schema_strict(&r.state.finalize(), "G")
        };

        // Random partition: each unit lands in one of `shard_count` dirs.
        let shard_dirs: Vec<_> = (0..shard_count)
            .map(|s| temp_case_dir(&format!("s{s}")))
            .collect();
        for (u, pick) in all.iter().zip(&assign) {
            u.write_into(&shard_dirs[usize::from(*pick) % shard_count]);
        }
        let ctxs: Vec<ResumeContext> = shard_dirs
            .iter()
            .filter(|dir| {
                MultiSource::enumerate(dir).map(|s| !s.is_empty()).unwrap_or(false)
            })
            .map(|dir| shard_context(&d, dir, chunk, threads))
            .collect();
        prop_assert!(!ctxs.is_empty());

        // Random fold tree, then root resolution of cross-shard edges —
        // the exact post-merge step `merge-state` performs.
        let mut merged = fold_random(ctxs, &picks).ingest;
        merged.resolve(&d);
        let folded = pg_hive_core::serialize::pg_schema_strict(&merged.state.finalize(), "G");

        let _ = std::fs::remove_dir_all(&full);
        for dir in &shard_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        prop_assert_eq!(
            &folded,
            &serial,
            "partition {:?} across {} shards, fold picks {:?}",
            assign,
            shard_count,
            picks
        );
    }

    /// Merging a state with a clone of itself is *structurally*
    /// idempotent: occurrence and instance counters double (merge adds
    /// them — that's what makes shard counts correct), but every type,
    /// key, datatype, and MANDATORY flag — i.e. the strict serialization
    /// — is unchanged. `s ⊕ s ≡ s` up to counts.
    #[test]
    fn self_merge_is_structurally_idempotent(
        g in arb_graph(),
        cuts in (0u8..=100, 0u8..=100, 0u8..=100),
        chunk in 1usize..8,
    ) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let dir = temp_case_dir("selfmerge");
        for u in units(&g, cuts) {
            u.write_into(&dir);
        }
        let ctx = shard_context(&d, &dir, chunk, 1);
        let _ = std::fs::remove_dir_all(&dir);

        let state = ctx.ingest.state;
        let base = pg_hive_core::serialize::pg_schema_strict(&state.finalize(), "G");
        let mut doubled = state.clone();
        doubled.merge(state.clone());
        let after = pg_hive_core::serialize::pg_schema_strict(&doubled.finalize(), "G");
        prop_assert_eq!(&after, &base, "self-merge changed the schema structure");
    }

    /// Merging with a freshly constructed empty state (same θ) is a full
    /// identity in both directions: the finalized schema — counts,
    /// MANDATORY flags, everything — is exactly what the non-empty side
    /// finalizes to alone.
    #[test]
    fn merge_with_empty_state_is_identity(
        g in arb_graph(),
        cuts in (0u8..=100, 0u8..=100, 0u8..=100),
        chunk in 1usize..8,
    ) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let dir = temp_case_dir("emptymerge");
        for u in units(&g, cuts) {
            u.write_into(&dir);
        }
        let ctx = shard_context(&d, &dir, chunk, 1);
        let _ = std::fs::remove_dir_all(&dir);
        let theta = d.config().theta;

        // Debug rendering captures the full finalized schema including
        // instance and occurrence counts — stricter than the strict
        // serialization, which is exactly right for an identity law.
        let state = ctx.ingest.state;
        let base = format!("{:?}", state.finalize());

        let mut left = state.clone();
        left.merge(SchemaState::new(theta));
        prop_assert_eq!(
            format!("{:?}", left.finalize()),
            base.clone(),
            "s ⊕ ∅ must equal s"
        );

        let mut right = SchemaState::new(theta);
        right.merge(state.clone());
        prop_assert_eq!(
            format!("{:?}", right.finalize()),
            base,
            "∅ ⊕ s must equal s"
        );
    }
}
