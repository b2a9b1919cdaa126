//! Perf tracker for the LSH clustering hot path: runs the seed's scalar
//! per-element baseline and the signature-dedup flat-matrix engine
//! on the same 100k-node synthetic graph, verifies the clusterings
//! are identical, and writes `BENCH_lsh.json` (elements/sec, dedup ratio,
//! speedup) so the perf trajectory is tracked PR over PR.
//!
//! Usage: `cargo run --release -p pg-hive-bench --bin bench_lsh_json`
//! (honors `PGHIVE_SCALE` — element count is `100_000 × scale` — and
//! `PGHIVE_SEED`).
//!
//! At full scale (`PGHIVE_SCALE` unset or 1.0) the run also enforces a
//! throughput floor: the fast ELSH path must reach [`ELSH_REQUIRED_RATIO`]×
//! the elements/sec committed in `BENCH_lsh.json` by the previous PR
//! ([`ELSH_BASELINE_EPS`]). Fast-path timings are best-of-3 — the engine is
//! deterministic, so the minimum filters scheduler noise out of the
//! sub-10ms measurements the gate compares.

use pg_hive_core::preprocess::node_representations;
use pg_hive_core::PipelineConfig;
use pg_hive_embed::HashEmbedder;
use pg_hive_graph::{GraphBuilder, NodeId, PropertyGraph, Value};
use pg_hive_lsh::{elsh_cluster, minhash_cluster, reference, ElshParams, MinHashParams};
use std::fmt::Write as _;
use std::time::Instant;

/// A synthetic "social network"-shaped node population: `n` nodes drawn
/// from 30 label templates, each with a core key set plus optional keys —
/// a few hundred distinct (label, key-set) signatures, like real graphs.
fn synthetic_nodes(n: usize, seed: u64) -> PropertyGraph {
    let mut b = GraphBuilder::new();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let types: Vec<String> = (0..30).map(|t| format!("Type{t}")).collect();
    for i in 0..n {
        let t = (next() % 30) as usize;
        let label = types[t].as_str();
        let core_a = format!("t{t}_id");
        let core_b = format!("t{t}_name");
        let mut props: Vec<(&str, Value)> = vec![
            (core_a.as_str(), Value::Int(i as i64)),
            (core_b.as_str(), Value::from("x")),
        ];
        // Four optional keys per type, each present ~70% of the time.
        let opts: Vec<String> = (0..4).map(|k| format!("t{t}_opt{k}")).collect();
        for opt in &opts {
            if next() % 10 < 7 {
                props.push((opt.as_str(), Value::Int(1)));
            }
        }
        b.add_node(&[label], &props);
    }
    b.finish()
}

/// Fast-path ELSH throughput committed in `BENCH_lsh.json` by the previous
/// PR (elements/sec on this container class).
const ELSH_BASELINE_EPS: f64 = 20_925_484.0;
/// The blocked-kernel pass must beat the committed baseline by this factor.
const ELSH_REQUIRED_RATIO: f64 = 1.2;

struct MethodResult {
    name: &'static str,
    scalar_secs: f64,
    fast_secs: f64,
    identical: bool,
}

impl MethodResult {
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.fast_secs
    }
}

fn main() {
    let scale = pg_hive_bench::scale(1.0);
    let seed = pg_hive_bench::seed();
    let n = ((100_000.0 * scale) as usize).max(1_000);
    pg_hive_bench::banner(
        "BENCH_lsh — dedup + flat-matrix LSH vs seed scalar path",
        scale,
        seed,
    );

    let g = synthetic_nodes(n, seed);
    let ids: Vec<NodeId> = g.nodes().map(|(id, _)| id).collect();
    let config = PipelineConfig::default();
    let embedder = HashEmbedder::new(config.embedding_dim, seed);

    let t = Instant::now();
    let repr = node_representations(&g, &ids, &embedder, config.label_weight).repr;
    let preprocess_secs = t.elapsed().as_secs_f64();
    let dedup_ratio = repr.dedup_ratio();
    println!(
        "preprocess: {n} nodes -> {} distinct signatures (dedup ratio {:.1}x) in {:.3}s",
        repr.distinct(),
        dedup_ratio,
        preprocess_secs
    );

    let expanded = repr.expanded_matrix();
    let expanded_sets = repr.expanded_sets();

    // ELSH, fixed parameters (derived ones follow the element and label
    // counts, equal on both paths; pinning keeps the comparison about raw
    // hashing).
    let elsh_params = ElshParams {
        bucket_width: 1.0,
        tables: 15,
        hashes_per_table: 4,
        seed: seed ^ 0xE15B,
    };
    let t = Instant::now();
    let scalar_rows: Vec<Vec<f32>> = expanded.iter_rows().map(<[f32]>::to_vec).collect();
    let _alloc_secs = t.elapsed().as_secs_f64(); // per-element Vec layout the seed used

    let t = Instant::now();
    let elsh_scalar = reference::elsh_cluster_scalar(&scalar_rows, &elsh_params);
    let elsh_scalar_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let elsh_fast = elsh_cluster(&repr.matrix, &elsh_params).broadcast(&repr.rep_of);
    let mut elsh_fast_secs = t.elapsed().as_secs_f64();
    for _ in 0..2 {
        let t = Instant::now();
        let again = elsh_cluster(&repr.matrix, &elsh_params).broadcast(&repr.rep_of);
        elsh_fast_secs = elsh_fast_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(again, elsh_fast, "ELSH fast path is not deterministic");
    }

    let elsh = MethodResult {
        name: "elsh",
        scalar_secs: elsh_scalar_secs,
        fast_secs: elsh_fast_secs,
        identical: elsh_fast == elsh_scalar,
    };

    // MinHash with the paper-practical banding.
    let minhash_params = MinHashParams {
        bands: 20,
        rows_per_band: 4,
        seed: seed ^ 0x314,
    };
    let t = Instant::now();
    let mh_scalar = reference::minhash_cluster_scalar(&expanded_sets, &minhash_params);
    let mh_scalar_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mh_fast = minhash_cluster(&repr.sets, &minhash_params).broadcast(&repr.rep_of);
    let mut mh_fast_secs = t.elapsed().as_secs_f64();
    for _ in 0..2 {
        let t = Instant::now();
        let again = minhash_cluster(&repr.sets, &minhash_params).broadcast(&repr.rep_of);
        mh_fast_secs = mh_fast_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(again, mh_fast, "MinHash fast path is not deterministic");
    }

    let minhash = MethodResult {
        name: "minhash",
        scalar_secs: mh_scalar_secs,
        fast_secs: mh_fast_secs,
        identical: mh_fast == mh_scalar,
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"elements\": {n},");
    let _ = writeln!(json, "  \"distinct_signatures\": {},", repr.distinct());
    let _ = writeln!(json, "  \"dedup_ratio\": {dedup_ratio:.2},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"preprocess_secs\": {preprocess_secs:.4},");
    for m in [&elsh, &minhash] {
        println!(
            "{}: scalar {:.3}s ({:.0} elem/s) | dedup+flat {:.4}s ({:.0} elem/s) | {:.1}x speedup | identical: {}",
            m.name,
            m.scalar_secs,
            n as f64 / m.scalar_secs,
            m.fast_secs,
            n as f64 / m.fast_secs,
            m.speedup(),
            m.identical
        );
        let _ = writeln!(json, "  \"{}\": {{", m.name);
        let _ = writeln!(json, "    \"scalar_secs\": {:.4},", m.scalar_secs);
        let _ = writeln!(json, "    \"fast_secs\": {:.4},", m.fast_secs);
        let _ = writeln!(
            json,
            "    \"scalar_elements_per_sec\": {:.0},",
            n as f64 / m.scalar_secs
        );
        let _ = writeln!(
            json,
            "    \"fast_elements_per_sec\": {:.0},",
            n as f64 / m.fast_secs
        );
        let _ = writeln!(json, "    \"speedup\": {:.2},", m.speedup());
        let _ = writeln!(json, "    \"identical_clustering\": {},", m.identical);
        let _ = writeln!(json, "    \"timing\": \"best of 3\"");
        let _ = writeln!(json, "  }},");
    }
    // The throughput gate only fires at full scale: the committed baseline
    // was measured at 100k elements, and scaled-down CI runs finish in well
    // under a millisecond, where elements/sec is dominated by fixed costs.
    let full_scale = (scale - 1.0).abs() < 1e-9;
    let elsh_eps = n as f64 / elsh.fast_secs;
    let throughput_ok = !full_scale || elsh_eps >= ELSH_REQUIRED_RATIO * ELSH_BASELINE_EPS;
    let _ = writeln!(
        json,
        "  \"elsh_committed_baseline_elements_per_sec\": {ELSH_BASELINE_EPS:.0},"
    );
    let _ = writeln!(json, "  \"elsh_required_ratio\": {ELSH_REQUIRED_RATIO:.2},");
    let _ = writeln!(json, "  \"elsh_throughput_gate_active\": {full_scale},");
    let _ = writeln!(json, "  \"elsh_throughput_gate_ok\": {throughput_ok}");
    json.push_str("}\n");

    std::fs::write("BENCH_lsh.json", &json).expect("write BENCH_lsh.json");
    println!("\nwrote BENCH_lsh.json");

    assert!(
        elsh.identical,
        "ELSH dedup+flat diverged from the seed scalar clustering"
    );
    assert!(
        minhash.identical,
        "MinHash dedup+flat diverged from the seed scalar clustering"
    );
    if !throughput_ok {
        eprintln!(
            "FAIL: ELSH fast path at {elsh_eps:.0} elem/s, below {ELSH_REQUIRED_RATIO}x \
             the committed baseline ({ELSH_BASELINE_EPS:.0} elem/s)"
        );
        std::process::exit(1);
    }
}
