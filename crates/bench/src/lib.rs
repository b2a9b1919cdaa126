//! # pg-hive-bench
//!
//! Benchmark harness regenerating every table and figure of the PG-HIVE
//! paper's evaluation (§5). One binary per experiment:
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1_capabilities` | Table 1 — capability matrix |
//! | `table2_datasets` | Table 2 — dataset statistics |
//! | `fig3_significance` | Fig. 3 — Nemenyi average ranks over 40 cases |
//! | `fig4_f1_noise` | Fig. 4 — F1\* vs noise × label availability |
//! | `fig5_exec_time` | Fig. 5 — time until type discovery |
//! | `fig6_param_heatmap` | Fig. 6 — F1\* over the (T, b) grid; exits 1 unless each marked cell reruns the adaptive run |
//! | `fig7_incremental` | Fig. 7 — per-batch incremental runtimes |
//! | `fig8_datatype_error` | Fig. 8 — datatype sampling-error bins |
//!
//! Criterion micro/meso benches: `bench_discovery`, `bench_incremental`,
//! `bench_lsh`, `bench_components`.
//!
//! Two JSON perf trackers gate CI PR over PR:
//!
//! - `bench_lsh_json` → `BENCH_lsh.json` — LSH hot-path throughput
//!   (signature dedup + projection banks vs the seed scalar reference);
//! - `bench_stream_json` → `BENCH_stream.json` — streaming ingestion:
//!   load-everything baseline vs serial streaming vs the pipeline-parallel
//!   engine (read-ahead + worker pool; records thread count and read-ahead
//!   depth, honors `PGHIVE_THREADS` / `PGHIVE_READ_AHEAD` / `PGHIVE_CHUNK`).
//!
//! All binaries accept the `PGHIVE_SCALE` environment variable (default
//! shown per binary) to trade fidelity for runtime, and `PGHIVE_SEED`.

use pg_hive_datasets::DatasetId;

/// Scale factor for dataset generation, from `PGHIVE_SCALE` or a default.
pub fn scale(default: f64) -> f64 {
    std::env::var("PGHIVE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Experiment seed, from `PGHIVE_SEED` or 42.
pub fn seed() -> u64 {
    std::env::var("PGHIVE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Datasets to run, from `PGHIVE_DATASETS` (comma-separated names) or all.
pub fn selected_datasets() -> Vec<DatasetId> {
    match std::env::var("PGHIVE_DATASETS") {
        Ok(list) => list
            .split(',')
            .filter_map(|n| pg_hive_datasets::dataset_by_name(n.trim()))
            .collect(),
        Err(_) => DatasetId::ALL.to_vec(),
    }
}

/// Standard experiment banner.
pub fn banner(title: &str, scale: f64, seed: u64) {
    println!("== {title} ==");
    println!("   (scale={scale}, seed={seed}; override with PGHIVE_SCALE / PGHIVE_SEED)");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_when_unset() {
        std::env::remove_var("PGHIVE_SCALE");
        assert_eq!(scale(0.25), 0.25);
    }

    #[test]
    fn selected_datasets_default_all() {
        std::env::remove_var("PGHIVE_DATASETS");
        assert_eq!(selected_datasets().len(), 8);
    }
}
