//! Criterion bench for the remaining pipeline components and ablations
//! (the `PipelineConfig` knobs in `crates/core/src/config.rs`): datatype
//! inference full-scan vs sampled, the θ merge threshold, and the F1*
//! metric itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_hive_core::{Discoverer, PipelineConfig, SamplingConfig};
use pg_hive_datasets::DatasetId;
use pg_hive_eval::majority_f1;

fn bench_datatype_sampling_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("datatype_sampling");
    group.sample_size(10);
    let d = DatasetId::Cord19.generate(0.2, 42);
    for (name, sampling) in [
        ("full_scan", None),
        ("sampled_10pct", Some(SamplingConfig::default())),
    ] {
        let cfg = PipelineConfig {
            datatype_sampling: sampling,
            ..PipelineConfig::elsh_adaptive()
        };
        let disc = Discoverer::new(cfg);
        group.bench_with_input(BenchmarkId::from_parameter(name), &d, |b, d| {
            b.iter(|| disc.discover(&d.graph).schema.node_types.len());
        });
    }
    group.finish();
}

fn bench_f1_metric(c: &mut Criterion) {
    let n = 100_000;
    let clusters: Vec<u32> = (0..n).map(|i| (i % 97) as u32).collect();
    let truth: Vec<u32> = (0..n).map(|i| (i % 13) as u32).collect();
    c.bench_function("majority_f1_100k", |b| {
        b.iter(|| majority_f1(&clusters, &truth).macro_f1);
    });
}

fn bench_theta_ablation(c: &mut Criterion) {
    // Merge-threshold θ sensitivity on an unlabeled graph (merging is the
    // O(C²) step of §4.7's complexity analysis).
    let mut group = c.benchmark_group("theta_ablation");
    group.sample_size(10);
    let mut d = DatasetId::Icij.generate(0.1, 42);
    pg_hive_datasets::inject_noise(&mut d.graph, &pg_hive_datasets::NoiseSpec::grid(20, 0, 42));
    for theta in [0.5f64, 0.9] {
        let cfg = PipelineConfig {
            theta,
            ..PipelineConfig::elsh_adaptive()
        };
        let disc = Discoverer::new(cfg);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("theta{theta}")),
            &d,
            |b, d| {
                b.iter(|| disc.discover(&d.graph).schema.node_types.len());
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_datatype_sampling_ablation,
    bench_f1_metric,
    bench_theta_ablation
);
criterion_main!(benches);
