//! Criterion bench for the LSH substrate: O(N·T·D) scaling of ELSH and
//! O(N·T) of MinHash (§4.7 efficiency claims), plus the two optimizations
//! this engine is built on — the flat-matrix kernel vs the seed's
//! scalar loop, and signature dedup vs hashing every element.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pg_hive_lsh::{
    elsh_cluster, minhash_cluster, reference, ElshParams, MinHashParams, VectorMatrix,
};

fn vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut state = 7u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    (0..n)
        .map(|i| {
            let center = (i % 10) as f32 * 4.0;
            (0..dim).map(|_| center + next() as f32).collect()
        })
        .collect()
}

/// `n` vectors drawn from `distinct` signature templates — the dedup-shaped
/// workload: LSH only ever needs to hash the `distinct` templates.
fn dedup_vectors(n: usize, distinct: usize, dim: usize) -> (VectorMatrix, Vec<u32>) {
    let templates = vectors(distinct, dim);
    let matrix = VectorMatrix::from_rows(&templates);
    let rep_of: Vec<u32> = (0..n).map(|i| (i % distinct) as u32).collect();
    (matrix, rep_of)
}

fn sets(n: usize) -> Vec<Vec<u64>> {
    (0..n)
        .map(|i| {
            let base = (i % 10) as u64 * 100;
            (0..12).map(|j| base + j).collect()
        })
        .collect()
}

fn elsh_params(tables: usize) -> ElshParams {
    ElshParams {
        bucket_width: 1.0,
        tables,
        hashes_per_table: 4,
        seed: 1,
    }
}

fn bench_elsh_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("elsh_scaling");
    for n in [1_000usize, 4_000, 16_000] {
        let vs = VectorMatrix::from_rows(&vectors(n, 32));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &vs, |b, vs| {
            b.iter(|| elsh_cluster(vs, &elsh_params(15)).num_clusters);
        });
    }
    group.finish();
}

fn bench_elsh_vs_scalar(c: &mut Criterion) {
    // The seed's per-element scalar loop vs the flat-matrix sweep
    // over the identical workload (both produce the identical clustering).
    let mut group = c.benchmark_group("elsh_vs_scalar");
    let n = 16_000;
    let rows = vectors(n, 32);
    let matrix = VectorMatrix::from_rows(&rows);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("scalar_seed"),
        &rows,
        |b, rows| {
            b.iter(|| reference::elsh_cluster_scalar(rows, &elsh_params(15)).num_clusters);
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("flat_matrix"),
        &matrix,
        |b, m| {
            b.iter(|| elsh_cluster(m, &elsh_params(15)).num_clusters);
        },
    );
    group.finish();
}

fn bench_elsh_dedup(c: &mut Criterion) {
    // 100k elements collapsing onto a few hundred distinct signatures: the
    // dedup path hashes the distinct matrix and broadcasts.
    let mut group = c.benchmark_group("elsh_dedup_100k");
    group.sample_size(10);
    let n = 100_000;
    for distinct in [100usize, 1_000] {
        let (matrix, rep_of) = dedup_vectors(n, distinct, 32);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(distinct),
            &(matrix, rep_of),
            |b, (m, rep)| {
                b.iter(|| {
                    let distinct = elsh_cluster(m, &elsh_params(15));
                    rep.iter()
                        .map(|&r| distinct.assignment[r as usize])
                        .max()
                        .unwrap_or(0)
                });
            },
        );
    }
    group.finish();
}

fn bench_elsh_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("elsh_tables");
    let vs = VectorMatrix::from_rows(&vectors(4_000, 32));
    for t in [5usize, 15, 30] {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| elsh_cluster(&vs, &elsh_params(t)).num_clusters);
        });
    }
    group.finish();
}

fn bench_minhash_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("minhash_scaling");
    for n in [1_000usize, 4_000, 16_000] {
        let ss = sets(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &ss, |b, ss| {
            b.iter(|| {
                minhash_cluster(
                    ss,
                    &MinHashParams {
                        bands: 20,
                        rows_per_band: 4,
                        seed: 1,
                    },
                )
                .num_clusters
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_elsh_scaling,
    bench_elsh_vs_scalar,
    bench_elsh_dedup,
    bench_elsh_tables,
    bench_minhash_scaling
);
criterion_main!(benches);
