//! The seed's scalar LSH implementations, kept verbatim as (a) the perf
//! baseline that `BENCH_lsh.json` tracks speedups against and (b) the
//! equality oracle for the flat-matrix kernels: for any fixed seed
//! the optimized paths must reproduce these clusterings bit-for-bit.
//!
//! Not part of the supported API — everything here is sequential and
//! allocation-heavy by design.

use crate::elsh::{gaussian, mix, ElshParams};
use crate::minhash::MinHashParams;
use crate::unionfind::UnionFind;
use crate::Clustering;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The seed's per-element `Vec<Vec<f32>>` ELSH loop.
pub fn elsh_cluster_scalar(vectors: &[Vec<f32>], params: &ElshParams) -> Clustering {
    assert!(params.bucket_width > 0.0, "bucket width must be positive");
    assert!(params.tables > 0, "need at least one hash table");
    let n = vectors.len();
    if n == 0 {
        return Clustering {
            assignment: vec![],
            num_clusters: 0,
        };
    }
    let dim = vectors[0].len();
    assert!(
        vectors.iter().all(|v| v.len() == dim),
        "all vectors must share a dimension"
    );

    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut uf = UnionFind::new(n);
    let mut buckets: HashMap<u64, usize> = HashMap::new();
    let k = params.hashes_per_table;

    for _table in 0..params.tables {
        let dirs: Vec<Vec<f32>> = (0..k)
            .map(|_| (0..dim).map(|_| gaussian(&mut rng)).collect())
            .collect();
        let offsets: Vec<f64> = (0..k)
            .map(|_| Uniform::new(0.0, params.bucket_width).sample(&mut rng))
            .collect();

        buckets.clear();
        for (i, v) in vectors.iter().enumerate() {
            let mut key = 0xcbf2_9ce4_8422_2325u64;
            for (dir, &offset) in dirs.iter().zip(&offsets) {
                let proj: f64 = v
                    .iter()
                    .zip(dir)
                    .map(|(x, a)| (*x as f64) * (*a as f64))
                    .sum();
                let bucket = ((proj + offset) / params.bucket_width).floor() as i64;
                key = mix(key ^ bucket as u64);
            }
            match buckets.get(&key) {
                Some(&first) => {
                    uf.union(first, i);
                }
                None => {
                    buckets.insert(key, i);
                }
            }
        }
    }

    Clustering::from_union_find(&mut uf)
}

/// The seed's sequential MinHash banding loop.
pub fn minhash_cluster_scalar(sets: &[Vec<u64>], params: &MinHashParams) -> Clustering {
    assert!(params.bands > 0, "need at least one band");
    assert!(params.rows_per_band > 0, "need at least one row per band");
    let n = sets.len();
    if n == 0 {
        return Clustering {
            assignment: vec![],
            num_clusters: 0,
        };
    }

    let k = params.bands * params.rows_per_band;
    let sigs: Vec<Vec<u64>> = sets
        .iter()
        .map(|s| crate::minhash::signature(s, k, params.seed))
        .collect();

    let mut uf = UnionFind::new(n);
    let mut buckets: HashMap<u64, usize> = HashMap::new();
    for band in 0..params.bands {
        buckets.clear();
        let lo = band * params.rows_per_band;
        let hi = lo + params.rows_per_band;
        for (i, sig) in sigs.iter().enumerate() {
            let mut key = 0xcbf2_9ce4_8422_2325u64 ^ (band as u64);
            for &row in &sig[lo..hi] {
                key = mix(key ^ row);
            }
            match buckets.get(&key) {
                Some(&first) => {
                    uf.union(first, i);
                }
                None => {
                    buckets.insert(key, i);
                }
            }
        }
    }

    Clustering::from_union_find(&mut uf)
}
