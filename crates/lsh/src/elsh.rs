//! Euclidean (p-stable) LSH — Datar et al., cited as \[32\]/\[63\] in the paper.
//!
//! Each of the `T` hash tables draws `k` random Gaussian directions `a_j`
//! and uniform offsets `o_j ∈ [0, b)`; the hash of vector `v` in a table is
//! the tuple `(⌊(a_1·v + o_1)/b⌋, …, ⌊(a_k·v + o_k)/b⌋)` (AND-composition
//! within a table, the standard `(k, T)` scheme of Datar et al.). Two
//! vectors collide in a table when all `k` buckets agree; under the OR rule,
//! elements that collide in **at least one** table are clustered together
//! (transitively, via union-find). Decreasing `b` or increasing `T`
//! increases selectivity/recall respectively — exactly the trade-off §4.2
//! describes — while `k > 1` suppresses the rare far-apart collisions that
//! would otherwise chain whole clusters together (per-table false-positive
//! probability drops from `p` to `p^k`).
//!
//! # Execution strategy
//!
//! The seed implementation was a scalar loop over per-element `Vec<Vec<f32>>`
//! (kept verbatim in [`crate::reference`] as the perf baseline). This
//! version is built for throughput:
//!
//! 1. All `T·k` projection directions are drawn up front into one flat
//!    row-major [`VectorMatrix`], so the inner loop is a cache-friendly
//!    GEMV-style sweep: each input row is streamed once against the whole
//!    direction matrix. Each projection runs through the blocked
//!    SIMD-friendly kernel (`matrix::dot_f64_blocked`) — fixed-width lane
//!    blocks with explicit f64 accumulators over the f32 inputs. Parity
//!    with [`crate::reference`] is argued at the *bucket* level: f32×f32
//!    products are exact in f64, so re-association perturbs a projection
//!    by ~1e-16 relative, far below any realistic distance to a
//!    `floor((a·v + o)/b)` boundary (see the kernel docs).
//! 2. Hashing runs on the calling thread: `hash key(i, t)` is a pure
//!    function of the input row and the projections, and after signature
//!    dedup a chunk hashes a few hundred rows at most.
//! 3. Bucketing unions collisions per table through an
//!    [`FxHashMap`](crate::fx::FxHashMap) in the fixed (table-major,
//!    index-major) order the scalar reference unions in.

use crate::matrix::VectorMatrix;
use crate::unionfind::UnionFind;
use crate::Clustering;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of Euclidean LSH.
#[derive(Debug, Clone, PartialEq)]
pub struct ElshParams {
    /// Bucket length `b > 0`: the width of each hash bucket.
    pub bucket_width: f64,
    /// Number of hash tables `T ≥ 1` (OR rule across tables).
    pub tables: usize,
    /// Projections concatenated per table (`k ≥ 1`, AND rule within a
    /// table). The paper exposes only `(b, T)`; `k = 4` is the fixed
    /// AND-width used throughout.
    pub hashes_per_table: usize,
    /// PRNG seed for the random projections.
    pub seed: u64,
}

impl Default for ElshParams {
    fn default() -> Self {
        Self {
            bucket_width: 1.0,
            tables: 10,
            hashes_per_table: 4,
            seed: 0xE15E,
        }
    }
}

/// The precomputed projection bank: `tables · hashes_per_table` Gaussian
/// directions (one flat matrix) plus their uniform offsets, drawn from the
/// seeded RNG in a fixed order (per table: `k` directions, then `k`
/// offsets — the same order the seed implementation used, so fixed seeds
/// reproduce the seed's clustering exactly).
#[derive(Debug, Clone)]
pub struct Projections {
    pub dirs: VectorMatrix,
    pub offsets: Vec<f64>,
}

impl Projections {
    /// Draw the full projection bank for `params` over vectors of `dim`.
    pub fn draw(dim: usize, params: &ElshParams) -> Self {
        let k = params.hashes_per_table;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut dirs = VectorMatrix::with_capacity(params.tables * k, dim);
        let mut offsets = Vec::with_capacity(params.tables * k);
        for _table in 0..params.tables {
            for _j in 0..k {
                dirs.push_row_with(|row| {
                    for x in row.iter_mut() {
                        *x = gaussian(&mut rng);
                    }
                });
            }
            for _j in 0..k {
                offsets.push(Uniform::new(0.0, params.bucket_width).sample(&mut rng));
            }
        }
        Projections { dirs, offsets }
    }
}

/// Cluster the rows of a [`VectorMatrix`] with Euclidean LSH. Returns a
/// [`Clustering`] over row indices.
///
/// Complexity `O(N·T·D)` — the paper's §4.7 efficiency bound — executed as
/// a flat-matrix sweep (see the module docs). Same seed → same clustering.
///
/// # Panics
/// Panics if `bucket_width <= 0`, `tables == 0`, or `hashes_per_table == 0`.
pub fn elsh_cluster(matrix: &VectorMatrix, params: &ElshParams) -> Clustering {
    assert!(params.bucket_width > 0.0, "bucket width must be positive");
    assert!(params.tables > 0, "need at least one hash table");
    assert!(
        params.hashes_per_table > 0,
        "need at least one hash per table"
    );
    let n = matrix.rows();
    if n == 0 {
        return Clustering {
            assignment: vec![],
            num_clusters: 0,
        };
    }

    let projections = Projections::draw(matrix.dim(), params);
    let keys = hash_keys(matrix, &projections, params);
    let mut uf = UnionFind::new(n);
    crate::bucket::union_keyed_collisions(&keys, n, params.tables, &mut uf);
    Clustering::from_union_find(&mut uf)
}

/// Compute the `n × T` bucket-key matrix (row-major: `keys[i·T + t]`).
fn hash_keys(matrix: &VectorMatrix, projections: &Projections, params: &ElshParams) -> Vec<u64> {
    let n = matrix.rows();
    let tables = params.tables;
    let k = params.hashes_per_table;
    // Divide rather than multiply by a precomputed reciprocal: the rounding
    // of `x * (1/b)` can differ from `x / b` in the last ulp, which moves
    // bucket boundaries and would break bit-parity with the reference path.
    let b = params.bucket_width;
    let mut keys = vec![0u64; n * tables];
    for (i, out) in keys.chunks_mut(tables).enumerate() {
        let v = matrix.row(i);
        for (t, slot) in out.iter_mut().enumerate() {
            let mut key = 0xcbf2_9ce4_8422_2325u64;
            for j in 0..k {
                let p = t * k + j;
                let proj = crate::matrix::dot_f64_blocked(v, projections.dirs.row(p));
                let bucket = ((proj + projections.offsets[p]) / b).floor() as i64;
                key = mix(key ^ bucket as u64);
            }
            *slot = key;
        }
    }
    keys
}

#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub(crate) fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: &[f32], n: usize, spread: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                center
                    .iter()
                    .map(|&c| c + spread * (rng.gen::<f32>() - 0.5))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn identical_vectors_always_cluster_together() {
        let vectors = VectorMatrix::from_rows(&vec![vec![1.0, 2.0, 3.0]; 10]);
        let c = elsh_cluster(&vectors, &ElshParams::default());
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn well_separated_blobs_split() {
        let mut vs = blob(&[0.0, 0.0, 0.0, 0.0], 50, 0.05, 1);
        vs.extend(blob(&[10.0, 10.0, 10.0, 10.0], 50, 0.05, 2));
        let c = elsh_cluster(
            &VectorMatrix::from_rows(&vs),
            &ElshParams {
                bucket_width: 0.5,
                tables: 15,
                seed: 3,
                ..Default::default()
            },
        );
        // The two blobs must never be merged.
        for i in 0..50 {
            for j in 50..100 {
                assert_ne!(
                    c.assignment[i], c.assignment[j],
                    "blob members {i} and {j} were merged"
                );
            }
        }
        // And each blob should be (mostly) one cluster: with 15 tables the
        // OR rule gives near-certain recall at distance << b.
        assert!(c.num_clusters <= 4, "got {} clusters", c.num_clusters);
    }

    #[test]
    fn wider_buckets_merge_more() {
        let mut vs = blob(&[0.0; 4], 30, 0.2, 5);
        vs.extend(blob(&[2.0; 4], 30, 0.2, 6));
        let vs = VectorMatrix::from_rows(&vs);
        let narrow = elsh_cluster(
            &vs,
            &ElshParams {
                bucket_width: 0.3,
                tables: 10,
                seed: 7,
                ..Default::default()
            },
        );
        let wide = elsh_cluster(
            &vs,
            &ElshParams {
                bucket_width: 50.0,
                tables: 10,
                seed: 7,
                ..Default::default()
            },
        );
        assert!(wide.num_clusters <= narrow.num_clusters);
        assert_eq!(wide.num_clusters, 1, "huge buckets merge everything");
    }

    #[test]
    fn deterministic_per_seed() {
        let vs = VectorMatrix::from_rows(&blob(&[0.0; 8], 40, 1.0, 11));
        let p = ElshParams {
            bucket_width: 0.7,
            tables: 8,
            seed: 13,
            ..Default::default()
        };
        assert_eq!(elsh_cluster(&vs, &p), elsh_cluster(&vs, &p));
    }

    #[test]
    fn matches_reference_scalar_implementation() {
        // The flat-matrix path must reproduce the seed's scalar
        // clustering bit-for-bit for any fixed seed.
        for seed in [0u64, 13, 0xE15E] {
            let vs = blob(&[0.0; 6], 120, 2.0, seed ^ 0xAB);
            let p = ElshParams {
                bucket_width: 0.9,
                tables: 12,
                hashes_per_table: 3,
                seed,
            };
            let fast = elsh_cluster(&VectorMatrix::from_rows(&vs), &p);
            let reference = crate::reference::elsh_cluster_scalar(&vs, &p);
            assert_eq!(fast, reference, "divergence at seed {seed}");
        }
    }

    #[test]
    fn empty_input() {
        let c = elsh_cluster(&VectorMatrix::new(0), &ElshParams::default());
        assert_eq!(c.num_clusters, 0);
        assert!(c.assignment.is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_width_panics() {
        elsh_cluster(
            &VectorMatrix::from_rows(&[vec![1.0]]),
            &ElshParams {
                bucket_width: 0.0,
                tables: 1,
                seed: 0,
                ..Default::default()
            },
        );
    }
}
