//! MinHash LSH with banding — Broder's scheme, cited as \[64\] (MMDS ch. 3).
//!
//! Elements are represented as sets of `u64` feature ids (property keys,
//! label tokens, endpoint tokens — the caller decides). For each of
//! `bands × rows_per_band` hash functions `h_i(x) = π_i(x)` we keep the
//! minimum over the set; a *band* is `rows_per_band` consecutive signature
//! entries hashed together, and two sets collide when any band agrees:
//! `P(collide) = 1 − (1 − J^r)^B` for Jaccard similarity `J`.
//!
//! The paper exposes a single parameter `T` (number of hash tables); here a
//! table is a band, and `rows_per_band` defaults to 2, giving the S-curve a
//! usable threshold while keeping signatures short.
//!
//! # Execution strategy
//!
//! Signature + band-key computation is a pure per-set function, computed
//! into one flat `n × bands` key matrix; banding then unions collisions
//! per band through an [`FxHashMap`](crate::fx::FxHashMap) in a fixed
//! order, so results are byte-identical to the scalar reference
//! ([`crate::reference::minhash_cluster_scalar`]) for any seed.

use crate::unionfind::UnionFind;
use crate::Clustering;

/// Parameters of MinHash LSH.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashParams {
    /// Number of bands (`T` in the paper — each band is one "hash table").
    pub bands: usize,
    /// Rows per band (`r`). Collision threshold ≈ `(1/B)^(1/r)`.
    pub rows_per_band: usize,
    /// Seed for the hash-permutation family.
    pub seed: u64,
}

impl Default for MinHashParams {
    fn default() -> Self {
        Self {
            bands: 20,
            rows_per_band: 2,
            seed: 0x314,
        }
    }
}

/// Compute the MinHash signature of one set into `out` (`out.len()` hash
/// functions derived from `seed`). The empty set gets a signature of
/// `u64::MAX` entries, so all empty sets collide with each other and
/// (almost surely) nothing else.
pub fn signature_into(set: &[u64], seed: u64, out: &mut [u64]) {
    // Hash functions are processed in fixed-width blocks: one pass over the
    // set updates SIG_BLOCK independent minima at once, so the set is
    // streamed k/SIG_BLOCK times instead of k and the min-chains have no
    // serial dependency between lanes. `min` is order-invariant on
    // integers, so the signature is bit-identical to the per-function loop.
    const SIG_BLOCK: usize = 8;
    let mut blocks = out.chunks_exact_mut(SIG_BLOCK);
    let mut i = 0usize;
    for block in blocks.by_ref() {
        let mut seeds = [0u64; SIG_BLOCK];
        let mut best = [u64::MAX; SIG_BLOCK];
        for (l, s) in seeds.iter_mut().enumerate() {
            *s = mix(seed ^ ((i + l) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        for &x in set {
            for l in 0..SIG_BLOCK {
                let h = mix(x ^ seeds[l]);
                if h < best[l] {
                    best[l] = h;
                }
            }
        }
        block.copy_from_slice(&best);
        i += SIG_BLOCK;
    }
    for s in blocks.into_remainder() {
        let h_seed = mix(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut best = u64::MAX;
        for &x in set {
            let h = mix(x ^ h_seed);
            if h < best {
                best = h;
            }
        }
        *s = best;
        i += 1;
    }
}

/// Allocating variant of [`signature_into`].
pub fn signature(set: &[u64], k: usize, seed: u64) -> Vec<u64> {
    let mut sig = vec![u64::MAX; k];
    signature_into(set, seed, &mut sig);
    sig
}

/// Exact Jaccard similarity between two sets (sorted or not).
pub fn jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: std::collections::HashSet<u64> = a.iter().copied().collect();
    let sb: std::collections::HashSet<u64> = b.iter().copied().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// Cluster sets with banded MinHash LSH. Returns a [`Clustering`] over the
/// input indices. Complexity `O(N·T)` per §4.7 (signature length is
/// `bands · rows_per_band`, a constant). Same seed → same clustering.
///
/// # Panics
/// Panics if `bands == 0` or `rows_per_band == 0`.
pub fn minhash_cluster(sets: &[Vec<u64>], params: &MinHashParams) -> Clustering {
    assert!(params.bands > 0, "need at least one band");
    assert!(params.rows_per_band > 0, "need at least one row per band");
    let n = sets.len();
    if n == 0 {
        return Clustering {
            assignment: vec![],
            num_clusters: 0,
        };
    }

    let keys = band_keys(sets, params);
    let mut uf = UnionFind::new(n);
    crate::bucket::union_keyed_collisions(&keys, n, params.bands, &mut uf);
    Clustering::from_union_find(&mut uf)
}

/// Flat `n × bands` band-key matrix (row-major: `keys[i·B + band]`).
/// Every set's signature goes through one scratch buffer — no per-set
/// allocation.
fn band_keys(sets: &[Vec<u64>], params: &MinHashParams) -> Vec<u64> {
    let bands = params.bands;
    let r = params.rows_per_band;
    let k = bands * r;
    let mut keys = vec![0u64; sets.len() * bands];
    let mut sig = vec![u64::MAX; k];
    for (set, out) in sets.iter().zip(keys.chunks_mut(bands)) {
        signature_into(set, params.seed, &mut sig);
        for (band, slot) in out.iter_mut().enumerate() {
            let mut key = 0xcbf2_9ce4_8422_2325u64 ^ (band as u64);
            for &row in &sig[band * r..(band + 1) * r] {
                key = mix(key ^ row);
            }
            *slot = key;
        }
    }
    keys
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_always_collide() {
        let sets = vec![vec![1, 2, 3]; 8];
        let c = minhash_cluster(&sets, &MinHashParams::default());
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn disjoint_sets_never_collide() {
        let sets = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
        let c = minhash_cluster(&sets, &MinHashParams::default());
        assert_eq!(c.num_clusters, 3);
    }

    #[test]
    fn empty_sets_collide_with_each_other() {
        let sets = vec![vec![], vec![], vec![1, 2, 3]];
        let c = minhash_cluster(&sets, &MinHashParams::default());
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_ne!(c.assignment[0], c.assignment[2]);
    }

    #[test]
    fn signature_estimates_jaccard() {
        // Agreement fraction of minhash signatures ≈ Jaccard similarity.
        let a: Vec<u64> = (0..100).collect();
        let b: Vec<u64> = (50..150).collect(); // J = 50/150 = 1/3
        let k = 2000;
        let sa = signature(&a, k, 9);
        let sb = signature(&b, k, 9);
        let agree = sa.iter().zip(&sb).filter(|(x, y)| x == y).count();
        let est = agree as f64 / k as f64;
        let true_j = jaccard(&a, &b);
        assert!(
            (est - true_j).abs() < 0.05,
            "estimate {est} vs true {true_j}"
        );
    }

    #[test]
    fn high_jaccard_sets_cluster_together() {
        // J = 9/11 ≈ 0.82; with r=2, B=20: P ≈ 1-(1-0.67)^20 ≈ 1.
        let sets = vec![(0..10).collect::<Vec<u64>>(), (1..11).collect::<Vec<u64>>()];
        let c = minhash_cluster(&sets, &MinHashParams::default());
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn low_jaccard_sets_usually_split() {
        // J = 1/19 ≈ 0.05; with r=2, B=20: P ≈ 1-(1-0.0028)^20 ≈ 0.05.
        let sets = vec![(0..10).collect::<Vec<u64>>(), (9..19).collect::<Vec<u64>>()];
        let c = minhash_cluster(
            &sets,
            &MinHashParams {
                bands: 20,
                rows_per_band: 2,
                seed: 21,
            },
        );
        assert_eq!(c.num_clusters, 2);
    }

    #[test]
    fn jaccard_edge_cases() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1], &[]), 0.0);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[2, 3]), 1.0 / 3.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let sets: Vec<Vec<u64>> = (0..20).map(|i| vec![i, i + 1, i % 5]).collect();
        let p = MinHashParams::default();
        assert_eq!(minhash_cluster(&sets, &p), minhash_cluster(&sets, &p));
    }

    #[test]
    fn matches_reference_scalar_implementation() {
        for seed in [0u64, 21, 0x314] {
            let sets: Vec<Vec<u64>> = (0..150)
                .map(|i| (0..(i % 7 + 1)).map(|j| (i % 13) * 50 + j).collect())
                .collect();
            let p = MinHashParams {
                bands: 16,
                rows_per_band: 3,
                seed,
            };
            let fast = minhash_cluster(&sets, &p);
            let reference = crate::reference::minhash_cluster_scalar(&sets, &p);
            assert_eq!(fast, reference, "divergence at seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "band")]
    fn zero_bands_panics() {
        minhash_cluster(
            &[vec![1]],
            &MinHashParams {
                bands: 0,
                rows_per_band: 1,
                seed: 0,
            },
        );
    }
}
