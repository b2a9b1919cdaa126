//! Adaptive LSH parameterization (§4.2 "Adaptive parameterization").
//!
//! Before clustering, PG-HIVE samples "1% of the graph, or at least 10k
//! nodes (whichever is larger)" — capped at the population size — computes
//! the average pairwise Euclidean distance `μ` of the sample, and sets:
//!
//! - `b_base = 1.2 · μ` (the 1.2 factor avoids over-fragmentation),
//! - `b = b_base · α`, where `α = 0.8` for `L ≤ 3` labels, `1.0` for
//!   `4 ≤ L ≤ 10`, and `1.5` for `L > 10`,
//! - `T = b_base · max(5, α · min(25, log10 N))` for nodes and
//!   `T = b_base · max(3, α · min(20, log10 E))` for edges.
//!
//! The paper's wording — "compute the Euclidean distances between the
//! sampled elements and take their average as the distance scale μ" — leaves
//! the pairing strategy open. We interpret μ as the mean **nearest-neighbor**
//! distance within the sample: the **median** distance from a sampled
//! element to its closest sampled peer (median rather than mean so that
//! singleton types — elements with no same-type peer in the sample — do not
//! inflate the scale). This is the intra-type distance scale (most elements
//! have a same-type neighbor), which is what a bucket length must
//! straddle for `b = 1.2·μ` to keep same-type elements colliding while
//! separating types; the mean over *random* pairs would instead be dominated
//! by inter-type distances and `1.2·μ` would merge everything.
//!
//! # Deduplicated inputs
//!
//! The pipeline clusters *distinct signatures* but the paper's heuristics
//! are defined over the *element population* (duplicates and all — e.g. a
//! graph that is 90% one node type must see that mass in the sample).
//! Estimation therefore takes the distinct-row [`VectorMatrix`] plus an
//! optional `rep_of` map (element → distinct row); sampling is over
//! elements, distances are computed on their representative rows, and the
//! nearest-neighbor scan runs once per distinct sampled row. Passing
//! `rep_of = None` means "rows are the population", and feeding the same
//! data either way produces **identical** parameters — the equivalence the
//! dedup fast path relies on.

use crate::matrix::VectorMatrix;

/// Whether parameters are being derived for node or edge clustering — the
/// two use different `T` heuristics in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementClass {
    Nodes,
    Edges,
}

/// Knobs of the adaptive estimator.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Sample fraction of the population (paper: 1%).
    pub sample_fraction: f64,
    /// Minimum sample size (paper: 10_000; capped by `max_sample`).
    pub min_sample: usize,
    /// Hard cap on the number of sampled elements. The nearest-neighbor
    /// scan costs O(m + u²) for `m` sampled elements over `u` distinct
    /// rows, so the cap bounds a deduplicated scan at O(max_sample²).
    pub max_sample: usize,
    /// Seed for sampling.
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            sample_fraction: 0.01,
            min_sample: 10_000,
            max_sample: 512,
            seed: 0xADA7,
        }
    }
}

/// The derived parameters, with the intermediate quantities exposed so that
/// Fig. 6 can mark the adaptive choice on its heatmaps.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveParams {
    /// Estimated distance scale μ.
    pub mu: f64,
    /// `b_base = 1.2 · μ`.
    pub b_base: f64,
    /// Label-count factor α.
    pub alpha: f64,
    /// Final bucket length `b = b_base · α`.
    pub bucket_width: f64,
    /// Number of hash tables `T`.
    pub tables: usize,
}

/// Label-count factor α (§4.2): tight buckets for few labels, wide for many.
pub fn alpha_for_label_count(labels: usize) -> f64 {
    if labels <= 3 {
        0.8
    } else if labels <= 10 {
        1.0
    } else {
        1.5
    }
}

/// Paper heuristic for the table count.
/// `T = b_base · max(k_min, α · min(k_max, log10 N))`, with
/// `(k_min, k_max) = (5, 25)` for nodes and `(3, 20)` for edges.
/// The result is clamped to `[1, 64]` to stay practical (the paper's
/// empirically useful range is `T ∈ [15, 35]`).
pub fn tables_heuristic(b_base: f64, alpha: f64, population: usize, class: ElementClass) -> usize {
    let (k_min, k_max) = match class {
        ElementClass::Nodes => (5.0, 25.0),
        ElementClass::Edges => (3.0, 20.0),
    };
    let log_n = if population > 1 {
        (population as f64).log10()
    } else {
        0.0
    };
    let t = b_base * f64::max(k_min, alpha * f64::min(k_max, log_n));
    (t.round() as usize).clamp(1, 64)
}

/// Derive adaptive parameters for the population described by
/// `(matrix, rep_of)` — see the module docs — and the number of distinct
/// labels `label_count` observed in the dataset.
pub fn derive_params(
    matrix: &VectorMatrix,
    rep_of: Option<&[u32]>,
    label_count: usize,
    class: ElementClass,
    config: &AdaptiveConfig,
) -> AdaptiveParams {
    let population = rep_of.map_or(matrix.rows(), <[u32]>::len);
    let mu = estimate_mu(matrix, rep_of, config);
    let b_base = 1.2 * mu;
    let alpha = alpha_for_label_count(label_count);
    // Guard degenerate data (all-identical vectors → μ = 0): fall back to a
    // unit bucket so LSH still runs; everything collides, which is correct.
    let bucket_width = if b_base > 1e-9 { b_base * alpha } else { 1.0 };
    let tables = tables_heuristic(b_base.max(1.0), alpha, population, class);
    AdaptiveParams {
        mu,
        b_base,
        alpha,
        bucket_width,
        tables,
    }
}

/// Estimate the distance scale μ: the median nearest-neighbor Euclidean
/// distance within a random sample of the population (see module docs for
/// why NN rather than random pairs, and median rather than mean).
pub fn estimate_mu(matrix: &VectorMatrix, rep_of: Option<&[u32]>, config: &AdaptiveConfig) -> f64 {
    let n = rep_of.map_or(matrix.rows(), <[u32]>::len);
    if n < 2 {
        return 0.0;
    }
    // Elements sharing a row share their nearest-neighbor distance, so the
    // scan runs over the sample's distinct rows, O(m + u²) instead of O(m²).
    // A row's candidates are the other sampled rows, plus the row itself
    // when two of its elements were sampled (distance 0) — the distances the
    // per-element scan takes its minimum over.
    let mut rows: Vec<usize> = sample_elements(n, config)
        .into_iter()
        .map(|e| rep_of.map_or(e, |r| r[e] as usize))
        .collect();
    rows.sort_unstable();
    let runs: Vec<&[usize]> = rows.chunk_by(|a, b| a == b).collect();
    let mut nn = Vec::with_capacity(rows.len());
    for run in &runs {
        let a = matrix.row(run[0]);
        let mut best = f64::INFINITY;
        for other in &runs {
            if other[0] == run[0] && run.len() == 1 {
                continue;
            }
            let d = euclidean(a, matrix.row(other[0]));
            if d < best {
                best = d;
            }
        }
        nn.extend(std::iter::repeat_n(best, run.len()));
    }
    nn.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Median (upper of the two middles for even counts, so a 50/50 split of
    // zero-duplicates and real spacings picks the spacing, not zero).
    nn[nn.len() / 2]
}

/// The μ sample of a population of `n` elements: `config`'s sample size
/// of element indices, drawn without replacement by a seeded partial
/// Fisher–Yates shuffle.
fn sample_elements(n: usize, config: &AdaptiveConfig) -> Vec<usize> {
    let target = ((n as f64 * config.sample_fraction) as usize)
        .max(config.min_sample)
        .min(config.max_sample)
        .min(n);
    let mut state = config.seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..target {
        let j = i + (next() % (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(target);
    pool
}

fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: Vec<Vec<f32>>) -> VectorMatrix {
        VectorMatrix::from_rows(&rows)
    }

    #[test]
    fn alpha_brackets() {
        assert_eq!(alpha_for_label_count(0), 0.8);
        assert_eq!(alpha_for_label_count(3), 0.8);
        assert_eq!(alpha_for_label_count(4), 1.0);
        assert_eq!(alpha_for_label_count(10), 1.0);
        assert_eq!(alpha_for_label_count(11), 1.5);
        assert_eq!(alpha_for_label_count(100), 1.5);
    }

    #[test]
    fn tables_respect_floors() {
        // Tiny population: log10 N small, floor kicks in.
        let t_nodes = tables_heuristic(1.0, 0.8, 10, ElementClass::Nodes);
        assert_eq!(t_nodes, 5);
        let t_edges = tables_heuristic(1.0, 0.8, 10, ElementClass::Edges);
        assert_eq!(t_edges, 3);
    }

    #[test]
    fn tables_grow_with_population_and_bbase() {
        let small = tables_heuristic(1.0, 1.0, 1_000, ElementClass::Nodes);
        let large = tables_heuristic(1.0, 1.0, 10_000_000, ElementClass::Nodes);
        assert!(large > small);
        let wide = tables_heuristic(3.0, 1.0, 10_000_000, ElementClass::Nodes);
        assert!(wide >= large);
        assert!(wide <= 64, "clamped");
    }

    #[test]
    fn mu_is_nearest_neighbor_scale() {
        // Points on a 1-D lattice spaced 1 apart: every point's nearest
        // neighbor is at distance 1, regardless of the lattice extent.
        let vs = mat((0..400).map(|i| vec![i as f32]).collect());
        let mu = estimate_mu(&vs, None, &AdaptiveConfig::default());
        assert!((mu - 1.0).abs() < 0.3, "mu = {mu}");
    }

    #[test]
    fn mu_ignores_intercluster_distance() {
        // Two tight blobs far apart: NN distances stay intra-blob.
        let mut vs = vec![vec![0.0f32, 0.0]; 100];
        vs.extend(vec![vec![100.0f32, 0.0]; 100]);
        let mu = estimate_mu(&mat(vs), None, &AdaptiveConfig::default());
        assert_eq!(mu, 0.0, "duplicates give zero NN distance");
    }

    #[test]
    fn mu_zero_for_identical_points() {
        let vs = mat(vec![vec![1.0f32, 1.0]; 100]);
        let mu = estimate_mu(&vs, None, &AdaptiveConfig::default());
        assert_eq!(mu, 0.0);
    }

    #[test]
    fn mu_handles_tiny_inputs() {
        assert_eq!(
            estimate_mu(&VectorMatrix::new(1), None, &AdaptiveConfig::default()),
            0.0
        );
        assert_eq!(
            estimate_mu(&mat(vec![vec![1.0f32]]), None, &AdaptiveConfig::default()),
            0.0
        );
        let two = mat(vec![vec![0.0f32], vec![3.0f32]]);
        let mu = estimate_mu(&two, None, &AdaptiveConfig::default());
        assert!((mu - 3.0).abs() < 1e-6);
    }

    #[test]
    fn derive_params_degenerate_data_falls_back() {
        let vs = mat(vec![vec![5.0f32; 4]; 50]);
        let p = derive_params(
            &vs,
            None,
            2,
            ElementClass::Nodes,
            &AdaptiveConfig::default(),
        );
        assert_eq!(p.bucket_width, 1.0, "fallback bucket");
        assert!(p.tables >= 1);
    }

    #[test]
    fn derive_params_reflects_scale() {
        // NN spacing of 2 along a line: b should be 1.2 * 2 * alpha.
        let vs = mat((0..300).map(|i| vec![(2 * i) as f32, 0.0]).collect());
        let p = derive_params(
            &vs,
            None,
            5,
            ElementClass::Nodes,
            &AdaptiveConfig::default(),
        );
        assert!((p.alpha - 1.0).abs() < 1e-12);
        assert!((p.mu - 2.0).abs() < 0.5, "mu = {}", p.mu);
        assert!((p.bucket_width - 1.2 * p.mu).abs() < 1e-9);
    }

    /// Reference for [`estimate_mu`]: the per-element O(m²) scan, where
    /// every sampled element takes its minimum distance to every other
    /// sampled element.
    fn estimate_mu_by_element(
        matrix: &VectorMatrix,
        rep_of: Option<&[u32]>,
        config: &AdaptiveConfig,
    ) -> f64 {
        let n = rep_of.map_or(matrix.rows(), <[u32]>::len);
        if n < 2 {
            return 0.0;
        }
        let row_of = |element: usize| rep_of.map_or(element, |r| r[element] as usize);
        let sample = sample_elements(n, config);
        let mut nn: Vec<f64> = (0..sample.len())
            .map(|i| {
                let a = matrix.row(row_of(sample[i]));
                let mut best = f64::INFINITY;
                for (j, &e) in sample.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let d = euclidean(a, matrix.row(row_of(e)));
                    if d < best {
                        best = d;
                    }
                }
                best
            })
            .collect();
        nn.sort_by(|a, b| a.partial_cmp(b).unwrap());
        nn[nn.len() / 2]
    }

    #[test]
    fn distinct_row_scan_matches_the_element_scan_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5CA1E);
        for case in 0..60 {
            let rows = rng.gen_range(1..700usize);
            let dim = rng.gen_range(1..5usize);
            // Every fourth case draws coordinates from {0, 1, 2}, so equal
            // vectors sit in distinct rows.
            let coarse = case % 4 == 0;
            let matrix = mat((0..rows)
                .map(|_| {
                    (0..dim)
                        .map(|_| {
                            if coarse {
                                rng.gen_range(0..3u8) as f32
                            } else {
                                rng.gen_range(-4.0f32..4.0)
                            }
                        })
                        .collect()
                })
                .collect());
            // Populations of up to 3,000 elements over a random prefix of
            // the rows, so the sample is smaller than the row count in some
            // cases and repeats rows in others.
            let elements = rng.gen_range(2..3_000usize);
            let used_rows = rng.gen_range(1..=rows);
            let rep_of: Vec<u32> = (0..elements)
                .map(|_| rng.gen_range(0..used_rows) as u32)
                .collect();
            let config = AdaptiveConfig {
                max_sample: rng.gen_range(2..=512),
                seed: rng.gen(),
                ..AdaptiveConfig::default()
            };
            assert_eq!(
                estimate_mu(&matrix, None, &config).to_bits(),
                estimate_mu_by_element(&matrix, None, &config).to_bits(),
                "case {case}: {rows} rows, no rep_of"
            );
            assert_eq!(
                estimate_mu(&matrix, Some(&rep_of), &config).to_bits(),
                estimate_mu_by_element(&matrix, Some(&rep_of), &config).to_bits(),
                "case {case}: {rows} rows, {elements} elements"
            );
        }
    }

    #[test]
    fn dedup_view_matches_expanded_population() {
        // 3 distinct rows, element population of 200 with skewed
        // multiplicities: parameters from (distinct, rep_of) must equal
        // parameters from the fully expanded matrix.
        let distinct = mat(vec![vec![0.0f32, 0.0], vec![5.0, 0.0], vec![0.0, 7.0]]);
        let rep_of: Vec<u32> = (0..200)
            .map(|i| if i % 10 == 0 { i as u32 % 3 } else { 0 })
            .collect();
        let expanded = mat(rep_of
            .iter()
            .map(|&r| distinct.row(r as usize).to_vec())
            .collect());
        let cfg = AdaptiveConfig::default();
        let a = derive_params(&distinct, Some(&rep_of), 4, ElementClass::Nodes, &cfg);
        let b = derive_params(&expanded, None, 4, ElementClass::Nodes, &cfg);
        assert_eq!(a, b);
    }
}
