//! Diagonal-covariance Gaussian mixtures fit by EM.

use crate::kmeans::{kmeans, KMeansConfig};

/// EM knobs.
#[derive(Debug, Clone)]
pub struct GmmConfig {
    /// Number of mixture components.
    pub components: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Stop when the log-likelihood improves by less than this.
    pub tolerance: f64,
    /// Variance floor — keeps components from collapsing onto single points.
    pub min_variance: f64,
    /// Seed (k-means++ initialization).
    pub seed: u64,
}

impl Default for GmmConfig {
    fn default() -> Self {
        Self {
            components: 2,
            max_iters: 100,
            tolerance: 1e-6,
            min_variance: 1e-6,
            seed: 0x6A55,
        }
    }
}

/// A fitted mixture of diagonal Gaussians.
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    /// Mixing weights, sum to 1.
    pub weights: Vec<f64>,
    /// `k × d` component means.
    pub means: Vec<Vec<f64>>,
    /// `k × d` per-dimension variances.
    pub variances: Vec<Vec<f64>>,
    /// Final total log-likelihood of the training data.
    pub log_likelihood: f64,
    /// EM iterations actually run.
    pub iterations: usize,
}

impl GaussianMixture {
    /// Fit a mixture to `points` with EM, initialized from k-means++.
    ///
    /// # Panics
    /// Panics if `points` is empty, dims differ, or `components == 0`.
    pub fn fit(points: &[Vec<f64>], config: &GmmConfig) -> Self {
        assert!(config.components > 0, "need at least one component");
        assert!(!points.is_empty(), "need at least one point");
        let n = points.len();
        let d = points[0].len();
        assert!(points.iter().all(|p| p.len() == d), "dimension mismatch");
        let k = config.components.min(n);

        // Init from k-means.
        let km = kmeans(
            points,
            &KMeansConfig {
                k,
                max_iters: 20,
                seed: config.seed,
            },
        );
        let mut weights = vec![0.0; k];
        let mut means = km.centroids.clone();
        let mut variances = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&km.assignment) {
            counts[a] += 1;
            for (v, (x, m)) in variances[a].iter_mut().zip(p.iter().zip(&means[a])) {
                let diff = x - m;
                *v += diff * diff;
            }
        }
        for c in 0..k {
            weights[c] = (counts[c].max(1)) as f64 / n as f64;
            for v in &mut variances[c] {
                *v = (*v / counts[c].max(1) as f64).max(config.min_variance);
            }
        }
        let wsum: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= wsum);

        // EM loop.
        let mut resp = vec![vec![0.0f64; k]; n];
        let mut prev_ll = f64::NEG_INFINITY;
        let mut ll = prev_ll;
        let mut iterations = 0;
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            // E-step.
            ll = 0.0;
            for (i, p) in points.iter().enumerate() {
                let mut logp = vec![0.0f64; k];
                for c in 0..k {
                    logp[c] = weights[c].max(1e-300).ln()
                        + log_gaussian_diag(p, &means[c], &variances[c]);
                }
                let lse = log_sum_exp(&logp);
                ll += lse;
                for c in 0..k {
                    resp[i][c] = (logp[c] - lse).exp();
                }
            }
            // M-step.
            for c in 0..k {
                let nk: f64 = resp.iter().map(|r| r[c]).sum();
                if nk < 1e-12 {
                    continue; // dead component; leave as-is
                }
                weights[c] = nk / n as f64;
                for j in 0..d {
                    let mean: f64 = resp
                        .iter()
                        .zip(points)
                        .map(|(r, p)| r[c] * p[j])
                        .sum::<f64>()
                        / nk;
                    means[c][j] = mean;
                }
                for j in 0..d {
                    let var: f64 = resp
                        .iter()
                        .zip(points)
                        .map(|(r, p)| {
                            let diff = p[j] - means[c][j];
                            r[c] * diff * diff
                        })
                        .sum::<f64>()
                        / nk;
                    variances[c][j] = var.max(config.min_variance);
                }
            }
            if (ll - prev_ll).abs() < config.tolerance {
                break;
            }
            prev_ll = ll;
        }

        GaussianMixture {
            weights,
            means,
            variances,
            log_likelihood: ll,
            iterations,
        }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.weights.len()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.means.first().map_or(0, Vec::len)
    }

    /// Number of free parameters (weights + means + diagonal variances) —
    /// used by BIC/AIC.
    pub fn num_parameters(&self) -> usize {
        let k = self.k();
        let d = self.dim();
        (k - 1) + k * d + k * d
    }

    /// Most likely component for `p`.
    pub fn predict(&self, p: &[f64]) -> usize {
        (0..self.k())
            .max_by(|&a, &b| {
                let la = self.weights[a].max(1e-300).ln()
                    + log_gaussian_diag(p, &self.means[a], &self.variances[a]);
                let lb = self.weights[b].max(1e-300).ln()
                    + log_gaussian_diag(p, &self.means[b], &self.variances[b]);
                la.partial_cmp(&lb).unwrap()
            })
            .unwrap_or(0)
    }

    /// Bayesian information criterion: `k·ln(n) − 2·LL` (lower is better).
    pub fn bic(&self, n: usize) -> f64 {
        self.num_parameters() as f64 * (n as f64).ln() - 2.0 * self.log_likelihood
    }

    /// Akaike information criterion: `2k − 2·LL` (lower is better).
    pub fn aic(&self) -> f64 {
        2.0 * self.num_parameters() as f64 - 2.0 * self.log_likelihood
    }
}

fn log_gaussian_diag(p: &[f64], mean: &[f64], var: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((x, m), v) in p.iter().zip(mean).zip(var) {
        let diff = x - m;
        acc += -0.5 * ((std::f64::consts::TAU * v).ln() + diff * diff / v);
    }
    acc
}

fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_blob(center: &[f64], n: usize, std: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                center
                    .iter()
                    .map(|&c| {
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen();
                        c + std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn recovers_two_components() {
        let mut pts = gaussian_blob(&[0.0, 0.0], 200, 0.3, 1);
        pts.extend(gaussian_blob(&[5.0, 5.0], 200, 0.3, 2));
        let m = GaussianMixture::fit(
            &pts,
            &GmmConfig {
                components: 2,
                ..Default::default()
            },
        );
        // Means near (0,0) and (5,5) in some order.
        let mut found_origin = false;
        let mut found_five = false;
        for mean in &m.means {
            if mean.iter().all(|&x| x.abs() < 0.5) {
                found_origin = true;
            }
            if mean.iter().all(|&x| (x - 5.0).abs() < 0.5) {
                found_five = true;
            }
        }
        assert!(found_origin && found_five, "means = {:?}", m.means);
        // Weights near 0.5 each.
        assert!((m.weights[0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn predict_separates_blobs() {
        let mut pts = gaussian_blob(&[0.0], 100, 0.2, 3);
        pts.extend(gaussian_blob(&[10.0], 100, 0.2, 4));
        let m = GaussianMixture::fit(
            &pts,
            &GmmConfig {
                components: 2,
                ..Default::default()
            },
        );
        let a = m.predict(&[0.1]);
        let b = m.predict(&[9.8]);
        assert_ne!(a, b);
        let all: Vec<usize> = pts.iter().map(|p| m.predict(p)).collect();
        assert!(all[..100].iter().all(|&c| c == all[0]));
        assert!(all[100..].iter().all(|&c| c == all[100]));
    }

    #[test]
    fn log_likelihood_improves_with_right_k() {
        let mut pts = gaussian_blob(&[0.0, 0.0], 150, 0.2, 5);
        pts.extend(gaussian_blob(&[4.0, 4.0], 150, 0.2, 6));
        let m1 = GaussianMixture::fit(
            &pts,
            &GmmConfig {
                components: 1,
                ..Default::default()
            },
        );
        let m2 = GaussianMixture::fit(
            &pts,
            &GmmConfig {
                components: 2,
                ..Default::default()
            },
        );
        assert!(m2.log_likelihood > m1.log_likelihood);
        assert!(m2.bic(pts.len()) < m1.bic(pts.len()));
    }

    #[test]
    fn variance_floor_prevents_collapse() {
        let pts = vec![vec![1.0, 2.0]; 50];
        let m = GaussianMixture::fit(
            &pts,
            &GmmConfig {
                components: 2,
                ..Default::default()
            },
        );
        for var in &m.variances {
            for &v in var {
                assert!(v >= 1e-6);
            }
        }
        assert!(m.log_likelihood.is_finite());
    }

    #[test]
    fn log_sum_exp_stability() {
        assert!((log_sum_exp(&[-1000.0, -1000.0]) - (-1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn num_parameters_formula() {
        let pts = gaussian_blob(&[0.0, 0.0, 0.0], 30, 1.0, 7);
        let m = GaussianMixture::fit(
            &pts,
            &GmmConfig {
                components: 2,
                ..Default::default()
            },
        );
        // (k-1) + k*d + k*d = 1 + 6 + 6 = 13.
        assert_eq!(m.num_parameters(), 13);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn zero_components_panics() {
        GaussianMixture::fit(
            &[vec![0.0]],
            &GmmConfig {
                components: 0,
                ..Default::default()
            },
        );
    }
}
