//! Friedman average ranks and the Nemenyi post-hoc test (Fig. 3).
//!
//! Given a score matrix (methods × cases), rank the methods within each
//! case (rank 1 = best, ties share the average rank), average the ranks
//! per method, and declare two methods significantly different when their
//! average ranks differ by more than the critical distance
//! `CD = q_α · sqrt(k(k+1) / (6N))` (Nemenyi 1963, as used by `autorank`).

/// Studentized-range-based q values at α = 0.05 for k = 2..=10 methods
/// (Demšar 2006, Table 5).
const Q_ALPHA_05: [f64; 9] = [
    1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164,
];

/// Average rank per method over all cases. `scores[m][c]` is method `m`'s
/// score on case `c`; **higher scores are better** (rank 1 = highest).
///
/// # Panics
/// Panics if methods have differing case counts or there are no cases.
pub fn average_ranks(scores: &[Vec<f64>]) -> Vec<f64> {
    let k = scores.len();
    assert!(k > 0, "need at least one method");
    let n = scores[0].len();
    assert!(n > 0, "need at least one case");
    assert!(
        scores.iter().all(|s| s.len() == n),
        "all methods need the same case count"
    );

    let mut rank_sums = vec![0.0; k];
    #[allow(clippy::needless_range_loop)] // c indexes a column across all methods
    for c in 0..n {
        // Rank methods on case c (descending score), averaging ties.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| scores[b][c].partial_cmp(&scores[a][c]).unwrap());
        let mut i = 0;
        while i < k {
            let mut j = i;
            while j + 1 < k && scores[order[j + 1]][c] == scores[order[i]][c] {
                j += 1;
            }
            // Positions i..=j share the average rank.
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &m in &order[i..=j] {
                rank_sums[m] += avg;
            }
            i = j + 1;
        }
    }
    rank_sums.iter().map(|s| s / n as f64).collect()
}

/// The Friedman chi-square statistic for `k` methods over `n` cases with
/// the given average ranks. Large values reject "all methods equivalent".
pub fn friedman_statistic(avg_ranks: &[f64], n: usize) -> f64 {
    let k = avg_ranks.len() as f64;
    let sum_sq: f64 = avg_ranks.iter().map(|r| r * r).sum();
    12.0 * n as f64 / (k * (k + 1.0)) * (sum_sq - k * (k + 1.0) * (k + 1.0) / 4.0)
}

/// Nemenyi critical distance at α = 0.05 for `k` methods and `n` cases.
///
/// # Panics
/// Panics for `k < 2` or `k > 10` (outside the embedded q table).
pub fn nemenyi_critical_distance(k: usize, n: usize) -> f64 {
    assert!((2..=10).contains(&k), "q table covers k in 2..=10");
    let q = Q_ALPHA_05[k - 2];
    q * (k as f64 * (k as f64 + 1.0) / (6.0 * n as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_simple_dominance() {
        // Method 0 always best, method 2 always worst.
        let scores = vec![
            vec![0.9, 0.95, 0.92],
            vec![0.8, 0.85, 0.82],
            vec![0.5, 0.55, 0.52],
        ];
        let r = average_ranks(&scores);
        assert_eq!(r, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_share_average_rank() {
        let scores = vec![vec![0.9], vec![0.9], vec![0.5]];
        let r = average_ranks(&scores);
        assert_eq!(r, vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn critical_distance_reference_value() {
        // Demšar's example regime: k = 4, N = 40 ⇒ CD ≈ 0.7397.
        let cd = nemenyi_critical_distance(4, 40);
        assert!((cd - 2.569 * (4.0 * 5.0 / 240.0f64).sqrt()).abs() < 1e-12);
        assert!((cd - 0.7416).abs() < 0.01, "cd = {cd}");
    }

    #[test]
    fn friedman_zero_when_all_equal() {
        // All methods share rank (k+1)/2 ⇒ statistic 0.
        let r = vec![2.5, 2.5, 2.5, 2.5];
        assert!(friedman_statistic(&r, 40).abs() < 1e-9);
    }

    #[test]
    fn friedman_grows_with_separation() {
        let weak = friedman_statistic(&[2.4, 2.6, 2.4, 2.6], 40);
        let strong = friedman_statistic(&[1.0, 2.0, 3.0, 4.0], 40);
        assert!(strong > weak);
        assert!(strong > 100.0);
    }

    #[test]
    #[should_panic(expected = "q table")]
    fn out_of_table_panics() {
        nemenyi_critical_distance(11, 10);
    }
}
