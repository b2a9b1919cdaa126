//! The majority-based F1\*-score (§5 "Evaluation metrics").
//!
//! "The correctness of a node/edge placement is determined based on whether
//! its actual type matches the majority label(s) of its cluster." Each
//! cluster is assigned the most frequent ground-truth type among its
//! members; every element's *predicted* type is its cluster's majority
//! type; precision/recall/F1 are computed per ground-truth type and
//! macro-averaged (micro average = plain accuracy is also reported).

use std::collections::{BTreeMap, HashMap};

/// F1\* scores of one clustering against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F1Scores {
    /// Macro-averaged F1 over ground-truth types (the headline number).
    pub macro_f1: f64,
    /// Micro-averaged F1 = accuracy under majority labeling.
    pub micro_f1: f64,
    /// Number of distinct predicted (cluster-majority) types.
    pub predicted_types: usize,
}

/// Compute the majority-based F1\* of `clusters` (cluster id per element)
/// against `truth` (ground-truth type id per element).
///
/// Empty inputs score 1.0 (vacuously perfect). Panics if lengths differ.
pub fn majority_f1(clusters: &[u32], truth: &[u32]) -> F1Scores {
    assert_eq!(clusters.len(), truth.len(), "length mismatch");
    let n = clusters.len();
    if n == 0 {
        return F1Scores {
            macro_f1: 1.0,
            micro_f1: 1.0,
            predicted_types: 0,
        };
    }

    // Majority ground-truth type per cluster.
    let mut counts: HashMap<u32, HashMap<u32, u32>> = HashMap::new();
    for (&c, &t) in clusters.iter().zip(truth) {
        *counts.entry(c).or_default().entry(t).or_insert(0) += 1;
    }
    let majority: HashMap<u32, u32> = counts
        .iter()
        .map(|(&c, dist)| {
            let (&best, _) = dist
                .iter()
                .max_by_key(|(&t, &cnt)| (cnt, std::cmp::Reverse(t)))
                .expect("non-empty cluster");
            (c, best)
        })
        .collect();

    // Predicted type per element = its cluster's majority.
    let predicted: Vec<u32> = clusters.iter().map(|c| majority[c]).collect();

    // Per-type precision/recall/F1, summed in ascending type id so that
    // the float sum, and so `macro_f1`, is the same bits on every call.
    let mut tp: HashMap<u32, f64> = HashMap::new();
    let mut pred_count: HashMap<u32, f64> = HashMap::new();
    let mut true_count: BTreeMap<u32, f64> = BTreeMap::new();
    for (&p, &t) in predicted.iter().zip(truth) {
        *pred_count.entry(p).or_insert(0.0) += 1.0;
        *true_count.entry(t).or_insert(0.0) += 1.0;
        if p == t {
            *tp.entry(t).or_insert(0.0) += 1.0;
        }
    }

    let mut macro_sum = 0.0;
    let mut types = 0usize;
    for (&t, &tc) in &true_count {
        let tpv = tp.get(&t).copied().unwrap_or(0.0);
        let pc = pred_count.get(&t).copied().unwrap_or(0.0);
        let precision = if pc > 0.0 { tpv / pc } else { 0.0 };
        let recall = tpv / tc;
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        macro_sum += f1;
        types += 1;
    }

    let correct = predicted.iter().zip(truth).filter(|(p, t)| p == t).count() as f64;

    let distinct_predicted: std::collections::HashSet<u32> = majority.values().copied().collect();

    F1Scores {
        macro_f1: macro_sum / types as f64,
        micro_f1: correct / n as f64,
        predicted_types: distinct_predicted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clustering_scores_one() {
        let truth = vec![0, 0, 1, 1, 2, 2];
        let clusters = vec![5, 5, 9, 9, 7, 7];
        let s = majority_f1(&clusters, &truth);
        assert_eq!(s.macro_f1, 1.0);
        assert_eq!(s.micro_f1, 1.0);
        assert_eq!(s.predicted_types, 3);
    }

    #[test]
    fn over_fragmentation_is_free() {
        // Splitting a type across clusters doesn't hurt F1*: every fragment
        // still has the right majority.
        let truth = vec![0, 0, 0, 0, 1, 1];
        let clusters = vec![0, 1, 2, 3, 4, 4];
        let s = majority_f1(&clusters, &truth);
        assert_eq!(s.macro_f1, 1.0);
    }

    #[test]
    fn mixed_cluster_penalizes_minority() {
        // One cluster holds 3×A and 1×B: B is mislabeled as A.
        let truth = vec![0, 0, 0, 1];
        let clusters = vec![0, 0, 0, 0];
        let s = majority_f1(&clusters, &truth);
        // Type A: P = 3/4, R = 1 → F1 = 6/7. Type B: F1 = 0.
        assert!((s.macro_f1 - (6.0 / 7.0) / 2.0).abs() < 1e-9);
        assert!((s.micro_f1 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn total_merge_collapses_macro() {
        // Everything in one cluster, 4 equal types: macro F1 tanks.
        let truth = vec![0, 1, 2, 3];
        let clusters = vec![0, 0, 0, 0];
        let s = majority_f1(&clusters, &truth);
        assert!(s.macro_f1 < 0.15);
        assert_eq!(s.predicted_types, 1);
    }

    #[test]
    fn empty_inputs_are_vacuously_perfect() {
        let s = majority_f1(&[], &[]);
        assert_eq!(s.macro_f1, 1.0);
    }

    #[test]
    fn majority_tie_is_deterministic() {
        // 1×A + 1×B in one cluster: tie broken toward the smaller type id.
        let truth = vec![0, 1];
        let clusters = vec![0, 0];
        let a = majority_f1(&clusters, &truth);
        let b = majority_f1(&clusters, &truth);
        assert_eq!(a, b);
    }

    #[test]
    fn macro_f1_is_bit_reproducible() {
        // 12 types of 7 + 3t elements; every (t + 2)-th element of type t
        // sits in the next type's cluster, so the per-type F1s differ and
        // their float sum depends on the order it is taken in.
        let (mut clusters, mut truth) = (Vec::new(), Vec::new());
        for t in 0..12u32 {
            for i in 0..7 + 3 * t {
                clusters.push(if i % (t + 2) == 0 { (t + 1) % 12 } else { t });
                truth.push(t);
            }
        }
        let first = majority_f1(&clusters, &truth).macro_f1.to_bits();
        for call in 0..50 {
            let bits = majority_f1(&clusters, &truth).macro_f1.to_bits();
            assert_eq!(bits, first, "call {call}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        majority_f1(&[0], &[0, 1]);
    }
}
