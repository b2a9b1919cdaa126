//! Per-type diagnostics beyond the single F1\* number: which ground-truth
//! types a clustering confuses with which, and per-type precision/recall.
//! This is the analysis tool behind statements like "MB6's multi-label
//! neurons are misgrouped with Segments under high noise" (§5.1).

use std::collections::HashMap;

/// Precision/recall/F1 and support for one ground-truth type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeScore {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    /// Number of elements of this ground-truth type.
    pub support: usize,
}

/// Full per-type evaluation of a clustering under majority labeling.
#[derive(Debug, Clone)]
pub struct ConfusionReport {
    /// Ground-truth type id → score.
    pub per_type: HashMap<u32, TypeScore>,
    /// `(true_type, predicted_type) → count` for misassigned elements only.
    pub confusions: HashMap<(u32, u32), usize>,
}

impl ConfusionReport {
    /// Build from cluster/truth assignments (same majority-labeling rule as
    /// [`crate::majority_f1`]).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn compute(clusters: &[u32], truth: &[u32]) -> Self {
        assert_eq!(clusters.len(), truth.len(), "length mismatch");

        // Majority type per cluster.
        let mut counts: HashMap<u32, HashMap<u32, u32>> = HashMap::new();
        for (&c, &t) in clusters.iter().zip(truth) {
            *counts.entry(c).or_default().entry(t).or_insert(0) += 1;
        }
        let majority: HashMap<u32, u32> = counts
            .iter()
            .map(|(&c, dist)| {
                let (&best, _) = dist
                    .iter()
                    .max_by_key(|(&t, &n)| (n, std::cmp::Reverse(t)))
                    .expect("non-empty");
                (c, best)
            })
            .collect();

        let mut tp: HashMap<u32, f64> = HashMap::new();
        let mut pred_count: HashMap<u32, f64> = HashMap::new();
        let mut true_count: HashMap<u32, usize> = HashMap::new();
        let mut confusions: HashMap<(u32, u32), usize> = HashMap::new();
        for (&c, &t) in clusters.iter().zip(truth) {
            let p = majority[&c];
            *pred_count.entry(p).or_insert(0.0) += 1.0;
            *true_count.entry(t).or_insert(0) += 1;
            if p == t {
                *tp.entry(t).or_insert(0.0) += 1.0;
            } else {
                *confusions.entry((t, p)).or_insert(0) += 1;
            }
        }

        let per_type = true_count
            .iter()
            .map(|(&t, &support)| {
                let tpv = tp.get(&t).copied().unwrap_or(0.0);
                let pc = pred_count.get(&t).copied().unwrap_or(0.0);
                let precision = if pc > 0.0 { tpv / pc } else { 0.0 };
                let recall = tpv / support as f64;
                let f1 = if precision + recall > 0.0 {
                    2.0 * precision * recall / (precision + recall)
                } else {
                    0.0
                };
                (
                    t,
                    TypeScore {
                        precision,
                        recall,
                        f1,
                        support,
                    },
                )
            })
            .collect();

        ConfusionReport {
            per_type,
            confusions,
        }
    }

    /// The most frequent confusion pairs, descending.
    pub fn top_confusions(&self, n: usize) -> Vec<((u32, u32), usize)> {
        let mut v: Vec<((u32, u32), usize)> =
            self.confusions.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Render with type names (indexable by ground-truth id).
    pub fn render(&self, type_names: &[String]) -> String {
        use std::fmt::Write;
        let name = |t: u32| {
            type_names
                .get(t as usize)
                .map(String::as_str)
                .unwrap_or("?")
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>8} {:>8} {:>8}",
            "type", "precision", "recall", "F1", "support"
        );
        let mut types: Vec<(&u32, &TypeScore)> = self.per_type.iter().collect();
        types.sort_by_key(|(t, _)| **t);
        for (&t, s) in types {
            let _ = writeln!(
                out,
                "{:<28} {:>9.3} {:>8.3} {:>8.3} {:>8}",
                name(t),
                s.precision,
                s.recall,
                s.f1,
                s.support
            );
        }
        let top = self.top_confusions(5);
        if !top.is_empty() {
            let _ = writeln!(out, "top confusions (true -> predicted):");
            for ((t, p), c) in top {
                let _ = writeln!(out, "  {} -> {}  x{}", name(t), name(p), c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clustering_has_no_confusions() {
        let truth = vec![0, 0, 1, 1];
        let clusters = vec![9, 9, 7, 7];
        let r = ConfusionReport::compute(&clusters, &truth);
        assert!(r.confusions.is_empty());
        assert_eq!(r.per_type[&0].f1, 1.0);
        assert_eq!(r.per_type[&1].support, 2);
    }

    #[test]
    fn minority_in_mixed_cluster_shows_up_as_confusion() {
        // Cluster holds 3×A(0) + 1×B(1): B is predicted as A.
        let truth = vec![0, 0, 0, 1];
        let clusters = vec![0, 0, 0, 0];
        let r = ConfusionReport::compute(&clusters, &truth);
        assert_eq!(r.confusions[&(1, 0)], 1);
        assert_eq!(r.per_type[&1].recall, 0.0);
        assert!((r.per_type[&0].precision - 0.75).abs() < 1e-12);
        assert_eq!(r.per_type[&0].recall, 1.0);
    }

    #[test]
    fn render_contains_names_and_pairs() {
        let truth = vec![0, 1];
        let clusters = vec![0, 0];
        let r = ConfusionReport::compute(&clusters, &truth);
        let names = vec!["Person".to_string(), "Post".to_string()];
        let text = r.render(&names);
        assert!(text.contains("Person"));
        assert!(text.contains("Post -> Person"), "{text}");
    }

    #[test]
    fn agrees_with_majority_f1_macro() {
        let truth = vec![0, 0, 1, 1, 2, 2, 2];
        let clusters = vec![0, 1, 1, 1, 2, 2, 0];
        let r = ConfusionReport::compute(&clusters, &truth);
        let macro_from_report: f64 =
            r.per_type.values().map(|s| s.f1).sum::<f64>() / r.per_type.len() as f64;
        let f1 = crate::majority_f1(&clusters, &truth);
        assert!((macro_from_report - f1.macro_f1).abs() < 1e-12);
    }
}
