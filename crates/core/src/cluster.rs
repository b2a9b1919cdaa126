//! Stage (c): LSH clustering of representation vectors (§4.2), over
//! deduplicated signatures.
//!
//! LSH hashes the **distinct-signature** rows of an [`ElementRepr`] and the
//! resulting assignment is broadcast back to elements through `rep_of`.
//! This is exactly the clustering the naive per-element sweep produces:
//!
//! - identical vectors (or sets) hash into the same bucket in every table,
//!   so collapsing duplicates onto one representative changes no connected
//!   component of the collision graph;
//! - adaptive parameters depend only on the element count and the
//!   distinct-label count ([`crate::adaptive`]), and the element count is
//!   `rep_of`'s length, so both paths derive the same `b` and `T`;
//! - cluster ids are densified by first occurrence, and the first element
//!   of each cluster corresponds to the first distinct row of that cluster,
//!   so even the numbering matches.
//!
//! `PipelineConfig::dedup = false` runs the naive per-element path (used by
//! the equivalence property tests and the benchmark baseline).

use crate::adaptive::{elsh_params, minhash_params};
use crate::config::{ClusterMethod, PipelineConfig};
use crate::preprocess::ElementRepr;
use pg_hive_lsh::{elsh_cluster, minhash_cluster, Clustering, ElementClass, ElshParams};

/// Outcome of one clustering call, including the derived ELSH parameters
/// for reporting (Fig. 6 marks the adaptive choice).
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Per-**element** clustering (already broadcast from distinct rows).
    pub clustering: Clustering,
    /// The ELSH parameters used, when they were derived rather than pinned.
    pub adaptive: Option<ElshParams>,
    /// How many distinct-signature points LSH actually hashed.
    pub hashed_points: usize,
    /// The distinct-level clustering (row `r` of the representation in
    /// cluster `assignment[r]`): the unit cached by
    /// [`crate::sigcache::SignatureCache`] and the rows extraction reads.
    /// Both paths set it; the naive path reads it off the per-element
    /// clustering.
    pub distinct: Option<Clustering>,
}

/// Cluster one element class (nodes or edges) from its deduplicated
/// representations. Chooses ELSH or MinHash per config; derives parameters
/// adaptively when none are pinned.
pub fn cluster_elements(
    repr: &ElementRepr,
    class: ElementClass,
    config: &PipelineConfig,
) -> ClusterOutcome {
    if config.dedup {
        cluster_dedup(repr, class, config)
    } else {
        cluster_naive(repr, class, config)
    }
}

/// The fast path: hash distinct signatures, broadcast through `rep_of`.
fn cluster_dedup(
    repr: &ElementRepr,
    class: ElementClass,
    config: &PipelineConfig,
) -> ClusterOutcome {
    match config.method {
        ClusterMethod::Elsh => {
            let (params, adaptive) = elsh_params(config, repr.len(), repr.distinct_labels, class);
            let distinct = elsh_cluster(&repr.matrix, &params);
            ClusterOutcome {
                clustering: distinct.broadcast(&repr.rep_of),
                adaptive,
                hashed_points: repr.distinct(),
                distinct: Some(distinct),
            }
        }
        ClusterMethod::MinHash => {
            let params = minhash_params(config, repr.len(), repr.distinct_labels, class);
            let distinct = minhash_cluster(&repr.sets, &params);
            ClusterOutcome {
                clustering: distinct.broadcast(&repr.rep_of),
                adaptive: None,
                hashed_points: repr.distinct(),
                distinct: Some(distinct),
            }
        }
    }
}

/// The seed's per-element path: expand the representation and hash every
/// element. Same clustering, more work.
fn cluster_naive(
    repr: &ElementRepr,
    class: ElementClass,
    config: &PipelineConfig,
) -> ClusterOutcome {
    match config.method {
        ClusterMethod::Elsh => {
            let matrix = repr.expanded_matrix();
            let (params, adaptive) = elsh_params(config, repr.len(), repr.distinct_labels, class);
            let clustering = elsh_cluster(&matrix, &params);
            ClusterOutcome {
                distinct: Some(row_clustering(&clustering, repr)),
                clustering,
                adaptive,
                hashed_points: repr.len(),
            }
        }
        ClusterMethod::MinHash => {
            let params = minhash_params(config, repr.len(), repr.distinct_labels, class);
            let clustering = minhash_cluster(&repr.expanded_sets(), &params);
            ClusterOutcome {
                distinct: Some(row_clustering(&clustering, repr)),
                clustering,
                adaptive: None,
                hashed_points: repr.len(),
            }
        }
    }
}

/// Each distinct row's cluster, read off its elements: identical vectors
/// (and sets) share every bucket, so LSH never splits a row.
fn row_clustering(clustering: &Clustering, repr: &ElementRepr) -> Clustering {
    let mut assignment = vec![u32::MAX; repr.distinct()];
    for (&row, &c) in repr.rep_of.iter().zip(&clustering.assignment) {
        let slot = &mut assignment[row as usize];
        debug_assert!(*slot == u32::MAX || *slot == c, "LSH split row {row}");
        *slot = c;
    }
    Clustering {
        assignment,
        num_clusters: clustering.num_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::adaptive_minhash;
    use crate::config::PipelineConfig;
    use pg_hive_lsh::VectorMatrix;

    /// Two structural groups, well separated in both representations, with
    /// each group one distinct signature repeated 20×.
    fn labeled_repr() -> ElementRepr {
        let mut repr = ElementRepr {
            matrix: VectorMatrix::new(5),
            ..ElementRepr::default()
        };
        repr.matrix.push_row(&[4.0, 0.0, 1.0, 1.0, 0.0]);
        repr.sets.push(vec![1, 2, 3, 10, 11]);
        repr.matrix.push_row(&[0.0, 4.0, 0.0, 0.0, 1.0]);
        repr.sets.push(vec![4, 5, 6, 20, 21]);
        for i in 0..40 {
            repr.rep_of.push((i % 2) as u32);
        }
        repr.distinct_labels = 4;
        repr
    }

    #[test]
    fn elsh_adaptive_separates_groups() {
        let out = cluster_elements(
            &labeled_repr(),
            ElementClass::Nodes,
            &PipelineConfig::elsh_adaptive(),
        );
        assert!(out.adaptive.is_some());
        assert_eq!(out.clustering.num_clusters, 2);
        assert_ne!(out.clustering.assignment[0], out.clustering.assignment[1]);
        assert_eq!(out.clustering.assignment.len(), 40);
        assert_eq!(out.hashed_points, 2, "only distinct signatures hashed");
    }

    /// 20 nodes over 3 distinct labels: one row repeated 20×, or 20
    /// distinct rows one unit apart.
    fn twenty_nodes(distinct_rows: bool) -> ElementRepr {
        let mut repr = ElementRepr {
            matrix: VectorMatrix::new(2),
            ..ElementRepr::default()
        };
        for i in 0..20u32 {
            if distinct_rows || i == 0 {
                repr.matrix.push_row(&[i as f32, 0.0]);
                repr.sets.push(vec![u64::from(i)]);
            }
            repr.rep_of.push(if distinct_rows { i } else { 0 });
        }
        repr.distinct_labels = 3;
        repr
    }

    #[test]
    fn elsh_params_depend_on_counts_only() {
        let derived = |repr: &ElementRepr, config: &PipelineConfig| {
            cluster_elements(repr, ElementClass::Nodes, config)
                .adaptive
                .expect("derived parameters")
        };
        let config = PipelineConfig::elsh_adaptive();
        assert_eq!(
            derived(&twenty_nodes(false), &config),
            derived(&twenty_nodes(true), &config),
            "the spacing of the rows must not move b or T"
        );
        for (label_weight, bucket_width) in [(2.0, 0.8), (6.0, 1.0), (0.0, 1.0)] {
            let config = PipelineConfig {
                label_weight,
                ..PipelineConfig::elsh_adaptive()
            };
            assert_eq!(
                derived(&twenty_nodes(true), &config).bucket_width,
                bucket_width,
                "label_weight {label_weight}"
            );
        }
    }

    #[test]
    fn minhash_adaptive_separates_groups() {
        let out = cluster_elements(
            &labeled_repr(),
            ElementClass::Nodes,
            &PipelineConfig::minhash_default(),
        );
        assert!(out.adaptive.is_none());
        assert_eq!(out.clustering.num_clusters, 2);
    }

    #[test]
    fn fixed_params_bypass_adaptive() {
        let cfg = PipelineConfig {
            elsh: Some(ElshParams::default()),
            ..PipelineConfig::elsh_adaptive()
        };
        let out = cluster_elements(&labeled_repr(), ElementClass::Nodes, &cfg);
        assert!(out.adaptive.is_none());
    }

    #[test]
    fn dedup_and_naive_agree_for_both_methods() {
        let repr = labeled_repr();
        for base in [
            PipelineConfig::elsh_adaptive(),
            PipelineConfig::minhash_default(),
        ] {
            let fast = cluster_elements(&repr, ElementClass::Nodes, &base);
            let naive = cluster_elements(
                &repr,
                ElementClass::Nodes,
                &PipelineConfig {
                    dedup: false,
                    ..base
                },
            );
            assert_eq!(fast.clustering, naive.clustering);
            assert_eq!(fast.distinct, naive.distinct, "the same row clustering");
            assert!(fast.hashed_points <= naive.hashed_points);
        }
    }

    #[test]
    fn adaptive_minhash_bands_in_practical_range() {
        let p = adaptive_minhash(1_000_000, 8, ElementClass::Nodes, 1);
        assert!(p.bands >= 15 && p.bands <= 35, "bands = {}", p.bands);
        assert_eq!(p.rows_per_band, 4);
    }

    #[test]
    fn empty_inputs() {
        let out = cluster_elements(
            &ElementRepr::default(),
            ElementClass::Edges,
            &PipelineConfig::elsh_adaptive(),
        );
        assert_eq!(out.clustering.num_clusters, 0);
        assert_eq!(out.hashed_points, 0);
    }
}
