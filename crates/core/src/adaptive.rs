//! LSH parameters from the label and element counts (§4.2 "Adaptive
//! parameterization"). One rule serves both families:
//!
//! - the label-count factor is `α = 0.8` for `L ≤ 3` distinct labels,
//!   `1.0` for `4 ≤ L ≤ 10`, and `1.5` for `L > 10`;
//! - the table count is `T = max(5, α · min(25, log10 N))` for `N` nodes and
//!   `T = max(3, α · min(20, log10 E))` for `E` edges, clamped to `[1, 64]`;
//! - ELSH hashes with `k = 4` projections per table and a bucket width of
//!   `b = 1`, lowered to `0.4 · label_weight` when that is smaller: two
//!   elements whose labels disagree are at least `label_weight` apart in
//!   L2, so such a bucket rarely holds both;
//! - MinHash uses `max(15, T)` bands of 4 rows.
//!
//! The paper sets `b = 1.2 · μ · α` and multiplies `T` by `1.2 · μ`, for a
//! distance scale μ sampled from the vectors. Taken as the median
//! nearest-neighbour distance in a sample of elements, μ was 0 on the eight
//! generated datasets and on the perfbench inputs, because most sampled
//! elements share their signature with another; `b` then fell back to 1 and
//! `T`'s factor to 1. Taken between distinct signatures instead, it lowered
//! the mean F1\* of Fig. 4's noise × label grid at every scale (at scale
//! 0.1, nodes 0.805 → 0.756 and edges 0.909 → 0.873; at scale 1.0, nodes
//! 0.751 → 0.667 and edges 0.908 → 0.854). μ was non-zero only on batches
//! of a few dozen elements and on chunks whose signatures are mostly
//! distinct, and there the wider `b` and larger `T` merged elements with
//! different labels into one type: on `bench_stream_json`'s 2,000-node
//! chunks over 50 labels, node F1\* was 0.001 with μ and is 0.975 without.
//! So the parameters follow the counts alone, and the vectors are never
//! sampled.

use crate::config::PipelineConfig;
use pg_hive_lsh::{ElementClass, ElshParams, MinHashParams};

/// Pinned or derived ELSH parameters for a population of `population`
/// elements with `distinct_labels` label sets; the second value repeats the
/// parameters when they were derived (see the module docs for the rule).
pub(crate) fn elsh_params(
    config: &PipelineConfig,
    population: usize,
    distinct_labels: usize,
    class: ElementClass,
) -> (ElshParams, Option<ElshParams>) {
    if let Some(p) = &config.elsh {
        return (p.clone(), None);
    }
    let cap = 0.4 * config.label_weight as f64;
    let alpha = alpha_for_label_count(distinct_labels);
    let params = ElshParams {
        bucket_width: if cap > 0.0 { cap.min(1.0) } else { 1.0 },
        tables: tables_heuristic(alpha, population, class),
        hashes_per_table: 4,
        seed: config.seed ^ 0xE15B,
    };
    (params.clone(), Some(params))
}

/// Pinned or derived MinHash parameters.
pub(crate) fn minhash_params(
    config: &PipelineConfig,
    population: usize,
    distinct_labels: usize,
    class: ElementClass,
) -> MinHashParams {
    match &config.minhash {
        Some(p) => p.clone(),
        None => adaptive_minhash(population, distinct_labels, class, config.seed),
    }
}

/// Adaptive MinHash parameters: the paper says MinHash "only requires the
/// number of hash tables T"; we reuse the table-count heuristic and a
/// fixed band width of 4 rows, giving a collision threshold
/// `(1/T)^(1/4) ≈ 0.45–0.55` over the practical `T ∈ [15, 35]` range.
pub fn adaptive_minhash(
    population: usize,
    distinct_labels: usize,
    class: ElementClass,
    seed: u64,
) -> MinHashParams {
    let alpha = alpha_for_label_count(distinct_labels);
    let bands = tables_heuristic(alpha, population, class).max(15);
    MinHashParams {
        bands,
        rows_per_band: 4,
        seed: seed ^ 0x314,
    }
}

/// Label-count factor α: tight buckets for few labels, wide for many.
fn alpha_for_label_count(labels: usize) -> f64 {
    if labels <= 3 {
        0.8
    } else if labels <= 10 {
        1.0
    } else {
        1.5
    }
}

/// `T = max(k_min, α · min(k_max, log10 N))`, with `(k_min, k_max) = (5, 25)`
/// for nodes and `(3, 20)` for edges, clamped to `[1, 64]` (the paper's
/// empirically useful range is `T ∈ [15, 35]`).
fn tables_heuristic(alpha: f64, population: usize, class: ElementClass) -> usize {
    let (k_min, k_max) = match class {
        ElementClass::Nodes => (5.0, 25.0),
        ElementClass::Edges => (3.0, 20.0),
    };
    let log_n = if population > 1 {
        (population as f64).log10()
    } else {
        0.0
    };
    let t = f64::max(k_min, alpha * f64::min(k_max, log_n));
    (t.round() as usize).clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let t_nodes = tables_heuristic(0.8, 10, ElementClass::Nodes);
        assert_eq!(t_nodes, 5);
        let t_edges = tables_heuristic(0.8, 10, ElementClass::Edges);
        assert_eq!(t_edges, 3);
    }

    #[test]
    fn tables_grow_with_population_and_bbase() {
        let small = tables_heuristic(1.0, 1_000, ElementClass::Nodes);
        let large = tables_heuristic(1.0, 10_000_000, ElementClass::Nodes);
        assert!(large > small);
    }
}
