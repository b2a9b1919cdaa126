//! Property tests for the signature-dedup LSH engine:
//!
//! 1. The dedup fast path (`PipelineConfig::dedup = true`, the default)
//!    produces a clustering **identical** to the naive per-element path on
//!    arbitrary graphs, for both LSH families, through the whole pipeline.
//! 2. The flat-matrix kernels give **byte-identical** assignments to the
//!    scalar reference for any fixed seed, on tiled inputs with many
//!    duplicate rows.

use pg_hive_core::{ClusterMethod, Discoverer, PipelineConfig};
use pg_hive_graph::{GraphBuilder, PropertyGraph, Value};
use pg_hive_lsh::{
    elsh_cluster, minhash_cluster, reference, ElshParams, MinHashParams, VectorMatrix,
};
use proptest::prelude::*;

/// Random small graph with heavy signature duplication: up to 6 templates
/// over up to 120 nodes, so `rep_of` actually collapses elements.
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let node = (
        0u8..6,
        any::<bool>(),
        proptest::collection::vec(any::<bool>(), 3),
    );
    (
        proptest::collection::vec(node, 1..120),
        proptest::collection::vec((0u8..120, 0u8..120, 0u8..3), 0..80),
    )
        .prop_map(|(nodes, edges)| {
            let mut b = GraphBuilder::new();
            let mut ids = Vec::new();
            for (ty, labeled, key_mask) in &nodes {
                let label = format!("T{ty}");
                let labels: Vec<&str> = if *labeled { vec![&label] } else { vec![] };
                let keys = ["alpha", "beta", "gamma"];
                let props: Vec<(&str, Value)> = keys
                    .iter()
                    .zip(key_mask)
                    .filter(|(_, &m)| m)
                    .map(|(k, _)| (*k, Value::Int(*ty as i64)))
                    .collect();
                ids.push(b.add_node(&labels, &props));
            }
            for (s, t, e) in &edges {
                let si = *s as usize % ids.len();
                let ti = *t as usize % ids.len();
                let label = format!("E{e}");
                b.add_edge(ids[si], ids[ti], &[&label], &[]);
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dedup_pipeline_equals_naive_pipeline(g in arb_graph()) {
        for method in [ClusterMethod::Elsh, ClusterMethod::MinHash] {
            let fast = Discoverer::new(PipelineConfig {
                method,
                dedup: true,
                ..PipelineConfig::default()
            })
            .discover(&g);
            let naive = Discoverer::new(PipelineConfig {
                method,
                dedup: false,
                ..PipelineConfig::default()
            })
            .discover(&g);
            // Raw LSH cluster ids match element-for-element — not just the
            // partition, the numbering too.
            prop_assert_eq!(
                &fast.node_cluster_assignment,
                &naive.node_cluster_assignment
            );
            prop_assert_eq!(
                &fast.edge_cluster_assignment,
                &naive.edge_cluster_assignment
            );
            // And therefore the whole downstream schema agrees.
            prop_assert_eq!(&fast.schema, &naive.schema);
            prop_assert_eq!(&fast.node_assignment, &naive.node_assignment);
            // The fast path hashed no more points than the naive one.
            prop_assert!(fast.stats.node_signatures <= naive.stats.node_signatures);
        }
    }

    #[test]
    fn parallel_elsh_matches_serial_reference(
        points in proptest::collection::vec(
            proptest::collection::vec(-8.0f32..8.0, 6), 1..40),
        dups in 1usize..200,
        seed in 0u64..1000
    ) {
        // Tile the points so the input crosses the parallel threshold for
        // larger cases; duplicates also exercise bucket chaining.
        let tiled: Vec<Vec<f32>> = points
            .iter()
            .cycle()
            .take(points.len() * (1 + dups / points.len().max(1)).min(80) + dups)
            .cloned()
            .collect();
        let params = ElshParams {
            bucket_width: 0.8,
            tables: 9,
            hashes_per_table: 3,
            seed,
        };
        let fast = elsh_cluster(&VectorMatrix::from_rows(&tiled), &params);
        let serial = reference::elsh_cluster_scalar(&tiled, &params);
        prop_assert_eq!(fast.assignment, serial.assignment);
        prop_assert_eq!(fast.num_clusters, serial.num_clusters);
    }

    #[test]
    fn parallel_minhash_matches_serial_reference(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u64..50, 0..8), 1..60),
        seed in 0u64..1000
    ) {
        let tiled: Vec<Vec<u64>> = sets.iter().cycle().take(sets.len() * 40).cloned().collect();
        let params = MinHashParams {
            bands: 12,
            rows_per_band: 2,
            seed,
        };
        let fast = minhash_cluster(&tiled, &params);
        let serial = reference::minhash_cluster_scalar(&tiled, &params);
        prop_assert_eq!(fast.assignment, serial.assignment);
        prop_assert_eq!(fast.num_clusters, serial.num_clusters);
    }
}
