//! Figure 6: heatmaps of F1\*-scores for ELSH with varying `(T, b)`,
//! at 100% label availability and 0% noise, for nodes and edges; the
//! adaptive choice is marked with `x`.
//!
//! The b-axis is expressed as a multiplier of the adaptive bucket width so
//! the grid brackets the adaptive pick on every dataset. Each side's grid is
//! built from the parameters that side was hashed with, so the marked cell
//! reruns the adaptive run; the binary exits 1 when a marked cell's
//! clustering differs from that run's. Since the marked cell copies the
//! reported parameters, that happens only if `PipelineStats::adaptive_*`
//! stops reporting the parameters the run hashed with, or if pinned
//! parameters stop hashing like derived ones.

use pg_hive_bench::{banner, scale, seed, selected_datasets};
use pg_hive_core::{Discoverer, DiscoveryResult, PipelineConfig};
use pg_hive_datasets::{inject_noise, NoiseSpec};
use pg_hive_eval::majority_f1;
use pg_hive_lsh::ElshParams;

const TABLES: [usize; 5] = [5, 10, 20, 30, 40];
const B_MULT: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

fn main() {
    let scale = scale(0.1);
    let seed = seed();
    banner(
        "Figure 6: F1* heatmaps over (T, b), adaptive pick marked",
        scale,
        seed,
    );

    // The paper's grid point is (0% noise, 100% labels), which our
    // generators make easy. A second, harder point (30% noise, 50% labels)
    // shows a landscape with more to separate.
    let mut mismatches = Vec::new();
    for (noise, labels) in [(0u32, 100u32), (30, 50)] {
        println!("--- grid point: {noise}% noise, {labels}% label availability ---\n");
        run_grid(scale, seed, noise, labels, &mut mismatches);
    }

    println!(
        "Expected shape (paper): smaller b over-separates (high F1, fixed by merging); \
         large b and T merge distinct patterns and F1 drops; the adaptive pick sits \
         near the best cell."
    );
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("FAIL: {m}");
        }
        std::process::exit(1);
    }
}

/// Print both sides' grids for every dataset at one grid point, pushing a
/// line onto `mismatches` for each marked cell that differs from its run.
fn run_grid(scale: f64, seed: u64, noise: u32, labels: u32, mismatches: &mut Vec<String>) {
    let config = PipelineConfig {
        seed,
        ..PipelineConfig::elsh_adaptive()
    };
    for dataset in selected_datasets() {
        let mut d = dataset.generate(scale, seed);
        inject_noise(&mut d.graph, &NoiseSpec::grid(noise, labels, seed));
        let f1 = |r: &DiscoveryResult, side: &str| {
            let truth = if side == "nodes" {
                &d.truth.node_types
            } else {
                &d.truth.edge_types
            };
            majority_f1(assignment(r, side), truth).macro_f1
        };

        // Adaptive run first: reference F1 and the chosen (T, b) per side.
        let adaptive = Discoverer::new(config.clone()).discover(&d.graph);
        println!(
            "{}: adaptive run -> node F1={:.3}, edge F1={:.3}",
            dataset.name(),
            f1(&adaptive, "nodes"),
            f1(&adaptive, "edges")
        );

        for side in ["nodes", "edges"] {
            let run = if side == "nodes" {
                &adaptive.stats.adaptive_nodes
            } else {
                &adaptive.stats.adaptive_edges
            }
            .clone()
            .expect("adaptive path");
            let mut tables = TABLES.to_vec();
            if !tables.contains(&run.tables) {
                tables.push(run.tables);
                tables.sort_unstable();
            }
            println!(
                "  [{side}]  adaptive pick (T={}, b={:.2}); rows: T, cols: b = adaptive x {B_MULT:?}",
                run.tables, run.bucket_width
            );
            for &t in &tables {
                print!("    T={t:<3}");
                for &m in &B_MULT {
                    let cell = PipelineConfig {
                        elsh: Some(ElshParams {
                            bucket_width: run.bucket_width * m,
                            tables: t,
                            ..run.clone()
                        }),
                        ..config.clone()
                    };
                    let cell_run = Discoverer::new(cell).discover(&d.graph);
                    let cell_f1 = f1(&cell_run, side);
                    let marked = t == run.tables && m == 1.0;
                    if marked && assignment(&cell_run, side) != assignment(&adaptive, side) {
                        mismatches.push(format!(
                            "{} {side} at {noise}% noise, {labels}% labels: the marked \
                             cell clusters differently from the adaptive run (F1 {cell_f1:.3} \
                             against {:.3})",
                            dataset.name(),
                            f1(&adaptive, side)
                        ));
                    }
                    print!(" {cell_f1:.3}{}", if marked { "x" } else { " " });
                }
                println!();
            }
        }
        println!();
    }
}

/// One side's per-element cluster ids.
fn assignment<'a>(r: &'a DiscoveryResult, side: &str) -> &'a [u32] {
    if side == "nodes" {
        &r.node_cluster_assignment
    } else {
        &r.edge_cluster_assignment
    }
}
