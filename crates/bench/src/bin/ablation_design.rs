//! Design-choice ablations (the `PipelineConfig` docs in
//! `crates/core/src/config.rs`): the knobs this implementation added or
//! interpreted, swept one at a time on a noisy semi-labeled workload
//! where they actually matter — label weight `w` and merge threshold θ.
//! The embedding strategy is no longer a knob: the `pg-hive-embed` crate
//! docs give the hash-vs-Word2Vec sweep that settled it.
//!
//! Not a paper figure; this is the evidence backing the defaults.

use pg_hive_bench::{banner, scale, seed};
use pg_hive_core::{Discoverer, PipelineConfig};
use pg_hive_datasets::{inject_noise, DatasetId, NoiseSpec};
use pg_hive_eval::majority_f1;

fn main() {
    let scale = scale(0.1);
    let seed = seed();
    banner("Design ablations (label weight, theta)", scale, seed);

    let workloads = [
        (DatasetId::Pole, 20u32, 50u32),
        (DatasetId::Icij, 20, 50),
        (DatasetId::Mb6, 20, 100),
    ];

    println!("label_weight sweep (ELSH):");
    for (ds, noise, labels) in workloads {
        print!("  {:<6} noise={noise}% labels={labels}%:", ds.name());
        for w in [0.0f32, 2.0, 6.0, 12.0] {
            let f1 = run(ds, noise, labels, seed, |c| c.label_weight = w);
            print!("  w={w}: {f1:.3}");
        }
        println!();
    }

    // θ drives Algorithm 2's *schema-level* merging, not the raw clusters,
    // so this sweep scores the type-level assignment and reports the type
    // inventory size: low θ over-merges unlabeled clusters into wrong types
    // (type-level F1 falls), θ = 1.0 refuses all structural merges
    // (ABSTRACT type explosion).
    println!("\ntheta sweep (Jaccard merge threshold; type-level F1 / #node types):");
    for (ds, noise, labels) in workloads {
        print!("  {:<6} noise={noise}% labels={labels}%:", ds.name());
        for theta in [0.3f64, 0.5, 0.9, 1.0] {
            let (f1, types) = run_type_level(ds, noise, labels, seed, theta);
            print!("  θ={theta}: {f1:.3}/{types}");
        }
        println!();
    }

    println!(
        "\nReading: w = 0 removes the hybrid label signal (pure structure) and F1 drops \
         on label-rich data; θ below ~0.7 over-merges unlabeled clusters."
    );
}

fn run_type_level(ds: DatasetId, noise: u32, labels: u32, seed: u64, theta: f64) -> (f64, usize) {
    let mut d = ds.generate(pg_hive_bench::scale(0.1), seed);
    inject_noise(&mut d.graph, &NoiseSpec::grid(noise, labels, seed));
    let cfg = PipelineConfig {
        seed,
        theta,
        ..PipelineConfig::elsh_adaptive()
    };
    let r = Discoverer::new(cfg).discover(&d.graph);
    let f1 = majority_f1(&r.node_assignment, &d.truth.node_types).macro_f1;
    (f1, r.schema.node_types.len())
}

fn run(
    ds: DatasetId,
    noise: u32,
    labels: u32,
    seed: u64,
    tweak: impl FnOnce(&mut PipelineConfig),
) -> f64 {
    let mut d = ds.generate(pg_hive_bench::scale(0.1), seed);
    inject_noise(&mut d.graph, &NoiseSpec::grid(noise, labels, seed));
    let mut cfg = PipelineConfig {
        seed,
        ..PipelineConfig::elsh_adaptive()
    };
    tweak(&mut cfg);
    let r = Discoverer::new(cfg).discover(&d.graph);
    majority_f1(&r.node_cluster_assignment, &d.truth.node_types).macro_f1
}
