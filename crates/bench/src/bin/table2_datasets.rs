//! Table 2: dataset statistics — nodes, edges, ground-truth type counts,
//! label counts, and structural pattern counts (Defs. 3.5/3.6) for the
//! eight generated datasets.

use pg_hive_bench::{banner, scale, seed, selected_datasets};
use pg_hive_eval::report::{table2_header, table2_row};

fn main() {
    let scale = scale(0.25);
    let seed = seed();
    banner("Table 2: Dataset statistics", scale, seed);
    println!("{}", table2_header());
    for id in selected_datasets() {
        let d = id.generate(scale, seed);
        println!(
            "{}",
            table2_row(
                id.name(),
                &d.graph,
                d.truth.node_type_names.len(),
                d.truth.edge_type_names.len()
            )
        );
    }
    println!(
        "\n(Each generator mirrors its dataset's structural profile at {scale}x of the \
         default scaled-down size; see crates/datasets/src/catalog.rs for the substitution \
         rationale.)"
    );
}
