//! # pg-hive-datasets
//!
//! Synthetic property-graph generators mirroring the eight evaluation
//! datasets of the PG-HIVE paper (Table 2), plus the §5 noise injector.
//!
//! The paper's datasets (POLE, MB6, HET.IO, FIB25, ICIJ, LDBC, CORD19, IYP)
//! are public Neo4j dumps up to 44.5M nodes. Schema-discovery *quality*
//! depends on the type/label/pattern structure — how many types, how many
//! labels per element, how much property-set variance within a type — not on
//! raw instance counts, so each generator reproduces its dataset's
//! structural profile at a configurable scale:
//!
//! - per-type label sets, including multi-label combinations (MB6/FIB25
//!   neurons, HET.IO's dataset-wide extra `HetionetNode` label),
//! - per-type property keys with presence probabilities calibrated so the
//!   pattern counts (Defs. 3.5/3.6) land in the right regime (e.g. ICIJ's
//!   hundreds of node patterns vs LDBC's nine),
//! - value generators per key, including "dirty" mixed-type columns that
//!   exercise the datatype sampling-error experiment (Fig. 8).
//!
//! [`noise::inject_noise`] implements the evaluation's degradation axes:
//! remove 0–40% of properties, keep labels on 100/50/0% of elements.

pub mod catalog;
pub mod export;
pub mod noise;
pub mod spec;
pub mod values;

pub use catalog::{all_datasets, dataset_by_name, DatasetId};
pub use export::{export_graph, ExportFormat};
pub use noise::{inject_noise, NoiseSpec};
pub use spec::{Dataset, DatasetSpec, EdgeDef, GroundTruth, NodeDef, PropDef};
pub use values::ValueGen;
