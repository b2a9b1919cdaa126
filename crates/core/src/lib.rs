//! # pg-hive-core
//!
//! PG-HIVE: **H**ybrid **I**ncremental schema disco**VE**ry for **P**roperty
//! **G**raphs — a from-scratch Rust implementation of the EDBT 2026 paper by
//! Sideri et al.
//!
//! Given a property graph with arbitrary, missing, or noisy labels and
//! properties, PG-HIVE infers a full schema graph: node types, edge types
//! with endpoints, property data types, MANDATORY/OPTIONAL constraints, and
//! edge cardinalities. The pipeline (Fig. 2 of the paper):
//!
//! 1. **Load** nodes/edges from a [`pg_hive_graph::PropertyGraph`].
//! 2. **Preprocess** into hybrid vectors: weighted label embeddings
//!    concatenated with binary property indicators ([`preprocess`]).
//!    Elements are **deduplicated by signature** — (labels, property keys)
//!    for nodes, (labels, endpoint labels, keys) for edges — so each
//!    distinct signature is embedded once into a flat
//!    [`pg_hive_lsh::VectorMatrix`] row and elements carry only a `rep_of`
//!    index (typically 10–100× fewer points downstream).
//! 3. **Cluster** with Euclidean LSH or MinHash ([`cluster`]): LSH hashes
//!    the distinct rows (data-parallel, `pg-hive-lsh`'s `parallel` feature,
//!    on by default) and assignments broadcast back through `rep_of` —
//!    provably the same clustering the per-element sweep produces, and
//!    byte-identical across thread counts for a fixed seed. Set
//!    [`PipelineConfig::dedup`]` = false` to run the naive path.
//! 4. **Extract types** — merge clusters by label, then by property Jaccard
//!    similarity, Algorithm 2 ([`extract`]).
//! 5. **Post-process** — constraints, datatypes, cardinalities
//!    ([`postprocess`]).
//! 6. **Serialize** — PG-Schema LOOSE/STRICT and XSD ([`serialize`]).
//!
//! Batches can be processed **incrementally**
//! ([`Discoverer::discover_incremental`]); schema merging is monotone
//! (Lemmas 1–2), so the schema only ever generalizes — see
//! [`merge::is_generalization_of`]. Every schema-producing path assembles
//! its result through the canonical [`state::SchemaState`] — an associative,
//! commutative absorb over pooled types with a deterministic finalize — so
//! the discovered schema is invariant to interning order and chunk arrival
//! grouping. For datasets that do not fit in memory,
//! [`Discoverer::discover_stream`] folds independent chunks with O(chunk)
//! residency, and [`Discoverer::absorb_stream`] folds them into a
//! caller-resident state on a worker pool — byte-identical to the serial
//! path for every thread count. [`Discoverer::absorb_unit`] and the
//! [`Ingest`] accumulator wrap that engine into the one ingest fold every
//! streaming surface (`discover --stream`, sharding, `watch`, `serve`,
//! `merge-state`) runs: absorb a unit, merge, resolve carried edges.
//! `docs/ARCHITECTURE.md` at the repository root maps the whole system.
//!
//! ## Quickstart
//!
//! ```
//! use pg_hive_core::{Discoverer, PipelineConfig};
//! use pg_hive_graph::{GraphBuilder, Value};
//!
//! let mut b = GraphBuilder::new();
//! let ada = b.add_node(&["Person"], &[("name", Value::from("Ada"))]);
//! let org = b.add_node(&["Org"], &[("url", Value::from("ex.org"))]);
//! b.add_edge(ada, org, &["WORKS_AT"], &[("from", Value::Int(2020))]);
//! let graph = b.finish();
//!
//! let result = Discoverer::new(PipelineConfig::elsh_adaptive()).discover(&graph);
//! assert_eq!(result.schema.node_types.len(), 2);
//! assert_eq!(result.schema.edge_types.len(), 1);
//! println!("{}", pg_hive_core::serialize::pg_schema_strict(&result.schema, "Demo"));
//! ```

#![warn(missing_docs)]

pub mod align;
pub mod cluster;
pub mod config;
pub mod diff;
pub mod extract;
pub mod merge;
pub mod parse;
pub mod patterns;
pub mod pipeline;
pub mod postprocess;
pub mod preprocess;
pub mod retract;
pub mod schema;
pub mod serialize;
pub mod serve;
pub mod sigcache;
pub mod snapshot;
pub mod state;
pub mod validate;

pub use config::{ClusterMethod, EmbeddingStrategy, PipelineConfig, SamplingConfig};
pub use diff::{diff_schemas, SchemaDiff};
pub use parse::{parse_pg_schema, ParseError, ParsedMode};
pub use pipeline::{
    AbsorbReport, Discoverer, DiscoveryResult, Ingest, PipelineStats, StageTimings, StreamResult,
    UnitSource,
};
pub use retract::{retract_batch, RetractionStats};
pub use schema::{
    label_set, Cardinality, CardinalityClass, EdgeType, LabelSet, NodeType, PropertySpec,
    SchemaGraph,
};
pub use serve::{DriftHook, DriftNotice, RunningServer, ServeCore, ServeOptions};
pub use sigcache::{CacheStats, CachedChunk, SignatureCache};
pub use snapshot::{
    FileCheckpoint, ResumeContext, Snapshot, SnapshotConfig, SnapshotError, WatchCheckpoint,
};
pub use state::SchemaState;
pub use validate::{
    validate, CompiledSchema, StreamValidationReport, StreamViolation, ValidationMode,
    ValidationReport, Validator, Violation, ViolationKind, DEFAULT_MAX_EXAMPLES,
};
