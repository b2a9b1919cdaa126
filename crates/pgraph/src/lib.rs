//! # pg-hive-graph
//!
//! Property-graph data model and in-memory storage substrate for the PG-HIVE
//! schema-discovery system (EDBT 2026).
//!
//! The paper stores graphs in Neo4j and streams them through Spark; this crate
//! replaces that substrate with a compact in-memory store that delivers
//! exactly what the discovery pipeline consumes: per-element label sets,
//! property-key sets, property values, and edge endpoints (Def. 3.1 of the
//! paper), along with batch splitting for the incremental pipeline (§4.6).
//!
//! Key pieces:
//! - [`Value`]: typed property values (GQL-style data types, §3).
//! - [`Interner`]: string interning for labels and property keys.
//! - [`PropertyGraph`] / [`GraphBuilder`]: the store and its construction API.
//! - [`batch`]: deterministic random batch splitting for incremental runs.
//! - [`stats`]: dataset statistics (the columns of Table 2).
//! - [`loader`]: a small line-oriented text loader used by examples.
//! - [`snapshot`]: snapshot (de)serialization primitives — the escaped
//!   field codec and [`stream::LabelSetRegistry`] persistence used by the
//!   durable `pg-hive watch` checkpoints (see `docs/PERSISTENCE.md`),
//!   plus [`Interner`] persistence on the canonical-id view for consumers
//!   that checkpoint interner-keyed state.
//! - [`stream`]: streaming ingestion — one zero-copy record trait,
//!   [`stream::RawGraphSource`], over `.pgt` / CSV / JSON-Lines exports and
//!   a [`stream::ChunkedTextReader`] that yields independent graph chunks
//!   with O(chunk) resident memory, feeding `Discoverer::absorb_unit`
//!   (§4.6); plus [`stream::ReadAheadChunks`], the bounded producer that
//!   parses on one thread and builds chunks on another, overlapping both
//!   with downstream discovery (`absorb_unit`'s read-ahead units).
//! - [`fold_in_order`]: the one worker pool, which runs jobs on scoped
//!   threads and folds their results in position order.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the crate map and
//! the streaming chunk lifecycle.

#![warn(missing_docs)]

pub mod batch;
pub mod builder;
pub mod element;
pub mod graph;
pub mod interner;
pub mod loader;
mod pool;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod value;

pub use batch::{split_batches, GraphBatch};
pub use builder::GraphBuilder;
pub use element::{Edge, EdgeId, Node, NodeId};
pub use graph::PropertyGraph;
pub use interner::{Interner, Symbol};
pub use pool::fold_in_order;
pub use stats::GraphStats;
pub use stream::jsonl::json_escape;
pub use stream::multi::{MultiSource, SourceEntry, SourceKind};
pub use stream::{
    ChunkedTextReader, LabelSetRegistry, RawGraphSource, ReadAheadChunks, Record, RecordBuf,
    RecordRef, StreamError, StreamWarnings, UnitEnd,
};
pub use value::{Value, ValueKind};
