//! Streaming ingestion: chunked, format-agnostic graph loading (§4.6).
//!
//! The paper motivates incremental discovery with "process large datasets on
//! machines with limited memory". This module supplies the I/O side of that
//! scenario: instead of slurping a whole export into one [`PropertyGraph`],
//! a [`ChunkedTextReader`] wraps any [`RawGraphSource`] — a format-specific
//! record parser over a [`std::io::BufRead`] — and yields *independent*
//! graph chunks of roughly `chunk_size` elements. Each chunk has its own
//! interners and ids and can be dropped as soon as the discovery pipeline
//! has consumed it, so resident memory is O(chunk), not O(dataset).
//!
//! Three wire formats implement [`RawGraphSource`]:
//!
//! - [`pgt::PgtSource`] — the line-oriented `.pgt` text format of
//!   [`crate::loader`];
//! - [`csv::CsvSource`] — `nodes.csv` + `edges.csv` with `id`/`src`/`tgt`,
//!   a `;`-separated `labels` column, and one column per property key;
//! - [`jsonl::JsonlSource`] — one JSON object per line
//!   (`{"type":"node",...}` / `{"type":"edge",...}`).
//!
//! # Cross-chunk edges
//!
//! Edges are resolved within their chunk. For an edge whose endpoint lives
//! in an *earlier* chunk, the reader keeps a compact id → label-set
//! registry (a few tens of bytes per node id — property values, the
//! dominant memory cost, never outlive their chunk) and materializes a
//! property-less *stub* node carrying the endpoint's label set, so the edge
//! keeps its endpoint labels for clustering and type extraction. Such edges
//! are surfaced as counted warnings ([`StreamWarnings::cross_chunk_edges`]),
//! not errors. Edges that reference an id *never* declared anywhere are
//! dropped and counted ([`StreamWarnings::unresolved_edges`]). Edges that
//! arrive *before* their endpoint's `N` record are buffered (bounded) and
//! resolved once the node appears.
//!
//! Stubs are **marked** on the chunk graph
//! ([`crate::PropertyGraph::is_stub`]) and the discovery pipeline excludes
//! them from clustering and instance counting: they contribute edge
//! endpoint labels and nothing else. Streamed per-type instance counts and
//! property optionality are therefore *exact* — identical to the resident
//! single-graph run — for any chunk size, split into files, or thread
//! count (the property the tree-merge proptests and CI smoke gate on).

pub mod csv;
pub mod jsonl;
pub mod multi;
pub mod pgt;
pub mod raw;
pub mod read_ahead;

pub use raw::{RawGraphSource, RecordBuf, RecordRef};
pub use read_ahead::ReadAheadChunks;

use crate::builder::GraphBuilder;
use crate::element::NodeId;
use crate::graph::PropertyGraph;
use crate::interner::Symbol;
use crate::value::Value;
use raw::RecordKind;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::BufRead;

/// A carried edge: an edge record whose endpoint ids its reader's registry
/// never bound, held as owned strings so it can outlive the record buffer
/// that parsed it (see [`ChunkedTextReader::take_pending`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Source node id.
    pub src: String,
    /// Target node id.
    pub tgt: String,
    /// The edge's labels (may be empty).
    pub labels: Vec<String>,
    /// The edge's `(key, value)` properties.
    pub props: Vec<(String, Value)>,
}

/// Errors produced while streaming records from a source.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying reader failure.
    Io(std::io::Error),
    /// A record could not be parsed. `line` is 1-based within the file the
    /// source was reading when the error occurred.
    Parse {
        /// 1-based line number within the file being read.
        line: u64,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "io error: {e}"),
            StreamError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// [`BufRead::read_line`] for the line parsers: a line that is not UTF-8
/// is a parse error at `line`, the 1-based number of the line being read,
/// not a bare io error.
pub(crate) fn read_line<R: BufRead>(
    reader: &mut R,
    buf: &mut String,
    line: u64,
) -> Result<usize, StreamError> {
    reader.read_line(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::InvalidData => StreamError::Parse {
            line,
            msg: e.to_string(),
        },
        _ => StreamError::Io(e),
    })
}

/// Counted non-fatal conditions observed while chunking a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamWarnings {
    /// Edges whose endpoint node lived in an earlier chunk; the endpoint
    /// was materialized as a label-carrying stub node.
    pub cross_chunk_edges: u64,
    /// Edges dropped because an endpoint id was never declared (includes
    /// `evicted_edges`).
    pub unresolved_edges: u64,
    /// Edges that arrived before an endpoint's node record and were
    /// buffered until it appeared.
    pub deferred_edges: u64,
    /// Deferred edges evicted because the pending buffer overflowed.
    pub evicted_edges: u64,
    /// Node ids declared more than once. Each declaration still becomes its
    /// own node; later declarations win in the endpoint registry.
    pub duplicate_nodes: u64,
}

impl StreamWarnings {
    /// True when nothing noteworthy happened.
    pub fn is_empty(&self) -> bool {
        *self == StreamWarnings::default()
    }

    /// Add another accumulator's counts field-wise — shard, file, and
    /// watch-pass aggregation all sum the same per-category counters
    /// instead of concatenating reports.
    pub fn absorb(&mut self, other: &StreamWarnings) {
        self.cross_chunk_edges += other.cross_chunk_edges;
        self.unresolved_edges += other.unresolved_edges;
        self.deferred_edges += other.deferred_edges;
        self.evicted_edges += other.evicted_edges;
        self.duplicate_nodes += other.duplicate_nodes;
    }
}

/// A drained reader's end-of-unit state: what `Discoverer::absorb_unit`
/// folds back into its accumulator once a unit's stream is exhausted.
#[derive(Debug, Default)]
pub struct UnitEnd {
    /// The reader's id → label-set registry: its seed plus every binding
    /// the unit declared.
    pub registry: LabelSetRegistry,
    /// Edges whose endpoints the registry never bound, in arrival order
    /// (see [`ChunkedTextReader::take_pending`]).
    pub pending: Vec<Record>,
    /// The unit's warning counts; carried edges are not counted as
    /// unresolved.
    pub warnings: StreamWarnings,
}

/// Compact id → label-set registry: interns every distinct label set once
/// and maps each node id ever seen to its set. Shared by
/// [`ChunkedTextReader`] (stub endpoints for cross-chunk edges) and
/// [`crate::stats::stream_stats`] (edge patterns); memory is O(distinct
/// ids + distinct label sets), never O(property values).
///
/// The registry is exposed so a long-running consumer (`pg-hive watch`) can
/// carry it across **passes**: extract it from an exhausted reader with
/// [`ChunkedTextReader::into_registry`] and seed the next pass's reader
/// with [`ChunkedTextReader::with_registry`], so edges appended later still
/// resolve endpoints declared in any earlier pass.
///
/// Because the id set otherwise only ever grows, every binding carries a
/// **generation** stamp ([`LabelSetRegistry::generation`]): a lifecycle
/// manager advances the generation at its rotation boundary (a watch
/// partition roll, a retention cut) and later calls
/// [`LabelSetRegistry::compact`] to drop ids whose stamp fell out of the
/// retention window — the GC that keeps a forever-running watch's registry
/// bounded. Generations are runtime bookkeeping only: snapshot persistence
/// does not record them, so every binding restored from a snapshot starts
/// in the restored registry's current generation.
#[derive(Debug, Default, Clone)]
pub struct LabelSetRegistry {
    /// Node-id strings, arena-interned (one growing allocation instead of
    /// an owned `String` key per id, FNV instead of SipHash per lookup).
    pub(crate) id_syms: crate::interner::Interner,
    /// `id_ls[sym.index()]` is the label-set id currently bound to the
    /// node-id symbol `sym` — parallel to `id_syms`, dense.
    pub(crate) id_ls: Vec<u32>,
    /// Generation stamp of each binding — parallel to `id_ls`. Refreshed on
    /// rebind, consulted by [`Self::compact`].
    pub(crate) id_gen: Vec<u32>,
    pub(crate) sets: Vec<Vec<String>>,
    /// Label-set lookup keyed by interned label symbols (in record order),
    /// so the zero-copy hot path can look a set up without building an
    /// owned `Vec<String>` key first.
    set_ids: HashMap<Box<[u32]>, u32>,
    /// Interner for the individual label strings behind `set_ids` keys.
    label_syms: crate::interner::Interner,
    /// Reused symbol-key scratch for lookups.
    scratch: Vec<u32>,
    /// Current generation: the stamp new/refreshed bindings receive.
    generation: u32,
}

impl LabelSetRegistry {
    /// Finish interning whatever label set sits in `scratch`, materializing
    /// the owned string set via `make` only on first sight.
    fn intern_scratch(&mut self, make: impl FnOnce() -> Vec<String>) -> u32 {
        if let Some(&id) = self.set_ids.get(&self.scratch[..]) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(make());
        self.set_ids
            .insert(self.scratch.clone().into_boxed_slice(), id);
        id
    }

    /// Intern a label set, returning its dense id.
    pub(crate) fn intern(&mut self, labels: &[String]) -> u32 {
        self.scratch.clear();
        for l in labels {
            let sym = self.label_syms.intern(l);
            self.scratch.push(sym.0);
        }
        self.intern_scratch(|| labels.to_vec())
    }

    /// Intern the label set of the record in `buf` (a node's or an edge's)
    /// and return its dense id, without allocating on the repeat path. Ids
    /// are keyed by the labels in record order, so `A;B` and `B;A` get two
    /// ids; [`Self::set`] resolves either back to its labels.
    pub fn intern_buf(&mut self, buf: &RecordBuf) -> u32 {
        self.scratch.clear();
        for &span in &buf.labels {
            let sym = self.label_syms.intern(buf.str(span));
            self.scratch.push(sym.0);
        }
        self.intern_scratch(|| buf.labels.iter().map(|&s| buf.str(s).to_string()).collect())
    }

    /// Register a node id; returns `true` when the id was already present
    /// (the new label set wins).
    #[cfg(test)]
    pub(crate) fn insert(&mut self, id: &str, labels: &[String]) -> bool {
        let ls = self.intern(labels);
        self.bind(id, ls).1
    }

    /// Register a node id against an interned set id, returning the id's
    /// symbol and whether it was already present (the new set wins). Repeat
    /// ids touch no allocation at all. Either way the binding's generation
    /// stamp is refreshed to the current generation.
    pub(crate) fn bind(&mut self, id: &str, ls: u32) -> (Symbol, bool) {
        let sym = self.id_syms.intern(id);
        if sym.index() == self.id_ls.len() {
            self.id_ls.push(ls);
            self.id_gen.push(self.generation);
            (sym, false)
        } else {
            self.id_ls[sym.index()] = ls;
            self.id_gen[sym.index()] = self.generation;
            (sym, true)
        }
    }

    /// Register a borrowed node id against an interned set id; returns
    /// `true` when the id was already present.
    pub(crate) fn insert_ls(&mut self, id: &str, ls: u32) -> bool {
        self.bind(id, ls).1
    }

    /// Symbol of a registered node id.
    pub(crate) fn sym_of(&self, id: &str) -> Option<Symbol> {
        self.id_syms.get(id)
    }

    /// Label-set id bound to a node-id symbol.
    pub(crate) fn ls_of(&self, sym: Symbol) -> u32 {
        self.id_ls[sym.index()]
    }

    /// Label-set id of a registered node id: one lookup that both tells
    /// whether the id is known and keys per-set tables.
    pub fn get(&self, id: &str) -> Option<u32> {
        self.sym_of(id).map(|s| self.ls_of(s))
    }

    /// Whether the node id has been registered.
    pub(crate) fn contains(&self, id: &str) -> bool {
        self.id_syms.get(id).is_some()
    }

    /// Resolve an interned label-set id to its labels, in the order of the
    /// record that interned it first.
    pub fn set(&self, ls: u32) -> &[String] {
        &self.sets[ls as usize]
    }

    /// The label set registered for a node id, if the id has been seen.
    /// This is the cross-shard stub-resolution lookup: a carried edge's
    /// endpoint labels come from the *merged* registry even though the
    /// endpoint's declaring file was read by another shard.
    pub fn label_set(&self, id: &str) -> Option<&[String]> {
        self.get(id).map(|ls| self.set(ls))
    }

    /// Register the node record currently held in `buf` (id → label set;
    /// on a repeated id the new set wins), returning the interned id of its
    /// label set. External streaming consumers — the schema validator's
    /// cross-chunk endpoint checks, the statistics fold's edge patterns —
    /// go through this entry point; the chunked reader uses the internal
    /// span-level path.
    /// Calling it with an edge record registers the edge's *source* id,
    /// so callers must route node records only.
    pub fn insert_record(&mut self, buf: &RecordBuf) -> u32 {
        let ls = self.intern_buf(buf);
        let id = buf.str(buf.id);
        self.insert_ls(id, ls);
        ls
    }

    /// The current generation — the stamp new and refreshed bindings
    /// receive. Starts at 0; snapshot restore resets bindings to the
    /// restored registry's generation.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Start a new generation. Call at a lifecycle boundary (e.g. a watch
    /// partition roll): ids bound or re-seen from now on are stamped with
    /// the new generation, so a later [`Self::compact`] can tell live ids
    /// from ones last seen before the boundary.
    pub fn advance_generation(&mut self) {
        self.generation += 1;
    }

    /// Garbage-collect the registry: keep only the ids for which
    /// `keep(id, generation_stamp)` returns true, rebuilding every internal
    /// table (the id arena, the label-set pool, the symbol indices) so the
    /// memory of dropped ids — and of label sets no surviving id references
    /// — is actually reclaimed. Surviving bindings keep their generation
    /// stamps, so retention windows compose across repeated compactions.
    /// Returns the number of ids dropped.
    ///
    /// Dropping an id means a *future* edge referencing it no longer
    /// resolves (it will be counted unresolved); callers choose the
    /// retention predicate accordingly — e.g. `pg-hive watch --partition`
    /// keeps the generations of its retained partitions.
    pub fn compact(&mut self, mut keep: impl FnMut(&str, u32) -> bool) -> usize {
        let old = std::mem::take(self);
        self.generation = old.generation;
        let mut dropped = 0usize;
        for (sym, id) in old.id_syms.iter() {
            let stamp = old.id_gen[sym.index()];
            if keep(id, stamp) {
                let ls = self.intern(old.set(old.id_ls[sym.index()]));
                let (new_sym, _) = self.bind(id, ls);
                self.id_gen[new_sym.index()] = stamp;
            } else {
                dropped += 1;
            }
        }
        dropped
    }

    /// Keep only bindings whose generation stamp is `>= min_generation` —
    /// the retention cut used by snapshot rotation. Returns the number of
    /// ids dropped.
    pub fn compact_before(&mut self, min_generation: u32) -> usize {
        self.compact(|_, stamp| stamp >= min_generation)
    }

    /// Merge another registry's bindings into this one (cross-shard stub
    /// resolution: after per-shard ingestion, the merged registry can
    /// resolve an edge whose endpoints were declared in different shards).
    /// `other`'s bindings win on id collisions, mirroring the
    /// later-declaration-wins rule within a stream; every merged binding is
    /// stamped with *this* registry's current generation. Returns the
    /// number of colliding ids (ids present in both) — callers surface
    /// them as duplicate-node warnings, since a serial run over the same
    /// concatenated input would have counted them the same way.
    pub fn merge(&mut self, other: &LabelSetRegistry) -> u64 {
        let mut collisions = 0u64;
        for (sym, id) in other.id_syms.iter() {
            let ls = self.intern(other.set(other.id_ls[sym.index()]));
            let (_, dup) = self.bind(id, ls);
            collisions += u64::from(dup);
        }
        collisions
    }
}

/// Chunks any [`RawGraphSource`] into independent [`PropertyGraph`]s of
/// roughly `chunk_size` elements (nodes + edges + endpoint stubs), so a
/// dataset can be discovered with O(chunk) resident memory via
/// `Discoverer::discover_stream`.
///
/// See the [module docs](self) for the cross-chunk edge semantics.
///
/// ```
/// use pg_hive_graph::stream::pgt::PgtSource;
/// use pg_hive_graph::ChunkedTextReader;
///
/// let text = "N a Person -\nN b Person -\nN c Org -\nE a c WORKS_AT -\n";
/// let mut reader = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), 2);
/// let mut chunks = 0;
/// while let Some(chunk) = reader.next_chunk().unwrap() {
///     chunks += 1;
///     assert!(chunk.node_count() + chunk.edge_count() <= 2 * 2); // O(chunk)
/// }
/// assert_eq!(chunks, reader.chunks_emitted());
/// assert!(chunks >= 2);
/// assert_eq!(reader.warnings().unresolved_edges, 0);
/// ```
pub struct ChunkedTextReader<S> {
    source: S,
    /// Reused zero-copy record buffer: one per reader, not per record.
    buf: RecordBuf,
    chunk_size: usize,
    pending_cap: usize,
    registry: LabelSetRegistry,
    pending: VecDeque<Record>,
    /// When set, end-of-stream pending edges whose endpoints never appeared
    /// are **retained** (extractable via [`Self::take_pending`]) instead of
    /// being dropped and counted unresolved — the per-unit mode, where
    /// another input may declare the endpoints.
    carry_unresolved: bool,
    warnings: StreamWarnings,
    max_resident: usize,
    chunks: usize,
    done: bool,
    /// Per-chunk id → [`NodeId`] tables, indexed by the registry's id
    /// symbols and stamped with `generation` — entries from earlier chunks
    /// are stale by stamp, so "clearing" them between chunks is free and
    /// the endpoint hot path needs no per-chunk hash map (or its per-insert
    /// owned `String` key).
    chunk_marks: Vec<(u32, NodeId)>,
    stub_marks: Vec<(u32, NodeId)>,
    /// Per-chunk cache of stub label sets, indexed by registry label-set id
    /// and generation-stamped like the mark tables: the canonical (sorted,
    /// deduplicated) symbols of set `ls` in the **current** chunk's label
    /// table, computed once per (chunk, set) instead of once per stub.
    stub_label_cache: Vec<(u32, Vec<Symbol>)>,
    generation: u32,
    /// Node/edge counts of the previous chunk — capacity hints for the next
    /// chunk's builder (steady-state chunks are similarly sized, so this
    /// skips the doubling-growth copies of the node/edge vectors).
    last_nodes: usize,
    last_edges: usize,
}

/// Stamp `sym` as resident in the current chunk (`generation`) with `nid`.
fn mark(table: &mut Vec<(u32, NodeId)>, sym: Symbol, generation: u32, nid: NodeId) {
    let i = sym.index();
    if i >= table.len() {
        table.resize(i + 1, (0, NodeId(0)));
    }
    table[i] = (generation, nid);
}

/// `sym`'s [`NodeId`] if it was marked during the current chunk.
fn marked(table: &[(u32, NodeId)], sym: Symbol, generation: u32) -> Option<NodeId> {
    match table.get(sym.index()) {
        Some(&(g, nid)) if g == generation => Some(nid),
        _ => None,
    }
}

impl<S: RawGraphSource> ChunkedTextReader<S> {
    /// Reader yielding chunks of roughly `chunk_size` elements (minimum 1).
    pub fn new(source: S, chunk_size: usize) -> Self {
        Self::with_registry(source, chunk_size, LabelSetRegistry::default())
    }

    /// Reader seeded with an existing id → label-set registry, so edges in
    /// this stream can resolve endpoints declared in an **earlier** stream
    /// (the `pg-hive watch` pass-over-pass case). Endpoints found only in
    /// the registry are materialized as stubs and counted as
    /// [`StreamWarnings::cross_chunk_edges`], exactly like within-stream
    /// cross-chunk edges.
    pub fn with_registry(source: S, chunk_size: usize, registry: LabelSetRegistry) -> Self {
        let chunk_size = chunk_size.max(1);
        Self {
            source,
            buf: RecordBuf::new(),
            chunk_size,
            // Forward-referencing edges are buffered up to this many before
            // the oldest are dropped as unresolved — keeps memory bounded on
            // adversarial (edges-before-nodes) input orderings.
            pending_cap: chunk_size.saturating_mul(4).max(1024),
            registry,
            pending: VecDeque::new(),
            carry_unresolved: false,
            warnings: StreamWarnings::default(),
            max_resident: 0,
            chunks: 0,
            done: false,
            chunk_marks: Vec::new(),
            stub_marks: Vec::new(),
            stub_label_cache: Vec::new(),
            generation: 0,
            last_nodes: 0,
            last_edges: 0,
        }
    }

    /// Consume the reader and hand back its registry, for seeding the next
    /// pass's reader via [`Self::with_registry`].
    pub fn into_registry(self) -> LabelSetRegistry {
        self.registry
    }

    /// Retain end-of-stream unresolved edges instead of dropping them (see
    /// [`Self::take_pending`]). Set this **before** draining the reader.
    pub fn set_carry_unresolved(&mut self, on: bool) {
        self.carry_unresolved = on;
    }

    /// Drain the edges still pending after the stream ended — edges whose
    /// endpoint ids this stream never declared. Meaningful after
    /// [`Self::set_carry_unresolved`]`(true)` and a fully drained stream;
    /// the ingest fold collects these and resolves them against the
    /// **merged** registry of every unit. Returned in arrival order.
    pub fn take_pending(&mut self) -> Vec<Record> {
        self.pending.drain(..).collect()
    }

    /// Warnings accumulated so far (final after the last chunk).
    pub fn warnings(&self) -> StreamWarnings {
        self.warnings
    }

    /// Largest `node_count + edge_count` of any emitted chunk — the
    /// peak-resident element count the streaming pipeline had to hold.
    pub fn max_resident_elements(&self) -> usize {
        self.max_resident
    }

    /// Chunks emitted so far.
    pub fn chunks_emitted(&self) -> usize {
        self.chunks
    }

    fn resolvable(&self, e: &Record) -> bool {
        self.registry.contains(&e.src) && self.registry.contains(&e.tgt)
    }

    /// Move every currently-resolvable pending edge into `ready`,
    /// preserving arrival order.
    fn refill_ready(&mut self, ready: &mut VecDeque<Record>) {
        let mut rest = VecDeque::with_capacity(self.pending.len());
        while let Some(e) = self.pending.pop_front() {
            if self.resolvable(&e) {
                ready.push_back(e);
            } else {
                rest.push_back(e);
            }
        }
        self.pending = rest;
    }

    /// Next chunk, or `Ok(None)` when the stream is exhausted. Each chunk
    /// is a self-contained graph: fresh interners, edges wired to resident
    /// (or stub) endpoints.
    pub fn next_chunk(&mut self) -> Result<Option<PropertyGraph>, StreamError> {
        if self.done && self.pending.is_empty() {
            return Ok(None);
        }

        let mut b = GraphBuilder::with_capacity(self.last_nodes, self.last_edges);
        let mut ready: VecDeque<Record> = VecDeque::new();
        let mut budget = 0usize;
        self.generation += 1; // invalidates every chunk/stub mark at once
        self.refill_ready(&mut ready);

        loop {
            if budget >= self.chunk_size {
                break;
            }
            if let Some(e) = ready.pop_front() {
                load_pending(&mut self.buf, e);
                let (s_sym, t_sym) = self.edge_syms();
                self.accept_edge(&mut b, s_sym, t_sym, &mut budget);
                continue;
            }
            if self.done {
                // The source is drained; see whether nodes read since the
                // last refill unlocked more pending edges.
                self.refill_ready(&mut ready);
                if ready.is_empty() {
                    break;
                }
                continue;
            }
            if !self.source.read_record(&mut self.buf)? {
                self.done = true;
                continue;
            }
            match self.buf.kind {
                RecordKind::Node => {
                    let ls = self.registry.intern_buf(&self.buf);
                    let id_str = self.buf.str(self.buf.id);
                    let (sym, duplicate) = self.registry.bind(id_str, ls);
                    if duplicate {
                        self.warnings.duplicate_nodes += 1;
                    }
                    let nid = b.add_node_from_buf(&mut self.buf);
                    mark(&mut self.chunk_marks, sym, self.generation, nid);
                    budget += 1;
                }
                RecordKind::Edge => {
                    // Resolve both endpoint symbols once — the same lookups
                    // double as the resolvability check and the endpoint
                    // resolution inside `accept_edge`.
                    let s_sym = self.registry.sym_of(self.buf.str(self.buf.id));
                    let t_sym = self.registry.sym_of(self.buf.str(self.buf.tgt));
                    if let (Some(s_sym), Some(t_sym)) = (s_sym, t_sym) {
                        self.accept_edge(&mut b, s_sym, t_sym, &mut budget);
                    } else {
                        self.warnings.deferred_edges += 1;
                        let e = pending_from_buf(&mut self.buf);
                        self.pending.push_back(e);
                        if self.pending.len() > self.pending_cap {
                            let victim = self.pending.pop_front().expect("cap >= 1");
                            if self.resolvable(&victim) {
                                // Its endpoints were declared after it was
                                // deferred: emit it rather than dropping a
                                // fully-declared edge.
                                load_pending(&mut self.buf, victim);
                                let (s_sym, t_sym) = self.edge_syms();
                                self.accept_edge(&mut b, s_sym, t_sym, &mut budget);
                            } else {
                                self.warnings.evicted_edges += 1;
                                self.warnings.unresolved_edges += 1;
                            }
                        }
                    }
                }
            }
        }

        let any_resolvable = self.pending.iter().any(|e| self.resolvable(e));
        if self.done && ready.is_empty() && !any_resolvable {
            // Whatever is still pending references ids that never appeared
            // in *this* stream. In carry mode they are kept for the caller
            // (another shard may declare the endpoints); otherwise they are
            // dropped and counted.
            if !self.carry_unresolved {
                self.warnings.unresolved_edges += self.pending.len() as u64;
                self.pending.clear();
            }
        } else {
            // Budget filled with resolvable edges left over: put them back
            // in front so the next chunk starts with them.
            while let Some(e) = ready.pop_back() {
                self.pending.push_front(e);
            }
        }

        if budget == 0 {
            return Ok(None);
        }
        let g = b.finish();
        self.last_nodes = g.node_count();
        self.last_edges = g.edge_count();
        self.max_resident = self.max_resident.max(g.node_count() + g.edge_count());
        self.chunks += 1;
        Ok(Some(g))
    }

    /// Endpoint symbols of the edge currently held in `self.buf`, which
    /// must be resolvable (both ids known to the registry).
    fn edge_syms(&self) -> (Symbol, Symbol) {
        let expect = "accepted edges are resolvable";
        (
            self.registry
                .sym_of(self.buf.str(self.buf.id))
                .expect(expect),
            self.registry
                .sym_of(self.buf.str(self.buf.tgt))
                .expect(expect),
        )
    }

    /// Emit the edge currently held in `self.buf` (already known to be
    /// resolvable; `s_sym`/`t_sym` are its pre-resolved endpoint symbols),
    /// materializing stub endpoints as needed.
    fn accept_edge(
        &mut self,
        b: &mut GraphBuilder,
        s_sym: Symbol,
        t_sym: Symbol,
        budget: &mut usize,
    ) {
        let mut used_stub = false;
        let registry = &self.registry;
        let generation = self.generation;
        let s = Self::endpoint(
            registry,
            b,
            &self.chunk_marks,
            &mut self.stub_marks,
            &mut self.stub_label_cache,
            generation,
            budget,
            &mut used_stub,
            s_sym,
        );
        let t = Self::endpoint(
            registry,
            b,
            &self.chunk_marks,
            &mut self.stub_marks,
            &mut self.stub_label_cache,
            generation,
            budget,
            &mut used_stub,
            t_sym,
        );
        b.add_edge_from_buf(s, t, &mut self.buf);
        *budget += 1;
        if used_stub {
            self.warnings.cross_chunk_edges += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn endpoint(
        registry: &LabelSetRegistry,
        b: &mut GraphBuilder,
        chunk_marks: &[(u32, NodeId)],
        stub_marks: &mut Vec<(u32, NodeId)>,
        stub_label_cache: &mut Vec<(u32, Vec<Symbol>)>,
        generation: u32,
        budget: &mut usize,
        used_stub: &mut bool,
        sym: Symbol,
    ) -> NodeId {
        if let Some(nid) = marked(chunk_marks, sym, generation) {
            return nid;
        }
        if let Some(nid) = marked(stub_marks, sym, generation) {
            *used_stub = true;
            return nid;
        }
        let ls = registry.ls_of(sym) as usize;
        if ls >= stub_label_cache.len() {
            stub_label_cache.resize(ls + 1, (0, Vec::new()));
        }
        if stub_label_cache[ls].0 != generation {
            // First stub with this label set in this chunk: canonicalize
            // once, interning into the chunk's label table.
            let mut sorted: Vec<&str> =
                registry.set(ls as u32).iter().map(String::as_str).collect();
            sorted.sort_unstable();
            sorted.dedup();
            let syms: Vec<Symbol> = sorted.into_iter().map(|l| b.intern_label(l)).collect();
            stub_label_cache[ls] = (generation, syms);
        }
        let nid = b.add_node_syms(stub_label_cache[ls].1.clone());
        mark(stub_marks, sym, generation, nid);
        *budget += 1;
        *used_stub = true;
        nid
    }
}

/// Move the edge in `buf` out as an owned [`Record`] (the deferred path —
/// property values are moved, never cloned).
fn pending_from_buf(buf: &mut RecordBuf) -> Record {
    let src = buf.str(buf.id).to_string();
    let tgt = buf.str(buf.tgt).to_string();
    let labels: Vec<String> = buf.labels.iter().map(|&s| buf.str(s).to_string()).collect();
    let text = &buf.text;
    let props: Vec<(String, Value)> = buf
        .props
        .drain(..)
        .map(|(k, v)| (raw::span_str(text, k).to_string(), v))
        .collect();
    Record {
        src,
        tgt,
        labels,
        props,
    }
}

/// Load a deferred edge back into the record buffer for acceptance through
/// the same zero-copy path as freshly parsed edges.
fn load_pending(buf: &mut RecordBuf, e: Record) {
    buf.clear();
    buf.kind = RecordKind::Edge;
    buf.id = buf.push_str(&e.src);
    buf.tgt = buf.push_str(&e.tgt);
    for l in &e.labels {
        let span = buf.push_str(l);
        buf.labels.push(span);
    }
    for (k, v) in e.props {
        let span = buf.push_str(&k);
        buf.props.push((span, v));
    }
}

/// Drain a whole source into a single [`PropertyGraph`] (the non-streaming
/// path for formats other than `.pgt`). Forward-referencing edges resolve
/// within the single chunk; truly dangling edges are counted in the
/// returned warnings, mirroring the chunked semantics.
pub fn read_all<S: RawGraphSource>(
    source: S,
) -> Result<(PropertyGraph, StreamWarnings), StreamError> {
    let mut reader = ChunkedTextReader::new(source, usize::MAX);
    let g = reader.next_chunk()?.unwrap_or_default();
    Ok((g, reader.warnings()))
}

#[cfg(test)]
mod tests {
    use super::pgt::PgtSource;
    use super::*;

    fn chunks_of(text: &str, chunk_size: usize) -> (Vec<PropertyGraph>, StreamWarnings, usize) {
        let mut r = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), chunk_size);
        let mut out = Vec::new();
        while let Some(g) = r.next_chunk().unwrap() {
            out.push(g);
        }
        (out, r.warnings(), r.max_resident_elements())
    }

    /// 6 nodes then 3 edges, nodes-first like a real export.
    const SMALL: &str = "\
N a Person name=Ann
N b Person name=Bob
N c Person name=Cid
N d Org url=x.com
N e Org url=y.com
N f Place name=GR
E a d WORKS_AT -
E b e WORKS_AT -
E d f LOCATED_IN -
";

    #[test]
    fn one_big_chunk_contains_everything() {
        let (chunks, warnings, peak) = chunks_of(SMALL, 1000);
        assert_eq!(chunks.len(), 1);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(chunks[0].node_count(), 6);
        assert_eq!(chunks[0].edge_count(), 3);
        assert_eq!(peak, 9);
    }

    #[test]
    fn chunking_bounds_resident_elements() {
        let (chunks, _, peak) = chunks_of(SMALL, 3);
        assert!(chunks.len() >= 3, "got {} chunks", chunks.len());
        // Budget is checked before appending, and an edge can bring at most
        // two stub endpoints: resident stays under 2x the chunk size.
        assert!(peak <= 6, "peak resident {peak}");
        let total_edges: usize = chunks.iter().map(|c| c.edge_count()).sum();
        assert_eq!(total_edges, 3, "no edge lost to chunking");
    }

    #[test]
    fn cross_chunk_edges_get_labeled_stubs_and_warnings() {
        let (chunks, warnings, _) = chunks_of(SMALL, 3);
        assert!(warnings.cross_chunk_edges > 0);
        assert_eq!(warnings.unresolved_edges, 0);
        // Every edge still sees its endpoints' label sets: collect endpoint
        // label pairs across chunks and check WORKS_AT goes Person -> Org.
        let mut pairs = Vec::new();
        for c in &chunks {
            for (_, e) in c.edges() {
                let (src, tgt) = c.edge_endpoint_labels(e);
                pairs.push((
                    c.label_set_str(src),
                    c.label_set_str(tgt),
                    c.label_set_str(&e.labels),
                ));
            }
        }
        assert!(pairs
            .iter()
            .any(|(s, t, l)| s == "{Person}" && t == "{Org}" && l == "{WORKS_AT}"));
    }

    #[test]
    fn forward_references_resolve_across_chunks() {
        // Edge arrives before either endpoint exists.
        let text = "E a b KNOWS -\nN a Person -\nN b Person -\n";
        let (chunks, warnings, _) = chunks_of(text, 2);
        assert_eq!(warnings.deferred_edges, 1);
        assert_eq!(warnings.unresolved_edges, 0);
        let total_edges: usize = chunks.iter().map(|c| c.edge_count()).sum();
        assert_eq!(total_edges, 1);
    }

    #[test]
    fn never_declared_endpoints_are_counted_not_fatal() {
        let text = "N a Person -\nE a ghost KNOWS -\nE phantom a KNOWS -\n";
        let (chunks, warnings, _) = chunks_of(text, 100);
        assert_eq!(warnings.unresolved_edges, 2);
        let total_edges: usize = chunks.iter().map(|c| c.edge_count()).sum();
        assert_eq!(total_edges, 0);
        assert_eq!(chunks[0].node_count(), 1);
    }

    #[test]
    fn duplicate_ids_warn_and_rebind() {
        let text = "N a Person -\nN a Org -\nE a a SELF -\n";
        let (chunks, warnings, _) = chunks_of(text, 100);
        assert_eq!(warnings.duplicate_nodes, 1);
        // The edge binds to the latest declaration.
        let c = &chunks[0];
        let (_, e) = c.edges().next().unwrap();
        let (src, _) = c.edge_endpoint_labels(e);
        assert_eq!(c.label_set_str(src), "{Org}");
    }

    #[test]
    fn pending_buffer_is_bounded() {
        // Thousands of dangling edges must not accumulate unboundedly.
        let mut text = String::from("N a Person -\n");
        for i in 0..10_000 {
            text.push_str(&format!("E a ghost{i} KNOWS -\n"));
        }
        let mut r = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), 4);
        while r.next_chunk().unwrap().is_some() {}
        let w = r.warnings();
        assert_eq!(w.unresolved_edges, 10_000);
        assert!(w.evicted_edges > 0, "cap kicked in: {w:?}");
    }

    #[test]
    fn eviction_never_drops_a_resolvable_edge() {
        // Regression: a deferred edge whose endpoints are declared later in
        // the same chunk used to be evictable by a flood of dangling edges
        // (it was only re-checked at chunk boundaries). Eviction must emit
        // it instead.
        let mut text = String::from("E a b KNOWS -\nN a Person -\nN b Person -\n");
        let dangling = 8_200; // cap is 4 * 2000 = 8000
        for i in 0..dangling {
            text.push_str(&format!("E a ghost{i} REF -\n"));
        }
        let mut r = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), 2_000);
        let mut edges = 0usize;
        while let Some(c) = r.next_chunk().unwrap() {
            edges += c.edge_count();
        }
        assert_eq!(edges, 1, "the fully-declared KNOWS edge survives");
        let w = r.warnings();
        assert_eq!(w.unresolved_edges, dangling);
        assert!(w.evicted_edges > 0, "{w:?}");
    }

    #[test]
    fn registry_carries_across_readers() {
        // The watch scenario: pass 1 declares nodes, pass 2 appends an edge
        // referencing them. Seeding pass 2's reader with pass 1's registry
        // resolves the edge through labeled stubs instead of dropping it.
        let pass1 = "N a Person -\nN b Org -\n";
        let mut r1 = ChunkedTextReader::new(PgtSource::new(pass1.as_bytes()), 10);
        while r1.next_chunk().unwrap().is_some() {}
        let registry = r1.into_registry();

        let pass2 = "E a b WORKS_AT -\n";
        let mut r2 =
            ChunkedTextReader::with_registry(PgtSource::new(pass2.as_bytes()), 10, registry);
        let c = r2.next_chunk().unwrap().unwrap();
        assert_eq!(c.edge_count(), 1);
        let (_, e) = c.edges().next().unwrap();
        let (src, tgt) = c.edge_endpoint_labels(e);
        assert_eq!(c.label_set_str(src), "{Person}");
        assert_eq!(c.label_set_str(tgt), "{Org}");
        assert_eq!(r2.warnings().cross_chunk_edges, 1);
        assert_eq!(r2.warnings().unresolved_edges, 0);

        // Without the carried registry the same edge is dropped.
        let mut bare = ChunkedTextReader::new(PgtSource::new(pass2.as_bytes()), 10);
        assert!(bare.next_chunk().unwrap().is_none());
        assert_eq!(bare.warnings().unresolved_edges, 1);
    }

    #[test]
    fn empty_source_yields_no_chunks() {
        let (chunks, warnings, peak) = chunks_of("# only comments\n", 10);
        assert!(chunks.is_empty());
        assert!(warnings.is_empty());
        assert_eq!(peak, 0);
    }

    #[test]
    fn stubs_are_marked_on_chunk_graphs() {
        let (chunks, warnings, _) = chunks_of(SMALL, 3);
        assert!(warnings.cross_chunk_edges > 0);
        let stubs: usize = chunks.iter().map(|c| c.stub_count()).sum();
        assert!(stubs > 0, "chunking this input must create stubs");
        for c in &chunks {
            for (id, n) in c.nodes() {
                if c.is_stub(id) {
                    assert!(n.props.is_empty(), "stubs are property-less");
                }
            }
        }
        // The unchunked read sees every node declared: no stubs at all.
        let (all, _, _) = chunks_of(SMALL, 1000);
        assert_eq!(all[0].stub_count(), 0);
    }

    #[test]
    fn carry_unresolved_retains_cross_shard_edges() {
        // This shard's input references a node only another shard declares.
        let text = "N a Person -\nE a other WORKS_AT since=2020\n";
        let mut r = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), 10);
        r.set_carry_unresolved(true);
        while r.next_chunk().unwrap().is_some() {}
        assert_eq!(r.warnings().unresolved_edges, 0, "not dropped");
        let pending = r.take_pending();
        assert_eq!(pending.len(), 1);
        let Record {
            src,
            tgt,
            labels,
            props,
        } = &pending[0];
        assert_eq!(src, "a");
        assert_eq!(tgt, "other");
        assert_eq!(labels, &["WORKS_AT"]);
        assert_eq!(props.len(), 1);
        // Without carry mode, the same edge is dropped and counted.
        let mut bare = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), 10);
        while bare.next_chunk().unwrap().is_some() {}
        assert_eq!(bare.warnings().unresolved_edges, 1);
        assert!(bare.take_pending().is_empty());
    }

    #[test]
    fn registry_merge_unions_bindings_and_counts_collisions() {
        let mut a = LabelSetRegistry::default();
        a.insert("n1", &["Person".into()]);
        a.insert("n2", &["Org".into()]);
        let mut b = LabelSetRegistry::default();
        b.insert("n2", &["Place".into()]); // collision: b wins
        b.insert("n3", &[]);
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.set(a.get("n1").unwrap()), ["Person".to_string()]);
        assert_eq!(a.set(a.get("n2").unwrap()), ["Place".to_string()]);
        assert!(a.set(a.get("n3").unwrap()).is_empty());
    }

    #[test]
    fn registry_compact_drops_stale_generations_and_reclaims_sets() {
        let mut r = LabelSetRegistry::default();
        r.insert("old", &["Ancient".into()]);
        r.advance_generation();
        r.insert("new", &["Fresh".into()]);
        // A rebind refreshes the stamp: "kept" was first seen in gen 0 but
        // re-seen in gen 1.
        r.advance_generation();
        r.insert("kept", &["Fresh".into()]);
        assert_eq!(r.generation(), 2);
        let dropped = r.compact_before(1);
        assert_eq!(dropped, 1);
        assert_eq!(r.len(), 2);
        assert!(r.get("old").is_none());
        assert!(r.get("new").is_some() && r.get("kept").is_some());
        // The dropped id's label set is gone from the pool too.
        assert!(!r.sets.iter().any(|s| s == &["Ancient".to_string()]));
        // Stamps survive compaction: a second cut at the same floor is a
        // no-op, a higher floor drops the gen-1 binding.
        assert_eq!(r.compact_before(1), 0);
        assert_eq!(r.compact_before(2), 1);
        assert_eq!(r.len(), 1);
        assert!(r.get("kept").is_some());
    }

    #[test]
    fn chunk_graphs_are_independent() {
        let (chunks, _, _) = chunks_of(SMALL, 3);
        // Interners are per chunk: the same label resolves independently.
        for c in &chunks {
            for (_, n) in c.nodes() {
                for &l in &n.labels {
                    assert!(!c.label_str(l).is_empty());
                }
            }
        }
    }
}
