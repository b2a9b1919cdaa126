//! Algorithm 1: the end-to-end PG-HIVE pipeline, static and incremental.
//!
//! ```text
//! for each batch G_si in G:
//!     D           <- loadNodesAndEdges(G_si)        (a)
//!     X, b, T     <- preprocess(D)                  (b)
//!     C           <- LSHClustering(X, b, T)         (c)
//!     S'          <- extractTypes(C, S, θ = 0.9)    (d)  Algorithm 2
//!     if last batch:
//!         inferPropertyConstraints(S')              (e)
//!         inferDataTypes(S')                        (f)
//!         computeCardinalities(S')                  (g)
//!     S <- updateSchema(S')
//! ```
//!
//! The resident path post-processes once, after the last batch; a
//! streaming chunk is post-processed on its own, since its values die with
//! it.

use crate::cluster::{cluster_elements, ClusterOutcome};
use crate::config::PipelineConfig;
use crate::extract::{candidate_edge_types_from_rows, candidate_node_types_from_rows};
use crate::preprocess::{edge_representations, node_representations, signature_scan};
use crate::schema::SchemaGraph;
use crate::sigcache::{CachedChunk, SignatureCache};
use crate::state::SchemaState;
use pg_hive_embed::HashEmbedder;
use pg_hive_graph::{
    fold_in_order, split_batches, ChunkedTextReader, GraphBatch, GraphBuilder, LabelSetRegistry,
    MultiSource, PropertyGraph, RawGraphSource, ReadAheadChunks, Record, StreamError,
    StreamWarnings, UnitEnd,
};
use pg_hive_lsh::{Clustering, ElementClass, ElshParams};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// Wall-clock spent in each stage, summed over batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Stage (b): embeddings + representation vectors.
    pub preprocess: Duration,
    /// Stage (c): LSH clustering.
    pub clustering: Duration,
    /// Stage (d): type extraction and merging (Algorithm 2).
    pub extraction: Duration,
    /// Stages (e)–(g): constraints, datatypes, cardinalities.
    pub postprocess: Duration,
}

impl StageTimings {
    /// Time until type discovery — what Fig. 5 reports (preprocessing,
    /// clustering, and type extraction; post-processing excluded).
    pub fn discovery(&self) -> Duration {
        self.preprocess + self.clustering + self.extraction
    }

    /// Everything.
    pub fn total(&self) -> Duration {
        self.discovery() + self.postprocess
    }
}

/// Extra observability into one run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Wall-clock per stage, summed over batches.
    pub timings: StageTimings,
    /// Per-batch wall-clock of the main pipeline (Fig. 7's series).
    pub batch_times: Vec<Duration>,
    /// Distinct node signatures actually hashed by LSH (summed over
    /// batches) — the node count over this is the dedup win.
    pub node_signatures: usize,
    /// ELSH parameters the *first* batch's nodes were hashed with, when
    /// they were derived rather than pinned.
    pub adaptive_nodes: Option<ElshParams>,
    /// ELSH parameters for the first batch's edges (see `adaptive_nodes`).
    pub adaptive_edges: Option<ElshParams>,
}

/// Result of a discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// The inferred schema graph.
    pub schema: SchemaGraph,
    /// For every node of the input graph, the index of its node type in
    /// `schema.node_types`.
    pub node_assignment: Vec<u32>,
    /// For every edge, the index of its edge type in `schema.edge_types`.
    pub edge_assignment: Vec<u32>,
    /// For every node, a **raw LSH cluster** id (global across batches,
    /// before Algorithm 2's merging). The paper's F1* evaluation judges
    /// discovered clusters by their majority label, so this is the
    /// granularity `pg-hive-eval` scores.
    pub node_cluster_assignment: Vec<u32>,
    /// Raw cluster id per edge (see `node_cluster_assignment`).
    pub edge_cluster_assignment: Vec<u32>,
    /// Observability.
    pub stats: PipelineStats,
}

/// Result of a [`Discoverer::discover_stream`] run over dropped chunks.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// The accumulated schema (no member lists — chunks are gone),
    /// canonically finalized from the run's [`SchemaState`].
    pub schema: SchemaGraph,
    /// Wall-clock per chunk, in input order.
    pub chunk_times: Vec<Duration>,
    /// Total elements (nodes + edges) consumed.
    pub elements: u64,
}

/// The accumulator of the ingest fold — §4.6's `S ← updateSchema(S')` over
/// units of observation (a file, a request body, a watch pass delta).
/// Every streaming caller runs the same three steps on it:
/// [`Discoverer::absorb_unit`] folds a unit in, [`Ingest::merge`] folds in a
/// sibling accumulator, and [`Ingest::resolve`] resolves carried edges
/// against the accumulated registry. `docs/ARCHITECTURE.md` ("The ingest
/// fold") lists which caller uses which registry rule and what each does
/// with the edges left pending. Snapshots save and load it as part of a
/// [`crate::snapshot::ResumeContext`].
#[derive(Debug)]
pub struct Ingest {
    /// The folded schema state — finalize for the schema.
    pub state: SchemaState,
    /// The id → label-set registry of every unit folded in.
    pub registry: LabelSetRegistry,
    /// Carried edges the registry could not resolve (yet), in arrival order.
    pub pending: Vec<Record>,
    /// Per-category warning counts summed across units.
    pub warnings: StreamWarnings,
    /// Elements (nodes + edges) consumed, including resolved carried edges.
    pub elements: u64,
    /// Number of units (files, CSV dataset dirs, bodies) folded in.
    pub inputs: usize,
}

impl Ingest {
    /// An empty accumulator over `state` (usually
    /// [`Discoverer::new_state`]) with a fresh registry.
    pub fn new(state: SchemaState) -> Self {
        Self {
            state,
            registry: LabelSetRegistry::default(),
            pending: Vec::new(),
            warnings: StreamWarnings::default(),
            elements: 0,
            inputs: 0,
        }
    }

    /// Fold a sibling into this accumulator: states merge, counts add,
    /// carried edges concatenate, and `other`'s registry merges in — its
    /// bindings win on duplicate ids, which count as `duplicate_nodes`.
    pub fn merge(&mut self, other: Ingest) {
        self.state.merge(other.state);
        self.warnings.absorb(&other.warnings);
        self.warnings.duplicate_nodes += self.registry.merge(&other.registry);
        self.pending.extend(other.pending);
        self.elements += other.elements;
        self.inputs += other.inputs;
    }

    /// Resolve the carried edges against this accumulator's registry
    /// ([`Discoverer::resolve_pending`]) into its state, adding them to
    /// `elements`. Edges that still do not resolve stay in `pending`; what
    /// they mean is the caller's call. Returns the number resolved.
    pub fn resolve(&mut self, discoverer: &Discoverer) -> u64 {
        if self.pending.is_empty() {
            return 0;
        }
        let pending = std::mem::take(&mut self.pending);
        let (left, resolved) = discoverer.resolve_pending(&mut self.state, &self.registry, pending);
        self.pending = left;
        self.elements += resolved;
        resolved
    }
}

/// Where [`Discoverer::absorb_unit`] parses a unit's records.
pub enum UnitSource<'a> {
    /// On the calling thread, through a [`ChunkedTextReader`].
    Inline(Box<dyn RawGraphSource + 'a>),
    /// On [`ReadAheadChunks`]' parse and chunk threads, which build up to
    /// [`READ_AHEAD`] chunks ahead of the discovery workers.
    ReadAhead(Box<dyn RawGraphSource + Send>),
}

/// How many parsed chunks a [`UnitSource::ReadAhead`] producer keeps ahead
/// of the discovery workers.
pub const READ_AHEAD: usize = 2;

/// Accounting from one [`Discoverer::absorb_stream`] pass (the schema lives
/// in the caller's [`SchemaState`], which survives across passes — that is
/// the point).
#[derive(Debug, Clone)]
pub struct AbsorbReport {
    /// Elements (nodes + edges) consumed by this pass. Endpoint stubs are
    /// not elements of the input and are not counted, so the count does
    /// not depend on the chunk size.
    pub elements: u64,
    /// Wall-clock per chunk of this pass, in input order.
    pub chunk_times: Vec<Duration>,
    /// Largest `node_count + edge_count` of any chunk (stubs included) —
    /// the peak element count the pass held resident per chunk.
    pub max_chunk_elements: usize,
}

/// The PG-HIVE schema discoverer (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct Discoverer {
    config: PipelineConfig,
}

impl Discoverer {
    /// Discoverer with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Static run: the whole graph as a single batch.
    pub fn discover(&self, g: &PropertyGraph) -> DiscoveryResult {
        let batch = GraphBatch {
            nodes: g.nodes().map(|(id, _)| id).collect(),
            edges: g.edges().map(|(id, _)| id).collect(),
        };
        self.discover_batches(g, std::slice::from_ref(&batch))
    }

    /// Incremental run over `n` deterministic random batches (§4.6 / Fig. 7).
    pub fn discover_incremental(&self, g: &PropertyGraph, n_batches: usize) -> DiscoveryResult {
        let batches = split_batches(g, n_batches, self.config.seed);
        self.discover_batches(g, &batches)
    }

    /// Algorithm 1 over explicit batches. Post-processing runs once, after
    /// the final batch. Candidate types pool into a [`SchemaState`]; the final
    /// schema is its canonical finalization, so the result is invariant to
    /// interning order and to how elements were grouped into batches.
    pub fn discover_batches(&self, g: &PropertyGraph, batches: &[GraphBatch]) -> DiscoveryResult {
        let mut state = self.new_state();
        let mut stats = PipelineStats::default();
        let mut node_cluster_assignment = vec![u32::MAX; g.node_count()];
        let mut edge_cluster_assignment = vec![u32::MAX; g.edge_count()];
        let mut node_cluster_offset = 0u32;
        let mut edge_cluster_offset = 0u32;
        let embedder = HashEmbedder::new(self.config.embedding_dim, self.config.seed);

        for (i, batch) in batches.iter().enumerate() {
            let t_batch = Instant::now();

            // (b) preprocess: representation vectors.
            let t0 = Instant::now();
            let nodes = node_representations(g, &batch.nodes, &embedder, self.config.label_weight);
            let edges = edge_representations(g, &batch.edges, &embedder, self.config.label_weight);
            stats.timings.preprocess += t0.elapsed();

            // (c) LSH clustering over distinct signatures, broadcast back
            // to elements inside `cluster_elements`.
            let t1 = Instant::now();
            let node_out = cluster_elements(&nodes.repr, ElementClass::Nodes, &self.config);
            let edge_out = cluster_elements(&edges.repr, ElementClass::Edges, &self.config);
            stats.timings.clustering += t1.elapsed();
            stats.node_signatures += node_out.hashed_points;
            // Advance the global cluster-id offsets with *checked*
            // arithmetic before touching the assignment arrays: on huge
            // many-batch runs an unchecked `as u32` accumulation would wrap
            // silently and corrupt every later cluster id.
            let next_node_offset = advance_cluster_offset(
                node_cluster_offset,
                node_out.clustering.num_clusters,
                "node",
            );
            let next_edge_offset = advance_cluster_offset(
                edge_cluster_offset,
                edge_out.clustering.num_clusters,
                "edge",
            );
            for (pos, &id) in batch.nodes.iter().enumerate() {
                node_cluster_assignment[id.index()] =
                    node_cluster_offset + node_out.clustering.assignment[pos];
            }
            for (pos, &id) in batch.edges.iter().enumerate() {
                edge_cluster_assignment[id.index()] =
                    edge_cluster_offset + edge_out.clustering.assignment[pos];
            }
            node_cluster_offset = next_node_offset;
            edge_cluster_offset = next_edge_offset;
            if i == 0 {
                stats.adaptive_nodes = node_out.adaptive.clone();
                stats.adaptive_edges = edge_out.adaptive.clone();
            }

            // (d) type extraction (Algorithm 2) from the signature rows:
            // candidates pool into the state; unlabeled clusters stay
            // unresolved until finalize.
            let t2 = Instant::now();
            state.absorb_node_candidates(candidate_node_types_from_rows(
                g,
                &batch.nodes,
                &nodes.repr.rep_of,
                rows(&node_out),
            ));
            state.absorb_edge_candidates(candidate_edge_types_from_rows(
                g,
                &batch.edges,
                &edges.repr.rep_of,
                rows(&edge_out),
            ));
            stats.timings.extraction += t2.elapsed();

            // (e)–(g) post-processing, once every batch is in.
            if i + 1 == batches.len() {
                let t3 = Instant::now();
                state.postprocess(g, self.config.datatype_sampling.as_ref());
                stats.timings.postprocess += t3.elapsed();
            }

            stats.batch_times.push(t_batch.elapsed());
        }

        let schema = state.finalize();
        let (node_assignment, edge_assignment) = assignments(g, &schema);
        DiscoveryResult {
            schema,
            node_assignment,
            edge_assignment,
            node_cluster_assignment,
            edge_cluster_assignment,
            stats,
        }
    }

    /// True streaming (§4.6's motivation: "process large datasets on
    /// machines with limited memory"): every chunk is an *independent*
    /// [`PropertyGraph`] — its own interners, its own ids — that can be
    /// dropped as soon as it is processed. Each chunk runs the full
    /// pipeline including post-processing (datatypes and cardinalities must
    /// be computed while the chunk's values are still in memory), and its
    /// schema merges into the running one; kinds join, counts add,
    /// cardinality bounds take maxima — all monotone.
    ///
    /// Because chunks are dropped, the result carries no member lists or
    /// element assignments (use [`Self::discover_batches`] when the full
    /// graph stays resident).
    ///
    /// ```
    /// use pg_hive_core::{Discoverer, PipelineConfig};
    /// use pg_hive_graph::stream::pgt::PgtSource;
    /// use pg_hive_graph::ChunkedTextReader;
    ///
    /// let text = "N a Person name=Ann\nN b Person name=Bob\nN c Org url=x.com\n\
    ///             E a c WORKS_AT -\nE b c WORKS_AT -\n";
    /// let mut reader = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), 2);
    /// let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    /// let result = d.discover_stream(std::iter::from_fn(|| reader.next_chunk().unwrap()));
    /// assert_eq!(result.schema.node_types.len(), 2); // Person, Org
    /// assert_eq!(result.schema.edge_types.len(), 1); // WORKS_AT
    /// ```
    pub fn discover_stream<I>(&self, chunks: I) -> StreamResult
    where
        I: IntoIterator<Item = PropertyGraph>,
    {
        let mut state = self.new_state();
        let report = self.absorb_stream(chunks, &mut state, 1);
        StreamResult {
            schema: state.finalize(),
            chunk_times: report.chunk_times,
            elements: report.elements,
        }
    }

    /// Fold a stream of chunks into an **existing** [`SchemaState`] with
    /// `threads` workers — the engine under [`Self::discover_stream`] and
    /// [`Self::absorb_unit`].
    ///
    /// With `threads > 1` the worker pool ([`fold_in_order`]) runs
    /// preprocess → LSH → extract → post-process on chunks *concurrently*
    /// and folds the per-chunk states into `state` in input order, the
    /// serial loop's order, so the result is byte-identical to the serial
    /// path for every thread count (the proptests in
    /// `tests/tests/stream_parallel.rs` gate exactly this). Chunks are
    /// pulled on the calling thread; at most `threads` wait in the pool's
    /// queue and at most `2 × threads` are in flight, so that many chunks
    /// are resident at once (plus whatever read-ahead the producer feeding
    /// the iterator keeps in flight). `chunk_times[i]` is chunk `i`'s
    /// processing time on its worker; cross-chunk merge time is excluded.
    ///
    /// ```
    /// use pg_hive_core::{Discoverer, PipelineConfig};
    /// use pg_hive_graph::stream::pgt::PgtSource;
    /// use pg_hive_graph::ReadAheadChunks;
    ///
    /// let text = "N a Person -\nN b Person -\nN c Org -\nE a c WORKS_AT -\n".to_string();
    /// // Producer thread parses up to 2 chunks ahead...
    /// let source = PgtSource::new(std::io::Cursor::new(text.into_bytes()));
    /// let mut ahead = ReadAheadChunks::spawn(source, 2, 2);
    /// // ...while 2 workers discover chunks concurrently.
    /// let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    /// let mut state = d.new_state();
    /// d.absorb_stream(std::iter::from_fn(|| ahead.next_chunk().unwrap()), &mut state, 2);
    /// assert_eq!(state.finalize().node_types.len(), 2); // identical to the serial path
    /// ```
    pub fn absorb_stream<I>(
        &self,
        chunks: I,
        state: &mut SchemaState,
        threads: usize,
    ) -> AbsorbReport
    where
        I: IntoIterator<Item = PropertyGraph>,
    {
        let Ok(report) = self.fold_chunks(
            chunks.into_iter().map(Ok::<_, Infallible>),
            state,
            threads,
            None,
        );
        report
    }

    /// [`Self::absorb_stream`] with a [`SignatureCache`] memoizing the
    /// embedding + LSH stages across chunks — and, because the cache is
    /// caller-owned, across *passes* (the `watch` steady state) and across
    /// process restarts (the cache persists in snapshots). Structurally
    /// repeated chunks skip straight from the cheap signature scan to the
    /// cached distinct-level clustering; the result is byte-identical to
    /// the uncached path (see [`crate::sigcache`] for the argument, and
    /// `tests/tests/incremental_equivalence.rs` for the proptest). The
    /// cache only engages when [`PipelineConfig::dedup`] is on; otherwise
    /// this degrades to the plain path.
    pub fn absorb_stream_cached<I>(
        &self,
        chunks: I,
        state: &mut SchemaState,
        threads: usize,
        cache: &SignatureCache,
    ) -> AbsorbReport
    where
        I: IntoIterator<Item = PropertyGraph>,
    {
        let Ok(report) = self.fold_chunks(
            chunks.into_iter().map(Ok::<_, Infallible>),
            state,
            threads,
            Some(cache),
        );
        report
    }

    /// Absorb one unit of observation — a file, a request body, the bytes a
    /// watch pass found appended — into `acc`.
    ///
    /// The unit's reader is seeded with `acc`'s registry, which is moved
    /// through it (bindings keep their generation stamps), and always
    /// carries end-of-unit unresolved edges. Chunk states fold into
    /// `acc.state` in input order on `threads` workers, through `cache`
    /// when given ([`Self::absorb_stream_cached`]); `on_chunk` sees each
    /// chunk as it is dispatched. The reader's registry, carried edges and
    /// warnings then come back into `acc`, and `elements` / `inputs`
    /// advance.
    ///
    /// Carried edges are not resolved here: call [`Ingest::resolve`] once
    /// every unit that may declare their endpoints is in. A caller that
    /// wants each unit read with a fresh registry (tree files, serve bodies)
    /// absorbs it into a fresh [`Ingest`] and [`Ingest::merge`]s that.
    ///
    /// ```
    /// use pg_hive_core::pipeline::UnitSource;
    /// use pg_hive_core::{Discoverer, Ingest, PipelineConfig};
    /// use pg_hive_graph::stream::pgt::PgtSource;
    ///
    /// let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    /// let mut acc = Ingest::new(d.new_state());
    /// // Two units: the second one's edge references the first one's nodes.
    /// for text in ["N a Person -\nN c Org -\n", "E a c WORKS_AT -\nE a x KNOWS -\n"] {
    ///     let source = UnitSource::Inline(Box::new(PgtSource::new(text.as_bytes())));
    ///     d.absorb_unit(&mut acc, source, 100, 1, None, &mut |_| {}).unwrap();
    /// }
    /// assert_eq!(acc.resolve(&d), 0); // WORKS_AT resolved in-unit; `x` is unknown
    /// assert_eq!((acc.inputs, acc.pending.len()), (2, 1));
    /// assert_eq!(acc.state.finalize().edge_types.len(), 1);
    /// ```
    ///
    /// # Errors
    /// The unit's first parse error; `acc` is then partly folded and must
    /// be discarded.
    pub fn absorb_unit(
        &self,
        acc: &mut Ingest,
        source: UnitSource<'_>,
        chunk_size: usize,
        threads: usize,
        cache: Option<&SignatureCache>,
        on_chunk: &mut dyn FnMut(&PropertyGraph),
    ) -> Result<AbsorbReport, StreamError> {
        let registry = std::mem::take(&mut acc.registry);
        let see = |c: &Result<PropertyGraph, StreamError>| {
            if let Ok(g) = c {
                on_chunk(g);
            }
        };
        let (report, end) = match source {
            UnitSource::Inline(source) => {
                let mut reader = ChunkedTextReader::with_registry(source, chunk_size, registry);
                reader.set_carry_unresolved(true);
                let chunks = std::iter::from_fn(|| reader.next_chunk().transpose()).inspect(see);
                let report = self.fold_chunks(chunks, &mut acc.state, threads, cache)?;
                let end = UnitEnd {
                    pending: reader.take_pending(),
                    warnings: reader.warnings(),
                    registry: reader.into_registry(),
                };
                (report, end)
            }
            UnitSource::ReadAhead(source) => {
                let mut ahead =
                    ReadAheadChunks::spawn_with_registry(source, chunk_size, READ_AHEAD, registry);
                let chunks = std::iter::from_fn(|| ahead.next_chunk().transpose()).inspect(see);
                let report = self.fold_chunks(chunks, &mut acc.state, threads, cache)?;
                let end = ahead
                    .take_end()
                    .expect("a drained producer hands back its end");
                (report, end)
            }
        };
        acc.pending.extend(end.pending);
        acc.warnings.absorb(&end.warnings);
        acc.registry = end.registry;
        acc.elements += report.elements;
        acc.inputs += 1;
        Ok(report)
    }

    /// Fold fallible chunks into `state` on `threads` workers (1 = serial)
    /// through [`fold_in_order`], in input order, stopping at the first
    /// error.
    fn fold_chunks<I, E>(
        &self,
        chunks: I,
        state: &mut SchemaState,
        threads: usize,
        cache: Option<&SignatureCache>,
    ) -> Result<AbsorbReport, E>
    where
        I: IntoIterator<Item = Result<PropertyGraph, E>>,
    {
        let mut report = AbsorbReport {
            elements: 0,
            chunk_times: Vec::new(),
            max_chunk_elements: 0,
        };
        let mut failed = None;
        let chunks = chunks
            .into_iter()
            .map_while(|chunk| chunk.map_err(|e| failed = Some(e)).ok());
        fold_in_order(
            threads,
            chunks.enumerate(),
            |chunk| {
                let t = Instant::now();
                let resident = chunk.node_count() + chunk.edge_count();
                let declared = resident - chunk.stub_count();
                let (chunk_state, entry) = self.chunk_state(&chunk, cache);
                (chunk_state, entry, (declared, resident), t.elapsed())
            },
            |(chunk_state, entry, (declared, resident), time)| {
                // Inserting here, in input order, rather than on the worker
                // makes the cache's FIFO order — and so its snapshot bytes
                // — the same for every thread count.
                if let (Some(cache), Some((fingerprint, clusterings))) = (cache, entry) {
                    cache.insert(fingerprint, clusterings);
                }
                state.merge(chunk_state);
                report.elements += declared as u64;
                report.max_chunk_elements = report.max_chunk_elements.max(resident);
                report.chunk_times.push(time);
                true
            },
        );
        failed.map_or(Ok(report), Err)
    }

    /// Fresh [`SchemaState`] carrying this discoverer's θ — the accumulator
    /// every streaming and watch path folds chunk states into.
    pub fn new_state(&self) -> SchemaState {
        SchemaState::new(self.config.theta)
    }

    /// Discovery over a directory tree: every file is its own unit with a
    /// fresh registry ([`Self::absorb_unit`] into a fresh [`Ingest`]), so a
    /// file's state depends only on that file and the chunk size.
    ///
    /// [`MultiSource::fold_ordered`] reads up to `threads` files at once on
    /// the worker pool, heaviest first, each with
    /// `max(1, threads / min(threads, files))` chunk workers, and the root
    /// [`Ingest::merge`]s the files in path order. The result is
    /// the serial run's for every thread count, even where the merge is not
    /// commutative: a node id declared by two files counts toward
    /// `duplicate_nodes`, and the later file's binding wins for stub labels.
    ///
    /// Cross-file edges (an edge in one file whose endpoint node only some
    /// other file declares) are carried out of each unit and resolved at
    /// the root against the merged registry ([`Ingest::resolve`]), so each
    /// contributes cardinality 1:1 and an endpoint-label pair no matter
    /// when or where it resolves — which is what makes split
    /// `--save-state` runs merged later with `merge-state` equal to the
    /// one-shot run. Edges whose endpoints no input declares stay in
    /// [`Ingest::pending`], uncounted: whether they are dropped or carried
    /// on is the caller's call, as for [`Ingest::resolve`].
    pub fn discover_tree(
        &self,
        source: &MultiSource,
        chunk_size: usize,
        threads: usize,
    ) -> Result<Ingest, StreamError> {
        let threads = threads.max(1);
        let chunk_workers = (threads / threads.min(source.len()).max(1)).max(1);
        let mut root = Ingest::new(self.new_state());
        source.fold_ordered(
            threads,
            |entry| -> Result<Ingest, StreamError> {
                let mut file = Ingest::new(self.new_state());
                let unit = UnitSource::Inline(entry.open()?);
                self.absorb_unit(
                    &mut file,
                    unit,
                    chunk_size,
                    chunk_workers,
                    None,
                    &mut |_| {},
                )?;
                Ok(file)
            },
            |file| {
                root.merge(file);
                true
            },
        )?;
        root.resolve(self);
        Ok(root)
    }

    /// Resolve carried cross-file edges against a (merged) registry,
    /// **batched per edge signature**: edges are grouped by their full
    /// signature — (source label set, target label set, edge labels,
    /// property key set) — and each group is absorbed as **one**
    /// mini-graph holding every edge of the group on its own stub pair.
    ///
    /// Grouping this way is byte-identical to the per-edge resolution it
    /// replaces (the reference in `tests/tests/support/resolve.rs`,
    /// proptested in `incremental_equivalence.rs`): same-signature edges
    /// dedup to a single representation row, so the group clusters into
    /// exactly one candidate whose summed counts, unioned endpoints, and
    /// joined property kinds equal the pooled result of absorbing each
    /// edge alone — the same invariance
    /// that already makes streaming equal across chunk sizes. Distinct
    /// stub pairs keep every endpoint at degree 1, preserving each edge's
    /// 1:1 cardinality contribution. Grouping by endpoint pair alone
    /// would *not* be sound: LSH may merge distinct signatures that share
    /// endpoints into one cluster, producing a unioned candidate no
    /// per-edge run pools.
    ///
    /// The win: root resolution cost drops from one full mini-pipeline
    /// per carried edge to one per **distinct signature** — and carried
    /// cross-file edges are exactly the workload where a handful of
    /// signatures covers thousands of edges.
    ///
    /// Returns the still-unresolvable records and the number resolved.
    pub fn resolve_pending(
        &self,
        state: &mut SchemaState,
        registry: &LabelSetRegistry,
        pending: Vec<Record>,
    ) -> (Vec<Record>, u64) {
        let mut unresolved = Vec::new();
        let mut resolved = 0u64;
        // (src labels, tgt labels, edge labels, sorted prop keys) → the
        // group's per-edge property lists. BTreeMap for deterministic
        // iteration (the fold is commutative, so this is cosmetic).
        type GroupKey = (Vec<String>, Vec<String>, Vec<String>, Vec<String>);
        let mut groups: BTreeMap<GroupKey, Vec<Vec<(String, pg_hive_graph::Value)>>> =
            BTreeMap::new();
        for rec in pending {
            let (Some(src_ls), Some(tgt_ls)) =
                (registry.label_set(&rec.src), registry.label_set(&rec.tgt))
            else {
                unresolved.push(rec);
                continue;
            };
            let mut keys: Vec<String> = rec.props.iter().map(|(k, _)| k.clone()).collect();
            keys.sort_unstable();
            let key = (src_ls.to_vec(), tgt_ls.to_vec(), rec.labels, keys);
            groups.entry(key).or_default().push(rec.props);
        }
        for ((src_labels, tgt_labels, edge_labels, _), edges) in groups {
            let mut b = GraphBuilder::new();
            let src_labels: Vec<&str> = src_labels.iter().map(String::as_str).collect();
            let tgt_labels: Vec<&str> = tgt_labels.iter().map(String::as_str).collect();
            let edge_labels: Vec<&str> = edge_labels.iter().map(String::as_str).collect();
            resolved += edges.len() as u64;
            for props in edges {
                let s = b.add_stub_node(&src_labels);
                let t = b.add_stub_node(&tgt_labels);
                let edge_props: Vec<(&str, pg_hive_graph::Value)> =
                    props.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                b.add_edge(s, t, &edge_labels, &edge_props);
            }
            let g = b.finish();
            state.merge(self.discover_chunk_state(&g));
        }
        (unresolved, resolved)
    }

    /// One independent chunk's full pipeline pass — preprocess, LSH
    /// clustering, type extraction, post-processing — into a chunk-local
    /// [`SchemaState`] with member lists cleared (they hold chunk-local ids
    /// that die with the chunk). Merge the results with
    /// [`SchemaState::merge`] in any order.
    pub fn discover_chunk_state(&self, chunk: &PropertyGraph) -> SchemaState {
        self.chunk_state(chunk, None).0
    }

    /// One chunk's pipeline pass, optionally memoized through a
    /// [`SignatureCache`]. On a cache hit only the cheap signature scan
    /// runs — no embedding, no matrix, no LSH — and extraction reads the
    /// scan's rows (`rep_of`) with the cached distinct-level clustering.
    /// The cache engages only on the dedup path.
    ///
    /// The cache is only read here. When it engaged, the chunk's
    /// fingerprint and clusterings, hit or computed, come back beside the
    /// state for the caller to [`SignatureCache::insert`] in input order.
    /// Re-inserting a hit changes nothing unless a chunk folded since the
    /// lookup evicted the entry; it then re-adds it, as a serial run's miss
    /// would.
    fn chunk_state(
        &self,
        g: &PropertyGraph,
        cache: Option<&SignatureCache>,
    ) -> (SchemaState, Option<(u128, CachedChunk)>) {
        // Stub endpoints exist only so cross-chunk edges keep their endpoint
        // label sets — the real node is counted in whichever chunk declares
        // it. Excluding stubs here makes streamed instance counts and
        // property statistics *exact* (identical to the resident run) for
        // every chunk size and thread count.
        let batch = GraphBatch {
            nodes: g
                .nodes()
                .filter(|&(id, _)| !g.is_stub(id))
                .map(|(id, _)| id)
                .collect(),
            edges: g.edges().map(|(id, _)| id).collect(),
        };
        let cache = cache.filter(|_| self.config.dedup);
        let scan = cache.map(|_| signature_scan(g, &batch));
        if let (Some(cache), Some(scan)) = (cache, scan.as_ref()) {
            if let Some(hit) =
                cache.lookup(scan.fingerprint, scan.nodes.distinct, scan.edges.distinct)
            {
                let state = self.absorb_chunk_rows(
                    g,
                    &batch,
                    (&scan.nodes.rep_of, &hit.nodes),
                    (&scan.edges.rep_of, &hit.edges),
                );
                return (state, Some((scan.fingerprint, hit)));
            }
        }
        let embedder = HashEmbedder::new(self.config.embedding_dim, self.config.seed);
        let nodes = node_representations(g, &batch.nodes, &embedder, self.config.label_weight);
        let edges = edge_representations(g, &batch.edges, &embedder, self.config.label_weight);
        let node_out = cluster_elements(&nodes.repr, ElementClass::Nodes, &self.config);
        let edge_out = cluster_elements(&edges.repr, ElementClass::Edges, &self.config);
        let state = self.absorb_chunk_rows(
            g,
            &batch,
            (&nodes.repr.rep_of, rows(&node_out)),
            (&edges.repr.rep_of, rows(&edge_out)),
        );
        let entry = match (scan, node_out.distinct, edge_out.distinct) {
            (Some(scan), Some(nodes), Some(edges)) => {
                Some((scan.fingerprint, CachedChunk { nodes, edges }))
            }
            _ => None,
        };
        (state, entry)
    }

    /// Stages (d)–(g) of one chunk given each class's rows (`rep_of`) and
    /// their clustering — shared by the cached and computed paths of
    /// [`Self::chunk_state`].
    fn absorb_chunk_rows(
        &self,
        g: &PropertyGraph,
        batch: &GraphBatch,
        (node_rows, node_clusters): (&[u32], &Clustering),
        (edge_rows, edge_clusters): (&[u32], &Clustering),
    ) -> SchemaState {
        let mut state = self.new_state();
        state.absorb_node_candidates(candidate_node_types_from_rows(
            g,
            &batch.nodes,
            node_rows,
            node_clusters,
        ));
        state.absorb_edge_candidates(candidate_edge_types_from_rows(
            g,
            &batch.edges,
            edge_rows,
            edge_clusters,
        ));
        // Streaming chunks cannot defer post-processing: the values die
        // with the chunk.
        state.postprocess(g, self.config.datatype_sampling.as_ref());
        state.clear_members();
        state
    }
}

/// The clustering of a representation's rows, which both clustering paths
/// set.
fn rows(out: &ClusterOutcome) -> &Clustering {
    out.distinct
        .as_ref()
        .expect("cluster_elements sets the row clustering")
}

/// Add a batch's cluster count onto the running global cluster-id offset.
/// Per-element ids are `offset + local_id` with `local_id < num_clusters`,
/// so checking `offset + num_clusters` up front guarantees every id of the
/// batch fits in `u32` without wrapping.
///
/// # Panics
/// Panics with a diagnosable message when the global cluster-id space
/// exceeds `u32::MAX` — at that point `node_cluster_assignment` could no
/// longer distinguish clusters and every downstream F1* score would be
/// silently wrong.
fn advance_cluster_offset(offset: u32, num_clusters: usize, class: &str) -> u32 {
    u32::try_from(num_clusters)
        .ok()
        .and_then(|n| offset.checked_add(n))
        .unwrap_or_else(|| {
            panic!(
                "global {class} cluster-id space overflowed u32 \
                 (offset {offset} + {num_clusters} clusters in this batch); \
                 run with fewer batches or a coarser clustering"
            )
        })
}

/// Derive element→type assignments from type membership lists. Every
/// element covered by a processed batch belongs to exactly one type (type
/// completeness, §4.7); elements of batches that have not been processed
/// yet (when the caller streams a prefix) keep the `u32::MAX` sentinel.
fn assignments(g: &PropertyGraph, schema: &SchemaGraph) -> (Vec<u32>, Vec<u32>) {
    let mut node_assignment = vec![u32::MAX; g.node_count()];
    for (t, ty) in schema.node_types.iter().enumerate() {
        for &m in &ty.members {
            node_assignment[m as usize] = t as u32;
        }
    }
    let mut edge_assignment = vec![u32::MAX; g.edge_count()];
    for (t, ty) in schema.edge_types.iter().enumerate() {
        for &m in &ty.members {
            edge_assignment[m as usize] = t as u32;
        }
    }
    (node_assignment, edge_assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterMethod, SamplingConfig};
    use crate::schema::label_set;
    use pg_hive_graph::{GraphBuilder, Value, ValueKind};

    /// The Figure 1 graph: 4 node types (+1 unlabeled Person), 4 edge types.
    fn figure1() -> PropertyGraph {
        let mut b = GraphBuilder::new();
        let bob = b.add_node(
            &["Person"],
            &[
                ("name", Value::from("Bob")),
                ("gender", Value::from("male")),
                ("bday", Value::from("1980-05-02")),
            ],
        );
        let alice = b.add_node(
            &[],
            &[
                ("name", Value::from("Alice")),
                ("gender", Value::from("female")),
                ("bday", Value::from("1999-12-19")),
            ],
        );
        let john = b.add_node(
            &["Person"],
            &[
                ("name", Value::from("John")),
                ("gender", Value::from("male")),
                ("bday", Value::from("2005-09-24")),
            ],
        );
        let post1 = b.add_node(&["Post"], &[("imgFile", Value::from("screenshot.png"))]);
        let post2 = b.add_node(&["Post"], &[("content", Value::from("bazinga!"))]);
        let org = b.add_node(
            &["Org"],
            &[
                ("url", Value::from("example.com")),
                ("name", Value::from("Example")),
            ],
        );
        let place = b.add_node(&["Place"], &[("name", Value::from("Greece"))]);
        b.add_edge(alice, john, &["KNOWS"], &[]);
        b.add_edge(
            bob,
            john,
            &["KNOWS"],
            &[("since", Value::from("2025-01-01"))],
        );
        b.add_edge(alice, post2, &["LIKES"], &[]);
        b.add_edge(john, post1, &["LIKES"], &[]);
        b.add_edge(bob, org, &["WORKS_AT"], &[("from", Value::Int(2000))]);
        b.add_edge(org, place, &["LOCATED_IN"], &[]);
        b.add_edge(john, place, &["LOCATED_IN"], &[("from", Value::Int(2025))]);
        b.finish()
    }

    #[test]
    fn discovers_figure1_schema_with_elsh() {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let r = d.discover(&figure1());
        // Example 5: Alice's unlabeled cluster merges into Person; the two
        // Post patterns merge by label. Expect exactly Person, Post, Org,
        // Place.
        let labels: Vec<String> = r
            .schema
            .node_types
            .iter()
            .map(|t| t.labels.iter().cloned().collect::<Vec<_>>().join("|"))
            .collect();
        assert_eq!(r.schema.node_types.len(), 4, "{labels:?}");
        let person_idx = r
            .schema
            .node_type_by_labels(&label_set(&["Person"]))
            .expect("Person type");
        assert_eq!(
            r.schema.node_types[person_idx].instance_count, 3,
            "Bob, John and unlabeled Alice"
        );
        // Edge types: KNOWS, LIKES, WORKS_AT, LOCATED_IN.
        assert_eq!(r.schema.edge_types.len(), 4);
        // Every element is assigned.
        assert_eq!(r.node_assignment.len(), 7);
        assert_eq!(r.edge_assignment.len(), 7);
    }

    #[test]
    fn discovers_figure1_schema_with_minhash() {
        let d = Discoverer::new(PipelineConfig::minhash_default());
        let r = d.discover(&figure1());
        assert!(
            r.schema.node_types.len() <= 5 && r.schema.node_types.len() >= 4,
            "got {}",
            r.schema.node_types.len()
        );
        assert_eq!(r.schema.edge_types.len(), 4);
    }

    #[test]
    fn post_processing_fills_constraints_datatypes_cardinalities() {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let r = d.discover(&figure1());
        let person_idx = r
            .schema
            .node_type_by_labels(&label_set(&["Person"]))
            .unwrap();
        let person = &r.schema.node_types[person_idx];
        // Example 6: name/gender/bday mandatory for Person.
        for key in ["name", "gender", "bday"] {
            assert!(
                person.props[key].is_mandatory(person.instance_count),
                "{key} should be mandatory"
            );
        }
        // Example 7: name/gender strings, bday a date.
        assert_eq!(person.props["name"].kind, Some(ValueKind::String));
        assert_eq!(person.props["bday"].kind, Some(ValueKind::Date));
        // Post: imgFile optional (only one of the two posts has it).
        let post_idx = r.schema.node_type_by_labels(&label_set(&["Post"])).unwrap();
        let post = &r.schema.node_types[post_idx];
        assert!(!post.props["imgFile"].is_mandatory(post.instance_count));
        // Example 8: KNOWS is M:N... with only 2 KNOWS edges sharing target
        // John, max_in = 2, max_out = 1 ⇒ 0:N on this tiny graph.
        let knows_idx = r
            .schema
            .edge_type_by_labels(&label_set(&["KNOWS"]))
            .unwrap();
        let c = r.schema.edge_types[knows_idx].cardinality.unwrap();
        assert_eq!(c.max_in, 2);
    }

    #[test]
    fn incremental_equals_static_type_inventory() {
        let g = figure1();
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let stat = d.discover(&g);
        let incr = d.discover_incremental(&g, 3);
        let mut a: Vec<_> = stat
            .schema
            .node_types
            .iter()
            .map(|t| t.labels.clone())
            .collect();
        let mut b: Vec<_> = incr
            .schema
            .node_types
            .iter()
            .map(|t| t.labels.clone())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "incremental discovers the same labeled types");
        assert_eq!(incr.stats.batch_times.len(), 3);
        // All instances accounted for in both runs.
        assert_eq!(incr.schema.node_instances(), 7);
        assert_eq!(incr.schema.edge_instances(), 7);
    }

    #[test]
    fn sampling_config_is_honored() {
        let cfg = PipelineConfig {
            datatype_sampling: Some(SamplingConfig::default()),
            ..PipelineConfig::elsh_adaptive()
        };
        let d = Discoverer::new(cfg);
        let r = d.discover(&figure1());
        // Small graph: floor 1000 ⇒ identical to full scan.
        let person_idx = r
            .schema
            .node_type_by_labels(&label_set(&["Person"]))
            .unwrap();
        assert_eq!(
            r.schema.node_types[person_idx].props["bday"].kind,
            Some(ValueKind::Date)
        );
    }

    #[test]
    fn sampled_datatypes_stay_per_type_through_the_discoverer() {
        // 1000 integers and one string under one label: the seeded 1%
        // sample misses the outlier, the full scan does not, resident and
        // streamed alike.
        let graph = || {
            let mut b = GraphBuilder::new();
            for i in 0..1000 {
                b.add_node(&["T"], &[("x", Value::Int(i))]);
            }
            b.add_node(&["T"], &[("x", Value::from("oops"))]);
            b.finish()
        };
        let sampled = SamplingConfig {
            fraction: 0.01,
            min_values: 1,
            seed: 7,
        };
        for (sampling, kind) in [
            (Some(sampled), ValueKind::Integer),
            (None, ValueKind::String),
        ] {
            let d = Discoverer::new(PipelineConfig {
                datatype_sampling: sampling,
                ..PipelineConfig::elsh_adaptive()
            });
            let resident = d.discover(&graph()).schema;
            let streamed = d.discover_stream(vec![graph()]).schema;
            for schema in [resident, streamed] {
                assert_eq!(schema.node_types.len(), 1);
                assert_eq!(schema.node_types[0].props["x"].kind, Some(kind));
            }
        }
    }

    #[test]
    fn empty_graph_gives_empty_schema() {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let r = d.discover(&PropertyGraph::new());
        assert!(r.schema.node_types.is_empty());
        assert!(r.schema.edge_types.is_empty());
        assert!(r.node_assignment.is_empty());
    }

    #[test]
    fn timings_are_recorded() {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let r = d.discover(&figure1());
        assert!(r.stats.timings.total() >= r.stats.timings.discovery());
        assert_eq!(r.stats.batch_times.len(), 1);
    }

    #[test]
    fn cluster_offsets_advance_checked() {
        assert_eq!(advance_cluster_offset(10, 5, "node"), 15);
        assert_eq!(advance_cluster_offset(u32::MAX - 1, 1, "node"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "cluster-id space overflowed u32")]
    fn cluster_offset_overflow_panics_with_context() {
        // Regression: the seed accumulated offsets with an unchecked
        // `as u32` cast, so overflow wrapped silently and corrupted
        // `node_cluster_assignment` instead of failing loudly.
        advance_cluster_offset(u32::MAX - 1, 2, "node");
    }

    #[test]
    #[should_panic(expected = "cluster-id space overflowed u32")]
    fn cluster_count_beyond_u32_panics_with_context() {
        advance_cluster_offset(0, u32::MAX as usize + 1, "edge");
    }

    /// `absorb_stream(.., threads)` into a fresh state, finalized.
    fn stream_with(d: &Discoverer, chunks: Vec<PropertyGraph>, threads: usize) -> StreamResult {
        let mut state = d.new_state();
        let report = d.absorb_stream(chunks, &mut state, threads);
        StreamResult {
            schema: state.finalize(),
            chunk_times: report.chunk_times,
            elements: report.elements,
        }
    }

    #[test]
    fn parallel_stream_is_byte_identical_to_serial() {
        use pg_hive_graph::loader::save_text;
        use pg_hive_graph::stream::pgt::PgtSource;
        use pg_hive_graph::ChunkedTextReader;
        let text = save_text(&figure1());
        let chunks = |size: usize| {
            let mut r = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), size);
            let mut out = Vec::new();
            while let Some(c) = r.next_chunk().unwrap() {
                out.push(c);
            }
            out
        };
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        for size in [3, 5, 100] {
            let serial = d.discover_stream(chunks(size));
            let serial_text = crate::serialize::pg_schema_strict(&serial.schema, "G");
            for threads in [2, 3, 4] {
                let par = stream_with(&d, chunks(size), threads);
                assert_eq!(par.elements, serial.elements, "size {size} x{threads}");
                assert_eq!(par.chunk_times.len(), serial.chunk_times.len());
                assert_eq!(
                    crate::serialize::pg_schema_strict(&par.schema, "G"),
                    serial_text,
                    "size {size} x{threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_stream_with_one_thread_or_no_chunks_degrades_gracefully() {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let one = stream_with(&d, vec![figure1()], 1);
        assert_eq!(one.chunk_times.len(), 1);
        assert_eq!(one.elements, 14);
        let none = stream_with(&d, Vec::new(), 4);
        assert_eq!(none.elements, 0);
        assert!(none.schema.node_types.is_empty());
        // More threads than chunks is fine — idle workers just exit.
        let few = stream_with(&d, vec![figure1()], 8);
        assert_eq!(few.elements, 14);
        assert_eq!(few.schema.node_types.len(), 4);
    }

    #[test]
    fn units_read_inline_and_ahead_alike_and_stop_at_parse_errors() {
        use pg_hive_graph::loader::save_text;
        use pg_hive_graph::stream::pgt::PgtSource;
        let text = save_text(&figure1());
        let strict = |acc: &Ingest| crate::serialize::pg_schema_strict(&acc.state.finalize(), "G");
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        for threads in [1, 3] {
            let mut inline = Ingest::new(d.new_state());
            let source = UnitSource::Inline(Box::new(PgtSource::new(text.as_bytes())));
            d.absorb_unit(&mut inline, source, 3, threads, None, &mut |_| {})
                .unwrap();
            let mut ahead = Ingest::new(d.new_state());
            let mut seen = 0;
            let bytes = std::io::Cursor::new(text.clone().into_bytes());
            let source = UnitSource::ReadAhead(Box::new(PgtSource::new(bytes)));
            let report = d
                .absorb_unit(&mut ahead, source, 3, threads, None, &mut |_| seen += 1)
                .unwrap();
            assert_eq!(seen, report.chunk_times.len());
            assert!(report.max_chunk_elements <= 6, "{report:?}");
            assert_eq!((inline.elements, inline.inputs), (ahead.elements, 1));
            assert_eq!(inline.warnings, ahead.warnings);
            assert_eq!(ahead.registry.len(), 7);
            assert_eq!(strict(&inline), strict(&ahead), "x{threads}");

            let bad = format!("{text}not a record\n");
            let mut acc = Ingest::new(d.new_state());
            let source = UnitSource::Inline(Box::new(PgtSource::new(bad.as_bytes())));
            let err = d.absorb_unit(&mut acc, source, 3, threads, None, &mut |_| {});
            assert!(matches!(err, Err(StreamError::Parse { .. })), "x{threads}");
        }
    }

    #[test]
    fn sharded_directory_run_is_byte_identical_to_serial() {
        use std::fs;
        let root =
            std::env::temp_dir().join(format!("pg-hive-sharded-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        // Mixed formats with cross-file edges: people in the .pgt, orgs in
        // the CSV dataset, employment in the .jsonl referencing both.
        fs::write(
            root.join("people.pgt"),
            "N p1 Person name=Ann\nN p2 Person name=Bob\nE p1 p2 KNOWS since=2020\n",
        )
        .unwrap();
        let csvdir = root.join("orgs");
        fs::create_dir_all(&csvdir).unwrap();
        fs::write(
            csvdir.join("nodes.csv"),
            "id,labels,url\no1,Org,example.com\no2,Org,example.org\n",
        )
        .unwrap();
        fs::write(
            root.join("jobs.jsonl"),
            concat!(
                r#"{"type":"edge","src":"p1","tgt":"o1","labels":["WORKS_AT"],"props":{"from":2019}}"#,
                "\n",
                r#"{"type":"edge","src":"p2","tgt":"o2","labels":["WORKS_AT"],"props":{"from":2021}}"#,
                "\n",
                r#"{"type":"edge","src":"p2","tgt":"ghost","labels":["WORKS_AT"],"props":{}}"#,
                "\n",
            ),
        )
        .unwrap();

        let source = MultiSource::enumerate(&root).unwrap();
        assert_eq!(source.len(), 3);
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let serial = d.discover_tree(&source, 2, 1).unwrap();
        let serial_text = crate::serialize::pg_schema_strict(&serial.state.finalize(), "G");
        assert_eq!(serial.inputs, 3);
        // The ghost-endpoint edge stays pending; the caller counts it.
        assert_eq!(serial.pending.len(), 1);
        // Cross-file WORKS_AT edges resolved against the merged registry.
        assert!(serial_text.contains("WORKS_AT"), "{serial_text}");
        for threads in [2, 3, 4, 7] {
            let parallel = d.discover_tree(&source, 2, threads).unwrap();
            assert_eq!(
                crate::serialize::pg_schema_strict(&parallel.state.finalize(), "G"),
                serial_text,
                "threads {threads}"
            );
            assert_eq!(parallel.elements, serial.elements, "threads {threads}");
            assert_eq!(parallel.warnings, serial.warnings, "threads {threads}");
            assert_eq!(parallel.pending.len(), 1);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn edges_past_the_pending_cap_are_carried_and_counted_once() {
        // 1,100 edges wait for endpoints: more than the pending cap (1,024)
        // at the small chunk sizes. In a tree they are carried to the root
        // however many were evicted; read as one file after their nodes,
        // stubs do not count as elements.
        use pg_hive_graph::stream::pgt::PgtSource;
        use std::fmt::Write as _;
        use std::fs;
        let root = std::env::temp_dir().join(format!("pg-hive-evict-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        let (mut nodes, mut edges) = (String::new(), String::new());
        for i in 0..50 {
            writeln!(nodes, "N p{i} Person -").unwrap();
        }
        for i in 0..1100 {
            writeln!(edges, "E p{} p{} KNOWS -", i % 50, i * 7 % 50).unwrap();
        }
        fs::write(root.join("a.pgt"), &nodes).unwrap();
        fs::write(root.join("b.pgt"), &edges).unwrap();
        let source = MultiSource::enumerate(&root).unwrap();
        let whole = format!("{nodes}{edges}");
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        for chunk_size in [2, 100, 1000] {
            let tree = d.discover_tree(&source, chunk_size, 1).unwrap();
            let knows = &tree.state.finalize().edge_types;
            assert_eq!(knows.len(), 1);
            assert_eq!(knows[0].instance_count, 1100, "chunk size {chunk_size}");
            assert!(tree.pending.is_empty(), "chunk size {chunk_size}");
            let w = tree.warnings;
            assert_eq!((w.evicted_edges, w.unresolved_edges), (0, 0), "{w:?}");
            assert_eq!(tree.elements, 1150, "chunk size {chunk_size}");

            let mut file = Ingest::new(d.new_state());
            let unit = UnitSource::Inline(Box::new(PgtSource::new(whole.as_bytes())));
            d.absorb_unit(&mut file, unit, chunk_size, 1, None, &mut |_| {})
                .unwrap();
            assert_eq!(file.elements, 1150, "chunk size {chunk_size}");
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn split_runs_merged_equal_one_shot() {
        use crate::snapshot::{ResumeContext, SnapshotConfig};
        use std::fs;
        let root = std::env::temp_dir().join(format!("pg-hive-merge-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let people = "N p1 Person name=Ann\nN p2 Person name=Bob\nE p1 p2 KNOWS since=2020\n";
        let orgs = "N o1 Org url=example.com\nN o2 Org url=example.org\n";
        // Cross-split edges: their endpoints live in the *other* run.
        let jobs = "E p1 o1 WORKS_AT from=2019\nE p2 o2 WORKS_AT from=2021\n";
        for (dir, files) in [
            (
                "all",
                vec![("a.pgt", people), ("b.pgt", orgs), ("c.pgt", jobs)],
            ),
            ("left", vec![("a.pgt", people)]),
            ("right", vec![("b.pgt", orgs), ("c.pgt", jobs)]),
        ] {
            fs::create_dir_all(root.join(dir)).unwrap();
            for (name, text) in files {
                fs::write(root.join(dir).join(name), text).unwrap();
            }
        }
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let chunk = 2;
        let run = |dir: &str| {
            let src = MultiSource::enumerate(&root.join(dir)).unwrap();
            d.discover_tree(&src, chunk, 1).unwrap()
        };
        let one_shot = run("all");
        let one_shot_text = crate::serialize::pg_schema_strict(&one_shot.state.finalize(), "G");
        assert!(one_shot.pending.is_empty());

        // Save each half as a snapshot file, then fold them the way
        // `merge-state` does: load, check the config, `Ingest::merge`.
        let mut paths = Vec::new();
        for half in ["left", "right"] {
            let ctx = ResumeContext {
                config: SnapshotConfig::new(d.config(), chunk),
                ingest: run(half),
                cache: SignatureCache::default(),
                watch: None,
            };
            let path = root.join(format!("{half}.snapshot"));
            ctx.save(&path).unwrap();
            paths.push(path);
        }
        let merge = |first: usize, second: usize| {
            let mut base = ResumeContext::load(&paths[first]).unwrap();
            let next = ResumeContext::load(&paths[second]).unwrap();
            base.config.ensure_matches(&next.config).unwrap();
            base.ingest.merge(next.ingest);
            base.ingest
        };
        let mut merged = merge(0, 1);
        assert_eq!(merged.warnings.duplicate_nodes, 0);
        // The WORKS_AT edges were pending in the right half (their Person
        // endpoints live in the left half) and resolve only now.
        assert_eq!(merged.pending.len(), 2);
        let resolved = merged.resolve(&d);
        assert_eq!((merged.pending.len(), resolved), (0, 2));
        assert_eq!(
            crate::serialize::pg_schema_strict(&merged.state.finalize(), "G"),
            one_shot_text
        );
        // Merge order must not matter either.
        let mut merged_rev = merge(1, 0);
        merged_rev.resolve(&d);
        assert_eq!(
            crate::serialize::pg_schema_strict(&merged_rev.state.finalize(), "G"),
            one_shot_text
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cached_stream_is_byte_identical_and_hits_on_repeats() {
        use pg_hive_graph::loader::save_text;
        use pg_hive_graph::stream::pgt::PgtSource;
        use pg_hive_graph::ChunkedTextReader;
        let text = save_text(&figure1());
        let chunks = |size: usize| {
            let mut r = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), size);
            let mut out = Vec::new();
            while let Some(c) = r.next_chunk().unwrap() {
                out.push(c);
            }
            out
        };
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        for size in [3, 100] {
            let mut plain = d.new_state();
            d.absorb_stream(chunks(size), &mut plain, 1);
            let plain_text = crate::serialize::pg_schema_strict(&plain.finalize(), "G");
            for threads in [1, 3] {
                let cache = SignatureCache::default();
                let mut cold = d.new_state();
                d.absorb_stream_cached(chunks(size), &mut cold, threads, &cache);
                assert_eq!(
                    crate::serialize::pg_schema_strict(&cold.finalize(), "G"),
                    plain_text,
                    "cold cached run, size {size} x{threads}"
                );
                let misses = cache.stats().misses;
                assert_eq!(cache.stats().hits, 0, "cold run cannot hit");
                assert!(misses > 0);
                // Second pass over identical chunks: every lookup hits and
                // the schema is still byte-identical.
                let mut warm = d.new_state();
                d.absorb_stream_cached(chunks(size), &mut warm, threads, &cache);
                assert_eq!(
                    crate::serialize::pg_schema_strict(&warm.finalize(), "G"),
                    plain_text,
                    "warm cached run, size {size} x{threads}"
                );
                let stats = cache.stats();
                assert_eq!(
                    (stats.hits, stats.misses),
                    (misses, misses),
                    "warm pass hits every chunk"
                );
            }
        }
    }

    #[test]
    fn cache_snapshot_is_the_same_for_every_thread_count() {
        // The first chunk has 60 distinct signatures, so at 4 threads the
        // one-node chunks behind it finish first; the cache must still
        // list its entries in chunk order.
        let chunks = || {
            let mut first = GraphBuilder::new();
            for i in 0..60 {
                let key = format!("k{i}");
                first.add_node(&["Wide"], &[(key.as_str(), Value::Int(1))]);
            }
            let mut chunks = vec![first.finish()];
            for i in 0..12 {
                let label = format!("T{i}");
                let mut b = GraphBuilder::new();
                b.add_node(&[label.as_str()], &[("p", Value::Int(i))]);
                chunks.push(b.finish());
            }
            chunks
        };
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let snapshot = |threads| {
            let cache = SignatureCache::default();
            d.absorb_stream_cached(chunks(), &mut d.new_state(), threads, &cache);
            cache.snapshot_lines()
        };
        let serial = snapshot(1);
        assert_eq!(serial.len(), 13);
        for _ in 0..3 {
            assert_eq!(snapshot(4), serial);
        }
    }

    #[test]
    fn both_methods_deterministic_per_seed() {
        let g = figure1();
        for method in [ClusterMethod::Elsh, ClusterMethod::MinHash] {
            let cfg = PipelineConfig {
                method,
                ..PipelineConfig::elsh_adaptive()
            };
            let d = Discoverer::new(cfg);
            let a = d.discover(&g);
            let b = d.discover(&g);
            assert_eq!(a.node_assignment, b.node_assignment);
            assert_eq!(a.edge_assignment, b.edge_assignment);
        }
    }
}
