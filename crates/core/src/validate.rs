//! Schema validation: stream a property graph's records through a
//! (discovered or hand-written) schema graph.
//!
//! The paper's motivation for schema discovery is downstream "integration,
//! querying, and data quality assurance" (§1), and §4.5's PG-Schema STRICT
//! level "demands a rigorous structure". [`CompiledSchema`] compiles a
//! finalized [`SchemaGraph`] into lookup tables once, and a [`Validator`]
//! folds [`RawGraphSource`] records through it with O(chunk) residency,
//! counting violations in seven categories ([`ViolationKind`]):
//!
//! - **labels** — a node's or an edge's label set matches no declared type
//!   (`unknown-node-labels`, `unknown-edge-labels`);
//! - **keys** — a mandatory property of the matched type is absent
//!   (`missing-key`), or a property the type does not declare is present
//!   (`extra-key`);
//! - **datatypes** — an observed value does not fit the declared kind
//!   (`type-mismatch`);
//! - **endpoints** — an edge endpoint id is never declared as a node
//!   (`dangling-endpoint`), or the (source, target) label-set pair is not
//!   declared for the edge type (`ill-typed-endpoint`).
//!
//! # Verdicts per label set
//!
//! A record's type is found through its label set, and an input holds few
//! distinct label sets. So [`Validator::check_buf`] interns each record's
//! label set in the id → label-set registry and keeps, per interned
//! label-set id, the node type, the edge type and the endpoint-set id that
//! set resolves to. The `String`-keyed lookups run once per distinct label
//! set, not once per record. Within a record, keys are matched against a
//! per-type key table with a MANDATORY bitmask, and the strings of a
//! violation are built only for an example the buffer keeps; a record
//! that conforms allocates nothing.
//!
//! # Values stay text
//!
//! [`Validator::validate_source`] reads records into a
//! [`RecordBuf::text_values`] buffer, so property values arrive as text
//! (pgt values still percent-encoded). Only a key declared with a
//! non-STRING kind classifies its value, from the decoded text in a
//! reused scratch; every other value is never decoded, and none is ever
//! built as a [`pg_hive_graph::Value`].
//!
//! # Types that share a label set
//!
//! Several types can share one label set; every pair of ABSTRACT types
//! does. They compile into one matched type: keys unioned, kinds joined
//! (unconstrained if any of them leaves a key unconstrained), a key
//! MANDATORY only where every one of them has it as MANDATORY, and edge
//! endpoint pairs unioned. An element that mixes two such types' keys
//! therefore passes.

use crate::schema::{LabelSet, PropertySpec, SchemaGraph};
use pg_hive_graph::stream::raw::PropsRef;
use pg_hive_graph::{
    Interner, LabelSetRegistry, RawGraphSource, RecordBuf, RecordRef, StreamError, Symbol,
    ValueKind,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

// ---------------------------------------------------------------------------
// Streaming validation: CompiledSchema + Validator
// ---------------------------------------------------------------------------

/// Category of a [`StreamViolation`] — the per-category counter key of the
/// streaming validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// A node's label set matches no declared node type.
    UnknownNodeLabels,
    /// An edge's label set matches no declared edge type.
    UnknownEdgeLabels,
    /// A mandatory property of the matched type is absent.
    MissingKey,
    /// A property the matched type does not declare is present.
    ExtraKey,
    /// An observed value does not fit the declared datatype (lattice
    /// join of declared and observed kind generalizes past declared).
    TypeMismatch,
    /// An edge endpoint id was never declared as a node in the input.
    DanglingEndpoint,
    /// Both endpoints exist but their (source, target) label-set pair is
    /// not declared for the edge type.
    IllTypedEndpoint,
}

impl ViolationKind {
    /// Every category, in canonical (report) order.
    pub const ALL: [ViolationKind; 7] = [
        ViolationKind::UnknownNodeLabels,
        ViolationKind::UnknownEdgeLabels,
        ViolationKind::MissingKey,
        ViolationKind::ExtraKey,
        ViolationKind::TypeMismatch,
        ViolationKind::DanglingEndpoint,
        ViolationKind::IllTypedEndpoint,
    ];

    /// Stable kebab-case name used in reports and jsonl violation events.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::UnknownNodeLabels => "unknown-node-labels",
            ViolationKind::UnknownEdgeLabels => "unknown-edge-labels",
            ViolationKind::MissingKey => "missing-key",
            ViolationKind::ExtraKey => "extra-key",
            ViolationKind::TypeMismatch => "type-mismatch",
            ViolationKind::DanglingEndpoint => "dangling-endpoint",
            ViolationKind::IllTypedEndpoint => "ill-typed-endpoint",
        }
    }

    fn index(self) -> usize {
        ViolationKind::ALL.iter().position(|k| *k == self).unwrap()
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation found by the streaming [`Validator`], identified by the
/// dataset-scoped element id (a node id, or `src->tgt` for an edge) rather
/// than a resident-graph index — streaming validation never materializes
/// the graph, and ids are what the operator can grep the input for.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StreamViolation {
    /// The category.
    pub kind: ViolationKind,
    /// Dataset-scoped element id: the node id, or `src->tgt` for an edge.
    pub element: String,
    /// Human-readable detail: the offending key, label set, or endpoint.
    pub detail: String,
}

impl fmt::Display for StreamViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.kind, self.element, self.detail)
    }
}

/// One declared key of a [`CompiledType`].
#[derive(Debug)]
struct KeySpec {
    name: String,
    /// Inferred datatype (`None` = unconstrained).
    kind: Option<ValueKind>,
}

/// A node or edge type compiled for per-record checking: the declared keys
/// in name order, one slot each, with per-key datatype and a bitmask of
/// the MANDATORY slots. A record's key finds its slot through the schema's
/// key interner and `table`, so checking a record allocates nothing.
#[derive(Debug)]
struct CompiledType {
    /// Slot → declared key, in key-name order.
    keys: Vec<KeySpec>,
    /// `(key symbol, slot)`, sorted by symbol.
    table: Vec<(u32, u32)>,
    /// Bit `slot` is set when every instance must carry that key
    /// (`f_T(p) = 1`, §4.4).
    mandatory: Vec<u64>,
    /// Rendering of the label set for violation details.
    label_text: String,
}

/// An edge type adds the declared endpoint label-set pairs, as sorted ids
/// into the compiled schema's endpoint-set pool.
#[derive(Debug)]
struct CompiledEdgeType {
    base: CompiledType,
    endpoints: Vec<(u32, u32)>,
}

/// The types that share one label set, folded into one check.
#[derive(Debug)]
struct TypeFold<'s> {
    labels: &'s LabelSet,
    /// Key → (joined kind, number of folded types that have it as
    /// MANDATORY).
    keys: BTreeMap<String, (Option<ValueKind>, usize)>,
    /// Endpoint-set id pairs of the edge types folded so far.
    endpoints: Vec<(u32, u32)>,
    types: usize,
}

impl<'s> TypeFold<'s> {
    /// The fold of `labels` in `folds`, found through `index` (sorted label
    /// symbols `key` → fold index) and created on first sight.
    fn of<'f>(
        index: &mut HashMap<Box<[u32]>, u32>,
        key: Box<[u32]>,
        folds: &'f mut Vec<TypeFold<'s>>,
        labels: &'s LabelSet,
    ) -> &'f mut TypeFold<'s> {
        let i = *index.entry(key).or_insert(folds.len() as u32) as usize;
        if i == folds.len() {
            folds.push(TypeFold {
                labels,
                keys: BTreeMap::new(),
                endpoints: Vec::new(),
                types: 0,
            });
        }
        &mut folds[i]
    }

    /// Fold one more type's properties in: keys union, and kinds join
    /// (`None`, unconstrained, absorbs).
    fn add(&mut self, props: &BTreeMap<String, PropertySpec>, instance_count: u64) {
        for (key, spec) in props {
            let mandatory = spec.is_mandatory(instance_count) as usize;
            match self.keys.get_mut(key) {
                Some((kind, n)) => {
                    *kind = kind.zip(spec.kind).map(|(a, b)| a.join(b));
                    *n += mandatory;
                }
                None => {
                    self.keys.insert(key.clone(), (spec.kind, mandatory));
                }
            }
        }
        self.types += 1;
    }
}

/// A finalized [`SchemaGraph`] compiled into symbol-keyed lookup tables
/// for streaming conformance checks: label-set → expected key set, per-key
/// datatype/cardinality, and edge-type endpoint constraints. Compile once,
/// validate any number of inputs (also concurrently — lookups take `&self`).
///
/// Types that share a label set compile into one check (see the
/// [module docs](self#types-that-share-a-label-set)).
#[derive(Debug)]
pub struct CompiledSchema {
    /// Label string → dense symbol. Labels absent here appear in no type.
    label_syms: HashMap<String, u32>,
    /// Every key some type declares; the symbols key each type's `table`.
    key_syms: Interner,
    /// Sorted label-symbol set → node type (dense index into `nodes`).
    node_types: HashMap<Box<[u32]>, u32>,
    nodes: Vec<CompiledType>,
    /// Sorted label-symbol set → edge type (dense index into `edges`).
    edge_types: HashMap<Box<[u32]>, u32>,
    edges: Vec<CompiledEdgeType>,
    /// Sorted label-symbol set → endpoint-set pool id.
    endpoint_sets: HashMap<Box<[u32]>, u32>,
    /// Schema types, counting every type that shares a label set.
    node_type_count: usize,
    edge_type_count: usize,
}

impl CompiledSchema {
    /// Compile a finalized schema graph into checking tables.
    pub fn compile(schema: &SchemaGraph) -> Self {
        let mut c = CompiledSchema {
            label_syms: HashMap::new(),
            key_syms: Interner::new(),
            node_types: HashMap::new(),
            nodes: Vec::new(),
            edge_types: HashMap::new(),
            edges: Vec::new(),
            endpoint_sets: HashMap::new(),
            node_type_count: schema.node_types.len(),
            edge_type_count: schema.edge_types.len(),
        };
        let mut node_folds = Vec::new();
        for ty in &schema.node_types {
            let key = c.intern_set(&ty.labels);
            TypeFold::of(&mut c.node_types, key, &mut node_folds, &ty.labels)
                .add(&ty.props, ty.instance_count);
        }
        let mut edge_folds = Vec::new();
        for ty in &schema.edge_types {
            let key = c.intern_set(&ty.labels);
            let endpoints: Vec<(u32, u32)> = (ty.endpoints.iter())
                .map(|(s, t)| (c.intern_endpoint_set(s), c.intern_endpoint_set(t)))
                .collect();
            let fold = TypeFold::of(&mut c.edge_types, key, &mut edge_folds, &ty.labels);
            fold.add(&ty.props, ty.instance_count);
            fold.endpoints.extend(endpoints);
        }
        for fold in node_folds {
            let ty = c.compile_type(fold);
            c.nodes.push(ty);
        }
        for mut fold in edge_folds {
            let mut endpoints = std::mem::take(&mut fold.endpoints);
            endpoints.sort_unstable();
            endpoints.dedup();
            let base = c.compile_type(fold);
            c.edges.push(CompiledEdgeType { base, endpoints });
        }
        c
    }

    /// Number of node types in the compiled schema, counting each of the
    /// types that share a label set.
    pub fn node_type_count(&self) -> usize {
        self.node_type_count
    }

    /// Number of edge types in the compiled schema, counting each of the
    /// types that share a label set.
    pub fn edge_type_count(&self) -> usize {
        self.edge_type_count
    }

    fn compile_type(&mut self, fold: TypeFold) -> CompiledType {
        let mut keys = Vec::with_capacity(fold.keys.len());
        let mut table = Vec::with_capacity(fold.keys.len());
        let mut mandatory = vec![0u64; fold.keys.len().div_ceil(64)];
        for (slot, (name, (kind, mandatory_in))) in fold.keys.into_iter().enumerate() {
            table.push((self.key_syms.intern(&name).0, slot as u32));
            // MANDATORY only where every folded type has it as MANDATORY.
            if mandatory_in == fold.types {
                mandatory[slot / 64] |= 1 << (slot % 64);
            }
            keys.push(KeySpec { name, kind });
        }
        table.sort_unstable();
        CompiledType {
            keys,
            table,
            mandatory,
            label_text: render_labels(fold.labels.iter().map(String::as_str)),
        }
    }

    /// Intern every label of `labels` and return the sorted symbol set.
    fn intern_set(&mut self, labels: &LabelSet) -> Box<[u32]> {
        let mut syms: Vec<u32> = labels
            .iter()
            .map(|l| {
                let next = self.label_syms.len() as u32;
                *self.label_syms.entry(l.clone()).or_insert(next)
            })
            .collect();
        syms.sort_unstable();
        syms.into_boxed_slice()
    }

    /// Intern an endpoint label set into the endpoint-set pool.
    fn intern_endpoint_set(&mut self, labels: &LabelSet) -> u32 {
        let key = self.intern_set(labels);
        let next = self.endpoint_sets.len() as u32;
        *self.endpoint_sets.entry(key).or_insert(next)
    }

    /// The id `table` (`node_types`, `edge_types` or `endpoint_sets`)
    /// gives observed labels in any order, resolved to the sorted symbol
    /// set in `scratch`. `None` also when a label appears in no type.
    fn find(
        &self,
        table: &HashMap<Box<[u32]>, u32>,
        labels: &[String],
        scratch: &mut Vec<u32>,
    ) -> Option<u32> {
        scratch.clear();
        for l in labels {
            scratch.push(*self.label_syms.get(l)?);
        }
        scratch.sort_unstable();
        scratch.dedup();
        table.get(scratch.as_slice()).copied()
    }
}

impl CompiledType {
    /// Slot of a declared key symbol.
    fn slot(&self, sym: Symbol) -> Option<usize> {
        let i = self.table.binary_search_by_key(&sym.0, |&(s, _)| s).ok()?;
        Some(self.table[i].1 as usize)
    }

    /// Key-set, per-key datatype, and per-key cardinality (MANDATORY)
    /// checks of one record's properties, shared by nodes and edges. Each
    /// occurrence of a key is checked, in record order; absent MANDATORY
    /// keys follow in key-name order.
    fn check_props(
        &self,
        key_syms: &Interner,
        element: ElementId<'_>,
        props: PropsRef<'_>,
        scratch: &mut KeyScratch,
        tally: &mut Tally,
    ) {
        let seen = &mut scratch.seen;
        seen.clear();
        seen.resize(self.mandatory.len(), 0);
        for prop in props.iter() {
            let key = prop.key();
            let Some(slot) = key_syms.get(key).and_then(|sym| self.slot(sym)) else {
                tally.emit(ViolationKind::ExtraKey, element, || {
                    format!("key '{key}' not declared for {}", self.label_text)
                });
                continue;
            };
            seen[slot / 64] |= 1 << (slot % 64);
            match self.keys[slot].kind {
                // STRING tops the lattice: every observed kind joins to it.
                None | Some(ValueKind::String) => {}
                Some(declared) => {
                    // Same inference as discovery: the kind of the
                    // lexical form, read off a text value's decoded text.
                    let observed = prop.kind(&mut scratch.lexical);
                    if declared.join(observed) != declared {
                        tally.emit(ViolationKind::TypeMismatch, element, || {
                            format!(
                                "key '{key}': declared {}, observed {}",
                                declared.gql_name(),
                                observed.gql_name()
                            )
                        });
                    }
                }
            }
        }
        for (w, &mask) in self.mandatory.iter().enumerate() {
            let mut missing = mask & !seen[w];
            while missing != 0 {
                let slot = w * 64 + missing.trailing_zeros() as usize;
                missing &= missing - 1;
                tally.emit(ViolationKind::MissingKey, element, || {
                    format!(
                        "mandatory key '{}' of {} absent",
                        self.keys[slot].name, self.label_text
                    )
                });
            }
        }
    }
}

fn render_labels<'a>(labels: impl Iterator<Item = &'a str>) -> String {
    let joined = labels.collect::<Vec<_>>().join(";");
    if joined.is_empty() {
        "(unlabeled)".to_string()
    } else {
        joined
    }
}

/// Per-record scratch of the key checks, reused across records.
#[derive(Debug, Default)]
struct KeyScratch {
    /// Bit `slot` set: the record carries that declared key.
    seen: Vec<u64>,
    /// A value's decoded text or lexical form, for datatype inference.
    lexical: String,
}

/// The element a violation names; rendered only when an example is kept.
#[derive(Debug, Clone, Copy)]
enum ElementId<'r> {
    Node(&'r str),
    Edge(&'r str, &'r str),
}

impl fmt::Display for ElementId<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementId::Node(id) => f.write_str(id),
            ElementId::Edge(src, tgt) => write!(f, "{src}->{tgt}"),
        }
    }
}

/// Violation counters and the bounded example buffer.
#[derive(Debug)]
struct Tally {
    counts: [u64; 7],
    examples: Vec<StreamViolation>,
    max_examples: usize,
}

impl Tally {
    /// Count one violation. The element and `detail` strings are built
    /// only when the example buffer keeps it.
    fn emit(
        &mut self,
        kind: ViolationKind,
        element: ElementId<'_>,
        detail: impl FnOnce() -> String,
    ) {
        self.counts[kind.index()] += 1;
        if self.examples.len() < self.max_examples {
            self.examples.push(StreamViolation {
                kind,
                element: element.to_string(),
                detail: detail(),
            });
        }
    }
}

/// An edge whose endpoint label sets were not both known when the edge was
/// read — re-checked at every chunk boundary and finally at
/// [`Validator::finish`], riding the registry exactly like the chunked
/// reader's cross-chunk stubs.
#[derive(Debug)]
struct DeferredEdge {
    src: String,
    tgt: String,
    /// Dense index into [`CompiledSchema::edges`].
    ty: u32,
}

/// Outcome of a streaming validation run: per-category counters, a
/// bounded buffer of example violations (sorted canonically), and the
/// element tallies.
#[derive(Debug)]
pub struct StreamValidationReport {
    /// Violation count per category, indexed in [`ViolationKind::ALL`]
    /// order.
    counts: [u64; 7],
    /// Example violations, canonically sorted, truncated to the
    /// validator's example bound.
    pub examples: Vec<StreamViolation>,
    /// Nodes checked.
    pub nodes_checked: u64,
    /// Edges checked.
    pub edges_checked: u64,
    /// Whether the validator stopped early on its violation cap.
    pub stopped_early: bool,
}

impl StreamValidationReport {
    /// Total violations across all categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Violation count for one category.
    pub fn count(&self, kind: ViolationKind) -> u64 {
        self.counts[kind.index()]
    }

    /// `(category, count)` pairs for every non-empty category, in
    /// canonical order.
    pub fn by_category(&self) -> Vec<(ViolationKind, u64)> {
        ViolationKind::ALL
            .iter()
            .map(|&k| (k, self.count(k)))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// No violations at all?
    pub fn is_valid(&self) -> bool {
        self.total() == 0
    }
}

/// Verdict-table entry not computed yet.
const UNSEEN: u32 = u32::MAX;
/// Verdict-table entry: the label set matches nothing.
const NO_MATCH: u32 = u32::MAX - 1;

/// The cached verdict of label-set id `ls` in `table`, computed by
/// `compute` on first sight.
fn verdict(table: &mut Vec<u32>, ls: u32, compute: impl FnOnce() -> Option<u32>) -> Option<u32> {
    let i = ls as usize;
    if i >= table.len() {
        table.resize(i + 1, UNSEEN);
    }
    if table[i] == UNSEEN {
        table[i] = compute().unwrap_or(NO_MATCH);
    }
    (table[i] != NO_MATCH).then_some(table[i])
}

/// Streaming conformance checker: folds [`RawGraphSource`] records through
/// a [`CompiledSchema`] with O(chunk) residency. Only the id → label-set
/// registry (shared with the chunked reader) and the deferred-edge buffer
/// persist across records; the graph itself is never materialized.
///
/// A directory tree validates like tree discovery: each file gets its own
/// `Validator` over the same `CompiledSchema`, the files fold together in
/// path order with [`Validator::merge`], and [`Validator::finish`] runs
/// once on the root — deferred cross-file edges resolve against the merged
/// registry, so the violation multiset does not depend on which thread
/// read which file.
#[derive(Debug)]
pub struct Validator<'a> {
    schema: &'a CompiledSchema,
    registry: LabelSetRegistry,
    /// Per registry label-set id: the node type, the edge type and the
    /// endpoint-set id that set resolves to (see [`verdict`]).
    node_verdicts: Vec<u32>,
    edge_verdicts: Vec<u32>,
    endpoint_verdicts: Vec<u32>,
    deferred: Vec<DeferredEdge>,
    tally: Tally,
    max_violations: Option<u64>,
    nodes_checked: u64,
    edges_checked: u64,
    stopped_early: bool,
    scratch: Vec<u32>,
    keys: KeyScratch,
}

/// Default bound on the example buffer.
pub const DEFAULT_MAX_EXAMPLES: usize = 50;

impl<'a> Validator<'a> {
    /// Fresh validator over a compiled schema.
    pub fn new(schema: &'a CompiledSchema) -> Self {
        Validator {
            schema,
            registry: LabelSetRegistry::default(),
            node_verdicts: Vec::new(),
            edge_verdicts: Vec::new(),
            endpoint_verdicts: Vec::new(),
            deferred: Vec::new(),
            tally: Tally {
                counts: [0; 7],
                examples: Vec::new(),
                max_examples: DEFAULT_MAX_EXAMPLES,
            },
            max_violations: None,
            nodes_checked: 0,
            edges_checked: 0,
            stopped_early: false,
            scratch: Vec::new(),
            keys: KeyScratch::default(),
        }
    }

    /// Override the example-buffer bound (`usize::MAX` keeps every
    /// violation — used by `--report` and the injection harness).
    pub fn with_max_examples(mut self, max: usize) -> Self {
        self.tally.max_examples = max;
        self
    }

    /// Stop reading input once this many violations have been counted
    /// (early exit; deferred endpoint checks still run at `finish`).
    pub fn with_max_violations(mut self, max: u64) -> Self {
        self.max_violations = Some(max);
        self
    }

    /// Violations counted so far.
    pub fn violation_count(&self) -> u64 {
        self.tally.counts.iter().sum()
    }

    /// Elements checked so far (nodes + edges).
    pub fn elements_checked(&self) -> u64 {
        self.nodes_checked + self.edges_checked
    }

    /// Fold every record of `source` through the checker. `chunk_size`
    /// sets how often deferred edges are re-resolved against the registry
    /// (bounding the deferred buffer for forward-referencing inputs);
    /// `on_chunk` fires at each boundary with (chunk index, elements so
    /// far). Returns `false` when the run stopped early on the violation
    /// cap.
    pub fn validate_source<S: RawGraphSource + ?Sized>(
        &mut self,
        source: &mut S,
        chunk_size: usize,
        mut on_chunk: impl FnMut(u64, u64),
    ) -> Result<bool, StreamError> {
        let chunk = chunk_size.max(1) as u64;
        // Values stay text: only a key declared with a non-STRING kind
        // decodes its value, and no value is ever built.
        let mut buf = RecordBuf::text_values();
        let mut in_chunk = 0u64;
        let mut chunk_no = 0u64;
        while source.read_record(&mut buf)? {
            self.check_buf(&buf);
            in_chunk += 1;
            if in_chunk == chunk {
                self.resolve_deferred(false);
                chunk_no += 1;
                on_chunk(chunk_no, self.elements_checked());
                in_chunk = 0;
            }
            if let Some(max) = self.max_violations {
                if self.violation_count() >= max {
                    self.stopped_early = true;
                    return Ok(false);
                }
            }
        }
        if in_chunk > 0 {
            self.resolve_deferred(false);
            chunk_no += 1;
            on_chunk(chunk_no, self.elements_checked());
        }
        Ok(true)
    }

    /// Check the record currently in `buf`. Its label set is interned in
    /// the registry, and the type it matches is looked up once per
    /// distinct label set, not once per record. `buf` may hold parsed or
    /// text values; the verdicts are the same.
    pub fn check_buf(&mut self, buf: &RecordBuf) {
        let schema = self.schema;
        match buf.view() {
            RecordRef::Node { id, labels, props } => {
                // Register id → label set first: endpoint checks of edges
                // (this chunk or a later one) resolve against the registry.
                let ls = self.registry.insert_record(buf);
                self.nodes_checked += 1;
                let element = ElementId::Node(id);
                let ty = verdict(&mut self.node_verdicts, ls, || {
                    schema.find(&schema.node_types, self.registry.set(ls), &mut self.scratch)
                });
                let Some(ty) = ty else {
                    self.tally
                        .emit(ViolationKind::UnknownNodeLabels, element, || {
                            format!("label set {{{}}}", render_labels(labels.iter()))
                        });
                    return;
                };
                schema.nodes[ty as usize].check_props(
                    &schema.key_syms,
                    element,
                    props,
                    &mut self.keys,
                    &mut self.tally,
                );
            }
            RecordRef::Edge {
                src,
                tgt,
                labels,
                props,
            } => {
                self.edges_checked += 1;
                let element = ElementId::Edge(src, tgt);
                let ls = self.registry.intern_buf(buf);
                let ty = verdict(&mut self.edge_verdicts, ls, || {
                    schema.find(&schema.edge_types, self.registry.set(ls), &mut self.scratch)
                });
                let Some(ty) = ty else {
                    self.tally
                        .emit(ViolationKind::UnknownEdgeLabels, element, || {
                            format!("label set {{{}}}", render_labels(labels.iter()))
                        });
                    return;
                };
                schema.edges[ty as usize].base.check_props(
                    &schema.key_syms,
                    element,
                    props,
                    &mut self.keys,
                    &mut self.tally,
                );
                match (self.registry.get(src), self.registry.get(tgt)) {
                    (Some(s), Some(t)) => self.check_endpoints(s, t, ty, element),
                    // One or both endpoints not yet declared: defer, like
                    // the chunked reader's cross-chunk stubs.
                    _ => self.deferred.push(DeferredEdge {
                        src: src.to_string(),
                        tgt: tgt.to_string(),
                        ty,
                    }),
                }
            }
        }
    }

    /// Endpoint conformance for an edge whose endpoints are both
    /// registered, with label-set ids `src` and `tgt`.
    fn check_endpoints(&mut self, src: u32, tgt: u32, ty: u32, element: ElementId<'_>) {
        let schema = self.schema;
        let mut endpoint = |ls: u32| {
            verdict(&mut self.endpoint_verdicts, ls, || {
                schema.find(
                    &schema.endpoint_sets,
                    self.registry.set(ls),
                    &mut self.scratch,
                )
            })
        };
        let edge = &schema.edges[ty as usize];
        let declared = match (endpoint(src), endpoint(tgt)) {
            (Some(s), Some(t)) => edge.endpoints.binary_search(&(s, t)).is_ok(),
            _ => false,
        };
        if !declared {
            let registry = &self.registry;
            self.tally
                .emit(ViolationKind::IllTypedEndpoint, element, || {
                    let s = render_labels(registry.set(src).iter().map(String::as_str));
                    let t = render_labels(registry.set(tgt).iter().map(String::as_str));
                    format!(
                        "endpoint labels {{{s}}} -> {{{t}}} not declared for {}",
                        edge.base.label_text
                    )
                });
        }
    }

    /// Re-check deferred edges against the registry. With `finality`,
    /// still-unresolved endpoints become [`ViolationKind::DanglingEndpoint`]
    /// violations (one per edge, naming every missing id).
    fn resolve_deferred(&mut self, finality: bool) {
        let pending = std::mem::take(&mut self.deferred);
        for edge in pending {
            let element = ElementId::Edge(&edge.src, &edge.tgt);
            match (self.registry.get(&edge.src), self.registry.get(&edge.tgt)) {
                (Some(s), Some(t)) => self.check_endpoints(s, t, edge.ty, element),
                (s, t) if finality => {
                    self.tally
                        .emit(ViolationKind::DanglingEndpoint, element, || {
                            let mut missing: Vec<&str> = Vec::new();
                            if s.is_none() {
                                missing.push(&edge.src);
                            }
                            if t.is_none() {
                                missing.push(&edge.tgt);
                            }
                            format!("undeclared endpoint id(s): {}", missing.join(", "))
                        });
                }
                _ => self.deferred.push(edge),
            }
        }
    }

    /// Fold another input's validator into this one: registries union
    /// (`other`'s bindings win on duplicate ids), counters add, deferred
    /// edges re-queue against the merged registry.
    pub fn merge(&mut self, other: Validator<'a>) {
        self.registry.merge(&other.registry);
        self.deferred.extend(other.deferred);
        for (i, n) in other.tally.counts.iter().enumerate() {
            self.tally.counts[i] += n;
        }
        self.tally.examples.extend(other.tally.examples);
        self.nodes_checked += other.nodes_checked;
        self.edges_checked += other.edges_checked;
        self.stopped_early |= other.stopped_early;
    }

    /// Finish the run: resolve remaining deferred edges (missing
    /// endpoints become dangling-endpoint violations), sort the example
    /// buffer canonically, and produce the report.
    pub fn finish(mut self) -> StreamValidationReport {
        self.resolve_deferred(true);
        let mut examples = self.tally.examples;
        examples.sort();
        examples.truncate(self.tally.max_examples);
        StreamValidationReport {
            counts: self.tally.counts,
            examples,
            nodes_checked: self.nodes_checked,
            edges_checked: self.edges_checked,
            stopped_early: self.stopped_early,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Discoverer;
    use crate::PipelineConfig;
    use pg_hive_graph::{GraphBuilder, PropertyGraph, Value};

    fn training_graph() -> PropertyGraph {
        let mut b = GraphBuilder::new();
        let mut people = Vec::new();
        for i in 0..10 {
            people.push(b.add_node(
                &["Person"],
                &[("name", Value::from("p")), ("age", Value::Int(i))],
            ));
        }
        let org = b.add_node(&["Org"], &[("url", Value::from("u"))]);
        for p in &people {
            b.add_edge(*p, org, &["WORKS_AT"], &[("from", Value::Int(2000))]);
        }
        b.finish()
    }

    fn discovered_schema() -> SchemaGraph {
        Discoverer::new(PipelineConfig::elsh_adaptive())
            .discover(&training_graph())
            .schema
    }

    /// The training graph as pgt wire text, ids p0..p9 / org.
    fn training_pgt() -> String {
        let mut s = String::new();
        for i in 0..10 {
            s.push_str(&format!("N p{i} Person name=p,age={i}\n"));
        }
        s.push_str("N org Org url=u\n");
        for i in 0..10 {
            s.push_str(&format!("E p{i} org WORKS_AT from=2000\n"));
        }
        s
    }

    fn stream_check(text: &str, chunk_size: usize) -> StreamValidationReport {
        let compiled = CompiledSchema::compile(&discovered_schema());
        let mut v = Validator::new(&compiled).with_max_examples(usize::MAX);
        let mut src = pg_hive_graph::stream::pgt::PgtSource::new(text.as_bytes());
        assert!(v.validate_source(&mut src, chunk_size, |_, _| {}).unwrap());
        v.finish()
    }

    #[test]
    fn stream_self_validation_is_clean_for_every_chunk_size() {
        for chunk in 1..=8 {
            let report = stream_check(&training_pgt(), chunk);
            assert!(report.is_valid(), "chunk {chunk}: {:?}", report.examples);
            assert_eq!(report.nodes_checked, 11);
            assert_eq!(report.edges_checked, 10);
            let empty = stream_check("", chunk);
            assert!(empty.is_valid(), "the empty input conforms to any schema");
            assert_eq!(empty.nodes_checked + empty.edges_checked, 0);
        }
    }

    #[test]
    fn training_graph_validates_against_its_own_schema() {
        let text = pg_hive_graph::loader::save_text(&training_graph());
        let report = stream_check(&text, 4);
        assert!(report.is_valid(), "violations: {:?}", report.examples);
        assert_eq!(report.nodes_checked, 11);
        assert_eq!(report.edges_checked, 10);
    }

    /// The one violation `record`, appended to the training data, raises.
    fn sole_violation(record: &str) -> StreamViolation {
        let report = stream_check(&format!("{}{record}\n", training_pgt()), 4);
        assert_eq!(report.total(), 1, "{:?}", report.examples);
        report.examples.into_iter().next().unwrap()
    }

    #[test]
    fn missing_mandatory_property_fails_strict() {
        let v = sole_violation("N x Person name=x"); // no age
        assert_eq!(v.kind, ViolationKind::MissingKey);
        assert_eq!(v.element, "x");
        assert!(v.detail.contains("'age'"), "{v}");
    }

    #[test]
    fn undeclared_property_fails_strict() {
        let v = sole_violation("N x Person name=x,age=1,sneaky=1");
        assert_eq!(v.kind, ViolationKind::ExtraKey);
        assert!(v.detail.contains("'sneaky'"), "{v}");
    }

    #[test]
    fn undeclared_endpoints_fail_strict() {
        // WORKS_AT between two Orgs was never declared (Person -> Org only).
        let v = sole_violation("E org org WORKS_AT from=2000");
        assert_eq!(v.kind, ViolationKind::IllTypedEndpoint);
        assert_eq!(v.element, "org->org");
    }

    #[test]
    fn stream_edges_before_nodes_resolve_via_deferral() {
        // Edge-first input: every endpoint is a forward reference, so all
        // edges ride the deferred buffer and resolve at chunk boundaries.
        let mut text = String::new();
        for i in 0..10 {
            text.push_str(&format!("E p{i} org WORKS_AT from=2000\n"));
        }
        text.push_str(&training_pgt());
        for chunk in [1, 3, 8] {
            let report = stream_check(&text, chunk);
            assert!(report.is_valid(), "chunk {chunk}: {:?}", report.examples);
            assert_eq!(report.edges_checked, 20);
        }
    }

    #[test]
    fn stream_detects_each_category_with_element_ids() {
        let mut text = training_pgt();
        text.push_str("N z1 Alien tentacles=7\n"); // unknown node labels
        text.push_str("N z2 Person name=x\n"); // missing mandatory age
        text.push_str("N z3 Person name=x,age=5,ghost=1\n"); // extra key
        text.push_str("N z4 Person name=x,age=notanumber\n"); // type mismatch
        text.push_str("E p0 nowhere WORKS_AT from=1\n"); // dangling endpoint
        text.push_str("E org p0 WORKS_AT from=1\n"); // ill-typed endpoints
        text.push_str("E p0 org BOGUS -\n"); // unknown edge labels
        let report = stream_check(&text, 4);
        assert_eq!(report.count(ViolationKind::UnknownNodeLabels), 1);
        assert_eq!(report.count(ViolationKind::MissingKey), 1);
        assert_eq!(report.count(ViolationKind::ExtraKey), 1);
        assert_eq!(report.count(ViolationKind::TypeMismatch), 1);
        assert_eq!(report.count(ViolationKind::DanglingEndpoint), 1);
        assert_eq!(report.count(ViolationKind::IllTypedEndpoint), 1);
        assert_eq!(report.count(ViolationKind::UnknownEdgeLabels), 1);
        assert_eq!(report.total(), 7);
        let find = |k: ViolationKind| {
            report
                .examples
                .iter()
                .find(|v| v.kind == k)
                .map(|v| v.element.clone())
                .unwrap()
        };
        assert_eq!(find(ViolationKind::UnknownNodeLabels), "z1");
        assert_eq!(find(ViolationKind::MissingKey), "z2");
        assert_eq!(find(ViolationKind::ExtraKey), "z3");
        assert_eq!(find(ViolationKind::TypeMismatch), "z4");
        assert_eq!(find(ViolationKind::DanglingEndpoint), "p0->nowhere");
        assert_eq!(find(ViolationKind::IllTypedEndpoint), "org->p0");
        assert_eq!(find(ViolationKind::UnknownEdgeLabels), "p0->org");
    }

    #[test]
    fn sharded_validation_matches_serial_multiset() {
        // Split the input in two, validate each half with its own
        // Validator (fresh registry), merge, finish: the violation
        // multiset must equal the serial run's — cross-shard edges resolve
        // through the merged registry.
        let mut text = training_pgt();
        text.push_str("E p3 nowhere WORKS_AT from=1\n");
        let serial = stream_check(&text, 4);
        let lines: Vec<&str> = text.lines().collect();
        let compiled = CompiledSchema::compile(&discovered_schema());
        for cut in [1, 5, 12, 20] {
            let (a, b) = lines.split_at(cut);
            let mut va = Validator::new(&compiled).with_max_examples(usize::MAX);
            let mut vb = Validator::new(&compiled).with_max_examples(usize::MAX);
            let (ja, jb) = (a.join("\n"), b.join("\n"));
            let mut sa = pg_hive_graph::stream::pgt::PgtSource::new(ja.as_bytes());
            let mut sb = pg_hive_graph::stream::pgt::PgtSource::new(jb.as_bytes());
            va.validate_source(&mut sa, 4, |_, _| {}).unwrap();
            vb.validate_source(&mut sb, 4, |_, _| {}).unwrap();
            va.merge(vb);
            let merged = va.finish();
            assert_eq!(merged.examples, serial.examples, "cut at {cut}");
            assert_eq!(merged.total(), serial.total());
        }
    }

    /// Two ABSTRACT node types (disjoint key sets, both unlabeled) and one
    /// labeled type, as pgt text.
    fn two_abstract_types_pgt() -> String {
        let mut s = String::new();
        for i in 0..200 {
            s.push_str(&format!("N a{i} - alpha=1,beta=x{i}\n"));
        }
        for i in 0..200 {
            let k = i % 9 + 1;
            s.push_str(&format!("N b{i} - gamma=2020-01-0{k},delta=true\n"));
        }
        for i in 0..100 {
            s.push_str(&format!("N p{i} Person name=n{i}\n"));
        }
        s
    }

    #[test]
    fn types_sharing_a_label_set_all_compile() {
        let text = two_abstract_types_pgt();
        let mut reader = pg_hive_graph::ChunkedTextReader::new(
            pg_hive_graph::stream::pgt::PgtSource::new(text.as_bytes()),
            100_000,
        );
        let schema = Discoverer::new(PipelineConfig::elsh_adaptive())
            .discover_stream(std::iter::from_fn(|| reader.next_chunk().unwrap()))
            .schema;
        let abstract_types = schema.node_types.iter().filter(|t| t.is_abstract()).count();
        assert_eq!((schema.node_types.len(), abstract_types), (3, 2));
        let compiled = CompiledSchema::compile(&schema);
        assert_eq!(compiled.node_type_count(), 3, "every type is counted");
        let mut v = Validator::new(&compiled).with_max_examples(usize::MAX);
        let mut src = pg_hive_graph::stream::pgt::PgtSource::new(text.as_bytes());
        v.validate_source(&mut src, 64, |_, _| {}).unwrap();
        let report = v.finish();
        assert!(
            report.is_valid(),
            "{} violations: {:?}",
            report.total(),
            &report.examples[..3.min(report.examples.len())]
        );
        assert_eq!(report.nodes_checked, 500);

        // The folded check: the union of both types' keys, none MANDATORY
        // (no key is in both), kinds joined per key.
        let mixed = "N m - alpha=1,delta=true\nN q - gamma=x\n";
        let mut v = Validator::new(&compiled).with_max_examples(usize::MAX);
        let mut src = pg_hive_graph::stream::pgt::PgtSource::new(mixed.as_bytes());
        v.validate_source(&mut src, 64, |_, _| {}).unwrap();
        let report = v.finish();
        assert_eq!(report.total(), 1, "{:?}", report.examples);
        assert_eq!(report.examples[0].kind, ViolationKind::TypeMismatch);
        assert_eq!(report.examples[0].element, "q");
    }

    #[test]
    fn shared_label_set_folds_keys_kinds_mandatory_and_endpoints() {
        use crate::schema::{label_set, EdgeType, NodeType, PropertySpec};
        let spec = |occurrences: u64, kind: Option<ValueKind>| PropertySpec { occurrences, kind };
        let node = |props: Vec<(&str, PropertySpec)>| NodeType {
            labels: label_set(&["A"]),
            props: props.into_iter().map(|(k, p)| (k.to_string(), p)).collect(),
            instance_count: 4,
            members: Vec::new(),
        };
        let edge = |src: &str, tgt: &str| EdgeType {
            labels: label_set(&["R"]),
            props: Default::default(),
            endpoints: [(label_set(&[src]), label_set(&[tgt]))].into(),
            instance_count: 1,
            members: Vec::new(),
            cardinality: None,
        };
        let schema = SchemaGraph {
            node_types: vec![
                node(vec![
                    ("both", spec(4, Some(ValueKind::Integer))),
                    ("free", spec(4, Some(ValueKind::Integer))),
                    ("one", spec(4, Some(ValueKind::Date))),
                ]),
                node(vec![
                    ("both", spec(4, Some(ValueKind::Float))),
                    ("free", spec(1, None)),
                ]),
            ],
            edge_types: vec![edge("A", "A"), edge("A", "B")],
        };
        let compiled = CompiledSchema::compile(&schema);
        assert_eq!(compiled.node_type_count(), 2);
        assert_eq!(compiled.edge_type_count(), 2);
        let text = "N a A both=1.5,free=x\n\
                    N b A both=2,one=2020-01-01,free=true\n\
                    N c A one=x\n\
                    N z B -\n\
                    E a b R -\n\
                    E a z R -\n\
                    E z a R -\n";
        let mut v = Validator::new(&compiled).with_max_examples(usize::MAX);
        let mut src = pg_hive_graph::stream::pgt::PgtSource::new(text.as_bytes());
        v.validate_source(&mut src, 64, |_, _| {}).unwrap();
        let report = v.finish();
        // `both` is MANDATORY in both types, kinds INT ⊔ FLOAT = FLOAT;
        // `free` is unconstrained (one type leaves it so) and OPTIONAL;
        // `one` is OPTIONAL (one type lacks it) and stays a DATE. The
        // endpoint pairs union: A -> A and A -> B pass, B -> A does not.
        let found: Vec<(ViolationKind, &str)> = (report.examples.iter())
            .map(|v| (v.kind, v.element.as_str()))
            .collect();
        assert_eq!(
            found,
            vec![
                (ViolationKind::UnknownNodeLabels, "z"),
                (ViolationKind::MissingKey, "c"),
                (ViolationKind::TypeMismatch, "c"),
                (ViolationKind::IllTypedEndpoint, "z->a"),
            ],
            "{:?}",
            report.examples
        );
    }

    #[test]
    fn max_violations_stops_early_and_bounded_examples_truncate() {
        let mut text = String::new();
        for i in 0..20 {
            text.push_str(&format!("N a{i} Alien x=1\n"));
        }
        let compiled = CompiledSchema::compile(&discovered_schema());
        let mut v = Validator::new(&compiled)
            .with_max_examples(3)
            .with_max_violations(5);
        let mut src = pg_hive_graph::stream::pgt::PgtSource::new(text.as_bytes());
        let completed = v.validate_source(&mut src, 4, |_, _| {}).unwrap();
        assert!(!completed, "run must stop on the violation cap");
        let report = v.finish();
        assert!(report.stopped_early);
        assert_eq!(report.total(), 5);
        assert_eq!(report.examples.len(), 3, "example buffer stays bounded");
    }
}
