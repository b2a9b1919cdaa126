//! Test-support reference for streaming validation: the per-record
//! `CompiledSchema` and `Validator` that `pg_hive_core::validate` replaced
//! with per-label-set verdicts, copied verbatim apart from crate paths and
//! a public `counts` field. It looks every record's type up through
//! `String`-keyed maps, allocates a key list per record, and resolves each
//! edge endpoint twice. Types that share a label set keep only the last
//! one, so callers must give it schemas whose label sets are distinct.

#![allow(dead_code)]

use pg_hive_core::postprocess::infer_value_kind;
use pg_hive_core::{LabelSet, SchemaGraph, StreamViolation, ViolationKind};
use pg_hive_graph::{
    LabelSetRegistry, RawGraphSource, RecordBuf, RecordRef, StreamError, Value, ValueKind,
};
use std::collections::{HashMap, HashSet};

/// [`ViolationKind`]'s position in [`ViolationKind::ALL`].
fn kind_index(kind: ViolationKind) -> usize {
    ViolationKind::ALL.iter().position(|k| *k == kind).unwrap()
}

/// A node or edge type compiled for per-record checking: expected key set
/// with per-key datatype and cardinality (MANDATORY vs OPTIONAL).
#[derive(Debug)]
struct CompiledType {
    /// Declared keys → inferred datatype (`None` = unconstrained).
    keys: HashMap<String, Option<ValueKind>>,
    /// Keys every instance must carry (`f_T(p) = 1`, §4.4).
    mandatory: Vec<String>,
    /// Rendering of the label set for violation details.
    label_text: String,
}

/// An edge type adds the declared endpoint label-set pairs, as ids into
/// the compiled schema's endpoint-set pool.
#[derive(Debug)]
struct CompiledEdgeType {
    base: CompiledType,
    endpoints: HashSet<(u32, u32)>,
}

/// A finalized [`SchemaGraph`] compiled into symbol-keyed lookup tables
/// for streaming conformance checks: label-set → expected key set, per-key
/// datatype/cardinality, and edge-type endpoint constraints. Compile once,
/// validate any number of inputs (also concurrently — lookups take `&self`).
#[derive(Debug)]
pub struct CompiledSchema {
    /// Label string → dense symbol. Labels absent here appear in no type.
    label_syms: HashMap<String, u32>,
    /// Sorted label-symbol set → node type.
    node_types: HashMap<Box<[u32]>, CompiledType>,
    /// Sorted label-symbol set → edge type (dense index into `edges`).
    edge_types: HashMap<Box<[u32]>, usize>,
    edges: Vec<CompiledEdgeType>,
    /// Sorted label-symbol set → endpoint-set pool id.
    endpoint_sets: HashMap<Box<[u32]>, u32>,
}

impl CompiledSchema {
    /// Compile a finalized schema graph into checking tables.
    pub fn compile(schema: &SchemaGraph) -> Self {
        let mut c = CompiledSchema {
            label_syms: HashMap::new(),
            node_types: HashMap::new(),
            edge_types: HashMap::new(),
            edges: Vec::new(),
            endpoint_sets: HashMap::new(),
        };
        for ty in &schema.node_types {
            let key = c.intern_set(&ty.labels);
            c.node_types
                .insert(key, compile_type(&ty.labels, &ty.props, ty.instance_count));
        }
        for ty in &schema.edge_types {
            let key = c.intern_set(&ty.labels);
            let mut endpoints = HashSet::new();
            for (src, tgt) in &ty.endpoints {
                let s = c.intern_endpoint_set(src);
                let t = c.intern_endpoint_set(tgt);
                endpoints.insert((s, t));
            }
            let idx = c.edges.len();
            c.edges.push(CompiledEdgeType {
                base: compile_type(&ty.labels, &ty.props, ty.instance_count),
                endpoints,
            });
            c.edge_types.insert(key, idx);
        }
        c
    }

    /// Number of compiled node types.
    pub fn node_type_count(&self) -> usize {
        self.node_types.len()
    }

    /// Number of compiled edge types.
    pub fn edge_type_count(&self) -> usize {
        self.edge_types.len()
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

    /// Resolve observed labels (any order) to the sorted symbol set in
    /// `scratch`. `false` when a label appears in no type — the set then
    /// cannot match anything.
    fn resolve<'a>(&self, labels: impl Iterator<Item = &'a str>, scratch: &mut Vec<u32>) -> bool {
        scratch.clear();
        for l in labels {
            match self.label_syms.get(l) {
                Some(&s) => scratch.push(s),
                None => return false,
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        true
    }

    /// Endpoint-set pool id of an observed (sorted-symbol) label set, if
    /// any edge type declares it.
    fn endpoint_id(&self, scratch: &[u32]) -> Option<u32> {
        self.endpoint_sets.get(scratch).copied()
    }
}

fn compile_type(
    labels: &LabelSet,
    props: &std::collections::BTreeMap<String, pg_hive_core::PropertySpec>,
    instance_count: u64,
) -> CompiledType {
    let mut keys = HashMap::with_capacity(props.len());
    let mut mandatory = Vec::new();
    for (k, spec) in props {
        keys.insert(k.clone(), spec.kind);
        if spec.is_mandatory(instance_count) {
            mandatory.push(k.clone());
        }
    }
    CompiledType {
        keys,
        mandatory,
        label_text: render_labels(labels.iter().map(String::as_str)),
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

/// An edge whose endpoint label sets were not both known when the edge was
/// read — re-checked at every chunk boundary and finally at
/// [`Validator::finish`], riding the registry exactly like the chunked
/// reader's cross-chunk stubs.
#[derive(Debug)]
struct DeferredEdge {
    src: String,
    tgt: String,
    element: String,
    /// Dense index into [`CompiledSchema::edges`].
    ty: usize,
}

/// Outcome of a streaming validation run: per-category counters, a
/// bounded buffer of example violations (sorted canonically), and the
/// element tallies.
#[derive(Debug)]
pub struct StreamValidationReport {
    /// Violation count per category, indexed in [`ViolationKind::ALL`]
    /// order.
    pub counts: [u64; 7],
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
        self.counts[kind_index(kind)]
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
    deferred: Vec<DeferredEdge>,
    counts: [u64; 7],
    examples: Vec<StreamViolation>,
    max_examples: usize,
    max_violations: Option<u64>,
    nodes_checked: u64,
    edges_checked: u64,
    stopped_early: bool,
    scratch: Vec<u32>,
    seen_keys: Vec<String>,
}

/// Default bound on the example buffer.
pub const DEFAULT_MAX_EXAMPLES: usize = 50;

impl<'a> Validator<'a> {
    /// Fresh validator over a compiled schema.
    pub fn new(schema: &'a CompiledSchema) -> Self {
        Validator {
            schema,
            registry: LabelSetRegistry::default(),
            deferred: Vec::new(),
            counts: [0; 7],
            examples: Vec::new(),
            max_examples: DEFAULT_MAX_EXAMPLES,
            max_violations: None,
            nodes_checked: 0,
            edges_checked: 0,
            stopped_early: false,
            scratch: Vec::new(),
            seen_keys: Vec::new(),
        }
    }

    /// Override the example-buffer bound (`usize::MAX` keeps every
    /// violation — used by `--report` and the injection harness).
    pub fn with_max_examples(mut self, max: usize) -> Self {
        self.max_examples = max;
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
        self.counts.iter().sum()
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
        let mut buf = RecordBuf::new();
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

    /// Check the record currently in `buf`.
    pub fn check_buf(&mut self, buf: &RecordBuf) {
        match buf.view() {
            RecordRef::Node { .. } => {
                // Register id → label set first: endpoint checks of edges
                // (this chunk or a later one) resolve against the registry.
                self.registry.insert_record(buf);
            }
            RecordRef::Edge { .. } => {}
        }
        match buf.view() {
            RecordRef::Node { id, labels, props } => {
                self.nodes_checked += 1;
                let resolved = self.schema.resolve(labels.iter(), &mut self.scratch);
                let ty = if resolved {
                    self.schema.node_types.get(self.scratch.as_slice())
                } else {
                    None
                };
                let Some(ty) = ty else {
                    let detail = format!("label set {{{}}}", render_labels(labels.iter()));
                    self.emit(ViolationKind::UnknownNodeLabels, id.to_string(), detail);
                    return;
                };
                check_props(
                    ty,
                    id,
                    props.iter(),
                    &mut self.seen_keys,
                    &mut self.counts,
                    &mut self.examples,
                    self.max_examples,
                );
            }
            RecordRef::Edge {
                src,
                tgt,
                labels,
                props,
            } => {
                self.edges_checked += 1;
                let element = format!("{src}->{tgt}");
                let resolved = self.schema.resolve(labels.iter(), &mut self.scratch);
                let idx = if resolved {
                    self.schema.edge_types.get(self.scratch.as_slice()).copied()
                } else {
                    None
                };
                let Some(idx) = idx else {
                    let detail = format!("label set {{{}}}", render_labels(labels.iter()));
                    self.emit(ViolationKind::UnknownEdgeLabels, element, detail);
                    return;
                };
                check_props(
                    &self.schema.edges[idx].base,
                    &element,
                    props.iter(),
                    &mut self.seen_keys,
                    &mut self.counts,
                    &mut self.examples,
                    self.max_examples,
                );
                if self.registry.label_set(src).is_some() && self.registry.label_set(tgt).is_some()
                {
                    self.check_endpoints(src.to_string(), tgt.to_string(), element, idx);
                } else {
                    // One or both endpoints not yet declared: defer, like
                    // the chunked reader's cross-chunk stubs.
                    self.deferred.push(DeferredEdge {
                        src: src.to_string(),
                        tgt: tgt.to_string(),
                        element,
                        ty: idx,
                    });
                }
            }
        }
    }

    /// Endpoint conformance for an edge whose endpoints are both
    /// registered.
    fn check_endpoints(&mut self, src: String, tgt: String, element: String, ty: usize) {
        let sid = self.endpoint_set_id(&src);
        let tid = self.endpoint_set_id(&tgt);
        let declared = match (sid, tid) {
            (Some(s), Some(t)) => self.schema.edges[ty].endpoints.contains(&(s, t)),
            _ => false,
        };
        if !declared {
            let s = render_labels(self.registry.label_set(&src).unwrap().iter().map(|l| &**l));
            let t = render_labels(self.registry.label_set(&tgt).unwrap().iter().map(|l| &**l));
            let detail = format!(
                "endpoint labels {{{s}}} -> {{{t}}} not declared for {}",
                self.schema.edges[ty].base.label_text
            );
            self.emit(ViolationKind::IllTypedEndpoint, element, detail);
        }
    }

    /// Endpoint-set pool id of a registered node id's label set.
    fn endpoint_set_id(&mut self, id: &str) -> Option<u32> {
        let labels = self.registry.label_set(id)?;
        // Inline resolve: borrow of registry forbids self.schema.resolve
        // into self.scratch while labels is alive, so go through a local.
        let mut syms = Vec::with_capacity(labels.len());
        for l in labels {
            syms.push(*self.schema.label_syms.get(l.as_str())?);
        }
        syms.sort_unstable();
        syms.dedup();
        self.schema.endpoint_id(&syms)
    }

    /// Re-check deferred edges against the registry. With `finality`,
    /// still-unresolved endpoints become [`ViolationKind::DanglingEndpoint`]
    /// violations (one per edge, naming every missing id).
    fn resolve_deferred(&mut self, finality: bool) {
        let pending = std::mem::take(&mut self.deferred);
        for edge in pending {
            let src_known = self.registry.label_set(&edge.src).is_some();
            let tgt_known = self.registry.label_set(&edge.tgt).is_some();
            if src_known && tgt_known {
                self.check_endpoints(edge.src, edge.tgt, edge.element, edge.ty);
            } else if finality {
                let mut missing: Vec<&str> = Vec::new();
                if !src_known {
                    missing.push(&edge.src);
                }
                if !tgt_known {
                    missing.push(&edge.tgt);
                }
                let detail = format!("undeclared endpoint id(s): {}", missing.join(", "));
                self.emit(
                    ViolationKind::DanglingEndpoint,
                    edge.element.clone(),
                    detail,
                );
            } else {
                self.deferred.push(edge);
            }
        }
    }

    /// Fold another input's validator into this one: registries union
    /// (`other`'s bindings win on duplicate ids), counters add, deferred
    /// edges re-queue against the merged registry.
    pub fn merge(&mut self, other: Validator<'a>) {
        self.registry.merge(&other.registry);
        self.deferred.extend(other.deferred);
        for (i, n) in other.counts.iter().enumerate() {
            self.counts[i] += n;
        }
        self.examples.extend(other.examples);
        self.nodes_checked += other.nodes_checked;
        self.edges_checked += other.edges_checked;
        self.stopped_early |= other.stopped_early;
    }

    /// Finish the run: resolve remaining deferred edges (missing
    /// endpoints become dangling-endpoint violations), sort the example
    /// buffer canonically, and produce the report.
    pub fn finish(mut self) -> StreamValidationReport {
        self.resolve_deferred(true);
        self.examples.sort();
        self.examples.truncate(self.max_examples);
        StreamValidationReport {
            counts: self.counts,
            examples: self.examples,
            nodes_checked: self.nodes_checked,
            edges_checked: self.edges_checked,
            stopped_early: self.stopped_early,
        }
    }

    fn emit(&mut self, kind: ViolationKind, element: String, detail: String) {
        emit_violation(
            &mut self.counts,
            &mut self.examples,
            self.max_examples,
            kind,
            element,
            detail,
        );
    }
}

/// Key-set, per-key datatype, and per-key cardinality (MANDATORY) checks
/// shared by nodes and edges. Free function so `check_buf` can borrow the
/// compiled type and the counter state disjointly.
fn check_props<'v>(
    ty: &CompiledType,
    element: &str,
    props: impl Iterator<Item = (&'v str, &'v Value)>,
    seen: &mut Vec<String>,
    counts: &mut [u64; 7],
    examples: &mut Vec<StreamViolation>,
    max_examples: usize,
) {
    seen.clear();
    for (key, value) in props {
        seen.push(key.to_string());
        match ty.keys.get(key) {
            None => {
                let detail = format!("key '{key}' not declared for {}", ty.label_text);
                emit_violation(
                    counts,
                    examples,
                    max_examples,
                    ViolationKind::ExtraKey,
                    element.to_string(),
                    detail,
                );
            }
            Some(Some(declared)) => {
                // Same inference as discovery: the kind of the lexical
                // form. Non-string values take the
                // (allocating) lexical detour only on the mismatch-free
                // path's rare branch; string values borrow directly.
                let observed = match value {
                    Value::Str(s) => infer_value_kind(s),
                    other => infer_value_kind(&other.lexical()),
                };
                if declared.join(observed) != *declared {
                    let detail = format!(
                        "key '{key}': declared {}, observed {}",
                        declared.gql_name(),
                        observed.gql_name()
                    );
                    emit_violation(
                        counts,
                        examples,
                        max_examples,
                        ViolationKind::TypeMismatch,
                        element.to_string(),
                        detail,
                    );
                }
            }
            Some(None) => {}
        }
    }
    for key in &ty.mandatory {
        if !seen.iter().any(|k| k == key) {
            let detail = format!("mandatory key '{key}' of {} absent", ty.label_text);
            emit_violation(
                counts,
                examples,
                max_examples,
                ViolationKind::MissingKey,
                element.to_string(),
                detail,
            );
        }
    }
}

fn emit_violation(
    counts: &mut [u64; 7],
    examples: &mut Vec<StreamViolation>,
    max_examples: usize,
    kind: ViolationKind,
    element: String,
    detail: String,
) {
    counts[kind_index(kind)] += 1;
    if examples.len() < max_examples {
        examples.push(StreamViolation {
            kind,
            element,
            detail,
        });
    }
}
