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

use crate::postprocess::infer_value_kind;
use crate::schema::{LabelSet, SchemaGraph};
use pg_hive_graph::{
    LabelSetRegistry, RawGraphSource, RecordBuf, RecordRef, StreamError, Value, ValueKind,
};
use std::collections::{HashMap, HashSet};
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
    props: &std::collections::BTreeMap<String, crate::schema::PropertySpec>,
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
    counts[kind.index()] += 1;
    if examples.len() < max_examples {
        examples.push(StreamViolation {
            kind,
            element,
            detail,
        });
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
