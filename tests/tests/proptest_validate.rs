//! The streaming validator against the per-record reference it replaced
//! (`support/validate.rs`): on random schemas, whose types never share a
//! label set, and random record streams, the report is the reference's,
//! count for count and example for example. Each stream is written as JSONL
//! and as pgt; in pgt, values go through the loader's encoder and random
//! ordinary characters are `%XX`-escaped too, so the validator's
//! percent-encoded text values meet the reference's parsed ones.
//!
//! The streams mix multi-label sets in shuffled label order, labels no
//! type has, and unlabeled records; missing, extra and repeated keys;
//! values whose text is `"123"`, `"true"` or a date, next to numbers and
//! booleans, against every declared kind, some with surrounding or inner
//! whitespace and reserved characters; forward references, re-declared
//! node ids and endpoints no node declares. Runs vary the chunk size, the
//! example bound (3 or unbounded) and the violation cap, and split the
//! stream into trees of 2–4 files folded with `merge`.

#[path = "support/validate.rs"]
mod reference;

use pg_hive_core::{
    CompiledSchema, EdgeType, LabelSet, NodeType, PropertySpec, SchemaGraph,
    StreamValidationReport, Validator, ViolationKind,
};
use pg_hive_graph::loader::percent_encode;
use pg_hive_graph::stream::jsonl::JsonlSource;
use pg_hive_graph::stream::pgt::PgtSource;
use pg_hive_graph::{RawGraphSource, ValueKind};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64: one seed drives a whole case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.below(pool.len())]
    }

    /// A random subset of `pool`, in pool order.
    fn subset<'a>(&mut self, pool: &[&'a str]) -> Vec<&'a str> {
        pool.iter().copied().filter(|_| self.chance(40)).collect()
    }
}

const NODE_LABELS: [&str; 4] = ["A", "B", "C", "D"];
/// `A` is a node and an edge label, so the two share label symbols.
const EDGE_LABELS: [&str; 3] = ["R", "S", "A"];
const KEYS: [&str; 5] = ["k0", "k1", "k2", "k3", "k4"];
const KINDS: [Option<ValueKind>; 7] = [
    None,
    Some(ValueKind::Integer),
    Some(ValueKind::Float),
    Some(ValueKind::Boolean),
    Some(ValueKind::Date),
    Some(ValueKind::Timestamp),
    Some(ValueKind::String),
];
const INSTANCES: u64 = 10;

fn label_set(labels: &[&str]) -> LabelSet {
    labels.iter().map(|l| l.to_string()).collect()
}

/// Declared keys: each with a random kind, MANDATORY or OPTIONAL.
fn props(g: &mut Gen) -> BTreeMap<String, PropertySpec> {
    g.subset(&KEYS)
        .into_iter()
        .map(|k| {
            let spec = PropertySpec {
                occurrences: if g.chance(50) {
                    INSTANCES
                } else {
                    1 + g.below(9) as u64
                },
                kind: KINDS[g.below(KINDS.len())],
            };
            (k.to_string(), spec)
        })
        .collect()
}

/// A schema whose node types, and whose edge types, have distinct label
/// sets (the empty set included at most once).
fn schema(g: &mut Gen) -> SchemaGraph {
    let mut s = SchemaGraph::new();
    let mut seen = BTreeSet::new();
    for _ in 0..1 + g.below(5) {
        let labels = label_set(&g.subset(&NODE_LABELS));
        if seen.insert(labels.clone()) {
            s.node_types.push(NodeType {
                labels,
                props: props(g),
                instance_count: INSTANCES,
                members: Vec::new(),
            });
        }
    }
    let node_sets: Vec<LabelSet> = seen.into_iter().collect();
    let mut seen = BTreeSet::new();
    for _ in 0..1 + g.below(4) {
        let labels = label_set(&g.subset(&EDGE_LABELS));
        if !seen.insert(labels.clone()) {
            continue;
        }
        let mut endpoints = BTreeSet::new();
        for _ in 0..1 + g.below(3) {
            let end = |g: &mut Gen| {
                if g.chance(80) {
                    node_sets[g.below(node_sets.len())].clone()
                } else {
                    label_set(&g.subset(&NODE_LABELS))
                }
            };
            endpoints.insert((end(g), end(g)));
        }
        s.edge_types.push(EdgeType {
            labels,
            props: props(g),
            endpoints,
            instance_count: INSTANCES,
            members: Vec::new(),
            cardinality: None,
        });
    }
    s
}

/// A label list: a subset of `pool` in shuffled order, sometimes with a
/// label no type has or a repeated label; empty for unlabeled.
fn labels(g: &mut Gen, pool: &[&'static str]) -> Vec<&'static str> {
    let mut labels = g.subset(pool);
    for i in (1..labels.len()).rev() {
        labels.swap(i, g.below(i + 1));
    }
    if g.chance(10) {
        labels.push("Ghost");
    }
    if !labels.is_empty() && g.chance(10) {
        labels.push(labels[0]);
    }
    labels
}

/// Property values as JSON and as the text the value spells: strings,
/// numbers and booleans, of every kind.
const VALUES: [(&str, &str); 18] = [
    ("\"123\"", "123"),
    ("123", "123"),
    ("-7", "-7"),
    ("true", "true"),
    ("\"true\"", "true"),
    ("2.0", "2.0"),
    ("0.25", "0.25"),
    ("1e300", "1e300"),
    ("\"2020-01-01\"", "2020-01-01"),
    ("\"2020-02-29T01:02:03\"", "2020-02-29T01:02:03"),
    ("\"x\"", "x"),
    ("\"1e5\"", "1e5"),
    ("\"inf\"", "inf"),
    ("false", "false"),
    ("\" 42\\t\"", " 42\t"),
    ("\"4 2\"", "4 2"),
    ("\"a,b=c%d\"", "a,b=c%d"),
    ("\"é\"", "é"),
];

/// Properties: declared keys, an undeclared one, repeats; values of every
/// kind (indices into [`VALUES`]).
fn record_props(g: &mut Gen) -> Vec<(&'static str, usize)> {
    (0..g.below(6))
        .map(|_| {
            let key = if g.chance(15) { "extra" } else { g.pick(&KEYS) };
            (key, g.below(VALUES.len()))
        })
        .collect()
}

/// One record of a stream.
struct Rec {
    /// `Some(id)` for a node, `None` for an edge.
    node: Option<&'static str>,
    src: &'static str,
    tgt: &'static str,
    labels: Vec<&'static str>,
    props: Vec<(&'static str, usize)>,
}

impl Rec {
    fn jsonl(&self) -> String {
        let labels: Vec<String> = self.labels.iter().map(|l| format!("\"{l}\"")).collect();
        let props: Vec<String> = (self.props.iter())
            .map(|&(k, v)| format!("\"{k}\":{}", VALUES[v].0))
            .collect();
        let (labels, props) = (labels.join(","), props.join(","));
        match self.node {
            Some(id) => format!(
                "{{\"type\":\"node\",\"id\":\"{id}\",\"labels\":[{labels}],\"props\":{{{props}}}}}"
            ),
            None => format!(
                "{{\"type\":\"edge\",\"src\":\"{}\",\"tgt\":\"{}\",\"labels\":[{labels}],\"props\":{{{props}}}}}",
                self.src, self.tgt
            ),
        }
    }

    /// The record as a pgt line: each value through the loader's encoder,
    /// with a quarter of the characters it leaves as they are
    /// `%XX`-escaped too.
    fn pgt(&self, g: &mut Gen) -> String {
        let labels = if self.labels.is_empty() {
            "-".to_string()
        } else {
            self.labels.join(";")
        };
        let mut props = Vec::new();
        for &(k, v) in &self.props {
            let mut value = String::new();
            for c in VALUES[v].1.chars() {
                let encoded = percent_encode(&c.to_string());
                if encoded.len() == c.len_utf8() && g.chance(25) {
                    for byte in c.to_string().bytes() {
                        value.push_str(&format!("%{byte:02X}"));
                    }
                } else {
                    value.push_str(&encoded);
                }
            }
            props.push(format!("{k}={value}"));
        }
        let props = if props.is_empty() {
            "-".to_string()
        } else {
            props.join(",")
        };
        match self.node {
            Some(id) => format!("N {id} {labels} {props}"),
            None => format!("E {} {} {labels} {props}", self.src, self.tgt),
        }
    }
}

/// A record stream over node ids `n0..n7` plus the ghost ids `g0`, `g1`
/// that no node declares. Ids may be declared several times, with
/// different label sets, and edges may precede their endpoints.
fn stream(g: &mut Gen) -> Vec<Rec> {
    let ids = ["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"];
    let ends = ["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "g0", "g1"];
    (0..g.below(40))
        .map(|_| {
            if g.chance(50) {
                Rec {
                    node: Some(g.pick(&ids)),
                    src: "",
                    tgt: "",
                    labels: labels(g, &NODE_LABELS),
                    props: record_props(g),
                }
            } else {
                Rec {
                    node: None,
                    src: g.pick(&ends),
                    tgt: g.pick(&ends),
                    labels: labels(g, &EDGE_LABELS),
                    props: record_props(g),
                }
            }
        })
        .collect()
}

/// Which format a run's files are written in.
#[derive(Clone, Copy, Debug)]
enum Format {
    Jsonl,
    Pgt,
}

/// A source over one file of a run.
fn source(format: Format, text: &str) -> Box<dyn RawGraphSource + '_> {
    match format {
        Format::Jsonl => Box::new(JsonlSource::new(text.as_bytes())),
        Format::Pgt => Box::new(PgtSource::new(text.as_bytes())),
    }
}

/// How one case drives both validators.
struct Run {
    chunk: usize,
    max_examples: usize,
    max_violations: Option<u64>,
    /// The stream's JSONL lines, cut into files.
    files: Vec<String>,
    /// The same records as pgt lines, cut into the same files.
    pgt_files: Vec<String>,
}

impl Run {
    fn files(&self, format: Format) -> &[String] {
        match format {
            Format::Jsonl => &self.files,
            Format::Pgt => &self.pgt_files,
        }
    }
}

fn run_product(compiled: &CompiledSchema, run: &Run, format: Format) -> StreamValidationReport {
    let mut root: Option<Validator> = None;
    for text in run.files(format) {
        let mut v = Validator::new(compiled).with_max_examples(run.max_examples);
        if let Some(max) = run.max_violations {
            v = v.with_max_violations(max);
        }
        let mut src = source(format, text);
        v.validate_source(&mut src, run.chunk, |_, _| {}).unwrap();
        match root.as_mut() {
            Some(r) => r.merge(v),
            None => root = Some(v),
        }
    }
    root.unwrap().finish()
}

fn run_reference(
    compiled: &reference::CompiledSchema,
    run: &Run,
    format: Format,
) -> reference::StreamValidationReport {
    let mut root: Option<reference::Validator> = None;
    for text in run.files(format) {
        let mut v = reference::Validator::new(compiled).with_max_examples(run.max_examples);
        if let Some(max) = run.max_violations {
            v = v.with_max_violations(max);
        }
        let mut src = source(format, text);
        v.validate_source(&mut src, run.chunk, |_, _| {}).unwrap();
        match root.as_mut() {
            Some(r) => r.merge(v),
            None => root = Some(v),
        }
    }
    root.unwrap().finish()
}

/// One case from one seed: a schema, and a run over a random stream.
fn case(seed: u64) -> (SchemaGraph, Run) {
    let mut g = Gen(seed);
    let schema = schema(&mut g);
    let records = stream(&mut g);
    let n_files = if g.chance(50) { 1 } else { 2 + g.below(3) };
    let mut cuts: Vec<usize> = (1..n_files).map(|_| g.below(records.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.insert(0, 0);
    cuts.push(records.len());
    let jsonl: Vec<String> = records.iter().map(Rec::jsonl).collect();
    let pgt: Vec<String> = records.iter().map(|r| r.pgt(&mut g)).collect();
    let cut = |lines: &[String]| -> Vec<String> {
        (cuts.windows(2))
            .map(|w| lines[w[0]..w[1]].iter().map(|l| format!("{l}\n")).collect())
            .collect()
    };
    let run = Run {
        chunk: 1 + g.below(8),
        max_examples: if g.chance(50) { 3 } else { usize::MAX },
        max_violations: g.chance(30).then(|| 1 + g.below(20) as u64),
        files: cut(&jsonl),
        pgt_files: cut(&pgt),
    };
    (schema, run)
}

/// The cases reach every violation category, both example bounds, and
/// runs that stop early and runs that do not.
#[test]
fn cases_cover_every_category_and_early_stop() {
    let mut counts = [0u64; 7];
    let mut stops = [0u32; 2];
    let mut trees = 0;
    for seed in 0..300u64 {
        let (schema, run) = case(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let report = run_product(&CompiledSchema::compile(&schema), &run, Format::Jsonl);
        for (i, kind) in ViolationKind::ALL.into_iter().enumerate() {
            counts[i] += report.count(kind);
        }
        stops[report.stopped_early as usize] += 1;
        trees += (run.files.len() > 1) as u32;
    }
    assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
    assert!(stops.iter().all(|&n| n > 0), "{stops:?}");
    assert!(trees > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validator_matches_per_record_reference(seed in any::<u64>()) {
        let (schema, run) = case(seed);
        let compiled = CompiledSchema::compile(&schema);
        let reference = reference::CompiledSchema::compile(&schema);

        for format in [Format::Jsonl, Format::Pgt] {
            let product = run_product(&compiled, &run, format);
            let want = run_reference(&reference, &run, format);
            for kind in ViolationKind::ALL {
                let i = ViolationKind::ALL.iter().position(|k| *k == kind).unwrap();
                prop_assert_eq!(
                    product.count(kind), want.counts[i], "{} of seed {seed:#x}, {:?}", kind, format
                );
            }
            prop_assert_eq!(&product.examples, &want.examples, "seed {seed:#x}, {:?}", format);
            prop_assert_eq!(product.nodes_checked, want.nodes_checked);
            prop_assert_eq!(product.edges_checked, want.edges_checked);
            prop_assert_eq!(product.stopped_early, want.stopped_early);
        }
    }
}
