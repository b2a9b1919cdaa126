//! Stages (e)–(g): property constraints, data-type inference, cardinalities
//! (§4.4).
//!
//! Stage (e), the MANDATORY/OPTIONAL constraint, is fully determined by the
//! occurrence counts accumulated during extraction (`f_T(p) = 1` ⇒
//! mandatory), so it has no pass of its own: readers ask
//! [`PropertySpec::is_mandatory`]. [`crate::state::SchemaState::postprocess`]
//! drives stages (f) and (g) over its pooled types:
//!
//! - the full-scan stage (f) runs once per element class, over the
//!   elements in element order, joining every type's kinds at once
//!   (`join_kinds_in_element_order`);
//! - the sampled stage (f) (`--sample`) runs per type, on a seeded sample
//!   of that type's members ([`infer_node_type_datatypes`],
//!   [`infer_edge_type_datatypes`]);
//! - stage (g) runs per edge type ([`compute_edge_type_cardinality`]).

use crate::config::SamplingConfig;
use crate::schema::{Cardinality, EdgeType, NodeType, PropertySpec};
use pg_hive_graph::value::value_kind_via_lexical;
use pg_hive_graph::{EdgeId, Interner, NodeId, PropertyGraph, Symbol, Value, ValueKind};
use std::collections::BTreeMap;

/// Priority-based inference of a single lexical value (§4.4): integer,
/// float, boolean, ISO date/timestamp, else string. Builds no value, so a
/// string never gets copied just to learn that it is one.
pub fn infer_value_kind(lexical: &str) -> ValueKind {
    Value::lexical_kind(lexical)
}

/// Join the kinds of a sequence of lexical values ("the most specific
/// compatible type", §4.7).
pub fn infer_kind_of_values<'a, I: IntoIterator<Item = &'a str>>(values: I) -> Option<ValueKind> {
    let mut kind: Option<ValueKind> = None;
    for v in values {
        let k = infer_value_kind(v);
        kind = Some(match kind {
            Some(existing) => existing.join(k),
            None => k,
        });
    }
    kind
}

/// Full-scan stage (f) for every type of one element class at once.
/// `elements` yields each of the class's `count` elements' property slices
/// in element order (the `i`-th item is element `i`, the id the member
/// lists hold). One pass
/// over them joins each property's kind into the types that list the
/// element, found through an element → type map built from the member
/// lists. Each property is matched against its type's small sorted
/// `(symbol, slot)` table by binary search. `ValueKind::join` is a
/// semilattice join (commutative, associative, idempotent), so element
/// order gives each type exactly the kinds a walk of its own members
/// gives, also when an element is listed in several types. Keys that
/// `keys` does not intern belong to another chunk; their kinds stay as
/// they are.
pub(crate) fn join_kinds_in_element_order<'g>(
    types: Vec<(&mut BTreeMap<String, PropertySpec>, &[u32])>,
    keys: &Interner,
    count: usize,
    elements: impl Iterator<Item = &'g [(Symbol, Value)]>,
) {
    const NONE: u32 = u32::MAX;
    // Element → its first type; later memberships as sorted (element, type).
    let mut owner = vec![NONE; count];
    let mut shared: Vec<(u32, u32)> = Vec::new();
    let mut tables: Vec<Vec<(Symbol, u32)>> = Vec::with_capacity(types.len());
    let mut kinds: Vec<Option<ValueKind>> = Vec::new();
    for (t, (props, members)) in types.iter().enumerate() {
        for &m in members.iter() {
            let slot = &mut owner[m as usize];
            if *slot == NONE {
                *slot = t as u32;
            } else {
                shared.push((m, t as u32));
            }
        }
        let base = kinds.len() as u32;
        let mut table: Vec<(Symbol, u32)> = props
            .keys()
            .enumerate()
            .filter_map(|(i, k)| keys.get(k).map(|sym| (sym, base + i as u32)))
            .collect();
        table.sort_unstable_by_key(|&(sym, _)| sym);
        tables.push(table);
        kinds.resize(kinds.len() + props.len(), None);
    }
    shared.sort_unstable();

    let mut scratch = String::new();
    let mut join = |t: u32, props: &[(Symbol, Value)]| {
        let table = &tables[t as usize];
        for (sym, v) in props {
            let Ok(i) = table.binary_search_by_key(sym, |&(s, _)| s) else {
                continue;
            };
            let slot = table[i].1 as usize;
            let k = value_kind_via_lexical(v, &mut scratch);
            kinds[slot] = Some(kinds[slot].map_or(k, |prev| prev.join(k)));
        }
    };
    let mut shared = shared.into_iter().peekable();
    for (e, props) in elements.enumerate() {
        if owner[e] == NONE {
            continue;
        }
        join(owner[e], props);
        while let Some((_, t)) = shared.next_if(|&(m, _)| m as usize == e) {
            join(t, props);
        }
    }

    let mut kinds = kinds.into_iter();
    for (props, _) in types {
        for (spec, kind) in props.values_mut().zip(kinds.by_ref()) {
            if let Some(k) = kind {
                spec.kind = Some(spec.kind.map_or(k, |prev| prev.join(k)));
            }
        }
    }
}

/// Sampled stage (f) for one node type: fill `PropertySpec::kind` from a
/// seeded sample of the type's member values in `g` per [`SamplingConfig`]
/// (fraction of values, floor `min_values`). Kinds join with any
/// previously inferred kind (lattice join, monotone).
pub fn infer_node_type_datatypes(t: &mut NodeType, g: &PropertyGraph, sampling: &SamplingConfig) {
    let keys: Vec<String> = t.props.keys().cloned().collect();
    for key in keys {
        let sym = match g.keys().get(&key) {
            Some(s) => s,
            None => continue, // key from another batch's store
        };
        let holders: Vec<u32> = t
            .members
            .iter()
            .copied()
            .filter(|&m| g.node(NodeId(m)).get(sym).is_some())
            .collect();
        let chosen = select_sample(&holders, sampling);
        let mut scratch = String::new();
        let kind = join_kinds(
            chosen
                .iter()
                .map(|&m| g.node(NodeId(m)).get(sym).expect("holder filtered above")),
            &mut scratch,
        );
        if let Some(k) = kind {
            let spec = t.props.get_mut(&key).expect("key listed above");
            spec.kind = Some(match spec.kind {
                Some(prev) => prev.join(k),
                None => k,
            });
        }
    }
}

/// Sampled stage (f) for one edge type (see [`infer_node_type_datatypes`]).
pub fn infer_edge_type_datatypes(t: &mut EdgeType, g: &PropertyGraph, sampling: &SamplingConfig) {
    let keys: Vec<String> = t.props.keys().cloned().collect();
    for key in keys {
        let sym = match g.keys().get(&key) {
            Some(s) => s,
            None => continue,
        };
        let holders: Vec<u32> = t
            .members
            .iter()
            .copied()
            .filter(|&m| g.edge(EdgeId(m)).get(sym).is_some())
            .collect();
        let chosen = select_sample(&holders, sampling);
        let mut scratch = String::new();
        let kind = join_kinds(
            chosen
                .iter()
                .map(|&m| g.edge(EdgeId(m)).get(sym).expect("holder filtered above")),
            &mut scratch,
        );
        if let Some(k) = kind {
            let spec = t.props.get_mut(&key).expect("key listed above");
            spec.kind = Some(match spec.kind {
                Some(prev) => prev.join(k),
                None => k,
            });
        }
    }
}

/// [`infer_kind_of_values`] over [`Value`]s, allocation-free via `scratch`.
fn join_kinds<'a>(
    values: impl Iterator<Item = &'a Value>,
    scratch: &mut String,
) -> Option<ValueKind> {
    let mut kind: Option<ValueKind> = None;
    for v in values {
        let k = value_kind_via_lexical(v, scratch);
        kind = Some(match kind {
            Some(existing) => existing.join(k),
            None => k,
        });
    }
    kind
}

fn select_sample(holders: &[u32], cfg: &SamplingConfig) -> Vec<u32> {
    let want = ((holders.len() as f64 * cfg.fraction).ceil() as usize)
        .max(cfg.min_values)
        .min(holders.len());
    if want >= holders.len() {
        return holders.to_vec();
    }
    // Deterministic partial Fisher–Yates.
    let mut pool = holders.to_vec();
    let mut state = cfg.seed;
    for i in 0..want {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let j = i + (z % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(want);
    pool
}

/// Stage (g) for one edge type: compute the maximum number of **distinct**
/// targets per source (`max_out`) and distinct sources per target
/// (`max_in`) among its member edges, then merge with any cardinality
/// carried over from earlier batches — upper bounds only grow (monotone,
/// §4.7). Classification happens via [`Cardinality::class`].
pub fn compute_edge_type_cardinality(t: &mut EdgeType, g: &PropertyGraph) {
    if t.members.is_empty() {
        return;
    }
    // Sort + dedup the endpoint pairs, then count run lengths: the longest
    // run of one `src` in the deduplicated `(src, tgt)` order is its number
    // of distinct targets (and symmetrically for `tgt`). Integer sorts beat
    // the per-edge hashing of a map-of-sets here by a wide margin.
    let mut pairs: Vec<(u32, u32)> = t
        .members
        .iter()
        .map(|&m| {
            let e = g.edge(EdgeId(m));
            (e.src.0, e.tgt.0)
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let max_out = longest_run(pairs.iter().map(|&(src, _)| src));
    for p in &mut pairs {
        *p = (p.1, p.0);
    }
    pairs.sort_unstable(); // pairs stay distinct under the swap
    let max_in = longest_run(pairs.iter().map(|&(tgt, _)| tgt));
    let card = Cardinality { max_out, max_in };
    t.cardinality = Some(match t.cardinality {
        Some(prev) => Cardinality {
            max_out: prev.max_out.max(card.max_out),
            max_in: prev.max_in.max(card.max_in),
        },
        None => card,
    });
}

/// Longest run of equal values in an already-sorted sequence.
fn longest_run(sorted: impl Iterator<Item = u32>) -> u64 {
    let mut best = 0u64;
    let mut cur = 0u64;
    let mut prev = None;
    for x in sorted {
        if prev == Some(x) {
            cur += 1;
        } else {
            prev = Some(x);
            cur = 1;
        }
        best = best.max(cur);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{label_set, SchemaGraph};
    use pg_hive_graph::{GraphBuilder, Value};
    use std::collections::BTreeMap;

    #[test]
    fn infer_value_kind_priority_order() {
        assert_eq!(infer_value_kind("42"), ValueKind::Integer);
        assert_eq!(infer_value_kind("4.5"), ValueKind::Float);
        assert_eq!(infer_value_kind("true"), ValueKind::Boolean);
        assert_eq!(infer_value_kind("1999-12-19"), ValueKind::Date);
        assert_eq!(
            infer_value_kind("1999-12-19T01:02:03"),
            ValueKind::Timestamp
        );
        assert_eq!(infer_value_kind("hello"), ValueKind::String);
    }

    #[test]
    fn kind_join_over_values() {
        assert_eq!(
            infer_kind_of_values(["1", "2", "3"]),
            Some(ValueKind::Integer)
        );
        assert_eq!(infer_kind_of_values(["1", "2.5"]), Some(ValueKind::Float));
        assert_eq!(infer_kind_of_values(["1", "x"]), Some(ValueKind::String));
        assert_eq!(infer_kind_of_values([]), None);
    }

    fn wired_schema() -> (SchemaGraph, PropertyGraph) {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(
            &["Person"],
            &[("age", Value::Int(30)), ("name", Value::from("a"))],
        );
        let n1 = b.add_node(&["Person"], &[("age", Value::Int(40))]);
        let g = b.finish();
        let mut t = NodeType {
            labels: label_set(&["Person"]),
            props: BTreeMap::new(),
            instance_count: 2,
            members: vec![n0.0, n1.0],
        };
        t.props.insert(
            "age".into(),
            PropertySpec {
                occurrences: 2,
                kind: None,
            },
        );
        t.props.insert(
            "name".into(),
            PropertySpec {
                occurrences: 1,
                kind: None,
            },
        );
        let mut s = SchemaGraph::new();
        s.node_types.push(t);
        (s, g)
    }

    #[test]
    fn constraints_from_counts() {
        let (s, _) = wired_schema();
        let person = &s.node_types[0];
        assert!(person.props["age"].is_mandatory(person.instance_count));
        assert!(!person.props["name"].is_mandatory(person.instance_count));
    }

    /// The full-scan stage (f) over `s`'s node types.
    fn full_scan(s: &mut SchemaGraph, g: &PropertyGraph) {
        let types = s
            .node_types
            .iter_mut()
            .map(|t| (&mut t.props, t.members.as_slice()))
            .collect();
        let props = g.nodes().map(|(_, n)| n.props.as_slice());
        join_kinds_in_element_order(types, g.keys(), g.node_count(), props);
    }

    #[test]
    fn datatype_full_scan() {
        let (mut s, g) = wired_schema();
        full_scan(&mut s, &g);
        assert_eq!(s.node_types[0].props["age"].kind, Some(ValueKind::Integer));
        assert_eq!(s.node_types[0].props["name"].kind, Some(ValueKind::String));
    }

    #[test]
    fn datatype_sampling_with_floor_equals_full_scan_on_small_data() {
        let (mut s, g) = wired_schema();
        let sampling = SamplingConfig {
            fraction: 0.1,
            min_values: 1000,
            seed: 1,
        };
        for t in &mut s.node_types {
            infer_node_type_datatypes(t, &g, &sampling);
        }
        // Floor 1000 > 2 holders ⇒ effectively full scan.
        assert_eq!(s.node_types[0].props["age"].kind, Some(ValueKind::Integer));
    }

    #[test]
    fn sampling_can_miss_outliers() {
        // 1000 integer values and one trailing string outlier: a small
        // sample (floor 1) will usually call it Integer while the full scan
        // says String — exactly the §5 sampling-error phenomenon.
        let mut b = GraphBuilder::new();
        let mut members = Vec::new();
        for i in 0..1000 {
            members.push(b.add_node(&["T"], &[("x", Value::Int(i))]).0);
        }
        members.push(b.add_node(&["T"], &[("x", Value::from("oops"))]).0);
        let g = b.finish();
        let mut t = NodeType {
            labels: label_set(&["T"]),
            props: BTreeMap::new(),
            instance_count: 1001,
            members,
        };
        t.props.insert(
            "x".into(),
            PropertySpec {
                occurrences: 1001,
                kind: None,
            },
        );
        let mut full = SchemaGraph::new();
        full.node_types.push(t.clone());
        full_scan(&mut full, &g);
        assert_eq!(full.node_types[0].props["x"].kind, Some(ValueKind::String));

        let mut sampled = SchemaGraph::new();
        sampled.node_types.push(t);
        let sampling = SamplingConfig {
            fraction: 0.01,
            min_values: 1,
            seed: 7,
        };
        for t in &mut sampled.node_types {
            infer_node_type_datatypes(t, &g, &sampling);
        }
        // With 11 of 1001 values sampled the outlier is probably missed.
        // (Deterministic seed: assert the concrete outcome.)
        assert_eq!(
            sampled.node_types[0].props["x"].kind,
            Some(ValueKind::Integer)
        );
    }

    #[test]
    fn cardinalities_from_fig1() {
        // WORKS_AT: persons → exactly one org; org has many employees ⇒ N:1
        // from the paper's Example 8... note max_out/max_in orientation:
        // max_out = 1 (each person one org), max_in = many ⇒ class 0:N per
        // the (max_out, max_in) table; the paper names this case N:1 viewed
        // from the org side. We follow the (max_out, max_in) classification.
        let mut b = GraphBuilder::new();
        let p1 = b.add_node(&["Person"], &[]);
        let p2 = b.add_node(&["Person"], &[]);
        let o = b.add_node(&["Org"], &[]);
        b.add_edge(p1, o, &["WORKS_AT"], &[]);
        b.add_edge(p2, o, &["WORKS_AT"], &[]);
        let g = b.finish();
        let mut s = SchemaGraph::new();
        s.edge_types.push(EdgeType {
            labels: label_set(&["WORKS_AT"]),
            props: BTreeMap::new(),
            endpoints: Default::default(),
            instance_count: 2,
            members: vec![0, 1],
            cardinality: None,
        });
        for t in &mut s.edge_types {
            compute_edge_type_cardinality(t, &g);
        }
        let c = s.edge_types[0].cardinality.unwrap();
        assert_eq!(c.max_out, 1);
        assert_eq!(c.max_in, 2);
        assert_eq!(c.class().notation(), "0:N");
    }

    #[test]
    fn cardinality_many_to_many() {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(&["A"], &[]);
        let a2 = b.add_node(&["A"], &[]);
        let c1 = b.add_node(&["B"], &[]);
        let c2 = b.add_node(&["B"], &[]);
        for s in [a1, a2] {
            for t in [c1, c2] {
                b.add_edge(s, t, &["R"], &[]);
            }
        }
        let g = b.finish();
        let mut s = SchemaGraph::new();
        s.edge_types.push(EdgeType {
            labels: label_set(&["R"]),
            props: BTreeMap::new(),
            endpoints: Default::default(),
            instance_count: 4,
            members: vec![0, 1, 2, 3],
            cardinality: None,
        });
        for t in &mut s.edge_types {
            compute_edge_type_cardinality(t, &g);
        }
        let c = s.edge_types[0].cardinality.unwrap();
        assert_eq!(c.class().notation(), "M:N");
    }

    #[test]
    fn cardinality_distinct_targets_not_edge_count() {
        // Two parallel edges to the same target count as ONE distinct target.
        let mut b = GraphBuilder::new();
        let a = b.add_node(&["A"], &[]);
        let t = b.add_node(&["B"], &[]);
        b.add_edge(a, t, &["R"], &[]);
        b.add_edge(a, t, &["R"], &[]);
        let g = b.finish();
        let mut s = SchemaGraph::new();
        s.edge_types.push(EdgeType {
            labels: label_set(&["R"]),
            props: BTreeMap::new(),
            endpoints: Default::default(),
            instance_count: 2,
            members: vec![0, 1],
            cardinality: None,
        });
        for t in &mut s.edge_types {
            compute_edge_type_cardinality(t, &g);
        }
        let c = s.edge_types[0].cardinality.unwrap();
        assert_eq!(c.class().notation(), "0:1");
    }

    /// A value of every variant: `pick` chooses the variant or a fixed
    /// edge case, `bits` fills the variant's fields, `text` a string.
    fn value_of(pick: u8, bits: u64, text: String) -> Value {
        let year = (bits % 24_001) as i32 - 12_000;
        let month = (bits >> 16) as u8 % 14;
        let day = (bits >> 24) as u8 % 33;
        match pick % 20 {
            0 => Value::Int(bits as i64),
            1 => Value::Int(i64::MIN),
            2 => Value::Int(i64::MAX),
            3 => Value::Float(f64::from_bits(bits)),
            4 => Value::Float(2.0),
            5 => Value::Float(1e300),
            6 => Value::Float(f64::INFINITY),
            7 => Value::Float(f64::NEG_INFINITY),
            8 => Value::Float(f64::NAN),
            9 => Value::Float((bits % 2001) as f64 / 8.0 - 125.0),
            10 => Value::Bool(bits & 1 == 1),
            11 => Value::Date { year, month, day },
            12 => Value::Date {
                year: 10_000,
                month: 1,
                day: 2,
            },
            13 => Value::Date {
                year: -5,
                month: 3,
                day: 4,
            },
            14 => Value::DateTime {
                year,
                month,
                day,
                hour: (bits >> 32) as u8 % 25,
                minute: (bits >> 40) as u8 % 61,
                second: (bits >> 48) as u8 % 61,
            },
            15 => Value::DateTime {
                year: 10_000,
                month: 12,
                day: 31,
                hour: 23,
                minute: 59,
                second: 59,
            },
            16 => Value::Str(text),
            17 => Value::Str(format!(" {} ", bits as i64)),
            18 => Value::Str(Value::Float(f64::from_bits(bits)).to_string()),
            _ => Value::Str(
                ["123", "TRUE", "inf", "NaN", "2020-01-01", "-0", "1e5", ""][bits as usize % 8]
                    .to_string(),
            ),
        }
    }

    /// Pieces of a pgt value token (no whitespace, no comma), separated by
    /// spaces: ordinary characters; `%XX` escapes that are valid, invalid
    /// or multi-byte; and whole forms at the edges of every kind.
    const PIECES: &str = "a Z 0 7 - . : T e + = é 日 %34 %32 %2D %2E %3A %54 %25 %2C %3D %0A \
        %C3%A9 %E3%80%80 %C2%A0 %F0%9F%98%80 % %G1 %2 %C3 %FF %ED%A0%80 %C3%41 \
        9223372036854775807 -9223372036854775808 9223372036854775808 -9223372036854775809 \
        1e300 1e400 inf NaN 2.0 true FALSE 10000-01-02 -005-03-04 +001-01-01 2024-02-29 \
        10000-12-31T23:59:59 -001-01-01T00:00:60Z 2020-01-02T03:04:05Z";
    /// Escaped whitespace that may surround a token.
    const SPACES: [&str; 3] = ["%20", "%09", "%E3%80%80"];

    /// The one property a source yields, through a parsing buffer and a
    /// text-values buffer: `(key, kind, value)` from each, or `None` when
    /// the source rejects the record or yields no property.
    fn read_prop<S: pg_hive_graph::RawGraphSource>(
        mut open: impl FnMut() -> S,
    ) -> Option<[(String, ValueKind, Value); 2]> {
        let mut scratch = String::from("stale");
        let mut read = |mut buf: pg_hive_graph::RecordBuf| {
            open().read_record(&mut buf).ok()?;
            let (pg_hive_graph::RecordRef::Node { props, .. }
            | pg_hive_graph::RecordRef::Edge { props, .. }) = buf.view();
            let p = props.iter().next()?;
            Some((
                p.key().to_string(),
                p.kind(&mut scratch),
                p.value().into_owned(),
            ))
        };
        let parsed = read(pg_hive_graph::RecordBuf::new());
        let text = read(pg_hive_graph::RecordBuf::text_values());
        assert_eq!(parsed.is_some(), text.is_some());
        Some([parsed?, text?])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// A text value's kind and value are exactly the parsed value's:
        /// `value_kind_via_lexical(&Value::parse_lexical(percent_decode(t)))`
        /// and `Value::parse_lexical(percent_decode(t))` for a pgt token
        /// `t`, and the same without decoding for a CSV cell and a JSONL
        /// string, number or literal holding the decoded text.
        #[test]
        fn text_values_read_as_their_parsed_value(
            lead in 0usize..4,
            body in proptest::collection::vec(0usize..256, 0..5),
            trail in 0usize..4,
        ) {
            let space = |i: usize| SPACES.get(i).copied().unwrap_or("");
            let pieces: Vec<&str> = PIECES.split_whitespace().collect();
            let token: String = std::iter::once(space(lead))
                .chain(body.iter().map(|&i| pieces[i % pieces.len()]))
                .chain(std::iter::once(space(trail)))
                .collect();
            let mut scratch = String::new();
            let decoded = pg_hive_graph::loader::percent_decode(&token, &mut scratch).to_string();
            let v = Value::parse_lexical(&decoded);
            let one = ("k".to_string(), value_kind_via_lexical(&v, &mut String::new()), v);
            let want = [one.clone(), one];

            // pgt: the token as written, still percent-encoded.
            let line = format!("N a - k={token}\n");
            let pgt = read_prop(|| pg_hive_graph::stream::pgt::PgtSource::new(line.as_bytes()));
            proptest::prop_assert_eq!(pgt, Some(want.clone()), "{}", token);

            // CSV: the decoded text as one quoted cell.
            let csv = format!("id,labels,k\na,,\"{}\"\n", decoded.replace('"', "\"\""));
            let cell = read_prop(|| {
                pg_hive_graph::stream::csv::CsvSource::new(csv.as_bytes(), None)
            });
            proptest::prop_assert_eq!(cell, Some(want.clone()));

            // JSONL: the decoded text as a string, and bare where it reads
            // as a JSON number or literal.
            let escaped = pg_hive_graph::json_escape(&decoded);
            for (value, bare) in [(format!("\"{escaped}\""), false), (decoded.clone(), true)] {
                let json = format!("{{\"type\":\"node\",\"id\":\"a\",\"props\":{{\"k\":{value}}}}}\n");
                let got = read_prop(|| pg_hive_graph::stream::jsonl::JsonlSource::new(json.as_bytes()));
                match got {
                    Some(got) => proptest::prop_assert_eq!(got, want.clone()),
                    None => proptest::prop_assert!(bare, "a JSON string always reads: {}", json),
                }
            }
        }

        #[test]
        fn value_kind_equals_lexical_reinference(
            pick in proptest::prelude::any::<u8>(),
            bits in proptest::prelude::any::<u64>(),
            text in "[a-z0-9.:T+ -]{0,12}",
        ) {
            let v = value_of(pick, bits, text);
            let mut scratch = String::from("stale");
            proptest::prop_assert_eq!(
                value_kind_via_lexical(&v, &mut scratch),
                infer_value_kind(&v.lexical())
            );
        }
    }
}
