//! Integration tests for the streaming *ingestion* layer: the
//! `ChunkedTextReader` end-to-end into `discover_stream`, and a proptest
//! that pgt / CSV / JSONL round-trips through the exporters reproduce the
//! same discovered schema.

use pg_hive_core::schema::SchemaGraph;
use pg_hive_core::serialize::pg_schema_strict;
use pg_hive_core::{Discoverer, PipelineConfig};
use pg_hive_graph::loader::{load_text, save_text};
use pg_hive_graph::stream::csv::{save_edges_csv, save_nodes_csv, CsvSource};
use pg_hive_graph::stream::jsonl::{save_jsonl, JsonlSource};
use pg_hive_graph::stream::{pgt::PgtSource, read_all};
use pg_hive_graph::{ChunkedTextReader, GraphBuilder, Interner, PropertyGraph, Value};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeSet;

fn node_inventory(s: &SchemaGraph) -> BTreeSet<Vec<String>> {
    s.node_types
        .iter()
        .map(|t| t.labels.iter().cloned().collect())
        .collect()
}

fn edge_inventory(s: &SchemaGraph) -> BTreeSet<Vec<String>> {
    s.edge_types
        .iter()
        .map(|t| t.labels.iter().cloned().collect())
        .collect()
}

#[test]
fn chunked_reader_matches_resident_inventory() {
    // 30 people, 10 orgs, 30 WORKS_AT edges: serialized nodes-first, so
    // every edge chunk must resolve its endpoints through the registry.
    let g = {
        let mut b = GraphBuilder::new();
        let mut people = Vec::new();
        for i in 0..30 {
            people.push(b.add_node(
                &["Person"],
                &[("name", Value::from(format!("p{i}").as_str()))],
            ));
        }
        let mut orgs = Vec::new();
        for i in 0..10 {
            orgs.push(b.add_node(
                &["Org"],
                &[("url", Value::from(format!("o{i}.com").as_str()))],
            ));
        }
        for (i, &p) in people.iter().enumerate() {
            b.add_edge(p, orgs[i % 10], &["WORKS_AT"], &[]);
        }
        b.finish()
    };
    let d = Discoverer::new(PipelineConfig::elsh_adaptive());
    let resident = d.discover(&g);

    let text = save_text(&g);
    let mut reader = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), 7);
    let streamed = d.discover_stream(std::iter::from_fn(|| reader.next_chunk().unwrap()));

    assert_eq!(reader.warnings().unresolved_edges, 0);
    assert!(reader.chunks_emitted() >= 8, "70 elements / chunk 7");
    assert!(
        reader.max_resident_elements() <= 14,
        "peak resident {} must stay <= 2x chunk size",
        reader.max_resident_elements()
    );
    assert_eq!(
        node_inventory(&streamed.schema),
        node_inventory(&resident.schema)
    );
    assert_eq!(
        edge_inventory(&streamed.schema),
        edge_inventory(&resident.schema)
    );
    // No edge was lost to chunking: WORKS_AT keeps its full count.
    let works = streamed
        .schema
        .edge_type_by_labels(&pg_hive_core::label_set(&["WORKS_AT"]))
        .unwrap();
    assert_eq!(streamed.schema.edge_types[works].instance_count, 30);
}

/// Random small graphs with value variety (commas, quotes, `=`, `%`,
/// dates, floats) to stress every escaper. With `all_labeled`, every node
/// carries its type label; otherwise nodes are randomly unlabeled.
fn arb_graph(all_labeled: bool) -> impl Strategy<Value = PropertyGraph> {
    let node = (
        0u8..5,
        any::<bool>(),
        proptest::collection::vec(any::<bool>(), 4),
    );
    (
        proptest::collection::vec(node, 1..40),
        proptest::collection::vec((0u8..40, 0u8..40, 0u8..3), 0..30),
    )
        .prop_map(move |(nodes, edges)| {
            let mut b = GraphBuilder::new();
            let mut ids = Vec::new();
            for (ty, labeled, key_mask) in &nodes {
                let label = format!("T{ty}");
                let labels: Vec<&str> = if all_labeled || *labeled {
                    vec![&label]
                } else {
                    vec![]
                };
                let keys = ["alpha", "beta", "gamma", "delta"];
                let values = [
                    Value::Int(7),
                    Value::from("x, \"quoted\"=tricky %"),
                    Value::from("1999-12-19"),
                    Value::Float(2.5),
                ];
                let props: Vec<(&str, Value)> = keys
                    .iter()
                    .zip(key_mask)
                    .enumerate()
                    .filter(|(_, (_, &m))| m)
                    .map(|(i, (k, _))| (*k, values[i].clone()))
                    .collect();
                ids.push(b.add_node(&labels, &props));
            }
            for (s, t, e) in &edges {
                let si = *s as usize % ids.len();
                let ti = *t as usize % ids.len();
                let label = format!("E{e}");
                b.add_edge(ids[si], ids[ti], &[&label], &[("w", Value::Int(*e as i64))]);
            }
            b.finish()
        })
}

/// The discovered schema reduced to a comparable form: sorted labeled
/// types with instance counts and property-key sets.
type Fingerprint = (
    Vec<(Vec<String>, u64, Vec<String>)>,
    Vec<(Vec<String>, u64)>,
);

fn schema_fingerprint(s: &SchemaGraph) -> Fingerprint {
    let mut nodes: Vec<(Vec<String>, u64, Vec<String>)> = s
        .node_types
        .iter()
        .map(|t| {
            (
                t.labels.iter().cloned().collect(),
                t.instance_count,
                t.props.keys().cloned().collect(),
            )
        })
        .collect();
    nodes.sort();
    let mut edges: Vec<(Vec<String>, u64)> = s
        .edge_types
        .iter()
        .map(|t| (t.labels.iter().cloned().collect(), t.instance_count))
        .collect();
    edges.sort();
    (nodes, edges)
}

/// Rebuild `g` with nodes and edges inserted in reverse order and each
/// element's properties reversed, so labels and property keys are interned
/// in a different order while the element *multiset* is unchanged.
fn shuffled_interning_rebuild(g: &PropertyGraph) -> PropertyGraph {
    let mut b = GraphBuilder::new();
    let mut new_ids = vec![None; g.node_count()];
    let nodes: Vec<_> = g.nodes().collect();
    for (id, node) in nodes.into_iter().rev() {
        let labels: Vec<&str> = node.labels.iter().map(|&l| g.label_str(l)).collect();
        let mut props: Vec<(&str, Value)> = node
            .props
            .iter()
            .map(|(k, v)| (g.key_str(*k), v.clone()))
            .collect();
        props.reverse();
        new_ids[id.index()] = Some(b.add_node(&labels, &props));
    }
    let edges: Vec<_> = g.edges().collect();
    for (_, e) in edges.into_iter().rev() {
        let labels: Vec<&str> = e.labels.iter().map(|&l| g.label_str(l)).collect();
        let mut props: Vec<(&str, Value)> = e
            .props
            .iter()
            .map(|(k, v)| (g.key_str(*k), v.clone()))
            .collect();
        props.reverse();
        let src = new_ids[e.src.index()].expect("endpoint rebuilt");
        let tgt = new_ids[e.tgt.index()].expect("endpoint rebuilt");
        b.add_edge(src, tgt, &labels, &props);
    }
    b.finish()
}

/// Canonical serialized form — byte equality here is the strongest
/// round-trip statement the CLI can make.
fn strict_text(d: &Discoverer, g: &PropertyGraph) -> String {
    pg_schema_strict(&d.discover(g).schema, "G")
}

/// Element-by-element equality: the same label and key symbol tables,
/// node and edge order, symbol ids, property order and values, endpoints
/// and stub marks.
fn same_graph(a: &PropertyGraph, b: &PropertyGraph) -> Result<(), TestCaseError> {
    let table = |i: &Interner| -> Vec<String> { i.iter().map(|(_, s)| s.to_string()).collect() };
    prop_assert_eq!(table(a.labels()), table(b.labels()));
    prop_assert_eq!(table(a.keys()), table(b.keys()));
    prop_assert_eq!(a.node_count(), b.node_count());
    prop_assert_eq!(a.edge_count(), b.edge_count());
    for ((id, x), (_, y)) in a.nodes().zip(b.nodes()) {
        prop_assert_eq!(&x.labels, &y.labels, "labels of node {:?}", id);
        prop_assert_eq!(&x.props, &y.props, "props of node {:?}", id);
        prop_assert_eq!(a.is_stub(id), b.is_stub(id), "stub mark of node {:?}", id);
    }
    for ((id, x), (_, y)) in a.edges().zip(b.edges()) {
        prop_assert_eq!((x.src, x.tgt), (y.src, y.tgt), "endpoints of edge {:?}", id);
        prop_assert_eq!(&x.labels, &y.labels, "labels of edge {:?}", id);
        prop_assert_eq!(&x.props, &y.props, "props of edge {:?}", id);
    }
    Ok(())
}

/// `text` with CRLF line endings and a comment and a blank line (with
/// stray whitespace) interleaved before every record.
fn with_crlf_and_comments(text: &str) -> String {
    text.lines()
        .enumerate()
        .map(|(i, line)| format!("# record {i}\r\n \t\r\n{line}\r\n"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On fully labeled graphs every round-trip must reproduce the exact
    /// discovered schema, down to the serialized text.
    #[test]
    fn labeled_round_trips_reproduce_the_exact_schema(g in arb_graph(true)) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let want = schema_fingerprint(&d.discover(&g).schema);
        let want_text = strict_text(&d, &g);

        let text = save_text(&g);
        let via_loader = load_text(&text).unwrap();
        prop_assert_eq!(&schema_fingerprint(&d.discover(&via_loader).schema), &want);
        prop_assert_eq!(&strict_text(&d, &via_loader), &want_text);

        let (via_pgt, w) = read_all(PgtSource::new(text.as_bytes())).unwrap();
        prop_assert!(w.is_empty());
        prop_assert_eq!(&strict_text(&d, &via_pgt), &want_text);

        let nodes_csv = save_nodes_csv(&g);
        let edges_csv = save_edges_csv(&g);
        let (via_csv, w) =
            read_all(CsvSource::new(nodes_csv.as_bytes(), Some(edges_csv.as_bytes()))).unwrap();
        prop_assert!(w.is_empty());
        prop_assert_eq!(&strict_text(&d, &via_csv), &want_text);

        let jsonl = save_jsonl(&g);
        let (via_jsonl, w) = read_all(JsonlSource::new(jsonl.as_bytes())).unwrap();
        prop_assert!(w.is_empty());
        prop_assert_eq!(&strict_text(&d, &via_jsonl), &want_text);
    }

    /// With unlabeled nodes the representation vectors and the abstract
    /// cluster resolution used to depend on property-key interning order,
    /// so only the order-preserving pgt path round-tripped exactly. The
    /// canonical-id view plus `SchemaState` closed that gap: CSV and JSONL
    /// round-trips now reproduce the **exact serialized schema** too.
    #[test]
    fn mixed_round_trips_reproduce_the_exact_schema(g in arb_graph(false)) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let want_text = strict_text(&d, &g);
        let want_stats = pg_hive_graph::GraphStats::compute(&g);

        let text = save_text(&g);
        let via_loader = load_text(&text).unwrap();
        prop_assert_eq!(&strict_text(&d, &via_loader), &want_text);

        let (via_pgt, w) = read_all(PgtSource::new(text.as_bytes())).unwrap();
        prop_assert!(w.is_empty());
        prop_assert_eq!(&strict_text(&d, &via_pgt), &want_text);
        // The resident loader and the chunked reader share one line parser
        // and must build the very same graph, also from CRLF text with
        // comments and blank lines in between.
        same_graph(&via_loader, &via_pgt)?;
        let noisy = with_crlf_and_comments(&text);
        same_graph(&load_text(&noisy).unwrap(), &via_loader)?;
        let (noisy_pgt, w) = read_all(PgtSource::new(noisy.as_bytes())).unwrap();
        prop_assert!(w.is_empty());
        same_graph(&noisy_pgt, &via_loader)?;

        let nodes_csv = save_nodes_csv(&g);
        let edges_csv = save_edges_csv(&g);
        let (via_csv, w) =
            read_all(CsvSource::new(nodes_csv.as_bytes(), Some(edges_csv.as_bytes()))).unwrap();
        prop_assert!(w.is_empty());
        prop_assert_eq!(&pg_hive_graph::GraphStats::compute(&via_csv), &want_stats);
        prop_assert_eq!(&strict_text(&d, &via_csv), &want_text);

        let jsonl = save_jsonl(&g);
        let (via_jsonl, w) = read_all(JsonlSource::new(jsonl.as_bytes())).unwrap();
        prop_assert!(w.is_empty());
        prop_assert_eq!(&pg_hive_graph::GraphStats::compute(&via_jsonl), &want_stats);
        prop_assert_eq!(&strict_text(&d, &via_jsonl), &want_text);
    }

    /// The same element multiset under a shuffled interning order (elements
    /// and their properties inserted in reverse) must discover an
    /// *identical* serialized schema: vectors key their binary coordinates
    /// on the canonical-id view and `SchemaState::finalize` resolves types
    /// canonically, so neither clustering nor type resolution can see the
    /// interning order.
    #[test]
    fn shuffled_interning_order_discovers_identical_schema(g in arb_graph(false)) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let shuffled = shuffled_interning_rebuild(&g);
        prop_assert_eq!(strict_text(&d, &shuffled), strict_text(&d, &g));
    }

    #[test]
    fn chunking_never_loses_declared_edges(g in arb_graph(false), chunk_size in 1usize..20) {
        let text = save_text(&g);
        let mut reader = ChunkedTextReader::new(PgtSource::new(text.as_bytes()), chunk_size);
        let mut nodes = 0usize;
        let mut edges = 0usize;
        let mut peak = 0usize;
        while let Some(c) = reader.next_chunk().unwrap() {
            nodes += c.node_count();
            edges += c.edge_count();
            peak = peak.max(c.node_count() + c.edge_count());
        }
        prop_assert_eq!(edges, g.edge_count());
        prop_assert!(nodes >= g.node_count(), "stubs only ever add nodes");
        prop_assert_eq!(reader.warnings().unresolved_edges, 0);
        // Budget precheck: a chunk may overshoot by at most one edge plus
        // its two stubs.
        prop_assert!(peak <= chunk_size + 2, "peak {} chunk {}", peak, chunk_size);
    }
}
