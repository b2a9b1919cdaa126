//! Dataset statistics — the columns of Table 2 in the paper.
//!
//! "Node patterns" and "edge patterns" follow Def. 3.5 / Def. 3.6: a node
//! pattern is the pair (label set, property-key set); an edge pattern adds
//! the (source-label-set, target-label-set) endpoint pair.

use crate::graph::PropertyGraph;
use crate::interner::Symbol;
use crate::stream::{LabelSetRegistry, RawGraphSource, RecordBuf, RecordRef, StreamError};
use std::collections::HashSet;

/// Structural statistics of a property graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Total node count.
    pub nodes: usize,
    /// Total edge count.
    pub edges: usize,
    /// Distinct individual node labels.
    pub node_labels: usize,
    /// Distinct individual edge labels.
    pub edge_labels: usize,
    /// Distinct node patterns (Def. 3.5).
    pub node_patterns: usize,
    /// Distinct edge patterns (Def. 3.6).
    pub edge_patterns: usize,
    /// Distinct node label *sets* (a proxy for node types when ground truth
    /// equates a type with its label combination).
    pub node_label_sets: usize,
    /// Distinct edge label sets.
    pub edge_label_sets: usize,
}

impl GraphStats {
    /// Compute all statistics in one pass over nodes and one over edges.
    pub fn compute(g: &PropertyGraph) -> Self {
        let mut node_labels: HashSet<Symbol> = HashSet::new();
        let mut node_label_sets: HashSet<Vec<Symbol>> = HashSet::new();
        let mut node_patterns: HashSet<(Vec<Symbol>, Vec<Symbol>)> = HashSet::new();

        for (_, n) in g.nodes() {
            for &l in &n.labels {
                node_labels.insert(l);
            }
            node_label_sets.insert(n.labels.clone());
            node_patterns.insert((n.labels.clone(), n.keys().collect()));
        }

        let mut edge_labels: HashSet<Symbol> = HashSet::new();
        let mut edge_label_sets: HashSet<Vec<Symbol>> = HashSet::new();
        #[allow(clippy::type_complexity)]
        let mut edge_patterns: HashSet<(
            Vec<Symbol>,
            Vec<Symbol>,
            Vec<Symbol>,
            Vec<Symbol>,
        )> = HashSet::new();

        for (_, e) in g.edges() {
            for &l in &e.labels {
                edge_labels.insert(l);
            }
            edge_label_sets.insert(e.labels.clone());
            let (src, tgt) = g.edge_endpoint_labels(e);
            edge_patterns.insert((
                e.labels.clone(),
                e.keys().collect(),
                src.to_vec(),
                tgt.to_vec(),
            ));
        }

        GraphStats {
            nodes: g.node_count(),
            edges: g.edge_count(),
            node_labels: node_labels.len(),
            edge_labels: edge_labels.len(),
            node_patterns: node_patterns.len(),
            edge_patterns: edge_patterns.len(),
            node_label_sets: node_label_sets.len(),
            edge_label_sets: edge_label_sets.len(),
        }
    }
}

/// Compute [`GraphStats`] straight from a record stream with O(distinct
/// patterns + node ids) memory — no resident graph, no per-chunk stub
/// nodes. Element and pattern counts match [`GraphStats::compute`] on the
/// fully-loaded graph. The fold runs on the calling thread over one reused
/// [`RecordBuf::text_values`] buffer: patterns need property keys only, so
/// no value is ever decoded or parsed.
///
/// Edge patterns need endpoint label sets; a compact id → label-set
/// registry provides them. Edges referencing a node id that only appears
/// *later* in the stream are buffered (bounded at ~1M) and resolved at end
/// of stream. The second return value counts edges whose endpoints were
/// never declared — their patterns fall back to unlabeled endpoints.
pub fn stream_stats<S: RawGraphSource>(mut source: S) -> Result<(GraphStats, u64), StreamError> {
    const PENDING_CAP: usize = 1 << 20;
    let mut nodes = 0usize;
    let mut edges = 0usize;
    let mut node_labels: HashSet<String> = HashSet::new();
    let mut edge_labels: HashSet<String> = HashSet::new();
    let mut node_label_sets: HashSet<Vec<String>> = HashSet::new();
    let mut edge_label_sets: HashSet<Vec<String>> = HashSet::new();
    let mut node_patterns: HashSet<(Vec<String>, Vec<String>)> = HashSet::new();
    #[allow(clippy::type_complexity)]
    let mut edge_patterns: HashSet<(Vec<String>, Vec<String>, Vec<String>, Vec<String>)> =
        HashSet::new();

    let mut registry = LabelSetRegistry::default();
    #[allow(clippy::type_complexity)]
    let mut pending: Vec<(Vec<String>, Vec<String>, String, String)> = Vec::new();
    let mut fallback = 0u64;
    // The registry keeps a node's labels in record order; a pattern needs
    // the set.
    let endpoint = |registry: &LabelSetRegistry, id: &str| {
        registry
            .label_set(id)
            .map(|ls| sorted_set(ls.iter().map(String::as_str)))
    };

    let mut buf = RecordBuf::text_values();
    while source.read_record(&mut buf)? {
        match buf.view() {
            RecordRef::Node { labels, props, .. } => {
                nodes += 1;
                registry.insert_record(&buf);
                let ls = sorted_set(labels.iter());
                let keys = sorted_set(props.iter().map(|p| p.key()));
                node_labels.extend(ls.iter().cloned());
                node_label_sets.insert(ls.clone());
                node_patterns.insert((ls, keys));
            }
            RecordRef::Edge {
                src,
                tgt,
                labels,
                props,
            } => {
                edges += 1;
                let ls = sorted_set(labels.iter());
                let keys = sorted_set(props.iter().map(|p| p.key()));
                edge_labels.extend(ls.iter().cloned());
                edge_label_sets.insert(ls.clone());
                match (endpoint(&registry, src), endpoint(&registry, tgt)) {
                    (Some(s), Some(t)) => {
                        edge_patterns.insert((ls, keys, s, t));
                    }
                    _ if pending.len() < PENDING_CAP => {
                        pending.push((ls, keys, src.to_string(), tgt.to_string()));
                    }
                    (s, t) => {
                        // Buffer overflowed: resolve now with what we have.
                        fallback += 1;
                        edge_patterns.insert((
                            ls,
                            keys,
                            s.unwrap_or_default(),
                            t.unwrap_or_default(),
                        ));
                    }
                }
            }
        }
    }
    for (ls, keys, src, tgt) in pending {
        let (s, t) = match (endpoint(&registry, &src), endpoint(&registry, &tgt)) {
            (Some(s), Some(t)) => (s, t),
            (s, t) => {
                fallback += 1;
                (s.unwrap_or_default(), t.unwrap_or_default())
            }
        };
        edge_patterns.insert((ls, keys, s, t));
    }

    Ok((
        GraphStats {
            nodes,
            edges,
            node_labels: node_labels.len(),
            edge_labels: edge_labels.len(),
            node_patterns: node_patterns.len(),
            edge_patterns: edge_patterns.len(),
            node_label_sets: node_label_sets.len(),
            edge_label_sets: edge_label_sets.len(),
        },
        fallback,
    ))
}

/// The sorted, deduplicated set of `items`.
fn sorted_set<'a>(items: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut set: Vec<String> = items.map(str::to_string).collect();
    set.sort_unstable();
    set.dedup();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::value::Value;

    /// The Figure 1 example graph from the paper.
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
    fn figure1_statistics_match_example2() {
        let g = figure1();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 7);
        assert_eq!(s.edges, 7);
        // Labels: Person, Post, Org, Place.
        assert_eq!(s.node_labels, 4);
        // Edge labels: KNOWS, LIKES, WORKS_AT, LOCATED_IN.
        assert_eq!(s.edge_labels, 4);
        // Example 2 lists exactly 6 node patterns TNp1..TNp6.
        assert_eq!(s.node_patterns, 6);
        // Example 2 lists exactly 6 edge patterns TEp1..TEp6. Note
        // KNOWS(Alice->John) has an unlabeled source so its endpoint pair is
        // ({}, {Person}) — the paper groups it under TEp2 via the *type*
        // ({Person},{Person}) after Alice is typed, but at raw-pattern level
        // it is distinct; TEp3's two LIKES instances also differ at raw level
        // ({} vs {Person} source). The raw count is therefore 7.
        assert_eq!(s.edge_patterns, 7);
        // Label sets: {Person}, {} , {Post}, {Org}, {Place}.
        assert_eq!(s.node_label_sets, 5);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let s = GraphStats::compute(&PropertyGraph::new());
        assert_eq!(
            s,
            GraphStats {
                nodes: 0,
                edges: 0,
                node_labels: 0,
                edge_labels: 0,
                node_patterns: 0,
                edge_patterns: 0,
                node_label_sets: 0,
                edge_label_sets: 0,
            }
        );
    }

    #[test]
    fn stream_stats_matches_compute() {
        let g = figure1();
        let text = crate::loader::save_text(&g);
        let (streamed, fallback) =
            stream_stats(crate::stream::pgt::PgtSource::new(text.as_bytes())).unwrap();
        assert_eq!(fallback, 0);
        assert_eq!(streamed, GraphStats::compute(&g));
        // Label order within a record makes no new set or pattern.
        let text = "N a A;B -\nN b B;A -\nE a b X -\nE b a X -\n";
        let (streamed, _) =
            stream_stats(crate::stream::pgt::PgtSource::new(text.as_bytes())).unwrap();
        let resident = GraphStats::compute(&crate::loader::load_text(text).unwrap());
        assert_eq!(streamed, resident);
        assert_eq!(streamed.edge_patterns, 1);
    }

    #[test]
    fn stream_stats_resolves_forward_references() {
        let text = "E a b KNOWS -\nN a Person x=1\nN b Person -\n";
        let (s, fallback) =
            stream_stats(crate::stream::pgt::PgtSource::new(text.as_bytes())).unwrap();
        assert_eq!(fallback, 0);
        assert_eq!(s.edges, 1);
        assert_eq!(s.edge_patterns, 1);
        // Truly dangling endpoints are counted and fall back to unlabeled.
        let text = "N a Person -\nE a ghost KNOWS -\n";
        let (s, fallback) =
            stream_stats(crate::stream::pgt::PgtSource::new(text.as_bytes())).unwrap();
        assert_eq!(fallback, 1);
        assert_eq!(s.edges, 1);
    }

    #[test]
    fn multilabel_nodes_count_individual_labels() {
        let mut b = GraphBuilder::new();
        b.add_node(&["Person", "Student"], &[]);
        b.add_node(&["Person", "Athlete"], &[]);
        let g = b.finish();
        let s = GraphStats::compute(&g);
        assert_eq!(s.node_labels, 3); // Person, Student, Athlete
        assert_eq!(s.node_label_sets, 2);
        assert_eq!(s.node_patterns, 2);
    }
}
