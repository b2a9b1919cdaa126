//! Graph construction API.

use crate::element::{Edge, EdgeId, Node, NodeId};
use crate::graph::PropertyGraph;
use crate::value::Value;

/// Incremental builder for [`PropertyGraph`].
///
/// Canonicalizes as it goes: label sets are sorted alphabetically and
/// deduplicated (the paper sorts multi-label sets "alphabetically for
/// uniformity", §4.1), and property maps are sorted by key with last-write-
/// wins semantics on duplicates.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: PropertyGraph,
}

impl GraphBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with capacity hints for the expected node/edge counts.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut b = Self::new();
        b.graph.nodes.reserve(nodes);
        b.graph.edges.reserve(edges);
        b
    }

    /// Add a node with the given labels and properties; returns its id.
    pub fn add_node(&mut self, labels: &[&str], props: &[(&str, Value)]) -> NodeId {
        let labels = self.intern_labels(labels);
        let props = self.intern_props(props);
        let id = NodeId(self.graph.nodes.len() as u32);
        self.graph.nodes.push(Node { labels, props });
        id
    }

    /// Add an edge between existing nodes; returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint id was not minted by this builder.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        tgt: NodeId,
        labels: &[&str],
        props: &[(&str, Value)],
    ) -> EdgeId {
        assert!(
            src.index() < self.graph.nodes.len() && tgt.index() < self.graph.nodes.len(),
            "edge endpoints must refer to existing nodes"
        );
        let labels = self.intern_labels(labels);
        let props = self.intern_props(props);
        let id = EdgeId(self.graph.edges.len() as u32);
        self.graph.edges.push(Edge {
            src,
            tgt,
            labels,
            props,
        });
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.graph.edges.len()
    }

    /// Finalize into an immutable graph.
    pub fn finish(self) -> PropertyGraph {
        self.graph
    }

    /// Add the node record held in `buf`, interning labels/keys straight
    /// from the borrowed spans and **moving** the property values out of
    /// the buffer (the zero-copy streaming path).
    pub(crate) fn add_node_from_buf(&mut self, buf: &mut crate::stream::RecordBuf) -> NodeId {
        let labels = self.intern_labels_from_buf(buf);
        let props = self.intern_props_from_buf(buf);
        let id = NodeId(self.graph.nodes.len() as u32);
        self.graph.nodes.push(Node { labels, props });
        id
    }

    /// Add the edge record held in `buf` between already-resolved
    /// endpoints; same canonicalization as [`Self::add_edge`].
    pub(crate) fn add_edge_from_buf(
        &mut self,
        src: NodeId,
        tgt: NodeId,
        buf: &mut crate::stream::RecordBuf,
    ) -> EdgeId {
        assert!(
            src.index() < self.graph.nodes.len() && tgt.index() < self.graph.nodes.len(),
            "edge endpoints must refer to existing nodes"
        );
        let labels = self.intern_labels_from_buf(buf);
        let props = self.intern_props_from_buf(buf);
        let id = EdgeId(self.graph.edges.len() as u32);
        self.graph.edges.push(Edge {
            src,
            tgt,
            labels,
            props,
        });
        id
    }

    /// Intern a single label into this graph's label table.
    pub(crate) fn intern_label(&mut self, label: &str) -> crate::Symbol {
        self.graph.labels.intern(label)
    }

    /// Add a property-less node whose labels are **already canonical**
    /// (sorted, deduplicated) symbols of this builder's label table — the
    /// stub-endpoint fast path, which skips re-sorting per stub. The node is
    /// marked as a stub ([`PropertyGraph::is_stub`]), so the discovery
    /// pipeline keeps its labels for edge endpoints but never counts it as
    /// an instance.
    pub(crate) fn add_node_syms(&mut self, labels: Vec<crate::Symbol>) -> NodeId {
        let id = NodeId(self.graph.nodes.len() as u32);
        self.graph.nodes.push(Node {
            labels,
            props: Vec::new(),
        });
        self.graph.mark_stub(id);
        id
    }

    /// Add a **stub** endpoint node: property-less, carrying only a label
    /// set, and marked so [`PropertyGraph::is_stub`] reports it. Used when
    /// re-materializing a cross-shard edge whose endpoint was declared (and
    /// counted) in another shard's input — the stub contributes the edge's
    /// endpoint labels without double-counting the node.
    pub fn add_stub_node(&mut self, labels: &[&str]) -> NodeId {
        let labels = self.intern_labels(labels);
        let id = NodeId(self.graph.nodes.len() as u32);
        self.graph.nodes.push(Node {
            labels,
            props: Vec::new(),
        });
        self.graph.mark_stub(id);
        id
    }

    fn intern_labels_from_buf(&mut self, buf: &crate::stream::RecordBuf) -> Vec<crate::Symbol> {
        match buf.labels.len() {
            0 => Vec::new(),
            // The overwhelmingly common single-label case needs no sorting
            // scratch at all.
            1 => vec![self.graph.labels.intern(buf.str(buf.labels[0]))],
            _ => {
                let mut sorted: Vec<&str> = buf.labels.iter().map(|&s| buf.str(s)).collect();
                sorted.sort_unstable();
                sorted.dedup();
                sorted
                    .into_iter()
                    .map(|l| self.graph.labels.intern(l))
                    .collect()
            }
        }
    }

    fn intern_props_from_buf(
        &mut self,
        buf: &mut crate::stream::RecordBuf,
    ) -> Vec<(crate::Symbol, Value)> {
        debug_assert!(buf.prop_texts.is_empty(), "graphs take parsed values");
        let text = &buf.text;
        let mut out: Vec<(crate::Symbol, Value)> = buf
            .props
            .drain(..)
            .map(|(k, v)| {
                (
                    self.graph
                        .keys
                        .intern(crate::stream::raw::span_str(text, k)),
                    v,
                )
            })
            .collect();
        if out.len() > 1 {
            out.sort_by_key(|(k, _)| *k);
            // Last write wins on duplicate keys.
            out.dedup_by(|a, b| {
                a.0 == b.0 && {
                    b.1 = a.1.clone();
                    true
                }
            });
        }
        out
    }

    fn intern_labels(&mut self, labels: &[&str]) -> Vec<crate::Symbol> {
        let mut sorted: Vec<&str> = labels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted
            .into_iter()
            .map(|l| self.graph.labels.intern(l))
            .collect()
    }

    fn intern_props(&mut self, props: &[(&str, Value)]) -> Vec<(crate::Symbol, Value)> {
        let mut out: Vec<(crate::Symbol, Value)> = props
            .iter()
            .map(|(k, v)| (self.graph.keys.intern(k), v.clone()))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        // Last write wins on duplicate keys.
        out.dedup_by(|a, b| {
            a.0 == b.0 && {
                b.1 = a.1.clone();
                true
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_sorted_and_deduped() {
        let mut b = GraphBuilder::new();
        let n = b.add_node(&["Student", "Person", "Student"], &[]);
        let g = b.finish();
        let labels: Vec<&str> = g.node(n).labels.iter().map(|&l| g.label_str(l)).collect();
        assert_eq!(labels, vec!["Person", "Student"]);
    }

    #[test]
    fn props_are_sorted_by_key_symbol() {
        let mut b = GraphBuilder::new();
        let n = b.add_node(
            &["Person"],
            &[
                ("name", Value::from("Bob")),
                ("age", Value::Int(45)),
                ("bday", Value::from("1980-05-02")),
            ],
        );
        let g = b.finish();
        let node = g.node(n);
        let mut prev = None;
        for (k, _) in &node.props {
            if let Some(p) = prev {
                assert!(*k > p);
            }
            prev = Some(*k);
        }
        assert_eq!(
            node.get(g.keys().get("age").unwrap()),
            Some(&Value::Int(45))
        );
    }

    #[test]
    fn duplicate_props_last_write_wins() {
        let mut b = GraphBuilder::new();
        let n = b.add_node(&[], &[("x", Value::Int(1)), ("x", Value::Int(2))]);
        let g = b.finish();
        let k = g.keys().get("x").unwrap();
        assert_eq!(g.node(n).get(k), Some(&Value::Int(2)));
        assert_eq!(g.node(n).props.len(), 1);
    }

    #[test]
    #[should_panic(expected = "edge endpoints")]
    fn dangling_edge_panics() {
        let mut b = GraphBuilder::new();
        let n = b.add_node(&[], &[]);
        b.add_edge(n, NodeId(99), &["X"], &[]);
    }

    #[test]
    fn capacity_builder_counts() {
        let mut b = GraphBuilder::with_capacity(10, 10);
        b.add_node(&["A"], &[]);
        assert_eq!(b.node_count(), 1);
        assert_eq!(b.edge_count(), 0);
    }
}
