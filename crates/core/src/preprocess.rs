//! Stage (b): representation vectors (§4.1), with signature deduplication.
//!
//! Every node becomes `w·Word2Vec(labels) ∥ b_v ∈ {0,1}^K` and every edge
//! `w·Word2Vec(edge) ∥ w·Word2Vec(src) ∥ w·Word2Vec(tgt) ∥ b_e ∈ {0,1}^K`,
//! where `K` is the number of distinct property keys, unlabeled elements get
//! the zero embedding, and multi-label sets are embedded via their sorted
//! concatenation ([`pg_hive_embed::canonical_token`]). The binary property
//! coordinates are keyed on the interner's **canonical-id view**
//! ([`pg_hive_graph::PropertyGraph::canonical_key_ids`]) — the rank of each
//! key in the sorted key table, not its raw intern order — so the same
//! element content yields the same vector (and therefore the same LSH
//! clustering) no matter which order a wire format introduced the keys in. `w` is the
//! `label_weight` factor (see [`crate::config::PipelineConfig`]): the
//! paper's distances come out of raw Word2Vec norms, ours are normalized, so
//! the weight restores "semantically different nodes are not merged due to
//! the same structure".
//!
//! For the MinHash variant the same information is rendered as feature-id
//! *sets*: property keys plus salted copies of the label tokens (copies
//! raise the labels' share of the Jaccard similarity — the set-based
//! analogue of `label_weight`).
//!
//! # Signature deduplication
//!
//! An element's representation is a pure function of its **signature** —
//! for nodes `(labels, property keys)`, for edges `(labels, source labels,
//! target labels, property keys)`. Real property graphs have orders of
//! magnitude fewer distinct signatures than elements (LDBC at 100k nodes
//! has a few dozen), so each distinct signature is embedded **once** into a
//! flat [`VectorMatrix`] row and every element carries only an index into
//! it (`rep_of`). Downstream, LSH runs on the distinct rows and the
//! assignment is broadcast back through `rep_of` — provably the same
//! clustering (identical vectors always share every hash bucket) at a
//! fraction of the hashing and embedding work. See
//! [`crate::cluster::cluster_elements`].

use pg_hive_embed::{canonical_token, LabelEmbedder};
use pg_hive_graph::{EdgeId, GraphBatch, NodeId, PropertyGraph, Symbol};
use pg_hive_lsh::fx::FxHashMap;
use pg_hive_lsh::VectorMatrix;
use std::collections::HashSet;

/// Salted label-feature copies in node sets.
pub const NODE_LABEL_COPIES: usize = 8;
/// Salted copies of the composite edge identity feature
/// `hash(label ⊕ src-labels ⊕ tgt-labels)`. A composite (rather than three
/// independent token features) means a mismatch in *any* component drops
/// the Jaccard similarity below the banding threshold — the set-based
/// analogue of the paper's three concatenated Word2Vec slots, where any
/// differing slot separates the vectors in L2.
pub const EDGE_IDENTITY_COPIES: usize = 12;

/// Deduplicated dense + set representations of one element class.
///
/// `matrix.rows() == sets.len()` is the number of **distinct signatures**;
/// `rep_of.len()` is the number of **elements**, each entry pointing at its
/// signature's row.
#[derive(Debug, Clone, Default)]
pub struct ElementRepr {
    /// One row per distinct signature, dimension `d + K` (nodes) or
    /// `3d + K` (edges).
    pub matrix: VectorMatrix,
    /// One feature-id set per distinct signature (for MinHash).
    pub sets: Vec<Vec<u64>>,
    /// Element → distinct-signature row.
    pub rep_of: Vec<u32>,
    /// Distinct individual labels observed among these elements (the `L`
    /// of the adaptive heuristics).
    pub distinct_labels: usize,
}

impl ElementRepr {
    /// Number of elements represented.
    pub fn len(&self) -> usize {
        self.rep_of.len()
    }

    /// True when no elements are represented.
    pub fn is_empty(&self) -> bool {
        self.rep_of.is_empty()
    }

    /// Number of distinct signatures.
    pub fn distinct(&self) -> usize {
        self.matrix.rows()
    }

    /// Dense vector of element `i` (via its representative row).
    pub fn dense_of(&self, i: usize) -> &[f32] {
        self.matrix.row(self.rep_of[i] as usize)
    }

    /// Feature set of element `i` (via its representative row).
    pub fn set_of(&self, i: usize) -> &[u64] {
        &self.sets[self.rep_of[i] as usize]
    }

    /// Elements per distinct signature (the dedup win; 1.0 = no sharing).
    pub fn dedup_ratio(&self) -> f64 {
        if self.matrix.rows() == 0 {
            1.0
        } else {
            self.len() as f64 / self.distinct() as f64
        }
    }

    /// Expand the dense rows back to one per element — the naive
    /// per-element layout (`dedup: false` runs and equivalence tests).
    pub fn expanded_matrix(&self) -> VectorMatrix {
        let mut matrix = VectorMatrix::with_capacity(self.len(), self.matrix.dim());
        for &r in &self.rep_of {
            matrix.push_row(self.matrix.row(r as usize));
        }
        matrix
    }

    /// Expand the feature sets back to one per element.
    pub fn expanded_sets(&self) -> Vec<Vec<u64>> {
        self.rep_of
            .iter()
            .map(|&r| self.sets[r as usize].clone())
            .collect()
    }
}

/// Representations of a batch's nodes.
#[derive(Debug, Clone)]
pub struct NodeRepr {
    /// The batch's node ids, in representation-row order.
    pub ids: Vec<NodeId>,
    /// Deduplicated representation vectors + per-element `rep_of` map.
    pub repr: ElementRepr,
}

/// Representations of a batch's edges.
#[derive(Debug, Clone)]
pub struct EdgeRepr {
    /// The batch's edge ids, in representation-row order.
    pub ids: Vec<EdgeId>,
    /// Deduplicated representation vectors + per-element `rep_of` map.
    pub repr: ElementRepr,
}

/// Signatures are flat `Vec<u32>` encodings — length-prefixed symbol-id
/// sections in stored order, e.g. a node is `[n_labels, labels…, keys…]`
/// and an edge `[n_labels, n_src, n_tgt, labels…, src…, tgt…, keys…]` (the
/// trailing keys section needs no prefix; its extent is implied). The
/// encoding is injective over the old tuple-of-`Vec` signatures, and a flat
/// key means the dedup **hit path is allocation-free**: each element's
/// signature is encoded into one reusable scratch buffer and looked up by
/// `&[u32]` borrow; the buffer is only moved into the map (one allocation
/// kept) on a distinct-signature miss. Stored order is at least as fine as
/// representation equality — two nodes whose signatures differ only in
/// ordering get separate rows with *equal* vectors, which LSH clusters
/// together anyway.
fn encode_sections(out: &mut Vec<u32>, sections: &[&[Symbol]], keys: impl Iterator<Item = Symbol>) {
    out.clear();
    out.extend(sections.iter().map(|s| s.len() as u32));
    for section in sections {
        out.extend(section.iter().map(|s| s.0));
    }
    out.extend(keys.map(|k| k.0));
}

/// Build deduplicated node representations for `ids` (a batch or the whole
/// graph).
pub fn node_representations(
    g: &PropertyGraph,
    ids: &[NodeId],
    embedder: &dyn LabelEmbedder,
    label_weight: f32,
) -> NodeRepr {
    let d = embedder.dim();
    let key_count = g.keys().len();
    let canon = g.canonical_key_ids();
    let mut repr = ElementRepr {
        matrix: VectorMatrix::new(d + key_count),
        ..ElementRepr::default()
    };
    let mut rows: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut labels_seen: HashSet<u32> = HashSet::new();
    let mut sig: Vec<u32> = Vec::new();

    for &id in ids {
        let n = g.node(id);
        for &l in &n.labels {
            labels_seen.insert(l.0);
        }
        encode_sections(&mut sig, &[&n.labels], n.keys());
        let row = match rows.get(sig.as_slice()) {
            Some(&row) => row,
            None => {
                let row = repr.matrix.rows() as u32;
                let token = token_of(g, &n.labels);
                repr.matrix.push_row_with(|v| {
                    if let Some(tok) = &token {
                        embedder.embed_into(tok, &mut v[..d]);
                        for x in &mut v[..d] {
                            *x *= label_weight;
                        }
                    }
                    for k in n.keys() {
                        v[d + canon[k.index()] as usize] = 1.0;
                    }
                });

                let mut set = Vec::with_capacity(n.props.len() + NODE_LABEL_COPIES);
                if let Some(tok) = &token {
                    push_salted(&mut set, tok, NODE_LABEL_COPIES, 0x4E);
                }
                for k in n.keys() {
                    set.push(feature_hash(g.key_str(k), 0x50));
                }
                repr.sets.push(set);
                rows.insert(std::mem::take(&mut sig), row);
                row
            }
        };
        repr.rep_of.push(row);
    }

    repr.distinct_labels = labels_seen.len();
    NodeRepr {
        ids: ids.to_vec(),
        repr,
    }
}

/// Build deduplicated edge representations for `ids`.
pub fn edge_representations(
    g: &PropertyGraph,
    ids: &[EdgeId],
    embedder: &dyn LabelEmbedder,
    label_weight: f32,
) -> EdgeRepr {
    let d = embedder.dim();
    let key_count = g.keys().len();
    let canon = g.canonical_key_ids();
    let mut repr = ElementRepr {
        matrix: VectorMatrix::new(3 * d + key_count),
        ..ElementRepr::default()
    };
    let mut rows: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut labels_seen: HashSet<u32> = HashSet::new();
    let mut sig: Vec<u32> = Vec::new();

    for &id in ids {
        let e = g.edge(id);
        for &l in &e.labels {
            labels_seen.insert(l.0);
        }
        let (src, tgt) = g.edge_endpoint_labels(e);
        encode_sections(&mut sig, &[&e.labels, src, tgt], e.keys());
        let row = match rows.get(sig.as_slice()) {
            Some(&row) => row,
            None => {
                let row = repr.matrix.rows() as u32;
                let e_tok = token_of(g, &e.labels);
                let s_tok = token_of(g, src);
                let t_tok = token_of(g, tgt);

                repr.matrix.push_row_with(|v| {
                    for (slot, tok) in [(0, &e_tok), (1, &s_tok), (2, &t_tok)] {
                        if let Some(tok) = tok {
                            let range = slot * d..(slot + 1) * d;
                            embedder.embed_into(tok, &mut v[range.clone()]);
                            for x in &mut v[range] {
                                *x *= label_weight;
                            }
                        }
                    }
                    for k in e.keys() {
                        v[3 * d + canon[k.index()] as usize] = 1.0;
                    }
                });

                let mut set = Vec::with_capacity(e.props.len() + EDGE_IDENTITY_COPIES);
                if e_tok.is_some() || s_tok.is_some() || t_tok.is_some() {
                    let identity = format!(
                        "{}\u{1}{}\u{1}{}",
                        e_tok.as_deref().unwrap_or(""),
                        s_tok.as_deref().unwrap_or(""),
                        t_tok.as_deref().unwrap_or("")
                    );
                    push_salted(&mut set, &identity, EDGE_IDENTITY_COPIES, 0xED);
                }
                for k in e.keys() {
                    set.push(feature_hash(g.key_str(k), 0x50));
                }
                repr.sets.push(set);
                rows.insert(std::mem::take(&mut sig), row);
                row
            }
        };
        repr.rep_of.push(row);
    }

    repr.distinct_labels = labels_seen.len();
    EdgeRepr {
        ids: ids.to_vec(),
        repr,
    }
}

/// Label co-occurrence sentences for Word2Vec training (§4.1): one sentence
/// per edge, `[src_token, edge_token, tgt_token]`, plus for every multi-label
/// node a sentence relating its individual labels to the combined token.
pub fn label_sentences(g: &PropertyGraph, batch: &GraphBatch) -> Vec<Vec<String>> {
    let mut sentences = Vec::new();
    for &eid in &batch.edges {
        let e = g.edge(eid);
        let (src, tgt) = g.edge_endpoint_labels(e);
        let mut s = Vec::with_capacity(3);
        if let Some(t) = token_of(g, src) {
            s.push(t);
        }
        if let Some(t) = token_of(g, &e.labels) {
            s.push(t);
        }
        if let Some(t) = token_of(g, tgt) {
            s.push(t);
        }
        if s.len() >= 2 {
            sentences.push(s);
        }
    }
    for &nid in &batch.nodes {
        let n = g.node(nid);
        if n.labels.len() >= 2 {
            let mut s: Vec<String> = n
                .labels
                .iter()
                .map(|&l| g.label_str(l).to_string())
                .collect();
            if let Some(t) = token_of(g, &n.labels) {
                s.push(t);
            }
            sentences.push(s);
        }
    }
    sentences
}

fn token_of(g: &PropertyGraph, labels: &[pg_hive_graph::Symbol]) -> Option<String> {
    let strs: Vec<&str> = labels.iter().map(|&l| g.label_str(l)).collect();
    canonical_token(&strs)
}

/// One element class's dedup structure as the signature-only scan sees it:
/// element → distinct-row map plus the distinct-row count — everything a
/// cached distinct-level clustering needs to be broadcast back to this
/// chunk's elements.
#[derive(Debug, Clone, Default)]
pub struct ScanClass {
    /// Element → distinct-signature row (first-occurrence numbering,
    /// identical to the full preprocess's `rep_of`).
    pub rep_of: Vec<u32>,
    /// Number of distinct signatures.
    pub distinct: usize,
}

/// Result of [`signature_scan`]: the chunk's structural fingerprint and
/// both classes' dedup structure, computed **without** any embedding,
/// matrix, or feature-set work.
#[derive(Debug, Clone)]
pub struct SignatureScan {
    /// 128-bit fingerprint of everything that determines the chunk's
    /// clusterings (see [`signature_scan`]).
    pub fingerprint: u128,
    /// Node dedup structure.
    pub nodes: ScanClass,
    /// Edge dedup structure.
    pub edges: ScanClass,
}

/// Two independent FNV-1a 64 lanes over the same byte stream — a cheap
/// 128-bit structural fingerprint. Strings are delimited with `0xFF` and
/// sections/elements with dedicated `0xF9..0xFE` markers, none of which can
/// occur inside valid UTF-8, so the encoding is injective over the hashed
/// structure.
struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Self {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0xcbf2_9ce4_8422_2325 ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        self.b = (self.b ^ u64::from(x ^ 0xA5)).wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn str(&mut self, s: &str) {
        for &x in s.as_bytes() {
            self.byte(x);
        }
        self.byte(0xFF);
    }

    fn mark(&mut self, m: u8) {
        self.byte(m);
    }

    fn value(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Scan a batch's **signatures only**: compute the chunk's structural
/// fingerprint plus each class's `rep_of`/distinct-count, skipping all
/// embedding, matrix, and feature-set work.
///
/// The fingerprint covers, at the **string** level (symbol ids are
/// chunk-local and deliberately not hashed):
///
/// - the chunk's full property-key table in canonical (sorted) order —
///   this fixes both the representation dimension `d + K` and every key's
///   binary coordinate ([`PropertyGraph::canonical_key_ids`]);
/// - per node, in batch order: its labels and keys in stored order;
/// - per edge, in batch order: its labels, endpoint labels, and keys in
///   stored order.
///
/// Two chunks with equal fingerprints therefore produce identical
/// representation matrices, feature sets, `rep_of` maps, and distinct-label
/// counts — and since the adaptive parameters follow the element and
/// distinct-label counts, and both LSH families are deterministic functions
/// of the matrix or the sets (plus the fixed config), **identical
/// clusterings**. That is the soundness argument for
/// [`crate::sigcache::SignatureCache`]: a cached distinct-level clustering
/// looked up by fingerprint, broadcast through this scan's `rep_of`, equals
/// the clustering the full pipeline would have computed.
pub fn signature_scan(g: &PropertyGraph, batch: &GraphBatch) -> SignatureScan {
    let mut fp = Fingerprint::new();
    // Key universe, canonical order.
    let mut keys: Vec<&str> = g.keys().iter().map(|(_, s)| s).collect();
    keys.sort_unstable();
    fp.mark(0xFE);
    for k in keys {
        fp.str(k);
    }

    let mut nodes = ScanClass::default();
    let mut rows: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut sig: Vec<u32> = Vec::new();
    fp.mark(0xFD);
    for &id in &batch.nodes {
        let n = g.node(id);
        fp.mark(0xFC);
        for &l in &n.labels {
            fp.str(g.label_str(l));
        }
        fp.mark(0xFB);
        for k in n.keys() {
            fp.str(g.key_str(k));
        }
        encode_sections(&mut sig, &[&n.labels], n.keys());
        let next = rows.len() as u32;
        let row = match rows.get(sig.as_slice()) {
            Some(&row) => row,
            None => {
                rows.insert(std::mem::take(&mut sig), next);
                next
            }
        };
        nodes.rep_of.push(row);
    }
    nodes.distinct = rows.len();

    let mut edges = ScanClass::default();
    let mut rows: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    fp.mark(0xFA);
    for &id in &batch.edges {
        let e = g.edge(id);
        let (src, tgt) = g.edge_endpoint_labels(e);
        fp.mark(0xFC);
        for section in [&e.labels[..], src, tgt] {
            for &l in section {
                fp.str(g.label_str(l));
            }
            fp.mark(0xF9);
        }
        fp.mark(0xFB);
        for k in e.keys() {
            fp.str(g.key_str(k));
        }
        encode_sections(&mut sig, &[&e.labels, src, tgt], e.keys());
        let next = rows.len() as u32;
        let row = match rows.get(sig.as_slice()) {
            Some(&row) => row,
            None => {
                rows.insert(std::mem::take(&mut sig), next);
                next
            }
        };
        edges.rep_of.push(row);
    }
    edges.distinct = rows.len();

    SignatureScan {
        fingerprint: fp.value(),
        nodes,
        edges,
    }
}

fn push_salted(set: &mut Vec<u64>, token: &str, copies: usize, salt: u64) {
    for i in 0..copies {
        set.push(feature_hash(token, salt ^ ((i as u64 + 1) << 8)));
    }
}

fn feature_hash(s: &str, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_hive_embed::HashEmbedder;
    use pg_hive_graph::{split_batches, GraphBuilder, Value};

    fn sample_graph() -> PropertyGraph {
        let mut b = GraphBuilder::new();
        let p1 = b.add_node(
            &["Person"],
            &[("name", Value::from("Bob")), ("age", Value::Int(40))],
        );
        let p2 = b.add_node(
            &["Person"],
            &[("name", Value::from("Jo")), ("age", Value::Int(30))],
        );
        let anon = b.add_node(
            &[],
            &[("name", Value::from("Alice")), ("age", Value::Int(20))],
        );
        let org = b.add_node(&["Org"], &[("url", Value::from("x.com"))]);
        b.add_edge(p1, org, &["WORKS_AT"], &[("from", Value::Int(2000))]);
        b.add_edge(p2, org, &["WORKS_AT"], &[]);
        b.add_edge(anon, p1, &["KNOWS"], &[]);
        b.finish()
    }

    fn all_nodes(g: &PropertyGraph) -> Vec<NodeId> {
        g.nodes().map(|(id, _)| id).collect()
    }
    fn all_edges(g: &PropertyGraph) -> Vec<EdgeId> {
        g.edges().map(|(id, _)| id).collect()
    }

    #[test]
    fn node_vector_layout() {
        let g = sample_graph();
        let emb = HashEmbedder::new(8, 1);
        let r = node_representations(&g, &all_nodes(&g), &emb, 2.0);
        // d + K where K = all interned keys (name, age, url, from).
        assert_eq!(r.repr.dense_of(0).len(), 8 + 4);
        // Same labels + same keys ⇒ identical embedding halves.
        assert_eq!(r.repr.dense_of(0)[..8], r.repr.dense_of(1)[..8]);
        // Binary part marks name+age for persons.
        let ones: usize = r.repr.dense_of(0)[8..].iter().map(|&x| x as usize).sum();
        assert_eq!(ones, 2);
        assert_eq!(r.repr.distinct_labels, 2); // Person, Org
    }

    #[test]
    fn duplicate_signatures_share_a_row() {
        let g = sample_graph();
        let emb = HashEmbedder::new(8, 1);
        let r = node_representations(&g, &all_nodes(&g), &emb, 2.0);
        // Both Person nodes have signature (Person | name, age).
        assert_eq!(r.repr.len(), 4);
        assert_eq!(r.repr.distinct(), 3);
        assert_eq!(r.repr.rep_of[0], r.repr.rep_of[1]);
        assert_ne!(r.repr.rep_of[0], r.repr.rep_of[2]);
        assert!((r.repr.dedup_ratio() - 4.0 / 3.0).abs() < 1e-12);
        // The shared row is the same storage, and expansion restores the
        // per-element layout.
        let expanded = r.repr.expanded_matrix();
        let sets = r.repr.expanded_sets();
        assert_eq!(expanded.rows(), 4);
        assert_eq!(expanded.row(1), r.repr.dense_of(1));
        assert_eq!(sets[0], sets[1]);
    }

    #[test]
    fn node_vectors_are_key_interning_order_invariant() {
        // Regression: the binary coordinates used raw intern order, so the
        // same node content produced *permuted* vectors (hence different
        // ELSH projections) when a wire format introduced the keys in a
        // different order.
        let mk = |flipped: bool| {
            let mut b = GraphBuilder::new();
            let props = [("alpha", Value::Int(1)), ("beta", Value::Int(2))];
            if flipped {
                b.add_node(&["T"], &[props[1].clone(), props[0].clone()]);
            } else {
                b.add_node(&["T"], &props);
            }
            b.add_node(&["U"], &[("alpha", Value::Int(3))]);
            b.finish()
        };
        let (g1, g2) = (mk(false), mk(true));
        assert_ne!(
            g1.keys().get("alpha"),
            g2.keys().get("alpha"),
            "the two graphs really intern keys in different orders"
        );
        let emb = HashEmbedder::new(8, 1);
        let r1 = node_representations(&g1, &all_nodes(&g1), &emb, 2.0);
        let r2 = node_representations(&g2, &all_nodes(&g2), &emb, 2.0);
        for i in 0..2 {
            assert_eq!(r1.repr.dense_of(i), r2.repr.dense_of(i), "node {i}");
        }
    }

    #[test]
    fn unlabeled_node_gets_zero_embedding() {
        let g = sample_graph();
        let emb = HashEmbedder::new(8, 1);
        let r = node_representations(&g, &all_nodes(&g), &emb, 2.0);
        assert!(r.repr.dense_of(2)[..8].iter().all(|&x| x == 0.0));
        // ... but same binary part as the labeled persons.
        assert_eq!(r.repr.dense_of(2)[8..], r.repr.dense_of(0)[8..]);
    }

    #[test]
    fn label_weight_scales_embeddings() {
        let g = sample_graph();
        let emb = HashEmbedder::new(8, 1);
        let r1 = node_representations(&g, &all_nodes(&g), &emb, 1.0);
        let r4 = node_representations(&g, &all_nodes(&g), &emb, 4.0);
        for (a, b) in r1.repr.dense_of(0)[..8]
            .iter()
            .zip(&r4.repr.dense_of(0)[..8])
        {
            assert!((4.0 * a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn edge_vector_layout() {
        let g = sample_graph();
        let emb = HashEmbedder::new(8, 1);
        let r = edge_representations(&g, &all_edges(&g), &emb, 2.0);
        assert_eq!(r.repr.dense_of(0).len(), 3 * 8 + 4);
        // Both WORKS_AT edges share all three embedding slots.
        assert_eq!(r.repr.dense_of(0)[..24], r.repr.dense_of(1)[..24]);
        // But differ in the binary part ('from' on the first only) — so
        // they are distinct signatures, not shared rows.
        assert_ne!(r.repr.dense_of(0)[24..], r.repr.dense_of(1)[24..]);
        assert_eq!(r.repr.distinct(), 3);
        assert_eq!(r.repr.distinct_labels, 2); // WORKS_AT, KNOWS
    }

    #[test]
    fn unlabeled_source_zeroes_second_slot() {
        let g = sample_graph();
        let emb = HashEmbedder::new(8, 1);
        let r = edge_representations(&g, &all_edges(&g), &emb, 2.0);
        // Edge 2 is KNOWS from the unlabeled node.
        assert!(r.repr.dense_of(2)[8..16].iter().all(|&x| x == 0.0));
        // Its own label slot is non-zero.
        assert!(r.repr.dense_of(2)[..8].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn node_sets_contain_label_copies_and_keys() {
        let g = sample_graph();
        let emb = HashEmbedder::new(4, 1);
        let r = node_representations(&g, &all_nodes(&g), &emb, 1.0);
        assert_eq!(r.repr.set_of(0).len(), NODE_LABEL_COPIES + 2);
        // Unlabeled: only keys.
        assert_eq!(r.repr.set_of(2).len(), 2);
        // Identical structure+labels ⇒ the same set (same row).
        assert_eq!(r.repr.set_of(0), r.repr.set_of(1));
    }

    #[test]
    fn sentences_from_edges() {
        let g = sample_graph();
        let batches = split_batches(&g, 1, 0);
        let s = label_sentences(&g, &batches[0]);
        assert_eq!(s.len(), 3);
        assert!(s.iter().any(|sent| sent.contains(&"WORKS_AT".to_string())
            && sent.contains(&"Person".to_string())
            && sent.contains(&"Org".to_string())));
        // KNOWS edge from unlabeled Alice: only 2 tokens but still kept.
        assert!(s.iter().any(|sent| sent.len() == 2));
    }

    #[test]
    fn multilabel_node_sentence() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(&["Person", "Student"], &[]);
        let c = b.add_node(&["School"], &[]);
        b.add_edge(a, c, &["ATTENDS"], &[]);
        let g = b.finish();
        let batches = split_batches(&g, 1, 0);
        let s = label_sentences(&g, &batches[0]);
        assert!(s
            .iter()
            .any(|sent| sent.contains(&"Person|Student".to_string())
                && sent.contains(&"Person".to_string())));
    }

    #[test]
    fn empty_batch_empty_reprs() {
        let g = sample_graph();
        let emb = HashEmbedder::new(4, 1);
        let r = node_representations(&g, &[], &emb, 1.0);
        assert!(r.repr.is_empty());
        assert_eq!(r.repr.distinct(), 0);
        assert_eq!(r.repr.distinct_labels, 0);
        assert_eq!(r.repr.dedup_ratio(), 1.0);
    }
}
