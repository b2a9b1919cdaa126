//! The canonical, mergeable schema core: [`SchemaState`].
//!
//! A discovered schema should be a function of the *graph*, not of the byte
//! order the graph arrived in. The historical pipeline merged every chunk's
//! candidate types directly into a growing [`SchemaGraph`] with the greedy
//! Algorithm-2 rules, so the outcome of unlabeled-cluster resolution (and
//! the order of the serialized types) depended on chunk arrival order and
//! on each chunk's interning order. `SchemaState` separates the two phases:
//!
//! 1. **Absorb** (associative + commutative): labeled types pool into a
//!    `BTreeMap` keyed by label set; unresolved abstract (unlabeled)
//!    patterns pool into a `BTreeMap` keyed by property-key set. Every leaf
//!    operation — label union, occurrence addition, kind lattice join,
//!    endpoint union, cardinality maximum — is order-insensitive, so
//!    absorbing chunk states in *any* order (serial, a shard merge tree, a
//!    `watch` pass) produces the same state.
//! 2. **Finalize** (deterministic): abstract patterns are resolved against
//!    the pooled labeled types with the Jaccard-θ rules of Algorithm 2, in
//!    canonical (sorted key-set) order, and the resulting [`SchemaGraph`]
//!    is canonically sorted — so serialization is byte-stable.
//!
//! The split is what makes drift monitoring cheap: `pg-hive watch` keeps
//! one resident `SchemaState`, absorbs only the chunks appended since the
//! previous pass, and re-finalizes — no full re-discovery per pass.
//!
//! [`SchemaState::postprocess`] fills datatypes and cardinalities from the
//! graph the pooled types' member lists point into. The full scan runs in
//! element order: one pass over the nodes and one over the edges, each
//! joining the kinds of every pooled type that lists the element. The
//! sampled mode (`--sample`) runs per type, on a seeded sample of that
//! type's members.
//!
//! ## Concurrency contract
//!
//! Every absorb entry point ([`SchemaState::absorb_node_candidates`],
//! [`SchemaState::absorb_edge_candidates`], [`SchemaState::absorb_schema`],
//! [`SchemaState::merge`]) deliberately takes `&mut self`: mutation is
//! serialized by the **type system**, not by hidden interior locking.
//! A concurrent holder (the multi-tenant server in
//! [`crate::serve`], a parallel fold) must wrap the state in its own
//! `Mutex` and follow a strict lock order — any shared map that *locates*
//! states is locked strictly above the per-state mutex and released before
//! it is taken (see the [`crate::serve`] module docs for the two-level
//! order the server uses). Because absorb is associative and commutative,
//! coarse per-state locking costs no correctness: whichever interleaving
//! the lock admits finalizes to the same canonical schema.

use crate::config::SamplingConfig;
use crate::extract::{merge_edge_candidates, merge_node_candidates};
use crate::postprocess::{
    compute_edge_type_cardinality, infer_edge_type_datatypes, infer_node_type_datatypes,
    join_kinds_in_element_order,
};
use crate::schema::{EdgeType, LabelSet, NodeType, SchemaGraph};
use pg_hive_graph::PropertyGraph;
use std::collections::{BTreeMap, BTreeSet};

/// A property-key set — the pool key for unresolved abstract patterns.
type KeySet = BTreeSet<String>;

/// Order-invariant, mergeable discovery state (see the [module docs](self)).
///
/// ```
/// use pg_hive_core::state::SchemaState;
/// use pg_hive_core::{Discoverer, PipelineConfig};
/// use pg_hive_graph::{GraphBuilder, Value};
///
/// let chunk = |name: &str| {
///     let mut b = GraphBuilder::new();
///     b.add_node(&["Person"], &[("name", Value::from(name))]);
///     b.finish()
/// };
/// let d = Discoverer::new(PipelineConfig::elsh_adaptive());
/// let (a, b) = (d.discover_chunk_state(&chunk("Ann")), d.discover_chunk_state(&chunk("Bob")));
/// // absorb is commutative: a⊕b and b⊕a finalize identically.
/// let (mut ab, mut ba) = (d.new_state(), d.new_state());
/// ab.merge(a.clone());
/// ab.merge(b.clone());
/// ba.merge(b);
/// ba.merge(a);
/// assert_eq!(ab.finalize(), ba.finalize());
/// assert_eq!(ab.finalize().node_types[0].instance_count, 2);
/// ```
#[derive(Debug, Clone)]
pub struct SchemaState {
    pub(crate) theta: f64,
    pub(crate) labeled_nodes: BTreeMap<LabelSet, NodeType>,
    pub(crate) abstract_nodes: BTreeMap<KeySet, NodeType>,
    pub(crate) labeled_edges: BTreeMap<LabelSet, EdgeType>,
    pub(crate) abstract_edges: BTreeMap<KeySet, EdgeType>,
    /// Labeled node pools touched since the last [`Self::finalize_cached`].
    dirty_nodes: BTreeSet<LabelSet>,
    /// Labeled edge pools touched since the last [`Self::finalize_cached`].
    dirty_edges: BTreeSet<LabelSet>,
    /// Set by any mutation the per-pool dirty sets cannot describe
    /// (abstract absorbs, post-processing, member clears) — forces the
    /// next [`Self::finalize_cached`] to recompute from scratch.
    dirty_all: bool,
    /// The last finalized schema, reusable while nothing is dirty and
    /// patchable per-pool while the state has no abstract patterns.
    finalize_cache: Option<SchemaGraph>,
}

impl SchemaState {
    /// Empty state with the given Jaccard merge threshold θ.
    pub fn new(theta: f64) -> Self {
        Self {
            theta,
            labeled_nodes: BTreeMap::new(),
            abstract_nodes: BTreeMap::new(),
            labeled_edges: BTreeMap::new(),
            abstract_edges: BTreeMap::new(),
            dirty_nodes: BTreeSet::new(),
            dirty_edges: BTreeSet::new(),
            dirty_all: false,
            finalize_cache: None,
        }
    }

    /// The Jaccard threshold used by [`Self::finalize`].
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// True when nothing has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.labeled_nodes.is_empty()
            && self.abstract_nodes.is_empty()
            && self.labeled_edges.is_empty()
            && self.abstract_edges.is_empty()
    }

    /// Pooled type count (labeled + unresolved abstract, nodes + edges) —
    /// an upper bound on the finalized schema's type count.
    pub fn pooled_types(&self) -> usize {
        self.labeled_nodes.len()
            + self.abstract_nodes.len()
            + self.labeled_edges.len()
            + self.abstract_edges.len()
    }

    /// Absorb candidate node types (e.g. one chunk's clusters summarized by
    /// [`crate::extract::candidate_node_types`]). Labeled candidates pool by
    /// label set; unlabeled ones pool by key set and stay unresolved until
    /// [`Self::finalize`].
    ///
    /// Takes `&mut self` by contract (see the [module docs](self)
    /// "Concurrency contract"): shared holders guard the state with one
    /// mutex held for the whole absorb, locked *below* any map that
    /// locates states.
    pub fn absorb_node_candidates(&mut self, cands: Vec<NodeType>) {
        for cand in cands {
            if cand.labels.is_empty() {
                // Abstract patterns participate in global Jaccard-θ
                // resolution — no per-pool patch can describe their effect.
                self.dirty_all = true;
                pool(
                    &mut self.abstract_nodes,
                    key_set(&cand.props),
                    cand,
                    |a, b| a.absorb(b),
                );
            } else {
                self.dirty_nodes.insert(cand.labels.clone());
                pool(
                    &mut self.labeled_nodes,
                    cand.labels.clone(),
                    cand,
                    |a, b| a.absorb(b),
                );
            }
        }
    }

    /// Absorb candidate edge types (see [`Self::absorb_node_candidates`]).
    pub fn absorb_edge_candidates(&mut self, cands: Vec<EdgeType>) {
        for cand in cands {
            if cand.labels.is_empty() {
                self.dirty_all = true;
                pool(
                    &mut self.abstract_edges,
                    key_set(&cand.props),
                    cand,
                    |a, b| a.absorb(b),
                );
            } else {
                self.dirty_edges.insert(cand.labels.clone());
                pool(
                    &mut self.labeled_edges,
                    cand.labels.clone(),
                    cand,
                    |a, b| a.absorb(b),
                );
            }
        }
    }

    /// Absorb a whole schema (e.g. a previously serialized snapshot): its
    /// types are treated as candidates.
    pub fn absorb_schema(&mut self, schema: SchemaGraph) {
        self.absorb_node_candidates(schema.node_types);
        self.absorb_edge_candidates(schema.edge_types);
    }

    /// Merge another state into this one. Associative and commutative:
    /// `a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ c` and `a ⊕ b = b ⊕ a` up to member-list
    /// order (member ids are chunk-local and cleared on streaming paths).
    /// Keeps `self`'s θ.
    pub fn merge(&mut self, other: SchemaState) {
        for (_, t) in other.labeled_nodes {
            self.absorb_node_candidates(vec![t]);
        }
        for (_, t) in other.abstract_nodes {
            self.absorb_node_candidates(vec![t]);
        }
        for (_, t) in other.labeled_edges {
            self.absorb_edge_candidates(vec![t]);
        }
        for (_, t) in other.abstract_edges {
            self.absorb_edge_candidates(vec![t]);
        }
    }

    /// Run post-processing (datatype inference, cardinalities — stages
    /// (e)–(g)) over every pooled type's members against `g`. Without
    /// `sampling`, datatypes come from one pass over `g`'s nodes and one
    /// over its edges, in element order, joining every pooled type's kinds
    /// at once; with it, each type samples its own members. Kinds are
    /// lattice joins and cardinality bounds are maxima, so re-running after
    /// more batches were absorbed only ever refines monotonically.
    pub fn postprocess(&mut self, g: &PropertyGraph, sampling: Option<&SamplingConfig>) {
        self.dirty_all = true;
        let nodes = self
            .labeled_nodes
            .values_mut()
            .chain(self.abstract_nodes.values_mut());
        let edges = self
            .labeled_edges
            .values_mut()
            .chain(self.abstract_edges.values_mut());
        match sampling {
            None => {
                let nodes = nodes
                    .map(|t| (&mut t.props, t.members.as_slice()))
                    .collect();
                let node_props = g.nodes().map(|(_, n)| n.props.as_slice());
                join_kinds_in_element_order(nodes, g.keys(), g.node_count(), node_props);
                let edges = edges
                    .map(|t| (&mut t.props, t.members.as_slice()))
                    .collect();
                let edge_props = g.edges().map(|(_, e)| e.props.as_slice());
                join_kinds_in_element_order(edges, g.keys(), g.edge_count(), edge_props);
            }
            Some(sampling) => {
                nodes.for_each(|t| infer_node_type_datatypes(t, g, sampling));
                edges.for_each(|t| infer_edge_type_datatypes(t, g, sampling));
            }
        }
        for t in self
            .labeled_edges
            .values_mut()
            .chain(self.abstract_edges.values_mut())
        {
            compute_edge_type_cardinality(t, g);
        }
    }

    /// Drop all member lists — mandatory before a chunk-local state leaves
    /// its chunk (the ids are chunk-local and die with it).
    pub fn clear_members(&mut self) {
        self.dirty_all = true;
        for t in self.labeled_nodes.values_mut() {
            t.members.clear();
        }
        for t in self.abstract_nodes.values_mut() {
            t.members.clear();
        }
        for t in self.labeled_edges.values_mut() {
            t.members.clear();
        }
        for t in self.abstract_edges.values_mut() {
            t.members.clear();
        }
    }

    /// Resolve the pooled state into a canonical [`SchemaGraph`]:
    ///
    /// 1. labeled types enter in sorted label-set order;
    /// 2. abstract patterns are resolved in sorted key-set order with the
    ///    Jaccard-θ rules of Algorithm 2 (best labeled match, then
    ///    abstract-vs-abstract, else a new ABSTRACT type);
    /// 3. the result is canonically sorted, so equal states serialize to
    ///    byte-identical text.
    ///
    /// Non-consuming: a long-running `watch` finalizes after every pass
    /// while keeping the state resident.
    pub fn finalize(&self) -> SchemaGraph {
        let mut schema = SchemaGraph {
            node_types: self.labeled_nodes.values().cloned().collect(),
            edge_types: self.labeled_edges.values().cloned().collect(),
        };
        merge_node_candidates(
            &mut schema,
            self.abstract_nodes.values().cloned().collect(),
            self.theta,
        );
        merge_edge_candidates(
            &mut schema,
            self.abstract_edges.values().cloned().collect(),
            self.theta,
        );
        schema.sort_canonical();
        schema
    }

    /// [`Self::finalize`] with **incremental reuse** — always returns the
    /// exact schema `finalize()` would (the pure path stays the equality
    /// oracle; the equivalence suite proptests the identity), but spends
    /// only O(what changed since the previous call):
    ///
    /// - nothing absorbed since the last call → the cached schema is
    ///   returned as-is (a no-op `watch` pass finalizes in O(1));
    /// - only labeled pools were touched and the state holds **no**
    ///   abstract patterns → the cached schema is patched at exactly the
    ///   dirty label sets (labeled finalization is per-pool independent:
    ///   each labeled type maps to one schema type, so replacing the dirty
    ///   entries and re-sorting reproduces the full recompute);
    /// - anything else (abstract absorbs, post-processing, member clears)
    ///   → full recompute. Abstract patterns resolve against *all* labeled
    ///   types with the global Jaccard-θ rules of Algorithm 2, so a
    ///   labeled change can flip a resolution decision — no sound per-pool
    ///   patch exists and the cache is rebuilt instead.
    ///
    /// Abstract pools only ever grow, so "no abstract patterns now"
    /// guarantees the cached schema was also computed without any — the
    /// patch never has to undo a resolution.
    pub fn finalize_cached(&mut self) -> SchemaGraph {
        let clean = self.dirty_nodes.is_empty() && self.dirty_edges.is_empty() && !self.dirty_all;
        let patchable =
            !self.dirty_all && self.abstract_nodes.is_empty() && self.abstract_edges.is_empty();
        let fresh = match self.finalize_cache.take() {
            Some(cached) if clean => cached,
            Some(mut cached) if patchable => {
                for labels in &self.dirty_nodes {
                    let t = self.labeled_nodes[labels].clone();
                    match cached.node_type_by_labels(labels) {
                        Some(i) => cached.node_types[i] = t,
                        None => cached.node_types.push(t),
                    }
                }
                for labels in &self.dirty_edges {
                    let t = self.labeled_edges[labels].clone();
                    match cached.edge_type_by_labels(labels) {
                        Some(i) => cached.edge_types[i] = t,
                        None => cached.edge_types.push(t),
                    }
                }
                cached.sort_canonical();
                cached
            }
            _ => self.finalize(),
        };
        self.dirty_nodes.clear();
        self.dirty_edges.clear();
        self.dirty_all = false;
        self.finalize_cache = Some(fresh.clone());
        fresh
    }
}

/// Absorb `cand` into the pool entry at `key`, or insert it.
fn pool<K: Ord, T>(map: &mut BTreeMap<K, T>, key: K, cand: T, absorb: impl FnOnce(&mut T, T)) {
    match map.entry(key) {
        std::collections::btree_map::Entry::Occupied(mut e) => absorb(e.get_mut(), cand),
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(cand);
        }
    }
}

fn key_set(props: &BTreeMap<String, crate::schema::PropertySpec>) -> KeySet {
    props.keys().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{label_set, PropertySpec};

    fn node_type(labels: &[&str], keys: &[&str], count: u64) -> NodeType {
        NodeType {
            labels: label_set(labels),
            props: keys
                .iter()
                .map(|k| {
                    (
                        k.to_string(),
                        PropertySpec {
                            occurrences: count,
                            kind: None,
                        },
                    )
                })
                .collect(),
            instance_count: count,
            members: vec![],
        }
    }

    #[test]
    fn absorb_pools_labeled_by_label_set() {
        let mut s = SchemaState::new(0.9);
        s.absorb_node_candidates(vec![
            node_type(&["Person"], &["name"], 2),
            node_type(&["Person"], &["age"], 3),
            node_type(&["Org"], &["url"], 1),
        ]);
        let out = s.finalize();
        assert_eq!(out.node_types.len(), 2);
        let person = out.node_type_by_labels(&label_set(&["Person"])).unwrap();
        assert_eq!(out.node_types[person].instance_count, 5);
        assert!(out.node_types[person].props.contains_key("age"));
    }

    #[test]
    fn abstract_patterns_stay_pooled_until_finalize() {
        let mut s = SchemaState::new(0.9);
        s.absorb_node_candidates(vec![node_type(&[], &["name", "age"], 1)]);
        s.absorb_node_candidates(vec![node_type(&[], &["name", "age"], 2)]);
        assert_eq!(s.pooled_types(), 1, "same key set pools into one pattern");
        // No labeled match yet: finalize emits one ABSTRACT type.
        let out = s.finalize();
        assert_eq!(out.node_types.len(), 1);
        assert!(out.node_types[0].is_abstract());
        assert_eq!(out.node_types[0].instance_count, 3);

        // A labeled type with the same keys arrives later — resolution at
        // finalize time folds the whole pattern in, regardless of which
        // arrived first.
        s.absorb_node_candidates(vec![node_type(&["Person"], &["name", "age"], 4)]);
        let out = s.finalize();
        assert_eq!(out.node_types.len(), 1);
        assert_eq!(out.node_types[0].labels, label_set(&["Person"]));
        assert_eq!(out.node_types[0].instance_count, 7);
    }

    #[test]
    fn merge_is_commutative_and_grouping_invariant() {
        let parts: Vec<SchemaState> = (0..4u64)
            .map(|i| {
                let mut s = SchemaState::new(0.9);
                s.absorb_node_candidates(vec![
                    node_type(&["Person"], &["name"], i + 1),
                    node_type(&[], &["x", "y"], 1),
                ]);
                s.absorb_edge_candidates(vec![EdgeType {
                    labels: label_set(&["KNOWS"]),
                    props: BTreeMap::new(),
                    endpoints: [(label_set(&["Person"]), label_set(&["Person"]))].into(),
                    instance_count: i + 1,
                    members: vec![],
                    cardinality: None,
                }]);
                s
            })
            .collect();

        // Left fold in order vs reverse order vs pairwise tree.
        let fold = |order: &[usize]| {
            let mut acc = SchemaState::new(0.9);
            for &i in order {
                acc.merge(parts[i].clone());
            }
            acc.finalize()
        };
        let a = fold(&[0, 1, 2, 3]);
        let b = fold(&[3, 1, 0, 2]);
        let mut left = SchemaState::new(0.9);
        left.merge(parts[0].clone());
        left.merge(parts[1].clone());
        let mut right = SchemaState::new(0.9);
        right.merge(parts[2].clone());
        right.merge(parts[3].clone());
        left.merge(right);
        let c = left.finalize();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.node_instances(), 4 + 3 + 2 + 1 + 4);
    }

    #[test]
    fn finalize_is_canonically_sorted_and_repeatable() {
        let mut s = SchemaState::new(0.9);
        s.absorb_node_candidates(vec![
            node_type(&["Zed"], &[], 1),
            node_type(&["Alpha"], &[], 1),
            node_type(&[], &["zz"], 1),
        ]);
        let out = s.finalize();
        assert_eq!(out, s.finalize(), "finalize is pure");
        let labels: Vec<String> = out
            .node_types
            .iter()
            .map(|t| t.labels.iter().cloned().collect::<Vec<_>>().join("|"))
            .collect();
        assert_eq!(labels, vec!["", "Alpha", "Zed"], "canonical order");
    }

    #[test]
    fn finalize_cached_equals_full_finalize_across_interleavings() {
        let mut s = SchemaState::new(0.9);
        // Cold call (no cache yet).
        assert_eq!(s.finalize_cached(), s.finalize());
        // Labeled-only appends: the patch path.
        s.absorb_node_candidates(vec![node_type(&["Person"], &["name"], 2)]);
        s.absorb_edge_candidates(vec![EdgeType {
            labels: label_set(&["KNOWS"]),
            props: BTreeMap::new(),
            endpoints: [(label_set(&["Person"]), label_set(&["Person"]))].into(),
            instance_count: 1,
            members: vec![],
            cardinality: None,
        }]);
        assert_eq!(s.finalize_cached(), s.finalize());
        // No-op pass: cached clone.
        assert_eq!(s.finalize_cached(), s.finalize());
        // Append into an existing pool and a brand-new pool.
        s.absorb_node_candidates(vec![
            node_type(&["Person"], &["age"], 3),
            node_type(&["Org"], &["url"], 1),
        ]);
        assert_eq!(s.finalize_cached(), s.finalize());
        // An abstract pattern arrives: forces and keeps forcing the full
        // path (resolution is global).
        s.absorb_node_candidates(vec![node_type(&[], &["name", "age"], 1)]);
        assert_eq!(s.finalize_cached(), s.finalize());
        s.absorb_node_candidates(vec![node_type(&["Person"], &["name"], 1)]);
        assert_eq!(s.finalize_cached(), s.finalize());
        assert_eq!(s.finalize_cached(), s.finalize());
    }

    #[test]
    fn finalize_cached_tracks_merge_and_clear_members() {
        let mut s = SchemaState::new(0.9);
        s.absorb_node_candidates(vec![node_type(&["Person"], &["name"], 2)]);
        let _ = s.finalize_cached();
        let mut other = SchemaState::new(0.9);
        other.absorb_node_candidates(vec![node_type(&["Zed"], &["z"], 1)]);
        s.merge(other);
        assert_eq!(s.finalize_cached(), s.finalize());
        let mut with_members = node_type(&["Person"], &["name"], 1);
        with_members.members = vec![7];
        s.absorb_node_candidates(vec![with_members]);
        let _ = s.finalize_cached();
        s.clear_members();
        assert_eq!(
            s.finalize_cached(),
            s.finalize(),
            "clear_members must invalidate the cache"
        );
    }

    #[test]
    fn empty_state_finalizes_empty() {
        let s = SchemaState::new(0.9);
        assert!(s.is_empty());
        let out = s.finalize();
        assert!(out.node_types.is_empty() && out.edge_types.is_empty());
    }
}
