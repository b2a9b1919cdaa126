//! Stage (d): extracting and merging types — Algorithm 2 (§4.3).
//!
//! Clusters become *candidate types* summarized by their representative
//! pattern `rep(C) = (L, K, R)` (union of member labels, property keys, and
//! endpoint label-set pairs). Extraction is **row-weighted**: a row is the
//! set of same-signature elements of one cluster, and a signature fixes
//! everything `rep(C)` reads (labels, keys, endpoint label sets). So the
//! kernel ([`candidate_node_types_from_rows`],
//! [`candidate_edge_types_from_rows`]) reads one representative per row,
//! makes its strings once, and adds the row's element count to the key
//! occurrences; only the member lists are built element by element, in
//! batch order. The pipeline passes the rows it already holds (the
//! representation pass's `rep_of` with the distinct-row clustering);
//! [`candidate_node_types`] and [`candidate_edge_types`] group a
//! per-element clustering into rows themselves.
//!
//! Candidates are merged into the running schema:
//!
//! 1. labeled candidates merge with the type carrying the **same label
//!    set** (Lemma 1/2 monotone union), else become new types;
//! 2. unlabeled candidates merge with the *labeled* type whose property-key
//!    Jaccard similarity is ≥ θ (best match wins);
//! 3. remaining unlabeled candidates merge with each other under the same
//!    Jaccard rule; whatever is left becomes an ABSTRACT type.

use crate::preprocess::encode_sections;
use crate::schema::{EdgeType, LabelSet, NodeType, PropertySpec, SchemaGraph};
use pg_hive_graph::{EdgeId, NodeId, PropertyGraph, Symbol};
use pg_hive_lsh::fx::FxHashMap;
use pg_hive_lsh::Clustering;
use std::collections::{BTreeMap, BTreeSet};

/// Build candidate node types from a per-element clustering of `ids`.
/// Elements are grouped into rows by (cluster, signature) first, so the
/// result is exact for any clustering, even one that splits a signature
/// across clusters.
pub fn candidate_node_types(
    g: &PropertyGraph,
    ids: &[NodeId],
    clustering: &Clustering,
) -> Vec<NodeType> {
    let (row_of, rows) = group_rows(clustering, |i, sig| {
        let n = g.node(ids[i]);
        encode_sections(sig, &[&n.labels], n.keys());
    });
    candidate_node_types_from_rows(g, ids, &row_of, &rows)
}

/// Build candidate edge types from a per-element clustering of `ids` (see
/// [`candidate_node_types`]).
pub fn candidate_edge_types(
    g: &PropertyGraph,
    ids: &[EdgeId],
    clustering: &Clustering,
) -> Vec<EdgeType> {
    let (row_of, rows) = group_rows(clustering, |i, sig| {
        let e = g.edge(ids[i]);
        let (src, tgt) = g.edge_endpoint_labels(e);
        encode_sections(sig, &[&e.labels, src, tgt], e.keys());
    });
    candidate_edge_types_from_rows(g, ids, &row_of, &rows)
}

/// The row kernel for nodes: `ids[i]` lies in row `row_of[i]`, and row `r`
/// in cluster `rows.assignment[r]`. Every element of a row must have the
/// same labels and keys (the representation pass's `rep_of` and
/// [`crate::preprocess::signature_scan`]'s both qualify). One candidate per
/// cluster id, as [`candidate_node_types`] gives.
pub fn candidate_node_types_from_rows(
    g: &PropertyGraph,
    ids: &[NodeId],
    row_of: &[u32],
    rows: &Clustering,
) -> Vec<NodeType> {
    let mut cands: Vec<NodeType> = (0..rows.num_clusters)
        .map(|_| NodeType {
            labels: LabelSet::new(),
            props: BTreeMap::new(),
            instance_count: 0,
            members: Vec::new(),
        })
        .collect();
    let tally = tally_rows(row_of, rows, |c, i| cands[c].members.push(ids[i].0));
    for (r, (count, first)) in tally.into_iter().enumerate() {
        if count == 0 {
            continue;
        }
        let n = g.node(ids[first]);
        let t = &mut cands[rows.assignment[r] as usize];
        t.instance_count += count;
        t.labels.extend(label_strings(g, &n.labels));
        add_occurrences(&mut t.props, g, n.keys(), count);
    }
    cands
}

/// The row kernel for edges (see [`candidate_node_types_from_rows`]); every
/// element of a row must also have the same endpoint label sets.
pub fn candidate_edge_types_from_rows(
    g: &PropertyGraph,
    ids: &[EdgeId],
    row_of: &[u32],
    rows: &Clustering,
) -> Vec<EdgeType> {
    let mut cands: Vec<EdgeType> = (0..rows.num_clusters)
        .map(|_| EdgeType {
            labels: LabelSet::new(),
            props: BTreeMap::new(),
            endpoints: BTreeSet::new(),
            instance_count: 0,
            members: Vec::new(),
            cardinality: None,
        })
        .collect();
    let tally = tally_rows(row_of, rows, |c, i| cands[c].members.push(ids[i].0));
    for (r, (count, first)) in tally.into_iter().enumerate() {
        if count == 0 {
            continue;
        }
        let e = g.edge(ids[first]);
        let t = &mut cands[rows.assignment[r] as usize];
        t.instance_count += count;
        t.labels.extend(label_strings(g, &e.labels));
        add_occurrences(&mut t.props, g, e.keys(), count);
        let (src, tgt) = g.edge_endpoint_labels(e);
        t.endpoints.insert((
            label_strings(g, src).collect(),
            label_strings(g, tgt).collect(),
        ));
    }
    cands
}

/// Group elements `0..clustering.assignment.len()` into rows of equal
/// (cluster, signature), numbered by first occurrence; `encode` writes
/// element `i`'s signature into the buffer. Returns each element's row and
/// the rows' clustering (same cluster ids).
fn group_rows(
    clustering: &Clustering,
    mut encode: impl FnMut(usize, &mut Vec<u32>),
) -> (Vec<u32>, Clustering) {
    let mut index: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut row_of = Vec::with_capacity(clustering.assignment.len());
    let mut row_clusters = Vec::new();
    let mut sig = Vec::new();
    for (i, &c) in clustering.assignment.iter().enumerate() {
        encode(i, &mut sig);
        // The cluster goes last: the sections before it are length-prefixed
        // and the keys end where it starts, so the key stays injective.
        sig.push(c);
        let row = match index.get(sig.as_slice()) {
            Some(&row) => row,
            None => {
                let row = row_clusters.len() as u32;
                row_clusters.push(c);
                index.insert(std::mem::take(&mut sig), row);
                row
            }
        };
        row_of.push(row);
    }
    let rows = Clustering {
        assignment: row_clusters,
        num_clusters: clustering.num_clusters,
    };
    (row_of, rows)
}

/// One pass over the elements in batch order: `push(cluster, i)` for every
/// element `i`, and each row's element count and first element.
fn tally_rows(
    row_of: &[u32],
    rows: &Clustering,
    mut push: impl FnMut(usize, usize),
) -> Vec<(u64, usize)> {
    let mut tally = vec![(0u64, 0usize); rows.assignment.len()];
    for (i, &r) in row_of.iter().enumerate() {
        let (count, first) = &mut tally[r as usize];
        if *count == 0 {
            *first = i;
        }
        *count += 1;
        push(rows.assignment[r as usize] as usize, i);
    }
    tally
}

fn label_strings<'g>(
    g: &'g PropertyGraph,
    labels: &'g [Symbol],
) -> impl Iterator<Item = String> + 'g {
    labels.iter().map(|&l| g.label_str(l).to_string())
}

/// Add `count` occurrences of every key in `keys` to `props`.
fn add_occurrences(
    props: &mut BTreeMap<String, PropertySpec>,
    g: &PropertyGraph,
    keys: impl Iterator<Item = Symbol>,
    count: u64,
) {
    for k in keys {
        props
            .entry(g.key_str(k).to_string())
            .or_insert(PropertySpec {
                occurrences: 0,
                kind: None,
            })
            .occurrences += count;
    }
}

/// Algorithm 2 for node candidates: merge into `schema` in place.
pub fn merge_node_candidates(schema: &mut SchemaGraph, cands: Vec<NodeType>, theta: f64) {
    let (labeled, unlabeled): (Vec<_>, Vec<_>) =
        cands.into_iter().partition(|c| !c.labels.is_empty());

    // Lines 2–7: labeled clusters merge on exact label-set equality.
    for cand in labeled {
        match schema.node_type_by_labels(&cand.labels) {
            Some(idx) => schema.node_types[idx].absorb(cand),
            None => schema.node_types.push(cand),
        }
    }

    // Lines 8–11: unlabeled clusters vs labeled types, best Jaccard ≥ θ.
    // `jaccard_str` is total on its domain (∅ vs ∅ is defined as 1.0) and
    // the comparator uses `f64::total_cmp`, so no similarity value — not
    // even a NaN smuggled in by a future refactor — can panic the merge.
    let mut still_unlabeled = Vec::new();
    for cand in unlabeled {
        let cand_keys: BTreeSet<String> = cand.props.keys().cloned().collect();
        let best = schema
            .node_types
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.labels.is_empty())
            .map(|(i, t)| {
                (
                    i,
                    jaccard_str(&cand_keys, &t.props.keys().cloned().collect()),
                )
            })
            .filter(|(_, sim)| *sim >= theta)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((idx, _)) => schema.node_types[idx].absorb(cand),
            None => still_unlabeled.push(cand),
        }
    }

    // Lines 12–14: unlabeled vs unlabeled (including pre-existing ABSTRACT
    // types in the schema), then keep the rest as ABSTRACT.
    for cand in still_unlabeled {
        let cand_keys: BTreeSet<String> = cand.props.keys().cloned().collect();
        let target = schema
            .node_types
            .iter()
            .enumerate()
            .filter(|(_, t)| t.labels.is_empty())
            .map(|(i, t)| {
                (
                    i,
                    jaccard_str(&cand_keys, &t.props.keys().cloned().collect()),
                )
            })
            .filter(|(_, sim)| *sim >= theta)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match target {
            Some((idx, _)) => schema.node_types[idx].absorb(cand),
            None => schema.node_types.push(cand),
        }
    }
}

/// Algorithm 2 for edge candidates. "We merge edges only by label and get
/// the set of source and target node types to define the connectivity"
/// (§4.3); unlabeled edge clusters go through the same Jaccard fallback as
/// nodes.
pub fn merge_edge_candidates(schema: &mut SchemaGraph, cands: Vec<EdgeType>, theta: f64) {
    let (labeled, unlabeled): (Vec<_>, Vec<_>) =
        cands.into_iter().partition(|c| !c.labels.is_empty());

    for cand in labeled {
        match schema.edge_type_by_labels(&cand.labels) {
            Some(idx) => schema.edge_types[idx].absorb(cand),
            None => schema.edge_types.push(cand),
        }
    }

    let mut still_unlabeled = Vec::new();
    for cand in unlabeled {
        let cand_keys: BTreeSet<String> = cand.props.keys().cloned().collect();
        let best = schema
            .edge_types
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.labels.is_empty())
            .map(|(i, t)| {
                (
                    i,
                    jaccard_str(&cand_keys, &t.props.keys().cloned().collect()),
                )
            })
            .filter(|(_, sim)| *sim >= theta)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((idx, _)) => schema.edge_types[idx].absorb(cand),
            None => still_unlabeled.push(cand),
        }
    }

    for cand in still_unlabeled {
        let cand_keys: BTreeSet<String> = cand.props.keys().cloned().collect();
        let target = schema
            .edge_types
            .iter()
            .enumerate()
            .filter(|(_, t)| t.labels.is_empty())
            .map(|(i, t)| {
                (
                    i,
                    jaccard_str(&cand_keys, &t.props.keys().cloned().collect()),
                )
            })
            .filter(|(_, sim)| *sim >= theta)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match target {
            Some((idx, _)) => schema.edge_types[idx].absorb(cand),
            None => schema.edge_types.push(cand),
        }
    }
}

/// Jaccard similarity of two string sets — the merge criterion of
/// Algorithm 2 (`J(C1, C2) = |K1 ∩ K2| / |K1 ∪ K2|`).
fn jaccard_str(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::label_set;
    use pg_hive_graph::{GraphBuilder, Value};

    fn cluster_of(assignment: Vec<u32>) -> Clustering {
        let num = assignment
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        Clustering {
            assignment,
            num_clusters: num,
        }
    }

    fn person_graph() -> (PropertyGraph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(
            &["Person"],
            &[("name", Value::from("a")), ("age", Value::Int(1))],
        );
        let n1 = b.add_node(&["Person"], &[("name", Value::from("b"))]);
        let n2 = b.add_node(&[], &[("name", Value::from("c")), ("age", Value::Int(2))]);
        let n3 = b.add_node(&["Post"], &[("content", Value::from("x"))]);
        let g = b.finish();
        (g, vec![n0, n1, n2, n3])
    }

    #[test]
    fn candidates_summarize_clusters() {
        let (g, ids) = person_graph();
        // Clusters: {n0, n1}, {n2}, {n3}.
        let c = cluster_of(vec![0, 0, 1, 2]);
        let cands = candidate_node_types(&g, &ids, &c);
        assert_eq!(cands.len(), 3);
        assert_eq!(cands[0].labels, label_set(&["Person"]));
        assert_eq!(cands[0].instance_count, 2);
        assert_eq!(cands[0].props["name"].occurrences, 2);
        assert_eq!(cands[0].props["age"].occurrences, 1);
        assert!(cands[1].labels.is_empty());
    }

    #[test]
    fn labeled_candidates_merge_by_label_set() {
        let (g, ids) = person_graph();
        // Two separate Person clusters (structural split) must merge.
        let c = cluster_of(vec![0, 1, 2, 3]);
        let cands = candidate_node_types(&g, &ids, &c);
        let mut schema = SchemaGraph::new();
        merge_node_candidates(&mut schema, cands, 0.9);
        let person = schema.node_type_by_labels(&label_set(&["Person"])).unwrap();
        // Both Person clusters merged, plus the unlabeled n2 whose keys
        // {name, age} exactly match Person's union {name, age}.
        assert_eq!(schema.node_types[person].instance_count, 3);
        let total: u64 = schema.node_types.iter().map(|t| t.instance_count).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn unlabeled_merges_into_best_labeled_match() {
        let (g, ids) = person_graph();
        let c = cluster_of(vec![0, 1, 2, 3]);
        let cands = candidate_node_types(&g, &ids, &c);
        let mut schema = SchemaGraph::new();
        merge_node_candidates(&mut schema, cands, 0.9);
        // Unlabeled {name, age} vs Person {name, age}: J = 1 ≥ 0.9 ⇒ merged.
        let person = schema.node_type_by_labels(&label_set(&["Person"])).unwrap();
        assert_eq!(schema.node_types[person].instance_count, 3);
        // Post stays its own type; no ABSTRACT type remains.
        assert_eq!(schema.node_types.len(), 2);
        assert!(schema.node_types.iter().all(|t| !t.labels.is_empty()));
    }

    #[test]
    fn unmatched_unlabeled_becomes_abstract() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(&["Person"], &[("name", Value::from("a"))]);
        let n1 = b.add_node(&[], &[("weird", Value::Int(1)), ("thing", Value::Int(2))]);
        let g = b.finish();
        let c = cluster_of(vec![0, 1]);
        let cands = candidate_node_types(&g, &[n0, n1], &c);
        let mut schema = SchemaGraph::new();
        merge_node_candidates(&mut schema, cands, 0.9);
        assert_eq!(schema.node_types.len(), 2);
        assert!(schema.node_types.iter().any(|t| t.is_abstract()));
    }

    #[test]
    fn property_less_unlabeled_clusters_merge_without_panic() {
        // Regression: two unlabeled, property-less clusters used to drive
        // the merge comparator through J(∅, ∅); with a 0/0 NaN that
        // `partial_cmp(..).unwrap()` panicked the whole pipeline. J(∅, ∅)
        // is now defined as 1.0 and the comparator is total.
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(&[], &[]);
        let n1 = b.add_node(&[], &[]);
        let g = b.finish();
        let c = cluster_of(vec![0, 1]);
        let cands = candidate_node_types(&g, &[n0, n1], &c);
        let mut schema = SchemaGraph::new();
        merge_node_candidates(&mut schema, cands, 0.9);
        assert_eq!(schema.node_types.len(), 1, "identical empty keysets merge");
        assert_eq!(schema.node_types[0].instance_count, 2);
        assert!(schema.node_types[0].is_abstract());

        // Same path for property-less unlabeled edge clusters.
        let mut b = GraphBuilder::new();
        let x = b.add_node(&["A"], &[]);
        let y = b.add_node(&["B"], &[]);
        b.add_edge(x, y, &[], &[]);
        b.add_edge(y, x, &[], &[]);
        let g = b.finish();
        let ids: Vec<EdgeId> = g.edges().map(|(i, _)| i).collect();
        let c = cluster_of(vec![0, 1]);
        let cands = candidate_edge_types(&g, &ids, &c);
        let mut schema = SchemaGraph::new();
        merge_edge_candidates(&mut schema, cands, 0.9);
        assert_eq!(schema.edge_types.len(), 1);
        assert_eq!(schema.edge_types[0].instance_count, 2);
    }

    #[test]
    fn unlabeled_clusters_merge_with_each_other() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(&[], &[("x", Value::Int(1)), ("y", Value::Int(2))]);
        let n1 = b.add_node(&[], &[("x", Value::Int(3)), ("y", Value::Int(4))]);
        let g = b.finish();
        let c = cluster_of(vec![0, 1]);
        let cands = candidate_node_types(&g, &[n0, n1], &c);
        let mut schema = SchemaGraph::new();
        merge_node_candidates(&mut schema, cands, 0.9);
        assert_eq!(schema.node_types.len(), 1);
        assert_eq!(schema.node_types[0].instance_count, 2);
        assert!(schema.node_types[0].is_abstract());
    }

    #[test]
    fn theta_controls_unlabeled_merging() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(&["T"], &[("a", Value::Int(1)), ("b", Value::Int(1))]);
        let n1 = b.add_node(&[], &[("a", Value::Int(1)), ("c", Value::Int(1))]);
        let g = b.finish();
        let c = cluster_of(vec![0, 1]);
        // J({a,b},{a,c}) = 1/3.
        let mut strict = SchemaGraph::new();
        merge_node_candidates(&mut strict, candidate_node_types(&g, &[n0, n1], &c), 0.9);
        assert_eq!(strict.node_types.len(), 2);
        let mut loose = SchemaGraph::new();
        merge_node_candidates(&mut loose, candidate_node_types(&g, &[n0, n1], &c), 0.3);
        assert_eq!(loose.node_types.len(), 1);
    }

    #[test]
    fn edge_candidates_collect_endpoints() {
        let mut b = GraphBuilder::new();
        let p = b.add_node(&["Person"], &[]);
        let o = b.add_node(&["Org"], &[]);
        let pl = b.add_node(&["Place"], &[]);
        b.add_edge(o, pl, &["LOCATED_IN"], &[]);
        b.add_edge(p, pl, &["LOCATED_IN"], &[("from", Value::Int(2025))]);
        let g = b.finish();
        let ids: Vec<EdgeId> = g.edges().map(|(i, _)| i).collect();
        // Structurally split clusters.
        let c = cluster_of(vec![0, 1]);
        let cands = candidate_edge_types(&g, &ids, &c);
        let mut schema = SchemaGraph::new();
        merge_edge_candidates(&mut schema, cands, 0.9);
        // One LOCATED_IN type with both endpoint pairs (Fig. 1 / Ex. 2).
        assert_eq!(schema.edge_types.len(), 1);
        let t = &schema.edge_types[0];
        assert_eq!(t.endpoints.len(), 2);
        assert_eq!(t.instance_count, 2);
        assert_eq!(t.props["from"].occurrences, 1);
    }

    #[test]
    fn multilabel_sets_are_distinct_types() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(&["Person", "Student"], &[("name", Value::from("x"))]);
        let n1 = b.add_node(&["Person"], &[("name", Value::from("y"))]);
        let g = b.finish();
        let c = cluster_of(vec![0, 1]);
        let cands = candidate_node_types(&g, &[n0, n1], &c);
        let mut schema = SchemaGraph::new();
        merge_node_candidates(&mut schema, cands, 0.9);
        // {Person,Student} ≠ {Person}: two types (PG-Schema semantics).
        assert_eq!(schema.node_types.len(), 2);
    }

    #[test]
    fn jaccard_str_basics() {
        let a: BTreeSet<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let b: BTreeSet<String> = ["b", "c", "d"].iter().map(|s| s.to_string()).collect();
        assert!((jaccard_str(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_str(&a, &a), 1.0);
        let empty = BTreeSet::new();
        assert_eq!(jaccard_str(&empty, &empty), 1.0);
        assert_eq!(jaccard_str(&a, &empty), 0.0);
    }
}
