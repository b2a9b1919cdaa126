//! Property-based tests over the core invariants: Lemma 1/2 monotonicity,
//! schema-merge generalization, F1 bounds, LSH determinism, MinHash
//! estimation, and value round-trips.

use pg_hive_core::merge::{is_generalization_of, merge_schemas};
use pg_hive_core::{label_set, NodeType, PropertySpec, SchemaGraph};
use pg_hive_eval::majority_f1;
use pg_hive_graph::value::{parse_iso_date, parse_iso_datetime};
use pg_hive_graph::{Value, ValueKind};
use pg_hive_lsh::minhash::{jaccard, signature};
use pg_hive_lsh::{elsh_cluster, ElshParams, UnionFind, VectorMatrix};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Pieces that concatenate into every kind of lexical form, including the
/// letter-initial floats (`inf`, `NaN`) and the boolean spellings.
const LEXICAL_PARTS: &[&str] = &[
    "0",
    "7",
    "-",
    "+",
    ".",
    "e",
    "E",
    "inf",
    "infinity",
    "NaN",
    "nan",
    "True",
    "true",
    "TRUE",
    "False",
    "false",
    "x",
    " ",
    "\t",
    "2024",
    "-02-29",
    "1999-12-19",
    "T01:02:03",
    "Z",
    ":",
];

/// The §4.4 priority order written out in full, without the letter-initial
/// shortcut: the oracle for `Value::lexical_kind`.
fn reference_kind(s: &str) -> ValueKind {
    let t = s.trim();
    if t.parse::<i64>().is_ok() {
        ValueKind::Integer
    } else if t.parse::<f64>().is_ok_and(f64::is_finite) {
        ValueKind::Float
    } else if matches!(t, "true" | "TRUE" | "True" | "false" | "FALSE" | "False") {
        ValueKind::Boolean
    } else if parse_iso_date(t).is_some() {
        ValueKind::Date
    } else if parse_iso_datetime(t).is_some() {
        ValueKind::Timestamp
    } else {
        ValueKind::String
    }
}

fn arb_node_type() -> impl Strategy<Value = NodeType> {
    (
        proptest::collection::vec("[A-E]", 0..3),
        proptest::collection::btree_map("[a-h]", 1u64..20, 0..6),
        1u64..30,
    )
        .prop_map(|(labels, props, count)| {
            let labels_ref: Vec<&str> = labels.iter().map(String::as_str).collect();
            NodeType {
                labels: label_set(&labels_ref),
                props: props
                    .into_iter()
                    .map(|(k, occ)| {
                        (
                            k,
                            PropertySpec {
                                occurrences: occ.min(count),
                                kind: None,
                            },
                        )
                    })
                    .collect::<BTreeMap<_, _>>(),
                instance_count: count,
                members: vec![],
            }
        })
}

fn arb_schema() -> impl Strategy<Value = SchemaGraph> {
    proptest::collection::vec(arb_node_type(), 0..6).prop_map(|mut types| {
        // Deduplicate label sets (the schema invariant extraction maintains).
        types.sort_by(|a, b| a.labels.cmp(&b.labels));
        types.dedup_by(|a, b| a.labels == b.labels && !a.labels.is_empty());
        SchemaGraph {
            node_types: types,
            edge_types: vec![],
        }
    })
}

proptest! {
    #[test]
    fn lemma1_absorb_never_loses_labels_or_keys(a in arb_node_type(), b in arb_node_type()) {
        let mut merged = a.clone();
        merged.absorb(b.clone());
        for l in a.labels.iter().chain(b.labels.iter()) {
            prop_assert!(merged.labels.contains(l));
        }
        for k in a.props.keys().chain(b.props.keys()) {
            prop_assert!(merged.props.contains_key(k));
        }
        prop_assert_eq!(merged.instance_count, a.instance_count + b.instance_count);
        // Occurrence counts are additive.
        for (k, spec) in &merged.props {
            let expect = a.props.get(k).map_or(0, |s| s.occurrences)
                + b.props.get(k).map_or(0, |s| s.occurrences);
            prop_assert_eq!(spec.occurrences, expect);
        }
    }

    #[test]
    fn schema_merge_generalizes_both_inputs(s1 in arb_schema(), s2 in arb_schema()) {
        let mut merged = s1.clone();
        merge_schemas(&mut merged, s2.clone(), 0.9);
        prop_assert!(is_generalization_of(&merged, &s1));
        prop_assert!(is_generalization_of(&merged, &s2));
    }

    #[test]
    fn schema_merge_is_idempotent_on_labeled_types(s in arb_schema()) {
        // Merging a schema into itself must not duplicate labeled types.
        let labeled: Vec<_> = s.node_types.iter().filter(|t| !t.labels.is_empty()).cloned().collect();
        let base = SchemaGraph { node_types: labeled.clone(), edge_types: vec![] };
        let mut merged = base.clone();
        merge_schemas(&mut merged, base.clone(), 0.9);
        prop_assert_eq!(merged.node_types.len(), base.node_types.len());
    }

    #[test]
    fn f1_is_bounded_and_perfect_for_identity(
        truth in proptest::collection::vec(0u32..5, 1..200)
    ) {
        let identity = majority_f1(&truth, &truth);
        prop_assert!((identity.macro_f1 - 1.0).abs() < 1e-12);
        // Arbitrary clusterings stay within [0, 1].
        let coarse: Vec<u32> = truth.iter().map(|_| 0).collect();
        let s = majority_f1(&coarse, &truth);
        prop_assert!((0.0..=1.0).contains(&s.macro_f1));
        prop_assert!((0.0..=1.0).contains(&s.micro_f1));
    }

    #[test]
    fn f1_invariant_under_cluster_relabeling(
        pairs in proptest::collection::vec((0u32..6, 0u32..6), 1..100),
        offset in 1u32..1000
    ) {
        let clusters: Vec<u32> = pairs.iter().map(|(c, _)| *c).collect();
        let truth: Vec<u32> = pairs.iter().map(|(_, t)| *t).collect();
        let renamed: Vec<u32> = clusters.iter().map(|c| c + offset).collect();
        let a = majority_f1(&clusters, &truth);
        let b = majority_f1(&renamed, &truth);
        prop_assert!((a.macro_f1 - b.macro_f1).abs() < 1e-12);
    }

    #[test]
    fn elsh_clusters_are_a_partition(
        points in proptest::collection::vec(
            proptest::collection::vec(-10.0f32..10.0, 4), 1..60)
    ) {
        let c = elsh_cluster(&VectorMatrix::from_rows(&points), &ElshParams::default());
        prop_assert_eq!(c.assignment.len(), points.len());
        for &a in &c.assignment {
            prop_assert!((a as usize) < c.num_clusters);
        }
        // Identical points always share a cluster.
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if points[i] == points[j] {
                    prop_assert_eq!(c.assignment[i], c.assignment[j]);
                }
            }
        }
    }

    #[test]
    fn minhash_signature_agreement_tracks_jaccard(
        a in proptest::collection::hash_set(0u64..40, 1..25),
        b in proptest::collection::hash_set(0u64..40, 1..25)
    ) {
        let av: Vec<u64> = a.into_iter().collect();
        let bv: Vec<u64> = b.into_iter().collect();
        let k = 600;
        let sa = signature(&av, k, 5);
        let sb = signature(&bv, k, 5);
        let agree = sa.iter().zip(&sb).filter(|(x, y)| x == y).count() as f64 / k as f64;
        let j = jaccard(&av, &bv);
        prop_assert!((agree - j).abs() < 0.15, "agree {agree} vs jaccard {j}");
    }

    #[test]
    fn union_find_components_decrease_monotonically(
        unions in proptest::collection::vec((0usize..30, 0usize..30), 0..60)
    ) {
        let mut uf = UnionFind::new(30);
        let mut prev = uf.components();
        for (a, b) in unions {
            uf.union(a, b);
            let now = uf.components();
            prop_assert!(now == prev || now == prev - 1);
            prop_assert!(uf.connected(a, b));
            prev = now;
        }
    }

    #[test]
    fn value_lexical_round_trip_kind_is_stable(i in any::<i64>(), s in "[a-zA-Z ]{1,20}") {
        let v = Value::Int(i);
        prop_assert_eq!(Value::parse_lexical(&v.lexical()).kind(), v.kind());
        // Strings that don't look like other types stay strings.
        let sv = Value::parse_lexical(&s);
        let reparsed = Value::parse_lexical(&sv.lexical());
        prop_assert_eq!(reparsed.kind(), sv.kind());
    }

    /// `lexical_kind` is `parse_lexical(..).kind()` without building the
    /// value, and the letter-initial shortcut they share agrees with the
    /// full §4.4 priority order written out in `reference_kind`.
    #[test]
    fn lexical_kind_matches_parse_lexical(
        s in "[-0-9+.eEinfaTruslFALSENZ: \t]{0,12}",
        parts in proptest::collection::vec(0usize..LEXICAL_PARTS.len(), 0..5)
    ) {
        let joined: String = parts.iter().map(|&i| LEXICAL_PARTS[i]).collect();
        for s in [s, joined] {
            let kind = Value::lexical_kind(&s);
            prop_assert_eq!(kind, Value::parse_lexical(&s).kind(), "{:?}", s);
            prop_assert_eq!(kind, reference_kind(&s), "{:?}", s);
        }
    }

    #[test]
    fn noise_injection_only_removes(
        n in 1usize..50,
        removal in 0.0f64..1.0
    ) {
        let mut b = pg_hive_graph::GraphBuilder::new();
        for i in 0..n {
            b.add_node(&["T"], &[("a", Value::Int(i as i64)), ("b", Value::Bool(true))]);
        }
        let mut g = b.finish();
        let before: usize = g.nodes().map(|(_, node)| node.props.len()).sum();
        pg_hive_datasets::inject_noise(&mut g, &pg_hive_datasets::NoiseSpec {
            prop_removal: removal,
            label_keep: 1.0,
            seed: 3,
        });
        let after: usize = g.nodes().map(|(_, node)| node.props.len()).sum();
        prop_assert!(after <= before);
        prop_assert_eq!(g.node_count(), n, "noise never deletes elements");
    }
}
