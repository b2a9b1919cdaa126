//! The schema graph model (Def. 3.2–3.4) and its merge operations (§4.3,
//! §4.6).
//!
//! Types own *resolved strings* for labels and property keys rather than
//! interner symbols: a schema outlives any single batch and must merge
//! schemas discovered from different stores.
//!
//! Every type also carries aggregate statistics — instance counts,
//! per-property occurrence counts and value-kind joins, and its member
//! element ids — which is what makes incremental merging cheap: constraints
//! (§4.4) are recomputed from the counts, never by rescanning old batches.

use pg_hive_graph::ValueKind;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A set of labels, canonically ordered. Empty = unlabeled/ABSTRACT.
pub type LabelSet = BTreeSet<String>;

/// Aggregate information about one property of a type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropertySpec {
    /// Number of instances of the type that carry this property.
    pub occurrences: u64,
    /// Inferred data type (lattice join over observed values); `None` until
    /// the datatype pass has run.
    pub kind: Option<ValueKind>,
}

impl PropertySpec {
    /// A property is MANDATORY iff it appears in every instance of its type
    /// (`f_T(p) = 1`, §4.4); otherwise OPTIONAL.
    pub fn is_mandatory(&self, instance_count: u64) -> bool {
        instance_count > 0 && self.occurrences == instance_count
    }
}

/// Edge-type cardinality (§4.4): classification of the pair
/// `(max_out, max_in)` of maximum distinct-target out-degree and
/// distinct-source in-degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cardinality {
    /// Maximum distinct-target out-degree observed for the edge type.
    pub max_out: u64,
    /// Maximum distinct-source in-degree observed for the edge type.
    pub max_in: u64,
}

impl Cardinality {
    /// The paper's interpretation: `(1,1) ⇒ 0:1`, `(>1,1) ⇒ N:1`,
    /// `(1,>1) ⇒ 0:N`, `(>1,>1) ⇒ M:N`. Lower bounds stay at 0 because only
    /// edges are scanned (§4.4).
    pub fn class(&self) -> CardinalityClass {
        match (self.max_out > 1, self.max_in > 1) {
            (false, false) => CardinalityClass::OneToOne,
            (true, false) => CardinalityClass::ManyToOne,
            (false, true) => CardinalityClass::OneToMany,
            (true, true) => CardinalityClass::ManyToMany,
        }
    }
}

/// Named cardinality classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CardinalityClass {
    /// `0:1`
    OneToOne,
    /// `N:1`
    ManyToOne,
    /// `0:N`
    OneToMany,
    /// `M:N`
    ManyToMany,
}

impl CardinalityClass {
    /// The notation used in the paper.
    pub fn notation(self) -> &'static str {
        match self {
            CardinalityClass::OneToOne => "0:1",
            CardinalityClass::ManyToOne => "N:1",
            CardinalityClass::OneToMany => "0:N",
            CardinalityClass::ManyToMany => "M:N",
        }
    }
}

/// A node type `V_s = (λ_n, π_n)` (Def. 3.2) plus aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeType {
    /// Label set; empty for ABSTRACT types (unmatched unlabeled clusters).
    pub labels: LabelSet,
    /// Property key → aggregate spec.
    pub props: BTreeMap<String, PropertySpec>,
    /// Number of instances assigned to this type so far.
    pub instance_count: u64,
    /// Graph-wide indices of the member nodes (used for evaluation,
    /// constraints and datatype inference).
    pub members: Vec<u32>,
}

impl NodeType {
    /// Whether this is an ABSTRACT type (PG-Schema terminology for a type
    /// that could not be matched to any label).
    pub fn is_abstract(&self) -> bool {
        self.labels.is_empty()
    }

    /// Merge `other` into `self` (Lemma 1): labels and properties are
    /// unioned, counts summed, kinds joined — nothing is ever dropped.
    /// Counts saturate at `u64::MAX` (a snapshot may carry any count), which
    /// keeps the merge associative and commutative.
    pub fn absorb(&mut self, other: NodeType) {
        self.labels.extend(other.labels);
        merge_props(&mut self.props, other.props);
        self.instance_count = self.instance_count.saturating_add(other.instance_count);
        self.members.extend(other.members);
    }

    /// Property-key set (for Jaccard similarity in Algorithm 2).
    pub fn key_set(&self) -> BTreeSet<&str> {
        self.props.keys().map(String::as_str).collect()
    }
}

/// An edge type `E_s = (λ_e, π_e, ρ_e, C_e)` (Def. 3.3) plus aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeType {
    /// The type's label set λ_e (empty = abstract).
    pub labels: LabelSet,
    /// Per-key property specs π_e (presence counts, inferred kinds).
    pub props: BTreeMap<String, PropertySpec>,
    /// Observed (source-labels, target-labels) endpoint pairs — ρ_e,
    /// generalized to a set because merging unions endpoints (Lemma 2).
    pub endpoints: BTreeSet<(LabelSet, LabelSet)>,
    /// Edges covered by this type.
    pub instance_count: u64,
    /// Member edge ids (cleared by the streaming paths — chunk-local ids
    /// do not outlive their chunk).
    pub members: Vec<u32>,
    /// Filled by the cardinality pass (§4.4).
    pub cardinality: Option<Cardinality>,
}

impl EdgeType {
    /// Whether the edge type is unlabeled/ABSTRACT.
    pub fn is_abstract(&self) -> bool {
        self.labels.is_empty()
    }

    /// Merge `other` into `self` (Lemma 2): labels, properties and
    /// endpoints are unioned — no endpoint is lost.
    pub fn absorb(&mut self, other: EdgeType) {
        self.labels.extend(other.labels);
        merge_props(&mut self.props, other.props);
        self.endpoints.extend(other.endpoints);
        self.instance_count = self.instance_count.saturating_add(other.instance_count);
        self.members.extend(other.members);
        self.cardinality = match (self.cardinality, other.cardinality) {
            (Some(a), Some(b)) => Some(Cardinality {
                max_out: a.max_out.max(b.max_out),
                max_in: a.max_in.max(b.max_in),
            }),
            (a, b) => a.or(b),
        };
    }

    /// Property-key set (for Jaccard similarity in Algorithm 2).
    pub fn key_set(&self) -> BTreeSet<&str> {
        self.props.keys().map(String::as_str).collect()
    }
}

fn merge_props(into: &mut BTreeMap<String, PropertySpec>, from: BTreeMap<String, PropertySpec>) {
    for (k, spec) in from {
        match into.get_mut(&k) {
            Some(existing) => {
                existing.occurrences = existing.occurrences.saturating_add(spec.occurrences);
                existing.kind = match (existing.kind, spec.kind) {
                    (Some(a), Some(b)) => Some(a.join(b)),
                    (a, b) => a.or(b),
                };
            }
            None => {
                into.insert(k, spec);
            }
        }
    }
}

/// The schema graph `S_G = (V_s, E_s, ρ_s)` (Def. 3.4).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemaGraph {
    /// The discovered node types V_s.
    pub node_types: Vec<NodeType>,
    /// The discovered edge types E_s.
    pub edge_types: Vec<EdgeType>,
}

impl SchemaGraph {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the node type with exactly this label set.
    pub fn node_type_by_labels(&self, labels: &LabelSet) -> Option<usize> {
        self.node_types.iter().position(|t| &t.labels == labels)
    }

    /// Index of the edge type with exactly this label set.
    pub fn edge_type_by_labels(&self, labels: &LabelSet) -> Option<usize> {
        self.edge_types.iter().position(|t| &t.labels == labels)
    }

    /// Total instances across node types.
    pub fn node_instances(&self) -> u64 {
        self.node_types.iter().map(|t| t.instance_count).sum()
    }

    /// Total instances across edge types.
    pub fn edge_instances(&self) -> u64 {
        self.edge_types.iter().map(|t| t.instance_count).sum()
    }

    /// All labels mentioned by any node type.
    pub fn node_label_universe(&self) -> BTreeSet<&str> {
        self.node_types
            .iter()
            .flat_map(|t| t.labels.iter().map(String::as_str))
            .collect()
    }

    /// All property keys mentioned by any node type.
    pub fn node_key_universe(&self) -> BTreeSet<&str> {
        self.node_types
            .iter()
            .flat_map(|t| t.props.keys().map(String::as_str))
            .collect()
    }

    /// Sort types into the canonical order — by label set, then property-key
    /// set, then aggregates — so two schemas with equal content serialize to
    /// byte-identical text no matter what order their types were produced
    /// in. [`crate::state::SchemaState::finalize`] always applies this;
    /// members keep their per-type order (they are not serialized).
    pub fn sort_canonical(&mut self) {
        self.node_types.sort_by(|a, b| {
            a.labels
                .cmp(&b.labels)
                .then_with(|| a.props.keys().cmp(b.props.keys()))
                .then_with(|| a.instance_count.cmp(&b.instance_count))
        });
        self.edge_types.sort_by(|a, b| {
            a.labels
                .cmp(&b.labels)
                .then_with(|| a.props.keys().cmp(b.props.keys()))
                .then_with(|| a.endpoints.cmp(&b.endpoints))
                .then_with(|| a.instance_count.cmp(&b.instance_count))
        });
    }
}

/// Convenience constructor for a [`LabelSet`].
pub fn label_set<S: AsRef<str>>(labels: &[S]) -> LabelSet {
    labels.iter().map(|s| s.as_ref().to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_type(labels: &[&str], props: &[(&str, u64)], count: u64) -> NodeType {
        NodeType {
            labels: label_set(labels),
            props: props
                .iter()
                .map(|(k, occ)| {
                    (
                        k.to_string(),
                        PropertySpec {
                            occurrences: *occ,
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
    fn mandatory_iff_present_everywhere() {
        let spec = PropertySpec {
            occurrences: 10,
            kind: None,
        };
        assert!(spec.is_mandatory(10));
        assert!(!spec.is_mandatory(11));
        assert!(!spec.is_mandatory(0));
    }

    #[test]
    fn cardinality_classes_match_paper() {
        assert_eq!(
            Cardinality {
                max_out: 1,
                max_in: 1
            }
            .class()
            .notation(),
            "0:1"
        );
        assert_eq!(
            Cardinality {
                max_out: 5,
                max_in: 1
            }
            .class()
            .notation(),
            "N:1"
        );
        assert_eq!(
            Cardinality {
                max_out: 1,
                max_in: 7
            }
            .class()
            .notation(),
            "0:N"
        );
        assert_eq!(
            Cardinality {
                max_out: 3,
                max_in: 3
            }
            .class()
            .notation(),
            "M:N"
        );
    }

    #[test]
    fn absorb_node_type_is_monotone() {
        // Lemma 1: K_i ⊆ K_M and L_i ⊆ L_M.
        let mut a = node_type(&["Person"], &[("name", 5), ("age", 3)], 5);
        let b = node_type(&["Human"], &[("name", 2), ("email", 2)], 2);
        let a_labels = a.labels.clone();
        let b_labels = b.labels.clone();
        let a_keys: Vec<String> = a.props.keys().cloned().collect();
        let b_keys: Vec<String> = b.props.keys().cloned().collect();
        a.absorb(b);
        for l in a_labels.iter().chain(b_labels.iter()) {
            assert!(a.labels.contains(l), "label {l} lost");
        }
        for k in a_keys.iter().chain(b_keys.iter()) {
            assert!(a.props.contains_key(k), "key {k} lost");
        }
        assert_eq!(a.instance_count, 7);
        assert_eq!(a.props["name"].occurrences, 7);
        assert_eq!(a.props["age"].occurrences, 3);
    }

    #[test]
    fn absorb_joins_kinds() {
        let mut a = node_type(&["T"], &[], 1);
        a.props.insert(
            "x".into(),
            PropertySpec {
                occurrences: 1,
                kind: Some(ValueKind::Integer),
            },
        );
        let mut b = node_type(&["T"], &[], 1);
        b.props.insert(
            "x".into(),
            PropertySpec {
                occurrences: 1,
                kind: Some(ValueKind::Float),
            },
        );
        a.absorb(b);
        assert_eq!(a.props["x"].kind, Some(ValueKind::Float));
    }

    #[test]
    fn absorb_edge_type_unions_endpoints() {
        // Lemma 2: R_1, R_2 ⊆ R_M.
        let mut a = EdgeType {
            labels: label_set(&["LOCATED_IN"]),
            props: BTreeMap::new(),
            endpoints: [(label_set(&["Org"]), label_set(&["Place"]))].into(),
            instance_count: 3,
            members: vec![0, 1, 2],
            cardinality: Some(Cardinality {
                max_out: 1,
                max_in: 2,
            }),
        };
        let b = EdgeType {
            labels: label_set(&["LOCATED_IN"]),
            props: BTreeMap::new(),
            endpoints: [(label_set(&["Person"]), label_set(&["Place"]))].into(),
            instance_count: 1,
            members: vec![7],
            cardinality: Some(Cardinality {
                max_out: 4,
                max_in: 1,
            }),
        };
        a.absorb(b);
        assert_eq!(a.endpoints.len(), 2);
        assert_eq!(a.instance_count, 4);
        assert_eq!(a.members, vec![0, 1, 2, 7]);
        assert_eq!(
            a.cardinality,
            Some(Cardinality {
                max_out: 4,
                max_in: 2
            })
        );
    }

    #[test]
    fn schema_lookup_by_labels() {
        let mut s = SchemaGraph::new();
        s.node_types.push(node_type(&["Person"], &[], 1));
        s.node_types.push(node_type(&["Post"], &[], 1));
        assert_eq!(s.node_type_by_labels(&label_set(&["Post"])), Some(1));
        assert_eq!(s.node_type_by_labels(&label_set(&["Nope"])), None);
    }

    #[test]
    fn abstract_detection() {
        let t = node_type(&[], &[("x", 1)], 1);
        assert!(t.is_abstract());
        let t = node_type(&["L"], &[], 1);
        assert!(!t.is_abstract());
    }
}
