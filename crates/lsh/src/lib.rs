//! # pg-hive-lsh
//!
//! Locality-Sensitive Hashing substrate for PG-HIVE (§4.2 of the paper).
//!
//! Two families are provided, matching the paper's two PG-HIVE variants:
//!
//! - [`elsh`] — Euclidean LSH ("p-stable" / bucketed random projections,
//!   Datar et al.) over the hybrid dense vectors of §4.1. Parameters: bucket
//!   length `b` and number of hash tables `T`, combined under the OR rule.
//! - [`minhash`] — MinHash with banding over set representations, for
//!   Jaccard similarity.
//!
//! Clusters are the connected components of the "collided in at least one
//! table/band" relation, computed with a union-find ([`unionfind`]).
//!
//! Parameters (ELSH `b`, `T` and `k`; MinHash bands and rows) are the
//! caller's choice: `pg-hive-core` derives them from the label and element
//! counts.
//!
//! ## Execution model
//!
//! Dense vectors live in a flat row-major [`VectorMatrix`] (one allocation
//! for the whole batch) and both families hash through precomputed
//! projection/permutation banks. Everything runs on the calling thread and
//! spawns none: callers hash deduplicated signatures — a few hundred rows
//! per chunk — and parallelism, where wanted, comes from running chunks
//! side by side. The determinism contract is strict: *same seed → same
//! clustering*, verified bit-for-bit against the seed's scalar
//! implementations preserved in [`mod@reference`].

mod bucket;
pub mod elsh;
pub mod fx;
pub mod matrix;
pub mod minhash;
pub mod reference;
pub mod unionfind;

pub use elsh::{elsh_cluster, ElshParams, Projections};
pub use matrix::VectorMatrix;
pub use minhash::{minhash_cluster, MinHashParams};
pub use unionfind::UnionFind;

/// Whether parameters are being derived for node or edge clustering — the
/// two use different `T` heuristics in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementClass {
    Nodes,
    Edges,
}

/// A clustering of `n` elements: `assignment[i]` is the dense cluster id of
/// element `i`, ids in `0..num_clusters`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    pub assignment: Vec<u32>,
    pub num_clusters: usize,
}

impl Clustering {
    /// Group element indices by cluster id.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_clusters];
        for (i, &c) in self.assignment.iter().enumerate() {
            groups[c as usize].push(i);
        }
        groups
    }

    /// Map a clustering of distinct representatives back onto elements:
    /// element `i` gets the cluster of its representative `rep_of[i]`.
    /// Cluster ids and count are preserved (every representative has at
    /// least one element when `rep_of` is a surjection onto rows).
    pub fn broadcast(&self, rep_of: &[u32]) -> Clustering {
        Clustering {
            assignment: rep_of
                .iter()
                .map(|&r| self.assignment[r as usize])
                .collect(),
            num_clusters: self.num_clusters,
        }
    }

    /// Compact single-token text encoding `num_clusters:a0,a1,...` (an
    /// empty clustering encodes as `0:`) — used by snapshot persistence of
    /// cached clusterings. [`Clustering::decode_compact`] inverts it.
    ///
    /// ```
    /// use pg_hive_lsh::Clustering;
    /// let c = Clustering { assignment: vec![0, 1, 0], num_clusters: 2 };
    /// let text = c.encode_compact();
    /// assert_eq!(text, "2:0,1,0");
    /// assert_eq!(Clustering::decode_compact(&text).unwrap(), c);
    /// ```
    pub fn encode_compact(&self) -> String {
        let mut out = format!("{}:", self.num_clusters);
        for (i, a) in self.assignment.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out
    }

    /// Decode [`Clustering::encode_compact`] output. Rejects malformed
    /// text and assignments referencing ids outside `0..num_clusters`.
    pub fn decode_compact(s: &str) -> Result<Clustering, String> {
        let (count, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("clustering '{s}' has no ':' separator"))?;
        let num_clusters: usize = count
            .parse()
            .map_err(|_| format!("cluster count '{count}' is not a usize"))?;
        let assignment: Vec<u32> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|a| {
                    a.parse::<u32>()
                        .map_err(|_| format!("cluster id '{a}' is not a u32"))
                })
                .collect::<Result<_, _>>()?
        };
        if let Some(&bad) = assignment.iter().find(|&&a| a as usize >= num_clusters) {
            return Err(format!("cluster id {bad} out of range 0..{num_clusters}"));
        }
        Ok(Clustering {
            assignment,
            num_clusters,
        })
    }

    /// Build from a union-find over `n` elements.
    pub fn from_union_find(uf: &mut UnionFind) -> Self {
        let n = uf.len();
        let mut remap: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(n);
        for i in 0..n {
            let root = uf.find(i);
            let next = remap.len() as u32;
            let id = *remap.entry(root).or_insert(next);
            assignment.push(id);
        }
        Clustering {
            assignment,
            num_clusters: remap.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_elements() {
        let c = Clustering {
            assignment: vec![0, 1, 0, 2, 1],
            num_clusters: 3,
        };
        let g = c.groups();
        assert_eq!(g, vec![vec![0, 2], vec![1, 4], vec![3]]);
    }

    #[test]
    fn compact_codec_round_trips_and_rejects_garbage() {
        for c in [
            Clustering {
                assignment: vec![0, 1, 0, 2, 1],
                num_clusters: 3,
            },
            Clustering {
                assignment: Vec::new(),
                num_clusters: 0,
            },
        ] {
            assert_eq!(Clustering::decode_compact(&c.encode_compact()).unwrap(), c);
        }
        assert!(Clustering::decode_compact("no separator").is_err());
        assert!(Clustering::decode_compact("x:0").is_err());
        assert!(Clustering::decode_compact("1:0,nope").is_err());
        assert!(
            Clustering::decode_compact("1:0,1").is_err(),
            "id outside 0..num_clusters must be rejected"
        );
    }

    #[test]
    fn from_union_find_densifies_ids() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 3);
        let c = Clustering::from_union_find(&mut uf);
        assert_eq!(c.num_clusters, 3);
        assert_eq!(c.assignment[0], c.assignment[3]);
        assert_ne!(c.assignment[1], c.assignment[2]);
    }
}
