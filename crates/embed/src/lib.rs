//! # pg-hive-embed
//!
//! Label embeddings for PG-HIVE.
//!
//! §4.1 of the paper represents every node `v` as
//! `x_v = Word2Vec(L_v) ∥ b_v` and every edge `e` as
//! `x_e = Word2Vec(L_e) ∥ Word2Vec(L_src) ∥ Word2Vec(L_tgt) ∥ b_e`, where
//! `b ∈ {0,1}^K` marks the element's property keys. The Word2Vec model is
//! "trained on the set of node and edge labels observed in the dataset to
//! ensure consistent semantic embeddings across identical label sets";
//! multi-label sets are sorted alphabetically and concatenated into a
//! single token ([`canonical_token`]); unlabeled elements get the zero
//! vector.
//!
//! Clustering only needs identical label sets to coincide and different
//! ones to separate, so this reproduction embeds every label token with
//! one seeded [`HashEmbedder`] and trains nothing. A from-scratch
//! skip-gram Word2Vec (trained per batch, 5 epochs, window 2, 5 negative
//! samples) used to sit beside it; it was measured and deleted. The
//! measurement ran the Fig. 4 grid — 8 datasets × property noise 0–40% ×
//! node labels 100/50/0% × seeds 1–3, with ELSH and MinHash, 720 cells
//! per scale — once with each embedder, scoring raw clusters with
//! `pg_hive_eval::majority_f1` and summing `StageTimings::discovery` over
//! the grid (two runs on a shared 2-core host):
//!
//! | `PGHIVE_SCALE` | mean F1\* nodes/edges, hash | mean F1\* nodes/edges, Word2Vec | discovery time, hash vs Word2Vec |
//! |---|---|---|---|
//! | 0.1 | 0.7720 / 0.9091 | 0.7717 / 0.9048 | 1.1–1.2 s vs 8.1–8.6 s |
//! | 0.2 | 0.7629 / 0.9081 | 0.7621 / 0.8999 | 1.8 s vs 15.1–16.5 s |
//!
//! MinHash ignores the embeddings, so only ELSH cells differ: 111 of 360
//! at scale 0.1 and 141 of 360 at 0.2. Hash scored higher on nodes or
//! edges in 106 and 128 of them, Word2Vec in 11 and 27 (6 and 14 cells
//! went each way on one side).

pub mod hash_embed;
pub mod math;

pub use hash_embed::HashEmbedder;

/// Canonical token for a label set: labels sorted alphabetically and joined
/// with `"|"` (§4.1 "we sort them alphabetically for uniformity and then
/// concatenate them as one"). Returns `None` for the empty set — callers use
/// the zero vector for unlabeled elements.
pub fn canonical_token<S: AsRef<str>>(labels: &[S]) -> Option<String> {
    if labels.is_empty() {
        return None;
    }
    let mut sorted: Vec<&str> = labels.iter().map(AsRef::as_ref).collect();
    sorted.sort_unstable();
    sorted.dedup();
    Some(sorted.join("|"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_token_sorts_and_dedups() {
        assert_eq!(
            canonical_token(&["Student", "Person", "Student"]),
            Some("Person|Student".to_string())
        );
        assert_eq!(canonical_token::<&str>(&[]), None);
        assert_eq!(canonical_token(&["A"]), Some("A".to_string()));
    }

    #[test]
    fn canonical_token_is_order_independent() {
        assert_eq!(canonical_token(&["B", "A"]), canonical_token(&["A", "B"]));
    }
}
