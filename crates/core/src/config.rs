//! Pipeline configuration (Algorithm 1's knobs).

use pg_hive_embed::Word2VecConfig;
use pg_hive_lsh::{ElshParams, MinHashParams};

/// Which LSH family clusters the representation vectors (§4.2) — the two
/// PG-HIVE variants evaluated throughout §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMethod {
    /// Euclidean (p-stable) LSH over the hybrid dense vectors.
    Elsh,
    /// MinHash LSH over set representations.
    MinHash,
}

/// How label embeddings are produced (§4.1).
#[derive(Debug, Clone)]
pub enum EmbeddingStrategy {
    /// Deterministic seeded-hash embeddings (fast default; see
    /// `pg-hive-embed` docs for why this preserves the paper's behaviour).
    Hash,
    /// Train a skip-gram Word2Vec on label co-occurrence sentences built
    /// from the batch — the paper's original setup.
    Word2Vec(Word2VecConfig),
}

/// Sampling configuration for datatype inference (§4.4: "optionally we add a
/// flag to infer this information by sampling a small amount of data (e.g.
/// 10% of the properties, and at least 1000)").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Fraction of each property's values to inspect.
    pub fraction: f64,
    /// Minimum number of values to inspect per property.
    pub min_values: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            fraction: 0.1,
            min_values: 1000,
            seed: 0x5A11,
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// LSH family.
    pub method: ClusterMethod,
    /// Fixed ELSH parameters; `None` = derived from the element and label
    /// counts (§4.2, see [`crate::adaptive`]).
    pub elsh: Option<ElshParams>,
    /// Fixed MinHash parameters; `None` = derived from the same counts.
    pub minhash: Option<MinHashParams>,
    /// Jaccard merge threshold θ of Algorithm 2 (paper default 0.9).
    pub theta: f64,
    /// Label-embedding strategy and dimension `d`.
    pub embedding: EmbeddingStrategy,
    /// Embedding dimension `d` (paper example uses 5; default 16).
    pub embedding_dim: usize,
    /// Scale factor applied to label embeddings before concatenation with
    /// the binary property vector, so that label disagreement dominates
    /// property noise in the Euclidean distance (implementation choice; the
    /// paper relies on the raw Word2Vec norms).
    pub label_weight: f32,
    /// Cluster on deduplicated signatures and broadcast assignments back to
    /// elements (default), instead of hashing every element individually.
    /// Both paths produce the **same clustering** (identical vectors share
    /// every bucket; adaptive parameters follow the element count, which
    /// both paths see) — `false` exists for equivalence tests and
    /// benchmarking the dedup win.
    pub dedup: bool,
    /// Datatype inference sampling; `None` = full scan.
    pub datatype_sampling: Option<SamplingConfig>,
    /// Master seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            method: ClusterMethod::Elsh,
            elsh: None,
            minhash: None,
            theta: 0.9,
            embedding: EmbeddingStrategy::Hash,
            embedding_dim: 16,
            label_weight: 6.0,
            dedup: true,
            datatype_sampling: None,
            seed: 0xD15C,
        }
    }
}

impl PipelineConfig {
    /// The paper's ELSH variant with adaptive parameters.
    pub fn elsh_adaptive() -> Self {
        Self::default()
    }

    /// The paper's MinHash variant with default banding.
    pub fn minhash_default() -> Self {
        Self {
            method: ClusterMethod::MinHash,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PipelineConfig::default();
        assert_eq!(c.theta, 0.9);
        assert!(c.elsh.is_none(), "adaptive by default");
        assert!(c.datatype_sampling.is_none(), "full scan by default");
        assert!(c.dedup, "signature dedup on by default");
    }

    #[test]
    fn sampling_defaults_match_section_4_4() {
        let s = SamplingConfig::default();
        assert_eq!(s.fraction, 0.1);
        assert_eq!(s.min_values, 1000);
    }

    #[test]
    fn variant_constructors() {
        assert_eq!(PipelineConfig::elsh_adaptive().method, ClusterMethod::Elsh);
        assert_eq!(
            PipelineConfig::minhash_default().method,
            ClusterMethod::MinHash
        );
    }
}
