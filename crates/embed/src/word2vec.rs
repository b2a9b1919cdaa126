//! Skip-gram Word2Vec with negative sampling, from scratch.
//!
//! Mikolov et al.'s estimator (cited by the paper as \[69\]): for every
//! (center, context) pair inside a window, maximize
//! `log σ(u_ctx · v_center) + Σ_k log σ(-u_neg_k · v_center)`
//! by SGD. Sentences here are label co-occurrence contexts, e.g. the triple
//! `[src_labels, edge_label, tgt_labels]` per edge — the discovery pipeline
//! builds those from the graph so labels that co-occur structurally embed
//! close together, mirroring the paper's "consistent semantic embeddings".
//!
//! Out-of-vocabulary tokens fall back to the deterministic [`HashEmbedder`]
//! so the embedder is total, which incremental batches require (a new batch
//! may carry labels never seen before).

use crate::hash_embed::HashEmbedder;
use crate::math::{axpy, dot, normalize, sigmoid};
use crate::vocab::Vocabulary;
use crate::LabelEmbedder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimension `d` (the paper's example uses 5; defaults to 16,
    /// which balances separation quality and LSH speed).
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Initial learning rate (decays linearly to 10% over epochs).
    pub learning_rate: f32,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// PRNG seed for reproducibility.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            window: 2,
            negatives: 5,
            learning_rate: 0.05,
            epochs: 5,
            seed: 0x9_E37,
        }
    }
}

/// A trained skip-gram model.
#[derive(Debug, Clone)]
pub struct Word2Vec {
    vocab: Vocabulary,
    /// Input (center-word) matrix, row per token — these are the embeddings.
    input: Vec<Vec<f32>>,
    fallback: HashEmbedder,
    dim: usize,
}

impl Word2Vec {
    /// Train on `sentences` (each a vector of tokens) with `config`.
    ///
    /// Degenerate corpora are fine: an empty corpus yields a model that
    /// always falls back to hash embeddings.
    pub fn train<S: AsRef<str>>(sentences: &[Vec<S>], config: &Word2VecConfig) -> Self {
        assert!(config.dim > 0, "embedding dimension must be positive");
        let vocab = Vocabulary::from_sentences(sentences);
        let n = vocab.len();
        let dim = config.dim;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let fallback = HashEmbedder::new(dim, config.seed ^ 0xFA11_BACC);

        // Init: input rows start from the deterministic hash embedding
        // (scaled down). Unlike the classic tiny-uniform init, this keeps
        // distinct tokens well separated even when the corpus is too small
        // for SGD to pull them apart, while co-occurrence training still
        // draws related tokens together. Output rows start at zero
        // (word2vec convention).
        let mut input: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let mut v = fallback.embed(vocab.token(i));
                for x in &mut v {
                    *x *= 0.5;
                }
                v
            })
            .collect();
        let mut output: Vec<Vec<f32>> = vec![vec![0.0; dim]; n];

        let neg_table = vocab.negative_sampling_table(1 << 16);
        let encoded: Vec<Vec<usize>> = sentences
            .iter()
            .map(|s| {
                s.iter()
                    .filter_map(|t| vocab.get(t.as_ref()))
                    .collect::<Vec<_>>()
            })
            .collect();

        let total_steps = (config.epochs.max(1)) as f32;
        let mut grad = vec![0.0f32; dim];
        for epoch in 0..config.epochs {
            let lr = config.learning_rate * (1.0 - 0.9 * epoch as f32 / total_steps);
            for sentence in &encoded {
                for (i, &center) in sentence.iter().enumerate() {
                    let lo = i.saturating_sub(config.window);
                    let hi = (i + config.window + 1).min(sentence.len());
                    #[allow(clippy::needless_range_loop)] // symmetric window scan
                    for j in lo..hi {
                        if j == i {
                            continue;
                        }
                        let ctx = sentence[j];
                        grad.iter_mut().for_each(|g| *g = 0.0);
                        // Positive pair.
                        train_pair(&mut input[center], &mut output[ctx], 1.0, lr, &mut grad);
                        // Negative samples.
                        for _ in 0..config.negatives {
                            if neg_table.is_empty() {
                                break;
                            }
                            let neg = neg_table[rng.gen_range(0..neg_table.len())];
                            if neg == ctx {
                                continue;
                            }
                            train_pair(&mut input[center], &mut output[neg], 0.0, lr, &mut grad);
                        }
                        axpy(1.0, &grad, &mut input[center]);
                    }
                }
            }
        }

        for row in &mut input {
            normalize(row);
        }

        Word2Vec {
            vocab,
            input,
            fallback,
            dim,
        }
    }

    /// Vocabulary used at training time.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Cosine similarity between two tokens' embeddings.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        crate::math::cosine(&self.embed(a), &self.embed(b))
    }
}

/// One SGD step for a (center, context) pair with label `truth` ∈ {0, 1}.
/// Accumulates the center-word gradient into `grad` and updates the output
/// row immediately (standard word2vec ordering).
fn train_pair(center: &mut [f32], out_row: &mut [f32], truth: f32, lr: f32, grad: &mut [f32]) {
    let score = sigmoid(dot(center, out_row));
    let g = lr * (truth - score);
    axpy(g, out_row, grad);
    axpy(g, center, out_row);
}

impl LabelEmbedder for Word2Vec {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_into(&self, token: &str, out: &mut [f32]) {
        match self.vocab.get(token) {
            Some(id) => out.copy_from_slice(&self.input[id]),
            None => self.fallback.embed_into(token, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<&'static str>> {
        // Person co-occurs with KNOWS; Post with LIKES targets; Org with
        // WORKS_AT. Repeat to give SGD enough signal.
        let mut s = Vec::new();
        for _ in 0..200 {
            s.push(vec!["Person", "KNOWS", "Person"]);
            s.push(vec!["Person", "LIKES", "Post"]);
            s.push(vec!["Person", "WORKS_AT", "Org"]);
            s.push(vec!["Org", "LOCATED_IN", "Place"]);
        }
        s
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let cfg = Word2VecConfig {
            epochs: 2,
            ..Default::default()
        };
        let a = Word2Vec::train(&corpus(), &cfg);
        let b = Word2Vec::train(&corpus(), &cfg);
        assert_eq!(a.embed("Person"), b.embed("Person"));
    }

    #[test]
    fn identical_tokens_share_vectors() {
        let m = Word2Vec::train(&corpus(), &Word2VecConfig::default());
        assert_eq!(m.embed("Person"), m.embed("Person"));
    }

    #[test]
    fn cooccurring_labels_are_closer_than_unrelated() {
        let m = Word2Vec::train(&corpus(), &Word2VecConfig::default());
        // KNOWS always appears next to Person; LOCATED_IN never does.
        let close = m.similarity("Person", "KNOWS");
        let far = m.similarity("Person", "LOCATED_IN");
        assert!(
            close > far,
            "expected sim(Person,KNOWS)={close} > sim(Person,LOCATED_IN)={far}"
        );
    }

    #[test]
    fn oov_tokens_fall_back_deterministically() {
        let m = Word2Vec::train(&corpus(), &Word2VecConfig::default());
        let a = m.embed("NeverSeenLabel");
        let b = m.embed("NeverSeenLabel");
        assert_eq!(a, b);
        assert_eq!(a.len(), m.dim());
        assert!(a.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn empty_corpus_still_embeds() {
        let m = Word2Vec::train::<&str>(&[], &Word2VecConfig::default());
        let v = m.embed("anything");
        assert_eq!(v.len(), m.dim());
    }

    #[test]
    fn embeddings_are_normalized() {
        let m = Word2Vec::train(&corpus(), &Word2VecConfig::default());
        let v = m.embed("Person");
        let n = crate::math::norm(&v);
        assert!((n - 1.0).abs() < 1e-4, "norm = {n}");
    }
}
