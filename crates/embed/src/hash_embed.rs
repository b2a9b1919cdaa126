//! Deterministic seeded-hash embeddings.
//!
//! Each token is hashed (FNV-1a) to seed a splitmix64 stream that generates a
//! `d`-dimensional Gaussian vector (Box–Muller), then normalized. Properties:
//!
//! - **Deterministic**: the same `(seed, dim, token)` always yields the same
//!   vector, across runs and platforms.
//! - **Separating**: two distinct tokens give independent random unit
//!   vectors, which in dimension `d` have expected cosine 0 and variance
//!   `1/d` — far apart w.r.t. the LSH bucket widths used downstream.
//!
//! It stands in for §4.1's trained Word2Vec (see the crate docs for why):
//! the PG-HIVE pipeline only requires identical label sets to coincide and
//! different ones to be separated, which this satisfies exactly.

/// Deterministic random-projection label embedder. Building one allocates
/// nothing, so every pipeline path builds its own where it embeds.
#[derive(Debug, Clone)]
pub struct HashEmbedder {
    dim: usize,
    seed: u64,
}

impl HashEmbedder {
    /// Create an embedder of dimension `dim` with the given stream `seed`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Self { dim, seed }
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Write the embedding of `token` into `out` (`out.len() == self.dim()`).
    pub fn embed_into(&self, token: &str, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim);
        let mut state = fnv1a(token.as_bytes()) ^ self.seed;
        let mut i = 0;
        while i < self.dim {
            // Box–Muller from two uniforms in (0,1).
            let u1 = to_unit_open(splitmix64(&mut state));
            let u2 = to_unit_open(splitmix64(&mut state));
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            out[i] = (r * theta.cos()) as f32;
            if i + 1 < self.dim {
                out[i + 1] = (r * theta.sin()) as f32;
            }
            i += 2;
        }
        crate::math::normalize(out);
    }

    /// Convenience allocation wrapper around [`Self::embed_into`].
    pub fn embed(&self, token: &str) -> Vec<f32> {
        let mut v = vec![0.0; self.dim];
        self.embed_into(token, &mut v);
        v
    }
}

#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn to_unit_open(x: u64) -> f64 {
    // Map to (0, 1): avoid exactly 0 which would make ln() blow up.
    ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{dot, norm};

    /// Cosine similarity; 0.0 when either vector is zero.
    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let na = norm(a);
        let nb = norm(b);
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        dot(a, b) / (na * nb)
    }

    #[test]
    fn cosine_bounds() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn embeddings_are_deterministic() {
        let e = HashEmbedder::new(16, 7);
        assert_eq!(e.embed("Person"), e.embed("Person"));
    }

    #[test]
    fn embeddings_are_unit_length() {
        let e = HashEmbedder::new(32, 0);
        for tok in ["Person", "Post", "Org|Place", "KNOWS"] {
            let v = e.embed(tok);
            assert!((norm(&v) - 1.0).abs() < 1e-5, "token {tok}");
        }
    }

    #[test]
    fn distinct_tokens_are_separated() {
        let e = HashEmbedder::new(64, 42);
        let a = e.embed("Person");
        let b = e.embed("Post");
        assert!(
            cosine(&a, &b).abs() < 0.6,
            "independent unit vectors in R^64 should be near-orthogonal, got {}",
            cosine(&a, &b)
        );
    }

    #[test]
    fn different_seeds_give_different_vectors() {
        let a = HashEmbedder::new(16, 1).embed("Person");
        let b = HashEmbedder::new(16, 2).embed("Person");
        assert_ne!(a, b);
    }

    #[test]
    fn odd_dimension_is_filled() {
        let e = HashEmbedder::new(5, 3);
        let v = e.embed("X");
        assert_eq!(v.len(), 5);
        assert!((norm(&v) - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn zero_dim_panics() {
        HashEmbedder::new(0, 0);
    }
}
