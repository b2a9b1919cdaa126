//! Flat row-major vector storage for the LSH hot path.
//!
//! The seed implementation hashed `&[Vec<f32>]` — one heap allocation per
//! element, pointer-chasing in the inner projection loop. [`VectorMatrix`]
//! stores all vectors contiguously (`rows × dim` in one `Vec<f32>`), so the
//! GEMV-style projection sweep in [`crate::elsh`] streams memory linearly.

/// A dense `rows × dim` matrix of `f32`, row-major and contiguous.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VectorMatrix {
    data: Vec<f32>,
    dim: usize,
    rows: usize,
}

impl VectorMatrix {
    /// An empty matrix whose rows will have dimension `dim`.
    pub fn new(dim: usize) -> Self {
        VectorMatrix {
            data: Vec::new(),
            dim,
            rows: 0,
        }
    }

    /// Empty matrix with storage reserved for `rows` rows.
    pub fn with_capacity(rows: usize, dim: usize) -> Self {
        VectorMatrix {
            data: Vec::with_capacity(rows * dim),
            dim,
            rows: 0,
        }
    }

    /// Build from per-element vectors (all must share a dimension).
    ///
    /// # Panics
    /// Panics if rows disagree on dimension.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut m = VectorMatrix::with_capacity(rows.len(), dim);
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Append one row given as an iterator writing directly into the
    /// backing storage (no intermediate allocation).
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut [f32])) {
        let start = self.data.len();
        self.data.resize(start + self.dim, 0.0);
        fill(&mut self.data[start..]);
        self.rows += 1;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True when the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The whole backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Iterate rows in order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |i| self.row(i))
    }
}

/// Accumulator lanes of the blocked dot kernel. Eight f64 lanes fill two
/// AVX2 registers (or four NEON ones) — wide enough to hide FP add latency,
/// narrow enough to leave registers for the loads.
const DOT_LANES: usize = 8;

/// Blocked dot product of two f32 rows with f64 accumulation.
///
/// The row elements are processed in fixed-width blocks of [`DOT_LANES`]
/// with an explicit accumulator array, breaking the serial dependency chain
/// of the scalar loop so the autovectorizer can lift the
/// multiply-accumulate to SIMD. Each `(f32 as f64) * (f32 as f64)` product
/// is **exact** (53-bit mantissa holds a 24×24-bit product), so the only
/// deviation from the reference's index-order sum
/// ([`crate::reference::elsh_cluster_scalar`]) is f64 re-association —
/// a relative perturbation on the order of 1e-16. Downstream parity is
/// therefore argued at the *bucket* level, not the raw-dot level: a flip
/// needs a projection within ~1e-16 relative of a bucket boundary, which
/// the pinned-seed oracle comparisons (unit tests and the bench gate)
/// verify never happens on the tracked datasets.
#[inline]
pub(crate) fn dot_f64_blocked(v: &[f32], dir: &[f32]) -> f64 {
    debug_assert_eq!(v.len(), dir.len());
    let mut acc = [0.0f64; DOT_LANES];
    let mut vb = v.chunks_exact(DOT_LANES);
    let mut db = dir.chunks_exact(DOT_LANES);
    for (cv, cd) in vb.by_ref().zip(db.by_ref()) {
        for l in 0..DOT_LANES {
            acc[l] += (cv[l] as f64) * (cd[l] as f64);
        }
    }
    let mut tail = 0.0f64;
    for (x, a) in vb.remainder().iter().zip(db.remainder()) {
        tail += (*x as f64) * (*a as f64);
    }
    // Fixed-shape tree reduction: deterministic combine order regardless of
    // input length.
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = VectorMatrix::from_rows(&rows);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 2);
        assert!(!m.is_empty());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(m.row(i), r.as_slice());
        }
        assert_eq!(m.iter_rows().count(), 3);
    }

    #[test]
    fn empty_matrix() {
        let m = VectorMatrix::from_rows(&[]);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.dim(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn push_row_with_fills_in_place() {
        let mut m = VectorMatrix::new(3);
        m.push_row_with(|r| {
            r[0] = 1.0;
            r[2] = 2.0;
        });
        assert_eq!(m.row(0), &[1.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn mismatched_rows_panic() {
        VectorMatrix::from_rows(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
