//! Row-major dense matrix type and core algebra.

use crate::{LinalgError, Result};

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// This is deliberately a small, predictable type: contiguous storage,
/// `O(1)` indexing, and explicit shape checks that return
/// [`LinalgError::ShapeMismatch`] instead of panicking on user input.
/// Internal invariant: `data.len() == rows * cols`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Returns a shape error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                got: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::ShapeMismatch {
                    expected: format!("rows of length {c}"),
                    got: format!("row of length {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Matrix::from_vec(r, c, data)
    }

    /// Build a matrix whose entries are produced by `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Entry accessor. Panics on out-of-bounds in debug builds only.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable entry accessor.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }

    /// Set entry `(i, j)` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Replace column `j` with the values in `v`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) -> Result<()> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} elements", self.rows),
                got: format!("{} elements", v.len()),
            });
        }
        for (i, &x) in v.iter().enumerate() {
            self.set(i, j, x);
        }
        Ok(())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Rows of `self` per parallel chunk in [`Self::matmul`] / [`Self::gram`].
    /// A multiple of the quad micro-kernel width (4), so only the final
    /// ragged chunk of a matrix ever takes the scalar remainder path.
    const ROWS_PER_CHUNK: usize = 64;

    /// Column tile width of the output in [`Self::matmul`] (`j` blocking).
    /// 64×64 f64 tiles of the right operand are 32 KiB — one L1 load per
    /// `(k, j)` tile pass instead of one per output row. 64 is also
    /// 16 × [`crate::kernels::LANES`], so a full tile row divides evenly
    /// into vector lanes and the lane kernels' remainder loops only run on
    /// the ragged final tile of a non-multiple-of-64 matrix.
    const J_BLOCK: usize = 64;

    /// Inner-dimension tile depth in [`Self::matmul`] (`k` blocking).
    /// A multiple of 4 so full tiles decompose exactly into
    /// [`crate::kernels::update_row_quad`] calls with no ragged `k` tail.
    const K_BLOCK: usize = 64;

    /// Matrix product `self * other`, cache-blocked.
    ///
    /// The row-chunk parallel split of PR 1 stays on top: output rows are
    /// cut into fixed chunks and computed independently. Within a chunk the
    /// kernel is tiled `(j, k, i, k')` — the `K_BLOCK × J_BLOCK` tile of
    /// `other` stays L1-resident while every row of the chunk streams over
    /// it, instead of being re-fetched once per row as in the untiled i-k-j
    /// order. The `k'` loop runs four rows of `other` at a time through
    /// [`crate::kernels::update_row_quad`], which performs the four
    /// weighted-row adds *sequentially* per element. Each output element
    /// therefore still accumulates its `k` products in strictly ascending
    /// order (tiles visited in ascending `k`, quads and the remainder in
    /// ascending `k` within a tile), so the result is **bit-for-bit**
    /// identical to the untiled scalar kernel and independent of the
    /// thread count. (The old kernel skipped exact-zero `a_ik`; the quad
    /// kernel does not. This is bitwise-neutral: an accumulator that
    /// starts at `+0.0` can never become `-0.0` under IEEE-754 addition,
    /// and adding `±0.0` to it never changes its bits.)
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("lhs cols == rhs rows ({} )", self.cols),
                got: format!(
                    "{}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let n = other.cols;
        let m = self.cols;
        let chunks = crate::parallel::map_chunks(self.rows, Self::ROWS_PER_CHUNK, |range| {
            let mut block = vec![0.0; range.len() * n];
            let mut jb = 0;
            while jb < n {
                let j_hi = (jb + Self::J_BLOCK).min(n);
                let mut kb = 0;
                while kb < m {
                    let k_hi = (kb + Self::K_BLOCK).min(m);
                    for (bi, i) in range.clone().enumerate() {
                        let a_row = &self.data[i * m + kb..i * m + k_hi];
                        let out_row = &mut block[bi * n + jb..bi * n + j_hi];
                        let span = k_hi - kb;
                        let quads = span - span % 4;
                        let mut kk = 0;
                        while kk < quads {
                            let k0 = kb + kk;
                            crate::kernels::update_row_quad(
                                out_row,
                                [a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]],
                                &other.data[k0 * n + jb..k0 * n + j_hi],
                                &other.data[(k0 + 1) * n + jb..(k0 + 1) * n + j_hi],
                                &other.data[(k0 + 2) * n + jb..(k0 + 2) * n + j_hi],
                                &other.data[(k0 + 3) * n + jb..(k0 + 3) * n + j_hi],
                            );
                            kk += 4;
                        }
                        while kk < span {
                            let k0 = kb + kk;
                            crate::kernels::axpy(
                                a_row[kk],
                                &other.data[k0 * n + jb..k0 * n + j_hi],
                                out_row,
                            );
                            kk += 1;
                        }
                    }
                    kb = k_hi;
                }
                jb = j_hi;
            }
            block
        });
        let mut data = Vec::with_capacity(self.rows * n);
        for block in chunks {
            data.extend_from_slice(&block);
        }
        Ok(Matrix::from_vec(self.rows, n, data).expect("chunks cover all rows"))
    }

    /// One row of a matrix product: accumulate `a_row · self` into `out`.
    ///
    /// **Bitwise contract:** this is row `i` of [`Self::matmul`] extracted
    /// as a standalone kernel. The tile walk (`j` blocks outer, `k` blocks
    /// inner) and the quad/remainder split within a tile are copied from
    /// `matmul`'s inner loop verbatim, and in `matmul` each output row's
    /// accumulation sequence is independent of every other row in its
    /// chunk — so `row_product_into(lhs.row(i), out)` produces bits equal
    /// to row `i` of `lhs.matmul(self)` for any `i`, regardless of how
    /// `matmul` chunked its rows. The tail-sharded trainer leans on this:
    /// workers rebuild their owned rows of the whole-data gradient
    /// `2·U·D` locally from the broadcast `r × r` D matrix and must land
    /// on the coordinator's floats exactly (pinned by
    /// `row_product_matches_matmul_rows` below).
    ///
    /// `out` is accumulated into (callers wanting the plain product zero
    /// it first), matching `matmul`'s zero-initialized output block.
    pub fn row_product_into(&self, a_row: &[f64], out: &mut [f64]) -> Result<()> {
        if a_row.len() != self.rows || out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("row of {} and out of {}", self.rows, self.cols),
                got: format!("row of {} and out of {}", a_row.len(), out.len()),
            });
        }
        let n = self.cols;
        let m = self.rows;
        let mut jb = 0;
        while jb < n {
            let j_hi = (jb + Self::J_BLOCK).min(n);
            let mut kb = 0;
            while kb < m {
                let k_hi = (kb + Self::K_BLOCK).min(m);
                let a_seg = &a_row[kb..k_hi];
                let out_row = &mut out[jb..j_hi];
                let span = k_hi - kb;
                let quads = span - span % 4;
                let mut kk = 0;
                while kk < quads {
                    let k0 = kb + kk;
                    crate::kernels::update_row_quad(
                        out_row,
                        [a_seg[kk], a_seg[kk + 1], a_seg[kk + 2], a_seg[kk + 3]],
                        &self.data[k0 * n + jb..k0 * n + j_hi],
                        &self.data[(k0 + 1) * n + jb..(k0 + 1) * n + j_hi],
                        &self.data[(k0 + 2) * n + jb..(k0 + 2) * n + j_hi],
                        &self.data[(k0 + 3) * n + jb..(k0 + 3) * n + j_hi],
                    );
                    kk += 4;
                }
                while kk < span {
                    let k0 = kb + kk;
                    crate::kernels::axpy(
                        a_seg[kk],
                        &self.data[k0 * n + jb..k0 * n + j_hi],
                        out_row,
                    );
                    kk += 1;
                }
                kb = k_hi;
            }
            jb = j_hi;
        }
        Ok(())
    }

    /// Rows of `other` per L1-resident block in [`Self::matmul_nt`]. With
    /// ranks `r ≤ 64` a 64-row block of the right operand is ≤ 32 KiB, so
    /// it stays cache-hot while every row of a left-operand chunk streams
    /// over it.
    const NT_ROWS_BLOCK: usize = 64;

    /// Transposed-right matrix product `self · otherᵀ` for two row-major
    /// operands sharing an inner dimension (`self.cols == other.cols`).
    ///
    /// This is the batched-scoring entry point of the serving layer: with
    /// `self = W` (one `h ⊙ U¹ᵢ ⊙ U³ₖ` weight vector per row) and
    /// `other = U²` (POI embeddings), row `b` of the product is the full
    /// score vector of request `b`. Both operands are read along their
    /// contiguous rows — no transpose is materialized.
    ///
    /// **Bitwise contract:** every output element is exactly
    /// `kernels::dot(self.row(i), other.row(j))` — the canonical lane-order
    /// reduction of [`crate::kernels`]. That is the same kernel, with the
    /// same operand order, as the per-POI scoring loop in
    /// `TcssModel::scores_for`, so a batched row is **bit-for-bit** equal
    /// to the per-request score vector. Parallelism splits only the
    /// *output* grid (rows of `self`, via [`crate::parallel::map_chunks`]),
    /// never a reduction, so results are thread-count independent.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("lhs cols == rhs cols ({})", self.cols),
                got: format!(
                    "{}x{} * ({}x{})^T",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let n = other.rows;
        let r = self.cols;
        let chunks = crate::parallel::map_chunks(self.rows, Self::ROWS_PER_CHUNK, |range| {
            let mut block = vec![0.0; range.len() * n];
            // Block over rows of `other` so each ≤ 32 KiB slab of U² is
            // fetched once per chunk and reused by every request row in
            // the chunk — the batch-amortization the serving layer buys.
            let mut jb = 0;
            while jb < n {
                let j_hi = (jb + Self::NT_ROWS_BLOCK).min(n);
                for (bi, i) in range.clone().enumerate() {
                    let a_row = &self.data[i * r..(i + 1) * r];
                    let out_row = &mut block[bi * n + jb..bi * n + j_hi];
                    let b_rows = other.data[jb * r..j_hi * r].chunks_exact(r);
                    for (out, b_row) in out_row.iter_mut().zip(b_rows) {
                        *out = crate::kernels::dot(a_row, b_row);
                    }
                }
                jb = j_hi;
            }
            block
        });
        let mut data = Vec::with_capacity(self.rows * n);
        for block in chunks {
            data.extend_from_slice(&block);
        }
        Ok(Matrix::from_vec(self.rows, n, data).expect("chunks cover all rows"))
    }

    /// Column tile width in [`Self::gram`] (`a`/`b` blocking). At the
    /// training ranks (`r ≤ 10`) the whole Gram fits in a single tile and
    /// the blocking never triggers; it exists to keep the kernel
    /// cache-resident for the wide matrices the eigen/SVD paths produce.
    /// Like [`Self::J_BLOCK`], it is a multiple of
    /// [`crate::kernels::LANES`], so full off-diagonal tiles vectorize
    /// with no lane remainder (the diagonal tile's triangular rows are
    /// ragged by construction and take the remainder path for their last
    /// `< LANES` elements).
    const GRAM_BLOCK: usize = 64;

    /// Gram matrix `selfᵀ * self` (`cols × cols`), exploiting symmetry.
    ///
    /// This is the kernel behind the rewritten loss of the paper (Eq 15):
    /// `U¹ᵀU¹`, `U²ᵀU²`, `U³ᵀU³` are all `r × r` Gram matrices. The row sum
    /// is a deterministic chunked reduction: per-chunk partial Grams merged
    /// in chunk order, so the floats never depend on the thread count.
    /// Within a chunk the upper triangle is computed per `(a, b)` column
    /// tile, streaming rows four at a time through
    /// [`crate::kernels::update_row_quad`] (sequential adds per element),
    /// so each output element accumulates its per-row products in strictly
    /// ascending row order exactly as the untiled scalar kernel did —
    /// tiling and the quad micro-kernel are bitwise-invisible. (The old
    /// kernel's exact-zero skip is gone; see [`Self::matmul`] for why that
    /// is bitwise-neutral.)
    pub fn gram(&self) -> Matrix {
        let r = self.cols;
        let parts = crate::parallel::map_chunks(self.rows, Self::ROWS_PER_CHUNK, |range| {
            let mut part = Matrix::zeros(r, r);
            let mut ab = 0;
            while ab < r {
                let a_hi = (ab + Self::GRAM_BLOCK).min(r);
                let mut bb = ab;
                while bb < r {
                    let b_hi = (bb + Self::GRAM_BLOCK).min(r);
                    let quads = range.len() - range.len() % 4;
                    let mut i = range.start;
                    while i < range.start + quads {
                        let r0 = self.row(i);
                        let r1 = self.row(i + 1);
                        let r2 = self.row(i + 2);
                        let r3 = self.row(i + 3);
                        for a in ab..a_hi {
                            let lo = a.max(bb);
                            crate::kernels::update_row_quad(
                                &mut part.data[a * r + lo..a * r + b_hi],
                                [r0[a], r1[a], r2[a], r3[a]],
                                &r0[lo..b_hi],
                                &r1[lo..b_hi],
                                &r2[lo..b_hi],
                                &r3[lo..b_hi],
                            );
                        }
                        i += 4;
                    }
                    while i < range.end {
                        let row = self.row(i);
                        for a in ab..a_hi {
                            let lo = a.max(bb);
                            crate::kernels::axpy(
                                row[a],
                                &row[lo..b_hi],
                                &mut part.data[a * r + lo..a * r + b_hi],
                            );
                        }
                        i += 1;
                    }
                    bb = b_hi;
                }
                ab = a_hi;
            }
            part
        });
        let mut g = Matrix::zeros(r, r);
        for part in parts {
            for (o, &p) in g.data.iter_mut().zip(part.data.iter()) {
                *o += p;
            }
        }
        for a in 0..r {
            for b in 0..a {
                g.data[a * r + b] = g.data[b * r + a];
            }
        }
        g
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} elements", self.cols),
                got: format!("{} elements", x.len()),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = crate::kernels::dot(self.row(i), x);
        }
        Ok(y)
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                got: format!("{}x{}", other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scale every entry by `s` (in place).
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Scaled copy `s * self`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// `self += s * other` (AXPY on matrices).
    pub fn axpy_mut(&mut self, s: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                got: format!("{}x{}", other.rows, other.cols),
            });
        }
        crate::kernels::axpy(s, &other.data, &mut self.data);
        Ok(())
    }

    /// Frobenius norm (lane-kernel reduction; see
    /// [`crate::kernels`] for the canonical summation order).
    pub fn frobenius_norm(&self) -> f64 {
        crate::kernels::dot(&self.data, &self.data).sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Zero out the diagonal (used by the spectral initializer: the paper
    /// zeroes the Gram diagonal because it "bears too much influence on the
    /// principal directions").
    pub fn zero_diagonal(&mut self) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] = 0.0;
        }
    }

    /// Fill with independent uniform samples in `[-scale, scale]`.
    pub fn random_uniform(rows: usize, cols: usize, scale: f64, rng: &mut impl rand::Rng) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Matrix { rows, cols, data }
    }

    /// True when all entries of `self` and `other` differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>10.4}", self.get(i, j))?;
                if j + 1 < self.cols {
                    write!(f, " ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 7.0]]).unwrap();
        let i = Matrix::identity(3);
        assert!(a.matmul(&i).unwrap().approx_eq(&a, 1e-12));
    }

    /// Pin of the `row_product_into` bitwise contract: every row of
    /// `a.matmul(b)` must be bit-for-bit reproducible from the standalone
    /// row kernel. Shapes cross the `J_BLOCK`/`K_BLOCK` tile boundaries
    /// and include ragged quad remainders so every code path is compared.
    #[test]
    fn row_product_matches_matmul_rows() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for &(rows, inner, cols) in &[(7, 16, 16), (3, 66, 65), (130, 70, 5), (4, 3, 1)] {
            let a =
                Matrix::from_vec(rows, inner, (0..rows * inner).map(|_| next()).collect()).unwrap();
            let b =
                Matrix::from_vec(inner, cols, (0..inner * cols).map(|_| next()).collect()).unwrap();
            let want = a.matmul(&b).unwrap();
            let mut out = vec![0.0; cols];
            for i in 0..rows {
                out.iter_mut().for_each(|v| *v = 0.0);
                b.row_product_into(a.row(i), &mut out).unwrap();
                for (j, &got) in out.iter().enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.get(i, j).to_bits(),
                        "row {i} col {j} of {rows}x{inner}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_product_shape_mismatch() {
        let b = Matrix::zeros(3, 2);
        assert!(b.row_product_into(&[1.0; 4], &mut [0.0; 2]).is_err());
        assert!(b.row_product_into(&[1.0; 3], &mut [0.0; 3]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = a.matvec(&[1.0, -1.0]).unwrap();
        assert_eq!(y, vec![-1.0, -1.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn zero_diagonal_only_touches_diagonal() {
        let mut a = Matrix::filled(3, 3, 2.0);
        a.zero_diagonal();
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(0, 1), 2.0);
    }

    #[test]
    fn frobenius_and_max_abs() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy_mut(0.5, &b).unwrap();
        assert!(a.approx_eq(&Matrix::filled(2, 2, 2.0), 1e-12));
    }

    /// The tiled matmul/gram kernels must agree with a naive triple loop on
    /// shapes that straddle the 64-wide tile boundaries (including the
    /// ragged final tiles) — and bit-for-bit with ascending-k accumulation.
    #[test]
    fn blocked_kernels_match_naive_across_tile_boundaries() {
        for (m, k, n) in [(3usize, 5usize, 4usize), (70, 65, 130), (64, 128, 64)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 29) % 11) as f64 - 5.0);
            let c = a.matmul(&b).unwrap();
            for i in 0..m {
                for j in 0..n {
                    // Plain ascending-k accumulation — the summation order
                    // the kernel promises to preserve. (The quad micro-
                    // kernel adds its four rows sequentially per element,
                    // so no reduction tree appears here.)
                    let mut want = 0.0;
                    for t in 0..k {
                        want += a.get(i, t) * b.get(t, j);
                    }
                    assert_eq!(
                        c.get(i, j).to_bits(),
                        want.to_bits(),
                        "({m}x{k}x{n}) element ({i},{j})"
                    );
                }
            }
            let g = a.gram();
            let explicit = a.transpose().matmul(&a).unwrap();
            assert!(g.approx_eq(&explicit, 1e-9), "gram mismatch at {m}x{k}");
        }
    }

    /// `matmul_nt` must equal `self * other.transpose()` numerically, and
    /// bit-for-bit equal the per-element lane-order dot it promises —
    /// across tile boundaries and thread counts.
    #[test]
    fn matmul_nt_matches_contract() {
        for (m, r, n) in [(1usize, 3usize, 2usize), (5, 10, 7), (70, 16, 130)] {
            let a = Matrix::from_fn(m, r, |i, j| ((i * 13 + j * 37) % 17) as f64 * 0.21 - 1.0);
            let b = Matrix::from_fn(n, r, |i, j| ((i * 11 + j * 23) % 19) as f64 * 0.17 - 0.8);
            let explicit = a.matmul(&b.transpose()).unwrap();
            for threads in [1usize, 2, 4] {
                crate::parallel::set_num_threads(Some(threads));
                let c = a.matmul_nt(&b).unwrap();
                assert_eq!(c.shape(), (m, n));
                assert!(c.approx_eq(&explicit, 1e-12), "{m}x{r}x{n} t{threads}");
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(
                            c.get(i, j).to_bits(),
                            crate::kernels::dot(a.row(i), b.row(j)).to_bits(),
                            "({m}x{r}x{n}) element ({i},{j}) at {threads} threads"
                        );
                    }
                }
            }
            crate::parallel::set_num_threads(None);
        }
    }

    #[test]
    fn matmul_nt_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 5);
        assert!(a.matmul_nt(&b).is_err());
        // Same inner dimension works even when row counts differ.
        assert!(Matrix::zeros(2, 3).matmul_nt(&Matrix::zeros(7, 3)).is_ok());
    }

    #[test]
    fn set_col_roundtrip() {
        let mut a = Matrix::zeros(3, 2);
        a.set_col(1, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.col(0), vec![0.0, 0.0, 0.0]);
        assert!(a.set_col(0, &[1.0]).is_err());
    }
}
