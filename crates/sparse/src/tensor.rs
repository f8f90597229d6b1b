//! Sparse order-3 tensor in deduplicated COO form.

use crate::{Result, SparseError};
use std::cell::RefCell;
use std::collections::HashMap;
use tcss_linalg::{Matrix, SymOp};

/// One nonzero entry of a [`SparseTensor3`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorEntry {
    /// Mode-1 index (user).
    pub i: usize,
    /// Mode-2 index (POI).
    pub j: usize,
    /// Mode-3 index (time unit).
    pub k: usize,
    /// Entry value (1.0 for the paper's binary check-in tensor).
    pub value: f64,
}

/// Which mode (axis) of the tensor an operation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Users (dimension `I`).
    One,
    /// POIs (dimension `J`).
    Two,
    /// Time units (dimension `K`).
    Three,
}

impl Mode {
    /// All three modes, in order.
    pub const ALL: [Mode; 3] = [Mode::One, Mode::Two, Mode::Three];

    /// Index of this mode's coordinate within an `(i, j, k)` triple.
    fn select(&self, e: &TensorEntry) -> usize {
        match self {
            Mode::One => e.i,
            Mode::Two => e.j,
            Mode::Three => e.k,
        }
    }
}

/// A sparse order-3 tensor `X ∈ ℝ^{I×J×K}` stored as deduplicated COO
/// triples sorted lexicographically by `(i, j, k)`.
///
/// Duplicate indices passed to the constructor are **summed** (a user
/// checking in at the same POI in the same time unit twice still yields
/// `X = 1` in the paper's binary setting; callers that want binary semantics
/// use [`SparseTensor3::binarized`]).
#[derive(Debug, Clone)]
pub struct SparseTensor3 {
    dims: (usize, usize, usize),
    entries: Vec<TensorEntry>,
    /// `index[m][x]` lists positions into `entries` whose mode-`m` coordinate
    /// is `x`; built lazily at construction, used by slice queries and the
    /// Gram operators.
    index: [Vec<Vec<u32>>; 3],
}

impl SparseTensor3 {
    /// Build a tensor from raw `(i, j, k, value)` entries.
    ///
    /// Duplicates are summed; zero-valued results are kept (they still mark
    /// an *observed* entry, which matters for train/test bookkeeping).
    pub fn from_entries(
        dims: (usize, usize, usize),
        raw: impl IntoIterator<Item = (usize, usize, usize, f64)>,
    ) -> Result<Self> {
        let mut map: HashMap<(usize, usize, usize), f64> = HashMap::new();
        for (i, j, k, v) in raw {
            if i >= dims.0 || j >= dims.1 || k >= dims.2 {
                return Err(SparseError::IndexOutOfBounds {
                    index: (i, j, k),
                    dims,
                });
            }
            *map.entry((i, j, k)).or_insert(0.0) += v;
        }
        let mut entries: Vec<TensorEntry> = map
            .into_iter()
            .map(|((i, j, k), value)| TensorEntry { i, j, k, value })
            .collect();
        entries.sort_by_key(|e| (e.i, e.j, e.k));
        let index = Self::build_index(dims, &entries);
        Ok(SparseTensor3 {
            dims,
            entries,
            index,
        })
    }

    /// Empty tensor of the given dimensions.
    pub fn empty(dims: (usize, usize, usize)) -> Self {
        SparseTensor3 {
            dims,
            entries: Vec::new(),
            index: [
                vec![Vec::new(); dims.0],
                vec![Vec::new(); dims.1],
                vec![Vec::new(); dims.2],
            ],
        }
    }

    fn build_index(dims: (usize, usize, usize), entries: &[TensorEntry]) -> [Vec<Vec<u32>>; 3] {
        let mut idx = [
            vec![Vec::new(); dims.0],
            vec![Vec::new(); dims.1],
            vec![Vec::new(); dims.2],
        ];
        for (pos, e) in entries.iter().enumerate() {
            idx[0][e.i].push(pos as u32);
            idx[1][e.j].push(pos as u32);
            idx[2][e.k].push(pos as u32);
        }
        idx
    }

    /// `(I, J, K)` dimensions.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Number of stored (observed) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of cells that are observed: `nnz / (I·J·K)`.
    pub fn density(&self) -> f64 {
        let total = (self.dims.0 * self.dims.1 * self.dims.2) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / total
        }
    }

    /// All stored entries, sorted by `(i, j, k)`.
    #[inline]
    pub fn entries(&self) -> &[TensorEntry] {
        &self.entries
    }

    /// Value at `(i, j, k)`; 0.0 for unobserved cells.
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.entries
            .binary_search_by_key(&(i, j, k), |e| (e.i, e.j, e.k))
            .map(|pos| self.entries[pos].value)
            .unwrap_or(0.0)
    }

    /// Whether `(i, j, k)` is an observed entry.
    pub fn contains(&self, i: usize, j: usize, k: usize) -> bool {
        self.entries
            .binary_search_by_key(&(i, j, k), |e| (e.i, e.j, e.k))
            .is_ok()
    }

    /// Entries whose mode-`m` coordinate equals `x` (a tensor "slice").
    pub fn slice(&self, mode: Mode, x: usize) -> impl Iterator<Item = &TensorEntry> {
        let list: &[u32] = match mode {
            Mode::One => &self.index[0][x],
            Mode::Two => &self.index[1][x],
            Mode::Three => &self.index[2][x],
        };
        list.iter().map(move |&p| &self.entries[p as usize])
    }

    /// A copy with every stored value replaced by 1.0 (the paper's binary
    /// check-in semantics).
    pub fn binarized(&self) -> SparseTensor3 {
        let mut t = self.clone();
        for e in &mut t.entries {
            e.value = 1.0;
        }
        t
    }

    /// Dense mode-`m` matricization.
    ///
    /// Following §IV-A of the paper: mode-1 gives `A ∈ ℝ^{I×(JK)}` with
    /// `A_{i,(j·K+k)} = X_{ijk}` (and cyclically for modes 2 and 3). Only
    /// suitable for test-scale tensors; production code paths use
    /// [`ModeGramOp`] instead.
    pub fn matricize_dense(&self, mode: Mode) -> Matrix {
        let (i_dim, j_dim, k_dim) = self.dims;
        let (rows, cols) = match mode {
            Mode::One => (i_dim, j_dim * k_dim),
            Mode::Two => (j_dim, i_dim * k_dim),
            Mode::Three => (k_dim, i_dim * j_dim),
        };
        let mut m = Matrix::zeros(rows, cols);
        for e in &self.entries {
            let (r, c) = match mode {
                Mode::One => (e.i, e.j * k_dim + e.k),
                Mode::Two => (e.j, e.i * k_dim + e.k),
                Mode::Three => (e.k, e.i * j_dim + e.j),
            };
            m.set(r, c, e.value);
        }
        m
    }

    /// Squared row norms of the mode-`m` matricization:
    /// `d_x = Σ_{entries with mode-m coord x} value²`.
    ///
    /// These are the Gram diagonal entries the spectral initializer zeroes
    /// out (the paper's `(A Aᵀ)|off-diag`).
    pub fn mode_sq_norms(&self, mode: Mode) -> Vec<f64> {
        let n = match mode {
            Mode::One => self.dims.0,
            Mode::Two => self.dims.1,
            Mode::Three => self.dims.2,
        };
        let mut d = vec![0.0; n];
        for e in &self.entries {
            d[mode.select(e)] += e.value * e.value;
        }
        d
    }

    /// Frobenius norm of the stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.value * e.value)
            .sum::<f64>()
            .sqrt()
    }
}

/// Matrix-free symmetric operator `X ↦ (A Aᵀ)|off-diag · X` where `A` is the
/// mode-`m` matricization of a [`SparseTensor3`].
///
/// This is the operator behind the paper's spectral initialization (Eq 4):
/// `Y = A(AᵀX) − d ⊙ X` with `d` the squared row norms, applied to an
/// `n × b` block `X` in column panels of up to 8, each one pass over the
/// nonzeros (a rank-10 sweep is two passes, not ten). [`ModeGramOp::new`]
/// gives each *fiber* that holds an entry (a column of `A`) a compact id,
/// so the `AᵀX` scratch is `n_fibers × 8` at most — on the Gowalla preset
/// 1,574 / 2,250 / 4,209 fibers against dense fiber spaces of 6,240 /
/// 2,640 / 114,400 — and is reused across applies.
///
/// Every column of a block apply is bit-for-bit the one-column apply of
/// that column, and both are serial: the spectral initializer runs its
/// three modes concurrently instead.
pub struct ModeGramOp {
    diag: Vec<f64>,
    /// Row `x`'s entries, as `(fiber id, value)` in ascending entry order,
    /// are `row_entries[row_ptr[x]..row_ptr[x + 1]]`.
    row_ptr: Vec<usize>,
    row_entries: Vec<(u32, f64)>,
    /// Fiber `f`'s entries, as `(row, value)` in ascending entry order, are
    /// `fiber_entries[fiber_ptr[f]..fiber_ptr[f + 1]]`.
    fiber_ptr: Vec<usize>,
    fiber_entries: Vec<(u32, f64)>,
    /// One panel of `AᵀX`, `n_fibers × W` row-major; every panel
    /// overwrites the part it uses.
    scratch: RefCell<Vec<f64>>,
}

impl ModeGramOp {
    /// Create the off-diagonal Gram operator for one mode of the tensor.
    pub fn new(tensor: &SparseTensor3, mode: Mode) -> Self {
        let lists = &tensor.index[mode as usize];
        let fiber = |e: &TensorEntry| match mode {
            Mode::One => (e.j, e.k),
            Mode::Two => (e.i, e.k),
            Mode::Three => (e.i, e.j),
        };
        let entries = tensor.entries();
        // Fibers in ascending order of their other two coordinates; within
        // a fiber, entries in ascending entry order.
        let mut by_fiber: Vec<((usize, usize), u32)> = entries
            .iter()
            .enumerate()
            .map(|(p, e)| (fiber(e), p as u32))
            .collect();
        by_fiber.sort_unstable();
        let mut fiber_of = vec![0u32; entries.len()];
        let mut fiber_ptr = Vec::new();
        let mut fiber_entries = Vec::with_capacity(entries.len());
        for (idx, &(key, p)) in by_fiber.iter().enumerate() {
            if idx == 0 || key != by_fiber[idx - 1].0 {
                fiber_ptr.push(idx);
            }
            fiber_of[p as usize] = (fiber_ptr.len() - 1) as u32;
            let e = &entries[p as usize];
            fiber_entries.push((mode.select(e) as u32, e.value));
        }
        fiber_ptr.push(entries.len());
        let mut row_ptr = Vec::with_capacity(lists.len() + 1);
        let mut row_entries = Vec::with_capacity(entries.len());
        row_ptr.push(0);
        for list in lists {
            row_entries.extend(
                list.iter()
                    .map(|&p| (fiber_of[p as usize], entries[p as usize].value)),
            );
            row_ptr.push(row_entries.len());
        }
        ModeGramOp {
            diag: tensor.mode_sq_norms(mode),
            row_ptr,
            row_entries,
            fiber_ptr,
            fiber_entries,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// Number of fibers (columns of the matricization) holding an entry.
    fn n_fibers(&self) -> usize {
        self.fiber_ptr.len() - 1
    }

    /// Columns `c0..c0 + W` of `Y = A(AᵀX) − d ⊙ X`, written into the
    /// zeroed `y`; returns `W`. The panel width is a compile-time constant
    /// so the per-entry column loops unroll and vectorize; the arithmetic
    /// of each column does not depend on it.
    fn apply_panel<const W: usize>(
        &self,
        x: &Matrix,
        c0: usize,
        t: &mut Vec<f64>,
        y: &mut Matrix,
    ) -> usize {
        let b = x.cols();
        let xs = x.as_slice();
        // T = AᵀX: each fiber sums its entries from 0.0 in ascending entry
        // order, the order in which a dense scatter over the sorted entries
        // adds them.
        t.resize(self.n_fibers() * W, 0.0);
        for (f, tf) in t.chunks_exact_mut(W).enumerate() {
            let mut acc = [0.0f64; W];
            for &(row, v) in &self.fiber_entries[self.fiber_ptr[f]..self.fiber_ptr[f + 1]] {
                let xr = &xs[row as usize * b + c0..][..W];
                for (a, &xv) in acc.iter_mut().zip(xr) {
                    *a += v * xv;
                }
            }
            tf.copy_from_slice(&acc);
        }
        // Y = A T − d ⊙ X. Each row reduces each column with four
        // independent accumulators in the canonical lane order of
        // `tcss_linalg::kernels` (lane l takes every 4th entry starting at
        // l, in sorted entry order; fixed pairwise combine; sequential
        // tail): a pure function of the row's entry list. The four
        // dependency chains cover the latency of the indexed loads.
        for row in 0..self.dim() {
            let list = &self.row_entries[self.row_ptr[row]..self.row_ptr[row + 1]];
            let main = list.len() - list.len() % 4;
            let mut acc = [[0.0f64; W]; 4];
            for quad in list[..main].chunks_exact(4) {
                for (lane, &(f, v)) in acc.iter_mut().zip(quad) {
                    let tf = &t[f as usize * W..][..W];
                    for (a, &tv) in lane.iter_mut().zip(tf) {
                        *a += v * tv;
                    }
                }
            }
            let mut s = [0.0f64; W];
            for (c, sc) in s.iter_mut().enumerate() {
                *sc = (acc[0][c] + acc[1][c]) + (acc[2][c] + acc[3][c]);
            }
            for &(f, v) in &list[main..] {
                let tf = &t[f as usize * W..][..W];
                for (sc, &tv) in s.iter_mut().zip(tf) {
                    *sc += v * tv;
                }
            }
            let d = self.diag[row];
            let xr = &xs[row * b + c0..][..W];
            let yr = &mut y.row_mut(row)[c0..][..W];
            for ((yv, &sc), &xv) in yr.iter_mut().zip(&s).zip(xr) {
                *yv += sc;
                *yv -= d * xv;
            }
        }
        W
    }
}

impl SymOp for ModeGramOp {
    fn dim(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Applies the block in column panels of 8, 4, 2 and 1 (10 columns
    /// are two passes over the nonzeros: 8, then 2).
    fn apply_block(&self, x: &Matrix) -> Matrix {
        let b = x.cols();
        let mut y = Matrix::zeros(self.dim(), b);
        let mut t = self.scratch.borrow_mut();
        let mut c0 = 0;
        while c0 < b {
            c0 += match b - c0 {
                8.. => self.apply_panel::<8>(x, c0, &mut t, &mut y),
                4..=7 => self.apply_panel::<4>(x, c0, &mut t, &mut y),
                2 | 3 => self.apply_panel::<2>(x, c0, &mut t, &mut y),
                _ => self.apply_panel::<1>(x, c0, &mut t, &mut y),
            };
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcss_linalg::{top_r_eigenvectors, DenseSymOp};

    fn small_tensor() -> SparseTensor3 {
        SparseTensor3::from_entries(
            (3, 4, 2),
            vec![
                (0, 0, 0, 1.0),
                (0, 1, 1, 1.0),
                (1, 0, 0, 1.0),
                (1, 2, 1, 1.0),
                (2, 3, 0, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let t = small_tensor();
        assert_eq!(t.nnz(), 5);
        assert_eq!(t.get(0, 0, 0), 1.0);
        assert_eq!(t.get(0, 0, 1), 0.0);
        assert!(t.contains(1, 2, 1));
        assert!(!t.contains(2, 0, 0));
        assert!((t.density() - 5.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_are_summed_and_binarized_resets() {
        let t = SparseTensor3::from_entries(
            (2, 2, 2),
            vec![(0, 0, 0, 1.0), (0, 0, 0, 1.0), (1, 1, 1, 1.0)],
        )
        .unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(0, 0, 0), 2.0);
        let b = t.binarized();
        assert_eq!(b.get(0, 0, 0), 1.0);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let r = SparseTensor3::from_entries((2, 2, 2), vec![(2, 0, 0, 1.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn slices_cover_all_entries() {
        let t = small_tensor();
        let user0: Vec<_> = t.slice(Mode::One, 0).collect();
        assert_eq!(user0.len(), 2);
        let poi0: Vec<_> = t.slice(Mode::Two, 0).collect();
        assert_eq!(poi0.len(), 2);
        let time1: Vec<_> = t.slice(Mode::Three, 1).collect();
        assert_eq!(time1.len(), 2);
        let total: usize = (0..3).map(|i| t.slice(Mode::One, i).count()).sum();
        assert_eq!(total, t.nnz());
    }

    #[test]
    fn matricization_shapes_and_layout() {
        let t = small_tensor();
        let a = t.matricize_dense(Mode::One);
        assert_eq!(a.shape(), (3, 8));
        // X_{0,1,1} lands at column j*K + k = 1*2 + 1 = 3.
        assert_eq!(a.get(0, 3), 1.0);
        let b = t.matricize_dense(Mode::Two);
        assert_eq!(b.shape(), (4, 6));
        // X_{1,2,1} → row 2, column i*K + k = 1*2+1 = 3.
        assert_eq!(b.get(2, 3), 1.0);
        let c = t.matricize_dense(Mode::Three);
        assert_eq!(c.shape(), (2, 12));
        // X_{2,3,0} → row 0, column i*J + j = 2*4+3 = 11.
        assert_eq!(c.get(0, 11), 1.0);
    }

    #[test]
    fn mode_sq_norms_match_matricization() {
        let t = small_tensor();
        for mode in Mode::ALL {
            let a = t.matricize_dense(mode);
            let d = t.mode_sq_norms(mode);
            for (i, &di) in d.iter().enumerate() {
                let row_norm_sq: f64 = a.row(i).iter().map(|v| v * v).sum();
                assert!((di - row_norm_sq).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gram_op_matches_dense_offdiag_gram() {
        let t = small_tensor();
        for mode in Mode::ALL {
            let a = t.matricize_dense(mode);
            let mut gram = a.matmul(&a.transpose()).unwrap();
            gram.zero_diagonal();
            let op = ModeGramOp::new(&t, mode);
            let n = gram.rows();
            // Compare operator application on each basis vector.
            for b in 0..n {
                let mut x = vec![0.0; n];
                x[b] = 1.0;
                let mut y = vec![0.0; n];
                op.apply(&x, &mut y);
                let expected = gram.col(b);
                for i in 0..n {
                    assert!(
                        (y[i] - expected[i]).abs() < 1e-12,
                        "mode {mode:?}, basis {b}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_op_keeps_only_occupied_fibers() {
        let t = small_tensor();
        // Mode-1 fibers (j, k): (0,0) twice, (1,1), (2,1), (3,0).
        assert_eq!(ModeGramOp::new(&t, Mode::One).n_fibers(), 4);
        // Mode-3 fibers (i, j): all five entries differ.
        assert_eq!(ModeGramOp::new(&t, Mode::Three).n_fibers(), 5);
        let empty = SparseTensor3::empty((3, 2, 2));
        let op = ModeGramOp::new(&empty, Mode::Two);
        assert_eq!(op.n_fibers(), 0);
        let y = op.apply_block(&Matrix::filled(2, 3, 1.5));
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gram_op_eigen_matches_dense_eigen() {
        // Larger random-ish tensor: verify top-2 eigenvalues of the implicit
        // operator match the dense off-diagonal Gram matrix.
        let mut raw = Vec::new();
        for s in 0..40usize {
            let i = (s * 7) % 8;
            let j = (s * 5) % 6;
            let k = (s * 3) % 4;
            raw.push((i, j, k, 1.0));
        }
        let t = SparseTensor3::from_entries((8, 6, 4), raw).unwrap();
        let a = t.matricize_dense(Mode::One);
        let mut gram = a.matmul(&a.transpose()).unwrap();
        gram.zero_diagonal();
        let dense_op = DenseSymOp::new(&gram);
        let cfg = tcss_linalg::eigen::OrthIterConfig::default();
        let (dense_vals, _) = top_r_eigenvectors(&dense_op, 2, &cfg).unwrap();
        let sparse_op = ModeGramOp::new(&t, Mode::One);
        let (sparse_vals, _) = top_r_eigenvectors(&sparse_op, 2, &cfg).unwrap();
        for k in 0..2 {
            assert!(
                (dense_vals[k] - sparse_vals[k]).abs() < 1e-6,
                "{dense_vals:?} vs {sparse_vals:?}"
            );
        }
    }

    #[test]
    fn empty_tensor_behaves() {
        let t = SparseTensor3::empty((2, 2, 2));
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.density(), 0.0);
        assert_eq!(t.get(0, 0, 0), 0.0);
        assert_eq!(t.mode_sq_norms(Mode::One), vec![0.0, 0.0]);
    }

    #[test]
    fn matrix_frobenius_matches_tensor() {
        let t = small_tensor();
        let a = t.matricize_dense(Mode::One);
        assert!((t.frobenius_norm() - a.frobenius_norm()).abs() < 1e-12);
    }
}
