//! Symmetric eigendecomposition.
//!
//! Two tools live here:
//!
//! * [`jacobi_eigen`] — the classic cyclic Jacobi method for small dense
//!   symmetric matrices (used on `r × r` Rayleigh–Ritz projections and in the
//!   Tucker/PureSVD baselines).
//! * [`top_r_eigenvectors`] — blocked orthogonal iteration with a final
//!   Rayleigh–Ritz rotation, over an *implicit* symmetric operator
//!   ([`SymOp`]). The TCSS spectral initializer (paper Eq 4) uses this with
//!   the matrix-free operator `X ↦ A(AᵀX) − d ⊙ X` so the `I × I` Gram matrix
//!   `(A Aᵀ)|off-diag` is never materialized.
//!
//! Operators are applied a block at a time ([`SymOp::apply_block`]): each
//! sweep is one call for all `r` columns, so a sparse operator can walk its
//! nonzeros once for many columns instead of once per column. Column `c` of
//! a block apply is bit-for-bit the one-column [`SymOp::apply`] of column
//! `c`.

use crate::{qr, LinalgError, Matrix, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A symmetric linear operator exposed only through products with blocks
/// of vectors.
pub trait SymOp {
    /// Dimension `n` of the operator (it maps `ℝⁿ → ℝⁿ`).
    fn dim(&self) -> usize;

    /// Compute `Y = A X` for an `n × b` block `X`, returning the `n × b`
    /// block `Y`. Column `c` of `Y` must be bit-for-bit the product of `A`
    /// with column `c` of `X` alone: the block size is a speed knob, never
    /// a result knob.
    fn apply_block(&self, x: &Matrix) -> Matrix;

    /// Compute `y = A x` for one vector (a one-column [`apply_block`]);
    /// `y` is overwritten.
    ///
    /// [`apply_block`]: SymOp::apply_block
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let x = Matrix::from_vec(x.len(), 1, x.to_vec()).expect("one column");
        y.copy_from_slice(self.apply_block(&x).as_slice());
    }
}

/// Trivial [`SymOp`] wrapper around a dense symmetric [`Matrix`].
pub struct DenseSymOp<'a> {
    mat: &'a Matrix,
}

impl<'a> DenseSymOp<'a> {
    /// Wrap a dense symmetric matrix. Symmetry is the caller's contract;
    /// only the lower/upper agreement actually used by matvecs matters.
    pub fn new(mat: &'a Matrix) -> Self {
        debug_assert_eq!(mat.rows(), mat.cols());
        DenseSymOp { mat }
    }
}

impl SymOp for DenseSymOp<'_> {
    fn dim(&self) -> usize {
        self.mat.rows()
    }

    fn apply_block(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(x.rows(), x.cols());
        for c in 0..x.cols() {
            let col = x.col(c);
            for i in 0..x.rows() {
                y.set(i, c, crate::vector::dot(self.mat.row(i), &col));
            }
        }
        y
    }
}

/// Full eigendecomposition of a small dense symmetric matrix via cyclic
/// Jacobi rotations.
///
/// Returns `(eigenvalues, eigenvectors)` sorted by **descending** eigenvalue;
/// eigenvectors are the *columns* of the returned matrix.
pub fn jacobi_eigen(a: &Matrix, max_sweeps: usize) -> Result<(Vec<f64>, Matrix)> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: "square matrix".to_string(),
            got: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    if n <= 1 {
        let vals = (0..n).map(|i| m.get(i, i)).collect();
        return Ok((vals, v));
    }
    let tol = 1e-14 * a.frobenius_norm().max(1.0);
    let mut converged = false;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m.get(p, q).abs();
            }
        }
        if off < tol {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < tol / (n * n) as f64 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Update rows/columns p and q of the symmetric matrix.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    if !converged {
        // One more check: Jacobi converges fast; only genuinely pathological
        // inputs land here.
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m.get(p, q).abs();
            }
        }
        if off >= tol * 1e3 {
            return Err(LinalgError::NoConvergence {
                routine: "jacobi_eigen",
                iterations: max_sweeps,
            });
        }
    }
    // Sort descending by eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap());
    let vals: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vecs = Matrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        for i in 0..n {
            vecs.set(i, new_j, v.get(i, old_j));
        }
    }
    Ok((vals, vecs))
}

/// Configuration for [`top_r_eigenvectors`].
#[derive(Debug, Clone)]
pub struct OrthIterConfig {
    /// Maximum number of power sweeps.
    pub max_iters: usize,
    /// Stopping tolerance: a sweep ends the iteration when the Frobenius
    /// norm of `QᵀY − Q₋ᵀY₋` (this sweep's projection of the new
    /// orthonormal iterate `Y` onto the old one `Q`, minus the previous
    /// sweep's) falls below it. It is not a residual bound: the projection
    /// keeps rotating inside a subspace that has already converged, so the
    /// test can fire late or never. On the Gowalla preset at the default
    /// 10⁻⁹ it never fires — all three spectral-init modes run to the
    /// 300-sweep cap, with final subspace residuals
    /// `‖AQ − Q·QᵀAQ‖/‖AQ‖` of 1.4·10⁻⁷ (users), 2.6·10⁻⁵ (POIs) and
    /// 8.7·10⁻¹⁶ (months). Changing the rule moves the init's bits.
    pub tol: f64,
    /// RNG seed for the random starting block.
    pub seed: u64,
}

impl Default for OrthIterConfig {
    fn default() -> Self {
        OrthIterConfig {
            max_iters: 300,
            tol: 1e-9,
            seed: 0x5eed,
        }
    }
}

/// Top-`r` eigenpairs of a symmetric operator via blocked orthogonal
/// iteration with a Rayleigh–Ritz finish.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvectors as columns of an
/// `n × r` matrix, sorted by descending eigenvalue of the Ritz projection.
///
/// Orthogonal iteration converges to the invariant subspace of the `r`
/// eigenvalues largest in magnitude; for the (entrywise non-negative) Gram
/// operators used by the spectral initializer these coincide with the
/// algebraically largest ones, which is what the paper's `eigen(·, r)` means.
pub fn top_r_eigenvectors(
    op: &dyn SymOp,
    r: usize,
    cfg: &OrthIterConfig,
) -> Result<(Vec<f64>, Matrix)> {
    let n = op.dim();
    if r > n {
        return Err(LinalgError::RankTooLarge {
            requested: r,
            max: n,
        });
    }
    if r == 0 {
        return Ok((Vec::new(), Matrix::zeros(n, 0)));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut q = Matrix::random_uniform(n, r, 1.0, &mut rng);
    qr::orthonormalize(&mut q, &mut rng)?;

    let mut prev_proj = Matrix::zeros(r, r);
    for _iter in 0..cfg.max_iters {
        // Y = A Q, all r columns in one block apply.
        let mut y = op.apply_block(&q);
        qr::orthonormalize(&mut y, &mut rng)?;
        // Subspace convergence test: compare projectors via QᵀY.
        let proj = q.transpose().matmul(&y)?;
        // When the subspace has converged, QᵀY is orthogonal, and its
        // difference from the previous projection stabilizes.
        let delta = proj
            .sub(&prev_proj)
            .map(|d| d.frobenius_norm())
            .unwrap_or(f64::MAX);
        q = y;
        if delta < cfg.tol {
            break;
        }
        prev_proj = proj;
    }

    // Rayleigh–Ritz: T = Qᵀ A Q, eigendecompose, rotate Q.
    let aq = op.apply_block(&q);
    let t = q.transpose().matmul(&aq)?;
    // Symmetrize to wash out round-off before Jacobi.
    let t_sym = t.add(&t.transpose())?.scaled(0.5);
    let (vals, w) = jacobi_eigen(&t_sym, 100)?;
    let vecs = q.matmul(&w)?;
    Ok((vals, vecs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym_from_rows(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = sym_from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 50).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        // Eigenvectors are signed unit basis vectors.
        assert!((vecs.get(0, 0).abs() - 1.0).abs() < 1e-12);
        assert!((vecs.get(1, 1).abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = sym_from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 50).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        // A v = λ v for the dominant pair.
        let v0 = vecs.col(0);
        let av = a.matvec(&v0).unwrap();
        for i in 0..2 {
            assert!((av[i] - 3.0 * v0[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn jacobi_eigenvectors_orthonormal() {
        let a = sym_from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 100).unwrap();
        assert!(vecs.gram().approx_eq(&Matrix::identity(3), 1e-10));
        // Trace preserved.
        let trace: f64 = vals.iter().sum();
        assert!((trace - 9.0).abs() < 1e-9);
        // Sorted descending.
        assert!(vals[0] >= vals[1] && vals[1] >= vals[2]);
    }

    #[test]
    fn jacobi_handles_negative_eigenvalues() {
        let a = sym_from_rows(&[&[0.0, 2.0], &[2.0, 0.0]]); // eigenvalues ±2
        let (vals, _) = jacobi_eigen(&a, 50).unwrap();
        assert!((vals[0] - 2.0).abs() < 1e-10);
        assert!((vals[1] + 2.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_rejects_non_square() {
        assert!(jacobi_eigen(&Matrix::zeros(2, 3), 10).is_err());
    }

    #[test]
    fn orth_iter_matches_jacobi_on_psd_matrix() {
        // PSD matrix with well-separated eigenvalues.
        let a = sym_from_rows(&[
            &[10.0, 2.0, 0.5, 0.0],
            &[2.0, 7.0, 1.0, 0.3],
            &[0.5, 1.0, 4.0, 0.2],
            &[0.0, 0.3, 0.2, 1.0],
        ]);
        let (full_vals, _) = jacobi_eigen(&a, 100).unwrap();
        let op = DenseSymOp::new(&a);
        let (vals, vecs) = top_r_eigenvectors(&op, 2, &OrthIterConfig::default()).unwrap();
        assert!(
            (vals[0] - full_vals[0]).abs() < 1e-7,
            "{vals:?} vs {full_vals:?}"
        );
        assert!((vals[1] - full_vals[1]).abs() < 1e-7);
        // Residual check: ‖A v − λ v‖ small.
        for (j, &lambda) in vals.iter().enumerate() {
            let v = vecs.col(j);
            let av = a.matvec(&v).unwrap();
            let mut resid = 0.0;
            for (&avi, &vi) in av.iter().zip(v.iter()) {
                resid += (avi - lambda * vi).powi(2);
            }
            assert!(resid.sqrt() < 1e-6, "residual too large for pair {j}");
        }
    }

    #[test]
    fn dense_block_apply_columns_match_single_applies() {
        let a = sym_from_rows(&[&[2.0, -1.0, 0.5], &[-1.0, 3.0, 0.25], &[0.5, 0.25, 1.0]]);
        let op = DenseSymOp::new(&a);
        let x = Matrix::from_fn(3, 4, |i, c| (i * 4 + c) as f64 * 0.3 - 1.0);
        let y = op.apply_block(&x);
        for c in 0..4 {
            let mut yc = vec![0.0; 3];
            op.apply(&x.col(c), &mut yc);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y.col(c)), bits(&yc), "column {c}");
        }
    }

    #[test]
    fn orth_iter_rank_too_large() {
        let a = Matrix::identity(3);
        let op = DenseSymOp::new(&a);
        assert!(top_r_eigenvectors(&op, 4, &OrthIterConfig::default()).is_err());
    }

    #[test]
    fn orth_iter_rank_zero() {
        let a = Matrix::identity(3);
        let op = DenseSymOp::new(&a);
        let (vals, vecs) = top_r_eigenvectors(&op, 0, &OrthIterConfig::default()).unwrap();
        assert!(vals.is_empty());
        assert_eq!(vecs.shape(), (3, 0));
    }
}
