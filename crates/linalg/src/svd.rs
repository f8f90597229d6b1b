//! Truncated singular value decomposition.
//!
//! Built on the symmetric eigen machinery: for `A: m × n` with `m >= n` we
//! eigendecompose the implicit normal operator `AᵀA` (or `AAᵀ` in the wide
//! case) and recover the other factor by projection. This is exactly the
//! classical route PureSVD takes, and it is accurate enough for the
//! recommendation workloads here where only the top few singular triplets
//! matter and singular values are well separated from the noise floor.

use crate::eigen::{top_r_eigenvectors, OrthIterConfig, SymOp};
use crate::{Matrix, Result};

/// A rank-`r` truncated SVD `A ≈ U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × r` (columns).
    pub u: Matrix,
    /// Singular values, descending, length `r`.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × r` (columns).
    pub v: Matrix,
}

impl Svd {
    /// Reconstruct the rank-`r` approximation `U Σ Vᵀ`.
    pub fn reconstruct(&self) -> Result<Matrix> {
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            let row = us.row_mut(i);
            for (j, s) in self.sigma.iter().enumerate() {
                row[j] *= s;
            }
        }
        us.matmul(&self.v.transpose())
    }

    /// Predicted entry `(i, j)` of the reconstruction without materializing it.
    pub fn predict(&self, i: usize, j: usize) -> f64 {
        let mut acc = 0.0;
        for (k, s) in self.sigma.iter().enumerate() {
            acc += self.u.get(i, k) * s * self.v.get(j, k);
        }
        acc
    }
}

/// Normal operator `x ↦ Aᵀ(A x)` for a dense matrix (n-dimensional).
struct NormalOp<'a> {
    a: &'a Matrix,
}

impl SymOp for NormalOp<'_> {
    fn dim(&self) -> usize {
        self.a.cols()
    }

    fn apply_block(&self, x: &Matrix) -> Matrix {
        // Column by column, y = Aᵀ (A x); stream row-wise over A for both
        // products.
        let (m, n) = self.a.shape();
        let mut out = Matrix::zeros(n, x.cols());
        let mut ax = vec![0.0; m];
        let mut y = vec![0.0; n];
        for c in 0..x.cols() {
            let col = x.col(c);
            for (i, axi) in ax.iter_mut().enumerate() {
                *axi = crate::kernels::dot(self.a.row(i), &col);
            }
            y.fill(0.0);
            for (i, &axi) in ax.iter().enumerate() {
                if axi == 0.0 {
                    continue;
                }
                crate::kernels::axpy(axi, self.a.row(i), &mut y);
            }
            out.set_col(c, &y).expect("column length is n");
        }
        out
    }
}

/// Rank-`r` truncated SVD of a dense matrix.
///
/// Negative Ritz values (possible only through round-off, since `AᵀA` is PSD)
/// are clamped to zero before the square root.
pub fn truncated_svd(a: &Matrix, r: usize, cfg: &OrthIterConfig) -> Result<Svd> {
    let (m, n) = a.shape();
    if n <= m {
        let op = NormalOp { a };
        let (vals, v) = top_r_eigenvectors(&op, r, cfg)?;
        let sigma: Vec<f64> = vals.iter().map(|&l| l.max(0.0).sqrt()).collect();
        // U = A V Σ⁻¹ (columns with σ=0 are left as zero vectors).
        let av = a.matmul(&v)?;
        let mut u = Matrix::zeros(m, r);
        for (j, &sj) in sigma.iter().enumerate() {
            if sj > 1e-12 {
                for i in 0..m {
                    u.set(i, j, av.get(i, j) / sj);
                }
            }
        }
        Ok(Svd { u, sigma, v })
    } else {
        // Wide matrix: factorize the transpose and swap factors.
        let t = a.transpose();
        let svd_t = truncated_svd(&t, r, cfg)?;
        Ok(Svd {
            u: svd_t.v,
            sigma: svd_t.sigma,
            v: svd_t.u,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::OrthIterConfig;

    #[test]
    fn svd_of_diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]]).unwrap();
        let svd = truncated_svd(&a, 2, &OrthIterConfig::default()).unwrap();
        assert!((svd.sigma[0] - 3.0).abs() < 1e-8);
        assert!((svd.sigma[1] - 2.0).abs() < 1e-8);
        let rec = svd.reconstruct().unwrap();
        assert!(rec.approx_eq(&a, 1e-8));
    }

    #[test]
    fn svd_rank1_exact() {
        // Outer product uvᵀ has a single nonzero singular value ‖u‖‖v‖.
        let u = [1.0, 2.0, 2.0];
        let v = [3.0, 4.0];
        let a = Matrix::from_fn(3, 2, |i, j| u[i] * v[j]);
        let svd = truncated_svd(&a, 1, &OrthIterConfig::default()).unwrap();
        assert!((svd.sigma[0] - 15.0).abs() < 1e-7); // ‖u‖=3, ‖v‖=5
        let rec = svd.reconstruct().unwrap();
        assert!(rec.approx_eq(&a, 1e-7));
    }

    #[test]
    fn svd_wide_matrix_matches_tall_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[0.0, 1.0, -1.0, 2.0]]).unwrap();
        let svd = truncated_svd(&a, 2, &OrthIterConfig::default()).unwrap();
        let svd_t = truncated_svd(&a.transpose(), 2, &OrthIterConfig::default()).unwrap();
        for k in 0..2 {
            assert!((svd.sigma[k] - svd_t.sigma[k]).abs() < 1e-8);
        }
        assert!(svd.reconstruct().unwrap().approx_eq(&a, 1e-7));
    }

    #[test]
    fn predict_matches_reconstruct() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[0.2, 2.0], &[0.0, 1.0]]).unwrap();
        let svd = truncated_svd(&a, 2, &OrthIterConfig::default()).unwrap();
        let rec = svd.reconstruct().unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert!((svd.predict(i, j) - rec.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn truncation_drops_small_directions() {
        // Rank-2 matrix with σ₁ ≫ σ₂; rank-1 truncation keeps only σ₁.
        let a = Matrix::from_rows(&[&[10.0, 0.0], &[0.0, 0.1]]).unwrap();
        let svd = truncated_svd(&a, 1, &OrthIterConfig::default()).unwrap();
        assert_eq!(svd.sigma.len(), 1);
        assert!((svd.sigma[0] - 10.0).abs() < 1e-6);
    }
}
