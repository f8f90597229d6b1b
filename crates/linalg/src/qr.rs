//! Orthonormalization (modified Gram–Schmidt, the `Q` of a thin QR).
//!
//! The blocked orthogonal iteration in [`crate::eigen`] re-orthonormalizes
//! its iterate every sweep; that is the consumer of this module.

use crate::kernels::{axpy, dot};
use crate::{vector, LinalgError, Matrix, Result};

/// Replace the columns of `a` with an orthonormal basis of their span.
///
/// Columns that are (numerically) linearly dependent are replaced by
/// re-randomized directions orthogonal to the rest, so the result always has
/// full column rank — orthogonal iteration relies on this to escape
/// degenerate starting blocks.
pub fn orthonormalize(a: &mut Matrix, rng: &mut impl rand::Rng) -> Result<()> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::ShapeMismatch {
            expected: "rows >= cols".to_string(),
            got: format!("{m}x{n}"),
        });
    }
    // Modified Gram-Schmidt with re-randomization of rank-deficient columns.
    for j in 0..n {
        let mut col = a.col(j);
        for prev in 0..j {
            let p = a.col(prev);
            let proj = dot(&col, &p);
            axpy(-proj, &p, &mut col);
        }
        let mut norm = vector::normalize(&mut col);
        let mut attempts = 0;
        while norm < 1e-10 && attempts < 8 {
            // Degenerate column: re-draw and re-orthogonalize.
            for v in &mut col {
                *v = rng.gen_range(-1.0..=1.0);
            }
            for prev in 0..j {
                let p = a.col(prev);
                let proj = dot(&col, &p);
                axpy(-proj, &p, &mut col);
            }
            norm = vector::normalize(&mut col);
            attempts += 1;
        }
        if norm < 1e-10 {
            return Err(LinalgError::NoConvergence {
                routine: "orthonormalize",
                iterations: attempts,
            });
        }
        a.set_col(j, &col)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn is_orthonormal(q: &Matrix, tol: f64) -> bool {
        let g = q.gram();
        g.approx_eq(&Matrix::identity(q.cols()), tol)
    }

    /// The thin QR that [`orthonormalize`] computes: `Q` its output,
    /// `R = QᵀA`.
    fn thin_qr(a: &Matrix) -> Result<(Matrix, Matrix)> {
        let mut q = a.clone();
        orthonormalize(&mut q, &mut StdRng::seed_from_u64(3))?;
        let r = q.transpose().matmul(a)?;
        Ok((q, r))
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let (q, r) = thin_qr(&a).unwrap();
        assert!(is_orthonormal(&q, 1e-10));
        let qr = q.matmul(&r).unwrap();
        assert!(qr.approx_eq(&a, 1e-10));
    }

    #[test]
    fn qr_r_is_upper_triangular() {
        let a = Matrix::from_rows(&[
            &[2.0, -1.0, 3.0],
            &[1.0, 0.0, 1.0],
            &[4.0, 2.0, 1.0],
            &[0.5, 1.5, -2.0],
        ])
        .unwrap();
        let (_, r) = thin_qr(&a).unwrap();
        for i in 0..r.rows() {
            for j in 0..i {
                assert!(r.get(i, j).abs() < 1e-12, "below-diagonal entry not zero");
            }
        }
    }

    #[test]
    fn qr_rejects_wide_matrix() {
        assert!(thin_qr(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn orthonormalize_produces_orthonormal_basis() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = Matrix::random_uniform(10, 4, 1.0, &mut rng);
        orthonormalize(&mut a, &mut rng).unwrap();
        assert!(is_orthonormal(&a, 1e-10));
    }

    #[test]
    fn orthonormalize_recovers_from_duplicate_columns() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = Matrix::zeros(6, 3);
        // Two identical columns + one zero column: rank 1 input.
        for i in 0..6 {
            a.set(i, 0, (i + 1) as f64);
            a.set(i, 1, (i + 1) as f64);
        }
        orthonormalize(&mut a, &mut rng).unwrap();
        assert!(is_orthonormal(&a, 1e-8));
    }
}
