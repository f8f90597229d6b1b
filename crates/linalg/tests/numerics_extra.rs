//! Additional numerical stress tests for the linear-algebra kernels.

// Index loops mirror the table/axis layout here; see tcss-linalg's
// crate-level rationale for the same allow.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use tcss_linalg::eigen::OrthIterConfig;
use tcss_linalg::{
    jacobi_eigen, solve_linear_system, top_r_eigenvectors, truncated_svd, DenseSymOp, Matrix,
};

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random_uniform(n, n, 1.0, &mut rng);
    a.add(&a.transpose()).unwrap().scaled(0.5)
}

#[test]
fn jacobi_reconstructs_matrix() {
    // A = V Λ Vᵀ must hold to machine precision.
    for seed in [1u64, 2, 3] {
        let a = random_symmetric(8, seed);
        let (vals, vecs) = jacobi_eigen(&a, 200).unwrap();
        let mut lambda = Matrix::zeros(8, 8);
        for (i, &v) in vals.iter().enumerate() {
            lambda.set(i, i, v);
        }
        let rec = vecs
            .matmul(&lambda)
            .unwrap()
            .matmul(&vecs.transpose())
            .unwrap();
        assert!(
            rec.approx_eq(&a, 1e-9),
            "seed {seed}: reconstruction error {}",
            rec.sub(&a).unwrap().max_abs()
        );
    }
}

#[test]
fn jacobi_handles_repeated_eigenvalues() {
    // 2·I has a fourfold-repeated eigenvalue; any orthonormal basis works.
    let a = Matrix::identity(4).scaled(2.0);
    let (vals, vecs) = jacobi_eigen(&a, 50).unwrap();
    for v in vals {
        assert!((v - 2.0).abs() < 1e-12);
    }
    assert!(vecs.gram().approx_eq(&Matrix::identity(4), 1e-10));
}

#[test]
fn orth_iter_on_clustered_spectrum() {
    // Eigenvalues 10, 9.99 (nearly degenerate pair) + well-separated tail:
    // the invariant subspace is still found (Ritz values match Jacobi).
    let mut a = Matrix::zeros(5, 5);
    for (i, v) in [10.0, 9.99, 1.0, 0.5, 0.1].into_iter().enumerate() {
        a.set(i, i, v);
    }
    // Rotate with a random orthogonal basis so it isn't trivially diagonal.
    let mut rng = StdRng::seed_from_u64(5);
    let mut q = Matrix::random_uniform(5, 5, 1.0, &mut rng);
    tcss_linalg::orthonormalize(&mut q, &mut rng).unwrap();
    let rotated = q.matmul(&a).unwrap().matmul(&q.transpose()).unwrap();
    let sym = rotated.add(&rotated.transpose()).unwrap().scaled(0.5);
    let op = DenseSymOp::new(&sym);
    let cfg = OrthIterConfig {
        max_iters: 2000,
        ..Default::default()
    };
    let (vals, vecs) = top_r_eigenvectors(&op, 2, &cfg).unwrap();
    assert!((vals[0] - 10.0).abs() < 1e-4, "{vals:?}");
    assert!((vals[1] - 9.99).abs() < 1e-4, "{vals:?}");
    // Residual check over the subspace.
    for j in 0..2 {
        let v = vecs.col(j);
        let av = sym.matvec(&v).unwrap();
        let mut resid = 0.0;
        for i in 0..5 {
            resid += (av[i] - vals[j] * v[i]).powi(2);
        }
        assert!(resid.sqrt() < 1e-3, "pair {j} residual {}", resid.sqrt());
    }
}

#[test]
fn svd_error_is_optimal_among_tested_ranks() {
    // Eckart–Young sanity: higher rank never reconstructs worse.
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::random_uniform(10, 6, 1.0, &mut rng);
    let mut prev_err = f64::MAX;
    for r in 1..=6 {
        let svd = truncated_svd(&a, r, &OrthIterConfig::default()).unwrap();
        let err = svd.reconstruct().unwrap().sub(&a).unwrap().frobenius_norm();
        assert!(
            err <= prev_err + 1e-9,
            "rank {r}: error {err} grew from {prev_err}"
        );
        prev_err = err;
    }
    assert!(prev_err < 1e-7, "full-rank SVD should be exact: {prev_err}");
}

#[test]
fn solve_hilbert_like_system() {
    // Moderately ill-conditioned system: residual (not solution error)
    // should stay small with partial pivoting.
    let n = 6;
    let a = Matrix::from_fn(n, n, |i, j| 1.0 / (i + j + 1) as f64);
    let rhs: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
    let x = solve_linear_system(&a, &rhs).unwrap();
    let ax = a.matvec(&x).unwrap();
    for i in 0..n {
        assert!(
            (ax[i] - rhs[i]).abs() < 1e-6,
            "residual {} at row {i}",
            (ax[i] - rhs[i]).abs()
        );
    }
}

#[test]
fn gram_of_orthonormal_matrix_is_identity() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut q = Matrix::random_uniform(12, 5, 1.0, &mut rng);
    tcss_linalg::orthonormalize(&mut q, &mut rng).unwrap();
    assert!(q.gram().approx_eq(&Matrix::identity(5), 1e-10));
}

#[test]
fn eigenvalue_sum_equals_trace_on_random_matrices() {
    for seed in 20..25u64 {
        let a = random_symmetric(7, seed);
        let trace: f64 = (0..7).map(|i| a.get(i, i)).sum();
        let (vals, _) = jacobi_eigen(&a, 200).unwrap();
        let sum: f64 = vals.iter().sum();
        assert!((sum - trace).abs() < 1e-9, "seed {seed}");
    }
}
