//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary inputs, not just the hand-picked cases of the unit suites.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcss::core::{naive_whole_data_loss, rewritten_loss_and_grad, TcssModel};
use tcss::geo::{average_hausdorff, generalized_mean, DistanceMatrix, GeoPoint};
use tcss::linalg::{orthonormalize, solve_linear_system, Matrix};
use tcss::sparse::{Mode, ModeGramOp, SparseTensor3};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A small random sparse binary tensor plus its dimensions.
fn tensor_strategy() -> impl Strategy<Value = SparseTensor3> {
    (2usize..6, 2usize..6, 2usize..5).prop_flat_map(|(i, j, k)| {
        let cells = proptest::collection::vec(
            (0..i, 0..j, 0..k).prop_map(|(a, b, c)| (a, b, c, 1.0)),
            1..20,
        );
        cells.prop_map(move |entries| {
            // Duplicates sum; the paper's check-in tensors are binary.
            SparseTensor3::from_entries((i, j, k), entries)
                .expect("in range")
                .binarized()
        })
    })
}

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("sized"))
}

fn points_strategy() -> impl Strategy<Value = Vec<GeoPoint>> {
    proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..8).prop_map(|v| {
        v.into_iter()
            .map(|(lon, lat)| GeoPoint::new(lon, lat))
            .collect()
    })
}

// ---------------------------------------------------------------------
// linalg
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The thin QR that `orthonormalize` computes (`Q` its output,
    /// `R = QᵀA`) reconstructs its input and Q is orthonormal.
    #[test]
    fn qr_reconstruction_holds(m in matrix_strategy(5, 3)) {
        let mut q = m.clone();
        orthonormalize(&mut q, &mut StdRng::seed_from_u64(1)).expect("tall matrix");
        let r = q.transpose().matmul(&m).expect("shapes");
        let qr = q.matmul(&r).expect("shapes");
        prop_assert!(qr.approx_eq(&m, 1e-8));
        prop_assert!(q.gram().approx_eq(&Matrix::identity(3), 1e-8));
    }

    /// Solving A x = b then multiplying back recovers b (well-conditioned A).
    #[test]
    fn linear_solve_roundtrip(m in matrix_strategy(4, 4), rhs in proptest::collection::vec(-3.0f64..3.0, 4)) {
        // Make A strictly diagonally dominant ⇒ invertible.
        let mut a = m;
        for i in 0..4 {
            let row_sum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
            *a.get_mut(i, i) += row_sum + 1.0;
        }
        let x = solve_linear_system(&a, &rhs).expect("invertible");
        let back = a.matvec(&x).expect("shape");
        for (b1, b2) in back.iter().zip(rhs.iter()) {
            prop_assert!((b1 - b2).abs() < 1e-8);
        }
    }

    /// Matmul is associative: (AB)C = A(BC).
    #[test]
    fn matmul_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(2, 3),
    ) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }
}

// ---------------------------------------------------------------------
// sparse
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The matrix-free Gram operator equals the dense off-diagonal Gram
    /// matrix, for every mode of any tensor.
    #[test]
    fn mode_gram_op_equals_dense(t in tensor_strategy()) {
        for mode in Mode::ALL {
            let a = t.matricize_dense(mode);
            let mut g = a.matmul(&a.transpose()).unwrap();
            g.zero_diagonal();
            let op = ModeGramOp::new(&t, mode);
            let n = g.rows();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
            let mut y = vec![0.0; n];
            use tcss::linalg::SymOp;
            op.apply(&x, &mut y);
            let expect = g.matvec(&x).unwrap();
            for (a, b) in y.iter().zip(expect.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Tensor density is nnz/(IJK) and binarize forces all values to one.
    #[test]
    fn tensor_density_and_binarize(t in tensor_strategy()) {
        let (i, j, k) = t.dims();
        prop_assert!((t.density() - t.nnz() as f64 / (i * j * k) as f64).abs() < 1e-12);
        let b = t.binarized();
        prop_assert_eq!(b.nnz(), t.nnz());
        prop_assert!(b.entries().iter().all(|e| e.value == 1.0));
    }
}

// ---------------------------------------------------------------------
// geo
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AHD is symmetric, non-negative, and zero exactly on identical sets.
    #[test]
    fn ahd_metric_properties(points in points_strategy()) {
        let d = DistanceMatrix::from_points(&points);
        let n = points.len();
        let s: Vec<usize> = (0..n / 2 + 1).collect();
        let t: Vec<usize> = (n / 2..n).collect();
        let fwd = average_hausdorff(&s, &t, &d);
        let bwd = average_hausdorff(&t, &s, &d);
        prop_assert!((fwd - bwd).abs() < 1e-9);
        prop_assert!(fwd >= 0.0);
        prop_assert!(average_hausdorff(&s, &s, &d).abs() < 1e-12);
    }

    /// The generalized mean with negative exponent lies between the min and
    /// the arithmetic mean.
    #[test]
    fn generalized_mean_bounds(xs in proptest::collection::vec(0.01f64..100.0, 1..10)) {
        let m = generalized_mean(&xs, -1.0, 1e-9);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!(m >= min - 1e-9, "M {m} below min {min}");
        prop_assert!(m <= mean + 1e-9, "M {m} above mean {mean}");
    }

    /// Normalizing a distance matrix preserves ratios and caps at 1.
    #[test]
    fn distance_normalization(points in points_strategy()) {
        let d = DistanceMatrix::from_points(&points);
        let n = d.normalized();
        prop_assert!(n.max_distance() <= 1.0 + 1e-12);
        if d.max_distance() > 0.0 {
            for a in 0..points.len() {
                for b in 0..points.len() {
                    prop_assert!((n.get(a, b) - d.get(a, b) / d.max_distance()).abs() < 1e-12);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// core: Remark 1 as a property over random models and tensors
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Eq 15 == Eq 14 + const for arbitrary tensors, factors and weights.
    #[test]
    fn rewritten_loss_equivalence_property(
        t in tensor_strategy(),
        seed in 0u64..1000,
        wp in 0.5f64..1.0,
    ) {
        let wm = 1.0 - wp;
        let dims = t.dims();
        let r = 2.min(dims.0).min(dims.1).min(dims.2);
        let (u1, u2, u3) = tcss::core::random_init(dims, r, seed);
        let model = TcssModel::new(u1, u2, u3);
        let (rewritten, _) = rewritten_loss_and_grad(&model, t.entries(), wp, wm);
        let naive = naive_whole_data_loss(&model, &t, wp, wm);
        let constant = wp * t.nnz() as f64;
        prop_assert!(
            (rewritten + constant - naive).abs() < 1e-8 * naive.abs().max(1.0),
            "rewritten {rewritten} + {constant} != naive {naive}"
        );
    }

    /// The model is exactly linear in h: scaling h scales every prediction.
    #[test]
    fn model_linear_in_h(t in tensor_strategy(), seed in 0u64..1000, scale in 0.1f64..5.0) {
        let dims = t.dims();
        let r = 2.min(dims.0).min(dims.1).min(dims.2);
        let (u1, u2, u3) = tcss::core::random_init(dims, r, seed);
        let mut model = TcssModel::new(u1, u2, u3);
        let before = model.predict(0, 0, 0);
        for h in &mut model.h {
            *h *= scale;
        }
        prop_assert!((model.predict(0, 0, 0) - scale * before).abs() < 1e-9);
    }
}
