//! Finite-difference verification of the hand-derived social-Hausdorff
//! gradients (paper Eqs 9–13) through `tcss_autodiff::check_gradients_fn`.
//!
//! The head's backward pass chains four hand-written rules — probability
//! coupling `p = 1 − Π(1 − X̂)`, the candidate-set normalization of Term 1,
//! the generalized mean `M_α` of Term 2, and the CP-factor backprop — so
//! every parameter coordinate of every factor matrix (and `h`) is checked
//! against central differences at rtol ≤ 1e-5.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcss_autodiff::check_gradients_fn;
use tcss_core::loss::Grads;
use tcss_core::{HausdorffVariant, SocialHausdorffHead, TcssModel, TrainWorkspace};
use tcss_data::{Category, CheckIn, Dataset, Poi};
use tcss_geo::{GeoPoint, WeightedHausdorffParams};
use tcss_graph::SocialGraph;

/// Small dataset: 4 users over 6 POIs on a line; 0–1 and 1–2 are friends,
/// user 3 is isolated (exercises the empty-target-set early-out).
fn gradcheck_data() -> (Dataset, Vec<CheckIn>) {
    let pois: Vec<Poi> = (0..6)
        .map(|j| Poi {
            location: GeoPoint::new(0.1 * j as f64, 0.4 * j as f64),
            category: Category::Food,
        })
        .collect();
    let mk = |user, poi, month| CheckIn {
        user,
        poi,
        month,
        week: (month as u16 * 4) as u8,
        hour: 10,
    };
    let checkins = vec![
        mk(0, 0, 0),
        mk(0, 1, 3),
        mk(1, 1, 2),
        mk(1, 2, 6),
        mk(2, 3, 7),
        mk(2, 4, 9),
        mk(3, 5, 11),
    ];
    let data = Dataset {
        name: "gradcheck".into(),
        n_users: 4,
        pois,
        checkins: checkins.clone(),
        social: SocialGraph::from_edges(4, vec![(0, 1), (1, 2)]),
    };
    (data, checkins)
}

/// A model whose scores all lie strictly inside (0, 1), keeping the clamp
/// unsaturated so the analytic gradient equals the true derivative.
fn interior_model(data: &Dataset, seed: u64) -> TcssModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = (data.n_users, data.pois.len(), 12);
    let mut mk = |n: usize| tcss_linalg::Matrix::from_fn(n, 3, |_, _| rng.gen_range(0.2..0.6));
    let u1 = mk(dims.0);
    let u2 = mk(dims.1);
    let u3 = mk(dims.2);
    TcssModel::new(u1, u2, u3)
}

/// Flatten all model parameters into one coordinate vector.
fn flatten(model: &TcssModel) -> Vec<f64> {
    let mut theta = Vec::new();
    theta.extend_from_slice(model.u1.as_slice());
    theta.extend_from_slice(model.u2.as_slice());
    theta.extend_from_slice(model.u3.as_slice());
    theta.extend_from_slice(&model.h);
    theta
}

/// Write a coordinate vector back into the model.
fn unflatten(model: &mut TcssModel, theta: &[f64]) {
    let (n1, n2, n3) = (
        model.u1.as_slice().len(),
        model.u2.as_slice().len(),
        model.u3.as_slice().len(),
    );
    model.u1.as_mut_slice().copy_from_slice(&theta[..n1]);
    model.u2.as_mut_slice().copy_from_slice(&theta[n1..n1 + n2]);
    model
        .u3
        .as_mut_slice()
        .copy_from_slice(&theta[n1 + n2..n1 + n2 + n3]);
    model.h.copy_from_slice(&theta[n1 + n2 + n3..]);
}

/// Run the FD check for one head configuration over every coordinate.
fn check_head(variant: HausdorffVariant, alpha: f64, seed: u64) {
    let (data, train) = gradcheck_data();
    let params = WeightedHausdorffParams {
        alpha,
        ..Default::default()
    };
    let head = SocialHausdorffHead::new(&data, &train, variant, params, None);
    let model = interior_model(&data, seed);

    let mut grads = Grads::zeros(&model);
    let loss = head.loss_and_grad_ws(&model, &mut grads, 1.0, &TrainWorkspace::new());
    assert!(loss.is_finite() && loss > 0.0, "degenerate loss {loss}");
    let analytic = flatten_grads(&grads);

    let mut theta = flatten(&model);
    let mut scratch = model;
    let report = check_gradients_fn(&mut theta, &analytic, 1e-6, |t| {
        unflatten(&mut scratch, t);
        head.loss(&scratch)
    });
    assert!(
        report.max_rel_err < 1e-5 || report.max_abs_err < 1e-7,
        "{variant:?} α={alpha}: FD mismatch {report:?}"
    );
    assert_eq!(report.coords, analytic.len());
}

fn flatten_grads(grads: &Grads) -> Vec<f64> {
    let mut g = Vec::new();
    g.extend_from_slice(grads.u1.as_slice());
    g.extend_from_slice(grads.u2.as_slice());
    g.extend_from_slice(grads.u3.as_slice());
    g.extend_from_slice(&grads.h);
    g
}

#[test]
fn social_head_gradient_alpha_minus_one() {
    // Paper default: α = −1 (harmonic-mean smooth min).
    check_head(HausdorffVariant::Social, -1.0, 33);
}

#[test]
fn social_head_gradient_generalized_mean() {
    // Non-default exponents exercise the full powf chain of M_α
    // (mean_pow^{(1−α)/α} · f^{α−1}), not the α = −1 special case.
    check_head(HausdorffVariant::Social, -2.5, 35);
    check_head(HausdorffVariant::Social, -0.5, 36);
}

#[test]
fn self_hausdorff_head_gradient() {
    check_head(HausdorffVariant::SelfHausdorff, -1.0, 34);
    check_head(HausdorffVariant::SelfHausdorff, -2.0, 37);
}
