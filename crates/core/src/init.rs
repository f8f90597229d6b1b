//! Embedding initialization (paper §IV-A).
//!
//! The spectral method unfolds the observed tensor along each mode, forms
//! the Gram matrix with its diagonal zeroed (the diagonal "bears too much
//! influence on the principal directions"), and takes the top-`r`
//! eigenvectors as the initial factors (Eq 4). The Gram matrices are never
//! materialized — [`tcss_sparse::ModeGramOp`] applies them matrix-free, a
//! block of all `r` columns per sweep (two passes over the nonzeros at
//! `r` = 10, not ten). The three modes
//! are independent eigenproblems and are solved concurrently, one per
//! chunk of a `map_chunks` region; each solve is serial, so the factors are
//! bit-for-bit the same at every thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcss_linalg::eigen::OrthIterConfig;
use tcss_linalg::{map_chunks, top_r_eigenvectors, Matrix};
use tcss_sparse::{Mode, ModeGramOp, SparseTensor3};

/// Spectral initialization: `(U¹, U², U³)` with shapes `I×r`, `J×r`, `K×r`.
///
/// Each factor holds the top-`r` eigenvectors of `(A Aᵀ)|off-diag` for the
/// corresponding matricization. `r` must not exceed `min(I, J, K)` (the
/// paper notes the same constraint: `r ≤ K − 1` at month granularity caps
/// `r` at 10 in their experiments).
pub fn spectral_init(tensor: &SparseTensor3, r: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let cfg = OrthIterConfig {
        seed,
        ..Default::default()
    };
    let factors = map_chunks(Mode::ALL.len(), 1, |range| {
        let op = ModeGramOp::new(tensor, Mode::ALL[range.start]);
        let (_vals, vecs) =
            top_r_eigenvectors(&op, r, &cfg).expect("rank was validated against dims");
        vecs
    });
    let mut it = factors.into_iter();
    (
        it.next().expect("three factors"),
        it.next().expect("three factors"),
        it.next().expect("three factors"),
    )
}

/// Calibrate the factor-importance vector `h` by exact least squares.
///
/// Given factors, the whole-data loss (Eq 15) is *quadratic in h*:
/// `L(h) = hᵀ A h − 2 bᵀ h + const` with
/// `A = (w₊−w₋) Σ_pos z zᵀ + w₋ (G¹ ∘ G² ∘ G³)` and `b = w₊ Σ_pos z`,
/// where `z_e = U¹ᵢ ⊙ U²ⱼ ⊙ U³ₖ`. Solving `A h = b` completes the paper's
/// "careful initialization": the spectral factors are rough estimates, and
/// this puts `h` at the exact optimum for them before gradient descent.
pub fn solve_h(
    tensor: &SparseTensor3,
    u1: &Matrix,
    u2: &Matrix,
    u3: &Matrix,
    w_plus: f64,
    w_minus: f64,
) -> Vec<f64> {
    let r = u1.cols();
    let mut a = Matrix::zeros(r, r);
    let mut b = vec![0.0; r];
    let mut z = vec![0.0; r];
    for e in tensor.entries() {
        let (ui, uj, uk) = (u1.row(e.i), u2.row(e.j), u3.row(e.k));
        for t in 0..r {
            z[t] = ui[t] * uj[t] * uk[t];
        }
        for t1 in 0..r {
            b[t1] += w_plus * e.value * z[t1];
            for t2 in 0..r {
                *a.get_mut(t1, t2) += (w_plus - w_minus) * z[t1] * z[t2];
            }
        }
    }
    let (g1, g2, g3) = (u1.gram(), u2.gram(), u3.gram());
    for t1 in 0..r {
        for t2 in 0..r {
            *a.get_mut(t1, t2) += w_minus * g1.get(t1, t2) * g2.get(t1, t2) * g3.get(t1, t2);
        }
    }
    // Tiny ridge for numerical safety; fall back to all-ones on failure.
    for t in 0..r {
        *a.get_mut(t, t) += 1e-9;
    }
    tcss_linalg::solve_linear_system(&a, &b).unwrap_or_else(|_| vec![1.0; r])
}

/// Naive random initialization (the CP/Tucker default; Table II ablation).
/// Entries are uniform in `[-s, s]` with `s = 1/√r`, a common scale that
/// keeps initial predictions `O(1)`.
pub fn random_init(dims: (usize, usize, usize), r: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = 1.0 / (r as f64).sqrt();
    (
        Matrix::random_uniform(dims.0, r, s, &mut rng),
        Matrix::random_uniform(dims.1, r, s, &mut rng),
        Matrix::random_uniform(dims.2, r, s, &mut rng),
    )
}

/// One-hot-derived initialization (NCF-style; Table II ablation): index `x`
/// activates coordinate `x mod r` (the dense projection a learnable
/// embedding layer applies to a one-hot input collapses to an index lookup;
/// with random projection weights this is a sparse random init). Small
/// noise breaks the ties between rows sharing a coordinate.
pub fn onehot_init(dims: (usize, usize, usize), r: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut make = |n: usize| {
        Matrix::from_fn(n, r, |row, col| {
            let base = if row % r == col { 1.0 } else { 0.0 };
            base + rng.gen_range(-0.01..=0.01)
        })
    };
    let u1 = make(dims.0);
    let u2 = make(dims.1);
    let u3 = make(dims.2);
    (u1, u2, u3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_tensor() -> SparseTensor3 {
        // Two user groups × two POI groups with distinct time patterns:
        // group A visits in months {0..6}, group B in {6..12}.
        let mut entries = Vec::new();
        for i in 0..10usize {
            for j in 0..8usize {
                let group_match = (i < 5) == (j < 4);
                if !group_match {
                    continue;
                }
                for k in 0..12usize {
                    let in_season = if i < 5 { k < 6 } else { k >= 6 };
                    if in_season && (i + j + k) % 2 == 0 {
                        entries.push((i, j, k, 1.0));
                    }
                }
            }
        }
        SparseTensor3::from_entries((10, 8, 12), entries).unwrap()
    }

    #[test]
    fn solve_h_minimizes_rewritten_loss() {
        use crate::loss::rewritten_loss_and_grad;
        use crate::model::TcssModel;
        let t = seasonal_tensor();
        let (u1, u2, u3) = spectral_init(&t, 3, 1);
        let h = solve_h(&t, &u1, &u2, &u3, 0.9, 0.1);
        let mut model = TcssModel::new(u1, u2, u3);
        let (loss_ones, _) = rewritten_loss_and_grad(&model, t.entries(), 0.9, 0.1);
        model.h = h;
        let (loss_solved, grads) = rewritten_loss_and_grad(&model, t.entries(), 0.9, 0.1);
        assert!(
            loss_solved <= loss_ones + 1e-9,
            "solved h ({loss_solved}) must not lose to h = 1 ({loss_ones})"
        );
        // At the exact optimum the h-gradient vanishes.
        let gh_norm: f64 = grads.h.iter().map(|g| g * g).sum::<f64>().sqrt();
        assert!(gh_norm < 1e-6, "h gradient at optimum: {gh_norm}");
        // And perturbing h in any direction increases the loss.
        for t_idx in 0..3 {
            let mut perturbed = model.clone();
            perturbed.h[t_idx] += 0.05;
            let (lp, _) = rewritten_loss_and_grad(&perturbed, t.entries(), 0.9, 0.1);
            assert!(lp >= loss_solved - 1e-12, "perturbation decreased loss");
        }
    }

    #[test]
    fn spectral_shapes() {
        let t = seasonal_tensor();
        let (u1, u2, u3) = spectral_init(&t, 3, 1);
        assert_eq!(u1.shape(), (10, 3));
        assert_eq!(u2.shape(), (8, 3));
        assert_eq!(u3.shape(), (12, 3));
    }

    #[test]
    fn spectral_factors_are_orthonormal() {
        let t = seasonal_tensor();
        let (u1, u2, u3) = spectral_init(&t, 3, 1);
        for u in [&u1, &u2, &u3] {
            let g = u.gram();
            assert!(
                g.approx_eq(&Matrix::identity(3), 1e-6),
                "factor not orthonormal:\n{g}"
            );
        }
    }

    #[test]
    fn spectral_separates_user_groups() {
        // The dominant eigenvector of the user Gram matrix should separate
        // the two planted user groups (their co-visit patterns differ).
        let t = seasonal_tensor();
        let (u1, _, _) = spectral_init(&t, 2, 1);
        // Group-mean embeddings must be distinguishable.
        let mean = |range: std::ops::Range<usize>, col: usize| -> f64 {
            let n = range.len() as f64;
            range.map(|i| u1.get(i, col)).sum::<f64>() / n
        };
        let sep: f64 = (0..2).map(|c| (mean(0..5, c) - mean(5..10, c)).abs()).sum();
        assert!(sep > 0.1, "groups not separated: {sep}");
    }

    #[test]
    fn spectral_is_deterministic() {
        let t = seasonal_tensor();
        let (a1, _, _) = spectral_init(&t, 2, 9);
        let (b1, _, _) = spectral_init(&t, 2, 9);
        assert!(a1.approx_eq(&b1, 0.0));
    }

    #[test]
    fn random_init_scale() {
        let (u1, u2, u3) = random_init((5, 6, 7), 4, 3);
        let bound = 0.5; // 1/√4
        for u in [&u1, &u2, &u3] {
            assert!(u.max_abs() <= bound + 1e-12);
        }
        assert_eq!(u1.shape(), (5, 4));
        assert_eq!(u2.shape(), (6, 4));
        assert_eq!(u3.shape(), (7, 4));
    }

    #[test]
    fn onehot_init_activates_modular_coordinate() {
        let (u1, _, _) = onehot_init((6, 4, 4), 3, 5);
        for i in 0..6 {
            for c in 0..3 {
                let v = u1.get(i, c);
                if i % 3 == c {
                    assert!(v > 0.9, "row {i} col {c}: {v}");
                } else {
                    assert!(v.abs() < 0.05, "row {i} col {c}: {v}");
                }
            }
        }
    }
}
