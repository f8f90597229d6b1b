//! Lane-boundary parity for the training hot path.
//!
//! `tests/sparse_parity.rs` pins production ↔ dense-reference bitwise
//! equality over *random* shapes; this suite targets the shapes the
//! fixed-lane kernels (`tcss_linalg::kernels`, `LANES = 4`) care about:
//! ranks and dimensions straddling the lane boundary
//! (`r ∈ {1, LANES−1, LANES, LANES+1, 2·LANES, 2·LANES+1}`), where the
//! kernels switch between the all-remainder, exact-lane and
//! main-plus-remainder code paths. Every check is `f64::to_bits` equality
//! at 1/2/4 threads:
//!
//! * both entry-loop loss heads (rewritten least-squares and negative
//!   sampling), production sparse path vs. the dense-chunk reference
//!   (`support/dense_loss.rs`);
//! * `user_slice_into` (the Hausdorff head's `J·K·r` hot loop) vs. a
//!   verbatim copy of the pre-kernel scalar triple loop, at `K` sizes
//!   straddling the lane boundary too.

#[path = "support/dense_loss.rs"]
mod dense_loss;

use proptest::prelude::*;
use tcss_core::{random_init, SliceScratch, TcssModel};
use tcss_linalg::LANES;
use tcss_sparse::SparseTensor3;

/// Ranks straddling the lane boundary (all ≥ 1 and ≤ the test dims).
const BOUNDARY_RANKS: [usize; 6] = [1, LANES - 1, LANES, LANES + 1, 2 * LANES, 2 * LANES + 1];

/// Entries + seed for a fixed-dims tensor; the dims stay at
/// `(9, 10, 2·LANES+1)` so every boundary rank is admissible.
fn case_strategy() -> impl Strategy<Value = (Vec<(usize, usize, usize, f64)>, u64)> {
    (
        proptest::collection::vec(
            (0usize..9, 0usize..10, 0usize..(2 * LANES + 1), 0.25f64..2.0),
            0..48,
        ),
        0u64..1000,
    )
}

const DIMS: (usize, usize, usize) = (9, 10, 2 * LANES + 1);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rewritten loss head at every boundary rank: production sparse path
    /// == dense reference, bitwise, at every thread count.
    #[test]
    fn rewritten_loss_bitwise_at_boundary_ranks((raw, seed) in case_strategy()) {
        let t = SparseTensor3::from_entries(DIMS, raw).expect("in range");
        for rank in BOUNDARY_RANKS {
            let (u1, u2, u3) = random_init(DIMS, rank, seed);
            let model = TcssModel::new(u1, u2, u3);
            dense_loss::assert_production_matches(&model, &t, None, &format!("rewritten loss at rank {rank}"));
        }
    }

    /// Negative-sampling head at every boundary rank, same contract.
    #[test]
    fn negative_sampling_bitwise_at_boundary_ranks((raw, seed) in case_strategy()) {
        let t = SparseTensor3::from_entries(DIMS, raw).expect("in range");
        for rank in BOUNDARY_RANKS {
            let (u1, u2, u3) = random_init(DIMS, rank, seed);
            let model = TcssModel::new(u1, u2, u3);
            let what = format!("negative sampling at rank {rank}");
            dense_loss::assert_production_matches(&model, &t, Some(seed ^ 0x5A5A), &what);
        }
    }
}

/// Both entry-loop losses at every boundary rank over two full
/// 1024-entry chunks plus a ragged tail, so the chunk merge runs across
/// chunks: production == dense reference, bitwise, at every thread count.
#[test]
fn multi_chunk_entry_losses_bitwise_at_boundary_ranks() {
    let dims = (24, 20, 2 * LANES + 1);
    let t = dense_loss::spread_tensor(dims, 2 * 1024 + 77);
    for rank in BOUNDARY_RANKS {
        let (u1, u2, u3) = random_init(dims, rank, 41);
        let model = TcssModel::new(u1, u2, u3);
        dense_loss::assert_production_matches(
            &model,
            &t,
            None,
            &format!("rewritten loss at rank {rank}"),
        );
        dense_loss::assert_production_matches(
            &model,
            &t,
            Some(3),
            &format!("negative sampling at rank {rank}"),
        );
    }
}

/// Verbatim copy of the pre-kernel scalar slice loop `user_slice_into`
/// replaced: `hw = h ⊙ U¹ᵢ` precomputed once, then one left-to-right
/// ascending-`t` accumulation per `(j, k)` element.
fn user_slice_scalar_reference(m: &TcssModel, user: usize) -> Vec<f64> {
    let (_, j_dim, k_dim) = m.dims();
    let r = m.h.len();
    let ui = m.u1.row(user);
    let hw: Vec<f64> = (0..r).map(|t| m.h[t] * ui[t]).collect();
    let mut out = vec![0.0; j_dim * k_dim];
    for j in 0..j_dim {
        let uj = m.u2.row(j);
        for k in 0..k_dim {
            let uk = m.u3.row(k);
            let mut s = 0.0;
            for t in 0..r {
                s += hw[t] * uj[t] * uk[t];
            }
            out[j * k_dim + k] = s;
        }
    }
    out
}

/// `user_slice_into` (transpose + quad/axpy rank-one updates) is
/// bit-for-bit the old scalar triple loop — across lane-boundary ranks
/// *and* lane-boundary `K` widths (the kernels run along `K`), on cold and
/// recycled scratch.
#[test]
fn user_slice_into_matches_scalar_reference_bitwise() {
    let mut scratch = SliceScratch::new();
    let mut out = Vec::new();
    for &k_dim in &[1usize, 3, 4, 5, 8, 9] {
        for &rank in &BOUNDARY_RANKS {
            let dims = (9, 10, 9.max(k_dim));
            let rank = rank.min(dims.2);
            let (u1, u2, mut u3) = random_init(dims, rank, 7 + k_dim as u64);
            // Trim U³ to the target K width (random_init needs K ≥ rank).
            if k_dim < dims.2 {
                u3 = tcss_linalg::Matrix::from_fn(k_dim, rank, |i, j| u3.get(i, j));
            }
            let model = TcssModel::new(u1, u2, u3);
            for user in [0usize, 8] {
                let want: Vec<u64> = user_slice_scalar_reference(&model, user)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                // Reuse scratch/out across calls: pooled buffers must not
                // leak state between users or shapes.
                model.user_slice_into(user, &mut scratch, &mut out);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    want, got,
                    "slice diverges at rank {rank}, K {k_dim}, user {user}"
                );
            }
        }
    }
}
