//! Dense-chunk reference for the two entry-loop loss heads, built from the
//! public API only.
//!
//! Every fixed chunk of [`ENTRIES_PER_CHUNK`] entries folds into its own
//! model-sized [`Grads`], and the chunks merge in ascending order on one
//! thread. The production path (`tcss_core::loss`, sparse chunk-local
//! deltas over pooled workspaces) must reproduce these floats bit-for-bit
//! at every thread count; `sparse_parity.rs` and
//! `kernel_boundary_parity.rs` assert it through
//! [`assert_production_matches`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcss_core::loss::{negative_sampling_loss_and_grad_ws, rewritten_loss_and_grad_ws, Grads};
use tcss_core::{TcssModel, TrainWorkspace};
use tcss_linalg::{kernels, set_num_threads};
use tcss_sparse::{SparseTensor3, TensorEntry};

/// The library's entry chunk grid. The chunk a loss term lands in is part
/// of the bitwise contract (and seeds negative sampling's per-chunk RNG),
/// so the reference must cut exactly where production does.
const ENTRIES_PER_CHUNK: usize = 1024;

/// Add `c · ∂X̂_{ijk}/∂θ` into dense gradients: the four rank-wide rows of
/// one entry's backprop.
fn backprop_entry(model: &TcssModel, grads: &mut Grads, i: usize, j: usize, k: usize, c: f64) {
    let ui = model.u1.row(i);
    let uj = model.u2.row(j);
    let uk = model.u3.row(k);
    kernels::fused_mul3_axpy(c, &model.h, uj, uk, grads.u1.row_mut(i));
    kernels::fused_mul3_axpy(c, &model.h, ui, uk, grads.u2.row_mut(j));
    kernels::fused_mul3_axpy(c, &model.h, ui, uj, grads.u3.row_mut(k));
    kernels::fused_mul3_axpy(c, ui, uj, uk, &mut grads.h);
}

/// Fold one dense [`Grads`] per chunk of `n_items`, in ascending chunk
/// order, summing the per-chunk losses the same way.
fn fold_dense_chunks(
    model: &TcssModel,
    n_items: usize,
    mut chunk: impl FnMut(std::ops::Range<usize>, &mut Grads) -> f64,
) -> (f64, Grads) {
    let mut loss = 0.0;
    let mut grads = Grads::zeros(model);
    for range in tcss_linalg::chunk_ranges(n_items, ENTRIES_PER_CHUNK) {
        let mut local = Grads::zeros(model);
        loss += chunk(range, &mut local);
        grads.add_scaled(1.0, &local);
    }
    (loss, grads)
}

/// The whole-data Gram term of Eq 15 (`w₋ Σ h_{r₁} h_{r₂} G¹G²G³`): its
/// loss terms added onto `loss` one by one, its gradient onto `grads`.
fn whole_data_term(model: &TcssModel, w_minus: f64, loss: &mut f64, grads: &mut Grads) {
    let r = model.h.len();
    let (g1, g2, g3) = (model.u1.gram(), model.u2.gram(), model.u3.gram());
    let mut d = [
        tcss_linalg::Matrix::zeros(r, r),
        tcss_linalg::Matrix::zeros(r, r),
        tcss_linalg::Matrix::zeros(r, r),
    ];
    for r1 in 0..r {
        for r2 in 0..r {
            let w = w_minus * model.h[r1] * model.h[r2];
            *loss += w * (g1.get(r1, r2) * g2.get(r1, r2) * g3.get(r1, r2));
            d[0].set(r1, r2, w * g2.get(r1, r2) * g3.get(r1, r2));
        }
    }
    for r1 in 0..r {
        for r2 in 0..r {
            let w = w_minus * model.h[r1] * model.h[r2];
            d[1].set(r1, r2, w * g1.get(r1, r2) * g3.get(r1, r2));
            d[2].set(r1, r2, w * g1.get(r1, r2) * g2.get(r1, r2));
        }
    }
    for r1 in 0..r {
        let mut acc = 0.0;
        for r2 in 0..r {
            acc += model.h[r2] * g1.get(r1, r2) * g2.get(r1, r2) * g3.get(r1, r2);
        }
        grads.h[r1] += 2.0 * w_minus * acc;
    }
    for (g, (u, d)) in [&mut grads.u1, &mut grads.u2, &mut grads.u3]
        .into_iter()
        .zip([&model.u1, &model.u2, &model.u3].into_iter().zip(&d))
    {
        let du = u.matmul(d).expect("shapes agree").scaled(2.0);
        g.axpy_mut(1.0, &du).expect("shapes agree");
    }
}

/// Reference for `rewritten_loss_and_grad` (Eq 15).
pub fn rewritten_loss_and_grad_dense(
    model: &TcssModel,
    positives: &[TensorEntry],
    w_plus: f64,
    w_minus: f64,
) -> (f64, Grads) {
    let (mut loss, mut grads) = fold_dense_chunks(model, positives.len(), |range, local| {
        let mut loss = 0.0;
        for e in &positives[range] {
            let s = model.predict(e.i, e.j, e.k);
            loss += (w_plus - w_minus) * s * s - 2.0 * w_plus * e.value * s;
            let c = 2.0 * (w_plus - w_minus) * s - 2.0 * w_plus * e.value;
            backprop_entry(model, local, e.i, e.j, e.k, c);
        }
        loss
    });
    whole_data_term(model, w_minus, &mut loss, &mut grads);
    (loss, grads)
}

/// Reference for `negative_sampling_loss_and_grad`: one sampled negative
/// per positive, drawn from an RNG keyed to `(seed, chunk index)`.
pub fn negative_sampling_loss_and_grad_dense(
    model: &TcssModel,
    tensor: &SparseTensor3,
    w_plus: f64,
    w_minus: f64,
    seed: u64,
) -> (f64, Grads) {
    let (i_dim, j_dim, k_dim) = tensor.dims();
    let entries = tensor.entries();
    fold_dense_chunks(model, entries.len(), |range, local| {
        let chunk = (range.start / ENTRIES_PER_CHUNK) as u64;
        let mut rng =
            StdRng::seed_from_u64(seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
        let mut loss = 0.0;
        for e in &entries[range] {
            let s = model.predict(e.i, e.j, e.k);
            loss += w_plus * (e.value - s) * (e.value - s);
            backprop_entry(model, local, e.i, e.j, e.k, 2.0 * w_plus * (s - e.value));
            let mut attempts = 0;
            loop {
                let (ni, nj, nk) = (
                    rng.gen_range(0..i_dim),
                    rng.gen_range(0..j_dim),
                    rng.gen_range(0..k_dim),
                );
                if !tensor.contains(ni, nj, nk) || attempts > 32 {
                    let sn = model.predict(ni, nj, nk);
                    loss += w_minus * sn * sn;
                    backprop_entry(model, local, ni, nj, nk, 2.0 * w_minus * sn);
                    break;
                }
                attempts += 1;
            }
        }
        loss
    })
}

/// Assert that production evaluates one entry-loop loss head bitwise
/// equal to this reference (loss and every gradient element), at 1, 2
/// and 4 threads, on a cold and then a warmed workspace pool. `neg_seed`
/// picks the head: `None` for the rewritten L₂, `Some(seed)` for
/// negative sampling under that seed. `what` labels a failure.
pub fn assert_production_matches(
    model: &TcssModel,
    t: &SparseTensor3,
    neg_seed: Option<u64>,
    what: &str,
) {
    let bits = |loss: f64, g: &Grads| -> Vec<u64> {
        let slabs = [g.u1.as_slice(), g.u2.as_slice(), g.u3.as_slice(), &g.h];
        std::iter::once(loss)
            .chain(slabs.into_iter().flatten().copied())
            .map(f64::to_bits)
            .collect()
    };
    set_num_threads(Some(1));
    let (loss, grads) = match neg_seed {
        None => rewritten_loss_and_grad_dense(model, t.entries(), 0.95, 0.05),
        Some(seed) => negative_sampling_loss_and_grad_dense(model, t, 0.95, 0.05, seed),
    };
    let want = bits(loss, &grads);
    for threads in [1, 2, 4] {
        set_num_threads(Some(threads));
        let ws = TrainWorkspace::new();
        // Round 0 warms the pools; round 1 runs on recycled buffers.
        for round in 0..2 {
            let mut g = Grads::zeros(model);
            let loss = match neg_seed {
                None => rewritten_loss_and_grad_ws(model, t.entries(), 0.95, 0.05, &ws, &mut g),
                Some(seed) => {
                    negative_sampling_loss_and_grad_ws(model, t, 0.95, 0.05, seed, &ws, &mut g)
                }
            };
            assert_eq!(
                bits(loss, &g),
                want,
                "{what} diverges at {threads} threads (round {round})"
            );
        }
    }
    set_num_threads(None);
}

/// A tensor of `n` distinct cells, spread by the bijection
/// `c · 7919 mod cells` (7919 is prime). Past 2·[`ENTRIES_PER_CHUNK`]
/// entries it runs the entry-loop merge across chunks, with a ragged tail.
pub fn spread_tensor(dims: (usize, usize, usize), n: usize) -> SparseTensor3 {
    let (jk, k) = (dims.1 * dims.2, dims.2);
    let cells = dims.0 * jk;
    let raw = (0..n).map(|c| {
        let x = c * 7919 % cells;
        (x / jk, x / k % dims.1, x % k, 0.25 + (c % 7) as f64 * 0.25)
    });
    let t = SparseTensor3::from_entries(dims, raw).expect("in range");
    assert_eq!(t.entries().len(), n, "entries stay distinct");
    t
}
