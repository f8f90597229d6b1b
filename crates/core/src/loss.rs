//! The least-squares loss head `L₂` (paper §IV-D).
//!
//! Three implementations:
//!
//! * [`rewritten_loss_and_grad`] — the paper's Eq 15: whole-data weighted
//!   squared error with the unlabeled-entry term rearranged through the
//!   factor Gram matrices, `O(nnz·r + (I+J+K)·r²)` per evaluation. This is
//!   the production path.
//! * [`naive_whole_data_loss`] — Eq 14 evaluated literally over all
//!   `I·J·K` cells; used by the Table IV timing experiment and by the
//!   equivalence tests (Remark 1 of the paper).
//! * [`negative_sampling_loss_and_grad`] — the classic alternative TCSS
//!   argues against; Table II/IV ablation.
//!
//! Training runs each half of Eq 15 through one implementation, shared
//! by the in-process trainer and the distributed workers ([`crate::dist`]).
//! The entry half is `eval_entry_chunks`: one `EntryKernel` (the positive
//! term, or negative sampling) over a **global** entry range (`0..nnz`
//! in-process, a worker's block), one sparse chunk-local delta
//! ([`crate::sparse_grads::SparseGrads`]) per chunk through pooled
//! workspaces ([`crate::workspace::TrainWorkspace`]): `O(nnz · r)` memory
//! traffic per epoch, no steady-state allocation. Its bitwise parity
//! baseline, the dense-chunk fold of the same chunk grid, lives in the
//! test suites (`crates/core/tests/support/dense_loss.rs`). The Gram half
//! is `whole_data_gram_mats` (the three `r × r` matrices `D^f`) plus
//! `add_gram_rows`, which adds `2·U^f·D^f` onto any slab of rows.
//!
//! All gradients are hand-derived and finite-difference checked in tests.

use crate::config::LossStrategy;
use crate::model::TcssModel;
use crate::sparse_grads::{backprop_entry_sparse, GradScratch, SparseGrads};
use crate::workspace::TrainWorkspace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcss_linalg::{kernels, Matrix};
use tcss_sparse::{SparseTensor3, TensorEntry};

/// Tensor entries per parallel chunk in the entry-loop losses. Small enough
/// to load-balance the synthetic datasets, large enough that the per-chunk
/// sparse-delta bookkeeping is noise next to the `O(chunk · r)` backprop
/// work.
pub(crate) const ENTRIES_PER_CHUNK: usize = 1024;

/// Gradient buffers matching a [`TcssModel`]'s parameters.
#[derive(Debug, Clone)]
pub struct Grads {
    /// Gradient w.r.t. the user factors.
    pub u1: Matrix,
    /// Gradient w.r.t. the POI factors.
    pub u2: Matrix,
    /// Gradient w.r.t. the time factors.
    pub u3: Matrix,
    /// Gradient w.r.t. `h`.
    pub h: Vec<f64>,
}

impl Grads {
    /// Zero gradients sized for `model`.
    pub fn zeros(model: &TcssModel) -> Self {
        Grads {
            u1: Matrix::zeros(model.u1.rows(), model.u1.cols()),
            u2: Matrix::zeros(model.u2.rows(), model.u2.cols()),
            u3: Matrix::zeros(model.u3.rows(), model.u3.cols()),
            h: vec![0.0; model.h.len()],
        }
    }

    /// Reset every buffer to exact `+0.0` in place (bitwise identical to a
    /// fresh [`Grads::zeros`], without the allocation).
    pub fn set_zero(&mut self) {
        self.u1.as_mut_slice().fill(0.0);
        self.u2.as_mut_slice().fill(0.0);
        self.u3.as_mut_slice().fill(0.0);
        self.h.fill(0.0);
    }

    /// The three factor gradients as row-major slices.
    pub(crate) fn factors_mut(&mut self) -> [&mut [f64]; 3] {
        [
            self.u1.as_mut_slice(),
            self.u2.as_mut_slice(),
            self.u3.as_mut_slice(),
        ]
    }

    /// `self += s · other`.
    pub fn add_scaled(&mut self, s: f64, other: &Grads) {
        self.u1.axpy_mut(s, &other.u1).expect("same model shape");
        self.u2.axpy_mut(s, &other.u2).expect("same model shape");
        self.u3.axpy_mut(s, &other.u3).expect("same model shape");
        kernels::axpy(s, &other.h, &mut self.h);
    }

    /// Global L2 norm over all buffers.
    ///
    /// The summation order is **row-decomposable by construction**: each
    /// row's squared norm is one [`kernels::dot`] (the canonical lane order
    /// over the rank-sized row), and the per-row values fold sequentially —
    /// `u1` rows ascending, then `u2`, then `u3`, then one `dot(h, h)`
    /// term. A contiguous row range therefore contributes a contiguous run
    /// of fold terms, which is what lets tail-sharded distributed training
    /// ([`crate::dist`]) compute per-row dots on the owning workers and
    /// fold them on the coordinator into the exact in-process bits.
    pub fn norm(&self) -> f64 {
        let mut acc = 0.0;
        for m in [&self.u1, &self.u2, &self.u3] {
            for r in 0..m.rows() {
                let row = m.row(r);
                acc += kernels::dot(row, row);
            }
        }
        acc += kernels::dot(&self.h, &self.h);
        acc.sqrt()
    }

    /// Fold one factor's per-row squared norms (`dots[i] = ‖row i‖²`,
    /// produced with [`kernels::dot`] on each row) into a running
    /// [`Grads::norm`] accumulator — the coordinator-side half of the
    /// row-decomposable norm contract above.
    pub(crate) fn norm_fold_rows(acc: &mut f64, dots: &[f64]) {
        for &d in dots {
            *acc += d;
        }
    }
}

/// Accumulate the gradient of a per-entry score derivative `c = ∂L/∂X̂_{ijk}`
/// into dense factor gradients: the reference that
/// [`crate::sparse_grads::backprop_entry_sparse`] (the training path) must
/// match bit-for-bit. Test-only — production accumulates sparse deltas.
#[cfg(test)]
pub(crate) fn backprop_entry(
    model: &TcssModel,
    grads: &mut Grads,
    i: usize,
    j: usize,
    k: usize,
    c: f64,
) {
    let ui = model.u1.row(i);
    let uj = model.u2.row(j);
    let uk = model.u3.row(k);
    kernels::fused_mul3_axpy(c, &model.h, uj, uk, grads.u1.row_mut(i));
    kernels::fused_mul3_axpy(c, &model.h, ui, uk, grads.u2.row_mut(j));
    kernels::fused_mul3_axpy(c, &model.h, ui, uj, grads.u3.row_mut(k));
    kernels::fused_mul3_axpy(c, ui, uj, uk, &mut grads.h);
}

/// ---- Whole-data term: w₋ Σ_{r₁r₂} h_{r₁} h_{r₂} G¹ G² G³ ----
///
/// The `r × r` core of the whole-data term: the three coefficient
/// matrices `D^f` with factor gradient `∂B/∂U^f = 2 U^f D^f`, plus the
/// loss terms (through the sink, in emission order) and the `h` gradient
/// (added onto `h_grad` in place). The factor rows are [`add_gram_rows`]'s.
pub(crate) fn whole_data_gram_mats(
    model: &TcssModel,
    w_minus: f64,
    loss_term: &mut dyn FnMut(f64),
    h_grad: &mut [f64],
) -> [Matrix; 3] {
    let r = model.h.len();
    let g1 = model.u1.gram();
    let g2 = model.u2.gram();
    let g3 = model.u3.gram();
    let mut d1 = Matrix::zeros(r, r); // w₋ · h_{r₁} h_{r₂} G² G³ (for U¹ grad)
    for r1 in 0..r {
        for r2 in 0..r {
            let w = w_minus * model.h[r1] * model.h[r2];
            let p123 = g1.get(r1, r2) * g2.get(r1, r2) * g3.get(r1, r2);
            loss_term(w * p123);
            d1.set(r1, r2, w * g2.get(r1, r2) * g3.get(r1, r2));
        }
    }
    let mut d2 = Matrix::zeros(r, r);
    let mut d3 = Matrix::zeros(r, r);
    for r1 in 0..r {
        for r2 in 0..r {
            let w = w_minus * model.h[r1] * model.h[r2];
            d2.set(r1, r2, w * g1.get(r1, r2) * g3.get(r1, r2));
            d3.set(r1, r2, w * g1.get(r1, r2) * g2.get(r1, r2));
        }
    }
    // dB/dh_{r₁} = 2 w₋ Σ_{r₂} h_{r₂} (G¹G²G³)_{r₁r₂}.
    for (r1, hg) in h_grad.iter_mut().take(r).enumerate() {
        let mut acc = 0.0;
        for r2 in 0..r {
            acc += model.h[r2] * g1.get(r1, r2) * g2.get(r1, r2) * g3.get(r1, r2);
        }
        *hg += 2.0 * w_minus * acc;
    }
    [d1, d2, d3]
}

/// Add the whole-data factor gradient `2·U^f·D^f` (D symmetric) onto a
/// slab of rows: `rows[f]` holds factor `f`'s rows, `grads[f]` the
/// matching gradient rows. Each row is a pure function of its own model
/// row and D, so a worker's owned slab lands on the bits of the same rows
/// in-process (`2·x` is exact, so `axpy(2.0, ..)` adds a doubled product).
pub(crate) fn add_gram_rows(d: &[Matrix; 3], rows: [&[f64]; 3], grads: [&mut [f64]; 3]) {
    let rank = d[0].rows();
    let mut acc = vec![0.0; rank];
    for ((d, rows), grad) in d.iter().zip(rows).zip(grads) {
        for (row, g) in rows.chunks_exact(rank).zip(grad.chunks_exact_mut(rank)) {
            acc.fill(0.0);
            d.row_product_into(row, &mut acc)
                .expect("rank-sized row and scratch");
            kernels::axpy(2.0, &acc, g);
        }
    }
}

/// The paper's rewritten whole-data loss (Eq 15) and its analytic gradient.
///
/// Convenience wrapper over [`rewritten_loss_and_grad_ws`] with a one-shot
/// workspace; training loops hold a [`TrainWorkspace`] and call the `_ws`
/// form so scratch buffers amortize across epochs.
///
/// Returns `(loss, grads)`. Note the rewritten loss omits the constant
/// `Σ_{Ω₊} w₊ X²` (it does not affect optimization); add
/// `w_plus · positives.len()` to compare with [`naive_whole_data_loss`].
pub fn rewritten_loss_and_grad(
    model: &TcssModel,
    positives: &[TensorEntry],
    w_plus: f64,
    w_minus: f64,
) -> (f64, Grads) {
    let ws = TrainWorkspace::new();
    let mut grads = Grads::zeros(model);
    let loss = rewritten_loss_and_grad_ws(model, positives, w_plus, w_minus, &ws, &mut grads);
    (loss, grads)
}

/// [`rewritten_loss_and_grad`] over pooled workspaces, accumulating into
/// the caller's gradient buffer (which the merge starts from — no
/// model-sized fold-identity allocation).
///
/// The positive-entry term `Σ (w₊−w₋) X̂² − 2 w₊ X X̂` runs over fixed
/// entry chunks (`entry_loss_ws`), then the Gram half adds on: its loss
/// terms in `whole_data_gram_mats` emission order, the `h` gradient,
/// then every factor row through `add_gram_rows`. Returns the loss;
/// `grads` receives `∂L₂/∂θ` added on top of whatever it already holds.
pub fn rewritten_loss_and_grad_ws(
    model: &TcssModel,
    positives: &[TensorEntry],
    w_plus: f64,
    w_minus: f64,
    ws: &TrainWorkspace,
    grads: &mut Grads,
) -> f64 {
    let kernel = EntryKernel::L2(positives);
    let mut loss = entry_loss_ws(model, kernel, w_plus, w_minus, ws, grads);
    let d = whole_data_gram_mats(model, w_minus, &mut |t| loss += t, &mut grads.h);
    add_gram_rows(&d, model.factors(), grads.factors_mut());
    loss
}

/// Which per-chunk kernel the entry half of a loss runs, and what it
/// reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EntryKernel<'a> {
    /// [`l2_entry_chunk`] over these entries: the positive term of the
    /// rewritten whole-data loss (its Gram half is the epoch tail's).
    L2(&'a [TensorEntry]),
    /// [`negative_sampling_chunk`] over this tensor's entries, drawing
    /// negatives from this seed.
    NegativeSampling(&'a SparseTensor3, u64),
}

impl<'a> EntryKernel<'a> {
    /// The kernel `loss` trains with at `epoch` over `tensor`. Negative
    /// sampling seeds each epoch with `seed + epoch` (then mixes in the
    /// chunk index inside the kernel); the in-process trainer and every
    /// worker derive the seed here.
    pub(crate) fn for_epoch(
        loss: LossStrategy,
        tensor: &'a SparseTensor3,
        seed: u64,
        epoch: u64,
    ) -> Self {
        match loss {
            LossStrategy::WholeDataRewritten => EntryKernel::L2(tensor.entries()),
            LossStrategy::NegativeSampling => {
                EntryKernel::NegativeSampling(tensor, seed.wrapping_add(epoch))
            }
        }
    }

    fn entries(&self) -> &'a [TensorEntry] {
        match *self {
            EntryKernel::L2(entries) => entries,
            EntryKernel::NegativeSampling(tensor, _) => tensor.entries(),
        }
    }
}

/// The entry half of a loss over the **global** entry range `entries`,
/// which starts on the chunk grid: one `(loss, delta)` per
/// [`ENTRIES_PER_CHUNK`] chunk in ascending order, each a pure function of
/// `(model, kernel, global range)`. The local grid `map_chunks_with` lays
/// over the range is a slice of the global one, so offsetting a local
/// range recovers the global range the kernels (and the negative-sampling
/// RNG keyed on it) expect. Return the deltas to `ws.deltas` once used.
pub(crate) fn eval_entry_chunks(
    model: &TcssModel,
    kernel: EntryKernel<'_>,
    w_plus: f64,
    w_minus: f64,
    entries: std::ops::Range<usize>,
    ws: &TrainWorkspace,
) -> Vec<(f64, SparseGrads)> {
    debug_assert_eq!(entries.start % ENTRIES_PER_CHUNK, 0);
    let lo = entries.start;
    tcss_linalg::map_chunks_with(
        entries.len(),
        ENTRIES_PER_CHUNK,
        || {
            let mut scratch = ws.scratch.acquire(|| GradScratch::for_model(model));
            scratch.ensure(model);
            scratch
        },
        |scratch, local| {
            let range = local.start + lo..local.end + lo;
            let mut delta = ws.deltas.take(SparseGrads::new);
            let loss = match kernel {
                EntryKernel::L2(positives) => l2_entry_chunk(
                    model, positives, range, w_plus, w_minus, scratch, &mut delta,
                ),
                EntryKernel::NegativeSampling(tensor, seed) => negative_sampling_chunk(
                    model, tensor, range, w_plus, w_minus, seed, scratch, &mut delta,
                ),
            };
            (loss, delta)
        },
    )
}

/// The entry half of a loss over every entry, folded: chunk losses summed
/// and chunk deltas scattered into `grads`, both in ascending chunk order
/// — bit-for-bit the dense-chunk merge (see [`crate::sparse_grads`] for
/// the contract) and independent of the thread count. Returns the loss;
/// `grads` receives the gradient on top of what it holds.
pub(crate) fn entry_loss_ws(
    model: &TcssModel,
    kernel: EntryKernel<'_>,
    w_plus: f64,
    w_minus: f64,
    ws: &TrainWorkspace,
    grads: &mut Grads,
) -> f64 {
    let all = 0..kernel.entries().len();
    let mut loss = 0.0;
    for (l, delta) in eval_entry_chunks(model, kernel, w_plus, w_minus, all, ws) {
        loss += l;
        delta.scatter_into(grads);
        ws.deltas.put(delta);
    }
    loss
}

/// One entry chunk of the rewritten-loss positive term.
///
/// `range` must be a chunk of the **global** entry grid (multiples of
/// [`ENTRIES_PER_CHUNK`]); `delta` is reset via [`SparseGrads::begin`] and
/// detached from `scratch` before returning.
fn l2_entry_chunk(
    model: &TcssModel,
    positives: &[TensorEntry],
    range: std::ops::Range<usize>,
    w_plus: f64,
    w_minus: f64,
    scratch: &mut GradScratch,
    delta: &mut SparseGrads,
) -> f64 {
    delta.begin(model);
    let mut loss = 0.0;
    for e in &positives[range] {
        let s = model.predict(e.i, e.j, e.k);
        loss += (w_plus - w_minus) * s * s - 2.0 * w_plus * e.value * s;
        let c = 2.0 * (w_plus - w_minus) * s - 2.0 * w_plus * e.value;
        backprop_entry_sparse(model, delta, scratch, e.i, e.j, e.k, c);
    }
    delta.detach(scratch);
    loss
}

/// Eq 14 evaluated literally: `Σ_{ijk} w_{ijk} (X_{ijk} − X̂_{ijk})²` over
/// all `I·J·K` cells. `O(I·J·K·r)` — Table IV's "original loss" row.
pub fn naive_whole_data_loss(
    model: &TcssModel,
    tensor: &SparseTensor3,
    w_plus: f64,
    w_minus: f64,
) -> f64 {
    let (i_dim, j_dim, k_dim) = tensor.dims();
    let mut loss = 0.0;
    for i in 0..i_dim {
        for j in 0..j_dim {
            for k in 0..k_dim {
                let x = tensor.get(i, j, k);
                let s = model.predict(i, j, k);
                let w = if x != 0.0 { w_plus } else { w_minus };
                loss += w * (x - s) * (x - s);
            }
        }
    }
    loss
}

/// Classic negative sampling: squared error over the positives plus an
/// equal number of uniformly sampled unobserved entries (following the NCF
/// recipe the paper's ablation uses). Returns `(loss, grads)`.
///
/// The entry loop is parallelized over fixed chunks, and each chunk draws
/// its negatives from an RNG seeded by `(seed, chunk index)` — the sampled
/// negatives are therefore a function of the seed and the chunk grid alone,
/// never of the thread count, keeping the whole evaluation deterministic.
pub fn negative_sampling_loss_and_grad(
    model: &TcssModel,
    tensor: &SparseTensor3,
    w_plus: f64,
    w_minus: f64,
    seed: u64,
) -> (f64, Grads) {
    let ws = TrainWorkspace::new();
    let mut grads = Grads::zeros(model);
    let loss =
        negative_sampling_loss_and_grad_ws(model, tensor, w_plus, w_minus, seed, &ws, &mut grads);
    (loss, grads)
}

/// [`negative_sampling_loss_and_grad`] over pooled workspaces, accumulating
/// into the caller's gradient buffer. Sparse chunk deltas, same merge
/// contract as [`rewritten_loss_and_grad_ws`]; the per-chunk RNG seeding is
/// unchanged, so the sampled negatives (and therefore the floats) match the
/// dense reference bit-for-bit.
pub fn negative_sampling_loss_and_grad_ws(
    model: &TcssModel,
    tensor: &SparseTensor3,
    w_plus: f64,
    w_minus: f64,
    seed: u64,
    ws: &TrainWorkspace,
    grads: &mut Grads,
) -> f64 {
    let kernel = EntryKernel::NegativeSampling(tensor, seed);
    entry_loss_ws(model, kernel, w_plus, w_minus, ws, grads)
}

/// One entry chunk of the negative-sampling loss; the counterpart of
/// [`l2_entry_chunk`]. The per-chunk RNG stream is keyed to the
/// **global** chunk index (recovered from `range.start`), so a worker
/// evaluating chunk `c` draws exactly the negatives the single-process
/// run would have — the process-count-parity contract for sampled losses
/// rests on this.
#[allow(clippy::too_many_arguments)]
fn negative_sampling_chunk(
    model: &TcssModel,
    tensor: &SparseTensor3,
    range: std::ops::Range<usize>,
    w_plus: f64,
    w_minus: f64,
    seed: u64,
    scratch: &mut GradScratch,
    delta: &mut SparseGrads,
) -> f64 {
    let (i_dim, j_dim, k_dim) = tensor.dims();
    let entries = tensor.entries();
    // SplitMix64-style mix of (seed, chunk) into an independent
    // per-chunk stream.
    let chunk = (range.start / ENTRIES_PER_CHUNK) as u64;
    let mut rng =
        StdRng::seed_from_u64(seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
    delta.begin(model);
    let mut loss = 0.0;
    for e in &entries[range] {
        let s = model.predict(e.i, e.j, e.k);
        loss += w_plus * (e.value - s) * (e.value - s);
        backprop_entry_sparse(
            model,
            delta,
            scratch,
            e.i,
            e.j,
            e.k,
            2.0 * w_plus * (s - e.value),
        );
        // One sampled negative per positive.
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
                backprop_entry_sparse(model, delta, scratch, ni, nj, nk, 2.0 * w_minus * sn);
                break;
            }
            attempts += 1;
        }
    }
    delta.detach(scratch);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;

    fn toy() -> (TcssModel, SparseTensor3) {
        let dims = (4, 5, 3);
        let entries = vec![
            (0, 0, 0, 1.0),
            (0, 1, 2, 1.0),
            (1, 0, 1, 1.0),
            (2, 3, 0, 1.0),
            (3, 4, 2, 1.0),
            (1, 2, 1, 1.0),
        ];
        let t = SparseTensor3::from_entries(dims, entries).unwrap();
        let (u1, u2, u3) = random_init(dims, 3, 11);
        (TcssModel::new(u1, u2, u3), t)
    }

    /// Eq 15 + constant == Eq 14 (Remark 1 of the paper).
    #[test]
    fn rewritten_equals_naive_up_to_constant() {
        let (model, t) = toy();
        let (rewritten, _) = rewritten_loss_and_grad(&model, t.entries(), 0.99, 0.01);
        let naive = naive_whole_data_loss(&model, &t, 0.99, 0.01);
        let constant = 0.99 * t.nnz() as f64; // Σ_{Ω₊} w₊ X² with X = 1
        assert!(
            (rewritten + constant - naive).abs() < 1e-9,
            "rewritten {rewritten} + {constant} != naive {naive}"
        );
    }

    /// Finite-difference check of the rewritten-loss gradient over every
    /// parameter class.
    #[test]
    fn rewritten_gradient_finite_difference() {
        let (mut model, t) = toy();
        let (_, grads) = rewritten_loss_and_grad(&model, t.entries(), 0.9, 0.1);
        let h = 1e-6;
        let eval = |m: &TcssModel| rewritten_loss_and_grad(m, t.entries(), 0.9, 0.1).0;
        // U1 coordinates.
        for (i, tt) in [(0usize, 0usize), (2, 1), (3, 2)] {
            let orig = model.u1.get(i, tt);
            model.u1.set(i, tt, orig + h);
            let fp = eval(&model);
            model.u1.set(i, tt, orig - h);
            let fm = eval(&model);
            model.u1.set(i, tt, orig);
            let num = (fp - fm) / (2.0 * h);
            assert!(
                (num - grads.u1.get(i, tt)).abs() < 1e-5,
                "U1[{i},{tt}]: numeric {num} vs analytic {}",
                grads.u1.get(i, tt)
            );
        }
        // U2, U3 spot checks.
        for (j, tt) in [(0usize, 0usize), (4, 2)] {
            let orig = model.u2.get(j, tt);
            model.u2.set(j, tt, orig + h);
            let fp = eval(&model);
            model.u2.set(j, tt, orig - h);
            let fm = eval(&model);
            model.u2.set(j, tt, orig);
            let num = (fp - fm) / (2.0 * h);
            assert!((num - grads.u2.get(j, tt)).abs() < 1e-5);
        }
        for (k, tt) in [(0usize, 1usize), (2, 0)] {
            let orig = model.u3.get(k, tt);
            model.u3.set(k, tt, orig + h);
            let fp = eval(&model);
            model.u3.set(k, tt, orig - h);
            let fm = eval(&model);
            model.u3.set(k, tt, orig);
            let num = (fp - fm) / (2.0 * h);
            assert!((num - grads.u3.get(k, tt)).abs() < 1e-5);
        }
        // h coordinates.
        for tt in 0..3 {
            let orig = model.h[tt];
            model.h[tt] = orig + h;
            let fp = eval(&model);
            model.h[tt] = orig - h;
            let fm = eval(&model);
            model.h[tt] = orig;
            let num = (fp - fm) / (2.0 * h);
            assert!(
                (num - grads.h[tt]).abs() < 1e-5,
                "h[{tt}]: numeric {num} vs analytic {}",
                grads.h[tt]
            );
        }
    }

    #[test]
    fn negative_sampling_gradient_finite_difference() {
        let (mut model, t) = toy();
        let seed = 99;
        let (_, grads) = negative_sampling_loss_and_grad(&model, &t, 0.9, 0.1, seed);
        let h = 1e-6;
        // Same seed ⇒ same sampled negatives ⇒ differentiable w.r.t params.
        let eval = |m: &TcssModel| negative_sampling_loss_and_grad(m, &t, 0.9, 0.1, seed).0;
        let orig = model.u1.get(1, 1);
        model.u1.set(1, 1, orig + h);
        let fp = eval(&model);
        model.u1.set(1, 1, orig - h);
        let fm = eval(&model);
        model.u1.set(1, 1, orig);
        let num = (fp - fm) / (2.0 * h);
        assert!(
            (num - grads.u1.get(1, 1)).abs() < 1e-5,
            "numeric {num} vs analytic {}",
            grads.u1.get(1, 1)
        );
    }

    #[test]
    fn descent_direction_reduces_loss() {
        let (mut model, t) = toy();
        let (l0, grads) = rewritten_loss_and_grad(&model, t.entries(), 0.99, 0.01);
        let step = 1e-3 / grads.norm().max(1.0);
        model.u1.axpy_mut(-step, &grads.u1).unwrap();
        model.u2.axpy_mut(-step, &grads.u2).unwrap();
        model.u3.axpy_mut(-step, &grads.u3).unwrap();
        for (hv, g) in model.h.iter_mut().zip(grads.h.iter()) {
            *hv -= step * g;
        }
        let (l1, _) = rewritten_loss_and_grad(&model, t.entries(), 0.99, 0.01);
        assert!(l1 < l0, "step along −∇ must reduce loss: {l0} → {l1}");
    }

    #[test]
    fn grads_add_scaled_and_norm() {
        let (model, t) = toy();
        let (_, g) = rewritten_loss_and_grad(&model, t.entries(), 0.9, 0.1);
        let mut acc = Grads::zeros(&model);
        acc.add_scaled(2.0, &g);
        assert!((acc.norm() - 2.0 * g.norm()).abs() < 1e-9);
    }

    #[test]
    fn perfect_model_has_small_positive_gradient() {
        // A model that predicts exactly 1 on the positive and 0 elsewhere
        // would zero the positive term's gradient; verify the positive-term
        // coefficient formula at s = 1: c = 2(w₊−w₋) − 2w₊ = −2w₋.
        let dims = (1, 1, 1);
        let t = SparseTensor3::from_entries(dims, vec![(0, 0, 0, 1.0)]).unwrap();
        let u = Matrix::filled(1, 1, 1.0);
        let model = TcssModel::new(u.clone(), u.clone(), u);
        let (_, grads) = rewritten_loss_and_grad(&model, t.entries(), 0.99, 0.01);
        // Gram term adds 2·w₋·h·G²G³ = 2·0.01; positive term −2w₋ = −0.02.
        // Net ≈ 0: the whole-data loss wants s slightly below 1.
        assert!(grads.h[0].abs() < 0.05, "grad {}", grads.h[0]);
    }
}
