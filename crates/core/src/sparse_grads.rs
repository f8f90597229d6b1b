//! Sparse per-chunk gradient deltas for the training hot path.
//!
//! The entry-loop losses ([`crate::loss`]) and the social-Hausdorff head
//! ([`crate::hausdorff`]) parallelize over fixed chunks of work. Before
//! this module existed, every chunk accumulated into a **full model-sized**
//! [`Grads`] buffer: per epoch that cost `O(chunks · (I+J+K) · r)` in
//! zeroing and merge traffic — asymptotically more than the `O(nnz · r)`
//! useful math the paper's rewritten loss (Eq 15, §IV-D) was designed to
//! achieve. A chunk of 1024 tensor entries touches at most 1024 rows per
//! factor, so recording *only the touched rows* makes both the chunk
//! buffer and the merge proportional to actual work.
//!
//! Two pieces:
//!
//! * [`SparseGrads`] — the compact delta a chunk produces: touched rows of
//!   `U¹/U²/U³` in first-touch order plus a dense (length-`r`) `h`
//!   gradient. It travels with the chunk result and is recycled through a
//!   [`tcss_linalg::WorkspacePool`].
//! * [`GradScratch`] — the worker-local row → slot index (`O(I+J+K)` of
//!   `u32`) that makes row lookup `O(1)` without hashing. It stays with
//!   the worker across chunks; [`SparseGrads::detach`] un-marks the rows a
//!   chunk touched in `O(touched)` so the index never needs a full clear.
//!
//! # The sparse-delta merge contract (bitwise parity)
//!
//! The deterministic-reduction contract of [`tcss_linalg::parallel`] pins
//! the chunk grid and merges chunk results in ascending chunk order. The
//! sparse path preserves the dense path's floats **bit-for-bit** because:
//!
//! 1. within a chunk, each touched row accumulates its entries in the same
//!    order, with the same arithmetic, as the dense chunk buffer did;
//! 2. [`SparseGrads::scatter_into`] adds each chunk's contribution to the
//!    shared [`Grads`] in ascending chunk order (the caller folds in chunk
//!    order), one add per touched row element — and the adds the dense
//!    merge performed for *untouched* rows were all exact `+0.0`
//!    identities (an IEEE-754 accumulator that starts at `+0.0` can never
//!    become `-0.0` under addition, so `x + 0.0` is always bitwise `x`).
//!
//! The parity suites pin this equivalence at 1/2/4 threads against one
//! dense-chunk reference per kernel, kept in test code: the entry-loop
//! losses in `tests/sparse_parity.rs` (reference in
//! `tests/support/dense_loss.rs`), the Hausdorff head in the
//! `hausdorff` module's tests.

use crate::loss::Grads;
use crate::model::TcssModel;
use tcss_linalg::{kernels, Matrix};

/// Sentinel slot meaning "row not touched by the current chunk".
const EMPTY: u32 = u32::MAX;

/// Compact gradient delta for one factor matrix: the touched rows, in
/// first-touch order, with their `r`-wide accumulation buffers.
#[derive(Debug, Default)]
struct FactorDelta {
    /// Touched row indices, in order of first touch.
    rows: Vec<u32>,
    /// Row buffers, `rows.len() * r`, parallel to `rows`.
    data: Vec<f64>,
}

impl FactorDelta {
    /// The accumulation buffer for `row`, registering it on first touch.
    #[inline]
    fn row_mut(&mut self, slots: &mut [u32], row: usize, r: usize) -> &mut [f64] {
        let mut slot = slots[row];
        if slot == EMPTY {
            slot = self.rows.len() as u32;
            slots[row] = slot;
            self.rows.push(row as u32);
            self.data.resize(self.data.len() + r, 0.0);
        }
        let lo = slot as usize * r;
        &mut self.data[lo..lo + r]
    }

    /// Add every touched row into `dense` (one add per element, same as
    /// the dense chunk merge performed for these rows).
    fn scatter_into(&self, r: usize, dense: &mut Matrix) {
        for (slot, &row) in self.rows.iter().enumerate() {
            let src = &self.data[slot * r..(slot + 1) * r];
            for (d, &s) in dense.row_mut(row as usize).iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    /// Un-mark this delta's rows in the slot index (`O(touched)`).
    fn detach(&self, slots: &mut [u32]) {
        for &row in &self.rows {
            slots[row as usize] = EMPTY;
        }
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.data.clear();
    }
}

/// Worker-local row → slot index for the three factor matrices.
///
/// Allocated once per worker per run (checked out of the trainer's
/// [`crate::workspace::TrainWorkspace`] pool), sized `O(I + J + K)` in
/// `u32`. Between chunks every entry is [`EMPTY`]; a chunk marks the rows
/// it touches and [`SparseGrads::detach`] un-marks them before the worker
/// moves on.
#[derive(Debug)]
pub struct GradScratch {
    slot1: Vec<u32>,
    slot2: Vec<u32>,
    slot3: Vec<u32>,
}

impl GradScratch {
    /// A scratch index sized for `model`, all rows unmarked.
    pub fn for_model(model: &TcssModel) -> Self {
        let (i, j, k) = model.dims();
        GradScratch {
            slot1: vec![EMPTY; i],
            slot2: vec![EMPTY; j],
            slot3: vec![EMPTY; k],
        }
    }

    /// Resize for `model` if a pooled scratch was built for different
    /// dimensions (all rows unmarked afterwards). A same-shape call is a
    /// no-op — pooled buffers keep their cleared state between chunks.
    pub fn ensure(&mut self, model: &TcssModel) {
        let (i, j, k) = model.dims();
        if self.slot1.len() != i || self.slot2.len() != j || self.slot3.len() != k {
            *self = GradScratch::for_model(model);
        }
    }
}

/// Borrowed wire view of one delta: the rank plus, per factor, the
/// touched-row indices and their `rows.len() * r` accumulation buffer,
/// then the dense `h` gradient.
pub(crate) type WireParts<'a> = (usize, [(&'a [u32], &'a [f64]); 3], &'a [f64]);

/// The sparse gradient delta one parallel chunk produces: touched rows of
/// the three factors plus the dense `h` gradient. See the module docs for
/// the merge contract.
#[derive(Debug, Default)]
pub struct SparseGrads {
    r: usize,
    u1: FactorDelta,
    u2: FactorDelta,
    u3: FactorDelta,
    h: Vec<f64>,
}

impl SparseGrads {
    /// An empty delta (rank set by [`SparseGrads::begin`]).
    pub fn new() -> Self {
        SparseGrads::default()
    }

    /// Reset for a fresh chunk against `model`: no touched rows, `h`
    /// zeroed. Keeps the capacity of a recycled delta.
    pub fn begin(&mut self, model: &TcssModel) {
        self.r = model.h.len();
        self.u1.clear();
        self.u2.clear();
        self.u3.clear();
        self.h.clear();
        self.h.resize(self.r, 0.0);
    }

    /// Number of touched rows across the three factors (diagnostics).
    pub fn touched_rows(&self) -> usize {
        self.u1.rows.len() + self.u2.rows.len() + self.u3.rows.len()
    }

    /// Un-mark this delta's rows in `scratch`, leaving the scratch clean
    /// for the worker's next chunk. Must be called exactly once per
    /// [`SparseGrads::begin`], with the same scratch the chunk accumulated
    /// through.
    pub fn detach(&self, scratch: &mut GradScratch) {
        self.u1.detach(&mut scratch.slot1);
        self.u2.detach(&mut scratch.slot2);
        self.u3.detach(&mut scratch.slot3);
    }

    /// Borrow the raw wire representation for the distributed trainer:
    /// the rank plus, per factor, the touched-row indices and their
    /// `rows.len() * r` accumulation buffer, then the dense `h` gradient.
    /// [`crate::dist`] serializes the `h` slice verbatim into each chunk's
    /// stats, so the coordinator folds exactly the `h` adds
    /// [`SparseGrads::scatter_into`] would have performed in-process.
    pub(crate) fn wire_parts(&self) -> WireParts<'_> {
        (
            self.r,
            [
                (&self.u1.rows, &self.u1.data),
                (&self.u2.rows, &self.u2.data),
                (&self.u3.rows, &self.u3.data),
            ],
            &self.h,
        )
    }

    /// Add this delta into the shared dense gradients (ascending-chunk-
    /// order calls preserve the dense merge's floats bit-for-bit).
    pub fn scatter_into(&self, grads: &mut Grads) {
        self.u1.scatter_into(self.r, &mut grads.u1);
        self.u2.scatter_into(self.r, &mut grads.u2);
        self.u3.scatter_into(self.r, &mut grads.u3);
        for (d, &s) in grads.h.iter_mut().zip(self.h.iter()) {
            *d += s;
        }
    }
}

// ---------------------------------------------------------------------
// Row ownership (owner-computes tail sharding, `crate::dist::sharded`)
// ---------------------------------------------------------------------

/// The contiguous row range worker `w` of `n_workers` owns in a factor
/// with `dim` rows: `[w·dim/n, (w+1)·dim/n)`. The same balanced split the
/// chunk-grid sharding uses — a pure function of `(dim, n_workers, w)`,
/// so every peer derives the identical map locally.
pub(crate) fn owned_range(dim: usize, n_workers: usize, w: usize) -> (usize, usize) {
    (w * dim / n_workers, (w + 1) * dim / n_workers)
}

/// Inverse of [`owned_range`]: which worker owns `row`.
pub(crate) fn row_owner(row: usize, dim: usize, n_workers: usize) -> usize {
    debug_assert!(row < dim);
    let w = (row * n_workers + n_workers - 1) / dim;
    debug_assert!({
        let (lo, hi) = owned_range(dim, n_workers, w);
        lo <= row && row < hi
    });
    w
}

/// One destination's share of a worker's chunk deltas for one factor:
/// touched rows in global first-touch order (ascending chunk, first-touch
/// order within each chunk) with their accumulated `r`-wide buffers —
/// exactly the adds [`FactorDelta::scatter_into`] would have replayed for
/// these rows, in the same order.
#[derive(Debug, Default)]
pub(crate) struct OwnedRows {
    pub rows: Vec<u32>,
    pub data: Vec<f64>,
}

impl OwnedRows {
    fn clear(&mut self) {
        self.rows.clear();
        self.data.clear();
    }
}

/// Splits per-chunk [`SparseGrads`] by row owner for the reduce-scatter
/// exchange: `parts[factor · n_owners + owner]` collects every touched
/// row bound for `owner` across all chunks fed to
/// [`OwnerSplit::split_chunk`] (call in ascending chunk order). Buffers
/// are reused across epochs.
#[derive(Debug)]
pub(crate) struct OwnerSplit {
    n_owners: usize,
    parts: Vec<OwnedRows>,
}

impl OwnerSplit {
    pub(crate) fn new(n_owners: usize) -> Self {
        OwnerSplit {
            n_owners,
            parts: (0..3 * n_owners).map(|_| OwnedRows::default()).collect(),
        }
    }

    /// Drop all collected rows (start of a fresh epoch).
    pub(crate) fn clear(&mut self) {
        for p in &mut self.parts {
            p.clear();
        }
    }

    /// The rows of `factor` (0 = `U¹`, 1 = `U²`, 2 = `U³`) bound for
    /// `owner`.
    pub(crate) fn part(&self, factor: usize, owner: usize) -> &OwnedRows {
        &self.parts[factor * self.n_owners + owner]
    }

    /// Route one chunk's touched rows to their owners, preserving
    /// first-touch order within the chunk.
    pub(crate) fn split_chunk(&mut self, delta: &SparseGrads, dims: (usize, usize, usize)) {
        let r = delta.r;
        for (f, (fd, dim)) in [
            (&delta.u1, dims.0),
            (&delta.u2, dims.1),
            (&delta.u3, dims.2),
        ]
        .into_iter()
        .enumerate()
        {
            for (slot, &row) in fd.rows.iter().enumerate() {
                let owner = row_owner(row as usize, dim, self.n_owners);
                let part = &mut self.parts[f * self.n_owners + owner];
                part.rows.push(row);
                part.data
                    .extend_from_slice(&fd.data[slot * r..(slot + 1) * r]);
            }
        }
    }
}

/// Sparse counterpart of [`crate::loss::backprop_entry`]: accumulate the
/// gradient of a per-entry score derivative `c = ∂L/∂X̂_{ijk}` into a
/// chunk's sparse delta. The arithmetic (expression shapes and
/// accumulation order) mirrors the dense version exactly — that identity
/// is what the bitwise parity contract rests on.
#[inline]
pub(crate) fn backprop_entry_sparse(
    model: &TcssModel,
    delta: &mut SparseGrads,
    scratch: &mut GradScratch,
    i: usize,
    j: usize,
    k: usize,
    c: f64,
) {
    let r = model.h.len();
    let ui = model.u1.row(i);
    let uj = model.u2.row(j);
    let uk = model.u3.row(k);
    let g1 = delta.u1.row_mut(&mut scratch.slot1, i, r);
    kernels::fused_mul3_axpy(c, &model.h, uj, uk, g1);
    let g2 = delta.u2.row_mut(&mut scratch.slot2, j, r);
    kernels::fused_mul3_axpy(c, &model.h, ui, uk, g2);
    let g3 = delta.u3.row_mut(&mut scratch.slot3, k, r);
    kernels::fused_mul3_axpy(c, &model.h, ui, uj, g3);
    kernels::fused_mul3_axpy(c, ui, uj, uk, &mut delta.h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;
    use crate::loss::backprop_entry;

    fn model() -> TcssModel {
        let (u1, u2, u3) = random_init((6, 7, 4), 3, 5);
        TcssModel::new(u1, u2, u3)
    }

    #[test]
    fn sparse_backprop_matches_dense_bitwise() {
        let m = model();
        let entries = [
            (0usize, 0usize, 0usize, 0.7),
            (2, 3, 1, -1.3),
            (0, 3, 1, 0.2),
        ];
        let mut dense = Grads::zeros(&m);
        for &(i, j, k, c) in &entries {
            backprop_entry(&m, &mut dense, i, j, k, c);
        }
        let mut scratch = GradScratch::for_model(&m);
        let mut delta = SparseGrads::new();
        delta.begin(&m);
        for &(i, j, k, c) in &entries {
            backprop_entry_sparse(&m, &mut delta, &mut scratch, i, j, k, c);
        }
        delta.detach(&mut scratch);
        let mut scattered = Grads::zeros(&m);
        delta.scatter_into(&mut scattered);
        let bits = |g: &Grads| -> Vec<u64> {
            g.u1.as_slice()
                .iter()
                .chain(g.u2.as_slice())
                .chain(g.u3.as_slice())
                .chain(&g.h)
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&dense), bits(&scattered));
        // Only the touched rows were recorded: 2 in U¹ (users 0, 2),
        // 2 in U² (POIs 0, 3), 2 in U³ (times 0, 1).
        assert_eq!(delta.touched_rows(), 6);
    }

    #[test]
    fn detach_leaves_scratch_reusable() {
        let m = model();
        let mut scratch = GradScratch::for_model(&m);
        let mut delta = SparseGrads::new();
        for round in 0..3 {
            delta.begin(&m);
            backprop_entry_sparse(&m, &mut delta, &mut scratch, round, round, 0, 1.0);
            assert_eq!(delta.touched_rows(), 3, "round {round}");
            delta.detach(&mut scratch);
            assert!(scratch.slot1.iter().all(|&s| s == EMPTY));
            assert!(scratch.slot2.iter().all(|&s| s == EMPTY));
            assert!(scratch.slot3.iter().all(|&s| s == EMPTY));
        }
    }

    #[test]
    fn owned_ranges_partition_and_row_owner_inverts() {
        for dim in 1..40usize {
            for n in 1..9usize {
                let mut next = 0;
                for w in 0..n {
                    let (lo, hi) = owned_range(dim, n, w);
                    assert_eq!(lo, next, "dim {dim} workers {n} worker {w}");
                    assert!(hi >= lo);
                    next = hi;
                    for row in lo..hi {
                        assert_eq!(row_owner(row, dim, n), w, "dim {dim} n {n} row {row}");
                    }
                }
                assert_eq!(next, dim);
            }
        }
    }

    #[test]
    fn owner_split_preserves_first_touch_order_per_owner() {
        let m = model(); // dims (6, 7, 4)
        let mut scratch = GradScratch::for_model(&m);
        let mut delta = SparseGrads::new();
        delta.begin(&m);
        // U¹ touches rows 5, 0, 5, 1 (first-touch order 5, 0, 1); with 2
        // owners of 6 rows, owner 0 gets [0, 1], owner 1 gets [5].
        for &(i, j, k, c) in &[
            (5usize, 0usize, 0usize, 1.0),
            (0, 1, 1, 2.0),
            (5, 2, 3, 3.0),
            (1, 3, 2, 4.0),
        ] {
            backprop_entry_sparse(&m, &mut delta, &mut scratch, i, j, k, c);
        }
        delta.detach(&mut scratch);
        let mut split = OwnerSplit::new(2);
        split.split_chunk(&delta, m.dims());
        assert_eq!(split.part(0, 0).rows, vec![0, 1]);
        assert_eq!(split.part(0, 1).rows, vec![5]);
        assert_eq!(split.part(0, 0).data.len(), 2 * 3);
        // The routed buffers are the accumulated chunk buffers, bit-for-bit.
        let (r, [(rows1, data1), _, _], _) = delta.wire_parts();
        let slot_of_5 = rows1.iter().position(|&x| x == 5).unwrap();
        assert_eq!(
            split.part(0, 1).data,
            &data1[slot_of_5 * r..(slot_of_5 + 1) * r]
        );
        // U² rows 0, 1, 2, 3 of 7: owner 0 owns [0, 3), owner 1 [3, 7).
        assert_eq!(split.part(1, 0).rows, vec![0, 1, 2]);
        assert_eq!(split.part(1, 1).rows, vec![3]);
        // clear() empties every part for the next epoch.
        split.clear();
        assert!(split.part(0, 0).rows.is_empty());
        assert!(split.part(1, 1).data.is_empty());
    }

    #[test]
    fn ensure_resizes_for_new_dims() {
        let m = model();
        let mut scratch = GradScratch::for_model(&m);
        let (u1, u2, u3) = random_init((10, 2, 8), 3, 5);
        let bigger = TcssModel::new(u1, u2, u3);
        scratch.ensure(&bigger);
        assert_eq!(scratch.slot1.len(), 10);
        assert_eq!(scratch.slot3.len(), 8);
    }
}
