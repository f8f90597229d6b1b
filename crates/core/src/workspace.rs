//! Reusable training workspaces: every scratch buffer the hot path needs,
//! allocated once per run.
//!
//! Before this module, one epoch of [`crate::train::TcssTrainer`] allocated
//! per **chunk** (model-sized gradient buffers in both loss heads) and per
//! **user** (the Hausdorff probability/candidate vectors) — `O(chunks)`
//! model copies and `O(users)` slice buffers per epoch. A
//! [`TrainWorkspace`] owns three [`WorkspacePool`]s that amortize all of
//! it: after the first epoch warms the pools, steady-state training
//! performs no hot-path allocations at all
//! (`tests/alloc_steady_state.rs` counts them for the rewritten loss).
//!
//! # Ownership rules
//!
//! * The workspace is created once per training run — by the one
//!   in-process epoch loop behind every `TcssTrainer::train*` entry
//!   point, by the distributed coordinator, and by each worker — and
//!   threaded **by shared reference** through the loss heads; pools hand
//!   buffers out via interior mutability.
//! * Worker-local buffers ([`GradScratch`], `UserScratch`) are checked out
//!   through RAII guards for the lifetime of one parallel region's worker.
//! * Per-chunk deltas ([`SparseGrads`]) travel by value with the chunk
//!   result and are returned to the pool by the caller after the in-order
//!   merge.
//! * Pooled buffers carry no information between uses: every checkout
//!   resets what it reads ([`SparseGrads::begin`], `GradScratch::ensure`),
//!   so pooling cannot perturb the deterministic-reduction contract.

use crate::hausdorff::UserScratch;
use crate::sparse_grads::{GradScratch, SparseGrads};
use tcss_linalg::WorkspacePool;

/// Pooled scratch state for one training run. Cheap to construct (empty
/// pools); buffers materialize lazily on first use and are recycled for
/// the rest of the run.
#[derive(Debug, Default)]
pub struct TrainWorkspace {
    /// Worker-local row → slot indices for sparse gradient accumulation.
    pub(crate) scratch: WorkspacePool<GradScratch>,
    /// Per-chunk sparse gradient deltas.
    pub(crate) deltas: WorkspacePool<SparseGrads>,
    /// Per-worker Hausdorff user buffers (probabilities, candidate set,
    /// prefix/suffix products, generalized-mean terms).
    pub(crate) users: WorkspacePool<UserScratch>,
}

impl TrainWorkspace {
    /// A fresh workspace with empty pools.
    pub fn new() -> Self {
        TrainWorkspace::default()
    }
}
