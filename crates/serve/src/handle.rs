//! Swappable model handle with a monotonically increasing version.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use tcss_core::TcssModel;

use crate::snapshot::SnapshotModel;

/// The model a snapshot serves from: either the full-precision f64
/// training model, or a compact quantized snapshot scored straight out of
/// its backing `mmap` (see [`crate::snapshot`]).
///
/// Both variants answer the same surface — [`dims`](ServingModel::dims),
/// [`rank`](ServingModel::rank), [`scores_for`](ServingModel::scores_for)
/// — so the engine, the wire server and the parity suites are agnostic to
/// which one is installed. The f64 variant is bitwise-exact against
/// [`TcssModel::scores_for`]; the compact variant carries the documented
/// quantization error budget instead.
#[derive(Debug)]
pub enum ServingModel {
    /// Full-precision f64 factors (the training model, verbatim).
    F64(TcssModel),
    /// Quantized flat snapshot (f32 or per-row-scaled i16 factors).
    Compact(SnapshotModel),
}

impl ServingModel {
    /// `(I, J, K)` dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        match self {
            ServingModel::F64(m) => m.dims(),
            ServingModel::Compact(s) => s.dims(),
        }
    }

    /// Embedding length `r`.
    pub fn rank(&self) -> usize {
        match self {
            ServingModel::F64(m) => m.rank(),
            ServingModel::Compact(s) => s.rank(),
        }
    }

    /// Scores for every POI at `(user, time)` — the per-request reference
    /// path every batched row is pinned against (bitwise for f64, bitwise
    /// against the same lane kernels for compact).
    pub fn scores_for(&self, user: usize, time: usize) -> Vec<f64> {
        match self {
            ServingModel::F64(m) => m.scores_for(user, time),
            ServingModel::Compact(s) => s.scores_for(user, time),
        }
    }

    /// The f64 training model, if that is what is installed.
    pub fn as_f64(&self) -> Option<&TcssModel> {
        match self {
            ServingModel::F64(m) => Some(m),
            ServingModel::Compact(_) => None,
        }
    }

    /// The compact snapshot, if that is what is installed.
    pub fn as_compact(&self) -> Option<&SnapshotModel> {
        match self {
            ServingModel::F64(_) => None,
            ServingModel::Compact(s) => Some(s),
        }
    }
}

impl From<TcssModel> for ServingModel {
    fn from(m: TcssModel) -> Self {
        ServingModel::F64(m)
    }
}

impl From<SnapshotModel> for ServingModel {
    fn from(s: SnapshotModel) -> Self {
        ServingModel::Compact(s)
    }
}

/// An immutable model pinned to the version it was published under.
///
/// Snapshots are what the serving hot path actually scores against: a
/// request batch clones one `Arc<ModelSnapshot>` up front and works on it
/// to completion, so a concurrent [`ModelHandle::swap`] can never tear a
/// batch (half old factors, half new) — the swap publishes a *new* snapshot
/// and in-flight batches keep the old one alive until they drop it.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// The published model (f64 or compact; see [`ServingModel`]).
    pub model: ServingModel,
    /// The version this model was published under (see [`ModelHandle`]).
    pub version: u64,
}

/// Epoch-style swappable handle to the serving model.
///
/// Design: readers never block on scoring-length critical sections and a
/// swap never waits for in-flight work.
///
/// * [`ModelHandle::snapshot`] pins the current epoch by cloning the inner
///   `Arc` — the `RwLock` read guard lives only for the duration of that
///   pointer clone (a few nanoseconds), never across any scoring work.
/// * [`ModelHandle::version`] is one `Relaxed` atomic load, so the cache
///   read path validates entries without touching the lock at all.
/// * [`ModelHandle::swap`] installs a new `Arc` under the write lock and
///   *then* bumps the version counter. Ordering matters: a cache entry is
///   only ever stored under the version of the snapshot that produced it,
///   and entries are valid only while their version equals the current one
///   — bumping after the install means no window exists where the new
///   version could validate an entry computed from the old model.
///
/// Versions start at 1 and increase by 1 per swap, never repeating, so a
/// version-keyed cache entry can never be revived by a later swap. The
/// install-then-bump order and version stamping are identical whether the
/// installed model is f64 or compact — swapping *between* precisions is an
/// ordinary swap.
#[derive(Debug)]
pub struct ModelHandle {
    current: RwLock<Arc<ModelSnapshot>>,
    version: AtomicU64,
}

impl ModelHandle {
    /// Wrap an initial model as version 1.
    pub fn new(model: impl Into<ServingModel>) -> Self {
        ModelHandle {
            current: RwLock::new(Arc::new(ModelSnapshot {
                model: model.into(),
                version: 1,
            })),
            version: AtomicU64::new(1),
        }
    }

    /// Pin the current snapshot (cheap: one `Arc` clone under a
    /// momentary read guard).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The currently published version — one atomic load, no lock.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Publish `model` as the new current snapshot, returning its version.
    ///
    /// Every version-keyed cache entry produced from earlier snapshots is
    /// wholesale-invalidated by the version bump; in-flight batches pinned
    /// to an older snapshot run to completion on it.
    pub fn swap(&self, model: impl Into<ServingModel>) -> u64 {
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        let version = slot.version + 1;
        *slot = Arc::new(ModelSnapshot {
            model: model.into(),
            version,
        });
        // Publish the version only after the snapshot is installed (see
        // the type docs for why this order keeps the cache consistent).
        self.version.store(version, Ordering::Release);
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcss_linalg::Matrix;

    fn model(fill: f64) -> TcssModel {
        TcssModel::new(
            Matrix::filled(2, 2, fill),
            Matrix::filled(3, 2, fill),
            Matrix::filled(2, 2, fill),
        )
    }

    #[test]
    fn swap_bumps_version_and_publishes() {
        let h = ModelHandle::new(model(1.0));
        assert_eq!(h.version(), 1);
        assert_eq!(h.snapshot().version, 1);
        let pinned = h.snapshot();
        assert_eq!(h.swap(model(2.0)), 2);
        assert_eq!(h.version(), 2);
        let m2 = h.snapshot();
        assert_eq!(m2.model.as_f64().expect("f64 installed").u1.get(0, 0), 2.0);
        // The pre-swap pin still sees the old model, untouched.
        assert_eq!(pinned.version, 1);
        assert_eq!(
            pinned.model.as_f64().expect("f64 installed").u1.get(0, 0),
            1.0
        );
    }

    #[test]
    fn compact_model_swaps_like_any_other() {
        use crate::snapshot::{write_snapshot, QuantMode, SnapshotModel};
        let dir = std::env::temp_dir().join(format!("tcss-handle-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.tcsssnap");
        write_snapshot(&model(1.5), QuantMode::F32, &path).unwrap();
        let snap = SnapshotModel::open(&path).unwrap();

        let h = ModelHandle::new(model(1.0));
        assert_eq!(h.swap(snap), 2);
        let pinned = h.snapshot();
        assert!(pinned.model.as_compact().is_some());
        assert_eq!(pinned.model.dims(), model(1.0).dims());
        std::fs::remove_dir_all(&dir).ok();
    }
}
