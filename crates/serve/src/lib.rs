//! # tcss-serve
//!
//! High-throughput recommendation serving for the TCSS model.
//!
//! The training stack produces a [`tcss_core::TcssModel`]; this crate turns
//! one into a service-shaped engine built for heavy read traffic:
//!
//! * **Batched scoring** ([`ServingEngine::score_batch`]) — a batch of
//!   `(user, time)` requests becomes one `B × r` weight matrix `W` and a
//!   single `W · U²ᵀ` pass through the tiled, parallel
//!   [`tcss_linalg::Matrix::matmul_nt`]. The POI factor `U²` — by far the
//!   largest operand — is read once per cache-resident block and reused by
//!   every request row, instead of once per request as in per-request
//!   `scores_for` scans. Each batch row is **bit-for-bit** equal to
//!   `scores_for` on the same snapshot, at any thread count.
//! * **A version-keyed top-`n` cache** ([`VersionedCache`]) — per-`(user,
//!   time, min(n, J))` rankings in a sharded `RwLock` map with `Arc`
//!   hand-out on the read path (no per-entry locks). Weight vectors are
//!   not cached: one is `r` multiplies, cheaper than a lookup. A model
//!   swap invalidates the cache wholesale by bumping the version — stale
//!   entries are unreachable immediately and reclaimed lazily or via
//!   [`ServingEngine::purge_stale`].
//! * **Epoch-style model swap** ([`ModelHandle`]) — readers pin an
//!   `Arc` snapshot (the lock is held only for the pointer clone);
//!   [`ServingEngine::swap_model`] publishes a new snapshot and bumps the
//!   monotone version. In-flight batches finish on the model they pinned;
//!   no request ever observes a half-swapped model.
//! * **Top-`n` selection** — `O(J)` partial selection with the
//!   deterministic ranking order of [`tcss_core::topn`] (descending
//!   score, ascending POI on ties), replacing the full sort.
//! * **Metrics** ([`ServingMetrics`]) — cache hit/miss counters and
//!   request counts as a plain snapshot struct, with per-stage latencies
//!   recorded into log-bucketed histograms ([`LatencyHistogram`]) for
//!   real p50/p99/p999 reads and race-free snapshot-and-reset scrapes.
//! * **Wire protocol** ([`net`], Unix only) — a from-scratch `poll(2)`
//!   readiness-loop server (no tokio) speaking a length-prefixed binary
//!   protocol over [`ServingEngine`], with deterministic `Overloaded`
//!   load shedding and graceful model swap under load; wire responses
//!   are bitwise-identical to in-process `recommend` calls.
//! * **Resilience** ([`net`] again; DESIGN.md §5g) — typed per-request
//!   deadlines, an idle-connection reaper, `catch_unwind` panic
//!   isolation with worker respawn, graceful drain
//!   ([`net::ServerHandle::drain`]), client-side capped-backoff retry
//!   ([`net::NetClient::recommend_with_retry`]); the
//!   `net_faultinject` suite's transport fault injection asserts every
//!   fault yields a typed error or a bitwise-correct answer — never a
//!   hang, never a wrong score.
//!
//! ```no_run
//! use tcss_serve::{ScoreRequest, ServingEngine};
//! # fn model() -> tcss_core::TcssModel { unimplemented!() }
//!
//! let engine = ServingEngine::new(model());
//! let requests = vec![
//!     ScoreRequest { user: 7, time: 5 },
//!     ScoreRequest { user: 12, time: 5 },
//! ];
//! for top in engine.recommend_batch(&requests, 10).unwrap() {
//!     for &(poi, score) in top.iter() {
//!         println!("POI {poi}: {score:.3}");
//!     }
//! }
//! let retrained = model();
//! engine.swap_model(retrained); // the cache invalidates wholesale
//! ```
//!
//! See `DESIGN.md` §5e for the serving performance model; the serving
//! timings come from `bash bench_e2e/run.sh` (`engine.*` figures).

pub mod cache;
pub mod engine;
pub mod handle;
pub mod hist;
pub mod metrics;
#[cfg(unix)]
pub mod net;
pub mod snapshot;

pub use cache::{VersionedCache, DEFAULT_SHARDS};
pub use engine::{CacheStats, Ranking, ScoredBatch, ServingEngine};
pub use handle::{ModelHandle, ModelSnapshot, ServingModel};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use metrics::{ServingMetrics, StageHistograms};
pub use snapshot::{QuantMode, SnapError, SnapshotModel};

/// One scoring request: rank every POI for `user` at time unit `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScoreRequest {
    /// User index (`0..I`).
    pub user: usize,
    /// Time-unit index (`0..K`).
    pub time: usize,
}

/// Typed serving-path errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Request named a user index outside the model's user dimension.
    UserOutOfRange {
        /// Requested user index.
        user: usize,
        /// Number of users in the serving model.
        n_users: usize,
    },
    /// Request named a time unit outside the model's time dimension.
    TimeOutOfRange {
        /// Requested time-unit index.
        time: usize,
        /// Number of time units in the serving model.
        n_times: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UserOutOfRange { user, n_users } => {
                write!(f, "user {user} out of range (model has {n_users} users)")
            }
            ServeError::TimeOutOfRange { time, n_times } => {
                write!(
                    f,
                    "time unit {time} out of range (model has {n_times} time units)"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}
