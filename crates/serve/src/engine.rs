//! The recommendation-serving engine: batched scoring over a swappable
//! model with a version-keyed top-`n` cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tcss_core::topn;
use tcss_linalg::{lowp, Matrix};

use crate::cache::{VersionedCache, DEFAULT_SHARDS};
use crate::handle::{ModelHandle, ModelSnapshot, ServingModel};
use crate::metrics::{MetricsInner, ServingMetrics, StageHistograms};
use crate::snapshot::{QuantMode, SnapshotModel};
use crate::{ScoreRequest, ServeError};

/// Scores for one batch: row `b` holds the full `J`-long score vector of
/// request `b`, produced under `version` of the serving model.
#[derive(Debug, Clone)]
pub struct ScoredBatch {
    /// Model version the batch was scored against.
    pub version: u64,
    /// `B × J` score matrix (one row per request, one column per POI).
    pub scores: Matrix,
}

/// One served top-`n` answer: `(poi, score)` pairs in ranking order
/// (descending score, ascending POI on ties), shared with the top-`n`
/// cache — a hit clones the `Arc`, never the list.
pub type Ranking = Arc<Vec<(usize, f64)>>;

/// Cache occupancy view (diagnostics/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries in the top-`n` cache (live + stale).
    pub topn_entries: usize,
    /// Top-`n` entries tagged with a superseded version (unreachable).
    pub topn_stale: usize,
}

/// High-throughput serving engine around a [`ModelHandle`].
///
/// The engine owns three pieces:
///
/// 1. **The model handle** — epoch-style snapshot swap with a monotone
///    version ([`ModelHandle`]). Every batch pins exactly one snapshot.
/// 2. **A version-keyed top-`n` cache** — per-`(user, time, n)` rankings,
///    with `n` clamped to `J` so every `n ≥ J` shares one entry. A model
///    swap invalidates it wholesale via the version bump.
/// 3. **Batched scoring** — each scored request's weight vector
///    (`h ⊙ U¹ᵢ ⊙ U³ₖ`, `r` multiplies) is built into one row of a
///    `B × r` matrix `W`, and all `B · J` scores come from one
///    `W · U²ᵀ` pass through [`Matrix::matmul_nt`], whose per-element
///    contract (`kernels::dot(w_row, u2_row)`) makes every batch row
///    **bit-for-bit** equal to [`tcss_core::TcssModel::scores_for`] on
///    the same snapshot, at any thread count.
///
/// All methods take `&self`; the engine is `Sync` and meant to be shared
/// (`Arc<ServingEngine>`) across request-handling threads.
#[derive(Debug)]
pub struct ServingEngine {
    handle: ModelHandle,
    topn: VersionedCache<(usize, usize, usize), Vec<(usize, f64)>>,
    metrics: MetricsInner,
    /// Monotone count of requests entered into `recommend_batch_pinned`
    /// over the engine's lifetime (never reset; the fault trigger below
    /// is keyed against it).
    request_seq: AtomicU64,
    /// Test-only injected-panic trigger (`u64::MAX` = disarmed): the
    /// absolute request-sequence index at which the next
    /// `recommend_batch_pinned` batch panics, consumed once — the
    /// serving-side mirror of `tcss_core::fault`'s epoch-keyed triggers.
    fault_panic_at: AtomicU64,
}

impl ServingEngine {
    /// Engine over `model` (f64 training model or compact snapshot).
    pub fn new(model: impl Into<ServingModel>) -> Self {
        ServingEngine {
            handle: ModelHandle::new(model),
            topn: VersionedCache::with_shards(DEFAULT_SHARDS),
            metrics: MetricsInner::default(),
            request_seq: AtomicU64::new(0),
            fault_panic_at: AtomicU64::new(u64::MAX),
        }
    }

    /// Arm a one-shot injected panic: the `recommend_batch_pinned` batch
    /// containing the `index`-th request ever entered (0-based, counted
    /// over the engine's lifetime) panics before scoring. Production code
    /// never calls this; it exists so the wire server's panic-isolation
    /// contract (typed `Internal` answers, surviving worker) can be
    /// driven through a real unwinding panic in tests. The trigger is
    /// consumed exactly once — after it fires, the replayed request runs
    /// clean, like a transient fault.
    pub fn inject_panic_at_request(&self, index: u64) {
        assert_ne!(index, u64::MAX, "u64::MAX is the disarmed sentinel");
        self.fault_panic_at.store(index, Ordering::SeqCst);
    }

    /// Requests entered into [`ServingEngine::recommend_batch_pinned`]
    /// so far (the sequence [`ServingEngine::inject_panic_at_request`]
    /// indexes into).
    pub fn requests_entered(&self) -> u64 {
        self.request_seq.load(Ordering::SeqCst)
    }

    /// Currently published model version.
    pub fn version(&self) -> u64 {
        self.handle.version()
    }

    /// Pin the current model snapshot (see [`ModelHandle::snapshot`]).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.handle.snapshot()
    }

    /// Publish a new model, returning its version. In-flight batches
    /// finish on the snapshot they pinned; every cache entry from earlier
    /// versions becomes unreachable immediately (and can be reclaimed with
    /// [`ServingEngine::purge_stale`]).
    pub fn swap_model(&self, model: impl Into<ServingModel>) -> u64 {
        let version = self.handle.swap(model);
        MetricsInner::add(&self.metrics.model_swaps, 1);
        version
    }

    /// Eagerly reclaim top-`n` entries from superseded versions, returning
    /// how many were removed. Reclaimed counts accumulate into
    /// [`ServingMetrics::reaped_stale`] — the server's periodic maintenance
    /// tick calls this, so operators see reaping in the exit summary
    /// without a manual call.
    pub fn purge_stale(&self) -> usize {
        let reaped = self.topn.purge_stale(self.handle.version());
        MetricsInner::add(&self.metrics.reaped_stale, reaped as u64);
        reaped
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> ServingMetrics {
        self.metrics.snapshot()
    }

    /// Snapshot **and reset** counters and stage histograms. Per-cell
    /// atomic swaps make this race-free under concurrent recorders: every
    /// increment and latency sample lands in exactly one taken snapshot
    /// (none lost, none doubled) — the scrape pattern for dashboards.
    pub fn take_metrics(&self) -> (ServingMetrics, StageHistograms) {
        self.metrics.take()
    }

    /// Cache occupancy (diagnostics/tests).
    pub fn cache_stats(&self) -> CacheStats {
        let version = self.handle.version();
        CacheStats {
            topn_entries: self.topn.len(),
            topn_stale: self.topn.stale_len(version),
        }
    }

    fn check_bounds(snap: &ModelSnapshot, req: &ScoreRequest) -> Result<(), ServeError> {
        let (n_users, _, n_times) = snap.model.dims();
        if req.user >= n_users {
            return Err(ServeError::UserOutOfRange {
                user: req.user,
                n_users,
            });
        }
        if req.time >= n_times {
            return Err(ServeError::TimeOutOfRange {
                time: req.time,
                n_times,
            });
        }
        Ok(())
    }

    /// Build the batch's weight vectors into `W` (`B × r`) and score
    /// everything with one `W · U²ᵀ` — the f64 tiled matmul for a
    /// full-precision model, the low-precision [`lowp`] path (f32 weights
    /// against f32 or per-row-scaled i16 factors, widened to f64
    /// afterwards) for a compact snapshot.
    fn score_on(
        &self,
        snap: &ModelSnapshot,
        requests: &[ScoreRequest],
    ) -> Result<Matrix, ServeError> {
        match &snap.model {
            ServingModel::F64(model) => self.score_on_f64(snap, model, requests),
            ServingModel::Compact(compact) => self.score_on_compact(snap, compact, requests),
        }
    }

    fn score_on_f64(
        &self,
        snap: &ModelSnapshot,
        model: &tcss_core::TcssModel,
        requests: &[ScoreRequest],
    ) -> Result<Matrix, ServeError> {
        let r = model.rank();
        let t0 = Instant::now();
        let mut w = Matrix::zeros(requests.len(), r);
        let mut scratch = Vec::with_capacity(r);
        for (b, req) in requests.iter().enumerate() {
            Self::check_bounds(snap, req)?;
            model.weight_vector_into(req.user, req.time, &mut scratch);
            w.row_mut(b).copy_from_slice(&scratch);
        }
        MetricsInner::add(&self.metrics.weight_misses, requests.len() as u64);
        self.metrics.weight_build.record(elapsed_ns(t0));

        let t1 = Instant::now();
        let scores = w
            .matmul_nt(&model.u2)
            .expect("weight rows share the model's rank");
        self.metrics.score_matmul.record(elapsed_ns(t1));
        Ok(scores)
    }

    fn score_on_compact(
        &self,
        snap: &ModelSnapshot,
        compact: &SnapshotModel,
        requests: &[ScoreRequest],
    ) -> Result<Matrix, ServeError> {
        let r = compact.rank();
        let j = compact.dims().1;
        let t0 = Instant::now();
        let mut w = vec![0.0f32; requests.len() * r];
        let mut scratch = (Vec::new(), Vec::new());
        let mut wbuf: Vec<f32> = Vec::with_capacity(r);
        for (b, req) in requests.iter().enumerate() {
            Self::check_bounds(snap, req)?;
            compact.weight_vector_into(req.user, req.time, &mut scratch, &mut wbuf);
            w[b * r..(b + 1) * r].copy_from_slice(&wbuf);
        }
        MetricsInner::add(&self.metrics.weight_misses, requests.len() as u64);
        self.metrics.weight_build.record(elapsed_ns(t0));

        let t1 = Instant::now();
        let mut low = vec![0.0f32; requests.len() * j];
        match compact.mode() {
            QuantMode::F32 => {
                lowp::matmul_nt_f32(&w, requests.len(), compact.u2_f32(), j, r, &mut low);
            }
            QuantMode::I16 => {
                let (q2, s2) = compact.u2_i16();
                lowp::matmul_nt_i16(&w, requests.len(), q2, s2, j, r, &mut low);
            }
        }
        // Widen once for selection: `Ranking` stays `(usize, f64)` so the
        // top-n cache, the wire protocol and the tie-break order are
        // precision-agnostic downstream of this point.
        let mut scores = Matrix::zeros(requests.len(), j);
        for (dst, &src) in scores.as_mut_slice().iter_mut().zip(&low) {
            *dst = f64::from(src);
        }
        self.metrics.score_matmul.record(elapsed_ns(t1));
        Ok(scores)
    }

    /// Score a whole batch: one snapshot pin, one packed `W · U²ᵀ` matmul.
    ///
    /// Row `b` of the result is bit-for-bit
    /// `snapshot.model.scores_for(requests[b].user, requests[b].time)`.
    pub fn score_batch(&self, requests: &[ScoreRequest]) -> Result<ScoredBatch, ServeError> {
        let snap = self.handle.snapshot();
        MetricsInner::add(&self.metrics.requests, requests.len() as u64);
        MetricsInner::add(&self.metrics.batches, 1);
        let scores = self.score_on(&snap, requests)?;
        Ok(ScoredBatch {
            version: snap.version,
            scores,
        })
    }

    /// Top-`n` recommendations for a whole batch, in request order.
    ///
    /// Cached `(user, time, min(n, J))` results are returned without scoring;
    /// the remaining requests are scored as one packed batch and selected
    /// with the deterministic ranking order of [`tcss_core::topn`]
    /// (descending score, ascending POI on ties) — so results are
    /// identical whether they came from the cache, a batch, or
    /// [`tcss_core::TcssModel::recommend`] on the same snapshot.
    pub fn recommend_batch(
        &self,
        requests: &[ScoreRequest],
        n: usize,
    ) -> Result<Vec<Ranking>, ServeError> {
        let (_, results) = self.recommend_batch_pinned(requests, n);
        results.into_iter().collect()
    }

    /// Per-request fallible variant of [`ServingEngine::recommend_batch`]
    /// that also reports the model version the batch was pinned to.
    ///
    /// This is the shape the wire front end needs: one out-of-range
    /// request in a pipelined burst must become a typed error *response*
    /// for that request alone, while the in-range rest are still scored as
    /// one packed batch — and every response must carry the version of the
    /// snapshot that produced it so swap-under-load behaviour is
    /// observable (and testable) end to end.
    pub fn recommend_batch_pinned(
        &self,
        requests: &[ScoreRequest],
        n: usize,
    ) -> (u64, Vec<Result<Ranking, ServeError>>) {
        let snap = self.handle.snapshot();
        MetricsInner::add(&self.metrics.requests, requests.len() as u64);
        MetricsInner::add(&self.metrics.batches, 1);

        // Injected-panic trigger (test harness; disarmed in production).
        // The batch containing the armed request index panics before any
        // scoring, and the CAS consumes the trigger so the retry of the
        // same request runs clean.
        let first = self
            .request_seq
            .fetch_add(requests.len() as u64, Ordering::SeqCst);
        let armed = self.fault_panic_at.load(Ordering::SeqCst);
        if armed != u64::MAX
            && armed >= first
            && armed - first < requests.len() as u64
            && self
                .fault_panic_at
                .compare_exchange(armed, u64::MAX, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            panic!("injected panic at request {armed} (serving fault harness)");
        }

        // `top_n` clamps `n` to `J`, so every `n ≥ J` is one ranking and
        // one cache entry; an unclamped wire `n` would grow the cache.
        let n = n.min(snap.model.dims().1);
        let mut out: Vec<Option<Result<Ranking, ServeError>>> = vec![None; requests.len()];
        let mut missed: Vec<usize> = Vec::new();
        let mut misses: Vec<ScoreRequest> = Vec::new();
        let mut hits = 0u64;
        for (b, req) in requests.iter().enumerate() {
            if let Err(e) = Self::check_bounds(&snap, req) {
                out[b] = Some(Err(e));
                continue;
            }
            let key = (req.user, req.time, n);
            if let Some(cached) = self.topn.get(&key, snap.version) {
                out[b] = Some(Ok(cached));
                hits += 1;
            } else {
                missed.push(b);
                misses.push(*req);
            }
        }
        MetricsInner::add(&self.metrics.topn_hits, hits);
        MetricsInner::add(&self.metrics.topn_misses, missed.len() as u64);

        if !missed.is_empty() {
            let scores = self
                .score_on(&snap, &misses)
                .expect("bounds were checked before batching");
            let t0 = Instant::now();
            for (row, &b) in missed.iter().enumerate() {
                let top = Arc::new(topn::top_n(scores.row(row), n));
                let req = &requests[b];
                self.topn
                    .insert((req.user, req.time, n), snap.version, top.clone());
                out[b] = Some(Ok(top));
            }
            self.metrics.select.record(elapsed_ns(t0));
        }
        let results = out
            .into_iter()
            .map(|v| v.expect("every request answered"))
            .collect();
        (snap.version, results)
    }

    /// Single-request convenience over [`ServingEngine::recommend_batch`].
    pub fn recommend(&self, user: usize, time: usize, n: usize) -> Result<Ranking, ServeError> {
        let mut got = self.recommend_batch(&[ScoreRequest { user, time }], n)?;
        Ok(got.pop().expect("one request, one answer"))
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcss_core::{random_init, TcssModel};

    fn engine(seed: u64) -> ServingEngine {
        let (u1, u2, u3) = random_init((4, 9, 3), 3, seed);
        ServingEngine::new(TcssModel::new(u1, u2, u3))
    }

    #[test]
    fn batch_rows_match_scores_for_bitwise() {
        let e = engine(11);
        let snap = e.snapshot();
        let reqs = [
            ScoreRequest { user: 0, time: 0 },
            ScoreRequest { user: 3, time: 2 },
            ScoreRequest { user: 0, time: 0 }, // duplicate in one batch
        ];
        let batch = e.score_batch(&reqs).unwrap();
        for (b, req) in reqs.iter().enumerate() {
            let want = snap.model.scores_for(req.user, req.time);
            let got = batch.scores.row(b);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "request {b}");
            }
        }
        assert_eq!(e.metrics().requests, 3);
    }

    #[test]
    fn out_of_range_requests_are_typed_errors() {
        let e = engine(5);
        let bad_user = e.score_batch(&[ScoreRequest { user: 99, time: 0 }]);
        assert!(matches!(
            bad_user,
            Err(ServeError::UserOutOfRange { user: 99, .. })
        ));
        let bad_time = e.recommend(0, 99, 5);
        assert!(matches!(
            bad_time,
            Err(ServeError::TimeOutOfRange { time: 99, .. })
        ));
    }

    #[test]
    fn recommend_batch_serves_cache_hits_identically() {
        let e = engine(23);
        let reqs = [
            ScoreRequest { user: 1, time: 1 },
            ScoreRequest { user: 2, time: 0 },
        ];
        let cold = e.recommend_batch(&reqs, 4).unwrap();
        let warm = e.recommend_batch(&reqs, 4).unwrap();
        assert_eq!(cold, warm);
        let m = e.metrics();
        assert_eq!(m.topn_misses, 2);
        assert_eq!(m.topn_hits, 2);
    }

    #[test]
    fn topn_key_clamps_n_to_poi_count() {
        let e = engine(31);
        let j = e.snapshot().model.dims().1;
        let exact = e.recommend(2, 1, j).unwrap();
        let over = e.recommend(2, 1, j + 7).unwrap();
        assert_eq!(exact, over);
        // Every `n ≥ J` shares one entry: the second call is a hit.
        let m = e.metrics();
        assert_eq!((m.topn_misses, m.topn_hits), (1, 1));
        assert_eq!(e.cache_stats().topn_entries, 1);
    }
}
