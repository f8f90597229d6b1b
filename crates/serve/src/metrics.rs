//! Serving metrics: monotone atomic counters plus per-stage log-bucketed
//! latency histograms, read as plain snapshots.
//!
//! Counters use `Relaxed` ordering throughout — they are statistics, not
//! synchronization; each counter is independently monotone and a snapshot
//! taken while traffic is in flight is a consistent-enough view for
//! dashboards and the bench harness. Per-stage latencies are recorded
//! into [`LatencyHistogram`]s (one sample per batch per stage), so
//! snapshots expose real p50/p99/p999 tails, not just means; a stage's
//! total time is its histogram's `sum`.
//!
//! `MetricsInner::take` resets counters and histograms with per-cell
//! atomic swaps: under concurrent recorders every increment lands in
//! exactly one snapshot (counts are conserved — the race test in
//! `tests/histogram_metrics.rs` pins this down).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{HistogramSnapshot, LatencyHistogram};

/// Internal counter block owned by the engine.
#[derive(Debug, Default)]
pub(crate) struct MetricsInner {
    pub requests: AtomicU64,
    pub batches: AtomicU64,
    pub weight_hits: AtomicU64,
    pub weight_misses: AtomicU64,
    pub topn_hits: AtomicU64,
    pub topn_misses: AtomicU64,
    pub model_swaps: AtomicU64,
    pub reaped_stale: AtomicU64,
    pub weight_build: LatencyHistogram,
    pub score_matmul: LatencyHistogram,
    pub select: LatencyHistogram,
}

impl MetricsInner {
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ServingMetrics {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServingMetrics {
            requests: get(&self.requests),
            batches: get(&self.batches),
            weight_hits: get(&self.weight_hits),
            weight_misses: get(&self.weight_misses),
            topn_hits: get(&self.topn_hits),
            topn_misses: get(&self.topn_misses),
            model_swaps: get(&self.model_swaps),
            reaped_stale: get(&self.reaped_stale),
        }
    }

    /// Snapshot-and-reset: every counter is `swap(0)`-ed and every
    /// histogram drained bucket-by-bucket, so concurrent recorders lose
    /// nothing — each increment appears in exactly one taken snapshot.
    pub fn take(&self) -> (ServingMetrics, StageHistograms) {
        let take = |c: &AtomicU64| c.swap(0, Ordering::Relaxed);
        let stages = StageHistograms {
            weight_build: self.weight_build.snapshot_and_reset(),
            score_matmul: self.score_matmul.snapshot_and_reset(),
            select: self.select.snapshot_and_reset(),
        };
        let metrics = ServingMetrics {
            requests: take(&self.requests),
            batches: take(&self.batches),
            weight_hits: take(&self.weight_hits),
            weight_misses: take(&self.weight_misses),
            topn_hits: take(&self.topn_hits),
            topn_misses: take(&self.topn_misses),
            model_swaps: take(&self.model_swaps),
            reaped_stale: take(&self.reaped_stale),
        };
        (metrics, stages)
    }
}

/// Point-in-time view of the engine's counters (plain data, freely
/// copyable and serializable by hand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingMetrics {
    /// Requests scored or answered from cache, across all batches.
    pub requests: u64,
    /// Batch calls served (single-request convenience calls count 1).
    pub batches: u64,
    /// Always 0: weight vectors are not cached. Kept only because
    /// `bench_e2e` reads it; ROADMAP's "Finish one benchmark" item
    /// deletes it.
    pub weight_hits: u64,
    /// Weight vectors built, one per scored request. Kept only because
    /// `bench_e2e` reads it; ROADMAP's "Finish one benchmark" item
    /// deletes it.
    pub weight_misses: u64,
    /// Top-`n` result cache hits.
    pub topn_hits: u64,
    /// Top-`n` result cache misses (scored, selected and cached).
    pub topn_misses: u64,
    /// Models published via swap (the initial model counts 0).
    pub model_swaps: u64,
    /// Stale cache entries reclaimed by [`purge_stale`] calls (manual or
    /// the server's periodic maintenance tick).
    ///
    /// [`purge_stale`]: crate::ServingEngine::purge_stale
    pub reaped_stale: u64,
}

/// Per-stage latency histograms (one sample per batch per stage); see
/// [`HistogramSnapshot`] for p50/p99/p999 reads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageHistograms {
    /// Weight-vector build stage.
    pub weight_build: HistogramSnapshot,
    /// Batched `W · U²ᵀ` score matmul stage.
    pub score_matmul: HistogramSnapshot,
    /// Top-`n` selection stage.
    pub select: HistogramSnapshot,
}

impl ServingMetrics {
    /// Top-`n` cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn topn_hit_rate(&self) -> f64 {
        let total = self.topn_hits + self.topn_misses;
        if total == 0 {
            0.0
        } else {
            self.topn_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates_handle_empty_and_mixed() {
        let mut m = ServingMetrics::default();
        assert_eq!(m.topn_hit_rate(), 0.0);
        m.topn_hits = 1;
        m.topn_misses = 3;
        assert!((m.topn_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn take_drains_counters_and_histograms() {
        let inner = MetricsInner::default();
        MetricsInner::add(&inner.requests, 5);
        inner.weight_build.record(120);
        inner.weight_build.record(40);
        let (m, stages) = inner.take();
        assert_eq!(m.requests, 5);
        assert_eq!(stages.weight_build.sum, 160);
        assert_eq!(stages.weight_build.count, 2);
        let (m2, stages2) = inner.take();
        assert_eq!(m2.requests, 0);
        assert_eq!(stages2.weight_build.count, 0);
    }
}
