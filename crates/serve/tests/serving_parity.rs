//! Serving-layer parity and invalidation suite.
//!
//! Pins the three contracts the serving engine is built on:
//!
//! 1. **Batched ≡ per-request, bitwise.** Every row of a batched
//!    `score_batch` equals `TcssModel::scores_for` for that request by
//!    `f64::to_bits`, property-tested over random dims/rank/batch shapes
//!    at 1, 2 and 4 threads, on a cold and a warm cache.
//! 2. **The cache is invisible.** Warm-cache answers equal cold-cache
//!    answers exactly, for both score vectors and top-`n` results.
//! 3. **Swap invalidates wholesale.** A model swap bumps the version,
//!    post-swap answers equal a fresh engine on the new model bitwise,
//!    and no pre-swap cache entry survives a purge.

#[path = "../../core/tests/support/full_sort.rs"]
mod full_sort;

use proptest::prelude::*;
use tcss_core::{random_init, topn, TcssModel};
use tcss_linalg::set_num_threads;
use tcss_serve::{ScoreRequest, ServingEngine};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn model_from(dims: (usize, usize, usize), rank: usize, seed: u64) -> TcssModel {
    let (u1, u2, u3) = random_init(dims, rank, seed);
    TcssModel::new(u1, u2, u3)
}

fn row_bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Random dims, rank, batch of in-range requests, and a model seed. POI
/// counts straddle the 64-wide matmul_nt block boundary; batch sizes
/// cover empty, single, duplicate-heavy and multi-chunk shapes.
#[allow(clippy::type_complexity)]
fn case_strategy() -> impl Strategy<Value = ((usize, usize, usize), usize, Vec<(usize, usize)>, u64)>
{
    (1usize..8, 1usize..80, 1usize..6).prop_flat_map(|(i, j, k)| {
        (
            1usize..=6,
            proptest::collection::vec((0..i, 0..k), 0..24),
            0u64..1000,
        )
            .prop_map(move |(r, reqs, seed)| ((i, j, k), r, reqs, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched scoring is bitwise identical to `scores_for` per request,
    /// at every thread count, cold and warm.
    #[test]
    fn batched_scores_match_scores_for_bitwise(
        (dims, rank, reqs, seed) in case_strategy()
    ) {
        let model = model_from(dims, rank, seed);
        let requests: Vec<ScoreRequest> = reqs
            .iter()
            .map(|&(user, time)| ScoreRequest { user, time })
            .collect();
        let want: Vec<Vec<u64>> = requests
            .iter()
            .map(|q| row_bits(&model.scores_for(q.user, q.time)))
            .collect();
        let engine = ServingEngine::new(model);
        for threads in THREAD_COUNTS {
            set_num_threads(Some(threads));
            for round in 0..2 {
                // Round 0 is (partially) cold, round 1 fully cache-warm.
                let batch = engine.score_batch(&requests).unwrap();
                prop_assert_eq!(batch.scores.rows(), requests.len());
                for (b, want_row) in want.iter().enumerate() {
                    prop_assert_eq!(
                        &row_bits(batch.scores.row(b)),
                        want_row,
                        "request {} at {} threads (round {})",
                        b,
                        threads,
                        round
                    );
                }
            }
        }
        set_num_threads(None);
    }

    /// recommend_batch equals per-request `TcssModel::recommend` (and its
    /// full-sort reference) exactly, cold and warm, at every thread count.
    #[test]
    fn batched_recommendations_match_model_recommend(
        (dims, rank, reqs, seed) in case_strategy()
    ) {
        let model = model_from(dims, rank, seed);
        let n = 1 + (seed as usize % (dims.1 + 2)); // spans n > J too
        let requests: Vec<ScoreRequest> = reqs
            .iter()
            .map(|&(user, time)| ScoreRequest { user, time })
            .collect();
        let want: Vec<Vec<(usize, f64)>> = requests
            .iter()
            .map(|q| model.recommend(q.user, q.time, n))
            .collect();
        for q in &requests {
            prop_assert_eq!(
                model.recommend(q.user, q.time, n),
                full_sort::recommend_full_sort(&model, q.user, q.time, n)
            );
        }
        let engine = ServingEngine::new(model);
        for threads in THREAD_COUNTS {
            set_num_threads(Some(threads));
            for round in 0..2 {
                let got = engine.recommend_batch(&requests, n).unwrap();
                for (b, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        g.as_slice(),
                        w.as_slice(),
                        "request {} at {} threads (round {})",
                        b,
                        threads,
                        round
                    );
                }
            }
        }
        set_num_threads(None);
    }
}

/// A swap bumps the version, post-swap answers match a fresh engine on the
/// new model bitwise, and no pre-swap entry survives.
#[test]
fn model_swap_invalidates_every_cache_entry() {
    let dims = (5, 70, 4);
    let old = model_from(dims, 4, 7);
    let new = model_from(dims, 4, 8);
    let requests: Vec<ScoreRequest> = (0..dims.0)
        .flat_map(|user| (0..dims.2).map(move |time| ScoreRequest { user, time }))
        .collect();

    let engine = ServingEngine::new(old);
    assert_eq!(engine.version(), 1);
    // Warm the cache under version 1.
    engine.recommend_batch(&requests, 10).unwrap();
    engine.recommend_batch(&requests, 10).unwrap();
    let warm = engine.cache_stats();
    assert_eq!(warm.topn_entries, requests.len());
    assert_eq!(warm.topn_stale, 0);
    assert_eq!(engine.metrics().topn_hits, requests.len() as u64);

    // Swap: version bumps, every warm entry is now stale (unreachable).
    assert_eq!(engine.swap_model(new.clone()), 2);
    assert_eq!(engine.version(), 2);
    assert_eq!(engine.metrics().model_swaps, 1);
    let stats = engine.cache_stats();
    assert_eq!(stats.topn_stale, requests.len());

    // Eager purge reclaims exactly the stale population.
    assert_eq!(engine.purge_stale(), requests.len());
    assert_eq!(engine.metrics().reaped_stale, requests.len() as u64);
    assert_eq!(engine.cache_stats().topn_entries, 0);

    // Post-swap answers are the new model's, bitwise — identical to a
    // fresh engine that never held a stale entry.
    let hits_before = engine.metrics().topn_hits;
    let fresh = ServingEngine::new(new);
    let got = engine.recommend_batch(&requests, 10).unwrap();
    let want = fresh.recommend_batch(&requests, 10).unwrap();
    assert_eq!(got, want);
    assert_eq!(
        engine.metrics().topn_hits,
        hits_before,
        "post-swap lookups must all miss"
    );

    // The repopulated cache serves the same new-model answers.
    let warm_again = engine.recommend_batch(&requests, 10).unwrap();
    assert_eq!(warm_again, got);

    // Lazy path: a second swap without purging. Stale entries are
    // unreachable (all lookups miss) and re-serving the same keys evicts
    // them in place — no stale entry survives under a re-used key.
    engine.swap_model(model_from(dims, 4, 9));
    assert_eq!(engine.cache_stats().topn_stale, requests.len());
    let hits_before = engine.metrics().topn_hits;
    engine.recommend_batch(&requests, 10).unwrap();
    assert_eq!(
        engine.metrics().topn_hits,
        hits_before,
        "lookups after the second swap must all miss"
    );
    let relived = engine.cache_stats();
    assert_eq!(relived.topn_stale, 0);
    assert_eq!(relived.topn_entries, requests.len());
}

/// An in-flight snapshot keeps scoring the old model after a swap — the
/// epoch pin, not the handle, decides what a batch sees.
#[test]
fn pinned_snapshot_survives_swap() {
    let dims = (3, 20, 3);
    let old = model_from(dims, 3, 1);
    let engine = ServingEngine::new(old.clone());
    let pinned = engine.snapshot();
    engine.swap_model(model_from(dims, 3, 2));
    assert_eq!(pinned.version, 1);
    let want = row_bits(&old.scores_for(2, 1));
    assert_eq!(row_bits(&pinned.model.scores_for(2, 1)), want);
}

/// Concurrent scoring against concurrent swaps: every answer must equal
/// one of the published models' answers — never a torn mix — and the
/// engine must stay consistent under contention.
#[test]
fn concurrent_swaps_never_tear_batches() {
    let dims = (4, 48, 3);
    let models: Vec<TcssModel> = (0..4).map(|s| model_from(dims, 3, 100 + s)).collect();
    let request = ScoreRequest { user: 1, time: 2 };
    let answers: Vec<Vec<u64>> = models
        .iter()
        .map(|m| row_bits(&m.scores_for(request.user, request.time)))
        .collect();
    let engine = ServingEngine::new(models[0].clone());
    std::thread::scope(|s| {
        let swapper = s.spawn(|| {
            for m in &models[1..] {
                engine.swap_model(m.clone());
                std::thread::yield_now();
            }
        });
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..200 {
                    let batch = engine.score_batch(&[request]).unwrap();
                    let got = row_bits(batch.scores.row(0));
                    assert!(
                        answers.contains(&got),
                        "scored row matches no published model"
                    );
                }
            });
        }
        swapper.join().unwrap();
    });
    assert_eq!(engine.version(), models.len() as u64);
    // After the dust settles, the engine serves exactly the last model.
    let batch = engine.score_batch(&[request]).unwrap();
    assert_eq!(&row_bits(batch.scores.row(0)), answers.last().unwrap());
}

/// The topn cache is keyed by `n` as well: different `n` for the same
/// `(user, time)` must not collide.
#[test]
fn topn_cache_keyed_by_n() {
    let model = model_from((3, 15, 3), 3, 42);
    let engine = ServingEngine::new(model.clone());
    let r5 = engine.recommend(1, 1, 5).unwrap();
    let r10 = engine.recommend(1, 1, 10).unwrap();
    assert_eq!(r5.len(), 5);
    assert_eq!(r10.len(), 10);
    assert_eq!(r5.as_slice(), &r10[..5]);
    assert_eq!(topn::top_n(&model.scores_for(1, 1), 5), *r5);
}
