//! Scoring agreement between compact snapshots and the f64 model.
//!
//! The compact formats are *lossy* (f32 rounding, i16 fixed-point), so
//! "correct" cannot mean bitwise — it means an **explicit error budget**:
//!
//! * every per-POI score differs from the f64 reference by at most an
//!   *a-priori* bound derived from the format (f32 epsilon / i16 scale),
//!   computed here independently of the implementation — a wrong row, a
//!   swapped factor or a bad scale blows past it immediately;
//! * top-n membership may differ only where the f64 scores were already
//!   within twice that budget of each other — a **quantization tie
//!   reordered**, never a **wrong POI surfaced**;
//! * on models whose score gaps exceed the i16 budget, ranks are
//!   *exactly* equal (the documented scale-bound contract);
//! * exact ties keep the deterministic order of [`tcss_core::topn`]
//!   (descending score, ascending POI) under both paths, and
//!   sub-f32-resolution perturbations that collapse to ties under
//!   quantization reorder only *within* their collapsed group;
//! * the engine's batched compact matmul is bit-for-bit the snapshot's
//!   per-request [`SnapshotModel::scores_for`], mirroring the f64
//!   batched-vs-`scores_for` contract.

use std::path::PathBuf;

use proptest::prelude::*;
use tcss_core::{random_init, topn, TcssModel};
use tcss_linalg::Matrix;
use tcss_serve::snapshot::{write_snapshot, SnapshotModel};
use tcss_serve::{QuantMode, ScoreRequest, ServingEngine};

const TOP_N: usize = 10;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcss-snapagree-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn snap_of(m: &TcssModel, mode: QuantMode, tag: &str) -> (SnapshotModel, PathBuf) {
    let dir = tmpdir(tag);
    let path = dir.join(format!("{}.tcsssnap", mode));
    write_snapshot(m, mode, &path).expect("write snapshot");
    (SnapshotModel::open(&path).expect("open snapshot"), dir)
}

fn rand_model(dims: (usize, usize, usize), r: usize, seed: u64) -> TcssModel {
    let (u1, u2, u3) = random_init(dims, r, seed);
    let mut m = TcssModel::new(u1, u2, u3);
    m.h = (0..r).map(|t| 0.6 + 0.09 * t as f64).collect();
    m
}

/// Per-row i16 scale exactly as the writer derives it: `max_abs / 32767`
/// rounded to f32. Restated here so the budget is independent of the
/// implementation under test.
fn i16_scale(row: &[f64]) -> f64 {
    let max_abs = row.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    f64::from((max_abs / 32767.0) as f32)
}

/// A-priori per-POI error budget for `|snap.scores_for - f64 scores_for|`
/// at `(user, time)`, from format parameters alone (with a 4x safety
/// factor on the rounding analysis). Everything is computed from the f64
/// model, never from the snapshot.
fn score_budget(m: &TcssModel, mode: QuantMode, user: usize, time: usize) -> Vec<f64> {
    let r = m.rank();
    let j = m.dims().1;
    let eps = f64::from(f32::EPSILON);
    let mut w = Vec::new();
    m.weight_vector_into(user, time, &mut w);
    match mode {
        QuantMode::F32 => {
            // Each stored factor entry and each arithmetic step rounds at
            // f32 precision; the dot over r terms accumulates ~r more.
            (0..j)
                .map(|p| {
                    let l1: f64 = (0..r).map(|t| (w[t] * m.u2.get(p, t)).abs()).sum();
                    4.0 * (r as f64 + 8.0) * eps * (l1 + f64::MIN_POSITIVE)
                })
                .collect()
        }
        QuantMode::I16 => {
            // Dequantization error is 0.5 * scale per entry (0.51 covers
            // the f32 rounding slop on the scale itself), propagated
            // through w = h .* u1 .* u3 and the scaled dot.
            let s1 = 0.51 * i16_scale(m.u1.row(user));
            let s3 = 0.51 * i16_scale(m.u3.row(time));
            let werr: Vec<f64> = (0..r)
                .map(|t| {
                    let (a, c, h) = (m.u1.get(user, t), m.u3.get(time, t), m.h[t]);
                    h.abs() * (c.abs() * s1 + a.abs() * s3 + s1 * s3) + 4.0 * eps * w[t].abs()
                })
                .collect();
            (0..j)
                .map(|p| {
                    let s2 = 0.51 * i16_scale(m.u2.row(p));
                    let term: f64 = (0..r)
                        .map(|t| {
                            let u = m.u2.get(p, t).abs();
                            werr[t] * (u + s2) + w[t].abs() * s2 + eps * (w[t] * u).abs()
                        })
                        .sum();
                    4.0 * (r as f64 + 8.0) * (term + f64::MIN_POSITIVE)
                })
                .collect()
        }
    }
}

fn mode_of(flag: bool) -> QuantMode {
    if flag {
        QuantMode::I16
    } else {
        QuantMode::F32
    }
}

fn topn_set(scores: &[f64], n: usize) -> Vec<usize> {
    topn::top_n(scores, n).iter().map(|&(p, _)| p).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every per-POI score is inside the a-priori budget, and any top-n
    /// membership difference is a quantization tie (f64 gap within twice
    /// the budget), never a wrong POI.
    #[test]
    fn scores_and_topn_stay_inside_error_budget(
        (mode_sel, seed, users, pois, r) in
            (0usize..2, 0u64..1000, 3usize..12, 16usize..60, 2usize..9)
    ) {
        let mode = mode_of(mode_sel == 1);
        let m = rand_model((users, pois, 4), r, seed);
        let (snap, dir) = snap_of(&m, mode, "budget");
        for (user, time) in [(0, 0), (users / 2, 1), (users - 1, 3)] {
            let exact = m.scores_for(user, time);
            let approx = snap.scores_for(user, time);
            let budget = score_budget(&m, mode, user, time);
            let mut max_budget = 0.0f64;
            for p in 0..pois {
                let err = (exact[p] - approx[p]).abs();
                prop_assert!(
                    err <= budget[p],
                    "({user},{time}) poi {p}: err {err:e} > budget {:e} [{mode}]",
                    budget[p]
                );
                max_budget = max_budget.max(budget[p]);
            }
            let want = topn_set(&exact, TOP_N);
            let got = topn_set(&approx, TOP_N);
            let floor = got
                .iter()
                .map(|&p| exact[p])
                .fold(f64::INFINITY, f64::min);
            for &p in want.iter().filter(|p| !got.contains(p)) {
                let gap = exact[p] - floor;
                prop_assert!(
                    gap <= 2.0 * max_budget,
                    "poi {p} dropped from top-{TOP_N} despite f64 gap {gap:e} > \
                     2x budget {max_budget:e} — wrong POI, not a quantization tie [{mode}]"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The acceptance-criterion agreement rate, pinned on a deterministic
/// fixture large enough to be meaningful: mean top-10 membership overlap
/// across every (user, time) pair.
#[test]
fn top10_agreement_meets_acceptance_thresholds() {
    let (users, times) = (120, 6);
    let m = rand_model((users, 400, times), 8, 20260808);
    for (mode, threshold) in [(QuantMode::F32, 0.999), (QuantMode::I16, 0.97)] {
        let (snap, dir) = snap_of(&m, mode, "accept");
        let mut overlap = 0usize;
        let mut slots = 0usize;
        for user in 0..users {
            for time in 0..times {
                let want = topn_set(&m.scores_for(user, time), TOP_N);
                let got = topn_set(&snap.scores_for(user, time), TOP_N);
                overlap += want.iter().filter(|p| got.contains(p)).count();
                slots += TOP_N;
            }
        }
        let rate = overlap as f64 / slots as f64;
        assert!(
            rate >= threshold,
            "top-10 agreement {rate:.5} < {threshold} for {mode}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// On a model whose score gaps exceed the i16 budget, ranks agree
/// *exactly* over the full POI list — the documented scale-bound
/// contract, not just top-n set agreement.
#[test]
fn i16_ranks_exactly_match_on_separated_model() {
    let (i, j, k, r) = (3, 40, 2, 4);
    let u1 = Matrix::from_fn(i, r, |u, t| 0.3 + 0.1 * (u + t) as f64);
    // Each POI row is constant, so scores are strictly increasing in j
    // with gaps far above the i16 budget (~1e-5 relative).
    let u2 = Matrix::from_fn(j, r, |p, _| 0.01 * (p + 1) as f64);
    let u3 = Matrix::from_fn(k, r, |s, t| 0.5 + 0.05 * (s + t) as f64);
    let mut m = TcssModel::new(u1, u2, u3);
    m.h = vec![1.0; r];
    let (snap, dir) = snap_of(&m, QuantMode::I16, "sep");
    for user in 0..i {
        for time in 0..k {
            let want: Vec<usize> = topn::top_n(&m.scores_for(user, time), j)
                .iter()
                .map(|&(p, _)| p)
                .collect();
            let got: Vec<usize> = topn::top_n(&snap.scores_for(user, time), j)
                .iter()
                .map(|&(p, _)| p)
                .collect();
            assert_eq!(want, got, "i16 rank order diverged at ({user},{time})");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Exact ties (duplicated POI rows) keep the deterministic ranking order
/// — descending score, ascending POI — under both the f64 path and both
/// compact modes, so tie-break behaviour survives quantization.
#[test]
fn exact_ties_break_by_ascending_poi_in_both_paths() {
    let (i, j, k, r) = (2, 12, 2, 3);
    let u1 = Matrix::from_fn(i, r, |u, t| 0.4 + 0.07 * (u * r + t) as f64);
    // Four distinct score levels, each duplicated across three POIs.
    let u2 = Matrix::from_fn(j, r, |p, t| 0.05 * ((p / 3) + 1) as f64 + 0.01 * t as f64);
    let u3 = Matrix::from_fn(k, r, |s, t| 0.6 + 0.04 * (s + t) as f64);
    let mut m = TcssModel::new(u1, u2, u3);
    m.h = vec![0.9, 1.0, 1.1];
    let want = topn::top_n(&m.scores_for(1, 1), j);
    for group in want.chunks(3) {
        assert!(
            group.windows(2).all(|w| w[0].0 < w[1].0),
            "tied group not in ascending POI order: {group:?}"
        );
    }
    for mode in [QuantMode::F32, QuantMode::I16] {
        let (snap, dir) = snap_of(&m, mode, "ties");
        let got = topn::top_n(&snap.scores_for(1, 1), j);
        let want_pois: Vec<usize> = want.iter().map(|&(p, _)| p).collect();
        let got_pois: Vec<usize> = got.iter().map(|&(p, _)| p).collect();
        assert_eq!(want_pois, got_pois, "tie order diverged under {mode}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Score differences far below f32 resolution collapse to exact ties in
/// the snapshot; the resulting reorder must stay *within* the collapsed
/// pair (tie re-broken by POI id) and never cross pairs (which would be
/// a genuinely wrong POI).
#[test]
fn sub_f32_ties_reorder_only_within_collapsed_groups() {
    let (i, j, k, r) = (2, 16, 2, 3);
    let u1 = Matrix::from_fn(i, r, |u, t| 0.5 + 0.03 * (u + t) as f64);
    // POIs come in pairs: 2g and 2g+1 differ by 1e-12 — far below the
    // f32 ulp at this magnitude (~6e-9) — and pairs are separated by
    // 0.02, far above any quantization error.
    let u2 = Matrix::from_fn(j, r, |p, _| {
        0.02 * ((p / 2) + 1) as f64 + if p % 2 == 1 { 1e-12 } else { 0.0 }
    });
    let u3 = Matrix::from_fn(k, r, |s, t| 0.7 + 0.02 * (s + t) as f64);
    let mut m = TcssModel::new(u1, u2, u3);
    m.h = vec![1.0; r];
    let (snap, dir) = snap_of(&m, QuantMode::F32, "subulp");
    for (user, time) in [(0, 0), (1, 1)] {
        let exact = m.scores_for(user, time);
        let approx = snap.scores_for(user, time);
        let want: Vec<usize> = topn::top_n(&exact, j).iter().map(|&(p, _)| p).collect();
        let got: Vec<usize> = topn::top_n(&approx, j).iter().map(|&(p, _)| p).collect();
        // In f64 the +1e-12 member of each pair wins; under f32 collapse
        // the pair ties exactly and re-breaks ascending. Group sequence
        // (pair ids) must be identical — reorders stay inside a pair.
        let want_groups: Vec<usize> = want.iter().map(|p| p / 2).collect();
        let got_groups: Vec<usize> = got.iter().map(|p| p / 2).collect();
        assert_eq!(
            want_groups, got_groups,
            "collapse reordered across pairs at ({user},{time})"
        );
        for pair in got.chunks(2) {
            assert!(
                pair[0] < pair[1],
                "collapsed tie not re-broken by ascending POI: {pair:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine's batched compact path (packed W, `lowp` matmul) is
/// bit-for-bit the snapshot's per-request `scores_for` — the same
/// contract the f64 path pins in `serving_parity.rs`.
#[test]
fn engine_batch_rows_bitwise_match_snapshot_scores_for() {
    let m = rand_model((9, 37, 4), 6, 77);
    for mode in [QuantMode::F32, QuantMode::I16] {
        let dir = tmpdir("batchwise");
        let path = dir.join(format!("{mode}.tcsssnap"));
        write_snapshot(&m, mode, &path).expect("write");
        let reference = SnapshotModel::open(&path).expect("open reference");
        let engine = ServingEngine::new(SnapshotModel::open(&path).expect("open engine copy"));
        let requests: Vec<ScoreRequest> = (0..9)
            .map(|b| ScoreRequest {
                user: b % 9,
                time: (b * 3) % 4,
            })
            .collect();
        let batch = engine.score_batch(&requests).expect("score batch");
        for (b, req) in requests.iter().enumerate() {
            let want = reference.scores_for(req.user, req.time);
            let got = batch.scores.row(b);
            assert_eq!(want.len(), got.len());
            for (p, (w, g)) in want.iter().zip(got).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "batch row {b} poi {p} diverged from scores_for [{mode}]"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Swapping between the f64 model and a compact snapshot behaves like any
/// other swap: the version bumps, stale cache entries become reapable,
/// and results on the new snapshot stay inside the error budget.
#[test]
fn swap_f64_to_compact_invalidates_caches_and_keeps_serving() {
    let m = rand_model((8, 50, 3), 5, 404);
    let engine = ServingEngine::new(m.clone());
    let before = engine.recommend(2, 1, TOP_N).expect("f64 recommend");
    let v0 = engine.version();

    let dir = tmpdir("swap");
    let path = dir.join("m.tcsssnap");
    write_snapshot(&m, QuantMode::F32, &path).expect("write");
    let v1 = engine.swap_model(SnapshotModel::open(&path).expect("open"));
    assert!(v1 > v0, "swap must bump the version");

    assert_eq!(
        engine.purge_stale(),
        1,
        "the stale f64-era top-n entry should be reaped after the swap"
    );

    let after = engine.recommend(2, 1, TOP_N).expect("compact recommend");
    let want: Vec<usize> = before.iter().map(|&(p, _)| p).collect();
    let got: Vec<usize> = after.iter().map(|&(p, _)| p).collect();
    assert_eq!(want, got, "top-{TOP_N} diverged across an f32 swap");
    let stats = engine.cache_stats();
    assert_eq!((stats.topn_entries, stats.topn_stale), (1, 0));
    std::fs::remove_dir_all(&dir).ok();
}
