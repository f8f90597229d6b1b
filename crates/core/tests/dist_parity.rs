//! The process-count-parity contract, end to end.
//!
//! Training with 1, 2, or 4 worker processes (owner-computes tail
//! sharding, DESIGN.md §5j) — at 1 or 2 threads per worker — must produce
//! models bit-identical to the in-process checkpointed trainer, for both
//! entry-loss strategies, over arbitrary tensors, and with the
//! social-Hausdorff head on over a small synthetic LBSN. Checkpoints cross
//! between distributed and in-process runs bit-for-bit in both
//! directions. Also proptests the transport's framing at the training
//! cap: arbitrary byte splits decode identically, and truncation is a
//! typed error with the exact byte count, never a hang. The frame codec's
//! full property set lives next to it, in `tcss_core::frame`.

use proptest::prelude::*;
use tcss_core::dist::wire::MAX_FRAME_LEN;
use tcss_core::dist::{DistConfig, DistError, WireError};
use tcss_core::frame::{read_frame, write_frame, FrameDecoder, FrameError};
use tcss_core::{InitMethod, LossStrategy, TcssConfig, TcssModel, TcssTrainer, TrainError};
use tcss_data::{Granularity, SynthConfig, SynthPreset};
use tcss_sparse::SparseTensor3;

/// The dedicated worker binary of the core crate (built by cargo for
/// integration tests).
fn worker_program() -> &'static str {
    env!("CARGO_BIN_EXE_tcss-dist-worker")
}

fn model_bits(m: &TcssModel) -> Vec<u64> {
    m.u1.as_slice()
        .iter()
        .chain(m.u2.as_slice())
        .chain(m.u3.as_slice())
        .chain(&m.h)
        .map(|v| v.to_bits())
        .collect()
}

#[derive(Debug, Clone)]
struct Case {
    dims: (usize, usize, usize),
    entries: Vec<(usize, usize, usize, f64)>,
    rank: usize,
    seed: u64,
    loss: LossStrategy,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (4usize..9, 4usize..9, 3usize..6).prop_flat_map(|(i, j, k)| {
        (
            proptest::collection::vec((0usize..i, 0usize..j, 0usize..k, 0.5f64..1.5), 0..60),
            2usize..=3,
            0u64..1000,
            0usize..2,
        )
            .prop_map(move |(entries, rank, seed, negsamp)| Case {
                dims: (i, j, k),
                entries,
                rank,
                seed,
                loss: if negsamp == 1 {
                    LossStrategy::NegativeSampling
                } else {
                    LossStrategy::WholeDataRewritten
                },
            })
    })
}

fn trainer_for(case: &Case, workers: Option<usize>) -> TcssTrainer {
    let tensor = SparseTensor3::from_entries(case.dims, case.entries.iter().copied())
        .expect("generated entries are in bounds");
    let cfg = TcssConfig {
        rank: case.rank,
        seed: case.seed,
        loss: case.loss,
        lambda: 0.0,
        hausdorff: tcss_core::HausdorffVariant::None,
        init: InitMethod::Random,
        epochs: 3,
        checkpoint_every: 1,
        num_threads: Some(1),
        workers,
        ..TcssConfig::default()
    };
    TcssTrainer::from_tensor(tensor, cfg)
}

fn dist_cfg(workers: usize, threads: usize) -> DistConfig {
    DistConfig {
        worker_threads: Some(threads),
        ..DistConfig::new(workers, worker_program())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 1 ≡ 2 ≡ 4 workers ≡ in-process, bit for bit, for both strategies,
    /// and worker threading (composing with the TCSS_NUM_THREADS
    /// machinery) is a pure speed knob, exactly like in-process.
    #[test]
    fn worker_count_and_threads_never_change_a_bit(case in case_strategy()) {
        let baseline = trainer_for(&case, None)
            .train_with_checkpoints(|_| {})
            .expect("in-process run trains")
            .model;
        let want = model_bits(&baseline);
        for workers in [1usize, 2, 4] {
            let report = trainer_for(&case, Some(workers))
                .train_distributed(&dist_cfg(workers, 1), |_| {})
                .unwrap_or_else(|e| panic!("{workers}-worker run failed: {e}"));
            prop_assert_eq!(report.workers, workers);
            prop_assert_eq!(report.respawns, 0);
            prop_assert_eq!(
                &model_bits(&report.report.model), &want,
                "{} workers diverged from the in-process model", workers
            );
        }
        let threaded = trainer_for(&case, Some(2))
            .train_distributed(&dist_cfg(2, 2), |_| {})
            .expect("2-worker × 2-thread run trains");
        prop_assert_eq!(
            &model_bits(&threaded.report.model), &want,
            "2 workers × 2 threads diverged from the in-process model"
        );
    }
}

/// The same contract with the paper's social-Hausdorff head on (λ > 0):
/// the coordinator evaluates the head, so its gradient must land on the
/// in-process bits at every worker count, whether the head runs every
/// epoch or every third.
#[test]
fn head_on_worker_count_never_changes_a_bit() {
    let data = tcss_data::synth::generate(&SynthConfig {
        n_users: 24,
        n_pois: 30,
        n_clusters: 3,
        n_communities: 3,
        avg_checkins_per_user: 10,
        avg_friends: 3,
        ..SynthPreset::Gowalla.config()
    });
    for every in [1usize, 3] {
        let trainer = |workers: Option<usize>, lambda: f64| {
            let cfg = TcssConfig {
                rank: 3,
                lambda,
                hausdorff_every: every,
                init: InitMethod::Random,
                epochs: 4,
                checkpoint_every: 2,
                num_threads: Some(1),
                workers,
                ..TcssConfig::default()
            };
            TcssTrainer::new(&data, &data.checkins, Granularity::Month, cfg)
        };
        let in_process = |lambda| {
            trainer(None, lambda)
                .train_with_checkpoints(|_| {})
                .expect("in-process run trains")
                .model
        };
        let want = model_bits(&in_process(240.0));
        assert_ne!(
            model_bits(&in_process(0.0)),
            want,
            "the head left no trace on the model"
        );
        for workers in [1usize, 2, 4] {
            let report = trainer(Some(workers), 240.0)
                .train_distributed(&dist_cfg(workers, 1), |_| {})
                .unwrap_or_else(|e| panic!("{workers}-worker run failed: {e}"));
            assert_eq!(
                model_bits(&report.report.model),
                want,
                "head every {every} epoch(s): {workers} workers diverged from the in-process model"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Framing at the training cap
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any payload sequence, pushed at arbitrary split points, decodes to
    /// exactly the original payloads.
    #[test]
    fn frames_decode_identically_under_arbitrary_splits(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..200), 0..6),
        split_seed in 0u64..u64::MAX,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p);
        }
        // Deterministic pseudo-random split points from split_seed.
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let mut got = Vec::new();
        let (mut pos, mut state) = (0usize, split_seed | 1);
        while pos < stream.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let end = (pos + 1 + (state >> 33) as usize % 37).min(stream.len());
            dec.push(&stream[pos..end]);
            while let Some(f) = dec.next_frame().expect("well-formed stream") {
                got.push(f);
            }
            pos = end;
        }
        dec.finish().expect("no partial frame at EOF");
        prop_assert_eq!(got, payloads);
    }

    /// Truncating a frame at any interior point is a typed truncation
    /// carrying the exact byte count — on the push path and through the
    /// transport's blocking read — never a hang and never a bogus frame.
    #[test]
    fn truncation_is_always_a_typed_error(
        payload in proptest::collection::vec(0u8..=255, 0..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload);
        // cut ∈ [1, len-1]: always a strict interior truncation.
        let cut = 1 + ((frame.len() - 2) as f64 * cut_frac) as usize;
        let want = FrameError::TruncatedEof { buffered: cut };
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        dec.push(&frame[..cut]);
        prop_assert_eq!(dec.next_frame(), Ok(None));
        prop_assert_eq!(dec.finish(), Err(want));
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let read = read_frame::<DistError>(&mut &frame[..cut], &mut dec);
        prop_assert!(
            matches!(read, Err(DistError::Wire(WireError::Frame(e))) if e == want),
            "{:?}",
            read
        );
    }
}

/// Checkpoint interop, direction 1: a distributed run's checkpoint
/// (whose Adam moments were gathered from per-worker resident slabs)
/// resumes bit-identically in a single-process run. The fingerprint
/// excludes `workers`, like `num_threads`, and the snapshot gather must
/// be worker-count-independent.
#[test]
fn distributed_checkpoint_resumes_in_process_bitwise() {
    let case = Case {
        dims: (6, 5, 4),
        entries: vec![
            (0, 0, 0, 1.0),
            (1, 2, 3, 1.0),
            (5, 4, 2, 1.0),
            (3, 3, 1, 1.0),
            (2, 1, 0, 1.0),
        ],
        rank: 2,
        seed: 42,
        loss: LossStrategy::WholeDataRewritten,
    };
    let tmp = tempdir("dist_ckpt_interop");
    // Uninterrupted in-process run: 6 epochs.
    let mut uninterrupted = trainer_for(&case, None);
    uninterrupted.config.epochs = 6;
    let want = model_bits(
        &uninterrupted
            .train_with_checkpoints(|_| {})
            .expect("trains")
            .model,
    );
    // Distributed run to epoch 3, checkpointing...
    let mut first = trainer_for(&case, Some(2));
    first.config.epochs = 3;
    first.config.checkpoint_dir = Some(tmp.clone());
    first
        .train_distributed(&dist_cfg(2, 1), |_| {})
        .expect("distributed prefix trains");
    // ...resumed by a single-process trainer to epoch 6.
    let mut second = trainer_for(&case, None);
    second.config.epochs = 6;
    second.config.resume_from = Some(tmp.join(tcss_core::CHECKPOINT_FILE));
    let resumed = second
        .train_with_checkpoints(|_| {})
        .expect("in-process resume trains");
    assert_eq!(resumed.start_epoch, 3);
    assert_eq!(model_bits(&resumed.model), want);
    std::fs::remove_dir_all(&tmp).ok();
}

/// Checkpoint interop, direction 2: a single-process checkpoint resumes
/// bit-identically in a distributed run — the adopted Adam moments split
/// across resident worker ranges without changing a bit, at a worker
/// count the checkpoint never saw.
#[test]
fn in_process_checkpoint_resumes_distributed_bitwise() {
    let case = Case {
        dims: (6, 5, 4),
        entries: vec![
            (0, 0, 0, 1.0),
            (1, 2, 3, 1.0),
            (5, 4, 2, 1.0),
            (3, 3, 1, 1.0),
            (2, 1, 0, 1.0),
        ],
        rank: 2,
        seed: 43,
        loss: LossStrategy::NegativeSampling,
    };
    let tmp = tempdir("ckpt_to_dist");
    let mut uninterrupted = trainer_for(&case, None);
    uninterrupted.config.epochs = 6;
    let want = model_bits(
        &uninterrupted
            .train_with_checkpoints(|_| {})
            .expect("trains")
            .model,
    );
    // In-process run to epoch 3, checkpointing...
    let mut first = trainer_for(&case, None);
    first.config.epochs = 3;
    first.config.checkpoint_dir = Some(tmp.clone());
    first
        .train_with_checkpoints(|_| {})
        .expect("in-process prefix trains");
    // ...resumed by 3 workers to epoch 6.
    let mut second = trainer_for(&case, Some(3));
    second.config.epochs = 6;
    second.config.resume_from = Some(tmp.join(tcss_core::CHECKPOINT_FILE));
    let resumed = second
        .train_distributed(&dist_cfg(3, 1), |_| {})
        .expect("distributed resume trains");
    assert_eq!(resumed.report.start_epoch, 3);
    assert_eq!(model_bits(&resumed.report.model), want);
    std::fs::remove_dir_all(&tmp).ok();
}

/// A worker program that cannot be spawned is a typed error up front.
#[test]
fn unspawnable_worker_program_is_typed() {
    let case = Case {
        dims: (4, 4, 3),
        entries: vec![(0, 0, 0, 1.0)],
        rank: 2,
        seed: 1,
        loss: LossStrategy::WholeDataRewritten,
    };
    let err = trainer_for(&case, Some(1))
        .train_distributed(&DistConfig::new(1, "/nonexistent/worker/binary"), |_| {})
        .expect_err("spawn must fail");
    assert!(err.to_string().contains("spawn"), "{err}");
}

/// `DistConfig::tail_shard = false` named the removed coordinator-merge
/// protocol: it is a typed `InvalidConfig`, raised before any socket is
/// bound or any worker spawned — the worker program does not exist, so a
/// spawn attempt would surface as a `Spawn` error instead, and the socket
/// directory stays empty.
#[test]
fn tail_shard_false_is_invalid_config_before_spawning() {
    let case = Case {
        dims: (4, 4, 3),
        entries: vec![(0, 0, 0, 1.0)],
        rank: 2,
        seed: 1,
        loss: LossStrategy::WholeDataRewritten,
    };
    let sockets = tempdir("tail_shard_false");
    let dist = DistConfig {
        tail_shard: false,
        socket_dir: Some(sockets.clone()),
        ..DistConfig::new(1, "/nonexistent/worker/binary")
    };
    let err = trainer_for(&case, Some(1))
        .train_distributed(&dist, |_| {})
        .expect_err("tail_shard = false must be rejected");
    match &err {
        TrainError::InvalidConfig(msg) => {
            assert!(
                msg.contains("tail_shard") && msg.contains("removed"),
                "{msg}"
            )
        }
        other => panic!("expected InvalidConfig, got: {other}"),
    }
    assert_eq!(
        std::fs::read_dir(&sockets).unwrap().count(),
        0,
        "no socket may be bound for a rejected config"
    );
    std::fs::remove_dir_all(&sockets).ok();
}

/// A worker program that exits before connecting is a typed error, not a
/// hang.
#[test]
fn instantly_dying_worker_is_typed_not_a_hang() {
    let case = Case {
        dims: (4, 4, 3),
        entries: vec![(0, 0, 0, 1.0)],
        rank: 2,
        seed: 1,
        loss: LossStrategy::WholeDataRewritten,
    };
    let err = trainer_for(&case, Some(1))
        .train_distributed(&DistConfig::new(1, "/bin/false"), |_| {})
        .expect_err("a worker that dies pre-Hello must fail the run");
    assert!(
        err.to_string().contains("exited before connecting"),
        "{err}"
    );
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcss_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
