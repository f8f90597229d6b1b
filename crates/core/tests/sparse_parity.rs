//! Sparse-delta ↔ dense parity for the training hot path.
//!
//! `parallel_parity.rs` pins thread-count parity; this suite pins the
//! stronger claim behind the sparse rewrite: the production path (sparse
//! chunk-local deltas + pooled workspaces) reproduces the dense-chunk
//! reference (`support/dense_loss.rs`) **bit-for-bit** (`f64::to_bits`
//! equality, no tolerances) —
//!
//! * property-tested over random tensors/models at 1/2/4 threads for both
//!   entry-loop loss heads, including re-use of a warmed workspace pool,
//!   plus one input spanning two full entry chunks and a ragged tail so
//!   the cross-chunk merge order is pinned too;
//! * for the social-Hausdorff head, with and without a candidate-set cap
//!   (the `select_nth_unstable_by` selection path), against the head's
//!   sequential forward loss and its own single-thread run (the bitwise
//!   dense reference, which needs the head's private per-user kernel, is
//!   the `hausdorff` module's `parallel_matches_sequential`);
//! * end-to-end: whole training runs are thread-count independent, and a
//!   run killed mid-flight and resumed from its checkpoint matches an
//!   uninterrupted run on the pooled-workspace trainer.

#[path = "support/dense_loss.rs"]
mod dense_loss;

use proptest::prelude::*;
use tcss_core::loss::Grads;
use tcss_core::{
    random_init, FaultPlan, HausdorffVariant, SocialHausdorffHead, TcssConfig, TcssModel,
    TcssTrainer, TrainError, TrainWorkspace, CHECKPOINT_FILE,
};
use tcss_data::{train_test_split, Granularity, SynthPreset};
use tcss_linalg::set_num_threads;
use tcss_sparse::SparseTensor3;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn grads_bits(g: &Grads) -> Vec<u64> {
    g.u1.as_slice()
        .iter()
        .chain(g.u2.as_slice())
        .chain(g.u3.as_slice())
        .chain(&g.h)
        .map(|v| v.to_bits())
        .collect()
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

/// Random dims, entries, rank and seed. Dims stay small so 3 thread counts
/// × 2 evaluations per case stay fast; entry counts up to 40 cover empty,
/// single-chunk and duplicate-row cases.
#[allow(clippy::type_complexity)]
fn case_strategy() -> impl Strategy<
    Value = (
        (usize, usize, usize),
        Vec<(usize, usize, usize, f64)>,
        usize,
        u64,
    ),
> {
    (3usize..9, 3usize..9, 3usize..6).prop_flat_map(|(i, j, k)| {
        let r_max = i.min(j).min(k);
        (
            proptest::collection::vec((0..i, 0..j, 0..k, 0.25f64..2.0), 0..40),
            2..=r_max,
            0u64..1000,
        )
            .prop_map(move |(v, r, seed)| ((i, j, k), v, r, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sparse rewritten-loss path is bitwise identical to the dense
    /// reference at every thread count, on a cold and on a warmed
    /// workspace pool.
    #[test]
    fn sparse_rewritten_loss_matches_dense_reference(
        (dims, raw, rank, seed) in case_strategy()
    ) {
        let t = SparseTensor3::from_entries(dims, raw).expect("in range");
        let (u1, u2, u3) = random_init(dims, rank, seed);
        let model = TcssModel::new(u1, u2, u3);
        dense_loss::assert_production_matches(&model, &t, None, "rewritten loss");
    }

    /// Same for negative sampling: the per-chunk RNG streams (and hence
    /// the sampled negatives) must be untouched by the sparse rewrite.
    #[test]
    fn sparse_negative_sampling_matches_dense_reference(
        (dims, raw, rank, seed) in case_strategy()
    ) {
        let t = SparseTensor3::from_entries(dims, raw).expect("in range");
        let (u1, u2, u3) = random_init(dims, rank, seed);
        let model = TcssModel::new(u1, u2, u3);
        dense_loss::assert_production_matches(&model, &t, Some(seed ^ 0xABCD), "negative sampling");
    }
}

/// Both entry-loop losses over two full 1024-entry chunks plus a ragged
/// tail: the chunk merge itself (not just one chunk's fold) must match
/// the dense reference bitwise at every thread count.
#[test]
fn multi_chunk_entry_losses_match_dense_reference() {
    let dims = (20, 16, 8);
    let t = dense_loss::spread_tensor(dims, 2 * 1024 + 300);
    let (u1, u2, u3) = random_init(dims, 3, 17);
    let model = TcssModel::new(u1, u2, u3);
    dense_loss::assert_production_matches(&model, &t, None, "multi-chunk rewritten loss");
    dense_loss::assert_production_matches(&model, &t, Some(29), "multi-chunk negative sampling");
}

/// Sparse Hausdorff head == sequential forward loss == its single-thread,
/// cold-workspace run, bitwise, at every thread count and on a warmed
/// workspace — with and without the top-`p` candidate cap (the capped run
/// exercises the `select_nth_unstable_by` selection).
#[test]
fn sparse_hausdorff_matches_dense_and_sequential() {
    let data = SynthPreset::Gmu5k.generate();
    let train: Vec<_> = data.checkins.iter().take(2000).copied().collect();
    let tensor = data.tensor_from(&train, Granularity::Month);
    let (u1, u2, u3) = random_init(tensor.dims(), 4, 9);
    let model = TcssModel::new(u1, u2, u3);
    for cap in [None, Some(7)] {
        let head = SocialHausdorffHead::new(
            &data,
            &train,
            HausdorffVariant::Social,
            Default::default(),
            cap,
        );
        // Bitwise baseline: the chunked sparse path at 1 thread on a cold
        // workspace. (The sequential forward sums the per-user losses in
        // one chain instead of per-chunk subtotals — a different float
        // association — so it is compared with a tolerance.)
        set_num_threads(Some(1));
        let mut g_base = Grads::zeros(&model);
        let l_base = head.loss_and_grad_ws(&model, &mut g_base, 240.0, &TrainWorkspace::new());
        let want = (l_base.to_bits(), grads_bits(&g_base));
        let l_seq = head.loss(&model);
        assert!(
            (l_seq - l_base).abs() < 1e-9,
            "sequential head loss diverges from chunked sparse path (cap {cap:?})"
        );
        for threads in THREAD_COUNTS {
            set_num_threads(Some(threads));
            let ws = TrainWorkspace::new();
            for round in 0..2 {
                let mut g_sparse = Grads::zeros(&model);
                let l_sparse = head.loss_and_grad_ws(&model, &mut g_sparse, 240.0, &ws);
                assert_eq!(
                    want,
                    (l_sparse.to_bits(), grads_bits(&g_sparse)),
                    "sparse head diverges at {threads} threads (cap {cap:?}, round {round})"
                );
            }
        }
    }
    set_num_threads(None);
}

/// Whole training runs on the pooled-workspace trainer are thread-count
/// independent: the workspace pools recycle buffers across many epochs and
/// both loss heads, and none of it may perturb a single bit.
#[test]
fn pooled_trainer_is_thread_count_independent_end_to_end() {
    let data = SynthPreset::Gmu5k.generate();
    let split = train_test_split(&data.checkins, data.n_users, 0.8, 1);
    let mut want: Option<Vec<u64>> = None;
    for threads in THREAD_COUNTS {
        let cfg = TcssConfig {
            epochs: 7,
            rank: 4,
            num_threads: Some(threads),
            ..TcssConfig::default()
        };
        let trainer = TcssTrainer::new(&data, &split.train, Granularity::Month, cfg);
        let model = trainer.train(|_, _| {});
        let got = model_bits(&model);
        match &want {
            None => want = Some(got),
            Some(w) => assert_eq!(*w, got, "trained model differs at {threads} threads"),
        }
    }
    set_num_threads(None);
}

/// Kill-and-resume on the pooled-workspace trainer: a checkpoint written
/// before the crash plus a resumed run (fresh pools, cold caches) must
/// land on the exact same model as an uninterrupted run — including at 4
/// threads, where pool recycling order differs run to run.
#[test]
fn pooled_trainer_kill_and_resume_is_bitwise_identical() {
    let data = SynthPreset::Gmu5k.generate();
    let split = train_test_split(&data.checkins, data.n_users, 0.8, 1);
    let dir = std::env::temp_dir().join("tcss_sparse_parity_resume");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("test dir");
    let base = TcssConfig {
        epochs: 12,
        rank: 4,
        checkpoint_every: 5,
        num_threads: Some(4),
        ..TcssConfig::default()
    };

    let uninterrupted =
        TcssTrainer::new(&data, &split.train, Granularity::Month, base.clone()).train(|_, _| {});
    let want = model_bits(&uninterrupted);

    // Crash at epoch 7 — between the snapshots at 5 and 10.
    let killed_cfg = TcssConfig {
        checkpoint_dir: Some(dir.clone()),
        ..base.clone()
    };
    let err = TcssTrainer::new(&data, &split.train, Granularity::Month, killed_cfg)
        .train_with_faults(&FaultPlan::crash_before_epoch(7), |_| {})
        .expect_err("injected crash must abort the run");
    assert!(matches!(err, TrainError::InjectedCrash { epoch: 7 }));

    let ckpt = dir.join(CHECKPOINT_FILE);
    let resumed_cfg = TcssConfig {
        checkpoint_dir: Some(dir.clone()),
        resume_from: Some(ckpt),
        ..base
    };
    let report = TcssTrainer::new(&data, &split.train, Granularity::Month, resumed_cfg)
        .train_with_checkpoints(|_| {})
        .expect("resume completes");
    assert_eq!(report.start_epoch, 5, "resume must start at the snapshot");
    assert_eq!(
        want,
        model_bits(&report.model),
        "killed-and-resumed pooled trainer diverges from uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
    set_num_threads(None);
}
