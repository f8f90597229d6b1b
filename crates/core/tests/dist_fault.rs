//! Worker-loss recovery: the coordinator survives the death of any single
//! worker, rolls the run back to its last good state (the in-memory copy
//! of what its last checkpoint holds), and converges to the exact same
//! bits as an uninterrupted run. Also the distributed divergence watchdog:
//! a poisoned epoch rolls back exactly as in-process.
//!
//! Companion to `tests/dist_parity.rs` (the no-failure contract) and
//! `tests/fault_injection.rs` (in-process crash/corruption faults).

use tcss_core::dist::DistConfig;
use tcss_core::{
    DistError, FaultPlan, InitMethod, LossStrategy, TcssConfig, TcssModel, TcssTrainer, TrainError,
};
use tcss_data::{Granularity, SynthConfig, SynthPreset};
use tcss_sparse::SparseTensor3;

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

fn fixture(workers: Option<usize>, checkpoint_dir: Option<std::path::PathBuf>) -> TcssTrainer {
    let dims = (8, 7, 5);
    let entries = [
        (0, 0, 0, 1.0),
        (1, 2, 3, 1.0),
        (7, 6, 4, 1.0),
        (3, 3, 1, 1.0),
        (2, 1, 0, 1.0),
        (5, 4, 2, 1.0),
        (6, 0, 3, 1.0),
        (4, 5, 1, 1.0),
        (0, 6, 2, 1.0),
        (7, 1, 4, 1.0),
    ];
    let tensor = SparseTensor3::from_entries(dims, entries).expect("entries in bounds");
    let cfg = TcssConfig {
        rank: 3,
        seed: 7,
        loss: LossStrategy::WholeDataRewritten,
        lambda: 0.0,
        hausdorff: tcss_core::HausdorffVariant::None,
        init: InitMethod::Random,
        epochs: 6,
        checkpoint_every: 2,
        num_threads: Some(1),
        workers,
        checkpoint_dir,
        ..TcssConfig::default()
    };
    TcssTrainer::from_tensor(tensor, cfg)
}

fn dist_cfg(workers: usize) -> DistConfig {
    DistConfig::new(workers, worker_program())
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcss_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kill each worker of a 2-worker fleet in turn, between epochs (before
/// the epoch-4 StepOwned broadcast): the coordinator must detect the
/// loss, respawn, roll back to the epoch-2 state it checkpointed, and
/// land on bits identical to both the uninterrupted distributed run and
/// the in-process run.
#[test]
fn losing_any_single_worker_is_survivable_and_bit_exact() {
    let want = model_bits(
        &fixture(None, None)
            .train_with_checkpoints(|_| {})
            .expect("in-process run trains")
            .model,
    );
    let undisturbed = fixture(Some(2), None)
        .train_distributed(&dist_cfg(2), |_| {})
        .expect("uninterrupted distributed run trains");
    assert_eq!(model_bits(&undisturbed.report.model), want);

    for victim in 0..2usize {
        let dir = tempdir(&format!("dist_kill_w{victim}"));
        let trainer = fixture(Some(2), Some(dir.clone()));
        // Epoch 4: past the epoch-2 checkpoint, so recovery must actually
        // rewind to the epoch-2 state, not just restart.
        let plan = FaultPlan::kill_worker_at(4, victim);
        let report = trainer
            .train_distributed_with_faults(&dist_cfg(2), &plan, |_| {})
            .unwrap_or_else(|e| panic!("run with worker {victim} killed failed: {e}"));
        assert!(
            report.respawns >= 1,
            "killing worker {victim} must cost at least one respawn"
        );
        assert_eq!(
            model_bits(&report.report.model),
            want,
            "recovery after losing worker {victim} diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Without a checkpoint dir the coordinator recovers the same way, from
/// its in-memory last good state, which carries the gathered Adam
/// moments; Adopt redistributes the owned ranges to the respawned fleet.
/// Covers both kill points: between epochs and mid-exchange.
#[test]
fn recovery_works_without_on_disk_checkpoints() {
    let want = model_bits(
        &fixture(None, None)
            .train_with_checkpoints(|_| {})
            .expect("in-process run trains")
            .model,
    );
    for plan in [
        FaultPlan::kill_worker_at(3, 1),
        FaultPlan::kill_worker_mid_exchange_at(3, 1),
    ] {
        let report = fixture(Some(2), None)
            .train_distributed_with_faults(&dist_cfg(2), &plan, |_| {})
            .expect("checkpoint-less recovery trains");
        assert!(report.respawns >= 1);
        assert_eq!(model_bits(&report.report.model), want);
    }
}

/// The harder recovery problem: workers hold resident Adam moments, and
/// the victim dies **mid-exchange** — after the coordinator has already
/// relayed the first of its outbound row-delta frames, so some of its
/// deltas are in flight to their owners (and buffered on peers) when it
/// goes down. Recovery must discard the whole half-finished epoch on
/// every worker (Adopt resets resident state), restore the Adam moments
/// for every owned range from the last good state, and still land on the
/// in-process run's exact bits. The kill lands on epoch 4 and on epoch 3,
/// which ends on the epoch-4 cadence point, so its UpdatedRows would
/// have carried the moments.
///
/// The final-checkpoint byte comparison is the explicit Adam-state check:
/// the checkpoint serializes the gathered `m`/`v` moments, so identical
/// bytes prove the owned-range restore (not just the model splice) was
/// exact.
#[test]
fn mid_exchange_kill_is_survivable_and_bit_exact() {
    let clean_dir = tempdir("dist_xkill_in_process");
    let want = model_bits(
        &fixture(None, Some(clean_dir.clone()))
            .train_with_checkpoints(|_| {})
            .expect("in-process run trains")
            .model,
    );
    let want_ckpt = std::fs::read(clean_dir.join(tcss_core::CHECKPOINT_FILE))
        .expect("in-process run wrote a checkpoint");

    for (epoch, victim) in [(4, 0), (4, 1), (3, 0), (3, 1)] {
        let dir = tempdir(&format!("dist_xkill_e{epoch}_w{victim}"));
        let trainer = fixture(Some(2), Some(dir.clone()));
        // Past the epoch-2 checkpoint, so the rollback rewinds to the
        // epoch-2 state — including every worker's owned slice of the
        // Adam moments, re-adopted over the wire.
        let plan = FaultPlan::kill_worker_mid_exchange_at(epoch, victim);
        let report = trainer
            .train_distributed_with_faults(&dist_cfg(2), &plan, |_| {})
            .unwrap_or_else(|e| {
                panic!("run with worker {victim} killed mid-exchange at {epoch} failed: {e}")
            });
        assert!(
            report.respawns >= 1,
            "mid-exchange kill of worker {victim} at epoch {epoch} must cost a respawn"
        );
        assert_eq!(
            model_bits(&report.report.model),
            want,
            "recovery after losing worker {victim} mid-exchange at epoch {epoch} diverged"
        );
        let got_ckpt = std::fs::read(dir.join(tcss_core::CHECKPOINT_FILE))
            .expect("recovered run wrote a checkpoint");
        assert_eq!(
            got_ckpt, want_ckpt,
            "final checkpoint (model + Adam moments) after recovering worker {victim} \
             at epoch {epoch} differs from the in-process run's"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// A worker that dies on *every* respawn exhausts the budget and surfaces
/// as the typed `RespawnBudgetExhausted` error instead of looping forever.
#[test]
fn respawn_budget_exhaustion_is_typed() {
    let trainer = fixture(Some(2), None);
    // Point respawns at a program that exits immediately: the first loss is
    // real (fault-injected), every replacement dies before connecting.
    let dist = DistConfig {
        max_respawns: 0,
        ..dist_cfg(2)
    };
    let plan = FaultPlan::kill_worker_at(2, 0);
    let err = trainer
        .train_distributed_with_faults(&dist, &plan, |_| {})
        .expect_err("a zero respawn budget must fail the run");
    match err {
        TrainError::Dist(DistError::RespawnBudgetExhausted { worker, epoch, .. }) => {
            assert_eq!(worker, 0);
            assert_eq!(epoch, 2);
        }
        other => panic!("expected RespawnBudgetExhausted, got: {other}"),
    }
}

/// Recovery rolls back to the run's own in-memory last good state, never
/// to whatever `checkpoint.tcssck` sits in the checkpoint directory. Here
/// the directory holds the final checkpoint of an earlier run (seed 99,
/// so a different fingerprint), and worker 1 dies at epoch 1, before the
/// fresh run's first cadence point has overwritten that file. Reloading it
/// would finish the fresh run with the earlier run's model.
#[test]
fn stale_checkpoint_in_dir_is_never_adopted_on_worker_loss() {
    let want = model_bits(
        &fixture(None, None)
            .train_with_checkpoints(|_| {})
            .expect("in-process run trains")
            .model,
    );
    let dir = tempdir("dist_stale_ckpt");
    let mut earlier = fixture(None, Some(dir.clone()));
    earlier.config.seed = 99;
    earlier
        .train_with_checkpoints(|_| {})
        .expect("earlier run trains");
    assert!(dir.join(tcss_core::CHECKPOINT_FILE).exists());

    let report = fixture(Some(2), Some(dir.clone()))
        .train_distributed_with_faults(&dist_cfg(2), &FaultPlan::kill_worker_at(1, 1), |_| {})
        .expect("fresh run with a killed worker trains");
    assert!(report.respawns >= 1);
    assert_eq!(
        model_bits(&report.report.model),
        want,
        "recovery adopted the earlier run's checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The distributed divergence watchdog: a NaN-poisoned epoch is
/// rejected, the run rolls back to the epoch-2 state with the learning
/// rate halved, and the model and the saved checkpoint are bitwise the
/// in-process run's under the same fault. Workers step before the
/// watchdog rules, so the rejected attempt's rows and moments must be
/// overwritten by the re-Adopt: epoch 3 ends on the epoch-4 cadence
/// point, so its rejected UpdatedRows carried the moments; epoch 2 is the
/// first after a cadence point, so its retry replays the same epoch.
#[test]
fn poisoned_epoch_rolls_back_bit_exact() {
    for epoch in [3, 2] {
        let dir = tempdir(&format!("dist_poison_e{epoch}"));
        let (in_dir, dist_dir) = (dir.join("in_process"), dir.join("dist"));
        let in_process = fixture(None, Some(in_dir.clone()))
            .train_with_faults(&FaultPlan::poison_gradients_at(epoch), |_| {})
            .expect("in-process run recovers");
        assert_eq!(in_process.rollbacks, 1);
        let report = fixture(Some(2), Some(dist_dir.clone()))
            .train_distributed_with_faults(
                &dist_cfg(2),
                &FaultPlan::poison_gradients_at(epoch),
                |_| {},
            )
            .expect("distributed run recovers");
        assert_eq!(report.report.rollbacks, 1);
        assert_eq!(report.report.lr_scale, 0.5);
        assert_eq!(report.respawns, 0);
        assert_eq!(
            model_bits(&report.report.model),
            model_bits(&in_process.model),
            "poisoned epoch {epoch}"
        );
        let ckpt = |d: &std::path::Path| {
            std::fs::read(d.join(tcss_core::CHECKPOINT_FILE)).expect("run wrote a checkpoint")
        };
        assert_eq!(
            ckpt(&dist_dir),
            ckpt(&in_dir),
            "final checkpoint after rejecting epoch {epoch} differs from the in-process run's"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A worker lost on a head epoch: with the social-Hausdorff head on
/// (λ = 240, every third epoch), killing worker 0 before epoch 3 rolls
/// back to epoch 2 and replays the head epoch, landing on the in-process
/// bits.
#[test]
fn worker_kill_on_a_head_epoch_is_bit_exact() {
    let data = tcss_data::synth::generate(&SynthConfig {
        n_users: 24,
        n_pois: 30,
        n_clusters: 3,
        n_communities: 3,
        avg_checkins_per_user: 10,
        avg_friends: 3,
        ..SynthPreset::Gowalla.config()
    });
    let trainer = |workers: Option<usize>| {
        let cfg = TcssConfig {
            rank: 3,
            lambda: 240.0,
            hausdorff_every: 3,
            init: InitMethod::Random,
            epochs: 4,
            checkpoint_every: 2,
            num_threads: Some(1),
            workers,
            ..TcssConfig::default()
        };
        TcssTrainer::new(&data, &data.checkins, Granularity::Month, cfg)
    };
    let mut l1_at_3 = 0.0;
    let want = trainer(None)
        .train_with_checkpoints(|ctx| {
            if ctx.epoch == 3 {
                l1_at_3 = ctx.l1;
            }
        })
        .expect("in-process run trains");
    assert!(l1_at_3 > 0.0, "epoch 3 must be a head epoch");
    let report = trainer(Some(2))
        .train_distributed_with_faults(&dist_cfg(2), &FaultPlan::kill_worker_at(3, 0), |_| {})
        .expect("run with worker 0 killed trains");
    assert!(report.respawns >= 1);
    assert_eq!(model_bits(&report.report.model), model_bits(&want.model));
}
