//! Training stages: fixture generation, trainer set-up, timed training
//! sessions, quality under the paper's protocol, and the traced layer
//! probes.

use std::path::PathBuf;
use std::time::Instant;

use tcss_core::digest::fnv1a64;
use tcss_core::dist::DistConfig;
use tcss_core::loss::Grads;
use tcss_core::{
    rewritten_loss_and_grad_ws, solve_h, spectral_init, HausdorffVariant, SocialHausdorffHead,
    TcssConfig, TcssModel, TcssTrainer, TrainWorkspace,
};
use tcss_data::{train_test_split, CheckIn, Dataset, Granularity, SynthConfig, SynthPreset};
use tcss_eval::{evaluate_ranking, EvalConfig};

use crate::stats::{median, Gated};
use crate::sys::{cpu_steal, process_cpu_s, steal_between};
use crate::trace::Tracer;
use crate::OUT_DIR;

/// The split is fixed, so every seed trains on the same tensor and the
/// quality figures are identical across seeds (see [`shuffled`]).
const SPLIT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy)]
pub enum Fixture {
    /// The paper's Gowalla analogue (220 users × 520 POIs × 12 months).
    Gowalla,
    /// More users than POIs: the user mode dominates spectral init and
    /// the entry chunks dominate an epoch. Single-threaded spectral init
    /// takes ~0.45 s at this size, so a run holds a dozen samples of the
    /// time to the first epoch (1500 users and 60 check-ins each took
    /// ~4 s and left room for five).
    ManyUsers,
}

impl Fixture {
    pub fn generate(self) -> Dataset {
        match self {
            Fixture::Gowalla => SynthPreset::Gowalla.generate(),
            Fixture::ManyUsers => tcss_data::synth::generate(&SynthConfig {
                name: "many-users-synth".into(),
                n_users: 500,
                n_pois: 150,
                avg_checkins_per_user: 40,
                ..SynthPreset::Gowalla.config()
            }),
        }
    }
}

/// Hit@10 and MRR below these mean the trained model is broken; chance
/// is about 0.1 and 0.05 under the 100-negative protocol.
pub const HIT_FLOOR: f64 = 0.6;
pub const MRR_FLOOR: f64 = 0.3;

#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub fixture: Fixture,
    /// `workers: Some(n)` trains over `n` tail-sharded single-thread
    /// worker processes, `None` in-process.
    pub config: TcssConfig,
}

pub struct Prepared {
    pub data: Dataset,
    pub train: Vec<CheckIn>,
    pub test: Vec<CheckIn>,
    pub trainer: TcssTrainer,
}

/// The training log in a seed-chosen order. A check-in log has no
/// meaningful order, so the program must canonicalize it; the tensor
/// sorts its entries and the head reads only ordered sets and exact
/// counts, so the trained model is bitwise the same for every seed.
fn shuffled(mut log: Vec<CheckIn>, seed: u64) -> Vec<CheckIn> {
    let mut rng = crate::SplitMix(seed ^ 0x5eed_1095);
    for i in (1..log.len()).rev() {
        log.swap(i, rng.below(i as u64 + 1) as usize);
    }
    log
}

/// Generate the fixture, split it, and build the trainer (tensor plus
/// Hausdorff head).
pub fn setup(spec: &TrainSpec, seed: u64, tr: &Tracer) -> Prepared {
    let data = tr.span("data.generate", || spec.fixture.generate());
    let split = tr.span("data.split", || {
        train_test_split(&data.checkins, data.n_users, 0.8, SPLIT_SEED)
    });
    let train = shuffled(split.train, seed);
    let trainer = tr.span("trainer.new", || {
        TcssTrainer::new(&data, &train, Granularity::Month, spec.config.clone())
    });
    Prepared {
        data,
        train,
        test: split.test,
        trainer,
    }
}

/// Transport and recovery figures of one distributed session.
#[derive(Debug, Clone, Default)]
pub struct DistFigures {
    pub respawns: u32,
    pub epochs_dispatched: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub max_worker_busy_ns: u64,
}

pub struct Session {
    pub first_epoch_s: f64,
    /// Hypervisor steal from the training call to the first epoch.
    pub first_epoch_steal: f64,
    /// Mean wall time per epoch over each head cycle (`hausdorff_every`
    /// consecutive epochs, starting after the first epoch), one sample
    /// per cycle, gated by the cycle's steal: the head runs in every
    /// cycle exactly once, so the samples are not bimodal.
    pub cycle_epoch_ms: Gated,
    /// Process CPU seconds between the first and last epoch callbacks.
    pub cpu_s: f64,
    pub digest: u64,
    pub model: TcssModel,
    pub dist: Option<DistFigures>,
    /// Why the session is not a valid run, if it is not.
    pub fault: Option<String>,
}

pub fn model_digest(m: &TcssModel) -> u64 {
    let mut bytes = Vec::new();
    for part in [m.u1.as_slice(), m.u2.as_slice(), m.u3.as_slice(), &m.h] {
        for v in part {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// One timed training session from a fresh model. `None` when the
/// trainer returned an error (reported on stderr).
pub fn session(spec: &TrainSpec, p: &Prepared, tr: &Tracer) -> Option<Session> {
    let epochs = p.trainer.config.epochs;
    let cycle = p.trainer.config.hausdorff_every;
    let mut stamps: Vec<(usize, Instant)> = Vec::with_capacity(epochs);
    // Steal readings at the training call and at every cycle boundary.
    let mut steals = Vec::with_capacity(epochs / cycle + 2);
    let mut cpu = (0.0, 0.0);
    let traced = tr.enabled();
    steals.push(cpu_steal());
    let mut on_epoch = |ctx: tcss_core::TrainContext| {
        stamps.push((ctx.epoch, Instant::now()));
        if (stamps.len() - 1).is_multiple_of(cycle) {
            steals.push(cpu_steal());
        }
        if traced {
            let now = process_cpu_s();
            if stamps.len() == 1 {
                cpu.0 = now;
            }
            cpu.1 = now;
        }
    };
    let span = tr.begin("train.session");
    let t_call = Instant::now();
    let outcome = match spec.config.workers {
        None => p
            .trainer
            .train_with_checkpoints(&mut on_epoch)
            .map(|r| (r.model, r.rollbacks, None)),
        Some(workers) => {
            let exe = std::env::current_exe().expect("own executable path");
            let dist = DistConfig {
                worker_threads: Some(1),
                worker_args: vec!["dist-worker".into()],
                socket_dir: Some(PathBuf::from(OUT_DIR)),
                tail_shard: true,
                ..DistConfig::new(workers, exe)
            };
            // `train_distributed` does not apply `TcssConfig::num_threads`:
            // the coordinator's parallel regions would run on every CPU.
            // Apply it, so the coordinator runs the one thread its config
            // names; two threads made spectral init slower (560–900 ms
            // against 400–460 ms) and noisier.
            tcss_linalg::set_num_threads(spec.config.num_threads);
            p.trainer.train_distributed(&dist, &mut on_epoch).map(|r| {
                let figures = DistFigures {
                    respawns: r.respawns,
                    epochs_dispatched: r.epochs_dispatched,
                    bytes_sent: r.bytes_sent,
                    bytes_received: r.bytes_received,
                    max_worker_busy_ns: r.worker_busy_ns.iter().copied().max().unwrap_or(0),
                };
                (r.report.model, r.report.rollbacks, Some(figures))
            })
        }
    };
    tr.end(span);
    let (model, rollbacks, dist) = match outcome {
        Ok(v) => v,
        Err(e) => {
            eprintln!("training failed: {e}");
            return None;
        }
    };
    for w in stamps.windows(2) {
        let head = p.trainer.config.lambda > 0.0
            && w[1].0.is_multiple_of(p.trainer.config.hausdorff_every)
            && matches!(p.trainer.config.hausdorff, HausdorffVariant::Social);
        tr.record(
            if head {
                "train.epoch_head"
            } else {
                "train.epoch_plain"
            },
            w[0].1,
            w[1].1,
        );
    }

    let mut fault = None;
    if rollbacks != 0 {
        fault = Some(format!("watchdog rolled back {rollbacks} time(s)"));
    }
    let in_order = stamps.iter().enumerate().all(|(i, &(e, _))| i == e);
    if stamps.len() != epochs || !in_order {
        fault = Some(format!(
            "{} epoch callbacks for {epochs} epochs (replays or gaps)",
            stamps.len()
        ));
    }
    if let Some(d) = &dist {
        if d.respawns != 0 || d.epochs_dispatched != epochs as u64 {
            fault = Some(format!(
                "{} respawn(s), {} epochs dispatched for {epochs}",
                d.respawns, d.epochs_dispatched
            ));
        }
    }
    let first = stamps.first()?.1;
    let mut cycle_epoch_ms = Gated::default();
    let bounds: Vec<_> = stamps.iter().step_by(cycle).collect();
    for (i, w) in bounds.windows(2).enumerate() {
        let ms = w[1].1.duration_since(w[0].1).as_secs_f64() * 1e3 / cycle as f64;
        cycle_epoch_ms.push(ms, steal_between(steals[i + 1], steals[i + 2]));
    }
    Some(Session {
        first_epoch_s: first.duration_since(t_call).as_secs_f64(),
        first_epoch_steal: steal_between(steals[0], steals[1]),
        cycle_epoch_ms,
        cpu_s: cpu.1 - cpu.0,
        digest: model_digest(&model),
        model,
        dist,
        fault,
    })
}

/// Hit@10 and MRR under the paper's 100-negative protocol.
pub fn quality(p: &Prepared, score: impl Fn(usize, usize, usize) -> f64) -> (f64, f64) {
    let m = evaluate_ranking(&p.test, p.data.n_pois(), &EvalConfig::default(), score);
    (m.hit_at_k, m.mrr)
}

/// Layer timings taken by calling each layer's public functions directly
/// on this workload's data (traced run only, outside every timed phase).
pub struct Probes {
    pub hausdorff_new_s: f64,
    pub hausdorff_loss_grad_ms: Vec<f64>,
    pub l2_ms: Vec<f64>,
    pub spectral_s: f64,
    pub solve_h_ms: f64,
}

pub fn probes(spec: &TrainSpec, p: &Prepared, model: &TcssModel, tr: &Tracer) -> Probes {
    const CALLS: usize = 7;
    let cfg = &spec.config;
    let timed = |name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tr.span(name, f);
        t.elapsed().as_secs_f64()
    };
    let params = tcss_geo::WeightedHausdorffParams {
        alpha: cfg.alpha,
        epsilon: cfg.epsilon,
        floor: 1e-9,
    };
    let ws = TrainWorkspace::new();
    let mut grads = Grads::zeros(model);
    // The head is probed only where the trainer builds and runs it; on a
    // head-free workload its figures stay 0.
    let has_head = cfg.lambda > 0.0 && !matches!(cfg.hausdorff, HausdorffVariant::None);
    let (hausdorff_new_s, hausdorff_loss_grad_ms) = if has_head {
        let mut head = None;
        let new_s = timed("hausdorff.new", &mut || {
            head = Some(SocialHausdorffHead::new(
                &p.data,
                &p.train,
                cfg.hausdorff,
                params.clone(),
                cfg.hausdorff_candidates,
            ));
        });
        let head = head.expect("built above");
        let loss_grad_ms = (0..CALLS)
            .map(|_| {
                grads.set_zero();
                1e3 * timed("hausdorff.loss_grad", &mut || {
                    std::hint::black_box(head.loss_and_grad_ws(model, &mut grads, cfg.lambda, &ws));
                })
            })
            .collect();
        (new_s, loss_grad_ms)
    } else {
        (0.0, Vec::new())
    };
    let entries = p.trainer.tensor.entries();
    let l2_ms = (0..CALLS)
        .map(|_| {
            grads.set_zero();
            1e3 * timed("loss.l2", &mut || {
                std::hint::black_box(rewritten_loss_and_grad_ws(
                    model,
                    entries,
                    cfg.w_plus,
                    cfg.w_minus,
                    &ws,
                    &mut grads,
                ));
            })
        })
        .collect();
    let mut factors = None;
    let spectral_s = timed("init.spectral", &mut || {
        factors = Some(spectral_init(&p.trainer.tensor, cfg.rank, cfg.seed));
    });
    let (u1, u2, u3) = factors.expect("computed above");
    let solve_h_ms = median(
        &(0..CALLS)
            .map(|_| {
                1e3 * timed("init.solve_h", &mut || {
                    std::hint::black_box(solve_h(
                        &p.trainer.tensor,
                        &u1,
                        &u2,
                        &u3,
                        cfg.w_plus,
                        cfg.w_minus,
                    ));
                })
            })
            .collect::<Vec<_>>(),
    );
    Probes {
        hausdorff_new_s,
        hausdorff_loss_grad_ms,
        l2_ms,
        spectral_s,
        solve_h_ms,
    }
}
