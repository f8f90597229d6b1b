//! Joint training: `L = λ·L₁ + L₂` with Adam (paper Eq 20, §V-D).
//!
//! One run driver serves every entry point. A `RunState` holds the run:
//! the model and its Adam state, the epoch cursor, the divergence
//! watchdog's learning-rate scale and retry count, and the last good
//! state, which is both the rollback target and what the checkpoint file
//! holds. Two loops drive it, both over the one epoch kernel: the
//! entry-chunk evaluator and Gram-row builder of [`crate::loss`], and
//! one `EpochTail` from `TcssTrainer::epoch_tail`:
//!
//! * [`TcssTrainer::train_with_faults`] — the in-process loop, behind
//!   [`TcssTrainer::train_with_checkpoints`] and the model-returning
//!   wrappers [`TcssTrainer::train`], [`TcssTrainer::train_detailed`] and
//!   [`TcssTrainer::train_model`]. It writes atomic versioned checkpoints
//!   (see [`crate::checkpoint`]), resumes from `TcssConfig::resume_from`
//!   bit for bit, and rolls a non-finite or exploding epoch back to the
//!   last good state with learning-rate backoff instead of emitting
//!   garbage factors.
//! * [`TcssTrainer::train_distributed`] — the same run over worker
//!   processes ([`crate::dist`]), with the same bits.

use crate::checkpoint::{
    config_fingerprint, load_checkpoint, save_checkpoint, Checkpoint, CHECKPOINT_FILE,
};
use crate::config::{HausdorffVariant, InitMethod, LossStrategy, TcssConfig};
use crate::dist::DistError;
use crate::fault::{poison, FaultPlan};
use crate::hausdorff::SocialHausdorffHead;
use crate::init::{onehot_init, random_init, spectral_init};
use crate::loss::{add_gram_rows, entry_loss_ws, whole_data_gram_mats, EntryKernel, Grads};
use crate::model::TcssModel;
use crate::model_io::ModelIoError;
use crate::workspace::TrainWorkspace;
use std::path::PathBuf;
use tcss_data::{CheckIn, Dataset, Granularity};
use tcss_geo::WeightedHausdorffParams;
use tcss_linalg::{kernels, Matrix};
use tcss_sparse::SparseTensor3;

/// Typed failures from the fault-tolerant training runtime.
#[derive(Debug)]
pub enum TrainError {
    /// A config or dimension precondition failed before training started.
    InvalidConfig(String),
    /// The divergence watchdog exhausted its retry budget.
    Diverged {
        /// Epoch at which the final rejected update was produced.
        epoch: usize,
        /// Rollbacks consumed (equals `TcssConfig::max_retries` + 1 hits).
        retries: u32,
        /// What tripped the watchdog (NaN loss, gradient explosion, …).
        detail: String,
    },
    /// Reading or writing a checkpoint failed (I/O or corruption).
    Checkpoint(ModelIoError),
    /// A simulated crash injected by a [`FaultPlan`] (tests only).
    InjectedCrash {
        /// Epoch the crash pre-empted.
        epoch: usize,
    },
    /// The distributed-training runtime failed (worker spawn/loss beyond
    /// the respawn budget, transport corruption, protocol violation).
    Dist(DistError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TrainError::Diverged {
                epoch,
                retries,
                detail,
            } => write!(
                f,
                "training diverged at epoch {epoch} after {retries} rollback(s): {detail}"
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            TrainError::InjectedCrash { epoch } => {
                write!(f, "injected crash before epoch {epoch}")
            }
            TrainError::Dist(e) => write!(f, "distributed training error: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<ModelIoError> for TrainError {
    fn from(e: ModelIoError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<DistError> for TrainError {
    fn from(e: DistError) -> Self {
        TrainError::Dist(e)
    }
}

/// Outcome of a fault-tolerant training run.
#[derive(Debug)]
pub struct TrainReport {
    /// The trained model.
    pub model: TcssModel,
    /// Epoch the run started from (0 for a fresh run, the checkpoint's
    /// cursor when resumed).
    pub start_epoch: usize,
    /// Watchdog rollbacks consumed over the whole run (including any
    /// recorded in a resumed checkpoint).
    pub rollbacks: u32,
    /// Final learning-rate multiplier after backoff (1.0 if the watchdog
    /// never fired).
    pub lr_scale: f64,
}

/// Adam state over a [`Grads`]-shaped parameter space. `pub(crate)` so the
/// distributed coordinator ([`crate::dist`]) can run the exact same
/// optimizer over worker-gathered gradients.
pub(crate) struct AdamState {
    pub(crate) m: Grads,
    pub(crate) v: Grads,
    pub(crate) t: u64,
}

impl AdamState {
    pub(crate) fn step(
        &mut self,
        model: &mut TcssModel,
        grads: &Grads,
        lr: f64,
        weight_decay: f64,
    ) {
        self.t += 1;
        let p = kernels::AdamParams::for_step(lr, weight_decay, self.t);
        kernels::adam_update(
            model.u1.as_mut_slice(),
            grads.u1.as_slice(),
            self.m.u1.as_mut_slice(),
            self.v.u1.as_mut_slice(),
            &p,
        );
        kernels::adam_update(
            model.u2.as_mut_slice(),
            grads.u2.as_slice(),
            self.m.u2.as_mut_slice(),
            self.v.u2.as_mut_slice(),
            &p,
        );
        kernels::adam_update(
            model.u3.as_mut_slice(),
            grads.u3.as_slice(),
            self.m.u3.as_mut_slice(),
            self.v.u3.as_mut_slice(),
            &p,
        );
        kernels::adam_update(&mut model.h, &grads.h, &mut self.m.h, &mut self.v.h, &p);
    }
}

/// `dst ← src` over the four same-shaped parameter blocks of a model or
/// an Adam moment, in place: rollback and commit move whole states
/// without allocating.
macro_rules! copy_blocks {
    ($dst:expr, $src:expr) => {{
        $dst.u1.as_mut_slice().copy_from_slice($src.u1.as_slice());
        $dst.u2.as_mut_slice().copy_from_slice($src.u2.as_slice());
        $dst.u3.as_mut_slice().copy_from_slice($src.u3.as_slice());
        $dst.h.copy_from_slice(&$src.h);
    }};
}

/// One training run's state, driven by the in-process loop
/// ([`TcssTrainer::train_with_faults`]) and the distributed one
/// (`dist::sharded`) alike, so both start, roll back and checkpoint the
/// same way.
///
/// `last_good` is the state accepted at the latest cadence point (or the
/// start). It is the watchdog's and worker-loss recovery's rollback
/// target, and with `checkpoint_dir` set it is exactly what
/// `checkpoint.tcssck` holds: [`RunState::commit`] refreshes the one and
/// saves it as the other.
pub(crate) struct RunState<'a> {
    cfg: &'a TcssConfig,
    pub(crate) model: TcssModel,
    pub(crate) adam: AdamState,
    /// Next epoch to run.
    pub(crate) epoch: usize,
    /// Watchdog learning-rate multiplier.
    pub(crate) lr_scale: f64,
    /// Watchdog rollbacks so far.
    pub(crate) retries: u32,
    start_epoch: usize,
    last_good: Checkpoint,
    /// `checkpoint_dir/checkpoint.tcssck`, when checkpointing.
    path: Option<PathBuf>,
}

impl<'a> RunState<'a> {
    /// Validate `trainer`'s config, pin its thread count, and start the
    /// run: from the checkpoint `resume_from` names, else from the
    /// caller's `seed` model, else from a fresh [`TcssTrainer::try_init_model`].
    /// Creates the checkpoint directory.
    pub(crate) fn start(
        trainer: &'a TcssTrainer,
        seed: Option<TcssModel>,
    ) -> Result<Self, TrainError> {
        let cfg = &trainer.config;
        trainer.validate()?;
        if cfg.num_threads.is_some() {
            // Pin the worker count for the loss/Hausdorff/linalg kernels.
            // Deterministic reduction means this is purely a speed knob.
            tcss_linalg::set_num_threads(cfg.num_threads);
        }
        let fingerprint = config_fingerprint(cfg);
        let last_good = match (&cfg.resume_from, seed) {
            (Some(path), Some(_)) => {
                return Err(TrainError::InvalidConfig(format!(
                    "resume_from ({}) cannot resume a run that starts from a \
                     caller-supplied model",
                    path.display()
                )))
            }
            (Some(path), None) => {
                let ck = load_checkpoint(path)?;
                if ck.fingerprint != fingerprint {
                    return Err(TrainError::InvalidConfig(format!(
                        "checkpoint {} was written under a different \
                         training configuration (fingerprint {:016x}, \
                         expected {fingerprint:016x}); refusing to mix \
                         trajectories",
                        path.display(),
                        ck.fingerprint
                    )));
                }
                ck
            }
            (None, seed) => {
                let model = match seed {
                    Some(model) => model,
                    None => trainer.try_init_model()?,
                };
                Checkpoint {
                    epoch: 0,
                    adam_t: 0,
                    lr_scale: 1.0,
                    retries: 0,
                    seed: cfg.seed,
                    fingerprint,
                    m: Grads::zeros(&model),
                    v: Grads::zeros(&model),
                    model,
                }
            }
        };
        let shape = (last_good.model.dims(), last_good.model.rank());
        if shape != (trainer.tensor.dims(), cfg.rank) {
            return Err(TrainError::InvalidConfig(format!(
                "starting model dims {:?} rank {} do not match the training \
                 tensor {:?} at rank {}",
                shape.0,
                shape.1,
                trainer.tensor.dims(),
                cfg.rank
            )));
        }
        if let Some(dir) = &cfg.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(ModelIoError::Fs)?;
        }
        Ok(RunState {
            cfg,
            model: last_good.model.clone(),
            adam: AdamState {
                m: last_good.m.clone(),
                v: last_good.v.clone(),
                t: last_good.adam_t,
            },
            epoch: last_good.epoch,
            lr_scale: last_good.lr_scale,
            retries: last_good.retries,
            start_epoch: last_good.epoch,
            path: cfg.checkpoint_dir.as_ref().map(|d| d.join(CHECKPOINT_FILE)),
            last_good,
        })
    }

    /// The effective learning rate: `learning_rate · lr_scale`.
    pub(crate) fn lr(&self) -> f64 {
        self.cfg.learning_rate * self.lr_scale
    }

    /// Does the epoch at the cursor end on a cadence point — every
    /// `checkpoint_every` epochs, and the last one?
    pub(crate) fn due(&self) -> bool {
        let done = self.epoch + 1;
        done.is_multiple_of(self.cfg.checkpoint_every) || done == self.cfg.epochs
    }

    /// The epoch at the cursor was accepted: move the cursor past it and,
    /// on a cadence point, [`RunState::commit`].
    pub(crate) fn advance(&mut self) -> Result<(), TrainError> {
        let due = self.due();
        self.epoch += 1;
        if due {
            self.commit()?;
        }
        Ok(())
    }

    /// The watchdog rejected the epoch at the cursor: spend one retry
    /// ([`TrainError::Diverged`] once `max_retries` are spent), back the
    /// learning rate off by `lr_backoff`, and roll back to `last_good`.
    pub(crate) fn reject(&mut self, detail: String) -> Result<(), TrainError> {
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            return Err(TrainError::Diverged {
                epoch: self.epoch,
                retries: self.retries,
                detail,
            });
        }
        self.lr_scale *= self.cfg.lr_backoff;
        self.restore();
        Ok(())
    }

    /// Roll the model, Adam state and epoch back to `last_good`, keeping
    /// the watchdog's `lr_scale` and `retries` (worker loss is not the
    /// model's fault).
    pub(crate) fn restore(&mut self) {
        let good = &self.last_good;
        copy_blocks!(self.model, good.model);
        copy_blocks!(self.adam.m, good.m);
        copy_blocks!(self.adam.v, good.v);
        self.adam.t = good.adam_t;
        self.epoch = good.epoch;
    }

    /// Cadence point: if every parameter is finite (finite-but-huge
    /// gradients can overflow the Adam update), make the current state
    /// `last_good` and, when checkpointing, save it.
    fn commit(&mut self) -> Result<(), TrainError> {
        if !model_is_finite(&self.model) {
            return Ok(());
        }
        let good = &mut self.last_good;
        copy_blocks!(good.model, self.model);
        copy_blocks!(good.m, self.adam.m);
        copy_blocks!(good.v, self.adam.v);
        good.adam_t = self.adam.t;
        good.epoch = self.epoch;
        good.lr_scale = self.lr_scale;
        good.retries = self.retries;
        if let Some(path) = &self.path {
            save_checkpoint(good, path)?;
        }
        Ok(())
    }

    /// End the run.
    pub(crate) fn finish(self) -> TrainReport {
        TrainReport {
            model: self.model,
            start_epoch: self.start_epoch,
            rollbacks: self.retries,
            lr_scale: self.lr_scale,
        }
    }
}

/// One epoch's gradient tail ([`TcssTrainer::epoch_tail`]), in one of
/// three shapes. The in-process loop and the distributed coordinator both
/// match on it, so they add the same tail the same way.
pub(crate) enum EpochTail {
    /// No Gram term and no head this epoch: nothing is added. `x + 0.0`
    /// is not always a bitwise no-op (`-0.0 + 0.0 = +0.0`), so "inactive"
    /// has to mean *no add*, identically in-process and distributed.
    Inactive,
    /// The Gram term alone: its three `r × r` D matrices, whose rows
    /// `2·U^f·D^f` the caller adds with `loss::add_gram_rows` (every row
    /// in-process, the owned ones on a worker). Only `tail.h` is written.
    Gram([Matrix; 3]),
    /// A head epoch, carrying `L₁`: the whole tail (Gram rows, when the
    /// loss has them, plus the head) is in `tail`, to add densely.
    Dense(f64),
}

/// Everything needed to train a TCSS model on one dataset split.
pub struct TcssTrainer {
    /// Training tensor (binary).
    pub tensor: SparseTensor3,
    /// Head for `L₁`, present for the Social/SelfHausdorff variants (the
    /// distributed coordinator evaluates it locally, through
    /// [`TcssTrainer::epoch_tail`]; it is not sharded).
    head: Option<SocialHausdorffHead>,
    /// Per-user allowed-POI mask for the ZeroOut ablation (`None` for other
    /// variants): POIs farther than `σ·d_max` from the user's nearest
    /// *visited* POI are excluded at recommendation time.
    zero_out_allowed: Option<Vec<Vec<bool>>>,
    /// Configuration.
    pub config: TcssConfig,
}

/// Context handed to per-epoch callbacks.
#[derive(Debug, Clone, Copy)]
pub struct TrainContext {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// `L₂` value this epoch (rewritten form, constant omitted).
    pub l2: f64,
    /// `L₁` value this epoch (0 when the head is disabled).
    pub l1: f64,
    /// Bytes the distributed coordinator wrote to worker sockets during
    /// this epoch (0 for in-process training).
    pub bytes_sent: u64,
    /// Bytes the distributed coordinator read from worker sockets during
    /// this epoch (0 for in-process training).
    pub bytes_received: u64,
}

impl TrainContext {
    /// An in-process epoch context (no socket traffic).
    pub(crate) fn local(epoch: usize, l2: f64, l1: f64) -> Self {
        TrainContext {
            epoch,
            l2,
            l1,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }
}

impl TcssTrainer {
    /// Assemble a trainer from a dataset, its training check-ins and a
    /// granularity.
    pub fn new(
        data: &Dataset,
        train: &[CheckIn],
        granularity: Granularity,
        config: TcssConfig,
    ) -> Self {
        let tensor = data.tensor_from(train, granularity);
        let head = match config.hausdorff {
            HausdorffVariant::Social | HausdorffVariant::SelfHausdorff => {
                Some(SocialHausdorffHead::new(
                    data,
                    train,
                    config.hausdorff,
                    WeightedHausdorffParams {
                        alpha: config.alpha,
                        epsilon: config.epsilon,
                        floor: 1e-9,
                    },
                    config.hausdorff_candidates,
                ))
            }
            _ => None,
        };
        let zero_out_allowed = (config.hausdorff == HausdorffVariant::ZeroOut).then(|| {
            let dist = data.distance_matrix();
            let sigma_km = config.zero_out_sigma * dist.max_distance();
            let mut visited: Vec<Vec<usize>> = vec![Vec::new(); data.n_users];
            for c in train {
                visited[c.user].push(c.poi);
            }
            (0..data.n_users)
                .map(|u| {
                    (0..data.n_pois())
                        .map(|j| {
                            dist.min_to_set(j, &visited[u])
                                .is_none_or(|d| d <= sigma_km)
                        })
                        .collect()
                })
                .collect()
        });
        TcssTrainer {
            tensor,
            head,
            zero_out_allowed,
            config,
        }
    }

    /// Assemble a trainer over a bare tensor, with no LBSN side
    /// information: the Hausdorff head and the zero-out mask are disabled
    /// regardless of `config.hausdorff` (there is no social graph or
    /// distance matrix to build them from). Used by the parity/property
    /// suites and benches that train on synthetic tensors directly.
    pub fn from_tensor(tensor: SparseTensor3, config: TcssConfig) -> Self {
        TcssTrainer {
            tensor,
            head: None,
            zero_out_allowed: None,
            config,
        }
    }

    /// Validate the configuration against this trainer's tensor: every
    /// field-domain check of [`TcssConfig::validate`] plus the rank/dims
    /// cap the paper notes (r ≤ K at month granularity).
    pub fn validate(&self) -> Result<(), TrainError> {
        self.config.validate().map_err(TrainError::InvalidConfig)?;
        let dims = self.tensor.dims();
        let r = self.config.rank;
        let max_r = dims.0.min(dims.1).min(dims.2);
        if r > max_r {
            return Err(TrainError::InvalidConfig(format!(
                "rank {r} exceeds the smallest tensor dimension {max_r} \
                 (the paper notes the same cap: r ≤ K at month granularity)"
            )));
        }
        Ok(())
    }

    /// Fallible [`TcssTrainer::init_model`]: initialize the factor
    /// matrices per the configured method, reporting bad config/dimension
    /// combinations as a typed error instead of a panic.
    pub fn try_init_model(&self) -> Result<TcssModel, TrainError> {
        self.validate()?;
        let dims = self.tensor.dims();
        let r = self.config.rank;
        let (u1, u2, u3) = match self.config.init {
            InitMethod::Spectral => spectral_init(&self.tensor, r, self.config.seed),
            InitMethod::Random => random_init(dims, r, self.config.seed),
            InitMethod::OneHot => onehot_init(dims, r, self.config.seed),
        };
        // Note: `init::solve_h` can put `h` at the exact L₂ optimum for the
        // spectral factors, but empirically the h = 1 (CP-like) start lands
        // in a better basin after full training, so all variants share it.
        Ok(TcssModel::new(u1, u2, u3))
    }

    /// Initialize the factor matrices per the configured method.
    ///
    /// Panics on an invalid configuration; use
    /// [`TcssTrainer::try_init_model`] for a `Result`.
    pub fn init_model(&self) -> TcssModel {
        self.try_init_model().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Train a freshly-initialized model (or resume `resume_from`). The
    /// callback observes each epoch with the joint loss `λ·L₁ + L₂`.
    ///
    /// Panics with the typed [`TrainError`] where
    /// [`TcssTrainer::train_with_checkpoints`] returns one.
    pub fn train(&self, mut on_epoch: impl FnMut(usize, f64)) -> TcssModel {
        self.train_detailed(|ctx| on_epoch(ctx.epoch, ctx.l1 * self.config.lambda + ctx.l2))
    }

    /// [`TcssTrainer::train`] with a detailed per-epoch callback.
    pub fn train_detailed(&self, on_epoch: impl FnMut(TrainContext)) -> TcssModel {
        self.train_with_checkpoints(on_epoch)
            .unwrap_or_else(|e| panic!("{e}"))
            .model
    }

    /// Train an externally-initialized model in place (used to compare
    /// initializations under identical loops): the run starts at epoch 0
    /// from `model` with fresh Adam moments. A `resume_from` here is an
    /// [`TrainError::InvalidConfig`].
    ///
    /// Panics with the typed [`TrainError`] where
    /// [`TcssTrainer::train_with_checkpoints`] returns one.
    pub fn train_model(&self, model: &mut TcssModel, on_epoch: &mut impl FnMut(TrainContext)) {
        let report = RunState::start(self, Some(model.clone()))
            .and_then(|run| self.drive(run, &FaultPlan::none(), on_epoch))
            .unwrap_or_else(|e| panic!("{e}"));
        *model = report.model;
    }

    /// One epoch's losses and joint gradient — the in-process form of the
    /// epoch kernel the distributed loop runs too. Zeroes and refills the
    /// caller's `grads` buffer (and the `tail` and `loss_terms` scratch);
    /// all other scratch comes from `ws`, so steady-state epochs allocate
    /// nothing model-sized.
    ///
    /// The gradient is assembled in the **canonical two-phase order**
    /// tail-sharded workers replay on their owned rows, which is what
    /// makes their bits equal these: the entry-chunk deltas scatter into
    /// `grads` first (ascending global chunk order), then the epoch tail
    /// ([`TcssTrainer::epoch_tail`]) adds on once per element. Its recorded
    /// Gram loss terms fold into `l2` in order after the chunk losses.
    fn epoch_grads(
        &self,
        model: &TcssModel,
        epoch: usize,
        ws: &TrainWorkspace,
        grads: &mut Grads,
        tail: &mut Grads,
        loss_terms: &mut Vec<f64>,
    ) -> (f64, f64) {
        let cfg = &self.config;
        grads.set_zero();
        let kernel = EntryKernel::for_epoch(cfg.loss, &self.tensor, cfg.seed, epoch as u64);
        let mut l2 = entry_loss_ws(model, kernel, cfg.w_plus, cfg.w_minus, ws, grads);
        let l1 = match self.epoch_tail(model, epoch, ws, tail, loss_terms) {
            EpochTail::Inactive => 0.0,
            EpochTail::Gram(d) => {
                add_gram_rows(&d, model.factors(), grads.factors_mut());
                kernels::axpy(1.0, &tail.h, &mut grads.h);
                0.0
            }
            EpochTail::Dense(l1) => {
                grads.add_scaled(1.0, tail);
                l1
            }
        };
        for &term in loss_terms.iter() {
            l2 += term;
        }
        (l2, l1)
    }

    /// Is the Hausdorff head due at `epoch`? It runs every
    /// `hausdorff_every`-th epoch when it exists and `λ > 0`.
    fn head_due(&self, epoch: usize) -> bool {
        self.head.is_some()
            && self.config.lambda > 0.0
            && epoch.is_multiple_of(self.config.hausdorff_every)
    }

    /// The epoch's gradient tail: the whole-data Gram term of Eq 15 (not
    /// for negative sampling) and the Hausdorff head when it is due. See
    /// [`EpochTail`] for where each shape leaves its gradient.
    ///
    /// The Gram loss contributions are *recorded* into `loss_terms`, not
    /// added into a loss: the tail-sharded coordinator computes the tail
    /// concurrently with worker chunk evaluation, before the chunk-loss
    /// fold exists. Every caller then replays `l2 += term` in order, the
    /// add sequence of `loss::rewritten_loss_and_grad_ws`, so the
    /// in-process and distributed losses cannot differ by a bit.
    pub(crate) fn epoch_tail(
        &self,
        model: &TcssModel,
        epoch: usize,
        ws: &TrainWorkspace,
        tail: &mut Grads,
        loss_terms: &mut Vec<f64>,
    ) -> EpochTail {
        let cfg = &self.config;
        loss_terms.clear();
        let head = self.head.as_ref().filter(|_| self.head_due(epoch));
        if head.is_some() {
            tail.set_zero();
        } else {
            tail.h.fill(0.0);
        }
        let d = (cfg.loss == LossStrategy::WholeDataRewritten).then(|| {
            whole_data_gram_mats(model, cfg.w_minus, &mut |t| loss_terms.push(t), &mut tail.h)
        });
        match (d, head) {
            (None, None) => EpochTail::Inactive,
            (Some(d), None) => EpochTail::Gram(d),
            (d, Some(head)) => {
                if let Some(d) = d {
                    add_gram_rows(&d, model.factors(), tail.factors_mut());
                }
                EpochTail::Dense(head.loss_and_grad_ws(model, tail, cfg.lambda, ws))
            }
        }
    }

    /// Fault-tolerant training: checkpoints, resume, and the divergence
    /// watchdog. See [`TcssTrainer::train_with_faults`]; this entry point
    /// simply injects no faults.
    ///
    /// Guarantees, verified by `tests/fault_injection.rs`:
    ///
    /// * Checkpointing never perturbs training: the model is bit-for-bit
    ///   the same with or without `checkpoint_dir`, at any
    ///   `checkpoint_every`.
    /// * A run killed at any epoch and resumed from its last checkpoint
    ///   produces a model bit-for-bit identical to an uninterrupted run,
    ///   at any thread count.
    /// * A non-finite or exploding epoch never reaches the factors: the
    ///   watchdog rolls back to the last good state, scales the learning
    ///   rate by `lr_backoff`, and after `max_retries` rollbacks returns
    ///   [`TrainError::Diverged`] instead of silently-garbage factors.
    pub fn train_with_checkpoints(
        &self,
        on_epoch: impl FnMut(TrainContext),
    ) -> Result<TrainReport, TrainError> {
        self.train_with_faults(&FaultPlan::none(), on_epoch)
    }

    /// [`TcssTrainer::train_with_checkpoints`] with a deterministic
    /// [`FaultPlan`] — the fault-injection harness entry point used by the
    /// recovery test suites. Production callers pass [`FaultPlan::none`]
    /// (or call `train_with_checkpoints`).
    ///
    /// The per-epoch callback may observe the same epoch index more than
    /// once: after a watchdog rollback, epochs replay from the last good
    /// snapshot.
    pub fn train_with_faults(
        &self,
        faults: &FaultPlan,
        mut on_epoch: impl FnMut(TrainContext),
    ) -> Result<TrainReport, TrainError> {
        let run = RunState::start(self, None)?;
        self.drive(run, faults, &mut on_epoch)
    }

    /// The in-process epoch loop over a started run.
    fn drive(
        &self,
        mut run: RunState<'_>,
        faults: &FaultPlan,
        on_epoch: &mut impl FnMut(TrainContext),
    ) -> Result<TrainReport, TrainError> {
        let cfg = &self.config;
        let ws = TrainWorkspace::new();
        let mut grads = Grads::zeros(&run.model);
        let mut tail = Grads::zeros(&run.model);
        let mut loss_terms = Vec::new();
        while run.epoch < cfg.epochs {
            let epoch = run.epoch;
            if faults.take_crash(epoch) {
                return Err(TrainError::InjectedCrash { epoch });
            }
            let (l2, l1) = self.epoch_grads(
                &run.model,
                epoch,
                &ws,
                &mut grads,
                &mut tail,
                &mut loss_terms,
            );
            if faults.take_poison(epoch) {
                poison(&mut grads);
            }
            if let Some(detail) = divergence_trouble(cfg, l2, l1, grads.norm()) {
                run.reject(detail)?;
                continue;
            }
            let lr = run.lr();
            run.adam.step(&mut run.model, &grads, lr, cfg.weight_decay);
            on_epoch(TrainContext::local(epoch, l2, l1));
            run.advance()?;
        }
        Ok(run.finish())
    }

    /// Score function for ranking, applying the ZeroOut mask when that
    /// ablation is active (masked POIs score `−∞`).
    pub fn score_fn<'a>(
        &'a self,
        model: &'a TcssModel,
    ) -> impl Fn(usize, usize, usize) -> f64 + 'a {
        move |i, j, k| {
            if let Some(mask) = &self.zero_out_allowed {
                if !mask[i][j] {
                    return f64::NEG_INFINITY;
                }
            }
            model.predict(i, j, k)
        }
    }
}

/// The divergence watchdog's verdict on one epoch's losses and gradient
/// norm: `Some(detail)` if the update must be rejected and rolled back.
/// Shared by the in-process and distributed ([`crate::dist`]) loops so
/// both reject exactly the same epochs. Takes the gradient norm
/// pre-computed ([`Grads::norm`]'s row-decomposable order) because the
/// tail-sharded coordinator folds it from worker-shipped per-row dots —
/// the full gradient never materializes in one process there.
pub(crate) fn divergence_trouble(cfg: &TcssConfig, l2: f64, l1: f64, gnorm: f64) -> Option<String> {
    let joint = cfg.lambda.mul_add(l1, l2);
    if !joint.is_finite() {
        Some(format!("non-finite loss (L₂ {l2}, L₁ {l1})"))
    } else if !gnorm.is_finite() {
        Some(format!("non-finite gradient norm {gnorm}"))
    } else if gnorm > cfg.max_grad_norm {
        Some(format!(
            "gradient norm {gnorm:.3e} exceeds max_grad_norm {:.3e}",
            cfg.max_grad_norm
        ))
    } else if joint.abs() > cfg.max_grad_norm {
        Some(format!(
            "loss magnitude {:.3e} exceeds max_grad_norm {:.3e}",
            joint.abs(),
            cfg.max_grad_norm
        ))
    } else {
        None
    }
}

/// Every parameter finite? Guards the rollback target: a state that
/// already went non-finite (finite-but-huge gradients can overflow the
/// Adam update) must never become a snapshot or a checkpoint.
fn model_is_finite(model: &TcssModel) -> bool {
    model.u1.as_slice().iter().all(|v| v.is_finite())
        && model.u2.as_slice().iter().all(|v| v.is_finite())
        && model.u3.as_slice().iter().all(|v| v.is_finite())
        && model.h.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcss_data::{train_test_split, SynthPreset};

    fn small_setup(config: TcssConfig) -> (Dataset, Vec<CheckIn>, TcssTrainer) {
        let data = SynthPreset::Gmu5k.generate();
        let split = train_test_split(&data.checkins, data.n_users, 0.8, 1);
        let trainer = TcssTrainer::new(&data, &split.train, Granularity::Month, config);
        (data, split.train, trainer)
    }

    #[test]
    fn loss_decreases_over_training() {
        let cfg = TcssConfig {
            epochs: 15,
            ..TcssConfig::default()
        };
        let (_, _, trainer) = small_setup(cfg);
        let mut losses = Vec::new();
        let _model = trainer.train_detailed(|ctx| losses.push(ctx.l2 + 0.1 * ctx.l1));
        assert_eq!(losses.len(), 15);
        assert!(
            losses[14] < losses[0],
            "loss should decrease: {} → {}",
            losses[0],
            losses[14]
        );
    }

    #[test]
    fn trained_model_separates_positives_from_negatives() {
        let cfg = TcssConfig {
            epochs: 40,
            ..TcssConfig::default()
        };
        let (_, train, trainer) = small_setup(cfg);
        let model = trainer.train(|_, _| {});
        // Average score on train positives must exceed random cells.
        let mut pos = 0.0;
        let mut n_pos = 0.0;
        for c in train.iter().take(300) {
            pos += model.predict(c.user, c.poi, c.month as usize);
            n_pos += 1.0;
        }
        pos /= n_pos;
        let (i_dim, j_dim, k_dim) = trainer.tensor.dims();
        let mut neg = 0.0;
        let mut n_neg = 0.0;
        for s in 0..300 {
            let (i, j, k) = ((s * 13) % i_dim, (s * 7) % j_dim, (s * 5) % k_dim);
            if !trainer.tensor.contains(i, j, k) {
                neg += model.predict(i, j, k);
                n_neg += 1.0;
            }
        }
        neg /= n_neg;
        assert!(
            pos > neg + 0.1,
            "positives {pos} should clearly exceed negatives {neg}"
        );
    }

    #[test]
    fn zero_out_masks_far_pois() {
        let cfg = TcssConfig {
            epochs: 2,
            ..TcssConfig::ablation_zero_out()
        };
        let (_, _, trainer) = small_setup(cfg);
        assert!(trainer.zero_out_allowed.is_some());
        let model = trainer.train(|_, _| {});
        let score = trainer.score_fn(&model);
        // At least one (user, poi) pair must be masked to −∞ and at least
        // one allowed.
        let mask = trainer.zero_out_allowed.as_ref().unwrap();
        let mut masked = 0;
        let mut allowed = 0;
        for (u, row) in mask.iter().enumerate() {
            for (j, &ok) in row.iter().enumerate() {
                if ok {
                    allowed += 1;
                    assert!(score(u, j, 0).is_finite());
                } else {
                    masked += 1;
                    assert_eq!(score(u, j, 0), f64::NEG_INFINITY);
                }
            }
        }
        assert!(masked > 0, "zero-out mask masked nothing");
        assert!(allowed > 0);
    }

    #[test]
    fn negative_sampling_strategy_trains() {
        let cfg = TcssConfig {
            epochs: 10,
            ..TcssConfig::ablation_negative_sampling()
        };
        let (_, _, trainer) = small_setup(cfg);
        let mut first = f64::NAN;
        let mut last = f64::NAN;
        trainer.train_detailed(|ctx| {
            if ctx.epoch == 0 {
                first = ctx.l2;
            }
            last = ctx.l2;
        });
        assert!(
            last < first,
            "negative-sampling loss should fall: {first} → {last}"
        );
    }

    #[test]
    fn oversized_rank_is_rejected() {
        let cfg = TcssConfig {
            rank: 13, // > K = 12
            ..TcssConfig::default()
        };
        let (_, _, trainer) = small_setup(cfg);
        let err = trainer.try_init_model().unwrap_err();
        assert!(
            matches!(err, TrainError::InvalidConfig(_)),
            "expected InvalidConfig, got {err:?}"
        );
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn invalid_config_is_rejected_before_training() {
        let cfg = TcssConfig {
            learning_rate: -1.0,
            ..TcssConfig::default()
        };
        let (_, _, trainer) = small_setup(cfg);
        let err = trainer
            .train_with_checkpoints(|_| {})
            .expect_err("negative learning rate must be rejected");
        assert!(err.to_string().contains("learning_rate"), "{err}");
    }

    #[test]
    fn checkpointed_run_matches_plain_run_bitwise() {
        let cfg = TcssConfig {
            epochs: 8,
            rank: 4,
            ..TcssConfig::default()
        };
        let (_, _, trainer) = small_setup(cfg);
        let plain = trainer.train(|_, _| {});
        let report = trainer.train_with_checkpoints(|_| {}).expect("trains");
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.lr_scale, 1.0);
        let a: Vec<u64> = plain.u1.as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = report
            .model
            .u1
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(a, b, "fault-tolerant path must not perturb training");
    }

    #[test]
    #[should_panic(expected = "training diverged")]
    fn train_panics_with_the_typed_divergence_error() {
        let cfg = TcssConfig {
            epochs: 3,
            max_grad_norm: 1e-300,
            ..TcssConfig::default()
        };
        let (_, _, trainer) = small_setup(cfg);
        trainer.train(|_, _| {});
    }

    #[test]
    fn train_writes_the_checkpoint_it_is_asked_for() {
        let dir = std::env::temp_dir().join(format!("tcss_train_ckpt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = TcssConfig {
            epochs: 2,
            rank: 4,
            checkpoint_dir: Some(dir.clone()),
            ..TcssConfig::default()
        };
        let (_, _, trainer) = small_setup(cfg);
        let model = trainer.train(|_, _| {});
        let ck = load_checkpoint(&dir.join(CHECKPOINT_FILE)).expect("train wrote a checkpoint");
        assert_eq!(ck.epoch, 2);
        assert_eq!(ck.model.u1, model.u1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "resume_from")]
    fn train_model_refuses_resume_from() {
        let cfg = TcssConfig {
            epochs: 1,
            rank: 4,
            resume_from: Some(std::path::PathBuf::from("unused.tcssck")),
            ..TcssConfig::default()
        };
        let (_, _, trainer) = small_setup(cfg);
        let mut model = trainer.init_model();
        trainer.train_model(&mut model, &mut |_| {});
    }

    #[test]
    fn hausdorff_every_skips_epochs() {
        let cfg = TcssConfig {
            epochs: 4,
            hausdorff_every: 2,
            ..TcssConfig::default()
        };
        let (_, _, trainer) = small_setup(cfg);
        let mut l1s = Vec::new();
        trainer.train_detailed(|ctx| l1s.push(ctx.l1));
        assert!(l1s[0] > 0.0);
        assert_eq!(l1s[1], 0.0);
        assert!(l1s[2] > 0.0);
        assert_eq!(l1s[3], 0.0);
    }
}
