//! TCSS hyperparameters and the ablation variant switches of Table II.

use std::path::PathBuf;

/// Embedding initialization method (§IV-A and the Table II ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitMethod {
    /// The paper's spectral method: top-r eigenvectors of the off-diagonal
    /// mode Gram matrices (Eq 4).
    Spectral,
    /// Naive uniform random initialization (the CP/Tucker default).
    Random,
    /// One-hot-derived initialization: NCF-style index encoding flattened
    /// into `r` dimensions (row `i` activates coordinate `i mod r`) plus
    /// small noise to break ties.
    OneHot,
}

/// How the least-squares head `L₂` is computed (§IV-D and Table II/IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossStrategy {
    /// The paper's method: whole-data loss rewritten as Eq 15,
    /// `O(nnz·r + (I+J+K)r²)` per epoch.
    WholeDataRewritten,
    /// Whole-data loss computed naively as Eq 14, `O(I·J·K·r)` per epoch.
    /// Only used by the Table IV timing comparison and equivalence tests.
    WholeDataNaive,
    /// Classic negative sampling: per epoch, sample as many unobserved
    /// entries as there are positives and fit squared error on the union.
    NegativeSampling,
}

/// Which Hausdorff regularizer (if any) is used for `L₁` (§IV-C, Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HausdorffVariant {
    /// The paper's social Hausdorff distance: `N(vᵢ)` = POIs visited by
    /// friends, entropy-weighted (Eq 12).
    Social,
    /// Ablation: `N(vᵢ)` = POIs visited by the user themself.
    SelfHausdorff,
    /// Ablation: no `L₁`; at prediction time, discard POIs farther than
    /// `zero_out_sigma · d_max` from the user's nearest visited POI.
    ZeroOut,
    /// Ablation: no `L₁` at all (λ = 0 row of Table II).
    None,
}

/// Full TCSS configuration. `Default` reproduces the paper's §V-D settings
/// (adapted where the paper's value is GPU-scale: see field docs).
#[derive(Debug, Clone)]
pub struct TcssConfig {
    /// Tensor rank / embedding length `r` (paper default: 10).
    pub rank: usize,
    /// Positive-entry weight `w₊`. The paper's default is 0.99; our
    /// synthetic tensors are denser, which moves the optimum to 0.95
    /// (Table III / Fig 8 sweep this).
    pub w_plus: f64,
    /// Unlabeled-entry weight `w₋` (paper: 0.01; see [`TcssConfig::w_plus`]).
    pub w_minus: f64,
    /// Social-Hausdorff weight `λ`. The head normalizes POI distances by
    /// `d_max`, so values here correspond to the paper's raw-kilometre λ
    /// times the map extent (≈1200 km): our 240 ≈ their 0.2; Fig 11 sweeps
    /// this.
    pub lambda: f64,
    /// Generalized-mean exponent `α` (paper default: −1).
    pub alpha: f64,
    /// Division guard `ε` (paper default: 1e-6).
    pub epsilon: f64,
    /// Adam learning rate. The paper uses 0.001 for GPU-scale training over
    /// hundreds of epochs; our default 0.05 converges in ~250 epochs at
    /// laptop scale (the optimizer and loss are unchanged).
    pub learning_rate: f64,
    /// Adam weight decay (paper default: 0.1 at lr 1e-3; at our larger
    /// learning rate any nonzero decay measurably hurts, so the default is
    /// 0 and the Gram term of Eq 15 provides the shrinkage).
    pub weight_decay: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Embedding initialization.
    pub init: InitMethod,
    /// `L₂` computation strategy.
    pub loss: LossStrategy,
    /// `L₁` variant.
    pub hausdorff: HausdorffVariant,
    /// Optional cap on the social-Hausdorff candidate set `S(vᵢ)`:
    /// `None` uses all POIs (exact, fine at laptop scale); `Some(p)` keeps
    /// the `p` POIs with highest predicted visit probability.
    pub hausdorff_candidates: Option<usize>,
    /// Zero-out ablation threshold as a fraction of `d_max` (paper: 1%).
    pub zero_out_sigma: f64,
    /// RNG seed (negative sampling, random init).
    pub seed: u64,
    /// How often (in epochs) to refresh the `L₁` gradient. 1 = every epoch.
    /// The head is the most expensive term; values >1 trade fidelity for
    /// speed and are only used by the large parameter sweeps.
    pub hausdorff_every: usize,
    /// Worker threads for the parallel loss/Hausdorff/linalg kernels.
    /// `None` defers to the `TCSS_NUM_THREADS` environment variable and
    /// then to the machine's available parallelism. Thanks to the
    /// deterministic-reduction contract in `tcss_linalg::parallel`, this
    /// knob changes wall-clock time only — never a single bit of output.
    pub num_threads: Option<usize>,
    /// Worker **processes** for mode-sharded distributed training
    /// ([`crate::dist`]). `None` (the default) trains in-process;
    /// `Some(w)` shards the entry-chunk grid across `w` coordinator-spawned
    /// worker processes. Like [`TcssConfig::num_threads`], this is a pure
    /// runtime knob: the process-count-parity contract guarantees the
    /// trained model is bit-identical for any worker count (and it is
    /// excluded from the checkpoint fingerprint, so single-process and
    /// distributed runs can resume each other's checkpoints).
    pub workers: Option<usize>,
    /// Directory where every training entry point (in-process or
    /// distributed) writes its rolling checkpoint file. `None` disables
    /// on-disk checkpoints (the run still keeps its in-memory rollback
    /// state).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint / rollback-snapshot cadence in epochs.
    pub checkpoint_every: usize,
    /// Resume training from this checkpoint file instead of initializing
    /// a fresh model (an error for `TcssTrainer::train_model`, which
    /// starts from the caller's model). The checkpoint's config fingerprint must match this
    /// config (`epochs`, threading and checkpoint policy may differ — see
    /// [`crate::checkpoint::config_fingerprint`]).
    pub resume_from: Option<PathBuf>,
    /// Divergence-watchdog threshold: an epoch whose gradient norm or
    /// joint loss magnitude exceeds this (or is NaN/Inf) is rejected and
    /// rolled back. The default is far above anything a healthy run
    /// produces, so the watchdog never perturbs normal training.
    pub max_grad_norm: f64,
    /// Bounded watchdog retries: after this many rollbacks the run aborts
    /// with [`crate::train::TrainError::Diverged`] instead of looping.
    pub max_retries: u32,
    /// Learning-rate backoff factor applied on each watchdog rollback
    /// (`lr ← lr · lr_backoff`); must lie in `(0, 1)`.
    pub lr_backoff: f64,
}

impl Default for TcssConfig {
    fn default() -> Self {
        TcssConfig {
            rank: 10,
            w_plus: 0.95,
            w_minus: 0.05,
            lambda: 240.0,
            alpha: -1.0,
            epsilon: 1e-6,
            learning_rate: 0.05,
            weight_decay: 0.0,
            epochs: 250,
            init: InitMethod::Spectral,
            loss: LossStrategy::WholeDataRewritten,
            hausdorff: HausdorffVariant::Social,
            hausdorff_candidates: None,
            zero_out_sigma: 0.01,
            seed: 7,
            hausdorff_every: 3,
            num_threads: None,
            workers: None,
            checkpoint_dir: None,
            checkpoint_every: 25,
            resume_from: None,
            max_grad_norm: 1e12,
            max_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

impl TcssConfig {
    /// The full-fledged TCSS of the paper.
    pub fn full() -> Self {
        Self::default()
    }

    /// Table II row: random initialization.
    pub fn ablation_random_init() -> Self {
        TcssConfig {
            init: InitMethod::Random,
            ..Self::default()
        }
    }

    /// Table II row: one-hot initialization.
    pub fn ablation_onehot_init() -> Self {
        TcssConfig {
            init: InitMethod::OneHot,
            ..Self::default()
        }
    }

    /// Table II row: remove `L₁` (λ = 0).
    pub fn ablation_no_l1() -> Self {
        TcssConfig {
            lambda: 0.0,
            hausdorff: HausdorffVariant::None,
            ..Self::default()
        }
    }

    /// Table II row: negative sampling instead of whole-data training.
    pub fn ablation_negative_sampling() -> Self {
        TcssConfig {
            loss: LossStrategy::NegativeSampling,
            ..Self::default()
        }
    }

    /// Table II row: self-Hausdorff (no social influence).
    pub fn ablation_self_hausdorff() -> Self {
        TcssConfig {
            hausdorff: HausdorffVariant::SelfHausdorff,
            ..Self::default()
        }
    }

    /// Table II row: zero-out distance filtering instead of `L₁`.
    pub fn ablation_zero_out() -> Self {
        TcssConfig {
            lambda: 0.0,
            hausdorff: HausdorffVariant::ZeroOut,
            ..Self::default()
        }
    }

    /// Validate every field against its documented domain. Every training
    /// entry point calls this before touching data, so a bad configuration
    /// surfaces as a typed error instead of a panic (or worse, a silently
    /// nonsensical run) deep inside an epoch.
    pub fn validate(&self) -> Result<(), String> {
        fn finite(v: f64, name: &str) -> Result<(), String> {
            if v.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} must be finite, got {v}"))
            }
        }
        if self.rank == 0 {
            return Err("rank must be at least 1".into());
        }
        finite(self.w_plus, "w_plus")?;
        finite(self.w_minus, "w_minus")?;
        if self.w_plus <= 0.0 || self.w_plus > 1.0 {
            return Err(format!("w_plus must lie in (0, 1], got {}", self.w_plus));
        }
        if !(0.0..=1.0).contains(&self.w_minus) {
            return Err(format!("w_minus must lie in [0, 1], got {}", self.w_minus));
        }
        finite(self.lambda, "lambda")?;
        if self.lambda < 0.0 {
            return Err(format!("lambda must be non-negative, got {}", self.lambda));
        }
        finite(self.alpha, "alpha")?;
        if self.alpha == 0.0 {
            return Err("alpha must be nonzero (the generalized mean of Eq 11 \
                        is undefined at 0)"
                .into());
        }
        if self.epsilon.is_nan() || self.epsilon <= 0.0 || self.epsilon.is_infinite() {
            return Err(format!("epsilon must be positive, got {}", self.epsilon));
        }
        if self.learning_rate.is_nan()
            || self.learning_rate <= 0.0
            || self.learning_rate.is_infinite()
        {
            return Err(format!(
                "learning_rate must be positive, got {}",
                self.learning_rate
            ));
        }
        finite(self.weight_decay, "weight_decay")?;
        if self.weight_decay < 0.0 {
            return Err(format!(
                "weight_decay must be non-negative, got {}",
                self.weight_decay
            ));
        }
        if self.zero_out_sigma.is_nan()
            || self.zero_out_sigma <= 0.0
            || self.zero_out_sigma.is_infinite()
        {
            return Err(format!(
                "zero_out_sigma must be positive, got {}",
                self.zero_out_sigma
            ));
        }
        if self.hausdorff_candidates == Some(0) {
            return Err("hausdorff_candidates must be at least 1 when set".into());
        }
        if self.hausdorff_every == 0 {
            return Err("hausdorff_every must be at least 1".into());
        }
        if self.num_threads == Some(0) {
            return Err("num_threads must be at least 1 when set".into());
        }
        if self.workers == Some(0) {
            return Err("workers must be at least 1 when set".into());
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be at least 1".into());
        }
        if let Some(w) = self.workers {
            if w > 1 && self.epochs > 0 && self.checkpoint_every > self.epochs {
                return Err(format!(
                    "workers is set ({w}) but checkpoint_every ({}) exceeds epochs ({}): \
                     distributed training recovers from worker loss by rolling back to \
                     the last checkpoint cadence, so at least one must land within the \
                     run — lower checkpoint_every or raise epochs",
                    self.checkpoint_every, self.epochs
                ));
            }
        }
        if self.max_grad_norm.is_nan() || self.max_grad_norm <= 0.0 {
            return Err(format!(
                "max_grad_norm must be positive, got {}",
                self.max_grad_norm
            ));
        }
        if self.lr_backoff.is_nan() || self.lr_backoff <= 0.0 || self.lr_backoff >= 1.0 {
            return Err(format!(
                "lr_backoff must lie in (0, 1), got {}",
                self.lr_backoff
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_hyperparameters() {
        let c = TcssConfig::default();
        assert_eq!(c.rank, 10);
        assert_eq!(c.w_plus, 0.95);
        assert_eq!(c.w_minus, 0.05);
        assert_eq!(c.lambda, 240.0);
        assert_eq!(c.alpha, -1.0);
        assert_eq!(c.epsilon, 1e-6);
        assert_eq!(c.init, InitMethod::Spectral);
        assert_eq!(c.loss, LossStrategy::WholeDataRewritten);
        assert_eq!(c.hausdorff, HausdorffVariant::Social);
    }

    #[test]
    fn ablations_flip_exactly_their_switch() {
        assert_eq!(TcssConfig::ablation_random_init().init, InitMethod::Random);
        assert_eq!(TcssConfig::ablation_no_l1().lambda, 0.0);
        assert_eq!(
            TcssConfig::ablation_negative_sampling().loss,
            LossStrategy::NegativeSampling
        );
        assert_eq!(
            TcssConfig::ablation_self_hausdorff().hausdorff,
            HausdorffVariant::SelfHausdorff
        );
        assert_eq!(
            TcssConfig::ablation_zero_out().hausdorff,
            HausdorffVariant::ZeroOut
        );
        // Everything else stays at the paper defaults.
        assert_eq!(TcssConfig::ablation_random_init().rank, 10);
    }

    #[test]
    fn default_and_all_ablations_validate() {
        for cfg in [
            TcssConfig::default(),
            TcssConfig::ablation_random_init(),
            TcssConfig::ablation_onehot_init(),
            TcssConfig::ablation_no_l1(),
            TcssConfig::ablation_negative_sampling(),
            TcssConfig::ablation_self_hausdorff(),
            TcssConfig::ablation_zero_out(),
        ] {
            cfg.validate().expect("stock config must validate");
        }
    }

    /// One rejection case per validated field; the error message must name
    /// the offending field so CLI users can act on it.
    #[test]
    fn validate_rejects_each_bad_field() {
        let base = TcssConfig::default;
        let cases: Vec<(TcssConfig, &str)> = vec![
            (TcssConfig { rank: 0, ..base() }, "rank"),
            (
                TcssConfig {
                    w_plus: 0.0,
                    ..base()
                },
                "w_plus",
            ),
            (
                TcssConfig {
                    w_plus: f64::NAN,
                    ..base()
                },
                "w_plus",
            ),
            (
                TcssConfig {
                    w_minus: -0.1,
                    ..base()
                },
                "w_minus",
            ),
            (
                TcssConfig {
                    lambda: -1.0,
                    ..base()
                },
                "lambda",
            ),
            (
                TcssConfig {
                    lambda: f64::INFINITY,
                    ..base()
                },
                "lambda",
            ),
            (
                TcssConfig {
                    alpha: 0.0,
                    ..base()
                },
                "alpha",
            ),
            (
                TcssConfig {
                    epsilon: 0.0,
                    ..base()
                },
                "epsilon",
            ),
            (
                TcssConfig {
                    learning_rate: 0.0,
                    ..base()
                },
                "learning_rate",
            ),
            (
                TcssConfig {
                    learning_rate: f64::NAN,
                    ..base()
                },
                "learning_rate",
            ),
            (
                TcssConfig {
                    weight_decay: -0.5,
                    ..base()
                },
                "weight_decay",
            ),
            (
                TcssConfig {
                    zero_out_sigma: 0.0,
                    ..base()
                },
                "zero_out_sigma",
            ),
            (
                TcssConfig {
                    hausdorff_candidates: Some(0),
                    ..base()
                },
                "hausdorff_candidates",
            ),
            (
                TcssConfig {
                    hausdorff_every: 0,
                    ..base()
                },
                "hausdorff_every",
            ),
            (
                TcssConfig {
                    num_threads: Some(0),
                    ..base()
                },
                "num_threads",
            ),
            (
                TcssConfig {
                    workers: Some(0),
                    ..base()
                },
                "workers",
            ),
            (
                TcssConfig {
                    checkpoint_every: 0,
                    ..base()
                },
                "checkpoint_every",
            ),
            (
                TcssConfig {
                    workers: Some(2),
                    epochs: 10,
                    checkpoint_every: 50,
                    ..base()
                },
                "checkpoint_every",
            ),
            (
                TcssConfig {
                    max_grad_norm: 0.0,
                    ..base()
                },
                "max_grad_norm",
            ),
            (
                TcssConfig {
                    lr_backoff: 1.0,
                    ..base()
                },
                "lr_backoff",
            ),
            (
                TcssConfig {
                    lr_backoff: 0.0,
                    ..base()
                },
                "lr_backoff",
            ),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().expect_err(field);
            assert!(err.contains(field), "error {err:?} should mention {field}");
        }
    }

    #[test]
    fn watchdog_defaults_are_conservative() {
        let c = TcssConfig::default();
        // The explosion threshold must sit far above healthy gradient norms
        // so the watchdog never fires on a normal run.
        assert!(c.max_grad_norm >= 1e9);
        assert!(c.max_retries >= 1);
        assert!(c.lr_backoff > 0.0 && c.lr_backoff < 1.0);
        assert!(c.checkpoint_every >= 1);
        assert!(c.checkpoint_dir.is_none() && c.resume_from.is_none());
    }
}
