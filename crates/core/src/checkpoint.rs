//! Versioned training checkpoints with atomic persistence.
//!
//! A checkpoint captures everything [`crate::train::TcssTrainer::train_with_checkpoints`]
//! needs to continue a run **bit-for-bit identically** to one that was
//! never interrupted: the model factors, the full Adam state (`m`, `v`,
//! `t`), the watchdog's learning-rate scale and retry counter, the epoch
//! cursor, the RNG base seed (per-epoch streams are re-derived as
//! `seed + epoch`, so the seed plus the epoch cursor fully determines
//! every future random draw), and a fingerprint of the training-relevant
//! configuration.
//!
//! The on-disk format is `model_io`'s binary layout under the
//! `TCSSCKPT` magic: the header, six `u64` scalars (epoch, Adam `t`,
//! `lr_scale` bits, retries, seed, config fingerprint), the model's
//! `h`/U¹/U²/U³ sections, then `m` and `v` in the same order, and the
//! trailing `tcss_core::frame::checksum` over every byte before it.
//!
//! Writes are atomic: the payload goes to a sibling `*.tmp`, is fsynced,
//! and is renamed over the target (the directory is fsynced too), so a
//! crash mid-write can never leave a half-written checkpoint under the
//! canonical name. Loads verify the checksum over the raw bytes *before*
//! decoding, so any truncation or bit flip is reported as corruption —
//! never loaded as a silently wrong state.

use crate::config::{HausdorffVariant, InitMethod, LossStrategy, TcssConfig};
use crate::frame::{checksum, put_u64, Reader};
use crate::loss::Grads;
use crate::model::TcssModel;
use crate::model_io::{
    begin, body, put_sections, read_verified, seal_and_write, sections, ModelIoError,
    CHECKPOINT_MAGIC,
};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// File name of the rolling checkpoint inside `TcssConfig::checkpoint_dir`.
pub const CHECKPOINT_FILE: &str = "checkpoint.tcssck";

/// A complete snapshot of an in-flight training run.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Next epoch to execute (all epochs `< epoch` are already applied).
    pub epoch: usize,
    /// Adam's bias-correction step counter `t`.
    pub adam_t: u64,
    /// Watchdog learning-rate multiplier (1.0 until a rollback happens).
    pub lr_scale: f64,
    /// Watchdog rollbacks consumed so far.
    pub retries: u32,
    /// RNG base seed; epoch `e`'s sampling stream is seeded `seed + e`.
    pub seed: u64,
    /// Fingerprint of the training-relevant config fields.
    pub fingerprint: u64,
    /// Model parameters.
    pub model: TcssModel,
    /// Adam first moment, model-shaped.
    pub m: Grads,
    /// Adam second moment, model-shaped.
    pub v: Grads,
}

/// Write `contents` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory. A crash at any
/// point leaves either the old file or the new file — never a mix. The
/// one writer of models, checkpoints and serving snapshots.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            // Persist the rename itself. Directory fsync is a no-op on
            // some filesystems; opening it read-only is portable enough.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Config fingerprint
// ---------------------------------------------------------------------

/// Hash the config fields that determine the *trajectory* of training.
///
/// Deliberately excluded: `epochs` (resuming may extend a run),
/// `num_threads` and `workers` (pure speed knobs under the deterministic-
/// reduction and process-count-parity contracts — single-process and
/// distributed runs resume each other's checkpoints), and the
/// checkpoint/watchdog policy fields (they decide when
/// snapshots happen and how failures are handled, not what the numbers
/// are). Everything else participates bit-exactly via `f64::to_bits`.
pub fn config_fingerprint(cfg: &TcssConfig) -> u64 {
    let mut s = String::new();
    let _ = write!(
        s,
        "rank={} w+={:016x} w-={:016x} lambda={:016x} alpha={:016x} \
         eps={:016x} lr={:016x} wd={:016x} init={} loss={} hd={} cand={:?} \
         sigma={:016x} seed={} every={}",
        cfg.rank,
        cfg.w_plus.to_bits(),
        cfg.w_minus.to_bits(),
        cfg.lambda.to_bits(),
        cfg.alpha.to_bits(),
        cfg.epsilon.to_bits(),
        cfg.learning_rate.to_bits(),
        cfg.weight_decay.to_bits(),
        match cfg.init {
            InitMethod::Spectral => "spectral",
            InitMethod::Random => "random",
            InitMethod::OneHot => "onehot",
        },
        match cfg.loss {
            LossStrategy::WholeDataRewritten => "rewritten",
            LossStrategy::NegativeSampling => "negsamp",
        },
        match cfg.hausdorff {
            HausdorffVariant::Social => "social",
            HausdorffVariant::SelfHausdorff => "self",
            HausdorffVariant::ZeroOut => "zeroout",
            HausdorffVariant::None => "none",
        },
        cfg.hausdorff_candidates,
        cfg.zero_out_sigma.to_bits(),
        cfg.seed,
        cfg.hausdorff_every,
    );
    checksum(s.as_bytes())
}

// ---------------------------------------------------------------------
// Save / load, in `model_io`'s binary codec
// ---------------------------------------------------------------------

/// Bytes of the six `u64` scalars after the header.
const SCALARS: usize = 6 * 8;

/// Serialize and atomically persist a checkpoint.
pub fn save_checkpoint(ck: &Checkpoint, path: &Path) -> Result<(), ModelIoError> {
    let mut out = begin(CHECKPOINT_MAGIC, &ck.model, SCALARS, 3);
    for x in [
        ck.epoch as u64,
        ck.adam_t,
        ck.lr_scale.to_bits(),
        u64::from(ck.retries),
        ck.seed,
        ck.fingerprint,
    ] {
        put_u64(&mut out, x);
    }
    let model = &ck.model;
    put_sections(&mut out, &model.h, [&model.u1, &model.u2, &model.u3]);
    for g in [&ck.m, &ck.v] {
        put_sections(&mut out, &g.h, [&g.u1, &g.u2, &g.u3]);
    }
    seal_and_write(out, path)
}

/// Load and checksum-verify a checkpoint written by [`save_checkpoint`].
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, ModelIoError> {
    let (bytes, dims) = read_verified(path, CHECKPOINT_MAGIC, SCALARS, 3)?;
    let [i, j, k, r] = dims;
    if r == 0 || r > i.min(j).min(k) {
        return Err(ModelIoError::Parse(format!(
            "rank {r} inconsistent with dims {i}×{j}×{k}"
        )));
    }
    let mut rd = Reader::new(body(&bytes));
    let overflow = |what: &str| ModelIoError::Parse(format!("{what} out of range"));
    let epoch = usize::try_from(rd.u64("epoch")?).map_err(|_| overflow("epoch"))?;
    let adam_t = rd.u64("adam-t")?;
    let lr_scale = rd.f64("lr-scale")?;
    let retries = u32::try_from(rd.u64("retries")?).map_err(|_| overflow("retries"))?;
    let seed = rd.u64("seed")?;
    let fingerprint = rd.u64("config fingerprint")?;
    let (h, [u1, u2, u3]) = sections(&mut rd, dims)?;
    let model = TcssModel { u1, u2, u3, h };
    let mut grads = || -> Result<Grads, ModelIoError> {
        let (h, [u1, u2, u3]) = sections(&mut rd, dims)?;
        Ok(Grads { u1, u2, u3, h })
    };
    let (m, v) = (grads()?, grads()?);
    rd.done()?;
    if !lr_scale.is_finite() || lr_scale <= 0.0 || lr_scale > 1.0 {
        return Err(ModelIoError::Parse(format!(
            "lr-scale {lr_scale} outside (0, 1]"
        )));
    }
    Ok(Checkpoint {
        epoch,
        adam_t,
        lr_scale,
        retries,
        seed,
        fingerprint,
        model,
        m,
        v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tcss_checkpoint_io");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn sample_checkpoint() -> Checkpoint {
        let (u1, u2, u3) = random_init((5, 7, 4), 3, 42);
        let mut model = TcssModel::new(u1, u2, u3);
        model.h = vec![1.5, -0.25, 1e-17];
        let mut m = Grads::zeros(&model);
        let mut v = Grads::zeros(&model);
        // Populate with values spanning magnitudes (Adam's v is tiny).
        for (idx, x) in m.u1.as_mut_slice().iter_mut().enumerate() {
            *x = (idx as f64 - 3.0) * 1e-3;
        }
        for (idx, x) in v.u2.as_mut_slice().iter_mut().enumerate() {
            *x = (idx as f64) * 1e-12;
        }
        m.h[0] = -7.25e-5;
        v.h[2] = 3.0e-18;
        Checkpoint {
            epoch: 17,
            adam_t: 17,
            lr_scale: 0.25,
            retries: 2,
            seed: 99,
            fingerprint: config_fingerprint(&TcssConfig::default()),
            model,
            m,
            v,
        }
    }

    fn bits(ck: &Checkpoint) -> Vec<u64> {
        ck.model
            .u1
            .as_slice()
            .iter()
            .chain(ck.model.u2.as_slice())
            .chain(ck.model.u3.as_slice())
            .chain(&ck.model.h)
            .chain(ck.m.u1.as_slice())
            .chain(ck.m.u2.as_slice())
            .chain(ck.m.u3.as_slice())
            .chain(&ck.m.h)
            .chain(ck.v.u1.as_slice())
            .chain(ck.v.u2.as_slice())
            .chain(ck.v.u3.as_slice())
            .chain(&ck.v.h)
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample_checkpoint();
        let path = tmp("roundtrip.tcssck");
        save_checkpoint(&ck, &path).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded.epoch, ck.epoch);
        assert_eq!(loaded.adam_t, ck.adam_t);
        assert_eq!(loaded.lr_scale.to_bits(), ck.lr_scale.to_bits());
        assert_eq!(loaded.retries, ck.retries);
        assert_eq!(loaded.seed, ck.seed);
        assert_eq!(loaded.fingerprint, ck.fingerprint);
        assert_eq!(bits(&loaded), bits(&ck));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_f64_bit_pattern_class_roundtrips() {
        let mut ck = sample_checkpoint();
        let specials = [
            -0.0,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff4_0000_0bad_f00d), // NaN with a payload
        ];
        for block in [
            ck.model.u1.as_mut_slice(),
            ck.m.u3.as_mut_slice(),
            ck.v.u2.as_mut_slice(),
        ] {
            block[..specials.len()].copy_from_slice(&specials);
        }
        ck.model.h[1] = -0.0;
        ck.v.h[0] = f64::from_bits(1);
        let path = tmp("specials.tcssck");
        save_checkpoint(&ck, &path).unwrap();
        assert_eq!(bits(&load_checkpoint(&path).unwrap()), bits(&ck));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_text_checkpoint_is_a_typed_error() {
        let path = tmp("legacy.tcssck");
        std::fs::write(&path, "tcss-checkpoint v1 5 7 4 3\nepoch: 17\n").unwrap();
        match load_checkpoint(&path) {
            Err(ModelIoError::LegacyText(format)) => assert_eq!(format, "tcss-checkpoint v1"),
            other => panic!("expected LegacyText, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_file_is_not_a_checkpoint() {
        let path = tmp("kind.tcssck");
        crate::model_io::save_model(&sample_checkpoint().model, &path).unwrap();
        let err = load_checkpoint(&path).unwrap_err().to_string();
        assert!(err.contains("found a model file"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let ck = sample_checkpoint();
        let path = tmp("atomic.tcssck");
        save_checkpoint(&ck, &path).unwrap();
        save_checkpoint(&ck, &path).unwrap(); // overwrite is fine
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        assert!(
            !std::path::PathBuf::from(os).exists(),
            "temp file must be renamed away"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let ck = sample_checkpoint();
        let path = tmp("truncated.tcssck");
        save_checkpoint(&ck, &path).unwrap();
        let text = std::fs::read(&path).unwrap();
        for keep in [0, 1, text.len() / 3, text.len() - 1] {
            std::fs::write(&path, &text[..keep]).unwrap();
            assert!(
                load_checkpoint(&path).is_err(),
                "truncation to {keep} bytes must be detected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_detected() {
        let ck = sample_checkpoint();
        let path = tmp("flipped.tcssck");
        save_checkpoint(&ck, &path).unwrap();
        let text = std::fs::read(&path).unwrap();
        for offset in [0, 10, text.len() / 2, text.len() - 2] {
            let mut bad = text.clone();
            bad[offset] ^= 0x04;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                load_checkpoint(&path).is_err(),
                "bit flip at byte {offset} must be detected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_error_reports_byte_offset() {
        let ck = sample_checkpoint();
        let path = tmp("offsets.tcssck");
        save_checkpoint(&ck, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint(&path).unwrap_err().to_string();
        assert!(err.contains("byte"), "error should give offsets: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_ignores_runtime_knobs_only() {
        let base = TcssConfig::default();
        let fp = config_fingerprint(&base);
        // Runtime policy knobs do not change the fingerprint…
        let mut same = base.clone();
        same.epochs = 999;
        same.num_threads = Some(4);
        same.workers = Some(4);
        same.checkpoint_every = 1;
        same.max_retries = 9;
        assert_eq!(config_fingerprint(&same), fp);
        // …but every trajectory-relevant field does.
        let variants = [
            TcssConfig {
                rank: 9,
                ..base.clone()
            },
            TcssConfig {
                learning_rate: 0.01,
                ..base.clone()
            },
            TcssConfig {
                seed: 8,
                ..base.clone()
            },
            TcssConfig {
                lambda: 1.0,
                ..base.clone()
            },
            TcssConfig {
                hausdorff_every: 1,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(config_fingerprint(&v), fp, "{v:?}");
        }
    }
}
