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
//! The on-disk format follows `model_io`'s self-describing text layout —
//! floats at 17 significant digits, which round-trips `f64` losslessly:
//!
//! ```text
//! tcss-checkpoint v1 I J K r
//! epoch: <next epoch to run>
//! adam-t: <step count>
//! lr-scale: <watchdog LR multiplier>
//! retries: <watchdog rollbacks so far>
//! seed: <RNG base seed>
//! config: <16-hex-digit fingerprint>
//! h: <r floats>            (then u1/u2/u3 rows as in model files)
//! m-h: …  m-u1 …           (Adam first moment, same shape as the model)
//! v-h: …  v-u1 …           (Adam second moment)
//! checksum: <16-hex-digit FNV-1a over every preceding byte>
//! ```
//!
//! Writes are atomic: the payload goes to a sibling `*.tmp`, is fsynced,
//! and is renamed over the target (the directory is fsynced too), so a
//! crash mid-write can never leave a half-written checkpoint under the
//! canonical name. Loads verify the checksum over the raw bytes *before*
//! parsing, so any truncation or bit flip is reported as corruption —
//! never loaded as a silently wrong state.

use crate::config::{HausdorffVariant, InitMethod, LossStrategy, TcssConfig};
use crate::digest::fnv1a64;
use crate::loss::Grads;
use crate::model::TcssModel;
use crate::model_io::ModelIoError;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use tcss_linalg::Matrix;

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

// ---------------------------------------------------------------------
// Integrity primitives (shared with model_io; the digest itself is the
// canonical [`crate::digest::fnv1a64`])
// ---------------------------------------------------------------------

/// Append a `checksum: <hex>` trailer covering everything written so far.
pub(crate) fn append_checksum(out: &mut String) {
    let digest = fnv1a64(out.as_bytes());
    let _ = writeln!(out, "checksum: {digest:016x}");
}

/// Verify the `checksum:` trailer and return the payload it covers.
///
/// Corruption is reported as [`ModelIoError::Parse`] with byte-offset
/// context so an operator can see *where* the file went bad.
pub(crate) fn verify_checksum(text: &str) -> Result<&str, ModelIoError> {
    // Strict framing: a checksummed file always ends "checksum: <hex>\n".
    // Requiring the final newline means *every* proper-prefix truncation
    // is detectable, including one that only eats the last byte.
    let trimmed = text.strip_suffix('\n').ok_or_else(|| {
        ModelIoError::Parse(format!(
            "missing final newline at byte {} (file truncated?)",
            text.len()
        ))
    })?;
    let start = match trimmed.rfind('\n') {
        Some(pos) => pos + 1,
        None => 0,
    };
    let last_line = &trimmed[start..];
    let stored_hex = last_line.strip_prefix("checksum: ").ok_or_else(|| {
        ModelIoError::Parse(format!(
            "missing checksum trailer: expected a final 'checksum: <hex>' \
             line at byte {start}, found {last_line:?} (file truncated?)"
        ))
    })?;
    let stored = u64::from_str_radix(stored_hex.trim(), 16).map_err(|_| {
        ModelIoError::Parse(format!(
            "unreadable checksum {stored_hex:?} at byte {start}"
        ))
    })?;
    let payload = &text[..start];
    let computed = fnv1a64(payload.as_bytes());
    if computed != stored {
        return Err(ModelIoError::Parse(format!(
            "checksum mismatch over payload bytes 0..{start}: stored \
             {stored:016x}, computed {computed:016x} — the file is corrupt"
        )));
    }
    Ok(payload)
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
            LossStrategy::WholeDataNaive => "naive",
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
    fnv1a64(s.as_bytes())
}

// ---------------------------------------------------------------------
// Save / load. The text float codec below is shared with `model_io`.
// ---------------------------------------------------------------------

/// One `{tag} {row}: <floats>` line per row of `m`.
pub(crate) fn write_matrix(out: &mut String, tag: &str, m: &Matrix) {
    for i in 0..m.rows() {
        let _ = write!(out, "{tag} {i}:");
        for v in m.row(i) {
            // 17 significant digits: lossless f64 round-trip.
            let _ = write!(out, " {v:.17e}");
        }
        out.push('\n');
    }
}

/// One `{tag}: <floats>` line.
pub(crate) fn write_vector(out: &mut String, tag: &str, v: &[f64]) {
    let _ = write!(out, "{tag}:");
    for x in v {
        let _ = write!(out, " {x:.17e}");
    }
    out.push('\n');
}

fn write_grads_shaped(out: &mut String, prefix: &str, g: &Grads) {
    write_vector(out, &format!("{prefix}-h"), &g.h);
    write_matrix(out, &format!("{prefix}-u1"), &g.u1);
    write_matrix(out, &format!("{prefix}-u2"), &g.u2);
    write_matrix(out, &format!("{prefix}-u3"), &g.u3);
}

/// Serialize and atomically persist a checkpoint.
pub fn save_checkpoint(ck: &Checkpoint, path: &Path) -> Result<(), ModelIoError> {
    let (i, j, k) = ck.model.dims();
    let r = ck.model.rank();
    let mut out = format!("tcss-checkpoint v1 {i} {j} {k} {r}\n");
    let _ = writeln!(out, "epoch: {}", ck.epoch);
    let _ = writeln!(out, "adam-t: {}", ck.adam_t);
    let _ = writeln!(out, "lr-scale: {:.17e}", ck.lr_scale);
    let _ = writeln!(out, "retries: {}", ck.retries);
    let _ = writeln!(out, "seed: {}", ck.seed);
    let _ = writeln!(out, "config: {:016x}", ck.fingerprint);
    write_vector(&mut out, "h", &ck.model.h);
    write_matrix(&mut out, "u1", &ck.model.u1);
    write_matrix(&mut out, "u2", &ck.model.u2);
    write_matrix(&mut out, "u3", &ck.model.u3);
    write_grads_shaped(&mut out, "m", &ck.m);
    write_grads_shaped(&mut out, "v", &ck.v);
    append_checksum(&mut out);
    atomic_write(path, out.as_bytes())?;
    Ok(())
}

/// Exactly `expect` whitespace-separated floats, or a parse error naming
/// `what`.
fn parse_floats(rest: &str, expect: usize, what: &str) -> Result<Vec<f64>, ModelIoError> {
    let vals: Result<Vec<f64>, _> = rest.split_whitespace().map(str::parse).collect();
    let vals = vals.map_err(|_| ModelIoError::Parse(format!("bad float in {what}")))?;
    if vals.len() != expect {
        return Err(ModelIoError::Parse(format!(
            "{what}: expected {expect} values, got {}",
            vals.len()
        )));
    }
    Ok(vals)
}

/// The `I J K r` of a six-field `<magic> <version> I J K r` header.
pub(crate) fn header_dims(fields: &[&str]) -> Result<[usize; 4], ModelIoError> {
    let mut dims = [0; 4];
    for (d, f) in dims.iter_mut().zip(&fields[2..]) {
        *d = f
            .parse()
            .map_err(|_| ModelIoError::Parse("bad dimensions in header".into()))?;
    }
    Ok(dims)
}

/// Reads the tagged lines [`write_vector`] and [`write_matrix`] write.
pub(crate) struct LineReader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> LineReader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        LineReader {
            lines: text.lines(),
        }
    }

    pub(crate) fn next(&mut self, what: &str) -> Result<&'a str, ModelIoError> {
        self.lines
            .next()
            .ok_or_else(|| ModelIoError::Parse(format!("missing {what}")))
    }

    pub(crate) fn tagged(&mut self, tag: &str, expect: usize) -> Result<Vec<f64>, ModelIoError> {
        let line = self.next(tag)?;
        let prefix = format!("{tag}:");
        let rest = line
            .strip_prefix(&prefix)
            .ok_or_else(|| ModelIoError::Parse(format!("expected {prefix:?}, got {line:?}")))?;
        parse_floats(rest, expect, tag)
    }

    fn tagged_u64(&mut self, tag: &str) -> Result<u64, ModelIoError> {
        let line = self.next(tag)?;
        let prefix = format!("{tag}: ");
        let rest = line
            .strip_prefix(&prefix)
            .ok_or_else(|| ModelIoError::Parse(format!("expected {prefix:?}, got {line:?}")))?;
        rest.trim()
            .parse()
            .map_err(|_| ModelIoError::Parse(format!("bad integer in {tag}: {rest:?}")))
    }

    pub(crate) fn matrix(
        &mut self,
        tag: &str,
        rows: usize,
        cols: usize,
    ) -> Result<Matrix, ModelIoError> {
        let mut m = Matrix::zeros(rows, cols);
        for row in 0..rows {
            let line = self.next(&format!("{tag} row {row}"))?;
            let prefix = format!("{tag} {row}:");
            let rest = line
                .strip_prefix(&prefix)
                .ok_or_else(|| ModelIoError::Parse(format!("expected {prefix:?}, got {line:?}")))?;
            let vals = parse_floats(rest, cols, tag)?;
            m.row_mut(row).copy_from_slice(&vals);
        }
        Ok(m)
    }

    fn grads_shaped(
        &mut self,
        prefix: &str,
        dims: (usize, usize, usize),
        r: usize,
    ) -> Result<Grads, ModelIoError> {
        let h = self.tagged(&format!("{prefix}-h"), r)?;
        let u1 = self.matrix(&format!("{prefix}-u1"), dims.0, r)?;
        let u2 = self.matrix(&format!("{prefix}-u2"), dims.1, r)?;
        let u3 = self.matrix(&format!("{prefix}-u3"), dims.2, r)?;
        Ok(Grads { u1, u2, u3, h })
    }

    /// Nothing but blank lines may follow the last block.
    pub(crate) fn finish(mut self) -> Result<(), ModelIoError> {
        match self.lines.find(|l| !l.trim().is_empty()) {
            Some(extra) => Err(ModelIoError::Parse(format!(
                "unexpected trailing content: {extra:?}"
            ))),
            None => Ok(()),
        }
    }
}

/// Load and checksum-verify a checkpoint written by [`save_checkpoint`].
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, ModelIoError> {
    let text = std::fs::read_to_string(path)?;
    let payload = verify_checksum(&text)?;
    let mut rd = LineReader::new(payload);
    let header = rd.next("header")?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "tcss-checkpoint" || fields[1] != "v1" {
        return Err(ModelIoError::Parse(format!("bad header {header:?}")));
    }
    let [i, j, k, r] = header_dims(&fields)?;
    if r == 0 || r > i.min(j).min(k) {
        return Err(ModelIoError::Parse(format!(
            "rank {r} inconsistent with dims {i}×{j}×{k}"
        )));
    }

    let epoch = rd.tagged_u64("epoch")? as usize;
    let adam_t = rd.tagged_u64("adam-t")?;
    let lr_scale = rd.tagged("lr-scale", 1)?[0];
    let retries = rd.tagged_u64("retries")? as u32;
    let seed = rd.tagged_u64("seed")?;
    let fp_line = rd.next("config fingerprint")?;
    let fp_hex = fp_line
        .strip_prefix("config: ")
        .ok_or_else(|| ModelIoError::Parse(format!("expected 'config: ', got {fp_line:?}")))?;
    let fingerprint = u64::from_str_radix(fp_hex.trim(), 16)
        .map_err(|_| ModelIoError::Parse(format!("bad config fingerprint {fp_hex:?}")))?;

    let h = rd.tagged("h", r)?;
    let u1 = rd.matrix("u1", i, r)?;
    let u2 = rd.matrix("u2", j, r)?;
    let u3 = rd.matrix("u3", k, r)?;
    let m = rd.grads_shaped("m", (i, j, k), r)?;
    let v = rd.grads_shaped("v", (i, j, k), r)?;
    rd.finish()?;
    if !lr_scale.is_finite() || lr_scale <= 0.0 || lr_scale > 1.0 {
        return Err(ModelIoError::Parse(format!(
            "lr-scale {lr_scale} outside (0, 1]"
        )));
    }

    let mut model = TcssModel::try_new(u1, u2, u3).map_err(ModelIoError::Parse)?;
    model.h = h;
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
