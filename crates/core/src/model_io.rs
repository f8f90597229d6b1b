//! Save / load trained TCSS models, and the one binary codec model files
//! and checkpoints ([`crate::checkpoint`]) share.
//!
//! Both kinds are one little-endian layout: the paper's trained state is
//! four `f64` sections, written as their raw bit patterns, so every value
//! (−0.0, subnormals, ±∞, NaN payloads) round-trips bit-exactly:
//!
//! ```text
//! magic      [u8; 8]   "TCSSMODL" (model) or "TCSSCKPT" (checkpoint)
//! version    u32       (= 1)
//! I, J, K, r u64 × 4
//! scalars    u64 × 6   checkpoints only: epoch, adam_t, lr_scale bits,
//!                      retries, seed, config fingerprint
//! h          r × f64
//! U¹, U², U³ (I, J, K)·r × f64, row-major
//! m, v       h, U¹, U², U³ again (checkpoints only: Adam's moments)
//! checksum   u64       tcss_core::frame::checksum over every byte before it
//! ```
//!
//! Writes are **atomic** (temp file + fsync + rename, via
//! [`crate::checkpoint::atomic_write`]), so a crash mid-save can never
//! leave a half-written file under the target name. A load reads the
//! whole file and checks, in order: a retired text file (`tcss-model …`,
//! `tcss-checkpoint …`) is a typed [`ModelIoError::LegacyText`]; the
//! checksum (a mismatch names the byte range it covers); the magic and
//! version; and the length the header's dims imply, before anything is
//! allocated. Truncation and bit flips are therefore reported as
//! corruption — never loaded as a silently wrong model.

use crate::checkpoint::atomic_write;
use crate::frame::{checksum, put_f64s, put_u32, put_u64, Malformed, Reader};
use crate::model::TcssModel;
use std::path::Path;
use tcss_linalg::Matrix;

/// Errors from model persistence.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying filesystem error.
    Fs(std::io::Error),
    /// Structurally invalid file.
    Parse(String),
    /// A file in a retired text format (named, e.g. `tcss-model v2`);
    /// retrain or re-run to write the binary format.
    LegacyText(String),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Fs(e) => write!(f, "io error: {e}"),
            ModelIoError::Parse(msg) => write!(f, "model file malformed: {msg}"),
            ModelIoError::LegacyText(format) => write!(
                f,
                "file is in the retired text format `{format}`; models and checkpoints \
                 are binary now — retrain to write one"
            ),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Fs(e)
    }
}

impl From<Malformed> for ModelIoError {
    fn from(e: Malformed) -> Self {
        ModelIoError::Parse(e.0)
    }
}

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// Magic of a model file.
pub(crate) const MODEL_MAGIC: &[u8; 8] = b"TCSSMODL";
/// Magic of a checkpoint file.
pub(crate) const CHECKPOINT_MAGIC: &[u8; 8] = b"TCSSCKPT";
/// Layout version of both kinds.
const VERSION: u32 = 1;
/// Magic, version and the four dims.
const HEADER_LEN: usize = 8 + 4 + 4 * 8;
/// The trailing checksum.
const TRAILER_LEN: usize = 8;

/// A new file image: magic, version and `model`'s dims, with capacity for
/// `scalars` further bytes, `copies` model-shaped `f64` blocks and the
/// trailer.
pub(crate) fn begin(magic: &[u8; 8], model: &TcssModel, scalars: usize, copies: usize) -> Vec<u8> {
    let (i, j, k) = model.dims();
    let r = model.rank();
    let floats = (i + j + k + 1) * r;
    let mut out = Vec::with_capacity(HEADER_LEN + scalars + copies * floats * 8 + TRAILER_LEN);
    out.extend_from_slice(magic);
    put_u32(&mut out, VERSION);
    for d in [i, j, k, r] {
        put_u64(&mut out, d as u64);
    }
    out
}

/// One model-shaped block: `h`, then U¹, U², U³.
pub(crate) fn put_sections(out: &mut Vec<u8>, h: &[f64], u: [&Matrix; 3]) {
    put_f64s(out, h);
    for m in u {
        put_f64s(out, m.as_slice());
    }
}

/// Append the checksum trailer and write `out` atomically to `path`.
pub(crate) fn seal_and_write(mut out: Vec<u8>, path: &Path) -> Result<(), ModelIoError> {
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    atomic_write(path, &out)?;
    Ok(())
}

fn kind(magic: &[u8]) -> Option<&'static str> {
    match magic {
        m if m == MODEL_MAGIC => Some("model file"),
        m if m == CHECKPOINT_MAGIC => Some("checkpoint"),
        _ => None,
    }
}

/// Read `path` and verify it as a file of kind `magic` that carries
/// `scalars` bytes after the header and `copies` model-shaped blocks.
/// Returns the file's bytes and its `[I, J, K, r]`; [`body`] is the span
/// to decode.
pub(crate) fn read_verified(
    path: &Path,
    magic: &[u8; 8],
    scalars: usize,
    copies: usize,
) -> Result<(Vec<u8>, [usize; 4]), ModelIoError> {
    let bytes = std::fs::read(path)?;
    if bytes.starts_with(b"tcss-model ") || bytes.starts_with(b"tcss-checkpoint ") {
        let line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        let text = String::from_utf8_lossy(line);
        let format: Vec<&str> = text.split_whitespace().take(2).collect();
        return Err(ModelIoError::LegacyText(format.join(" ")));
    }
    let Some(payload_len) = bytes.len().checked_sub(TRAILER_LEN) else {
        return Err(ModelIoError::Parse(format!(
            "{} byte(s) cannot hold the 8-byte checksum trailer (file truncated?)",
            bytes.len()
        )));
    };
    let (payload, trailer) = bytes.split_at(payload_len);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = checksum(payload);
    if stored != computed {
        return Err(ModelIoError::Parse(format!(
            "checksum mismatch over bytes 0..{payload_len}: stored {stored:016x}, \
             computed {computed:016x} — the file is corrupt"
        )));
    }

    let mut rd = Reader::new(payload);
    let found = rd.take(8, "magic")?;
    if found != magic {
        let want = kind(magic).expect("a known magic");
        return Err(ModelIoError::Parse(match kind(found) {
            Some(other) => format!("expected a {want}, found a {other}"),
            None => format!("bad magic {found:?}: not a {want}"),
        }));
    }
    let version = rd.u32("version")?;
    if version != VERSION {
        return Err(ModelIoError::Parse(format!(
            "unsupported format version {version} (this build reads {VERSION})"
        )));
    }
    let mut dims = [0usize; 4];
    for d in &mut dims {
        *d = usize::try_from(rd.u64("dimensions")?)
            .map_err(|_| ModelIoError::Parse("dimension overflows usize".into()))?;
    }
    let [i, j, k, r] = dims;
    let expected = i
        .checked_add(j)
        .and_then(|n| n.checked_add(k))
        .and_then(|n| n.checked_add(1))
        .and_then(|n| n.checked_mul(r))
        .and_then(|n| n.checked_mul(8 * copies))
        .and_then(|n| n.checked_add(HEADER_LEN + scalars + TRAILER_LEN));
    if expected != Some(bytes.len()) {
        return Err(ModelIoError::Parse(format!(
            "header dims {i}×{j}×{k} at rank {r} do not match the file's {} bytes",
            bytes.len()
        )));
    }
    Ok((bytes, dims))
}

/// The verified bytes between the header and the trailer.
pub(crate) fn body(bytes: &[u8]) -> &[u8] {
    &bytes[HEADER_LEN..bytes.len() - TRAILER_LEN]
}

/// Decode one model-shaped block: `h` and the three factors.
pub(crate) fn sections(
    rd: &mut Reader<'_>,
    [i, j, k, r]: [usize; 4],
) -> Result<(Vec<f64>, [Matrix; 3]), Malformed> {
    let mut h = Vec::new();
    rd.f64s_into(r, &mut h, "h")?;
    let mut factor = |rows: usize, what: &str| -> Result<Matrix, Malformed> {
        let mut data = Vec::new();
        rd.f64s_into(rows * r, &mut data, what)?;
        Ok(Matrix::from_vec(rows, r, data).expect("rows × r values"))
    };
    let u = [factor(i, "u1")?, factor(j, "u2")?, factor(k, "u3")?];
    Ok((h, u))
}

// ---------------------------------------------------------------------
// Model files
// ---------------------------------------------------------------------

/// Save a trained model to `path`, atomically and checksummed.
pub fn save_model(model: &TcssModel, path: &Path) -> Result<(), ModelIoError> {
    let mut out = begin(MODEL_MAGIC, model, 0, 1);
    put_sections(&mut out, &model.h, [&model.u1, &model.u2, &model.u3]);
    seal_and_write(out, path)
}

/// Load a model previously written by [`save_model`].
pub fn load_model(path: &Path) -> Result<TcssModel, ModelIoError> {
    let (bytes, dims) = read_verified(path, MODEL_MAGIC, 0, 1)?;
    let mut rd = Reader::new(body(&bytes));
    let (h, [u1, u2, u3]) = sections(&mut rd, dims)?;
    rd.done()?;
    Ok(TcssModel { u1, u2, u3, h })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tcss_model_io");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn sample(seed: u64) -> TcssModel {
        let (u1, u2, u3) = random_init((3, 4, 2), 2, seed);
        TcssModel::new(u1, u2, u3)
    }

    fn model_bits(m: &TcssModel) -> Vec<u64> {
        [m.u1.as_slice(), m.u2.as_slice(), m.u3.as_slice(), &m.h]
            .concat()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (u1, u2, u3) = random_init((5, 7, 3), 3, 42);
        let mut model = TcssModel::new(u1, u2, u3);
        model.h = vec![1.5, -0.25, 1e-17];
        let path = tmp("roundtrip.tcss");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.dims(), model.dims());
        assert_eq!(model_bits(&loaded), model_bits(&model));
        // Predictions identical.
        assert_eq!(loaded.predict(4, 6, 2), model.predict(4, 6, 2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_f64_bit_pattern_class_roundtrips() {
        let mut model = sample(3);
        let specials = [
            -0.0,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -f64::from_bits(1),      // smallest negative subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_dead_beef_0001), // NaN with a payload
        ];
        for (x, &s) in model.u2.as_mut_slice().iter_mut().zip(&specials) {
            *x = s;
        }
        model.h = vec![-0.0, f64::from_bits(0xfff0_0000_0000_0042)];
        let path = tmp("specials.tcss");
        save_model(&model, &path).unwrap();
        assert_eq!(model_bits(&load_model(&path).unwrap()), model_bits(&model));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmp("truncated.tcss");
        save_model(&sample(1), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [0, 7, HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(load_model(&path).is_err(), "kept {keep} bytes");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_header_is_rejected() {
        let path = tmp("badheader.tcss");
        std::fs::write(&path, "not-a-model v9 1 1 1 1\n").unwrap();
        assert!(load_model(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_float_is_rejected() {
        let path = tmp("corrupt.tcss");
        save_model(&sample(1), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip the sign of h[0]: still a valid f64, so only the checksum
        // can tell.
        bytes[HEADER_LEN + 7] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_model(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_mismatch_reports_byte_offset() {
        let path = tmp("checksum_offset.tcss");
        save_model(&sample(1), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err().to_string();
        assert!(
            err.contains("byte") && err.contains("checksum"),
            "wanted byte-offset checksum context, got: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_text_model_is_a_typed_error() {
        let path = tmp("legacy.tcss");
        std::fs::write(&path, "tcss-model v2 1 1 1 1\nh: 1.0\n").unwrap();
        match load_model(&path) {
            Err(ModelIoError::LegacyText(format)) => assert_eq!(format, "tcss-model v2"),
            other => panic!("expected LegacyText, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_is_not_a_model() {
        let path = tmp("kind.tcss");
        let model = sample(2);
        let mut out = begin(CHECKPOINT_MAGIC, &model, 0, 1);
        put_sections(&mut out, &model.h, [&model.u1, &model.u2, &model.u3]);
        seal_and_write(out, &path).unwrap();
        let err = load_model(&path).unwrap_err().to_string();
        assert!(err.contains("found a checkpoint"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_dims_are_rejected_before_allocating() {
        let path = tmp("huge_dims.tcss");
        save_model(&sample(4), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Claim 2^40 users, then re-checksum so only the length check
        // stands between the header and a multi-terabyte allocation.
        bytes[12..20].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let n = bytes.len() - TRAILER_LEN;
        let sum = checksum(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err().to_string();
        assert!(err.contains("do not match"), "{err}");
        // A product that overflows usize is the same typed refusal.
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = checksum(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_model(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_temp_file() {
        let path = tmp("atomic_model.tcss");
        save_model(&sample(9), &path).unwrap();
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        assert!(!std::path::PathBuf::from(os).exists());
        std::fs::remove_file(&path).ok();
    }
}
