//! Save / load trained TCSS models.
//!
//! A simple self-describing text format (one header line, then one line per
//! factor row) keeps trained models inspectable with standard tools and
//! independent of serialization-library versions:
//!
//! ```text
//! tcss-model v2 I J K r
//! h: <r floats>
//! u1 <row>: <r floats>      (I rows)
//! u2 <row>: <r floats>      (J rows)
//! u3 <row>: <r floats>      (K rows)
//! checksum: <16 hex digits> (FNV-1a over every preceding byte)
//! ```
//!
//! `v2` adds two robustness guarantees. Writes are **atomic** (temp file +
//! fsync + rename, via `checkpoint::atomic_write`), so a crash
//! mid-save can never leave a half-written model under the target name.
//! Loads verify the **checksum before parsing**, so truncation and bit
//! flips are reported as [`ModelIoError::Parse`] corruption with byte
//! offsets — never loaded as a silently wrong model. Legacy `v1` files
//! (no checksum) still load, but any trailing garbage is rejected.

use crate::checkpoint::{
    append_checksum, atomic_write, header_dims, verify_checksum, write_matrix, write_vector,
    LineReader,
};
use crate::model::TcssModel;
use std::path::Path;

/// Errors from model persistence.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying filesystem error.
    Fs(std::io::Error),
    /// Structurally invalid file.
    Parse(String),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Fs(e) => write!(f, "io error: {e}"),
            ModelIoError::Parse(msg) => write!(f, "model file malformed: {msg}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Fs(e)
    }
}

/// Save a trained model to `path`, atomically and with an integrity
/// checksum (format `v2`).
pub fn save_model(model: &TcssModel, path: &Path) -> Result<(), ModelIoError> {
    let (i, j, k) = model.dims();
    let r = model.rank();
    let mut out = format!("tcss-model v2 {i} {j} {k} {r}\n");
    write_vector(&mut out, "h", &model.h);
    write_matrix(&mut out, "u1", &model.u1);
    write_matrix(&mut out, "u2", &model.u2);
    write_matrix(&mut out, "u3", &model.u3);
    append_checksum(&mut out);
    atomic_write(path, out.as_bytes())?;
    Ok(())
}

/// Load a model previously written by [`save_model`].
///
/// `v2` files are checksum-verified before parsing; `v1` files (written
/// before the integrity trailer existed) are parsed leniently but must
/// contain nothing beyond the three factor blocks.
pub fn load_model(path: &Path) -> Result<TcssModel, ModelIoError> {
    let text = std::fs::read_to_string(path)?;
    let header = text
        .lines()
        .next()
        .ok_or_else(|| ModelIoError::Parse("empty file".into()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "tcss-model" {
        return Err(ModelIoError::Parse(format!("bad header {header:?}")));
    }
    let payload: &str = match fields[1] {
        "v2" => verify_checksum(&text)?,
        "v1" => &text,
        v => {
            return Err(ModelIoError::Parse(format!(
                "unsupported model format version {v:?}"
            )))
        }
    };
    let mut rd = LineReader::new(payload);
    rd.next("header")?; // already parsed
    let [i_dim, j_dim, k_dim, r] = header_dims(&fields)?;
    let h = rd.tagged("h", r)?;
    let u1 = rd.matrix("u1", i_dim, r)?;
    let u2 = rd.matrix("u2", j_dim, r)?;
    let u3 = rd.matrix("u3", k_dim, r)?;
    // Strictness matters for corruption detection: a v2 file whose header
    // byte got flipped to v1 would otherwise skip checksum verification,
    // but its trailing checksum line lands here.
    rd.finish()?;
    let mut model = TcssModel::try_new(u1, u2, u3).map_err(ModelIoError::Parse)?;
    model.h = h;
    Ok(model)
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

    #[test]
    fn roundtrip_is_bit_exact() {
        let (u1, u2, u3) = random_init((5, 7, 3), 3, 42);
        let mut model = TcssModel::new(u1, u2, u3);
        model.h = vec![1.5, -0.25, 1e-17];
        let path = tmp("roundtrip.tcss");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.dims(), model.dims());
        assert_eq!(loaded.h, model.h);
        assert!(loaded.u1.approx_eq(&model.u1, 0.0));
        assert!(loaded.u2.approx_eq(&model.u2, 0.0));
        assert!(loaded.u3.approx_eq(&model.u3, 0.0));
        // Predictions identical.
        assert_eq!(loaded.predict(4, 6, 2), model.predict(4, 6, 2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let (u1, u2, u3) = random_init((3, 3, 3), 2, 1);
        let model = TcssModel::new(u1, u2, u3);
        let path = tmp("truncated.tcss");
        save_model(&model, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, cut).unwrap();
        assert!(load_model(&path).is_err());
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
        let (u1, u2, u3) = random_init((2, 2, 2), 2, 1);
        let model = TcssModel::new(u1, u2, u3);
        let path = tmp("corrupt.tcss");
        save_model(&model, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap().replace("e0", "eX");
        std::fs::write(&path, text).unwrap();
        assert!(load_model(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_mismatch_reports_byte_offset() {
        let (u1, u2, u3) = random_init((2, 2, 2), 2, 1);
        let model = TcssModel::new(u1, u2, u3);
        let path = tmp("checksum_offset.tcss");
        save_model(&model, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte well inside a float.
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
    fn legacy_v1_file_without_checksum_still_loads() {
        let (u1, u2, u3) = random_init((3, 4, 2), 2, 5);
        let mut model = TcssModel::new(u1, u2, u3);
        model.h = vec![0.5, 2.0];
        let path = tmp("legacy_v1.tcss");
        save_model(&model, &path).unwrap();
        // Strip the checksum trailer and downgrade the header — exactly
        // what a pre-v2 writer produced.
        let text = std::fs::read_to_string(&path).unwrap();
        let legacy: String = text
            .lines()
            .filter(|l| !l.starts_with("checksum:"))
            .map(|l| format!("{}\n", l.replace("tcss-model v2", "tcss-model v1")))
            .collect();
        std::fs::write(&path, legacy).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.h, model.h);
        assert!(loaded.u1.approx_eq(&model.u1, 0.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_file_with_trailing_garbage_is_rejected() {
        let (u1, u2, u3) = random_init((2, 2, 2), 2, 3);
        let model = TcssModel::new(u1, u2, u3);
        let path = tmp("v1_trailing.tcss");
        save_model(&model, &path).unwrap();
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("tcss-model v2", "tcss-model v1");
        // The v2 checksum line is still there — a v1 parser must reject it
        // rather than silently ignore unknown trailing content.
        std::fs::write(&path, text).unwrap();
        let err = load_model(&path).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_temp_file() {
        let (u1, u2, u3) = random_init((2, 2, 2), 2, 9);
        let model = TcssModel::new(u1, u2, u3);
        let path = tmp("atomic_model.tcss");
        save_model(&model, &path).unwrap();
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        assert!(!std::path::PathBuf::from(os).exists());
        std::fs::remove_file(&path).ok();
    }
}
