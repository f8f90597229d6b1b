//! Property tests for on-disk integrity: *any* truncation and *any*
//! single-byte flip of a saved model or checkpoint file must be detected
//! at load time — never parsed into silently wrong state.
//!
//! The guarantee rests on two design choices in `tcss_core::model_io`'s
//! binary codec: the trailing `tcss_core::frame::checksum` covers every
//! preceding byte (a changed byte lands in one of its two CRC32C streams
//! and always changes it), and the header's dims fix the exact file
//! length, so a prefix is refused even in the rare case its last eight
//! bytes happened to checksum the rest.

use proptest::prelude::*;
use std::path::PathBuf;
use tcss_core::init::random_init;
use tcss_core::loss::Grads;
use tcss_core::{load_checkpoint, load_model, save_checkpoint, save_model, Checkpoint, TcssModel};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tcss_corruption_props");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn sample_model(seed: u64) -> TcssModel {
    let (u1, u2, u3) = random_init((3, 4, 2), 2, seed);
    let mut model = TcssModel::new(u1, u2, u3);
    model.h = vec![1.25, -0.5];
    model
}

fn pristine_model_bytes(tag: &str, seed: u64) -> Vec<u8> {
    let path = tmp(&format!("pristine_model_{tag}.tcss"));
    save_model(&sample_model(seed), &path).expect("save");
    std::fs::read(&path).expect("read back")
}

fn pristine_checkpoint_bytes(tag: &str, seed: u64) -> Vec<u8> {
    let model = sample_model(seed);
    let ck = Checkpoint {
        epoch: 7,
        adam_t: 7,
        lr_scale: 1.0,
        retries: 0,
        seed,
        fingerprint: 0xfeed_beef_dead_cafe,
        m: Grads::zeros(&model),
        v: Grads::zeros(&model),
        model,
    };
    let path = tmp(&format!("pristine_checkpoint_{tag}.tcssck"));
    save_checkpoint(&ck, &path).expect("save");
    std::fs::read(&path).expect("read back")
}

/// Fractions of the file length, so sampled positions stay valid whatever
/// the exact serialized size turns out to be.
fn corruption_strategy() -> impl Strategy<Value = (u64, f64, f64, u8)> {
    (0u64..u64::MAX, 0.0f64..1.0, 0.0f64..1.0, 1u8..=255)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every proper-prefix truncation of a saved model file errors.
    #[test]
    fn any_model_truncation_is_detected((seed, cut, _, _) in corruption_strategy()) {
        let bytes = pristine_model_bytes("trunc", seed);
        let keep = ((bytes.len() as f64) * cut) as usize; // < len: cut < 1.0
        let path = tmp("truncated_model.tcss");
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let res = load_model(&path);
        prop_assert!(
            res.is_err(),
            "truncation to {keep}/{} bytes loaded successfully",
            bytes.len()
        );
    }

    /// Every single-byte flip of a saved model file errors.
    #[test]
    fn any_model_bit_flip_is_detected((seed, _, at, mask) in corruption_strategy()) {
        let mut bytes = pristine_model_bytes("flip", seed);
        let offset = ((bytes.len() as f64) * at) as usize;
        bytes[offset] ^= mask;
        let path = tmp("flipped_model.tcss");
        std::fs::write(&path, &bytes).unwrap();
        let res = load_model(&path);
        prop_assert!(
            res.is_err(),
            "flip of byte {offset} by {mask:#04x} loaded successfully"
        );
    }

    /// Every proper-prefix truncation of a checkpoint file errors.
    #[test]
    fn any_checkpoint_truncation_is_detected((seed, cut, _, _) in corruption_strategy()) {
        let bytes = pristine_checkpoint_bytes("trunc", seed);
        let keep = ((bytes.len() as f64) * cut) as usize;
        let path = tmp("truncated_ck.tcssck");
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let res = load_checkpoint(&path);
        prop_assert!(
            res.is_err(),
            "truncation to {keep}/{} bytes loaded successfully",
            bytes.len()
        );
    }

    /// Every single-byte flip of a checkpoint file errors.
    #[test]
    fn any_checkpoint_bit_flip_is_detected((seed, _, at, mask) in corruption_strategy()) {
        let mut bytes = pristine_checkpoint_bytes("flip", seed);
        let offset = ((bytes.len() as f64) * at) as usize;
        bytes[offset] ^= mask;
        let path = tmp("flipped_ck.tcssck");
        std::fs::write(&path, &bytes).unwrap();
        let res = load_checkpoint(&path);
        prop_assert!(
            res.is_err(),
            "flip of byte {offset} by {mask:#04x} loaded successfully"
        );
    }
}
