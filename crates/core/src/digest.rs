//! FNV-1a 64, kept for one caller: the model digest of the end-to-end
//! benchmark (`bench_e2e/src/train.rs::model_digest`).
//!
//! Every integrity check in the workspace — wire frames, model files,
//! checkpoints, serving snapshots — and the config fingerprint use
//! [`crate::frame::checksum`]. This module goes once the benchmark's
//! digest moves to that checksum too.

/// 64-bit FNV-1a over raw bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_byte_change_alters_digest() {
        let base = fnv1a64(b"checkpoint payload");
        assert_ne!(fnv1a64(b"checkpoint paylyad"), base);
        assert_ne!(fnv1a64(b"checkpoint payloa"), base);
    }
}
