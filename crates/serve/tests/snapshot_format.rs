//! Corruption detection for the `.tcsssnap` format.
//!
//! The snapshot module's integrity contract (module docs, DESIGN.md §5h)
//! is that a snapshot either loads in full or fails with a typed
//! [`SnapError`] — never a garbage model. This suite property-tests that
//! contract the way PR 2 pinned the checkpoint format:
//!
//! * **every truncation point** (header, payload, mid-field, last byte)
//!   refuses to load (the header pins the exact file length);
//! * **every single-bit flip** refuses to load — header flips (fields
//!   *and* padding, both covered by the whole-page header digest) and
//!   payload flips (the payload digest) alike;
//! * targeted field corruption (version skew, unknown quant mode,
//!   inconsistent dims) maps to its specific typed variant even when the
//!   header digest is recomputed to match — the reader cross-validates,
//!   not just checksums.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tcss_core::{random_init, TcssModel};
use tcss_serve::snapshot::{
    snapshot_bytes, write_snapshot, SnapshotModel, FORMAT_VERSION, HEADER_LEN,
};
use tcss_serve::{QuantMode, SnapError};

fn model(seed: u64) -> TcssModel {
    let (u1, u2, u3) = random_init((6, 19, 5), 5, seed);
    let mut m = TcssModel::new(u1, u2, u3);
    m.h = (0..5).map(|t| 0.8 + 0.07 * t as f64).collect();
    m
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tcss-snapfmt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write_raw(dir: &Path, bytes: &[u8]) -> PathBuf {
    let path = dir.join("candidate.tcsssnap");
    std::fs::write(&path, bytes).unwrap();
    path
}

/// The snapshot digest — two interleaved CRC32C (Castagnoli) streams —
/// restated from the documented format with a table built here, so it
/// stays independent of the implementation under test: every 16-byte
/// block feeds its first 8 bytes to stream `a` (seed `0xffffffff`) and
/// its last 8 to stream `b` (seed `0x5a5a5a5a`), the tail goes to `a`,
/// and the digest is `(a << 32) | b` with no final inversion.
fn crc32c_pair(bytes: &[u8]) -> u64 {
    let table: Vec<u32> = (0..256u32)
        .map(|i| {
            (0..8).fold(i, |c, _| {
                if c & 1 == 1 {
                    (c >> 1) ^ 0x82f6_3b78
                } else {
                    c >> 1
                }
            })
        })
        .collect();
    let crc = |c: u32, bytes: &[u8]| {
        bytes.iter().fold(c, |c, &b| {
            table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
        })
    };
    let (mut a, mut b) = (0xffff_ffffu32, 0x5a5a_5a5au32);
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        a = crc(a, &block[..8]);
        b = crc(b, &block[8..]);
    }
    a = crc(a, blocks.remainder());
    (u64::from(a) << 32) | u64::from(b)
}

/// Re-stamp the header digest after deliberately editing a header field,
/// so the targeted-corruption tests exercise the *semantic* validation
/// behind the checksum, not the checksum itself.
fn restamp_header(bytes: &mut [u8]) {
    bytes[64..72].fill(0);
    let sum = crc32c_pair(&bytes[..HEADER_LEN]);
    bytes[64..72].copy_from_slice(&sum.to_le_bytes());
}

fn mode_of(flag: bool) -> QuantMode {
    if flag {
        QuantMode::I16
    } else {
        QuantMode::F32
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any proper-prefix truncation is a typed `Truncated`.
    #[test]
    fn every_truncation_point_is_rejected(
        (mode_sel, frac) in (0usize..2, 0.0f64..1.0)
    ) {
        let dir = tmpdir("trunc");
        let full = snapshot_bytes(&model(17), mode_of(mode_sel == 1));
        let cut = ((full.len() as f64 * frac) as usize).min(full.len() - 1);
        let path = write_raw(&dir, &full[..cut]);
        prop_assert!(matches!(
            SnapshotModel::open(&path),
            Err(SnapError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any single-bit flip anywhere in the file fails the full-verify
    /// open with a typed error.
    #[test]
    fn every_bit_flip_is_rejected_by_full_open(
        (mode_sel, frac, bit) in (0usize..2, 0.0f64..1.0, 0usize..8)
    ) {
        let dir = tmpdir("flip");
        let mut bytes = snapshot_bytes(&model(29), mode_of(mode_sel == 1));
        let idx = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        let path = write_raw(&dir, &bytes);
        prop_assert!(SnapshotModel::open(&path).is_err(), "flip at byte {idx} bit {bit}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The f32 snapshot's payload fits in 55 % of the f64 model's
/// `num_params × 8` bytes (50.02 % on 600 × 3000 × 12 at rank 10; the
/// per-factor layout overhead is what the other 5 % covers).
#[test]
fn f32_payload_fits_55_percent_of_f64_bytes() {
    let dir = tmpdir("budget");
    for (dims, rank) in [((600, 3000, 12), 10), ((30, 120, 6), 4)] {
        let (u1, u2, u3) = random_init(dims, rank, 2026);
        let m = TcssModel::new(u1, u2, u3);
        let path = dir.join("f32.tcsssnap");
        write_snapshot(&m, QuantMode::F32, &path).expect("write");
        let snap = SnapshotModel::open(&path).expect("open");
        let f64_bytes = m.num_params() * 8;
        assert!(
            snap.payload_bytes() * 100 <= f64_bytes * 55,
            "{dims:?} r{rank}: f32 payload {} B exceeds 55 % of {f64_bytes} B",
            snap.payload_bytes()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_roundtrip_loads() {
    let dir = tmpdir("clean");
    let m = model(5);
    for (tag, mode) in [("f", QuantMode::F32), ("q", QuantMode::I16)] {
        let path = dir.join(format!("{tag}.tcsssnap"));
        write_snapshot(&m, mode, &path).expect("write");
        let snap = SnapshotModel::open(&path).expect("open");
        assert_eq!(snap.dims(), m.dims());
        assert_eq!(snap.rank(), m.rank());
        assert_eq!(snap.mode(), mode);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn appended_garbage_is_rejected() {
    let dir = tmpdir("append");
    let mut bytes = snapshot_bytes(&model(7), QuantMode::F32);
    bytes.extend_from_slice(&[0xAB; 17]);
    let path = write_raw(&dir, &bytes);
    assert!(matches!(
        SnapshotModel::open(&path),
        Err(SnapError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_skew_is_typed_even_with_valid_digest() {
    let dir = tmpdir("ver");
    let mut bytes = snapshot_bytes(&model(11), QuantMode::F32);
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    restamp_header(&mut bytes);
    let path = write_raw(&dir, &bytes);
    assert!(matches!(
        SnapshotModel::open(&path),
        Err(SnapError::UnsupportedVersion { found }) if found == FORMAT_VERSION + 1
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_quant_mode_is_typed_even_with_valid_digest() {
    let dir = tmpdir("mode");
    let mut bytes = snapshot_bytes(&model(13), QuantMode::F32);
    bytes[12..16].copy_from_slice(&7u32.to_le_bytes());
    restamp_header(&mut bytes);
    let path = write_raw(&dir, &bytes);
    assert!(matches!(
        SnapshotModel::open(&path),
        Err(SnapError::BadQuantMode { code: 7 })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inconsistent_dims_are_typed_even_with_valid_digest() {
    let dir = tmpdir("dims");
    let mut bytes = snapshot_bytes(&model(19), QuantMode::I16);
    // Claim one more user than the payload was laid out for.
    let users = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    bytes[16..24].copy_from_slice(&(users + 1).to_le_bytes());
    restamp_header(&mut bytes);
    let path = write_raw(&dir, &bytes);
    assert!(matches!(
        SnapshotModel::open(&path),
        Err(SnapError::DimsMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn not_a_snapshot_file_is_bad_magic() {
    let dir = tmpdir("notsnap");
    let path = write_raw(&dir, &vec![b'x'; HEADER_LEN + 128]);
    assert!(matches!(
        SnapshotModel::open(&path),
        Err(SnapError::BadMagic { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}
