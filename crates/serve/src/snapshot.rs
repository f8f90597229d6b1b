//! Compact mmap-able serving snapshots (`.tcsssnap`).
//!
//! The training stack hands the serving layer an f64 [`TcssModel`]; at
//! ROADMAP scale (10M users, r = 32) U¹ alone is ~2.5 GB and cold start
//! pays a full deserialize pass over a text checkpoint. This module
//! converts the model once, at export/swap time, into a flat, page-aligned,
//! checksummed on-disk format that the engine scores **directly out of an
//! `mmap(2)` mapping** — zero deserialization, so cold start is O(1)
//! page-ins, and multiple serving processes share one read-only mapping of
//! the same physical pages.
//!
//! ## File layout (little-endian)
//!
//! ```text
//! offset 0      ┌────────────────────────────────────────────┐
//!               │ header (one 4096-byte page)                │
//!               │   0  magic            "TCSSSNAP"  [u8; 8]  │
//!               │   8  format_version   u32  (= 1)           │
//!               │  12  quant_mode       u32  (0 f32, 1 i16)  │
//!               │  16  n_users (I)      u64                  │
//!               │  24  n_pois  (J)      u64                  │
//!               │  32  n_times (K)      u64                  │
//!               │  40  rank    (r)      u64                  │
//!               │  48  payload_len      u64                  │
//!               │  56  payload_checksum u64  (FNV-1a 64)     │
//!               │  64  header_checksum  u64  (FNV over the   │
//!               │      whole header page with this field     │
//!               │      zeroed — padding flips are caught)    │
//!               │  72  zero padding to 4096                  │
//! offset 4096   ├────────────────────────────────────────────┤
//!               │ payload: sections at 64-byte-aligned       │
//!               │ offsets, in fixed order                    │
//!               │   h          r × f32                       │
//!               │   U¹ rows    I·r × f32   (or I·r × i16)    │
//!               │   U¹ scales  I × f32     (i16 mode only)   │
//!               │   U² rows    J·r × …     (+ scales)        │
//!               │   U³ rows    K·r × …     (+ scales)        │
//!               └────────────────────────────────────────────┘
//! ```
//!
//! The payload starts exactly one page in, and every section offset is a
//! multiple of 64 from the payload base, so when the file is mapped (page-
//! aligned by `mmap`'s contract) each section is safely referenced as a
//! `&[f32]` / `&[i16]` via `slice::from_raw_parts` — no copy, no parse.
//! Section offsets are *derived* from `(mode, dims)` by `Layout`, never
//! stored: the header's `payload_len` must match the derived length, which
//! cross-checks dims against mode for free.
//!
//! ## Quantization and the error budget
//!
//! * **f32 mode** — every factor entry is the f64 value rounded to nearest
//!   f32 (`as f32`): ~1e-7 relative error, half the bytes.
//! * **i16 mode** — each factor *row* stores `q = round(v / s)` clamped to
//!   ±32767 with one f32 scale `s = max|row| / 32767`; a zero row gets
//!   `s = 0`. Scoring never materializes the dequantized row: the kernel
//!   widens i16 → f32 in-register and one multiply by `s` lands at the end
//!   (`score = s_j · dot_f32_i16(w, q_j)`), so the i16 bytes are what sits
//!   in cache.
//!
//! Correctness is an explicit error budget, not bitwise equality: the
//! snapshot agreement suite asserts top-n agreement against f64
//! `scores_for` above a configured threshold, and the documented scale
//! bounds give *exact* rank agreement for i16 when scores are separated by
//! more than the quantization step. The batched path and the per-request
//! path here share one kernel per element ([`kernels::dot_f32`] /
//! [`kernels::dot_f32_i16`] in the canonical [`tcss_linalg::LANES_F32`]
//! order), so batch rows are bit-for-bit the per-request scores — the f64
//! engine invariant, carried over.
//!
//! ## Integrity
//!
//! Writes are atomic (temp + fsync + rename, the PR 2 checkpoint
//! contract); the header and payload carry independent FNV-1a 64 digests.
//! [`SnapshotModel::open`] verifies both — any truncation or bit flip is a
//! typed [`SnapError`], never a garbage model. [`SnapshotModel::open_fast`]
//! verifies the header and the *file size* only (every truncation is still
//! caught; payload bit flips are not), keeping the cold-start path O(1) for
//! operators who trust their disk and want instant process start.

use std::fmt;
use std::fs::File;
use std::io::{Read as _, Write as _};
use std::path::Path;

use tcss_core::TcssModel;
use tcss_linalg::kernels;

/// Magic bytes at offset 0.
pub const MAGIC: &[u8; 8] = b"TCSSSNAP";
/// On-disk format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// Header size; the payload starts at this offset so an `mmap` of the file
/// leaves every section page-relative-aligned.
pub const HEADER_LEN: usize = 4096;
/// Section alignment within the payload.
const SECTION_ALIGN: usize = 64;

/// Factor storage mode of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// f64 factors rounded to f32 (half the bytes, ~1e-7 relative error).
    F32,
    /// Per-row-scaled i16 fixed point (quarter the bytes; see module docs
    /// for the scale/rounding contract).
    I16,
}

impl QuantMode {
    fn code(self) -> u32 {
        match self {
            QuantMode::F32 => 0,
            QuantMode::I16 => 1,
        }
    }

    fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(QuantMode::F32),
            1 => Some(QuantMode::I16),
            _ => None,
        }
    }

    /// Parse a CLI spelling (`"f32"` / `"i16"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(QuantMode::F32),
            "i16" => Some(QuantMode::I16),
            _ => None,
        }
    }

    /// Bytes per factor entry.
    fn entry_bytes(self) -> usize {
        match self {
            QuantMode::F32 => 4,
            QuantMode::I16 => 2,
        }
    }
}

impl fmt::Display for QuantMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuantMode::F32 => "f32",
            QuantMode::I16 => "i16",
        })
    }
}

/// Typed snapshot-load failures. Every corruption mode an operator can hit
/// — truncation, bit flips, version skew, the wrong file entirely — maps to
/// a distinct variant; a snapshot never half-loads.
#[derive(Debug)]
pub enum SnapError {
    /// Underlying filesystem / mmap failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// Written by an incompatible format version.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
    },
    /// Unknown quantization-mode code.
    BadQuantMode {
        /// Mode code stamped in the file.
        code: u32,
    },
    /// The header's own checksum does not match its bytes.
    HeaderCorrupt {
        /// Digest stored in the header.
        stored: u64,
        /// Digest computed over the header bytes.
        computed: u64,
    },
    /// The file is shorter (or longer) than the header says it must be —
    /// the signature of a truncated copy or a torn download.
    Truncated {
        /// Expected total file length in bytes.
        expected: u64,
        /// Actual file length in bytes.
        actual: u64,
    },
    /// Header dims don't reproduce the header's `payload_len` — the header
    /// is internally inconsistent (bit flip in a dimension field).
    DimsMismatch {
        /// Payload length derived from the dims and mode.
        derived: u64,
        /// Payload length stored in the header.
        stored: u64,
    },
    /// The payload digest does not match — a bit flip inside factor data.
    ChecksumMismatch {
        /// Digest stored in the header.
        stored: u64,
        /// Digest computed over the payload bytes.
        computed: u64,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapError::BadMagic { found } => {
                write!(f, "not a .tcsssnap file: magic bytes {found:02x?}")
            }
            SnapError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            SnapError::BadQuantMode { code } => {
                write!(f, "unknown quantization-mode code {code}")
            }
            SnapError::HeaderCorrupt { stored, computed } => write!(
                f,
                "snapshot header corrupt: stored checksum {stored:016x}, computed {computed:016x}"
            ),
            SnapError::Truncated { expected, actual } => write!(
                f,
                "snapshot truncated: header requires {expected} bytes, file has {actual}"
            ),
            SnapError::DimsMismatch { derived, stored } => write!(
                f,
                "snapshot header inconsistent: dims derive payload length {derived}, header stores {stored}"
            ),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot payload corrupt: stored checksum {stored:016x}, computed {computed:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Integrity primitives. The digest is the workspace-canonical
// `tcss_core::digest::fnv1a64` (the `snapshot_format.rs` test suite keeps
// its own deliberately independent restatement as a cross-check).
// ---------------------------------------------------------------------

use tcss_core::digest::fnv1a64;

/// Atomic byte write: temp file in the same directory, fsync, rename over
/// the target, fsync the directory. A crash leaves the old file or the new
/// file — never a mix.
fn atomic_write_bytes(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Layout: section offsets derived from (mode, dims), never stored.
// ---------------------------------------------------------------------

fn align_up(off: usize, align: usize) -> usize {
    off.div_ceil(align) * align
}

/// Byte offsets of every payload section, relative to the payload base
/// (file offset [`HEADER_LEN`]). Pure function of `(mode, dims)` — the
/// reader re-derives it and cross-checks against the header's
/// `payload_len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    h: usize,
    u1: usize,
    u1_scales: usize,
    u2: usize,
    u2_scales: usize,
    u3: usize,
    u3_scales: usize,
    len: usize,
}

impl Layout {
    fn derive(mode: QuantMode, dims: (usize, usize, usize), r: usize) -> Layout {
        let (i, j, k) = dims;
        let e = mode.entry_bytes();
        let scales = |rows: usize| match mode {
            QuantMode::F32 => 0,
            QuantMode::I16 => rows * 4,
        };
        let h = 0;
        let u1 = align_up(h + r * 4, SECTION_ALIGN);
        let u1_scales = align_up(u1 + i * r * e, SECTION_ALIGN);
        let u2 = align_up(u1_scales + scales(i), SECTION_ALIGN);
        let u2_scales = align_up(u2 + j * r * e, SECTION_ALIGN);
        let u3 = align_up(u2_scales + scales(j), SECTION_ALIGN);
        let u3_scales = align_up(u3 + k * r * e, SECTION_ALIGN);
        let len = align_up(u3_scales + scales(k), SECTION_ALIGN);
        Layout {
            h,
            u1,
            u1_scales,
            u2,
            u2_scales,
            u3,
            u3_scales,
            len,
        }
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn put_f32(buf: &mut [u8], off: usize, values: impl Iterator<Item = f32>) {
    let mut o = off;
    for v in values {
        buf[o..o + 4].copy_from_slice(&v.to_le_bytes());
        o += 4;
    }
}

/// Quantize one f64 row to i16 with a shared scale; returns the scale.
/// `s = max|row| / 32767` (computed in f64, stored as f32); each entry is
/// `round(v / s)` clamped to ±32767. A zero row gets scale 0 and all-zero
/// codes, which dequantizes exactly.
fn quantize_row(row: &[f64], out: &mut [i16]) -> f32 {
    let max_abs = row.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        out.fill(0);
        return 0.0;
    }
    let scale = (max_abs / 32767.0) as f32;
    // Quantize against the f32 scale actually stored, not the f64 ratio,
    // so the codes are optimal for the dequantization the reader performs.
    let inv = 1.0 / f64::from(scale);
    for (o, &v) in out.iter_mut().zip(row) {
        *o = (v * inv).round().clamp(-32767.0, 32767.0) as i16;
    }
    scale
}

fn write_factor(
    buf: &mut [u8],
    mode: QuantMode,
    data_off: usize,
    scales_off: usize,
    rows: usize,
    r: usize,
    m: &tcss_linalg::Matrix,
) {
    match mode {
        QuantMode::F32 => {
            put_f32(
                buf,
                data_off,
                (0..rows).flat_map(|i| m.row(i).iter().map(|&v| v as f32)),
            );
        }
        QuantMode::I16 => {
            let mut q = vec![0i16; r];
            for i in 0..rows {
                let s = quantize_row(m.row(i), &mut q);
                let mut o = data_off + i * r * 2;
                for &code in &q {
                    buf[o..o + 2].copy_from_slice(&code.to_le_bytes());
                    o += 2;
                }
                let so = scales_off + i * 4;
                buf[so..so + 4].copy_from_slice(&s.to_le_bytes());
            }
        }
    }
}

/// Serialize `model` into the full `.tcsssnap` byte image (header +
/// payload). Exposed for tests that corrupt bytes in memory; production
/// callers use [`write_snapshot`].
pub fn snapshot_bytes(model: &TcssModel, mode: QuantMode) -> Vec<u8> {
    let dims = model.dims();
    let r = model.rank();
    let (i, j, k) = dims;
    let layout = Layout::derive(mode, dims, r);
    let mut buf = vec![0u8; HEADER_LEN + layout.len];

    {
        let payload = &mut buf[HEADER_LEN..];
        put_f32(payload, layout.h, model.h.iter().map(|&v| v as f32));
        write_factor(payload, mode, layout.u1, layout.u1_scales, i, r, &model.u1);
        write_factor(payload, mode, layout.u2, layout.u2_scales, j, r, &model.u2);
        write_factor(payload, mode, layout.u3, layout.u3_scales, k, r, &model.u3);
    }
    let payload_sum = fnv1a64(&buf[HEADER_LEN..]);

    buf[0..8].copy_from_slice(MAGIC);
    buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf[12..16].copy_from_slice(&mode.code().to_le_bytes());
    buf[16..24].copy_from_slice(&(i as u64).to_le_bytes());
    buf[24..32].copy_from_slice(&(j as u64).to_le_bytes());
    buf[32..40].copy_from_slice(&(k as u64).to_le_bytes());
    buf[40..48].copy_from_slice(&(r as u64).to_le_bytes());
    buf[48..56].copy_from_slice(&(layout.len as u64).to_le_bytes());
    buf[56..64].copy_from_slice(&payload_sum.to_le_bytes());
    // The header digest covers the entire header page with its own field
    // zeroed (which it is, at this point), so a flip anywhere in the page
    // — fields *or* padding — is caught.
    let header_sum = fnv1a64(&buf[..HEADER_LEN]);
    buf[64..72].copy_from_slice(&header_sum.to_le_bytes());
    buf
}

/// Convert `model` and write it atomically to `path`.
pub fn write_snapshot(model: &TcssModel, mode: QuantMode, path: &Path) -> Result<(), SnapError> {
    let bytes = snapshot_bytes(model, mode);
    atomic_write_bytes(path, &bytes)?;
    Ok(())
}

// ---------------------------------------------------------------------
// mmap(2) — hand-declared, matching the repo's no-deps FFI style (see the
// poll(2) declaration in net::server). std links libc, so a plain extern
// declaration suffices.
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    #[cfg(target_os = "linux")]
    pub type Off = i64;
    #[cfg(not(target_os = "linux"))]
    pub type Off = i64; // 64-bit off_t on every modern unix this repo targets

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: Off,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// The bytes backing an open snapshot: a read-only private mapping on
/// unix, an owned 8-byte-aligned buffer elsewhere (or when mapping fails,
/// e.g. on filesystems without mmap support).
enum SnapBuf {
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// `Vec<u64>` backing guarantees 8-byte alignment for the header and
    /// every (64-byte-aligned) section.
    Owned { buf: Vec<u64>, len: usize },
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated or
// remapped after construction; sharing the pointer across threads is a
// plain shared read of immutable memory.
unsafe impl Send for SnapBuf {}
unsafe impl Sync for SnapBuf {}

impl SnapBuf {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: ptr/len delimit a live PROT_READ mapping owned by
            // self; it is unmapped only in Drop.
            SnapBuf::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            SnapBuf::Owned { buf, len } => {
                // SAFETY: the u64 backing covers at least `len` bytes.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len) }
            }
        }
    }
}

impl Drop for SnapBuf {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let SnapBuf::Mapped { ptr, len } = *self {
            // SAFETY: ptr/len came from a successful mmap of exactly len
            // bytes and are unmapped exactly once, here.
            unsafe {
                sys::munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

#[cfg(unix)]
fn map_file(file: &File, len: usize) -> Option<SnapBuf> {
    use std::os::unix::io::AsRawFd;
    if len == 0 {
        return None;
    }
    // SAFETY: requesting a fresh PROT_READ/MAP_PRIVATE mapping of an open
    // fd; the kernel picks the address. Failure is MAP_FAILED, checked.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr == usize::MAX as *mut std::ffi::c_void || ptr.is_null() {
        return None;
    }
    Some(SnapBuf::Mapped {
        ptr: ptr as *const u8,
        len,
    })
}

fn read_owned(file: &mut File, len: usize) -> std::io::Result<SnapBuf> {
    let mut buf = vec![0u64; len.div_ceil(8)];
    // SAFETY: the u64 backing covers at least `len` bytes; u64 has no
    // invalid bit patterns, so writing raw file bytes into it is sound.
    let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
    file.read_exact(dst)?;
    Ok(SnapBuf::Owned { buf, len })
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// An open snapshot the engine scores directly out of.
///
/// Factor sections are borrowed straight from the backing mapping as
/// `&[f32]` / `&[i16]` — the model is never deserialized. All accessors
/// are `&self`; the type is `Send + Sync` and meant to be shared behind
/// the engine's `Arc<ModelSnapshot>`.
pub struct SnapshotModel {
    buf: SnapBuf,
    mode: QuantMode,
    dims: (usize, usize, usize),
    rank: usize,
    layout: Layout,
}

impl fmt::Debug for SnapshotModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (i, j, k) = self.dims;
        f.debug_struct("SnapshotModel")
            .field("mode", &self.mode)
            .field("dims", &format_args!("{i}x{j}x{k}"))
            .field("rank", &self.rank)
            .field("payload_bytes", &self.layout.len)
            .finish()
    }
}

fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn get_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

impl SnapshotModel {
    /// Open and **fully verify** `path`: header checksum, exact file
    /// length, dims consistency, payload checksum. Any corruption is a
    /// typed [`SnapError`]; this is the default the CLI uses.
    pub fn open(path: &Path) -> Result<Self, SnapError> {
        Self::open_impl(path, true)
    }

    /// Open with **O(1) verification**: header checksum and exact file
    /// length only — the payload is never scanned, so cold start does no
    /// work proportional to model size. Every truncation is still caught
    /// (the header pins the exact byte length); a bit flip inside factor
    /// data is not. Use where startup latency beats flip paranoia.
    pub fn open_fast(path: &Path) -> Result<Self, SnapError> {
        Self::open_impl(path, false)
    }

    fn open_impl(path: &Path, verify_payload: bool) -> Result<Self, SnapError> {
        let mut file = File::open(path)?;
        let actual_len = file.metadata()?.len();
        if actual_len < HEADER_LEN as u64 {
            return Err(SnapError::Truncated {
                expected: HEADER_LEN as u64,
                actual: actual_len,
            });
        }

        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        let stored_hsum = get_u64(&header, 64);
        let computed_hsum = {
            let mut zeroed = header;
            zeroed[64..72].fill(0);
            fnv1a64(&zeroed)
        };
        if stored_hsum != computed_hsum {
            // Distinguish "not a snapshot" from "snapshot with a damaged
            // header": magic first, then the digest.
            if &header[0..8] != MAGIC {
                let mut found = [0u8; 8];
                found.copy_from_slice(&header[0..8]);
                return Err(SnapError::BadMagic { found });
            }
            return Err(SnapError::HeaderCorrupt {
                stored: stored_hsum,
                computed: computed_hsum,
            });
        }
        if &header[0..8] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&header[0..8]);
            return Err(SnapError::BadMagic { found });
        }
        let version = get_u32(&header, 8);
        if version != FORMAT_VERSION {
            return Err(SnapError::UnsupportedVersion { found: version });
        }
        let mode = QuantMode::from_code(get_u32(&header, 12)).ok_or(SnapError::BadQuantMode {
            code: get_u32(&header, 12),
        })?;
        let dims = (
            get_u64(&header, 16) as usize,
            get_u64(&header, 24) as usize,
            get_u64(&header, 32) as usize,
        );
        let rank = get_u64(&header, 40) as usize;
        let payload_len = get_u64(&header, 48);
        let payload_sum = get_u64(&header, 56);

        let layout = Layout::derive(mode, dims, rank);
        if layout.len as u64 != payload_len {
            return Err(SnapError::DimsMismatch {
                derived: layout.len as u64,
                stored: payload_len,
            });
        }
        let expected_len = HEADER_LEN as u64 + payload_len;
        if actual_len != expected_len {
            return Err(SnapError::Truncated {
                expected: expected_len,
                actual: actual_len,
            });
        }

        let total = expected_len as usize;
        #[cfg(unix)]
        let buf = match map_file(&file, total) {
            Some(mapped) => mapped,
            None => {
                // mmap refused (unusual fs) — fall back to an owned read.
                let mut file = File::open(path)?;
                read_owned(&mut file, total)?
            }
        };
        #[cfg(not(unix))]
        let buf = {
            let mut file = File::open(path)?;
            read_owned(&mut file, total)?
        };

        if verify_payload {
            let computed = fnv1a64(&buf.bytes()[HEADER_LEN..]);
            if computed != payload_sum {
                return Err(SnapError::ChecksumMismatch {
                    stored: payload_sum,
                    computed,
                });
            }
        }

        Ok(SnapshotModel {
            buf,
            mode,
            dims,
            rank,
            layout,
        })
    }

    /// Storage mode.
    pub fn mode(&self) -> QuantMode {
        self.mode
    }

    /// `(I, J, K)` dimensions — mirrors [`TcssModel::dims`].
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Embedding length `r` — mirrors [`TcssModel::rank`].
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Payload bytes (factor data; excludes the one-page header).
    pub fn payload_bytes(&self) -> usize {
        self.layout.len
    }

    /// Total file bytes (header + payload).
    pub fn file_bytes(&self) -> usize {
        HEADER_LEN + self.layout.len
    }

    // -- zero-copy section accessors ---------------------------------

    fn section_f32(&self, off: usize, n: usize) -> &[f32] {
        let bytes = &self.buf.bytes()[HEADER_LEN + off..HEADER_LEN + off + n * 4];
        debug_assert_eq!(bytes.as_ptr() as usize % 4, 0, "section misaligned");
        // SAFETY: the slice covers n*4 in-bounds bytes of the immutable
        // backing; sections sit at 64-byte offsets inside a page-aligned
        // (mmap) or 8-byte-aligned (owned Vec<u64>) buffer, so 4-byte
        // alignment holds. Any f32 bit pattern is a valid value.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), n) }
    }

    fn section_i16(&self, off: usize, n: usize) -> &[i16] {
        let bytes = &self.buf.bytes()[HEADER_LEN + off..HEADER_LEN + off + n * 2];
        debug_assert_eq!(bytes.as_ptr() as usize % 2, 0, "section misaligned");
        // SAFETY: as section_f32, with 2-byte alignment.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<i16>(), n) }
    }

    /// The factor-importance weights `h` (length `r`, always f32).
    pub fn h(&self) -> &[f32] {
        self.section_f32(self.layout.h, self.rank)
    }

    fn factor_rows_f32(&self, off: usize, rows: usize) -> &[f32] {
        self.section_f32(off, rows * self.rank)
    }

    fn factor_rows_i16(&self, off: usize, rows: usize) -> &[i16] {
        self.section_i16(off, rows * self.rank)
    }

    /// The POI factor `U²` as a flat row-major slice (`J × r`), for the
    /// batched f32 matmul. Panics in i16 mode.
    pub fn u2_f32(&self) -> &[f32] {
        assert_eq!(self.mode, QuantMode::F32, "u2_f32 on an i16 snapshot");
        self.factor_rows_f32(self.layout.u2, self.dims.1)
    }

    /// The POI factor `U²` as quantized rows plus per-row scales, for the
    /// batched i16 matmul. Panics in f32 mode.
    pub fn u2_i16(&self) -> (&[i16], &[f32]) {
        assert_eq!(self.mode, QuantMode::I16, "u2_i16 on an f32 snapshot");
        (
            self.factor_rows_i16(self.layout.u2, self.dims.1),
            self.section_f32(self.layout.u2_scales, self.dims.1),
        )
    }

    fn row_f32_into(&self, data_off: usize, scales_off: usize, row: usize, out: &mut Vec<f32>) {
        let r = self.rank;
        out.clear();
        match self.mode {
            QuantMode::F32 => {
                out.extend_from_slice(self.section_f32(data_off + row * r * 4, r));
            }
            QuantMode::I16 => {
                let q = self.section_i16(data_off + row * r * 2, r);
                let s = self.section_f32(scales_off + row * 4, 1)[0];
                out.resize(r, 0.0);
                kernels::dequant_i16(q, s, out);
            }
        }
    }

    /// The per-request weight vector `w = h ⊙ U¹ᵢ ⊙ U³ₖ` in f32, written
    /// into `out` (cleared first) — the compact counterpart of
    /// [`TcssModel::weight_vector_into`]. In i16 mode the U¹/U³ rows are
    /// dequantized on the fly (two `r`-long rows per request — `U²`, the
    /// big operand, never is).
    pub fn weight_vector_into(
        &self,
        user: usize,
        time: usize,
        scratch: &mut (Vec<f32>, Vec<f32>),
        out: &mut Vec<f32>,
    ) {
        let r = self.rank;
        let (ui, uk) = scratch;
        self.row_f32_into(self.layout.u1, self.layout.u1_scales, user, ui);
        self.row_f32_into(self.layout.u3, self.layout.u3_scales, time, uk);
        out.clear();
        out.resize(r, 0.0);
        kernels::mul3_f32(self.h(), ui, uk, out);
    }

    /// Scores for every POI at `(user, time)`, widened to f64 — the
    /// compact counterpart of [`TcssModel::scores_for`], and the
    /// per-request reference the batched path is bit-for-bit against
    /// (both evaluate `dot_f32` / `scale · dot_f32_i16` per element in
    /// the canonical lane order, then widen).
    pub fn scores_for(&self, user: usize, time: usize) -> Vec<f64> {
        let mut scratch = (Vec::new(), Vec::new());
        let mut w = Vec::new();
        self.weight_vector_into(user, time, &mut scratch, &mut w);
        let j = self.dims.1;
        let r = self.rank;
        match self.mode {
            QuantMode::F32 => {
                let u2 = self.u2_f32();
                (0..j)
                    .map(|p| f64::from(kernels::dot_f32(&w, &u2[p * r..(p + 1) * r])))
                    .collect()
            }
            QuantMode::I16 => {
                let (q2, s2) = self.u2_i16();
                (0..j)
                    .map(|p| f64::from(s2[p] * kernels::dot_f32_i16(&w, &q2[p * r..(p + 1) * r])))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcss_core::random_init;

    fn model(seed: u64) -> TcssModel {
        let (u1, u2, u3) = random_init((5, 17, 4), 6, seed);
        let mut m = TcssModel::new(u1, u2, u3);
        m.h = (0..6).map(|t| 0.5 + 0.1 * t as f64).collect();
        m
    }

    fn write_to(dir: &Path, name: &str, m: &TcssModel, mode: QuantMode) -> std::path::PathBuf {
        let path = dir.join(name);
        write_snapshot(m, mode, &path).expect("write snapshot");
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tcss-snap-unit-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_f32_preserves_factors_to_f32_precision() {
        let dir = tmpdir("rt32");
        let m = model(3);
        let path = write_to(&dir, "m.tcsssnap", &m, QuantMode::F32);
        let snap = SnapshotModel::open(&path).expect("open");
        assert_eq!(snap.dims(), m.dims());
        assert_eq!(snap.rank(), m.rank());
        assert_eq!(snap.mode(), QuantMode::F32);
        for (t, &h) in m.h.iter().enumerate() {
            assert_eq!(snap.h()[t].to_bits(), (h as f32).to_bits());
        }
        let u2 = snap.u2_f32();
        for j in 0..m.dims().1 {
            for t in 0..m.rank() {
                assert_eq!(
                    u2[j * m.rank() + t].to_bits(),
                    (m.u2.get(j, t) as f32).to_bits()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn i16_dequantization_error_is_within_scale_bound() {
        let dir = tmpdir("rt16");
        let m = model(9);
        let path = write_to(&dir, "m.tcsssnap", &m, QuantMode::I16);
        let snap = SnapshotModel::open(&path).expect("open");
        let (q2, s2) = snap.u2_i16();
        let r = m.rank();
        for j in 0..m.dims().1 {
            let s = f64::from(s2[j]);
            for t in 0..r {
                let deq = f64::from(q2[j * r + t]) * s;
                // |v − s·round(v/s)| ≤ s/2 plus f32 scale rounding slack.
                assert!(
                    (deq - m.u2.get(j, t)).abs() <= 0.5001 * s.max(1e-12),
                    "row {j} entry {t}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_row_quantizes_exactly() {
        let mut out = vec![7i16; 4];
        let s = quantize_row(&[0.0; 4], &mut out);
        assert_eq!(s, 0.0);
        assert_eq!(out, vec![0; 4]);
    }

    #[test]
    fn scores_for_agrees_with_f64_reference_loosely() {
        let dir = tmpdir("agree");
        let m = model(21);
        for mode in [QuantMode::F32, QuantMode::I16] {
            let path = write_to(&dir, &format!("m-{mode}.tcsssnap"), &m, mode);
            let snap = SnapshotModel::open(&path).expect("open");
            let got = snap.scores_for(2, 1);
            let want = m.scores_for(2, 1);
            let tol = match mode {
                QuantMode::F32 => 1e-5,
                QuantMode::I16 => 1e-2,
            };
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= tol * (1.0 + w.abs()), "{mode}: {g} vs {w}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_fast_catches_truncation() {
        let dir = tmpdir("fast");
        let m = model(4);
        let path = write_to(&dir, "m.tcsssnap", &m, QuantMode::F32);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(
            SnapshotModel::open_fast(&path),
            Err(SnapError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn not_a_snapshot_is_bad_magic() {
        let dir = tmpdir("magic");
        let path = dir.join("bogus.tcsssnap");
        std::fs::write(&path, vec![0x41u8; HEADER_LEN + 64]).unwrap();
        assert!(matches!(
            SnapshotModel::open(&path),
            Err(SnapError::BadMagic { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
