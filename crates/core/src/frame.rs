//! Length-prefixed, checksummed framing: the one frame codec of every
//! transport in the workspace — the serving wire protocol
//! (`tcss_serve::net`) and the distributed-training transport
//! ([`crate::dist`]).
//!
//! Wire format of one frame:
//!
//! ```text
//! [u32 LE payload length][payload bytes][u64 LE checksum(payload)]
//! ```
//!
//! The framing layer knows nothing about payload contents. A transport
//! chooses only the payload-length cap, as the [`FrameDecoder::new`]
//! argument (1 MiB for serving, 1 GiB for training deltas); the
//! checksum trailer is not optional.
//!
//! The decoder is push-based and never blocks: feed it arbitrary byte
//! splits with [`FrameDecoder::push`] (or through [`read_frame`]),
//! drain complete frames with [`FrameDecoder::next_frame`], and signal
//! EOF with [`FrameDecoder::finish`]. Failure posture:
//!
//! * a length prefix above the cap is a typed [`FrameError::Oversized`]
//!   as soon as the header is buffered, before any payload — a hostile
//!   4 GiB header cannot make a reader allocate;
//! * a payload that does not hash to its trailer is a typed
//!   [`FrameError::ChecksumMismatch`];
//! * a stream that ends mid-frame is a typed [`FrameError::TruncatedEof`]
//!   carrying the exact number of bytes buffered;
//! * an error poisons the decoder: framing has no resync point, so every
//!   later [`FrameDecoder::next_frame`] and [`FrameDecoder::finish`]
//!   reports the same error and the caller closes the stream.
//!
//! The frame trailer's [`checksum`] is also the workspace's one file
//! checksum (model files, checkpoints, serving snapshots), and the
//! little-endian field codec here (`Reader`, `put_*`) is shared by the
//! distributed messages and the model/checkpoint files.

use std::io::{self, Read};

/// Bytes in the length prefix.
pub const HEADER_LEN: usize = 4;
/// Bytes in the checksum trailer.
pub(crate) const TRAILER_LEN: usize = 8;

/// Minimum spare room one [`FrameDecoder::read_from`] offers (the
/// maximum is 16×): storage grows as bytes arrive, never to a declared
/// length up front.
const READ_CHUNK: usize = 64 * 1024;
/// Consumed-prefix length at which the decoder compacts its buffer.
const COMPACT_AT: usize = 4096;

/// Typed framing errors. All are stream-fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the decoder's cap.
    Oversized {
        /// Length the prefix declared.
        declared: u32,
        /// Maximum the decoder accepts.
        max: u32,
    },
    /// The stream ended with a partial frame buffered.
    TruncatedEof {
        /// Bytes of the unfinished frame (header and partial body).
        buffered: usize,
    },
    /// The payload does not hash to its trailer.
    ChecksumMismatch {
        /// Checksum the trailer carried.
        expected: u64,
        /// Checksum recomputed over the received payload.
        got: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::TruncatedEof { buffered } => {
                write!(f, "stream ended mid-frame with {buffered} byte(s) buffered")
            }
            FrameError::ChecksumMismatch { expected, got } => write!(
                f,
                "frame checksum mismatch: trailer {expected:016x}, payload hashes to {got:016x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

/// Initial CRC state of the stream over even 8-byte words.
const SEED_A: u32 = 0xffff_ffff;
/// Initial CRC state of the stream over odd 8-byte words.
const SEED_B: u32 = 0x5a5a_5a5a;

/// CRC32C (Castagnoli, reflected polynomial `0x82F63B78`) byte table.
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0x82f6_3b78
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The frame-trailer checksum: two interleaved CRC32C streams.
///
/// Every 16-byte block feeds its first 8 bytes to stream `a` and its
/// last 8 to stream `b`; the sub-16-byte tail goes to `a`. The trailer
/// is `(a << 32) | b`, with no final inversion. Two streams break the
/// serial dependency chain of one CRC, roughly doubling hardware
/// throughput on the megabyte delta frames of training. A single
/// flipped byte lands in exactly one stream and always changes it.
///
/// The value is part of the wire and file formats, so it is the same on
/// every host: the SSE4.2 `crc32` instruction where the CPU has it, and a
/// table-driven software CRC32C computing identical bits elsewhere. Model
/// files, checkpoints and serving snapshots carry it too, and the config
/// fingerprint is this checksum of the fingerprint string.
pub fn checksum(data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { checksum_sse42(data) };
        }
    }
    checksum_soft(data)
}

/// [`checksum`] on the SSE4.2 `crc32` instruction.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn checksum_sse42(data: &[u8]) -> u64 {
    use core::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let mut a = u64::from(SEED_A);
    let mut b = u64::from(SEED_B);
    let mut pairs = data.chunks_exact(16);
    for p in &mut pairs {
        a = _mm_crc32_u64(a, word(&p[..8]));
        b = _mm_crc32_u64(b, word(&p[8..]));
    }
    let mut words = pairs.remainder().chunks_exact(8);
    for w in &mut words {
        a = _mm_crc32_u64(a, word(w));
    }
    for &byte in words.remainder() {
        a = u64::from(_mm_crc32_u8(a as u32, byte));
    }
    (a << 32) | b
}

/// Portable [`checksum`]: the same two streams, one table step per byte.
fn checksum_soft(data: &[u8]) -> u64 {
    fn crc(c: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(c, |c, &byte| {
            CRC32C_TABLE[((c ^ u32::from(byte)) & 0xff) as usize] ^ (c >> 8)
        })
    }
    let (mut a, mut b) = (SEED_A, SEED_B);
    let mut pairs = data.chunks_exact(16);
    for p in &mut pairs {
        a = crc(a, &p[..8]);
        b = crc(b, &p[8..]);
    }
    a = crc(a, pairs.remainder());
    (u64::from(a) << 32) | u64::from(b)
}

// ---------------------------------------------------------------------
// Field codec: little-endian integers and `f64` bit patterns, shared by
// the distributed message payloads and the model/checkpoint files.
// ---------------------------------------------------------------------

/// A payload that ended inside a field or ran past its last one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Malformed(pub(crate) String);

/// Bounds-checked cursor over a payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], Malformed> {
        if self.buf.len() - self.pos < n {
            return Err(Malformed(format!(
                "payload truncated reading {what}: need {n} bytes, have {}",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, Malformed> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, Malformed> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, Malformed> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, Malformed> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// `n` contiguous `f64`s appended onto `out`.
    pub(crate) fn f64s_into(
        &mut self,
        n: usize,
        out: &mut Vec<f64>,
        what: &str,
    ) -> Result<(), Malformed> {
        let bytes = self.take(n * 8, what)?;
        out.reserve(n);
        for c in bytes.chunks_exact(8) {
            out.push(f64::from_le_bytes(c.try_into().unwrap()));
        }
        Ok(())
    }

    pub(crate) fn done(&self) -> Result<(), Malformed> {
        if self.pos != self.buf.len() {
            return Err(Malformed(format!(
                "{} trailing bytes after message end",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(vs.len() * 8);
    for &v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn len_prefix(len: usize) -> [u8; HEADER_LEN] {
    u32::try_from(len)
        .expect("payload fits a u32 length prefix")
        .to_le_bytes()
}

/// Append one frame for `payload` to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&len_prefix(payload.len()));
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
}

/// The payload of a raw frame as returned by
/// [`FrameDecoder::next_raw_frame`].
pub(crate) fn raw_payload(raw: &[u8]) -> &[u8] {
    &raw[HEADER_LEN..raw.len() - TRAILER_LEN]
}

/// Reusable in-place frame encoder. Messages are encoded straight after
/// a reserved length prefix, then [`FrameBuf::finish`] patches the
/// prefix and appends the trailer — no per-frame allocation:
///
/// ```text
/// let p = buf.payload();        // cleared, positioned after the prefix
/// encode_step_into(p, ...);     // append the message
/// stream.write_all(buf.finish())?;
/// ```
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    /// Byte offset of the current (unsealed) frame's header.
    start: usize,
}

impl FrameBuf {
    /// An empty encoder.
    pub(crate) fn new() -> Self {
        FrameBuf::default()
    }

    /// Start a frame: clear the buffer, reserve the length prefix, and
    /// hand back the payload sink.
    pub(crate) fn payload(&mut self) -> &mut Vec<u8> {
        self.buf.clear();
        self.start = 0;
        self.buf.extend_from_slice(&[0u8; HEADER_LEN]);
        &mut self.buf
    }

    /// Payload bytes encoded so far, for patching fields at known
    /// offsets — patch **before** [`FrameBuf::finish`] so the checksum
    /// covers the final bytes.
    pub(crate) fn payload_mut(&mut self) -> &mut [u8] {
        let at = self.start + HEADER_LEN;
        &mut self.buf[at..]
    }

    /// Seal the current frame and start another behind it, so a burst
    /// of messages goes out in one `write_all` — one syscall and one
    /// receiver wake-up instead of one per frame.
    pub(crate) fn next_payload(&mut self) -> &mut Vec<u8> {
        self.seal();
        self.start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; HEADER_LEN]);
        &mut self.buf
    }

    /// Patch the current frame's length prefix and append its trailer.
    fn seal(&mut self) {
        let body = self.start + HEADER_LEN;
        let len = self.buf.len() - body;
        self.buf[self.start..body].copy_from_slice(&len_prefix(len));
        let sum = checksum(&self.buf[body..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
    }

    /// Seal the current frame and return every frame buffered since
    /// [`FrameBuf::payload`], ready for one write.
    pub(crate) fn finish(&mut self) -> &[u8] {
        self.seal();
        &self.buf
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Incremental frame decoder; see the module docs for its contract.
#[derive(Debug)]
pub struct FrameDecoder {
    /// Initialised storage: `[pos, end)` is input not yet consumed.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    max_frame_len: u32,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder accepting payloads of up to `max_frame_len` bytes.
    pub fn new(max_frame_len: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            end: 0,
            max_frame_len,
            poisoned: None,
        }
    }

    /// Append raw bytes from the transport, split however they arrived.
    pub fn push(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `stream` straight into the buffer (retrying
    /// `Interrupted`); `Ok(0)` is EOF. The read is offered room for the
    /// rest of the frame being assembled (within bounds), so a large
    /// frame arrives in few reads.
    pub(crate) fn read_from(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        self.reserve(self.missing().clamp(READ_CHUNK, 16 * READ_CHUNK));
        loop {
            match stream.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes buffered but not yet consumed as frames.
    fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// The next complete, verified payload; `Ok(None)` means "need more
    /// bytes".
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self
            .next_span()?
            .map(|(at, len)| self.buf[at + HEADER_LEN..at + HEADER_LEN + len].to_vec()))
    }

    /// Like [`FrameDecoder::next_frame`], but returns the whole verified
    /// frame (prefix, payload, trailer), so a relay can forward it with a
    /// plain write; [`raw_payload`] slices out the payload.
    pub(crate) fn next_raw_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self
            .next_span()?
            .map(|(at, len)| self.buf[at..at + HEADER_LEN + len + TRAILER_LEN].to_vec()))
    }

    /// Signal EOF: a partial frame still buffered is a typed truncation.
    pub fn finish(&self) -> Result<(), FrameError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        match self.buffered() {
            0 => Ok(()),
            buffered => Err(FrameError::TruncatedEof { buffered }),
        }
    }

    /// Consume the next complete, verified frame and return its start
    /// offset and payload length.
    fn next_span(&mut self) -> Result<Option<(usize, usize)>, FrameError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        let Some(declared) = self.header() else {
            return Ok(None);
        };
        if declared > self.max_frame_len {
            return Err(self.poison(FrameError::Oversized {
                declared,
                max: self.max_frame_len,
            }));
        }
        let (at, len) = (self.pos, declared as usize);
        let total = HEADER_LEN + len + TRAILER_LEN;
        if self.buffered() < total {
            return Ok(None);
        }
        let trailer = &self.buf[at + HEADER_LEN + len..at + total];
        let expected = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let got = checksum(&self.buf[at + HEADER_LEN..at + HEADER_LEN + len]);
        if got != expected {
            return Err(self.poison(FrameError::ChecksumMismatch { expected, got }));
        }
        self.pos += total;
        Ok(Some((at, len)))
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e);
        e
    }

    /// The length prefix of the frame at `pos`, once it is buffered.
    fn header(&self) -> Option<u32> {
        let bytes = self.buf[self.pos..self.end].get(..HEADER_LEN)?;
        Some(u32::from_le_bytes(bytes.try_into().expect("4-byte header")))
    }

    /// Bytes still missing from the frame being assembled (0 until its
    /// header is buffered, and for a header over the cap).
    fn missing(&self) -> usize {
        match self.header() {
            Some(declared) if declared <= self.max_frame_len => {
                (HEADER_LEN + declared as usize + TRAILER_LEN).saturating_sub(self.buffered())
            }
            _ => 0,
        }
    }

    /// Make room for `n` more bytes at `end`, dropping the consumed
    /// prefix first. Storage only grows, so it is zero-filled once.
    fn reserve(&mut self, n: usize) {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        } else if self.pos >= COMPACT_AT {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() < self.end + n {
            self.buf.resize(self.end + n, 0);
        }
    }
}

/// Read the next payload from a blocking stream through `dec`. A clean
/// EOF between frames is `Ok(None)`; EOF mid-frame and corrupt frames
/// are typed [`FrameError`]s, socket failures `io::Error`s.
pub fn read_frame<E>(stream: &mut impl Read, dec: &mut FrameDecoder) -> Result<Option<Vec<u8>>, E>
where
    E: From<io::Error> + From<FrameError>,
{
    loop {
        if let Some(payload) = dec.next_frame()? {
            return Ok(Some(payload));
        }
        if dec.read_from(stream)? == 0 {
            dec.finish()?;
            return Ok(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type ReadResult = Result<Option<Vec<u8>>, Box<dyn std::error::Error>>;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload);
        out
    }

    fn frame_error(r: ReadResult) -> Option<FrameError> {
        r.err()
            .map(|e| *e.downcast_ref::<FrameError>().expect("a frame error"))
    }

    /// A reader handing out its bytes in the (cycled, nonzero) chunk
    /// sizes of `.1`, like a socket delivering arbitrary read splits.
    struct Trickle<'a>(&'a [u8], std::iter::Cycle<std::slice::Iter<'a, usize>>);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self
                .1
                .next()
                .map_or(0, |&c| c.min(out.len()).min(self.0.len()));
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any payload sequence decodes to exactly the original payloads
        /// under any push split and any read split, and the raw frames
        /// come back byte-identical to what was written.
        #[test]
        fn frames_roundtrip_under_arbitrary_splits(
            payloads in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..200), 0..8),
            cuts in proptest::collection::vec(1usize..64, 1..24),
        ) {
            let stream: Vec<u8> = payloads.iter().flat_map(|p| framed(p)).collect();
            // Push path, drained after every split.
            let (mut rd, mut tmp) = (Trickle(&stream, cuts.iter().cycle()), [0u8; 64]);
            let mut dec = FrameDecoder::new(1 << 12);
            let mut raws = Vec::new();
            while let n @ 1.. = rd.read(&mut tmp).unwrap() {
                dec.push(&tmp[..n]);
                while let Some(raw) = dec.next_raw_frame().expect("well-formed stream") {
                    raws.push(raw);
                }
            }
            dec.finish().expect("stream ends on a frame boundary");
            prop_assert_eq!(raws.concat(), stream.clone());
            let got: Vec<_> = raws.iter().map(|r| raw_payload(r).to_vec()).collect();
            prop_assert_eq!(&got, &payloads);
            // Blocking path: the same stream through `read_frame`.
            let (mut rd, mut dec) = (Trickle(&stream, cuts.iter().cycle()), FrameDecoder::new(1 << 12));
            let mut got = Vec::new();
            while let Some(p) = read_frame::<Box<dyn std::error::Error>>(&mut rd, &mut dec).unwrap() {
                got.push(p);
            }
            prop_assert_eq!(got, payloads);
        }

        /// A header over the cap errors with only the header buffered —
        /// before a single payload byte — and the poison sticks through
        /// `next_frame`, `next_raw_frame`, later pushes and `finish`.
        #[test]
        fn oversized_headers_error_eagerly_and_stick(
            cap in 0u32..4096,
            excess in 1u32..=u32::MAX,
            tail in proptest::collection::vec(0u8..=255, 0..16),
        ) {
            let declared = cap.saturating_add(excess);
            let mut dec = FrameDecoder::new(cap);
            dec.push(&declared.to_le_bytes());
            let want = FrameError::Oversized { declared, max: cap };
            prop_assert_eq!(dec.missing(), 0, "no room is reserved for the body");
            prop_assert_eq!(dec.next_frame(), Err(want));
            dec.push(&tail);
            dec.push(&framed(b"valid"));
            prop_assert_eq!(dec.next_frame(), Err(want));
            prop_assert_eq!(dec.next_raw_frame(), Err(want));
            prop_assert_eq!(dec.finish(), Err(want));
        }

        /// Any single-byte flip anywhere in a frame is detected and never
        /// yields a payload: in the payload or trailer it is exactly a
        /// checksum mismatch; in the header it is oversize, a checksum
        /// mismatch (shorter) or a truncation at EOF (longer). Poison
        /// sticks through `next_frame`, `read_frame` and `finish`.
        #[test]
        fn single_byte_corruption_is_detected(
            payload in proptest::collection::vec(0u8..=255, 0..100),
            at in 0usize..=usize::MAX,
            mask in 1u8..=255,
        ) {
            let mut wire = framed(&payload);
            let at = at % wire.len();
            wire[at] ^= mask;
            let mut dec = FrameDecoder::new(1 << 12);
            dec.push(&wire);
            match dec.next_frame() {
                Ok(Some(f)) => prop_assert!(false, "corrupted frame decoded: {:?}", f),
                Ok(None) => {
                    prop_assert!(at < HEADER_LEN, "only a longer header can wait");
                    let want = FrameError::TruncatedEof { buffered: wire.len() };
                    prop_assert_eq!(dec.finish(), Err(want));
                }
                Err(e) => {
                    if at >= HEADER_LEN {
                        prop_assert!(matches!(e, FrameError::ChecksumMismatch { .. }), "{}", e);
                    }
                    dec.push(&framed(b"next"));
                    prop_assert_eq!(dec.next_frame(), Err(e));
                    prop_assert_eq!(frame_error(read_frame(&mut &[][..], &mut dec)), Some(e));
                    prop_assert_eq!(dec.finish(), Err(e));
                }
            }
        }
    }

    #[test]
    fn frame_buf_matches_write_frame_and_reuses_allocation() {
        let payloads = [b"abc".as_slice(), b"", b"longer payload!!", &[7u8; 300]];
        let mut buf = FrameBuf::new();
        for payload in payloads {
            buf.payload().extend_from_slice(payload);
            assert_eq!(buf.finish(), framed(payload).as_slice());
        }
        // A burst sealed with `next_payload` is the concatenation.
        buf.payload().extend_from_slice(payloads[0]);
        for payload in &payloads[1..] {
            buf.next_payload().extend_from_slice(payload);
        }
        let burst: Vec<u8> = payloads.iter().flat_map(|p| framed(p)).collect();
        let sealed = buf.finish();
        assert_eq!(sealed, burst.as_slice());
        // Re-encoding a smaller frame reuses the allocation; patching
        // through payload_mut lands inside the checksummed bytes.
        let at = sealed.as_ptr();
        buf.payload().extend_from_slice(&[0u8; 8]);
        let word = 0x0123_4567_89AB_CDEFu64.to_le_bytes();
        buf.payload_mut().copy_from_slice(&word);
        let sealed = buf.finish();
        assert_eq!(sealed.as_ptr(), at);
        assert_eq!(sealed, framed(&word).as_slice());
    }

    #[test]
    fn read_frame_drains_frames_then_reports_clean_eof() {
        let stream: Vec<u8> = [&b"exchange body"[..], b"", b"x"].map(framed).concat();
        let (mut rd, mut dec) = (&stream[..], FrameDecoder::new(64));
        let mut got = Vec::new();
        while let Some(p) = read_frame::<Box<dyn std::error::Error>>(&mut rd, &mut dec).unwrap() {
            got.push(p);
        }
        assert_eq!(got, [b"exchange body".to_vec(), vec![], b"x".to_vec()]);
        let again: ReadResult = read_frame(&mut rd, &mut dec);
        assert!(again.unwrap().is_none(), "EOF stays a clean EOF");
    }

    #[test]
    fn hardware_and_software_checksums_agree() {
        let big: Vec<u8> = (0..(1u64 << 20) + 13)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect();
        for len in (0..=64).chain([big.len()]) {
            let data = &big[..len];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("sse4.2") {
                // SAFETY: guarded by the feature check.
                let hw = unsafe { checksum_sse42(data) };
                assert_eq!(hw, checksum_soft(data), "length {len}");
            }
            assert_eq!(checksum(data), checksum_soft(data), "length {len}");
        }
    }

    /// Known answers pin the frame format across hosts and releases. The
    /// `123456789` vector ties the software table to the standard CRC32C
    /// check value `0xE3069283`: stream `a` is its un-inverted state.
    #[test]
    fn checksum_and_frame_bytes_match_known_answers() {
        assert_eq!(checksum(b""), 0xffff_ffff_5a5a_5a5a);
        let check = (u64::from(!0xe306_9283u32) << 32) | 0x5a5a_5a5a;
        assert_eq!(checksum(b"123456789"), check);
        assert_eq!(
            checksum(&(0u8..40).collect::<Vec<_>>()),
            0x2019_e844_ecb2_ac29
        );
        let tcss = [
            4, 0, 0, 0, b't', b'c', b's', b's', 0x5a, 0x5a, 0x5a, 0x5a, 0xc3, 0x1f, 0x24, 0x7c,
        ];
        assert_eq!(framed(b"tcss"), tcss);
        let mut dec = FrameDecoder::new(0);
        dec.push(&framed(b""));
        assert_eq!(
            dec.next_frame(),
            Ok(Some(Vec::new())),
            "empty payloads are legal"
        );
        dec.finish().unwrap();
    }
}
