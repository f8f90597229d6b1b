//! Message codec of the distributed-training transport.
//!
//! Every message travels as one payload of the workspace's one frame
//! format ([`crate::frame`]: length prefix, payload, CRC32C trailer),
//! decoded with a [`MAX_FRAME_LEN`] cap; a torn or corrupted delta
//! exchange therefore surfaces as a typed [`WireError::Frame`] instead
//! of silently perturbing training. The first payload byte is the
//! message tag.
//!
//! All multi-byte integers and floats are little-endian; `f64`s travel as
//! `to_le_bytes`/`from_le_bytes`, which round-trips every bit pattern —
//! the process-count-parity contract depends on that exactness. Decoding
//! never panics: every malformed payload is a typed
//! [`WireError::Malformed`].

use crate::config::LossStrategy;
use crate::frame::{put_f64, put_f64s, put_u32, put_u64, FrameError, Malformed, Reader};
use crate::loss::ENTRIES_PER_CHUNK;
use crate::model::TcssModel;
use crate::sparse_grads::SparseGrads;
use tcss_linalg::{chunk_count, Matrix};
use tcss_sparse::TensorEntry;

/// Frame-size cap for the training transport. Delta frames scale with
/// `touched rows × rank`, and a full-model broadcast is `(I+J+K+1)·r`
/// doubles, so the cap is generous; anything larger is a corrupt length
/// prefix, not a real message.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Message tags (first payload byte). One epoch is StepOwned → ChunkStats
/// + Exch → TailRows → UpdatedRows; see [`super::sharded`].
pub(crate) const TAG_HELLO: u8 = 1;
pub(crate) const TAG_SETUP: u8 = 2;
pub(crate) const TAG_SHUTDOWN: u8 = 5;
/// Coordinator → worker resident-state install (initial, respawn,
/// rollback).
pub(crate) const TAG_ADOPT: u8 = 6;
/// Worker → owner (relayed verbatim): un-merged per-chunk row deltas for
/// rows the destination owns.
pub(crate) const TAG_EXCH: u8 = 7;
/// Worker → coordinator: per-chunk losses and `h` deltas (the coordinator
/// owns `h` and the loss fold).
pub(crate) const TAG_CHUNK_STATS: u8 = 8;
/// Coordinator → worker: Gram + Hausdorff tail gradients for the rows the
/// worker owns (absent when the tail is inactive this epoch).
pub(crate) const TAG_TAIL_ROWS: u8 = 9;
/// Worker → coordinator: per-owned-row gradient self-dots for the norm
/// fold, the Adam-stepped owned rows, and on cadence epochs the `m`/`v`
/// moments.
pub(crate) const TAG_UPD_ROWS: u8 = 12;
/// Coordinator → worker: one epoch's model, effective learning rate and
/// ship-moments flag, with the worker's owned `U¹` rows punched out of
/// its read window — the receiver holds those rows resident (bitwise
/// equal to the coordinator's copy by the UpdatedRows splice invariant)
/// and fills them back in during decode.
pub(crate) const TAG_STEP_OWNED: u8 = 15;

/// Typed decode failures. Every malformed input maps to exactly one of
/// these — the codec never panics and the decoder never blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame layer rejected the stream (oversized, truncated or
    /// corrupted frame).
    Frame(FrameError),
    /// A structurally invalid message payload (bad tag, truncated field,
    /// inconsistent dimensions).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => e.fmt(f),
            WireError::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<Malformed> for WireError {
    fn from(e: Malformed) -> Self {
        WireError::Malformed(e.0)
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Worker → coordinator greeting, sent immediately after connecting.
pub(crate) fn encode_hello(worker: u32) -> Vec<u8> {
    let mut p = vec![TAG_HELLO];
    put_u32(&mut p, worker);
    p
}

pub(crate) fn decode_hello(payload: &[u8]) -> Result<u32, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_HELLO, "Hello")?;
    let w = r.u32("worker id")?;
    r.done()?;
    Ok(w)
}

/// Everything a worker needs to evaluate its chunk block and step its
/// owned rows: tensor, weights, kernel choice, seed, the block of
/// **global** chunk indices it evaluates, its thread count, the fleet
/// size, and the weight decay.
#[derive(Debug)]
pub(crate) struct Setup {
    pub dims: (usize, usize, usize),
    pub rank: usize,
    pub w_plus: f64,
    pub w_minus: f64,
    /// The entry-chunk kernel: one byte on the wire, `0` for the
    /// rewritten whole-data loss (its Gram tail stays with the
    /// coordinator) and `1` for negative sampling.
    pub loss: LossStrategy,
    pub seed: u64,
    pub chunk_start: usize,
    pub chunk_end: usize,
    pub threads: usize,
    /// Fleet size — fixes the row-ownership map
    /// (`sparse_grads::owned_range`) every peer derives locally.
    pub n_workers: usize,
    /// Adam weight decay — workers apply the optimizer to their owned
    /// rows themselves.
    pub weight_decay: f64,
    pub entries: Vec<TensorEntry>,
}

pub(crate) fn encode_setup(s: &Setup) -> Vec<u8> {
    let mut p = vec![TAG_SETUP];
    put_u32(&mut p, s.dims.0 as u32);
    put_u32(&mut p, s.dims.1 as u32);
    put_u32(&mut p, s.dims.2 as u32);
    put_u32(&mut p, s.rank as u32);
    put_f64(&mut p, s.w_plus);
    put_f64(&mut p, s.w_minus);
    p.push(match s.loss {
        LossStrategy::WholeDataRewritten => 0,
        LossStrategy::NegativeSampling => 1,
    });
    put_u64(&mut p, s.seed);
    put_u64(&mut p, s.chunk_start as u64);
    put_u64(&mut p, s.chunk_end as u64);
    put_u32(&mut p, s.threads as u32);
    put_u32(&mut p, s.n_workers as u32);
    put_f64(&mut p, s.weight_decay);
    put_u64(&mut p, s.entries.len() as u64);
    for e in &s.entries {
        put_u32(&mut p, e.i as u32);
        put_u32(&mut p, e.j as u32);
        put_u32(&mut p, e.k as u32);
        put_f64(&mut p, e.value);
    }
    p
}

pub(crate) fn decode_setup(payload: &[u8]) -> Result<Setup, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_SETUP, "Setup")?;
    let dims = (
        r.u32("dim I")? as usize,
        r.u32("dim J")? as usize,
        r.u32("dim K")? as usize,
    );
    let rank = r.u32("rank")? as usize;
    let w_plus = r.f64("w_plus")?;
    let w_minus = r.f64("w_minus")?;
    let loss = match r.u8("loss strategy")? {
        0 => LossStrategy::WholeDataRewritten,
        1 => LossStrategy::NegativeSampling,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown loss strategy {other}"
            )))
        }
    };
    let seed = r.u64("seed")?;
    let chunk_start = r.u64("chunk_start")? as usize;
    let chunk_end = r.u64("chunk_end")? as usize;
    let threads = r.u32("threads")? as usize;
    let n_workers = r.u32("n_workers")? as usize;
    let weight_decay = r.f64("weight_decay")?;
    let n = r.u64("entry count")? as usize;
    if n_workers == 0 {
        return Err(WireError::Malformed("setup with zero workers".into()));
    }
    if chunk_start > chunk_end {
        return Err(WireError::Malformed(format!(
            "chunk block start {chunk_start} exceeds end {chunk_end}"
        )));
    }
    // The worker turns the block into entry offsets
    // (`chunk · ENTRIES_PER_CHUNK`): a block past the entries' chunk grid
    // would overflow that product instead of naming the fault.
    let n_chunks = chunk_count(n, ENTRIES_PER_CHUNK);
    if chunk_end > n_chunks {
        return Err(WireError::Malformed(format!(
            "chunk block {chunk_start}..{chunk_end} past the {n_chunks} chunks of {n} entries"
        )));
    }
    let mut entries = Vec::with_capacity(n.min(1 << 24));
    for idx in 0..n {
        let i = r.u32("entry i")? as usize;
        let j = r.u32("entry j")? as usize;
        let k = r.u32("entry k")? as usize;
        let value = r.f64("entry value")?;
        if i >= dims.0 || j >= dims.1 || k >= dims.2 {
            return Err(WireError::Malformed(format!(
                "entry {idx} index ({i}, {j}, {k}) out of bounds for {dims:?}"
            )));
        }
        entries.push(TensorEntry { i, j, k, value });
    }
    r.done()?;
    Ok(Setup {
        dims,
        rank,
        w_plus,
        w_minus,
        loss,
        seed,
        chunk_start,
        chunk_end,
        threads,
        n_workers,
        weight_decay,
        entries,
    })
}

/// The owned-rows hole a [`TAG_STEP_OWNED`] frame punches out of a `U¹`
/// window: the intersection of the receiver's owned row range with
/// `[lo, hi)`. Both ends derive it independently from the same
/// [`crate::sparse_grads::owned_range`] map, so it is never on the wire.
pub(crate) fn u1_hole(own: (usize, usize), lo: usize, hi: usize) -> (usize, usize) {
    let h_lo = own.0.clamp(lo, hi);
    let h_hi = own.1.clamp(h_lo, hi);
    (h_lo, h_hi)
}

/// Coordinator → worker: one epoch's step. `lr_eff` is the effective
/// learning rate (`lr · lr_scale`, multiplied once on the coordinator so
/// every peer steps with the same bits) and `ship_moments` asks for the
/// resident `m`/`v` in this epoch's UpdatedRows (cadence epochs).
///
/// The model: `U²`/`U³`/`h` ship whole;
/// `U¹` ships only the receiver's read window `[u1_lo, u1_hi)` — a worker
/// only ever reads the `U¹` rows its contiguous (sorted COO) chunk block
/// touches (negative sampling reads arbitrary rows, so there the
/// coordinator passes the full range) — and the window ships as the two
/// slices around the receiver's owned rows ([`u1_hole`]), which it holds
/// resident. At steady state a worker's read window is mostly its own
/// chunk block's rows, so the per-epoch broadcast drops to the boundary
/// slivers owned by its neighbors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_step_owned_into(
    p: &mut Vec<u8>,
    epoch: u64,
    lr_eff: f64,
    ship_moments: bool,
    model: &TcssModel,
    u1_lo: usize,
    u1_hi: usize,
    own: (usize, usize),
) {
    let (i, j, k) = model.dims();
    let r = model.rank();
    debug_assert!(u1_lo <= u1_hi && u1_hi <= i);
    let (h_lo, h_hi) = u1_hole(own, u1_lo, u1_hi);
    let sent = (u1_hi - u1_lo) - (h_hi - h_lo);
    p.reserve(1 + 8 + 9 + 24 + (sent + j + k + 1) * r * 8);
    p.push(TAG_STEP_OWNED);
    put_u64(p, epoch);
    put_f64(p, lr_eff);
    p.push(ship_moments as u8);
    put_u32(p, i as u32);
    put_u32(p, j as u32);
    put_u32(p, k as u32);
    put_u32(p, r as u32);
    put_u32(p, u1_lo as u32);
    put_u32(p, u1_hi as u32);
    put_f64s(p, &model.u1.as_slice()[u1_lo * r..h_lo * r]);
    put_f64s(p, &model.u1.as_slice()[h_hi * r..u1_hi * r]);
    put_f64s(p, model.u2.as_slice());
    put_f64s(p, model.u3.as_slice());
    put_f64s(p, &model.h);
}

/// Decoded [`TAG_STEP_OWNED`].
pub(crate) struct Step {
    pub epoch: u64,
    pub lr_eff: f64,
    pub ship_moments: bool,
    pub model: TcssModel,
}

/// Decode [`TAG_STEP_OWNED`] for a receiver set up with `dims` and
/// `rank`, splicing its resident owned `U¹` rows (`res_u1`, the full
/// `own` range slab) into the hole. Dimensions or a rank other than the
/// Setup's are malformed, refused before anything is sized from them. The
/// resident bytes are the same bits the coordinator's model holds for
/// those rows, so the rebuilt window is bit-identical to the
/// coordinator's. Rows outside the window decode as zeros and are never
/// read, keeping the float stream bit-identical.
pub(crate) fn decode_step_owned(
    payload: &[u8],
    dims: (usize, usize, usize),
    rank: usize,
    res_u1: &[f64],
    own: (usize, usize),
) -> Result<Step, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_STEP_OWNED, "StepOwned")?;
    let epoch = r.u64("epoch")?;
    let lr_eff = r.f64("effective lr")?;
    let ship_moments = r.flag("ship-moments flag")?;
    let got_dims = (
        r.u32("dim I")? as usize,
        r.u32("dim J")? as usize,
        r.u32("dim K")? as usize,
    );
    let got_rank = r.u32("rank")? as usize;
    if (got_dims, got_rank) != (dims, rank) {
        return Err(WireError::Malformed(format!(
            "step model {got_dims:?}/r{got_rank} does not match setup {dims:?}/r{rank}"
        )));
    }
    let (i, j, k) = dims;
    let u1_lo = r.u32("u1 window lo")? as usize;
    let u1_hi = r.u32("u1 window hi")? as usize;
    if u1_lo > u1_hi || u1_hi > i {
        return Err(WireError::Malformed(format!(
            "U1 window {u1_lo}..{u1_hi} outside dimension {i}"
        )));
    }
    if own.0 > own.1 || own.1 > i || res_u1.len() != (own.1 - own.0) * rank {
        return Err(WireError::Malformed(format!(
            "resident rows {}..{} ({} elems) inconsistent with dim {i} rank {rank}",
            own.0,
            own.1,
            res_u1.len()
        )));
    }
    let (h_lo, h_hi) = u1_hole(own, u1_lo, u1_hi);
    let u1 = {
        let mut data = vec![0.0; i * rank];
        let mut seg = Vec::new();
        r.f64s_into((h_lo - u1_lo) * rank, &mut seg, "U1 window head")?;
        data[u1_lo * rank..h_lo * rank].copy_from_slice(&seg);
        seg.clear();
        r.f64s_into((u1_hi - h_hi) * rank, &mut seg, "U1 window tail")?;
        data[h_hi * rank..u1_hi * rank].copy_from_slice(&seg);
        // Empty holes can clamp outside the owned range (a window that
        // never reaches the owned rows); only index `res_u1` when there
        // is something to splice.
        if h_lo < h_hi {
            data[h_lo * rank..h_hi * rank]
                .copy_from_slice(&res_u1[(h_lo - own.0) * rank..(h_hi - own.0) * rank]);
        }
        Matrix::from_vec(i, rank, data)
            .map_err(|e| WireError::Malformed(format!("bad U1 factor: {e}")))?
    };
    let mut factor = |rows: usize, what: &str| -> Result<Matrix, WireError> {
        let mut data = Vec::new();
        r.f64s_into(rows * rank, &mut data, what)?;
        Matrix::from_vec(rows, rank, data)
            .map_err(|e| WireError::Malformed(format!("bad {what} factor: {e}")))
    };
    let u2 = factor(j, "U2")?;
    let u3 = factor(k, "U3")?;
    let mut h = Vec::new();
    r.f64s_into(rank, &mut h, "h")?;
    r.done()?;
    let mut model = TcssModel::try_new(u1, u2, u3)
        .map_err(|e| WireError::Malformed(format!("inconsistent model: {e}")))?;
    model.h = h;
    Ok(Step {
        epoch,
        lr_eff,
        ship_moments,
        model,
    })
}

/// Coordinator → worker: clean exit.
pub(crate) fn encode_shutdown() -> Vec<u8> {
    vec![TAG_SHUTDOWN]
}

// ---------------------------------------------------------------------
// Epoch protocol messages (see `super::sharded` for the state machine).
// Every worker → coordinator message starts with
// `tag, epoch: u64, src: u32` so the coordinator can filter stale replay
// frames and route without a full decode.
// ---------------------------------------------------------------------

fn put_counted_f64s(p: &mut Vec<u8>, vs: &[f64]) {
    put_u32(p, vs.len() as u32);
    put_f64s(p, vs);
}

impl<'a> Reader<'a> {
    /// A `u32` count, validated against an expected element count, then
    /// that many `f64`s as raw little-endian bytes.
    fn counted_bytes(&mut self, expect: usize, what: &str) -> Result<&'a [u8], WireError> {
        let n = self.u32(what)? as usize;
        if n != expect {
            return Err(WireError::Malformed(format!(
                "{what}: expected {expect} elements, got {n}"
            )));
        }
        Ok(self.take(n * 8, what)?)
    }

    /// One [`Reader::counted_bytes`] block per factor.
    fn factor_blocks(
        &mut self,
        expect: [usize; 3],
        what: &str,
    ) -> Result<[&'a [u8]; 3], WireError> {
        Ok([
            self.counted_bytes(expect[0], what)?,
            self.counted_bytes(expect[1], what)?,
            self.counted_bytes(expect[2], what)?,
        ])
    }

    /// [`Reader::counted_bytes`], decoded onto `out`.
    fn counted_f64s(
        &mut self,
        expect: usize,
        out: &mut Vec<f64>,
        what: &str,
    ) -> Result<(), WireError> {
        let bytes = self.counted_bytes(expect, what)?;
        let start = out.len();
        out.resize(start + expect, 0.0);
        copy_f64s(bytes, &mut out[start..]);
        Ok(())
    }

    /// A `0`/`1` byte.
    fn flag(&mut self, what: &str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("{what}: bad value {other}"))),
        }
    }
}

/// Copy raw little-endian `f64`s (validated by a decoder) into `dest`.
pub(crate) fn copy_f64s(bytes: &[u8], dest: &mut [f64]) {
    debug_assert_eq!(bytes.len(), dest.len() * 8);
    for (d, s) in dest.iter_mut().zip(bytes.chunks_exact(8)) {
        *d = f64::from_le_bytes(s.try_into().unwrap());
    }
}

/// Peek the epoch of any sharded message (all of them lead with
/// `tag, epoch: u64`), for stale-frame filtering without a full decode.
pub(crate) fn msg_epoch(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    r.u8("message tag")?;
    Ok(r.u64("epoch")?)
}

/// Peek `(epoch, src)` of any worker → coordinator sharded message.
pub(crate) fn msg_epoch_src(payload: &[u8]) -> Result<(u64, u32), WireError> {
    let mut r = Reader::new(payload);
    r.u8("message tag")?;
    let epoch = r.u64("epoch")?;
    let src = r.u32("src worker")?;
    Ok((epoch, src))
}

/// Coordinator → worker: install resident owned-range state — the model
/// rows, Adam moments, and step counter for the rows this worker owns.
/// Sent once after Setup and again on every rollback/respawn; a worker
/// accepts it at **any** receive point and resets its epoch state.
pub(crate) fn encode_adopt_into(
    p: &mut Vec<u8>,
    t: u64,
    w: [&[f64]; 3],
    m: [&[f64]; 3],
    v: [&[f64]; 3],
) {
    p.push(TAG_ADOPT);
    put_u64(p, t);
    for f in 0..3 {
        debug_assert!(w[f].len() == m[f].len() && m[f].len() == v[f].len());
        put_counted_f64s(p, w[f]);
        put_counted_f64s(p, m[f]);
        put_counted_f64s(p, v[f]);
    }
}

/// Decoded [`TAG_ADOPT`]: the step counter and per-factor `(w, m, v)`.
pub(crate) struct Adopt {
    pub t: u64,
    pub w: [Vec<f64>; 3],
    pub m: [Vec<f64>; 3],
    pub v: [Vec<f64>; 3],
}

pub(crate) fn decode_adopt(payload: &[u8], expect: [usize; 3]) -> Result<Adopt, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_ADOPT, "Adopt")?;
    let t = r.u64("adam t")?;
    let mut w: [Vec<f64>; 3] = Default::default();
    let mut m: [Vec<f64>; 3] = Default::default();
    let mut v: [Vec<f64>; 3] = Default::default();
    for f in 0..3 {
        r.counted_f64s(expect[f], &mut w[f], "adopted rows")?;
        r.counted_f64s(expect[f], &mut m[f], "adopted m")?;
        r.counted_f64s(expect[f], &mut v[f], "adopted v")?;
    }
    r.done()?;
    Ok(Adopt { t, w, m, v })
}

/// Worker → owner: un-merged row deltas for rows `dest` owns, in global
/// first-touch order (ascending chunk, first-touch within chunk). The
/// coordinator relays the raw frame verbatim.
pub(crate) fn encode_exch_into(
    p: &mut Vec<u8>,
    epoch: u64,
    src: u32,
    dest: u32,
    rank: usize,
    parts: [(&[u32], &[f64]); 3],
) {
    p.push(TAG_EXCH);
    put_u64(p, epoch);
    put_u32(p, src);
    put_u32(p, dest);
    put_u32(p, rank as u32);
    for (rows, data) in parts {
        debug_assert_eq!(rows.len() * rank, data.len());
        put_u32(p, rows.len() as u32);
        for &row in rows {
            put_u32(p, row);
        }
        put_f64s(p, data);
    }
}

/// Peek `(epoch, src, dest)` of an Exch payload (the relay routes on
/// these without decoding the body).
pub(crate) fn exch_header(payload: &[u8]) -> Result<(u64, u32, u32), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_EXCH, "Exch")?;
    let epoch = r.u64("epoch")?;
    let src = r.u32("src worker")?;
    let dest = r.u32("dest worker")?;
    Ok((epoch, src, dest))
}

/// Replay an Exch payload's row adds into the receiver's owned-range
/// gradient slabs (one `+=` per element, in payload order). `ranges` are
/// the receiver's owned `[lo, hi)` row ranges per factor; `bufs` are the
/// matching `(hi - lo) * rank` dense accumulators.
pub(crate) fn apply_exch(
    payload: &[u8],
    expect_epoch: u64,
    rank: usize,
    ranges: [(usize, usize); 3],
    bufs: &mut [Vec<f64>; 3],
) -> Result<(), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_EXCH, "Exch")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "exchange for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let _src = r.u32("src worker")?;
    let _dest = r.u32("dest worker")?;
    let got_rank = r.u32("rank")? as usize;
    if got_rank != rank {
        return Err(WireError::Malformed(format!(
            "exchange rank {got_rank} does not match model rank {rank}"
        )));
    }
    for (f, (lo, hi)) in ranges.into_iter().enumerate() {
        let n_rows = r.u32("touched-row count")? as usize;
        let mut rows = Vec::with_capacity(n_rows.min(1 << 20));
        for _ in 0..n_rows {
            rows.push(r.u32("row index")? as usize);
        }
        let data = r.take(n_rows * rank * 8, "row data")?;
        let buf = &mut bufs[f];
        for (slot, &row) in rows.iter().enumerate() {
            if row < lo || row >= hi {
                return Err(WireError::Malformed(format!(
                    "exchange factor {f} touches row {row} outside owned range {lo}..{hi}"
                )));
            }
            let src = &data[slot * rank * 8..(slot + 1) * rank * 8];
            for (d, s) in buf[(row - lo) * rank..(row - lo + 1) * rank]
                .iter_mut()
                .zip(src.chunks_exact(8))
            {
                *d += f64::from_le_bytes(s.try_into().unwrap());
            }
        }
    }
    r.done()?;
    Ok(())
}

/// Worker → coordinator: per-chunk losses and dense `h` deltas, ascending
/// chunk order — the coordinator owns `h` and folds the global loss.
pub(crate) fn encode_chunk_stats_into(
    p: &mut Vec<u8>,
    epoch: u64,
    src: u32,
    rank: usize,
    chunks: &[(f64, SparseGrads)],
) {
    p.push(TAG_CHUNK_STATS);
    put_u64(p, epoch);
    put_u32(p, src);
    put_u32(p, rank as u32);
    put_u32(p, chunks.len() as u32);
    for (loss, delta) in chunks {
        put_f64(p, *loss);
        let (r, _factors, h) = delta.wire_parts();
        debug_assert_eq!(r, rank);
        put_f64s(p, h);
    }
}

/// Decoded [`TAG_CHUNK_STATS`]: per-chunk losses plus the flattened
/// `n_chunks × rank` `h` deltas.
pub(crate) fn decode_chunk_stats(
    payload: &[u8],
    expect_epoch: u64,
    rank: usize,
) -> Result<(u32, Vec<f64>, Vec<f64>), WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_CHUNK_STATS, "ChunkStats")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "chunk stats for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let src = r.u32("src worker")?;
    let got_rank = r.u32("rank")? as usize;
    if got_rank != rank {
        return Err(WireError::Malformed(format!(
            "chunk stats rank {got_rank} does not match model rank {rank}"
        )));
    }
    let n = r.u32("chunk count")? as usize;
    let mut losses = Vec::with_capacity(n.min(1 << 20));
    let mut h = Vec::new();
    for _ in 0..n {
        losses.push(r.f64("chunk loss")?);
        r.f64s_into(rank, &mut h, "chunk h delta")?;
    }
    r.done()?;
    Ok((src, losses, h))
}

/// Coordinator → worker: the epoch's gradient tail, in one of three
/// shapes (the mode byte after the epoch), one per `train::EpochTail`
/// variant:
///
/// * `0` — tail inactive; the worker must skip the add entirely
///   (adding zeros could flip `-0.0` accumulators to `+0.0`).
/// * `1` — dense owned-range tail rows (Gram + Hausdorff head), added
///   with a plain axpy. Shipped on Hausdorff epochs, whose gradient has
///   no compact factorization.
/// * `2` — the three `r × r` whole-data D matrices; the worker adds its
///   owned tail rows `2·U^f·D^f` with the in-process Gram-row builder
///   (`loss::add_gram_rows`), at ~`3r²` floats on the wire instead of
///   the owned row count.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TailMsg {
    Inactive,
    Dense([Vec<f64>; 3]),
    Gram([Vec<f64>; 3]),
}

pub(crate) fn encode_tail_inactive_into(p: &mut Vec<u8>, epoch: u64) {
    p.push(TAG_TAIL_ROWS);
    put_u64(p, epoch);
    p.push(0);
}

pub(crate) fn encode_tail_rows_into(p: &mut Vec<u8>, epoch: u64, parts: [&[f64]; 3]) {
    p.push(TAG_TAIL_ROWS);
    put_u64(p, epoch);
    p.push(1);
    for part in parts {
        put_counted_f64s(p, part);
    }
}

pub(crate) fn encode_tail_gram_into(p: &mut Vec<u8>, epoch: u64, d: &[tcss_linalg::Matrix; 3]) {
    p.push(TAG_TAIL_ROWS);
    put_u64(p, epoch);
    p.push(2);
    for m in d {
        put_counted_f64s(p, m.as_slice());
    }
}

/// Decode [`TAG_TAIL_ROWS`]. `expect` is the per-factor owned-range
/// element count (dense mode), `rank` the model rank (gram mode ships
/// `rank²` elements per factor).
pub(crate) fn decode_tail_rows(
    payload: &[u8],
    expect_epoch: u64,
    expect: [usize; 3],
    rank: usize,
) -> Result<TailMsg, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_TAIL_ROWS, "TailRows")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "tail rows for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let mode = r.u8("tail mode")?;
    match mode {
        0 => {
            r.done()?;
            Ok(TailMsg::Inactive)
        }
        1 => {
            let mut parts: [Vec<f64>; 3] = Default::default();
            for f in 0..3 {
                r.counted_f64s(expect[f], &mut parts[f], "tail rows")?;
            }
            r.done()?;
            Ok(TailMsg::Dense(parts))
        }
        2 => {
            let mut mats: [Vec<f64>; 3] = Default::default();
            for m in &mut mats {
                r.counted_f64s(rank * rank, m, "tail gram matrix")?;
            }
            r.done()?;
            Ok(TailMsg::Gram(mats))
        }
        other => Err(WireError::Malformed(format!("unknown tail mode {other}"))),
    }
}

/// `busy_ns` lives at this payload offset in an UpdatedRows message
/// (tag + epoch + src); the worker patches the real figure over the
/// placeholder after encoding, before framing.
pub(crate) const UPD_ROWS_BUSY_OFFSET: usize = 13;

/// Per-factor `(m, v)` Adam moment blocks.
pub(crate) type Moments<T> = ([T; 3], [T; 3]);

/// Worker → coordinator, the epoch's one reply after the exchange: the
/// per-owned-row gradient self-dots (row-ascending per factor; the
/// coordinator folds them into the global norm factor-major,
/// worker-ascending), the Adam-stepped owned rows, and — when the
/// StepOwned asked for them — the resident `m`/`v` moments.
pub(crate) fn encode_upd_rows_into(
    p: &mut Vec<u8>,
    epoch: u64,
    src: u32,
    busy_ns: u64,
    dots: [&[f64]; 3],
    rows: [&[f64]; 3],
    moments: Option<Moments<&[f64]>>,
) {
    p.push(TAG_UPD_ROWS);
    put_u64(p, epoch);
    put_u32(p, src);
    put_u64(p, busy_ns);
    p.push(moments.is_some() as u8);
    for part in dots.into_iter().chain(rows) {
        put_counted_f64s(p, part);
    }
    if let Some((m, v)) = moments {
        for part in m.into_iter().chain(v) {
            put_counted_f64s(p, part);
        }
    }
}

/// Decoded [`TAG_UPD_ROWS`]. The rows and moments stay raw little-endian
/// bytes borrowed from the payload, for [`copy_f64s`] straight into the
/// coordinator's model once the watchdog has passed.
pub(crate) struct UpdRows<'a> {
    pub busy_ns: u64,
    pub dots: [Vec<f64>; 3],
    pub rows: [&'a [u8]; 3],
    /// `(m, v)` per factor, on cadence epochs.
    pub moments: Option<Moments<&'a [u8]>>,
}

/// Decode [`TAG_UPD_ROWS`] from a worker owning `counts` rows per factor.
/// `moments` is what the epoch's StepOwned asked for; a reply that
/// disagrees is malformed.
pub(crate) fn decode_upd_rows(
    payload: &[u8],
    expect_epoch: u64,
    counts: [usize; 3],
    rank: usize,
    moments: bool,
) -> Result<UpdRows<'_>, WireError> {
    let mut r = Reader::new(payload);
    expect_tag(&mut r, TAG_UPD_ROWS, "UpdatedRows")?;
    let epoch = r.u64("epoch")?;
    if epoch != expect_epoch {
        return Err(WireError::Malformed(format!(
            "updated rows for epoch {epoch}, expected {expect_epoch}"
        )));
    }
    let _src = r.u32("src worker")?;
    let busy_ns = r.u64("busy_ns")?;
    let shipped = r.flag("moments flag")?;
    if shipped != moments {
        return Err(WireError::Malformed(format!(
            "updated rows carry moments: {shipped}, requested: {moments}"
        )));
    }
    let mut dots: [Vec<f64>; 3] = Default::default();
    for f in 0..3 {
        r.counted_f64s(counts[f], &mut dots[f], "row dots")?;
    }
    let elems = counts.map(|n| n * rank);
    let rows = r.factor_blocks(elems, "updated rows")?;
    let moments = if moments {
        Some((
            r.factor_blocks(elems, "moment m")?,
            r.factor_blocks(elems, "moment v")?,
        ))
    } else {
        None
    };
    r.done()?;
    Ok(UpdRows {
        busy_ns,
        dots,
        rows,
        moments,
    })
}

/// The tag of a decoded payload (empty payloads are malformed).
pub(crate) fn tag_of(payload: &[u8]) -> Result<u8, WireError> {
    payload
        .first()
        .copied()
        .ok_or_else(|| WireError::Malformed("empty message payload".into()))
}

fn expect_tag(r: &mut Reader<'_>, tag: u8, name: &str) -> Result<(), WireError> {
    let got = r.u8("message tag")?;
    if got != tag {
        return Err(WireError::Malformed(format!(
            "expected {name} (tag {tag}), got tag {got}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::dist::DistError;
    use crate::frame::{raw_payload, read_frame, FrameBuf, FrameDecoder, HEADER_LEN, TRAILER_LEN};

    /// One worker burst as the sender writes it: two Exch frames in one
    /// buffer.
    fn exch_burst() -> Vec<u8> {
        let mut buf = FrameBuf::new();
        let (row, none): (&[u32], &[u32]) = (&[2], &[]);
        encode_exch_into(
            buf.payload(),
            7,
            1,
            0,
            1,
            [(row, &[0.5]), (none, &[]), (none, &[])],
        );
        encode_exch_into(
            buf.next_payload(),
            7,
            1,
            2,
            1,
            [(none, &[]), (row, &[-0.0]), (none, &[])],
        );
        buf.finish().to_vec()
    }

    /// Read one frame with the training cap, as workers do, and return
    /// the frame error it surfaced through [`DistError`].
    fn frame_error(bytes: &[u8], dec: &mut FrameDecoder) -> FrameError {
        match read_frame::<DistError>(&mut &bytes[..], dec) {
            Err(DistError::Wire(WireError::Frame(e))) => e,
            other => panic!("expected a frame error, got {other:?}"),
        }
    }

    /// Byte-at-a-time delivery through the training cap yields the burst's
    /// raw frames byte-identical (the relay forwards them verbatim) and
    /// routable by their payload headers.
    #[test]
    fn frame_roundtrip_arbitrary_split() {
        let burst = exch_burst();
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let mut raws = Vec::new();
        for &b in &burst {
            dec.push(&[b]);
            while let Some(raw) = dec.next_raw_frame().unwrap() {
                raws.push(raw);
            }
        }
        dec.finish().unwrap();
        assert_eq!(raws.concat(), burst);
        let routes: Vec<_> = raws
            .iter()
            .map(|r| exch_header(raw_payload(r)).unwrap())
            .collect();
        assert_eq!(routes, [(7, 1, 0), (7, 1, 2)]);
    }

    #[test]
    fn corrupt_payload_is_checksum_mismatch() {
        let mut burst = exch_burst();
        burst[HEADER_LEN + 3] ^= 0x10;
        let err = frame_error(&burst, &mut FrameDecoder::new(MAX_FRAME_LEN));
        assert!(matches!(err, FrameError::ChecksumMismatch { .. }), "{err}");
    }

    /// The training cap is exactly [`MAX_FRAME_LEN`]: a header at the cap
    /// waits for its body (here: truncated at EOF), one byte over is a
    /// typed oversize error.
    #[test]
    fn oversized_frame_is_typed() {
        let read = |declared: u32| {
            frame_error(
                &declared.to_le_bytes(),
                &mut FrameDecoder::new(MAX_FRAME_LEN),
            )
        };
        assert_eq!(
            read(MAX_FRAME_LEN),
            FrameError::TruncatedEof { buffered: 4 }
        );
        let (declared, max) = (MAX_FRAME_LEN + 1, MAX_FRAME_LEN);
        assert_eq!(read(declared), FrameError::Oversized { declared, max });
    }

    #[test]
    fn truncated_stream_is_typed_at_eof() {
        let burst = exch_burst();
        let cut = &burst[..burst.len() - 3];
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let first = read_frame::<DistError>(&mut &cut[..], &mut dec)
            .unwrap()
            .unwrap();
        assert_eq!(exch_header(&first).unwrap(), (7, 1, 0));
        let buffered = cut.len() - (HEADER_LEN + first.len() + TRAILER_LEN);
        assert_eq!(
            frame_error(&[], &mut dec),
            FrameError::TruncatedEof { buffered }
        );
    }

    /// A valid Setup with two entries, so one chunk: `0..1` is its only
    /// non-empty block.
    fn two_entry_setup() -> Setup {
        Setup {
            dims: (6, 5, 4),
            rank: 3,
            w_plus: 0.95,
            w_minus: 0.05,
            loss: LossStrategy::NegativeSampling,
            seed: 0xDEADBEEF,
            chunk_start: 0,
            chunk_end: 1,
            threads: 2,
            n_workers: 3,
            weight_decay: 0.015,
            entries: vec![
                TensorEntry {
                    i: 1,
                    j: 2,
                    k: 3,
                    value: 1.0,
                },
                TensorEntry {
                    i: 5,
                    j: 0,
                    k: 0,
                    value: -0.25,
                },
            ],
        }
    }

    #[test]
    fn setup_roundtrip() {
        let setup = two_entry_setup();
        let s = decode_setup(&encode_setup(&setup)).unwrap();
        assert_eq!(s.dims, setup.dims);
        assert_eq!(s.rank, setup.rank);
        assert_eq!(s.loss, setup.loss);
        assert_eq!(s.seed, setup.seed);
        assert_eq!((s.chunk_start, s.chunk_end), (0, 1));
        assert_eq!(s.threads, 2);
        assert_eq!(s.n_workers, 3);
        assert_eq!(s.weight_decay.to_bits(), 0.015f64.to_bits());
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.entries[1].value.to_bits(), (-0.25f64).to_bits());
    }

    #[test]
    fn setup_rejects_out_of_bounds_entry() {
        let setup = Setup {
            dims: (2, 2, 2),
            rank: 1,
            w_plus: 0.9,
            w_minus: 0.1,
            loss: LossStrategy::WholeDataRewritten,
            seed: 0,
            chunk_start: 0,
            chunk_end: 1,
            threads: 1,
            n_workers: 1,
            weight_decay: 0.0,
            entries: vec![TensorEntry {
                i: 2,
                j: 0,
                k: 0,
                value: 1.0,
            }],
        };
        let err = decode_setup(&encode_setup(&setup)).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
    }

    /// A chunk block past the entries' chunk grid is malformed at decode:
    /// the worker multiplies the block bounds by `ENTRIES_PER_CHUNK`, which
    /// overflows for a wire value near `u64::MAX`.
    #[test]
    fn setup_rejects_block_past_the_chunk_grid() {
        let decode = |chunk_start, chunk_end| {
            decode_setup(&encode_setup(&Setup {
                chunk_start,
                chunk_end,
                ..two_entry_setup()
            }))
        };
        for (lo, hi) in [(0, 0), (0, 1), (1, 1)] {
            decode(lo, hi).expect("block on the grid");
        }
        let huge = u64::MAX as usize;
        for (lo, hi) in [(2, 7), (0, 2), (1, huge), (huge, huge)] {
            let err = decode(lo, hi).unwrap_err();
            assert!(
                matches!(&err, WireError::Malformed(m) if m.contains("chunk block")),
                "{lo}..{hi}: {err}"
            );
        }
    }

    /// StepOwned with a resident fill rebuilds the source model bit for
    /// bit: every `U¹` row inside the window (shipped or spliced from the
    /// resident slab) equals the source row, every row outside it decodes
    /// as zeros, and `U²`/`U³`/`h` round-trip whole — for holes at every
    /// position in the window (interior, flush with either edge, covering
    /// it entirely, and disjoint from it) and for values (`1e-300`,
    /// `MIN_POSITIVE`, `-0.0`) whose bits a lossy codec would change.
    /// The effective learning rate keeps its bits and the ship-moments
    /// byte its value; any other byte there is malformed.
    #[test]
    fn step_owned_roundtrips_the_source_rows_bitwise() {
        let r = 2usize;
        let mut u1_data: Vec<f64> = (0..12).map(|v| (v as f64) * 0.125 + 1e-300).collect();
        u1_data[3] = f64::MIN_POSITIVE;
        u1_data[8] = -0.0;
        let u1 = Matrix::from_vec(6, r, u1_data).unwrap();
        let u2 = Matrix::from_vec(2, r, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let u3 = Matrix::from_vec(2, r, vec![-1.0, -2.0, -3.0, -4.0]).unwrap();
        let mut model = TcssModel::new(u1, u2, u3);
        model.h = vec![0.5, -0.0];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let lrs = [0.001 * 0.5, 1e-300, f64::MIN_POSITIVE, 0.00125];
        for (case, (lo, hi, own)) in [
            (1, 5, (2, 4)), // interior hole
            (1, 5, (0, 3)), // hole flush with the window start
            (1, 5, (4, 6)), // hole flush with the window end
            (2, 4, (0, 6)), // owned range covers the whole window
            (0, 2, (4, 6)), // owned range disjoint from the window
            (0, 6, (0, 6)), // everything resident, nothing shipped
            (0, 6, (3, 3)), // nothing resident, everything shipped
        ]
        .into_iter()
        .enumerate()
        {
            let (lr, ship) = (lrs[case % lrs.len()], case % 2 == 1);
            let mut p = Vec::new();
            encode_step_owned_into(&mut p, 17, lr, ship, &model, lo, hi, own);
            let res: Vec<f64> = model.u1.as_slice()[own.0 * r..own.1 * r].to_vec();
            let step = decode_step_owned(&p, (6, 2, 2), r, &res, own).unwrap();
            assert_eq!(step.epoch, 17);
            assert_eq!(step.lr_eff.to_bits(), lr.to_bits());
            assert_eq!(step.ship_moments, ship);
            let got = step.model;
            for row in 0..6 {
                let want: &[f64] = if (lo..hi).contains(&row) {
                    model.u1.row(row)
                } else {
                    &[0.0, 0.0]
                };
                assert_eq!(
                    bits(got.u1.row(row)),
                    bits(want),
                    "row {row} of window {lo}..{hi} own {own:?}"
                );
            }
            assert_eq!(bits(got.u2.as_slice()), bits(model.u2.as_slice()));
            assert_eq!(bits(got.u3.as_slice()), bits(model.u3.as_slice()));
            assert_eq!(bits(&got.h), bits(&model.h));
            // The ship-moments byte follows tag, epoch and lr.
            p[17] = 2;
            let err = decode_step_owned(&p, (6, 2, 2), r, &res, own)
                .err()
                .expect("bad flag");
            assert!(matches!(err, WireError::Malformed(_)), "{err}");
        }
    }

    /// StepOwned dimensions or a rank other than the receiver's Setup are
    /// malformed, refused before any buffer is sized from them: a wire
    /// `u32::MAX` dimension must not reach an `I·r` allocation.
    #[test]
    fn step_owned_rejects_dims_other_than_the_setup() {
        let r = 2usize;
        let model = TcssModel::new(
            Matrix::zeros(6, r),
            Matrix::zeros(2, r),
            Matrix::zeros(2, r),
        );
        let mut p = Vec::new();
        encode_step_owned_into(&mut p, 3, 0.001, false, &model, 0, 6, (0, 3));
        let res = vec![0.0; 3 * r];
        decode_step_owned(&p, (6, 2, 2), r, &res, (0, 3)).expect("matching setup");
        for (dims, rank) in [((6, 2, 3), r), ((7, 2, 2), r), ((6, 2, 2), r + 1)] {
            let err = decode_step_owned(&p, dims, rank, &res, (0, 3))
                .err()
                .expect("setup mismatch");
            assert!(
                matches!(&err, WireError::Malformed(m) if m.contains("does not match setup")),
                "{dims:?}/r{rank}: {err}"
            );
        }
        // Dim I follows tag, epoch, lr and the ship-moments byte.
        p[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_step_owned(&p, (6, 2, 2), r, &res, (0, 3))
            .err()
            .expect("huge dim");
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
    }

    #[test]
    fn adopt_roundtrip_is_bit_exact() {
        let mut p = Vec::new();
        let w = [vec![1.5, -0.0], vec![2.0], vec![1e-300, 4.0, 5.0]];
        let m = [vec![0.1, 0.2], vec![0.3], vec![0.4, 0.5, 0.6]];
        let v = [vec![9.0, 8.0], vec![7.0], vec![6.0, 5.0, 4.0]];
        encode_adopt_into(
            &mut p,
            42,
            w.each_ref().map(Vec::as_slice),
            m.each_ref().map(Vec::as_slice),
            v.each_ref().map(Vec::as_slice),
        );
        let a = decode_adopt(&p, [2, 1, 3]).unwrap();
        assert_eq!(a.t, 42);
        assert_eq!(a.w[0][1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(a.w, w);
        assert_eq!(a.m, m);
        assert_eq!(a.v, v);
        assert!(decode_adopt(&p, [2, 2, 3]).is_err());
    }

    #[test]
    fn exch_apply_replays_adds_in_payload_order() {
        let mut p = Vec::new();
        // rank 2, receiver owns u1 rows 2..5, u2 rows 0..1, u3 rows 0..0.
        let rows1 = [3u32, 2, 3];
        let data1 = [1.0, 2.0, 10.0, 20.0, 0.5, 0.25];
        encode_exch_into(
            &mut p,
            7,
            1,
            0,
            2,
            [
                (&rows1[..], &data1[..]),
                (&[0u32][..], &[-1.0, -2.0][..]),
                (&[][..], &[][..]),
            ],
        );
        assert_eq!(exch_header(&p).unwrap(), (7, 1, 0));
        let mut bufs = [vec![0.0; 6], vec![0.0; 2], vec![]];
        apply_exch(&p, 7, 2, [(2, 5), (0, 1), (0, 0)], &mut bufs).unwrap();
        // Row 3 accumulated twice (1.0+0.5, 2.0+0.25), row 2 once.
        assert_eq!(bufs[0], vec![10.0, 20.0, 1.5, 2.25, 0.0, 0.0]);
        assert_eq!(bufs[1], vec![-1.0, -2.0]);
        // Out-of-range rows and wrong epochs are typed errors.
        assert!(apply_exch(&p, 8, 2, [(2, 5), (0, 1), (0, 0)], &mut bufs).is_err());
        assert!(apply_exch(&p, 7, 2, [(3, 5), (0, 1), (0, 0)], &mut bufs).is_err());
    }

    #[test]
    fn chunk_stats_roundtrip() {
        use crate::sparse_grads::{backprop_entry_sparse, GradScratch};
        let (u1, u2, u3) = crate::init::random_init((3, 3, 3), 2, 9);
        let model = TcssModel::new(u1, u2, u3);
        let mut scratch = GradScratch::for_model(&model);
        let mut chunks = Vec::new();
        let mut want_h = Vec::new();
        for c in 0..2usize {
            let mut d = SparseGrads::new();
            d.begin(&model);
            backprop_entry_sparse(&model, &mut d, &mut scratch, c, c, c, 0.5 + c as f64);
            d.detach(&mut scratch);
            let (_, _, h) = d.wire_parts();
            want_h.extend_from_slice(h);
            chunks.push((0.25 * (c as f64 + 1.0), d));
        }
        let mut p = Vec::new();
        encode_chunk_stats_into(&mut p, 4, 2, 2, &chunks);
        assert_eq!(msg_epoch_src(&p).unwrap(), (4, 2));
        let (src, losses, h) = decode_chunk_stats(&p, 4, 2).unwrap();
        assert_eq!(src, 2);
        assert_eq!(losses, vec![0.25, 0.5]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&h), bits(&want_h));
        assert!(decode_chunk_stats(&p, 5, 2).is_err());
    }

    #[test]
    fn tail_rows_all_modes_roundtrip() {
        let mut p = Vec::new();
        encode_tail_inactive_into(&mut p, 3);
        assert_eq!(
            decode_tail_rows(&p, 3, [2, 1, 0], 2).unwrap(),
            TailMsg::Inactive
        );
        p.clear();
        let parts = [vec![0.5, -0.5], vec![1e-20], vec![]];
        encode_tail_rows_into(&mut p, 3, [&parts[0], &parts[1], &parts[2]]);
        let got = decode_tail_rows(&p, 3, [2, 1, 0], 2).unwrap();
        assert_eq!(got, TailMsg::Dense(parts));
        assert!(decode_tail_rows(&p, 3, [1, 1, 0], 2).is_err());
        p.clear();
        let d = [
            tcss_linalg::Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
            tcss_linalg::Matrix::zeros(2, 2),
            tcss_linalg::Matrix::identity(2),
        ];
        encode_tail_gram_into(&mut p, 3, &d);
        match decode_tail_rows(&p, 3, [2, 1, 0], 2).unwrap() {
            TailMsg::Gram(mats) => {
                for (got, want) in mats.iter().zip(d.iter()) {
                    assert_eq!(got.as_slice(), want.as_slice());
                }
            }
            other => panic!("expected gram tail, got {other:?}"),
        }
        // Wrong rank and an unknown mode byte are decode errors.
        assert!(decode_tail_rows(&p, 3, [2, 1, 0], 3).is_err());
        p.clear();
        p.push(TAG_TAIL_ROWS);
        put_u64(&mut p, 3);
        p.push(9);
        assert!(decode_tail_rows(&p, 3, [2, 1, 0], 2).is_err());
    }

    /// UpdatedRows round-trips its dots, rows and (on cadence epochs)
    /// moments bit for bit, carries the busy figure patched in after
    /// encoding, and is malformed when it disagrees with what the
    /// StepOwned asked for — moments missing or unasked for — or with
    /// the owned row counts.
    #[test]
    fn upd_rows_splice_and_busy_patch() {
        // Rank 2; the sender owns 2, 1 and 0 rows of the three factors.
        let (counts, rank) = ([2, 1, 0], 2);
        let dots = [vec![1.0, 2.0], vec![3.0], vec![]];
        let rows = [vec![0.5, -0.0, 1e-300, 4.0], vec![5.0, 6.0], vec![]];
        let m = [vec![0.1, 0.2, 0.3, 0.4], vec![0.5, 0.6], vec![]];
        let v = [vec![1.1, 1.2, 1.3, 1.4], vec![1.5, 1.6], vec![]];
        // Each decoded block copies out to exactly the encoded bits.
        let same = |blocks: [&[u8]; 3], want: &[Vec<f64>; 3]| {
            for (b, w) in blocks.into_iter().zip(want) {
                let mut out = vec![0.0; w.len()];
                copy_f64s(b, &mut out);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(w));
            }
        };
        for ship in [false, true] {
            let mut p = Vec::new();
            let moments = ship.then(|| {
                (
                    m.each_ref().map(Vec::as_slice),
                    v.each_ref().map(Vec::as_slice),
                )
            });
            encode_upd_rows_into(
                &mut p,
                5,
                2,
                0,
                dots.each_ref().map(Vec::as_slice),
                rows.each_ref().map(Vec::as_slice),
                moments,
            );
            p[UPD_ROWS_BUSY_OFFSET..UPD_ROWS_BUSY_OFFSET + 8]
                .copy_from_slice(&0xFEED_FACEu64.to_le_bytes());
            assert_eq!(msg_epoch_src(&p).unwrap(), (5, 2));
            let u = decode_upd_rows(&p, 5, counts, rank, ship).unwrap();
            assert_eq!(u.busy_ns, 0xFEED_FACE);
            assert_eq!(u.dots, dots);
            same(u.rows, &rows);
            match u.moments {
                Some((um, uv)) => {
                    assert!(ship);
                    same(um, &m);
                    same(uv, &v);
                }
                None => assert!(!ship),
            }
            let malformed = |r: Result<UpdRows<'_>, WireError>| {
                assert!(matches!(r.err(), Some(WireError::Malformed(_))));
            };
            malformed(decode_upd_rows(&p, 5, counts, rank, !ship));
            malformed(decode_upd_rows(&p, 6, counts, rank, ship));
            malformed(decode_upd_rows(&p, 5, [2, 2, 0], rank, ship));
            malformed(decode_upd_rows(&p[..p.len() - 1], 5, counts, rank, ship));
        }
    }
}
