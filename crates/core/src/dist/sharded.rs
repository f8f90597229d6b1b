//! The distributed epoch protocol: owner-computes tail sharding, with
//! the optimizer running on the workers.
//!
//! A coordinator that merged every delta, folded the norm, and ran Adam
//! over the whole model itself would leave a serial epoch tail that
//! grows with the model. This module shards that tail by **row
//! ownership** — worker `w` owns the contiguous row range
//! `sparse_grads::owned_range(dim, n, w)` of *each* factor,
//! keeps the model rows and Adam moments for those rows resident across
//! epochs, and applies [`tcss_linalg::kernels::adam_update`] to them
//! itself. The coordinator retains only what is not row-decomposable:
//! the dense core `h`, the whole-data Gram tail, the Hausdorff head, the
//! loss/norm folds, the divergence watchdog, and the checkpoints.
//!
//! # Per-epoch protocol (all frames per `[super::wire]`)
//!
//! An epoch is two coordinator round trips; cadence points add none.
//!
//! 1. **StepOwned** broadcast (each worker's `U¹` read window, with its
//!    own resident rows punched out — the worker splices those back from
//!    its resident state, so rows it just updated never travel twice),
//!    carrying the effective learning rate (`RunState::lr`, fixed for the
//!    whole attempt) and whether this epoch ends on a checkpoint cadence
//!    point (`RunState::due`). The coordinator then computes its Gram +
//!    head tail right here, concurrently with worker chunk evaluation —
//!    the tail depends only on the broadcast model, so the overlap
//!    cannot change any bits.
//! 2. Each worker evaluates its chunk block, splits every chunk's
//!    touched rows by owner (`sparse_grads::OwnerSplit`), sends
//!    **ChunkStats** (per-chunk losses + dense `h` deltas) to the
//!    coordinator and one **Exch** frame per *other* worker with the
//!    un-merged row deltas bound for that owner. Stats plus every Exch
//!    leave the worker as **one** socket write; the coordinator's
//!    per-worker reader threads verify checksums, batch every frame that
//!    arrived back-to-back, and wake the event loop once per burst. Exch
//!    frames are relayed verbatim (raw bytes, never re-decoded).
//! 3. **TailRows** per worker, one per shape of the epoch's tail
//!    (`train::EpochTail`, the value the in-process loop matches on too):
//!    "inactive" (adding zeros could flip `-0.0` accumulators); on
//!    Gram-only epochs the three `r × r` Gram matrices, from which the
//!    worker builds its owned tail rows with the in-process Gram-row
//!    builder (`loss::add_gram_rows`); on head epochs the owned row
//!    slices of the dense tail. Each destination's relayed Exchs and its
//!    TailRows go out as one batched write. Because the coordinator→worker
//!    stream is FIFO and TailRows is sent only after every Exch has been
//!    relayed, its arrival doubles as the exchange barrier.
//! 4. Each worker merges its own split plus the relayed Exch frames in
//!    ascending source order — sources own ascending contiguous chunk
//!    blocks and each frame replays its rows in ascending-chunk
//!    first-touch order, so every gradient *element* sees its adds in
//!    ascending global chunk order: the exact in-process sequence — adds
//!    the tail, steps its owned rows with Adam straight away, and sends
//!    one **UpdatedRows**: the per-row gradient self-dots, the stepped
//!    rows, and on cadence epochs its `m`/`v` moments. The coordinator
//!    folds the loss (chunk losses in chunk order, then the recorded Gram
//!    terms in emission order), the `h` gradient, and the norm
//!    (factor-major, worker-ascending — the contiguous-run decomposition
//!    of [`crate::loss::Grads::norm`]) and runs the watchdog. Only if it
//!    passes does the coordinator step `h` and splice the rows (and
//!    moments) into the authoritative model.
//!
//! # Determinism and failure model
//!
//! The workers step before the watchdog has ruled, and that is safe:
//! a rejected epoch rolls the run back and re-installs every worker's
//! state with an **Adopt** frame (model rows + moments + step counter for
//! the owned ranges), overwriting whatever the workers stepped, exactly
//! as worker-loss recovery does. A worker accepts Adopt at *any* receive
//! point as a clean reset — the single-writer FIFO from the coordinator
//! makes it an unambiguous barrier between attempts. An accepted epoch
//! runs the same kernels on the same inputs in the same order as before.
//!
//! Every worker→coordinator message of an epoch is a pure function of
//! `(restored model, adam, epoch, lr_scale)`, so replayed frames are
//! **bitwise identical** to their originals: the coordinator keeps one
//! accept-slot per (message, worker) per attempt and takes whichever copy
//! arrives first. (A rejection changes `lr_scale`, but the coordinator
//! has gathered every frame of the rejected attempt by then.)
//! Checkpoints stay worker-count-independent: the moments ride the
//! UpdatedRows of every cadence epoch, so the coordinator commits the
//! same full-model checkpoint the in-process trainer would, and
//! distributed runs at any worker count and single-process runs can
//! resume each other's checkpoints bit-for-bit. See DESIGN.md §5j for the
//! full argument.

use super::coordinator::{bind_socket, DistConfig, DistReport, SocketGuard, WorkerSlot};
use super::wire::{
    apply_exch, copy_f64s, decode_chunk_stats, decode_step_owned, decode_tail_rows,
    decode_upd_rows, encode_adopt_into, encode_chunk_stats_into, encode_exch_into,
    encode_step_owned_into, encode_tail_gram_into, encode_tail_inactive_into,
    encode_tail_rows_into, encode_upd_rows_into, exch_header, msg_epoch, msg_epoch_src, tag_of,
    Setup, TailMsg, MAX_FRAME_LEN, TAG_ADOPT, TAG_CHUNK_STATS, TAG_EXCH, TAG_SHUTDOWN,
    TAG_STEP_OWNED, TAG_TAIL_ROWS, TAG_UPD_ROWS, UPD_ROWS_BUSY_OFFSET,
};
use super::{busy_now_ns, DistError};
use crate::fault::FaultPlan;
use crate::frame::{raw_payload, read_frame, FrameBuf, FrameDecoder};
use crate::loss::{add_gram_rows, eval_entry_chunks, EntryKernel, Grads, ENTRIES_PER_CHUNK};
use crate::sparse_grads::{owned_range, OwnerSplit};
use crate::train::{
    divergence_trouble, EpochTail, RunState, TcssTrainer, TrainContext, TrainError,
};
use crate::workspace::TrainWorkspace;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use tcss_linalg::{kernels, Matrix};
use tcss_sparse::SparseTensor3;

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Resident owned-range state, installed by Adopt and advanced by every
/// epoch. The model rows must be resident too: an `L2Entries`
/// StepOwned ships only the worker's `U¹` read window, which need not
/// cover the rows it *owns*.
struct Resident {
    t: u64,
    w: [Vec<f64>; 3],
    m: [Vec<f64>; 3],
    v: [Vec<f64>; 3],
}

/// How serving one Step ended.
enum Flow {
    /// Back to idle — the epoch completed, or an Adopt reset it.
    Idle,
    /// Shutdown received.
    Exit,
}

struct ShardWorker {
    stream: UnixStream,
    dec: FrameDecoder,
    out: FrameBuf,
    setup: Setup,
    tensor: SparseTensor3,
    entry_lo: usize,
    entry_hi: usize,
    ws: TrainWorkspace,
    id: usize,
    /// Owned `[lo, hi)` row range per factor.
    ranges: [(usize, usize); 3],
    /// `(hi - lo) · rank` element count per factor.
    elems: [usize; 3],
    split: OwnerSplit,
    /// Merged owned-range gradient slabs, zeroed per epoch.
    grads: [Vec<f64>; 3],
    /// Per-owned-row squared norms, rebuilt per epoch.
    dots: [Vec<f64>; 3],
    res: Option<Resident>,
}

/// Serve one worker process to completion. Entered from
/// [`super::worker::run_worker`] right after Setup.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_sharded_worker(
    stream: UnixStream,
    dec: FrameDecoder,
    setup: Setup,
    tensor: SparseTensor3,
    entry_lo: usize,
    entry_hi: usize,
    ws: TrainWorkspace,
    worker_id: u32,
) -> Result<(), DistError> {
    let id = worker_id as usize;
    let n = setup.n_workers;
    if id >= n {
        return Err(DistError::Protocol(format!(
            "worker id {id} out of range for a {n}-worker fleet"
        )));
    }
    let rank = setup.rank;
    let dims = setup.dims;
    let ranges = [
        owned_range(dims.0, n, id),
        owned_range(dims.1, n, id),
        owned_range(dims.2, n, id),
    ];
    let elems = [
        (ranges[0].1 - ranges[0].0) * rank,
        (ranges[1].1 - ranges[1].0) * rank,
        (ranges[2].1 - ranges[2].0) * rank,
    ];
    let mut wk = ShardWorker {
        stream,
        dec,
        out: FrameBuf::new(),
        setup,
        tensor,
        entry_lo,
        entry_hi,
        ws,
        id,
        ranges,
        elems,
        split: OwnerSplit::new(n),
        grads: [
            vec![0.0; elems[0]],
            vec![0.0; elems[1]],
            vec![0.0; elems[2]],
        ],
        dots: Default::default(),
        res: None,
    };
    loop {
        // The busy span opens before the idle recv: checksumming and
        // buffering the incoming Step frame is epoch work, while the
        // blocking wait itself accrues no CPU time.
        let t0 = busy_now_ns();
        let frame = match wk.recv()? {
            Some(f) => f,
            // Coordinator dropped the connection between frames.
            None => return Ok(()),
        };
        match tag_of(&frame)? {
            TAG_ADOPT => wk.install(&frame)?,
            TAG_STEP_OWNED => {
                if let Flow::Exit = wk.serve_epoch(&frame, t0)? {
                    return Ok(());
                }
            }
            TAG_SHUTDOWN => return Ok(()),
            other => {
                return Err(DistError::Protocol(format!(
                    "unexpected tag {other} at worker idle"
                )))
            }
        }
    }
}

impl ShardWorker {
    fn recv(&mut self) -> Result<Option<Vec<u8>>, DistError> {
        read_frame(&mut self.stream, &mut self.dec)
    }

    /// Frame whatever was just encoded into `self.out` and send it.
    fn flush(&mut self) -> Result<(), DistError> {
        let frame = self.out.finish();
        self.stream.write_all(frame)?;
        Ok(())
    }

    /// Install (or re-install) resident state from an Adopt frame. At an
    /// epoch wait point this is the rollback reset: the caller abandons
    /// the attempt and returns to idle.
    fn install(&mut self, frame: &[u8]) -> Result<(), DistError> {
        let a = super::wire::decode_adopt(frame, self.elems)?;
        self.res = Some(Resident {
            t: a.t,
            w: a.w,
            m: a.m,
            v: a.v,
        });
        Ok(())
    }

    /// Merge this worker's own owner-split share into the gradient slabs
    /// (the `src == self.id` slot of the ascending-source merge).
    fn merge_own(&mut self) {
        let rank = self.setup.rank;
        for f in 0..3 {
            let lo = self.ranges[f].0;
            let part = self.split.part(f, self.id);
            let buf = &mut self.grads[f];
            for (slot, &row) in part.rows.iter().enumerate() {
                let at = (row as usize - lo) * rank;
                for (d, s) in buf[at..at + rank]
                    .iter_mut()
                    .zip(&part.data[slot * rank..(slot + 1) * rank])
                {
                    *d += *s;
                }
            }
        }
    }

    /// Serve one epoch end-to-end: evaluate, exchange, merge, step.
    /// `t0` is the [`busy_now_ns`] reading taken before the Step frame's
    /// recv, so the whole-epoch busy span includes its decode.
    fn serve_epoch(&mut self, step: &[u8], t0: u64) -> Result<Flow, DistError> {
        let res_u1 = match &self.res {
            Some(res) => res.w[0].as_slice(),
            None => return Err(DistError::Protocol("step before any Adopt".into())),
        };
        let (dims, rank) = (self.setup.dims, self.setup.rank);
        let step = decode_step_owned(step, dims, rank, res_u1, self.ranges[0])?;
        let (epoch, model) = (step.epoch, step.model);
        let n = self.setup.n_workers;

        // --- Evaluate + owner-split + ship ------------------------------
        let setup = &self.setup;
        let kernel = EntryKernel::for_epoch(setup.loss, &self.tensor, setup.seed, epoch);
        let chunks = eval_entry_chunks(
            &model,
            kernel,
            setup.w_plus,
            setup.w_minus,
            self.entry_lo..self.entry_hi,
            &self.ws,
        );
        self.split.clear();
        for (_, delta) in &chunks {
            self.split.split_chunk(delta, self.setup.dims);
        }
        encode_chunk_stats_into(self.out.payload(), epoch, self.id as u32, rank, &chunks);
        for (_, delta) in chunks {
            self.ws.deltas.put(delta);
        }
        // Stats plus every Exch frame accumulate into one buffer and go
        // out in a single write below — same frame sequence on the wire,
        // one syscall and one coordinator reader wake-up per epoch.
        for dest in 0..n {
            if dest == self.id {
                continue;
            }
            let parts = [
                (
                    self.split.part(0, dest).rows.as_slice(),
                    self.split.part(0, dest).data.as_slice(),
                ),
                (
                    self.split.part(1, dest).rows.as_slice(),
                    self.split.part(1, dest).data.as_slice(),
                ),
                (
                    self.split.part(2, dest).rows.as_slice(),
                    self.split.part(2, dest).data.as_slice(),
                ),
            ];
            encode_exch_into(
                self.out.next_payload(),
                epoch,
                self.id as u32,
                dest as u32,
                rank,
                parts,
            );
        }
        self.flush()?;

        // --- Exchange barrier: buffer relayed Exchs until TailRows ------
        for g in &mut self.grads {
            g.fill(0.0);
        }
        let mut exch: Vec<Option<Vec<u8>>> = vec![None; n];
        let mut pending = n - 1;
        let tail_frame = loop {
            let frame = self.recv()?.ok_or_else(|| {
                DistError::Protocol("coordinator disconnected mid-exchange".into())
            })?;
            match tag_of(&frame)? {
                TAG_EXCH => {
                    let (ep, src, dest) = exch_header(&frame)?;
                    if ep != epoch {
                        continue; // stale relay from an abandoned attempt
                    }
                    if dest as usize != self.id {
                        return Err(DistError::Protocol(format!(
                            "misrouted exchange for worker {dest}"
                        )));
                    }
                    let src = src as usize;
                    if src >= n || src == self.id {
                        return Err(DistError::Protocol(format!(
                            "exchange from bogus source {src}"
                        )));
                    }
                    if exch[src].is_none() {
                        exch[src] = Some(frame);
                        pending -= 1;
                    }
                }
                TAG_TAIL_ROWS => {
                    if msg_epoch(&frame)? != epoch {
                        continue;
                    }
                    if pending > 0 {
                        return Err(DistError::Protocol(
                            "tail rows arrived before all exchanges (FIFO violated)".into(),
                        ));
                    }
                    break frame;
                }
                TAG_ADOPT => {
                    self.install(&frame)?;
                    return Ok(Flow::Idle);
                }
                TAG_SHUTDOWN => return Ok(Flow::Exit),
                other => {
                    return Err(DistError::Protocol(format!(
                        "unexpected tag {other} during exchange"
                    )))
                }
            }
        };

        // --- Merge in ascending source order = ascending global chunk
        // order per element, then the coordinator tail, then row norms ---
        for (src, slot) in exch.iter_mut().enumerate() {
            if src == self.id {
                self.merge_own();
            } else {
                let frame = slot.take().expect("exchange barrier guarantees all slots");
                apply_exch(&frame, epoch, rank, self.ranges, &mut self.grads)?;
            }
        }
        match decode_tail_rows(&tail_frame, epoch, self.elems, rank)? {
            TailMsg::Inactive => {}
            TailMsg::Dense(parts) => {
                for (part, grad) in parts.iter().zip(&mut self.grads) {
                    kernels::axpy(1.0, part, grad);
                }
            }
            // Gram mode: build the owned tail rows `2·U^f·D^f` from the
            // resident model rows with the in-process Gram-row builder.
            TailMsg::Gram(mats) => {
                let res = self.res.as_ref().expect("checked at step entry");
                let gram = |data| {
                    Matrix::from_vec(rank, rank, data)
                        .map_err(|e| DistError::Protocol(format!("bad tail gram: {e}")))
                };
                let [d1, d2, d3] = mats;
                let d = [gram(d1)?, gram(d2)?, gram(d3)?];
                add_gram_rows(
                    &d,
                    res.w.each_ref().map(Vec::as_slice),
                    self.grads.each_mut().map(Vec::as_mut_slice),
                );
            }
        }
        for f in 0..3 {
            self.dots[f].clear();
            for row in self.grads[f].chunks_exact(rank) {
                self.dots[f].push(kernels::dot(row, row));
            }
        }

        // --- Step the owned rows straight away; the coordinator splices
        // them only if its watchdog passes, and re-Adopts otherwise ------
        let res = self.res.as_mut().expect("checked at step entry");
        res.t += 1;
        let p = kernels::AdamParams::for_step(step.lr_eff, self.setup.weight_decay, res.t);
        for f in 0..3 {
            kernels::adam_update(
                &mut res.w[f],
                &self.grads[f],
                &mut res.m[f],
                &mut res.v[f],
                &p,
            );
        }
        encode_upd_rows_into(
            self.out.payload(),
            epoch,
            self.id as u32,
            0,
            self.dots.each_ref().map(Vec::as_slice),
            res.w.each_ref().map(Vec::as_slice),
            step.ship_moments.then(|| {
                (
                    res.m.each_ref().map(Vec::as_slice),
                    res.v.each_ref().map(Vec::as_slice),
                )
            }),
        );
        // One whole-epoch CPU span: `busy_now_ns` is process CPU time, so
        // the blocking recv waits above contribute ~nothing, while the
        // frame decode, checksum, merge, and flush-write work they
        // bracket — all genuinely parallel across workers — is counted.
        let busy_ns = busy_now_ns().saturating_sub(t0);
        self.out.payload_mut()[UPD_ROWS_BUSY_OFFSET..UPD_ROWS_BUSY_OFFSET + 8]
            .copy_from_slice(&busy_ns.to_le_bytes());
        self.flush()?;
        Ok(Flow::Idle)
    }
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// Worker `rg`'s owned rows (rank `r`) of the three factors of a model,
/// a tail or an Adam moment, as slices (`mut`: mutable slices).
macro_rules! owned_rows {
    ($x:expr, $rg:expr, $r:expr) => {
        [
            &$x.u1.as_slice()[$rg[0].0 * $r..$rg[0].1 * $r],
            &$x.u2.as_slice()[$rg[1].0 * $r..$rg[1].1 * $r],
            &$x.u3.as_slice()[$rg[2].0 * $r..$rg[2].1 * $r],
        ]
    };
    (mut $x:expr, $rg:expr, $r:expr) => {
        [
            &mut $x.u1.as_mut_slice()[$rg[0].0 * $r..$rg[0].1 * $r],
            &mut $x.u2.as_mut_slice()[$rg[1].0 * $r..$rg[1].1 * $r],
            &mut $x.u3.as_mut_slice()[$rg[2].0 * $r..$rg[2].1 * $r],
        ]
    };
}

/// Copy one decoded UpdatedRows block per factor into `dests`.
fn splice(blocks: [&[u8]; 3], dests: [&mut [f64]; 3]) {
    for (bytes, dest) in blocks.into_iter().zip(dests) {
        copy_f64s(bytes, dest);
    }
}

/// One reader thread's report: a burst of verified raw frames, or the
/// stream's end. `gen` invalidates events from a replaced worker's old
/// reader.
enum Event {
    /// Every frame that sat back-to-back on the stream at one reader
    /// wake-up, in arrival order.
    Frames {
        src: usize,
        gen: u64,
        batch: Vec<Vec<u8>>,
    },
    Lost {
        src: usize,
        gen: u64,
        detail: String,
    },
}

/// Spawn a detached reader thread that drains one worker's stream.
/// Checksum verification happens here, off the coordinator's critical
/// path; the main thread receives ready-to-relay raw frames.
///
/// Workers batch a whole phase into one write (stats + every exchange
/// frame), so frames arrive in bursts. After each socket read the reader
/// drains every complete frame into a single [`Event::Frames`]: one
/// event-loop wake-up per burst instead of one per frame — on a
/// single-CPU host those wake-ups are context switches on the critical
/// path. The decoder never blocks mid-frame, so verified frames are
/// never held back while the next read waits.
fn spawn_reader(
    stream: &UnixStream,
    src: usize,
    gen: u64,
    tx: &mpsc::Sender<Event>,
) -> Result<(), DistError> {
    let mut stream = stream.try_clone()?;
    let tx = tx.clone();
    std::thread::spawn(move || {
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let detail = loop {
            match dec.read_from(&mut stream) {
                Ok(0) => match dec.finish() {
                    Ok(()) => break "worker closed its socket".to_string(),
                    Err(e) => break format!("reading frames failed: {e}"),
                },
                Ok(_) => {}
                Err(e) => break format!("reading frames failed: {e}"),
            }
            let mut batch = Vec::new();
            let drained = loop {
                match dec.next_raw_frame() {
                    Ok(Some(raw)) => batch.push(raw),
                    other => break other,
                }
            };
            if !batch.is_empty() && tx.send(Event::Frames { src, gen, batch }).is_err() {
                return;
            }
            if let Err(e) = drained {
                break format!("reading frames failed: {e}");
            }
        };
        let _ = tx.send(Event::Lost { src, gen, detail });
    });
    Ok(())
}

/// Per-attempt accept slots. Every worker→coordinator message is a pure
/// function of the restored epoch state, so replays are bitwise identical
/// and first-wins is always safe; UpdatedRows stay raw until the
/// watchdog has ruled on the attempt.
#[derive(Default)]
struct Gather {
    stats: Vec<Option<(Vec<f64>, Vec<f64>)>>,
    /// `src · w + dest`: has this exchange been relayed this attempt?
    relayed: Vec<bool>,
    upd: Vec<Option<Vec<u8>>>,
}

/// What the attempt pump is waiting to complete: the epoch's two round
/// trips.
enum Wait {
    StatsAndRelays,
    Upd,
}

/// How one epoch attempt over the fleet ended.
enum Attempt {
    Stepped { l2: f64, l1: f64 },
    Diverged { detail: String },
    Lost { worker: usize, detail: String },
}

struct Fleet<'a> {
    trainer: &'a TcssTrainer,
    dist: &'a DistConfig,
    guard: SocketGuard,
    slots: Vec<WorkerSlot>,
    gens: Vec<u64>,
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    /// Owned `[lo, hi)` row range per factor, per worker.
    ranges: Vec<[(usize, usize); 3]>,
    /// Owned row count per factor, per worker.
    row_counts: Vec<[usize; 3]>,
    rank: usize,
    gather: Gather,
    fbuf: FrameBuf,
    /// Per-dest pending raw frames (verified Exch relays, then the
    /// TailRows barrier), accumulated during the exchange and shipped in
    /// **one** write per worker — one syscall and one receiver wake-up
    /// instead of one per relayed frame. Buffers are reused across
    /// epochs; an abandoned attempt just clears them, so a lost worker's
    /// half-exchange never reaches anyone.
    relay_buf: Vec<Vec<u8>>,
    bytes_sent: u64,
    bytes_received: u64,
    worker_busy_ns: Vec<u64>,
    epochs_dispatched: u64,
    respawns: u32,
}

/// `Err` carries `(worker, detail)` of a lost worker — every transport
/// failure inside an attempt is recoverable by respawn + rollback.
type SendResult = Result<(), (usize, String)>;

impl Fleet<'_> {
    fn w(&self) -> usize {
        self.slots.len()
    }

    fn gather_reset(&mut self) {
        let w = self.w();
        self.gather.stats = vec![None; w];
        // A worker never exchanges with itself: pre-mark the diagonal.
        self.gather.relayed = (0..w * w).map(|i| i / w == i % w).collect();
        self.gather.upd = vec![None; w];
        self.relay_buf.resize(w, Vec::new());
        for buf in &mut self.relay_buf {
            buf.clear();
        }
    }

    /// Frame whatever was just encoded into `self.fbuf` and send it.
    fn send_built(&mut self, dest: usize) -> SendResult {
        let frame = self.fbuf.finish();
        match self.slots[dest].stream.write_all(frame) {
            Ok(()) => {
                self.bytes_sent += frame.len() as u64;
                Ok(())
            }
            Err(e) => Err((dest, format!("write failed: {e}"))),
        }
    }

    /// Ship `dest`'s pending relay burst (buffered Exch frames plus the
    /// TailRows barrier appended by the caller) in a single write.
    fn send_pending(&mut self, dest: usize) -> SendResult {
        let buf = std::mem::take(&mut self.relay_buf[dest]);
        let sent = self.slots[dest].stream.write_all(&buf);
        if sent.is_ok() {
            self.bytes_sent += buf.len() as u64;
        }
        self.relay_buf[dest] = buf;
        self.relay_buf[dest].clear();
        sent.map_err(|e| (dest, format!("relay failed: {e}")))
    }

    /// Next event from a *current-generation* reader.
    fn next_event(&mut self) -> Event {
        loop {
            let ev = self
                .rx
                .recv()
                .expect("the coordinator holds a sender, the channel cannot close");
            let (src, gen) = match &ev {
                Event::Frames { src, gen, .. } | Event::Lost { src, gen, .. } => (*src, *gen),
            };
            if gen == self.gens[src] {
                return ev;
            }
        }
    }

    fn wait_done(&self, wait: &Wait) -> bool {
        match wait {
            Wait::StatsAndRelays => {
                self.gather.stats.iter().all(Option::is_some)
                    && self.gather.relayed.iter().all(|&r| r)
            }
            Wait::Upd => self.gather.upd.iter().all(Option::is_some),
        }
    }

    /// Process events until `wait` completes, relaying exchanges and
    /// filling accept slots as frames arrive.
    fn pump(&mut self, epoch: u64, faults: &FaultPlan, wait: Wait) -> SendResult {
        while !self.wait_done(&wait) {
            match self.next_event() {
                Event::Lost { src, detail, .. } => return Err((src, detail)),
                Event::Frames { src, batch, .. } => {
                    for raw in batch {
                        self.handle_frame(src, raw, epoch, faults)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn handle_frame(
        &mut self,
        src: usize,
        raw: Vec<u8>,
        epoch: u64,
        faults: &FaultPlan,
    ) -> SendResult {
        self.bytes_received += raw.len() as u64;
        let w = self.w();
        let payload = raw_payload(&raw);
        let tag = tag_of(payload).map_err(|e| (src, format!("corrupt frame: {e}")))?;
        match tag {
            TAG_EXCH => {
                let (ep, s, d) = exch_header(payload)
                    .map_err(|e| (src, format!("corrupt exchange header: {e}")))?;
                let (s, d) = (s as usize, d as usize);
                if ep != epoch {
                    return Ok(()); // stale replay from an earlier attempt
                }
                if s != src || d >= w || d == s {
                    return Err((src, format!("bogus exchange route {s} -> {d}")));
                }
                if !self.gather.relayed[s * w + d] {
                    self.gather.relayed[s * w + d] = true;
                    self.relay_buf[d].extend_from_slice(&raw);
                    // The mid-exchange kill fires once some of the
                    // victim's deltas are verifiably staged for relay.
                    if faults.take_kill_mid_exchange(epoch as usize, s) {
                        let _ = self.slots[s].child.kill();
                    }
                }
                Ok(())
            }
            TAG_CHUNK_STATS | TAG_UPD_ROWS => {
                let (ep, s) = msg_epoch_src(payload)
                    .map_err(|e| (src, format!("corrupt message header: {e}")))?;
                if ep != epoch {
                    return Ok(());
                }
                if s as usize != src {
                    return Err((src, format!("message claims source {s}")));
                }
                match tag {
                    TAG_CHUNK_STATS if self.gather.stats[src].is_none() => {
                        let expect = self.slots[src].chunk_end - self.slots[src].chunk_start;
                        let (_, losses, h) = decode_chunk_stats(payload, epoch, self.rank)
                            .map_err(|e| (src, format!("corrupt chunk stats: {e}")))?;
                        if losses.len() != expect {
                            return Err((
                                src,
                                format!("{} chunks reported, block has {expect}", losses.len()),
                            ));
                        }
                        self.gather.stats[src] = Some((losses, h));
                    }
                    TAG_UPD_ROWS if self.gather.upd[src].is_none() => {
                        self.gather.upd[src] = Some(raw);
                    }
                    _ => {} // duplicate replica of a filled slot
                }
                Ok(())
            }
            other => Err((src, format!("unexpected tag {other} from worker"))),
        }
    }

    /// Re-install every worker's owned-range state (initial handshake,
    /// rollback, respawn). The FIFO stream makes this a clean reset at
    /// any worker receive point.
    fn adopt_all(&mut self, run: &RunState<'_>) -> SendResult {
        let (model, adam, r) = (&run.model, &run.adam, self.rank);
        for dest in 0..self.w() {
            let rg = self.ranges[dest];
            encode_adopt_into(
                self.fbuf.payload(),
                adam.t,
                owned_rows!(model, rg, r),
                owned_rows!(adam.m, rg, r),
                owned_rows!(adam.v, rg, r),
            );
            self.send_built(dest)?;
        }
        Ok(())
    }

    /// One attempt at the run's current epoch over the fleet. Any
    /// transport failure or decode error surfaces as [`Attempt::Lost`] for
    /// respawn + rollback.
    fn attempt(
        &mut self,
        run: &mut RunState<'_>,
        ws: &TrainWorkspace,
        tail: &mut Grads,
        loss_terms: &mut Vec<f64>,
        h_grad: &mut Vec<f64>,
        faults: &FaultPlan,
    ) -> Attempt {
        let trainer = self.trainer;
        let cfg = &trainer.config;
        let epoch = run.epoch;
        let ep = epoch as u64;
        let w = self.w();
        let (lr_eff, ship) = (run.lr(), run.due());
        self.gather_reset();

        // 1. Step broadcast — each worker's U¹ read window, minus its
        // resident owned rows (StepOwned hole).
        for dest in 0..w {
            let (u1_lo, u1_hi) = (self.slots[dest].u1_lo, self.slots[dest].u1_hi);
            encode_step_owned_into(
                self.fbuf.payload(),
                ep,
                lr_eff,
                ship,
                &run.model,
                u1_lo,
                u1_hi,
                self.ranges[dest][0],
            );
            if let Err((worker, detail)) = self.send_built(dest) {
                return Attempt::Lost { worker, detail };
            }
        }

        // 2. The coordinator tail, computed while the workers evaluate
        // their chunks (reader threads keep draining meanwhile; the tail
        // depends only on the broadcast model, so overlapping it cannot
        // change what any peer computes). On Gram-only epochs it is just
        // the `r × r` D matrices (plus loss terms and the `h` tail): the
        // workers build their owned factor rows from the broadcast D.
        let epoch_tail = trainer.epoch_tail(&run.model, epoch, ws, tail, loss_terms);

        // 3. Chunk stats + full exchange relay.
        if let Err((worker, detail)) = self.pump(ep, faults, Wait::StatsAndRelays) {
            return Attempt::Lost { worker, detail };
        }

        // 4. TailRows: the exchange barrier plus the owned tail — dense
        // slices on head epochs, the shared D matrices otherwise. Each
        // worker's buffered relays and its TailRows frame go out in one
        // write, preserving the relays-then-barrier FIFO order.
        let r = self.rank;
        for dest in 0..w {
            let rg = self.ranges[dest];
            let p = self.fbuf.payload();
            match &epoch_tail {
                EpochTail::Inactive => encode_tail_inactive_into(p, ep),
                EpochTail::Gram(d) => encode_tail_gram_into(p, ep, d),
                EpochTail::Dense(_) => encode_tail_rows_into(p, ep, owned_rows!(tail, rg, r)),
            }
            self.relay_buf[dest].extend_from_slice(self.fbuf.finish());
            if let Err((worker, detail)) = self.send_pending(dest) {
                return Attempt::Lost { worker, detail };
            }
        }

        // 5. Fold the loss and the h gradient: chunk losses in ascending
        // chunk order, then the deferred Gram terms in emission order —
        // the exact in-process accumulator sequence.
        let mut l2 = 0.0;
        for src in 0..w {
            let (losses, _) = self.gather.stats[src].as_ref().expect("pump completed");
            for &chunk_loss in losses {
                l2 += chunk_loss;
            }
        }
        for &term in loss_terms.iter() {
            l2 += term;
        }
        h_grad.clear();
        h_grad.resize(r, 0.0);
        for src in 0..w {
            let (_, h) = self.gather.stats[src].as_ref().expect("pump completed");
            for chunk in h.chunks_exact(r) {
                for (d, s) in h_grad.iter_mut().zip(chunk) {
                    *d += *s;
                }
            }
        }
        if !matches!(epoch_tail, EpochTail::Inactive) {
            kernels::axpy(1.0, &tail.h, h_grad);
        }
        let l1 = if let EpochTail::Dense(l1) = epoch_tail {
            l1
        } else {
            0.0
        };

        // 6. UpdatedRows, then the norm fold + watchdog. The rows and
        // moments stay in their frames until the watchdog passes.
        if let Err((worker, detail)) = self.pump(ep, faults, Wait::Upd) {
            return Attempt::Lost { worker, detail };
        }
        let raws: Vec<Vec<u8>> = (self.gather.upd.iter_mut())
            .map(|slot| slot.take().expect("pump completed"))
            .collect();
        let mut upds = Vec::with_capacity(w);
        for (src, raw) in raws.iter().enumerate() {
            match decode_upd_rows(raw_payload(raw), ep, self.row_counts[src], r, ship) {
                Ok(u) => {
                    self.worker_busy_ns[src] += u.busy_ns;
                    upds.push(u);
                }
                Err(e) => {
                    return Attempt::Lost {
                        worker: src,
                        detail: format!("corrupt updated rows: {e}"),
                    }
                }
            }
        }
        let mut acc = 0.0;
        for f in 0..3 {
            for u in &upds {
                Grads::norm_fold_rows(&mut acc, &u.dots[f]);
            }
        }
        acc += kernels::dot(h_grad, h_grad);
        let mut gnorm = acc.sqrt();
        if faults.take_poison(epoch) {
            // The in-process loop NaN-fills its merged gradient buffer;
            // here the buffers live on the workers, so poison the fold —
            // the same watchdog trips and the poisoned attempt is
            // discarded whole, leaving an identical post-rollback
            // trajectory.
            gnorm = f64::NAN;
        }
        if let Some(detail) = divergence_trouble(cfg, l2, l1, gnorm) {
            return Attempt::Diverged { detail };
        }

        // 7. Accepted: the coordinator's own h step, then splice the
        // worker-stepped rows (and, on cadence epochs, the moments) into
        // the authoritative state.
        let adam = &mut run.adam;
        adam.t += 1;
        let p = kernels::AdamParams::for_step(lr_eff, cfg.weight_decay, adam.t);
        kernels::adam_update(&mut run.model.h, h_grad, &mut adam.m.h, &mut adam.v.h, &p);
        for (u, &rg) in upds.iter().zip(&self.ranges) {
            splice(u.rows, owned_rows!(mut run.model, rg, r));
            if let Some((m, v)) = u.moments {
                splice(m, owned_rows!(mut run.adam.m, rg, r));
                splice(v, owned_rows!(mut run.adam.v, rg, r));
            }
        }
        Attempt::Stepped { l2, l1 }
    }

    fn shutdown(&mut self) {
        self.trainer.shutdown_fleet(&mut self.slots);
    }
}

/// Respawn a lost worker, roll the run back to its last good state, and
/// re-Adopt the whole fleet; loops if the Adopt broadcast itself loses
/// another worker. Consumes one respawn-budget unit per loss.
fn recover(
    fleet: &mut Fleet<'_>,
    run: &mut RunState<'_>,
    mut lost: (usize, String),
) -> Result<(), TrainError> {
    loop {
        let (worker, detail) = lost;
        fleet.respawns += 1;
        if fleet.respawns > fleet.dist.max_respawns {
            fleet.shutdown();
            return Err(TrainError::Dist(DistError::RespawnBudgetExhausted {
                worker,
                epoch: run.epoch,
                respawns: fleet.respawns,
                detail,
            }));
        }
        let trainer = fleet.trainer;
        let dist = fleet.dist;
        let (chunk_start, chunk_end) = (
            fleet.slots[worker].chunk_start,
            fleet.slots[worker].chunk_end,
        );
        let _ = fleet.slots[worker].child.kill();
        let _ = fleet.slots[worker].child.wait();
        // Invalidate the dead worker's reader before its replacement
        // starts producing events.
        fleet.gens[worker] += 1;
        fleet.slots[worker] =
            trainer.spawn_worker(dist, &fleet.guard, worker, chunk_start, chunk_end)?;
        spawn_reader(
            &fleet.slots[worker].stream,
            worker,
            fleet.gens[worker],
            &fleet.tx,
        )?;
        run.restore();
        match fleet.adopt_all(run) {
            Ok(()) => return Ok(()),
            Err(next_lost) => lost = next_lost,
        }
    }
}

/// The distributed epoch loop behind
/// [`TcssTrainer::train_distributed_with_faults`], which validates the
/// fleet request and calls it. It drives the same run state as the
/// in-process loop, so it has the same guarantees and the same bits, with
/// the epoch run by the owner-computes protocol described in the module
/// docs.
pub(super) fn train_tail_sharded(
    trainer: &TcssTrainer,
    dist: &DistConfig,
    faults: &FaultPlan,
    on_epoch: &mut dyn FnMut(TrainContext),
) -> Result<DistReport, TrainError> {
    // Started before the socket is bound: a bad config or resume
    // checkpoint is refused before any worker is spawned.
    let mut run = RunState::start(trainer, None)?;
    let cfg = &trainer.config;
    let n_entries = trainer.tensor.entries().len();
    let n_chunks = tcss_linalg::chunk_count(n_entries, ENTRIES_PER_CHUNK);
    let w = dist.workers;
    let dims = trainer.tensor.dims();
    let blocks: Vec<(usize, usize)> = (0..w)
        .map(|i| (i * n_chunks / w, (i + 1) * n_chunks / w))
        .collect();

    let guard = bind_socket(dist)?;
    let mut slots: Vec<WorkerSlot> = Vec::with_capacity(w);
    for (worker, &(chunk_start, chunk_end)) in blocks.iter().enumerate() {
        slots.push(trainer.spawn_worker(dist, &guard, worker, chunk_start, chunk_end)?);
    }
    let (tx, rx) = mpsc::channel();
    for (src, slot) in slots.iter().enumerate() {
        spawn_reader(&slot.stream, src, 0, &tx)?;
    }
    let ranges: Vec<[(usize, usize); 3]> = (0..w)
        .map(|i| {
            [
                owned_range(dims.0, w, i),
                owned_range(dims.1, w, i),
                owned_range(dims.2, w, i),
            ]
        })
        .collect();
    let row_counts = ranges
        .iter()
        .map(|rg| [rg[0].1 - rg[0].0, rg[1].1 - rg[1].0, rg[2].1 - rg[2].0])
        .collect();
    let mut fleet = Fleet {
        trainer,
        dist,
        guard,
        slots,
        gens: vec![0; w],
        tx,
        rx,
        ranges,
        row_counts,
        rank: cfg.rank,
        gather: Gather::default(),
        fbuf: FrameBuf::new(),
        relay_buf: Vec::new(),
        bytes_sent: 0,
        bytes_received: 0,
        worker_busy_ns: vec![0; w],
        epochs_dispatched: 0,
        respawns: 0,
    };

    let ws = TrainWorkspace::new();
    let mut tail = Grads::zeros(&run.model);
    let mut loss_terms: Vec<f64> = Vec::new();
    let mut h_grad: Vec<f64> = Vec::new();

    // Every worker starts by adopting its owned-range state.
    if let Err(lost) = fleet.adopt_all(&run) {
        recover(&mut fleet, &mut run, lost)?;
    }

    while run.epoch < cfg.epochs {
        let epoch = run.epoch;
        if faults.take_crash(epoch) {
            fleet.shutdown();
            return Err(TrainError::InjectedCrash { epoch });
        }
        if let Some(victim) = faults.take_kill_worker(epoch) {
            if let Some(slot) = fleet.slots.get_mut(victim) {
                let _ = slot.child.kill();
                let _ = slot.child.wait();
            }
        }

        fleet.epochs_dispatched += 1;
        let epoch_sent0 = fleet.bytes_sent;
        let epoch_recv0 = fleet.bytes_received;
        match fleet.attempt(
            &mut run,
            &ws,
            &mut tail,
            &mut loss_terms,
            &mut h_grad,
            faults,
        ) {
            Attempt::Lost { worker, detail } => recover(&mut fleet, &mut run, (worker, detail))?,
            Attempt::Diverged { detail } => {
                if let Err(e) = run.reject(detail) {
                    fleet.shutdown();
                    return Err(e);
                }
                // The rollback reset: workers abandon the poisoned
                // attempt wherever they are waiting.
                if let Err(lost) = fleet.adopt_all(&run) {
                    recover(&mut fleet, &mut run, lost)?;
                }
            }
            Attempt::Stepped { l2, l1 } => {
                on_epoch(TrainContext {
                    epoch,
                    l2,
                    l1,
                    bytes_sent: fleet.bytes_sent - epoch_sent0,
                    bytes_received: fleet.bytes_received - epoch_recv0,
                });
                run.advance()?;
            }
        }
    }

    fleet.shutdown();
    Ok(DistReport {
        report: run.finish(),
        workers: w,
        respawns: fleet.respawns,
        bytes_sent: fleet.bytes_sent,
        bytes_received: fleet.bytes_received,
        worker_busy_ns: fleet.worker_busy_ns,
        epochs_dispatched: fleet.epochs_dispatched,
    })
}
