//! The wire-protocol serving front end: a from-scratch `poll(2)`
//! readiness loop over [`ServingEngine`].
//!
//! No tokio, no mio — matching the workspace's no-external-deps posture,
//! the event loop is built directly on non-blocking sockets and the
//! `poll` syscall (declared by hand; std already links libc). The design
//! is a small thread-per-core layout:
//!
//! * **one acceptor thread** owns the listener and hands fresh
//!   connections round-robin to workers through a mutexed inbox plus a
//!   `UnixStream` wake pipe (the self-pipe trick — a worker parked in
//!   `poll` wakes the moment a byte lands on its pipe);
//! * **N worker threads** each run an independent readiness loop over
//!   their own connections: non-blocking reads feed the
//!   [`FrameDecoder`], every complete
//!   request decoded in one readiness pass is batched *across
//!   connections* into packed [`ServingEngine::recommend_batch_pinned`]
//!   calls (the same `W · U²ᵀ` batching the in-process path uses), and
//!   responses are written back non-blockingly with `POLLOUT`
//!   re-arming on short writes.
//!
//! **Admission control** — every decoded `Recommend` must win a permit
//! from the shared [`AdmissionGate`] before entering the scoring batch;
//! a full gate answers with a typed `Overloaded` response immediately.
//! Load is shed deterministically at the protocol level, never by
//! letting clients time out.
//!
//! **Model swap under load** — workers score through the engine's
//! [`ModelHandle`](crate::ModelHandle) pin: each batch works on the
//! snapshot it pinned and stamps its responses with that snapshot's
//! version, so a concurrent [`ServingEngine::swap_model`] never tears a
//! response and the version field makes swap behaviour observable (and
//! chaos-testable) from the client side.
//!
//! **Determinism** — a `Ranking` response is byte-for-byte the encoding
//! of the in-process `recommend` answer on the same snapshot: scores
//! travel as `f64::to_bits`, so the repo's bitwise parity contract
//! extends across the wire.
//!
//! # Resilience (failure model; DESIGN.md §5g)
//!
//! The front end's failure behaviour is typed and bounded, never
//! emergent:
//!
//! * **Per-request deadlines** — every decoded `Recommend` carries its
//!   decode timestamp; if [`ServerConfig::request_deadline`] elapses
//!   before the request enters a scoring batch it is answered with a
//!   typed `DeadlineExceeded` error instead of a late ranking (the
//!   request is *not* scored, so retrying is safe). Queue wait is
//!   recorded per request into the `queue_wait_ns` histogram whether or
//!   not a deadline is configured.
//! * **Idle-connection reaper** — a peer that goes silent (including one
//!   stalled mid-frame) past [`ServerConfig::idle_timeout`] is closed by
//!   the readiness loop itself, so abandoned sockets cannot pin fds or
//!   half-frame decoder state forever. Reaps are counted in
//!   [`NetMetrics::reaped_idle`].
//! * **Panic isolation** — batch execution runs under `catch_unwind`:
//!   a panic while scoring answers every request of that batch with a
//!   typed `Internal` error and the connection and worker survive. All
//!   engine-side locks recover from poisoning (`into_inner`), so a
//!   panicked batch cannot wedge later ones. If a panic ever escapes the
//!   readiness loop itself, an in-thread supervisor respawns the loop
//!   with fresh state (its connections close; the worker keeps serving) —
//!   counted in [`NetMetrics::worker_restarts`].
//! * **Graceful drain** — [`ServerHandle::drain`] stops accepting,
//!   lets in-flight batches finish, flushes every queued response,
//!   half-closes each connection (FIN after the last flushed byte) and
//!   waits for the peer's EOF, so a draining server never tears a frame.
//!   Past the timeout the remaining connections are force-closed.
//!   `Drop` delegates to a bounded drain, so an implicit drop cannot
//!   abandon queued-but-unflushed responses.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::net::admission::{AdmissionGate, Permit};
use crate::net::frame::{self, FrameDecoder, FrameError};
use crate::net::proto::{self, ErrorCode, Request, RequestBody, Response, ResponseBody};
use crate::net::DEFAULT_MAX_FRAME_LEN;
use crate::{ScoreRequest, ServingEngine};

// ---------------------------------------------------------------------------
// poll(2) FFI — the one syscall the readiness loop needs. std links libc,
// so a plain extern declaration suffices; no crate dependency.

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type NFds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// `poll` with EINTR retry. `timeout_ms < 0` blocks indefinitely.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // repr(C) pollfd structs for the duration of the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration and metrics.

/// Wire-server configuration (plain fields; `Default` then override).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks a free port (see
    /// [`ServerHandle::addr`] for the resolved one).
    pub addr: SocketAddr,
    /// Worker readiness-loop threads (min 1).
    pub workers: usize,
    /// Admission-queue depth: maximum decoded-but-unanswered requests
    /// across all workers before `Overloaded` shedding kicks in.
    pub queue_depth: usize,
    /// Maximum accepted frame payload length in bytes.
    pub max_frame_len: u32,
    /// Per-request deadline measured from frame decode: a request still
    /// waiting to enter a scoring batch past this bound is answered with
    /// a typed `DeadlineExceeded` error instead of a late ranking.
    /// `None` (the default) never expires requests.
    pub request_deadline: Option<Duration>,
    /// Idle-connection reaper bound: a connection with no bytes read or
    /// written for this long is closed by its worker (slow or abandoned
    /// peers — including one stalled mid-frame — cannot pin fds
    /// forever). `None` (the default) never reaps.
    pub idle_timeout: Option<Duration>,
    /// Periodic maintenance tick: every interval, a dedicated thread runs
    /// [`ServingEngine::purge_stale`] so cache entries orphaned by model
    /// swaps are reclaimed without waiting for an operator call (counts
    /// surface as [`crate::ServingMetrics::reaped_stale`]). `None`
    /// disables the tick; the default is 30 seconds.
    pub maintenance_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 2,
            queue_depth: 1024,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            request_deadline: None,
            idle_timeout: None,
            maintenance_interval: Some(Duration::from_secs(30)),
        }
    }
}

/// Default bound for the implicit drain performed by `Drop` and
/// [`ServerHandle::shutdown`].
pub const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Default)]
struct NetMetricsInner {
    accepted: AtomicU64,
    closed: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
    protocol_errors: AtomicU64,
    pings: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
    worker_restarts: AtomicU64,
    reaped_idle: AtomicU64,
    request_ns: LatencyHistogram,
    queue_wait_ns: LatencyHistogram,
}

impl NetMetricsInner {
    #[inline]
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Point-in-time view of the wire server's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetMetrics {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed (either side).
    pub closed: u64,
    /// `Recommend` requests decoded off the wire.
    pub requests: u64,
    /// Requests answered with a `Ranking`.
    pub ok: u64,
    /// Requests shed with `Overloaded` (admission queue full).
    pub overloaded: u64,
    /// Requests answered with a typed `Error` response.
    pub errors: u64,
    /// Framing/decoding failures observed (each also sends an `Error`).
    pub protocol_errors: u64,
    /// Ping requests answered.
    pub pings: u64,
    /// Payload bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Requests answered `DeadlineExceeded` (queue wait past the
    /// configured per-request deadline; the request was never scored).
    pub deadline_exceeded: u64,
    /// Scoring batches that panicked; each panicked batch answered all
    /// its requests with a typed `Internal` error and the worker
    /// survived.
    pub panics: u64,
    /// Worker readiness loops respawned by the in-thread supervisor
    /// after a panic escaped the loop itself (batch panics are caught
    /// closer in and do **not** restart the worker).
    pub worker_restarts: u64,
    /// Connections closed by the idle reaper.
    pub reaped_idle: u64,
    /// Server-side request latency (decode → response enqueued),
    /// log-bucketed; see [`HistogramSnapshot::p99`] and friends.
    pub request_ns: HistogramSnapshot,
    /// Per-request queue wait (frame decode → scoring-batch entry),
    /// log-bucketed. Deadline misses are judged against this wait.
    pub queue_wait_ns: HistogramSnapshot,
}

struct Shared {
    engine: Arc<ServingEngine>,
    gate: Arc<AdmissionGate>,
    metrics: NetMetricsInner,
    shutdown: AtomicBool,
    draining: AtomicBool,
    max_frame_len: u32,
    request_deadline: Option<Duration>,
    idle_timeout: Option<Duration>,
}

// ---------------------------------------------------------------------------
// Per-connection state.

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending output bytes (`out[out_pos..]` not yet written).
    out: Vec<u8>,
    out_pos: usize,
    /// Close once `out` is fully flushed (set after protocol errors/EOF).
    closing: bool,
    /// Last moment bytes moved on this connection (either direction);
    /// the idle reaper closes connections whose activity is older than
    /// the configured idle timeout.
    last_activity: Instant,
    /// Drain mode: output fully flushed and the write side half-closed
    /// (FIN sent); the connection now only waits for the peer's EOF.
    fin_sent: bool,
}

impl Conn {
    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// One admitted request waiting for the scoring batch of this readiness
/// pass. Holding the [`Permit`] keeps its admission slot occupied until
/// the response is built.
struct PendingReq {
    conn: usize,
    id: u64,
    req: ScoreRequest,
    n: u32,
    _permit: Permit,
    t0: Instant,
}

fn push_response(shared: &Shared, conn: &mut Conn, resp: &Response) {
    let payload = proto::encode_response(resp);
    frame::write_frame(&mut conn.out, &payload);
    if matches!(resp.body, ResponseBody::Error { .. }) {
        NetMetricsInner::add(&shared.metrics.errors, 1);
    }
}

// ---------------------------------------------------------------------------
// Worker readiness loop.

fn register_conn(conns: &mut Vec<Option<Conn>>, shared: &Shared, stream: TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    NetMetricsInner::add(&shared.metrics.accepted, 1);
    let conn = Conn {
        stream,
        decoder: FrameDecoder::new(shared.max_frame_len),
        out: Vec::new(),
        out_pos: 0,
        closing: false,
        last_activity: Instant::now(),
        fin_sent: false,
    };
    match conns.iter_mut().find(|slot| slot.is_none()) {
        Some(slot) => *slot = Some(conn),
        None => conns.push(Some(conn)),
    }
}

fn close_conn(conns: &mut [Option<Conn>], shared: &Shared, slot: usize) {
    if conns[slot].take().is_some() {
        NetMetricsInner::add(&shared.metrics.closed, 1);
    }
}

fn frame_error_response(fe: FrameError) -> Response {
    let code = match fe {
        FrameError::Oversized { .. } => ErrorCode::FrameTooLarge,
        FrameError::TruncatedEof { .. } => ErrorCode::Truncated,
        FrameError::ChecksumMismatch { .. } => ErrorCode::ChecksumMismatch,
    };
    Response {
        id: 0,
        body: ResponseBody::Error {
            code,
            message: fe.to_string(),
        },
    }
}

fn handle_payload(
    shared: &Shared,
    conn: &mut Conn,
    slot: usize,
    payload: &[u8],
    pending: &mut Vec<PendingReq>,
) {
    match proto::decode_request(payload) {
        Ok(Request {
            id,
            body: RequestBody::Ping,
        }) => {
            NetMetricsInner::add(&shared.metrics.pings, 1);
            push_response(
                shared,
                conn,
                &Response {
                    id,
                    body: ResponseBody::Pong,
                },
            );
        }
        Ok(Request {
            id,
            body: RequestBody::Recommend { user, time, n },
        }) => {
            NetMetricsInner::add(&shared.metrics.requests, 1);
            match shared.gate.try_acquire() {
                Some(permit) => pending.push(PendingReq {
                    conn: slot,
                    id,
                    req: ScoreRequest {
                        user: usize::try_from(user).unwrap_or(usize::MAX),
                        time: usize::try_from(time).unwrap_or(usize::MAX),
                    },
                    n,
                    _permit: permit,
                    t0: Instant::now(),
                }),
                None => {
                    NetMetricsInner::add(&shared.metrics.overloaded, 1);
                    push_response(
                        shared,
                        conn,
                        &Response {
                            id,
                            body: ResponseBody::Overloaded {
                                queue_depth: shared.gate.capacity() as u32,
                            },
                        },
                    );
                }
            }
        }
        Err(we) => {
            NetMetricsInner::add(&shared.metrics.protocol_errors, 1);
            push_response(
                shared,
                conn,
                &Response {
                    id: proto::salvage_id(payload),
                    body: ResponseBody::Error {
                        code: ErrorCode::Malformed,
                        message: we.to_string(),
                    },
                },
            );
        }
    }
}

fn read_conn(
    conns: &mut [Option<Conn>],
    shared: &Shared,
    slot: usize,
    rbuf: &mut [u8],
    pending: &mut Vec<PendingReq>,
) {
    let Some(conn) = conns[slot].as_mut() else {
        return;
    };
    let mut eof = false;
    loop {
        match conn.stream.read(rbuf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                NetMetricsInner::add(&shared.metrics.bytes_in, n as u64);
                conn.last_activity = Instant::now();
                conn.decoder.push(&rbuf[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                close_conn(conns, shared, slot);
                return;
            }
        }
    }
    loop {
        match conn.decoder.next_frame() {
            Ok(Some(payload)) => handle_payload(shared, conn, slot, &payload, pending),
            Ok(None) => break,
            Err(fe) => {
                NetMetricsInner::add(&shared.metrics.protocol_errors, 1);
                push_response(shared, conn, &frame_error_response(fe));
                conn.closing = true;
                break;
            }
        }
    }
    if eof {
        if !conn.closing {
            if let Err(fe) = conn.decoder.finish() {
                // Peer half-closed mid-frame: answer with the typed
                // truncation error before closing our side.
                NetMetricsInner::add(&shared.metrics.protocol_errors, 1);
                push_response(shared, conn, &frame_error_response(fe));
            }
        }
        conn.closing = true;
        if !conn.has_output() {
            close_conn(conns, shared, slot);
        }
    }
}

/// Score every admitted request of this readiness pass: deadline triage
/// first (expired requests answer `DeadlineExceeded` without scoring),
/// then grouped by `n` (a packed batch shares one top-`n` width), one
/// `recommend_batch_pinned` per group under `catch_unwind` (a panicking
/// batch answers typed `Internal` errors and the worker survives),
/// responses written back in decode order per connection.
fn process_pending(shared: &Shared, conns: &mut [Option<Conn>], pending: Vec<PendingReq>) {
    if pending.is_empty() {
        return;
    }
    // Deadline triage at batch entry: queue wait is decode → here. A
    // request past its deadline is answered typed, never scored — the
    // client can safely retry (no side effects were taken).
    let mut live: Vec<PendingReq> = Vec::with_capacity(pending.len());
    for p in pending {
        let waited = p.t0.elapsed();
        shared
            .metrics
            .queue_wait_ns
            .record(waited.as_nanos().min(u128::from(u64::MAX)) as u64);
        match shared.request_deadline {
            Some(deadline) if waited >= deadline => {
                NetMetricsInner::add(&shared.metrics.deadline_exceeded, 1);
                if let Some(conn) = conns[p.conn].as_mut() {
                    push_response(
                        shared,
                        conn,
                        &Response {
                            id: p.id,
                            body: ResponseBody::Error {
                                code: ErrorCode::DeadlineExceeded,
                                message: format!(
                                    "request waited {} µs, past the {} µs deadline; not scored",
                                    waited.as_micros(),
                                    deadline.as_micros()
                                ),
                            },
                        },
                    );
                }
                // `p` (and its permit) drops here without scoring.
            }
            _ => live.push(p),
        }
    }
    if live.is_empty() {
        return;
    }
    let pending = live;
    let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
    for (i, p) in pending.iter().enumerate() {
        match groups.iter_mut().find(|(n, _)| *n == p.n) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((p.n, vec![i])),
        }
    }
    let mut results: Vec<Option<Response>> = (0..pending.len()).map(|_| None).collect();
    for (n, idxs) in groups {
        let requests: Vec<ScoreRequest> = idxs.iter().map(|&i| pending[i].req).collect();
        // Panic isolation: a panic inside the engine answers this batch
        // with typed `Internal` errors instead of unwinding the worker.
        // Every engine-side lock recovers from poisoning (into_inner),
        // so later batches are unaffected.
        let scored = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shared.engine.recommend_batch_pinned(&requests, n as usize)
        }));
        match scored {
            Ok((version, answers)) => {
                for (&i, answer) in idxs.iter().zip(answers) {
                    let body = match answer {
                        Ok(ranking) => {
                            NetMetricsInner::add(&shared.metrics.ok, 1);
                            ResponseBody::Ranking {
                                version,
                                items: ranking
                                    .iter()
                                    .map(|&(poi, score)| (poi as u64, score))
                                    .collect(),
                            }
                        }
                        Err(e) => {
                            let (code, message) = proto::serve_error_to_wire(&e);
                            ResponseBody::Error { code, message }
                        }
                    };
                    results[i] = Some(Response {
                        id: pending[i].id,
                        body,
                    });
                }
            }
            Err(_) => {
                NetMetricsInner::add(&shared.metrics.panics, 1);
                for &i in &idxs {
                    results[i] = Some(Response {
                        id: pending[i].id,
                        body: ResponseBody::Error {
                            code: ErrorCode::Internal,
                            message: "internal error: scoring batch panicked; \
                                      request not answered with data"
                                .to_string(),
                        },
                    });
                }
            }
        }
    }
    for (p, resp) in pending.into_iter().zip(results) {
        let resp = resp.expect("every admitted request answered");
        shared
            .metrics
            .request_ns
            .record(p.t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        if let Some(conn) = conns[p.conn].as_mut() {
            push_response(shared, conn, &resp);
        }
        // `p` (and its permit) drops here: the admission slot frees only
        // once the response is built and queued.
    }
}

fn flush_conn(conns: &mut [Option<Conn>], shared: &Shared, slot: usize) {
    let Some(conn) = conns[slot].as_mut() else {
        return;
    };
    while conn.has_output() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                close_conn(conns, shared, slot);
                return;
            }
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
                NetMetricsInner::add(&shared.metrics.bytes_out, n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                close_conn(conns, shared, slot);
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    if conn.closing {
        close_conn(conns, shared, slot);
    }
}

/// Close every connection whose last activity is older than the idle
/// timeout. Covers abandoned sockets, peers stalled mid-frame, and
/// peers that stopped reading their responses.
fn reap_idle(conns: &mut [Option<Conn>], shared: &Shared, idle: Duration) {
    for slot in 0..conns.len() {
        let expired = conns[slot]
            .as_ref()
            .is_some_and(|c| c.last_activity.elapsed() >= idle);
        if expired {
            NetMetricsInner::add(&shared.metrics.reaped_idle, 1);
            close_conn(conns, shared, slot);
        }
    }
}

fn drain_wake(wake: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match (&*wake).read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Drain state machine, per worker: flush every queued response, then
/// half-close the write side (FIN lands *after* the last response byte)
/// and wait for the peer's EOF before closing. No new bytes are read
/// into the decoder, so a request that never entered a batch is simply
/// never answered — its connection still closes at a clean frame
/// boundary. Exits when all connections are closed or `shutdown` forces
/// the remainder.
fn drain_conns(shared: &Shared, conns: &mut [Option<Conn>], wake: &UnixStream) {
    let mut pfds: Vec<PollFd> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    let mut rbuf = [0u8; 4096];
    loop {
        // Half-close flushed connections; close the ones already done.
        for slot in 0..conns.len() {
            let Some(c) = conns[slot].as_mut() else {
                continue;
            };
            if !c.has_output() && !c.fin_sent {
                if c.closing || c.stream.shutdown(Shutdown::Write).is_err() {
                    close_conn(conns, shared, slot);
                } else {
                    c.fin_sent = true;
                }
            }
        }
        if conns.iter().all(Option::is_none) {
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            for slot in 0..conns.len() {
                close_conn(conns, shared, slot);
            }
            return;
        }
        pfds.clear();
        slots.clear();
        pfds.push(PollFd {
            fd: wake.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for (slot, conn) in conns.iter().enumerate() {
            if let Some(c) = conn {
                let events = if c.fin_sent { POLLIN } else { POLLOUT };
                pfds.push(PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                slots.push(slot);
            }
        }
        if poll_fds(&mut pfds, 50).is_err() {
            continue;
        }
        if pfds[0].revents != 0 {
            drain_wake(wake);
        }
        for (i, &slot) in slots.iter().enumerate() {
            let revents = pfds[i + 1].revents;
            if revents == 0 {
                continue;
            }
            if revents & POLLNVAL != 0 {
                close_conn(conns, shared, slot);
                continue;
            }
            let fin_sent = conns[slot].as_ref().is_some_and(|c| c.fin_sent);
            if fin_sent {
                // Discard post-FIN bytes from the peer; close on its EOF
                // (or any error — the flush already completed).
                while let Some(c) = conns[slot].as_mut() {
                    match c.stream.read(&mut rbuf) {
                        Ok(0) => {
                            close_conn(conns, shared, slot);
                            break;
                        }
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            close_conn(conns, shared, slot);
                            break;
                        }
                    }
                }
            } else if revents & (POLLOUT | POLLHUP | POLLERR) != 0 {
                flush_conn(conns, shared, slot);
            }
        }
    }
}

/// One readiness-loop pass cycle until shutdown or drain. Separated from
/// [`worker_thread`] so the supervisor can respawn it with fresh state
/// after an escaped panic; `conns` lives in the supervisor's frame so
/// orphaned connections can be counted (and closed) on unwind.
fn worker_loop(
    shared: &Shared,
    inbox: &Mutex<Vec<TcpStream>>,
    wake: &UnixStream,
    conns: &mut Vec<Option<Conn>>,
) {
    let mut pfds: Vec<PollFd> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    let mut rbuf = vec![0u8; 16 * 1024];
    // Bounded poll timeout so shutdown is honoured even with no traffic
    // and no wake byte, and so the idle reaper runs on schedule.
    let poll_ms = match shared.idle_timeout {
        Some(idle) => (idle.as_millis() as i64 / 2).clamp(10, 250) as i32,
        None => 250,
    };
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.draining.load(Ordering::Acquire) {
            drain_conns(shared, conns, wake);
            return;
        }
        pfds.clear();
        slots.clear();
        pfds.push(PollFd {
            fd: wake.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for (slot, conn) in conns.iter().enumerate() {
            if let Some(c) = conn {
                let mut events = POLLIN;
                if c.has_output() {
                    events |= POLLOUT;
                }
                pfds.push(PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                slots.push(slot);
            }
        }
        if poll_fds(&mut pfds, poll_ms).is_err() {
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if pfds[0].revents != 0 {
            drain_wake(wake);
            let fresh = {
                let mut inbox = inbox.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *inbox)
            };
            for stream in fresh {
                register_conn(conns, shared, stream);
            }
        }
        let mut pending: Vec<PendingReq> = Vec::new();
        for (i, &slot) in slots.iter().enumerate() {
            let revents = pfds[i + 1].revents;
            if revents == 0 {
                continue;
            }
            if revents & POLLNVAL != 0 {
                close_conn(conns, shared, slot);
                continue;
            }
            if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                read_conn(conns, shared, slot, &mut rbuf, &mut pending);
            }
        }
        process_pending(shared, conns, pending);
        for slot in 0..conns.len() {
            if conns[slot].as_ref().is_some_and(Conn::has_output) {
                flush_conn(conns, shared, slot);
            } else if conns[slot].as_ref().is_some_and(|c| c.closing) {
                close_conn(conns, shared, slot);
            }
        }
        if let Some(idle) = shared.idle_timeout {
            reap_idle(conns, shared, idle);
        }
    }
}

/// Worker thread body: an in-thread supervisor around [`worker_loop`].
/// Batch panics never reach here (they are caught in `process_pending`);
/// if a panic escapes the readiness loop anyway, its connections are
/// closed and counted and the loop respawns with fresh state — the
/// worker keeps serving instead of silently dying.
fn worker_thread(shared: Arc<Shared>, inbox: Arc<Mutex<Vec<TcpStream>>>, wake: UnixStream) {
    let _ = wake.set_nonblocking(true);
    loop {
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&shared, &inbox, &wake, &mut conns)
        }));
        match result {
            Ok(()) => return,
            Err(_) => {
                let orphaned = conns.iter().flatten().count() as u64;
                NetMetricsInner::add(&shared.metrics.closed, orphaned);
                drop(conns);
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                NetMetricsInner::add(&shared.metrics.worker_restarts, 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptor and public handle.

fn acceptor_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    wakes: Vec<UnixStream>,
) {
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Acquire)
                    || shared.draining.load(Ordering::Acquire)
                {
                    // Draining/shutting down: stop accepting. The freshly
                    // accepted stream (possibly the drain's own kick
                    // connection) drops here — it was never served.
                    return;
                }
                let w = next % inboxes.len();
                next = next.wrapping_add(1);
                inboxes[w]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(stream);
                let _ = (&wakes[w]).write(&[1]);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire)
                    || shared.draining.load(Ordering::Acquire)
                {
                    return;
                }
            }
        }
    }
}

/// Periodic cache maintenance: runs [`ServingEngine::purge_stale`] every
/// `interval`, sleeping in short slices so drain/shutdown is observed
/// within ~10 ms rather than a full interval. Purging is cheap (shard
/// scans dropping version-mismatched entries) and touches no request
/// state, so it runs concurrently with full traffic.
fn maintenance_loop(shared: Arc<Shared>, interval: Duration) {
    const SLICE: Duration = Duration::from_millis(10);
    let mut last = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::Acquire) || shared.draining.load(Ordering::Acquire) {
            return;
        }
        if last.elapsed() >= interval {
            shared.engine.purge_stale();
            last = Instant::now();
        }
        std::thread::sleep(SLICE.min(interval));
    }
}

/// The wire-protocol server. [`NetServer::start`] spawns the acceptor and
/// worker threads and returns a [`ServerHandle`].
pub struct NetServer;

impl NetServer {
    /// Bind `cfg.addr` and start serving `engine` over the wire.
    pub fn start(engine: Arc<ServingEngine>, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            engine,
            gate: Arc::new(AdmissionGate::new(cfg.queue_depth)),
            metrics: NetMetricsInner::default(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            max_frame_len: cfg.max_frame_len,
            request_deadline: cfg.request_deadline,
            idle_timeout: cfg.idle_timeout,
        });

        let mut inboxes = Vec::with_capacity(workers);
        let mut wake_txs = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = UnixStream::pair()?;
            let inbox: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            let shared_w = Arc::clone(&shared);
            let inbox_w = Arc::clone(&inbox);
            let handle = std::thread::Builder::new()
                .name(format!("tcss-serve-worker-{w}"))
                .spawn(move || worker_thread(shared_w, inbox_w, rx))?;
            inboxes.push(inbox);
            wake_txs.push(tx);
            worker_handles.push(handle);
        }

        let acceptor_wakes: Vec<UnixStream> = wake_txs
            .iter()
            .map(UnixStream::try_clone)
            .collect::<io::Result<_>>()?;
        let shared_a = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("tcss-serve-acceptor".to_string())
            .spawn(move || acceptor_loop(shared_a, listener, inboxes, acceptor_wakes))?;

        let maint = match cfg.maintenance_interval {
            Some(interval) => {
                let shared_m = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("tcss-serve-maint".to_string())
                        .spawn(move || maintenance_loop(shared_m, interval))?,
                )
            }
            None => None,
        };

        Ok(ServerHandle {
            addr,
            shared,
            wake_txs,
            acceptor: Some(acceptor),
            workers: worker_handles,
            maint,
        })
    }
}

/// Running server handle: address, metrics, admission gate, drain and
/// shutdown. Dropping the handle performs a **bounded drain**
/// ([`DEFAULT_DRAIN_TIMEOUT`]) — queued responses are flushed, never
/// abandoned, before the threads are joined.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    wake_txs: Vec<UnixStream>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    maint: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the kernel-assigned port when the config
    /// asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving engine behind the wire — swaps through it are live
    /// immediately ([`ServingEngine::swap_model`]).
    pub fn engine(&self) -> Arc<ServingEngine> {
        Arc::clone(&self.shared.engine)
    }

    /// The shared admission gate (tests occupy it to force shedding).
    pub fn admission(&self) -> Arc<AdmissionGate> {
        Arc::clone(&self.shared.gate)
    }

    /// Wire-server counter snapshot.
    pub fn metrics(&self) -> NetMetrics {
        let m = &self.shared.metrics;
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        NetMetrics {
            accepted: get(&m.accepted),
            closed: get(&m.closed),
            requests: get(&m.requests),
            ok: get(&m.ok),
            overloaded: get(&m.overloaded),
            errors: get(&m.errors),
            protocol_errors: get(&m.protocol_errors),
            pings: get(&m.pings),
            bytes_in: get(&m.bytes_in),
            bytes_out: get(&m.bytes_out),
            deadline_exceeded: get(&m.deadline_exceeded),
            panics: get(&m.panics),
            worker_restarts: get(&m.worker_restarts),
            reaped_idle: get(&m.reaped_idle),
            request_ns: m.request_ns.snapshot(),
            queue_wait_ns: m.queue_wait_ns.snapshot(),
        }
    }

    /// Graceful shutdown: stop accepting, finish in-flight batches,
    /// flush every queued response, half-close each connection and wait
    /// for the peer's EOF — then join all threads. Connections still
    /// open at `timeout` are force-closed (the flush itself completed
    /// for any connection whose peer kept reading). Returns `true` when
    /// every connection drained within the timeout, `false` when the
    /// force path had to fire. Idempotent.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        self.shared.draining.store(true, Ordering::Release);
        // Kick the acceptor out of its blocking accept; wake every
        // worker parked in poll so the drain flag is seen immediately.
        let _ = TcpStream::connect(self.addr);
        for wake in &self.wake_txs {
            let _ = (&*wake).write(&[1]);
        }
        let deadline = Instant::now() + timeout;
        let mut clean = true;
        loop {
            let all_done = self.workers.iter().all(JoinHandle::is_finished)
                && self.acceptor.as_ref().is_none_or(JoinHandle::is_finished);
            if all_done {
                break;
            }
            if Instant::now() >= deadline {
                clean = false;
                // Timeout: force the remaining connections closed.
                self.shared.shutdown.store(true, Ordering::Release);
                let _ = TcpStream::connect(self.addr);
                for wake in &self.wake_txs {
                    let _ = (&*wake).write(&[1]);
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(maint) = self.maint.take() {
            let _ = maint.join();
        }
        clean
    }

    /// Stop the server and join all threads. Delegates to a bounded
    /// [`ServerHandle::drain`] ([`DEFAULT_DRAIN_TIMEOUT`]), so queued
    /// responses are flushed before sockets close — a `shutdown` (or an
    /// implicit drop) never abandons a response that was already built.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.drain(DEFAULT_DRAIN_TIMEOUT);
    }

    /// Block until the server is shut down from elsewhere (the CLI's
    /// run-forever mode).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(maint) = self.maint.take() {
            let _ = maint.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}
