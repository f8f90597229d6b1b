//! A small blocking client for the TCSS wire protocol.
//!
//! Used by the `tcss query` CLI and the protocol/chaos test suites. The
//! client is deliberately simple — one blocking socket read through the
//! workspace's one frame codec ([`read_frame`] into a [`FrameDecoder`],
//! so every response frame is checksum-verified) — but supports
//! pipelining: [`NetClient::send_recommend`] queues without waiting and
//! [`NetClient::read_response`] drains answers in arrival order, with
//! correlation ids matching them back to requests. Every read honours a
//! configurable timeout ([`ClientConfig::read_timeout`]) so a wedged
//! server yields a typed error instead of a hung test (the CI job's
//! hung-server detection in miniature).
//!
//! # Retry and backoff
//!
//! [`NetClient::recommend_with_retry`] layers resilience on top of the
//! raw round trip: typed `Overloaded` responses and *transient* I/O
//! failures (connection reset/aborted, broken pipe, read timeout, a
//! clean server close) are retried up to [`ClientConfig::retries`] times
//! with **deterministic capped exponential backoff** — delay for attempt
//! `k` is `min(backoff_base · 2ᵏ, backoff_cap)`, no jitter, matching the
//! repo's reproducibility posture (two identical runs back off
//! identically). Transport-level failures reconnect before retrying;
//! `Overloaded` retries reuse the healthy connection. A per-call
//! deadline ([`ClientConfig::call_deadline`]) bounds the whole loop,
//! sleeps included: when it expires the call returns a typed
//! [`ClientError::DeadlineExceeded`] instead of another attempt.
//! Server-side `DeadlineExceeded`/`Internal` errors are retried too —
//! the server guarantees such requests were never scored, so a retry
//! cannot double-apply anything. Malformed server bytes (framing errors,
//! checksum mismatches included, or protocol decode failures) are
//! **not** retried: they indicate corruption, not load, and deserve a
//! loud failure.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::net::frame::{read_frame, write_frame, FrameDecoder, FrameError};
use crate::net::proto::{self, ErrorCode, Request, RequestBody, Response, ResponseBody, WireError};
use crate::net::DEFAULT_MAX_FRAME_LEN;

/// Typed client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes read timeouts).
    Io(io::Error),
    /// The server's bytes failed framing.
    Frame(FrameError),
    /// The server's payload failed decoding.
    Wire(WireError),
    /// The server closed the connection before answering.
    ServerClosed,
    /// The server answered with a body the call cannot use (e.g. a
    /// `Ranking` where a `Pong` was expected).
    Unexpected(Response),
    /// The per-call deadline ([`ClientConfig::call_deadline`]) expired
    /// before a usable answer arrived.
    DeadlineExceeded {
        /// Time spent in the call when the deadline fired.
        elapsed: Duration,
    },
    /// Every retry attempt failed; `last` is the final attempt's error.
    RetriesExhausted {
        /// Total attempts made (initial try + retries).
        attempts: u32,
        /// The error from the last attempt.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error from server: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error from server: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::Unexpected(resp) => {
                write!(f, "unexpected response body for id {}", resp.id)
            }
            ClientError::DeadlineExceeded { elapsed } => {
                write!(f, "call deadline exceeded after {} ms", elapsed.as_millis())
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Client tuning knobs. `Default` then override:
///
/// ```
/// use std::time::Duration;
/// use tcss_serve::net::ClientConfig;
/// let cfg = ClientConfig {
///     read_timeout: Duration::from_millis(500),
///     retries: 3,
///     ..ClientConfig::default()
/// };
/// ```
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bound on every blocking socket read; a wedged server surfaces as
    /// `ClientError::Io(TimedOut/WouldBlock)` instead of a hang.
    pub read_timeout: Duration,
    /// Maximum accepted response frame length in bytes.
    pub max_frame_len: u32,
    /// Extra attempts after the first for
    /// [`NetClient::recommend_with_retry`] (0 = single attempt).
    pub retries: u32,
    /// Backoff before retry attempt `k` is `min(backoff_base · 2ᵏ,
    /// backoff_cap)` — deterministic, no jitter.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Per-call wall-clock bound on the whole retry loop (attempts and
    /// backoff sleeps included). `None` relies on `read_timeout` ×
    /// attempts alone.
    pub call_deadline: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            retries: 0,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            call_deadline: None,
        }
    }
}

/// Retry-loop observability: how hard the client had to work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Attempts beyond the first across all `recommend_with_retry` calls.
    pub retries: u64,
    /// Successful transport reconnects performed by the retry loop.
    pub reconnects: u64,
}

/// Blocking wire-protocol client over one TCP connection.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_id: u64,
    /// Responses read while waiting for a different correlation id.
    stash: HashMap<u64, Response>,
    addr: SocketAddr,
    cfg: ClientConfig,
    stats: ClientStats,
}

impl NetClient {
    /// Connect with the default config (10-second read timeout, no
    /// retries); see [`NetClient::connect_with_config`].
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with_config(addr, ClientConfig::default())
    }

    /// Connect with only the read timeout overridden.
    pub fn connect_with_timeout(addr: SocketAddr, read_timeout: Duration) -> io::Result<Self> {
        Self::connect_with_config(
            addr,
            ClientConfig {
                read_timeout,
                ..ClientConfig::default()
            },
        )
    }

    /// Connect with full [`ClientConfig`] control.
    pub fn connect_with_config(addr: SocketAddr, cfg: ClientConfig) -> io::Result<Self> {
        let stream = Self::open_stream(addr, &cfg)?;
        Ok(NetClient {
            stream,
            decoder: FrameDecoder::new(cfg.max_frame_len),
            next_id: 1,
            stash: HashMap::new(),
            addr,
            cfg,
            stats: ClientStats::default(),
        })
    }

    fn open_stream(addr: SocketAddr, cfg: &ClientConfig) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        Ok(stream)
    }

    /// The config this client was built with.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Retry-loop counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Replace the transport with a fresh connection to the same
    /// address. Decoder state and stashed responses from the old
    /// connection are discarded (their correlation ids can never be
    /// answered again); the id counter keeps advancing so ids stay
    /// unique across reconnects.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Self::open_stream(self.addr, &self.cfg)?;
        self.decoder = FrameDecoder::new(self.cfg.max_frame_len);
        self.stash.clear();
        Ok(())
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send a `Recommend` without waiting (pipelining); returns the
    /// correlation id to match against [`NetClient::read_response`].
    pub fn send_recommend(&mut self, user: u64, time: u64, n: u32) -> io::Result<u64> {
        let id = self.fresh_id();
        let payload = proto::encode_request(&Request {
            id,
            body: RequestBody::Recommend { user, time, n },
        });
        self.send_frame(&payload)?;
        Ok(id)
    }

    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut framed = Vec::new();
        write_frame(&mut framed, payload);
        self.stream.write_all(&framed)
    }

    /// Send raw bytes verbatim — the protocol tests' malformed-input
    /// injection point.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Half-close the write side (EOF to the server, reads still open).
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    /// Next response in arrival order (stashed responses first).
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        if let Some(&id) = self.stash.keys().next() {
            return Ok(self.stash.remove(&id).expect("key just seen"));
        }
        self.read_from_wire()
    }

    fn read_from_wire(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame::<ClientError>(&mut self.stream, &mut self.decoder)?
            .ok_or(ClientError::ServerClosed)?;
        proto::decode_response(&payload).map_err(ClientError::Wire)
    }

    /// Response for a specific correlation id; other responses read on
    /// the way are stashed for later [`NetClient::read_response`] calls.
    pub fn read_response_for(&mut self, id: u64) -> Result<Response, ClientError> {
        if let Some(resp) = self.stash.remove(&id) {
            return Ok(resp);
        }
        loop {
            let resp = self.read_from_wire()?;
            if resp.id == id {
                return Ok(resp);
            }
            self.stash.insert(resp.id, resp);
        }
    }

    /// Blocking request/response round trip (single attempt, no retry).
    pub fn recommend(&mut self, user: u64, time: u64, n: u32) -> Result<Response, ClientError> {
        let id = self.send_recommend(user, time, n)?;
        self.read_response_for(id)
    }

    /// Round trip with the full resilience loop: retries `Overloaded`,
    /// retry-safe server errors and transient transport failures with
    /// deterministic capped exponential backoff (reconnecting when the
    /// transport died), bounded by [`ClientConfig::call_deadline`]. See
    /// the module docs for the exact retryability rules.
    pub fn recommend_with_retry(
        &mut self,
        user: u64,
        time: u64,
        n: u32,
    ) -> Result<Response, ClientError> {
        let t0 = Instant::now();
        let attempts = self.cfg.retries.saturating_add(1);
        let mut last: Option<ClientError> = None;
        let mut need_reconnect = false;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                let shift = (attempt - 1).min(32);
                let delay = self
                    .cfg
                    .backoff_base
                    .saturating_mul(1u32 << shift)
                    .min(self.cfg.backoff_cap);
                if let Some(deadline) = self.cfg.call_deadline {
                    // Never sleep past the deadline; expire typed.
                    let elapsed = t0.elapsed();
                    if elapsed + delay >= deadline {
                        return Err(ClientError::DeadlineExceeded { elapsed });
                    }
                }
                std::thread::sleep(delay);
            }
            if let Some(deadline) = self.cfg.call_deadline {
                let elapsed = t0.elapsed();
                if elapsed >= deadline {
                    return Err(ClientError::DeadlineExceeded { elapsed });
                }
            }
            if need_reconnect {
                match self.reconnect() {
                    Ok(()) => {
                        self.stats.reconnects += 1;
                        need_reconnect = false;
                    }
                    Err(e) => {
                        last = Some(ClientError::Io(e));
                        continue;
                    }
                }
            }
            match self.recommend(user, time, n) {
                Ok(resp) => match &resp.body {
                    // Shed load and retry-safe server errors: back off on
                    // the same healthy connection.
                    ResponseBody::Overloaded { .. } => last = Some(ClientError::Unexpected(resp)),
                    ResponseBody::Error {
                        code: ErrorCode::DeadlineExceeded | ErrorCode::Internal,
                        ..
                    } => last = Some(ClientError::Unexpected(resp)),
                    _ => return Ok(resp),
                },
                Err(e) if Self::is_transient(&e) => {
                    need_reconnect = true;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts,
            last: Box::new(last.expect("at least one attempt ran")),
        })
    }

    /// Transport failures worth a reconnect-and-retry. Framing/decoding
    /// errors are deliberately excluded: corrupted server bytes are a
    /// bug, not load.
    fn is_transient(err: &ClientError) -> bool {
        match err {
            ClientError::ServerClosed => true,
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }

    /// Liveness round trip; `Ok` only on a `Pong` echo.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        let payload = proto::encode_request(&Request {
            id,
            body: RequestBody::Ping,
        });
        self.send_frame(&payload)?;
        let resp = self.read_response_for(id)?;
        match &resp.body {
            ResponseBody::Pong => Ok(()),
            _ => Err(ClientError::Unexpected(resp)),
        }
    }
}
