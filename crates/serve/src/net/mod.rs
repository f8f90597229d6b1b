//! Wire-protocol serving: framing, message codec, admission control,
//! readiness-loop server and blocking client.
//!
//! Layering, bottom up:
//!
//! 1. [`frame`] — length-prefixed binary frames, incremental decoding
//!    under arbitrary byte-boundary splits, typed oversize/truncation
//!    errors.
//! 2. [`proto`] — request/response messages inside frames; scores travel
//!    as `f64::to_bits`, so wire answers are bitwise-identical to
//!    in-process `recommend` calls on the same model snapshot.
//! 3. [`admission`] — the bounded in-flight gate behind deterministic
//!    `Overloaded` load shedding.
//! 4. [`server`] — the `poll(2)` readiness loop (acceptor + worker
//!    threads) over [`crate::ServingEngine`], batching decoded requests
//!    across connections and surviving model swaps mid-load.
//! 5. [`client`] — a small blocking client with pipelining, read
//!    timeouts, per-call deadlines and deterministic capped-backoff
//!    retry, shared by the CLI, tests and the load generator.
//! 6. [`faulty`] — deterministic transport fault injection (stalls,
//!    partial writes, resets, byte corruption keyed by request index),
//!    the test-only shim behind the serve-chaos suite.
//!
//! The server side layers a typed failure model on top: per-request
//! deadlines, an idle-connection reaper, `catch_unwind` panic isolation
//! with worker respawn, and graceful drain ([`ServerHandle::drain`]).
//! See `DESIGN.md` §5f for the wire-serving design notes, §5g for the
//! failure model, and `bench_e2e/` (`bash bench_e2e/run.sh`, the
//! `serve_mixed` workload and its `net.*` figures) for the timings.

pub mod admission;
pub mod client;
pub mod faulty;
pub mod frame;
pub mod proto;
pub mod server;

pub use admission::{AdmissionGate, Permit};
pub use client::{ClientConfig, ClientError, ClientStats, NetClient};
pub use faulty::{FaultyTransport, TransportFault, TransportFaultPlan};
pub use frame::{FrameDecoder, FrameError, DEFAULT_MAX_FRAME_LEN};
pub use proto::{ErrorCode, Request, RequestBody, Response, ResponseBody, WireError};
pub use server::{NetMetrics, NetServer, ServerConfig, ServerHandle, DEFAULT_DRAIN_TIMEOUT};
