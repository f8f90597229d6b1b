//! Wire-protocol serving: framing, message codec, admission control,
//! readiness-loop server and blocking client.
//!
//! Layering, bottom up:
//!
//! 1. [`frame`] — the workspace's one frame codec, re-exported from
//!    [`tcss_core::frame`]: length prefix, payload, CRC32C trailer,
//!    incremental decoding under arbitrary byte-boundary splits, typed
//!    oversize/truncation/checksum errors. Serving caps payloads at
//!    [`DEFAULT_MAX_FRAME_LEN`] unless [`ServerConfig::max_frame_len`]
//!    (or [`ClientConfig::max_frame_len`]) says otherwise.
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
//!
//! The server side layers a typed failure model on top: per-request
//! deadlines, an idle-connection reaper, `catch_unwind` panic isolation
//! with worker respawn, and graceful drain ([`ServerHandle::drain`]).
//! See `DESIGN.md` §5f for the wire-serving design notes, §5g for the
//! failure model, and `bench_e2e/` (`bash bench_e2e/run.sh`, the
//! `serve_mixed` workload and its `net.*` figures) for the timings.

pub mod admission;
pub mod client;
pub mod proto;
pub mod server;

/// The workspace's one frame codec, [`tcss_core::frame`], under its
/// serving path; the tests pin it at serving-sized caps.
pub mod frame {
    pub use tcss_core::frame::*;

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::net::DEFAULT_MAX_FRAME_LEN;

        fn encode_frame(payload: &[u8]) -> Vec<u8> {
            let mut out = Vec::new();
            write_frame(&mut out, payload);
            out
        }

        #[test]
        fn single_frame_roundtrip() {
            let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
            d.push(&encode_frame(b"hello"));
            assert_eq!(d.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
            assert_eq!(d.next_frame().unwrap(), None);
            d.finish().unwrap();
        }

        #[test]
        fn byte_at_a_time_delivery() {
            let mut d = FrameDecoder::new(64);
            for &b in &encode_frame(b"abc") {
                assert_eq!(d.next_frame().unwrap(), None, "frame incomplete");
                d.push(&[b]);
            }
            assert_eq!(d.next_frame().unwrap().as_deref(), Some(&b"abc"[..]));
            d.finish().unwrap();
        }

        #[test]
        fn oversized_header_is_typed_and_sticky() {
            let mut d = FrameDecoder::new(8);
            d.push(&encode_frame(&[0u8; 9]));
            let e = d.next_frame().unwrap_err();
            assert_eq!(
                e,
                FrameError::Oversized {
                    declared: 9,
                    max: 8
                }
            );
            assert_eq!(d.next_frame().unwrap_err(), e, "poisoned decoder sticks");
            assert_eq!(d.finish().unwrap_err(), e);
        }

        #[test]
        fn eof_mid_frame_is_truncation() {
            let mut d = FrameDecoder::new(64);
            let wire = encode_frame(b"abcdef");
            d.push(&wire[..wire.len() - 2]);
            assert_eq!(d.next_frame().unwrap(), None);
            assert_eq!(
                d.finish().unwrap_err(),
                FrameError::TruncatedEof {
                    buffered: wire.len() - 2
                }
            );
        }

        #[test]
        fn empty_payload_frames_are_legal_at_frame_layer() {
            let mut d = FrameDecoder::new(64);
            d.push(&encode_frame(b""));
            assert_eq!(d.next_frame().unwrap().as_deref(), Some(&b""[..]));
            d.finish().unwrap();
        }
    }
}

pub use admission::{AdmissionGate, Permit};
pub use client::{ClientConfig, ClientError, ClientStats, NetClient};
pub use frame::{FrameDecoder, FrameError};
pub use proto::{ErrorCode, Request, RequestBody, Response, ResponseBody, WireError};
pub use server::{NetMetrics, NetServer, ServerConfig, ServerHandle, DEFAULT_DRAIN_TIMEOUT};

/// Default maximum payload length of a serving frame (1 MiB).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;
