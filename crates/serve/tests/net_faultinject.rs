//! Transport-level chaos suite: a deterministic [`TransportFaultPlan`]
//! drives stalls, partial writes, connection resets and byte corruption
//! through the wire front end, and every request must resolve to a
//! **typed error** or a response **bitwise identical** to in-process
//! `recommend` — never a hang (every read is timeout-bounded and the CI
//! job wraps the suite in a hard `timeout`), never a wrong score, and
//! the server must stay fully healthy after the storm.
//!
//! The fault catalogue and the per-fault expectations:
//!
//! | fault                  | expected resolution                        |
//! |------------------------|--------------------------------------------|
//! | clean request          | bitwise-correct `Ranking`                  |
//! | `StallMidFrame`        | bitwise-correct `Ranking` (decoder reassembles the split) |
//! | `PartialWrite`         | typed `Truncated` error, then clean close  |
//! | `Reset`                | transport dies; server absorbs the RST     |
//! | corrupt kind byte      | typed `ChecksumMismatch` (id 0), then clean close |
//! | corrupt id byte        | typed `ChecksumMismatch` (id 0), then clean close |
//!
//! A corrupted payload byte never reaches the message decoder: the frame
//! checksum rejects it, so even a flip that still encodes a valid request
//! (the id byte) cannot be answered as a misaddressed `Ranking`.
//! `Malformed` keeps its live coverage in `net_protocol.rs`, through
//! well-framed garbage payloads.

use std::sync::Arc;
use std::time::Duration;

#[path = "support/faulty.rs"]
mod faulty;

use faulty::{FaultyTransport, TransportFault, TransportFaultPlan};
use tcss_core::{random_init, TcssModel};
use tcss_serve::net::{ClientError, ErrorCode, NetClient, NetServer, ResponseBody, ServerConfig};
use tcss_serve::ServingEngine;

const DIMS: (usize, usize, usize) = (6, 41, 4);
const RANK: usize = 3;
const TOP_N: u32 = 7;
const REQUESTS: usize = 36;

fn model() -> TcssModel {
    let (u1, u2, u3) = random_init(DIMS, RANK, 9001);
    TcssModel::new(u1, u2, u3)
}

fn assert_bitwise(resp: &tcss_serve::net::Response, m: &TcssModel, user: usize, time: usize) {
    match &resp.body {
        ResponseBody::Ranking { items, .. } => {
            let want: Vec<(u64, u64)> = m
                .recommend(user, time, TOP_N as usize)
                .into_iter()
                .map(|(poi, score)| (poi as u64, score.to_bits()))
                .collect();
            assert_eq!(items.len(), want.len(), "({user},{time}): length");
            for (i, ((gp, gs), (wp, ws))) in items.iter().zip(&want).enumerate() {
                assert_eq!(gp, wp, "({user},{time}) rank {i}: poi");
                assert_eq!(gs.to_bits(), *ws, "({user},{time}) rank {i}: score bits");
            }
        }
        other => panic!("expected ranking for ({user},{time}), got {other:?}"),
    }
}

#[test]
fn every_fault_resolves_typed_or_bitwise_and_the_server_survives() {
    let m = model();
    let handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig {
            workers: 2,
            queue_depth: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    // The deterministic storm, keyed by request index — the serving
    // mirror of tcss_core::fault's epoch-keyed plans. Indices are spread
    // so every fault is preceded and followed by clean traffic.
    let plan = TransportFaultPlan::none()
        .fault_at(5, TransportFault::StallMidFrame { pause_ms: 40 })
        .fault_at(11, TransportFault::PartialWrite { bytes: 7 })
        .fault_at(17, TransportFault::Reset)
        // Offset 0 is the kind byte.
        .fault_at(
            23,
            TransportFault::CorruptPayloadByte {
                offset: 0,
                mask: 0xFF,
            },
        )
        // Offset 1 is the correlation id's low byte: the payload would
        // still decode as a valid request.
        .fault_at(
            29,
            TransportFault::CorruptPayloadByte {
                offset: 1,
                mask: 0x01,
            },
        );

    let mut transport =
        FaultyTransport::connect(handle.addr(), plan, Duration::from_secs(5)).expect("connect");

    let mut clean_answers = 0u64;
    for r in 0..REQUESTS {
        let (user, time) = (r % DIMS.0, r % DIMS.2);
        let (id, fault) = transport
            .send_recommend(user as u64, time as u64, TOP_N)
            .expect("send path never errors out of the harness");
        match fault {
            None | Some(TransportFault::StallMidFrame { .. }) => {
                // Clean or merely slow: the answer must be bitwise-exact
                // and carry our correlation id.
                let resp = transport.recv().expect("answered within the timeout");
                assert_eq!(resp.id, id, "request {r}: correlation id");
                assert_bitwise(&resp, &m, user, time);
                clean_answers += 1;
            }
            Some(TransportFault::PartialWrite { .. }) => {
                // Half a frame then FIN: typed truncation, never a hang.
                let resp = transport.recv().expect("typed answer before close");
                match &resp.body {
                    ResponseBody::Error { code, .. } => {
                        assert_eq!(*code, ErrorCode::Truncated, "request {r}")
                    }
                    other => panic!("request {r}: expected Truncated, got {other:?}"),
                }
                // The server closes after a protocol error; observe the
                // clean EOF, then restore the transport.
                match transport.recv() {
                    Err(ClientError::ServerClosed) => {}
                    other => panic!("request {r}: expected clean close, got {other:?}"),
                }
                transport
                    .reconnect()
                    .expect("reconnect after partial write");
            }
            Some(TransportFault::Reset) => {
                // The RST killed the transport client-side; the request
                // may or may not have been scored (the reset races the
                // server's read), but the server must absorb it either
                // way. No response to wait for — just reconnect.
                assert!(!transport.is_connected(), "reset kills the transport");
                transport.reconnect().expect("reconnect after reset");
            }
            Some(TransportFault::CorruptPayloadByte { .. }) => {
                // Any flipped payload byte fails the frame checksum: a
                // typed, connection-level error (id 0 — nothing in the
                // untrusted frame is salvaged), then a clean close.
                let resp = transport.recv().expect("typed answer before close");
                assert_eq!(resp.id, 0, "request {r}: connection-level error");
                match &resp.body {
                    ResponseBody::Error { code, .. } => {
                        assert_eq!(*code, ErrorCode::ChecksumMismatch, "request {r}")
                    }
                    other => panic!("request {r}: expected ChecksumMismatch, got {other:?}"),
                }
                match transport.recv() {
                    Err(ClientError::ServerClosed) => {}
                    other => panic!("request {r}: expected clean close, got {other:?}"),
                }
                transport.reconnect().expect("reconnect after corruption");
            }
        }
    }
    assert_eq!(transport.faults_remaining(), 0, "the whole plan fired");
    assert_eq!(
        clean_answers,
        REQUESTS as u64 - 4,
        "all non-fatal requests answered"
    );

    // --- post-storm health -------------------------------------------------
    // A fresh client sweeps the full key space; every answer bitwise.
    let mut client = NetClient::connect(handle.addr()).expect("connect after storm");
    for user in 0..DIMS.0 {
        for time in 0..DIMS.2 {
            let resp = client
                .recommend(user as u64, time as u64, TOP_N)
                .expect("healthy after the storm");
            assert_bitwise(&resp, &m, user, time);
        }
    }

    let metrics = handle.metrics();
    assert_eq!(metrics.panics, 0, "no fault reached the engine as a panic");
    assert_eq!(metrics.worker_restarts, 0, "no worker died");
    assert_eq!(metrics.overloaded, 0, "deep queue never shed");
    // Typed protocol failures observed: the truncated half-frame and the
    // two corrupted frames. (The reset may or may not register depending
    // on how far the kernel delivered the final frame.)
    assert!(
        metrics.protocol_errors >= 3,
        "truncation + two corruptions surfaced as protocol errors, got {}",
        metrics.protocol_errors
    );
    assert!(
        metrics.errors >= 3,
        "typed error responses were sent for the protocol failures"
    );
}

#[test]
fn stall_longer_than_idle_timeout_is_reaped_not_hung() {
    let m = model();
    let handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(70)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    // A stall well past the idle timeout: the reaper closes the
    // connection mid-pause, so finishing the frame fails or the read
    // sees the close — but nothing hangs and the request is simply
    // never answered wrongly.
    let plan =
        TransportFaultPlan::none().fault_at(1, TransportFault::StallMidFrame { pause_ms: 400 });
    let mut transport =
        FaultyTransport::connect(handle.addr(), plan, Duration::from_secs(5)).expect("connect");

    // Request 0 is clean and must be bitwise-correct.
    let (id, fault) = transport.send_recommend(1, 2, TOP_N).expect("clean send");
    assert!(fault.is_none());
    let resp = transport.recv().expect("clean request answered");
    assert_eq!(resp.id, id);
    assert_bitwise(&resp, &m, 1, 2);

    // Request 1 stalls mid-frame past the reaper bound. The second half
    // of the frame may fail to send (connection already closed) — both
    // outcomes are legal; a *response* with wrong bits is not.
    match transport.send_recommend(3, 1, TOP_N) {
        Ok((_, Some(TransportFault::StallMidFrame { .. }))) => match transport.recv() {
            Err(_) => {}
            Ok(resp) => panic!("reaped half-frame must not be answered, got {resp:?}"),
        },
        Ok((_, f)) => panic!("expected the stall fault, got {f:?}"),
        Err(_) => {} // write failed against the reaped socket: fine
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.metrics().reaped_idle < 1 {
        assert!(std::time::Instant::now() < deadline, "reap not observed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Server still healthy.
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let resp = client.recommend(0, 3, TOP_N).expect("served after reap");
    assert_bitwise(&resp, &m, 0, 3);
}
