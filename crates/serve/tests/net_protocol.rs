//! Wire-protocol property and robustness suite.
//!
//! Pins the protocol contracts of `tcss_serve::net`:
//!
//! 1. **Framing survives arbitrary fragmentation.** Any frame stream
//!    delivered in any byte-boundary split (one byte at a time, headers
//!    torn across reads, many frames in one read) decodes, at the serving
//!    cap, to exactly the original payload sequence.
//! 2. **Messages round-trip bitwise.** Requests and responses (scores
//!    included, via `f64::to_bits`) survive encode→frame→split→decode
//!    unchanged.
//! 3. **Hostile input yields typed errors, never a panic or a hang.**
//!    Truncated and oversized frames and malformed and trailing-garbage
//!    payloads are property-tested at the codec layer and exercised
//!    end-to-end over a live loopback server, where each must produce a
//!    typed `Error` response (and close the connection for framing-level
//!    corruption) within the client's read timeout.
//!
//! The frame codec's remaining properties (read splits, byte-identical
//! raw frames, corruption detection, sticky poison) are proptested next
//! to it, in `tcss_core::frame`.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use tcss_core::{random_init, TcssModel};
use tcss_serve::net::frame::{read_frame, write_frame, FrameDecoder, FrameError};
use tcss_serve::net::proto::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Request,
    RequestBody, Response, ResponseBody,
};
use tcss_serve::net::{NetClient, NetServer, ServerConfig, DEFAULT_MAX_FRAME_LEN};
use tcss_serve::ServingEngine;

// ---------------------------------------------------------------------------
// Codec properties.

fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload);
    out
}

/// Split `stream` into chunks at the (wrapped) cut offsets in `cuts`.
fn split_at(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % stream.len().max(1)).collect();
    points.extend([0, stream.len()]);
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| stream[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frames round-trip under arbitrary byte-boundary splits.
    #[test]
    fn frames_roundtrip_under_arbitrary_splits(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..48), 0..8),
        cuts in proptest::collection::vec(0usize..4096, 0..24),
    ) {
        let stream: Vec<u8> = payloads.iter().flat_map(|p| encode_frame(p)).collect();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut got: Vec<Vec<u8>> = Vec::new();
        for chunk in split_at(&stream, &cuts) {
            dec.push(&chunk);
            while let Some(frame) = dec.next_frame().expect("well-formed stream") {
                got.push(frame);
            }
        }
        dec.finish().expect("stream ends on a frame boundary");
        prop_assert_eq!(got, payloads);
    }

    /// Requests and responses round-trip bitwise through the codec,
    /// regardless of how the framed bytes are fragmented.
    #[test]
    fn messages_roundtrip_bitwise(
        (id, user, time, n) in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX),
        version in 0u64..=u64::MAX,
        item_bits in proptest::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..12),
        cuts in proptest::collection::vec(0usize..256, 0..6),
    ) {
        let req = Request { id, body: RequestBody::Recommend { user, time, n } };
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);

        let items: Vec<(u64, f64)> = item_bits
            .iter()
            .map(|&(poi, bits)| (poi, f64::from_bits(bits)))
            .collect();
        let resp = Response { id, body: ResponseBody::Ranking { version, items } };
        let wire = encode_frame(&encode_response(&resp));
        let mut dec = FrameDecoder::new(1 << 16);
        for chunk in split_at(&wire, &cuts) {
            dec.push(&chunk);
        }
        let payload = dec.next_frame().unwrap().expect("one whole frame");
        let back = decode_response(&payload).unwrap();
        prop_assert_eq!(back.id, resp.id);
        match (back.body, resp.body) {
            (
                ResponseBody::Ranking { version: vb, items: ib },
                ResponseBody::Ranking { version: va, items: ia },
            ) => {
                prop_assert_eq!(vb, va);
                prop_assert_eq!(ib.len(), ia.len());
                for ((pb, sb), (pa, sa)) in ib.iter().zip(&ia) {
                    prop_assert_eq!(pb, pa);
                    prop_assert_eq!(sb.to_bits(), sa.to_bits());
                }
            }
            _ => unreachable!("both are rankings"),
        }
    }

    /// Arbitrary payload bytes never panic the message decoders — every
    /// outcome is `Ok` or a typed `WireError`.
    #[test]
    fn arbitrary_payloads_decode_to_typed_results(
        payload in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let _ = decode_request(&payload);
        let _ = decode_response(&payload);
    }

    /// A request with trailing garbage is always a typed `Trailing`.
    #[test]
    fn trailing_garbage_is_typed(
        (id, user, time, n) in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX),
        garbage in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let mut payload = encode_request(&Request {
            id,
            body: RequestBody::Recommend { user, time, n },
        });
        payload.extend_from_slice(&garbage);
        prop_assert!(matches!(
            decode_request(&payload),
            Err(tcss_serve::net::WireError::Trailing { kind: 1, .. })
        ));
    }

    /// A frame stream cut mid-frame is a typed truncation at EOF carrying
    /// the exact byte count, on the push path and through the blocking
    /// `read_frame`; cut on a boundary it finishes clean. Never a panic,
    /// never a silent drop.
    #[test]
    fn truncation_is_detected_at_eof(
        payload in proptest::collection::vec(0u8..=255, 0..32),
        cut in 0usize..=usize::MAX,
    ) {
        let wire = encode_frame(&payload);
        let keep = cut % (wire.len() + 1);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(&wire[..keep]);
        let decoded = dec.next_frame().expect("no error before EOF");
        let mut rd = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let read = read_frame::<Box<dyn std::error::Error>>(&mut &wire[..keep], &mut rd)
            .map_err(|e| *e.downcast_ref::<FrameError>().expect("a frame error"));
        if keep == wire.len() {
            prop_assert_eq!(decoded.as_ref(), Some(&payload));
            prop_assert!(dec.finish().is_ok());
            prop_assert_eq!(read, Ok(Some(payload)));
        } else if keep == 0 {
            prop_assert_eq!(decoded, None);
            prop_assert!(dec.finish().is_ok(), "nothing buffered is clean");
            prop_assert_eq!(read, Ok(None));
        } else {
            let want = FrameError::TruncatedEof { buffered: keep };
            prop_assert_eq!(decoded, None);
            prop_assert_eq!(dec.finish(), Err(want));
            prop_assert_eq!(read, Err(want));
        }
    }

    /// Any header whose declared length exceeds the serving cap errors
    /// before buffering a single payload byte, and the decoder stays
    /// poisoned through `next_frame` and `finish`.
    #[test]
    fn oversized_headers_error_eagerly(
        declared in DEFAULT_MAX_FRAME_LEN + 1..=u32::MAX,
        tail in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let want = FrameError::Oversized { declared, max: DEFAULT_MAX_FRAME_LEN };
        dec.push(&declared.to_le_bytes());
        prop_assert_eq!(dec.next_frame(), Err(want));
        dec.push(&tail);
        prop_assert_eq!(dec.next_frame(), Err(want), "poison sticks");
        prop_assert_eq!(dec.finish(), Err(want));
    }
}

// ---------------------------------------------------------------------------
// End-to-end robustness over a live loopback server.

fn live_server() -> (tcss_serve::net::ServerHandle, TcssModel) {
    live_server_on(ServerConfig::default())
}

fn live_server_on(cfg: ServerConfig) -> (tcss_serve::net::ServerHandle, TcssModel) {
    let (u1, u2, u3) = random_init((5, 37, 4), 3, 99);
    let model = TcssModel::new(u1, u2, u3);
    let engine = Arc::new(ServingEngine::new(model.clone()));
    let handle = NetServer::start(engine, cfg).expect("bind loopback");
    (handle, model)
}

fn client(handle: &tcss_serve::net::ServerHandle) -> NetClient {
    NetClient::connect_with_timeout(handle.addr(), Duration::from_secs(10)).expect("connect")
}

/// Wire answers are bitwise the in-process `recommend` at every server
/// worker count: a few `n` edge cases, then every `(user, time)` pair.
#[test]
fn wire_answers_match_in_process_recommend_bitwise() {
    for workers in [1, 2, 4] {
        let (handle, model) = live_server_on(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let mut c = client(&handle);
        let every_pair = (0..5u64).flat_map(|user| (0..4u64).map(move |time| (user, time, 10u32)));
        for (user, time, n) in [(0u64, 0u64, 5u32), (4, 3, 10), (2, 1, 1), (3, 2, 37)]
            .into_iter()
            .chain(every_pair)
        {
            let resp = c.recommend(user, time, n).expect("round trip");
            let want = model.recommend(user as usize, time as usize, n as usize);
            match resp.body {
                ResponseBody::Ranking { items, .. } => {
                    assert_eq!(items.len(), want.len(), "{workers} workers");
                    for ((gp, gs), (wp, ws)) in items.iter().zip(&want) {
                        assert_eq!(*gp, *wp as u64, "{workers} workers");
                        assert_eq!(
                            gs.to_bits(),
                            ws.to_bits(),
                            "wire score must be bitwise at {workers} workers"
                        );
                    }
                }
                other => panic!("expected ranking, got {other:?}"),
            }
        }
    }
}

#[test]
fn out_of_range_requests_get_typed_error_responses() {
    let (handle, _model) = live_server();
    let mut c = client(&handle);
    let resp = c.recommend(999, 0, 5).expect("server answers");
    assert!(matches!(
        resp.body,
        ResponseBody::Error {
            code: ErrorCode::UserOutOfRange,
            ..
        }
    ));
    let resp = c.recommend(0, 999, 5).expect("server answers");
    assert!(matches!(
        resp.body,
        ResponseBody::Error {
            code: ErrorCode::TimeOutOfRange,
            ..
        }
    ));
    // The connection survives request-level errors.
    c.ping().expect("connection still healthy");
}

#[test]
fn malformed_message_gets_typed_error_and_connection_survives() {
    let (handle, model) = live_server();
    let mut c = client(&handle);
    // Valid frame, garbage payload (unknown kind 0xEE + salvageable id).
    let mut payload = vec![0xEEu8];
    payload.extend_from_slice(&7u64.to_le_bytes());
    c.send_raw(&encode_frame(&payload)).expect("send");
    let resp = c.read_response().expect("typed error response");
    assert_eq!(resp.id, 7, "id salvaged from the mangled request");
    assert!(matches!(
        resp.body,
        ResponseBody::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));
    // Frame boundaries intact ⇒ the connection keeps serving.
    let resp = c.recommend(1, 1, 4).expect("post-error request");
    let want = model.recommend(1, 1, 4);
    match resp.body {
        ResponseBody::Ranking { items, .. } => assert_eq!(items.len(), want.len()),
        other => panic!("expected ranking, got {other:?}"),
    }
}

#[test]
fn oversized_frame_gets_typed_error_then_close() {
    let (handle, _model) = live_server();
    let mut c = client(&handle);
    // Header declaring 2 MiB (over the 1 MiB default cap); no payload needed.
    c.send_raw(&(2u32 << 20).to_le_bytes())
        .expect("send header");
    let resp = c.read_response().expect("typed error response");
    assert!(matches!(
        resp.body,
        ResponseBody::Error {
            code: ErrorCode::FrameTooLarge,
            ..
        }
    ));
    // Framing corruption is connection-fatal: the server closes after
    // the error (and never hangs the client).
    assert!(matches!(
        c.read_response(),
        Err(tcss_serve::net::ClientError::ServerClosed)
    ));
}

#[test]
fn half_closed_partial_frame_gets_truncation_error() {
    let (handle, _model) = live_server();
    let mut c = client(&handle);
    let full = encode_frame(&encode_request(&Request {
        id: 3,
        body: RequestBody::Ping,
    }));
    c.send_raw(&full[..full.len() - 2]).expect("partial frame");
    c.shutdown_write().expect("half-close");
    let resp = c.read_response().expect("typed truncation response");
    assert!(matches!(
        resp.body,
        ResponseBody::Error {
            code: ErrorCode::Truncated,
            ..
        }
    ));
    let m = {
        // Truncation is counted as a protocol error on the server.
        let mut tries = 0;
        loop {
            let m = handle.metrics();
            if m.protocol_errors >= 1 || tries > 100 {
                break m;
            }
            tries += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    assert!(m.protocol_errors >= 1);
}

#[test]
fn pipelined_requests_all_answered_in_order_ids() {
    let (handle, model) = live_server();
    let mut c = client(&handle);
    let ids: Vec<u64> = (0..32)
        .map(|i| c.send_recommend(i % 5, i % 4, 6).expect("pipelined send"))
        .collect();
    for (i, id) in ids.into_iter().enumerate() {
        let resp = c.read_response_for(id).expect("response for id");
        let want = model.recommend((i as u64 % 5) as usize, (i as u64 % 4) as usize, 6);
        match resp.body {
            ResponseBody::Ranking { items, .. } => {
                for ((gp, gs), (wp, ws)) in items.iter().zip(&want) {
                    assert_eq!(*gp, *wp as u64);
                    assert_eq!(gs.to_bits(), ws.to_bits());
                }
            }
            other => panic!("expected ranking, got {other:?}"),
        }
    }
}
