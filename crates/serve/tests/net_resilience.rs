//! Resilience suite for the wire front end: deadlines, the idle reaper,
//! panic isolation, graceful drain and the client retry loop.
//!
//! Every scenario pins the same contract the protocol suite does — a
//! request resolves to a **typed** error or a response **bitwise**
//! identical to in-process `recommend` on the same snapshot — and adds
//! the failure-model guarantees of DESIGN.md §5g:
//!
//! * a request that waits past the configured deadline is answered
//!   `DeadlineExceeded` and never scored;
//! * a peer stalled mid-frame is reaped by the idle timeout, and the
//!   server keeps serving everyone else;
//! * a panic injected mid-batch answers typed `Internal` errors and the
//!   same connection keeps working;
//! * drain under active load flushes every built response — clients see
//!   bitwise-correct answers or a clean EOF, never a torn frame;
//! * an implicit `Drop` of the handle gives the same flush guarantee;
//! * the client retry loop survives `Overloaded` storms, reaped
//!   connections and requests corrupted in transit with deterministic
//!   capped backoff, and its per-call deadline expires typed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcss_core::{random_init, TcssModel};
use tcss_serve::net::{
    ClientConfig, ClientError, ErrorCode, NetClient, NetServer, ResponseBody, ServerConfig,
};
use tcss_serve::ServingEngine;

const DIMS: (usize, usize, usize) = (6, 41, 4);
const RANK: usize = 3;
const TOP_N: u32 = 7;

fn model() -> TcssModel {
    let (u1, u2, u3) = random_init(DIMS, RANK, 4242);
    TcssModel::new(u1, u2, u3)
}

/// Expected `(poi, score_bits)` list for `(user, time)` on the fixture
/// model (version 1 — these suites never swap).
fn expected(model: &TcssModel, user: usize, time: usize) -> Vec<(u64, u64)> {
    model
        .recommend(user, time, TOP_N as usize)
        .into_iter()
        .map(|(poi, score)| (poi as u64, score.to_bits()))
        .collect()
}

fn assert_bitwise(resp: &tcss_serve::net::Response, model: &TcssModel, user: usize, time: usize) {
    match &resp.body {
        ResponseBody::Ranking { items, .. } => {
            let want = expected(model, user, time);
            assert_eq!(items.len(), want.len(), "({user},{time}): length");
            for (i, ((gp, gs), (wp, ws))) in items.iter().zip(&want).enumerate() {
                assert_eq!(gp, wp, "({user},{time}) rank {i}: poi");
                assert_eq!(gs.to_bits(), *ws, "({user},{time}) rank {i}: score bits");
            }
        }
        other => panic!("expected ranking for ({user},{time}), got {other:?}"),
    }
}

/// Poll `cond` against the live metrics until it holds or ~5 s pass.
fn wait_for(
    handle: &tcss_serve::net::ServerHandle,
    cond: impl Fn(&tcss_serve::net::NetMetrics) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if cond(&handle.metrics()) {
            return;
        }
        assert!(Instant::now() < deadline, "condition not reached in 5 s");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn zero_deadline_answers_typed_deadline_exceeded_and_never_scores() {
    let engine = Arc::new(ServingEngine::new(model()));
    let handle = NetServer::start(
        Arc::clone(&engine),
        ServerConfig {
            // Zero deadline: every request has waited "too long" by the
            // time it reaches batch entry — deterministic full miss.
            request_deadline: Some(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    let mut client = NetClient::connect(handle.addr()).expect("connect");
    for r in 0..3u64 {
        let resp = client.recommend(r % 6, r % 4, TOP_N).expect("answered");
        match &resp.body {
            ResponseBody::Error { code, .. } => {
                assert_eq!(*code, ErrorCode::DeadlineExceeded, "request {r}")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    let m = handle.metrics();
    assert_eq!(m.requests, 3);
    assert_eq!(m.deadline_exceeded, 3, "every request expired");
    assert_eq!(m.errors, 3, "deadline misses are typed error responses");
    assert_eq!(m.ok, 0, "an expired request is never scored");
    assert_eq!(m.queue_wait_ns.count, 3, "queue wait recorded per request");
    assert_eq!(
        engine.requests_entered(),
        0,
        "expired requests never reach the engine"
    );
}

#[test]
fn idle_reaper_closes_a_client_stalled_mid_frame() {
    let m = model();
    let handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(80)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    // The stalled peer: half a frame header + body prefix, then silence.
    let mut stalled = NetClient::connect(handle.addr()).expect("connect");
    stalled
        .send_raw(&[0x10, 0x00, 0x00, 0x00, 0x01, 0x02])
        .expect("half frame");
    wait_for(&handle, |m| m.reaped_idle >= 1);

    // The reaped socket is closed server-side without an answer (there
    // was no complete request to answer): the stalled client observes a
    // connection close, not a hang and not a torn frame.
    match stalled.read_response() {
        Err(ClientError::ServerClosed | ClientError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }

    // The server keeps serving fresh connections correctly.
    let mut fresh = NetClient::connect(handle.addr()).expect("connect");
    let resp = fresh.recommend(2, 1, TOP_N).expect("served after reap");
    assert_bitwise(&resp, &m, 2, 1);

    let metrics = handle.metrics();
    assert_eq!(metrics.reaped_idle, 1);
    assert_eq!(metrics.protocol_errors, 0, "a reap is not a protocol error");
}

#[test]
fn injected_panic_mid_batch_is_isolated_and_the_connection_survives() {
    let m = model();
    let engine = Arc::new(ServingEngine::new(model()));
    let handle = NetServer::start(Arc::clone(&engine), ServerConfig::default()).expect("bind");

    let mut client = NetClient::connect(handle.addr()).expect("connect");

    // Warm-up traffic, verified bitwise.
    for (user, time) in [(0usize, 0usize), (3, 2)] {
        let resp = client
            .recommend(user as u64, time as u64, TOP_N)
            .expect("warmup");
        assert_bitwise(&resp, &m, user, time);
    }

    // Arm: the batch containing the next request entered panics once.
    engine.inject_panic_at_request(engine.requests_entered());
    let id_panicked = {
        let resp = client
            .recommend(1, 1, TOP_N)
            .expect("typed answer, not a hang");
        match &resp.body {
            ResponseBody::Error { code, .. } => assert_eq!(*code, ErrorCode::Internal),
            other => panic!("expected Internal error, got {other:?}"),
        }
        resp.id
    };
    assert!(id_panicked > 0);

    // Same connection, same request: the trigger was consumed, the
    // worker survived, the answer is bitwise-correct.
    let resp = client.recommend(1, 1, TOP_N).expect("post-panic request");
    assert_bitwise(&resp, &m, 1, 1);

    let metrics = handle.metrics();
    assert_eq!(metrics.panics, 1, "exactly one batch panicked");
    assert_eq!(
        metrics.worker_restarts, 0,
        "batch panics are caught without restarting the worker"
    );
    assert_eq!(metrics.errors, 1, "the panicked request answered typed");
    assert_eq!(metrics.ok, 3, "all other requests scored normally");
}

#[test]
fn drain_under_load_answers_or_closes_cleanly_never_torn() {
    let m = Arc::new(model());
    let mut handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig {
            workers: 2,
            queue_depth: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let clients: Vec<std::thread::JoinHandle<u64>> = (0..3)
        .map(|c: usize| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut client = NetClient::connect_with_timeout(addr, Duration::from_secs(10))
                    .expect("connect");
                let mut answered = 0u64;
                loop {
                    let user = (c + answered as usize) % DIMS.0;
                    let time = answered as usize % DIMS.2;
                    match client.recommend(user as u64, time as u64, TOP_N) {
                        Ok(resp) => {
                            assert_bitwise(&resp, &m, user, time);
                            answered += 1;
                        }
                        // The drain contract: after the flushed FIN the
                        // client sees a clean EOF at a frame boundary —
                        // a Frame(TruncatedEof) here would be a torn
                        // response and fails the test.
                        Err(ClientError::ServerClosed) => return answered,
                        Err(e) => panic!("client {c}: unexpected failure {e}"),
                    }
                }
            })
        })
        .collect();

    // Let the load run, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(60));
    let t0 = Instant::now();
    let clean = handle.drain(Duration::from_secs(5));
    let drain_elapsed = t0.elapsed();
    assert!(clean, "drain completed without force-closing");
    assert!(
        drain_elapsed < Duration::from_secs(5),
        "drain exited within its timeout"
    );

    let answered: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .sum();
    assert!(answered > 0, "load actually overlapped the drain");

    let metrics = handle.metrics();
    assert_eq!(
        metrics.ok, metrics.requests,
        "every accepted in-flight request was answered before close"
    );
    assert_eq!(metrics.overloaded, 0);
    assert_eq!(metrics.errors, 0);
    assert_eq!(metrics.accepted, metrics.closed, "no leaked connections");
}

#[test]
fn implicit_drop_flushes_every_queued_response() {
    const PIPELINED: usize = 64;
    let m = model();
    let handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig::default(),
    )
    .expect("bind loopback");

    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let mut sent: Vec<(u64, usize, usize)> = Vec::new();
    for r in 0..PIPELINED {
        let (user, time) = (r % DIMS.0, r % DIMS.2);
        let id = client
            .send_recommend(user as u64, time as u64, TOP_N)
            .expect("pipelined send");
        sent.push((id, user, time));
    }
    // Wait until the server has built all the responses, then drop the
    // handle without reading any of them — the satellite-1 scenario.
    wait_for(&handle, |metrics| metrics.ok >= PIPELINED as u64);
    drop(handle);

    // Every queued response must arrive complete and bitwise-correct,
    // followed by a clean EOF.
    for &(id, user, time) in &sent {
        let resp = client.read_response_for(id).expect("flushed before close");
        assert_bitwise(&resp, &m, user, time);
    }
    match client.read_response() {
        Err(ClientError::ServerClosed) => {}
        other => panic!("expected clean EOF after the flush, got {other:?}"),
    }
}

#[test]
fn client_backoff_retries_overload_until_capacity_frees() {
    let m = model();
    let handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    // Occupy the whole admission queue so every request sheds.
    let gate = handle.admission();
    let blocker = gate.try_acquire().expect("queue empty at start");

    let addr = handle.addr();
    let worker = std::thread::spawn(move || {
        let mut client = NetClient::connect_with_config(
            addr,
            ClientConfig {
                retries: 20,
                backoff_base: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(40),
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let resp = client
            .recommend_with_retry(4, 3, TOP_N)
            .expect("succeeds once capacity frees");
        (resp, client.stats())
    });

    // Hold the permit long enough to force at least one shed, then free.
    std::thread::sleep(Duration::from_millis(120));
    drop(blocker);

    let (resp, stats) = worker.join().expect("client thread");
    assert_bitwise(&resp, &m, 4, 3);
    assert!(stats.retries >= 1, "the overload actually forced retries");
    assert_eq!(stats.reconnects, 0, "overload retries reuse the connection");
    assert!(handle.metrics().overloaded >= 1);
}

#[test]
fn client_call_deadline_expires_typed_under_persistent_overload() {
    let handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let gate = handle.admission();
    let _blocker = gate.try_acquire().expect("queue empty at start");

    let mut client = NetClient::connect_with_config(
        handle.addr(),
        ClientConfig {
            retries: 1000,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            call_deadline: Some(Duration::from_millis(250)),
            ..ClientConfig::default()
        },
    )
    .expect("connect");

    let t0 = Instant::now();
    match client.recommend_with_retry(0, 0, TOP_N) {
        Err(ClientError::DeadlineExceeded { .. }) => {}
        other => panic!("expected typed call-deadline expiry, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "the deadline bounded the retry loop"
    );
}

#[test]
fn client_reconnects_after_its_connection_is_reaped() {
    let m = model();
    let handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(60)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    let mut client = NetClient::connect_with_config(
        handle.addr(),
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    client.ping().expect("connection established");

    // Go idle past the server's timeout; the server reaps us.
    wait_for(&handle, |metrics| metrics.reaped_idle >= 1);

    // The retry loop notices the dead transport, reconnects, succeeds.
    let resp = client
        .recommend_with_retry(5, 2, TOP_N)
        .expect("served after reconnect");
    assert_bitwise(&resp, &m, 5, 2);
    assert_eq!(client.stats().reconnects, 1, "exactly one reconnect");
}

/// A loopback proxy to `server` that flips one payload byte of the first
/// connection's first request and relays everything else untouched.
fn corrupting_proxy(server: std::net::SocketAddr) -> std::net::SocketAddr {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    fn pump(mut from: TcpStream, mut to: TcpStream, mut corrupt_at: Option<usize>) {
        let mut buf = [0u8; 4096];
        let mut seen = 0;
        while let Ok(n @ 1..) = from.read(&mut buf) {
            if let Some(at) = corrupt_at.filter(|&at| at < seen + n) {
                buf[at - seen] ^= 0x40;
                corrupt_at = None;
            }
            seen += n;
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        for (n, client) in listener.incoming().enumerate() {
            let Ok(client) = client else { return };
            let upstream = TcpStream::connect(server).expect("proxy connects upstream");
            let (c2, u2) = (client.try_clone().unwrap(), upstream.try_clone().unwrap());
            // Byte 6 is inside the payload (after the 4-byte length).
            let corrupt_at = (n == 0).then_some(6);
            std::thread::spawn(move || pump(client, upstream, corrupt_at));
            std::thread::spawn(move || pump(u2, c2, None));
        }
    });
    addr
}

#[test]
fn client_reconnects_after_its_request_arrives_corrupted() {
    let m = model();
    let handle = NetServer::start(
        Arc::new(ServingEngine::new(model())),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = NetClient::connect_with_config(
        corrupting_proxy(handle.addr()),
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    )
    .expect("connect");

    // The first attempt's frame fails the server's checksum: a typed
    // connection-level `ChecksumMismatch` and a close. The retry loop
    // reconnects (through a clean proxied connection) and succeeds.
    let resp = client
        .recommend_with_retry(5, 2, TOP_N)
        .expect("served after reconnect");
    assert_bitwise(&resp, &m, 5, 2);
    assert_eq!(client.stats().reconnects, 1, "exactly one reconnect");
    wait_for(&handle, |metrics| metrics.protocol_errors >= 1);
}

#[test]
fn maintenance_tick_reaps_stale_cache_entries_after_a_swap() {
    let m = model();
    let engine = Arc::new(ServingEngine::new(m.clone()));
    let mut handle = NetServer::start(
        Arc::clone(&engine),
        ServerConfig {
            // Tight tick so the test observes a reap without waiting out
            // the production default.
            maintenance_interval: Some(Duration::from_millis(20)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    // Populate the cache, then swap: the old-version entries become
    // unreachable and wait for the maintenance tick to reclaim them.
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    for r in 0..4u64 {
        let resp = client.recommend(r % 6, r % 4, TOP_N).expect("served");
        assert_bitwise(&resp, &m, (r % 6) as usize, (r % 4) as usize);
    }
    engine.swap_model(model());

    // The tick runs on its own thread — no request traffic after the
    // swap, so any reap observed here came from the maintenance loop.
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.metrics().reaped_stale == 0 {
        assert!(
            Instant::now() < deadline,
            "maintenance tick never reaped the stale entries"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.topn_stale, 0, "stale top-n entries remain");

    drop(client);
    assert!(handle.drain(Duration::from_secs(1)), "drain timed out");
}
