//! Chaos/soak suite: sustained loopback load across concurrent model
//! swaps.
//!
//! The `ModelHandle` pin contract says a swap never tears a batch: every
//! response is produced entirely on the snapshot it pinned and stamped
//! with that snapshot's version. This suite drives continuous wire
//! traffic from several client threads while the main thread publishes
//! several new models, and asserts:
//!
//! 1. **No torn responses.** Every `Ranking` received matches, item for
//!    item and bit for bit, the recommendation list precomputed from the
//!    model published under the version the response claims. A response
//!    mixing two models' factors cannot pass, because it would match
//!    neither version's expected list exactly.
//! 2. **No stale cache service after a swap.** Once the final swap is
//!    known to have been observed, re-querying every key the load used
//!    (now cache-resident from older versions) must yield the final
//!    version's answers exactly — the version-keyed cache cannot serve a
//!    superseded entry.
//! 3. **The soak is lossless.** Every request gets exactly one response
//!    (no drops, no duplicates, no `Overloaded` with the deep queue used
//!    here) within the client read timeout — a hung server fails fast.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use tcss_core::{random_init, TcssModel};
use tcss_serve::net::{NetClient, NetServer, ResponseBody, ServerConfig};
use tcss_serve::ServingEngine;

const DIMS: (usize, usize, usize) = (6, 41, 4);
const RANK: usize = 3;
const TOP_N: u32 = 7;
const SWAPS: usize = 4;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 240;

fn model_for_version(version: u64) -> TcssModel {
    // Distinct seed per version ⇒ distinct factors ⇒ distinct rankings;
    // a torn mix of two versions cannot equal either's expected list.
    let (u1, u2, u3) = random_init(DIMS, RANK, 1000 + version);
    TcssModel::new(u1, u2, u3)
}

type Expected = HashMap<(u64, usize, usize), Vec<(u64, u64)>>;

/// `(version, user, time)` → expected `(poi, score_bits)` list.
fn expected_tables(versions: u64) -> Expected {
    let mut out = HashMap::new();
    for v in 1..=versions {
        let model = model_for_version(v);
        for user in 0..DIMS.0 {
            for time in 0..DIMS.2 {
                let want: Vec<(u64, u64)> = model
                    .recommend(user, time, TOP_N as usize)
                    .into_iter()
                    .map(|(poi, score)| (poi as u64, score.to_bits()))
                    .collect();
                out.insert((v, user, time), want);
            }
        }
    }
    out
}

fn check_ranking(expected: &Expected, resp: &tcss_serve::net::Response, user: usize, time: usize) {
    match &resp.body {
        ResponseBody::Ranking { version, items } => {
            let want = expected
                .get(&(*version, user, time))
                .unwrap_or_else(|| panic!("response claims unpublished version {version}"));
            assert_eq!(
                items.len(),
                want.len(),
                "v{version} ({user},{time}): length mismatch"
            );
            for (i, ((gp, gs), (wp, ws))) in items.iter().zip(want).enumerate() {
                assert_eq!(gp, wp, "v{version} ({user},{time}) rank {i}: poi");
                assert_eq!(
                    gs.to_bits(),
                    *ws,
                    "v{version} ({user},{time}) rank {i}: torn or stale score"
                );
            }
        }
        other => panic!("expected ranking for ({user},{time}), got {other:?}"),
    }
}

#[test]
fn soak_under_concurrent_swaps_is_torn_free_and_stale_free() {
    let final_version = 1 + SWAPS as u64;
    let expected = Arc::new(expected_tables(final_version));

    let engine = Arc::new(ServingEngine::new(model_for_version(1)));
    let handle = NetServer::start(
        engine,
        ServerConfig {
            workers: 2,
            queue_depth: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let clients: Vec<std::thread::JoinHandle<(u64, u64)>> = (0..CLIENTS)
        .map(|c| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = NetClient::connect_with_timeout(addr, Duration::from_secs(20))
                    .expect("connect");
                let mut versions_seen = (u64::MAX, 0u64); // (min, max)
                for r in 0..REQUESTS_PER_CLIENT {
                    let user = (c + 3 * r) % DIMS.0;
                    let time = (c + r) % DIMS.2;
                    let resp = client
                        .recommend(user as u64, time as u64, TOP_N)
                        .expect("every request answered within the timeout");
                    check_ranking(&expected, &resp, user, time);
                    if let ResponseBody::Ranking { version, .. } = resp.body {
                        versions_seen.0 = versions_seen.0.min(version);
                        versions_seen.1 = versions_seen.1.max(version);
                    }
                }
                versions_seen
            })
        })
        .collect();

    // Publish SWAPS new models while the soak runs.
    for v in 2..=final_version {
        std::thread::sleep(Duration::from_millis(40));
        let published = handle.engine().swap_model(model_for_version(v));
        assert_eq!(published, v, "swap publishes monotone versions");
    }

    let mut min_seen = u64::MAX;
    let mut max_seen = 0;
    for client in clients {
        let (lo, hi) = client.join().expect("client thread");
        min_seen = min_seen.min(lo);
        max_seen = max_seen.max(hi);
    }
    assert!(
        min_seen >= 1 && max_seen <= final_version,
        "versions outside the published range: [{min_seen}, {max_seen}]"
    );

    // --- stale-cache assertion -------------------------------------------
    // Every (user, time) key the soak used is now cache-resident under
    // some mix of versions. After the final swap, every answer must be
    // the final version's — exactly.
    let mut client =
        NetClient::connect_with_timeout(addr, Duration::from_secs(20)).expect("connect");
    for user in 0..DIMS.0 {
        for time in 0..DIMS.2 {
            let resp = client
                .recommend(user as u64, time as u64, TOP_N)
                .expect("post-swap request");
            match &resp.body {
                ResponseBody::Ranking { version, .. } => assert_eq!(
                    *version, final_version,
                    "post-swap response served from a stale snapshot"
                ),
                other => panic!("expected ranking, got {other:?}"),
            }
            check_ranking(&expected, &resp, user, time);
        }
    }

    // The soak was lossless: every request produced exactly one OK.
    let m = handle.metrics();
    let total = (CLIENTS * REQUESTS_PER_CLIENT + DIMS.0 * DIMS.2) as u64;
    assert_eq!(m.requests, total, "request count");
    assert_eq!(m.ok, total, "every request answered with a ranking");
    assert_eq!(m.overloaded, 0, "deep queue never sheds in this soak");
    assert_eq!(m.errors, 0);
    assert_eq!(m.protocol_errors, 0);

    // Engine-level cross-check: after a purge, no stale entries remain.
    let engine = handle.engine();
    engine.purge_stale();
    assert_eq!(engine.cache_stats().topn_stale, 0);
}
