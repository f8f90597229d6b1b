//! Serving stage: compact snapshots behind the wire server, driven by a
//! single-threaded load generator.
//!
//! One thread both sends and receives over one nonblocking connection and
//! waits in `ppoll` for whichever comes first, a response or the next
//! due time. The open-loop phase sends at a constant rate and times each
//! request from the moment it was due, so a stall is charged to every
//! request it delays; the closed-loop phase keeps a fixed number of
//! requests outstanding and counts completions. Model swaps are keyed to
//! the request sequence, never to a timer, so every seed sees the same
//! number of swaps at the same points of its key stream.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcss_core::{top_n, TcssModel};
use tcss_serve::net::proto::{self, Request, RequestBody, ResponseBody};
use tcss_serve::net::{frame, FrameDecoder, NetServer, ServerConfig, ServerHandle};
use tcss_serve::snapshot::write_snapshot;
use tcss_serve::{HistogramSnapshot, QuantMode, ServingEngine, SnapshotModel};

use crate::stats::{Gated, GatedHist, Hist};
use crate::sys::{bind_thread, cpu_steal, ppoll_fds, steal_between, PollFd, POLLIN, POLLOUT};
use crate::trace::Tracer;
use crate::SplitMix;

/// The server's threads run on one vCPU and the generator, while it
/// drives, on the other, as a client on another core would. Unbound, the
/// scheduler sometimes ran both on one vCPU: over four seeds the
/// closed-loop rate then ranged 410k–553k req/s and the open-loop p50
/// 27–41 µs, against 422k–468k and 36–41 µs bound. Training runs unbound.
const GENERATOR_CPU: usize = 0;
const SERVER_CPU: usize = 1;

/// Offered load. The rate and window are constants, not calibrated per
/// run, so every run and every commit offers the same load.
const RATE: f64 = 20_000.0;
const WINDOW: u64 = 32;
/// Zipf exponent of the (user, time) key popularity. An assumption:
/// nothing in the repository measures request skew. README.md shows how
/// the serving figures move with it (`--zipf`).
pub const ZIPF_S: f64 = 1.0;
/// Longest host stall the open loop rides out without shedding: the
/// server's admission queue holds `RATE × MAX_STALL_S` requests, so a
/// stall shorter than this delays requests instead of shedding them.
const MAX_STALL_S: f64 = 0.5;
/// Items per answer.
const TOP_N: u32 = 10;
/// Every k-th answer is kept and checked bitwise after the run, up to
/// `KEEP_CAP` answers, so memory does not grow with throughput.
const CHECK_EVERY: u64 = 16;
const KEEP_CAP: usize = 8 * 1024;
/// Due times of in-flight requests live in a ring of this many slots; a
/// backlog larger than the ring is a stall, reported as a failure.
const RING: usize = 1 << 16;
/// The closed-loop rate is taken over blocks of this many completed
/// requests, or of `LoadSpec::swap_every` where the model is swapped, so
/// that every block holds exactly one swap and the misses after it.
const RATE_BLOCK: u64 = 20_000;
/// Open-loop latencies are gated by steal over windows of this length.
const LATENCY_WINDOW: Duration = Duration::from_millis(250);
/// Keys drawn per run; request `s` uses key `s % STREAM_LEN`.
const STREAM_LEN: usize = 1 << 17;
/// Unmeasured closed-loop requests before the first phase.
const WARMUP: u64 = 2000;
/// A phase with no progress for this long is abandoned as failed.
const STALL_LIMIT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    pub open_s: f64,
    pub closed_s: f64,
    /// Requests between model swaps (`None`: the model never changes).
    pub swap_every: Option<u64>,
    /// Zipf exponent of the key popularity.
    pub zipf_s: f64,
}

/// Published model versions, the engine serving them, and its server.
pub struct Fleet {
    pub paths: Vec<PathBuf>,
    pub engine: Arc<ServingEngine>,
    pub server: ServerHandle,
    pub write_ms: Vec<f64>,
}

/// Export every version as a compact f32 snapshot, open the first, and
/// start a one-worker server on it. The maintenance tick is off so cache
/// purges never land inside a timed phase.
pub fn start(models: &[TcssModel], tr: &Tracer) -> io::Result<Fleet> {
    let (paths, write_ms) = export(models, tr)?;
    let first = tr
        .span("snapshot.open", || SnapshotModel::open(&paths[0]))
        .map_err(io::Error::other)?;
    let engine = Arc::new(ServingEngine::new(first));
    bind_thread(Some(SERVER_CPU))?;
    let server = tr.span("net.start", || {
        NetServer::start(
            Arc::clone(&engine),
            ServerConfig {
                workers: 1,
                maintenance_interval: None,
                queue_depth: (RATE * MAX_STALL_S) as usize,
                ..ServerConfig::default()
            },
        )
    });
    bind_thread(None)?;
    let server = server?;
    Ok(Fleet {
        paths,
        engine,
        server,
        write_ms,
    })
}

impl Fleet {
    /// Re-export every version over the published files and swap the
    /// first into the running server. One server serves the whole run, so
    /// its threads, and the memory they hold, do not change from round
    /// to round.
    pub fn republish(&mut self, models: &[TcssModel], tr: &Tracer) -> io::Result<()> {
        let (paths, write_ms) = export(models, tr)?;
        let first = tr
            .span("snapshot.open", || SnapshotModel::open(&paths[0]))
            .map_err(io::Error::other)?;
        tr.span("engine.swap", || self.engine.swap_model(first));
        self.paths = paths;
        self.write_ms.extend(write_ms);
        Ok(())
    }

    pub fn shutdown(mut self) {
        if !self.server.drain(Duration::from_secs(5)) {
            eprintln!("server drain timed out");
        }
    }
}

fn export(models: &[TcssModel], tr: &Tracer) -> io::Result<(Vec<PathBuf>, Vec<f64>)> {
    let mut paths = Vec::new();
    let mut write_ms = Vec::new();
    for (v, m) in models.iter().enumerate() {
        let path = Path::new(crate::OUT_DIR).join(format!("published-v{v}.tcsssnap"));
        let t = Instant::now();
        tr.span("snapshot.write", || {
            write_snapshot(m, QuantMode::F32, &path)
        })
        .map_err(io::Error::other)?;
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        paths.push(path);
    }
    Ok((paths, write_ms))
}

/// What the serving slices of one run measured, summed over slices.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Open-loop latency from due time to response, ns, gated by the
    /// steal over each `LATENCY_WINDOW`.
    pub latency_ns: GatedHist,
    /// Open-loop send time minus due time, ns.
    pub late_ns: Hist,
    /// Closed-loop completions per second, one per block of requests (see
    /// `RATE_BLOCK`), gated by the block's steal.
    pub rates: Gated,
    pub attempted: u64,
    /// Failed requests, by cause: `Overloaded` answers (shed by the
    /// admission queue), typed error answers, answers whose id matches no
    /// request sent, and checked answers that differ from their
    /// version's scores.
    pub shed: u64,
    pub error_answers: u64,
    pub unmatched: u64,
    pub mismatches: u64,
    pub checked: u64,
    pub open_ms: Vec<f64>,
    pub swap_us: Vec<f64>,
    /// Server-side counters and histograms.
    pub requests: u64,
    pub wire_bytes: u64,
    pub overloaded: u64,
    pub errors: u64,
    pub request_ns: HistogramSnapshot,
    pub queue_wait_ns: HistogramSnapshot,
    /// Engine-side cache counters and scoring histogram.
    pub topn_hits: u64,
    pub topn_lookups: u64,
    pub weight_hits: u64,
    pub weight_lookups: u64,
    pub score_ns: HistogramSnapshot,
}

impl ServeOutcome {
    /// Requests that failed, whatever the cause.
    pub fn failed(&self) -> u64 {
        self.shed + self.error_answers + self.unmatched + self.mismatches
    }

    pub fn absorb(&mut self, o: &ServeOutcome) {
        self.latency_ns.extend(&o.latency_ns);
        self.late_ns.merge(&o.late_ns);
        self.rates.extend(&o.rates);
        self.open_ms.extend_from_slice(&o.open_ms);
        self.swap_us.extend_from_slice(&o.swap_us);
        self.attempted += o.attempted;
        self.shed += o.shed;
        self.error_answers += o.error_answers;
        self.unmatched += o.unmatched;
        self.mismatches += o.mismatches;
        self.checked += o.checked;
        self.requests += o.requests;
        self.wire_bytes += o.wire_bytes;
        self.overloaded += o.overloaded;
        self.errors += o.errors;
        self.request_ns.merge(&o.request_ns);
        self.queue_wait_ns.merge(&o.queue_wait_ns);
        self.topn_hits += o.topn_hits;
        self.topn_lookups += o.topn_lookups;
        self.weight_hits += o.weight_hits;
        self.weight_lookups += o.weight_lookups;
        self.score_ns.merge(&o.score_ns);
    }
}

/// A kept answer awaiting its bitwise check.
struct Kept {
    user: usize,
    time: usize,
    version: u64,
    items: Vec<(u64, f64)>,
}

/// (user, time) keys, Zipf-popular in a seed-chosen order.
fn key_stream(n_users: usize, n_times: usize, zipf_s: f64, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SplitMix(seed);
    let mut keys: Vec<(u32, u32)> = (0..n_users as u32)
        .flat_map(|u| (0..n_times as u32).map(move |t| (u, t)))
        .collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut cdf = Vec::with_capacity(keys.len());
    let mut acc = 0.0;
    for r in 0..keys.len() {
        acc += 1.0 / ((r + 1) as f64).powf(zipf_s);
        cdf.push(acc);
    }
    (0..STREAM_LEN)
        .map(|_| {
            let x = rng.unit() * acc;
            keys[cdf.partition_point(|&c| c < x).min(keys.len() - 1)]
        })
        .collect()
}

struct Generator<'a> {
    stream: TcpStream,
    dec: FrameDecoder,
    out: Vec<u8>,
    keys: Vec<(u32, u32)>,
    fleet: &'a Fleet,
    tr: &'a Tracer,
    spec: LoadSpec,
    /// Next request sequence number (its wire id is `seq + 1`).
    seq: u64,
    /// Due time of request `s` at slot `s % RING`.
    due: Vec<Instant>,
    outstanding: u64,
    /// Engine version → index of the snapshot file it serves.
    versions: HashMap<u64, usize>,
    current_file: usize,
    kept: Vec<Kept>,
    /// Latencies of the current `LATENCY_WINDOW`.
    window: Hist,
    o: ServeOutcome,
}

impl Generator<'_> {
    fn send(&mut self, due: Instant) -> io::Result<()> {
        if let Some(every) = self.spec.swap_every {
            if self.seq > 0 && self.seq.is_multiple_of(every) {
                self.swap()?;
            }
        }
        let (user, time) = self.keys[self.seq as usize % self.keys.len()];
        let payload = proto::encode_request(&Request {
            id: self.seq + 1,
            body: RequestBody::Recommend {
                user: u64::from(user),
                time: u64::from(time),
                n: TOP_N,
            },
        });
        if self.outstanding >= RING as u64 {
            return Err(io::Error::other("backlog exceeds the due-time ring"));
        }
        frame::write_frame(&mut self.out, &payload);
        self.due[self.seq as usize % RING] = due;
        self.seq += 1;
        self.outstanding += 1;
        self.o.attempted += 1;
        Ok(())
    }

    /// Re-open the next published snapshot and swap it in.
    fn swap(&mut self) -> io::Result<()> {
        let next = (self.current_file + 1) % self.fleet.paths.len();
        let t0 = Instant::now();
        let model = self
            .tr
            .span("snapshot.open", || {
                SnapshotModel::open(&self.fleet.paths[next])
            })
            .map_err(io::Error::other)?;
        let t1 = Instant::now();
        let version = self
            .tr
            .span("engine.swap", || self.fleet.engine.swap_model(model));
        self.o.open_ms.push((t1 - t0).as_secs_f64() * 1e3);
        self.o.swap_us.push(t1.elapsed().as_secs_f64() * 1e6);
        self.versions.insert(version, next);
        self.current_file = next;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read everything available; returns the number of responses.
    fn receive(&mut self, record: bool) -> io::Result<u64> {
        let mut buf = [0u8; 64 * 1024];
        let mut got = 0;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = Instant::now();
        while let Some(payload) = self.dec.next_frame().map_err(io::Error::other)? {
            let resp = proto::decode_response(&payload).map_err(io::Error::other)?;
            got += 1;
            self.outstanding = self.outstanding.saturating_sub(1);
            let Some(seq) = resp.id.checked_sub(1).filter(|&s| s < self.seq) else {
                self.o.unmatched += 1;
                continue;
            };
            let due = self.due[seq as usize % RING];
            if record {
                self.window
                    .record(now.duration_since(due).as_nanos() as u64);
                self.tr.record("serve.request", due, now);
            }
            match resp.body {
                ResponseBody::Ranking { version, items } => {
                    if seq.is_multiple_of(CHECK_EVERY) && self.kept.len() < KEEP_CAP {
                        let (user, time) = self.keys[seq as usize % self.keys.len()];
                        self.kept.push(Kept {
                            user: user as usize,
                            time: time as usize,
                            version,
                            items,
                        });
                    }
                }
                ResponseBody::Overloaded { .. } => self.o.shed += 1,
                _ => self.o.error_answers += 1,
            }
        }
        Ok(got)
    }

    fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let events = if self.out.is_empty() {
            POLLIN
        } else {
            POLLIN | POLLOUT
        };
        let mut fds = [PollFd {
            fd: self.stream.as_raw_fd(),
            events,
            revents: 0,
        }];
        ppoll_fds(&mut fds, timeout).map(|_| ())
    }

    /// Constant-rate phase: request `s` is due at `start + s / rate`.
    fn open_loop(&mut self, secs: f64) -> io::Result<()> {
        let total = (RATE * secs).round() as u64;
        let gap = Duration::from_secs_f64(1.0 / RATE);
        let first = self.seq;
        let start = Instant::now() + Duration::from_millis(1);
        let due_of = |i: u64| start + gap.mul_f64(i as f64);
        let mut sent = 0u64;
        let mut last_progress = Instant::now();
        let mut window_start = Instant::now();
        let mut window_steal = cpu_steal();
        while sent < total || self.outstanding > 0 {
            let now = Instant::now();
            if now - window_start >= LATENCY_WINDOW {
                self.close_window(&mut window_steal);
                window_start = now;
            }
            while sent < total && due_of(sent) <= now {
                let due = due_of(sent);
                self.send(due)?;
                self.o
                    .late_ns
                    .record(Instant::now().duration_since(due).as_nanos() as u64);
                sent += 1;
            }
            self.flush()?;
            if self.receive(true)? > 0 {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > STALL_LIMIT {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let timeout = if sent < total {
                due_of(sent).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(100)
            };
            if !timeout.is_zero() {
                self.wait(timeout)?;
            }
        }
        self.close_window(&mut window_steal);
        debug_assert_eq!(self.seq - first, total);
        Ok(())
    }

    /// File the current latency window under the steal since `since`.
    fn close_window(&mut self, since: &mut (u64, u64)) {
        let now = cpu_steal();
        self.o
            .latency_ns
            .push(&self.window, steal_between(*since, now));
        self.window.clear();
        *since = now;
    }

    /// Fixed-window phase: records completed requests per second over
    /// each block of requests.
    fn closed_loop(&mut self, secs: f64) -> io::Result<()> {
        let block = self.spec.swap_every.unwrap_or(RATE_BLOCK);
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(secs);
        let mut block_start = start;
        let mut block_steal = cpu_steal();
        let mut block_done = 0u64;
        let mut last_progress = start;
        loop {
            let now = Instant::now();
            if now < stop {
                while self.outstanding < WINDOW {
                    self.send(Instant::now())?;
                }
            } else if self.outstanding == 0 {
                break;
            }
            self.flush()?;
            let got = self.receive(false)?;
            let now = Instant::now();
            if now < stop {
                block_done += got;
                if block_done >= block {
                    let rate = block_done as f64 / (now - block_start).as_secs_f64();
                    let steal = cpu_steal();
                    self.o.rates.push(rate, steal_between(block_steal, steal));
                    block_steal = steal;
                    block_start = now;
                    block_done = 0;
                }
            }
            if got > 0 {
                last_progress = now;
            } else {
                if last_progress.elapsed() > STALL_LIMIT {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                self.wait(Duration::from_millis(100))?;
            }
        }
        Ok(())
    }
}

/// Drive `fleet` with `spec`, then check the kept answers.
pub fn drive(fleet: &Fleet, spec: LoadSpec, seed: u64, tr: &Tracer) -> io::Result<ServeOutcome> {
    let snap = fleet.engine.snapshot();
    let (n_users, _, n_times) = snap.model.dims();
    let keys = key_stream(n_users, n_times, spec.zipf_s, seed);
    let stream = TcpStream::connect(fleet.server.addr())?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut g = Generator {
        stream,
        dec: FrameDecoder::new(tcss_serve::net::DEFAULT_MAX_FRAME_LEN),
        out: Vec::with_capacity(64 * 1024),
        keys,
        fleet,
        tr,
        spec,
        seq: 0,
        due: vec![Instant::now(); RING],
        outstanding: 0,
        versions: HashMap::from([(snap.version, 0)]),
        current_file: 0,
        kept: Vec::with_capacity(KEEP_CAP),
        window: Hist::default(),
        o: ServeOutcome::default(),
    };
    drop(snap);

    bind_thread(Some(GENERATOR_CPU))?;
    let phases = g.phases();
    bind_thread(None)?;
    phases?;
    let mut o = std::mem::take(&mut g.o);
    let mut models: HashMap<usize, SnapshotModel> = HashMap::new();
    for k in &g.kept {
        let file = g.versions[&k.version];
        if let std::collections::hash_map::Entry::Vacant(e) = models.entry(file) {
            e.insert(SnapshotModel::open(&fleet.paths[file]).map_err(io::Error::other)?);
        }
        let expected = top_n(&models[&file].scores_for(k.user, k.time), TOP_N as usize);
        let same = expected.len() == k.items.len()
            && expected
                .iter()
                .zip(&k.items)
                .all(|(&(p, s), &(wp, ws))| p as u64 == wp && s.to_bits() == ws.to_bits());
        o.checked += 1;
        if !same {
            o.mismatches += 1;
        }
    }
    Ok(o)
}

impl Generator<'_> {
    /// The measured phases: warm-up, open loop, closed loop, then the
    /// server's and engine's own instruments.
    fn phases(&mut self) -> io::Result<()> {
        let (fleet, tr) = (self.fleet, self.tr);
        self.closed_loop_warmup()?;
        let base = fleet.server.metrics();
        let _ = fleet.engine.take_metrics();
        let span = tr.begin("serve.open_loop");
        self.open_loop(self.spec.open_s)?;
        tr.end(span);
        let span = tr.begin("serve.closed_loop");
        self.closed_loop(self.spec.closed_s)?;
        tr.end(span);
        let net = fleet.server.metrics();
        let (engine, stages) = fleet.engine.take_metrics();
        self.o.requests = net.requests - base.requests;
        self.o.wire_bytes = net.bytes_in + net.bytes_out - base.bytes_in - base.bytes_out;
        self.o.overloaded = net.overloaded - base.overloaded;
        self.o.errors = net.errors - base.errors;
        self.o.request_ns = net.request_ns;
        self.o.queue_wait_ns = net.queue_wait_ns;
        self.o.topn_hits = engine.topn_hits;
        self.o.topn_lookups = engine.topn_hits + engine.topn_misses;
        self.o.weight_hits = engine.weight_hits;
        self.o.weight_lookups = engine.weight_hits + engine.weight_misses;
        self.o.score_ns = stages.score_matmul;
        Ok(())
    }

    /// Unmeasured closed-loop requests that warm the connection and the
    /// caches; their answers are still checked and counted.
    fn closed_loop_warmup(&mut self) -> io::Result<()> {
        let target = self.seq + WARMUP;
        while self.seq < target || self.outstanding > 0 {
            while self.seq < target && self.outstanding < WINDOW {
                self.send(Instant::now())?;
            }
            self.flush()?;
            if self.receive(false)? == 0 {
                self.wait(Duration::from_millis(100))?;
            }
        }
        Ok(())
    }
}

/// Closed-loop capacity: the median of the block rates the host left
/// alone. Generator and server hand batches back and forth, so a few ms
/// of hypervisor steal on either vCPU stops both (the rate fell from
/// ~400k to ~190k req/s in a run at 14% steal); the steal gate drops
/// such blocks and the median ignores the few slow or fast ones it
/// misses. The mean of 100-ms windows used before spread up to 29% over
/// ten seeds on `serve_mixed`, where a window held zero, one or two
/// swaps.
pub fn capacity_rps(o: &ServeOutcome) -> f64 {
    crate::stats::median(&o.rates.timed())
}

/// Latency summary in µs over the windows the host left alone:
/// (p50, p99, p999).
pub fn latency_us(o: &ServeOutcome) -> (f64, f64, f64) {
    let h = o.latency_ns.timed();
    (
        h.quantile(0.5) / 1e3,
        h.quantile(0.99) / 1e3,
        h.quantile(0.999) / 1e3,
    )
}
