//! End-to-end benchmark of the TCSS trainer and server.
//!
//! ```text
//! tcss-bench-e2e --workload <train_full|train_dist|serve_mixed>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process and prints, as
//! the last line of stdout, one JSON record: `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics;
//! traced runs (`--trace 1`) report the per-layer metrics, measured from
//! outside by timing calls into each layer's public functions, and write
//! every span to `.bench_out/trace-<workload>-<seed>.jsonl`. README.md in
//! this directory records why each workload and metric was chosen and
//! the spread behind each bound.
//!
//! The binary is also its own distributed-training worker: the
//! coordinator re-invokes it as `dist-worker --socket <path> --worker <id>`.

mod serve;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tcss_core::{TcssConfig, TcssModel};
use tcss_serve::SnapshotModel;

use serve::{Fleet, LoadSpec, ServeOutcome};
use stats::{median, Gated};
use trace::Tracer;
use train::{Fixture, Prepared, Session, TrainSpec};

/// Scratch directory, relative to the checkout root the benchmark runs
/// from: snapshots, the coordinator socket and trace files.
pub const OUT_DIR: &str = ".bench_out";

/// Model versions published for `serve_mixed`, each fine-tuned from the
/// last for one head cycle.
const VERSIONS: usize = 4;
const FINE_TUNE_EPOCHS: usize = 3;

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The paper's model on the Gowalla preset, in-process at 2 threads.
/// Epochs are 3m + 1 so the span from the first epoch callback to the
/// last holds exactly m head cycles.
fn train_full_spec() -> TrainSpec {
    TrainSpec {
        fixture: Fixture::Gowalla,
        config: TcssConfig {
            epochs: 31,
            num_threads: Some(2),
            ..TcssConfig::full()
        },
    }
}

/// Table II's no-L₁ row, tail-sharded over 2 single-thread worker
/// processes. 100 epochs = 33 three-epoch cycles + 1, like `train_full`.
fn train_dist_spec() -> TrainSpec {
    TrainSpec {
        fixture: Fixture::ManyUsers,
        config: TcssConfig {
            epochs: 100,
            num_threads: Some(1),
            workers: Some(2),
            ..TcssConfig::ablation_no_l1()
        },
    }
}

/// The model versions `serve_mixed` publishes: the paper's model on the
/// Gowalla preset, as `train_full` trains it but for 4 head cycles.
/// Head-free epochs (~0.5 ms) were tried first; their per-process times
/// were bimodal (0.39 or 0.6 ms) and spread 42% over five seeds.
fn serve_train_spec() -> TrainSpec {
    TrainSpec {
        fixture: Fixture::Gowalla,
        config: TcssConfig {
            epochs: 13,
            num_threads: Some(2),
            ..TcssConfig::full()
        },
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Overrides of `serve_mixed`'s assumed traffic mix, for the
    /// sensitivity table in README.md; the benchmark never passes them.
    zipf_s: Option<f64>,
    swap_every: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut zipf_s = None;
    let mut swap_every = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--zipf" => zipf_s = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--swap-every" => swap_every = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        zipf_s,
        swap_every,
    })
}

fn run_worker_role(args: &[String]) -> ExitCode {
    let mut socket = None;
    let mut worker = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--socket", Some(v)) => socket = Some(PathBuf::from(v)),
            ("--worker", Some(v)) => worker = v.parse::<u32>().ok(),
            _ => {}
        }
    }
    let (Some(socket), Some(worker)) = (socket, worker) else {
        eprintln!("usage: dist-worker --socket <path> --worker <id>");
        return ExitCode::from(2);
    };
    // One worker per vCPU, as a deployment with one worker per core
    // would bind them. Unbound, the scheduler now and then kept both
    // workers on one vCPU for a whole session, and that session's epochs
    // took 3.3 instead of 2.0 ms (on an 800-user fixture).
    if let Err(e) = sys::bind_thread(Some(worker as usize)) {
        eprintln!("dist-worker {worker}: cannot bind to a CPU: {e}");
        return ExitCode::FAILURE;
    }
    match tcss_core::dist::run_worker(&socket, worker) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dist-worker {worker}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set-ups per round on the training workloads, each timed: set-up is
/// ~50 ms there, so one sample per round left its median at the mercy of
/// a few samples.
const SETUP_REPEATS: usize = 5;

/// Extra short training sessions per round, timed only up to their first
/// epoch callback, so that `first_epoch_s` is a median over 3 samples a
/// round instead of one. With one sample a round its figure (then the
/// fastest of 4–6) spread 20–32% over ten seeds.
const FIRST_EPOCH_PROBES: usize = 2;

/// One round: set-up, a training session, publishing, a serving slice.
struct Round {
    setup_s: Gated,
    /// Time to the first epoch callback of the round's training session
    /// and of its `FIRST_EPOCH_PROBES` short sessions.
    first_epoch_s: Gated,
    session: Session,
    serve: ServeOutcome,
    /// Share of all guest CPU time the hypervisor stole during the round.
    steal: f64,
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    rounds: Vec<Round>,
    hit_at_10: f64,
    mrr: f64,
    /// `VmHWM` once the first round has ended.
    peak_rss_mb: f64,
    write_ms: Vec<f64>,
    probes: Option<train::Probes>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Every timing sample of a run, gated by the hypervisor steal measured
/// while it was taken (see `stats::Gated`).
struct Samples {
    setup_s: Gated,
    first_epoch_s: Gated,
    cycle_epoch_ms: Gated,
    serve: ServeOutcome,
}

impl Samples {
    /// Samples of the run's timed phases.
    fn of(run: &Run) -> Samples {
        let mut s = Samples {
            setup_s: Gated::default(),
            first_epoch_s: Gated::default(),
            cycle_epoch_ms: Gated::default(),
            serve: ServeOutcome::default(),
        };
        for r in &run.rounds {
            s.setup_s.extend(&r.setup_s);
            s.first_epoch_s.extend(&r.first_epoch_s);
            s.cycle_epoch_ms.extend(&r.session.cycle_epoch_ms);
            s.serve.absorb(&r.serve);
        }
        s
    }

    /// `(samples left out, all samples)` over every gated figure.
    fn dropped(&self) -> (usize, usize) {
        [
            self.setup_s.dropped(),
            self.first_epoch_s.dropped(),
            self.cycle_epoch_ms.dropped(),
            self.serve.rates.dropped(),
            self.serve.latency_ns.dropped(),
        ]
        .iter()
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}

impl Run {
    fn problem(&mut self, p: String) {
        eprintln!("check failed: {p}");
        self.problems.push(p);
    }

    /// Check the sessions' outcomes and that they agree bitwise.
    fn account_sessions(&mut self) {
        let digests: Vec<u64> = self.rounds.iter().map(|r| r.session.digest).collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            self.problem(format!("sessions trained different models: {digests:x?}"));
        }
        let faults: Vec<String> = self
            .rounds
            .iter()
            .filter_map(|r| r.session.fault.clone())
            .collect();
        self.failed += faults.len() as u64;
        for f in faults {
            self.problem(f);
        }
        if self.hit_at_10 < train::HIT_FLOOR || self.mrr < train::MRR_FLOOR {
            self.problem(format!(
                "quality below floor: Hit@10 {} (floor {}), MRR {} (floor {})",
                self.hit_at_10,
                train::HIT_FLOOR,
                self.mrr,
                train::MRR_FLOOR
            ));
        }
    }

    /// Count a serving slice's requests and failures; the outcome is
    /// empty when the slice itself failed. Shed and typed error answers
    /// are failed operations, not wrong ones; answers that cannot be
    /// matched to a request or that differ from their version's scores
    /// are wrong.
    fn account_serve(&mut self, outcome: std::io::Result<ServeOutcome>) -> ServeOutcome {
        match outcome {
            Ok(o) => {
                self.attempted += o.attempted;
                self.failed += o.failed();
                if o.unmatched > 0 {
                    self.problem(format!("{} answer(s) match no request sent", o.unmatched));
                }
                if o.mismatches > 0 {
                    self.problem(format!(
                        "{} of {} checked answers differ from their version's scores",
                        o.mismatches, o.checked
                    ));
                }
                if o.checked == 0 {
                    self.problem("no served answer was checked".into());
                }
                o
            }
            Err(e) => {
                self.failed += 1;
                self.attempted += 1;
                self.problem(format!("serving failed: {e}"));
                ServeOutcome::default()
            }
        }
    }
}

/// One workload: what it trains, what it publishes, and how it is served.
struct Workload {
    spec: TrainSpec,
    /// `serve_mixed`: training and publishing the model versions are its
    /// set-up, and its quality is that of the served snapshot. Otherwise
    /// the training session is the timed phase and set-up ends before it.
    train_in_setup: bool,
    /// Model versions published; the generator swaps through them.
    versions: usize,
    /// Requests between swaps. 20 000 on `serve_mixed` is an assumption,
    /// like `serve::ZIPF_S`; README.md shows how the figures move with it.
    swap_every: Option<u64>,
    zipf_s: f64,
    /// Serving time per round, split evenly between the open- and the
    /// closed-loop phase.
    serve_s: f64,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "train_full" => Workload {
            spec: train_full_spec(),
            train_in_setup: false,
            versions: 1,
            swap_every: None,
            zipf_s: serve::ZIPF_S,
            serve_s: 2.0,
        },
        "train_dist" => Workload {
            spec: train_dist_spec(),
            train_in_setup: false,
            versions: 1,
            swap_every: None,
            zipf_s: serve::ZIPF_S,
            serve_s: 2.0,
        },
        "serve_mixed" => Workload {
            spec: serve_train_spec(),
            train_in_setup: true,
            versions: VERSIONS,
            swap_every: Some(20_000),
            zipf_s: serve::ZIPF_S,
            serve_s: 4.0,
        },
        _ => return None,
    })
}

/// One timed training session, counted as one attempted operation.
fn timed_session(run: &mut Run, spec: &TrainSpec, p: &Prepared, tr: &Tracer) -> Option<Session> {
    run.attempted += 1;
    let s = train::session(spec, p, tr);
    if s.is_none() {
        run.failed += 1;
        run.problem("training returned an error".into());
    }
    s
}

/// Time to the first epoch callback of `FIRST_EPOCH_PROBES` short
/// sessions on `p`'s trainer. In-process a session of one epoch is
/// enough; a distributed one must run at least `checkpoint_every` epochs
/// (`TcssConfig::validate`), a few ms each on `train_dist`.
fn first_epoch_probes(
    run: &mut Run,
    spec: &TrainSpec,
    p: &mut Prepared,
    tr: &Tracer,
    out: &mut Gated,
) {
    let epochs = p.trainer.config.epochs;
    p.trainer.config.epochs = if spec.config.workers.is_some() {
        spec.config.checkpoint_every.min(epochs)
    } else {
        1
    };
    for _ in 0..FIRST_EPOCH_PROBES {
        let Some(s) = timed_session(run, spec, p, tr) else {
            break;
        };
        if let Some(f) = s.fault {
            run.failed += 1;
            run.problem(f);
        }
        out.push(s.first_epoch_s, s.first_epoch_steal);
    }
    p.trainer.config.epochs = epochs;
}

/// Run rounds of set-up → training → publishing → serving until another
/// round would overrun `seconds`. Spreading every metric's samples over
/// the whole run, instead of timing each phase once in one block, keeps
/// slow drifts of host throughput from landing on one metric alone.
/// Phases never overlap: each serving slice starts after training ended
/// and its workers were reaped.
fn run_rounds(w: &Workload, seed: u64, seconds: f64, tr: &Tracer) -> Run {
    let spec = &w.spec;
    let mut run = Run::default();
    let t0 = Instant::now();
    let mut fleet: Option<Fleet> = None;
    loop {
        let round_steal = sys::cpu_steal();
        // On `serve_mixed` set-up runs on through publishing and is timed
        // there.
        let repeats = if w.train_in_setup { 1 } else { SETUP_REPEATS };
        let mut setup_s = Gated::default();
        let mut started = (Instant::now(), round_steal);
        let mut p = None;
        for _ in 0..repeats {
            drop(p.take());
            started = (Instant::now(), sys::cpu_steal());
            p = Some(train::setup(spec, seed, tr));
            if !w.train_in_setup {
                setup_s.push(
                    started.0.elapsed().as_secs_f64(),
                    sys::steal_between(started.1, sys::cpu_steal()),
                );
            }
        }
        let mut p = p.expect("at least one set-up");
        let Some(session) = timed_session(&mut run, spec, &p, tr) else {
            break;
        };
        let mut model = session.model.clone();
        let mut versions = vec![model.clone()];
        if w.versions > 1 {
            p.trainer.config.epochs = FINE_TUNE_EPOCHS;
            for _ in 1..w.versions {
                tr.span("train.fine_tune", || {
                    p.trainer.train_model(&mut model, &mut |_| {})
                });
                versions.push(model.clone());
            }
            p.trainer.config.epochs = spec.config.epochs;
        }
        let published = match &mut fleet {
            None => serve::start(&versions, tr).map(|f| fleet = Some(f)),
            Some(f) => f.republish(&versions, tr),
        };
        if let Err(e) = published {
            run.problem(format!("publishing failed: {e}"));
            break;
        }
        let f = fleet.as_ref().expect("published above");
        if w.train_in_setup {
            setup_s.push(
                started.0.elapsed().as_secs_f64(),
                sys::steal_between(started.1, sys::cpu_steal()),
            );
        }
        let mut first_epoch_s = Gated::default();
        first_epoch_s.push(session.first_epoch_s, session.first_epoch_steal);
        first_epoch_probes(&mut run, spec, &mut p, tr, &mut first_epoch_s);
        if run.rounds.is_empty() {
            measure_quality(&mut run, w, &p, &versions[0], f);
        }

        let load = LoadSpec {
            open_s: w.serve_s / 2.0,
            closed_s: w.serve_s / 2.0,
            swap_every: w.swap_every,
            zipf_s: w.zipf_s,
        };
        let round_seed = seed
            .wrapping_mul(1000)
            .wrapping_add(run.rounds.len() as u64 + 1);
        let outcome = serve::drive(f, load, round_seed, tr);
        let serve = run.account_serve(outcome);
        if run.rounds.is_empty() {
            run.peak_rss_mb = sys::peak_rss_mb();
            // The traced run's standalone layer calls, once, inside the
            // run's time budget and outside every timed phase.
            if tr.enabled() {
                run.probes = Some(train::probes(spec, &p, &versions[0], tr));
            }
        }
        run.rounds.push(Round {
            setup_s,
            first_epoch_s,
            session,
            serve,
            steal: sys::steal_between(round_steal, sys::cpu_steal()),
        });

        let spent = t0.elapsed().as_secs_f64();
        if spent + spent / run.rounds.len() as f64 > seconds {
            break;
        }
    }
    if let Some(f) = fleet {
        run.write_ms = f.write_ms.clone();
        f.shutdown();
    }
    run.account_sessions();
    run
}

/// Hit@10 and MRR: of the trained f64 model on the training workloads,
/// of the served compact snapshot on `serve_mixed`.
fn measure_quality(run: &mut Run, w: &Workload, p: &Prepared, model: &TcssModel, fleet: &Fleet) {
    if !w.train_in_setup {
        (run.hit_at_10, run.mrr) = train::quality(p, |i, j, k| model.predict(i, j, k));
        return;
    }
    match SnapshotModel::open(&fleet.paths[0]) {
        Ok(snap) => {
            let memo = std::cell::RefCell::new(std::collections::HashMap::new());
            (run.hit_at_10, run.mrr) = train::quality(p, |i, j, k| {
                memo.borrow_mut()
                    .entry((i, k))
                    .or_insert_with(|| snap.scores_for(i, k))[j]
            });
        }
        Err(e) => run.problem(format!("re-opening the served snapshot failed: {e}")),
    }
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn end_to_end(run: &Run) -> Metrics {
    let mut m = Metrics(Vec::new());
    let s = Samples::of(run);
    let (p50, _, _) = serve::latency_us(&s.serve);
    m.put("setup_s", median(&s.setup_s.timed()), "s");
    m.put("first_epoch_s", median(&s.first_epoch_s.timed()), "s");
    m.put("epoch_ms", median(&s.cycle_epoch_ms.timed()), "ms");
    m.put("hit_at_10", run.hit_at_10, "ratio");
    m.put("mrr", run.mrr, "ratio");
    m.put("peak_rss_mb", run.peak_rss_mb, "MiB");
    m.put("serve_p50_us", p50, "us");
    m.put("serve_rps", serve::capacity_rps(&s.serve), "1/s");
    m
}

fn per_layer(run: &Run, spec: &TrainSpec, tr: &Tracer, steal: f64) -> Metrics {
    let mut m = Metrics(Vec::new());
    let span_s = |name| median(&tr.durations_ms(name)) / 1e3;
    let sess = |f: fn(&Session) -> f64| {
        median(&run.rounds.iter().map(|r| f(&r.session)).collect::<Vec<_>>())
    };
    let probes = run.probes.as_ref();
    let probe = |f: fn(&train::Probes) -> f64| probes.map_or(0.0, f);
    let head_ms = median(&tr.durations_ms("train.epoch_head"));
    let plain_ms = median(&tr.durations_ms("train.epoch_plain"));
    let l2_ms = probe(|p| median(&p.l2_ms));
    m.put("data.generate_s", span_s("data.generate"), "s");
    m.put("trainer.new_s", span_s("trainer.new"), "s");
    m.put("hausdorff.new_s", probe(|p| p.hausdorff_new_s), "s");
    m.put("init.spectral_s", probe(|p| p.spectral_s), "s");
    m.put("init.solve_h_ms", probe(|p| p.solve_h_ms), "ms");
    m.put(
        "hausdorff.loss_grad_ms_p50",
        probe(|p| median(&p.hausdorff_loss_grad_ms)),
        "ms",
    );
    m.put("train.head_epoch_ms_p50", head_ms, "ms");
    m.put("loss.l2_ms_p50", l2_ms, "ms");
    m.put("train.plain_epoch_ms_p50", plain_ms, "ms");
    m.put("train.residual_ms_per_epoch", plain_ms - l2_ms, "ms");

    let dist = run
        .rounds
        .last()
        .and_then(|r| r.session.dist.clone())
        .unwrap_or_default();
    let per_epoch = |x: u64| x as f64 / dist.epochs_dispatched.max(1) as f64;
    let distributed = spec.config.workers.is_some();
    let epochs = spec.config.epochs as f64;
    m.put("dist.bytes_sent_per_epoch", per_epoch(dist.bytes_sent), "B");
    m.put(
        "dist.bytes_received_per_epoch",
        per_epoch(dist.bytes_received),
        "B",
    );
    m.put(
        "dist.worker_busy_ms_per_epoch",
        per_epoch(dist.max_worker_busy_ns) / 1e6,
        "ms",
    );
    m.put(
        "dist.coord_ms_per_epoch",
        if distributed {
            sess(|s| s.cpu_s) * 1e3 / (epochs - 1.0)
        } else {
            0.0
        },
        "ms",
    );
    // Derived, not measured directly: first epoch minus spectral init
    // minus one head-free epoch leaves worker spawn and setup shipping.
    m.put(
        "dist.startup_s",
        if distributed {
            median(&Samples::of(run).first_epoch_s.timed())
                - probe(|p| p.spectral_s)
                - plain_ms / 1e3
        } else {
            0.0
        },
        "s",
    );
    m.put(
        "dist.respawns",
        f64::from(
            run.rounds
                .iter()
                .filter_map(|r| r.session.dist.as_ref())
                .map(|d| d.respawns)
                .sum::<u32>(),
        ),
        "count",
    );
    m.put(
        "dist.epochs_dispatched",
        dist.epochs_dispatched as f64,
        "count",
    );

    let samples = Samples::of(run);
    let o = &samples.serve;
    let open_ms = if o.open_ms.is_empty() {
        median(&tr.durations_ms("snapshot.open"))
    } else {
        median(&o.open_ms)
    };
    m.put("snapshot.write_ms", median(&run.write_ms), "ms");
    m.put("snapshot.open_ms", open_ms, "ms");
    m.put("engine.swap_us", median(&o.swap_us), "us");
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    m.put(
        "engine.topn_hit_ratio",
        ratio(o.topn_hits, o.topn_lookups),
        "ratio",
    );
    m.put(
        "engine.weight_hit_ratio",
        ratio(o.weight_hits, o.weight_lookups),
        "ratio",
    );
    m.put("engine.score_us_p50", o.score_ns.p50() as f64 / 1e3, "us");
    m.put("net.request_us_p50", o.request_ns.p50() as f64 / 1e3, "us");
    m.put(
        "net.queue_wait_us_p99",
        o.queue_wait_ns.p99() as f64 / 1e3,
        "us",
    );
    m.put(
        "net.bytes_per_request",
        ratio(o.wire_bytes, o.requests),
        "B",
    );
    m.put("net.overloaded", o.overloaded as f64, "count");
    m.put("net.errors", o.errors as f64, "count");
    m.put("serve.shed", o.shed as f64, "count");
    m.put("serve.error_answers", o.error_answers as f64, "count");
    m.put("serve.unmatched", o.unmatched as f64, "count");
    m.put("serve.mismatches", o.mismatches as f64, "count");
    // Tails over every window, stolen or not: they are there to show
    // host stalls.
    let latency = o.latency_ns.all();
    m.put("gen.late_us_p99", o.late_ns.quantile(0.99) / 1e3, "us");
    m.put("gen.late_samples", o.late_ns.count() as f64, "count");
    m.put("serve.p99_us", latency.quantile(0.99) / 1e3, "us");
    m.put("serve.p999_us", latency.quantile(0.999) / 1e3, "us");
    m.put("serve.latency_samples", latency.count() as f64, "count");
    m.put("host.steal_pct", steal * 100.0, "%");
    m.put("host.rounds", run.rounds.len() as f64, "count");
    let (dropped, all) = samples.dropped();
    m.put(
        "host.dropped_pct",
        dropped as f64 * 100.0 / all.max(1) as f64,
        "%",
    );
    // The same end-to-end figures as the untraced run, measured with
    // tracing on; their difference from the untraced run is the
    // tracing overhead.
    m.put(
        "traced.epoch_ms",
        median(&samples.cycle_epoch_ms.timed()),
        "ms",
    );
    m.put("traced.serve_p50_us", serve::latency_us(o).0, "us");
    m.put("traced.serve_rps", serve::capacity_rps(o), "1/s");
    m
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("dist-worker") {
        return run_worker_role(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: tcss-bench-e2e --workload <train_full|train_dist|serve_mixed> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = sys::lower_timer_slack() {
        eprintln!("cannot lower the timer slack: {e}");
        return ExitCode::FAILURE;
    }
    let tr = Tracer::new(args.trace);
    let steal0 = sys::cpu_steal();
    let Some(mut w) = workload(&args.workload) else {
        eprintln!(
            "unknown workload {:?} (train_full, train_dist, serve_mixed)",
            args.workload
        );
        return ExitCode::from(2);
    };
    if let Some(s) = args.zipf_s {
        w.zipf_s = s;
    }
    if let Some(n) = args.swap_every {
        w.swap_every = (n > 0).then_some(n);
    }
    let run = run_rounds(&w, args.seed, args.seconds, &tr);
    let spec = &w.spec;

    let steal = sys::steal_between(steal0, sys::cpu_steal());
    let round_steal: Vec<String> = run
        .rounds
        .iter()
        .map(|r| format!("{:.1}", r.steal * 100.0))
        .collect();
    let samples = Samples::of(&run);
    let (dropped, all) = samples.dropped();
    let o = &samples.serve;
    let round_rps: Vec<String> = run
        .rounds
        .iter()
        .map(|r| format!("{:.0}k", serve::capacity_rps(&r.serve) / 1e3))
        .collect();
    let round_first: Vec<String> = run
        .rounds
        .iter()
        .map(|r| format!("{:.3}", median(&r.first_epoch_s.timed())))
        .collect();
    eprintln!(
        "closed-loop req/s per round: {}; first epoch s per round: {}",
        round_rps.join(" "),
        round_first.join(" ")
    );
    eprintln!(
        "host: nproc {}, cpu {:?}, {:.1}% of CPU time stolen by the hypervisor during the run; \
         workload {}: {}, {} round(s) (steal % per round: {}); \
         {dropped} of {all} timing samples left out for steal above {:.0}%; \
         requests: {} sent, {} shed, {} typed error, {} unmatched, {} of {} checked mismatched; \
         the run is {} under the steal rule (at most {:.0}% stolen); timing: wall clock (Instant)",
        sys::cpus_online(),
        sys::cpu_model(),
        steal * 100.0,
        args.workload,
        spec.config
            .workers
            .map_or("in-process".into(), |w| format!("{w} worker processes")),
        run.rounds.len(),
        round_steal.join(" "),
        stats::STEAL_LIMIT * 100.0,
        o.attempted,
        o.shed,
        o.error_answers,
        o.unmatched,
        o.mismatches,
        o.checked,
        if steal <= stats::RUN_STEAL_LIMIT {
            "valid"
        } else {
            "INVALID"
        },
        stats::RUN_STEAL_LIMIT * 100.0,
    );
    let metrics = if args.trace {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
        per_layer(&run, spec, &tr, steal)
    } else {
        end_to_end(&run)
    };
    for (n, v, u) in &metrics.0 {
        eprintln!("  {n:<32} {v:>14.4} {u}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.problems.is_empty(),
        run.attempted.max(1),
        run.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
