//! `tcss` — command-line interface to the TCSS reproduction.
//!
//! ```text
//! tcss generate --preset gowalla --out data/gowalla     # write CSV dataset
//! tcss train    --data data/gowalla --model m.tcss      # train, save model
//! tcss recommend --data data/gowalla --model m.tcss --user 7 --month 5
//! tcss recommend-batch --data data/gowalla --model m.tcss --requests 7:5,3:1 --top 5
//! tcss evaluate --data data/gowalla --model m.tcss      # Hit@10 / MRR
//! tcss serve    --data data/gowalla --model m.tcss --addr 127.0.0.1:7464
//! tcss query    --addr 127.0.0.1:7464 --user 7 --month 5 --top 10
//! ```
//!
//! Datasets use the three-file CSV interchange format of `tcss_data::io`;
//! models use the checksummed binary format of `tcss_core::model_io`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tcss::core::{load_model, save_model, TcssConfig, TcssModel, TcssTrainer, CHECKPOINT_FILE};
use tcss::data::io::{load_dataset, load_dataset_lenient, save_dataset};
use tcss::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  tcss generate  --preset <gowalla|yelp|foursquare|gmu-5k> --out <stem> [--no-preprocess]
  tcss train     (--data <stem> | --synth <preset>) [--model <file>]
                 [--epochs N] [--rank R] [--lambda L] [--seed S]
                 [--loss whole|negsamp] [--init spectral|random|onehot]
                 [--granularity month|week|hour] [--threads T]
                 [--workers N] [--worker-threads T]
                 [--checkpoint-dir <dir>] [--checkpoint-every N] [--resume] [--lenient]
  tcss recommend --data <stem> --model <file> --user U --month M [--top N]
  tcss recommend-batch --data <stem> --model <file> --requests <U:M,U:M,...> [--top N]
  tcss evaluate  --data <stem> --model <file> [--test-fraction F]
  tcss export-snapshot --model <file> --out <file.tcsssnap> [--quant f32|i16]
  tcss serve     --data <stem> (--model <file> | --snapshot <file.tcsssnap>)
                 [--addr A] [--threads N] [--queue-depth D]
                 [--deadline-ms D] [--idle-timeout-ms I] [--drain-timeout-ms T]
                 [--maintenance-ms M]
  tcss query     --addr <host:port> --user U --month M [--top N]
                 [--timeout-ms T] [--retries N]

<stem> names the CSV triplet <stem>.pois.csv / .checkins.csv / .edges.csv.
Every subcommand rejects, naming the flag, a flag it does not know, a flag
given twice, and a value flag with no value; tcss <subcommand> --help
prints this text.

serving:
  tcss serve binds a wire-protocol server (default 127.0.0.1:0, i.e. an
  OS-assigned port printed on startup) and runs until SIGINT/SIGTERM.
  --snapshot serves from a compact quantized snapshot (written by
  tcss export-snapshot) scored straight out of an mmap — O(1) cold start
  and a fraction of the f64 memory, within the documented quantization
  error budget. --threads sets worker readiness loops (default 2);
  --queue-depth bounds admitted in-flight requests (default 1024) —
  beyond it, requests are answered with a typed Overloaded response
  instead of queueing.
  --deadline-ms answers requests that waited longer than D before scoring
  with a typed DeadlineExceeded error; --idle-timeout-ms reaps
  connections silent for I ms; --maintenance-ms sets the periodic
  stale-cache reap interval (default 30000; 0 disables). On
  SIGINT/SIGTERM the server drains gracefully — stops accepting,
  finishes in-flight batches, flushes queued responses — force-closing
  stragglers after --drain-timeout-ms (default 5000). tcss query sends
  one recommendation request to a running server; --timeout-ms bounds
  each socket read (default 10000) and --retries retries
  Overloaded/transient failures with deterministic capped exponential
  backoff (default 0).

distributed training:
  tcss train --workers N shards each epoch across N worker processes
  (this executable re-invoked with a hidden dist-worker subcommand over a
  Unix socket); the trained model is bit-identical to the single-process
  run at any worker count. --worker-threads sets threads per worker
  (default 1). Each worker owns a contiguous range of factor rows and
  runs the optimizer for them itself (owner-computes Adam), while the
  coordinator keeps the dense core, the Gram/Hausdorff tail, and the
  watchdog. Checkpoints stay coordinator-owned and
  worker-count-independent, so the run survives the loss of any single
  worker and checkpoints move freely between distributed and
  single-process runs. The whole flag combination is validated up
  front — e.g. --workers 0, or a --checkpoint-every beyond --epochs when
  workers are set, is a typed error before anything spawns.

fault tolerance:
  --checkpoint-dir <dir>  write a rolling checkpoint to <dir>/checkpoint.tcssck
  --checkpoint-every N    checkpoint cadence in epochs (default 25)
  --resume                continue from <dir>/checkpoint.tcssck (needs --checkpoint-dir)
  --lenient               skip (and count) malformed check-in/edge CSV rows";

/// One subcommand's flags, parsed in a single pass: each given flag maps
/// to its value (`None` for a switch).
struct Args(BTreeMap<&'static str, Option<String>>);

impl Args {
    /// The value of `flag`; `None` when absent.
    fn opt(&self, flag: &str) -> Option<&str> {
        self.0.get(flag)?.as_deref()
    }

    fn req(&self, flag: &str) -> Result<&str, String> {
        self.opt(flag)
            .ok_or_else(|| format!("missing required {flag}"))
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {what}: {s:?}"))
}

/// A subcommand: the flags that take a value, the switches, and the body.
struct Command {
    name: &'static str,
    values: &'static [&'static str],
    switches: &'static [&'static str],
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        values: &["--preset", "--out"],
        switches: &["--no-preprocess"],
        run: cmd_generate,
    },
    Command {
        name: "train",
        values: &[
            "--data",
            "--synth",
            "--model",
            "--epochs",
            "--rank",
            "--lambda",
            "--seed",
            "--loss",
            "--init",
            "--granularity",
            "--threads",
            "--workers",
            "--worker-threads",
            "--checkpoint-dir",
            "--checkpoint-every",
        ],
        switches: &["--resume", "--lenient"],
        run: cmd_train,
    },
    Command {
        name: "recommend",
        values: &["--data", "--model", "--user", "--month", "--top"],
        switches: &[],
        run: cmd_recommend,
    },
    Command {
        name: "recommend-batch",
        values: &["--data", "--model", "--requests", "--top"],
        switches: &[],
        run: cmd_recommend_batch,
    },
    Command {
        name: "evaluate",
        values: &["--data", "--model", "--test-fraction"],
        switches: &[],
        run: cmd_evaluate,
    },
    Command {
        name: "export-snapshot",
        values: &["--model", "--out", "--quant"],
        switches: &[],
        run: cmd_export_snapshot,
    },
    Command {
        name: "serve",
        values: &[
            "--data",
            "--model",
            "--snapshot",
            "--addr",
            "--threads",
            "--queue-depth",
            "--deadline-ms",
            "--idle-timeout-ms",
            "--drain-timeout-ms",
            "--maintenance-ms",
        ],
        switches: &[],
        run: cmd_serve,
    },
    Command {
        name: "query",
        values: &[
            "--addr",
            "--user",
            "--month",
            "--top",
            "--timeout-ms",
            "--retries",
        ],
        switches: &[],
        run: cmd_query,
    },
    // Hidden: the worker role of `train --workers N`. Spawned by the
    // coordinator, never by hand.
    Command {
        name: "dist-worker",
        values: &["--socket", "--worker"],
        switches: &[],
        run: cmd_dist_worker,
    },
];

/// Parse `cmd`'s arguments in one pass, before any work: every argument
/// is a flag `cmd` knows, given at most once, and every value flag is
/// followed by its value (taken as is, even if it starts with `--`).
/// `Ok(None)` when `--help`/`-h` asks for usage instead.
fn parse_args(cmd: &Command, args: &[String]) -> Result<Option<Args>, String> {
    let name = cmd.name;
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, value) = if let Some(&flag) = cmd.values.iter().find(|&&f| f == arg) {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag:?} of tcss {name} needs a value"))?;
            (flag, Some(value.clone()))
        } else if let Some(&flag) = cmd.switches.iter().find(|&&f| f == arg) {
            (flag, None)
        } else if arg == "--help" || arg == "-h" {
            return Ok(None);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg:?} for tcss {name}"));
        } else {
            return Err(format!("unexpected argument {arg:?} for tcss {name}"));
        };
        if map.insert(flag, value).is_some() {
            return Err(format!("duplicate flag {flag:?} for tcss {name}"));
        }
    }
    Ok(Some(Args(map)))
}

fn run(args: &[String]) -> Result<(), String> {
    let parsed = match args.split_first() {
        Some((name, rest)) if name != "--help" && name != "-h" => {
            let cmd = COMMANDS
                .iter()
                .find(|c| c.name == name)
                .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
            parse_args(cmd, rest)?.map(|args| (cmd, args))
        }
        _ => None,
    };
    match parsed {
        Some((cmd, args)) => (cmd.run)(&args),
        None => {
            println!("{USAGE}");
            Ok(())
        }
    }
}

fn load(stem: &str) -> Result<Dataset, String> {
    load_with_mode(stem, false)
}

fn load_with_mode(stem: &str, lenient: bool) -> Result<Dataset, String> {
    let name = Path::new(stem)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("dataset");
    if lenient {
        let (data, report) = load_dataset_lenient(name, Path::new(stem))
            .map_err(|e| format!("loading dataset {stem:?}: {e}"))?;
        if report.skipped_checkins + report.skipped_edges > 0 {
            eprintln!(
                "warning: skipped {} malformed check-in row(s) and {} malformed edge row(s)",
                report.skipped_checkins, report.skipped_edges
            );
        }
        Ok(data)
    } else {
        load_dataset(name, Path::new(stem)).map_err(|e| format!("loading dataset {stem:?}: {e}"))
    }
}

fn parse_preset(name: &str) -> Result<SynthPreset, String> {
    match name.to_ascii_lowercase().as_str() {
        "gowalla" => Ok(SynthPreset::Gowalla),
        "yelp" => Ok(SynthPreset::Yelp),
        "foursquare" => Ok(SynthPreset::Foursquare),
        "gmu-5k" | "gmu5k" | "gmu" => Ok(SynthPreset::Gmu5k),
        other => Err(format!("unknown preset {other:?}")),
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let preset = parse_preset(args.req("--preset")?)?;
    let out = PathBuf::from(args.req("--out")?);
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        }
    }
    let mut data = preset.generate();
    if !args.has("--no-preprocess") {
        data = preprocess(&data, &PreprocessConfig::default());
    }
    save_dataset(&data, &out).map_err(|e| format!("writing dataset: {e}"))?;
    println!("{}", data.summary(Granularity::Month));
    println!("wrote {}.{{pois,checkins,edges}}.csv", out.display());
    Ok(())
}

fn training_config(args: &Args) -> Result<TcssConfig, String> {
    let mut cfg = TcssConfig::default();
    if let Some(v) = args.opt("--epochs") {
        cfg.epochs = parse(v, "--epochs")?;
    }
    if let Some(v) = args.opt("--rank") {
        cfg.rank = parse(v, "--rank")?;
    }
    if let Some(v) = args.opt("--lambda") {
        cfg.lambda = parse(v, "--lambda")?;
        if cfg.lambda == 0.0 {
            cfg.hausdorff = tcss::core::HausdorffVariant::None;
        }
    }
    if let Some(v) = args.opt("--seed") {
        cfg.seed = parse(v, "--seed")?;
    }
    if let Some(v) = args.opt("--loss") {
        cfg.loss = match v {
            "whole" => LossStrategy::WholeDataRewritten,
            "negsamp" => LossStrategy::NegativeSampling,
            other => {
                return Err(format!(
                    "unknown loss strategy {other:?} (expected whole|negsamp)"
                ))
            }
        };
    }
    if let Some(v) = args.opt("--init") {
        cfg.init = match v {
            "spectral" => InitMethod::Spectral,
            "random" => InitMethod::Random,
            "onehot" => InitMethod::OneHot,
            other => return Err(format!("unknown init method {other:?}")),
        };
    }
    if let Some(v) = args.opt("--threads") {
        cfg.num_threads = Some(parse(v, "--threads")?);
    }
    if let Some(v) = args.opt("--workers") {
        cfg.workers = Some(parse(v, "--workers")?);
    }
    if let Some(v) = args.opt("--checkpoint-dir") {
        cfg.checkpoint_dir = Some(PathBuf::from(v));
    }
    if let Some(v) = args.opt("--checkpoint-every") {
        cfg.checkpoint_every = parse(v, "--checkpoint-every")?;
    }
    if args.has("--resume") {
        let dir = cfg
            .checkpoint_dir
            .as_ref()
            .ok_or("--resume requires --checkpoint-dir")?;
        cfg.resume_from = Some(dir.join(CHECKPOINT_FILE));
    }
    // One cross-field validation pass owns every flag-interaction rule
    // (e.g. --workers 0, or --checkpoint-every beyond --epochs when
    // workers are set) — a bad combination is a typed error before any
    // data is loaded or any process spawned.
    cfg.validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(cfg)
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let cfg = training_config(args)?;
    let granularity = match args.opt("--granularity") {
        Some("month") | None => Granularity::Month,
        Some("week") => Granularity::Week,
        Some("hour") => Granularity::Hour,
        Some(other) => return Err(format!("unknown granularity {other:?}")),
    };
    let data = match (args.opt("--data"), args.opt("--synth")) {
        (Some(stem), None) => load_with_mode(stem, args.has("--lenient"))?,
        (None, Some(preset)) => parse_preset(preset)?.generate(),
        (Some(_), Some(_)) => return Err("--data and --synth are mutually exclusive".into()),
        (None, None) => return Err("train needs --data <stem> or --synth <preset>".into()),
    };
    let model_path = args.opt("--model").map(PathBuf::from);
    let epochs = cfg.epochs;
    let lambda = cfg.lambda;
    let workers = cfg.workers;
    println!("{}", data.summary(granularity));
    let trainer = TcssTrainer::new(&data, &data.checkins, granularity, cfg);
    let t0 = std::time::Instant::now();
    let on_epoch = |ctx: tcss::core::TrainContext| {
        let loss = lambda * ctx.l1 + ctx.l2;
        if ctx.epoch == 0 || (ctx.epoch + 1).is_multiple_of(50) || ctx.epoch + 1 == epochs {
            println!("epoch {:>4}: loss {loss:.2}", ctx.epoch + 1);
        }
    };
    let report = match workers {
        None => trainer
            .train_with_checkpoints(on_epoch)
            .map_err(|e| format!("training failed: {e}"))?,
        Some(n) => {
            // The workers are this same executable, re-invoked with the
            // hidden dist-worker subcommand.
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate own executable: {e}"))?;
            let worker_threads = match args.opt("--worker-threads") {
                Some(v) => Some(parse(v, "--worker-threads")?),
                None => None,
            };
            let dist = tcss::core::dist::DistConfig {
                worker_threads,
                worker_args: vec!["dist-worker".into()],
                ..tcss::core::dist::DistConfig::new(n, exe)
            };
            let dr = trainer
                .train_distributed(&dist, on_epoch)
                .map_err(|e| format!("distributed training failed: {e}"))?;
            println!(
                "distributed across {} worker process(es): {} respawn(s), \
                 {} B sent / {} B received over {} epoch(s)",
                dr.workers, dr.respawns, dr.bytes_sent, dr.bytes_received, dr.epochs_dispatched
            );
            dr.report
        }
    };
    if report.start_epoch > 0 {
        println!("resumed from checkpoint at epoch {}", report.start_epoch);
    }
    if report.rollbacks > 0 {
        println!(
            "divergence watchdog rolled back {} time(s); final learning-rate scale {}",
            report.rollbacks, report.lr_scale
        );
    }
    let model = report.model;
    println!(
        "trained {} parameters in {:.1}s",
        model.num_params(),
        t0.elapsed().as_secs_f64()
    );
    match model_path {
        Some(path) => {
            save_model(&model, &path).map_err(|e| format!("saving model: {e}"))?;
            println!("model written to {}", path.display());
        }
        None => println!("no --model given; trained model discarded"),
    }
    Ok(())
}

fn cmd_dist_worker(args: &Args) -> Result<(), String> {
    let socket = PathBuf::from(args.req("--socket")?);
    let worker: u32 = parse(args.req("--worker")?, "--worker")?;
    tcss::core::dist::run_worker(&socket, worker).map_err(|e| format!("dist-worker {worker}: {e}"))
}

fn load_model_checked(path: &str, data: &Dataset) -> Result<TcssModel, String> {
    let model = load_model(Path::new(path)).map_err(|e| format!("loading model: {e}"))?;
    let (i, j, _) = model.dims();
    if i != data.n_users || j != data.n_pois() {
        return Err(format!(
            "model was trained on {i} users × {j} POIs but the dataset has {} × {}",
            data.n_users,
            data.n_pois()
        ));
    }
    Ok(model)
}

fn cmd_recommend(args: &Args) -> Result<(), String> {
    let data = load(args.req("--data")?)?;
    let model = load_model_checked(args.req("--model")?, &data)?;
    let user: usize = parse(args.req("--user")?, "--user")?;
    let month: usize = parse(args.req("--month")?, "--month")?;
    let top: usize = match args.opt("--top") {
        Some(v) => parse(v, "--top")?,
        None => 10,
    };
    if user >= data.n_users {
        return Err(format!("user {user} out of range (0..{})", data.n_users));
    }
    if month >= 12 {
        return Err(format!("month {month} out of range (0..12)"));
    }
    println!("top-{top} POIs for user {user} in month {month}:");
    for (rank, (poi, score)) in model.recommend(user, month, top).into_iter().enumerate() {
        let p = &data.pois[poi];
        println!(
            "{:>3}. poi {poi:>5}  [{}]  ({:>9.4}, {:>8.4})  score {score:.4}",
            rank + 1,
            p.category.label(),
            p.location.lon,
            p.location.lat
        );
    }
    Ok(())
}

/// `--requests 7:5,3:1,7:5` → `[{user 7, month 5}, {user 3, month 1}, ...]`.
fn parse_requests(spec: &str) -> Result<Vec<ScoreRequest>, String> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (u, m) = part
                .split_once(':')
                .ok_or_else(|| format!("bad request {part:?}: expected <user>:<month>"))?;
            Ok(ScoreRequest {
                user: parse(u, "request user")?,
                time: parse(m, "request month")?,
            })
        })
        .collect()
}

fn cmd_recommend_batch(args: &Args) -> Result<(), String> {
    let data = load(args.req("--data")?)?;
    let model = load_model_checked(args.req("--model")?, &data)?;
    let requests = parse_requests(args.req("--requests")?)?;
    if requests.is_empty() {
        return Err("--requests needs at least one <user>:<month> pair".into());
    }
    let top: usize = match args.opt("--top") {
        Some(v) => parse(v, "--top")?,
        None => 10,
    };
    let engine = ServingEngine::new(model);
    let results = engine
        .recommend_batch(&requests, top)
        .map_err(|e| format!("scoring batch: {e}"))?;
    for (q, ranked) in requests.iter().zip(&results) {
        println!("user {} month {}:", q.user, q.time);
        for (rank, (poi, score)) in ranked.iter().enumerate() {
            println!(
                "{:>3}. poi {poi:>5}  [{}]  score {score:.4}",
                rank + 1,
                data.pois[*poi].category.label()
            );
        }
    }
    let m = engine.metrics();
    println!(
        "served {} request(s) in {} batch(es) under model version {}",
        m.requests,
        m.batches,
        engine.version()
    );
    print_topn_cache(&engine);
    Ok(())
}

/// One summary line for the engine's top-`n` cache: hits, misses, hit
/// rate, live entries and what `purge_stale` reclaimed.
fn print_topn_cache(engine: &ServingEngine) {
    let m = engine.metrics();
    println!(
        "top-n cache: hits {} misses {} ({:.1}% hit), {} entries live, {} stale entries reaped",
        m.topn_hits,
        m.topn_misses,
        100.0 * m.topn_hit_rate(),
        engine.cache_stats().topn_entries,
        m.reaped_stale
    );
}

// ---------------------------------------------------------------------------
// Signal handling for `tcss serve` — declared by hand (std already links
// libc; same posture as the serving crate's `poll` declaration). The
// handler only flips an atomic; the drain itself runs on the main thread.

static STOP_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn request_stop(_signum: std::ffi::c_int) {
    STOP_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

fn install_stop_handlers() {
    const SIGINT: std::ffi::c_int = 2;
    const SIGTERM: std::ffi::c_int = 15;
    extern "C" {
        fn signal(signum: std::ffi::c_int, handler: usize) -> usize;
    }
    // SAFETY: request_stop is async-signal-safe (one atomic store) and
    // has the handler ABI signal(2) expects.
    unsafe {
        let handler = request_stop as extern "C" fn(std::ffi::c_int) as *const () as usize;
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

fn cmd_export_snapshot(args: &Args) -> Result<(), String> {
    use tcss::serve::snapshot::{write_snapshot, SnapshotModel};
    use tcss::serve::QuantMode;

    let model_path = args.req("--model")?;
    let out = PathBuf::from(args.req("--out")?);
    let mode = match args.opt("--quant") {
        Some(v) => {
            QuantMode::parse(v).ok_or_else(|| format!("--quant must be f32 or i16, got {v:?}"))?
        }
        None => QuantMode::F32,
    };
    let model = load_model(Path::new(model_path)).map_err(|e| format!("loading model: {e}"))?;
    write_snapshot(&model, mode, &out).map_err(|e| format!("writing snapshot: {e}"))?;
    // Reopen with full verification so the operator knows the bytes on
    // disk load cleanly, not just that the write returned.
    let snap = SnapshotModel::open(&out).map_err(|e| format!("verifying snapshot: {e}"))?;
    let (i, j, k) = snap.dims();
    let f64_bytes = model.num_params() * 8;
    println!(
        "wrote {} ({mode} factors): {i} users × {j} POIs × {k} slots, rank {}",
        out.display(),
        snap.rank()
    );
    println!(
        "{} payload bytes vs {} bytes of f64 factors in memory ({:.1}%); \
         {:.1} bytes/user across all factors",
        snap.payload_bytes(),
        f64_bytes,
        100.0 * snap.payload_bytes() as f64 / f64_bytes as f64,
        snap.payload_bytes() as f64 / i as f64
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let data = load(args.req("--data")?)?;
    let mut cfg = tcss::serve::net::ServerConfig::default();
    if let Some(v) = args.opt("--addr") {
        cfg.addr = parse(v, "--addr")?;
    }
    if let Some(v) = args.opt("--threads") {
        cfg.workers = parse(v, "--threads")?;
    }
    if let Some(v) = args.opt("--queue-depth") {
        cfg.queue_depth = parse(v, "--queue-depth")?;
    }
    if let Some(v) = args.opt("--deadline-ms") {
        cfg.request_deadline = Some(std::time::Duration::from_millis(parse(v, "--deadline-ms")?));
    }
    if let Some(v) = args.opt("--idle-timeout-ms") {
        cfg.idle_timeout = Some(std::time::Duration::from_millis(parse(
            v,
            "--idle-timeout-ms",
        )?));
    }
    if let Some(v) = args.opt("--maintenance-ms") {
        let ms: u64 = parse(v, "--maintenance-ms")?;
        cfg.maintenance_interval = if ms == 0 {
            None
        } else {
            Some(std::time::Duration::from_millis(ms))
        };
    }
    let drain_timeout = std::time::Duration::from_millis(match args.opt("--drain-timeout-ms") {
        Some(v) => parse(v, "--drain-timeout-ms")?,
        None => 5000u64,
    });

    let (engine, source) = if let Some(snap_path) = args.opt("--snapshot") {
        let snap = tcss::serve::SnapshotModel::open(Path::new(snap_path))
            .map_err(|e| format!("opening snapshot: {e}"))?;
        let (i, j, _) = snap.dims();
        if i != data.n_users || j != data.n_pois() {
            return Err(format!(
                "snapshot holds {i} users × {j} POIs but the dataset has {} × {}",
                data.n_users,
                data.n_pois()
            ));
        }
        let mode = snap.mode();
        (
            std::sync::Arc::new(ServingEngine::new(snap)),
            format!("compact {mode} snapshot {snap_path}"),
        )
    } else {
        let model = load_model_checked(args.req("--model")?, &data)?;
        (
            std::sync::Arc::new(ServingEngine::new(model)),
            "f64 model".to_string(),
        )
    };
    let (i, j, k) = engine.snapshot().model.dims();
    let mut handle = tcss::serve::net::NetServer::start(std::sync::Arc::clone(&engine), cfg)
        .map_err(|e| format!("starting server: {e}"))?;
    println!(
        "serving {i} users × {j} POIs × {k} slots ({source}) on {}",
        handle.addr()
    );
    println!("listening; Ctrl-C (or SIGTERM) drains and stops");
    install_stop_handlers();
    while !STOP_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!(
        "signal received; draining (timeout {} ms)...",
        drain_timeout.as_millis()
    );
    let clean = handle.drain(drain_timeout);
    let m = handle.metrics();
    println!(
        "drained {}: {} requests served ({} ok, {} shed, {} errors), {} deadline misses, \
         {} panics isolated, {} idle reaps",
        if clean { "cleanly" } else { "with force-close" },
        m.requests,
        m.ok,
        m.overloaded,
        m.errors,
        m.deadline_exceeded,
        m.panics,
        m.reaped_idle
    );
    // Warm-path health next to the resilience block: the cache hit rate
    // and what the maintenance tick reclaimed, without needing a bench run.
    print_topn_cache(&engine);
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let addr: std::net::SocketAddr = parse(args.req("--addr")?, "--addr")?;
    let user: u64 = parse(args.req("--user")?, "--user")?;
    let month: u64 = parse(args.req("--month")?, "--month")?;
    let top: u32 = match args.opt("--top") {
        Some(v) => parse(v, "--top")?,
        None => 10,
    };
    let mut ccfg = tcss::serve::net::ClientConfig::default();
    if let Some(v) = args.opt("--timeout-ms") {
        ccfg.read_timeout = std::time::Duration::from_millis(parse(v, "--timeout-ms")?);
    }
    if let Some(v) = args.opt("--retries") {
        ccfg.retries = parse(v, "--retries")?;
    }
    let mut client = tcss::serve::net::NetClient::connect_with_config(addr, ccfg)
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let resp = client
        .recommend_with_retry(user, month, top)
        .map_err(|e| format!("query failed: {e}"))?;
    let stats = client.stats();
    if stats.retries > 0 {
        eprintln!(
            "note: {} retry attempt(s), {} reconnect(s)",
            stats.retries, stats.reconnects
        );
    }
    match resp.body {
        tcss::serve::net::ResponseBody::Ranking { version, items } => {
            println!("top-{top} POIs for user {user} in month {month} (model v{version}):");
            for (rank, (poi, score)) in items.into_iter().enumerate() {
                println!("{:>3}. poi {poi:>5}  score {score:.4}", rank + 1);
            }
            Ok(())
        }
        tcss::serve::net::ResponseBody::Overloaded { queue_depth } => Err(format!(
            "server overloaded (admission queue depth {queue_depth}); retry later"
        )),
        tcss::serve::net::ResponseBody::Error { code, message } => {
            Err(format!("server error ({code:?}): {message}"))
        }
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let data = load(args.req("--data")?)?;
    let model = load_model_checked(args.req("--model")?, &data)?;
    let fraction: f64 = match args.opt("--test-fraction") {
        Some(v) => parse(v, "--test-fraction")?,
        None => 0.2,
    };
    if !(0.0..1.0).contains(&fraction) {
        return Err("--test-fraction must be in [0, 1)".into());
    }
    let split = train_test_split(&data.checkins, data.n_users, 1.0 - fraction, 42);
    let m = evaluate_ranking(
        &split.test,
        data.n_pois(),
        &EvalConfig::default(),
        |i, j, k| model.predict(i, j, k),
    );
    println!(
        "Hit@10 = {:.4}, MRR = {:.4} over {} held-out interactions",
        m.hit_at_k, m.mrr, m.n
    );
    println!(
        "(note: if the model was trained on the full dataset, this measures \
         reconstruction; train on a split for generalization numbers)"
    );
    Ok(())
}
