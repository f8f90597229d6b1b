//! Distributed-training throughput benchmark.
//!
//! Trains one compute-heavy fixture (dense-ish tensor, rank 16, λ = 0 —
//! the entry-chunk kernels dominate) under every scheduling configuration:
//! single-process at 1/2/4 threads, and 1/2/4 worker processes at 1/2
//! threads each under the tail-sharded protocol (owner-computes Adam,
//! `shard_*` labels). Emits `BENCH_distributed.json` into the current
//! directory.
//!
//! Two timings are reported per configuration:
//!
//! * `wall_ms_per_epoch` — measured end-to-end wall clock.
//! * `critical_path_ms_per_epoch` — coordinator-serial time plus the
//!   **slowest single worker's** compute time:
//!   `(wall − Σ_w busy_w)/E + max_w(busy_w)/E`, from the per-step
//!   `busy_ns` every worker reports in its UpdatedRows message. On a host with
//!   at least as many CPUs as the fleet the two converge; on a smaller
//!   host (CI containers are often 1-CPU, where the OS time-slices the
//!   fleet and wall clock cannot show parallel speedup) the critical path
//!   is what an adequately provisioned host would see.
//!
//! `speedup_method` in the JSON names which timing backs
//! `speedup_vs_best_single`: `"wall_clock"` when the host has enough CPUs
//! for the largest fleet, `"critical_path"` otherwise. Either way the
//! numbers are measured — never extrapolated from a model.
//!
//! Each configuration runs `trials` times and the trial with the
//! **median** critical path is reported. Training is bit-deterministic,
//! so trials differ only by scheduler noise, which lives almost entirely
//! in the wall term (`busy_ns` is process CPU time and nearly
//! noise-free): background load inflates the recovered coordinator
//! share one trial and leaves the next alone. The median rejects those
//! spikes while still reporting an actually-measured trial — a mean
//! would smear them in, and a min systematically favours whatever
//! residual bias deflates the estimate. The digest assert covers every
//! trial of every configuration.
//!
//! `--smoke` shrinks the fixture so CI can validate the JSON shape in
//! seconds.
//!
//! This binary is its own worker program: the coordinator re-invokes it
//! with the hidden `dist-worker --socket <path> --worker <id>` argv.

use std::path::PathBuf;
use std::time::Instant;

use tcss_core::dist::DistConfig;
use tcss_core::{InitMethod, LossStrategy, TcssConfig, TcssTrainer};
use tcss_sparse::SparseTensor3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("dist-worker") {
        return run_worker_role(&args[1..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    run_bench(smoke);
}

fn run_worker_role(args: &[String]) {
    let mut socket: Option<PathBuf> = None;
    let mut worker: Option<u32> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--socket", Some(v)) => socket = Some(PathBuf::from(v)),
            ("--worker", Some(v)) => worker = v.parse().ok(),
            _ => {}
        }
    }
    let (socket, worker) = (socket.expect("--socket"), worker.expect("--worker"));
    if let Err(e) = tcss_core::dist::run_worker(&socket, worker) {
        eprintln!("bench dist-worker[{worker}]: {e}");
        std::process::exit(1);
    }
}

/// A dense-ish synthetic tensor whose per-epoch cost is dominated by the
/// sharded entry-chunk kernels, not the coordinator-serial Gram tail.
fn fixture(smoke: bool) -> (SparseTensor3, TcssConfig) {
    // Small J/K saturate the U²/U³ delta rows (many entries per touched
    // row), and the sorted COO layout keeps each chunk's U¹ row set
    // narrow — so per-chunk compute dominates per-chunk wire bytes.
    // Delta traffic per chunk grows with (J + K)·r while compute per
    // chunk grows with r alone, so the fixture keeps J/K at the rank
    // floor to stay compute-bound.
    let (i_dim, j_dim, k_dim, nnz, rank, epochs) = if smoke {
        (64, 24, 8, 3_000, 8, 3)
    } else {
        (2400, 16, 16, 300_000, 16, 17)
    };
    // Deterministic pseudo-random fill (splitmix-style mixing).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let entries = (0..nnz).map(move |_| {
        (
            (next() % i_dim as u64) as usize,
            (next() % j_dim as u64) as usize,
            (next() % k_dim as u64) as usize,
            1.0,
        )
    });
    let tensor = SparseTensor3::from_entries((i_dim, j_dim, k_dim), entries)
        .expect("fixture entries in bounds");
    let cfg = TcssConfig {
        rank,
        epochs,
        seed: 2022,
        loss: LossStrategy::WholeDataRewritten,
        lambda: 0.0,
        hausdorff: tcss_core::HausdorffVariant::None,
        init: InitMethod::Random,
        checkpoint_every: epochs,
        num_threads: Some(1),
        ..TcssConfig::default()
    };
    (tensor, cfg)
}

struct ConfigResult {
    label: String,
    workers: usize,
    threads: usize,
    wall_ms_per_epoch: f64,
    critical_path_ms_per_epoch: f64,
    bytes_sent_per_epoch: u64,
    bytes_received_per_epoch: u64,
    model_digest: u64,
}

/// Steady-state per-epoch wall clock: the span between the first and the
/// last per-epoch callback, over `E − 1` epochs. Excludes one-time costs
/// (process spawn, tensor shipping, first-epoch warmup) that per-run
/// division would smear into every epoch.
struct EpochClock {
    first: Option<Instant>,
    last: Option<Instant>,
    epochs: u32,
}

impl EpochClock {
    fn new() -> Self {
        EpochClock {
            first: None,
            last: None,
            epochs: 0,
        }
    }

    fn tick(&mut self) {
        let now = Instant::now();
        self.first.get_or_insert(now);
        self.last = Some(now);
        self.epochs += 1;
    }

    fn steady_ms_per_epoch(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if self.epochs > 1 => {
                (b - a).as_secs_f64() * 1e3 / (self.epochs - 1) as f64
            }
            _ => f64::NAN,
        }
    }
}

fn digest_model(m: &tcss_core::TcssModel) -> u64 {
    let mut bytes = Vec::new();
    for v in
        m.u1.as_slice()
            .iter()
            .chain(m.u2.as_slice())
            .chain(m.u3.as_slice())
            .chain(&m.h)
    {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    tcss_core::frame::checksum(&bytes)
}

fn run_bench(smoke: bool) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (tensor, cfg) = fixture(smoke);
    let epochs = cfg.epochs as f64;
    // Median-of-N: see the module doc for why not best-of-N.
    let trials: usize = if smoke { 1 } else { 7 };
    eprintln!(
        "fixture: dims {:?}, nnz {}, rank {}, {} epochs; host_cpus {host_cpus}, {trials} trial(s)",
        tensor.dims(),
        tensor.entries().len(),
        cfg.rank,
        cfg.epochs
    );

    let exe = std::env::current_exe().expect("own executable path");
    let mut results: Vec<ConfigResult> = Vec::new();

    // The median trial by critical path; asserts all trials agree bitwise.
    fn median_trial(mut trials: Vec<ConfigResult>) -> ConfigResult {
        let digest = trials[0].model_digest;
        for t in &trials {
            assert_eq!(t.model_digest, digest, "{} trials diverged", t.label);
        }
        trials.sort_by(|a, b| {
            a.critical_path_ms_per_epoch
                .total_cmp(&b.critical_path_ms_per_epoch)
        });
        trials.swap_remove(trials.len() / 2)
    }

    // Single-process baselines at 1/2/4 threads.
    for threads in [1usize, 2, 4] {
        let samples: Vec<ConfigResult> = (0..trials)
            .map(|_| {
                let mut c = cfg.clone();
                c.num_threads = Some(threads);
                let trainer = TcssTrainer::from_tensor(tensor.clone(), c);
                let mut clock = EpochClock::new();
                let report = trainer
                    .train_with_checkpoints(|_| clock.tick())
                    .expect("baseline trains");
                let wall = clock.steady_ms_per_epoch();
                ConfigResult {
                    label: format!("single_t{threads}"),
                    workers: 0,
                    threads,
                    wall_ms_per_epoch: wall,
                    // One address space: the chunk grid is the critical path.
                    critical_path_ms_per_epoch: wall,
                    bytes_sent_per_epoch: 0,
                    bytes_received_per_epoch: 0,
                    model_digest: digest_model(&report.model),
                }
            })
            .collect();
        let median = median_trial(samples);
        eprintln!(
            "single t{threads}: {:.1} ms/epoch",
            median.wall_ms_per_epoch
        );
        results.push(median);
    }

    // One distributed configuration: median of `trials`.
    let run_dist = |label: String, workers: usize, threads: usize| {
        let run_once = || {
            let mut c = cfg.clone();
            c.workers = Some(workers);
            let trainer = TcssTrainer::from_tensor(tensor.clone(), c);
            let dist = DistConfig {
                worker_threads: Some(threads),
                worker_args: vec!["dist-worker".into()],
                ..DistConfig::new(workers, exe.clone())
            };
            let mut clock = EpochClock::new();
            let report = trainer
                .train_distributed(&dist, |_| clock.tick())
                .expect("distributed run trains");
            let wall = clock.steady_ms_per_epoch();
            // Worker compute is uniform across epochs, so the cumulative
            // busy figures divide cleanly.
            let busy_ms: Vec<f64> = report
                .worker_busy_ns
                .iter()
                .map(|&ns| ns as f64 / 1e6 / epochs)
                .collect();
            let busy_sum: f64 = busy_ms.iter().sum();
            let busy_max = busy_ms.iter().cloned().fold(0.0, f64::max);
            // Coordinator-serial share + the slowest worker's share.
            let critical = (wall - busy_sum).max(0.0) + busy_max;
            let dispatched = report.epochs_dispatched.max(1);
            let sent = report.bytes_sent / dispatched;
            let received = report.bytes_received / dispatched;
            ConfigResult {
                label: label.clone(),
                workers,
                threads,
                wall_ms_per_epoch: wall,
                critical_path_ms_per_epoch: critical,
                bytes_sent_per_epoch: sent,
                bytes_received_per_epoch: received,
                model_digest: digest_model(&report.report.model),
            }
        };
        let median = median_trial((0..trials).map(|_| run_once()).collect());
        eprintln!(
            "{label}: wall {:.1} ms/epoch, critical path {:.1} ms/epoch, {}+{} B/epoch",
            median.wall_ms_per_epoch,
            median.critical_path_ms_per_epoch,
            median.bytes_sent_per_epoch,
            median.bytes_received_per_epoch
        );
        median
    };

    // 1/2/4 workers × 1/2 threads each.
    for workers in [1usize, 2, 4] {
        for threads in [1usize, 2] {
            results.push(run_dist(
                format!("shard_w{workers}_t{threads}"),
                workers,
                threads,
            ));
        }
    }

    // Every configuration must land on the same model bits — a benchmark
    // of diverging runs would be meaningless.
    let want = results[0].model_digest;
    for r in &results {
        assert_eq!(
            r.model_digest, want,
            "{} diverged from the single-process model",
            r.label
        );
    }

    let best_single = results
        .iter()
        .filter(|r| r.workers == 0)
        .map(|r| r.wall_ms_per_epoch)
        .fold(f64::INFINITY, f64::min);
    // The largest fleet footprint benchmarked: 4 workers × 2 threads,
    // plus the coordinator.
    let needed_cpus = 4 * 2 + 1;
    let method = if host_cpus >= needed_cpus {
        "wall_clock"
    } else {
        "critical_path"
    };
    let best_w4 = results
        .iter()
        .filter(|r| r.workers == 4)
        .map(|r| match method {
            "wall_clock" => r.wall_ms_per_epoch,
            _ => r.critical_path_ms_per_epoch,
        })
        .fold(f64::INFINITY, f64::min);
    let speedup = best_single / best_w4;
    eprintln!("speedup at 4 workers vs best single-process ({method}): {speedup:.2}x");

    let shard_w4 = results
        .iter()
        .filter(|r| r.workers == 4)
        .map(|r| r.critical_path_ms_per_epoch)
        .fold(f64::INFINITY, f64::min);
    eprintln!("critical path at 4 workers: {shard_w4:.2} ms/epoch");

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"trials\": {trials},\n"));
    json.push_str(&format!("  \"speedup_method\": \"{method}\",\n"));
    json.push_str(&format!("  \"speedup_vs_best_single\": {speedup:.3},\n"));
    json.push_str(&format!(
        "  \"best_single_ms_per_epoch\": {best_single:.3},\n"
    ));
    json.push_str(&format!(
        "  \"shard_w4_critical_path_ms\": {shard_w4:.3},\n"
    ));
    json.push_str("  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"workers\": {}, \"threads\": {}, \
             \"wall_ms_per_epoch\": {:.3}, \"critical_path_ms_per_epoch\": {:.3}, \
             \"bytes_sent_per_epoch\": {}, \"bytes_received_per_epoch\": {}}}{sep}\n",
            r.label,
            r.workers,
            r.threads,
            r.wall_ms_per_epoch,
            r.critical_path_ms_per_epoch,
            r.bytes_sent_per_epoch,
            r.bytes_received_per_epoch,
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_distributed.json", json).expect("write BENCH_distributed.json");
    println!("wrote BENCH_distributed.json");
}
