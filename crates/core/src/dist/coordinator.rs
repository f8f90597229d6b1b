//! The coordinator side of the distributed trainer: its configuration,
//! the per-run socket, and worker spawn and teardown.
//!
//! [`TcssTrainer::train_distributed_with_faults`] validates the fleet
//! request and hands the run to the tail-sharded epoch loop in
//! [`super::sharded`], which starts the run state the in-process loop
//! uses (config checks, resume, checkpoints) and owns the two-round-trip
//! epoch protocol and worker-loss recovery. This file holds what that loop builds on:
//! [`DistConfig`] and [`DistReport`], the socket (`bind_socket`), the
//! Hello/Setup handshake (`TcssTrainer::spawn_worker`), and fleet
//! teardown. See the module docs of [`crate::dist`] for the parity
//! argument and failure model.

use super::wire::{
    decode_hello, encode_setup, encode_shutdown, tag_of, Setup, WireLoss, MAX_FRAME_LEN, TAG_HELLO,
};
use super::DistError;
use crate::config::LossStrategy;
use crate::fault::FaultPlan;
use crate::frame::{read_frame, write_frame, FrameDecoder};
use crate::loss::ENTRIES_PER_CHUNK;
use crate::train::{TcssTrainer, TrainContext, TrainError, TrainReport};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// How to run a distributed training session: the worker fleet and the
/// program that plays the worker role.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker processes to spawn (≥ 1).
    pub workers: usize,
    /// Threads per worker (each worker pins `TCSS_NUM_THREADS`-style
    /// parallelism to this; `None` = 1 — workers should not each grab the
    /// whole machine).
    pub worker_threads: Option<usize>,
    /// Program to spawn for each worker. The coordinator appends
    /// `--socket <path> --worker <id>` to [`DistConfig::worker_args`].
    /// (`tcss` passes its own executable plus the hidden `dist-worker`
    /// subcommand; tests pass the `tcss-dist-worker` binary.)
    pub worker_program: PathBuf,
    /// Leading arguments for the worker program (e.g. a subcommand).
    pub worker_args: Vec<String>,
    /// Directory for the coordinator's Unix socket (`None`: the OS temp
    /// dir).
    pub socket_dir: Option<PathBuf>,
    /// Worker-loss recovery budget: how many respawn-and-rollback cycles
    /// are allowed before the run aborts with
    /// [`DistError::RespawnBudgetExhausted`].
    pub max_respawns: u32,
    /// Kept only so that existing struct literals that name it, such as
    /// `DistConfig { tail_shard: true, .. }`, still compile. Tail sharding
    /// ([`super::sharded`]) is the only distributed protocol; `true` (the
    /// default) runs it, and `false` is rejected with
    /// [`TrainError::InvalidConfig`] before any worker is spawned.
    pub tail_shard: bool,
}

impl DistConfig {
    /// A fleet of `workers` running `worker_program`, defaults elsewhere.
    pub fn new(workers: usize, worker_program: impl Into<PathBuf>) -> Self {
        DistConfig {
            workers,
            worker_threads: None,
            worker_program: worker_program.into(),
            worker_args: Vec::new(),
            socket_dir: None,
            max_respawns: 3,
            tail_shard: true,
        }
    }
}

/// Outcome of a distributed run: the [`TrainReport`] plus transport and
/// recovery telemetry.
#[derive(Debug)]
pub struct DistReport {
    /// The single-process-identical training outcome.
    pub report: TrainReport,
    /// Worker processes used.
    pub workers: usize,
    /// Worker-loss recoveries performed.
    pub respawns: u32,
    /// Bytes the coordinator wrote to workers (frames included).
    pub bytes_sent: u64,
    /// Bytes of frames the coordinator read from workers.
    pub bytes_received: u64,
    /// Cumulative in-worker compute time (ns) per worker slot, as
    /// reported in each UpdatedRows message — the bench derives
    /// critical-path scaling from this on hosts too small to run the
    /// fleet in parallel.
    pub worker_busy_ns: Vec<u64>,
    /// Epochs dispatched to the fleet, replays included.
    pub epochs_dispatched: u64,
}

/// One connected worker.
pub(super) struct WorkerSlot {
    pub(super) child: Child,
    pub(super) stream: UnixStream,
    pub(super) chunk_start: usize,
    pub(super) chunk_end: usize,
    /// `U¹` rows this worker's chunk block can read — the entry list is
    /// sorted by `(i, j, k)`, so a contiguous chunk block touches a
    /// contiguous row window, and each StepOwned ships only that window
    /// (everything, for negative sampling: its negatives hit any row).
    pub(super) u1_lo: usize,
    pub(super) u1_hi: usize,
}

/// Owns the listening socket path; removes the file on drop so aborted
/// runs don't litter the temp dir.
pub(super) struct SocketGuard {
    pub(super) path: PathBuf,
    pub(super) listener: UnixListener,
}

/// Bind a fresh per-run coordinator socket in the configured directory.
pub(super) fn bind_socket(dist: &DistConfig) -> Result<SocketGuard, DistError> {
    let dir = dist.socket_dir.clone().unwrap_or_else(std::env::temp_dir);
    let sock_path = dir.join(format!(
        "tcss-dist-{}-{}.sock",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&sock_path);
    let listener = UnixListener::bind(&sock_path).map_err(DistError::Io)?;
    Ok(SocketGuard {
        path: sock_path,
        listener,
    })
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TcssTrainer {
    /// Distributed counterpart of
    /// [`TcssTrainer::train_with_checkpoints`]: same guarantees, same
    /// bit-exact trajectory, with the entry-chunk work sharded across
    /// `dist.workers` processes.
    pub fn train_distributed(
        &self,
        dist: &DistConfig,
        on_epoch: impl FnMut(TrainContext),
    ) -> Result<DistReport, TrainError> {
        self.train_distributed_with_faults(dist, &FaultPlan::none(), on_epoch)
    }

    /// [`TcssTrainer::train_distributed`] with a deterministic
    /// [`FaultPlan`] — drives the worker-loss recovery path in tests via
    /// [`FaultPlan::kill_worker_at`].
    pub fn train_distributed_with_faults(
        &self,
        dist: &DistConfig,
        faults: &FaultPlan,
        mut on_epoch: impl FnMut(TrainContext),
    ) -> Result<DistReport, TrainError> {
        if dist.workers == 0 {
            return Err(TrainError::InvalidConfig(
                "dist.workers must be at least 1".into(),
            ));
        }
        if !dist.tail_shard {
            return Err(TrainError::InvalidConfig(
                "DistConfig::tail_shard = false asks for the plain coordinator-merge \
                 protocol, which has been removed; tail sharding is the only \
                 distributed protocol"
                    .into(),
            ));
        }
        super::sharded::train_tail_sharded(self, dist, faults, &mut on_epoch)
    }

    /// Spawn one worker process, accept its connection, verify its Hello,
    /// and send its Setup.
    pub(super) fn spawn_worker(
        &self,
        dist: &DistConfig,
        guard: &SocketGuard,
        worker: usize,
        chunk_start: usize,
        chunk_end: usize,
    ) -> Result<WorkerSlot, DistError> {
        let mut child = Command::new(&dist.worker_program)
            .args(&dist.worker_args)
            .arg("--socket")
            .arg(&guard.path)
            .arg("--worker")
            .arg(worker.to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| DistError::Spawn {
                program: dist.worker_program.display().to_string(),
                source: e,
            })?;
        // Accept without ever hanging: a worker that dies before
        // connecting (bad program, crash on startup) surfaces as a typed
        // error, detected by polling the child between accept attempts.
        guard.listener.set_nonblocking(true)?;
        let mut stream = loop {
            match guard.listener.accept() {
                Ok((s, _addr)) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Some(status) = child.try_wait()? {
                        guard.listener.set_nonblocking(false)?;
                        return Err(DistError::Protocol(format!(
                            "worker {worker} exited before connecting ({status})"
                        )));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => {
                    guard.listener.set_nonblocking(false)?;
                    return Err(DistError::Io(e));
                }
            }
        };
        guard.listener.set_nonblocking(false)?;
        stream.set_nonblocking(false)?;
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let hello = read_frame::<DistError>(&mut stream, &mut dec)?.ok_or_else(|| {
            DistError::Protocol(format!("worker {worker} disconnected before Hello"))
        })?;
        if tag_of(&hello)? != TAG_HELLO {
            return Err(DistError::Protocol(format!(
                "worker {worker} sent tag {} before Hello",
                tag_of(&hello)?
            )));
        }
        let claimed = decode_hello(&hello)?;
        if claimed as usize != worker {
            return Err(DistError::Protocol(format!(
                "expected Hello from worker {worker}, got worker {claimed}"
            )));
        }
        let cfg = &self.config;
        let setup = Setup {
            dims: self.tensor.dims(),
            rank: cfg.rank,
            w_plus: cfg.w_plus,
            w_minus: cfg.w_minus,
            loss: match cfg.loss {
                LossStrategy::WholeDataRewritten | LossStrategy::WholeDataNaive => {
                    WireLoss::L2Entries
                }
                LossStrategy::NegativeSampling => WireLoss::NegSampling,
            },
            seed: cfg.seed,
            chunk_start,
            chunk_end,
            threads: dist.worker_threads.unwrap_or(1).max(1),
            n_workers: dist.workers,
            weight_decay: cfg.weight_decay,
            entries: self.tensor.entries().to_vec(),
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_setup(&setup));
        stream.write_all(&frame)?;
        let entries = self.tensor.entries();
        let lo = (chunk_start * ENTRIES_PER_CHUNK).min(entries.len());
        let hi = (chunk_end * ENTRIES_PER_CHUNK).min(entries.len());
        let (u1_lo, u1_hi) = match setup.loss {
            // Negative sampling draws rows anywhere in the tensor.
            WireLoss::NegSampling => (0, self.tensor.dims().0),
            WireLoss::L2Entries if lo < hi => (entries[lo].i, entries[hi - 1].i + 1),
            WireLoss::L2Entries => (0, 0),
        };
        Ok(WorkerSlot {
            child,
            stream,
            chunk_start,
            chunk_end,
            u1_lo,
            u1_hi,
        })
    }

    /// Best-effort fleet teardown: Shutdown frame, then reap. Workers also
    /// exit on EOF, so a failed write still converges.
    pub(super) fn shutdown_fleet(&self, slots: &mut Vec<WorkerSlot>) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_shutdown());
        for slot in slots.iter_mut() {
            let _ = slot.stream.write_all(&frame);
            let _ = slot.stream.shutdown(std::net::Shutdown::Both);
        }
        for slot in slots.iter_mut() {
            let _ = slot.child.wait();
        }
        slots.clear();
    }
}
