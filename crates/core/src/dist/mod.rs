//! Mode-sharded multi-process training with bitwise process-count parity.
//!
//! Single-process epoch speedup saturates (the sparse-delta rewrite went
//! from 4.34× over the dense-chunk epoch at 1 thread to 2.08× at 4):
//! the deterministic chunk scheduler has hit its ceiling inside one
//! address space. This module goes past it the way distributed-memory
//! tensor-completion systems do (Singh et al., arXiv:1910.02371): shard
//! the COO entry-chunk grid across worker **processes**, give each worker
//! ownership of a contiguous row range of every factor, and exchange only
//! [`crate::sparse_grads::SparseGrads`]-style touched-row deltas between
//! owners (owner-computes).
//!
//! # Architecture
//!
//! * **Coordinator** ([`coordinator`] for configuration, spawn, and
//!   teardown; [`sharded`] for the epoch loop; driven through
//!   [`crate::train::TcssTrainer::train_distributed`]) — owns the
//!   authoritative model, the dense core `h` and its Adam state, the
//!   whole-data Gram tail, the Hausdorff head, the loss and norm folds,
//!   the divergence watchdog, and the checkpoints. It spawns N workers,
//!   assigns each a **contiguous block** of the global entry-chunk grid,
//!   broadcasts each worker the model rows it reads, relays the row
//!   deltas between workers, and, once its watchdog accepts the epoch,
//!   splices the updated rows (and, on checkpoint cadence epochs, the
//!   Adam moments) the workers return.
//! * **Workers** ([`worker::run_worker`], the hidden `dist-worker` CLI
//!   subcommand / the `tcss-dist-worker` test binary) — hold the tensor
//!   (shipped once in Setup) plus the model rows and Adam moments of the
//!   factor rows they own. Each epoch a worker evaluates its block with
//!   the in-process path's entry-chunk evaluator, routes each chunk's
//!   delta rows to their owners, merges the deltas bound for its own
//!   rows, and steps those rows with the in-process Adam kernel straight
//!   away — an epoch is two coordinator round trips.
//! * **Transport** ([`wire`]) — Unix sockets carrying the workspace's
//!   one frame format ([`crate::frame`]: length prefix, payload, CRC32C
//!   trailer; no async runtime), capped at [`wire::MAX_FRAME_LEN`].
//!
//! # The process-count-parity contract
//!
//! The thread-count-parity contract of `tcss_linalg::parallel` extends to
//! worker processes because nothing about the float stream changes:
//!
//! 1. the **global chunk grid** (`chunk_count(nnz, ENTRIES_PER_CHUNK)`)
//!    depends only on the tensor, never on the worker count;
//! 2. each chunk's value is computed by the *same* function the
//!    in-process path calls (`loss::eval_entry_chunks`, over the worker's
//!    block instead of `0..nnz`), a pure function of `(model, kernel,
//!    global range)` — a worker's thread count only reorders *which
//!    cores* evaluate chunks, never their contents — and the owned rows
//!    of the Gram tail come from the in-process Gram-row builder
//!    (`loss::add_gram_rows`);
//! 3. workers own contiguous chunk blocks in worker order, and each owner
//!    merges the deltas for its rows in ascending source-worker order, so
//!    every gradient *element* sees its adds in ascending **global**
//!    chunk order — the exact add sequence of the single-process fold;
//! 4. floats travel as `f64::to_le_bytes` (lossless), and the owner
//!    replays each chunk's scatter adds element-for-element.
//!
//! Therefore 1, 2, and 4 workers (at any `TCSS_NUM_THREADS` per worker)
//! produce bit-identical models to the in-process trainer —
//! `tests/dist_parity.rs` proptests this end to end. See [`sharded`] and
//! DESIGN.md §5j for the per-epoch protocol and the full argument.
//!
//! # Failure model
//!
//! Recovery is replay: if a worker dies (detected as an I/O error or EOF
//! on its socket — there are no application-level timeouts to tune), the
//! coordinator respawns it, re-sends Setup, rolls the run back to its
//! in-memory last good state (with checkpointing on, bitwise what the
//! last cadence point saved; the checkpoint directory is never re-read),
//! and re-installs every worker's owned rows and Adam moments from it
//! with an Adopt frame; `max_respawns` bounds the budget. A watchdog
//! rejection rolls back and re-Adopts the same way, overwriting the rows
//! the workers already stepped. Epoch replay is bit-exact for the
//! same reason resume is: epochs are pure functions of
//! `(model, adam, epoch)`. The kill-worker faults in
//! [`crate::fault::FaultPlan`] drive this path in `tests/dist_fault.rs`.

pub mod coordinator;
pub mod sharded;
pub mod wire;
pub mod worker;

pub use coordinator::{DistConfig, DistReport};
pub use wire::WireError;
pub use worker::run_worker;

use crate::frame::FrameError;

/// Typed failures of the distributed runtime.
#[derive(Debug)]
pub enum DistError {
    /// Spawning a worker process failed.
    Spawn {
        /// The worker program that failed to start.
        program: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Socket-level I/O failed (bind, accept, read, write).
    Io(std::io::Error),
    /// A frame or message failed to decode.
    Wire(WireError),
    /// A peer violated the coordinator/worker protocol.
    Protocol(String),
    /// A worker died and the respawn budget is exhausted.
    RespawnBudgetExhausted {
        /// Worker whose loss exhausted the budget.
        worker: usize,
        /// Epoch being dispatched when it was lost.
        epoch: usize,
        /// Respawns consumed (the budget plus the final straw).
        respawns: u32,
        /// How the loss surfaced.
        detail: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Spawn { program, source } => {
                write!(f, "failed to spawn worker program {program:?}: {source}")
            }
            DistError::Io(e) => write!(f, "transport I/O error: {e}"),
            DistError::Wire(e) => write!(f, "wire error: {e}"),
            DistError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DistError::RespawnBudgetExhausted {
                worker,
                epoch,
                respawns,
                detail,
            } => write!(
                f,
                "worker {worker} lost at epoch {epoch} after {respawns} respawn(s) \
                 exhausted the budget: {detail}"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

impl From<FrameError> for DistError {
    fn from(e: FrameError) -> Self {
        DistError::Wire(WireError::Frame(e))
    }
}

/// Monotonic on-CPU time of the calling process, in nanoseconds.
///
/// Workers report their per-step `busy_ns` with this clock, and the
/// critical-path accounting in `bench_distributed` subtracts the sum
/// from the wall clock to recover the coordinator-serial share. A wall
/// clock would charge involuntary preemption to the worker: on an
/// oversubscribed host `Σ busy` then saturates the wall and the
/// coordinator share clamps to zero, understating the serial tail.
///
/// On Linux/x86-64 this is `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`
/// via a raw syscall (the workspace deliberately has no libc
/// dependency). Process scope matters: a multi-threaded worker evaluates
/// chunks on scoped pool threads, whose CPU a thread-scoped clock would
/// misattribute to the coordinator residual — and since those threads
/// only live inside the eval call, blocking waits still accrue ~zero.
/// The clock folds running threads' unexpired time slices into the
/// result, so millisecond spans measure exactly — unlike
/// `/proc/*/schedstat` or `utime`, which only advance on scheduler
/// ticks and can report near-zero for any span shorter than one.
/// Elsewhere it falls back to a process-wide wall clock.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) fn busy_now_ns() -> u64 {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
    let mut ts = [0i64; 2]; // timespec { tv_sec, tv_nsec }
    let ret: i64;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_PROCESS_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _, // syscall clobbers rcx (return RIP)
            lateout("r11") _, // and r11 (saved RFLAGS)
            options(nostack),
        );
    }
    if ret == 0 {
        (ts[0] as u64) * 1_000_000_000 + ts[1] as u64
    } else {
        fallback_wall_ns()
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) fn busy_now_ns() -> u64 {
    fallback_wall_ns()
}

fn fallback_wall_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
