//! Deterministic chunked parallel execution.
//!
//! Every parallel hot path in the workspace (the rewritten whole-data loss,
//! the social-Hausdorff head, dense matmul/Gram, the spectral initializer's
//! three per-mode solves) runs through this module instead of hand-rolled threading. The
//! scheduler is intentionally tiny — `std::thread::scope`, one atomic chunk
//! counter, no external dependencies — and built around one contract:
//!
//! # The deterministic-reduction contract
//!
//! 1. The index space `0..n_items` is cut into **fixed chunks** whose
//!    boundaries depend only on `(n_items, chunk_size)` — never on the
//!    thread count or on scheduling order.
//! 2. Each chunk is mapped to a value by a pure function of its range;
//!    workers claim chunks dynamically (work stealing via an atomic
//!    counter), but *which worker* computes a chunk cannot affect its value.
//! 3. Per-chunk results are merged **in ascending chunk order** by the
//!    caller ([`map_chunks`] returns them in that order; [`fold_chunks`]
//!    folds them in that order).
//!
//! Consequently every result is a deterministic function of the inputs and
//! the chunk grid: bit-for-bit identical across runs, across thread counts
//! (1 thread and 64 threads produce the same floats), and across the
//! serial-fallback and threaded code paths — the serial path executes the
//! *same* chunked fold, just inline. Floating-point summation order is
//! pinned by the grid, not by the race winner.
//!
//! # Thread-count resolution
//!
//! [`num_threads`] resolves, in order: the process-wide programmatic
//! override ([`set_num_threads`], used by `TcssConfig::num_threads` and the
//! parity tests), the `TCSS_NUM_THREADS` environment variable, and finally
//! `std::thread::available_parallelism()`. A resolved count of 1 bypasses
//! thread spawning entirely.

use std::ops::{Deref, DerefMut, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatically pin the worker count for all subsequent parallel
/// regions in this process (`None` restores automatic resolution).
///
/// Because of the deterministic-reduction contract this only affects
/// *speed*, never results; tests may therefore set it freely even while
/// other tests run concurrently.
pub fn set_num_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count parallel regions will use right now.
///
/// Resolution order: [`set_num_threads`] override → `TCSS_NUM_THREADS`
/// env var → `available_parallelism()` → 1.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("TCSS_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of chunks in the fixed grid for `n_items` / `chunk_size`.
///
/// This is *the* grid arity every consumer of the deterministic-reduction
/// contract agrees on — the distributed trainer shards this very grid
/// across worker processes, so coordinator and workers must derive the
/// same count from the same inputs.
pub fn chunk_count(n_items: usize, chunk_size: usize) -> usize {
    n_items.div_ceil(chunk_size.max(1))
}

/// The fixed chunk grid for `n_items` items: ascending, disjoint,
/// covering ranges of length `chunk_size` (the last may be shorter).
pub fn chunk_ranges(n_items: usize, chunk_size: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk_size = chunk_size.max(1);
    let n_chunks = chunk_count(n_items, chunk_size);
    (0..n_chunks).map(move |c| {
        let lo = c * chunk_size;
        lo..(lo + chunk_size).min(n_items)
    })
}

/// Map every chunk of `0..n_items` through `f`, in parallel, returning the
/// per-chunk results **in chunk order**.
///
/// This is the primitive the deterministic-reduction contract rests on:
/// the output `Vec` is indexed by chunk, so any in-order fold over it is
/// independent of the thread count. With one worker (or one chunk) the map
/// runs inline on the calling thread.
pub fn map_chunks<T, F>(n_items: usize, chunk_size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    map_chunks_with(n_items, chunk_size, || (), |(), range| f(range))
}

/// [`map_chunks`] with a **worker-local workspace**: each worker calls
/// `make_ws` exactly once, then reuses the workspace across every chunk it
/// claims (the serial path builds one workspace and runs inline).
///
/// This is the allocation-taming primitive behind the sparse-gradient
/// training path: scratch buffers that would otherwise be allocated per
/// chunk (`O(chunks)` per call) are allocated `O(workers)` times — and when
/// `make_ws` checks buffers out of a [`WorkspacePool`], `O(1)` times per
/// run. The workspace never affects results under the deterministic-
/// reduction contract: `f` must compute the same value for a chunk
/// regardless of the workspace's history (buffers are state, not input).
pub fn map_chunks_with<W, T, MkW, F>(
    n_items: usize,
    chunk_size: usize,
    make_ws: MkW,
    f: F,
) -> Vec<T>
where
    T: Send,
    MkW: Fn() -> W + Sync,
    F: Fn(&mut W, Range<usize>) -> T + Sync,
{
    let chunk_size = chunk_size.max(1);
    let n_chunks = chunk_count(n_items, chunk_size);
    let workers = num_threads().min(n_chunks);
    if workers <= 1 {
        let mut ws = make_ws();
        return chunk_ranges(n_items, chunk_size)
            .map(|r| f(&mut ws, r))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                let make_ws = &make_ws;
                s.spawn(move || {
                    let mut ws = make_ws();
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let lo = c * chunk_size;
                        let hi = (lo + chunk_size).min(n_items);
                        produced.push((c, f(&mut ws, lo..hi)));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            for (c, value) in h.join().expect("parallel worker panicked") {
                debug_assert!(slots[c].is_none(), "chunk {c} computed twice");
                slots[c] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("every chunk claimed exactly once"))
        .collect()
}

/// A free-list of reusable scratch buffers shared across parallel regions.
///
/// `acquire` pops an idle buffer (or builds one with the supplied factory)
/// and returns a guard that checks it back in on drop; `take`/`put` move
/// buffers by value for workspaces that travel with chunk results. The pool
/// never shrinks: over a training run, buffer churn settles to zero
/// steady-state allocations — the heart of the "allocated once per run, not
/// once per chunk per epoch" contract in `tcss-core`'s `TrainWorkspace`.
///
/// Buffers come back in arbitrary (scheduling-dependent) order, so a pooled
/// buffer's *contents* must never feed into results — callers reset what
/// they read. The deterministic-reduction contract is unaffected: pooling
/// changes where scratch memory lives, not what any chunk computes.
#[derive(Debug)]
pub struct WorkspacePool<T> {
    slots: Mutex<Vec<T>>,
}

// Manual impl: an empty pool needs no `T: Default`.
impl<T> Default for WorkspacePool<T> {
    fn default() -> Self {
        WorkspacePool::new()
    }
}

impl<T> WorkspacePool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        WorkspacePool {
            slots: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        // A worker panic mid-checkout only loses that buffer; the pool
        // itself stays usable.
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Check a buffer out, building a fresh one with `make` when the pool
    /// is empty. The guard returns it on drop.
    pub fn acquire(&self, make: impl FnOnce() -> T) -> PoolGuard<'_, T> {
        let value = self.take(make);
        PoolGuard {
            pool: self,
            value: Some(value),
        }
    }

    /// Check a buffer out *by value* (caller must [`WorkspacePool::put`] it
    /// back to keep the pool warm).
    pub fn take(&self, make: impl FnOnce() -> T) -> T {
        let recycled = self.lock().pop();
        recycled.unwrap_or_else(make)
    }

    /// Return a buffer to the pool.
    pub fn put(&self, value: T) {
        self.lock().push(value);
    }

    /// Number of idle buffers currently pooled (diagnostics/tests).
    pub fn idle(&self) -> usize {
        self.lock().len()
    }
}

/// RAII checkout from a [`WorkspacePool`]; derefs to the buffer and checks
/// it back in on drop.
#[derive(Debug)]
pub struct PoolGuard<'a, T> {
    pool: &'a WorkspacePool<T>,
    value: Option<T>,
}

impl<T> Deref for PoolGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value.as_ref().expect("present until drop")
    }
}

impl<T> DerefMut for PoolGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("present until drop")
    }
}

impl<T> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(v) = self.value.take() {
            self.pool.put(v);
        }
    }
}

/// Parallel map-reduce over the fixed chunk grid: per-chunk values from
/// `map` are folded into `init` **in ascending chunk order** with `fold`.
///
/// `fold` runs on the calling thread, so the accumulator needs no `Send`
/// bound and the reduction order is a pure function of the grid.
pub fn fold_chunks<T, A, M, F>(n_items: usize, chunk_size: usize, init: A, map: M, fold: F) -> A
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    map_chunks(n_items, chunk_size, map)
        .into_iter()
        .fold(init, fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_grid_is_fixed_and_covering() {
        let ranges: Vec<_> = chunk_ranges(10, 4).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(0, 4).count(), 0);
        assert_eq!(chunk_ranges(4, 4).count(), 1);
        // chunk_size 0 is clamped to 1 rather than looping forever.
        assert_eq!(chunk_ranges(3, 0).count(), 3);
    }

    #[test]
    fn map_chunks_returns_chunk_order() {
        for threads in [1usize, 2, 4, 7] {
            set_num_threads(Some(threads));
            let got = map_chunks(23, 5, |r| r.start);
            assert_eq!(got, vec![0, 5, 10, 15, 20], "threads = {threads}");
        }
        set_num_threads(None);
    }

    #[test]
    fn reduction_is_bitwise_thread_count_independent() {
        // A sum of floats whose value depends on association order: if the
        // merge order varied with the thread count, the bits would differ.
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i as f64 * 0.73).sin() * 1e10).exp2().fract() + 1e-3)
            .collect();
        let sum_with = |threads: usize| -> u64 {
            set_num_threads(Some(threads));
            let s = fold_chunks(
                xs.len(),
                64,
                0.0f64,
                |r| xs[r].iter().sum::<f64>(),
                |a, b| a + b,
            );
            set_num_threads(None);
            s.to_bits()
        };
        let reference = sum_with(1);
        for threads in [2usize, 3, 4, 8] {
            assert_eq!(sum_with(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn env_override_is_respected() {
        set_num_threads(None);
        std::env::set_var("TCSS_NUM_THREADS", "3");
        assert_eq!(num_threads(), 3);
        std::env::set_var("TCSS_NUM_THREADS", "not-a-number");
        assert!(num_threads() >= 1);
        std::env::remove_var("TCSS_NUM_THREADS");
        // Programmatic override beats the environment.
        std::env::set_var("TCSS_NUM_THREADS", "3");
        set_num_threads(Some(2));
        assert_eq!(num_threads(), 2);
        set_num_threads(None);
        std::env::remove_var("TCSS_NUM_THREADS");
    }

    #[test]
    fn empty_input_yields_empty_map() {
        assert!(map_chunks(0, 8, |r| r.len()).is_empty());
        assert_eq!(fold_chunks(0, 8, 42usize, |r| r.len(), |a, b| a + b), 42);
    }

    #[test]
    fn map_chunks_with_builds_one_workspace_per_worker() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1usize, 3] {
            set_num_threads(Some(threads));
            let built = AtomicUsize::new(0);
            // 40 chunks, far more than workers: the workspace count must
            // track workers, never chunks.
            let got = map_chunks_with(
                40,
                1,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |ws, r| {
                    *ws += 1; // workspace reuse is visible worker-locally
                    r.start
                },
            );
            assert_eq!(got, (0..40).collect::<Vec<_>>(), "threads = {threads}");
            assert!(
                built.load(Ordering::Relaxed) <= threads,
                "built {} workspaces with {threads} workers",
                built.load(Ordering::Relaxed)
            );
        }
        set_num_threads(None);
    }

    #[test]
    fn workspace_pool_recycles_buffers() {
        let pool: WorkspacePool<Vec<f64>> = WorkspacePool::new();
        {
            let mut g = pool.acquire(|| Vec::with_capacity(64));
            g.push(1.0);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 1);
        // The recycled buffer keeps its capacity (that's the whole point).
        let v = pool.take(Vec::new);
        assert!(v.capacity() >= 64);
        pool.put(v);
        assert_eq!(pool.idle(), 1);
    }
}
