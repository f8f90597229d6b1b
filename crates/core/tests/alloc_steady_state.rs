//! Steady-state allocations of the rewritten loss do not grow with the
//! number of entry chunks.
//!
//! The production entry loop recycles its sparse chunk deltas through a
//! pooled [`TrainWorkspace`], so once the pools are warm a call allocates
//! a fixed number of times (thread spawns, the Gram tail's `r × r`
//! matrices, the in-order result list) however many 1024-entry chunks the
//! tensor has. The dense-chunk fold it replaced allocated a model-sized
//! gradient buffer per chunk: 496 allocations per call at 65 chunks
//! against 364 at 33 on a 600 × 3000 × 12 tensor, where the sparse path
//! made 227 against 226.
//!
//! The counting `#[global_allocator]` sees every thread of the process,
//! so this binary holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tcss_core::loss::{rewritten_loss_and_grad_ws, Grads};
use tcss_core::{random_init, TcssModel, TrainWorkspace};
use tcss_linalg::set_num_threads;
use tcss_sparse::{SparseTensor3, TensorEntry};

/// Forwards to the system allocator, counting every allocation and
/// reallocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a `Relaxed`
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DIMS: (usize, usize, usize) = (600, 3000, 12);
/// 64 chunks of 1024 entries; the half tensor has 32.
const ENTRIES: usize = 64 * 1024;
/// Allowed growth from the half to the full tensor. Each worker's result
/// list may reallocate a time or two as its chunk share doubles (+1 at 2
/// threads, +6 at 4 on a 2-CPU host); a per-chunk buffer adds at least one
/// allocation per added chunk (32 here, four times that for a dense
/// `Grads`).
const MAX_GROWTH: u64 = 16;

/// Allocations of the cheapest of three calls on a workspace warmed by two
/// earlier calls on the same entries.
fn steady_allocs(model: &TcssModel, entries: &[TensorEntry]) -> u64 {
    let ws = TrainWorkspace::new();
    let mut grads = Grads::zeros(model);
    let mut call = || {
        grads.set_zero();
        let before = ALLOCS.load(Ordering::Relaxed);
        std::hint::black_box(rewritten_loss_and_grad_ws(
            model, entries, 0.95, 0.05, &ws, &mut grads,
        ));
        ALLOCS.load(Ordering::Relaxed) - before
    };
    call();
    call();
    (0..3).map(|_| call()).min().expect("three calls")
}

#[test]
fn warmed_rewritten_loss_allocations_do_not_grow_with_chunk_count() {
    // Distinct cells: 7919 is prime and does not divide the cell count.
    let cells = DIMS.0 * DIMS.1 * DIMS.2;
    let raw = (0..ENTRIES).map(|e| {
        let c = (e * 7919 + 13) % cells;
        (
            c / (DIMS.1 * DIMS.2),
            (c / DIMS.2) % DIMS.1,
            c % DIMS.2,
            1.0,
        )
    });
    let tensor = SparseTensor3::from_entries(DIMS, raw).expect("in range");
    let entries = tensor.entries();
    assert_eq!(entries.len(), ENTRIES);
    let (u1, u2, u3) = random_init(DIMS, 10, 5);
    let model = TcssModel::new(u1, u2, u3);
    for threads in [1, 2, 4] {
        set_num_threads(Some(threads));
        let full = steady_allocs(&model, entries);
        let half = steady_allocs(&model, &entries[..ENTRIES / 2]);
        assert!(full > 0, "the counting allocator saw nothing");
        assert!(
            full <= half + MAX_GROWTH,
            "{threads} thread(s): {full} allocations per call at 64 chunks \
             vs {half} at 32 — something allocates per chunk"
        );
    }
    set_num_threads(None);
}
