//! Steady-state allocations of the training hot path do not grow with
//! the amount of work in a call.
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
//! The social-Hausdorff head draws every per-user buffer (slice,
//! candidate set, pair-loop and contracted-backprop scratch) from the
//! workspace's `UserScratch` pool, so its warmed per-call count does not
//! depend on the user count either.
//!
//! The counting `#[global_allocator]` sees every thread of the process,
//! so the tests take one lock and never count concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tcss_core::loss::{rewritten_loss_and_grad_ws, Grads};
use tcss_core::{random_init, HausdorffVariant, SocialHausdorffHead, TcssModel, TrainWorkspace};
use tcss_data::{SynthConfig, SynthPreset};
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

/// Held for the whole of each test, so no other test allocates while one
/// counts.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocations of the cheapest of three calls after two warm-up calls.
fn steady(mut call: impl FnMut()) -> u64 {
    let mut counted = || {
        let before = ALLOCS.load(Ordering::Relaxed);
        call();
        ALLOCS.load(Ordering::Relaxed) - before
    };
    counted();
    counted();
    (0..3).map(|_| counted()).min().expect("three calls")
}

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
    steady(|| {
        grads.set_zero();
        std::hint::black_box(rewritten_loss_and_grad_ws(
            model, entries, 0.95, 0.05, &ws, &mut grads,
        ));
    })
}

#[test]
fn warmed_rewritten_loss_allocations_do_not_grow_with_chunk_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// Users in the smaller head fixture: 8 chunks of 8 users; the larger
/// one has twice as many users and chunks.
const HEAD_USERS: usize = 64;
/// Allowed growth from the smaller to the larger head fixture: each
/// worker's result list may reallocate as its chunk share doubles, while a
/// per-user buffer would add at least one allocation per added user (64)
/// and a per-chunk one at least one per added chunk (8).
const MAX_HEAD_GROWTH: u64 = 6;

/// Warmed per-call allocations of `SocialHausdorffHead::loss_and_grad_ws`
/// on a synthetic LBSN with `n_users` users.
fn steady_head_allocs(n_users: usize) -> u64 {
    let data = tcss_data::synth::generate(&SynthConfig {
        n_users,
        n_pois: 60,
        n_clusters: 4,
        avg_checkins_per_user: 12,
        avg_friends: 4,
        ..SynthPreset::Gowalla.config()
    });
    let head = SocialHausdorffHead::new(
        &data,
        &data.checkins,
        HausdorffVariant::Social,
        Default::default(),
        None,
    );
    let (u1, u2, u3) = random_init((n_users, data.pois.len(), 12), 10, 5);
    let model = TcssModel::new(u1, u2, u3);
    let ws = TrainWorkspace::new();
    let mut grads = Grads::zeros(&model);
    steady(|| {
        grads.set_zero();
        std::hint::black_box(head.loss_and_grad_ws(&model, &mut grads, 240.0, &ws));
    })
}

#[test]
fn warmed_hausdorff_head_allocations_do_not_grow_with_user_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 4] {
        set_num_threads(Some(threads));
        let small = steady_head_allocs(HEAD_USERS);
        let large = steady_head_allocs(2 * HEAD_USERS);
        assert!(small > 0, "the counting allocator saw nothing");
        assert!(
            large <= small + MAX_HEAD_GROWTH,
            "{threads} thread(s): {large} allocations per head call at {} users \
             vs {small} at {HEAD_USERS} — something allocates per user or per chunk",
            2 * HEAD_USERS
        );
    }
    set_num_threads(None);
}
