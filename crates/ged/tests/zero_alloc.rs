//! The approximate GED distance path allocates nothing in the steady state.
//!
//! A counting `#[global_allocator]` needs a binary of its own; the count is
//! per thread, so the test harness's other threads do not disturb it. A
//! `BestOfThree` call that forks its Hungarian solve pays the spawn's own
//! bookkeeping on the calling thread — a constant, whatever the pair size —
//! and nothing on the helper thread, which is counted apart: allocations
//! made while [`ARMED`] on any thread but the measuring one.

use lan_ged::engine::FORK_MIN_ROWS;
use lan_ged::{ged, GedMethod};
use lan_graph::generators::{molecule_like, power_law_like};
use lan_graph::Graph;
use lan_par::{par_map_dyn, testenv, Grain};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    /// Const-initialized and without a destructor, so reading it from
    /// inside the allocator never allocates and never finds it torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Set on the thread that measures; the others count in [`ELSEWHERE`].
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// While set, allocations on threads other than the measuring one are
/// counted in [`ELSEWHERE`].
static ARMED: AtomicBool = AtomicBool::new(false);
static ELSEWHERE: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    if ARMED.load(Ordering::Relaxed) && !MEASURING.try_with(Cell::get).unwrap_or(false) {
        ELSEWHERE.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const METHODS: [GedMethod; 4] = [
    GedMethod::BestOfThree { beam_width: 4 },
    GedMethod::Hungarian,
    GedMethod::Vj,
    GedMethod::Beam { width: 4 },
];

/// Allocations the calling thread of a forked `BestOfThree` call may make:
/// the scoped spawn's bookkeeping and the `LAN_THREADS` read (5 in all with
/// the standard library of Rust 1.95), never a buffer that grows with the
/// pair.
const FORK_BOOKKEEPING: u64 = 8;

/// Pairs to warm the scratch with, and one never seen before the measured
/// calls but no larger than a warmed pair (the scratch keeps capacity, not
/// a size): AIDS-sized molecules, which fork, and SYN-sized power-law
/// graphs, which do not, in both argument orders (the beam search swaps to
/// the smaller side).
fn pairs() -> (Vec<(Graph, Graph)>, (Graph, Graph)) {
    let mut rng = StdRng::seed_from_u64(0x0a11);
    let mut warmed: Vec<(Graph, Graph)> = Vec::new();
    for (n1, n2) in [(32, 30), (24, 32), (20, 21)] {
        let a = molecule_like(&mut rng, n1, 2, 4, 51);
        let b = molecule_like(&mut rng, n2, 1, 4, 51);
        warmed.push((b.clone(), a.clone()));
        warmed.push((a, b));
    }
    for (n1, n2) in [(12, 9), (8, 14)] {
        let a = power_law_like(&mut rng, n1, 2, 2, 5);
        let b = power_law_like(&mut rng, n2, 2, 1, 5);
        warmed.push((a, b));
    }
    let unseen = (
        molecule_like(&mut rng, 27, 3, 4, 51),
        molecule_like(&mut rng, 29, 0, 4, 51),
    );
    (warmed, unseen)
}

fn forks(a: &Graph, b: &Graph, m: &GedMethod) -> bool {
    matches!(m, GedMethod::BestOfThree { .. }) && a.node_count() + b.node_count() >= FORK_MIN_ROWS
}

/// Warms this thread's scratch on every pair and method, then returns the
/// allocations of each steady-state call on this thread and elsewhere,
/// with whether it forked.
fn steady_state_allocations() -> Vec<(bool, u64, u64)> {
    let (warmed, unseen) = pairs();
    for (a, b) in &warmed {
        for m in &METHODS {
            ged(a, b, m).unwrap();
        }
    }
    // The counter is wired up: a fresh buffer is seen.
    let before = allocations();
    std::hint::black_box(Vec::<u8>::with_capacity(64));
    assert_eq!(allocations() - before, 1);

    let mut made = Vec::new();
    for (a, b) in warmed.iter().chain([&unseen]) {
        for m in &METHODS {
            let elsewhere = ELSEWHERE.load(Ordering::Relaxed);
            let before = allocations();
            let d = ged(a, b, m);
            let here = allocations() - before;
            assert!(d.unwrap() > 0.0);
            made.push((
                forks(a, b, m),
                here,
                ELSEWHERE.load(Ordering::Relaxed) - elsewhere,
            ));
        }
    }
    made
}

#[test]
fn serial_ged_allocates_nothing_after_warm_up() {
    // Two workers on two threads: each has a budget of one, so a
    // `BestOfThree` call runs all three solves on the worker's thread —
    // the way every GED call in a build or ground-truth fan-out runs.
    let made = testenv::with_env(&[("LAN_THREADS", Some("2"))], || {
        par_map_dyn(&[0u8, 1], Grain::Fine, |_| steady_state_allocations())
    });
    for (forkable, here, _) in made.into_iter().flatten() {
        assert_eq!(here, 0, "a serial call allocated (fork-sized: {forkable})");
    }
}

#[test]
fn forked_ged_allocates_only_the_spawn_and_nothing_on_the_helper() {
    let made = testenv::with_env(&[("LAN_THREADS", Some("2"))], || {
        MEASURING.with(|m| m.set(true));
        ARMED.store(true, Ordering::Relaxed);
        let made = steady_state_allocations();
        ARMED.store(false, Ordering::Relaxed);
        MEASURING.with(|m| m.set(false));
        made
    });
    let per_fork: Vec<u64> = made.iter().filter(|m| m.0).map(|m| m.1).collect();
    assert!(!per_fork.is_empty());
    assert!(
        per_fork.iter().all(|&n| n == per_fork[0]),
        "forked calls allocated differently by pair size: {per_fork:?}"
    );
    for (forked, here, elsewhere) in made {
        assert_eq!(elsewhere, 0, "the helper thread allocated");
        if forked {
            assert!(
                (1..=FORK_BOOKKEEPING).contains(&here),
                "a forked call made {here} allocations"
            );
        } else {
            assert_eq!(here, 0, "an unforked call allocated");
        }
    }
}
