//! The approximate GED distance path allocates nothing in the steady state.
//!
//! A counting `#[global_allocator]` needs a binary of its own; the count is
//! per thread, so the test harness's other threads do not disturb it.

use lan_ged::{ged, GedMethod};
use lan_graph::generators::{molecule_like, power_law_like};
use lan_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    /// Const-initialized and without a destructor, so reading it from
    /// inside the allocator never allocates and never finds it torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
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

/// The workload methods, and width 16 (`Dataset::fallback_metric`'s
/// `BestOfThree`), where the beam's top-w set and frontier rows outgrow
/// their width-4 sizes.
const METHODS: [GedMethod; 6] = [
    GedMethod::BestOfThree { beam_width: 4 },
    GedMethod::Hungarian,
    GedMethod::Vj,
    GedMethod::Beam { width: 4 },
    GedMethod::Beam { width: 16 },
    GedMethod::BestOfThree { beam_width: 16 },
];

/// Pairs to warm the scratch with, and one never seen before the measured
/// calls but no larger than a warmed pair (the scratch keeps capacity, not
/// a size): AIDS-sized molecules and SYN-sized power-law graphs, in both
/// argument orders (the beam search swaps to the smaller side), and one
/// molecule pair whose 136-column Riesen–Bunke matrix spans three words of
/// the Hungarian kernel's zero-column bitset.
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
    let a = molecule_like(&mut rng, 70, 3, 4, 51);
    let b = molecule_like(&mut rng, 66, 2, 4, 51);
    assert!(a.node_count() + b.node_count() > 128);
    warmed.push((a, b));
    let unseen = (
        molecule_like(&mut rng, 27, 3, 4, 51),
        molecule_like(&mut rng, 29, 0, 4, 51),
    );
    (warmed, unseen)
}

/// Warms this thread's scratch on every pair and method, then asserts that
/// each steady-state call allocates nothing.
#[test]
fn ged_allocates_nothing_after_warm_up() {
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

    for (a, b) in warmed.iter().chain([&unseen]) {
        for m in &METHODS {
            let before = allocations();
            let d = ged(a, b, m);
            let made = allocations() - before;
            assert!(d.unwrap() > 0.0);
            assert_eq!(
                made,
                0,
                "{m:?} allocated on a {}+{}-node pair",
                a.node_count(),
                b.node_count()
            );
        }
    }
}
