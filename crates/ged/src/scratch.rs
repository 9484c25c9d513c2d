//! Per-thread scratch buffers for the approximate GED kernels.
//!
//! Routing evaluates thousands of candidate distances per query, and every
//! approximate kernel needs working memory proportional to the pair: the
//! `(n1 + n2)²` Riesen–Bunke matrix and the LSAP solvers' row/column
//! arrays, both graphs' sorted neighbor-label lists, the derived node
//! mapping and its `hit` mask, and the beam search's candidate list and
//! double-buffered frontier. [`GedScratch`] owns all of it and is reused
//! through a `thread_local` (mirroring `lan-gnn`'s `InferScratch`): once a
//! thread has seen its largest pair, a distance call through
//! [`crate::engine::ged`] with `Hungarian`, `Vj`, `Beam` or `BestOfThree`
//! performs no heap allocation of its own — a forked `BestOfThree` call
//! (below) pays only the spawn's bookkeeping, the same few allocations
//! whatever the pair size (`tests/zero_alloc.rs` counts them).
//!
//! Every user reinitializes the buffers it touches, so a scratch carries
//! capacity between calls and never state: reuse is bit-identical to fresh
//! allocation (property-tested in [`crate::assignment`],
//! [`crate::bipartite`] and `tests/kernel_equivalence.rs`).
//!
//! # Two slots for one `BestOfThree` call
//!
//! From [`crate::engine::FORK_MIN_ROWS`] matrix rows up, and when the
//! thread budget allows, `BestOfThree` forks its Hungarian solve onto a
//! second thread while the calling thread runs VJ and then the beam
//! search. Both halves read the one cost matrix; each writes only its own
//! [`MappingOut`] and [`AssignScratch`] — `out`/`assign` on the caller,
//! `fork_out`/`fork_assign` on the helper — so they share no mutable
//! memory, and the helper thread grows buffers of the caller's scratch
//! instead of a thread-local of its own: once warmed up it never touches
//! the allocator.

use crate::assignment::{AssignScratch, CostMatrix};
use crate::beam::BeamScratch;
use crate::bipartite::NeighborLabels;
use lan_graph::NodeId;
use std::cell::RefCell;

/// Reusable buffers for one thread's GED computations.
#[derive(Debug, Default)]
pub struct GedScratch {
    /// LSAP solver working arrays (Hungarian + LAPJV) and the last
    /// assignment.
    pub assign: AssignScratch,
    /// Riesen–Bunke cost matrix.
    pub cost: CostMatrix,
    /// Sorted neighbor labels of every `g1` / `g2` node, built once per
    /// cost matrix.
    pub(crate) nl1: NeighborLabels,
    pub(crate) nl2: NeighborLabels,
    /// The node mapping behind the last approximate distance.
    pub(crate) out: MappingOut,
    /// Beam-search candidates and frontier.
    pub(crate) beam: BeamScratch,
    /// `BestOfThree`'s forked Hungarian solve: its solver arrays and
    /// mapping.
    pub(crate) fork_assign: AssignScratch,
    pub(crate) fork_out: MappingOut,
}

impl GedScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Where an approximate distance leaves the node mapping it derived, with
/// `mapping_cost`'s image mask.
#[derive(Debug, Default)]
pub(crate) struct MappingOut {
    pub(crate) map: Vec<NodeId>,
    pub(crate) hit: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<GedScratch> = RefCell::new(GedScratch::new());
}

/// Runs `f` with this thread's [`GedScratch`].
///
/// Not reentrant: `f` must not call `with_scratch` again (the kernels take
/// the scratch as an explicit parameter below the entry points, so this
/// cannot happen from within this crate).
pub fn with_scratch<R>(f: impl FnOnce(&mut GedScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
