//! Exact GED by A\* search over node mappings.
//!
//! The classic formulation: nodes of `g1` are assigned in index order to a
//! node of `g2` or to ε (deletion); leaves of the search tree are complete
//! [`NodeMapping`]s. `g` is the exact cost of the edits already fixed by the
//! prefix, `h` an admissible bound on the remaining cost (label multiset on
//! unassigned labels + remaining-edge-count difference), so the first leaf
//! popped from the open list is an optimal edit path.
//!
//! The heuristic is allocation-free: the sorted label suffixes of `g1` are
//! precomputed once per search, and the remaining `g2` multiset is streamed
//! from a label-sorted node list filtered by the `used` bitmask
//! ([`crate::lower_bounds::masked_label_multiset_lb`]) — the values are
//! identical to the allocating oracle, so the search order is unchanged.
//!
//! GED is NP-hard; the search accepts a deadline and an expansion cap and
//! reports [`ExactOutcome::TimedOut`] when exceeded — the ground-truth
//! protocol (paper §VII) then falls back to the approximations. The
//! deadline is only polled every [`ExactLimits::poll_stride`] expansions
//! (default 256, [`set_default_poll_stride`] to change it), keeping
//! timing syscalls out of the expansion loop
//! while bounding the worst-case deadline overshoot to one stride.
//!
//! [`exact_ged_within`] is the threshold-gated variant: branches whose
//! `g + h` reaches `tau` are pruned, and if every branch is pruned the
//! search reports a certified lower bound instead of a distance — the
//! branch-and-bound tier of the `ged_within` cascade.

use crate::lower_bounds::masked_label_multiset_lb;
use crate::mapping::{mapping_cost, NodeMapping, EPS};
use lan_graph::{Graph, Label, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::time::Instant;

/// Result of an exact GED attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactOutcome {
    /// The optimal distance and one optimal mapping.
    Optimal { distance: f64, mapping: NodeMapping },
    /// Deadline or expansion cap hit before proving optimality.
    TimedOut,
}

impl ExactOutcome {
    /// The distance if optimal.
    pub fn distance(&self) -> Option<f64> {
        match self {
            ExactOutcome::Optimal { distance, .. } => Some(*distance),
            ExactOutcome::TimedOut => None,
        }
    }
}

/// Result of a threshold-gated exact GED attempt ([`exact_ged_within`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ExactWithin {
    /// The true distance is below the threshold; this is it, with one
    /// optimal mapping.
    Optimal { distance: f64, mapping: NodeMapping },
    /// Every branch reached `g + h >= tau`: the true distance is at least
    /// this value (which is `>= tau`).
    AtLeast(f64),
    /// Deadline or expansion cap hit before a verdict.
    TimedOut,
}

/// Limits for the exact search.
#[derive(Debug, Clone, Copy)]
pub struct ExactLimits {
    /// Wall-clock budget in milliseconds (the paper uses 10 s for ground
    /// truth).
    pub timeout_ms: u64,
    /// Hard cap on A\* expansions, bounding memory.
    pub max_expansions: usize,
    /// Deadline poll interval in A\* expansions: the wall clock is read
    /// once every `poll_stride` expansions, so an expired deadline
    /// overshoots by at most `poll_stride` expansions (pinned by the
    /// `poll_stride_bounds_deadline_overshoot` test). Smaller strides
    /// honor deadlines more tightly at the cost of more `Instant::now`
    /// calls; the serving path tightens the process default via
    /// [`set_default_poll_stride`] so shed deadlines are respected with
    /// bounded overshoot.
    pub poll_stride: usize,
}

impl Default for ExactLimits {
    fn default() -> Self {
        ExactLimits {
            timeout_ms: 10_000,
            max_expansions: 2_000_000,
            poll_stride: default_poll_stride(),
        }
    }
}

/// Programmatic override of the default deadline poll stride (`0` means
/// "unset").
static DEFAULT_POLL_STRIDE_CELL: AtomicUsize = AtomicUsize::new(0);

/// The historical hard-coded poll interval, used unless
/// [`set_default_poll_stride`] overrides it.
const BASE_POLL_STRIDE: usize = 256;

/// Sets the process-wide default for [`ExactLimits::poll_stride`]
/// (clamped to >= 1). The serving front-end calls this at boot to tighten
/// deadline honoring without requiring every caller to thread a stride
/// through the cascade.
pub fn set_default_poll_stride(stride: usize) {
    DEFAULT_POLL_STRIDE_CELL.store(stride.max(1), AtomicOrdering::Relaxed);
}

/// Resolves the default poll stride: the programmatic override, else the
/// historical 256.
fn default_poll_stride() -> usize {
    match DEFAULT_POLL_STRIDE_CELL.load(AtomicOrdering::Relaxed) {
        0 => BASE_POLL_STRIDE,
        s => s,
    }
}

#[derive(Clone)]
struct State {
    /// Assignment of g1 nodes 0..map.len().
    map: Vec<NodeId>,
    used: u64, // bitmask over g2 nodes (n2 <= 64 enforced by fallback)
    g: f64,
    fixed2: u32, // g2 edges with both endpoints used
}

struct HeapItem {
    f: f64,
    depth: usize,
    seq: u64,
    state: State,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.depth == other.depth && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f; deeper states first on ties (depth-first bias finds
        // complete mappings sooner); FIFO on seq for determinism.
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then(self.depth.cmp(&other.depth))
            .then(other.seq.cmp(&self.seq))
    }
}

/// Exact GED between `g1` and `g2` under the unit cost model.
///
/// Graphs with more than 64 nodes on the smaller side are rejected as
/// [`ExactOutcome::TimedOut`] (the bitmask state would overflow; the paper's
/// protocol would time such pairs out anyway).
pub fn exact_ged(g1: &Graph, g2: &Graph, limits: &ExactLimits) -> ExactOutcome {
    match exact_ged_within(g1, g2, limits, f64::INFINITY) {
        ExactWithin::Optimal { distance, mapping } => ExactOutcome::Optimal { distance, mapping },
        // Unreachable with an infinite threshold; defensive mapping only.
        ExactWithin::AtLeast(_) => ExactOutcome::TimedOut,
        ExactWithin::TimedOut => ExactOutcome::TimedOut,
    }
}

/// Exact GED, aborting as soon as the distance is provably `>= tau`.
///
/// Identical search to [`exact_ged`] except that branches with
/// `g + h >= tau` are never enqueued; if the open list drains, the minimum
/// pruned `f` is a certified lower bound on the true distance (every leaf
/// descends from some pruned branch, and `h` is admissible).
pub fn exact_ged_within(g1: &Graph, g2: &Graph, limits: &ExactLimits, tau: f64) -> ExactWithin {
    exact_ged_within_counted(g1, g2, limits, tau).0
}

/// [`exact_ged_within`] that additionally reports how many A\* expansions
/// ran — the observable the deadline-overshoot test pins down (`TimedOut`
/// with an already-expired deadline must happen within one
/// [`ExactLimits::poll_stride`] of expansions).
pub fn exact_ged_within_counted(
    g1: &Graph,
    g2: &Graph,
    limits: &ExactLimits,
    tau: f64,
) -> (ExactWithin, usize) {
    // Map from the smaller graph for a shallower tree; GED is symmetric.
    if g1.node_count() > g2.node_count() {
        let (out, n) = exact_ged_within_counted(g2, g1, limits, tau);
        return match out {
            ExactWithin::Optimal { distance, mapping } => {
                // Invert the mapping direction.
                let mut inv = vec![EPS; g1.node_count()];
                for (u, &v) in mapping.map.iter().enumerate() {
                    if v != EPS {
                        inv[v as usize] = u as NodeId;
                    }
                }
                (
                    ExactWithin::Optimal {
                        distance,
                        mapping: NodeMapping { map: inv },
                    },
                    n,
                )
            }
            t => (t, n),
        };
    }
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    if n2 > 64 {
        return (ExactWithin::TimedOut, 0);
    }
    let deadline = Instant::now() + std::time::Duration::from_millis(limits.timeout_ms);

    // r1[i]: g1 edges not yet fixed when the first i nodes are assigned
    // (an edge (u,w), u<w is fixed once w < i).
    let mut r1 = vec![0u32; n1 + 1];
    for (i, r) in r1.iter_mut().enumerate() {
        *r = g1.edges().filter(|&(_, w)| (w as usize) >= i).count() as u32;
    }
    let e2 = g2.edge_count() as u32;

    // Precomputed heuristic inputs: sorted label suffixes of g1 (suffix i =
    // labels of the unassigned nodes i..), and g2's nodes sorted by label so
    // the remaining multiset streams from the used mask without allocating.
    let mut suffixes: Vec<Vec<Label>> = Vec::with_capacity(n1 + 1);
    for i in 0..=n1 {
        let mut s = g1.labels()[i..].to_vec();
        s.sort_unstable();
        suffixes.push(s);
    }
    let mut g2_sorted: Vec<(Label, NodeId)> = g2
        .labels()
        .iter()
        .enumerate()
        .map(|(v, &l)| (l, v as NodeId))
        .collect();
    g2_sorted.sort_unstable();
    let heuristic = |i: usize, used: u64, fixed2: u32| -> f64 {
        // Node part: label multiset LB between remaining g1 labels and
        // unused g2 labels; edge part: remaining edge-count difference.
        let node_lb =
            masked_label_multiset_lb(&suffixes[i], &g2_sorted, |v| used & (1u64 << v) != 0);
        let re1 = r1[i] as f64;
        let re2 = (e2 - fixed2) as f64;
        node_lb + (re1 - re2).abs()
    };

    // Minimum f over branches pruned by tau — a lower bound on every leaf
    // below them, hence on the distance if the open list drains.
    let mut min_pruned = f64::INFINITY;

    let h0 = heuristic(0, 0, 0);
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
    let mut seq = 0u64;
    if h0 < tau {
        heap.push(HeapItem {
            f: h0,
            depth: 0,
            seq,
            state: State {
                map: Vec::new(),
                used: 0,
                g: 0.0,
                fixed2: 0,
            },
        });
    } else {
        min_pruned = h0;
    }

    let poll_stride = limits.poll_stride.max(1);
    let mut expansions = 0usize;
    while let Some(HeapItem { state, .. }) = heap.pop() {
        expansions += 1;
        if expansions.is_multiple_of(poll_stride) && Instant::now() > deadline {
            return (ExactWithin::TimedOut, expansions);
        }
        if expansions > limits.max_expansions {
            return (ExactWithin::TimedOut, expansions);
        }
        let i = state.map.len();
        if i == n1 {
            // Complete: add insertion cost for unused g2 nodes and edges.
            let mapping = NodeMapping { map: state.map };
            let distance = mapping_cost(g1, g2, &mapping);
            // Sanity: terminal g must agree with the induced path cost.
            debug_assert!(
                (terminal_cost(&state.g, n2, state.used, e2, state.fixed2) - distance).abs() < 1e-9
            );
            return (ExactWithin::Optimal { distance, mapping }, expansions);
        }
        let u = i as NodeId;
        // Child: u -> v for each unused v.
        for v in 0..n2 as NodeId {
            if state.used & (1u64 << v) != 0 {
                continue;
            }
            let mut g = state.g;
            if g1.label(u) != g2.label(v) {
                g += 1.0;
            }
            // Edge costs against already-assigned nodes. Every g2 edge from
            // v into the used set corresponds to exactly one assigned j
            // (used nodes are exactly the mapped targets), so this loop
            // accounts for all newly fixed edges of both graphs: matched
            // pairs are free, mismatches cost one deletion or insertion.
            let mut fixed2 = state.fixed2;
            for j in 0..i {
                let w = j as NodeId;
                let pv = state.map[j];
                let e1 = g1.has_edge(u, w);
                let e2e = pv != EPS && g2.has_edge(v, pv);
                if e1 != e2e {
                    g += 1.0;
                }
                if e2e {
                    fixed2 += 1;
                }
            }

            let used = state.used | (1u64 << v);
            let h = heuristic(i + 1, used, fixed2);
            let f = g + h;
            if f >= tau {
                min_pruned = min_pruned.min(f);
                continue;
            }
            let mut map = state.map.clone();
            map.push(v);
            seq += 1;
            heap.push(HeapItem {
                f,
                depth: i + 1,
                seq,
                state: State {
                    map,
                    used,
                    g,
                    fixed2,
                },
            });
        }
        // Child: u -> EPS (delete u and its edges to assigned nodes).
        {
            let mut g = state.g + 1.0;
            for j in 0..i {
                if g1.has_edge(u, j as NodeId) {
                    g += 1.0;
                }
            }
            let h = heuristic(i + 1, state.used, state.fixed2);
            let f = g + h;
            if f >= tau {
                min_pruned = min_pruned.min(f);
            } else {
                let mut map = state.map.clone();
                map.push(EPS);
                seq += 1;
                heap.push(HeapItem {
                    f,
                    depth: i + 1,
                    seq,
                    state: State {
                        map,
                        used: state.used,
                        g,
                        fixed2: state.fixed2,
                    },
                });
            }
        }
    }
    // The open list drained: every branch hit the threshold. With an
    // infinite tau this is unreachable (the ε-child is always enqueued, so
    // some leaf is reached first).
    debug_assert!(min_pruned >= tau);
    (ExactWithin::AtLeast(min_pruned), expansions)
}

/// Terminal completion cost: unused g2 nodes inserted, plus g2 edges not yet
/// fixed (each such edge has an unused endpoint, hence must be inserted).
fn terminal_cost(g: &f64, n2: usize, used: u64, e2: u32, fixed2: u32) -> f64 {
    let unused = n2 as u32 - used.count_ones();
    g + unused as f64 + (e2 - fixed2) as f64
}

/// Brute-force exact GED by exhaustive mapping enumeration. Exponential —
/// test oracle only (n1, n2 ≤ ~6).
pub fn brute_force_ged(g1: &Graph, g2: &Graph) -> f64 {
    fn rec(g1: &Graph, g2: &Graph, map: &mut Vec<NodeId>, used: &mut Vec<bool>, best: &mut f64) {
        if map.len() == g1.node_count() {
            let cost = mapping_cost(g1, g2, &NodeMapping { map: map.clone() });
            if cost < *best {
                *best = cost;
            }
            return;
        }
        for v in 0..g2.node_count() {
            if !used[v] {
                used[v] = true;
                map.push(v as NodeId);
                rec(g1, g2, map, used, best);
                map.pop();
                used[v] = false;
            }
        }
        map.push(EPS);
        rec(g1, g2, map, used, best);
        map.pop();
    }
    let mut best = f64::INFINITY;
    rec(
        g1,
        g2,
        &mut Vec::new(),
        &mut vec![false; g2.node_count()],
        &mut best,
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bounds::label_size_lb;
    use lan_graph::generators::erdos_renyi;
    use lan_graph::perturb::perturb;
    use lan_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fig2() -> (Graph, Graph) {
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        (g, q)
    }

    #[test]
    fn identical_graphs() {
        let (g, _) = fig2();
        let out = exact_ged(&g, &g, &ExactLimits::default());
        assert_eq!(out.distance(), Some(0.0));
    }

    #[test]
    fn fig2_is_five() {
        let (g, q) = fig2();
        assert_eq!(
            exact_ged(&g, &q, &ExactLimits::default()).distance(),
            Some(5.0)
        );
        assert_eq!(brute_force_ged(&g, &q), 5.0);
    }

    #[test]
    fn symmetry() {
        let (g, q) = fig2();
        let d1 = exact_ged(&g, &q, &ExactLimits::default())
            .distance()
            .unwrap();
        let d2 = exact_ged(&q, &g, &ExactLimits::default())
            .distance()
            .unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn empty_vs_nonempty() {
        let e = Graph::empty();
        let g = Graph::from_edges(vec![0, 1], &[(0, 1)]).unwrap();
        // Build g from nothing: 2 node inserts + 1 edge insert.
        assert_eq!(
            exact_ged(&e, &g, &ExactLimits::default()).distance(),
            Some(3.0)
        );
        assert_eq!(
            exact_ged(&e, &e, &ExactLimits::default()).distance(),
            Some(0.0)
        );
    }

    #[test]
    fn single_relabel() {
        let g1 = Graph::from_edges(vec![0, 1], &[(0, 1)]).unwrap();
        let g2 = Graph::from_edges(vec![0, 2], &[(0, 1)]).unwrap();
        assert_eq!(
            exact_ged(&g1, &g2, &ExactLimits::default()).distance(),
            Some(1.0)
        );
    }

    #[test]
    fn agrees_with_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..40 {
            let g1 = erdos_renyi(&mut rng, 4, 4, 3);
            let g2 = erdos_renyi(&mut rng, 5, 5, 3);
            let want = brute_force_ged(&g1, &g2);
            let got = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            assert_eq!(got, want, "mismatch for {g1:?} vs {g2:?}");
        }
    }

    #[test]
    fn lower_bound_is_admissible() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..30 {
            let g1 = erdos_renyi(&mut rng, 5, 5, 4);
            let g2 = erdos_renyi(&mut rng, 5, 6, 4);
            let d = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            assert!(label_size_lb(&g1, &g2) <= d + 1e-9);
        }
    }

    #[test]
    fn perturbation_bounds_ged() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let g = erdos_renyi(&mut rng, 6, 6, 4);
            let (p, applied) = perturb(&mut rng, &g, 3, 4);
            let d = exact_ged(&g, &p, &ExactLimits::default())
                .distance()
                .unwrap();
            assert!(d <= applied as f64 + 1e-9, "d={d} applied={applied}");
        }
    }

    #[test]
    fn isomorphism_invariance() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = erdos_renyi(&mut rng, 6, 7, 3);
        let perm: Vec<u32> = vec![5, 3, 0, 1, 4, 2];
        let p = g.permute(&perm);
        assert_eq!(
            exact_ged(&g, &p, &ExactLimits::default()).distance(),
            Some(0.0)
        );
    }

    #[test]
    fn timeout_reported() {
        let mut rng = StdRng::seed_from_u64(25);
        let g1 = erdos_renyi(&mut rng, 24, 40, 2);
        let g2 = erdos_renyi(&mut rng, 24, 40, 2);
        let out = exact_ged(
            &g1,
            &g2,
            &ExactLimits {
                timeout_ms: 1,
                max_expansions: 10_000,
                ..ExactLimits::default()
            },
        );
        // Either it got lucky fast or reports a timeout; must not hang.
        match out {
            ExactOutcome::Optimal { distance, .. } => assert!(distance >= 0.0),
            ExactOutcome::TimedOut => {}
        }
    }

    #[test]
    fn batched_deadline_check_still_fires() {
        // The deadline is only polled every 256 expansions; on an instance
        // whose search space dwarfs that stride, an already-expired deadline
        // must still be detected. C24 vs two disjoint C12s: uniform labels
        // and all-2 degrees make every cheap bound zero, and the true
        // distance is positive, so no leaf is reachable within 256
        // expansions — the outcome is deterministically TimedOut.
        let c24: Vec<(u32, u32)> = (0..24).map(|i| (i, (i + 1) % 24)).collect();
        let g1 = Graph::from_edges(vec![0; 24], &c24).unwrap();
        let two_c12: Vec<(u32, u32)> = (0..12)
            .map(|i| (i, (i + 1) % 12))
            .chain((0..12).map(|i| (12 + i, 12 + (i + 1) % 12)))
            .collect();
        let g2 = Graph::from_edges(vec![0; 24], &two_c12).unwrap();
        let out = exact_ged(
            &g1,
            &g2,
            &ExactLimits {
                timeout_ms: 0,
                max_expansions: usize::MAX,
                ..ExactLimits::default()
            },
        );
        assert_eq!(out, ExactOutcome::TimedOut);
    }

    #[test]
    fn poll_stride_bounds_deadline_overshoot() {
        // Worst-case deadline overshoot is one poll stride: with an
        // already-expired deadline (timeout 0) on the same
        // no-leaf-within-reach instance as above, the search must stop at
        // the FIRST poll — exactly `poll_stride` expansions, never more.
        let c24: Vec<(u32, u32)> = (0..24).map(|i| (i, (i + 1) % 24)).collect();
        let g1 = Graph::from_edges(vec![0; 24], &c24).unwrap();
        let two_c12: Vec<(u32, u32)> = (0..12)
            .map(|i| (i, (i + 1) % 12))
            .chain((0..12).map(|i| (12 + i, 12 + (i + 1) % 12)))
            .collect();
        let g2 = Graph::from_edges(vec![0; 24], &two_c12).unwrap();
        for stride in [1usize, 8, 64, 256] {
            let limits = ExactLimits {
                timeout_ms: 0,
                max_expansions: usize::MAX,
                poll_stride: stride,
            };
            let (out, expansions) = exact_ged_within_counted(&g1, &g2, &limits, f64::INFINITY);
            assert_eq!(out, ExactWithin::TimedOut, "stride {stride}");
            assert_eq!(
                expansions, stride,
                "expired deadline overshot the poll stride"
            );
        }
    }

    #[test]
    fn poll_stride_default_resolution() {
        // Programmatic override > historical 256; the override clamps to 1.
        set_default_poll_stride(0);
        assert_eq!(ExactLimits::default().poll_stride, 1);
        set_default_poll_stride(64);
        assert_eq!(ExactLimits::default().poll_stride, 64);
        // Other tests construct ExactLimits::default() concurrently; leave
        // the process default on the historical stride. (256 is what an
        // unset cell resolves to, so storing it directly is equivalent.)
        set_default_poll_stride(256);
    }

    #[test]
    fn returned_mapping_cost_matches_distance() {
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..20 {
            let g1 = erdos_renyi(&mut rng, 5, 4, 3);
            let g2 = erdos_renyi(&mut rng, 4, 4, 3);
            if let ExactWithin::Optimal { distance, mapping } =
                exact_ged_within(&g1, &g2, &ExactLimits::default(), f64::INFINITY)
            {
                assert_eq!(mapping_cost(&g1, &g2, &mapping), distance);
            } else {
                panic!("tiny instance timed out");
            }
        }
    }

    #[test]
    fn within_agrees_with_full_search() {
        // For every tau: result below tau => identical Optimal; otherwise a
        // certified AtLeast(lb) with tau <= lb <= true distance.
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..30 {
            let g1 = erdos_renyi(&mut rng, 5, 5, 3);
            let g2 = erdos_renyi(&mut rng, 5, 4, 3);
            let d = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            for tau_i in 0..=(d as i64 + 2) {
                let tau = tau_i as f64;
                match exact_ged_within(&g1, &g2, &ExactLimits::default(), tau) {
                    ExactWithin::Optimal { distance, .. } => {
                        assert!(distance < tau);
                        assert_eq!(distance, d);
                    }
                    ExactWithin::AtLeast(lb) => {
                        assert!(d >= tau, "pruned although d={d} < tau={tau}");
                        assert!(lb >= tau && lb <= d + 1e-9, "lb={lb} d={d} tau={tau}");
                    }
                    ExactWithin::TimedOut => panic!("tiny instance timed out"),
                }
            }
        }
    }

    #[test]
    fn within_prunes_equal_distance() {
        // tau == d must abort (the contract is strict: Optimal only when
        // d < tau).
        let (g, q) = fig2();
        match exact_ged_within(&g, &q, &ExactLimits::default(), 5.0) {
            ExactWithin::AtLeast(lb) => assert!(lb >= 5.0),
            other => panic!("expected AtLeast, got {other:?}"),
        }
        let mut rng = StdRng::seed_from_u64(28);
        let g1 = erdos_renyi(&mut rng, 5, 5, 3);
        assert_eq!(
            exact_ged_within(&g1, &g1, &ExactLimits::default(), 1.0),
            ExactWithin::Optimal {
                distance: 0.0,
                mapping: NodeMapping::identity(5)
            }
        );
    }

    #[test]
    fn within_symmetry_swap_handles_bounds() {
        // g1 larger than g2 exercises the swap path for AtLeast results.
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..10 {
            let g1 = erdos_renyi(&mut rng, 6, 7, 3);
            let g2 = erdos_renyi(&mut rng, 4, 3, 3);
            let d = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            let tau = rng.gen_range(1..10) as f64;
            match exact_ged_within(&g1, &g2, &ExactLimits::default(), tau) {
                ExactWithin::Optimal { distance, mapping } => {
                    assert_eq!(distance, d);
                    assert!(distance < tau);
                    assert_eq!(mapping.map.len(), g1.node_count());
                    assert_eq!(mapping_cost(&g1, &g2, &mapping), distance);
                }
                ExactWithin::AtLeast(lb) => {
                    assert!(lb >= tau && lb <= d + 1e-9);
                }
                ExactWithin::TimedOut => panic!("tiny instance timed out"),
            }
        }
    }
}
