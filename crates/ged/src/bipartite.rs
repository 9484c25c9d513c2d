//! Bipartite approximate GED (the paper's "Hung" \[57\] and "VJ" \[56\]).
//!
//! Riesen & Bunke reduce GED to a linear sum assignment over an
//! `(n1 + n2) × (n1 + n2)` cost matrix whose quadrants encode substitution,
//! deletion, and insertion of nodes together with an estimate of the
//! incident-edge cost. The node mapping read off the optimal assignment is
//! turned into a *complete edit path* whose exact cost is returned
//! ([`crate::mapping::mapping_cost`]) — so both approximations are
//! guaranteed upper bounds on the true GED.
//!
//! "Hung" solves the LSAP with the Kuhn–Munkres algorithm, "VJ" with
//! Jonker–Volgenant (Fankhauser et al.); with ties in the cost matrix the
//! two can pick different optimal assignments and hence derive different
//! upper bounds, which is why the ground-truth protocol takes the best of
//! both (plus beam search).

use crate::assignment::{hungarian_solve, lapjv_solve, AssignScratch, CostMatrix};
use crate::lower_bounds::sorted_label_multiset_lb;
use crate::mapping::{mapping_cost_with, NodeMapping, EPS};
use crate::scratch::{with_scratch, GedScratch, MappingOut};
use lan_graph::{Graph, Label, NodeId};

/// Which LSAP solver drives the approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Kuhn–Munkres (paper baseline "Hung", Riesen & Bunke).
    Hungarian,
    /// Jonker–Volgenant (paper baseline "VJ", Fankhauser et al.).
    Vj,
}

/// Every node's neighbor labels, each list sorted ascending, in one flat
/// buffer: the substitution cells of one cost matrix read each list
/// `n1` (or `n2`) times, so it is sorted once per matrix.
#[derive(Debug, Default)]
pub(crate) struct NeighborLabels {
    labels: Vec<Label>,
    /// `labels[start[v]..start[v + 1]]` belongs to node `v`.
    start: Vec<usize>,
}

impl NeighborLabels {
    fn fill(&mut self, g: &Graph) {
        self.labels.clear();
        self.start.clear();
        self.start.push(0);
        for v in g.nodes() {
            let from = self.labels.len();
            self.labels
                .extend(g.neighbors(v).iter().map(|&x| g.label(x)));
            self.labels[from..].sort_unstable();
            self.start.push(self.labels.len());
        }
    }

    #[inline]
    fn of(&self, v: usize) -> &[Label] {
        &self.labels[self.start[v]..self.start[v + 1]]
    }
}

/// Builds the Riesen–Bunke cost matrix.
///
/// Layout (rows = g1 nodes then ε-rows, cols = g2 nodes then ε-cols):
///
/// ```text
///          v ∈ V2          ε (deletion)
///   u    [ sub(u, v) ]   [ del(u) on diag, ∞ off ]
///   ε    [ ins(v) on diag, ∞ off ]   [ 0 ]
/// ```
///
/// * `sub(u, v)` = label cost + the label-multiset distance between the
///   neighbor-label multisets of `u` and `v`
///   ([`sorted_label_multiset_lb`]). That distance lower-bounds the local
///   edge reassignment cost like Riesen–Bunke's `|deg(u) − deg(v)|` does,
///   and is far more discriminative on uniform-degree chains;
/// * `del(u)` = 1 + deg(u), `ins(v)` = 1 + deg(v);
/// * "∞" is a large finite value, so solver arithmetic stays finite. It
///   exceeds twice the cost of every node's own deletion and insertion
///   cell summed, which is what lets the Hungarian kernel skip these cells
///   ([`crate::assignment::hungarian`]).
pub fn rb_cost_matrix(g1: &Graph, g2: &Graph) -> CostMatrix {
    let mut s = GedScratch::new();
    rb_cost_matrix_into(g1, g2, &mut s);
    s.cost
}

/// [`rb_cost_matrix`] built into `s.cost`, reusing the scratch's matrix and
/// neighbor-label buffers. Bit-identical to the allocating form.
pub fn rb_cost_matrix_into(g1: &Graph, g2: &Graph, s: &mut GedScratch) {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let n = n1 + n2;
    let forbid = (n as f64 + 1.0) * (g1.edge_count() + g2.edge_count() + n) as f64 + 1e6;
    s.nl1.fill(g1);
    s.nl2.fill(g2);
    s.cost.reset(n); // the ε/ε quadrant stays 0
    for i in 0..n1 {
        let (sub, del) = s.cost.row_mut(i).split_at_mut(n2);
        let label_u = g1.label(i as NodeId);
        let around_u = s.nl1.of(i);
        for (w, cell) in sub.iter_mut().enumerate() {
            let label = if label_u != g2.label(w as NodeId) {
                1.0
            } else {
                0.0
            };
            *cell = label + sorted_label_multiset_lb(around_u, s.nl2.of(w));
        }
        del.fill(forbid);
        del[i] = 1.0 + g1.degree(i as NodeId) as f64;
    }
    for j in 0..n2 {
        let ins = &mut s.cost.row_mut(n1 + j)[..n2];
        ins.fill(forbid);
        ins[j] = 1.0 + g2.degree(j as NodeId) as f64;
    }
    s.cost.mark_riesen_bunke(n1, n2);
}

/// Bipartite approximate GED: returns the exact cost of the edit path
/// derived from the optimal assignment (an upper bound on true GED),
/// together with the mapping.
pub fn bipartite_ged_with_mapping(g1: &Graph, g2: &Graph, solver: Solver) -> (f64, NodeMapping) {
    with_scratch(|s| {
        let d = bipartite_ged_scratch(g1, g2, solver, s);
        (
            d,
            NodeMapping {
                map: s.out.map.clone(),
            },
        )
    })
}

/// Bipartite approximate GED (distance only; allocation-free once this
/// thread's scratch has grown to the pair's size).
pub fn bipartite_ged(g1: &Graph, g2: &Graph, solver: Solver) -> f64 {
    with_scratch(|s| bipartite_ged_scratch(g1, g2, solver, s))
}

/// [`bipartite_ged`] on an explicit scratch (the entry points route through
/// the per-thread one), leaving the mapping in `s.out`. Bit-identical to a
/// fresh scratch.
pub(crate) fn bipartite_ged_scratch(
    g1: &Graph,
    g2: &Graph,
    solver: Solver,
    s: &mut GedScratch,
) -> f64 {
    // Structurally equal graphs: the identity mapping is optimal. The LSAP
    // relaxation cannot promise this (ties between same-label, same-degree
    // nodes may derive a costlier path), and a database routinely compares a
    // graph against itself, so short-circuit.
    if g1 == g2 {
        s.out.map.clear();
        s.out.map.extend(g1.nodes());
        return 0.0;
    }
    rb_cost_matrix_into(g1, g2, s);
    solve_rb_matrix(g1, g2, solver, &s.cost, &mut s.assign, &mut s.out)
}

/// Solves the Riesen–Bunke matrix `cost` (built for this `g1`, `g2`) in
/// `assign` and returns the cost of the derived edit path, leaving its
/// mapping in `out`. `BestOfThree` builds the matrix once and calls this
/// for both solvers.
pub(crate) fn solve_rb_matrix(
    g1: &Graph,
    g2: &Graph,
    solver: Solver,
    cost: &CostMatrix,
    assign: &mut AssignScratch,
    out: &mut MappingOut,
) -> f64 {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    match solver {
        Solver::Hungarian => hungarian_solve(cost, assign),
        Solver::Vj => lapjv_solve(cost, assign),
    }
    out.map.clear();
    out.map
        .extend(assign.row_to_col()[..n1].iter().map(|&j| match j {
            j if j < n2 => j as NodeId,
            _ => EPS,
        }));
    mapping_cost_with(g1, g2, &out.map, &mut out.hit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_ged, ExactLimits};
    use crate::mapping::mapping_cost;
    use lan_graph::generators::{erdos_renyi, molecule_like};
    use lan_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identical_graphs_zero() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let g = molecule_like(&mut rng, 12, 2, 4, 6);
            assert_eq!(bipartite_ged(&g, &g, Solver::Hungarian), 0.0);
            assert_eq!(bipartite_ged(&g, &g, Solver::Vj), 0.0);
        }
    }

    #[test]
    fn empty_graphs() {
        let e = Graph::empty();
        assert_eq!(bipartite_ged(&e, &e, Solver::Hungarian), 0.0);
        let g = Graph::from_edges(vec![0], &[]).unwrap();
        assert_eq!(bipartite_ged(&e, &g, Solver::Vj), 1.0);
        assert_eq!(bipartite_ged(&g, &e, Solver::Hungarian), 1.0);
    }

    #[test]
    fn upper_bounds_exact() {
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..40 {
            let g1 = erdos_renyi(&mut rng, 5, 5, 3);
            let g2 = erdos_renyi(&mut rng, 6, 6, 3);
            let exact = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            for solver in [Solver::Hungarian, Solver::Vj] {
                let approx = bipartite_ged(&g1, &g2, solver);
                assert!(
                    approx + 1e-9 >= exact,
                    "{solver:?} returned {approx} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn often_tight_on_near_duplicates() {
        // On small perturbations the bipartite bound is usually close; check
        // that it is at least finite and sane, and exact on relabel-only.
        let g1 = Graph::from_edges(vec![0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let g2 = Graph::from_edges(vec![0, 1, 9, 3], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(bipartite_ged(&g1, &g2, Solver::Hungarian), 1.0);
        assert_eq!(bipartite_ged(&g1, &g2, Solver::Vj), 1.0);
    }

    #[test]
    fn fig2_bipartite_upper_bound() {
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        for solver in [Solver::Hungarian, Solver::Vj] {
            let d = bipartite_ged(&g, &q, solver);
            assert!((5.0..=9.0).contains(&d), "implausible bound {d}");
        }
    }

    #[test]
    fn symmetric_enough() {
        // The derived-path cost need not be exactly symmetric, but must stay
        // an upper bound both ways; check both directions bound the exact.
        let mut rng = StdRng::seed_from_u64(33);
        let g1 = erdos_renyi(&mut rng, 5, 4, 3);
        let g2 = erdos_renyi(&mut rng, 5, 6, 3);
        let exact = exact_ged(&g1, &g2, &ExactLimits::default())
            .distance()
            .unwrap();
        assert!(bipartite_ged(&g1, &g2, Solver::Vj) >= exact);
        assert!(bipartite_ged(&g2, &g1, Solver::Vj) >= exact);
    }

    #[test]
    fn mapping_is_injective_and_cost_consistent() {
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..20 {
            let g1 = molecule_like(&mut rng, 10, 2, 4, 5);
            let g2 = molecule_like(&mut rng, 12, 2, 4, 5);
            let (d, m) = bipartite_ged_with_mapping(&g1, &g2, Solver::Hungarian);
            assert!(m.is_injective());
            assert_eq!(mapping_cost(&g1, &g2, &m), d);
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical() {
        // One scratch across a mixed workload: cost matrices, mappings, and
        // distances must match the fresh-allocation path bit for bit.
        let mut rng = StdRng::seed_from_u64(36);
        let mut s = GedScratch::new();
        for _ in 0..25 {
            let n1 = 4 + rng.gen_range(0..10);
            let n2 = 4 + rng.gen_range(0..10);
            let g1 = molecule_like(&mut rng, n1, 2, 4, 5);
            let g2 = molecule_like(&mut rng, n2, 2, 4, 5);
            let fresh = rb_cost_matrix(&g1, &g2);
            rb_cost_matrix_into(&g1, &g2, &mut s);
            let n = fresh.n();
            assert_eq!(s.cost.n(), n);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(fresh.get(i, j).to_bits(), s.cost.get(i, j).to_bits());
                }
            }
            for solver in [Solver::Hungarian, Solver::Vj] {
                let mut fresh = GedScratch::new();
                let d_fresh = bipartite_ged_scratch(&g1, &g2, solver, &mut fresh);
                let d_scr = bipartite_ged_scratch(&g1, &g2, solver, &mut s);
                assert_eq!(d_fresh.to_bits(), d_scr.to_bits());
                assert_eq!(fresh.out.map, s.out.map);
            }
        }
    }

    #[test]
    fn scales_to_paper_sized_graphs() {
        // PUBCHEM-like sizes (~48 nodes) must run fast.
        let mut rng = StdRng::seed_from_u64(35);
        let g1 = molecule_like(&mut rng, 48, 4, 4, 10);
        let g2 = molecule_like(&mut rng, 50, 4, 4, 10);
        let d1 = bipartite_ged(&g1, &g2, Solver::Hungarian);
        let d2 = bipartite_ged(&g1, &g2, Solver::Vj);
        assert!(d1 > 0.0 && d2 > 0.0);
    }
}
