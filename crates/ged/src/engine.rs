//! Method selection facade, the threshold-gated evaluation cascade, and the
//! paper's ground-truth protocol.

use crate::beam::{beam_ged, beam_ged_scratch};
use crate::bipartite::{bipartite_ged, rb_cost_matrix_into, solve_rb_matrix, Solver};
use crate::exact::{exact_ged, exact_ged_within, ExactLimits, ExactOutcome, ExactWithin};
use crate::lower_bounds::{label_degree_lb, label_size_lb};
use crate::scratch::{with_scratch, GedScratch};
use lan_graph::Graph;
use lan_obs::{names, Counter};
use std::sync::OnceLock;

/// Pre-resolved cascade counters (resolving a name takes the registry
/// lock; these run once per distance evaluation, so resolve once).
fn counters() -> &'static (&'static Counter, &'static Counter, &'static Counter) {
    static C: OnceLock<(&'static Counter, &'static Counter, &'static Counter)> = OnceLock::new();
    C.get_or_init(|| {
        (
            lan_obs::counter(names::GED_FULL_EVALS),
            lan_obs::counter(names::GED_LB_PRUNE),
            lan_obs::counter(names::GED_EARLY_ABORT),
        )
    })
}

/// A GED computation method.
#[derive(Debug, Clone, PartialEq)]
pub enum GedMethod {
    /// Exact A\*; `None` is returned on timeout.
    Exact { timeout_ms: u64 },
    /// Riesen–Bunke bipartite with Kuhn–Munkres (upper bound).
    Hungarian,
    /// Riesen–Bunke bipartite with Jonker–Volgenant (upper bound).
    Vj,
    /// Beam search with the given width (upper bound).
    Beam { width: usize },
    /// Minimum of Hungarian, VJ, and Beam — the paper's approximate
    /// ground-truth fallback. Always succeeds.
    BestOfThree { beam_width: usize },
}

/// Computes GED between `g1` and `g2` with the selected method.
///
/// Returns `None` only for `Exact` on timeout; all approximate methods are
/// total.
pub fn ged(g1: &Graph, g2: &Graph, method: &GedMethod) -> Option<f64> {
    counters().0.inc(); // ged.full_evals: a full solver run, no gate
    match method {
        GedMethod::Exact { timeout_ms } => {
            let limits = ExactLimits {
                timeout_ms: *timeout_ms,
                ..ExactLimits::default()
            };
            exact_ged(g1, g2, &limits).distance()
        }
        GedMethod::Hungarian => Some(bipartite_ged(g1, g2, Solver::Hungarian)),
        GedMethod::Vj => Some(bipartite_ged(g1, g2, Solver::Vj)),
        GedMethod::Beam { width } => Some(beam_ged(g1, g2, *width)),
        GedMethod::BestOfThree { beam_width } => {
            Some(with_scratch(|s| best_of_three(g1, g2, *beam_width, s)))
        }
    }
}

/// Smallest Riesen–Bunke matrix (`n1 + n2` rows) whose `BestOfThree` call
/// forks its Hungarian solve onto a second thread. Below it the call is
/// serial: a spawn and join costs 34–38 µs, and the Hungarian half, O(n³),
/// is not worth that until the matrix has about this many rows. Serial
/// over forked time per call on a 2-core x86-64 host (40 molecule or
/// power-law pairs per size, two runs): 0.47 at 16 rows, 0.65 at 20, 0.89–0.97
/// at 30, 0.90–1.04 at 32, 1.04–1.16 at 34, 0.94–1.07 at 36, 1.12–1.17 at
/// 40, 1.19–1.35 at 50 (the `aids-ged` molecules). SYN-sized calls (≈ 20
/// rows) stay serial.
pub const FORK_MIN_ROWS: usize = 36;

/// `min(Hungarian, Vj, Beam)`, with the Riesen–Bunke matrix built once and
/// handed to both LSAP solvers.
///
/// From [`FORK_MIN_ROWS`] rows up, the Hungarian solve runs on a second
/// thread through [`lan_par::join`] — serial when the thread budget is one,
/// as inside every saturated fan-out — while this thread runs VJ and then
/// the beam search. The halves read the shared matrix and write disjoint
/// parts of `s`, and the minimum is the same expression as the serial
/// form's, so the value is the serial one bit for bit.
fn best_of_three(g1: &Graph, g2: &Graph, beam_width: usize, s: &mut GedScratch) -> f64 {
    // Both bipartite values are 0 on equal graphs (their own short-circuit)
    // and no beam value is below 0.
    if g1 == g2 {
        return 0.0;
    }
    rb_cost_matrix_into(g1, g2, s);
    let GedScratch {
        cost,
        assign,
        out,
        beam,
        fork_assign,
        fork_out,
        ..
    } = s;
    let cost = &*cost;
    let mut vj_then_beam = || {
        let v = solve_rb_matrix(g1, g2, Solver::Vj, cost, assign, out);
        (v, beam_ged_scratch(g1, g2, beam_width, beam, out))
    };
    let mut hungarian = || solve_rb_matrix(g1, g2, Solver::Hungarian, cost, fork_assign, fork_out);
    let ((v, b), h) = if cost.n() >= FORK_MIN_ROWS {
        lan_par::join(vj_then_beam, hungarian)
    } else {
        (vj_then_beam(), hungarian())
    };
    h.min(v).min(b)
}

/// Outcome of a threshold-gated GED evaluation ([`ged_within`]).
///
/// `AtLeast(lb)` certifies `lb <= d` for the distance `d` the *selected
/// method* would report (every cascade bound is `<=` the exact GED, which
/// is `<=` every approximation's value), with `lb >= tau` — so a caller
/// that only cares whether `d < tau` can treat it as a verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GedBound {
    /// The method's distance, computed in full.
    Exact(f64),
    /// The distance is provably at least this value (`>= tau`).
    AtLeast(f64),
}

impl GedBound {
    /// The certified minimum of the distance (the value itself if exact).
    pub fn min_value(&self) -> f64 {
        match self {
            GedBound::Exact(d) => *d,
            GedBound::AtLeast(lb) => *lb,
        }
    }
}

/// Which cascade tier settled a threshold-gated evaluation
/// ([`ged_within_outcome`]) — the per-call form of the global
/// `ged.lb_prune` / `ged.early_abort` / `ged.full_evals` counters, used
/// by the per-query EXPLAIN attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CascadeOutcome {
    /// A signature lower bound (label/size or degree-sequence) reached
    /// `tau`; no solver ran.
    LbPrune,
    /// The branch-and-bound A\* aborted once every branch reached `tau`.
    TauAbort,
    /// A solver ran to completion (including the ungated `tau = ∞` path).
    FullSolve,
}

/// Threshold-gated GED: resolves whether `d(g1, g2) < tau` without always
/// paying for a full evaluation.
///
/// The cascade, cheapest first:
///
/// 1. **label/size bound** ([`label_size_lb`], `O(n)` merge walk over
///    precomputed signatures);
/// 2. **degree-sequence bound** ([`label_degree_lb`], `O(n)` over the
///    signatures' sorted degree sequences);
/// 3. the selected method. For [`GedMethod::Exact`] this is the
///    branch-and-bound A\* ([`exact_ged_within`]) which aborts the whole
///    search once every branch reaches `g + h >= tau`; other methods run in
///    full (their value is still `>=` any tier-1/2 bound, so the gate
///    remains sound).
///
/// Returns `None` only for `Exact` on timeout, mirroring [`ged`]. With a
/// non-finite `tau` this is exactly `ged` (no gating).
///
/// Counters: `ged.lb_prune` (tiers 1–2 settled it), `ged.early_abort`
/// (A\* aborted on the threshold), `ged.full_evals` (a solver ran to
/// completion).
pub fn ged_within(g1: &Graph, g2: &Graph, tau: f64, method: &GedMethod) -> Option<GedBound> {
    ged_within_outcome(g1, g2, tau, method).map(|(b, _)| b)
}

/// [`ged_within`] plus the [`CascadeOutcome`] that settled the call —
/// the hook per-query EXPLAIN attribution builds on. Identical gating,
/// bounds, and counter behavior.
pub fn ged_within_outcome(
    g1: &Graph,
    g2: &Graph,
    tau: f64,
    method: &GedMethod,
) -> Option<(GedBound, CascadeOutcome)> {
    if !tau.is_finite() {
        return ged(g1, g2, method).map(|d| (GedBound::Exact(d), CascadeOutcome::FullSolve));
    }
    let (full, lb_prune, early_abort) = *counters();
    let lb1 = label_size_lb(g1, g2);
    if lb1 >= tau {
        lb_prune.inc();
        return Some((GedBound::AtLeast(lb1), CascadeOutcome::LbPrune));
    }
    let lb2 = label_degree_lb(g1, g2);
    if lb2 >= tau {
        lb_prune.inc();
        return Some((GedBound::AtLeast(lb2), CascadeOutcome::LbPrune));
    }
    match method {
        GedMethod::Exact { timeout_ms } => {
            let limits = ExactLimits {
                timeout_ms: *timeout_ms,
                ..ExactLimits::default()
            };
            match exact_ged_within(g1, g2, &limits, tau) {
                ExactWithin::Optimal { distance, .. } => {
                    full.inc();
                    Some((GedBound::Exact(distance), CascadeOutcome::FullSolve))
                }
                ExactWithin::AtLeast(lb) => {
                    early_abort.inc();
                    Some((GedBound::AtLeast(lb.max(lb2)), CascadeOutcome::TauAbort))
                }
                ExactWithin::TimedOut => None,
            }
        }
        m => ged(g1, g2, m).map(|d| (GedBound::Exact(d), CascadeOutcome::FullSolve)),
    }
}

/// Configuration for the ground-truth protocol (paper §VII): try exact GED
/// under a timeout; on timeout use the best (smallest) of VJ, Hungarian, and
/// Beam.
#[derive(Debug, Clone, Copy)]
pub struct GroundTruthConfig {
    pub exact_timeout_ms: u64,
    pub beam_width: usize,
    /// Skip the exact attempt entirely above this node count (it would time
    /// out anyway; saves the wasted attempt on large graphs).
    pub exact_node_cap: usize,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        GroundTruthConfig {
            exact_timeout_ms: 1_000,
            beam_width: 16,
            exact_node_cap: 12,
        }
    }
}

/// Ground-truth GED per the paper's protocol. Returns the distance and
/// whether it is provably exact.
pub fn ground_truth_ged(g1: &Graph, g2: &Graph, cfg: &GroundTruthConfig) -> (f64, bool) {
    if g1.node_count() <= cfg.exact_node_cap && g2.node_count() <= cfg.exact_node_cap {
        let limits = ExactLimits {
            timeout_ms: cfg.exact_timeout_ms,
            ..ExactLimits::default()
        };
        if let ExactOutcome::Optimal { distance, .. } = exact_ged(g1, g2, &limits) {
            return (distance, true);
        }
    }
    let d = ged(
        g1,
        g2,
        &GedMethod::BestOfThree {
            beam_width: cfg.beam_width,
        },
    )
    .expect("BestOfThree is total");
    (d, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_graph::generators::{erdos_renyi, molecule_like};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_methods_zero_on_identical() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = molecule_like(&mut rng, 10, 2, 4, 5);
        for m in [
            GedMethod::Exact { timeout_ms: 1000 },
            GedMethod::Hungarian,
            GedMethod::Vj,
            GedMethod::Beam { width: 4 },
            GedMethod::BestOfThree { beam_width: 4 },
        ] {
            assert_eq!(ged(&g, &g, &m), Some(0.0), "{m:?}");
        }
    }

    #[test]
    fn best_of_three_no_worse_than_components() {
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..10 {
            let g1 = erdos_renyi(&mut rng, 8, 9, 4);
            let g2 = erdos_renyi(&mut rng, 8, 10, 4);
            let best = ged(&g1, &g2, &GedMethod::BestOfThree { beam_width: 8 }).unwrap();
            let h = ged(&g1, &g2, &GedMethod::Hungarian).unwrap();
            let v = ged(&g1, &g2, &GedMethod::Vj).unwrap();
            let b = ged(&g1, &g2, &GedMethod::Beam { width: 8 }).unwrap();
            assert!(best <= h && best <= v && best <= b);
            assert!(best == h || best == v || best == b);
        }
    }

    #[test]
    fn ground_truth_small_is_exact() {
        let mut rng = StdRng::seed_from_u64(53);
        let g1 = erdos_renyi(&mut rng, 6, 6, 3);
        let g2 = erdos_renyi(&mut rng, 6, 7, 3);
        let (d, exact) = ground_truth_ged(&g1, &g2, &GroundTruthConfig::default());
        assert!(exact);
        assert_eq!(
            Some(d),
            ged(&g1, &g2, &GedMethod::Exact { timeout_ms: 5_000 })
        );
    }

    #[test]
    fn ground_truth_large_falls_back() {
        let mut rng = StdRng::seed_from_u64(54);
        let g1 = molecule_like(&mut rng, 30, 3, 4, 8);
        let g2 = molecule_like(&mut rng, 32, 3, 4, 8);
        let (d, exact) = ground_truth_ged(&g1, &g2, &GroundTruthConfig::default());
        assert!(!exact);
        assert!(d > 0.0);
    }

    #[test]
    fn bounds_sandwich_exact_and_approximations() {
        // lower bounds <= exact <= Hungarian / VJ / Beam, on random pairs.
        use crate::lower_bounds::{label_degree_lb, label_size_lb};
        let mut rng = StdRng::seed_from_u64(56);
        for _ in 0..40 {
            let g1 = erdos_renyi(&mut rng, 6, 6, 3);
            let g2 = erdos_renyi(&mut rng, 5, 6, 3);
            let exact = ged(&g1, &g2, &GedMethod::Exact { timeout_ms: 10_000 }).unwrap();
            for lb in [label_size_lb(&g1, &g2), label_degree_lb(&g1, &g2)] {
                assert!(lb <= exact + 1e-9, "lb {lb} > exact {exact}");
            }
            for m in [
                GedMethod::Hungarian,
                GedMethod::Vj,
                GedMethod::Beam { width: 8 },
            ] {
                let ub = ged(&g1, &g2, &m).unwrap();
                assert!(ub + 1e-9 >= exact, "{m:?} {ub} < exact {exact}");
            }
        }
    }

    #[test]
    fn ged_within_agrees_with_full_ged() {
        // Whenever the method's distance is < tau, the gate must return the
        // identical Exact value; otherwise a certified bound in
        // [tau, d_method].
        let mut rng = StdRng::seed_from_u64(57);
        for _ in 0..25 {
            let g1 = erdos_renyi(&mut rng, 6, 6, 4);
            let g2 = erdos_renyi(&mut rng, 6, 7, 4);
            for m in [
                GedMethod::Exact { timeout_ms: 10_000 },
                GedMethod::Hungarian,
                GedMethod::Vj,
                GedMethod::Beam { width: 4 },
                GedMethod::BestOfThree { beam_width: 4 },
            ] {
                let d = ged(&g1, &g2, &m).unwrap();
                for tau in [0.5, d * 0.5, d, d + 0.5, d + 4.0, f64::INFINITY] {
                    match ged_within(&g1, &g2, tau, &m).unwrap() {
                        GedBound::Exact(got) => {
                            assert_eq!(got.to_bits(), d.to_bits(), "{m:?} tau={tau}");
                        }
                        GedBound::AtLeast(lb) => {
                            assert!(tau.is_finite());
                            assert!(lb >= tau, "{m:?}: lb {lb} < tau {tau}");
                            assert!(lb <= d + 1e-9, "{m:?}: lb {lb} > d {d}");
                            // Pruning is only sound when d might be >= tau;
                            // since lb <= d and lb >= tau, d >= tau holds.
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ground_truth_upper_bounds_true_distance() {
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..15 {
            let g1 = erdos_renyi(&mut rng, 5, 5, 3);
            let g2 = erdos_renyi(&mut rng, 5, 4, 3);
            let (gt, _) = ground_truth_ged(&g1, &g2, &GroundTruthConfig::default());
            let exact = ged(&g1, &g2, &GedMethod::Exact { timeout_ms: 5_000 }).unwrap();
            assert!(gt + 1e-9 >= exact);
        }
    }
}
