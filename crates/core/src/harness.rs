//! Shared experiment harness used by the `lan-bench` figure binaries and
//! the integration tests: recall–QPS curves, scalability sharding, and the
//! query-time breakdown.

use crate::index::LanIndex;
use crate::l2route::L2RouteIndex;
use crate::query::{InitStrategy, QueryOutcome, RouteStrategy};
use lan_obs::trace;
use lan_pg::budget::{BudgetCtx, QueryBudget, Termination};
use std::time::Duration;

/// One point of a recall–QPS curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// The swept parameter (beam size b, or candidate count for L2route).
    pub param: usize,
    pub recall: f64,
    pub qps: f64,
    pub avg_ndc: f64,
}

/// Aggregated time breakdown over a query batch (Fig. 11).
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    pub total: Duration,
    pub distance: Duration,
    pub gnn: Duration,
}

impl Breakdown {
    pub fn add(&mut self, o: &QueryOutcome) {
        self.total += o.total_time;
        self.distance += o.distance_time;
        self.gnn += o.gnn_time;
    }

    /// Fraction of query time inside cross-graph learning.
    pub fn gnn_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.gnn.as_secs_f64() / self.total.as_secs_f64()
        }
    }

    /// Fraction of query time inside distance computation.
    pub fn distance_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.distance.as_secs_f64() / self.total.as_secs_f64()
        }
    }
}

/// Shared accumulation of a query batch: tie-aware recall, NDC, and the
/// time breakdown — one implementation for the beam and L2route curves.
#[derive(Debug, Default)]
struct Aggregate {
    recall_sum: f64,
    ndc_sum: usize,
    breakdown: Breakdown,
}

impl Aggregate {
    fn add(&mut self, out: &QueryOutcome, truth: f64, k: usize) {
        self.recall_sum += lan_datasets::dataset::recall_at_k_ties(&out.results, truth, k);
        self.ndc_sum += out.ndc;
        self.breakdown.add(out);
    }

    /// Finishes the batch into a curve point; QPS is over the summed
    /// per-query time.
    fn finish(self, param: usize, n_queries: usize) -> (CurvePoint, Breakdown) {
        let n = n_queries.max(1) as f64;
        let point = CurvePoint {
            param,
            recall: self.recall_sum / n,
            qps: n / self.breakdown.total.as_secs_f64().max(1e-12),
            avg_ndc: self.ndc_sum as f64 / n,
        };
        (point, self.breakdown)
    }
}

/// Per-query ground truth: the true k-th NN distance (for tie-aware
/// recall), computed once and shared across sweeps.
pub fn ground_truths(index: &LanIndex, query_idx: &[usize], k: usize) -> Vec<f64> {
    query_idx
        .iter()
        .map(|&qi| {
            index
                .dataset
                .ground_truth_knn(&index.dataset.queries[qi], k)
                .last()
                .map(|&(d, _)| d)
                .unwrap_or(f64::INFINITY)
        })
        .collect()
}

/// Runs one method over the query set at a fixed beam size, returning the
/// curve point and the accumulated breakdown.
#[allow(clippy::too_many_arguments)]
pub fn run_point(
    index: &LanIndex,
    query_idx: &[usize],
    truths: &[f64],
    k: usize,
    b: usize,
    init: InitStrategy,
    route: RouteStrategy,
) -> (CurvePoint, Breakdown) {
    // The env budget is read once per batch; unset variables mean an
    // unlimited budget, which is guaranteed to change nothing.
    let budget = QueryBudget::from_env();
    let mut agg = Aggregate::default();
    for (i, &qi) in query_idx.iter().enumerate() {
        let q = &index.dataset.queries[qi];
        let _t = trace::query(qi as u64);
        let ctx = BudgetCtx::new(&budget);
        let out = index.search_with_budget(q, k, b, init, route, qi as u64, &ctx);
        agg.add(&out, truths[i], k);
    }
    agg.finish(b, query_idx.len())
}

/// A recall–QPS curve over a sweep of beam sizes.
#[allow(clippy::too_many_arguments)]
pub fn recall_qps_curve(
    index: &LanIndex,
    query_idx: &[usize],
    truths: &[f64],
    k: usize,
    beams: &[usize],
    init: InitStrategy,
    route: RouteStrategy,
) -> Vec<CurvePoint> {
    beams
        .iter()
        .map(|&b| run_point(index, query_idx, truths, k, b, init, route).0)
        .collect()
}

/// The L2route curve: the swept parameter is the verified-candidate count.
pub fn l2route_curve(
    index: &LanIndex,
    l2: &L2RouteIndex,
    query_idx: &[usize],
    truths: &[f64],
    k: usize,
    candidate_counts: &[usize],
) -> Vec<CurvePoint> {
    candidate_counts
        .iter()
        .map(|&c| {
            let mut agg = Aggregate::default();
            for (i, &qi) in query_idx.iter().enumerate() {
                let q = &index.dataset.queries[qi];
                let (results, ndc, t, dt) = l2.search(index, q, k, c);
                let out = QueryOutcome {
                    results,
                    ndc,
                    total_time: t,
                    distance_time: dt,
                    gnn_time: Duration::ZERO,
                    termination: Termination::Converged,
                };
                agg.add(&out, truths[i], k);
            }
            agg.finish(c, query_idx.len()).0
        })
        .collect()
}

/// Interpolates the QPS a curve achieves at a target recall (the paper
/// reports speedups "at recall@50 = 0.95"). Returns `None` when the curve
/// never reaches the target.
pub fn qps_at_recall(curve: &[CurvePoint], target: f64) -> Option<f64> {
    // Walk points sorted by recall; linear interpolation in (recall, qps).
    // Non-finite points (NaN recall from an empty batch, infinite QPS from
    // a zero-wall-clock run) cannot be interpolated through — drop them
    // instead of letting NaN scramble the sort order.
    let mut pts: Vec<&CurvePoint> = curve
        .iter()
        .filter(|p| p.recall.is_finite() && p.qps.is_finite())
        .collect();
    pts.sort_by(|a, b| a.recall.total_cmp(&b.recall));
    if pts.is_empty() || pts.last().unwrap().recall < target {
        return None;
    }
    let mut prev = pts[0];
    if prev.recall >= target {
        return Some(prev.qps);
    }
    for p in pts.into_iter().skip(1) {
        if p.recall >= target {
            let span = (p.recall - prev.recall).max(1e-12);
            let t = (target - prev.recall) / span;
            return Some(prev.qps + t * (p.qps - prev.qps));
        }
        prev = p;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(recall: f64, qps: f64) -> CurvePoint {
        CurvePoint {
            param: 0,
            recall,
            qps,
            avg_ndc: 0.0,
        }
    }

    #[test]
    fn qps_interpolation() {
        let curve = vec![cp(0.8, 100.0), cp(0.9, 50.0), cp(1.0, 10.0)];
        assert_eq!(qps_at_recall(&curve, 0.7), Some(100.0));
        let mid = qps_at_recall(&curve, 0.95).unwrap();
        assert!((mid - 30.0).abs() < 1e-9);
        assert_eq!(qps_at_recall(&curve, 1.01), None);
        assert_eq!(qps_at_recall(&[], 0.5), None);
    }

    #[test]
    fn qps_interpolation_ignores_nan_points() {
        // A NaN recall point used to poison the sort (partial_cmp ties):
        // depending on its position it could land "above" every finite
        // point and be read as the curve maximum. It must be ignored.
        let curve = vec![
            cp(0.8, 100.0),
            cp(f64::NAN, 1e9),
            cp(1.0, 10.0),
            cp(0.9, f64::INFINITY),
        ];
        assert_eq!(qps_at_recall(&curve, 0.7), Some(100.0));
        let mid = qps_at_recall(&curve, 0.9).unwrap();
        assert!((mid - 55.0).abs() < 1e-9, "got {mid}");
        // An all-NaN curve never reaches any target.
        assert_eq!(qps_at_recall(&[cp(f64::NAN, 1.0)], 0.0), None);
    }

    #[test]
    fn breakdown_fractions() {
        let b = Breakdown {
            total: Duration::from_millis(100),
            distance: Duration::from_millis(60),
            gnn: Duration::from_millis(25),
        };
        assert!((b.gnn_fraction() - 0.25).abs() < 1e-9);
        assert!((b.distance_fraction() - 0.6).abs() < 1e-9);
        assert_eq!(Breakdown::default().gnn_fraction(), 0.0);
    }
}
