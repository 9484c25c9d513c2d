//! Baseline greedy (beam) routing on the proximity graph — paper
//! Algorithm 1.
//!
//! At each step the router explores the unexplored pooled node closest to
//! the query, computes distances for **all** of its neighbors (this is the
//! exhaustive neighbor exploration whose NDC LAN attacks), adds them to the
//! pool, and resizes the pool to the beam size `b`. The routing stops when
//! every pooled node is explored; the top-`k` of the pool are the k-ANNs.

use crate::budget::{budgeted_get, BudgetCtx, Termination};
use crate::metric::DistCache;
use crate::pool::{Pool, PoolEntry, RouterState};

/// The outcome of one routed query.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// `(distance, id)` of the k best candidates, ascending.
    pub results: Vec<(f64, u32)>,
    /// Number of unique distance computations (NDC).
    pub ndc: usize,
    /// Nodes in exploration order (for the Lemma 1 equivalence tests).
    pub exploration_order: Vec<u32>,
    /// How the routing ended ([`Termination::Converged`] unless a budget
    /// bound it; the results are best-so-far either way).
    pub termination: Termination,
}

impl RouteResult {
    /// Just the result ids.
    pub fn ids(&self) -> Vec<u32> {
        self.results.iter().map(|&(_, id)| id).collect()
    }
}

/// Seals a route: top-k of the pool, NDC, exploration order, and the
/// termination tag; emits the trace `end` event for traced queries.
/// Shared by both routers (Algorithm 1 and `np_route`).
pub(crate) fn finish_route(
    w: &Pool,
    state: RouterState,
    cache: &DistCache<'_>,
    k: usize,
    stopped: Option<Termination>,
) -> RouteResult {
    let termination = stopped.unwrap_or(Termination::Converged);
    let r = RouteResult {
        results: w.top_k(k).into_iter().map(|e| (e.dist, e.id)).collect(),
        ndc: cache.ndc(),
        exploration_order: state.order,
        termination,
    };
    if let Some(q) = lan_obs::trace::active_query() {
        lan_obs::trace::emit_end(q, termination.as_str(), r.ndc as u64);
    }
    r
}

/// Algorithm 1: beam search over the base-layer adjacency `adj` from the
/// given entry nodes.
pub fn beam_search(
    adj: &[Vec<u32>],
    cache: &DistCache<'_>,
    entries: &[u32],
    b: usize,
    k: usize,
) -> RouteResult {
    beam_search_budgeted(adj, cache, entries, b, k, &BudgetCtx::unlimited())
}

/// Algorithm 1 under a query budget: identical to [`beam_search`] while
/// the budget holds (bit-identical with an unlimited one); on exhaustion
/// the walk stops and the best-so-far pool is returned, tagged with the
/// bound that fired. Never panics, never errors.
pub fn beam_search_budgeted(
    adj: &[Vec<u32>],
    cache: &DistCache<'_>,
    entries: &[u32],
    b: usize,
    k: usize,
    ctx: &BudgetCtx,
) -> RouteResult {
    assert!(b >= 1, "beam size must be at least 1");
    let m_hops = lan_obs::counter(lan_obs::names::ROUTE_HOPS);
    let mut w = Pool::new();
    let mut state = RouterState::new();
    let mut stopped: Option<Termination> = None;
    for &e in entries {
        match budgeted_get(cache, ctx, e) {
            Ok(d) => w.add(e, d),
            Err(t) => {
                stopped = Some(t);
                break;
            }
        }
    }

    while stopped.is_none() {
        let Some(PoolEntry { id: g, .. }) = w.min_unexplored(&state) else {
            break;
        };
        if state.order.len() >= ctx.max_hops() {
            ctx.note_local(Termination::Degraded);
            stopped = Some(Termination::Degraded);
            break;
        }
        for &nb in &adj[g as usize] {
            match budgeted_get(cache, ctx, nb) {
                Ok(d) => w.add(nb, d),
                Err(t) => {
                    stopped = Some(t);
                    break;
                }
            }
        }
        state.mark_explored(g);
        m_hops.inc();
        w.resize(b, &state);
    }

    finish_route(&w, state, cache, k, stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::DistCache;

    /// A path PG 0-1-2-3-4 with the query nearest node 4.
    fn path_adj() -> Vec<Vec<u32>> {
        vec![vec![1], vec![0, 2], vec![1, 3], vec![2, 4], vec![3]]
    }

    #[test]
    fn routes_along_path_to_optimum() {
        let adj = path_adj();
        let dist = |id: u32| (4 - id) as f64;
        let cache = DistCache::new(&dist);
        let r = beam_search(&adj, &cache, &[0], 2, 1);
        assert_eq!(r.results[0], (0.0, 4));
        // Every node on the way gets its distance computed.
        assert_eq!(r.ndc, 5);
    }

    #[test]
    fn beam_one_can_get_stuck_at_local_optimum() {
        // Distances with a valley at node 1 and the true optimum at node 4,
        // but a hill at 2 — with b = 1 the pool forgets the bridge.
        let adj = path_adj();
        let d = [3.0, 1.0, 5.0, 4.0, 0.0];
        let dist = |id: u32| d[id as usize];
        let cache = DistCache::new(&dist);
        let r = beam_search(&adj, &cache, &[0], 1, 1);
        assert_eq!(r.results[0].1, 1, "b=1 should stop at the local optimum");
        // A wider beam escapes.
        let cache2 = DistCache::new(&dist);
        let r2 = beam_search(&adj, &cache2, &[0], 3, 1);
        assert_eq!(r2.results[0].1, 4);
    }

    #[test]
    fn k_results_sorted() {
        let adj = path_adj();
        let dist = |id: u32| (4 - id) as f64;
        let cache = DistCache::new(&dist);
        let r = beam_search(&adj, &cache, &[0], 5, 3);
        assert_eq!(r.ids(), vec![4, 3, 2]);
        assert!(r.results.windows(2).all(|p| p[0].0 <= p[1].0));
    }

    #[test]
    fn multiple_entries() {
        let adj = path_adj();
        let dist = |id: u32| (4 - id) as f64;
        let cache = DistCache::new(&dist);
        let r = beam_search(&adj, &cache, &[0, 4], 2, 1);
        assert_eq!(r.results[0].1, 4);
    }

    #[test]
    fn exploration_order_starts_at_entry() {
        let adj = path_adj();
        let dist = |id: u32| (4 - id) as f64;
        let cache = DistCache::new(&dist);
        let r = beam_search(&adj, &cache, &[0], 2, 1);
        assert_eq!(r.exploration_order[0], 0);
        assert_eq!(*r.exploration_order.last().unwrap(), 4);
    }

    #[test]
    fn isolated_entry_terminates() {
        let adj = vec![vec![]];
        let dist = |_: u32| 7.0;
        let cache = DistCache::new(&dist);
        let r = beam_search(&adj, &cache, &[0], 2, 1);
        assert_eq!(r.results, vec![(7.0, 0)]);
        assert_eq!(r.termination, crate::budget::Termination::Converged);
    }

    #[test]
    fn budgeted_matches_unbudgeted_with_large_cap() {
        use crate::budget::{BudgetCtx, QueryBudget, Termination};
        let adj = path_adj();
        let dist = |id: u32| (4 - id) as f64;
        let c1 = DistCache::new(&dist);
        let free = beam_search(&adj, &c1, &[0], 2, 2);
        let c2 = DistCache::new(&dist);
        let ctx = BudgetCtx::new(&QueryBudget::default().with_max_ndc(1000));
        let capped = beam_search_budgeted(&adj, &c2, &[0], 2, 2, &ctx);
        assert_eq!(free.results, capped.results);
        assert_eq!(free.ndc, capped.ndc);
        assert_eq!(free.exploration_order, capped.exploration_order);
        assert_eq!(capped.termination, Termination::Converged);
    }

    #[test]
    fn ndc_cap_degrades_gracefully() {
        use crate::budget::{BudgetCtx, QueryBudget, Termination};
        let adj = path_adj();
        let dist = |id: u32| (4 - id) as f64;
        for cap in 1..5 {
            let cache = DistCache::new(&dist);
            let ctx = BudgetCtx::new(&QueryBudget::default().with_max_ndc(cap));
            let r = beam_search_budgeted(&adj, &cache, &[0], 2, 1, &ctx);
            assert!(r.ndc <= cap, "cap {cap}: ndc {} over budget", r.ndc);
            assert_eq!(r.termination, Termination::NdcBudget);
            assert!(!r.results.is_empty(), "best-so-far results expected");
        }
        // The full walk needs 5 computations; a cap of 5 converges.
        let cache = DistCache::new(&dist);
        let ctx = BudgetCtx::new(&QueryBudget::default().with_max_ndc(5));
        let r = beam_search_budgeted(&adj, &cache, &[0], 2, 1, &ctx);
        assert_eq!(r.termination, Termination::Converged);
        assert_eq!(r.results[0], (0.0, 4));
    }

    #[test]
    fn hop_cap_degrades_gracefully() {
        use crate::budget::{BudgetCtx, QueryBudget, Termination};
        let adj = path_adj();
        let dist = |id: u32| (4 - id) as f64;
        let cache = DistCache::new(&dist);
        let ctx = BudgetCtx::new(&QueryBudget::default().with_max_hops(2));
        let r = beam_search_budgeted(&adj, &cache, &[0], 2, 1, &ctx);
        assert_eq!(r.exploration_order.len(), 2);
        assert_eq!(r.termination, Termination::Degraded);
        assert!(!r.results.is_empty());
    }
}
