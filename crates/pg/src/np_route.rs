//! Routing with neighbor pruning — paper Algorithms 2–4 (`np_route`,
//! `all_quali_neigh`, `rank_expl`).
//!
//! A [`NeighborRanker`] partitions each node's neighbors into ordered
//! batches, best-first; batches are opened lazily under a distance threshold
//! γ. Stage 1 routes greedily (threshold = the current node's own distance)
//! until the first local optimum; stage 2 backtracks with an escalating
//! threshold `γ = d(G_flo) + i·d_s`, re-scanning explored nodes for
//! newly-qualified neighbors (`all_quali_neigh`) before each round.
//!
//! With the [`OracleRanker`] this provably returns exactly the baseline's
//! results with no more distance computations (Lemma 1 / Theorem 1) — the
//! property tests in this module and `tests/` check both.

use crate::budget::{budgeted_get, BudgetCtx, Termination};
use crate::metric::{DistCache, QueryDistance};
use crate::pool::{Pool, RouterState};
use crate::routing::{finish_route, RouteResult};
use lan_obs::{names, trace, Counter};
use std::collections::HashMap;

/// Ranks and partitions a node's neighbors into batches, best (predicted
/// closest to the query) first.
///
/// `d_node` is the known distance from the query to `node` — the learned
/// ranker uses it to fall back to a single all-neighbors batch outside the
/// query's neighborhood (paper §IV-C).
pub trait NeighborRanker {
    fn rank(&self, node: u32, neighbors: &[u32], d_node: f64) -> Vec<Vec<u32>>;
}

/// Splits `ranked` into batches of `y`% each (at least one element per
/// batch), preserving order.
pub fn chunk_batches(ranked: Vec<u32>, batch_pct: usize) -> Vec<Vec<u32>> {
    if ranked.is_empty() {
        return Vec::new();
    }
    let n = ranked.len();
    let size = ((n * batch_pct) / 100).max(1);
    ranked.chunks(size).map(|c| c.to_vec()).collect()
}

/// The idealized oracle of §IV-A: ranks neighbors by their **true**
/// distances to the query, in negligible time (its distance access is not
/// counted as NDC — that is the assumption Theorem 1 is stated under).
pub struct OracleRanker<'a> {
    truth: &'a dyn QueryDistance,
    /// Batch size parameter `y` (percent); the paper uses 20.
    pub batch_pct: usize,
}

impl<'a> OracleRanker<'a> {
    pub fn new(truth: &'a dyn QueryDistance, batch_pct: usize) -> Self {
        assert!((1..=100).contains(&batch_pct));
        OracleRanker { truth, batch_pct }
    }
}

impl NeighborRanker for OracleRanker<'_> {
    fn rank(&self, _node: u32, neighbors: &[u32], _d_node: f64) -> Vec<Vec<u32>> {
        let mut ranked: Vec<u32> = neighbors.to_vec();
        ranked.sort_by(|&a, &b| {
            self.truth
                .distance(a)
                .total_cmp(&self.truth.distance(b))
                .then(a.cmp(&b))
        });
        chunk_batches(ranked, self.batch_pct)
    }
}

/// A ranker that puts all neighbors in one batch — np_route degenerates to
/// the baseline's exhaustive exploration (useful for ablations).
pub struct NoPruneRanker;

impl NeighborRanker for NoPruneRanker {
    fn rank(&self, _node: u32, neighbors: &[u32], _d_node: f64) -> Vec<Vec<u32>> {
        if neighbors.is_empty() {
            Vec::new()
        } else {
            vec![neighbors.to_vec()]
        }
    }
}

/// Per-node lazily ranked batches with the opened prefix.
struct BatchState {
    batches: Vec<Vec<u32>>,
    opened: usize,
}

/// Ranks `g`'s neighbors on first touch. A free function over the router's
/// disjoint fields so callers can keep borrowing their scratch buffers.
fn ensure_batches<'b, R: NeighborRanker>(
    batches: &'b mut HashMap<u32, BatchState>,
    ranker: &R,
    adj: &[Vec<u32>],
    cache: &DistCache<'_>,
    g: u32,
) -> &'b mut BatchState {
    batches.entry(g).or_insert_with(|| {
        // `g` is always pooled here, so its distance is already cached —
        // this lookup is a hit and never charges the budget.
        let d_node = cache.get(g);
        BatchState {
            batches: ranker.rank(g, &adj[g as usize], d_node),
            opened: 0,
        }
    })
}

struct NpRouter<'a, R: NeighborRanker> {
    adj: &'a [Vec<u32>],
    cache: &'a DistCache<'a>,
    ranker: &'a R,
    ctx: &'a BudgetCtx,
    /// Set when the budget stopped the query; the routing loops unwind
    /// and the best-so-far pool is returned with this tag.
    stopped: Option<Termination>,
    batches: HashMap<u32, BatchState>,
    /// Reusable copy of the batch being opened: batch members are copied
    /// here instead of cloning a fresh `Vec` per opened batch.
    batch_scratch: Vec<u32>,
    /// Flattened opened-batch members for the stage-2 re-scan, with
    /// per-batch lengths in `rescan_lens` — replaces the per-call
    /// `batches[..opened].to_vec()` clone of nested vectors.
    rescan_scratch: Vec<u32>,
    rescan_lens: Vec<usize>,
    w: Pool,
    state: RouterState,
    // Pre-resolved metric handles — increments on the routing hot loop are
    // single relaxed atomics, never registry lookups.
    m_hops: &'static Counter,
    m_opened: &'static Counter,
    m_prunes: &'static Counter,
    /// Query id when this query is being traced (`LAN_TRACE=route`).
    trace_q: Option<u64>,
    /// Hop index within this query (exploration order).
    hop: u32,
}

impl<'a, R: NeighborRanker> NpRouter<'a, R> {
    /// Records the exploration of node `g` — one routing hop — to the
    /// global metrics and, when traced, the per-query hop trace.
    fn note_hop(&mut self, stage: u8, g: u32, d: f64, gamma: f64) {
        self.m_hops.inc();
        let q = match self.trace_q {
            Some(q) => q,
            None => return,
        };
        let (total, opened) = self
            .batches
            .get(&g)
            .map(|st| (st.batches.len() as u32, st.opened as u32))
            .unwrap_or((0, 0));
        trace::emit_hop(&trace::HopEvent {
            q,
            hop: self.hop,
            stage,
            node: g,
            dist: d,
            gamma,
            neighbors: self.adj[g as usize].len() as u32,
            batches_total: total,
            batches_opened: opened,
            ndc: self.cache.ndc() as u64,
            cache_hits: self.cache.hits() as u64,
        });
        self.hop += 1;
    }

    /// Records a γ-threshold stop that left batches of `g` unopened.
    fn note_prune(&mut self, g: u32) {
        if let Some(st) = self.batches.get(&g) {
            if st.opened < st.batches.len() {
                self.m_prunes.inc();
            }
        }
    }

    /// Budget-aware distance; `None` means the budget stopped the query
    /// (the cause is recorded in `self.stopped` and the loops unwind).
    fn try_get(&mut self, id: u32) -> Option<f64> {
        match budgeted_get(self.cache, self.ctx, id) {
            Ok(d) => Some(d),
            Err(t) => {
                self.stopped = Some(t);
                None
            }
        }
    }

    /// Checks the per-router hop cap before exploring another node.
    fn hop_capped(&mut self) -> bool {
        if self.state.order.len() >= self.ctx.max_hops() {
            self.ctx.note_local(Termination::Degraded);
            self.stopped = Some(Termination::Degraded);
            true
        } else {
            false
        }
    }

    /// Copies the next unopened batch of `g` into `self.batch_scratch` and
    /// advances the opened cursor. `false` means every batch is open.
    fn take_next_batch(&mut self, g: u32) -> bool {
        let st = ensure_batches(&mut self.batches, self.ranker, self.adj, self.cache, g);
        if st.opened >= st.batches.len() {
            return false;
        }
        self.batch_scratch.clear();
        self.batch_scratch.extend_from_slice(&st.batches[st.opened]);
        st.opened += 1;
        true
    }

    /// Algorithm 4: open further batches of `g` under threshold `gamma`.
    fn rank_expl(&mut self, g: u32, gamma: f64) {
        // Farthest already-known neighbor among opened batches (line 3-6).
        {
            let st = ensure_batches(&mut self.batches, self.ranker, self.adj, self.cache, g);
            let opened = st.opened;
            // Every member of an opened batch is cached (see
            // `all_quali_neigh`), so `peek` finds each one without a count.
            let farthest = st.batches[..opened]
                .iter()
                .flatten()
                .filter_map(|&nb| self.cache.peek(nb))
                .fold(f64::NEG_INFINITY, f64::max);
            if opened > 0 && farthest >= gamma {
                self.note_prune(g);
                return;
            }
        }
        while self.take_next_batch(g) {
            self.m_opened.inc();
            let mut hit = false;
            for i in 0..self.batch_scratch.len() {
                let nb = self.batch_scratch[i];
                let Some(d) = self.try_get(nb) else {
                    return;
                };
                self.w.add(nb, d);
                if d >= gamma {
                    hit = true;
                }
            }
            if hit {
                self.note_prune(g);
                return;
            }
        }
    }

    /// Algorithm 3: pool every qualified neighbor of the explored node `g`
    /// w.r.t. threshold `gamma` (opened batches contribute their unexplored
    /// members; further batches are opened until one crosses the threshold).
    fn all_quali_neigh(&mut self, g: u32, gamma: f64) {
        // Re-scan opened batches (lines 3-10), flattened into the reusable
        // scratch (members + per-batch lengths) instead of a nested clone.
        {
            let NpRouter {
                batches,
                ranker,
                adj,
                cache,
                rescan_scratch,
                rescan_lens,
                ..
            } = self;
            let st = ensure_batches(batches, *ranker, adj, cache, g);
            rescan_scratch.clear();
            rescan_lens.clear();
            for b in &st.batches[..st.opened] {
                rescan_scratch.extend_from_slice(b);
                rescan_lens.push(b.len());
            }
        }
        let mut start = 0usize;
        for bi in 0..self.rescan_lens.len() {
            let len = self.rescan_lens[bi];
            let mut hit = false;
            for i in start..start + len {
                let nb = self.rescan_scratch[i];
                if !self.state.is_explored(nb) {
                    // Opening a batch computes every member, and a budget
                    // stop mid-batch ends the route before the next
                    // re-scan, so the member is cached: this lookup is a
                    // hit and never charges the budget.
                    debug_assert!(
                        self.cache.peek(nb).is_some(),
                        "opened batch member {nb} is uncached"
                    );
                    let d = self.cache.get(nb);
                    self.w.add(nb, d);
                    if d >= gamma {
                        hit = true;
                    }
                }
            }
            if hit {
                self.note_prune(g);
                return;
            }
            start += len;
        }
        // Open remaining batches (lines 11-18).
        while self.take_next_batch(g) {
            self.m_opened.inc();
            let mut hit = false;
            for i in 0..self.batch_scratch.len() {
                let nb = self.batch_scratch[i];
                let Some(d) = self.try_get(nb) else {
                    return;
                };
                self.w.add(nb, d);
                if d >= gamma {
                    hit = true;
                }
            }
            if hit {
                self.note_prune(g);
                return;
            }
        }
    }
}

/// Algorithm 2: routing with neighbor pruning.
///
/// * `adj` — base-layer proximity-graph adjacency;
/// * `cache` — the query's counting distance cache;
/// * `ranker` — oracle or learned neighbor ranker;
/// * `entries` — initial node(s);
/// * `b` — beam (pool) size; `k` — answer count; `ds` — the γ step size
///   (must be positive; the paper uses the distance granularity, 1 for
///   unit-cost GED).
pub fn np_route<R: NeighborRanker>(
    adj: &[Vec<u32>],
    cache: &DistCache<'_>,
    ranker: &R,
    entries: &[u32],
    b: usize,
    k: usize,
    ds: f64,
) -> RouteResult {
    np_route_budgeted(
        adj,
        cache,
        ranker,
        entries,
        b,
        k,
        ds,
        &BudgetCtx::unlimited(),
    )
}

/// Algorithm 2 under a query budget: identical to [`np_route`] while the
/// budget holds (bit-identical with an unlimited one). On exhaustion —
/// NDC cap, deadline, hop cap, or a sibling shard's cancellation — the
/// routing unwinds and returns the best-so-far pool tagged with the bound
/// that fired. Never panics, never errors.
#[allow(clippy::too_many_arguments)]
pub fn np_route_budgeted<R: NeighborRanker>(
    adj: &[Vec<u32>],
    cache: &DistCache<'_>,
    ranker: &R,
    entries: &[u32],
    b: usize,
    k: usize,
    ds: f64,
    ctx: &BudgetCtx,
) -> RouteResult {
    assert!(b >= 1, "beam size must be at least 1");
    assert!(ds > 0.0, "gamma step must be positive");
    let mut r = NpRouter {
        adj,
        cache,
        ranker,
        ctx,
        stopped: None,
        batches: HashMap::new(),
        batch_scratch: Vec::new(),
        rescan_scratch: Vec::new(),
        rescan_lens: Vec::new(),
        w: Pool::new(),
        state: RouterState::new(),
        m_hops: lan_obs::counter(names::ROUTE_HOPS),
        m_opened: lan_obs::counter(names::ROUTE_BATCHES_OPENED),
        m_prunes: lan_obs::counter(names::ROUTE_GAMMA_PRUNES),
        trace_q: trace::active_query(),
        hop: 0,
    };
    for &e in entries {
        let Some(d) = r.try_get(e) else { break };
        r.w.add(e, d);
    }

    // --- Stage 1: greedy descent to the first local optimum (lines 5-11).
    while r.stopped.is_none() {
        let Some(g) = r.w.min_entry() else { break };
        if r.state.is_explored(g.id) || r.hop_capped() {
            break;
        }
        r.rank_expl(g.id, g.dist);
        r.state.mark_explored(g.id);
        r.note_hop(1, g.id, g.dist, g.dist);
        r.w.resize(b, &r.state);
    }

    // --- Stage 2: backtracking with escalating gamma (lines 12-29).
    //
    // An empty pool (no entries, or the budget stopped the query before
    // any entry distance was computed) previously panicked here; routing
    // instead returns what it has — the empty or entry-only pool.
    if r.stopped.is_none() {
        if let Some(g_flo) = r.w.min_entry() {
            let mut gamma = g_flo.dist + ds;
            'escalate: loop {
                if let Some(q) = r.trace_q {
                    trace::emit_gamma(q, gamma);
                }
                // Index loop: `all_quali_neigh` never appends to the
                // exploration order, so this avoids cloning it each round.
                for i in 0..r.state.order.len() {
                    let g = r.state.order[i];
                    r.all_quali_neigh(g, gamma);
                    if r.stopped.is_some() {
                        break 'escalate;
                    }
                }
                r.w.resize(b, &r.state);
                if r.w.all_explored(&r.state) {
                    break;
                }
                while let Some(g) = r.w.min_unexplored_within(gamma, &r.state) {
                    if r.hop_capped() {
                        break 'escalate;
                    }
                    r.rank_expl(g.id, gamma);
                    r.state.mark_explored(g.id);
                    r.note_hop(2, g.id, g.dist, gamma);
                    r.w.resize(b, &r.state);
                    if r.stopped.is_some() {
                        break 'escalate;
                    }
                }
                gamma += ds;
            }
        }
    }

    finish_route(&r.w, r.state, cache, k, r.stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::DistCache;
    use crate::routing::beam_search;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_both(
        adj: &[Vec<u32>],
        dists: &[f64],
        entry: u32,
        b: usize,
        k: usize,
        y: usize,
    ) -> (RouteResult, RouteResult) {
        let f = |id: u32| dists[id as usize];
        let cache_bs = DistCache::new(&f);
        let bs = beam_search(adj, &cache_bs, &[entry], b, k);
        let cache_np = DistCache::new(&f);
        let oracle = OracleRanker::new(&f, y);
        let np = np_route(adj, &cache_np, &oracle, &[entry], b, k, 1.0);
        (bs, np)
    }

    /// Random connected adjacency for routing tests.
    fn random_adj(rng: &mut StdRng, n: usize, extra: usize) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); n];
        let connect = |adj: &mut Vec<Vec<u32>>, a: usize, b: usize| {
            if a != b && !adj[a].contains(&(b as u32)) {
                adj[a].push(b as u32);
                adj[b].push(a as u32);
            }
        };
        for i in 1..n {
            let j = rng.gen_range(0..i);
            connect(&mut adj, i, j);
        }
        for _ in 0..extra {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            connect(&mut adj, a, b);
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        adj
    }

    /// Distinct integer distances: a random permutation of `0..n`.
    fn distinct_dists(rng: &mut StdRng, n: usize) -> Vec<f64> {
        use rand::seq::SliceRandom;
        let mut d: Vec<f64> = (0..n).map(|i| i as f64).collect();
        d.shuffle(rng);
        d
    }

    #[test]
    fn theorem1_same_results_never_more_ndc() {
        // Theorem 1 in general position (distinct distances): identical
        // result sets and NDC no larger than the baseline's.
        let mut rng = StdRng::seed_from_u64(81);
        for trial in 0..200 {
            let n = rng.gen_range(5..30);
            let adj = random_adj(&mut rng, n, n);
            let dists = distinct_dists(&mut rng, n);
            let entry = rng.gen_range(0..n) as u32;
            let b = rng.gen_range(1..6);
            let k = rng.gen_range(1..=b);
            let y = *[10usize, 20, 30, 50].get(trial % 4).unwrap();
            let (bs, np) = run_both(&adj, &dists, entry, b, k, y);
            assert_eq!(
                bs.results, np.results,
                "trial {trial}: results differ (n={n}, b={b}, k={k}, y={y})"
            );
            assert!(
                np.ndc <= bs.ndc,
                "trial {trial}: np NDC {} > baseline NDC {}",
                np.ndc,
                bs.ndc
            );
        }
    }

    #[test]
    fn lemma1_same_exploration_sequence() {
        let mut rng = StdRng::seed_from_u64(82);
        for trial in 0..200 {
            let n = rng.gen_range(5..25);
            let adj = random_adj(&mut rng, n, n / 2);
            let dists = distinct_dists(&mut rng, n);
            let entry = rng.gen_range(0..n) as u32;
            let b = rng.gen_range(1..5);
            let (bs, np) = run_both(&adj, &dists, entry, b, 1, 20);
            assert_eq!(
                bs.exploration_order, np.exploration_order,
                "trial {trial}: exploration sequences differ"
            );
        }
    }

    #[test]
    fn theorem1_tie_cases_statistically_equivalent() {
        // With ties (integer GED values repeat constantly) Lemma 1's proof
        // does not apply: the batch-deferred discovery order can saturate
        // np's pool with closer explored nodes before a tied candidate ever
        // enters, dropping it — in either direction (np is sometimes better,
        // sometimes worse than the baseline on individual queries). What
        // survives ties is statistical equivalence: over many random
        // instances the two routers return results of near-identical total
        // quality, and np never spends more distance computations in
        // aggregate. This mirrors the paper's empirical finding that recall
        // is preserved while NDC drops.
        let mut rng = StdRng::seed_from_u64(83);
        let (mut sum_bs, mut sum_np) = (0.0f64, 0.0f64);
        let (mut ndc_bs, mut ndc_np) = (0usize, 0usize);
        for _ in 0..300 {
            let n = rng.gen_range(5..30);
            let adj = random_adj(&mut rng, n, n);
            let dists: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64).collect();
            let entry = rng.gen_range(0..n) as u32;
            let b = rng.gen_range(1..6);
            let k = rng.gen_range(1..=b);
            let (bs, np) = run_both(&adj, &dists, entry, b, k, 20);
            assert_eq!(bs.results.len(), np.results.len());
            sum_bs += bs.results.iter().map(|&(d, _)| d).sum::<f64>();
            sum_np += np.results.iter().map(|&(d, _)| d).sum::<f64>();
            ndc_bs += bs.ndc;
            ndc_np += np.ndc;
        }
        assert!(
            sum_np <= sum_bs * 1.05 + 1.0,
            "np aggregate quality degraded: {sum_np} vs baseline {sum_bs}"
        );
        assert!(
            ndc_np <= ndc_bs,
            "np aggregate NDC {ndc_np} exceeds baseline {ndc_bs}"
        );
        assert!(
            (ndc_np as f64) < 0.9 * ndc_bs as f64,
            "pruning saved no meaningful NDC: {ndc_np} vs {ndc_bs}"
        );
    }

    #[test]
    fn oracle_pruning_reduces_ndc_on_structured_instance() {
        // A hub-and-spoke PG where most spokes are far: pruning must help.
        let n = 40usize;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 1..n {
            adj[0].push(i as u32);
            adj[i].push(0);
        }
        // Chain among first few nodes to give a descent path.
        for i in 1..5 {
            adj[i].push((i + 1) as u32);
            adj[i + 1].push(i as u32);
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        let dists: Vec<f64> = (0..n)
            .map(|i| {
                if i <= 5 {
                    (5 - i) as f64
                } else {
                    50.0 + i as f64
                }
            })
            .collect();
        let (bs, np) = run_both(&adj, &dists, 0, 2, 1, 10);
        assert_eq!(bs.results, np.results);
        assert!(
            np.ndc * 2 < bs.ndc,
            "expected >2x NDC reduction: np {} vs bs {}",
            np.ndc,
            bs.ndc
        );
    }

    #[test]
    fn no_prune_ranker_equals_baseline_ndc() {
        let mut rng = StdRng::seed_from_u64(83);
        let adj = random_adj(&mut rng, 20, 10);
        let dists: Vec<f64> = (0..20).map(|_| rng.gen_range(0..10) as f64).collect();
        let f = |id: u32| dists[id as usize];
        let cache_bs = DistCache::new(&f);
        let bs = beam_search(&adj, &cache_bs, &[0], 3, 2);
        let cache_np = DistCache::new(&f);
        let np = np_route(&adj, &cache_np, &NoPruneRanker, &[0], 3, 2, 1.0);
        assert_eq!(bs.results, np.results);
        assert_eq!(bs.ndc, np.ndc);
    }

    #[test]
    fn chunk_batches_sizes() {
        assert_eq!(
            chunk_batches(vec![1, 2, 3, 4], 30),
            vec![vec![1], vec![2], vec![3], vec![4]]
        );
        assert_eq!(
            chunk_batches(vec![1, 2, 3, 4], 50),
            vec![vec![1, 2], vec![3, 4]]
        );
        assert_eq!(chunk_batches(vec![1, 2, 3], 100), vec![vec![1, 2, 3]]);
        assert!(chunk_batches(vec![], 20).is_empty());
        assert_eq!(chunk_batches(vec![9], 20), vec![vec![9]]);
    }

    #[test]
    fn chunk_batches_edge_cases() {
        // batch_pct = 100: always exactly one batch, any n.
        for n in [1usize, 2, 7, 100] {
            let items: Vec<u32> = (0..n as u32).collect();
            let batches = chunk_batches(items.clone(), 100);
            assert_eq!(batches, vec![items], "pct=100, n={n}");
        }
        // n smaller than the nominal batch size: the size floor of 1 keeps
        // every element in play (never an empty or dropped batch).
        assert_eq!(chunk_batches(vec![7, 8], 90), vec![vec![7], vec![8]]);
        assert_eq!(chunk_batches(vec![5], 1), vec![vec![5]]);
        // Empty input is empty output at every percentage.
        for pct in [1usize, 20, 100] {
            assert!(chunk_batches(vec![], pct).is_empty(), "pct={pct}");
        }
        // Batches always concatenate back to the input, in order.
        for pct in [1usize, 13, 33, 50, 99, 100] {
            let items: Vec<u32> = (0..23).collect();
            let flat: Vec<u32> = chunk_batches(items.clone(), pct).concat();
            assert_eq!(flat, items, "pct={pct} lost or reordered elements");
        }
    }

    #[test]
    fn single_node_graph() {
        let adj = vec![vec![]];
        let f = |_: u32| 4.0;
        let cache = DistCache::new(&f);
        let oracle = OracleRanker::new(&f, 20);
        let r = np_route(&adj, &cache, &oracle, &[0], 2, 1, 1.0);
        assert_eq!(r.results, vec![(4.0, 0)]);
        assert_eq!(r.ndc, 1);
        assert_eq!(r.termination, Termination::Converged);
    }

    #[test]
    fn isolated_entry_returns_entry_only() {
        // Regression: an isolated entry in a larger graph must yield an
        // entry-only result, not a panic.
        let adj = vec![vec![], vec![2], vec![1]];
        let f = |id: u32| 1.0 + id as f64;
        let cache = DistCache::new(&f);
        let oracle = OracleRanker::new(&f, 20);
        let r = np_route(&adj, &cache, &oracle, &[0], 3, 2, 1.0);
        assert_eq!(r.results, vec![(1.0, 0)]);
        assert_eq!(r.termination, Termination::Converged);
    }

    #[test]
    fn empty_entries_return_empty_result() {
        // Regression: "pool cannot be empty after stage 1" panicked here.
        let adj = vec![vec![1], vec![0]];
        let f = |id: u32| id as f64;
        let cache = DistCache::new(&f);
        let oracle = OracleRanker::new(&f, 20);
        let r = np_route(&adj, &cache, &oracle, &[], 2, 1, 1.0);
        assert!(r.results.is_empty());
        assert_eq!(r.ndc, 0);
        assert_eq!(r.termination, Termination::Converged);
    }

    #[test]
    fn budgeted_np_route_matches_with_large_cap_and_degrades_with_small() {
        use crate::budget::QueryBudget;
        let mut rng = StdRng::seed_from_u64(91);
        let adj = random_adj(&mut rng, 25, 25);
        let dists = distinct_dists(&mut rng, 25);
        let f = |id: u32| dists[id as usize];
        let oracle = OracleRanker::new(&f, 20);

        let free_cache = DistCache::new(&f);
        let free = np_route(&adj, &free_cache, &oracle, &[0], 3, 2, 1.0);
        assert_eq!(free.termination, Termination::Converged);

        // A cap at least the unlimited NDC changes nothing, bit for bit.
        let ctx = BudgetCtx::new(&QueryBudget::default().with_max_ndc(free.ndc));
        let cache = DistCache::new(&f);
        let same = np_route_budgeted(&adj, &cache, &oracle, &[0], 3, 2, 1.0, &ctx);
        assert_eq!(free.results, same.results);
        assert_eq!(free.ndc, same.ndc);
        assert_eq!(free.exploration_order, same.exploration_order);
        assert_eq!(same.termination, Termination::Converged);

        // Any smaller cap must bound the NDC and tag the result.
        for cap in 1..free.ndc {
            let ctx = BudgetCtx::new(&QueryBudget::default().with_max_ndc(cap));
            let cache = DistCache::new(&f);
            let r = np_route_budgeted(&adj, &cache, &oracle, &[0], 3, 2, 1.0, &ctx);
            assert!(r.ndc <= cap, "cap {cap}: ndc {}", r.ndc);
            assert_eq!(r.termination, Termination::NdcBudget, "cap {cap}");
        }
    }
}
