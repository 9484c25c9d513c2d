//! Online k-ANN query evaluation: LAN and its ablation/baseline variants.
//!
//! A query is a combination of an initial-node selection strategy (paper
//! Fig. 7: `LAN_IS`, `HNSW_IS`, `Rand_IS`) and a routing strategy (Fig. 6:
//! `LAN_Route` with or without CG acceleration, `HNSW_Route`), all measured
//! with NDC, wall-clock, and a time breakdown (Fig. 11: distance time vs
//! cross-graph learning time vs rest).

use crate::index::LanIndex;
use lan_graph::Graph;
use lan_models::LearnedRanker;
use lan_obs::explain::{BudgetExplain, QueryExplain, TierBreakdown, TimelineEvent};
use lan_obs::{names, span, LazyCounter, TimerCell};
use lan_pg::budget::{budgeted_get, BudgetCtx, Termination};
use lan_pg::faults::{self, FaultMetrics, FaultPlan};
use lan_pg::np_route::np_route_budgeted;
use lan_pg::{beam_search_budgeted, DistCache, QueryDistance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

static QUERY_COUNT: LazyCounter = LazyCounter::new(names::QUERY_COUNT);

/// Initial-node selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// Learned selection via `M_c` + `M_nh` + s-sampling (paper §V).
    LanIs,
    /// Greedy descent through the HNSW hierarchy.
    HnswIs,
    /// A uniformly random node.
    RandIs,
}

impl InitStrategy {
    /// Stable lowercase name used in EXPLAIN plans and bench output.
    pub fn as_str(self) -> &'static str {
        match self {
            InitStrategy::LanIs => "lan_is",
            InitStrategy::HnswIs => "hnsw_is",
            InitStrategy::RandIs => "rand_is",
        }
    }
}

/// Routing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStrategy {
    /// `np_route` with the learned rankers; `use_cg` enables compressed
    /// GNN-graph inference (paper §VI).
    LanRoute { use_cg: bool },
    /// Algorithm 1 exhaustive beam search.
    HnswRoute,
}

impl RouteStrategy {
    /// Stable lowercase name used in EXPLAIN plans and bench output.
    pub fn as_str(self) -> &'static str {
        match self {
            RouteStrategy::LanRoute { use_cg: true } => "lan_route_cg",
            RouteStrategy::LanRoute { use_cg: false } => "lan_route",
            RouteStrategy::HnswRoute => "hnsw_route",
        }
    }
}

/// Everything measured about one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// `(distance, id)` results, ascending.
    pub results: Vec<(f64, u32)>,
    /// Unique distance computations.
    pub ndc: usize,
    /// Total wall-clock of the query.
    pub total_time: Duration,
    /// Time inside distance (GED) computations.
    pub distance_time: Duration,
    /// Time inside GNN inference (cross-graph learning + heads).
    pub gnn_time: Duration,
    /// How the query ended: [`Termination::Converged`] unless a budget
    /// bound it, in which case `results` are best-so-far.
    pub termination: Termination,
}

impl QueryOutcome {
    pub fn ids(&self) -> Vec<u32> {
        self.results.iter().map(|&(_, id)| id).collect()
    }
}

/// Stage-level measurements collected only when an EXPLAIN plan was
/// requested; the plain search path never allocates one.
#[derive(Default)]
pub(crate) struct StageTrace {
    init_ns: u64,
    route_ns: u64,
    cache_hits: u64,
    hops: u64,
    timeline: Vec<TimelineEvent>,
}

/// The per-query distance oracle: dataset GED behind the timing and
/// fault-injection layers.
struct DatasetOracle<'a> {
    dataset: &'a lan_datasets::Dataset,
    q: &'a Graph,
    seed: u64,
    dist_timer: &'a TimerCell,
    fault_plan: &'a Option<(FaultPlan, FaultMetrics)>,
}

impl QueryDistance for DatasetOracle<'_> {
    fn distance(&self, id: u32) -> f64 {
        self.dist_timer.time(|| match self.fault_plan {
            Some((plan, fm)) => faults::faulted_distance(
                plan,
                fm,
                self.seed,
                id,
                || self.dataset.distance(self.q, id),
                || self.dataset.distance_fallback(self.q, id),
            ),
            None => self.dataset.distance(self.q, id),
        })
    }
}

impl LanIndex {
    /// Full LAN query: learned initial selection + learned-pruned routing
    /// with CG acceleration.
    pub fn search(&self, q: &Graph, k: usize, b: usize) -> QueryOutcome {
        self.search_with(
            q,
            k,
            b,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
            0,
        )
    }

    /// The HNSW baseline: hierarchy entry + exhaustive beam routing.
    pub fn search_hnsw(&self, q: &Graph, k: usize, b: usize) -> QueryOutcome {
        self.search_with(q, k, b, InitStrategy::HnswIs, RouteStrategy::HnswRoute, 0)
    }

    /// Any combination of strategies (Figs. 5–7, 10). `seed` feeds the
    /// random choices (Rand_IS, the s-sample of LAN_IS).
    pub fn search_with(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
    ) -> QueryOutcome {
        self.search_with_budget(q, k, b, init, route, seed, &BudgetCtx::unlimited())
    }

    /// [`Self::search_with`] under a query budget. `ctx` carries the NDC /
    /// deadline / hop bounds and the cooperative cancellation flag; shard
    /// fan-out shares one context so one exhausted shard stops its
    /// siblings. With an unlimited context the behavior — results, NDC,
    /// exploration — is bit-identical to [`Self::search_with`]. Budget
    /// exhaustion degrades gracefully: best-so-far results, tagged in
    /// [`QueryOutcome::termination`], never a panic or an error.
    ///
    /// When a fault plan is active (`LAN_FAULTS` or
    /// `lan_pg::faults::set_plan`), distance computations fault
    /// deterministically and recover by retrying once, then falling back
    /// to the approximate GED metric.
    #[allow(clippy::too_many_arguments)]
    pub fn search_with_budget(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
        ctx: &BudgetCtx,
    ) -> QueryOutcome {
        // The disabled path costs exactly one relaxed atomic load.
        if lan_obs::explain::enabled() {
            let (out, ex) = self.search_explain_budgeted(q, k, b, init, route, seed, ctx);
            lan_obs::explain::emit(&ex);
            return out;
        }
        self.search_core(q, k, b, init, route, seed, ctx, false).0
    }

    /// [`Self::search_with`] that additionally returns the query's EXPLAIN
    /// plan: per-stage wall-clock, NDC, cache hit counts, hops, and budget
    /// consumption. The plan is collected unconditionally (no env gate)
    /// and nothing is emitted to the global EXPLAIN ring — callers own the
    /// plan.
    ///
    /// Collection never perturbs the search: results, NDC, and exploration
    /// are bit-identical to [`Self::search_with`].
    pub fn search_explain(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
    ) -> (QueryOutcome, QueryExplain) {
        self.search_explain_budgeted(q, k, b, init, route, seed, &BudgetCtx::unlimited())
    }

    /// [`Self::search_explain`] under a query budget ([`BudgetExplain`]
    /// reports the limits and the NDC charged against the shared cap).
    #[allow(clippy::too_many_arguments)]
    pub fn search_explain_budgeted(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
        ctx: &BudgetCtx,
    ) -> (QueryOutcome, QueryExplain) {
        let (out, trace) = self.search_core(q, k, b, init, route, seed, ctx, true);
        let trace = trace.expect("collecting search always produces a stage trace");
        let limits = ctx.limits();
        let ex = QueryExplain {
            query: seed,
            k,
            b,
            init: init.as_str().to_string(),
            route: route.as_str().to_string(),
            termination: out.termination.as_str().to_string(),
            total_ns: out.total_time.as_nanos() as u64,
            init_ns: trace.init_ns,
            route_ns: trace.route_ns,
            dist_ns: out.distance_time.as_nanos() as u64,
            gnn_ns: out.gnn_time.as_nanos() as u64,
            ndc: out.ndc as u64,
            cache_hits: trace.cache_hits,
            hops: trace.hops,
            // Every distance computation is a full solve: the routers ask
            // for exact distances only.
            tiers: TierBreakdown {
                lb_prunes: 0,
                tau_aborts: 0,
                full_solves: out.ndc as u64,
            },
            budget: BudgetExplain {
                max_ndc: limits.max_ndc.map(|v| v as u64),
                deadline_ms: limits.deadline.map(|d| d.as_millis() as u64),
                max_hops: limits.max_hops.map(|v| v as u64),
                spent_ndc: ctx.spent() as u64,
            },
            timeline: trace.timeline,
            shards: Vec::new(),
        };
        (out, ex)
    }

    /// The one search implementation behind every public entry point.
    /// `explain` switches EXPLAIN collection on: per-stage timings, cache
    /// hits and hops are kept. `false` is the plain search — zero
    /// collection.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn search_core(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
        ctx: &BudgetCtx,
        explain: bool,
    ) -> (QueryOutcome, Option<StageTrace>) {
        let t_start = Instant::now();
        let _q_span = span("query");
        QUERY_COUNT.get().inc();
        // Atomic nanosecond cell instead of RefCell<Duration>: the oracle
        // must be Sync because DistCache is shared across threads in-search.
        // TimerCell is ungated — QueryOutcome::distance_time stays identical
        // whether metrics are enabled or not.
        let dist_timer = TimerCell::new();
        // The fault plan and counters resolve once per query, outside the
        // distance closure; the query seed salts the deterministic draws
        // so different queries fault on different objects.
        let fault_plan = faults::active_plan().map(|p| (p, FaultMetrics::resolve()));
        let qd = DatasetOracle {
            dataset: &self.dataset,
            q,
            seed,
            dist_timer: &dist_timer,
            fault_plan: &fault_plan,
        };
        let cache = DistCache::new(&qd);
        let mut stage_trace = explain.then(StageTrace::default);

        let use_cg = match route {
            RouteStrategy::LanRoute { use_cg } => use_cg,
            // Only relevant when LAN_IS builds a context below.
            RouteStrategy::HnswRoute => true,
        };
        let needs_ctx =
            matches!(route, RouteStrategy::LanRoute { .. }) || init == InitStrategy::LanIs;
        let qctx = needs_ctx.then(|| self.models.query_context(q, use_cg));

        // --- Initial node selection. ---
        let init_t0 = Instant::now();
        let init_span = span("query.init");
        let entries: Vec<u32> = match init {
            InitStrategy::HnswIs => vec![self.pg.hnsw_entry_budgeted(&cache, ctx)],
            InitStrategy::RandIs => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9a7d);
                vec![rng.gen_range(0..self.pg.len()) as u32]
            }
            InitStrategy::LanIs => {
                let qc = qctx.as_ref().expect("LAN_IS requires a query context");
                let nh = self.models.predicted_neighborhood(qc, use_cg);
                if nh.is_empty() {
                    vec![self.pg.hnsw_entry_budgeted(&cache, ctx)]
                } else {
                    // Sample s graphs from N̂_Q, compute their (counted)
                    // distances, keep the best one (paper §V-A). Under an
                    // exhausted budget the best of the sampled prefix (or
                    // no entry at all) is kept — routing degrades rather
                    // than panics.
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a41);
                    let s = self.cfg.model.init_samples.min(nh.len());
                    let mut picked: Vec<u32> = Vec::with_capacity(s);
                    while picked.len() < s {
                        let g = nh[rng.gen_range(0..nh.len())];
                        if !picked.contains(&g) {
                            picked.push(g);
                        }
                    }
                    let mut best: Option<(f64, u32)> = None;
                    for g in picked {
                        let Ok(d) = budgeted_get(&cache, ctx, g) else {
                            break;
                        };
                        let better = match best {
                            None => true,
                            Some((bd, bid)) => d.total_cmp(&bd).then(g.cmp(&bid)).is_lt(),
                        };
                        if better {
                            best = Some((d, g));
                        }
                    }
                    best.map(|(_, g)| vec![g]).unwrap_or_default()
                }
            }
        };

        drop(init_span);
        if let Some(tr) = stage_trace.as_mut() {
            tr.init_ns = init_t0.elapsed().as_nanos() as u64;
            tr.timeline.push(TimelineEvent {
                stage: "init".to_string(),
                ndc: cache.ndc() as u64,
                elapsed_ns: t_start.elapsed().as_nanos() as u64,
            });
        }

        // --- Routing. ---
        let route_t0 = Instant::now();
        let route_span = span("query.route");
        let route_result = match route {
            RouteStrategy::HnswRoute => {
                beam_search_budgeted(self.pg.base(), &cache, &entries, b, k, ctx)
            }
            RouteStrategy::LanRoute { use_cg } => {
                let qc = qctx.as_ref().expect("LAN_Route requires a query context");
                np_route_budgeted(
                    self.pg.base(),
                    &cache,
                    &LearnedRanker::new(&self.models, qc, use_cg),
                    &entries,
                    b,
                    k,
                    self.cfg.ds,
                    ctx,
                )
            }
        };
        drop(route_span);
        if let Some(tr) = stage_trace.as_mut() {
            tr.route_ns = route_t0.elapsed().as_nanos() as u64;
            tr.timeline.push(TimelineEvent {
                stage: "route".to_string(),
                ndc: cache.ndc() as u64,
                elapsed_ns: t_start.elapsed().as_nanos() as u64,
            });
            tr.cache_hits = cache.hits() as u64;
            tr.hops = route_result.exploration_order.len() as u64;
        }

        drop(cache);
        // The recorded cause is the primary outcome: it covers init-phase
        // exhaustion (an empty entry list "converges" trivially) and keeps
        // the original reason when routing only saw the cooperative-cancel
        // flag (which reads as a generic `Degraded` locally). The routing
        // tag is the fallback for stops that never recorded a cause.
        let termination = match ctx.cause() {
            Some(t) => t,
            None => route_result.termination,
        };
        if termination.is_degraded() {
            lan_obs::counter(names::QUERY_DEGRADED).inc();
        }
        let distance_time = dist_timer.total();
        // GNN time is owned by the query context (built once per query, so
        // concurrent queries never share an accumulator); strategies that
        // never build one spent no time in the GNN by construction.
        let gnn_time = qctx
            .as_ref()
            .map(|c| c.gnn_time())
            .unwrap_or(Duration::ZERO);
        let outcome = QueryOutcome {
            results: route_result.results,
            ndc: route_result.ndc,
            total_time: t_start.elapsed(),
            distance_time,
            gnn_time,
            termination,
        };
        (outcome, stage_trace)
    }

    /// Recall@k of a result id list against the brute-force ground truth.
    pub fn recall(&self, q: &Graph, result_ids: &[u32], k: usize) -> f64 {
        let truth = self.dataset.ground_truth_knn(q, k);
        let truth_ids: Vec<u32> = truth.iter().map(|&(_, id)| id).collect();
        lan_datasets::recall_at_k(result_ids, &truth_ids, k)
    }
}
