//! Sharded (distributed-style) k-ANN search — the paper's protocol for
//! large databases (§VII-D: "we randomly split the dataset into equal-size
//! sub-datasets and sequentially perform k-ANN search on each sub-dataset")
//! and the conclusion's future-work direction, made a first-class citizen.
//!
//! Each shard is a complete [`LanIndex`] (its own proximity graph, models,
//! and CGs) over a slice of the database; a query runs on every shard and
//! the per-shard top-k are merged. Shard-local graph ids are remapped back
//! to global database ids. Where the paper searches the shards one after
//! another, a query here runs them concurrently under the `lan-par` thread
//! budget; results and NDC are the same either way.

use crate::index::{LanConfig, LanIndex};
use crate::query::{InitStrategy, QueryOutcome, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec, WorkloadSplit};
use lan_graph::Graph;
use lan_obs::explain::{BudgetExplain, QueryExplain, TierBreakdown, TimelineEvent};
use lan_pg::budget::{BudgetCtx, QueryBudget, Termination};
use std::time::{Duration, Instant};

/// A database partitioned into independently indexed shards.
pub struct ShardedLanIndex {
    pub shards: Vec<LanIndex>,
    /// `global_ids[s][local]` = global database id of shard `s`'s graph
    /// `local`.
    pub global_ids: Vec<Vec<u32>>,
    /// `shard.{s}.ndc`, resolved once per index instead of formatted and
    /// looked up per shard per query.
    shard_ndc: Vec<&'static lan_obs::Counter>,
}

impl ShardedLanIndex {
    /// Assembles an index from built (or loaded) shards and their id maps.
    pub(crate) fn from_parts(shards: Vec<LanIndex>, global_ids: Vec<Vec<u32>>) -> Self {
        let shard_ndc = (0..shards.len())
            .map(|s| lan_obs::counter(&lan_obs::names::shard_ndc(s)))
            .collect();
        ShardedLanIndex {
            shards,
            global_ids,
            shard_ndc,
        }
    }

    /// Splits `dataset` into `num_shards` contiguous equal-size shards and
    /// builds one LAN index per shard, in parallel across shards (models
    /// are trained per shard against its own sub-database).
    ///
    /// Each shard receives a *slim* query workload — only the train and
    /// validation query graphs, with the split indices remapped — instead
    /// of a clone of the full workload: training touches nothing else, and
    /// test queries arrive by reference at search time.
    pub fn build(dataset: &Dataset, cfg: &LanConfig, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let n = dataset.graphs.len();
        assert!(num_shards <= n, "more shards than graphs");
        // Global ids are u32; the `lo as u32..hi as u32` remap below would
        // silently wrap past that, aliasing shards onto the same ids.
        assert!(
            n <= u32::MAX as usize + 1,
            "database of {n} objects exceeds the u32 global-id space"
        );
        let chunk = n.div_ceil(num_shards);

        let train_queries: Vec<Graph> = dataset
            .split
            .train
            .iter()
            .map(|&qi| dataset.queries[qi].clone())
            .collect();
        let val_queries: Vec<Graph> = dataset
            .split
            .val
            .iter()
            .map(|&qi| dataset.queries[qi].clone())
            .collect();
        let slim_queries: Vec<Graph> = train_queries.iter().chain(&val_queries).cloned().collect();
        let slim_split = WorkloadSplit {
            train: (0..train_queries.len()).collect(),
            val: (train_queries.len()..slim_queries.len()).collect(),
            test: Vec::new(),
        };

        let ranges: Vec<(usize, usize)> = (0..num_shards)
            .map(|s| (s * chunk, ((s + 1) * chunk).min(n)))
            .collect();
        let shards: Vec<LanIndex> =
            lan_par::par_map_dyn(&ranges, lan_par::Grain::Fine, |&(lo, hi)| {
                let sub = Dataset {
                    spec: DatasetSpec {
                        num_graphs: hi - lo,
                        ..dataset.spec.clone()
                    },
                    graphs: dataset.graphs[lo..hi].to_vec(),
                    queries: slim_queries.clone(),
                    split: slim_split.clone(),
                };
                LanIndex::build(sub, cfg.clone())
            });
        let global_ids = ranges
            .into_iter()
            .map(|(lo, hi)| (lo as u32..hi as u32).collect())
            .collect();
        Self::from_parts(shards, global_ids)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total indexed graphs across shards.
    pub fn len(&self) -> usize {
        self.global_ids.iter().map(Vec::len).sum()
    }

    /// True when no graphs are indexed (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// k-ANN over every shard with merged global results — the paper's
    /// sub-database protocol, with the shards searched concurrently under
    /// the `lan-par` thread budget (see [`ShardedLanIndex::search_budgeted`]
    /// for the schedule). NDC and the distance/GNN times accumulate.
    pub fn search(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
    ) -> QueryOutcome {
        self.search_budgeted(q, k, b, init, route, seed, &QueryBudget::unlimited())
    }

    /// [`ShardedLanIndex::search`] under a query budget. All shards share
    /// one [`BudgetCtx`], so the NDC cap is global across the query.
    ///
    /// The schedule depends on the budget:
    ///
    /// * **Unlimited** — the shards fan out through `lan-par` (one work
    ///   item per shard), so a query on `S` shards uses up to `S` threads
    ///   of the caller's budget; at a budget of one thread (`LAN_THREADS=1`,
    ///   or inside a saturated fan-out such as a parallel query batch) it
    ///   is the plain serial loop. Every shard's search is deterministic
    ///   and shard-local and the merge is order-independent, so results
    ///   and NDC are identical at every thread count; only `total_time`
    ///   (wall-clock) changes.
    /// * **Finite** — the shards run in shard order on the calling
    ///   thread, and once one shard exhausts the budget the remaining
    ///   shards are skipped (their best-so-far is simply absent from the
    ///   merge). Run concurrently, the shards would race for the shared
    ///   NDC reservations, and which shard's computations won would
    ///   decide the results; in shard order a budgeted query is as
    ///   deterministic as an unbudgeted one.
    #[allow(clippy::too_many_arguments)]
    pub fn search_budgeted(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
        budget: &QueryBudget,
    ) -> QueryOutcome {
        if lan_obs::explain::enabled() {
            let (out, ex) = self.search_explain_budgeted(q, k, b, init, route, seed, budget);
            lan_obs::explain::emit(&ex);
            return out;
        }
        self.fan_out_search(q, k, b, init, route, seed, budget, false)
            .0
    }

    /// [`ShardedLanIndex::search`] that additionally returns the merged
    /// EXPLAIN plan (see [`merged_explain`]): one sub-plan per searched
    /// shard (skipped shards are absent), counts and component times
    /// summed, and a `shard.N` timeline entry per shard.
    pub fn search_explain(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
    ) -> (QueryOutcome, QueryExplain) {
        self.search_explain_budgeted(q, k, b, init, route, seed, &QueryBudget::unlimited())
    }

    /// [`ShardedLanIndex::search_explain`] under a query budget, on the
    /// schedule of [`ShardedLanIndex::search_budgeted`].
    #[allow(clippy::too_many_arguments)]
    pub fn search_explain_budgeted(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
        budget: &QueryBudget,
    ) -> (QueryOutcome, QueryExplain) {
        let (out, ex) = self.fan_out_search(q, k, b, init, route, seed, budget, true);
        (out, ex.expect("an explaining fan-out always merges a plan"))
    }

    /// The one fan-out behind both public searches: every shard through
    /// [`ShardedLanIndex::shard_search`] on the schedule of
    /// [`ShardedLanIndex::search_budgeted`], then the merge. With `explain`
    /// the merged plan ([`merged_explain`]) comes back too; nothing is
    /// emitted here.
    #[allow(clippy::too_many_arguments)]
    fn fan_out_search(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
        budget: &QueryBudget,
        explain: bool,
    ) -> (QueryOutcome, Option<QueryExplain>) {
        let t0 = Instant::now();
        let ctx = BudgetCtx::new(budget);
        let t_fan = Instant::now();
        let pairs = self.fan_out(&ctx, |s| {
            self.shard_search(s, q, k, b, init, route, seed, &ctx, explain)
        });
        let fan = t_fan.elapsed();
        let (per_shard, plans): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let merged = self.merge_shard_outcomes(per_shard, k, t0, ctx.termination());
        let ex = explain.then(|| {
            let own = t0.elapsed().saturating_sub(fan);
            let plans = plans.into_iter().flatten().collect();
            merged_explain(&merged, k, b, init, route, seed, &ctx, plans, own)
        });
        (merged, ex)
    }

    /// Runs `search(s)` for every shard `s` and returns the outputs in
    /// shard order, on the schedule documented at
    /// [`ShardedLanIndex::search_budgeted`]: fanned out under the `lan-par`
    /// budget when `ctx` is unlimited, otherwise in shard order on the
    /// calling thread until a shard exhausts the budget.
    fn fan_out<R: Send>(&self, ctx: &BudgetCtx, search: impl Fn(usize) -> R + Sync) -> Vec<R> {
        if !ctx.is_unlimited() {
            return (0..self.shards.len())
                .map_while(|s| (!ctx.cancelled()).then(|| search(s)))
                .collect();
        }
        // Worker threads have empty trace thread-locals; re-attach the
        // caller's traced query id so per-shard hops keep their `q`.
        let traced = lan_obs::trace::active_query();
        lan_par::par_map_indices_dyn(self.shards.len(), lan_par::Grain::Fine, |s| {
            let _t = lan_obs::trace::propagate(traced);
            search(s)
        })
    }

    /// One shard's slice of a fan-out query, with the shard's EXPLAIN
    /// sub-plan when `explain` is set. This is the only place that derives
    /// the per-shard seed (`seed ^ s`), so a front-end that runs shards
    /// through workers of its own and merges with
    /// [`ShardedLanIndex::merge_shard_outcomes`] (and [`merged_explain`])
    /// reproduces [`ShardedLanIndex::search_budgeted`] bit for bit. It
    /// never emits to the EXPLAIN ring: the caller emits the merged plan.
    #[allow(clippy::too_many_arguments)]
    pub fn shard_search(
        &self,
        s: usize,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
        ctx: &BudgetCtx,
        explain: bool,
    ) -> (QueryOutcome, Option<QueryExplain>) {
        let shard = &self.shards[s];
        let seed = seed ^ s as u64;
        if explain {
            let (out, ex) = shard.search_explain_budgeted(q, k, b, init, route, seed, ctx);
            return (out, Some(ex));
        }
        let (out, _) = shard.search_core(q, k, b, init, route, seed, ctx, false);
        (out, None)
    }

    /// Merges per-shard outcomes (ordered by shard index) into one global
    /// outcome: local ids remapped through `global_ids`, NDC and the
    /// distance/GNN time components summed, `(distance, id)`-sorted top-k.
    /// Public so external fan-outs (the serving front-end) merge exactly
    /// like the in-process fan-outs above.
    pub fn merge_shard_outcomes(
        &self,
        per_shard: Vec<QueryOutcome>,
        k: usize,
        t0: Instant,
        termination: Termination,
    ) -> QueryOutcome {
        let mut merged: Vec<(f64, u32)> = Vec::new();
        let mut ndc = 0usize;
        let mut distance_time = std::time::Duration::ZERO;
        let mut gnn_time = std::time::Duration::ZERO;
        for (s, out) in per_shard.into_iter().enumerate() {
            self.shard_ndc[s].add(out.ndc as u64);
            ndc += out.ndc;
            distance_time += out.distance_time;
            gnn_time += out.gnn_time;
            merged.extend(
                out.results
                    .into_iter()
                    .map(|(d, local)| (d, self.global_ids[s][local as usize])),
            );
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        merged.truncate(k);
        QueryOutcome {
            results: merged,
            ndc,
            total_time: t0.elapsed(),
            distance_time,
            gnn_time,
            termination,
        }
    }
}

/// Assembles the fan-out's merged EXPLAIN plan. Counts (NDC, hits, hops,
/// tiers) and the init/route/distance/GNN time components are summed
/// across the per-shard sub-plans, which ride along under `shards`.
///
/// `total_ns` is the work the query cost, on the same footing as those
/// sums: the shards' own `total_ns` plus `own`, the caller's time outside
/// the shard searches (set-up and merge). Under a parallel fan-out it
/// exceeds the wall-clock, which stays in `merged.total_time`; either
/// way `dist_ns + gnn_ns <= total_ns`, and `total_ns` minus the shards'
/// sum is the merge overhead.
///
/// The timeline holds one `shard.N` entry per searched shard, in shard
/// order: the query NDC accumulated up to and including that shard, and
/// that shard's own `total_ns` (shards overlap in time under the parallel
/// fan-out, so a global offset would say nothing).
#[allow(clippy::too_many_arguments)]
pub fn merged_explain(
    merged: &QueryOutcome,
    k: usize,
    b: usize,
    init: InitStrategy,
    route: RouteStrategy,
    seed: u64,
    ctx: &BudgetCtx,
    plans: Vec<QueryExplain>,
    own: Duration,
) -> QueryExplain {
    let mut timeline = Vec::with_capacity(plans.len());
    let mut total_ns = own.as_nanos() as u64;
    let mut ndc_so_far = 0u64;
    let mut tiers = TierBreakdown::default();
    let mut init_ns = 0u64;
    let mut route_ns = 0u64;
    let mut cache_hits = 0u64;
    let mut hops = 0u64;
    for (s, p) in plans.iter().enumerate() {
        tiers.accumulate(&p.tiers);
        init_ns += p.init_ns;
        route_ns += p.route_ns;
        cache_hits += p.cache_hits;
        hops += p.hops;
        total_ns += p.total_ns;
        ndc_so_far += p.ndc;
        timeline.push(TimelineEvent {
            stage: format!("shard.{s}"),
            ndc: ndc_so_far,
            elapsed_ns: p.total_ns,
        });
    }
    let limits = ctx.limits();
    QueryExplain {
        query: seed,
        k,
        b,
        init: init.as_str().to_string(),
        route: route.as_str().to_string(),
        termination: merged.termination.as_str().to_string(),
        total_ns,
        init_ns,
        route_ns,
        dist_ns: merged.distance_time.as_nanos() as u64,
        gnn_ns: merged.gnn_time.as_nanos() as u64,
        ndc: merged.ndc as u64,
        cache_hits,
        hops,
        tiers,
        budget: BudgetExplain {
            max_ndc: limits.max_ndc.map(|v| v as u64),
            deadline_ms: limits.deadline.map(|d| d.as_millis() as u64),
            max_hops: limits.max_hops.map(|v| v as u64),
            spent_ndc: ctx.spent() as u64,
        },
        timeline,
        shards: plans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_models::ModelConfig;
    use lan_pg::PgConfig;

    fn tiny_cfg() -> LanConfig {
        LanConfig {
            pg: PgConfig::new(4),
            model: ModelConfig {
                embed_dim: 8,
                epochs: 1,
                max_samples_per_epoch: 80,
                nh_cover_k: 6,
                clusters: 3,
                top_clusters: 2,
                mlp_hidden: 8,
                ..ModelConfig::default()
            },
            ds: 1.0,
            quant: crate::index::QuantConfig::default(),
        }
    }

    #[test]
    fn sharded_search_merges_globally() {
        let dataset = Dataset::generate(
            DatasetSpec::syn()
                .with_graphs(60)
                .with_queries(8)
                .with_metric(lan_ged::GedMethod::Hungarian),
        );
        let sharded = ShardedLanIndex::build(&dataset, &tiny_cfg(), 3);
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.len(), 60);

        let q = dataset.queries[0].clone();
        // Beam >= shard size: each shard's connected base layer is fully
        // explored, so the merge must be exact.
        let out = sharded.search(&q, 5, 32, InitStrategy::HnswIs, RouteStrategy::HnswRoute, 0);
        assert_eq!(out.results.len(), 5);
        assert!(out.results.windows(2).all(|w| w[0].0 <= w[1].0));
        // Global ids must span the whole database range, not one shard.
        assert!(out.results.iter().all(|&(_, id)| (id as usize) < 60));

        // Sharded exhaustive search must match the single-index ground
        // truth distances (every shard scans its slice thoroughly at a
        // beam this large relative to shard size).
        let gt = dataset.ground_truth_knn(&q, 5);
        let d_merged: Vec<f64> = out.results.iter().map(|&(d, _)| d).collect();
        let d_truth: Vec<f64> = gt.iter().map(|&(d, _)| d).collect();
        assert_eq!(d_merged, d_truth, "sharded merge lost quality");
    }

    #[test]
    #[should_panic(expected = "more shards than graphs")]
    fn too_many_shards_rejected() {
        let dataset = Dataset::generate(
            DatasetSpec::syn()
                .with_graphs(3)
                .with_queries(2)
                .with_metric(lan_ged::GedMethod::Hungarian),
        );
        let _ = ShardedLanIndex::build(&dataset, &tiny_cfg(), 10);
    }
}
