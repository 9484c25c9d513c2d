//! Equivalence contract of the serving execution path: queries executed
//! through shard-shared resources ([`SearchShared`] — the pooled
//! per-query slabs) must return results, per-query NDC, and EXPLAIN tier
//! attribution **bit-identical** to the offline
//! [`ShardedLanIndex::search_budgeted`] /
//! [`ShardedLanIndex::search_explain_budgeted`] entry points, no matter
//! how many concurrent queries draw from the same arenas, or how warm the
//! slabs they draw are.
//!
//! This is the in-process half of the serving equivalence guarantee; the
//! over-the-wire half (TCP protocol round-trip included) lives in
//! `lan-serve`.

use lan_core::sharded::merged_explain;
use lan_core::{
    InitStrategy, LanConfig, QueryOutcome, RouteStrategy, SearchShared, ShardedLanIndex,
};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::Graph;
use lan_models::SlabArena;
use lan_obs::explain::QueryExplain;
use lan_pg::budget::{BudgetCtx, QueryBudget};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn tiny_cfg() -> LanConfig {
    LanConfig {
        pg: lan_pg::PgConfig::new(4),
        model: lan_models::ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 80,
            nh_cover_k: 6,
            clusters: 3,
            top_clusters: 2,
            mlp_hidden: 8,
            ..lan_models::ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    }
}

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(48)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

fn fixture() -> &'static ShardedLanIndex {
    static FIXTURE: OnceLock<ShardedLanIndex> = OnceLock::new();
    FIXTURE.get_or_init(|| ShardedLanIndex::build(&dataset(), &tiny_cfg(), 3))
}

/// Per-shard serving resources, as the server holds them: one slab arena
/// per shard.
struct ShardResources {
    arenas: Vec<Arc<SlabArena>>,
}

impl ShardResources {
    fn new(sharded: &ShardedLanIndex) -> Self {
        ShardResources {
            arenas: sharded
                .shards
                .iter()
                .map(|sh| Arc::new(SlabArena::new(&sh.models)))
                .collect(),
        }
    }

    fn shared(&self, s: usize) -> SearchShared<'_> {
        SearchShared {
            arena: &self.arenas[s],
        }
    }
}

/// Runs one query through the shared per-shard path exactly like the
/// serving front-end: per-shard searches (seed derivation internal),
/// shared budget context, merge in shard order.
fn search_shared(
    sharded: &ShardedLanIndex,
    res: &ShardResources,
    q: &Graph,
    k: usize,
    b: usize,
    seed: u64,
) -> QueryOutcome {
    let t0 = Instant::now();
    let ctx = BudgetCtx::new(&QueryBudget::unlimited());
    let per_shard: Vec<QueryOutcome> = (0..sharded.num_shards())
        .map(|s| {
            sharded.shard_search_budgeted_shared(
                s,
                q,
                k,
                b,
                InitStrategy::LanIs,
                RouteStrategy::LanRoute { use_cg: true },
                seed,
                &ctx,
                &res.shared(s),
            )
        })
        .collect();
    sharded.merge_shard_outcomes(per_shard, k, t0, ctx.termination())
}

/// The EXPLAIN variant of [`search_shared`], assembling the merged plan
/// exactly like `search_explain_budgeted`.
fn search_shared_explain(
    sharded: &ShardedLanIndex,
    res: &ShardResources,
    q: &Graph,
    k: usize,
    b: usize,
    seed: u64,
) -> (QueryOutcome, QueryExplain) {
    let t0 = Instant::now();
    let ctx = BudgetCtx::new(&QueryBudget::unlimited());
    let mut per_shard = Vec::new();
    let mut plans = Vec::new();
    for s in 0..sharded.num_shards() {
        let (out, ex) = sharded.shard_search_explain_budgeted_shared(
            s,
            q,
            k,
            b,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
            seed,
            &ctx,
            &res.shared(s),
        );
        plans.push(ex);
        per_shard.push(out);
    }
    let merged = sharded.merge_shard_outcomes(per_shard, k, t0, ctx.termination());
    let ex = merged_explain(
        &merged,
        k,
        b,
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: true },
        seed,
        &ctx,
        plans,
        Duration::ZERO,
    );
    (merged, ex)
}

fn result_bits(out: &QueryOutcome) -> Vec<(u64, u32)> {
    out.results
        .iter()
        .map(|&(d, id)| (d.to_bits(), id))
        .collect()
}

#[test]
fn shared_path_matches_serial_bitwise() {
    let sharded = fixture();
    let ds = dataset();
    let res = ShardResources::new(sharded);
    for seed in 0..6u64 {
        let q = &ds.queries[(seed % 10) as usize];
        let k = 1 + (seed % 5) as usize;
        let b = 4 + (seed % 12) as usize;
        let serial = sharded.search_budgeted(
            q,
            k,
            b,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
            seed,
            &QueryBudget::unlimited(),
        );
        let shared = search_shared(sharded, &res, q, k, b, seed);
        assert_eq!(
            result_bits(&serial),
            result_bits(&shared),
            "seed {seed}: results diverged"
        );
        assert_eq!(serial.ndc, shared.ndc, "seed {seed}: NDC diverged");
        assert_eq!(
            serial.termination.as_str(),
            shared.termination.as_str(),
            "seed {seed}: termination diverged"
        );
    }
    // Contexts were dropped, so the arenas must have recovered their slabs.
    assert!(res.arenas.iter().all(|a| a.pooled() >= 1));
}

#[test]
fn shared_explain_attribution_matches_serial() {
    let sharded = fixture();
    let ds = dataset();
    let res = ShardResources::new(sharded);
    for seed in 0..4u64 {
        let q = &ds.queries[(seed % 10) as usize];
        let (serial_out, serial_ex) = sharded.search_explain_budgeted(
            q,
            5,
            8,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
            seed,
            &QueryBudget::unlimited(),
        );
        let (shared_out, shared_ex) = search_shared_explain(sharded, &res, q, 5, 8, seed);
        assert_eq!(result_bits(&serial_out), result_bits(&shared_out));
        assert_eq!(serial_ex.ndc, shared_ex.ndc);
        assert_eq!(serial_ex.cache_hits, shared_ex.cache_hits);
        assert_eq!(serial_ex.hops, shared_ex.hops);
        let (a, b) = (&serial_ex.tiers, &shared_ex.tiers);
        assert_eq!(
            (a.lb_prunes, a.tau_aborts, a.full_solves),
            (b.lb_prunes, b.tau_aborts, b.full_solves),
            "seed {seed}: tier attribution diverged"
        );
        assert_eq!(serial_ex.shards.len(), shared_ex.shards.len());
        for (sa, sb) in serial_ex.shards.iter().zip(&shared_ex.shards) {
            assert_eq!(sa.ndc, sb.ndc, "per-shard NDC diverged");
            assert_eq!(sa.hops, sb.hops, "per-shard hops diverged");
        }
    }
}

/// K concurrent clients firing interleaved queries through the same
/// per-shard arenas: every client's results, NDC, and termination must
/// match its own serial run bit for bit — a slab recycled from another
/// client's query must be invisible.
#[test]
fn concurrent_clients_match_serial_bitwise() {
    let sharded = fixture();
    let ds = dataset();
    let res = Arc::new(ShardResources::new(sharded));
    let serial: Vec<(u64, QueryOutcome)> = (0..12u64)
        .map(|seed| {
            let q = &ds.queries[(seed % 10) as usize];
            (
                seed,
                sharded.search_budgeted(
                    q,
                    5,
                    8,
                    InitStrategy::LanIs,
                    RouteStrategy::LanRoute { use_cg: true },
                    seed,
                    &QueryBudget::unlimited(),
                ),
            )
        })
        .collect();
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let res = Arc::clone(&res);
            let ds = dataset();
            std::thread::spawn(move || {
                let sharded = fixture();
                (0..3u64)
                    .map(|i| {
                        let seed = t * 3 + i;
                        let q = &ds.queries[(seed % 10) as usize];
                        (seed, search_shared(sharded, &res, q, 5, 8, seed))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut concurrent: Vec<(u64, QueryOutcome)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    concurrent.sort_by_key(|&(seed, _)| seed);
    for ((seed_a, a), (seed_b, b)) in serial.iter().zip(&concurrent) {
        assert_eq!(seed_a, seed_b);
        assert_eq!(
            result_bits(a),
            result_bits(b),
            "seed {seed_a}: concurrent shared results diverged from serial"
        );
        assert_eq!(a.ndc, b.ndc, "seed {seed_a}: NDC diverged");
    }
}
