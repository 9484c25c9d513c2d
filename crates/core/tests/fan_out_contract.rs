//! Fan-out contract: a query run shard by shard through
//! [`ShardedLanIndex::shard_search`] and merged with
//! [`ShardedLanIndex::merge_shard_outcomes`] / [`merged_explain`] — the way
//! the serving front-end runs it, one shard worker at a time — returns
//! results, per-query NDC, termination and EXPLAIN counts **bit-identical**
//! to the offline [`ShardedLanIndex::search_budgeted`] /
//! [`ShardedLanIndex::search_explain_budgeted`], however many clients run
//! queries concurrently.
//!
//! This is the in-process half of the serving equivalence guarantee; the
//! over-the-wire half (TCP protocol round-trip included) lives in
//! `lan-serve`.

use lan_core::sharded::merged_explain;
use lan_core::{InitStrategy, LanConfig, QueryOutcome, RouteStrategy, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::Graph;
use lan_obs::explain::QueryExplain;
use lan_pg::budget::{BudgetCtx, QueryBudget};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const INIT: InitStrategy = InitStrategy::LanIs;
const ROUTE: RouteStrategy = RouteStrategy::LanRoute { use_cg: true };

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

/// Runs one query shard by shard, as the serving front-end does: one
/// shared budget context, [`ShardedLanIndex::shard_search`] per shard (the
/// seed derivation is internal), the merge in shard order, and the merged
/// plan when `explain` is set.
fn per_shard(
    sharded: &ShardedLanIndex,
    q: &Graph,
    k: usize,
    b: usize,
    seed: u64,
    explain: bool,
) -> (QueryOutcome, Option<QueryExplain>) {
    let t0 = Instant::now();
    let ctx = BudgetCtx::new(&QueryBudget::unlimited());
    let (outs, plans): (Vec<_>, Vec<_>) = (0..sharded.num_shards())
        .map(|s| sharded.shard_search(s, q, k, b, INIT, ROUTE, seed, &ctx, explain))
        .unzip();
    let merged = sharded.merge_shard_outcomes(outs, k, t0, ctx.termination());
    let plans: Vec<QueryExplain> = plans.into_iter().flatten().collect();
    assert_eq!(plans.len(), if explain { sharded.num_shards() } else { 0 });
    let ex = explain.then(|| {
        merged_explain(
            &merged,
            k,
            b,
            INIT,
            ROUTE,
            seed,
            &ctx,
            plans,
            Duration::ZERO,
        )
    });
    (merged, ex)
}

fn offline(sharded: &ShardedLanIndex, q: &Graph, k: usize, b: usize, seed: u64) -> QueryOutcome {
    sharded.search_budgeted(q, k, b, INIT, ROUTE, seed, &QueryBudget::unlimited())
}

fn result_bits(out: &QueryOutcome) -> Vec<(u64, u32)> {
    out.results
        .iter()
        .map(|&(d, id)| (d.to_bits(), id))
        .collect()
}

#[test]
fn per_shard_searches_match_the_fan_out_bitwise() {
    let sharded = fixture();
    let ds = dataset();
    for seed in 0..6u64 {
        let q = &ds.queries[(seed % 10) as usize];
        let k = 1 + (seed % 5) as usize;
        let b = 4 + (seed % 12) as usize;
        let serial = offline(sharded, q, k, b, seed);
        let (split, ex) = per_shard(sharded, q, k, b, seed, false);
        assert!(ex.is_none());
        assert_eq!(
            result_bits(&serial),
            result_bits(&split),
            "seed {seed}: results diverged"
        );
        assert_eq!(serial.ndc, split.ndc, "seed {seed}: NDC diverged");
        assert_eq!(
            serial.termination.as_str(),
            split.termination.as_str(),
            "seed {seed}: termination diverged"
        );
    }
}

#[test]
fn per_shard_plans_merge_like_the_fan_out() {
    let sharded = fixture();
    let ds = dataset();
    for seed in 0..4u64 {
        let q = &ds.queries[(seed % 10) as usize];
        let (serial_out, serial_ex) =
            sharded.search_explain_budgeted(q, 5, 8, INIT, ROUTE, seed, &QueryBudget::unlimited());
        let (split_out, split_ex) = per_shard(sharded, q, 5, 8, seed, true);
        let split_ex = split_ex.expect("an explaining run merges a plan");
        assert_eq!(result_bits(&serial_out), result_bits(&split_out));
        assert_eq!(serial_ex.query, split_ex.query);
        assert_eq!(serial_ex.ndc, split_ex.ndc);
        assert_eq!(serial_ex.cache_hits, split_ex.cache_hits);
        assert_eq!(serial_ex.hops, split_ex.hops);
        let (a, b) = (&serial_ex.tiers, &split_ex.tiers);
        assert_eq!(
            (a.lb_prunes, a.tau_aborts, a.full_solves),
            (b.lb_prunes, b.tau_aborts, b.full_solves),
            "seed {seed}: tier attribution diverged"
        );
        let stages = |ex: &QueryExplain| -> Vec<(String, u64)> {
            ex.timeline
                .iter()
                .map(|e| (e.stage.clone(), e.ndc))
                .collect()
        };
        assert_eq!(stages(&serial_ex), stages(&split_ex));
        assert_eq!(serial_ex.shards.len(), split_ex.shards.len());
        for (sa, sb) in serial_ex.shards.iter().zip(&split_ex.shards) {
            assert_eq!(sa.query, sb.query, "per-shard seed diverged");
            assert_eq!(sa.ndc, sb.ndc, "per-shard NDC diverged");
            assert_eq!(sa.hops, sb.hops, "per-shard hops diverged");
        }
    }
}

/// K concurrent clients firing interleaved queries shard by shard: every
/// client's results, NDC, and termination must match its own offline run
/// bit for bit.
#[test]
fn concurrent_clients_match_serial_bitwise() {
    let sharded = fixture();
    let ds = dataset();
    let serial: Vec<(u64, QueryOutcome)> = (0..12u64)
        .map(|seed| {
            (
                seed,
                offline(sharded, &ds.queries[(seed % 10) as usize], 5, 8, seed),
            )
        })
        .collect();
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let ds = dataset();
            std::thread::spawn(move || {
                let sharded = fixture();
                (0..3u64)
                    .map(|i| {
                        let seed = t * 3 + i;
                        let q = &ds.queries[(seed % 10) as usize];
                        (seed, per_shard(sharded, q, 5, 8, seed, false).0)
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
            "seed {seed_a}: concurrent per-shard results diverged from serial"
        );
        assert_eq!(a.ndc, b.ndc, "seed {seed_a}: NDC diverged");
        assert_eq!(a.termination.as_str(), b.termination.as_str());
    }
}
