//! EXPLAIN-plan reconciliation properties: the per-tier NDC attribution
//! must sum *exactly* to the query's NDC — which equals the `ged.calls`
//! registry delta — under every termination cause and on both shard
//! schedules (the serial loop at `LAN_THREADS=1`, the fan-out at 4), and
//! collecting a plan must never perturb the search.
//!
//! The tests read global-registry deltas and flip the EXPLAIN switch, so
//! every test serializes on one lock (they share this binary's process
//! with nothing else).

use lan_core::{
    InitStrategy, LanConfig, LanIndex, QueryBudget, QueryOutcome, RouteStrategy, ShardedLanIndex,
};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_obs::explain::QueryExplain;
use lan_pg::PgConfig;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes tests: they diff the global `ged.calls` counter and toggle
/// the global EXPLAIN switch.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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
        quant: lan_core::QuantConfig::default(),
    }
}

fn tiny_dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

fn index() -> &'static LanIndex {
    static INDEX: OnceLock<LanIndex> = OnceLock::new();
    INDEX.get_or_init(|| LanIndex::build(tiny_dataset(), tiny_cfg()))
}

fn sharded() -> &'static ShardedLanIndex {
    static SHARDED: OnceLock<ShardedLanIndex> = OnceLock::new();
    SHARDED.get_or_init(|| ShardedLanIndex::build(&tiny_dataset(), &tiny_cfg(), 2))
}

/// The reconciliation contract on one (outcome, plan) pair, against the
/// `ged.calls` delta observed around the search.
fn assert_reconciles(out: &QueryOutcome, ex: &QueryExplain, ged_delta: u64, what: &str) {
    assert_eq!(
        ex.tiers.attributed(),
        ex.ndc,
        "{what}: tier attribution must sum to the plan's NDC"
    );
    assert_eq!(ex.ndc, out.ndc as u64, "{what}: plan NDC != outcome NDC");
    assert_eq!(ex.ndc, ged_delta, "{what}: plan NDC != ged.calls delta");
    assert_eq!(
        ex.lookups(),
        ex.ndc + ex.cache_hits,
        "{what}: lookups != ndc + cache_hits"
    );
    assert_eq!(
        ex.termination,
        out.termination.as_str(),
        "{what}: termination string drifted"
    );
}

fn ged_calls() -> u64 {
    lan_obs::counter(lan_obs::names::GED_CALLS).get()
}

#[test]
fn tiers_reconcile_under_every_termination_cause() {
    let _l = lock();
    lan_obs::set_enabled(true);
    let index = index();
    let budgets: Vec<(&str, QueryBudget)> = vec![
        ("unlimited", QueryBudget::unlimited()),
        ("ndc_0", QueryBudget::unlimited().with_max_ndc(0)),
        ("ndc_3", QueryBudget::unlimited().with_max_ndc(3)),
        ("ndc_10", QueryBudget::unlimited().with_max_ndc(10)),
        (
            "deadline_0",
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
        ),
        ("hops_1", QueryBudget::unlimited().with_max_hops(1)),
    ];
    let mut causes = std::collections::BTreeSet::new();
    for (init, route) in [
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
        (InitStrategy::HnswIs, RouteStrategy::HnswRoute),
    ] {
        for qi in 0..3usize {
            let q = index.dataset.queries[qi].clone();
            for (label, budget) in &budgets {
                let ctx = lan_core::BudgetCtx::new(budget);
                let before = ged_calls();
                let (out, ex) =
                    index.search_explain_budgeted(&q, 5, 10, init, route, qi as u64, &ctx);
                let delta = ged_calls() - before;
                causes.insert(ex.termination.clone());
                assert_reconciles(&out, &ex, delta, &format!("{label}/{}", route.as_str()));
                // The budget block must report the limits verbatim.
                assert_eq!(
                    ex.budget.max_ndc,
                    budget.max_ndc.map(|v| v as u64),
                    "{label}"
                );
                assert_eq!(
                    ex.budget.max_hops,
                    budget.max_hops.map(|v| v as u64),
                    "{label}"
                );
            }
        }
    }
    // The sweep must actually have exercised distinct termination causes,
    // not converged everywhere.
    assert!(causes.contains("converged"), "causes seen: {causes:?}");
    assert!(causes.contains("ndc_budget"), "causes seen: {causes:?}");
    assert!(causes.contains("deadline"), "causes seen: {causes:?}");
    assert!(causes.len() >= 3, "causes seen: {causes:?}");
}

/// [`ShardedLanIndex::search_explain_budgeted`] under `LAN_THREADS=threads`.
fn sharded_explain_at(
    threads: &str,
    q: &lan_graph::Graph,
    budget: &QueryBudget,
) -> (QueryOutcome, QueryExplain) {
    lan_par::testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
        sharded().search_explain_budgeted(
            q,
            5,
            10,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
            1,
            budget,
        )
    })
}

#[test]
fn sharded_fanout_reconciles_at_one_and_four_threads() {
    let _l = lock();
    lan_obs::set_enabled(true);
    let q = sharded().shards[0].dataset.queries[0].clone();

    for (label, budget) in [
        ("unlimited", QueryBudget::unlimited()),
        ("ndc_8", QueryBudget::unlimited().with_max_ndc(8)),
    ] {
        let mut runs = Vec::new();
        for threads in ["1", "4"] {
            let what = format!("{label}/LAN_THREADS={threads}");
            let before = ged_calls();
            let (out, ex) = sharded_explain_at(threads, &q, &budget);
            let delta = ged_calls() - before;
            assert_reconciles(&out, &ex, delta, &what);
            assert!(
                !ex.shards.is_empty(),
                "{what}: merged plan lost its sub-plans"
            );
            // The merged counters are exactly the sums of the sub-plans.
            let mut sub_tiers = lan_obs::explain::TierBreakdown::default();
            for sub in &ex.shards {
                sub_tiers.accumulate(&sub.tiers);
            }
            assert_eq!(ex.tiers, sub_tiers, "{what}: merged tiers != sum of shards");
            let sub_ndc: u64 = ex.shards.iter().map(|s| s.ndc).sum();
            assert_eq!(ex.ndc, sub_ndc, "{what}: merged NDC != sum of shard NDC");
            // Times are work, summed like the components they contain:
            // the query's time holds every shard's and the merge's.
            let sub_ns: u64 = ex.shards.iter().map(|s| s.total_ns).sum();
            assert!(
                ex.total_ns >= sub_ns,
                "{what}: total_ns below the shards' sum"
            );
            assert!(
                ex.dist_ns + ex.gnn_ns <= ex.total_ns,
                "{what}: distance and GNN time do not fit in total_ns"
            );
            // One timeline entry per searched shard: its own time and the
            // NDC accumulated in shard order.
            assert_eq!(ex.timeline.len(), ex.shards.len(), "{what}");
            let mut ndc_so_far = 0;
            for (s, (ev, sub)) in ex.timeline.iter().zip(&ex.shards).enumerate() {
                ndc_so_far += sub.ndc;
                assert_eq!(ev.stage, format!("shard.{s}"), "{what}");
                assert_eq!(ev.ndc, ndc_so_far, "{what}");
                assert_eq!(ev.elapsed_ns, sub.total_ns, "{what}");
            }
            runs.push((out, ex));
        }
        // Both schedules give the same answer, work and plan counts
        // (a finite budget runs the shards in order at any thread count).
        let ((out1, ex1), (out4, ex4)) = (&runs[0], &runs[1]);
        assert_eq!(out1.results, out4.results, "{label}");
        assert_eq!(out1.termination, out4.termination, "{label}");
        assert_eq!(ex1.ndc, ex4.ndc, "{label}");
        assert_eq!(ex1.tiers, ex4.tiers, "{label}");
        assert_eq!(ex1.shards.len(), ex4.shards.len(), "{label}");
    }
}

#[test]
fn collecting_a_plan_never_perturbs_the_search() {
    let _l = lock();
    lan_obs::set_enabled(true);
    let index = index();
    for (init, route) in [
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: false },
        ),
        (InitStrategy::HnswIs, RouteStrategy::HnswRoute),
        (
            InitStrategy::RandIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
    ] {
        for qi in 0..4usize {
            let q = index.dataset.queries[qi].clone();
            let plain = index.search_with(&q, 5, 10, init, route, qi as u64);
            let (explained, ex) = index.search_explain(&q, 5, 10, init, route, qi as u64);
            assert_eq!(plain.results, explained.results, "{}", route.as_str());
            assert_eq!(plain.ndc, explained.ndc, "{}", route.as_str());
            assert_eq!(ex.init, init.as_str());
            assert_eq!(ex.route, route.as_str());
            assert_eq!(ex.query, qi as u64);
        }
    }
}

#[test]
fn env_gated_emission_lands_in_the_ring() {
    let _l = lock();
    lan_obs::set_enabled(true);
    let index = index();
    let q = index.dataset.queries[0].clone();

    lan_obs::explain::set_enabled(false);
    lan_obs::explain::drain();
    let _ = index.search(&q, 5, 10);
    assert!(
        lan_obs::explain::drain().is_empty(),
        "disabled EXPLAIN must emit nothing"
    );

    lan_obs::explain::set_enabled(true);
    let plain = index.search(&q, 5, 10);
    let lines = lan_obs::explain::drain();
    lan_obs::explain::set_enabled(false);
    assert_eq!(lines.len(), 1, "one emitted plan per top-level search");
    let line = &lines[0];
    assert!(line.starts_with('{') && line.ends_with('}'), "JSONL shape");
    assert!(
        line.contains(&format!("\"ndc\":{}", plain.ndc)),
        "emitted plan must carry the query's NDC: {line}"
    );

    // Sharded top-level searches emit exactly one (merged) plan too —
    // per-shard sub-searches must not double-emit.
    let sharded = sharded();
    lan_obs::explain::set_enabled(true);
    for threads in ["1", "4"] {
        lan_par::testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
            sharded.search(
                &q,
                5,
                10,
                InitStrategy::LanIs,
                RouteStrategy::LanRoute { use_cg: true },
                0,
            )
        });
    }
    let lines = lan_obs::explain::drain();
    lan_obs::explain::set_enabled(false);
    assert_eq!(lines.len(), 2, "one merged plan per sharded search");
    assert!(
        lines.iter().all(|l| l.contains("\"stage\":\"shard.0\"")),
        "merged plans must carry per-shard timeline entries"
    );
}
