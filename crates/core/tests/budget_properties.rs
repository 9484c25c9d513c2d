//! Budget contract of query execution (the robustness layer's core
//! properties):
//!
//! * an **unlimited** budget is a true no-op — results and NDC are
//!   bit-identical to the unbudgeted search;
//! * a finite cap **equal** to the unbudgeted NDC never blocks (the
//!   reservation protocol charges exactly the cache misses), so it is
//!   also bit-identical and still reports `Converged`;
//! * any finite cap is **strict**: measured NDC never exceeds it, even
//!   summed across shards sharing one budget — and the query degrades
//!   gracefully (tagged termination, best-so-far results, no panic);
//! * `termination != Converged` **iff** the budget actually bound.

use lan_core::{
    BudgetCtx, InitStrategy, LanConfig, LanIndex, QueryBudget, RouteStrategy, ShardedLanIndex,
    Termination,
};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

fn force_threads() {
    // Serialized via the shared env lock — a raw set_var would race the
    // num_threads() readers of concurrently running tests.
    lan_par::testenv::with_env(&[], || std::env::set_var("LAN_THREADS", "4"));
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

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(48)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

fn single_fixture() -> &'static LanIndex {
    static FIXTURE: OnceLock<LanIndex> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        force_threads();
        LanIndex::build(dataset(), tiny_cfg())
    })
}

fn sharded_fixture() -> &'static ShardedLanIndex {
    static FIXTURE: OnceLock<ShardedLanIndex> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        force_threads();
        ShardedLanIndex::build(&dataset(), &tiny_cfg(), 2)
    })
}

fn strategies(full_lan: bool) -> (InitStrategy, RouteStrategy) {
    if full_lan {
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        )
    } else {
        (InitStrategy::HnswIs, RouteStrategy::HnswRoute)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Unlimited and exactly-sufficient budgets reproduce the unbudgeted
    /// search bit-for-bit; any tighter cap binds strictly and tags the
    /// outcome. Together: `termination != Converged` iff the cap bound.
    #[test]
    fn ndc_cap_is_strict_and_exact(
        seed in 0u64..1_000_000,
        k in 1usize..=8,
        b in 4usize..=16,
        full_lan in any::<bool>(),
    ) {
        let index = single_fixture();
        let q = dataset().queries[(seed % 10) as usize].clone();
        let (init, route) = strategies(full_lan);
        let base = index.search_with(&q, k, b, init, route, seed);
        prop_assert_eq!(base.termination, Termination::Converged);

        // Unlimited context: bit-identical (the fast path is literally
        // the unbudgeted code).
        let unlimited = BudgetCtx::unlimited();
        let same = index.search_with_budget(&q, k, b, init, route, seed, &unlimited);
        prop_assert_eq!(&base.results, &same.results);
        prop_assert_eq!(base.ndc, same.ndc);
        prop_assert_eq!(same.termination, Termination::Converged);

        // A cap equal to the unbudgeted NDC never blocks: every charge is
        // a real cache miss, so the peek-then-charge path must also be
        // bit-identical — this exercises the finite-budget accounting.
        let exact = BudgetCtx::new(&QueryBudget::unlimited().with_max_ndc(base.ndc));
        let tight = index.search_with_budget(&q, k, b, init, route, seed, &exact);
        prop_assert_eq!(&base.results, &tight.results, "exact cap changed results");
        prop_assert_eq!(base.ndc, tight.ndc, "exact cap changed NDC");
        prop_assert_eq!(tight.termination, Termination::Converged);

        // Any smaller cap must bind: NDC never exceeds it and the outcome
        // is tagged degraded. No panic, results stay sorted.
        for cap in [1usize, base.ndc / 2, base.ndc.saturating_sub(1)] {
            if cap == 0 || cap >= base.ndc {
                continue;
            }
            let ctx = BudgetCtx::new(&QueryBudget::unlimited().with_max_ndc(cap));
            let out = index.search_with_budget(&q, k, b, init, route, seed, &ctx);
            prop_assert!(out.ndc <= cap, "cap {} exceeded: ndc {}", cap, out.ndc);
            prop_assert!(out.termination.is_degraded(),
                "cap {} < unbudgeted NDC {} must degrade", cap, base.ndc);
            prop_assert!(out.results.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    /// The sharded path obeys the same contract, with one budget shared
    /// across every shard: the cap bounds the *summed* NDC, and unlimited
    /// budgets stay identical to the unbudgeted search. An NDC cap runs
    /// the shards in shard order whatever the thread budget, so its
    /// results, NDC and termination repeat exactly at 1, 2 and 4 threads.
    #[test]
    fn sharded_budget_is_shared_and_strict(
        seed in 0u64..1_000_000,
        k in 1usize..=6,
        b in 4usize..=12,
        full_lan in any::<bool>(),
    ) {
        force_threads();
        let sharded = sharded_fixture();
        let q = dataset().queries[(seed % 10) as usize].clone();
        let (init, route) = strategies(full_lan);
        let at_threads = |budget: &QueryBudget| {
            ["1", "2", "4"].map(|threads| {
                let out = lan_par::testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
                    sharded.search_budgeted(&q, k, b, init, route, seed, budget)
                });
                (threads, out)
            })
        };
        let base = sharded.search(&q, k, b, init, route, seed);
        prop_assert_eq!(base.termination, Termination::Converged);
        for (threads, unl) in at_threads(&QueryBudget::unlimited()) {
            prop_assert_eq!(&base.results, &unl.results, "LAN_THREADS={}", threads);
            prop_assert_eq!(base.ndc, unl.ndc, "LAN_THREADS={}", threads);
        }

        // A shared finite cap bounds the summed NDC, and binds the same
        // way at every thread count.
        for cap in [1usize, base.ndc / 3, base.ndc / 2] {
            if cap == 0 {
                continue;
            }
            let runs = at_threads(&QueryBudget::unlimited().with_max_ndc(cap));
            let (_, first) = &runs[0];
            for (threads, out) in &runs {
                prop_assert!(out.ndc <= cap, "LAN_THREADS={}: {} > cap {}", threads, out.ndc, cap);
                prop_assert_eq!(&out.results, &first.results, "LAN_THREADS={}", threads);
                prop_assert_eq!(out.ndc, first.ndc, "LAN_THREADS={}", threads);
                prop_assert_eq!(out.termination, first.termination, "LAN_THREADS={}", threads);
                if cap < base.ndc {
                    prop_assert!(out.termination.is_degraded());
                }
            }
        }
    }
}

/// An already-expired deadline stops the query before any distance work —
/// gracefully: empty or partial results, `Deadline` tag, no panic.
#[test]
fn expired_deadline_degrades_gracefully() {
    let index = single_fixture();
    let q = dataset().queries[0].clone();
    let ctx = BudgetCtx::new(&QueryBudget::unlimited().with_deadline(Duration::ZERO));
    let before = lan_obs::snapshot();
    let out = index.search_with_budget(
        &q,
        5,
        8,
        InitStrategy::HnswIs,
        RouteStrategy::HnswRoute,
        0,
        &ctx,
    );
    assert_eq!(out.termination, Termination::Deadline);
    assert_eq!(out.ndc, 0, "no distance may be charged after the deadline");
    // Sibling tests only ever add to the counter: the delta is at least
    // this query's own increment.
    let degraded = lan_obs::snapshot()
        .diff(&before)
        .counter(lan_obs::names::QUERY_DEGRADED);
    assert!(
        degraded >= 1,
        "a degraded query must count in query.degraded"
    );
}

/// The hop cap bounds exploration without cancelling anything: the query
/// ends degraded with at most `max_hops` explored nodes' worth of work.
#[test]
fn hop_cap_bounds_exploration() {
    let index = single_fixture();
    let q = dataset().queries[1].clone();
    let base = index.search_with(&q, 5, 16, InitStrategy::HnswIs, RouteStrategy::HnswRoute, 0);
    let ctx = BudgetCtx::new(&QueryBudget::unlimited().with_max_hops(1));
    let out = index.search_with_budget(
        &q,
        5,
        16,
        InitStrategy::HnswIs,
        RouteStrategy::HnswRoute,
        0,
        &ctx,
    );
    assert!(out.termination.is_degraded());
    assert!(!ctx.cancelled(), "a hop cap must not cancel sibling shards");
    assert!(
        out.ndc <= base.ndc,
        "hop-capped NDC {} exceeds uncapped {}",
        out.ndc,
        base.ndc
    );
}

/// A budget without an NDC cap fans the shards out like an unlimited one,
/// so no shard is skipped: an expired deadline reaches every shard (each
/// leaves a sub-plan, none computes a distance), a generous one leaves the
/// unbudgeted answer, and a hop cap, which bounds each router on its own,
/// answers the same at 1 and 4 threads.
#[test]
fn uncapped_budgets_search_every_shard() {
    force_threads();
    let sharded = sharded_fixture();
    let q = dataset().queries[2].clone();
    let (init, route) = strategies(true);
    let search = |threads: &str, budget: &QueryBudget| {
        lan_par::testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
            sharded.search_explain_budgeted(&q, 5, 8, init, route, 0, budget)
        })
    };
    let shards = sharded.num_shards();
    for threads in ["1", "4"] {
        let expired = QueryBudget::unlimited().with_deadline(Duration::ZERO);
        let (out, ex) = search(threads, &expired);
        assert_eq!(
            out.termination,
            Termination::Deadline,
            "LAN_THREADS={threads}"
        );
        assert_eq!(out.ndc, 0, "LAN_THREADS={threads}");
        assert_eq!(
            ex.shards.len(),
            shards,
            "LAN_THREADS={threads}: an expired deadline skipped a shard"
        );
    }

    let base = sharded.search(&q, 5, 8, init, route, 0);
    let generous = QueryBudget::unlimited().with_deadline(Duration::from_secs(600));
    let (out, ex) = search("4", &generous);
    assert_eq!(out.results, base.results);
    assert_eq!(out.ndc, base.ndc);
    assert_eq!(out.termination, Termination::Converged);
    assert_eq!(ex.shards.len(), shards);

    let hops = QueryBudget::unlimited().with_max_hops(2);
    let (h1, e1) = search("1", &hops);
    let (h4, e4) = search("4", &hops);
    assert_eq!(h1.results, h4.results);
    assert_eq!(h1.ndc, h4.ndc);
    assert_eq!(h1.termination, h4.termination);
    assert_eq!((e1.shards.len(), e4.shards.len()), (shards, shards));
}

/// The harness reads `LAN_NDC_BUDGET` / `LAN_DEADLINE_MS` per batch; a
/// capped environment degrades queries instead of failing the batch, and
/// unsetting the variables restores exact unbudgeted behavior.
#[test]
fn harness_env_budget_roundtrip() {
    use lan_core::harness;
    let index = single_fixture();
    let test_q: Vec<usize> = index.dataset.split.test.clone();
    let truths = harness::ground_truths(index, &test_q, 5);
    let (init, route) = strategies(false);

    let (base, _) = harness::run_point(index, &test_q, &truths, 5, 8, init, route);
    let (capped, _) = lan_par::testenv::with_env(&[("LAN_NDC_BUDGET", Some("2"))], || {
        harness::run_point(index, &test_q, &truths, 5, 8, init, route)
    });
    assert!(
        capped.avg_ndc <= 2.0,
        "per-query cap leaked: {}",
        capped.avg_ndc
    );
    let (restored, _) = lan_par::testenv::with_env(&[("LAN_NDC_BUDGET", None)], || {
        harness::run_point(index, &test_q, &truths, 5, 8, init, route)
    });
    assert_eq!(base.recall, restored.recall);
    assert_eq!(base.avg_ndc, restored.avg_ndc);
}
