//! Observability must be a pure observer: switching the metrics registry
//! or the EXPLAIN ring on or off must not change a single query result,
//! NDC or exploration order, and a plan's hop events must not depend on
//! either switch. This test binary flips the global `LAN_METRICS` and
//! `LAN_EXPLAIN` switches, which would race tests in other binaries'
//! threads; its own tests serialize on one lock.
//!
//! The sharded index fans its shards out to `lan-par` workers, so its
//! per-shard hop events are built off the calling thread whenever the
//! thread budget allows (CI runs this binary at `LAN_THREADS=1` and `=4`).

use lan_core::{InitStrategy, LanConfig, LanIndex, QueryOutcome, RouteStrategy, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::Graph;
use lan_models::ModelConfig;
use lan_obs::explain::{HopEvent, QueryExplain};
use lan_obs::json::{parse, Value};
use lan_pg::PgConfig;
use std::sync::{Mutex, MutexGuard};

const STRATEGIES: [(InitStrategy, RouteStrategy); 4] = [
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
];

/// Serializes the tests: they flip the global switches and drain the
/// EXPLAIN ring.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
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

/// Every hop event of a plan, per routed index: the plan's own for a flat
/// search, each shard sub-plan's for a sharded one.
fn hop_events(ex: &QueryExplain) -> Vec<Vec<HopEvent>> {
    if ex.shards.is_empty() {
        vec![ex.hop_events.clone()]
    } else {
        ex.shards.iter().map(|s| s.hop_events.clone()).collect()
    }
}

/// The exploration order (hop event nodes) of every routed index of one
/// emitted plan line, read back the way a JSONL consumer reads it.
fn emitted_order(line: &str) -> Vec<Vec<u32>> {
    let plan = parse(line).unwrap_or_else(|e| panic!("plan is not JSON ({e}): {line}"));
    let nodes = |p: &Value| -> Vec<u32> {
        match p.get("hop_events") {
            Some(Value::Arr(hops)) => hops
                .iter()
                .map(|h| h.get("node").and_then(Value::as_f64).expect("hop node") as u32)
                .collect(),
            _ => panic!("plan has no hop_events array: {line}"),
        }
    };
    match plan.get("shards") {
        Some(Value::Arr(shards)) if !shards.is_empty() => shards.iter().map(nodes).collect(),
        _ => vec![nodes(&plan)],
    }
}

/// One query under every (metrics, EXPLAIN ring) state: `search` runs the
/// plain entry point, `explain` the plan-returning one. Results and NDC
/// of both must equal the first run's, hop events must be equal across
/// every `explain` run, and the emitted plan's exploration order (when
/// the ring is on) must equal the returned plan's.
fn assert_observer_invariant(
    what: &str,
    search: impl Fn() -> QueryOutcome,
    explain: impl Fn() -> (QueryOutcome, QueryExplain),
) {
    let mut reference: Option<(QueryOutcome, Vec<Vec<HopEvent>>)> = None;
    for metrics in [true, false] {
        for ring in [false, true] {
            let state = format!("{what}, metrics={metrics}, explain={ring}");
            lan_obs::set_enabled(metrics);
            lan_obs::explain::set_enabled(ring);
            lan_obs::explain::drain();
            let plain = search();
            let emitted = lan_obs::explain::drain();
            let (explained, ex) = explain();
            lan_obs::explain::drain();
            let hops = hop_events(&ex);
            let order: Vec<Vec<u32>> = hops
                .iter()
                .map(|h| h.iter().map(|e| e.node).collect())
                .collect();
            if ring {
                assert_eq!(emitted.len(), 1, "{state}: one emitted plan per search");
                assert_eq!(
                    emitted_order(&emitted[0]),
                    order,
                    "{state}: exploration order changed"
                );
            } else {
                assert!(emitted.is_empty(), "{state}: a disabled ring emitted");
            }
            let (first, first_hops) =
                reference.get_or_insert_with(|| (plain.clone(), hops.clone()));
            for out in [&plain, &explained] {
                assert_eq!(out.results, first.results, "{state}: results changed");
                assert_eq!(out.ndc, first.ndc, "{state}: NDC changed");
                assert_eq!(out.termination, first.termination, "{state}");
            }
            assert_eq!(&hops, first_hops, "{state}: hop events changed");
        }
    }
    // Restore the defaults for the next test.
    lan_obs::set_enabled(true);
    lan_obs::explain::set_enabled(false);
}

fn queries(ds: &Dataset) -> impl Iterator<Item = (usize, &Graph)> {
    ds.queries.iter().enumerate().take(4)
}

#[test]
fn observation_never_changes_results_ndc_or_exploration() {
    let _l = lock();
    let index = LanIndex::build(tiny_dataset(), tiny_cfg());
    for (init, route) in STRATEGIES {
        for (qi, q) in queries(&index.dataset) {
            for seed in [0u64, 7, 1234] {
                assert_observer_invariant(
                    &format!("init={init:?}, route={route:?}, qi={qi}, seed={seed}"),
                    || index.search_with(q, 3, 4, init, route, seed),
                    || index.search_explain(q, 3, 4, init, route, seed),
                );
            }
        }
    }
}

#[test]
fn sharded_observation_never_changes_results_ndc_or_exploration() {
    let _l = lock();
    let ds = tiny_dataset();
    let sharded = ShardedLanIndex::build(&ds, &tiny_cfg(), 2);
    for (init, route) in STRATEGIES {
        for (qi, q) in queries(&ds) {
            let seed = qi as u64;
            assert_observer_invariant(
                &format!("sharded, init={init:?}, route={route:?}, qi={qi}"),
                || sharded.search(q, 3, 4, init, route, seed),
                || sharded.search_explain(q, 3, 4, init, route, seed),
            );
        }
    }
}
