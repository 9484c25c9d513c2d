//! System-level tests: build a small LAN index and exercise every query
//! strategy the paper measures.

use lan_core::{harness, InitStrategy, L2RouteIndex, LanConfig, LanIndex, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec};
use lan_ged::GedMethod;
use lan_models::ModelConfig;
use lan_pg::PgConfig;

fn small_index() -> LanIndex {
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(80)
            .with_queries(20)
            .with_metric(GedMethod::Hungarian),
    );
    let cfg = LanConfig {
        pg: PgConfig::new(4),
        model: ModelConfig {
            embed_dim: 8,
            epochs: 2,
            max_samples_per_epoch: 200,
            nh_cover_k: 12,
            clusters: 4,
            top_clusters: 2,
            mlp_hidden: 8,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    };
    LanIndex::build(ds, cfg)
}

#[test]
fn all_strategy_combinations_work() {
    let idx = small_index();
    let q = idx.dataset.queries[idx.dataset.split.test[0]].clone();
    let combos = [
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: false },
        ),
        (
            InitStrategy::HnswIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
        (
            InitStrategy::RandIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
        (InitStrategy::HnswIs, RouteStrategy::HnswRoute),
        (InitStrategy::LanIs, RouteStrategy::HnswRoute),
        (InitStrategy::RandIs, RouteStrategy::HnswRoute),
    ];
    for (init, route) in combos {
        let out = idx.search_with(&q, 5, 10, init, route, 7);
        assert_eq!(out.results.len(), 5, "{init:?}/{route:?}");
        assert!(out.results.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(out.ndc > 0);
        assert!(out.total_time >= out.distance_time);
    }
}

#[test]
fn cg_and_plain_routing_agree() {
    // Theorem 2 at the system level: the CG-accelerated query must return
    // exactly the same results as the plain-GNN query (identical rankings).
    let idx = small_index();
    for &qi in idx.dataset.split.test.iter().take(3) {
        let q = idx.dataset.queries[qi].clone();
        let a = idx.search_with(
            &q,
            5,
            10,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
            3,
        );
        let b = idx.search_with(
            &q,
            5,
            10,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: false },
            3,
        );
        assert_eq!(a.results, b.results, "CG changed the search results");
        assert_eq!(a.ndc, b.ndc, "CG changed the NDC");
    }
}

#[test]
fn lan_achieves_reasonable_recall() {
    let idx = small_index();
    let test_q: Vec<usize> = idx.dataset.split.test.clone();
    let truths = harness::ground_truths(&idx, &test_q, 5);
    let (point, _) = harness::run_point(
        &idx,
        &test_q,
        &truths,
        5,
        16,
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: true },
    );
    assert!(point.recall >= 0.5, "LAN recall too low: {}", point.recall);
    assert!(
        point.avg_ndc < idx.dataset.graphs.len() as f64,
        "NDC worse than a scan"
    );
}

#[test]
fn lan_route_saves_ndc_vs_baseline() {
    let idx = small_index();
    let test_q: Vec<usize> = idx.dataset.split.test.clone();
    let truths = harness::ground_truths(&idx, &test_q, 5);
    let (lan, _) = harness::run_point(
        &idx,
        &test_q,
        &truths,
        5,
        10,
        InitStrategy::HnswIs,
        RouteStrategy::LanRoute { use_cg: true },
    );
    let (hnsw, _) = harness::run_point(
        &idx,
        &test_q,
        &truths,
        5,
        10,
        InitStrategy::HnswIs,
        RouteStrategy::HnswRoute,
    );
    // The NDC <= baseline guarantee (Theorem 1) holds for the *oracle*
    // ranker (tested in lan-pg); a barely-trained learned ranker on this
    // toy setup may pay a small gamma-escalation overhead, so allow slack.
    assert!(
        lan.avg_ndc <= hnsw.avg_ndc * 1.25,
        "learned pruning used far more NDC ({} vs {})",
        lan.avg_ndc,
        hnsw.avg_ndc
    );
    // Quality must stay in the same ballpark.
    assert!(
        lan.recall >= hnsw.recall - 0.25,
        "{} vs {}",
        lan.recall,
        hnsw.recall
    );
}

#[test]
fn l2route_baseline_works_and_recall_grows_with_candidates() {
    let idx = small_index();
    let l2 = L2RouteIndex::build(&idx, 4);
    let test_q: Vec<usize> = idx.dataset.split.test.clone();
    let truths = harness::ground_truths(&idx, &test_q, 5);
    let curve = harness::l2route_curve(&idx, &l2, &test_q, &truths, 5, &[5, 20, 60]);
    assert_eq!(curve.len(), 3);
    // More verified candidates can only help recall.
    assert!(curve[2].recall >= curve[0].recall - 1e-9);
    // NDC equals the candidate budget (full verification).
    assert!(curve[1].avg_ndc >= 19.0);
}

#[test]
fn breakdown_is_consistent() {
    let idx = small_index();
    let q = idx.dataset.queries[0].clone();
    let out = idx.search(&q, 5, 10);
    assert!(out.gnn_time <= out.total_time);
    assert!(out.distance_time <= out.total_time);
    assert!(
        out.gnn_time.as_nanos() > 0,
        "LAN query must spend time in the GNN"
    );
}

#[test]
fn one_query_workload_builds_and_searches_a_sharded_index() {
    // A one-query workload must train on its single query: an empty
    // training split leaves the models nothing to fit.
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(16)
            .with_queries(1)
            .with_metric(GedMethod::Hungarian),
    );
    let cfg = LanConfig {
        pg: PgConfig::new(4),
        model: ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 40,
            nh_cover_k: 3,
            clusters: 2,
            top_clusters: 1,
            mlp_hidden: 8,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    };
    let index = lan_core::ShardedLanIndex::build(&ds, &cfg, 2);
    let out = index.search(
        &ds.queries[0],
        3,
        4,
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: true },
        0,
    );
    assert_eq!(out.results.len(), 3);
    assert!(out.results.windows(2).all(|w| w[0].0 <= w[1].0));
    assert!(!out.termination.is_degraded());
}
