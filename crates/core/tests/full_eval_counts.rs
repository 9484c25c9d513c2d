//! Work-count contracts of the GED kernel cascade, read from the engine's
//! own `ged.full_evals` counter (full solver runs):
//!
//! * routing asks for exact distances only: the full evaluations of
//!   served queries equal their summed NDC, for both routers;
//! * the lb-ordered ground-truth scan at least halves the full evaluations
//!   of a full scan, at bit-identical results;
//! * the scan's threshold-boundary refinement cuts full evaluations at
//!   least 1.3x below the same scan without that refinement, at
//!   bit-identical results.
//!
//! The counters are process-global, so this binary holds only these tests
//! and runs them one at a time under [`LOCK`].

use lan_core::{InitStrategy, LanConfig, LanIndex, QuantConfig, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec};
use lan_ged::{GedBound, GedMethod};
use lan_graph::Graph;
use lan_models::ModelConfig;
use lan_obs::names;
use lan_pg::PgConfig;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Full GED solver runs since `before`.
fn full_evals(before: &lan_obs::Snapshot) -> u64 {
    lan_obs::snapshot()
        .diff(before)
        .counter(names::GED_FULL_EVALS)
}

#[test]
fn cascade_at_least_halves_ground_truth_full_evals() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    lan_obs::set_enabled(true);
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(160)
            .with_queries(16)
            .with_metric(GedMethod::Hungarian),
    );
    let cfg = LanConfig {
        pg: PgConfig::new(6),
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
        quant: QuantConfig::default(),
    };
    let index = LanIndex::build(ds, cfg);
    let ds = &index.dataset;
    let queries = &ds.queries[..12];
    let (b, k) = (4usize, 3usize);

    // Routing: both routers behind the served search path, whose every
    // distance computation is one full solve.
    let before = lan_obs::snapshot();
    let mut routing_ndc = 0u64;
    for (qi, q) in queries.iter().enumerate() {
        for (init, route) in [
            (InitStrategy::HnswIs, RouteStrategy::HnswRoute),
            (
                InitStrategy::LanIs,
                RouteStrategy::LanRoute { use_cg: true },
            ),
        ] {
            routing_ndc += index.search_with(q, k, b, init, route, qi as u64).ndc as u64;
        }
    }
    let routing = full_evals(&before);
    assert_eq!(
        routing, routing_ndc,
        "routing full evals {routing} != summed routing NDC {routing_ndc}"
    );

    // Ground truth: full scan vs the lb-ordered cascade scan.
    let before = lan_obs::snapshot();
    let full_scan: Vec<Vec<(f64, u32)>> = queries
        .iter()
        .map(|q| {
            let mut all: Vec<(f64, u32)> = (0..ds.graphs.len() as u32)
                .map(|i| (ds.distance(q, i), i))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            all.truncate(k);
            all
        })
        .collect();
    let gt_full = full_evals(&before);
    let before = lan_obs::snapshot();
    let cascade_scan: Vec<Vec<(f64, u32)>> =
        queries.iter().map(|q| ds.ground_truth_knn(q, k)).collect();
    let gt_cascade = full_evals(&before);
    assert_eq!(full_scan, cascade_scan, "cascade ground truth diverged");

    // Routing evaluations are not in the ratio: the cascade does not touch
    // them, so they would only dilute the scan's reduction.
    let gt_ratio = gt_full as f64 / gt_cascade.max(1) as f64;
    assert!(
        gt_ratio >= 2.0,
        "ground-truth full evals {gt_full} -> {gt_cascade}: {gt_ratio:.2}x, below 2x"
    );
}

/// The lb-ordered scan with every boundary (`lb == t`) candidate re-solved
/// without a threshold — the form the library scan had before it resolved
/// boundary candidates with a nudged threshold. Kept frozen here as the
/// baseline of the boundary-refinement test.
fn unrefined_scan(ds: &Dataset, q: &Graph, k: usize) -> Vec<(f64, u32)> {
    const CHUNK: usize = 8;
    let keys: Vec<f64> = ds
        .graphs
        .iter()
        .map(|g| {
            lan_ged::lower_bounds::label_size_lb(q, g)
                .max(lan_ged::lower_bounds::label_degree_lb(q, g))
        })
        .collect();
    let mut order: Vec<u32> = (0..ds.graphs.len() as u32).collect();
    order.sort_by(|&a, &b| {
        keys[a as usize]
            .total_cmp(&keys[b as usize])
            .then(a.cmp(&b))
    });
    let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + CHUNK);
    for chunk in order.chunks(CHUNK) {
        let t = if best.len() >= k {
            best[k - 1].0
        } else {
            f64::INFINITY
        };
        for &i in chunk {
            if !t.is_finite() {
                best.push((ds.distance(q, i), i));
                continue;
            }
            let within = lan_ged::ged_within(q, &ds.graphs[i as usize], t, &ds.spec.truth);
            match within.expect("no exact solve times out at this size") {
                GedBound::Exact(d) => best.push((d, i)),
                GedBound::AtLeast(lb) if lb > t => {}
                GedBound::AtLeast(_) => best.push((ds.distance(q, i), i)),
            }
        }
        best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        best.truncate(k);
    }
    best
}

#[test]
fn boundary_refinement_cuts_full_evals_below_the_unrefined_scan() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    lan_obs::set_enabled(true);
    // Exact GED (the tau-aborting solver, where boundary aborts pay off).
    // `avg_nodes = 7` keeps every ungated exact solve far below the
    // timeout, so the counts are deterministic.
    let mut spec = DatasetSpec::syn()
        .with_graphs(120)
        .with_queries(12)
        .with_metric(GedMethod::Exact { timeout_ms: 5_000 });
    spec.avg_nodes = 7;
    let exact = Dataset::generate(spec);
    let (queries, k) = (&exact.queries[..10], 10usize);

    let before = lan_obs::snapshot();
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| unrefined_scan(&exact, q, k))
        .collect();
    let baseline_full = full_evals(&before);

    let before = lan_obs::snapshot();
    let refined: Vec<_> = queries
        .iter()
        .map(|q| exact.ground_truth_knn(q, k))
        .collect();
    let full = full_evals(&before);
    assert_eq!(baseline, refined, "boundary-refined scan diverged");
    let ratio = baseline_full as f64 / full.max(1) as f64;
    assert!(
        ratio >= 1.3,
        "boundary refinement cut full evals only {ratio:.2}x below the unrefined scan \
         ({baseline_full} -> {full})"
    );
}
