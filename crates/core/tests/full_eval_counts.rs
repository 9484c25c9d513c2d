//! Work-count contracts of the GED kernel cascade, read from the engine's
//! own `ged.full_evals` counter (full solver runs):
//!
//! * the lb-ordered ground-truth scan at least halves the full evaluations
//!   of a full scan, and the cascade oracle on the routing path never pays
//!   an extra one — at bit-identical results, NDC and entry nodes;
//! * the quantized visit order, together with the scan's threshold-boundary
//!   refinement, cuts full evaluations at least 1.3x below the same scan
//!   without that refinement, at bit-identical results.
//!
//! The counters are process-global, so this binary holds only these tests
//! and runs them one at a time under [`LOCK`].

use lan_core::{LanConfig, LanIndex, QuantConfig, QuantMode};
use lan_datasets::{Dataset, DatasetSpec};
use lan_ged::{GedBound, GedMethod};
use lan_graph::Graph;
use lan_models::ModelConfig;
use lan_obs::names;
use lan_pg::{
    beam_search, DistBound, DistCache, PairCache, PgConfig, ProximityGraph, QueryDistance,
};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Full GED solver runs since `before`.
fn full_evals(before: &lan_obs::Snapshot) -> u64 {
    lan_obs::snapshot()
        .diff(before)
        .counter(names::GED_FULL_EVALS)
}

/// The cascade oracle: the plain distance plus the threshold-gated path
/// (mirrors lan-core's per-query oracle).
struct CascadeOracle<'a> {
    ds: &'a Dataset,
    q: &'a Graph,
}

impl QueryDistance for CascadeOracle<'_> {
    fn distance(&self, id: u32) -> f64 {
        self.ds.distance(self.q, id)
    }

    fn distance_within(&self, id: u32, tau: f64) -> DistBound {
        match self.ds.distance_within(self.q, id, tau) {
            GedBound::Exact(d) => DistBound::Exact(d),
            GedBound::AtLeast(lb) => DistBound::AtLeast(lb),
        }
    }
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
    let pair_fn = |a: u32, b: u32| ds.pair_distance(a, b);
    let pg = ProximityGraph::build(
        ds.graphs.len(),
        &PairCache::new(&pair_fn),
        &PgConfig::new(6),
    );
    let queries = &ds.queries[..12];
    let (b, k) = (4usize, 3usize);

    // Routing: HNSW entry descent + Algorithm 1, plain closure oracle (no
    // bounds) vs the cascade oracle.
    let route = |oracle: &dyn QueryDistance| {
        let cache = DistCache::new(oracle);
        let entry = pg.hnsw_entry(&cache);
        let rr = beam_search(pg.base(), &cache, &[entry], b, k);
        (entry, rr.results, rr.ndc)
    };
    let before = lan_obs::snapshot();
    let plain: Vec<_> = queries
        .iter()
        .map(|q| route(&|id: u32| ds.distance(q, id)))
        .collect();
    let routing_plain = full_evals(&before);
    let before = lan_obs::snapshot();
    let gated: Vec<_> = queries
        .iter()
        .map(|q| route(&CascadeOracle { ds: &ds, q }))
        .collect();
    let routing_gated = full_evals(&before);
    assert_eq!(
        plain, gated,
        "cascade routing diverged from the plain oracle"
    );
    assert!(
        routing_gated <= routing_plain,
        "cascade routing paid extra full evals: {routing_gated} > {routing_plain}"
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

    let gt_ratio = gt_full as f64 / gt_cascade.max(1) as f64;
    let overall = (routing_plain + gt_full) as f64 / (routing_gated + gt_cascade).max(1) as f64;
    assert!(
        gt_ratio >= 2.0,
        "ground-truth full evals {gt_full} -> {gt_cascade}: {gt_ratio:.2}x, below 2x"
    );
    assert!(
        overall >= 2.0,
        "overall full-eval reduction {overall:.2}x below 2x"
    );
}

/// The lb-ordered scan with every boundary (`lb == t`) candidate re-solved
/// without a threshold — the form the library scan had before it resolved
/// boundary candidates with a nudged threshold. Kept frozen here as the
/// baseline of the quantized-order test.
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
            match ds.distance_within(q, i, t) {
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
fn quant_ordered_scan_cuts_full_evals_below_the_unrefined_scan() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    lan_obs::set_enabled(true);
    // The code books are built under Hungarian GED; the scans run under
    // exact GED (the tau-aborting solver, where boundary aborts pay off).
    // `avg_nodes = 7` keeps every ungated exact solve far below the
    // timeout, so the counts are deterministic. The code books only refine
    // the visit order, so a small model serves.
    let mut spec = DatasetSpec::syn()
        .with_graphs(120)
        .with_queries(12)
        .with_metric(GedMethod::Hungarian);
    spec.avg_nodes = 7;
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
        quant: QuantConfig {
            mode: QuantMode::Off,
            margin: 1.5,
        },
    };
    let mut index = LanIndex::build(Dataset::generate(spec), cfg);
    assert!(index.models.quant.is_some(), "code books must build");
    let mut exact = index.dataset.clone();
    exact.spec = exact
        .spec
        .with_metric(GedMethod::Exact { timeout_ms: 5_000 });
    let (queries, k) = (&exact.queries[..10], 10usize);

    let before = lan_obs::snapshot();
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| unrefined_scan(&exact, q, k))
        .collect();
    let baseline_full = full_evals(&before);

    let mut best_ratio = 0.0f64;
    for mode in [QuantMode::Binary, QuantMode::Scalar] {
        index.cfg.quant = QuantConfig { mode, margin: 1.5 };
        let before = lan_obs::snapshot();
        let ordered: Vec<_> = queries
            .iter()
            .map(|q| {
                let keys = index.quant_keys(q).expect("quantized keys");
                exact.ground_truth_knn_ordered(q, k, Some(&keys))
            })
            .collect();
        let full = full_evals(&before);
        assert_eq!(baseline, ordered, "{mode:?}-ordered scan diverged");
        best_ratio = best_ratio.max(baseline_full as f64 / full.max(1) as f64);
    }
    assert!(
        best_ratio >= 1.3,
        "quantized-ordered scan cut full evals only {best_ratio:.2}x below the unrefined scan"
    );
}
