//! End-to-end training of the LAN models on a tiny dataset.

mod common;

use lan_datasets::{Dataset, DatasetSpec};
use lan_ged::GedMethod;
use lan_models::{LanModels, LearnedRanker, ModelConfig};
use lan_pg::np_route::{np_route, NeighborRanker};
use lan_pg::{beam_search, DistCache, ProximityGraph};

fn tiny_setup() -> (Dataset, ProximityGraph, Vec<Vec<f64>>, LanModels) {
    let spec = DatasetSpec::syn()
        .with_graphs(60)
        .with_queries(20)
        .with_metric(GedMethod::Hungarian);
    let (ds, pg, train_dists) = common::training_inputs(spec);
    let cfg = ModelConfig {
        embed_dim: 8,
        epochs: 2,
        max_samples_per_epoch: 200,
        nh_cover_k: 10,
        clusters: 4,
        top_clusters: 2,
        mlp_hidden: 8,
        ..ModelConfig::default()
    };
    let (models, report) = LanModels::train(&ds, pg.base(), &train_dists, cfg);
    assert!(report.gamma_star > 0.0, "gamma* must be positive");
    assert!(report.nh_loss.is_finite());
    assert!(report.rk_loss.is_finite());
    (ds, pg, train_dists, models)
}

#[test]
fn training_pipeline_end_to_end() {
    let (ds, pg, _train_dists, models) = tiny_setup();

    // Query context + pair embeddings behave.
    let q = &ds.queries[ds.split.test[0]];
    let ctx_plain = models.query_context(q, false);
    let ctx_cg = models.query_context(q, true);
    let p1 = models.pair_embedding(&ctx_plain, 0, false);
    let p2 = models.pair_embedding(&ctx_cg, 0, true);
    assert_eq!(p1.len(), 2 * models.cfg.embed_dim);
    // Theorem 2 end-to-end: CG inference equals plain inference.
    let diff = p1
        .iter()
        .zip(&p2)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(diff < 1e-3, "CG and plain pair embeddings differ by {diff}");

    // Ranker batches partition the neighbor set.
    let node = 0u32;
    let neighbors = pg.base()[0].clone();
    let d_node = ds.distance(q, node);
    let batches = models.rank_batches(&ctx_cg, node, &neighbors, d_node, true);
    let mut flat: Vec<u32> = batches.iter().flatten().copied().collect();
    flat.sort_unstable();
    let mut expect = neighbors.clone();
    expect.sort_unstable();
    assert_eq!(flat, expect, "batches must partition the neighbors");

    // Outside the neighborhood: a single batch (no pruning).
    let far = models.rank_batches(&ctx_cg, node, &neighbors, models.gamma_star + 100.0, true);
    assert_eq!(far.len(), 1);
    assert_eq!(far[0].len(), neighbors.len());

    // Predicted neighborhood produces some candidates and only valid ids.
    let nh = models.predicted_neighborhood(&ctx_cg, true);
    assert!(nh.iter().all(|&g| (g as usize) < ds.graphs.len()));

    // The learned ranker drives np_route to sane results.
    let qd = |g: u32| ds.distance(q, g);
    let cache = DistCache::new(&qd);
    let entry = pg.hnsw_entry(&cache);
    let ranker = LearnedRanker::new(&models, &ctx_cg, true);
    let res = np_route(pg.base(), &cache, &ranker, &[entry], 8, 5, 1.0);
    assert_eq!(res.results.len(), 5);
    assert!(res.results.windows(2).all(|w| w[0].0 <= w[1].0));

    // Compare against the exhaustive baseline: learned pruning should not
    // blow up NDC beyond the baseline (it may explore slightly differently).
    let cache_bs = DistCache::new(&qd);
    let bs = beam_search(pg.base(), &cache_bs, &[entry], 8, 5);
    assert!(
        res.ndc <= bs.ndc * 2,
        "np ndc {} vs baseline {}",
        res.ndc,
        bs.ndc
    );

    // The per-query timer accumulated inference time.
    assert!(ctx_cg.gnn_time().as_nanos() > 0);
}

#[test]
fn ranker_trait_object_usage() {
    let (ds, pg, _td, models) = tiny_setup();
    let q = &ds.queries[0];
    let ctx = models.query_context(q, false);
    let ranker = LearnedRanker::new(&models, &ctx, false);
    let batches = ranker.rank(1, &pg.base()[1], 0.0);
    let total: usize = batches.iter().map(Vec::len).sum();
    assert_eq!(total, pg.base()[1].len());
}

#[test]
fn nh_precision_is_meaningful() {
    let (ds, _pg, _td, models) = tiny_setup();
    let (precision, recall) = models.nh_precision_on(&ds, &ds.split.val);
    // Loose sanity: both are probabilities; on this tiny setup the model
    // should do clearly better than predicting nothing.
    assert!((0.0..=1.0).contains(&precision));
    assert!((0.0..=1.0).contains(&recall));
}
