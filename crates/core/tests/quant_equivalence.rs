//! End-to-end contracts of the quantized prefilter tier:
//!
//! * the quantized-ordered ground-truth scan is result-identical to the
//!   plain lb-ordered scan (same neighbors, distances, tie-breaks — hence
//!   the same final threshold);
//! * a routing prefilter with an effectively-infinite margin never fires
//!   and is bit-identical to the tier being off;
//! * with a tight margin the tier actually engages (surrogate evaluations
//!   observed) and still returns k results;
//! * over a margin sweep some operating point keeps tie-aware recall at
//!   0.98 or more at strictly lower NDC than the tier off, and the
//!   documented `scalar:1.5` point keeps recall at 0.98 or more.

use lan_core::{InitStrategy, LanConfig, LanIndex, QuantConfig, QuantMode, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;

fn tiny_index(quant: QuantConfig) -> LanIndex {
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    );
    let cfg = LanConfig {
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
        quant,
    };
    LanIndex::build(ds, cfg)
}

#[test]
fn quant_ordered_ground_truth_identical_to_plain() {
    for mode in [QuantMode::Binary, QuantMode::Scalar] {
        let index = tiny_index(QuantConfig { mode, margin: 1.5 });
        assert!(index.models.quant.is_some(), "quant store must build");
        for qi in 0..5usize {
            let q = index.dataset.queries[qi].clone();
            for k in [1usize, 4, 9] {
                let plain = index.dataset.ground_truth_knn(&q, k);
                let quant = index.ground_truth(&q, k);
                assert_eq!(quant, plain, "mode={mode:?} q={qi} k={k}");
            }
        }
    }
}

#[test]
fn huge_margin_prefilter_is_bit_identical_to_off() {
    // A margin so large the skip test can never pass: the prefilter is
    // consulted but never fires, so routing must match the off-tier run
    // bit for bit (results, NDC) — the end-to-end analogue of lan-pg's
    // NeverSkip property test.
    let off = tiny_index(QuantConfig {
        mode: QuantMode::Off,
        margin: 1.5,
    });
    let huge = tiny_index(QuantConfig {
        mode: QuantMode::Scalar,
        margin: 1e9,
    });
    let (k, b) = (3usize, 4usize);
    for qi in 0..6usize {
        let q = off.dataset.queries[qi].clone();
        let a = off.search_with(
            &q,
            k,
            b,
            InitStrategy::HnswIs,
            RouteStrategy::LanRoute { use_cg: true },
            0,
        );
        let z = huge.search_with(
            &q,
            k,
            b,
            InitStrategy::HnswIs,
            RouteStrategy::LanRoute { use_cg: true },
            0,
        );
        assert_eq!(a.results, z.results, "q={qi}");
        assert_eq!(a.ndc, z.ndc, "q={qi}");
    }
}

#[test]
fn tight_margin_engages_the_tier() {
    let index = tiny_index(QuantConfig {
        mode: QuantMode::Scalar,
        margin: 1.0,
    });
    let (k, b) = (3usize, 4usize);
    let before = lan_obs::snapshot();
    for qi in 0..6usize {
        let q = index.dataset.queries[qi].clone();
        let out = index.search_with(
            &q,
            k,
            b,
            InitStrategy::HnswIs,
            RouteStrategy::LanRoute { use_cg: true },
            0,
        );
        assert_eq!(out.results.len(), k, "q={qi}");
    }
    let delta = lan_obs::snapshot().diff(&before);
    assert!(
        delta.counter(lan_obs::names::QUANT_PREFILTER_EVALS) > 0,
        "prefilter never consulted — tier not wired into routing"
    );
}

#[test]
fn prefilter_sweep_keeps_recall_at_lower_ndc() {
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(160)
            .with_queries(16)
            .with_metric(lan_ged::GedMethod::Hungarian),
    );
    let cfg = LanConfig {
        pg: PgConfig::new(6),
        model: ModelConfig {
            embed_dim: 32,
            epochs: 3,
            max_samples_per_epoch: 400,
            nh_cover_k: 16,
            clusters: 4,
            top_clusters: 2,
            mlp_hidden: 16,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: QuantConfig {
            mode: QuantMode::Off,
            margin: 1.5,
        },
    };
    let mut index = LanIndex::build(ds, cfg);
    let (k, b) = (5usize, 20usize);
    let queries: Vec<usize> = (0..12).collect();
    let truths = lan_core::harness::ground_truths(&index, &queries, k);
    // (tie-aware recall, total NDC) at the index's current quant config.
    let run = |index: &LanIndex| {
        let (mut recall, mut ndc) = (0.0f64, 0usize);
        for (&qi, &kth) in queries.iter().zip(&truths) {
            let out = index.search_with(
                &index.dataset.queries[qi],
                k,
                b,
                InitStrategy::LanIs,
                RouteStrategy::LanRoute { use_cg: true },
                qi as u64,
            );
            recall += lan_datasets::recall_at_k_ties(&out.results, kth, k);
            ndc += out.ndc;
        }
        (recall / queries.len() as f64, ndc)
    };
    let (_, off_ndc) = run(&index);
    let mut held_at_lower_ndc = false;
    for mode in [QuantMode::Binary, QuantMode::Scalar] {
        for margin in [1.0f64, 1.05, 1.1, 1.15, 1.25, 1.5, 2.0] {
            index.cfg.quant = QuantConfig { mode, margin };
            let (recall, ndc) = run(&index);
            held_at_lower_ndc |= recall >= 0.98 && ndc < off_ndc;
            if mode == QuantMode::Scalar && margin == 1.5 {
                assert!(recall >= 0.98, "scalar:1.5 recall {recall:.3} below 0.98");
            }
        }
    }
    assert!(
        held_at_lower_ndc,
        "no sweep point held recall >= 0.98 below the tier-off NDC {off_ndc}"
    );
}
