//! Observability must be a pure observer: enabling or disabling the
//! metrics registry (and the routing trace) must not change a single query
//! result or NDC. This test lives in its own binary because it flips the
//! global `LAN_METRICS` switch, which would race tests in other binaries'
//! threads.

use lan_core::{InitStrategy, LanConfig, LanIndex, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;

fn tiny_index() -> LanIndex {
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
        quant: lan_core::QuantConfig::default(),
    };
    LanIndex::build(ds, cfg)
}

#[test]
fn metrics_state_never_changes_results_or_ndc() {
    let index = tiny_index();
    let strategies = [
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
    for (init, route) in strategies {
        for qi in 0..4usize {
            let q = index.dataset.queries[qi].clone();
            for seed in [0u64, 7, 1234] {
                lan_obs::set_enabled(true);
                lan_obs::trace::set_route_enabled(true);
                let _t = lan_obs::trace::query(qi as u64);
                let on = index.search_with(&q, 3, 4, init, route, seed);
                drop(_t);

                lan_obs::set_enabled(false);
                lan_obs::trace::set_route_enabled(false);
                let off = index.search_with(&q, 3, 4, init, route, seed);

                assert_eq!(
                    on.results, off.results,
                    "results changed with metrics state (init={init:?}, route={route:?}, qi={qi}, seed={seed})"
                );
                assert_eq!(
                    on.ndc, off.ndc,
                    "NDC changed with metrics state (init={init:?}, route={route:?}, qi={qi}, seed={seed})"
                );
            }
        }
    }
    // Restore defaults for any tests added to this binary later.
    lan_obs::set_enabled(true);
    lan_obs::trace::set_route_enabled(false);
    lan_obs::trace::drain();
}
