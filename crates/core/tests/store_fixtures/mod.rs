//! The tiny index every store test binary builds (`store_properties.rs`,
//! `store_counters.rs`), and the one `store_golden.rs` committed here as
//! `golden.lan` with its probe digests.

use lan_core::{InitStrategy, LanConfig, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;

pub fn tiny_cfg() -> LanConfig {
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

pub fn tiny_dataset(graphs: usize) -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(graphs)
            .with_queries(12)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

pub const STRATEGIES: [(InitStrategy, RouteStrategy); 3] = [
    (
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: true },
    ),
    (
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: false },
    ),
    (InitStrategy::HnswIs, RouteStrategy::HnswRoute),
];
