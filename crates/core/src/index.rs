//! Offline index construction: proximity graph + trained models + CGs.

use lan_datasets::Dataset;
use lan_models::{LanModels, ModelConfig, TrainReport};
use lan_pg::{PairCache, PgConfig, ProximityGraph};

/// Placeholder left where the quantized prefilter tier's configuration
/// was: the tier is gone and this carries nothing. It stays only because
/// `benchmark/src/workload.rs` still writes `quant: QuantConfig::default()`;
/// the `[benchmark]` change that drops that field and the
/// `tensor.hamming`/`tensor.dot_u8` probes (ROADMAP item 4(g)) removes it.
/// `#[non_exhaustive]` keeps `QuantConfig::default()` the one way to write
/// it outside this crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct QuantConfig;

/// Configuration of the whole LAN index.
#[derive(Debug, Clone)]
pub struct LanConfig {
    pub pg: PgConfig,
    pub model: ModelConfig,
    /// γ escalation step `d_s` for np_route (unit-cost GED → 1).
    pub ds: f64,
    /// Carries nothing (see [`QuantConfig`]).
    pub quant: QuantConfig,
}

impl Default for LanConfig {
    fn default() -> Self {
        LanConfig {
            pg: PgConfig::new(6),
            model: ModelConfig::default(),
            ds: 1.0,
            quant: QuantConfig::default(),
        }
    }
}

/// The built LAN index over a dataset.
pub struct LanIndex {
    pub dataset: Dataset,
    pub pg: ProximityGraph,
    pub models: LanModels,
    pub report: TrainReport,
    pub cfg: LanConfig,
    /// Pairwise distance computations spent building the PG.
    pub build_ndc: usize,
}

impl LanIndex {
    /// Builds the proximity graph, computes the training distance matrix,
    /// and trains every model. Entirely offline (paper §III-F).
    pub fn build(dataset: Dataset, cfg: LanConfig) -> Self {
        // Pre-register the EXPLAIN/profiler metric families so exports list
        // them (zero-valued) even before the first explained query runs.
        lan_obs::explain::register_schema();
        lan_obs::profile::register_schema();
        let _b_span = lan_obs::span("build");
        let pair_fn = |a: u32, b: u32| dataset.pair_distance(a, b);
        let pairs = PairCache::new(&pair_fn);
        let pg_span = lan_obs::span("build.pg");
        let pg = ProximityGraph::build(dataset.graphs.len(), &pairs, &cfg.pg);
        drop(pg_span);
        lan_obs::mem::sample_peak_rss();
        let build_ndc = pairs.computed();

        // Training distances: one row per training query, parallelized.
        let td_span = lan_obs::span("build.train_dists");
        let train_dists: Vec<Vec<f64>> =
            lan_par::par_map_dyn(&dataset.split.train, lan_par::Grain::Fine, |&qi| {
                (0..dataset.graphs.len() as u32)
                    .map(|g| dataset.distance(&dataset.queries[qi], g))
                    .collect::<Vec<f64>>()
            });
        drop(td_span);

        let models_span = lan_obs::span("build.models");
        let (models, report) =
            LanModels::train(&dataset, pg.base(), &train_dists, cfg.model.clone());
        drop(models_span);
        lan_obs::mem::sample_peak_rss();
        LanIndex {
            dataset,
            pg,
            models,
            report,
            cfg,
            build_ndc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_datasets::DatasetSpec;
    use lan_models::ModelConfig;

    pub(crate) fn tiny_index() -> LanIndex {
        let ds = lan_datasets::Dataset::generate(
            DatasetSpec::syn()
                .with_graphs(50)
                .with_queries(15)
                .with_metric(lan_ged::GedMethod::Hungarian),
        );
        let cfg = LanConfig {
            pg: PgConfig::new(4),
            model: ModelConfig {
                embed_dim: 8,
                epochs: 2,
                max_samples_per_epoch: 150,
                nh_cover_k: 8,
                clusters: 3,
                top_clusters: 2,
                mlp_hidden: 8,
                ..ModelConfig::default()
            },
            ds: 1.0,
            quant: QuantConfig::default(),
        };
        LanIndex::build(ds, cfg)
    }

    #[test]
    fn build_completes_and_is_consistent() {
        let idx = tiny_index();
        assert_eq!(idx.pg.len(), idx.dataset.graphs.len());
        assert!(idx.build_ndc > 0);
        assert!(idx.report.gamma_star > 0.0);
        assert_eq!(idx.models.db_embeds.len(), idx.dataset.graphs.len());
    }
}
