//! Offline index construction: proximity graph + trained models + CGs.

use lan_datasets::Dataset;
use lan_gnn::QuantMode;
use lan_models::{LanModels, ModelConfig, TrainReport};
use lan_pg::{PairCache, PgConfig, ProximityGraph};

/// Configuration of the quantized prefilter tier at query time (the code
/// books themselves are always built at index time; this only selects
/// what queries do with them).
#[derive(Debug, Clone, Copy)]
pub struct QuantConfig {
    /// Surrogate mode routing prefilters with (`Off` disables the tier).
    pub mode: QuantMode,
    /// Safety margin of the routing prefilter: a candidate is skipped
    /// only when its calibrated prediction exceeds `tau·margin + slack`
    /// (see `lan_models::QuantPrefilter`). Must be ≥ 1.
    pub margin: f64,
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig {
            mode: QuantMode::Off,
            margin: 1.5,
        }
    }
}

impl QuantConfig {
    /// Parses the `LAN_QUANT` environment knob as a `Result`: `off`
    /// (default), `binary`, `scalar`, with an optional `:margin` suffix
    /// (e.g. `scalar:2.0`; the margin must be a finite number ≥ 1). A
    /// malformed value — `binary:abc`, `fast`, `scalar:0.5` — is a typed
    /// [`lan_par::env::EnvError`] naming the offending value.
    pub fn try_from_env() -> Result<Self, lan_par::env::EnvError> {
        let parsed = lan_par::env::parse_var("LAN_QUANT", |s| {
            Self::parse(s)
                .ok_or_else(|| format!("expected off|binary|scalar[:margin>=1], got {s:?}"))
        })?;
        Ok(parsed.unwrap_or_default())
    }

    /// Total variant of [`QuantConfig::try_from_env`]: an env typo must
    /// not flip query semantics silently, so a malformed value prints one
    /// warning per process to stderr and falls back to the do-nothing
    /// default (tier off).
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(cfg) => cfg,
            Err(e) => {
                lan_par::env::warn_once(&e);
                Self::default()
            }
        }
    }

    /// Parses `mode[:margin]`; `None` on malformed input.
    pub fn parse(s: &str) -> Option<Self> {
        let (mode_s, margin_s) = match s.split_once(':') {
            // An explicit margin needs an explicit mode: ":2.0" is a typo,
            // not a request for the default tier.
            Some((m, _)) if m.trim().is_empty() => return None,
            Some((m, g)) => (m, Some(g)),
            None => (s, None),
        };
        let mode = QuantMode::parse(mode_s.trim())?;
        let margin = match margin_s {
            Some(g) => {
                let m: f64 = g.trim().parse().ok()?;
                if !m.is_finite() || m < 1.0 {
                    return None;
                }
                m
            }
            None => Self::default().margin,
        };
        Some(QuantConfig { mode, margin })
    }
}

/// Configuration of the whole LAN index.
#[derive(Debug, Clone)]
pub struct LanConfig {
    pub pg: PgConfig,
    pub model: ModelConfig,
    /// γ escalation step `d_s` for np_route (unit-cost GED → 1).
    pub ds: f64,
    /// Quantized prefilter tier (defaults to `LAN_QUANT`, read once at
    /// config construction; override programmatically to sweep modes and
    /// margins without environment races).
    pub quant: QuantConfig,
}

impl Default for LanConfig {
    fn default() -> Self {
        LanConfig {
            pg: PgConfig::new(6),
            model: ModelConfig::default(),
            ds: 1.0,
            quant: QuantConfig::from_env(),
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
        lan_obs::trace::register_schema();
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
    fn quant_env_reject_set_is_typed() {
        for bad in [
            "binary:abc",
            "bogus",
            "scalar:0.5",
            "binary:",
            "off:nan",
            ":2.0",
        ] {
            lan_par::testenv::with_env(&[("LAN_QUANT", Some(bad))], || {
                let err = QuantConfig::try_from_env()
                    .expect_err(&format!("LAN_QUANT={bad:?} must be rejected"));
                assert_eq!(err.key, "LAN_QUANT");
                assert_eq!(err.value, bad);
                // Total path never flips semantics: falls back to Off.
                lan_par::env::reset_warnings();
                let cfg = QuantConfig::from_env();
                assert_eq!(cfg.mode, QuantMode::Off);
            });
        }
        for (good, mode, margin) in [
            ("off", QuantMode::Off, 1.5),
            ("binary", QuantMode::Binary, 1.5),
            ("scalar:2.0", QuantMode::Scalar, 2.0),
            ("binary:1", QuantMode::Binary, 1.0),
        ] {
            lan_par::testenv::with_env(&[("LAN_QUANT", Some(good))], || {
                let cfg = QuantConfig::try_from_env().expect("valid LAN_QUANT");
                assert_eq!(cfg.mode, mode);
                assert_eq!(cfg.margin, margin);
            });
        }
        lan_par::testenv::with_env(&[("LAN_QUANT", None)], || {
            let cfg = QuantConfig::try_from_env().expect("unset LAN_QUANT");
            assert_eq!(cfg.mode, QuantMode::Off);
        });
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
