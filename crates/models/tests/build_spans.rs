//! `LanModels::train` accounts for its own time: eight `build.models.*`
//! sub-phase spans that together cover the `build.models` span `lan-core`
//! opens around it. A test binary of its own, because the span profiler
//! is process-global.

mod common;

use lan_datasets::DatasetSpec;
use lan_ged::GedMethod;
use lan_models::{LanModels, ModelConfig};

const PHASES: [&str; 8] = [
    "embedder",
    "quant",
    "kmeans",
    "nh",
    "rk_features",
    "rk_heads",
    "mc",
    "validate",
];

#[test]
fn sub_phase_spans_cover_the_models_span() {
    let (ds, pg, train_dists) = common::training_inputs(
        DatasetSpec::syn()
            .with_graphs(60)
            .with_queries(20)
            .with_metric(GedMethod::Hungarian),
    );
    let cfg = ModelConfig {
        embed_dim: 8,
        epochs: 2,
        max_samples_per_epoch: 100,
        nh_cover_k: 10,
        clusters: 4,
        top_clusters: 2,
        mlp_hidden: 8,
        ..ModelConfig::default()
    };

    lan_obs::set_enabled(true);
    lan_obs::profile::set_enabled(true);
    lan_obs::profile::reset();
    {
        let _models_span = lan_obs::span("build.models");
        let _ = LanModels::train(&ds, pg.base(), &train_dists, cfg);
    }
    lan_obs::profile::set_enabled(false);

    let paths = lan_obs::profile::paths();
    let stats = |path: &str| {
        paths
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, st)| *st)
            .unwrap_or_else(|| panic!("no `{path}` in the folded profile"))
    };
    let whole = stats("build.models");
    let mut covered = 0u64;
    for phase in PHASES {
        let st = stats(&format!("build.models;build.models.{phase}"));
        assert_eq!(st.count, 1, "{phase} must close exactly once per build");
        covered += st.total_ns;
    }
    // What the sub-phases leave uncovered is `build.models`' own self time
    // (the γ* rule, struct moves): under a tenth of the whole.
    assert_eq!(whole.total_ns - covered, whole.self_ns);
    assert!(
        covered as f64 >= 0.9 * whole.total_ns as f64,
        "sub-phases cover {covered} ns of {} ns",
        whole.total_ns
    );
}
