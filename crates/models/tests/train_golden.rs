//! Golden pins of the trained weights: `LanModels::train` must produce
//! the same parameter bits whatever happens to the cost of producing them.
//!
//! The constants were captured at commit 604df2a (before the Adam moment
//! flush, the nested-thread budget of `lan-par` and the lazily
//! materialised `M_rk` features), so they fail on any build-side change
//! that moves a single weight bit of the GIN embedder, the cross encoder,
//! or the `nh` / `dist` / `rk` / `mc` heads.

mod common;

use lan_datasets::DatasetSpec;
use lan_ged::GedMethod;
use lan_models::{LanModels, ModelConfig};
use lan_tensor::ParamStore;

/// FNV-1a over the value bits of every parameter of the four stores, in
/// registration order (`cross_store` holds the encoder and the `nh` and
/// `dist` heads).
fn weight_digest(models: &LanModels) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let stores: [&ParamStore; 4] = [
        &models.gin_store,
        &models.cross_store,
        &models.rk_store,
        &models.mc_store,
    ];
    for store in stores {
        for id in 0..store.len() {
            for x in store.value(id).data() {
                for b in x.to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

fn train_digest(spec: DatasetSpec) -> u64 {
    let (ds, pg, train_dists) = common::training_inputs(spec);
    // Long enough (6·epochs·4·max_samples ranker steps) for first moments
    // of dead-ReLU weights to decay through the subnormal range.
    let cfg = ModelConfig {
        embed_dim: 8,
        epochs: 3,
        max_samples_per_epoch: 120,
        nh_cover_k: 10,
        clusters: 4,
        top_clusters: 2,
        mlp_hidden: 8,
        ..ModelConfig::default()
    };
    let (models, _) = LanModels::train(&ds, pg.base(), &train_dists, cfg);
    weight_digest(&models)
}

#[test]
fn syn_weights_match_the_pinned_bits() {
    let spec = DatasetSpec::syn()
        .with_graphs(60)
        .with_queries(20)
        .with_metric(GedMethod::Hungarian);
    assert_eq!(
        train_digest(spec),
        0x3bc5_371e_b385_3b35,
        "SYN weight digest moved"
    );
}

#[test]
fn molecule_weights_match_the_pinned_bits() {
    let spec = DatasetSpec::aids()
        .with_graphs(40)
        .with_queries(16)
        .with_metric(GedMethod::Hungarian);
    assert_eq!(
        train_digest(spec),
        0x53b9_8a63_d994_3ee1,
        "AIDS weight digest moved"
    );
}
