//! On-disk codec for the trained [`LanModels`] bundle.
//!
//! Serialization strategy: persist exactly the artifacts that are
//! expensive or RNG-dependent to reproduce — the four parameter stores'
//! trained values, the KMeans clustering, `gamma_star`, the database GIN
//! embeddings. The cheap deterministic ones (compressed GNN-graphs, cross inputs and their
//! layer-0 prefixes, pure functions of the database graphs, the config and
//! the loaded weights) are neither stored nor built at load: the decoded
//! bundle prepares each on first use, as a trained one does (`DbInputs`).
//!
//! Loading replays `LanModels::train`'s network-construction order
//! against a fresh seeded RNG — including the auxiliary distance head
//! that training allocates in the cross store and then discards — so the
//! parameter-id layout of every store matches the file exactly; the
//! store loaders then cross-check count and shape of every parameter
//! before overwriting. `FusedHeads` is rebuilt *after* the value load
//! (it copies weights at construction). The result answers queries
//! bit-identically to the index that was saved.

use crate::kmeans::KMeans;
use crate::models::{DbInputs, LanModels, ModelConfig, TrainReport};
use lan_datasets::Dataset;
use lan_gnn::{CrossGraphNet, Gin, GnnConfig};
use lan_store::{Dec, Enc, StoreError};
use lan_tensor::{FusedHeads, Mlp, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

impl ModelConfig {
    /// Serializes every hyperparameter.
    pub fn store_encode(&self, enc: &mut Enc) {
        enc.put_u64(self.embed_dim as u64);
        enc.put_u64(self.layers as u64);
        enc.put_u64(self.batch_pct as u64);
        enc.put_u64(self.nh_cover_k as u64);
        enc.put_f64(self.nh_cover_quantile);
        enc.put_u64(self.epochs as u64);
        enc.put_u64(self.max_samples_per_epoch as u64);
        enc.put_u64(self.clusters as u64);
        enc.put_u64(self.top_clusters as u64);
        enc.put_u64(self.mlp_hidden as u64);
        enc.put_u64(self.init_samples as u64);
        enc.put_u64(self.seed);
    }

    /// Decodes a config written by [`ModelConfig::store_encode`].
    pub fn store_decode(dec: &mut Dec<'_>) -> Result<ModelConfig, StoreError> {
        let cfg = ModelConfig {
            embed_dim: dec.get_u64()? as usize,
            layers: dec.get_u64()? as usize,
            batch_pct: dec.get_u64()? as usize,
            nh_cover_k: dec.get_u64()? as usize,
            nh_cover_quantile: dec.get_f64()?,
            epochs: dec.get_u64()? as usize,
            max_samples_per_epoch: dec.get_u64()? as usize,
            clusters: dec.get_u64()? as usize,
            top_clusters: dec.get_u64()? as usize,
            mlp_hidden: dec.get_u64()? as usize,
            init_samples: dec.get_u64()? as usize,
            seed: dec.get_u64()?,
        };
        if cfg.embed_dim == 0 || cfg.layers == 0 || cfg.batch_pct == 0 || cfg.mlp_hidden == 0 {
            return Err(StoreError::corrupt("model config has a zero dimension"));
        }
        Ok(cfg)
    }
}

impl TrainReport {
    /// Serializes the training diagnostics.
    pub fn store_encode(&self, enc: &mut Enc) {
        enc.put_f64(self.gamma_star);
        enc.put_f64(self.nh_precision);
        enc.put_f64(self.nh_recall);
        enc.put_f32(self.nh_loss);
        enc.put_f32(self.rk_loss);
    }

    /// Decodes a report written by [`TrainReport::store_encode`].
    pub fn store_decode(dec: &mut Dec<'_>) -> Result<TrainReport, StoreError> {
        Ok(TrainReport {
            gamma_star: dec.get_f64()?,
            nh_precision: dec.get_f64()?,
            nh_recall: dec.get_f64()?,
            nh_loss: dec.get_f32()?,
            rk_loss: dec.get_f32()?,
        })
    }
}

fn encode_kmeans(km: &KMeans, enc: &mut Enc) {
    let k = km.centroids.len();
    let dim = km.centroids.first().map_or(0, |c| c.len());
    enc.put_u64(k as u64);
    enc.put_u64(dim as u64);
    let flat: Vec<f32> = km.centroids.iter().flatten().copied().collect();
    enc.put_f32_slice(&flat);
    enc.put_u32_slice(&km.assignment);
}

fn decode_kmeans(dec: &mut Dec<'_>, n_points: usize) -> Result<KMeans, StoreError> {
    let k = dec.get_u64()? as usize;
    let dim = dec.get_u64()? as usize;
    let flat = dec.get_f32_slice()?;
    let assignment = dec.get_u32_slice()?;
    let expect = k
        .checked_mul(dim)
        .ok_or_else(|| StoreError::corrupt("kmeans shape overflows"))?;
    if flat.len() != expect {
        return Err(StoreError::corrupt(format!(
            "kmeans centroids: {} values for {k}x{dim}",
            flat.len()
        )));
    }
    if assignment.len() != n_points {
        return Err(StoreError::corrupt(format!(
            "kmeans assignment covers {} of {n_points} points",
            assignment.len()
        )));
    }
    let centroids: Vec<Vec<f32>> = flat.chunks(dim.max(1)).map(|c| c.to_vec()).collect();
    if assignment.iter().any(|&c| c as usize >= centroids.len()) {
        return Err(StoreError::corrupt(
            "kmeans assignment references a cluster >= k",
        ));
    }
    Ok(KMeans::from_parts(centroids, assignment.to_vec()))
}

fn encode_embeds(embeds: &[Vec<f32>], enc: &mut Enc) {
    let dim = embeds.first().map_or(0, |e| e.len());
    enc.put_u64(embeds.len() as u64);
    enc.put_u64(dim as u64);
    let flat: Vec<f32> = embeds.iter().flatten().copied().collect();
    enc.put_f32_slice(&flat);
}

fn decode_embeds(dec: &mut Dec<'_>, n_expected: usize) -> Result<Vec<Vec<f32>>, StoreError> {
    let n = dec.get_u64()? as usize;
    let dim = dec.get_u64()? as usize;
    let flat = dec.get_f32_slice()?;
    if n != n_expected {
        return Err(StoreError::corrupt(format!(
            "db_embeds cover {n} of {n_expected} graphs"
        )));
    }
    let expect = n
        .checked_mul(dim)
        .ok_or_else(|| StoreError::corrupt("db_embeds shape overflows"))?;
    if flat.len() != expect {
        return Err(StoreError::corrupt(format!(
            "db_embeds: {} values for {n}x{dim}",
            flat.len()
        )));
    }
    Ok(flat.chunks(dim.max(1)).map(|c| c.to_vec()).collect())
}

/// The cross store's network skeleton, replayed exactly as
/// `LanModels::train` allocates it. The discarded distance head must be
/// constructed too: its parameters occupy ids in the cross store, and
/// dropping it from the replay would shift every later id.
struct Skeleton {
    gin: Gin,
    gin_store: ParamStore,
    cross: CrossGraphNet,
    cross_store: ParamStore,
    nh_head: Mlp,
    rk_heads: Vec<Mlp>,
    rk_store: ParamStore,
    mc_head: Mlp,
    mc_store: ParamStore,
}

fn build_skeleton(cfg: &ModelConfig, num_labels: usize) -> Skeleton {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let gcfg = GnnConfig::uniform(num_labels, cfg.embed_dim, cfg.layers);
    let mut gin_store = ParamStore::new();
    let gin = Gin::new(&mut rng, &mut gin_store, gcfg.clone());
    let mut cross_store = ParamStore::new();
    let cross = CrossGraphNet::new(&mut rng, &mut cross_store, gcfg.clone());
    let nh_head = Mlp::new(
        &mut rng,
        &mut cross_store,
        &[2 * cfg.embed_dim, cfg.mlp_hidden, 1],
    );
    let _dist_head = Mlp::new(
        &mut rng,
        &mut cross_store,
        &[2 * cfg.embed_dim, cfg.mlp_hidden, 1],
    );
    let mut rk_store = ParamStore::new();
    let rk_heads: Vec<Mlp> = (0..LanModels::num_rankers(cfg))
        .map(|_| {
            Mlp::new(
                &mut rng,
                &mut rk_store,
                &[
                    crate::models::rk_feature_dim(cfg.embed_dim),
                    cfg.mlp_hidden,
                    1,
                ],
            )
        })
        .collect();
    let mut mc_store = ParamStore::new();
    let mc_head = Mlp::new(
        &mut rng,
        &mut mc_store,
        &[2 * cfg.embed_dim, cfg.mlp_hidden, 1],
    );
    Skeleton {
        gin,
        gin_store,
        cross,
        cross_store,
        nh_head,
        rk_heads,
        rk_store,
        mc_head,
        mc_store,
    }
}

impl LanModels {
    /// Serializes the trained bundle (weights + clustering + embeddings).
    /// The database-derived inputs (`db_inputs_*`) are prepared on first
    /// use after load.
    pub fn store_encode(&self, enc: &mut Enc) {
        self.cfg.store_encode(enc);
        enc.put_u64(self.num_labels as u64);
        enc.put_f64(self.gamma_star);
        self.gin_store.store_encode_values(enc);
        self.cross_store.store_encode_values(enc);
        self.rk_store.store_encode_values(enc);
        self.mc_store.store_encode_values(enc);
        encode_kmeans(&self.kmeans, enc);
        encode_embeds(&self.db_embeds, enc);
    }

    /// Decodes a bundle written by [`LanModels::store_encode`] against the
    /// dataset it was trained on (its graphs feed the inputs prepared on
    /// first use).
    pub fn store_decode(dec: &mut Dec<'_>, dataset: &Dataset) -> Result<LanModels, StoreError> {
        let cfg = ModelConfig::store_decode(dec)?;
        let num_labels = dec.get_u64()? as usize;
        if num_labels != dataset.spec.num_labels as usize {
            return Err(StoreError::corrupt(format!(
                "model trained with {num_labels} labels, dataset has {}",
                dataset.spec.num_labels
            )));
        }
        let gamma_star = dec.get_f64()?;

        let mut sk = build_skeleton(&cfg, num_labels);
        sk.gin_store.store_load_values(dec)?;
        sk.cross_store.store_load_values(dec)?;
        sk.rk_store.store_load_values(dec)?;
        sk.mc_store.store_load_values(dec)?;

        let kmeans = decode_kmeans(dec, dataset.graphs.len())?;
        let db_embeds = decode_embeds(dec, dataset.graphs.len())?;

        // Fused head kernels: built AFTER the value load — they snapshot
        // the head weights at construction.
        let nh_fused = FusedHeads::new(std::slice::from_ref(&sk.nh_head), &sk.cross_store);
        let rk_fused = FusedHeads::new(&sk.rk_heads, &sk.rk_store);

        let (db_inputs_cg, db_inputs_plain) = DbInputs::both(&dataset.graphs, &sk.cross.cfg);

        Ok(LanModels {
            cfg,
            num_labels,
            gin: sk.gin,
            gin_store: sk.gin_store,
            cross: sk.cross,
            cross_store: sk.cross_store,
            nh_head: sk.nh_head,
            nh_fused,
            rk_heads: sk.rk_heads,
            rk_fused,
            rk_store: sk.rk_store,
            mc_head: sk.mc_head,
            mc_store: sk.mc_store,
            kmeans,
            gamma_star,
            db_embeds,
            db_inputs_cg,
            db_inputs_plain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_datasets::DatasetSpec;
    use lan_ged::GedMethod;
    use lan_store::{Archive, Writer};

    fn tiny_trained() -> (Dataset, LanModels) {
        let spec = DatasetSpec::syn()
            .with_graphs(30)
            .with_queries(10)
            .with_metric(GedMethod::Hungarian);
        let dataset = Dataset::generate(spec);
        let cfg = ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 60,
            clusters: 3,
            top_clusters: 2,
            mlp_hidden: 8,
            nh_cover_k: 6,
            ..ModelConfig::default()
        };
        let adj: Vec<Vec<u32>> = (0..dataset.graphs.len())
            .map(|i| {
                let n = dataset.graphs.len() as u32;
                vec![(i as u32 + 1) % n, (i as u32 + 2) % n]
            })
            .collect();
        let train_dists: Vec<Vec<f64>> = dataset
            .split
            .train
            .iter()
            .map(|&qi| {
                (0..dataset.graphs.len() as u32)
                    .map(|g| dataset.distance(&dataset.queries[qi], g))
                    .collect()
            })
            .collect();
        let (models, _) = LanModels::train(&dataset, &adj, &train_dists, cfg);
        (dataset, models)
    }

    #[test]
    fn models_round_trip_bit_identically() {
        let (dataset, models) = tiny_trained();
        let mut enc = Enc::new();
        models.store_encode(&mut enc);
        let mut w = Writer::new();
        w.add_section("m", enc);
        let bytes = w.to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        let mut dec = a.section("m").unwrap();
        let back = LanModels::store_decode(&mut dec, &dataset).unwrap();
        dec.expect_end().unwrap();

        // Raw weight identity across all four stores.
        for (src, dst) in [
            (&models.gin_store, &back.gin_store),
            (&models.cross_store, &back.cross_store),
            (&models.rk_store, &back.rk_store),
            (&models.mc_store, &back.mc_store),
        ] {
            assert_eq!(src.len(), dst.len());
            for id in 0..src.len() {
                assert_eq!(src.value(id).data(), dst.value(id).data(), "param {id}");
            }
        }
        assert_eq!(back.gamma_star.to_bits(), models.gamma_star.to_bits());
        assert_eq!(back.db_embeds, models.db_embeds);
        assert_eq!(back.kmeans.centroids, models.kmeans.centroids);
        assert_eq!(back.kmeans.assignment, models.kmeans.assignment);

        // Behavioral identity: same neighborhood prediction and same
        // ranker batches for a query neither side has seen in training.
        let q = &dataset.queries[0];
        let (c1, c2) = (models.query_context(q, true), back.query_context(q, true));
        assert_eq!(
            models.predicted_neighborhood(&c1, true),
            back.predicted_neighborhood(&c2, true)
        );
        let neighbors: Vec<u32> = (0..8).collect();
        assert_eq!(
            models.rank_batches(&c1, 0, &neighbors, 0.0, true),
            back.rank_batches(&c2, 0, &neighbors, 0.0, true)
        );
    }

    #[test]
    fn label_mismatch_is_typed() {
        let (dataset, models) = tiny_trained();
        let mut enc = Enc::new();
        models.store_encode(&mut enc);
        let mut w = Writer::new();
        w.add_section("m", enc);
        let bytes = w.to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        let mut dec = a.section("m").unwrap();
        let mut other = dataset.clone();
        other.spec.num_labels += 1;
        assert!(matches!(
            LanModels::store_decode(&mut dec, &other),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
