//! `LanIndex::save` / `LanIndex::open` — the persistent index store.
//!
//! A saved index is one `lan-store` container file (superblock, section
//! table, checksummed 64-byte-aligned sections — see `lan_store`). The
//! flat layout:
//!
//! | section   | contents                                         |
//! |-----------|--------------------------------------------------|
//! | `meta`    | `LanConfig` + `TrainReport` + `build_ndc`        |
//! | `dataset` | spec, database graphs (CSR + signatures), queries, split |
//! | `pg`      | HNSW layers (CSR per layer), levels, entry       |
//! | `models`  | trained weights, KMeans, γ\*, embeddings, quant  |
//!
//! A sharded index stores a `sharded.meta` section (shard count, database
//! size, per-shard global-id maps) plus the same four sections per shard
//! under a `shard.N.` prefix. The L2route baseline gets its own two-section
//! file (`l2.pg`, `l2.embeds`).
//!
//! `open` re-registers the same observability schemas `build` does, so a
//! loaded index produces identical EXPLAIN/profiler output — the
//! loaded==built bit-identity contract covers results, NDC, and tier
//! attribution (pinned by `tests/store_properties.rs`).

use crate::index::{LanConfig, LanIndex, QuantConfig};
use crate::l2route::L2RouteIndex;
use crate::sharded::ShardedLanIndex;
use lan_datasets::Dataset;
use lan_gnn::QuantMode;
use lan_models::{LanModels, ModelConfig, TrainReport};
use lan_obs::names;
use lan_pg::{PgConfig, ProximityGraph};
use lan_store::{Archive, Dec, Enc, StoreError, Writer};
use std::path::Path;
use std::time::Instant;

fn encode_quant_cfg(q: &QuantConfig, enc: &mut Enc) {
    enc.put_u8(match q.mode {
        QuantMode::Off => 0,
        QuantMode::Binary => 1,
        QuantMode::Scalar => 2,
    });
    enc.put_f64(q.margin);
}

fn decode_quant_cfg(dec: &mut Dec<'_>) -> Result<QuantConfig, StoreError> {
    let mode = match dec.get_u8()? {
        0 => QuantMode::Off,
        1 => QuantMode::Binary,
        2 => QuantMode::Scalar,
        t => return Err(StoreError::corrupt(format!("unknown quant mode tag {t}"))),
    };
    let margin = dec.get_f64()?;
    Ok(QuantConfig { mode, margin })
}

fn encode_pg_cfg(p: &PgConfig, enc: &mut Enc) {
    enc.put_u64(p.m as u64);
    enc.put_u64(p.ef_construction as u64);
    enc.put_f64(p.ml);
    enc.put_u64(p.seed);
}

fn decode_pg_cfg(dec: &mut Dec<'_>) -> Result<PgConfig, StoreError> {
    let m = dec.get_u64()? as usize;
    let ef_construction = dec.get_u64()? as usize;
    let ml = dec.get_f64()?;
    let seed = dec.get_u64()?;
    if m == 0 {
        return Err(StoreError::corrupt("pg config has m = 0"));
    }
    Ok(PgConfig {
        m,
        ef_construction,
        ml,
        seed,
    })
}

fn encode_lan_cfg(cfg: &LanConfig, enc: &mut Enc) {
    encode_pg_cfg(&cfg.pg, enc);
    cfg.model.store_encode(enc);
    enc.put_f64(cfg.ds);
    encode_quant_cfg(&cfg.quant, enc);
}

fn decode_lan_cfg(dec: &mut Dec<'_>) -> Result<LanConfig, StoreError> {
    let pg = decode_pg_cfg(dec)?;
    let model = ModelConfig::store_decode(dec)?;
    let ds = dec.get_f64()?;
    let quant = decode_quant_cfg(dec)?;
    Ok(LanConfig {
        pg,
        model,
        ds,
        quant,
    })
}

fn encode_embeds(embeds: &[Vec<f32>], enc: &mut Enc) {
    let dim = embeds.first().map_or(0, |e| e.len());
    enc.put_u64(embeds.len() as u64);
    enc.put_u64(dim as u64);
    let flat: Vec<f32> = embeds.iter().flatten().copied().collect();
    enc.put_f32_slice(&flat);
}

fn decode_embeds(dec: &mut Dec<'_>) -> Result<Vec<Vec<f32>>, StoreError> {
    let n = dec.get_u64()? as usize;
    let dim = dec.get_u64()? as usize;
    let flat = dec.get_f32_slice()?;
    let expect = n
        .checked_mul(dim)
        .ok_or_else(|| StoreError::corrupt("embeds shape overflows"))?;
    if flat.len() != expect {
        return Err(StoreError::corrupt(format!(
            "embeds: {} values for {n}x{dim}",
            flat.len()
        )));
    }
    Ok(flat.chunks(dim.max(1)).map(|c| c.to_vec()).collect())
}

/// Appends one index's four sections to `w` under `prefix` (empty for a
/// flat index, `shard.N.` inside a sharded store).
fn add_index_sections(w: &mut Writer, prefix: &str, index: &LanIndex) {
    let mut meta = Enc::new();
    encode_lan_cfg(&index.cfg, &mut meta);
    index.report.store_encode(&mut meta);
    meta.put_u64(index.build_ndc as u64);
    w.add_section(&format!("{prefix}meta"), meta);

    let mut ds = Enc::new();
    index.dataset.store_encode(&mut ds);
    w.add_section(&format!("{prefix}dataset"), ds);

    let mut pg = Enc::new();
    index.pg.store_encode(&mut pg);
    w.add_section(&format!("{prefix}pg"), pg);

    let mut models = Enc::new();
    index.models.store_encode(&mut models);
    w.add_section(&format!("{prefix}models"), models);
}

/// Decodes one index's four sections from `a` under `prefix`.
fn decode_index_sections(a: &Archive, prefix: &str) -> Result<LanIndex, StoreError> {
    let mut meta = a.section(&format!("{prefix}meta"))?;
    let cfg = decode_lan_cfg(&mut meta)?;
    let report = TrainReport::store_decode(&mut meta)?;
    let build_ndc = meta.get_u64()? as usize;
    meta.expect_end()?;

    let mut ds = a.section(&format!("{prefix}dataset"))?;
    let dataset = Dataset::store_decode(&mut ds)?;
    ds.expect_end()?;

    let mut pgd = a.section(&format!("{prefix}pg"))?;
    let pg = ProximityGraph::store_decode(&mut pgd)?;
    pgd.expect_end()?;
    if pg.len() != dataset.graphs.len() {
        return Err(StoreError::corrupt(format!(
            "pg indexes {} nodes for {} graphs",
            pg.len(),
            dataset.graphs.len()
        )));
    }

    let mut md = a.section(&format!("{prefix}models"))?;
    let models = LanModels::store_decode(&mut md, &dataset)?;
    md.expect_end()?;

    Ok(LanIndex {
        dataset,
        pg,
        models,
        report,
        cfg,
        build_ndc,
    })
}

/// Mirrors `LanIndex::build`'s schema registration so a loaded index
/// exports the same zero-valued metric families and produces identical
/// EXPLAIN output.
fn register_schemas() {
    lan_obs::explain::register_schema();
    lan_obs::profile::register_schema();
    lan_obs::trace::register_schema();
}

fn record_save(bytes: u64, t0: Instant) {
    lan_obs::gauge(names::STORE_SAVE_NS).set(t0.elapsed().as_nanos() as i64);
    lan_obs::gauge(names::STORE_BYTES).set(bytes as i64);
}

fn record_load(bytes: u64, t0: Instant) {
    lan_obs::gauge(names::STORE_LOAD_NS).set(t0.elapsed().as_nanos() as i64);
    lan_obs::gauge(names::STORE_BYTES).set(bytes as i64);
}

impl LanIndex {
    /// Serializes the whole index to one container file (atomic: written
    /// to a temp file and renamed into place). Returns the bytes written.
    pub fn save(&self, path: &Path) -> Result<u64, StoreError> {
        let _s = lan_obs::span("store.save");
        let t0 = Instant::now();
        let mut w = Writer::new();
        add_index_sections(&mut w, "", self);
        let bytes = w.write(path)?;
        record_save(bytes, t0);
        Ok(bytes)
    }

    /// Loads an index saved by [`LanIndex::save`]. The loaded index
    /// answers queries bit-identically to the one that was saved: same
    /// results, same NDC, same EXPLAIN tier attribution.
    pub fn open(path: &Path) -> Result<LanIndex, StoreError> {
        register_schemas();
        let _s = lan_obs::span("store.load");
        let t0 = Instant::now();
        let a = Archive::open(path)?;
        let index = decode_index_sections(&a, "")?;
        record_load(a.total_bytes() as u64, t0);
        Ok(index)
    }
}

impl ShardedLanIndex {
    /// Serializes every shard plus the global-id maps into one container.
    pub fn save(&self, path: &Path) -> Result<u64, StoreError> {
        let _s = lan_obs::span("store.save");
        let t0 = Instant::now();
        let mut w = Writer::new();
        let mut meta = Enc::new();
        meta.put_u64(self.shards.len() as u64);
        meta.put_u64(self.len() as u64);
        for ids in &self.global_ids {
            meta.put_u32_slice(ids);
        }
        w.add_section("sharded.meta", meta);
        for (s, shard) in self.shards.iter().enumerate() {
            add_index_sections(&mut w, &format!("shard.{s}."), shard);
        }
        let bytes = w.write(path)?;
        record_save(bytes, t0);
        Ok(bytes)
    }

    /// Loads a sharded index saved by [`ShardedLanIndex::save`]. The
    /// shards decode in parallel under the `lan-par` thread budget (the
    /// serial loop at a budget of 1); when several fail, the error of the
    /// first in shard order is returned.
    pub fn open(path: &Path) -> Result<ShardedLanIndex, StoreError> {
        register_schemas();
        let _s = lan_obs::span("store.load");
        let t0 = Instant::now();
        let a = Archive::open(path)?;
        let global_ids = decode_global_ids(&mut a.section("sharded.meta")?)?;
        let shards = lan_par::par_map_indices_dyn(global_ids.len(), lan_par::Grain::Fine, |s| {
            let ids = &global_ids[s];
            let shard = decode_index_sections(&a, &format!("shard.{s}."))?;
            if shard.dataset.graphs.len() != ids.len() {
                return Err(StoreError::corrupt(format!(
                    "shard {s} holds {} graphs but maps {} ids",
                    shard.dataset.graphs.len(),
                    ids.len()
                )));
            }
            Ok(shard)
        });
        let shards = shards.into_iter().collect::<Result<Vec<_>, _>>()?;
        record_load(a.total_bytes() as u64, t0);
        Ok(ShardedLanIndex::from_parts(shards, global_ids))
    }
}

/// Decodes `sharded.meta`: the per-shard global-id maps, which together
/// must be a permutation of `0..total`.
fn decode_global_ids(meta: &mut Dec<'_>) -> Result<Vec<Vec<u32>>, StoreError> {
    let num_shards = meta.get_u64()? as usize;
    let total = meta.get_u64()? as usize;
    if num_shards == 0 {
        return Err(StoreError::corrupt("sharded store has zero shards"));
    }
    // The count comes from the file: bound the reservation, not the loop.
    let mut global_ids: Vec<Vec<u32>> = Vec::with_capacity(num_shards.min(1 << 20));
    for s in 0..num_shards {
        let ids = meta.get_u32_slice()?;
        if ids.iter().any(|&g| g as usize >= total) {
            return Err(StoreError::corrupt(format!(
                "shard {s} maps to a global id >= {total}"
            )));
        }
        global_ids.push(ids.to_vec());
    }
    meta.expect_end()?;
    if global_ids.iter().map(Vec::len).sum::<usize>() != total {
        return Err(StoreError::corrupt(
            "global-id maps do not cover the database",
        ));
    }
    // `total` ids, each below `total`: a permutation iff none repeats.
    let mut seen = vec![false; total];
    for (s, ids) in global_ids.iter().enumerate() {
        for &g in ids {
            if std::mem::replace(&mut seen[g as usize], true) {
                return Err(StoreError::corrupt(format!(
                    "shard {s} maps global id {g} a second time"
                )));
            }
        }
    }
    Ok(global_ids)
}

impl L2RouteIndex {
    /// Serializes the embedding-space HNSW and the embeddings.
    pub fn save(&self, path: &Path) -> Result<u64, StoreError> {
        let _s = lan_obs::span("store.save");
        let t0 = Instant::now();
        let mut w = Writer::new();
        let mut pg = Enc::new();
        self.pg.store_encode(&mut pg);
        w.add_section("l2.pg", pg);
        let mut em = Enc::new();
        encode_embeds(&self.embeds, &mut em);
        w.add_section("l2.embeds", em);
        let bytes = w.write(path)?;
        record_save(bytes, t0);
        Ok(bytes)
    }

    /// Loads an L2route index saved by [`L2RouteIndex::save`].
    pub fn open(path: &Path) -> Result<L2RouteIndex, StoreError> {
        let _s = lan_obs::span("store.load");
        let t0 = Instant::now();
        let a = Archive::open(path)?;
        let mut pgd = a.section("l2.pg")?;
        let pg = ProximityGraph::store_decode(&mut pgd)?;
        pgd.expect_end()?;
        let mut em = a.section("l2.embeds")?;
        let embeds = decode_embeds(&mut em)?;
        em.expect_end()?;
        if pg.len() != embeds.len() {
            return Err(StoreError::corrupt(format!(
                "l2 pg indexes {} nodes for {} embeddings",
                pg.len(),
                embeds.len()
            )));
        }
        record_load(a.total_bytes() as u64, t0);
        Ok(L2RouteIndex { pg, embeds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_codecs_round_trip() {
        let cfg = LanConfig {
            pg: PgConfig::new(5),
            model: ModelConfig::default(),
            ds: 2.0,
            quant: QuantConfig {
                mode: QuantMode::Scalar,
                margin: 1.75,
            },
        };
        let mut enc = Enc::new();
        encode_lan_cfg(&cfg, &mut enc);
        let mut w = Writer::new();
        w.add_section("c", enc);
        let bytes = w.to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        let mut dec = a.section("c").unwrap();
        let back = decode_lan_cfg(&mut dec).unwrap();
        dec.expect_end().unwrap();
        assert_eq!(back.pg.m, 5);
        assert_eq!(back.pg.ef_construction, cfg.pg.ef_construction);
        assert_eq!(back.ds.to_bits(), cfg.ds.to_bits());
        assert_eq!(back.quant.mode, QuantMode::Scalar);
        assert_eq!(back.quant.margin.to_bits(), cfg.quant.margin.to_bits());
        assert_eq!(back.model.seed, cfg.model.seed);
    }
}
