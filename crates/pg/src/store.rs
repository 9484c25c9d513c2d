//! On-disk codec for the proximity graph (HNSW layout).
//!
//! Each layer is serialized as CSR (per-node offsets + flattened neighbor
//! ids), the natural relocatable layout for adjacency: a load is one
//! zero-copy slab read per layer followed by straight copies into the
//! in-memory `Vec<Vec<u32>>` shape the routers consume. Validation is
//! O(nodes + edges): offsets monotone and consistent, every neighbor id
//! and the entry point in range, levels sized to the node count.

use crate::build::ProximityGraph;
use lan_store::{Dec, Enc, StoreError};

impl ProximityGraph {
    /// Serializes the full HNSW structure (all layers, levels, entry).
    pub fn store_encode(&self, enc: &mut Enc) {
        let n = self.len();
        enc.put_u64(n as u64);
        enc.put_u32(self.entry);
        enc.put_u32(self.layers.len() as u32);
        enc.put_u8_slice(&self.levels);
        for layer in &self.layers {
            let mut offsets: Vec<u64> = Vec::with_capacity(layer.len() + 1);
            let mut flat: Vec<u32> = Vec::new();
            offsets.push(0);
            for ns in layer {
                flat.extend_from_slice(ns);
                offsets.push(flat.len() as u64);
            }
            enc.put_u64_slice(&offsets);
            enc.put_u32_slice(&flat);
        }
    }

    /// Decodes and validates a proximity graph.
    pub fn store_decode(dec: &mut Dec<'_>) -> Result<ProximityGraph, StoreError> {
        let n = dec.get_u64()? as usize;
        let entry = dec.get_u32()?;
        let num_layers = dec.get_u32()? as usize;
        let levels = dec.get_u8_slice()?;
        if levels.len() != n {
            return Err(StoreError::corrupt(format!(
                "pg levels: {} entries for {n} nodes",
                levels.len()
            )));
        }
        if num_layers == 0 {
            return Err(StoreError::corrupt("pg has no layers"));
        }
        if n > 0 && entry as usize >= n {
            return Err(StoreError::corrupt(format!(
                "pg entry {entry} out of range"
            )));
        }
        // The count comes from the file: bound the reservation, not the loop.
        let mut layers: Vec<Vec<Vec<u32>>> = Vec::with_capacity(num_layers.min(1 << 20));
        for l in 0..num_layers {
            let offsets = dec.get_u64_slice()?;
            let flat = dec.get_u32_slice()?;
            if offsets.len() != n + 1 || offsets.first().copied().unwrap_or(0) != 0 {
                return Err(StoreError::corrupt(format!(
                    "pg layer {l} offsets malformed"
                )));
            }
            if offsets.last().copied().unwrap_or(0) as usize != flat.len() {
                return Err(StoreError::corrupt(format!(
                    "pg layer {l} offsets disagree with adjacency"
                )));
            }
            if flat.iter().any(|&w| w as usize >= n) {
                return Err(StoreError::corrupt(format!(
                    "pg layer {l} has an out-of-range neighbor id"
                )));
            }
            let mut layer: Vec<Vec<u32>> = Vec::with_capacity(n);
            for v in 0..n {
                let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
                if hi < lo {
                    return Err(StoreError::corrupt(format!(
                        "pg layer {l} offsets not monotone"
                    )));
                }
                layer.push(flat[lo..hi].to_vec());
            }
            layers.push(layer);
        }
        Ok(ProximityGraph {
            layers,
            levels: levels.to_vec(),
            entry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PgConfig;
    use crate::metric::PairCache;
    use lan_store::{Archive, Writer};

    fn round_trip(pg: &ProximityGraph) -> ProximityGraph {
        let mut enc = Enc::new();
        pg.store_encode(&mut enc);
        let mut w = Writer::new();
        w.add_section("pg", enc);
        let bytes = w.to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        let mut d = a.section("pg").unwrap();
        let out = ProximityGraph::store_decode(&mut d).unwrap();
        d.expect_end().unwrap();
        out
    }

    #[test]
    fn round_trips_a_built_hnsw() {
        // A deterministic metric over 40 points on a line.
        let dist = |a: u32, b: u32| (a as f64 - b as f64).abs();
        let pairs = PairCache::new_uncounted(&dist);
        let pg = ProximityGraph::build(40, &pairs, &PgConfig::new(4));
        let back = round_trip(&pg);
        assert_eq!(back.layers, pg.layers);
        assert_eq!(back.levels, pg.levels);
        assert_eq!(back.entry, pg.entry);
    }

    /// A layer count read from the file is never trusted as an allocation
    /// size: `u32::MAX` layers of an empty graph would abort the process.
    #[test]
    fn hostile_layer_count_is_typed() {
        let mut enc = Enc::new();
        enc.put_u64(0);
        enc.put_u32(0);
        enc.put_u32(u32::MAX);
        enc.put_u8_slice(&[]);
        let mut w = Writer::new();
        w.add_section("pg", enc);
        let bytes = w.to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        let mut d = a.section("pg").unwrap();
        assert!(matches!(
            ProximityGraph::store_decode(&mut d),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_neighbor_id_is_typed() {
        let dist = |a: u32, b: u32| (a as f64 - b as f64).abs();
        let pairs = PairCache::new_uncounted(&dist);
        let mut pg = ProximityGraph::build(8, &pairs, &PgConfig::new(3));
        pg.layers[0][0] = vec![99]; // out of range
        let mut enc = Enc::new();
        pg.store_encode(&mut enc);
        let mut w = Writer::new();
        w.add_section("pg", enc);
        let bytes = w.to_bytes();
        let a = Archive::from_bytes(&bytes).unwrap();
        let mut d = a.section("pg").unwrap();
        assert!(matches!(
            ProximityGraph::store_decode(&mut d),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
