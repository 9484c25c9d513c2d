//! On-disk codec for [`Dataset`]: spec, database graphs, queries, split.
//!
//! The whole generated dataset is persisted rather than regenerated at
//! load: generation runs the expensive perturbation + GED machinery, and
//! the loaded index must serve queries against *exactly* the graphs the
//! models were trained on — regeneration under a drifted generator would
//! silently break the bit-identity contract.

use crate::dataset::{Dataset, WorkloadSplit};
use crate::spec::{DatasetSpec, Family};
use lan_ged::GedMethod;
use lan_graph::Graph;
use lan_store::{Dec, Enc, StoreError};

fn encode_family(f: Family) -> u8 {
    match f {
        Family::Molecule => 0,
        Family::ControlFlow => 1,
        Family::PowerLaw => 2,
    }
}

fn decode_family(tag: u8) -> Result<Family, StoreError> {
    match tag {
        0 => Ok(Family::Molecule),
        1 => Ok(Family::ControlFlow),
        2 => Ok(Family::PowerLaw),
        t => Err(StoreError::corrupt(format!(
            "unknown dataset family tag {t}"
        ))),
    }
}

fn encode_metric(m: &GedMethod, enc: &mut Enc) {
    // Tag byte + one u64 payload (unused variants write 0) keeps the
    // layout fixed-width and future variants append-only.
    let (tag, payload): (u8, u64) = match m {
        GedMethod::Exact { timeout_ms } => (0, *timeout_ms),
        GedMethod::Hungarian => (1, 0),
        GedMethod::Vj => (2, 0),
        GedMethod::Beam { width } => (3, *width as u64),
        GedMethod::BestOfThree { beam_width } => (4, *beam_width as u64),
    };
    enc.put_u8(tag);
    enc.put_u64(payload);
}

fn decode_metric(dec: &mut Dec<'_>) -> Result<GedMethod, StoreError> {
    let tag = dec.get_u8()?;
    let payload = dec.get_u64()?;
    match tag {
        0 => Ok(GedMethod::Exact {
            timeout_ms: payload,
        }),
        1 => Ok(GedMethod::Hungarian),
        2 => Ok(GedMethod::Vj),
        3 => Ok(GedMethod::Beam {
            width: payload as usize,
        }),
        4 => Ok(GedMethod::BestOfThree {
            beam_width: payload as usize,
        }),
        t => Err(StoreError::corrupt(format!("unknown GED method tag {t}"))),
    }
}

/// Resolves a decoded dataset name back to `&'static str`. Preset names
/// map to the canonical literals; anything else leaks — dataset names are
/// few and load-once, so the leak is bounded and intentional (the spec
/// field is `&'static str` throughout the workspace).
fn intern_name(name: &str) -> &'static str {
    match name {
        "AIDS" => "AIDS",
        "LINUX" => "LINUX",
        "PUBCHEM" => "PUBCHEM",
        "SYN" => "SYN",
        other => Box::leak(other.to_string().into_boxed_str()),
    }
}

impl DatasetSpec {
    /// Serializes every spec field.
    pub fn store_encode(&self, enc: &mut Enc) {
        enc.put_str(self.name);
        enc.put_u8(encode_family(self.family));
        enc.put_u64(self.num_graphs as u64);
        enc.put_u16(self.num_labels);
        enc.put_u64(self.avg_nodes as u64);
        enc.put_f64(self.density);
        enc.put_u64(self.family_size as u64);
        enc.put_u64(self.num_queries as u64);
        encode_metric(&self.metric, enc);
        encode_metric(&self.truth, enc);
        enc.put_u64(self.seed);
    }

    /// Decodes a spec written by [`DatasetSpec::store_encode`].
    pub fn store_decode(dec: &mut Dec<'_>) -> Result<DatasetSpec, StoreError> {
        let name = intern_name(dec.get_str()?);
        let family = decode_family(dec.get_u8()?)?;
        let num_graphs = dec.get_u64()? as usize;
        let num_labels = dec.get_u16()?;
        let avg_nodes = dec.get_u64()? as usize;
        let density = dec.get_f64()?;
        let family_size = dec.get_u64()? as usize;
        let num_queries = dec.get_u64()? as usize;
        let metric = decode_metric(dec)?;
        let truth = decode_metric(dec)?;
        let seed = dec.get_u64()?;
        Ok(DatasetSpec {
            name,
            family,
            num_graphs,
            num_labels,
            avg_nodes,
            density,
            family_size,
            num_queries,
            metric,
            truth,
            seed,
        })
    }
}

fn encode_graphs(graphs: &[Graph], enc: &mut Enc) {
    enc.put_u64(graphs.len() as u64);
    for g in graphs {
        g.store_encode(enc);
    }
}

fn decode_graphs(dec: &mut Dec<'_>) -> Result<Vec<Graph>, StoreError> {
    let n = dec.get_u64()? as usize;
    // A corrupt count cannot allocate unboundedly: decoding fails as soon
    // as the stream runs dry, and with_capacity is clamped to something a
    // hostile count cannot abuse.
    let mut graphs = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        graphs.push(Graph::store_decode(dec)?);
    }
    Ok(graphs)
}

fn encode_ids(ids: &[usize], enc: &mut Enc) {
    let as_u64: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
    enc.put_u64_slice(&as_u64);
}

fn decode_ids(dec: &mut Dec<'_>, bound: usize, what: &str) -> Result<Vec<usize>, StoreError> {
    let raw = dec.get_u64_slice()?;
    let ids: Vec<usize> = raw.iter().map(|&i| i as usize).collect();
    if ids.iter().any(|&i| i >= bound) {
        return Err(StoreError::corrupt(format!(
            "{what} split references a query id >= {bound}"
        )));
    }
    Ok(ids)
}

impl Dataset {
    /// Serializes the full dataset: spec, database, queries, split.
    pub fn store_encode(&self, enc: &mut Enc) {
        self.spec.store_encode(enc);
        encode_graphs(&self.graphs, enc);
        encode_graphs(&self.queries, enc);
        encode_ids(&self.split.train, enc);
        encode_ids(&self.split.val, enc);
        encode_ids(&self.split.test, enc);
    }

    /// Decodes and validates a dataset written by
    /// [`Dataset::store_encode`].
    pub fn store_decode(dec: &mut Dec<'_>) -> Result<Dataset, StoreError> {
        let spec = DatasetSpec::store_decode(dec)?;
        let graphs = decode_graphs(dec)?;
        let queries = decode_graphs(dec)?;
        let nq = queries.len();
        let split = WorkloadSplit {
            train: decode_ids(dec, nq, "train")?,
            val: decode_ids(dec, nq, "val")?,
            test: decode_ids(dec, nq, "test")?,
        };
        Ok(Dataset {
            spec,
            graphs,
            queries,
            split,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_store::{Archive, Writer};

    fn round_trip_bytes(enc: Enc) -> Archive {
        let mut w = Writer::new();
        w.add_section("ds", enc);
        Archive::from_bytes(&w.to_bytes()).unwrap()
    }

    #[test]
    fn dataset_round_trips_bit_identically() {
        // SYN has one metric; AIDS routes on another than its ground truth,
        // and each must come back in its own field.
        for spec in [DatasetSpec::syn(), DatasetSpec::aids()] {
            let d = Dataset::generate(spec.with_graphs(40).with_queries(10));
            let mut enc = Enc::new();
            d.store_encode(&mut enc);
            let a = round_trip_bytes(enc);
            let mut dec = a.section("ds").unwrap();
            let back = Dataset::store_decode(&mut dec).unwrap();
            dec.expect_end().unwrap();
            assert_eq!(back.graphs, d.graphs);
            assert_eq!(back.queries, d.queries);
            assert_eq!(back.split.train, d.split.train);
            assert_eq!(back.split.val, d.split.val);
            assert_eq!(back.split.test, d.split.test);
            assert_eq!(back.spec.name, d.spec.name);
            assert_eq!(back.spec.num_labels, d.spec.num_labels);
            assert_eq!(back.spec.seed, d.spec.seed);
            assert_eq!(back.spec.metric, d.spec.metric);
            assert_eq!(back.spec.truth, d.spec.truth);
            // Signatures survive (the decode path rebuilds them from parts).
            for (g, h) in back.graphs.iter().zip(&d.graphs) {
                assert!(g.signature() == h.signature());
            }
        }
        assert_ne!(DatasetSpec::aids().metric, DatasetSpec::aids().truth);
    }

    #[test]
    fn every_metric_variant_round_trips() {
        for m in [
            GedMethod::Exact { timeout_ms: 250 },
            GedMethod::Hungarian,
            GedMethod::Vj,
            GedMethod::Beam { width: 7 },
            GedMethod::BestOfThree { beam_width: 16 },
        ] {
            let mut enc = Enc::new();
            encode_metric(&m, &mut enc);
            let a = round_trip_bytes(enc);
            let mut dec = a.section("ds").unwrap();
            assert_eq!(decode_metric(&mut dec).unwrap(), m);
        }
    }

    #[test]
    fn bad_family_and_split_are_typed() {
        // Unknown family tag.
        let mut enc = Enc::new();
        enc.put_str("X");
        enc.put_u8(9);
        let a = round_trip_bytes(enc);
        let mut dec = a.section("ds").unwrap();
        assert!(matches!(
            DatasetSpec::store_decode(&mut dec),
            Err(StoreError::Corrupt { .. })
        ));

        // Split id beyond the query count.
        let d = Dataset::generate(DatasetSpec::syn().with_graphs(12).with_queries(4));
        let mut bad = d.clone();
        bad.split.test = vec![99];
        let mut enc = Enc::new();
        bad.store_encode(&mut enc);
        let a = round_trip_bytes(enc);
        let mut dec = a.section("ds").unwrap();
        assert!(matches!(
            Dataset::store_decode(&mut dec),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
