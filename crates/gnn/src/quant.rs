//! Quantized GIN-embedding codes: the data layer of the quantized
//! prefilter tier above the GED kernel cascade.
//!
//! The GIN embedder is trained as a squared-L2 distance regressor, so
//! distances in embedding space are a learned GED surrogate (GREED's
//! observation). This module compresses the per-graph embeddings into two
//! packed code books, built once at index time:
//!
//! * **binary sign codes** — one bit per dimension (`x > mean_d`), packed
//!   into `u64` words; compared with the popcnt Hamming kernel. 64
//!   dimensions per word, the cheapest possible probe.
//! * **scalar codes** — one `u8` per dimension, linearly quantized over
//!   the per-dimension `[min, max]` range of the database; the squared-L2
//!   surrogate is assembled from precomputed code norms and the AVX2 `u8`
//!   dot kernel (`‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b`, exact in integers).
//!
//! Raw code distances are *uncalibrated* surrogates; `lan-models` fits the
//! linear map to operational GED on the training workload. Everything here
//! is deterministic and integer-exact, so a surrogate score never depends
//! on which kernel path the host dispatches to.

use lan_obs::{names, Counter};
use lan_tensor::simd::{dot_u8, hamming, kernel_path, KernelPath};

/// Which quantization mode a consumer asked for (`LAN_QUANT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Prefilter tier disabled (the default): nothing changes anywhere.
    Off,
    /// Packed sign codes + Hamming.
    Binary,
    /// `u8` scalar codes + integer squared-L2.
    Scalar,
}

impl QuantMode {
    /// Parses a mode name (`off` / `binary` / `scalar`).
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s {
            "off" | "0" | "" => Some(QuantMode::Off),
            "binary" => Some(QuantMode::Binary),
            "scalar" => Some(QuantMode::Scalar),
            _ => None,
        }
    }
}

/// A query's encoded form under both quantization modes.
#[derive(Debug, Clone)]
pub struct QuantQuery {
    bits: Vec<u64>,
    codes: Vec<u8>,
    norm: u64,
}

/// Packed quantized codes for every database graph. Built once at index
/// time from the GIN embeddings; immutable afterwards, so concurrent
/// queries share it freely.
pub struct QuantStore {
    dim: usize,
    /// `u64` words per binary code: `ceil(dim / 64)`.
    words: usize,
    n: usize,
    /// Per-dimension database mean — the binary sign threshold.
    means: Vec<f32>,
    /// Per-dimension scalar-quantization range start and step.
    lo: Vec<f32>,
    step: Vec<f32>,
    /// `n × words` packed sign codes, row-major.
    bits: Vec<u64>,
    /// `n × dim` scalar codes, row-major.
    codes: Vec<u8>,
    /// Per-row squared norm of the scalar code.
    norms: Vec<u64>,
    // Pre-resolved kernel-path counters (one increment per surrogate
    // evaluation; resolving them here also guarantees every `quant.*`
    // counter is registered — hence exported with a zero value — in any
    // run that builds an index, which keeps the exported schema stable —
    // `lan-core`'s `obs_export` test checks it).
    m_simd: &'static Counter,
    m_scalar: &'static Counter,
}

impl QuantStore {
    /// Builds both code books from the database embeddings. Returns `None`
    /// for an empty database or zero-dimensional embeddings (nothing to
    /// quantize — consumers then behave as if the tier were off).
    pub fn build(embeds: &[Vec<f32>]) -> Option<QuantStore> {
        // Register the whole quant counter family at build time (see the
        // field comment): consumers increment these lazily and sparsely.
        let m_simd = lan_obs::counter(names::QUANT_KERNEL_SIMD);
        let m_scalar = lan_obs::counter(names::QUANT_KERNEL_SCALAR);
        lan_obs::counter(names::QUANT_PREFILTER_EVALS);
        lan_obs::counter(names::QUANT_PREFILTER_PRUNED);
        lan_obs::counter(names::QUANT_REORDER_USED);

        let n = embeds.len();
        let dim = embeds.first().map(|e| e.len()).unwrap_or(0);
        if n == 0 || dim == 0 {
            return None;
        }
        assert!(
            embeds.iter().all(|e| e.len() == dim),
            "ragged embedding matrix"
        );

        let mut means = vec![0.0f32; dim];
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for e in embeds {
            for (d, &x) in e.iter().enumerate() {
                means[d] += x;
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        for m in &mut means {
            *m /= n as f32;
        }
        // A degenerate (constant or non-finite) dimension quantizes every
        // value to code 0 via a huge step; it carries no signal either way.
        let step: Vec<f32> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| {
                let range = h - l;
                if range.is_finite() && range > 0.0 {
                    range / 255.0
                } else {
                    f32::MAX
                }
            })
            .collect();

        let words = dim.div_ceil(64);
        let mut store = QuantStore {
            dim,
            words,
            n,
            means,
            lo,
            step,
            bits: vec![0u64; n * words],
            codes: vec![0u8; n * dim],
            norms: vec![0u64; n],
            m_simd,
            m_scalar,
        };
        let mut q = QuantQuery {
            bits: vec![0u64; words],
            codes: vec![0u8; dim],
            norm: 0,
        };
        for (i, e) in embeds.iter().enumerate() {
            store.encode_into(e, &mut q);
            store.bits[i * words..(i + 1) * words].copy_from_slice(&q.bits);
            store.codes[i * dim..(i + 1) * dim].copy_from_slice(&q.codes);
            store.norms[i] = q.norm;
        }
        Some(store)
    }

    /// Number of encoded database graphs.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the store holds no codes (never constructed — kept for
    /// the standard `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Embedding dimensionality the codes were built from.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encodes a query embedding under both modes.
    pub fn encode(&self, embed: &[f32]) -> QuantQuery {
        let mut q = QuantQuery {
            bits: vec![0u64; self.words],
            codes: vec![0u8; self.dim],
            norm: 0,
        };
        self.encode_into(embed, &mut q);
        q
    }

    fn encode_into(&self, embed: &[f32], out: &mut QuantQuery) {
        assert_eq!(embed.len(), self.dim, "embedding dim mismatch");
        out.bits.iter_mut().for_each(|w| *w = 0);
        let mut norm = 0u64;
        for (d, &x) in embed.iter().enumerate() {
            if x > self.means[d] {
                out.bits[d / 64] |= 1u64 << (d % 64);
            }
            // NaN-safe: a non-finite coordinate clamps to code 0.
            let c = ((x - self.lo[d]) / self.step[d]).round();
            let c = if c.is_finite() {
                c.clamp(0.0, 255.0) as u8
            } else {
                0
            };
            out.codes[d] = c;
            norm += c as u64 * c as u64;
        }
        out.norm = norm;
    }

    fn count_kernel(&self) {
        match kernel_path() {
            KernelPath::Simd => self.m_simd.inc(),
            KernelPath::Scalar => self.m_scalar.inc(),
        }
    }

    /// Hamming distance between the query's sign code and graph `id`'s.
    pub fn hamming(&self, q: &QuantQuery, id: u32) -> u32 {
        let i = id as usize;
        self.count_kernel();
        hamming(&q.bits, &self.bits[i * self.words..(i + 1) * self.words])
    }

    /// Integer squared-L2 between the query's scalar code and graph
    /// `id`'s, via the dot kernel and precomputed norms.
    pub fn l2sq(&self, q: &QuantQuery, id: u32) -> u64 {
        let i = id as usize;
        self.count_kernel();
        let dot = dot_u8(&q.codes, &self.codes[i * self.dim..(i + 1) * self.dim]);
        // `‖a‖² + ‖b‖² − 2ab ≥ 0` exactly; computed in i128 to sidestep
        // any intermediate wrap before the provably-nonnegative result.
        (q.norm as i128 + self.norms[i] as i128 - 2 * dot as i128).max(0) as u64
    }

    /// Serializes both packed code books (binary signs + scalar codes)
    /// with their quantization parameters.
    pub fn store_encode(&self, enc: &mut lan_store::Enc) {
        enc.put_u64(self.dim as u64);
        enc.put_u64(self.n as u64);
        enc.put_f32_slice(&self.means);
        enc.put_f32_slice(&self.lo);
        enc.put_f32_slice(&self.step);
        enc.put_u64_slice(&self.bits);
        enc.put_u8_slice(&self.codes);
        enc.put_u64_slice(&self.norms);
    }

    /// Decodes a code store, validating every slab length against the
    /// recorded `n × dim` geometry. Counter handles are re-resolved, as in
    /// [`QuantStore::build`].
    pub fn store_decode(dec: &mut lan_store::Dec<'_>) -> Result<QuantStore, lan_store::StoreError> {
        use lan_store::StoreError;
        let dim = dec.get_u64()? as usize;
        let n = dec.get_u64()? as usize;
        if dim == 0 || n == 0 {
            return Err(StoreError::corrupt("quant store with zero rows or dims"));
        }
        let words = dim.div_ceil(64);
        let means = dec.get_f32_slice()?;
        let lo = dec.get_f32_slice()?;
        let step = dec.get_f32_slice()?;
        let bits = dec.get_u64_slice()?;
        let codes = dec.get_u8_slice()?;
        let norms = dec.get_u64_slice()?;
        if means.len() != dim || lo.len() != dim || step.len() != dim {
            return Err(StoreError::corrupt(
                "quant per-dimension arrays mismatch dim",
            ));
        }
        if bits.len() != n * words || codes.len() != n * dim || norms.len() != n {
            return Err(StoreError::corrupt(format!(
                "quant code slabs inconsistent with n={n}, dim={dim}"
            )));
        }
        Ok(QuantStore {
            dim,
            words,
            n,
            means: means.to_vec(),
            lo: lo.to_vec(),
            step: step.to_vec(),
            bits: bits.to_vec(),
            codes: codes.to_vec(),
            norms: norms.to_vec(),
            m_simd: lan_obs::counter(names::QUANT_KERNEL_SIMD),
            m_scalar: lan_obs::counter(names::QUANT_KERNEL_SCALAR),
        })
    }

    /// The raw (uncalibrated) surrogate distance under `mode`. `Off` is
    /// rejected — callers gate on the mode before scoring.
    pub fn raw_score(&self, mode: QuantMode, q: &QuantQuery, id: u32) -> f64 {
        match mode {
            QuantMode::Binary => self.hamming(q, id) as f64,
            QuantMode::Scalar => self.l2sq(q, id) as f64,
            QuantMode::Off => panic!("raw_score with QuantMode::Off"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_embeds(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect()
    }

    #[test]
    fn store_round_trip_preserves_surrogates() {
        // dim > 64 exercises multi-word binary codes.
        let mut rng = StdRng::seed_from_u64(3);
        let embeds = random_embeds(&mut rng, 12, 70);
        let s = QuantStore::build(&embeds).unwrap();
        let mut enc = lan_store::Enc::new();
        s.store_encode(&mut enc);
        let mut w = lan_store::Writer::new();
        w.add_section("q", enc);
        let a = lan_store::Archive::from_bytes(&w.to_bytes()).unwrap();
        let mut d = a.section("q").unwrap();
        let back = QuantStore::store_decode(&mut d).unwrap();
        d.expect_end().unwrap();
        assert_eq!((back.len(), back.dim()), (s.len(), s.dim()));
        let probe = random_embeds(&mut rng, 1, 70).pop().unwrap();
        let (q1, q2) = (s.encode(&probe), back.encode(&probe));
        for id in 0..embeds.len() as u32 {
            assert_eq!(s.hamming(&q1, id), back.hamming(&q2, id));
            assert_eq!(s.l2sq(&q1, id), back.l2sq(&q2, id));
        }
    }

    #[test]
    fn store_decode_rejects_inconsistent_slabs() {
        let mut rng = StdRng::seed_from_u64(4);
        let embeds = random_embeds(&mut rng, 4, 8);
        let s = QuantStore::build(&embeds).unwrap();
        let mut enc = lan_store::Enc::new();
        // Lie about n so every slab length disagrees.
        enc.put_u64(s.dim as u64);
        enc.put_u64(99);
        enc.put_f32_slice(&s.means);
        enc.put_f32_slice(&s.lo);
        enc.put_f32_slice(&s.step);
        enc.put_u64_slice(&s.bits);
        enc.put_u8_slice(&s.codes);
        enc.put_u64_slice(&s.norms);
        let mut w = lan_store::Writer::new();
        w.add_section("q", enc);
        let a = lan_store::Archive::from_bytes(&w.to_bytes()).unwrap();
        let mut d = a.section("q").unwrap();
        assert!(matches!(
            QuantStore::store_decode(&mut d),
            Err(lan_store::StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(QuantStore::build(&[]).is_none());
        assert!(QuantStore::build(&[vec![], vec![]]).is_none());
        // Constant dimensions quantize without panicking.
        let s = QuantStore::build(&[vec![1.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let q = s.encode(&[1.0, 0.5]);
        assert!(s.l2sq(&q, 0) <= s.l2sq(&q, 1) || s.l2sq(&q, 1) <= s.l2sq(&q, 0));
    }

    #[test]
    fn self_distance_is_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        let embeds = random_embeds(&mut rng, 20, 37);
        let s = QuantStore::build(&embeds).unwrap();
        for (i, e) in embeds.iter().enumerate() {
            let q = s.encode(e);
            assert_eq!(s.l2sq(&q, i as u32), 0, "graph {i}");
            assert_eq!(s.hamming(&q, i as u32), 0, "graph {i}");
        }
    }

    #[test]
    fn l2sq_matches_naive_code_distance() {
        let mut rng = StdRng::seed_from_u64(12);
        let embeds = random_embeds(&mut rng, 16, 50);
        let s = QuantStore::build(&embeds).unwrap();
        let probe = random_embeds(&mut rng, 1, 50).pop().unwrap();
        let q = s.encode(&probe);
        for i in 0..embeds.len() {
            let row = &s.codes[i * s.dim..(i + 1) * s.dim];
            let naive: u64 = q
                .codes
                .iter()
                .zip(row)
                .map(|(&a, &b)| {
                    let d = a as i64 - b as i64;
                    (d * d) as u64
                })
                .sum();
            assert_eq!(s.l2sq(&q, i as u32), naive, "graph {i}");
        }
    }

    #[test]
    fn surrogate_orders_near_before_far() {
        // Codes of a tight cluster around the query must score below a
        // far-away cluster under both modes — the property the prefilter
        // tier actually relies on.
        let mut rng = StdRng::seed_from_u64(13);
        let dim = 32;
        let near: Vec<Vec<f32>> = (0..10)
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.1f32..0.1)).collect())
            .collect();
        let far: Vec<Vec<f32>> = (0..10)
            .map(|_| (0..dim).map(|_| rng.gen_range(1.5f32..2.0)).collect())
            .collect();
        let mut embeds = near.clone();
        embeds.extend(far.clone());
        let s = QuantStore::build(&embeds).unwrap();
        let q = s.encode(&vec![0.0f32; dim]);
        for i in 0..10u32 {
            for j in 10..20u32 {
                assert!(s.l2sq(&q, i) < s.l2sq(&q, j), "scalar: near {i} vs far {j}");
                assert!(
                    s.hamming(&q, i) <= s.hamming(&q, j),
                    "binary: near {i} vs far {j}"
                );
            }
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(QuantMode::parse("off"), Some(QuantMode::Off));
        assert_eq!(QuantMode::parse(""), Some(QuantMode::Off));
        assert_eq!(QuantMode::parse("binary"), Some(QuantMode::Binary));
        assert_eq!(QuantMode::parse("scalar"), Some(QuantMode::Scalar));
        assert_eq!(QuantMode::parse("bogus"), None);
    }
}
