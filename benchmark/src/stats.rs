//! Order statistics and the result digest shared by every workload.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The tail percentile a sample of `n` supports: the highest of
/// 99.9 / 99 / 95 / 90 that leaves at least ten samples beyond it, or
/// `None` when even p90 does not (fewer than 100 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    // Per mille, so that "ten beyond" is exact integer arithmetic.
    [999, 990, 950, 900]
        .into_iter()
        .find(|&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 1000.0)
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the acceptance procedure is stated in those terms.
/// `None` below two samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median; 0 below two samples.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1).abs() / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

/// FNV-1a accumulator over `u64` words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one answer: distance bits, ids, order and NDC all feed it, so
/// any divergence between two paths that must agree (served vs offline,
/// opened vs built, traced vs untraced, pass vs pass) shows.
pub fn eat_answer(h: &mut Fnv, results: &[(f64, u32)], ndc: u64) {
    h.eat(results.len() as u64);
    for &(d, id) in results {
        h.eat(d.to_bits());
        h.eat(id as u64);
    }
    h.eat(ndc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&s, 0.5), 100);
        assert_eq!(percentile(&s, 0.95), 190);
        assert_eq!(percentile(&s, 1.0), 200);
        assert_eq!(percentile(&[7], 0.95), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
