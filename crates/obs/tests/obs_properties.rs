//! Property tests for the metrics layer: histogram bucketing edge cases,
//! span nesting, concurrent recording from `lan-par` worker threads, and
//! exporter well-formedness.
//!
//! These tests assert on *local* `Histogram` values or on snapshot diffs
//! of test-unique metric names, so they are safe to run on the shared
//! global registry. Recording is globally gated, so every recording test
//! forces the registry on — the same value for every thread of this
//! binary, hence no cross-test interference.

use lan_obs::metrics::{bucket_index, bucket_upper_bound, HISTOGRAM_BUCKETS};
use lan_obs::{span, Histogram};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in exactly one bucket whose range contains it.
    #[test]
    fn bucket_contains_value(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        prop_assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            // The previous bucket's upper bound is below the value.
            prop_assert!(bucket_upper_bound(i - 1) < v);
        }
    }

    /// Bucket index is monotone in the value.
    #[test]
    fn bucket_index_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
    }

    /// count == sum of bucket counts, sum == sum of recorded values.
    #[test]
    fn histogram_conserves_counts(values in prop::collection::vec(0u64..1_000_000, 1..64)) {
        lan_obs::set_enabled(true);
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().sum::<u64>());
        let bucket_total: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(bucket_total, values.len() as u64);
    }
}

#[test]
fn bucket_edges() {
    // 0 is its own bucket; u64::MAX lands in the last bucket.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    lan_obs::set_enabled(true);
    let h = Histogram::default();
    h.record(0);
    h.record(u64::MAX);
    let s = h.snapshot();
    assert_eq!(s.count, 2);
    // Saturating sum: 0 + u64::MAX.
    assert_eq!(s.sum, u64::MAX);
}

#[test]
fn concurrent_records_from_par_workers_all_land() {
    // `lan-par` worker threads hammer one histogram; no record is lost.
    lan_obs::set_enabled(true);
    let h = Histogram::default();
    let items: Vec<u64> = (0..1000).collect();
    lan_par::par_map_dyn(&items, lan_par::Grain::Auto, |&v| h.record(v));
    let s = h.snapshot();
    assert_eq!(s.count, 1000);
    assert_eq!(s.sum, items.iter().sum::<u64>());
}

#[test]
fn span_nesting_records_self_time() {
    // Unique span names so parallel tests in this binary can't interfere.
    lan_obs::set_enabled(true);
    let before = lan_obs::snapshot();
    {
        let _outer = span("proptest.outer");
        std::thread::sleep(std::time::Duration::from_millis(4));
        {
            let _inner = span("proptest.inner");
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
    }
    let d = lan_obs::snapshot().diff(&before);
    let outer = d.histogram("span.proptest.outer.ns");
    let outer_self = d.histogram("span.proptest.outer.self_ns");
    let inner = d.histogram("span.proptest.inner.ns");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 1);
    // Parent total >= child total; parent self-time excludes the child.
    assert!(outer.sum >= inner.sum);
    assert!(outer_self.sum <= outer.sum - inner.sum);
}

#[test]
fn exporters_emit_wellformed_output() {
    lan_obs::set_enabled(true);
    lan_obs::counter("proptest.export.count").add(3);
    lan_obs::histogram("proptest.export.hist").record(17);
    let s = lan_obs::snapshot();
    let prom = s.to_prometheus();
    let json = s.to_json();
    assert!(prom.contains("proptest_export_count"));
    assert!(json.contains("\"proptest.export.count\""));
    // Braces balance in the JSON document.
    let open = json.matches('{').count();
    let close = json.matches('}').count();
    assert_eq!(open, close);
}
