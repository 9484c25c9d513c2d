//! The global lock-striped metrics registry: counters, gauges, and
//! log2-bucketed histograms, with `snapshot()`/`diff()` for delta
//! assertions in tests and benches.
//!
//! Names resolve to `&'static` handles through a stripe-locked intern map;
//! the handles themselves are plain atomics, so recording never takes a
//! lock. Metrics registered while disabled still appear in snapshots (with
//! zero values), which keeps exported schemas stable across runs.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Global enable switch.
// ---------------------------------------------------------------------------

/// 0 = uninitialized (read `LAN_METRICS` lazily), 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether metric recording is on. One relaxed load on the hot path; the
/// first call reads the `LAN_METRICS` environment variable (`0`, `off`,
/// or `false` disable; anything else, including unset, enables).
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = !matches!(
        std::env::var("LAN_METRICS").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    );
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Programmatic override of the `LAN_METRICS` switch (used by tests and
/// the enabled-vs-disabled equivalence property; avoids racy env mutation).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Metric primitives.
// ---------------------------------------------------------------------------

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `v` (no-op while disabled).
    #[inline]
    pub fn add(&self, v: u64) {
        if enabled() {
            self.0.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (pool sizes, worker counts, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge (no-op while disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Adds a (possibly negative) delta (no-op while disabled).
    #[inline]
    pub fn add(&self, v: i64) {
        if enabled() {
            self.0.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values whose bit length
/// is `i` (bucket 0 holds only 0), so bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i - 1]` and bucket 64 ends at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index of a value: its bit length (0 for 0, 64 for `u64::MAX`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper bound (inclusive) of bucket `i`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Lower bound (inclusive) of bucket `i`.
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Log2-bucketed histogram. `sum` wraps on overflow (only reachable by
/// recording near-`u64::MAX` values; `count` stays exact either way).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation (no-op while disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// Sparse copy of a [`Histogram`]: `(bucket index, count)` pairs for the
/// non-empty buckets, plus totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// This snapshot minus an earlier one (per-bucket saturating).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let old: HashMap<u32, u64> = earlier.buckets.iter().copied().collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .filter_map(|&(i, n)| {
                    let d = n.saturating_sub(old.get(&i).copied().unwrap_or(0));
                    (d > 0).then_some((i, d))
                })
                .collect(),
        }
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) assuming observations are
    /// uniform within each log2 bucket (linear interpolation between the
    /// bucket bounds). Exact to within one bucket width; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for &(i, n) in &self.buckets {
            let before = cumulative as f64;
            cumulative += n;
            if cumulative as f64 >= target {
                let lo = bucket_lower_bound(i as usize) as f64;
                let hi = bucket_upper_bound(i as usize) as f64;
                let frac = ((target - before) / n as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
        }
        // Unreachable when bucket counts sum to `count`; fall back to the
        // highest recorded bound for defensively-constructed snapshots.
        self.buckets
            .last()
            .map(|&(i, _)| bucket_upper_bound(i as usize) as f64)
            .unwrap_or(0.0)
    }

    /// Median estimate (see [`Self::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Self::quantile`]).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Self::quantile`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Atomic nanosecond accumulator for per-query component timings (the
/// replacement for the hand-rolled `AtomicU64` + `Instant` plumbing in
/// `query.rs` / `l2route.rs`).
///
/// Unlike [`Counter`] this is **not** gated on [`enabled`]: it feeds
/// `QueryOutcome` fields that must stay bit-identical whether or not the
/// metrics registry is on.
#[derive(Debug, Default)]
pub struct TimerCell(AtomicU64);

impl TimerCell {
    pub fn new() -> Self {
        TimerCell::default()
    }

    /// Runs `f`, adding its wall-clock to the cell.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(t0.elapsed());
        r
    }

    /// Adds a duration directly.
    #[inline]
    pub fn add(&self, d: Duration) {
        self.0.fetch_add(
            d.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Total accumulated time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// Number of independent intern-map stripes; name lookups hash to one, so
/// concurrent handle resolution from `lan-par` workers rarely contends.
const REGISTRY_STRIPES: usize = 16;

struct Registry {
    stripes: Vec<Mutex<HashMap<String, Metric>>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        stripes: (0..REGISTRY_STRIPES)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
    })
}

fn stripe_of(name: &str) -> usize {
    // FNV-1a; stable across platforms.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h as usize) % REGISTRY_STRIPES
}

macro_rules! resolve {
    ($fn_name:ident, $ty:ty, $variant:ident, $what:literal) => {
        /// Resolves (registering on first use) the named metric. The
        /// returned handle is `'static` and lock-free to record on —
        /// resolve once per scope, not per event, on hot paths.
        ///
        /// Panics if the name is already registered as a different kind.
        pub fn $fn_name(name: &str) -> &'static $ty {
            let reg = registry();
            let mut map = reg.stripes[stripe_of(name)]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            match map
                .entry(name.to_string())
                .or_insert_with(|| Metric::$variant(Box::leak(Box::default())))
            {
                Metric::$variant(m) => m,
                _ => panic!(concat!("metric {:?} is not a ", $what), name),
            }
        }
    };
}

resolve!(counter, Counter, Counter, "counter");
resolve!(gauge, Gauge, Gauge, "gauge");
resolve!(histogram, Histogram, Histogram, "histogram");

/// A counter handle for a `static`: the name resolves through the registry
/// on first use and the handle is kept for the life of the process, so a
/// per-event call site (one with no longer-lived scope to hold the handle
/// in) pays one atomic load instead of a hash, a stripe lock and a map
/// probe per event.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    handle: OnceLock<&'static Counter>,
}

impl LazyCounter {
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            handle: OnceLock::new(),
        }
    }

    /// The registered counter (registering it on the first call).
    #[inline]
    pub fn get(&self) -> &'static Counter {
        self.handle.get_or_init(|| counter(self.name))
    }
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// Point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Snapshots the whole registry (works whether or not metrics are
/// enabled; disabled metrics read as zero).
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for stripe in &registry().stripes {
        let map = stripe.lock().unwrap_or_else(|e| e.into_inner());
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
    }
    snap
}

impl Snapshot {
    /// Counters/histograms as deltas against an `earlier` snapshot; gauges
    /// keep their latest value. Benches and tests assert on these deltas.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let d = match earlier.histograms.get(k) {
                        Some(old) => v.diff(old),
                        None => v.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name (empty when absent).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }
}

/// Serializes unit tests that flip [`set_enabled`] or assert on global
/// counter deltas (tests in one binary run on parallel threads).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 5, 1000, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 observations of 0 → every quantile is 0.
        let zeros = HistogramSnapshot {
            count: 100,
            sum: 0,
            buckets: vec![(0, 100)],
        };
        assert_eq!(zeros.p50(), 0.0);
        assert_eq!(zeros.p99(), 0.0);

        // 90 in bucket 1 (value 1) and 10 in bucket 4 ([8, 15]): the
        // median sits in bucket 1, p99 inside bucket 4.
        let h = HistogramSnapshot {
            count: 100,
            sum: 90 + 10 * 12,
            buckets: vec![(1, 90), (4, 10)],
        };
        assert_eq!(h.p50(), 1.0);
        let p99 = h.p99();
        assert!((8.0..=15.0).contains(&p99), "p99 = {p99}");
        assert!(h.p95() <= p99);
        assert_eq!(h.quantile(1.0), 15.0);

        let empty = HistogramSnapshot::default();
        assert_eq!(empty.p95(), 0.0);
    }

    #[test]
    fn bucket_lower_bounds_partition() {
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(4), 8);
        for i in 1..=64 {
            assert_eq!(bucket_lower_bound(i), bucket_upper_bound(i - 1) + 1);
        }
    }

    #[test]
    fn counter_and_snapshot_diff() {
        let _l = test_lock();
        set_enabled(true);
        let c = counter("test.metrics.counter_and_snapshot_diff");
        let before = snapshot();
        c.add(5);
        c.inc();
        let delta = snapshot().diff(&before);
        assert_eq!(delta.counter("test.metrics.counter_and_snapshot_diff"), 6);
        assert_eq!(delta.counter("test.metrics.never_registered"), 0);
    }

    #[test]
    fn lazy_counter_is_the_registered_handle() {
        static LAZY: LazyCounter = LazyCounter::new("test.metrics.lazy_counter");
        assert!(std::ptr::eq(
            LAZY.get(),
            counter("test.metrics.lazy_counter")
        ));
        assert!(std::ptr::eq(LAZY.get(), LAZY.get()));
    }

    #[test]
    fn gauge_set_and_add() {
        let _l = test_lock();
        set_enabled(true);
        let g = gauge("test.metrics.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn timer_cell_accumulates_regardless_of_enabled() {
        let t = TimerCell::new();
        t.add(Duration::from_nanos(40));
        let r = t.time(|| 7);
        assert_eq!(r, 7);
        assert!(t.total() >= Duration::from_nanos(40));
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn kind_mismatch_panics() {
        let _ = counter("test.metrics.kind_mismatch");
        let _ = gauge("test.metrics.kind_mismatch");
    }
}
