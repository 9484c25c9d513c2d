//! Distance abstractions with NDC accounting.
//!
//! The paper's central efficiency metric is **NDC** — the number of distance
//! computations a query performs. Both routers draw every query↔data
//! distance through a [`DistCache`], which memoizes per query (computing
//! `d(Q, G)` twice would be a wasted NP-hard computation no real system
//! performs) and counts unique computations. NDC = cache misses.
//!
//! Both caches are **thread-safe**: the map is lock-striped (keys hash to
//! one of `STRIPES` independent `Mutex<HashMap>` shards) and the NDC
//! counter is atomic, so concurrent routing, construction workers, and
//! parallel shard searches can share one cache. A stripe's lock is held
//! *while the distance is computed*, which preserves the sequential
//! guarantee that each key is computed **at most once** — two threads
//! racing on the same id serialize on the stripe and the loser reads the
//! winner's cached value. Distinct keys almost always land on distinct
//! stripes and compute truly concurrently.

use lan_obs::{names, Counter};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of independent lock stripes per cache. More stripes = less
/// contention between concurrent misses on distinct keys; 64 keeps the
/// collision probability low for the ≤ `2m`-sized candidate batches the
/// parallel construction evaluates at once.
const STRIPES: usize = 64;

/// Distance from the current query to database object `id`.
///
/// `Sync` is a supertrait: oracles are shared across the scoped worker
/// threads of `lan-par`, so any interior state they carry must be
/// thread-safe (use atomics, not `RefCell`, for counters and timers).
pub trait QueryDistance: Sync {
    fn distance(&self, id: u32) -> f64;
}

impl<F: Fn(u32) -> f64 + Sync> QueryDistance for F {
    fn distance(&self, id: u32) -> f64 {
        self(id)
    }
}

/// Pre-resolved global metric handles for one cache. Resolved once at
/// cache construction (the registry lock is never taken inside the
/// stripe-locked distance section — increments are lock-free atomics).
struct CacheMetrics {
    calls: &'static Counter,
    hit: &'static Counter,
    miss: &'static Counter,
}

/// Memoizing, counting wrapper around a [`QueryDistance`]. One per query.
pub struct DistCache<'a> {
    inner: &'a dyn QueryDistance,
    stripes: Vec<Mutex<HashMap<u32, f64>>>,
    ndc: AtomicUsize,
    hits: AtomicUsize,
    metrics: Option<CacheMetrics>,
}

impl<'a> DistCache<'a> {
    /// Wraps a query-distance oracle; misses and hits feed the global
    /// `ged.calls` / `ged.cache.{hit,miss}` metrics.
    pub fn new(inner: &'a dyn QueryDistance) -> Self {
        Self::build(
            inner,
            Some(CacheMetrics {
                calls: lan_obs::counter(names::GED_CALLS),
                hit: lan_obs::counter(names::GED_CACHE_HIT),
                miss: lan_obs::counter(names::GED_CACHE_MISS),
            }),
        )
    }

    /// Wraps an oracle whose computations are *not* graph distances (e.g.
    /// L2route's embedding-space routing) — local `ndc()`/`hits()` still
    /// count, but the global `ged.*` metrics are untouched, keeping
    /// `ged.calls` equal to the paper's NDC.
    pub fn new_uncounted(inner: &'a dyn QueryDistance) -> Self {
        Self::build(inner, None)
    }

    fn build(inner: &'a dyn QueryDistance, metrics: Option<CacheMetrics>) -> Self {
        DistCache {
            inner,
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            ndc: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            metrics,
        }
    }

    fn stripe(&self, id: u32) -> &Mutex<HashMap<u32, f64>> {
        &self.stripes[id as usize % STRIPES]
    }

    /// The distance from the query to `id`, counted as a miss at most once —
    /// even under concurrent access (the stripe lock covers the
    /// computation).
    pub fn get(&self, id: u32) -> f64 {
        let mut map = self.stripe(id).lock().expect("stripe poisoned");
        match map.entry(id) {
            Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.hit.inc();
                }
                *e.get()
            }
            Entry::Vacant(e) => {
                let d = self.inner.distance(id);
                e.insert(d);
                self.ndc.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.miss.inc();
                    m.calls.inc();
                }
                d
            }
        }
    }

    /// The cached distance, if this object was ever computed. Counts
    /// nothing.
    pub fn peek(&self, id: u32) -> Option<f64> {
        self.stripe(id)
            .lock()
            .expect("stripe poisoned")
            .get(&id)
            .copied()
    }

    /// Number of unique distance computations so far (the paper's NDC).
    pub fn ndc(&self) -> usize {
        self.ndc.load(Ordering::Relaxed)
    }

    /// Number of cache hits so far (lookups served without computing).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Symmetric pairwise distance between database objects (used at index
/// construction time). `Sync` for the same reason as [`QueryDistance`].
pub trait PairDistance: Sync {
    fn distance(&self, a: u32, b: u32) -> f64;
}

impl<F: Fn(u32, u32) -> f64 + Sync> PairDistance for F {
    fn distance(&self, a: u32, b: u32) -> f64 {
        self(a, b)
    }
}

/// Packs a symmetric `(u32, u32)` pair into one `u64` key (`min` in the
/// high half) — one word to hash instead of a two-field tuple. Total over
/// the full u32 range: both halves are widened before shifting, so the
/// key is injective up to pair symmetry even at `u32::MAX`.
fn pack_pair(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let key = ((lo as u64) << 32) | hi as u64;
    debug_assert_eq!(unpack_pair(key), (lo, hi), "pack/unpack round-trip");
    key
}

/// Recovers the ordered `(min, max)` endpoints of a [`pack_pair`] key.
#[inline]
fn unpack_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Memoizing wrapper for construction-time pair distances (symmetric keys).
pub struct PairCache<'a> {
    inner: &'a dyn PairDistance,
    stripes: Vec<Mutex<HashMap<u64, f64>>>,
    computed: AtomicUsize,
    hits: AtomicUsize,
    metrics: Option<CacheMetrics>,
}

impl<'a> PairCache<'a> {
    /// Wraps a pair-distance oracle; misses and hits feed the global
    /// `pair.calls` / `pair.cache.{hit,miss}` metrics.
    pub fn new(inner: &'a dyn PairDistance) -> Self {
        Self::build(
            inner,
            Some(CacheMetrics {
                calls: lan_obs::counter(names::PAIR_CALLS),
                hit: lan_obs::counter(names::PAIR_CACHE_HIT),
                miss: lan_obs::counter(names::PAIR_CACHE_MISS),
            }),
        )
    }

    /// Wraps an oracle whose computations are not graph distances (e.g.
    /// embedding-space L2) — the global `pair.*` metrics are untouched.
    pub fn new_uncounted(inner: &'a dyn PairDistance) -> Self {
        Self::build(inner, None)
    }

    fn build(inner: &'a dyn PairDistance, metrics: Option<CacheMetrics>) -> Self {
        PairCache {
            inner,
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            computed: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            metrics,
        }
    }

    /// `d(a, b) = d(b, a)`, computed at most once per unordered pair — even
    /// under concurrent access (the stripe lock covers the computation).
    pub fn get(&self, a: u32, b: u32) -> f64 {
        let key = pack_pair(a, b);
        // Mix both halves so stripes don't degenerate when one endpoint is
        // fixed (the inner loops of construction probe (v, *) fans).
        let stripe = ((key ^ (key >> 32)) as usize) % STRIPES;
        let mut map = self.stripes[stripe].lock().expect("stripe poisoned");
        match map.entry(key) {
            Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.hit.inc();
                }
                *e.get()
            }
            Entry::Vacant(e) => {
                let (lo, hi) = unpack_pair(key);
                let d = self.inner.distance(lo, hi);
                e.insert(d);
                self.computed.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.miss.inc();
                    m.calls.inc();
                }
                d
            }
        }
    }

    pub fn computed(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// Number of cache hits so far (lookups served without computing).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_counts() {
        let calls = AtomicUsize::new(0);
        let f = |id: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            id as f64 * 2.0
        };
        let cache = DistCache::new(&f);
        assert_eq!(cache.get(3), 6.0);
        assert_eq!(cache.get(3), 6.0);
        assert_eq!(cache.get(4), 8.0);
        assert_eq!(cache.ndc(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(cache.peek(3), Some(6.0));
        assert_eq!(cache.peek(9), None);
    }

    #[test]
    fn repeated_workload_has_positive_hit_rate() {
        // A routing workload revisits nodes constantly (every hop re-ranks
        // neighbors some of which were already scored); model that with a
        // lookup sequence containing repeats and assert the hit counters
        // and the global ged.* metrics both see the hits.
        let before = lan_obs::snapshot();
        let f = |id: u32| id as f64;
        let cache = DistCache::new(&f);
        let workload = [3u32, 7, 3, 9, 7, 3, 11, 9, 3];
        for id in workload {
            cache.get(id);
        }
        assert_eq!(cache.ndc(), 4); // {3, 7, 9, 11}
        assert_eq!(cache.hits(), 5);
        let hit_rate = cache.hits() as f64 / workload.len() as f64;
        assert!(hit_rate > 0.0);
        if lan_obs::enabled() {
            let d = lan_obs::snapshot().diff(&before);
            assert!(d.counter(names::GED_CACHE_HIT) >= 5);
            assert!(d.counter(names::GED_CALLS) >= 4);
        }

        // The uncounted constructor must leave the global metrics alone.
        let before = lan_obs::snapshot();
        let quiet = DistCache::new_uncounted(&f);
        quiet.get(1);
        quiet.get(1);
        assert_eq!(quiet.ndc(), 1);
        assert_eq!(quiet.hits(), 1);
        let d = lan_obs::snapshot().diff(&before);
        assert_eq!(d.counter(names::GED_CALLS), 0);
        assert_eq!(d.counter(names::GED_CACHE_HIT), 0);
    }

    #[test]
    fn pair_cache_counts_hits() {
        let f = |a: u32, b: u32| (a + b) as f64;
        let cache = PairCache::new(&f);
        cache.get(1, 2);
        cache.get(2, 1);
        cache.get(1, 2);
        assert_eq!(cache.computed(), 1);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn pair_cache_symmetric() {
        let calls = AtomicUsize::new(0);
        let f = |a: u32, b: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            (a + b) as f64
        };
        let cache = PairCache::new(&f);
        assert_eq!(cache.get(1, 2), 3.0);
        assert_eq!(cache.get(2, 1), 3.0);
        assert_eq!(cache.computed(), 1);
    }

    #[test]
    fn pack_pair_is_symmetric_and_injective() {
        assert_eq!(pack_pair(1, 2), pack_pair(2, 1));
        assert_ne!(pack_pair(1, 2), pack_pair(1, 3));
        assert_ne!(pack_pair(0, 1), pack_pair(1, 1));
        assert_eq!(pack_pair(u32::MAX, 0), pack_pair(0, u32::MAX));
    }

    #[test]
    fn pack_pair_survives_the_u32_edge() {
        // Boundary ids around u32::MAX: packing must stay injective (up to
        // symmetry) and unpacking must round-trip — a widening bug here
        // would silently alias distinct pairs at >4B-object scale.
        let edge = [0u32, 1, u32::MAX - 1, u32::MAX];
        for &a in &edge {
            for &b in &edge {
                let key = pack_pair(a, b);
                let (lo, hi) = unpack_pair(key);
                assert_eq!((lo, hi), (a.min(b), a.max(b)), "round-trip {a},{b}");
                for &c in &edge {
                    for &d in &edge {
                        let same = (a.min(b), a.max(b)) == (c.min(d), c.max(d));
                        assert_eq!(
                            key == pack_pair(c, d),
                            same,
                            "aliasing ({a},{b}) vs ({c},{d})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pair_cache_distinguishes_edge_ids() {
        // (MAX, MAX-1) and (MAX, MAX) must occupy distinct cache slots and
        // unpack to the original endpoints when the miss computes.
        let f = |a: u32, b: u32| a as f64 + b as f64;
        let cache = PairCache::new(&f);
        let m = u32::MAX;
        assert_eq!(cache.get(m, m - 1), m as f64 + (m - 1) as f64);
        assert_eq!(cache.get(m, m), m as f64 * 2.0);
        assert_eq!(cache.get(m - 1, m), m as f64 + (m - 1) as f64);
        assert_eq!(cache.computed(), 2);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn concurrent_get_computes_each_id_once() {
        let calls = AtomicUsize::new(0);
        let f = |id: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            id as f64
        };
        let cache = DistCache::new(&f);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for id in 0..100u32 {
                        assert_eq!(cache.get(id), id as f64);
                    }
                });
            }
        });
        // Every one of the 4 threads asks for all 100 ids; each id must
        // have been computed exactly once.
        assert_eq!(cache.ndc(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn concurrent_pair_get_computes_each_pair_once() {
        let calls = AtomicUsize::new(0);
        let f = |a: u32, b: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            (a * 31 + b) as f64
        };
        let cache = PairCache::new(&f);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for a in 0..20u32 {
                        for b in 0..20u32 {
                            let _ = cache.get(a, b);
                        }
                    }
                });
            }
        });
        // 20×20 symmetric grid → 20 diagonal + 190 off-diagonal pairs.
        assert_eq!(cache.computed(), 210);
        assert_eq!(calls.load(Ordering::Relaxed), 210);
    }
}
