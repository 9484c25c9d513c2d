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

use lan_obs::explain::{SolveTier, TierCounts};
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

/// A distance answer from a threshold-gated metric: the exact value, or an
/// admissible lower bound that already proves the object is too far to
/// matter (the GED kernel cascade returns `AtLeast` when a cheap signature
/// bound or an aborted branch-and-bound reaches the caller's threshold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistBound {
    /// The true distance.
    Exact(f64),
    /// The true distance is `>= lb`; the full solver never ran.
    AtLeast(f64),
}

impl DistBound {
    /// The smallest distance consistent with this answer.
    pub fn min_value(&self) -> f64 {
        match *self {
            DistBound::Exact(d) => d,
            DistBound::AtLeast(lb) => lb,
        }
    }

    /// True for [`DistBound::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, DistBound::Exact(_))
    }
}

/// The cascade prune predicate: a lower bound settles a candidate only
/// when it reaches the routing threshold `gamma` AND strictly exceeds the
/// pool gate (the worst distance a full pool kept at its last resize).
/// Strict `> gate` preserves the pool's `(dist, id)` tie-breaking: a
/// candidate tied with the gate could still displace a kept entry, so it
/// must be computed exactly. NaN gates compare false and disable pruning.
#[inline]
fn prunes(lb: f64, gamma: f64, gate: f64) -> bool {
    lb >= gamma && lb > gate
}

/// Distance from the current query to database object `id`.
///
/// `Sync` is a supertrait: oracles are shared across the scoped worker
/// threads of `lan-par`, so any interior state they carry must be
/// thread-safe (use atomics, not `RefCell`, for counters and timers).
pub trait QueryDistance: Sync {
    fn distance(&self, id: u32) -> f64;

    /// Threshold-gated distance: may answer with an admissible lower bound
    /// instead of the exact value, provided the bound reaches `tau`. The
    /// default runs the full metric — closures and wrappers that do not
    /// override this stay bit-identical to ungated execution. Overrides
    /// must guarantee `AtLeast(lb)` implies `lb <= d(id)` and `lb >= tau`,
    /// and that `Exact` answers equal [`Self::distance`] bit for bit.
    fn distance_within(&self, id: u32, tau: f64) -> DistBound {
        let _ = tau;
        DistBound::Exact(self.distance(id))
    }

    /// [`Self::distance_within`] plus the cascade tier that settled the
    /// call, for per-query EXPLAIN attribution. Only consulted when the
    /// wrapping [`DistCache`] carries an explain sink; the returned bound
    /// **must** equal [`Self::distance_within`] bit for bit so explain
    /// collection never perturbs results. The default classifies by
    /// shape — `Exact` means a full metric ran, `AtLeast` means a lower
    /// bound settled it — which is correct for the default
    /// `distance_within` and a sound approximation for custom oracles;
    /// `lan-core`'s `DatasetOracle` overrides it with the kernel
    /// cascade's precise per-call outcome.
    fn distance_within_tiered(&self, id: u32, tau: f64) -> (DistBound, SolveTier) {
        match self.distance_within(id, tau) {
            b @ DistBound::Exact(_) => (b, SolveTier::FullSolve),
            b @ DistBound::AtLeast(_) => (b, SolveTier::LbPrune),
        }
    }
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
///
/// Entries may hold a threshold-gated [`DistBound::AtLeast`] bound instead
/// of an exact distance. The counter contract keeps NDC and hit counts
/// bit-identical to an ungated run: a gated miss counts one NDC (the
/// ungated run computed that object exactly once there too); every later
/// touch through [`DistCache::get`]/[`DistCache::get_within`] counts one
/// hit whether the bound survives or must be refined (the ungated run saw
/// a hit there); [`DistCache::peek`]/[`DistCache::peek_within`] refine
/// silently, counting nothing (ungated `peek` counted nothing). What the
/// cascade actually saves is full solver runs — visible in the gap between
/// `ged.calls` (= NDC) and `ged.full_evals`, never in NDC itself.
pub struct DistCache<'a> {
    inner: &'a dyn QueryDistance,
    stripes: Vec<Mutex<HashMap<u32, DistBound>>>,
    ndc: AtomicUsize,
    hits: AtomicUsize,
    metrics: Option<CacheMetrics>,
    /// Per-query EXPLAIN tier sink. When set, every miss — and only a
    /// miss — notes the cascade tier that settled it, so the sink's
    /// attributed total equals `ndc()` by construction (hits and silent
    /// bound refinements note nothing; the reconciliation contract in
    /// `lan_obs::explain`).
    explain: Option<&'a TierCounts>,
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
            explain: None,
        }
    }

    /// Attaches a per-query EXPLAIN tier sink (see the `explain` field).
    /// Attribution is observation-only: results, NDC, and hit counts stay
    /// bit-identical with or without a sink.
    pub fn with_explain(mut self, tiers: &'a TierCounts) -> Self {
        self.explain = Some(tiers);
        self
    }

    fn stripe(&self, id: u32) -> &Mutex<HashMap<u32, DistBound>> {
        &self.stripes[id as usize % STRIPES]
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.hit.inc();
        }
    }

    fn count_miss(&self, tier: SolveTier) {
        self.ndc.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.explain {
            t.note_solve(tier);
        }
        if let Some(m) = &self.metrics {
            m.miss.inc();
            m.calls.inc();
        }
    }

    /// The distance from the query to `id`, counted as a miss at most once —
    /// even under concurrent access (the stripe lock covers the
    /// computation). A cached threshold bound is refined to the exact value
    /// here; the touch still counts as the single hit the ungated run saw.
    pub fn get(&self, id: u32) -> f64 {
        let mut map = self.stripe(id).lock().expect("stripe poisoned");
        match map.entry(id) {
            Entry::Occupied(mut e) => {
                self.count_hit();
                match *e.get() {
                    DistBound::Exact(d) => d,
                    DistBound::AtLeast(_) => {
                        let d = self.inner.distance(id);
                        e.insert(DistBound::Exact(d));
                        d
                    }
                }
            }
            Entry::Vacant(e) => {
                let d = self.inner.distance(id);
                e.insert(DistBound::Exact(d));
                self.count_miss(SolveTier::FullSolve);
                d
            }
        }
    }

    /// The threshold-gated distance under the routing threshold `gamma` and
    /// pool gate `gate` (see [`crate::pool::Pool::prune_gate`]). A cached or
    /// freshly computed bound is kept only while the prune predicate holds
    /// for the *current* thresholds; otherwise it is refined to the exact
    /// value. Counters follow the [`DistCache::get`] contract exactly.
    pub fn get_within(&self, id: u32, gamma: f64, gate: f64) -> DistBound {
        let mut map = self.stripe(id).lock().expect("stripe poisoned");
        match map.entry(id) {
            Entry::Occupied(mut e) => {
                self.count_hit();
                match *e.get() {
                    DistBound::Exact(d) => DistBound::Exact(d),
                    DistBound::AtLeast(lb) if prunes(lb, gamma, gate) => DistBound::AtLeast(lb),
                    DistBound::AtLeast(_) => {
                        let d = self.inner.distance(id);
                        e.insert(DistBound::Exact(d));
                        DistBound::Exact(d)
                    }
                }
            }
            Entry::Vacant(e) => {
                // Ask for the per-call tier only when a sink will consume
                // it; both arms produce bit-identical bounds.
                let (b, tier) = match self.explain {
                    Some(_) => self.inner.distance_within_tiered(id, gamma.max(gate)),
                    None => (
                        self.inner.distance_within(id, gamma.max(gate)),
                        SolveTier::FullSolve,
                    ),
                };
                let (b, tier) = match b {
                    // A bound that only *ties* the gate cannot settle the
                    // candidate (the pool breaks distance ties by id);
                    // refine it on the spot. The miss's final state is a
                    // full solve, so that's its attribution.
                    DistBound::AtLeast(lb) if !prunes(lb, gamma, gate) => (
                        DistBound::Exact(self.inner.distance(id)),
                        SolveTier::FullSolve,
                    ),
                    b => (b, tier),
                };
                e.insert(b);
                self.count_miss(tier);
                b
            }
        }
    }

    /// The cached distance, if this object was ever computed. A cached
    /// threshold bound is silently refined to the exact value — no hit or
    /// miss is counted, matching the ungated `peek` (which counted nothing
    /// and would have found the exact value already cached).
    pub fn peek(&self, id: u32) -> Option<f64> {
        let mut map = self.stripe(id).lock().expect("stripe poisoned");
        match map.get_mut(&id) {
            None => None,
            Some(DistBound::Exact(d)) => Some(*d),
            Some(slot) => {
                let d = self.inner.distance(id);
                *slot = DistBound::Exact(d);
                Some(d)
            }
        }
    }

    /// The cached answer under the current thresholds, if this object was
    /// ever computed: exact values and still-valid bounds come back as-is;
    /// a bound the thresholds no longer justify is silently refined.
    /// Counts nothing, like [`DistCache::peek`].
    pub fn peek_within(&self, id: u32, gamma: f64, gate: f64) -> Option<DistBound> {
        let mut map = self.stripe(id).lock().expect("stripe poisoned");
        match map.get_mut(&id) {
            None => None,
            Some(DistBound::Exact(d)) => Some(DistBound::Exact(*d)),
            Some(slot) => {
                let DistBound::AtLeast(lb) = *slot else {
                    unreachable!("non-exact slot is AtLeast")
                };
                if prunes(lb, gamma, gate) {
                    Some(DistBound::AtLeast(lb))
                } else {
                    let d = self.inner.distance(id);
                    *slot = DistBound::Exact(d);
                    Some(DistBound::Exact(d))
                }
            }
        }
    }

    /// The raw cached entry — exact or bound — without refining, computing,
    /// or counting anything.
    pub fn peek_bound(&self, id: u32) -> Option<DistBound> {
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

    /// A gated oracle with per-object exact distances and admissible lower
    /// bounds, counting how often each path runs.
    struct GatedOracle {
        d: Vec<f64>,
        lb: Vec<f64>,
        full: AtomicUsize,
        gated: AtomicUsize,
    }

    impl GatedOracle {
        fn new(d: Vec<f64>, lb: Vec<f64>) -> Self {
            assert!(
                d.iter().zip(&lb).all(|(d, lb)| lb <= d),
                "bounds admissible"
            );
            GatedOracle {
                d,
                lb,
                full: AtomicUsize::new(0),
                gated: AtomicUsize::new(0),
            }
        }
    }

    impl QueryDistance for GatedOracle {
        fn distance(&self, id: u32) -> f64 {
            self.full.fetch_add(1, Ordering::Relaxed);
            self.d[id as usize]
        }

        fn distance_within(&self, id: u32, tau: f64) -> DistBound {
            let lb = self.lb[id as usize];
            if tau.is_finite() && lb >= tau {
                self.gated.fetch_add(1, Ordering::Relaxed);
                DistBound::AtLeast(lb)
            } else {
                DistBound::Exact(self.distance(id))
            }
        }
    }

    #[test]
    fn get_within_prunes_and_counts_like_get() {
        let o = GatedOracle::new(vec![9.0, 2.0], vec![7.0, 1.0]);
        let cache = DistCache::new(&o);
        // Object 0: lb 7 reaches gamma 5 and beats gate 6 -> bound kept,
        // still one NDC (the ungated run computed it here too).
        assert_eq!(cache.get_within(0, 5.0, 6.0), DistBound::AtLeast(7.0));
        assert_eq!(cache.ndc(), 1);
        assert_eq!(o.full.load(Ordering::Relaxed), 0, "no full eval ran");
        // Object 1: lb 1 misses gamma -> exact, one more NDC.
        assert_eq!(cache.get_within(1, 5.0, 6.0), DistBound::Exact(2.0));
        assert_eq!(cache.ndc(), 2);
        // Re-touch under the same thresholds: hit, bound survives.
        assert_eq!(cache.get_within(0, 5.0, 6.0), DistBound::AtLeast(7.0));
        assert_eq!(cache.hits(), 1);
        // Re-touch under a stricter gate: hit plus an on-the-spot refine —
        // a full eval but no new NDC.
        assert_eq!(cache.get_within(0, 5.0, 8.0), DistBound::Exact(9.0));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.ndc(), 2);
        assert_eq!(o.full.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn get_refines_cached_bound_with_one_hit() {
        let o = GatedOracle::new(vec![9.0], vec![7.0]);
        let cache = DistCache::new(&o);
        assert_eq!(cache.get_within(0, 5.0, 6.0), DistBound::AtLeast(7.0));
        assert_eq!(cache.get(0), 9.0);
        assert_eq!((cache.ndc(), cache.hits()), (1, 1));
        // The refined value is cached exactly from then on.
        assert_eq!(cache.peek_bound(0), Some(DistBound::Exact(9.0)));
        assert_eq!(cache.get(0), 9.0);
        assert_eq!(o.full.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn peek_refines_silently() {
        let o = GatedOracle::new(vec![9.0], vec![7.0]);
        let cache = DistCache::new(&o);
        assert_eq!(cache.get_within(0, 5.0, 6.0), DistBound::AtLeast(7.0));
        let (ndc, hits) = (cache.ndc(), cache.hits());
        assert_eq!(cache.peek_bound(0), Some(DistBound::AtLeast(7.0)));
        assert_eq!(
            cache.peek(0),
            Some(9.0),
            "peek must surface the exact value"
        );
        assert_eq!(
            (cache.ndc(), cache.hits()),
            (ndc, hits),
            "peek counts nothing"
        );
        assert_eq!(cache.peek(1), None);
        assert_eq!(cache.peek_bound(1), None);
    }

    #[test]
    fn peek_within_keeps_valid_bounds_and_refines_stale_ones() {
        let o = GatedOracle::new(vec![9.0, 9.0], vec![7.0, 7.0]);
        let cache = DistCache::new(&o);
        cache.get_within(0, 5.0, 6.0);
        cache.get_within(1, 5.0, 6.0);
        let (ndc, hits) = (cache.ndc(), cache.hits());
        assert_eq!(
            cache.peek_within(0, 5.0, 6.0),
            Some(DistBound::AtLeast(7.0))
        );
        assert_eq!(cache.peek_within(1, 8.0, 6.0), Some(DistBound::Exact(9.0)));
        assert_eq!((cache.ndc(), cache.hits()), (ndc, hits));
        assert_eq!(cache.peek_within(2, 5.0, 6.0), None);
    }

    #[test]
    fn bound_tying_the_gate_is_refined_immediately() {
        // lb == gate cannot settle a candidate (pool ties break by id), so
        // the vacant path must refine before caching.
        let o = GatedOracle::new(vec![7.5], vec![7.0]);
        let cache = DistCache::new(&o);
        assert_eq!(cache.get_within(0, 5.0, 7.0), DistBound::Exact(7.5));
        assert_eq!(cache.ndc(), 1);
    }

    #[test]
    fn explain_sink_attributes_each_miss_exactly_once() {
        let o = GatedOracle::new(vec![9.0, 2.0, 5.0], vec![7.0, 1.0, 4.0]);
        let tiers = TierCounts::default();
        let cache = DistCache::new(&o).with_explain(&tiers);
        // Miss settled by a bound -> LbPrune (the default tiered
        // classifier maps AtLeast answers there).
        assert_eq!(cache.get_within(0, 5.0, 6.0), DistBound::AtLeast(7.0));
        // Miss solved fully.
        assert_eq!(cache.get_within(1, 5.0, 6.0), DistBound::Exact(2.0));
        // Plain get miss -> FullSolve.
        assert_eq!(cache.get(2), 5.0);
        // Hit + stale-bound refine notes nothing (first-touch
        // attribution keeps the sum equal to NDC).
        assert_eq!(cache.get_within(0, 5.0, 8.0), DistBound::Exact(9.0));
        // Silent peek refines note nothing either.
        assert_eq!(cache.peek(0), Some(9.0));
        let b = tiers.snapshot();
        assert_eq!(b.lb_prunes, 1);
        assert_eq!(b.full_solves, 2);
        assert_eq!(b.tau_aborts, 0);
        assert_eq!(b.attributed(), cache.ndc() as u64);
    }

    #[test]
    fn gate_tying_refine_attributes_as_full_solve() {
        let o = GatedOracle::new(vec![7.5], vec![7.0]);
        let tiers = TierCounts::default();
        let cache = DistCache::new(&o).with_explain(&tiers);
        // lb ties the gate -> refined on the spot; the miss's final state
        // is a full solve.
        assert_eq!(cache.get_within(0, 5.0, 7.0), DistBound::Exact(7.5));
        let b = tiers.snapshot();
        assert_eq!((b.lb_prunes, b.full_solves), (0, 1));
        assert_eq!(b.attributed(), cache.ndc() as u64);
    }

    #[test]
    fn explain_sink_never_perturbs_results_or_counts() {
        let o1 = GatedOracle::new(vec![9.0, 2.0, 7.5], vec![7.0, 1.0, 7.0]);
        let o2 = GatedOracle::new(vec![9.0, 2.0, 7.5], vec![7.0, 1.0, 7.0]);
        let tiers = TierCounts::default();
        let plain = DistCache::new(&o1);
        let explained = DistCache::new(&o2).with_explain(&tiers);
        for (gamma, gate) in [(5.0, 6.0), (5.0, 7.0), (8.0, 6.0)] {
            for id in 0..3u32 {
                assert_eq!(
                    plain.get_within(id, gamma, gate),
                    explained.get_within(id, gamma, gate)
                );
            }
        }
        assert_eq!(plain.ndc(), explained.ndc());
        assert_eq!(plain.hits(), explained.hits());
        assert_eq!(tiers.snapshot().attributed(), explained.ndc() as u64);
    }

    #[test]
    fn closures_never_produce_bounds() {
        // The default distance_within keeps plain closures on the exact
        // path no matter the thresholds.
        let f = |id: u32| id as f64;
        let cache = DistCache::new(&f);
        assert_eq!(cache.get_within(3, 0.0, 1.0), DistBound::Exact(3.0));
        assert_eq!(cache.peek_bound(3), Some(DistBound::Exact(3.0)));
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
