//! Query budgets and cooperative cancellation.
//!
//! A production query must never run unbounded: `np_route`'s stage-2
//! backtracking escalates γ until the pool is exhausted, and a single slow
//! exact-GED call can stall a whole shard. This module bounds a query by
//! **NDC** (the paper's own cost metric — exact and deterministic, since
//! `ged.calls == NDC` by construction), by a **wall-clock deadline**, and
//! by a **hop count**, with graceful degradation: exhaustion never panics
//! and never returns an error, it stops routing and returns the
//! best-so-far pool tagged with a [`Termination`] outcome.
//!
//! One [`BudgetCtx`] is shared by every shard of a query (it is all
//! atomics, so the `lan-par` fan-out can borrow it concurrently); NDC is
//! *reserved* before each distance computation, which makes the cap strict
//! — the measured NDC can never exceed it, even when shards race. The
//! first shard to exhaust the budget records the cause and raises the
//! cancellation flag, cooperatively stopping its siblings at their next
//! distance computation.
//!
//! The unlimited budget is a true no-op: [`budgeted_get`] short-circuits
//! to a plain `DistCache::get`, so results and NDC are bit-identical to
//! unbudgeted execution (property-tested in
//! `crates/core/tests/budget_properties.rs`).

use crate::metric::DistCache;
use lan_obs::names;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a routed query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Termination {
    /// Ran to natural completion — results are exactly what the unbudgeted
    /// algorithm would return.
    #[default]
    Converged,
    /// Stopped by the NDC cap; results are best-so-far.
    NdcBudget,
    /// Stopped by the wall-clock deadline; results are best-so-far.
    Deadline,
    /// Stopped early for another reason: the hop cap, or cooperative
    /// cancellation after a sibling shard exhausted the shared budget.
    Degraded,
}

impl Termination {
    /// Stable lower-case name (used in traces and JSON exports).
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::NdcBudget => "ndc_budget",
            Termination::Deadline => "deadline",
            Termination::Degraded => "degraded",
        }
    }

    /// True for every outcome except [`Termination::Converged`].
    pub fn is_degraded(self) -> bool {
        self != Termination::Converged
    }
}

/// Resource bounds for one query. The default is unlimited on every axis,
/// which is guaranteed to add zero overhead and change nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Maximum unique distance computations (strict: measured NDC never
    /// exceeds this, even across parallel shards sharing the budget).
    pub max_ndc: Option<usize>,
    /// Wall-clock allowance, measured from [`BudgetCtx::new`].
    pub deadline: Option<Duration>,
    /// Maximum routing hops (explored nodes) per router.
    pub max_hops: Option<usize>,
}

impl QueryBudget {
    /// No bounds — bit-identical behavior to unbudgeted execution.
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// True when no axis is bounded.
    pub fn is_unlimited(&self) -> bool {
        self.max_ndc.is_none() && self.deadline.is_none() && self.max_hops.is_none()
    }

    /// Caps unique distance computations.
    pub fn with_max_ndc(mut self, n: usize) -> Self {
        self.max_ndc = Some(n);
        self
    }

    /// Caps wall-clock time.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Caps routing hops per router.
    pub fn with_max_hops(mut self, h: usize) -> Self {
        self.max_hops = Some(h);
        self
    }

    /// Reads `LAN_NDC_BUDGET`, `LAN_DEADLINE_MS`, and `LAN_MAX_HOPS` as a
    /// `Result`: each is optional (unset → unlimited on that axis), but a
    /// *set and malformed* value — `-5`, `abc`, an empty string — is a
    /// typed [`lan_par::env::EnvError`] naming the key and the offending
    /// value, never a silent fallback to unlimited.
    pub fn try_from_env() -> Result<Self, lan_par::env::EnvError> {
        use lan_par::env::{any_usize, parse_var};
        Ok(QueryBudget {
            max_ndc: parse_var("LAN_NDC_BUDGET", any_usize)?,
            deadline: parse_var("LAN_DEADLINE_MS", any_usize)?
                .map(|ms| Duration::from_millis(ms as u64)),
            max_hops: parse_var("LAN_MAX_HOPS", any_usize)?,
        })
    }

    /// Total variant of [`QueryBudget::try_from_env`] for callers that
    /// cannot propagate: a malformed value prints one warning per key to
    /// stderr and that axis stays unlimited. Re-read on every call so
    /// tests and benches can flip the knobs at runtime.
    pub fn from_env() -> Self {
        use lan_par::env::{any_usize, parse_var_or_warn};
        QueryBudget {
            max_ndc: parse_var_or_warn("LAN_NDC_BUDGET", any_usize),
            deadline: parse_var_or_warn("LAN_DEADLINE_MS", any_usize)
                .map(|ms| Duration::from_millis(ms as u64)),
            max_hops: parse_var_or_warn("LAN_MAX_HOPS", any_usize),
        }
    }
}

/// Termination cause codes stored in [`BudgetCtx::cause`].
const CAUSE_NONE: u8 = 0;
const CAUSE_NDC: u8 = 1;
const CAUSE_DEADLINE: u8 = 2;
const CAUSE_DEGRADED: u8 = 3;

fn cause_to_termination(c: u8) -> Option<Termination> {
    match c {
        CAUSE_NDC => Some(Termination::NdcBudget),
        CAUSE_DEADLINE => Some(Termination::Deadline),
        CAUSE_DEGRADED => Some(Termination::Degraded),
        _ => None,
    }
}

/// Shared per-query execution state: the budget plus the global NDC
/// reservation counter and the cooperative cancellation flag. One per
/// query; shards borrow it across the `lan-par` fan-out (all state is
/// atomic).
#[derive(Debug)]
pub struct BudgetCtx {
    max_ndc: usize,
    deadline: Option<Instant>,
    max_hops: usize,
    unlimited: bool,
    /// Distance computations *reserved* so far, across every shard.
    spent: AtomicUsize,
    /// Raised by the first shard to exhaust the budget; siblings stop at
    /// their next distance computation.
    cancel: AtomicBool,
    /// First recorded termination cause (CAS; the winner also bumps the
    /// corresponding `budget.*` metric exactly once per query).
    cause: AtomicU8,
    /// The declared budget, kept verbatim for reporting (EXPLAIN plans
    /// need the original limits, e.g. the deadline as a duration rather
    /// than the derived `Instant`).
    limits: QueryBudget,
}

impl BudgetCtx {
    /// Starts the query clock: a deadline is measured from this call.
    pub fn new(budget: &QueryBudget) -> Self {
        BudgetCtx {
            max_ndc: budget.max_ndc.unwrap_or(usize::MAX),
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_hops: budget.max_hops.unwrap_or(usize::MAX),
            unlimited: budget.is_unlimited(),
            spent: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            cause: AtomicU8::new(CAUSE_NONE),
            limits: budget.clone(),
        }
    }

    /// A context that never stops anything.
    pub fn unlimited() -> Self {
        BudgetCtx::new(&QueryBudget::unlimited())
    }

    /// True when every check short-circuits (the zero-overhead fast path).
    #[inline]
    pub fn is_unlimited(&self) -> bool {
        self.unlimited
    }

    /// The hop cap (usize::MAX when unbounded).
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// The budget this context was created from, verbatim (reporting).
    pub fn limits(&self) -> &QueryBudget {
        &self.limits
    }

    /// Distance computations reserved so far across all shards.
    pub fn spent(&self) -> usize {
        self.spent.load(Ordering::Relaxed)
    }

    /// True once a shard raised the cooperative cancellation flag — used
    /// by sequential shard loops to skip the remaining shards entirely.
    #[inline]
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The first recorded termination cause, if the budget ever bound.
    pub fn cause(&self) -> Option<Termination> {
        cause_to_termination(self.cause.load(Ordering::Relaxed))
    }

    /// The merged outcome for the whole query: the recorded cause, or
    /// [`Termination::Converged`] when nothing ever bound.
    pub fn termination(&self) -> Termination {
        self.cause().unwrap_or(Termination::Converged)
    }

    /// Pre-computation check: cancellation by a sibling, then the deadline.
    /// Returns the *local* stop reason (a sibling's exhaustion reads as
    /// [`Termination::Degraded`] here; the shared cause keeps the original).
    #[inline]
    fn check(&self) -> Option<Termination> {
        if self.cancel.load(Ordering::Relaxed) {
            return Some(Termination::Degraded);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Termination::Deadline);
            }
        }
        None
    }

    /// Reserves one distance computation. Strictly never lets `spent`
    /// exceed `max_ndc`, even under concurrent shard reservations.
    #[inline]
    fn try_charge(&self) -> bool {
        self.spent
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                (s < self.max_ndc).then_some(s + 1)
            })
            .is_ok()
    }

    /// Records an exhaustion cause and cancels sibling shards. The CAS
    /// winner bumps the matching `budget.*` counter once per query.
    pub fn note_exhausted(&self, t: Termination) {
        self.cancel.store(true, Ordering::Relaxed);
        self.note_local(t);
    }

    /// Records a cause without cancelling siblings (the hop cap is a
    /// per-router bound; other shards may still converge).
    pub fn note_local(&self, t: Termination) {
        let code = match t {
            Termination::Converged => return,
            Termination::NdcBudget => CAUSE_NDC,
            Termination::Deadline => CAUSE_DEADLINE,
            Termination::Degraded => CAUSE_DEGRADED,
        };
        if self
            .cause
            .compare_exchange(CAUSE_NONE, code, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            match t {
                Termination::NdcBudget => lan_obs::counter(names::BUDGET_NDC_EXHAUSTED).inc(),
                Termination::Deadline => lan_obs::counter(names::BUDGET_DEADLINE_EXCEEDED).inc(),
                Termination::Degraded => lan_obs::counter(names::BUDGET_CANCELLED).inc(),
                Termination::Converged => {}
            }
        }
    }
}

impl Default for BudgetCtx {
    fn default() -> Self {
        BudgetCtx::unlimited()
    }
}

/// A budget-aware `DistCache::get`.
///
/// * Unlimited budget: exactly `cache.get(id)` — same NDC, same result.
/// * Finite budget: cached distances are free (a `peek` costs no NDC);
///   a miss first passes the cancellation/deadline check, then reserves
///   one unit of NDC, and only then computes. `Err` carries the local
///   stop reason; the caller stops routing and returns best-so-far.
///
/// The peek-before-charge protocol relies on each query's `DistCache`
/// being accessed by one thread at a time (shards have independent
/// caches), which makes the reservation exact: every reserved unit is a
/// real cache miss.
#[inline]
pub fn budgeted_get(cache: &DistCache<'_>, ctx: &BudgetCtx, id: u32) -> Result<f64, Termination> {
    if ctx.is_unlimited() {
        return Ok(cache.get(id));
    }
    if let Some(d) = cache.peek(id) {
        return Ok(d);
    }
    if let Some(t) = ctx.check() {
        ctx.note_exhausted(t);
        return Err(t);
    }
    if !ctx.try_charge() {
        ctx.note_exhausted(Termination::NdcBudget);
        return Err(Termination::NdcBudget);
    }
    Ok(cache.get(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_env_reject_set_is_typed() {
        use lan_par::testenv::with_env;
        // Each knob's reject set: negative, non-numeric, empty, float.
        for key in ["LAN_NDC_BUDGET", "LAN_DEADLINE_MS", "LAN_MAX_HOPS"] {
            for bad in ["-5", "abc", "", "1.5", "1e3"] {
                with_env(&[(key, Some(bad))], || {
                    let err = QueryBudget::try_from_env().expect_err(bad);
                    assert_eq!(err.key, key, "wrong key blamed for {bad:?}");
                    assert_eq!(err.value, bad);
                    // The total path stays usable: that axis is unlimited.
                    assert!(QueryBudget::from_env().is_unlimited());
                });
            }
        }
        // Valid values still parse on both paths (zero is a legal cap).
        with_env(
            &[
                ("LAN_NDC_BUDGET", Some("100")),
                ("LAN_DEADLINE_MS", Some("250")),
                ("LAN_MAX_HOPS", Some("0")),
            ],
            || {
                let b = QueryBudget::try_from_env().unwrap();
                assert_eq!(b.max_ndc, Some(100));
                assert_eq!(b.deadline, Some(Duration::from_millis(250)));
                assert_eq!(b.max_hops, Some(0));
                assert_eq!(QueryBudget::from_env(), b);
            },
        );
        // Unset means unlimited, not an error.
        with_env(
            &[
                ("LAN_NDC_BUDGET", None),
                ("LAN_DEADLINE_MS", None),
                ("LAN_MAX_HOPS", None),
            ],
            || {
                assert!(QueryBudget::try_from_env().unwrap().is_unlimited());
            },
        );
    }

    #[test]
    fn unlimited_budget_is_unlimited() {
        let b = QueryBudget::unlimited();
        assert!(b.is_unlimited());
        let ctx = BudgetCtx::new(&b);
        assert!(ctx.is_unlimited());
        assert_eq!(ctx.termination(), Termination::Converged);
    }

    #[test]
    fn budgeted_get_charges_misses_only() {
        let f = |id: u32| id as f64;
        let cache = DistCache::new(&f);
        let ctx = BudgetCtx::new(&QueryBudget::default().with_max_ndc(2));
        assert_eq!(budgeted_get(&cache, &ctx, 1), Ok(1.0));
        assert_eq!(budgeted_get(&cache, &ctx, 1), Ok(1.0)); // hit: free
        assert_eq!(budgeted_get(&cache, &ctx, 2), Ok(2.0));
        assert_eq!(ctx.spent(), 2);
        // Third unique id exceeds the cap.
        assert_eq!(budgeted_get(&cache, &ctx, 3), Err(Termination::NdcBudget));
        assert_eq!(cache.ndc(), 2);
        assert_eq!(ctx.termination(), Termination::NdcBudget);
        // Cached ids keep answering after exhaustion.
        assert_eq!(budgeted_get(&cache, &ctx, 1), Ok(1.0));
    }

    #[test]
    fn exhaustion_cancels_siblings() {
        let f = |id: u32| id as f64;
        let cache_a = DistCache::new(&f);
        let cache_b = DistCache::new(&f);
        let ctx = BudgetCtx::new(&QueryBudget::default().with_max_ndc(1));
        assert!(budgeted_get(&cache_a, &ctx, 1).is_ok());
        assert_eq!(budgeted_get(&cache_a, &ctx, 2), Err(Termination::NdcBudget));
        // The sibling sees a cooperative cancellation, not the NDC cause.
        assert_eq!(budgeted_get(&cache_b, &ctx, 9), Err(Termination::Degraded));
        // The shared cause keeps the original reason.
        assert_eq!(ctx.termination(), Termination::NdcBudget);
    }

    #[test]
    fn deadline_in_the_past_stops_immediately() {
        let f = |id: u32| id as f64;
        let cache = DistCache::new(&f);
        let ctx = BudgetCtx::new(&QueryBudget::default().with_deadline(Duration::ZERO));
        assert_eq!(budgeted_get(&cache, &ctx, 1), Err(Termination::Deadline));
        assert_eq!(cache.ndc(), 0);
        assert_eq!(ctx.termination(), Termination::Deadline);
    }

    #[test]
    fn concurrent_charges_never_exceed_cap() {
        let ctx = BudgetCtx::new(&QueryBudget::default().with_max_ndc(100));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _ = ctx.try_charge();
                    }
                });
            }
        });
        assert_eq!(ctx.spent(), 100);
    }

    #[test]
    fn termination_names_stable() {
        assert_eq!(Termination::Converged.as_str(), "converged");
        assert_eq!(Termination::NdcBudget.as_str(), "ndc_budget");
        assert_eq!(Termination::Deadline.as_str(), "deadline");
        assert_eq!(Termination::Degraded.as_str(), "degraded");
        assert!(!Termination::Converged.is_degraded());
        assert!(Termination::Deadline.is_degraded());
    }
}
