//! Deterministic fault injection at the distance-computation boundary.
//!
//! `LAN_FAULTS=ged_timeout:0.05,ged_fail:0.01,seed=42` makes a configurable
//! fraction of distance computations *fault* — modelling the exact-GED
//! timeout and transient evaluation failures a production deployment sees —
//! so the recovery policy (retry once, then fall back to an approximate
//! GED) can be exercised and measured without flaky real timeouts.
//!
//! Faults are **deterministic**: whether the draw for `(query salt, object
//! id, attempt)` faults is a pure hash of those values and the plan seed,
//! independent of thread scheduling. Two runs with the same spec and
//! workload inject exactly the same faults, which lets tests assert on
//! fault counters exactly.
//!
//! The policy lives in [`faulted_distance`]: attempt 0 faulting triggers
//! one retry (`fault.retried`); the retry faulting too triggers the
//! fallback metric (`fault.fallback`). Every injected fault increments
//! `fault.injected`. A fault never escapes as a panic or an error — the
//! query always gets a distance.

use lan_obs::names;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Fault rates and determinism seed parsed from a `LAN_FAULTS` spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a distance computation times out (`ged_timeout:RATE`).
    pub timeout_rate: f64,
    /// Probability a distance computation fails outright (`ged_fail:RATE`).
    pub fail_rate: f64,
    /// Seed of the deterministic draw (`seed=N`; default 0).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            timeout_rate: 0.0,
            fail_rate: 0.0,
            seed: 0,
        }
    }

    /// Parses a comma-separated spec: `ged_timeout:0.05`, `ged_fail:0.01`,
    /// `seed=42` (a bare `seed` keeps the default 0). Unknown keys or
    /// unparsable values reject the whole spec.
    pub fn parse(spec: &str) -> Option<FaultPlan> {
        let mut plan = FaultPlan::none();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = match item.split_once([':', '=']) {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (item, None),
            };
            match (key, value) {
                ("ged_timeout", Some(v)) => plan.timeout_rate = parse_rate(v)?,
                ("ged_fail", Some(v)) => plan.fail_rate = parse_rate(v)?,
                ("seed", Some(v)) => plan.seed = v.parse().ok()?,
                ("seed", None) => {}
                _ => return None,
            }
        }
        Some(plan)
    }

    /// True when no fault can ever be injected.
    pub fn is_none(&self) -> bool {
        self.timeout_rate <= 0.0 && self.fail_rate <= 0.0
    }

    /// Whether the draw for `(salt, id, attempt)` faults — a pure function
    /// of the arguments and the seed, independent of scheduling. `salt`
    /// distinguishes queries (the harness passes the query seed).
    pub fn faults(&self, salt: u64, id: u32, attempt: u32) -> bool {
        let rate = self.timeout_rate + self.fail_rate;
        if rate <= 0.0 {
            return false;
        }
        let h = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt)
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(((id as u64) << 32) | attempt as u64),
        );
        // Map the top 53 bits to [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate.min(1.0)
    }
}

/// SplitMix64 finalizer — a well-mixed 64-bit hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_rate(v: &str) -> Option<f64> {
    let r: f64 = v.parse().ok()?;
    (r.is_finite() && (0.0..=1.0).contains(&r)).then_some(r)
}

/// 0 = uninitialized, 1 = a plan is active, 2 = no plan.
static STATE: AtomicU8 = AtomicU8::new(0);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// The active fault plan: the programmatic override if one was set,
/// otherwise parsed once from `LAN_FAULTS`. `None` (the default) costs one
/// relaxed atomic load per distance computation.
pub fn active_plan() -> Option<FaultPlan> {
    match STATE.load(Ordering::Relaxed) {
        2 => None,
        1 => *PLAN.lock().unwrap_or_else(|e| e.into_inner()),
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> Option<FaultPlan> {
    let plan = std::env::var("LAN_FAULTS")
        .ok()
        .and_then(|spec| FaultPlan::parse(&spec))
        .filter(|p| !p.is_none());
    set_plan(plan);
    plan
}

/// Programmatic override of `LAN_FAULTS` (benches and tests; avoids racy
/// env mutation). `None` disables injection.
pub fn set_plan(plan: Option<FaultPlan>) {
    let plan = plan.filter(|p| !p.is_none());
    *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    STATE.store(if plan.is_some() { 1 } else { 2 }, Ordering::Relaxed);
}

/// Pre-resolved fault counters, resolved once per query (same pattern as
/// `CacheMetrics` — the registry lock never sits on the distance path).
pub struct FaultMetrics {
    injected: &'static lan_obs::Counter,
    retried: &'static lan_obs::Counter,
    fallback: &'static lan_obs::Counter,
}

impl FaultMetrics {
    pub fn resolve() -> Self {
        FaultMetrics {
            injected: lan_obs::counter(names::FAULT_INJECTED),
            retried: lan_obs::counter(names::FAULT_RETRIED),
            fallback: lan_obs::counter(names::FAULT_FALLBACK),
        }
    }
}

/// Applies the retry-then-fallback policy to one distance computation.
///
/// * Attempt 0 clean → `primary()`.
/// * Attempt 0 faults → count `fault.injected` + `fault.retried`, draw
///   attempt 1.
/// * Attempt 1 clean → `primary()` (the retry succeeded).
/// * Attempt 1 faults too → count `fault.injected` + `fault.fallback`,
///   return `fallback()` (an approximate GED — total, never faults).
///
/// Never panics, never errors: the caller always receives a distance.
pub fn faulted_distance(
    plan: &FaultPlan,
    metrics: &FaultMetrics,
    salt: u64,
    id: u32,
    primary: impl Fn() -> f64,
    fallback: impl Fn() -> f64,
) -> f64 {
    if !plan.faults(salt, id, 0) {
        return primary();
    }
    metrics.injected.inc();
    metrics.retried.inc();
    if !plan.faults(salt, id, 1) {
        return primary();
    }
    metrics.injected.inc();
    metrics.fallback.inc();
    fallback()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("ged_timeout:0.05,ged_fail:0.01,seed=42").unwrap();
        assert_eq!(p.timeout_rate, 0.05);
        assert_eq!(p.fail_rate, 0.01);
        assert_eq!(p.seed, 42);
        // `seed:N` and a bare `seed` are accepted too.
        assert_eq!(FaultPlan::parse("ged_timeout:0.5,seed:7").unwrap().seed, 7);
        assert_eq!(FaultPlan::parse("ged_timeout:0.05,seed").unwrap().seed, 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(FaultPlan::parse("ged_timeout:1.5"), None); // rate > 1
        assert_eq!(FaultPlan::parse("ged_timeout:-0.1"), None);
        assert_eq!(FaultPlan::parse("ged_timeout:NaN"), None);
        assert_eq!(FaultPlan::parse("frobnicate:0.5"), None);
        assert_eq!(FaultPlan::parse("seed=xyz"), None);
        // Empty spec parses to the no-op plan.
        assert!(FaultPlan::parse("").unwrap().is_none());
    }

    #[test]
    fn draws_are_deterministic_and_rate_accurate() {
        let p = FaultPlan::parse("ged_timeout:0.1,seed=3").unwrap();
        let mut faults = 0;
        for id in 0..10_000u32 {
            let a = p.faults(17, id, 0);
            let b = p.faults(17, id, 0);
            assert_eq!(a, b);
            if a {
                faults += 1;
            }
        }
        // 10_000 draws at 10%: the observed rate is within ±3% absolute.
        assert!((700..=1300).contains(&faults), "faults = {faults}");
        // Different salts and attempts draw independently.
        assert_ne!(
            (0..64u32).map(|id| p.faults(1, id, 0)).collect::<Vec<_>>(),
            (0..64u32).map(|id| p.faults(2, id, 0)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_rate_never_faults() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!((0..1000u32).all(|id| !p.faults(0, id, 0)));
    }

    #[test]
    fn policy_retries_then_falls_back() {
        let metrics = FaultMetrics::resolve();
        // Rate 1.0: every draw faults → always the fallback value.
        let all = FaultPlan::parse("ged_fail:1.0").unwrap();
        let d = faulted_distance(&all, &metrics, 0, 1, || 5.0, || 9.0);
        assert_eq!(d, 9.0);
        // Rate 0: never faults → always the primary value.
        let none = FaultPlan::none();
        let d = faulted_distance(&none, &metrics, 0, 1, || 5.0, || 9.0);
        assert_eq!(d, 5.0);
    }

    #[test]
    fn set_plan_overrides_and_clears() {
        // Serialize with any other test touching the global plan.
        static LOCK: Mutex<()> = Mutex::new(());
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_plan(Some(FaultPlan::parse("ged_timeout:0.5,seed=1").unwrap()));
        assert!(active_plan().is_some());
        set_plan(None);
        assert_eq!(active_plan(), None);
        // A no-op plan normalizes to None.
        set_plan(Some(FaultPlan::none()));
        assert_eq!(active_plan(), None);
    }
}
