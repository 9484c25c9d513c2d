//! Scoped-thread parallelism helpers shared by every LAN crate.
//!
//! The LAN cost model is dominated by expensive distance (GED) calls and
//! GNN forward passes, which makes the workload embarrassingly parallel
//! across shards, queries, and construction candidates. These helpers put
//! that parallelism behind order-preserving primitives built on
//! `std::thread::scope` — no external dependencies, no global pool, no
//! `unsafe`.
//!
//! * [`par_map_dyn`] — map a function over a slice, preserving input order;
//! * [`par_map_indices_dyn`] — the `0..n` index variant;
//! * [`par_chunks_dyn`] — hand each claimed contiguous range to one call.
//!
//! The three map helpers share one work-stealing executor: workers claim
//! [`Grain`]-sized item ranges from a shared atomic cursor, so skewed
//! per-item cost (tau-aborting A\* next to instant lower-bound prunes)
//! cannot strand the batch behind one unlucky chunk.
//!
//! Thread count comes from [`num_threads`]: the `LAN_THREADS` environment
//! variable when set (any positive integer; `1` forces every helper into
//! its serial fallback), otherwise [`std::thread::available_parallelism`],
//! asked once per process. The variable is re-read by every fan-out that
//! starts outside a worker, so tests and benchmarks can flip it at runtime.
//!
//! The caller of a fan-out is one of its workers: a fan-out over `w`
//! workers spawns `w - 1` threads and runs the remaining share on the
//! calling thread, which would otherwise only block in the join.
//!
//! # Nested fan-outs inherit a thread budget
//!
//! The helpers nest: a sharded build fans out over shards, each shard's
//! proximity-graph build fans out over the neighbors of every expansion,
//! its model training over database graphs and ranker samples. If each
//! level asked
//! [`num_threads`] for itself, `T` shard workers would spawn and join `T`
//! threads apiece thousands of times, on a host whose `T` cores are
//! already busy with the shard workers. So a fan-out of `w` workers on a
//! budget of `T` threads gives each worker the budget `max(1, T / w)` in
//! a thread-local, and a helper called from that worker uses the budget
//! in place of [`num_threads`]. With `w >= T` (2 shards on 2 cores) every
//! inner call is the plain serial loop on the worker's own thread,
//! decided before any environment variable is read; with `w < T` (2
//! shards on 4 cores) an inner call may run 2 workers, whose own inner
//! calls are serial. A fan-out that starts on a thread `lan-par` did not
//! spawn (the main thread, a test, a server's connection thread) has no
//! budget and asks [`num_threads`] as before. While the caller runs its
//! own share it carries the same per-worker budget, and gets its own back
//! when the share is done (also when the share panics).
//!
//! This is a rule for dividing threads, not a pool: threads are still
//! spawned per fan-out by `std::thread::scope` and joined before the
//! helper returns, nothing outlives a call, and there is no queue whose
//! order could leak into results.
//!
//! Determinism contract: all helpers return results in input order, so a
//! pure `f` yields output identical to the serial `items.iter().map(f)` —
//! the property the parallel == sequential equivalence tests in `lan-core`
//! rely on.

/// Serialized, scoped environment-variable mutation for tests.
///
/// Environment variables are process-wide: a test calling
/// `set_var("LAN_THREADS", ..)` under the parallel test harness races
/// every concurrent [`num_threads`] reader. [`testenv::with_env`] takes a
/// global lock for the whole closure, applies the overrides, and restores
/// the previous values afterwards — even when the closure panics. Every
/// workspace test that mutates a `LAN_*` variable (`LAN_THREADS`, the
/// budget variables, `LAN_FAULTS`) must go through it.
pub mod testenv {
    use std::sync::{Mutex, MutexGuard};

    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Holds the env lock without mutating anything — for tests that read
    /// env-sensitive state and must not interleave with a mutator.
    pub fn lock() -> MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Restores one variable to its pre-override value on drop, so the
    /// environment is clean even when the closure panics.
    struct Restore {
        key: String,
        prev: Option<String>,
    }

    impl Drop for Restore {
        fn drop(&mut self) {
            match &self.prev {
                Some(v) => std::env::set_var(&self.key, v),
                None => std::env::remove_var(&self.key),
            }
        }
    }

    /// Runs `f` with the given overrides applied (`None` unsets the
    /// variable) under the global env lock; previous values are restored
    /// afterwards, panic or not.
    pub fn with_env<R>(vars: &[(&str, Option<&str>)], f: impl FnOnce() -> R) -> R {
        let _l = lock();
        let _restore: Vec<Restore> = vars
            .iter()
            .map(|&(k, v)| {
                let prev = std::env::var(k).ok();
                match v {
                    Some(val) => std::env::set_var(k, val),
                    None => std::env::remove_var(k),
                }
                Restore {
                    key: k.to_string(),
                    prev,
                }
            })
            .collect();
        f()
    }
}

/// Strict, loud parsing of `LAN_*` environment knobs.
///
/// The historical failure mode of env-tuned systems is the silent typo:
/// `LAN_THREADS=O8` or `LAN_NDC_BUDGET=-5` would quietly fall back to a
/// default and change benchmark numbers without a trace. Every knob in the
/// workspace now parses through this module: a malformed value yields a
/// typed [`env::EnvError`] on the `try_*` paths, and the total
/// (infallible) paths print the offending value to stderr **once per key
/// per process** before falling back to the documented default.
pub mod env {
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// A malformed environment variable: which key, the raw offending
    /// value, and why it was rejected.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EnvError {
        pub key: String,
        pub value: String,
        pub reason: String,
    }

    impl std::fmt::Display for EnvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "ignoring {}={:?}: {} (using default)",
                self.key, self.value, self.reason
            )
        }
    }

    impl std::error::Error for EnvError {}

    static WARNED: Mutex<Option<HashSet<String>>> = Mutex::new(None);

    /// Prints `err` to stderr the first time its key is seen; later calls
    /// for the same key are silent (one warning per knob per process, so a
    /// hot loop re-reading the env can't spam).
    pub fn warn_once(err: &EnvError) {
        let mut g = WARNED.lock().unwrap_or_else(|e| e.into_inner());
        let set = g.get_or_insert_with(HashSet::new);
        if set.insert(err.key.clone()) {
            eprintln!("lan: {err}");
        }
    }

    /// Test hook: forgets which keys have warned, so reject-set tests can
    /// observe the warning behavior deterministically.
    pub fn reset_warnings() {
        let mut g = WARNED.lock().unwrap_or_else(|e| e.into_inner());
        *g = None;
    }

    /// Reads `key` and parses it with `parse`. Unset → `Ok(None)`; set
    /// and valid → `Ok(Some(v))`; set and malformed → `Err(EnvError)`.
    pub fn parse_var<T>(
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, EnvError> {
        match std::env::var(key) {
            Err(_) => Ok(None),
            Ok(raw) => parse(raw.trim()).map(Some).map_err(|reason| EnvError {
                key: key.to_string(),
                value: raw,
                reason,
            }),
        }
    }

    /// Total variant of [`parse_var`]: malformed values warn once to
    /// stderr and report as unset, so the caller's documented default
    /// applies.
    pub fn parse_var_or_warn<T>(
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Option<T> {
        match parse_var(key, parse) {
            Ok(v) => v,
            Err(e) => {
                warn_once(&e);
                None
            }
        }
    }

    /// Parser for a positive (non-zero) integer knob.
    pub fn positive_usize(s: &str) -> Result<usize, String> {
        let n: usize = s
            .parse()
            .map_err(|_| format!("expected a positive integer, got {s:?}"))?;
        if n == 0 {
            return Err("must be >= 1".into());
        }
        Ok(n)
    }

    /// Parser for a non-negative integer knob (zero allowed).
    pub fn any_usize(s: &str) -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("expected a non-negative integer, got {s:?}"))
    }
}

/// Worker count used by the helpers, as a `Result`: the `LAN_THREADS`
/// override when set and valid, the host's available parallelism when
/// unset, and a typed [`env::EnvError`] when set but malformed
/// (non-numeric, negative, or zero — a zero-thread pool cannot make
/// progress, so it is rejected rather than clamped).
pub fn try_num_threads() -> Result<usize, env::EnvError> {
    Ok(env::parse_var("LAN_THREADS", env::positive_usize)?.unwrap_or_else(host_threads))
}

/// Worker count used by the helpers: `LAN_THREADS` env override when set,
/// else the host's available parallelism. `LAN_THREADS` is re-read on every
/// call; the host value is read once per process. A malformed override
/// (including `0`) warns once on stderr and falls back to the host
/// parallelism — it no longer silently clamps.
pub fn num_threads() -> usize {
    try_num_threads().unwrap_or_else(|e| {
        env::warn_once(&e);
        host_threads()
    })
}

/// The host's parallelism, once known (see [`host_threads`]).
static HOST_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// [`std::thread::available_parallelism`] (4 when it fails), asked once per
/// process: on Linux it reads cgroup files, ~15 µs a call, which every
/// top-level fan-out would otherwise pay.
fn host_threads() -> usize {
    *HOST_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    })
}

/// Grain-size policy of the work-stealing executor: how many consecutive
/// items one cursor claim hands a worker.
///
/// Small grains maximize balance but pay one atomic RMW plus one mutex
/// push per grain; large grains amortize that overhead but re-introduce
/// the idle-tail problem on skewed work. The policy:
///
/// * [`Grain::Fine`] — grain 1, for skewed expensive items (GED/A\* solves,
///   whole queries, shard builds) where per-item cost dwarfs scheduling
///   overhead and imbalance is the enemy;
/// * [`Grain::Coarse`] — ~4 chunks per worker, for cheap uniform items
///   (signature lower-bound scans, embedding batches) where scheduling
///   overhead would dominate single items;
/// * [`Grain::Auto`] — ~8 chunks per worker (capped at 256 items), a
///   middle ground for mildly skewed work;
/// * [`Grain::Fixed`]`(n)` — explicit override for benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grain {
    Fine,
    Auto,
    Coarse,
    Fixed(usize),
}

impl Grain {
    /// Concrete grain size for `len` items on `threads` workers.
    pub fn size(self, len: usize, threads: usize) -> usize {
        let t = threads.max(1);
        match self {
            Grain::Fine => 1,
            Grain::Auto => len.div_ceil(t * 8).clamp(1, 256),
            Grain::Coarse => len.div_ceil(t * 4).clamp(1, 4096),
            Grain::Fixed(n) => n.max(1),
        }
    }
}

thread_local! {
    /// Threads a fan-out started from this thread may use: `0` on a thread
    /// no helper spawned (ask [`num_threads`]), otherwise this worker's
    /// share of the fan-out it works for. A spawned worker lives for one
    /// fan-out, so it sets the value once; a caller running its own share
    /// sets it for that share and restores it afterwards ([`FanOut::on_caller`]).
    static BUDGET: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Threads a fan-out started from this thread may use: the inherited
/// budget on a worker, [`num_threads`] anywhere else.
fn budget() -> usize {
    match BUDGET.with(|b| b.get()) {
        0 => num_threads(),
        inherited => inherited,
    }
}

/// How one fan-out divides its threads.
#[derive(Clone, Copy)]
struct FanOut {
    /// Threads to spawn (at most one per item).
    workers: usize,
    /// The budget each of them hands to the fan-outs it starts.
    inner: usize,
}

impl FanOut {
    /// The division for `len` items: this thread's inherited budget, or
    /// [`num_threads`] outside any worker, spread over `min(budget, len)`
    /// workers. `None` when that is a single worker — run the serial loop.
    ///
    /// At most one item, or a worker whose share of the enclosing fan-out
    /// is one thread, is decided first: a serial fallback there costs one
    /// thread-local read — no environment lookup, no lock, no `String`.
    fn over(len: usize) -> Option<Self> {
        if len <= 1 || BUDGET.with(|b| b.get()) == 1 {
            return None;
        }
        let budget = budget();
        let workers = budget.min(len);
        (workers > 1).then_some(FanOut {
            workers,
            // workers <= budget, so every worker gets at least one thread.
            inner: budget / workers,
        })
    }

    /// Marks the calling (freshly spawned) thread as one of this fan-out's
    /// workers.
    fn enter(self) {
        BUDGET.with(|b| b.set(self.inner));
    }

    /// Runs `f` on the thread that started the fan-out, as one of its
    /// workers: the budget is `inner` while `f` runs and the caller's own
    /// again afterwards, also when `f` panics.
    fn on_caller<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                BUDGET.with(|b| b.set(self.0));
            }
        }
        let _restore = Restore(BUDGET.with(|b| b.replace(self.inner)));
        f()
    }
}

/// Shared work-stealing driver: workers claim `[start, start+grain)` item
/// ranges from an atomic cursor until it passes `len`, run `run_chunk`
/// on each claimed range, and the per-range outputs are re-assembled in
/// input order. The caller is one of the `fan.workers` workers, so
/// `workers - 1` threads are spawned. A panic in `run_chunk` propagates
/// after the scope joins (sibling workers drain the remaining ranges
/// first).
fn dyn_run<R, F>(len: usize, fan: FanOut, grain: usize, run_chunk: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> Vec<R> + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(len.div_ceil(grain)));
    let work = || loop {
        let start = cursor.fetch_add(grain, Ordering::Relaxed);
        if start >= len {
            break;
        }
        let end = (start + grain).min(len);
        let out = run_chunk(start, end);
        parts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((start, out));
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..fan.workers)
            .map(|_| {
                s.spawn(|| {
                    fan.enter();
                    work()
                })
            })
            .collect();
        fan.on_caller(work);
        for h in handles {
            h.join().expect("work-stealing worker panicked");
        }
    });
    let mut parts = parts.into_inner().unwrap_or_else(|e| e.into_inner());
    parts.sort_unstable_by_key(|&(start, _)| start);
    parts.into_iter().flat_map(|(_, v)| v).collect()
}

/// Work-stealing, order-preserving map over a slice: for a pure `f` the
/// output is bit-identical to the serial `items.iter().map(f)`. Items are
/// claimed in `grain`-sized ranges from a shared cursor, so skewed
/// per-item cost cannot strand work behind one slow worker; a single
/// worker runs the plain serial map. Panics in `f` propagate.
pub fn par_map_dyn<T, R, F>(items: &[T], grain: Grain, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let Some(fan) = FanOut::over(items.len()) else {
        return items.iter().map(f).collect();
    };
    let g = grain.size(items.len(), fan.workers);
    dyn_run(items.len(), fan, g, |start, end| {
        items[start..end].iter().map(&f).collect()
    })
}

/// [`par_map_dyn`] over the index range `0..n` (no index buffer needed).
pub fn par_map_indices_dyn<R, F>(n: usize, grain: Grain, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let Some(fan) = FanOut::over(n) else {
        return (0..n).map(f).collect();
    };
    let g = grain.size(n, fan.workers);
    dyn_run(n, fan, g, |start, end| (start..end).map(&f).collect())
}

/// Hands each claimed contiguous range of `items` to `f` with its starting
/// offset, and concatenates the per-range outputs in input order. Use this
/// instead of [`par_map_dyn`] when a worker can share work across a whole
/// range (e.g. batch accumulators).
///
/// The range boundaries depend on the worker count and the grain, so `f`
/// must be chunk-homomorphic — `f(o, ab)` must equal `f(o, a) ++ f(o + |a|,
/// b)` — for the output to be identical across thread counts. Per-item maps that only use the
/// offset to label items satisfy this trivially.
pub fn par_chunks_dyn<T, R, F>(items: &[T], grain: Grain, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let Some(fan) = FanOut::over(items.len()) else {
        return f(0, items);
    };
    let g = grain.size(items.len(), fan.workers);
    dyn_run(items.len(), fan, g, |start, end| {
        f(start, &items[start..end])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The only test that mutates LAN_THREADS — through the serialized
    // testenv helper (raw set_var raced concurrent num_threads readers
    // under the parallel test harness).
    #[test]
    fn lan_threads_env_override() {
        testenv::with_env(&[("LAN_THREADS", Some("1"))], || {
            assert_eq!(num_threads(), 1);
            let items: Vec<u32> = (0..20).collect();
            assert_eq!(par_map_dyn(&items, Grain::Auto, |&x| x + 1).len(), 20);
        });
        testenv::with_env(&[("LAN_THREADS", Some("4"))], || {
            assert_eq!(num_threads(), 4);
        });
        // The override is gone once the scope closes.
        testenv::with_env(&[("LAN_THREADS", None)], || {
            assert!(num_threads() >= 1);
        });
    }

    #[test]
    fn host_parallelism_is_cached_while_lan_threads_is_reread() {
        testenv::with_env(&[("LAN_THREADS", None)], || {
            let host = num_threads();
            assert_eq!(HOST_THREADS.get(), Some(&host), "asked once, then kept");
            assert_eq!(num_threads(), host);
        });
        for (raw, want) in [("3", 3), ("1", 1), ("5", 5)] {
            testenv::with_env(&[("LAN_THREADS", Some(raw))], || {
                assert_eq!(num_threads(), want, "LAN_THREADS={raw} must be re-read");
            });
        }
    }

    #[test]
    fn caller_share_restores_the_budget() {
        let _l = testenv::lock();
        let fan = FanOut {
            workers: 2,
            inner: 3,
        };
        for before in [0, 1, 6] {
            BUDGET.with(|b| b.set(before));
            let inside = fan.on_caller(|| BUDGET.with(|b| b.get()));
            assert_eq!(inside, 3);
            assert_eq!(BUDGET.with(|b| b.get()), before);
            let r = std::panic::catch_unwind(|| fan.on_caller(|| panic!("share panicked")));
            assert!(r.is_err());
            assert_eq!(BUDGET.with(|b| b.get()), before, "restored on panic");
        }
        BUDGET.with(|b| b.set(0));
    }

    #[test]
    fn lan_threads_reject_set_is_loud_not_silent() {
        // Every malformed LAN_THREADS value must produce a typed error
        // from the fallible path and fall back to host parallelism on the
        // total path — never a silent clamp.
        for bad in ["0", "-3", "abc", "1.5", "", "0x8", "  "] {
            testenv::with_env(&[("LAN_THREADS", Some(bad))], || {
                let err = try_num_threads().expect_err(bad);
                assert_eq!(err.key, "LAN_THREADS");
                assert_eq!(err.value, bad);
                assert!(num_threads() >= 1, "total path must still work");
            });
        }
        for good in ["1", "2", " 8 "] {
            testenv::with_env(&[("LAN_THREADS", Some(good))], || {
                let n = try_num_threads().unwrap();
                assert_eq!(n, good.trim().parse::<usize>().unwrap());
                assert_eq!(num_threads(), n);
            });
        }
    }

    #[test]
    fn env_warnings_fire_once_per_key() {
        let e = env::EnvError {
            key: "LAN_WARN_PROBE".into(),
            value: "x".into(),
            reason: "test".into(),
        };
        env::reset_warnings();
        // Both calls go through; the dedup set must register the key.
        env::warn_once(&e);
        env::warn_once(&e);
        env::reset_warnings();
        env::warn_once(&e);
    }

    #[test]
    fn env_parsers() {
        assert_eq!(env::positive_usize("3"), Ok(3));
        assert!(env::positive_usize("0").is_err());
        assert!(env::positive_usize("-1").is_err());
        assert!(env::positive_usize("x").is_err());
        assert_eq!(env::any_usize("0"), Ok(0));
        assert!(env::any_usize("-5").is_err());
    }

    #[test]
    fn with_env_restores_on_panic() {
        let before = std::env::var("LAN_TESTENV_PROBE").ok();
        let r = std::panic::catch_unwind(|| {
            testenv::with_env(&[("LAN_TESTENV_PROBE", Some("boom"))], || {
                panic!("inside with_env");
            })
        });
        assert!(r.is_err());
        assert_eq!(std::env::var("LAN_TESTENV_PROBE").ok(), before);
    }
}
