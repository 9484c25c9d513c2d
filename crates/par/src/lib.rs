//! Scoped-thread parallelism helpers shared by every LAN crate.
//!
//! The LAN cost model is dominated by expensive distance (GED) calls and
//! GNN forward passes, which makes the workload embarrassingly parallel
//! across shards, queries, and construction candidates. These helpers put
//! that parallelism behind order-preserving primitives built on
//! `std::thread::scope` — no external dependencies, no global pool, no
//! `unsafe`.
//!
//! * [`join`] — run two closures, the second on a spawned thread, and
//!   return both results (one `BestOfThree` GED call forks its Hungarian
//!   solve from its VJ and beam solves this way);
//! * [`par_map`] — map a function over a slice, preserving input order;
//! * [`par_map_indices`] — the `0..n` index variant;
//! * [`par_chunks`] — hand each worker a contiguous sub-slice;
//! * [`par_map_dyn`] / [`par_map_indices_dyn`] / [`par_chunks_dyn`] — the
//!   work-stealing variants: workers claim [`Grain`]-sized item ranges
//!   from a shared atomic cursor, so skewed per-item cost (tau-aborting
//!   A\* next to instant lower-bound prunes) cannot strand the batch
//!   behind one unlucky static chunk. `LAN_SCHED` pins the executor
//!   (`seq` / `static` / `ws`) for equivalence tests and benchmarks.
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
//! spawn (the main thread, a server's shard worker, a test) has no
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
/// top-level fan-out and every [`join`] would otherwise pay.
fn host_threads() -> usize {
    *HOST_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    })
}

/// Execution scheduler used by the dynamic helpers ([`par_map_dyn`],
/// [`par_chunks_dyn`]), selected by the `LAN_SCHED` environment variable.
///
/// GED-heavy fan-outs are *skewed*: one item can cost a tau-aborting A\*
/// solve while its neighbors are settled by instant lower-bound prunes.
/// Static one-contiguous-chunk-per-worker scheduling then leaves workers
/// idle behind whichever chunk drew the hard items; the work-stealing
/// executor instead hands out small grains from a shared atomic cursor, so
/// a fast worker immediately claims the next chunk. All three modes are
/// bit-identical in their outputs (property-tested) — the knob exists so
/// benchmarks and tests can pin a mode and compare wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// Serial loop on the calling thread (`LAN_SCHED=seq`).
    Sequential,
    /// One contiguous chunk per worker (`LAN_SCHED=static`) — the PR-1
    /// scheduling, kept as the regression reference.
    Static,
    /// Chunked atomic-cursor work stealing (`LAN_SCHED=ws`, the default).
    WorkStealing,
}

impl Sched {
    /// Stable name for bench artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            Sched::Sequential => "sequential",
            Sched::Static => "static",
            Sched::WorkStealing => "work_stealing",
        }
    }
}

/// The scheduler as a `Result`: `LAN_SCHED` when set and valid (`seq` /
/// `sequential`, `static`, `ws` / `steal` / `dyn`), work stealing when
/// unset, and a typed [`env::EnvError`] when set but malformed.
pub fn try_sched() -> Result<Sched, env::EnvError> {
    let parsed = env::parse_var("LAN_SCHED", |s| match s.to_ascii_lowercase().as_str() {
        "seq" | "sequential" => Ok(Sched::Sequential),
        "static" => Ok(Sched::Static),
        "ws" | "steal" | "work-stealing" | "dyn" => Ok(Sched::WorkStealing),
        _ => Err(format!("expected seq|static|ws, got {s:?}")),
    })?;
    Ok(parsed.unwrap_or(Sched::WorkStealing))
}

/// Scheduler used by the dynamic helpers: `LAN_SCHED` override when set
/// (re-read on every call, like [`num_threads`]), else work stealing. A
/// malformed value warns once on stderr and falls back to the default.
pub fn sched() -> Sched {
    match try_sched() {
        Ok(s) => s,
        Err(e) => {
            env::warn_once(&e);
            Sched::WorkStealing
        }
    }
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
/// * [`Grain::Fixed(n)`] — explicit override for benchmarks.
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

/// True when a fan-out over `len` items from this thread is the plain
/// serial loop whatever the environment says: at most one item, or a
/// worker whose share of the enclosing fan-out is one thread. Every
/// helper asks this first, so a serial fallback costs one thread-local
/// read — no environment lookup, no lock, no `String`.
fn must_run_serial(len: usize) -> bool {
    len <= 1 || BUDGET.with(|b| b.get()) == 1
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
    fn over(len: usize) -> Option<Self> {
        if must_run_serial(len) {
            return None;
        }
        let budget = match BUDGET.with(|b| b.get()) {
            0 => num_threads(),
            inherited => inherited,
        };
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

/// Runs `a` and `b`, in parallel when the thread budget allows, and returns
/// `(a(), b())`.
///
/// `b` runs on one spawned scoped thread and `a` on the caller; each side
/// gets half of the caller's budget for the fan-outs (and joins) it starts,
/// under the nesting rule above. When the budget is one thread — inside a
/// saturated fan-out, or under `LAN_THREADS=1` — this is the plain
/// `(a(), b())` on the caller, decided by one thread-local read on a
/// worker. A spawn and join costs 34–38 µs on a 2-core x86-64 host, so
/// fork only work well above that. A panic in either closure propagates once both have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let Some(fan) = FanOut::over(2) else {
        return (a(), b());
    };
    std::thread::scope(|s| {
        let hb = s.spawn(move || {
            fan.enter();
            b()
        });
        let ra = fan.on_caller(a);
        let rb = hb
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (ra, rb)
    })
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

/// Work-stealing, order-preserving map over a slice.
///
/// Semantically identical to [`par_map`] — for a pure `f` the output is
/// bit-identical to the serial `items.iter().map(f)` in input order — but
/// items are claimed dynamically in `grain`-sized ranges from a shared
/// cursor, so skewed per-item cost cannot strand work behind one slow
/// worker. `LAN_SCHED` can force the serial or static path (same output).
pub fn par_map_dyn<T, R, F>(items: &[T], grain: Grain, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if must_run_serial(items.len()) {
        return items.iter().map(f).collect();
    }
    match sched() {
        Sched::Sequential => return items.iter().map(f).collect(),
        Sched::Static => return par_map(items, f),
        Sched::WorkStealing => {}
    }
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
    if must_run_serial(n) {
        return (0..n).map(f).collect();
    }
    match sched() {
        Sched::Sequential => return (0..n).map(f).collect(),
        Sched::Static => return par_map_indices(n, f),
        Sched::WorkStealing => {}
    }
    let Some(fan) = FanOut::over(n) else {
        return (0..n).map(f).collect();
    };
    let g = grain.size(n, fan.workers);
    dyn_run(n, fan, g, |start, end| (start..end).map(&f).collect())
}

/// Work-stealing variant of [`par_chunks`]: each dynamically claimed range
/// is handed to `f` with its starting offset, and per-range outputs are
/// concatenated in input order.
///
/// Like [`par_chunks`], the chunk boundaries depend on the worker count
/// (and here on the grain), so `f` must be chunk-homomorphic — `f(o, ab)`
/// must equal `f(o, a) ++ f(o + |a|, b)` — for the output to be identical
/// across schedulers and thread counts. Per-item maps that only use the
/// offset to label items satisfy this trivially.
pub fn par_chunks_dyn<T, R, F>(items: &[T], grain: Grain, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    if must_run_serial(items.len()) {
        return f(0, items);
    }
    match sched() {
        Sched::Sequential => return f(0, items),
        Sched::Static => return par_chunks(items, f),
        Sched::WorkStealing => {}
    }
    let Some(fan) = FanOut::over(items.len()) else {
        return f(0, items);
    };
    let g = grain.size(items.len(), fan.workers);
    dyn_run(items.len(), fan, g, |start, end| {
        f(start, &items[start..end])
    })
}

/// Parallel, order-preserving map over a slice.
///
/// Splits `items` into one contiguous chunk per worker (the caller maps
/// the first); falls back to a plain serial map when a single worker
/// suffices. Panics in `f` propagate.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_chunks(items, |_, c| c.iter().map(&f).collect())
}

/// [`par_map`] over the index range `0..n`.
pub fn par_map_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if must_run_serial(n) {
        return (0..n).map(f).collect();
    }
    let idx: Vec<usize> = (0..n).collect();
    par_map(&idx, |&i| f(i))
}

/// Hands each worker one contiguous chunk of `items` (with the chunk's
/// starting offset) and concatenates the per-chunk outputs in order.
///
/// Use this instead of [`par_map`] when per-item closures would waste work
/// that a worker can share across its whole chunk (e.g. batch accumulators).
pub fn par_chunks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> Vec<R> + Sync,
{
    let Some(fan) = FanOut::over(items.len()) else {
        return f(0, items);
    };
    let chunk = items.len().div_ceil(fan.workers);
    let (first, rest) = items.split_at(chunk);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = rest
            .chunks(chunk)
            .enumerate()
            .map(|(ci, c)| {
                s.spawn(move || {
                    fan.enter();
                    f((ci + 1) * chunk, c)
                })
            })
            .collect();
        let mut out = fan.on_caller(|| f(0, first));
        for h in handles {
            out.extend(h.join().expect("par_chunks worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..101).collect();
        let out = par_map(&items, |&x| x * 2);
        let serial: Vec<u32> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn par_map_runs_every_item_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u32> = (0..57).collect();
        let out = par_map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(out.len(), 57);
        assert_eq!(calls.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x: &u32| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x * 3), vec![21]);
    }

    #[test]
    fn par_map_indices_matches_range() {
        let out = par_map_indices(10, |i| i * i);
        let serial: Vec<usize> = (0..10).map(|i| i * i).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn par_chunks_concatenates_in_order() {
        let items: Vec<u32> = (0..37).collect();
        let out = par_chunks(&items, |offset, c| {
            c.iter()
                .enumerate()
                .map(|(i, &x)| (offset + i, x))
                .collect()
        });
        for (i, &(idx, x)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(x, i as u32);
        }
    }

    // The only test that mutates LAN_THREADS — through the serialized
    // testenv helper (raw set_var raced concurrent num_threads readers
    // under the parallel test harness).
    #[test]
    fn lan_threads_env_override() {
        testenv::with_env(&[("LAN_THREADS", Some("1"))], || {
            assert_eq!(num_threads(), 1);
            let items: Vec<u32> = (0..20).collect();
            assert_eq!(par_map(&items, |&x| x + 1).len(), 20);
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
