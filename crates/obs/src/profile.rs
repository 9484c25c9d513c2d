//! Self-time profiler over the RAII span tree.
//!
//! With `LAN_PROFILE=1`, every closing span additionally records its
//! *stack path* — the `;`-joined names of its ancestor spans plus its own
//! (`query;query.route;gnn.forward`) — into a global aggregation map
//! keyed by path, accumulating self-time, total time, and hit count.
//! The aggregate folds directly into the flamegraph ecosystem's
//! folded-stack format ([`fold`] / [`write_folded`]): one line per path,
//! `frame;frame;frame value`, with self-time in microseconds as the
//! sample value — `inferno-flamegraph` and speedscope consume it as-is.
//! [`top_self_time`] / [`format_top`] give the quick textual top-N view.
//!
//! When `LAN_PROFILE` is unset the span drop path pays one extra relaxed
//! atomic load and nothing else (`benchmark/` reports what observation
//! costs as `core.trace_overhead_frac`, a traced run against an untraced
//! one).

use crate::names;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Enable switch (same lazy-env AtomicU8 pattern as `metrics::enabled`).
// ---------------------------------------------------------------------------

/// 0 = uninitialized (read `LAN_PROFILE` lazily), 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether span-path profiling is on (`LAN_PROFILE=1`, `on`, or `true`).
/// One relaxed load on the hot path.
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
    let on = matches!(
        std::env::var("LAN_PROFILE").as_deref(),
        Ok("1") | Ok("on") | Ok("true")
    );
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Programmatic override of `LAN_PROFILE` (tests; avoids racy env mutation).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

/// Accumulated timings for one span stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Wall-clock spent in the leaf span itself, excluding child spans.
    pub self_ns: u64,
    /// Wall-clock of the leaf span including children.
    pub total_ns: u64,
    /// Number of times the path closed.
    pub count: u64,
}

static PATHS: Mutex<Option<HashMap<String, PathStats>>> = Mutex::new(None);

fn spans_counter() -> &'static crate::Counter {
    static CELL: OnceLock<&'static crate::Counter> = OnceLock::new();
    CELL.get_or_init(|| crate::counter(names::PROFILE_SPANS))
}

/// Accumulates one closed span occurrence under its stack path. Called
/// from the span drop glue; callers gate on [`enabled`].
pub fn record(path: String, self_ns: u64, total_ns: u64) {
    spans_counter().inc();
    let mut map = PATHS.lock().unwrap_or_else(|e| e.into_inner());
    let entry = map
        .get_or_insert_with(HashMap::new)
        .entry(path)
        .or_default();
    entry.self_ns = entry.self_ns.saturating_add(self_ns);
    entry.total_ns = entry.total_ns.saturating_add(total_ns);
    entry.count += 1;
}

/// Clears the aggregate (tests and multi-phase benches).
pub fn reset() {
    if let Some(map) = PATHS.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
        map.clear();
    }
}

/// All accumulated `(path, stats)` pairs, sorted by path.
pub fn paths() -> Vec<(String, PathStats)> {
    let map = PATHS.lock().unwrap_or_else(|e| e.into_inner());
    let mut v: Vec<(String, PathStats)> = map
        .as_ref()
        .map(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
        .unwrap_or_default();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Folded-stack rendering: one `path self_time_us` line per path, sorted
/// by path — the input format of `inferno-flamegraph` / speedscope.
pub fn fold() -> String {
    let mut out = String::new();
    for (path, st) in paths() {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&(st.self_ns / 1_000).to_string());
        out.push('\n');
    }
    out
}

/// Writes [`fold`] output to a file (parent directories created),
/// returning the number of stack lines written. Does not clear the
/// aggregate — call [`reset`] for phase-scoped profiles.
pub fn write_folded(path: &str) -> std::io::Result<usize> {
    let folded = fold();
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(folded.as_bytes())?;
    f.flush()?;
    Ok(folded.lines().count())
}

/// The `n` paths with the most self-time, descending.
pub fn top_self_time(n: usize) -> Vec<(String, PathStats)> {
    let mut v = paths();
    v.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
    v.truncate(n);
    v
}

/// Textual top-N self-time table for bench stderr output.
pub fn format_top(n: usize) -> String {
    let top = top_self_time(n);
    let mut out = String::from("      self(ms)     total(ms)      count  path\n");
    for (path, st) in top {
        out.push_str(&format!(
            "  {:>12.3}  {:>12.3}  {:>9}  {}\n",
            st.self_ns as f64 / 1e6,
            st.total_ns as f64 / 1e6,
            st.count,
            path
        ));
    }
    out
}

/// Registers the `profile.*` counter family so exported snapshots carry
/// the schema even when profiling never ran (`lan-core` calls this at
/// index build time; zeros are the contract).
pub fn register_schema() {
    let _ = crate::counter(names::PROFILE_SPANS);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fold_and_top() {
        let _l = crate::metrics::test_lock();
        crate::metrics::set_enabled(true);
        reset();
        record("query".to_string(), 5_000, 12_000);
        record("query".to_string(), 3_000, 4_000);
        record("query;query.route".to_string(), 7_500, 7_500);

        let folded = fold();
        assert_eq!(folded, "query 8\nquery;query.route 7\n");

        let top = top_self_time(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, "query");
        assert_eq!(
            top[0].1,
            PathStats {
                self_ns: 8_000,
                total_ns: 16_000,
                count: 2
            }
        );
        assert!(format_top(5).contains("query;query.route"));
        reset();
        assert!(fold().is_empty());
    }

    #[test]
    fn spans_feed_profile_paths_when_enabled() {
        let _l = crate::metrics::test_lock();
        crate::metrics::set_enabled(true);
        set_enabled(true);
        reset();
        let before = crate::snapshot();
        {
            let _outer = crate::span("test.profile.outer");
            let _inner = crate::span("test.profile.inner");
        }
        set_enabled(false);
        let got = paths();
        let names: Vec<&str> = got.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            names,
            [
                "test.profile.outer",
                "test.profile.outer;test.profile.inner"
            ]
        );
        let d = crate::snapshot().diff(&before);
        assert_eq!(d.counter(crate::names::PROFILE_SPANS), 2);
        reset();
    }

    #[test]
    fn disabled_profile_records_nothing() {
        let _l = crate::metrics::test_lock();
        crate::metrics::set_enabled(true);
        set_enabled(false);
        reset();
        {
            let _g = crate::span("test.profile.disabled");
        }
        assert!(paths().is_empty());
    }
}
