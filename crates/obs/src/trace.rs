//! Opt-in per-query routing trace.
//!
//! With `LAN_TRACE=route` every `np_route` hop of a traced query is
//! recorded as one JSON object — current node and its distance, the active
//! γ threshold, how many neighbor batches the ranker produced and how many
//! were opened, and the query's running NDC / cache-hit counts — into a
//! bounded global ring buffer. Benches drain the buffer to
//! `results/trace_<bench>.jsonl` for offline analysis (the evidence
//! "Learning to Route in Similarity Graphs" tunes routing from, and the
//! distance-call counting CRouting motivates its design with).
//!
//! `LAN_TRACE_SAMPLE=N` traces only queries whose id is divisible by `N`.
//! The query id is attached with [`query`] (a thread-local RAII guard, set
//! by the harness / bench driver around each query); routing code checks
//! [`active_query`] — one relaxed load plus a thread-local read — and
//! emits nothing when no traced query is active, so the disabled path
//! costs nothing on the hot loop.

use crate::names;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Ring-buffer capacity in events; the oldest events are dropped (and
/// counted in `trace.dropped`) once the buffer is full.
pub const RING_CAPACITY: usize = 1 << 16;

/// 0 = uninitialized, 1 = routing trace on, 2 = off.
static MODE: AtomicU8 = AtomicU8::new(0);
/// 0 = uninitialized; otherwise the sample stride (≥ 1).
static SAMPLE: AtomicU64 = AtomicU64::new(0);

static RING: Mutex<VecDeque<String>> = Mutex::new(VecDeque::new());

thread_local! {
    static QUERY: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Whether the routing trace is on (`LAN_TRACE=route`, `1`, or `all`).
#[inline]
pub fn route_enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_mode(),
    }
}

#[cold]
fn init_mode() -> bool {
    let on = matches!(
        std::env::var("LAN_TRACE").as_deref(),
        Ok("route") | Ok("1") | Ok("all")
    );
    MODE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Programmatic override of `LAN_TRACE` (tests; avoids racy env mutation).
pub fn set_route_enabled(on: bool) {
    MODE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// The `LAN_TRACE_SAMPLE` stride (default 1 = trace every query).
pub fn sample_stride() -> u64 {
    match SAMPLE.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("LAN_TRACE_SAMPLE")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1);
            SAMPLE.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// RAII guard scoping the traced query id to the current thread.
pub struct QueryTrace {
    prev: Option<u64>,
    armed: bool,
}

/// Marks the dynamic extent of query `qid` on this thread. Sampling is
/// applied here: untraced queries get a disarmed guard and zero further
/// cost. Guards nest (the previous id is restored on drop).
pub fn query(qid: u64) -> QueryTrace {
    if !route_enabled() || !qid.is_multiple_of(sample_stride()) {
        return QueryTrace {
            prev: None,
            armed: false,
        };
    }
    propagate(Some(qid))
}

/// Re-attaches an already-sampled query id (or `None`) to this thread —
/// used when a traced query fans out to `lan-par` workers (per-shard
/// searches), whose thread-locals start empty.
pub fn propagate(qid: Option<u64>) -> QueryTrace {
    if !route_enabled() {
        return QueryTrace {
            prev: None,
            armed: false,
        };
    }
    let prev = QUERY.with(|q| q.replace(qid));
    QueryTrace { prev, armed: true }
}

impl Drop for QueryTrace {
    fn drop(&mut self) {
        if self.armed {
            QUERY.with(|q| q.set(self.prev));
        }
    }
}

/// The query id being traced on this thread, if any.
#[inline]
pub fn active_query() -> Option<u64> {
    if !route_enabled() {
        return None;
    }
    QUERY.with(|q| q.get())
}

/// One `np_route` hop of a traced query.
#[derive(Debug, Clone, Copy)]
pub struct HopEvent {
    pub q: u64,
    /// Hop index within the query (exploration order).
    pub hop: u32,
    /// 1 = greedy descent, 2 = γ-escalating backtracking.
    pub stage: u8,
    /// Node explored at this hop.
    pub node: u32,
    /// Its (cached) distance to the query.
    pub dist: f64,
    /// The γ threshold the hop's batch openings were judged against.
    pub gamma: f64,
    /// Neighbor count of the node.
    pub neighbors: u32,
    /// Batches the ranker produced for the node.
    pub batches_total: u32,
    /// Batches opened so far (cumulative for the node).
    pub batches_opened: u32,
    /// Query NDC after the hop (cache misses).
    pub ndc: u64,
    /// Query cache hits after the hop.
    pub cache_hits: u64,
}

/// Formats an f64 as a JSON number (finite values only on this path;
/// non-finite fall back to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Records a hop event (call only when [`active_query`] is `Some`).
pub fn emit_hop(ev: &HopEvent) {
    push(format!(
        "{{\"ev\":\"hop\",\"q\":{},\"hop\":{},\"stage\":{},\"node\":{},\"d\":{},\"gamma\":{},\"nb\":{},\"batches\":{},\"opened\":{},\"ndc\":{},\"hits\":{}}}",
        ev.q,
        ev.hop,
        ev.stage,
        ev.node,
        json_f64(ev.dist),
        json_f64(ev.gamma),
        ev.neighbors,
        ev.batches_total,
        ev.batches_opened,
        ev.ndc,
        ev.cache_hits,
    ));
}

/// Records a stage-2 γ escalation decision for a traced query.
pub fn emit_gamma(q: u64, gamma: f64) {
    push(format!(
        "{{\"ev\":\"gamma\",\"q\":{},\"gamma\":{}}}",
        q,
        json_f64(gamma)
    ));
}

/// Records how a traced query ended: its `Termination` name (e.g.
/// `"converged"`, `"ndc_budget"`) and the final NDC.
pub fn emit_end(q: u64, termination: &str, ndc: u64) {
    push(format!(
        "{{\"ev\":\"end\",\"q\":{q},\"term\":\"{termination}\",\"ndc\":{ndc}}}"
    ));
}

fn push(line: String) {
    let dropped = {
        let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
        let full = ring.len() >= RING_CAPACITY;
        if full {
            ring.pop_front();
        }
        ring.push_back(line);
        full
    };
    if dropped {
        crate::counter(names::TRACE_DROPPED).inc();
    }
}

/// Drains and returns all buffered trace lines (oldest first).
pub fn drain() -> Vec<String> {
    RING.lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect()
}

/// Number of currently buffered events.
pub fn buffered() -> usize {
    RING.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Drains the ring buffer to a JSONL file (parent directories created),
/// returning the number of lines written.
pub fn write_jsonl(path: &str) -> std::io::Result<usize> {
    let lines = drain();
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for l in &lines {
        writeln!(f, "{l}")?;
    }
    f.flush()?;
    Ok(lines.len())
}

/// Pre-registers the trace metric families so exports list them
/// (zero-valued) even before the ring ever overflows.
pub fn register_schema() {
    let _ = crate::counter(names::TRACE_DROPPED);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace unit tests share the global ring and mode switch with nothing
    // else in this binary, but serialize anyway for determinism.
    #[test]
    fn guard_sampling_and_ring_round_trip() {
        let _l = crate::metrics::test_lock();
        set_route_enabled(true);
        SAMPLE.store(2, Ordering::Relaxed);
        drain();

        {
            let _t = query(4); // 4 % 2 == 0 → traced
            assert_eq!(active_query(), Some(4));
            emit_hop(&HopEvent {
                q: 4,
                hop: 0,
                stage: 1,
                node: 9,
                dist: 3.0,
                gamma: 3.0,
                neighbors: 5,
                batches_total: 3,
                batches_opened: 1,
                ndc: 6,
                cache_hits: 2,
            });
            emit_gamma(4, 4.0);
        }
        assert_eq!(active_query(), None);
        {
            let _t = query(3); // 3 % 2 != 0 → sampled out
            assert_eq!(active_query(), None);
        }

        let lines = drain();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ev\":\"hop\""));
        assert!(lines[0].contains("\"node\":9"));
        assert!(lines[0].contains("\"d\":3"));
        assert!(lines[1].contains("\"ev\":\"gamma\""));

        SAMPLE.store(1, Ordering::Relaxed);
        set_route_enabled(false);
    }

    #[test]
    fn disabled_trace_is_inert() {
        let _l = crate::metrics::test_lock();
        set_route_enabled(false);
        let _t = query(0);
        assert_eq!(active_query(), None);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
