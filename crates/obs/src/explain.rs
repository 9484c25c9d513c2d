//! Per-query EXPLAIN plans: a structured, JSON-serializable record of
//! where one query's time and distance computations went.
//!
//! A [`QueryExplain`] is assembled by `lan-core`'s `search_explain` path
//! and carries per-stage wall-clock (init / route / distance / GNN), the
//! query's NDC broken down by cascade tier (signature lower-bound prunes,
//! tau-aborted A\* runs, full solves), cache hit/miss counts, the budget
//! consumption timeline, per-shard sub-plans, and the termination cause.
//!
//! # The reconciliation contract
//!
//! Tier attribution is noted exactly once per `DistCache` **miss** (the
//! definition of NDC), never on hits or on cached-bound refinements, so
//! for every query:
//!
//! ```text
//! lb_prunes + tau_aborts + full_solves == ndc == per-query ged.calls delta
//! lookups == ndc + cache_hits
//! ```
//!
//! `crates/core/tests/explain_properties.rs` property-tests these
//! identities under shard fan-out and every budget termination cause.
//!
//! # Emission
//!
//! `LAN_EXPLAIN=1` makes `search_with_budget` collect a plan per query
//! and push its JSON line into a bounded ring buffer (mirroring the
//! routing trace); benches drain it to `results/explain_<bench>.jsonl`.
//! When the variable is unset the only cost on the query path is one
//! relaxed atomic load.

use crate::names;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Enable switch (same lazy-env AtomicU8 pattern as `metrics::enabled`).
// ---------------------------------------------------------------------------

/// 0 = uninitialized (read `LAN_EXPLAIN` lazily), 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether per-query EXPLAIN collection is on (`LAN_EXPLAIN=1`, `on`, or
/// `jsonl`). One relaxed load on the hot path.
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
        std::env::var("LAN_EXPLAIN").as_deref(),
        Ok("1") | Ok("on") | Ok("true") | Ok("jsonl")
    );
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Programmatic override of `LAN_EXPLAIN` (tests; avoids racy env mutation).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Cascade tier attribution.
// ---------------------------------------------------------------------------

/// How one distance computation (one `DistCache` miss) was settled by the
/// GED kernel cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveTier {
    /// Settled by a precomputed-signature lower bound alone (label/size
    /// or degree-sequence); no solver ran.
    LbPrune,
    /// The tau-gated exact solver aborted once every A\* branch reached
    /// the threshold.
    TauAbort,
    /// A full solver ran to completion (ungated calls, cascade survivors,
    /// and timeout fallbacks).
    FullSolve,
}

/// Per-query tier tallies, written by `DistCache` while a query runs.
/// Plain relaxed atomics — *not* gated on the metrics switch, because an
/// instance only exists when explain collection is active for the query.
#[derive(Debug, Default)]
pub struct TierCounts {
    lb_prunes: AtomicU64,
    tau_aborts: AtomicU64,
    full_solves: AtomicU64,
}

impl TierCounts {
    /// Attributes one `DistCache` miss to the tier that settled it.
    #[inline]
    pub fn note_solve(&self, tier: SolveTier) {
        let cell = match tier {
            SolveTier::LbPrune => &self.lb_prunes,
            SolveTier::TauAbort => &self.tau_aborts,
            SolveTier::FullSolve => &self.full_solves,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the tallies.
    pub fn snapshot(&self) -> TierBreakdown {
        TierBreakdown {
            lb_prunes: self.lb_prunes.load(Ordering::Relaxed),
            tau_aborts: self.tau_aborts.load(Ordering::Relaxed),
            full_solves: self.full_solves.load(Ordering::Relaxed),
        }
    }
}

/// A query's NDC decomposed by cascade tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierBreakdown {
    /// Misses settled by a signature lower bound.
    pub lb_prunes: u64,
    /// Misses settled by a tau-aborted exact solve.
    pub tau_aborts: u64,
    /// Misses that ran a full solver to completion.
    pub full_solves: u64,
}

impl TierBreakdown {
    /// Misses attributed to a tier — equals the query's NDC by the
    /// reconciliation contract.
    pub fn attributed(&self) -> u64 {
        self.lb_prunes + self.tau_aborts + self.full_solves
    }

    /// Component-wise accumulation (shard merging).
    pub fn accumulate(&mut self, other: &TierBreakdown) {
        self.lb_prunes += other.lb_prunes;
        self.tau_aborts += other.tau_aborts;
        self.full_solves += other.full_solves;
    }
}

// ---------------------------------------------------------------------------
// The plan itself.
// ---------------------------------------------------------------------------

/// The budget a query ran under and what it consumed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetExplain {
    /// NDC cap shared across the query's shard searches, if any.
    pub max_ndc: Option<u64>,
    /// Wall-clock deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Per-shard hop cap, if any.
    pub max_hops: Option<u64>,
    /// Distance computations charged against the shared cap (0 when the
    /// budget is unlimited — the unlimited path skips the accounting).
    pub spent_ndc: u64,
}

/// One point on the budget consumption timeline: cumulative NDC and
/// elapsed wall-clock when a stage finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Stage label (`"init"`, `"route"`, `"shard.3"`, ...).
    pub stage: String,
    /// Cumulative query NDC when the stage finished.
    pub ndc: u64,
    /// Elapsed nanoseconds since the query started.
    pub elapsed_ns: u64,
}

/// A per-query EXPLAIN plan. See the module docs for the reconciliation
/// contract; the JSON schema produced by [`QueryExplain::to_json`] is
/// pinned by a golden test.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryExplain {
    /// Query id (the search seed).
    pub query: u64,
    /// Result size requested.
    pub k: usize,
    /// Candidate pool size.
    pub b: usize,
    /// Initialization strategy name (`"lan_is"`, `"hnsw_is"`, `"rand_is"`).
    pub init: String,
    /// Routing strategy name (`"lan_route_cg"`, `"lan_route"`,
    /// `"hnsw_route"`).
    pub route: String,
    /// Termination cause (`Termination::as_str()`).
    pub termination: String,
    /// End-to-end wall-clock.
    pub total_ns: u64,
    /// Entry-point selection wall-clock.
    pub init_ns: u64,
    /// Routing wall-clock.
    pub route_ns: u64,
    /// Time inside the distance oracle (subset of init + route).
    pub dist_ns: u64,
    /// Time inside GNN inference (subset of route).
    pub gnn_ns: u64,
    /// Distance computations (`DistCache` misses).
    pub ndc: u64,
    /// `DistCache` lookups answered from memory.
    pub cache_hits: u64,
    /// Nodes explored by routing (exploration-order length).
    pub hops: u64,
    /// NDC decomposed by cascade tier.
    pub tiers: TierBreakdown,
    /// Budget limits and consumption.
    pub budget: BudgetExplain,
    /// Budget consumption timeline (stage completions, oldest first).
    pub timeline: Vec<TimelineEvent>,
    /// Per-shard sub-plans (empty for a single-shard search).
    pub shards: Vec<QueryExplain>,
}

impl QueryExplain {
    /// Total `DistCache` lookups (misses + hits).
    pub fn lookups(&self) -> u64 {
        self.ndc + self.cache_hits
    }

    /// Single-line JSON rendering (the JSONL emission format; schema
    /// pinned by the `explain_json_golden` test).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        let opt = |v: Option<u64>| match v {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{{\"q\":{},\"k\":{},\"b\":{},\"init\":\"{}\",\"route\":\"{}\",\"term\":\"{}\",\
             \"ns\":{{\"total\":{},\"init\":{},\"route\":{},\"dist\":{},\"gnn\":{}}},\
             \"ndc\":{},\"cache_hits\":{},\"hops\":{},\
             \"tiers\":{{\"lb_prunes\":{},\"tau_aborts\":{},\"full_solves\":{}}},\
             \"budget\":{{\"max_ndc\":{},\"deadline_ms\":{},\"max_hops\":{},\"spent\":{}}},\
             \"timeline\":[",
            self.query,
            self.k,
            self.b,
            self.init,
            self.route,
            self.termination,
            self.total_ns,
            self.init_ns,
            self.route_ns,
            self.dist_ns,
            self.gnn_ns,
            self.ndc,
            self.cache_hits,
            self.hops,
            self.tiers.lb_prunes,
            self.tiers.tau_aborts,
            self.tiers.full_solves,
            opt(self.budget.max_ndc),
            opt(self.budget.deadline_ms),
            opt(self.budget.max_hops),
            self.budget.spent_ndc,
        );
        for (i, ev) in self.timeline.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"stage\":\"{}\",\"ndc\":{},\"ns\":{}}}",
                ev.stage, ev.ndc, ev.elapsed_ns
            );
        }
        out.push_str("],\"shards\":[");
        for (i, sh) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            sh.write_json(out);
        }
        out.push_str("]}");
    }
}

// ---------------------------------------------------------------------------
// JSONL ring buffer (mirrors `trace`).
// ---------------------------------------------------------------------------

/// Ring-buffer capacity in plans; the oldest are dropped (and counted in
/// `explain.dropped`) once the buffer is full. One plan per query, so
/// this covers any realistic bench batch.
pub const RING_CAPACITY: usize = 1 << 14;

static RING: Mutex<VecDeque<String>> = Mutex::new(VecDeque::new());

/// Buffers a finished plan's JSON line for later draining and counts it
/// in `explain.queries`. Callers gate on [`enabled`].
pub fn emit(ex: &QueryExplain) {
    crate::counter(names::EXPLAIN_QUERIES).inc();
    let dropped = {
        let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
        let full = ring.len() >= RING_CAPACITY;
        if full {
            ring.pop_front();
        }
        ring.push_back(ex.to_json());
        full
    };
    if dropped {
        crate::counter(names::EXPLAIN_DROPPED).inc();
    }
}

/// Drains and returns all buffered plan lines (oldest first).
pub fn drain() -> Vec<String> {
    RING.lock()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect()
}

/// Number of currently buffered plans.
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

/// Registers the `explain.*` counter family so snapshots exported by any
/// bench carry the schema even when explain collection never ran
/// (`lan-core` calls this at index build time; zeros are the contract).
pub fn register_schema() {
    let _ = crate::counter(names::EXPLAIN_QUERIES);
    let _ = crate::counter(names::EXPLAIN_DROPPED);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryExplain {
        QueryExplain {
            query: 7,
            k: 5,
            b: 10,
            init: "lan_is".into(),
            route: "lan_route_cg".into(),
            termination: "converged".into(),
            total_ns: 1000,
            init_ns: 200,
            route_ns: 700,
            dist_ns: 600,
            gnn_ns: 150,
            ndc: 42,
            cache_hits: 11,
            hops: 9,
            tiers: TierBreakdown {
                lb_prunes: 20,
                tau_aborts: 7,
                full_solves: 15,
            },
            budget: BudgetExplain {
                max_ndc: Some(100),
                deadline_ms: None,
                max_hops: None,
                spent_ndc: 42,
            },
            timeline: vec![
                TimelineEvent {
                    stage: "init".into(),
                    ndc: 6,
                    elapsed_ns: 210,
                },
                TimelineEvent {
                    stage: "route".into(),
                    ndc: 42,
                    elapsed_ns: 930,
                },
            ],
            shards: Vec::new(),
        }
    }

    /// Golden test pinning the EXPLAIN JSON schema (the JSONL consumer
    /// contract; `lan-core`'s `obs_export` test reads these fields back).
    #[test]
    fn explain_json_golden() {
        let json = sample().to_json();
        assert_eq!(
            json,
            "{\"q\":7,\"k\":5,\"b\":10,\"init\":\"lan_is\",\"route\":\"lan_route_cg\",\
             \"term\":\"converged\",\
             \"ns\":{\"total\":1000,\"init\":200,\"route\":700,\"dist\":600,\"gnn\":150},\
             \"ndc\":42,\"cache_hits\":11,\"hops\":9,\
             \"tiers\":{\"lb_prunes\":20,\"tau_aborts\":7,\"full_solves\":15},\
             \"budget\":{\"max_ndc\":100,\"deadline_ms\":null,\"max_hops\":null,\"spent\":42},\
             \"timeline\":[{\"stage\":\"init\",\"ndc\":6,\"ns\":210},\
             {\"stage\":\"route\",\"ndc\":42,\"ns\":930}],\"shards\":[]}"
        );
    }

    #[test]
    fn nested_shard_plans_serialize() {
        let mut parent = sample();
        parent.shards = vec![sample(), sample()];
        let json = parent.to_json();
        assert_eq!(json.matches("\"q\":7").count(), 3);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn tier_counts_reconcile() {
        let t = TierCounts::default();
        t.note_solve(SolveTier::LbPrune);
        t.note_solve(SolveTier::LbPrune);
        t.note_solve(SolveTier::TauAbort);
        t.note_solve(SolveTier::FullSolve);
        let b = t.snapshot();
        assert_eq!(b.lb_prunes, 2);
        assert_eq!(b.tau_aborts, 1);
        assert_eq!(b.full_solves, 1);
        assert_eq!(b.attributed(), 4);
    }

    #[test]
    fn ring_round_trip_and_drop_counting() {
        let _l = crate::metrics::test_lock();
        crate::metrics::set_enabled(true);
        drain();
        let before = crate::snapshot();
        let ex = sample();
        for _ in 0..RING_CAPACITY + 3 {
            emit(&ex);
        }
        assert_eq!(buffered(), RING_CAPACITY);
        let d = crate::snapshot().diff(&before);
        assert_eq!(d.counter(names::EXPLAIN_QUERIES), RING_CAPACITY as u64 + 3);
        assert_eq!(d.counter(names::EXPLAIN_DROPPED), 3);
        assert_eq!(drain().len(), RING_CAPACITY);
    }
}
