//! Observability for the LAN workspace: a global lock-striped metrics
//! registry, RAII timing spans, and an opt-in per-query routing trace.
//!
//! Built with zero external dependencies (std only) so every crate on the
//! hot path — `lan-pg`, `lan-ged`, `lan-gnn`, `lan-core`, `lan-bench` —
//! can depend on it without widening the dependency closure.
//!
//! # Design constraints
//!
//! * **Deterministic-NDC-safe.** Recording a metric never changes control
//!   flow: all counters are atomics, histograms are fixed arrays of
//!   atomics, and the registry lock is only taken to *resolve a name to a
//!   handle*, never inside the stripe-locked distance section of
//!   `DistCache` (callers resolve handles once at construction).
//! * **Zero-overhead when disabled.** Every record call starts with one
//!   relaxed atomic load (`enabled()`); when metrics are off nothing else
//!   happens — no `Instant::now()`, no allocation, no locking.
//!   `benchmark/` reports what observation costs as
//!   `core.trace_overhead_frac`, a traced run against an untraced one.
//! * **Allocation-light when enabled.** Hot-path increments are single
//!   `fetch_add`s on pre-resolved handles (held by the scope that records,
//!   or a [`LazyCounter`] static where there is none); only span exit
//!   formats a name (a handful of times per query).
//!
//! # Environment variables
//!
//! * `LAN_METRICS` — `0`/`off`/`false` disables the registry (default on);
//! * `LAN_TRACE` — `route` (or `1`/`all`) enables the routing trace;
//! * `LAN_TRACE_SAMPLE` — trace every N-th query id (default 1 = all);
//! * `LAN_EXPLAIN` — `1`/`on`/`jsonl` collects a per-query EXPLAIN plan
//!   (JSONL ring buffer; see [`explain`]);
//! * `LAN_PROFILE` — `1`/`on` aggregates span self-time by stack path
//!   into folded-stack output (see [`profile`]).
//!
//! # Quick tour
//!
//! ```
//! use lan_obs as obs;
//!
//! let before = obs::snapshot();
//! obs::counter(obs::names::GED_CALLS).add(3);
//! {
//!     let _span = obs::span::span("example.phase");
//!     // ... timed work ...
//! }
//! let delta = obs::snapshot().diff(&before);
//! assert!(delta.counter(obs::names::GED_CALLS) >= 3);
//! println!("{}", delta.to_json());
//! ```

pub mod explain;
pub mod export;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use metrics::{
    counter, enabled, gauge, histogram, set_enabled, snapshot, Counter, Gauge, Histogram,
    HistogramSnapshot, LazyCounter, Snapshot, TimerCell,
};
pub use span::{span, SpanGuard};

/// Catalogue of the metric names emitted by the LAN crates (the single
/// source of truth; DESIGN.md's Observability section mirrors this list).
pub mod names {
    /// Unique query↔graph distance computations (`DistCache` misses) — by
    /// construction equal to the total reported NDC of a run.
    pub const GED_CALLS: &str = "ged.calls";
    /// `DistCache` lookups answered from memory.
    pub const GED_CACHE_HIT: &str = "ged.cache.hit";
    /// `DistCache` lookups that had to compute (== [`GED_CALLS`]).
    pub const GED_CACHE_MISS: &str = "ged.cache.miss";
    /// Unique construction-time pairwise distance computations.
    pub const PAIR_CALLS: &str = "pair.calls";
    /// `PairCache` lookups answered from memory.
    pub const PAIR_CACHE_HIT: &str = "pair.cache.hit";
    /// `PairCache` lookups that had to compute (== [`PAIR_CALLS`]).
    pub const PAIR_CACHE_MISS: &str = "pair.cache.miss";
    /// Nodes explored by routing (both `np_route` stages + beam search).
    pub const ROUTE_HOPS: &str = "route.hops";
    /// Neighbor batches opened by `np_route` (Algorithms 3–4).
    pub const ROUTE_BATCHES_OPENED: &str = "route.batches_opened";
    /// Batch-opening loops stopped by the γ threshold while unopened
    /// batches remained — each one is pruned distance computations.
    pub const ROUTE_GAMMA_PRUNES: &str = "route.gamma_prunes";
    /// Cross-graph network forward passes (plain and CG).
    pub const GNN_FORWARD_CALLS: &str = "gnn.forward_calls";
    /// GIN embedding computations.
    pub const GNN_EMBED_CALLS: &str = "gnn.embed_calls";
    /// Tape-free cross-graph forwards on the inference fast path (each one
    /// also counts into [`GNN_FORWARD_CALLS`], the total over both paths).
    pub const GNN_INFER_FORWARDS: &str = "gnn.infer.forwards";
    /// Per-query pair-embedding cache lookups answered from memory.
    pub const GNN_INFER_CACHE_HIT: &str = "gnn.infer.cache.hit";
    /// Per-query pair-embedding cache misses (each one is a tape-free
    /// cross-graph forward).
    pub const GNN_INFER_CACHE_MISS: &str = "gnn.infer.cache.miss";
    /// Queries answered (one per `search_with` / merged sharded query).
    pub const QUERY_COUNT: &str = "query.count";
    /// Queries that ended with a non-`Converged` `Termination` — a
    /// budget bound or a cooperative cancellation degraded the result.
    pub const QUERY_DEGRADED: &str = "query.degraded";
    /// Queries stopped by the NDC cap (counted once per query).
    pub const BUDGET_NDC_EXHAUSTED: &str = "budget.ndc_exhausted";
    /// Queries stopped by the wall-clock deadline (once per query).
    pub const BUDGET_DEADLINE_EXCEEDED: &str = "budget.deadline_exceeded";
    /// Queries whose first stop cause was a local bound (hop cap) or a
    /// sibling-shard cancellation (once per query).
    pub const BUDGET_CANCELLED: &str = "budget.cancelled";
    /// Faults injected by the `LAN_FAULTS` harness (timeouts + failures).
    pub const FAULT_INJECTED: &str = "fault.injected";
    /// Faulted distance computations retried against the primary metric.
    pub const FAULT_RETRIED: &str = "fault.retried";
    /// Faulted computations that fell back to the approximate metric
    /// after the retry also faulted.
    pub const FAULT_FALLBACK: &str = "fault.fallback";
    /// Exact-GED timeouts recovered by recomputing with the approximate
    /// fallback metric instead of panicking.
    pub const GED_TIMEOUT_FALLBACK: &str = "ged.timeout_fallback";
    /// GED evaluations that ran a full solver to completion (ungated calls
    /// and cascade survivors). Routing asks for exact distances only, so
    /// its share equals [`GED_CALLS`] (= NDC); the rest of the count, and
    /// the work the threshold cascade saved, is the ground-truth scan's.
    pub const GED_FULL_EVALS: &str = "ged.full_evals";
    /// Threshold-gated evaluations settled by the label/size or
    /// degree-sequence lower bound alone (no solver ran).
    pub const GED_LB_PRUNE: &str = "ged.lb_prune";
    /// Threshold-gated exact evaluations aborted by branch-and-bound once
    /// every A\* branch reached the threshold.
    pub const GED_EARLY_ABORT: &str = "ged.early_abort";
    /// Routing-trace events dropped because the ring buffer was full.
    pub const TRACE_DROPPED: &str = "trace.dropped";
    /// Per-query EXPLAIN plans collected (`LAN_EXPLAIN=1`).
    pub const EXPLAIN_QUERIES: &str = "explain.queries";
    /// EXPLAIN plans dropped because the ring buffer was full.
    pub const EXPLAIN_DROPPED: &str = "explain.dropped";
    /// Span occurrences folded into the self-time profiler
    /// (`LAN_PROFILE=1`).
    pub const PROFILE_SPANS: &str = "profile.spans";
    /// Wall-clock of the last `LanIndex::save` (nanoseconds).
    pub const STORE_SAVE_NS: &str = "store.save.ns";
    /// Wall-clock of the last `LanIndex::open` (nanoseconds).
    pub const STORE_LOAD_NS: &str = "store.load.ns";
    /// Size in bytes of the last store file written or opened.
    pub const STORE_BYTES: &str = "store.bytes";
    /// Peak resident-set size of the process in kilobytes (`VmHWM` from
    /// `/proc/self/status`; 0 on non-Linux hosts). A gauge sampled at
    /// phase boundaries — see [`crate::mem::sample_peak_rss`].
    pub const MEM_PEAK_RSS_KB: &str = "mem.peak_rss_kb";
    /// Fused-head score batches executed by the cross-query combining
    /// funnel (one per `FusedHeads` matmul, however many queries fed it).
    pub const FUSED_CALLS: &str = "gnn.fused.calls";
    /// Feature rows pushed through the combining funnel (summed over all
    /// co-batched queries; `rows / calls` is the mean stacking factor).
    pub const FUSED_ROWS: &str = "gnn.fused.rows";
    /// Hop-scoring jobs submitted to the combining funnel (one per query
    /// hop; `jobs / calls > 1` means genuine cross-query stacking).
    pub const FUSED_JOBS: &str = "gnn.fused.jobs";
    /// Funnel combines that stacked rows from more than one query — the
    /// cross-query fusion the serving batcher exists to produce.
    pub const FUSED_XQUERY: &str = "gnn.fused.cross_query";
    /// Requests accepted by the serving admission gate.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Requests shed (typed `Overloaded` response) — admission caps and
    /// expired deadline budgets, never a queueing collapse.
    pub const SERVE_SHED: &str = "serve.shed";
    /// Requests currently admitted and not yet answered (gauge).
    pub const SERVE_INFLIGHT: &str = "serve.inflight";
    /// Histogram of micro-batch occupancy: shard tasks executed per
    /// batch-formation round of a shard worker.
    pub const SERVE_BATCH_OCCUPANCY: &str = "serve.batch.occupancy";
    /// Histogram of end-to-end request latency in nanoseconds (admission
    /// to response write).
    pub const SERVE_LATENCY_NS: &str = "serve.latency_ns";

    /// Per-shard NDC counter name (`shard.{i}.ndc`).
    pub fn shard_ndc(shard: usize) -> String {
        format!("shard.{shard}.ndc")
    }
}
