//! Proximity-graph index and routing for LAN.
//!
//! * [`metric`] — query/pair distance traits with memoization and the
//!   paper's NDC accounting;
//! * [`build`] — HNSW-style hierarchical proximity-graph construction and
//!   the `HNSW_IS` entry selection;
//! * [`pool`] — the candidate pool `W` with the paper's exact tie-breaking;
//! * [`routing`] — Algorithm 1, the exhaustive beam-search baseline;
//! * [`np_route`](mod@np_route) — Algorithms 2–4, routing with neighbor pruning, generic
//!   over a [`np_route::NeighborRanker`] (oracle here; the learned ranker
//!   lives in `lan-models`);
//! * [`budget`] — per-query NDC/deadline/hop budgets with cooperative
//!   cancellation and graceful degradation ([`budget::Termination`]);
//! * [`faults`] — deterministic fault injection at the distance boundary
//!   (`LAN_FAULTS`) with a retry-then-fallback recovery policy.
//!
//! The Lemma 1 / Theorem 1 guarantees (same exploration sequence, same
//! results, NDC no larger) are enforced by randomized property tests, and
//! the budget layer adds its own: an unlimited budget is bit-identical to
//! unbudgeted routing; a finite one strictly bounds NDC.

pub mod budget;
pub mod build;
pub mod faults;
pub mod metric;
pub mod np_route;
pub mod pool;
pub mod routing;
pub mod store;

pub use budget::{budgeted_get, budgeted_get_within, BudgetCtx, QueryBudget, Termination};
pub use build::{brute_force_knn, PgConfig, ProximityGraph};
pub use faults::{FaultMetrics, FaultPlan};
pub use metric::{DistBound, DistCache, PairCache, PairDistance, QueryDistance};
pub use np_route::{np_route, np_route_budgeted, NeighborRanker, NoPruneRanker, OracleRanker};
pub use routing::{beam_search, beam_search_budgeted, RouteResult};
