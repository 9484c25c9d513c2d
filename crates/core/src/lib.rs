//! The LAN system: learning-based approximate k-NN search in graph
//! databases (Peng et al., ICDE 2022).
//!
//! * [`index`] — offline construction: proximity graph, training-distance
//!   matrix, model training, database CGs;
//! * [`query`] — online evaluation: LAN (learned initial selection +
//!   neighbor-pruned routing with CG acceleration) and every
//!   ablation/baseline combination the paper measures;
//! * [`l2route`] — the L2route baseline \[28\] on GIN embeddings;
//! * [`harness`] — recall–QPS curves, time breakdowns, and the
//!   interpolation helpers used by the figure-regeneration binaries.
//!
//! Queries run under an optional [`QueryBudget`] (NDC cap, wall-clock
//! deadline, hop cap) with cooperative cancellation across shards and
//! graceful degradation — see `lan_pg::budget` and the
//! `search_with_budget` / `search_budgeted` entry points. Deterministic
//! fault injection for distance computations lives in `lan_pg::faults`
//! (`LAN_FAULTS`).
//!
//! # Quickstart
//!
//! ```no_run
//! use lan_core::{LanConfig, LanIndex};
//! use lan_datasets::{Dataset, DatasetSpec};
//!
//! let dataset = Dataset::generate(DatasetSpec::aids().with_graphs(200));
//! let index = LanIndex::build(dataset, LanConfig::default());
//! let query = index.dataset.queries[0].clone();
//! let out = index.search(&query, 10, 20);
//! println!("top-10: {:?}, NDC = {}", out.results, out.ndc);
//! ```

pub mod harness;
pub mod index;
pub mod l2route;
pub mod query;
pub mod sharded;
pub mod store;

pub use harness::{qps_at_recall, Breakdown, CurvePoint};
pub use index::{LanConfig, LanIndex, QuantConfig};
pub use l2route::L2RouteIndex;
pub use lan_pg::budget::{BudgetCtx, QueryBudget, Termination};
pub use query::{InitStrategy, QueryOutcome, RouteStrategy, SearchShared};
pub use sharded::ShardedLanIndex;
