//! `lan-serve`: the online k-ANN query service.
//!
//! The offline pipeline (`lan-core`) answers one query per call; this
//! crate turns a built [`ShardedLanIndex`] into a network service that
//! answers many concurrent queries *faster in aggregate than serially*,
//! without changing a single result bit:
//!
//! * [`proto`] — length-prefixed JSON frames over TCP, plus a
//!   `GET /metrics` Prometheus endpoint on the same port;
//! * [`admission`] — global in-flight cap with per-tenant fair share;
//! * [`server`] — one thread per connection, on which each admitted query
//!   runs the offline sharded search, `ShardedLanIndex::search_budgeted`;
//! * [`client`] — a minimal blocking client;
//! * [`config`] — `LAN_SERVE_*` knobs through the strict `lan_par::env`
//!   parser.
//!
//! The equivalence contract — served results, NDC, termination and
//! EXPLAIN tier attribution bit-identical to the offline
//! `ShardedLanIndex::search_budgeted`, finite NDC budgets included — is
//! property-tested end to end (TCP round-trip included) in
//! `tests/equivalence.rs`.
//!
//! [`ShardedLanIndex`]: lan_core::ShardedLanIndex

pub mod admission;
pub mod client;
pub mod config;
pub mod proto;
pub mod server;

pub use admission::{Admission, AdmitError};
pub use client::{Client, SearchCall};
pub use config::ServeConfig;
pub use proto::{OkResponse, Response};
pub use server::{serve, ServerHandle};
