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
//! * [`server`] — per-shard micro-batching workers: each co-batched query
//!   runs the offline per-shard search, `ShardedLanIndex::shard_search`;
//! * [`client`] — a minimal blocking client;
//! * [`config`] — `LAN_SERVE_*` knobs through the strict `lan_par::env`
//!   parser.
//!
//! The equivalence contract — served results, NDC, and EXPLAIN tier
//! attribution bit-identical to the serial
//! `ShardedLanIndex::search_budgeted` — is property-tested end to end
//! (TCP round-trip included) in `tests/equivalence.rs`.
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
