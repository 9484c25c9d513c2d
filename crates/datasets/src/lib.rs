//! Synthetic datasets, query workloads, and ground truth for the LAN
//! experiments.
//!
//! * [`spec`] — Table I-matched dataset specifications (AIDS / LINUX /
//!   PUBCHEM / SYN stand-ins) with the substitution rationale;
//! * [`dataset`] — deterministic generation, 6:2:2 query splits, the
//!   operational GED metric, parallel brute-force ground truth under the
//!   ground-truth metric, and recall@k.

pub mod dataset;
pub mod spec;
pub mod store;

pub use dataset::{recall_at_k, recall_at_k_ties, Dataset, WorkloadSplit};
pub use spec::{DatasetSpec, Family};
