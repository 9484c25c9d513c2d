//! Graph edit distance (GED) computation for the LAN system.
//!
//! The paper's distance measure (§III-A): the minimum number of edit
//! operations (node/edge insertion, node/edge deletion, node relabeling)
//! transforming one labeled undirected graph into another. Exact GED is
//! NP-hard, so this crate provides — all from scratch:
//!
//! * [`exact`]: exact A\* search with admissible lower bounds and a timeout,
//!   following the classic node-mapping formulation;
//! * [`assignment`]: two exact linear-sum-assignment solvers — a
//!   Kuhn–Munkres / potentials algorithm ("Hungarian") and a
//!   Jonker–Volgenant solver with column reduction ("LAPJV");
//! * [`bipartite`]: the Riesen–Bunke bipartite approximation (paper's
//!   "Hung" \[57\]) and the Fankhauser et al. variant ("VJ" \[56\]), both
//!   returning the *exact cost of the derived edit path* so results are
//!   guaranteed upper bounds;
//! * [`beam`]: beam-search suboptimal GED (paper's "Beam" \[58\]);
//! * [`lower_bounds`]: cheap admissible lower bounds (label multiset, size);
//! * [`engine`]: a facade selecting a method, plus the paper's ground-truth
//!   protocol (exact with timeout, else best of the three approximations).
//!
//! # Example
//!
//! ```
//! use lan_graph::Graph;
//! use lan_ged::engine::{ged, GedMethod};
//!
//! // Fig. 2 of the paper: d(G, Q) = 5 (G is the star A–{B,B,B}).
//! let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
//! let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
//! let d = ged(&g, &q, &GedMethod::Exact { timeout_ms: 1_000 }).unwrap();
//! assert_eq!(d, 5.0);
//! ```

pub mod assignment;
pub mod beam;
pub mod bipartite;
pub mod engine;
pub mod exact;
pub mod lower_bounds;
pub mod mapping;
pub mod scratch;

pub use engine::{ged, ged_within, ground_truth_ged, GedBound, GedMethod, GroundTruthConfig};
pub use exact::{set_default_poll_stride, ExactLimits};
pub use mapping::{mapping_cost, NodeMapping};
pub use scratch::GedScratch;
