//! Graph neural networks for LAN: GIN, cross-graph attention, GNN-graphs,
//! and the compressed GNN-graph (CG) acceleration.
//!
//! Paper coverage:
//!
//! * [`gin`] — the GIN convolution (§III-C, Eq. 1) used as standalone graph
//!   embedder;
//! * [`cross`] — cross-graph attention learning (Definition 1) and its CG
//!   form (Definition 3), sharing one forward so Theorem 2's equivalence is
//!   exact;
//! * [`gnn_graph`] — the explicit GNN-graph DAG `H_{G,L}` (§III-D);
//! * [`cg`] — the compressed GNN-graph and Algorithm 5 (WL-based optimum
//!   construction, Theorem 4);
//! * [`features`] — one-hot label features;
//! * [`infer`] — tape-free inference forwards (query-time fast path) with
//!   reusable per-thread scratch buffers: the cross-graph forward as a
//!   rank-1 attention pooling over index-time layer-0 prefixes (within 1e-5
//!   of the tape), the GIN forward bit-identical to it.

pub mod cg;
pub mod cross;
pub mod features;
pub mod gin;
pub mod gnn_graph;
pub mod infer;

pub use cg::CompressedGnnGraph;
pub use cross::{CrossGraphNet, CrossInput, PairEmbedding};
pub use gin::{Gin, GnnConfig};
pub use gnn_graph::GnnGraph;
pub use infer::{with_scratch, CrossPrefix, InferScratch};
