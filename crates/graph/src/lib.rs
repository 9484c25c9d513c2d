//! Labeled undirected graphs for the LAN graph-database system.
//!
//! This crate is the bottom-most substrate of the workspace: it defines the
//! [`Graph`] type studied by the paper (undirected, node-labeled, simple
//! graphs), Weisfeiler–Lehman labeling ([`wl`]) used both as a GNN-equivalent
//! invariant and to build compressed GNN-graphs, random graph
//! [`generators`], edit [`perturb`](mod@perturb)ation used to derive query workloads, and
//! a plain-text [`io`] format.
//!
//! # Example
//!
//! ```
//! use lan_graph::{Graph, GraphBuilder};
//!
//! // The data graph G of Fig. 2(a) in the paper: one 'A' node attached to a
//! // triangle of 'B' nodes (labels encoded as integers: A = 0, B = 1).
//! let mut b = GraphBuilder::new();
//! let v0 = b.add_node(0);
//! let v1 = b.add_node(1);
//! let v2 = b.add_node(1);
//! let v3 = b.add_node(1);
//! b.add_edge(v0, v1).unwrap();
//! b.add_edge(v1, v2).unwrap();
//! b.add_edge(v2, v3).unwrap();
//! b.add_edge(v3, v1).unwrap();
//! let g: Graph = b.build();
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.degree(v1), 3);
//! ```

pub mod codec;
pub mod generators;
pub mod graph;
pub mod io;
pub mod perturb;
pub mod wl;

pub use graph::{Graph, GraphBuilder, GraphError, GraphSignature, Label, NodeId};
pub use perturb::{perturb, EditKind};
pub use wl::{wl_histogram, wl_labels, WlLabeling};
