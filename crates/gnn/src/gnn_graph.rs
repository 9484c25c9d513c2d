//! The (uncompressed) GNN-graph `H_{G,L}` (paper §III-D, after HAG \[45\]).
//!
//! An `L+1`-level DAG with one node per `(graph node, layer)` pair. Level
//! `l` node `u` has incoming edges from level `l-1` nodes `{u} ∪ N(u)` —
//! exactly the operands of the GIN aggregation. The compressed GNN-graph
//! ([`crate::cg`]) groups nodes of this DAG that are guaranteed to carry
//! identical embeddings.
//!
//! The explicit DAG is used by the HAG baseline and by tests; the plain
//! cross-graph forward works directly on the [`lan_graph::Graph`].

use lan_graph::{Graph, NodeId};

/// The GNN-graph of `g` with `levels` convolution layers.
#[derive(Debug, Clone)]
pub struct GnnGraph {
    /// Number of graph nodes (each level has this many DAG nodes).
    pub n: usize,
    /// Number of convolution layers `L` (the DAG has `L+1` levels).
    pub layers: usize,
    /// `in_neighbors[u]` = sorted operands `{u} ∪ N(u)`; identical at every
    /// level, so stored once.
    pub in_neighbors: Vec<Vec<NodeId>>,
}

impl GnnGraph {
    /// Builds the GNN-graph of `g`.
    pub fn new(g: &Graph, layers: usize) -> Self {
        let n = g.node_count();
        let in_neighbors = (0..n as NodeId)
            .map(|u| {
                let mut v: Vec<NodeId> = g.neighbors(u).to_vec();
                v.push(u);
                v.sort_unstable();
                v
            })
            .collect();
        GnnGraph {
            n,
            layers,
            in_neighbors,
        }
    }

    /// Total DAG node count `(L+1) · n`.
    pub fn node_count(&self) -> usize {
        (self.layers + 1) * self.n
    }

    /// Total DAG edge count `L · (n + 2|E|)`.
    pub fn edge_count(&self) -> usize {
        let per_level: usize = self.in_neighbors.iter().map(Vec::len).sum();
        self.layers * per_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_graph::Graph;

    #[test]
    fn fig2_gnn_graph_counts() {
        // Paper Fig. 2(c): H_{G,2} for the star G (4 nodes) has 3 levels of
        // 4 nodes. Each level transition has n + 2|E| = 4 + 6 = 10 edges.
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let h = GnnGraph::new(&g, 2);
        assert_eq!(h.node_count(), 12);
        assert_eq!(h.edge_count(), 2 * (4 + 6));
        // The center aggregates from everyone (incl. itself).
        assert_eq!(h.in_neighbors[0], vec![0, 1, 2, 3]);
        assert_eq!(h.in_neighbors[1], vec![0, 1]);
    }

    #[test]
    fn empty_graph() {
        let h = GnnGraph::new(&Graph::empty(), 2);
        assert_eq!(h.node_count(), 0);
        assert_eq!(h.edge_count(), 0);
    }
}
