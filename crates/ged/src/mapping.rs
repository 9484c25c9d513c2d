//! Node mappings and the exact cost of their induced edit paths.
//!
//! Every GED algorithm in this crate — exact A\*, the bipartite
//! approximations, and beam search — ultimately produces a *node mapping*
//! `phi : V(G1) -> V(G2) ∪ {ε}` (unhit `V(G2)` nodes are inserted). The cost
//! of the edit path induced by a mapping is computed here in one place, so
//! every approximation returns a genuine upper bound on the true GED.

use lan_graph::{Graph, NodeId};

/// Sentinel for "deleted" (mapped to ε).
pub const EPS: NodeId = NodeId::MAX;

/// A complete node mapping from `g1` to `g2`: `map[u] == EPS` means node `u`
/// of `g1` is deleted, otherwise `u` is substituted by node `map[u]` of `g2`.
/// Nodes of `g2` not in the image are inserted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMapping {
    pub map: Vec<NodeId>,
}

impl NodeMapping {
    /// The identity mapping for graphs with the same node count.
    pub fn identity(n: usize) -> Self {
        NodeMapping {
            map: (0..n as NodeId).collect(),
        }
    }

    /// True if no two `g1` nodes map to the same `g2` node.
    pub fn is_injective(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.map.iter().all(|&v| v == EPS || seen.insert(v))
    }
}

/// Exact cost (unit cost model, paper §III-A) of the edit path induced by
/// `phi`:
///
/// * node relabels: mapped pairs with different labels;
/// * node deletions: `g1` nodes mapped to ε;
/// * node insertions: `g2` nodes not in the image;
/// * edge deletions: `g1` edges whose image is not a `g2` edge;
/// * edge insertions: `g2` edges that are not the image of any `g1` edge.
///
/// Panics in debug builds if `phi` is not injective or has wrong length.
pub fn mapping_cost(g1: &Graph, g2: &Graph, phi: &NodeMapping) -> f64 {
    debug_assert!(phi.is_injective());
    mapping_cost_with(g1, g2, &phi.map, &mut Vec::new())
}

/// [`mapping_cost`] over a bare mapping slice, with the image mask in the
/// caller's `hit` buffer — the allocation-free form behind every
/// approximate distance.
pub(crate) fn mapping_cost_with(
    g1: &Graph,
    g2: &Graph,
    map: &[NodeId],
    hit: &mut Vec<bool>,
) -> f64 {
    debug_assert_eq!(map.len(), g1.node_count());
    let n2 = g2.node_count();
    let mut cost = 0u64;

    // Node operations.
    hit.clear();
    hit.resize(n2, false);
    for u in g1.nodes() {
        let v = map[u as usize];
        if v == EPS {
            cost += 1; // deletion
        } else {
            debug_assert!((v as usize) < n2, "mapping target out of range");
            hit[v as usize] = true;
            if g1.label(u) != g2.label(v) {
                cost += 1; // relabel
            }
        }
    }
    cost += hit.iter().filter(|&&h| !h).count() as u64; // insertions

    // Edge operations: g1 edges that survive (both endpoints substituted and
    // image edge exists) are matched; every other g1 edge is deleted; every
    // g2 edge not matched is inserted.
    let mut matched_g2_edges = 0u64;
    for (u, w) in g1.edges() {
        let (pu, pw) = (map[u as usize], map[w as usize]);
        if pu != EPS && pw != EPS && g2.has_edge(pu, pw) {
            matched_g2_edges += 1;
        } else {
            cost += 1; // deletion
        }
    }
    cost += g2.edge_count() as u64 - matched_g2_edges; // insertions

    cost as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_graph::Graph;

    fn path3(labels: [u16; 3]) -> Graph {
        Graph::from_edges(labels.to_vec(), &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn identity_on_same_graph_is_zero() {
        let g = path3([0, 1, 2]);
        assert_eq!(mapping_cost(&g, &g, &NodeMapping::identity(3)), 0.0);
    }

    #[test]
    fn relabel_costs_one() {
        let g = path3([0, 1, 2]);
        let h = path3([0, 9, 2]);
        assert_eq!(mapping_cost(&g, &h, &NodeMapping::identity(3)), 1.0);
    }

    #[test]
    fn delete_node_with_edges() {
        // Deleting the middle of a path: 1 node + 2 incident edge deletions,
        // and the isolated remaining layout of g2 forces insertions.
        let g = path3([0, 0, 0]);
        let h = Graph::from_edges(vec![0, 0], &[(0, 1)]).unwrap();
        // map 0->0, 1->eps, 2->1: delete node 1 (+1), delete edges (0,1),(1,2)
        // (+2), then g2 edge (0,1) must be inserted (+1) => 4.
        let phi = NodeMapping {
            map: vec![0, EPS, 1],
        };
        assert_eq!(mapping_cost(&g, &h, &phi), 4.0);
    }

    #[test]
    fn insertions_for_unhit_targets() {
        let g = Graph::from_edges(vec![0], &[]).unwrap();
        let h = path3([0, 0, 0]);
        let phi = NodeMapping { map: vec![0] };
        // insert 2 nodes + 2 edges
        assert_eq!(mapping_cost(&g, &h, &phi), 4.0);
    }

    #[test]
    fn fig2_mapping_cost_is_five() {
        // Paper Example 1: d(G, Q) = 5. Fig. 2(a)'s G is a star — v0 (A)
        // adjacent to v1, v2, v3 (all B), as fixed by the CG edge weights in
        // Example 4 (w(g_{0,1}, g_{1,0}) = 3 means v0 has all three B nodes
        // as neighbors). Q is the path u0 (A) – u1 (B) – u2 (A).
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        // Map v0->u1 (A->B relabel), v1->u0 (B->A), v2->u2 (B->A), v3->eps:
        // 3 relabels + 1 deletion + 1 edge deletion (v0,v3) = 5.
        let phi = NodeMapping {
            map: vec![1, 0, 2, EPS],
        };
        assert_eq!(mapping_cost(&g, &q, &phi), 5.0);
        // An alternative path reaches 5 as well (delete two leaves, insert
        // the (u1,u2) edge); exact::tests verifies 5 is optimal.
    }

    #[test]
    fn injectivity_check() {
        let phi = NodeMapping { map: vec![0, 0] };
        assert!(!phi.is_injective());
        let phi = NodeMapping {
            map: vec![EPS, EPS, 1],
        };
        assert!(phi.is_injective());
    }
}
