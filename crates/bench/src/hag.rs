//! HAG-style redundancy-free aggregation (Jia et al. \[45\]) — the GNN
//! acceleration baseline of Fig. 12.
//!
//! HAG detects partial sums shared by multiple aggregation targets (pairs of
//! nodes that co-occur in many neighbor lists), computes each shared sum
//! once, and reuses it. This provably reduces the *additions* in the
//! neighbor aggregation `T = (A + I) H` while computing the identical
//! result — but it cannot touch the matrix multiplications or the
//! cross-graph attention, which dominate cross-graph learning. That is
//! exactly the paper's point in Fig. 12: HAG yields ≈1× speedup there while
//! the CG reduces *all* components.

use lan_graph::{Graph, NodeId};
use lan_tensor::Matrix;

/// A precomputed aggregation plan with shared partial sums.
#[derive(Debug, Clone)]
pub struct HagPlan {
    /// Number of original nodes.
    pub n: usize,
    /// Virtual sum nodes: each is a pair of operand ids (original node ids
    /// `< n`, or earlier virtual ids offset by `n`).
    pub pairs: Vec<(u32, u32)>,
    /// Final operand lists per original node (ids as above).
    pub operands: Vec<Vec<u32>>,
}

impl HagPlan {
    /// Greedily builds a plan from the GIN aggregation lists
    /// `{u} ∪ N(u)`: repeatedly extract the operand pair shared by the most
    /// lists (at least 2) into a virtual node, like HAG's heuristic.
    pub fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let mut operands: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|u| {
                let mut v: Vec<u32> = g.neighbors(u).to_vec();
                v.push(u);
                v.sort_unstable();
                v
            })
            .collect();
        let mut pairs: Vec<(u32, u32)> = Vec::new();

        loop {
            // Count pair co-occurrence across lists.
            let mut counts: std::collections::HashMap<(u32, u32), u32> = Default::default();
            for list in &operands {
                for i in 0..list.len() {
                    for j in i + 1..list.len() {
                        *counts.entry((list[i], list[j])).or_insert(0) += 1;
                    }
                }
            }
            let Some((&best_pair, &best_count)) = counts
                .iter()
                .max_by_key(|&(&p, &c)| (c, std::cmp::Reverse(p)))
            else {
                break;
            };
            if best_count < 2 {
                break;
            }
            let vid = (n + pairs.len()) as u32;
            pairs.push(best_pair);
            for list in &mut operands {
                let has_a = list.contains(&best_pair.0);
                let has_b = list.contains(&best_pair.1);
                if has_a && has_b {
                    list.retain(|&x| x != best_pair.0 && x != best_pair.1);
                    list.push(vid);
                    list.sort_unstable();
                }
            }
        }
        HagPlan { n, pairs, operands }
    }

    /// Additions performed by the planned aggregation (one per virtual pair
    /// plus `len - 1` per final list).
    pub fn planned_adds(&self) -> usize {
        self.pairs.len()
            + self
                .operands
                .iter()
                .map(|l| l.len().saturating_sub(1))
                .sum::<usize>()
    }

    /// Additions of the naive aggregation (`deg(u)` per node: summing
    /// `{u} ∪ N(u)` takes `|list| - 1` adds).
    pub fn naive_adds(g: &Graph) -> usize {
        g.nodes().map(|u| g.degree(u)).sum()
    }

    /// Executes the planned aggregation: returns `T` with
    /// `T[u,:] = Σ_{v ∈ {u} ∪ N(u)} H[v,:]`, identical to `(A + I) H`.
    pub fn aggregate(&self, h: &Matrix) -> Matrix {
        assert_eq!(h.rows(), self.n, "feature row count must match node count");
        let d = h.cols();
        // Virtual sums, in creation order (later pairs may reference earlier
        // virtual ids).
        let mut virtuals: Vec<Vec<f32>> = Vec::with_capacity(self.pairs.len());
        let fetch = |virtuals: &Vec<Vec<f32>>, id: u32, h: &Matrix| -> Vec<f32> {
            if (id as usize) < self.n {
                h.row(id as usize).to_vec()
            } else {
                virtuals[id as usize - self.n].clone()
            }
        };
        for &(a, b) in &self.pairs {
            let va = fetch(&virtuals, a, h);
            let vb = fetch(&virtuals, b, h);
            virtuals.push(va.iter().zip(&vb).map(|(x, y)| x + y).collect());
        }
        let mut out = Matrix::zeros(self.n, d);
        for (u, list) in self.operands.iter().enumerate() {
            let mut acc = vec![0.0f32; d];
            for &id in list {
                let row = fetch(&virtuals, id, h);
                for (a, b) in acc.iter_mut().zip(&row) {
                    *a += b;
                }
            }
            for (j, &x) in acc.iter().enumerate() {
                out.set(u, j, x);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_gnn::gin::agg_matrix;
    use lan_graph::generators::{erdos_renyi, molecule_like, power_law_like};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_features(rng: &mut StdRng, n: usize, d: usize) -> Matrix {
        Matrix::from_fn(n, d, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn aggregation_matches_naive() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..20 {
            let g = erdos_renyi(&mut rng, 12, 20, 3);
            let plan = HagPlan::build(&g);
            let h = rand_features(&mut rng, 12, 5);
            let fast = plan.aggregate(&h);
            let naive = agg_matrix(&g).matmul(&h);
            assert!(fast.max_abs_diff(&naive) < 1e-4);
        }
    }

    #[test]
    fn saves_additions_on_dense_overlap() {
        // Hubs create heavily shared neighbor pairs.
        let mut rng = StdRng::seed_from_u64(72);
        let g = power_law_like(&mut rng, 40, 3, 10, 3);
        let plan = HagPlan::build(&g);
        assert!(
            plan.planned_adds() <= HagPlan::naive_adds(&g),
            "plan {} vs naive {}",
            plan.planned_adds(),
            HagPlan::naive_adds(&g)
        );
    }

    #[test]
    fn never_worse_than_naive() {
        let mut rng = StdRng::seed_from_u64(73);
        for _ in 0..10 {
            let g = molecule_like(&mut rng, 20, 3, 4, 4);
            let plan = HagPlan::build(&g);
            assert!(plan.planned_adds() <= HagPlan::naive_adds(&g));
        }
    }

    #[test]
    fn empty_and_singleton() {
        let g = lan_graph::Graph::empty();
        let plan = HagPlan::build(&g);
        assert_eq!(plan.planned_adds(), 0);
        let g1 = lan_graph::Graph::from_edges(vec![0], &[]).unwrap();
        let plan1 = HagPlan::build(&g1);
        let h = Matrix::ones(1, 3);
        assert_eq!(plan1.aggregate(&h), h);
    }
}
