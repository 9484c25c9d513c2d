//! GIN: Graph Isomorphism Network (paper §III-C, Eq. 1).
//!
//! `h_u^l = ReLU(W^l (h_u^{l-1} + Σ_{v∈N(u)} h_v^{l-1}))`, with the graph
//! embedding being the mean of the final-layer node embeddings. The ε
//! coefficient is omitted exactly as the paper does (footnote 1).
//!
//! The standalone GIN is used as the graph embedder for KMeans clustering
//! and the L2route baseline (substituting node2vec — see DESIGN.md), and
//! supplies the `h_G` component of the `M_rk` ranker input.

use crate::features::graph_features;
use lan_graph::{Graph, NodeId};
use lan_obs::LazyCounter;
use lan_tensor::{Matrix, ParamStore, Tape, Var};
use rand::Rng;

pub(crate) static EMBED_CALLS: LazyCounter = LazyCounter::new(lan_obs::names::GNN_EMBED_CALLS);

/// Builds the GIN aggregation operator `A + I` as a dense matrix
/// (`n × n`). Dense is fine at the paper's graph sizes (tens of nodes); the
/// matmul skips zero entries.
pub fn agg_matrix(g: &Graph) -> Matrix {
    let n = g.node_count();
    let mut m = Matrix::zeros(n, n);
    for u in 0..n as NodeId {
        m.set(u as usize, u as usize, 1.0);
        for &v in g.neighbors(u) {
            m.set(u as usize, v as usize, 1.0);
        }
    }
    m
}

/// Configuration for GIN and the cross-graph networks.
#[derive(Debug, Clone)]
pub struct GnnConfig {
    /// Input feature dimension = dataset-wide label count.
    pub num_labels: usize,
    /// Hidden dimension of each layer; `dims.len()` is the layer count `L`.
    pub dims: Vec<usize>,
}

impl GnnConfig {
    /// `L` layers of width `dim` over `num_labels` input features.
    pub fn uniform(num_labels: usize, dim: usize, layers: usize) -> Self {
        GnnConfig {
            num_labels,
            dims: vec![dim; layers],
        }
    }

    /// Output dimension of the final layer.
    pub fn out_dim(&self) -> usize {
        *self.dims.last().expect("at least one layer")
    }
}

/// A GIN with `L = cfg.dims.len()` layers.
#[derive(Debug, Clone)]
pub struct Gin {
    pub cfg: GnnConfig,
    /// One weight-matrix parameter id per layer (`d_{l-1} × d_l`).
    pub weights: Vec<usize>,
}

impl Gin {
    /// Registers Xavier-initialized weights in `store`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, store: &mut ParamStore, cfg: GnnConfig) -> Self {
        let mut weights = Vec::with_capacity(cfg.dims.len());
        let mut prev = cfg.num_labels;
        for &d in &cfg.dims {
            weights.push(store.add(Matrix::xavier(rng, prev, d)));
            prev = d;
        }
        Gin { cfg, weights }
    }

    /// Records the forward pass; returns `(node_embeddings, pooled)` where
    /// `node_embeddings` is `n × d_L` and `pooled` is the `1 × d_L` mean.
    ///
    /// The empty graph yields a zero pooled embedding.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, g: &Graph) -> (Var, Var) {
        let n = g.node_count();
        if n == 0 {
            let z = tape.leaf(Matrix::zeros(0, self.cfg.out_dim()));
            let p = tape.leaf(Matrix::zeros(1, self.cfg.out_dim()));
            return (z, p);
        }
        let agg = tape.leaf(agg_matrix(g));
        let mut h = tape.leaf(graph_features(g, self.cfg.num_labels));
        for &wid in &self.weights {
            let t = tape.matmul(agg, h);
            let w = tape.param(store, wid);
            let z = tape.matmul(t, w);
            h = tape.relu(z);
        }
        let pooled = tape.weighted_mean_rows(h, vec![1.0; n]);
        (h, pooled)
    }

    /// Inference convenience: the pooled graph embedding as a plain matrix.
    pub fn embed(&self, store: &ParamStore, g: &Graph) -> Matrix {
        EMBED_CALLS.get().inc();
        let mut tape = Tape::new();
        let (_, pooled) = self.forward(&mut tape, store, g);
        tape.value(pooled).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_graph::generators::molecule_like;
    use lan_graph::wl::wl_labels;
    use lan_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn new_gin(seed: u64, num_labels: usize, dim: usize, layers: usize) -> (Gin, ParamStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let gin = Gin::new(
            &mut rng,
            &mut store,
            GnnConfig::uniform(num_labels, dim, layers),
        );
        (gin, store)
    }

    #[test]
    fn shapes() {
        let (gin, store) = new_gin(1, 5, 8, 2);
        let g = Graph::from_edges(vec![0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let mut t = Tape::new();
        let (h, p) = gin.forward(&mut t, &store, &g);
        assert_eq!(t.value(h).shape(), (3, 8));
        assert_eq!(t.value(p).shape(), (1, 8));
    }

    #[test]
    fn empty_graph_embedding_is_zero() {
        let (gin, store) = new_gin(2, 4, 6, 2);
        let e = gin.embed(&store, &Graph::empty());
        assert_eq!(e.shape(), (1, 6));
        assert_eq!(e.norm(), 0.0);
    }

    #[test]
    fn isomorphism_invariance_of_pooled_embedding() {
        let mut rng = StdRng::seed_from_u64(3);
        let (gin, store) = new_gin(4, 6, 8, 2);
        for _ in 0..5 {
            let g = molecule_like(&mut rng, 12, 2, 4, 6);
            let perm: Vec<u32> = {
                use rand::seq::SliceRandom;
                let mut p: Vec<u32> = (0..12).collect();
                p.shuffle(&mut rng);
                p
            };
            let pg = g.permute(&perm);
            let e1 = gin.embed(&store, &g);
            let e2 = gin.embed(&store, &pg);
            assert!(
                e1.max_abs_diff(&e2) < 1e-4,
                "pooled embedding not invariant"
            );
        }
    }

    #[test]
    fn wl_equal_nodes_have_equal_embeddings() {
        // The property Algorithm 5 relies on: same WL label at iteration l
        // => same GIN embedding at layer l.
        let mut rng = StdRng::seed_from_u64(5);
        let (gin, store) = new_gin(6, 6, 8, 2);
        for _ in 0..10 {
            let g = molecule_like(&mut rng, 10, 2, 4, 3);
            let wl = wl_labels(&g, 2);
            let mut t = Tape::new();
            let (h, _) = gin.forward(&mut t, &store, &g);
            let hv = t.value(h);
            for u in 0..g.node_count() {
                for v in 0..g.node_count() {
                    if wl.labels[2][u] == wl.labels[2][v] {
                        let du: Vec<f32> = hv.row(u).to_vec();
                        let dv: Vec<f32> = hv.row(v).to_vec();
                        let diff = du
                            .iter()
                            .zip(&dv)
                            .map(|(a, b)| (a - b).abs())
                            .fold(0.0f32, f32::max);
                        assert!(diff < 1e-5, "WL-equal nodes {u},{v} differ by {diff}");
                    }
                }
            }
        }
    }

    #[test]
    fn distinguishes_different_graphs() {
        let (gin, store) = new_gin(7, 3, 8, 2);
        let g1 = Graph::from_edges(vec![0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let g2 = Graph::from_edges(vec![0, 0, 0], &[(0, 1)]).unwrap();
        let e1 = gin.embed(&store, &g1);
        let e2 = gin.embed(&store, &g2);
        assert!(e1.max_abs_diff(&e2) > 1e-4);
    }

    #[test]
    fn agg_matrix_structure() {
        let g = Graph::from_edges(vec![0, 0, 0], &[(0, 1), (1, 2)]).unwrap();
        let a = agg_matrix(&g);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(1, 2), 1.0);
        assert_eq!(a.get(2, 2), 1.0);
    }
}
