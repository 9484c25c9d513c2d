//! Cross-graph attention learning (paper §III-E Definition 1) and its
//! compressed-GNN-graph form (§VI-B Definition 3), sharing one forward
//! implementation so the equivalence of Theorem 2 is exact by construction
//! and verified bit-close by tests.
//!
//! ## The unified view
//!
//! Both the plain and the CG forward are instances of one computation over a
//! [`CrossInput`]:
//!
//! * a per-layer aggregation operator `M_l` (plain: `A + I`, identical at
//!   every layer; CG: the weighted bipartite level-(l-1)→level-l matrix);
//! * level-0 one-hot features (plain: per node; CG: per level-0 group);
//! * per-level multiplicity weights (plain: all ones; CG: group sizes
//!   `|g|`), used both as the opposite graph's attention weights (Eq. 10's
//!   `|q|` factors) and in the final weighted-mean readout.
//!
//! ## A note on the attention operand
//!
//! Definition 1 (Eq. 6) writes the attention score as
//! `a · (h_u^{l-1} ‖ h_v^{l-1})`, while Definition 3 (Eq. 10) scores with
//! the aggregated messages `t`. The Theorem 2 proof equates `μ_u = μ_g`
//! computed from `t`, so we adopt the `t`-based score on both sides —
//! otherwise the claimed equality cannot hold as stated. The score is
//! factorized: `a · (t_u ‖ t_v) = a₁·t_u + a₂·t_v`, a rank-1 broadcast sum.
//!
//! That factorization has a consequence this reading of Definitions 1/3
//! cannot escape: the softmax runs over `v` for a fixed `u`, and a softmax
//! is invariant to a shift of all its inputs, so the `a₁·t_u` term cancels.
//! Every row of the attention matrix is the same vector
//! `softmax_v(a₂·t_v + ln w_v)`; the cross-graph message is one attention
//! *pooling* of the other graph, shared by all nodes, and `a₁` receives a
//! zero gradient (it is dead weight, kept because the trained stores
//! contain it). The tape forward below still materialises the `n × m`
//! matrices — changing it would change trained weights — while
//! [`crate::infer`] exploits the identity at query time.

use crate::cg::CompressedGnnGraph;
use crate::features::one_hot;
use crate::gin::GnnConfig;
use lan_graph::{Graph, NodeId};
use lan_obs::LazyCounter;
use lan_tensor::{CsrMatrix, Matrix, ParamStore, Tape, Var};
use rand::Rng;

pub(crate) static FORWARD_CALLS: LazyCounter = LazyCounter::new(lan_obs::names::GNN_FORWARD_CALLS);

/// The per-graph inputs of the unified cross-graph forward.
#[derive(Debug, Clone)]
pub struct CrossInput {
    /// `sparse[l-1]` maps level `l-1` rows to level `l` rows, `l = 1..=L`,
    /// in row-compressed form ([`CsrMatrix::to_dense`] for the dense one).
    pub sparse: Vec<CsrMatrix>,
    /// Level-0 one-hot features (rows = level-0 entities).
    pub feats: Matrix,
    /// Multiplicity weights per level `0..=L` (rows of that level).
    pub sizes: Vec<Vec<f32>>,
}

impl CrossInput {
    /// Plain (uncompressed) view of a graph: `M_l = A + I` at every layer,
    /// all multiplicities 1.
    pub fn plain(g: &Graph, cfg: &GnnConfig) -> Self {
        assert!(
            g.node_count() > 0,
            "cross-graph learning needs a non-empty graph"
        );
        let layers = cfg.dims.len();
        CrossInput {
            sparse: vec![agg_rows(g); layers],
            feats: one_hot(g.labels(), cfg.num_labels),
            sizes: vec![vec![1.0; g.node_count()]; layers + 1],
        }
    }

    /// Compressed view from a CG (paper Definition 3).
    pub fn compressed(cg: &CompressedGnnGraph, cfg: &GnnConfig) -> Self {
        let layers = cfg.dims.len();
        assert_eq!(
            cg.levels.len(),
            layers + 1,
            "CG depth must match the network"
        );
        assert!(cg.n > 0, "cross-graph learning needs a non-empty graph");
        let sparse = (1..=layers)
            .map(|l| CsrMatrix::from_rows(cg.levels[l].in_edges.iter().map(|e| e.iter().copied())))
            .collect();
        let feats = one_hot(&cg.level0_labels, cfg.num_labels);
        let sizes = cg
            .levels
            .iter()
            .map(|lv| lv.group_sizes.iter().map(|&s| s as f32).collect())
            .collect();
        CrossInput {
            sparse,
            feats,
            sizes,
        }
    }
}

/// [`crate::gin::agg_matrix`] in row-compressed form, built from the adjacency: row
/// `u` is `u` merged into its sorted neighbor list.
fn agg_rows(g: &Graph) -> CsrMatrix {
    CsrMatrix::from_rows((0..g.node_count() as NodeId).map(|u| {
        let nbs = g.neighbors(u);
        let at = nbs.partition_point(|&v| v < u);
        let own = (nbs.get(at) != Some(&u)).then_some(u);
        let below = nbs[..at].iter().copied();
        below
            .chain(own)
            .chain(nbs[at..].iter().copied())
            .map(|v| (v, 1.0))
    }))
}

/// One cross-graph layer's parameters.
#[derive(Debug, Clone)]
pub struct CrossLayer {
    /// `W^l : d_{l-1} × d_l`.
    pub w: usize,
    /// `a₁ : d_{l-1} × 1` (own-graph half of the attention vector).
    pub a1: usize,
    /// `a₂ : d_{l-1} × 1` (other-graph half).
    pub a2: usize,
}

/// The cross-graph attention network shared by `M_rk` and `M_nh`.
#[derive(Debug, Clone)]
pub struct CrossGraphNet {
    pub cfg: GnnConfig,
    pub layers: Vec<CrossLayer>,
}

/// The pair embedding produced by a forward pass.
#[derive(Debug, Clone, Copy)]
pub struct PairEmbedding {
    /// `h_G` (or `h_{H*_G}`): `1 × d_L`.
    pub h_g: Var,
    /// `h_Q` (or `h_{H*_Q}`): `1 × d_L`.
    pub h_q: Var,
    /// The cross-graph embedding `h_G ‖ h_Q`: `1 × 2 d_L`.
    pub h_pair: Var,
}

impl CrossGraphNet {
    /// Registers Xavier-initialized parameters in `store`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, store: &mut ParamStore, cfg: GnnConfig) -> Self {
        let mut layers = Vec::with_capacity(cfg.dims.len());
        let mut prev = cfg.num_labels;
        for &d in &cfg.dims {
            layers.push(CrossLayer {
                w: store.add(Matrix::xavier(rng, prev, d)),
                a1: store.add(Matrix::xavier(rng, prev, 1)),
                a2: store.add(Matrix::xavier(rng, prev, 1)),
            });
            prev = d;
        }
        CrossGraphNet { cfg, layers }
    }

    /// Records the cross-graph forward pass over any pair of
    /// [`CrossInput`]s (plain or compressed, in any combination — e.g. a
    /// precomputed data-graph CG against a plain query).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: &CrossInput,
        y: &CrossInput,
    ) -> PairEmbedding {
        FORWARD_CALLS.get().inc();
        let layers = self.layers.len();
        let mut hx = tape.leaf(x.feats.clone());
        let mut hy = tape.leaf(y.feats.clone());
        for (l, layer) in self.layers.iter().enumerate() {
            // The operators' columns are the previous level's rows.
            let mx = tape.leaf(x.sparse[l].to_dense(tape.value(hx).rows()));
            let my = tape.leaf(y.sparse[l].to_dense(tape.value(hy).rows()));
            let tx = tape.matmul(mx, hx); // groups_x(l+1?) — level l+1 rows
            let ty = tape.matmul(my, hy);
            let a1 = tape.param(store, layer.a1);
            let a2 = tape.param(store, layer.a2);

            // Attention scores (factorized): S_x[i][j] = a1·tx_i + a2·ty_j.
            let colx = tape.matmul(tx, a1);
            let coly = tape.matmul(ty, a1);
            let rx = tape.matmul(tx, a2);
            let ry = tape.matmul(ty, a2);
            let rowx = tape.transpose(rx);
            let rowy = tape.transpose(ry);
            let sx = tape.rank1_add(colx, rowy);
            let sy = tape.rank1_add(coly, rowx);

            // The level of the *aggregated* rows is l+1 in 0-based level
            // terms; multiplicity weights of the opposite graph at that
            // level (Eq. 9/10's |q| factors).
            let ax = tape.weighted_row_softmax(sx, y.sizes[l + 1].clone());
            let ay = tape.weighted_row_softmax(sy, x.sizes[l + 1].clone());
            let mux = tape.matmul(ax, ty);
            let muy = tape.matmul(ay, tx);

            let zx = tape.add(tx, mux);
            let zy = tape.add(ty, muy);
            let w = tape.param(store, layer.w);
            let px = tape.matmul(zx, w);
            let py = tape.matmul(zy, w);
            hx = tape.relu(px);
            hy = tape.relu(py);
        }
        let h_g = tape.weighted_mean_rows(hx, x.sizes[layers].clone());
        let h_q = tape.weighted_mean_rows(hy, y.sizes[layers].clone());
        let h_pair = tape.concat_cols(h_g, h_q);
        PairEmbedding { h_g, h_q, h_pair }
    }

    /// Convenience: plain-graph forward.
    pub fn forward_plain(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        g: &Graph,
        q: &Graph,
    ) -> PairEmbedding {
        let xi = CrossInput::plain(g, &self.cfg);
        let yi = CrossInput::plain(q, &self.cfg);
        self.forward(tape, store, &xi, &yi)
    }

    /// Convenience: CG forward (paper Definition 3).
    pub fn forward_cg(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        g: &CompressedGnnGraph,
        q: &CompressedGnnGraph,
    ) -> PairEmbedding {
        let xi = CrossInput::compressed(g, &self.cfg);
        let yi = CrossInput::compressed(q, &self.cfg);
        self.forward(tape, store, &xi, &yi)
    }

    /// Output dimension of `h_G ‖ h_Q`.
    pub fn pair_dim(&self) -> usize {
        2 * self.cfg.out_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_graph::generators::{erdos_renyi, molecule_like};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn new_net(
        seed: u64,
        num_labels: usize,
        dim: usize,
        layers: usize,
    ) -> (CrossGraphNet, ParamStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let net = CrossGraphNet::new(
            &mut rng,
            &mut store,
            GnnConfig::uniform(num_labels, dim, layers),
        );
        (net, store)
    }

    #[test]
    fn shapes() {
        let (net, store) = new_net(1, 4, 8, 2);
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let mut t = Tape::new();
        let out = net.forward_plain(&mut t, &store, &g, &q);
        assert_eq!(t.value(out.h_g).shape(), (1, 8));
        assert_eq!(t.value(out.h_q).shape(), (1, 8));
        assert_eq!(t.value(out.h_pair).shape(), (1, 16));
        assert_eq!(net.pair_dim(), 16);
    }

    #[test]
    fn theorem2_equivalence_fig2() {
        // Paper Theorem 2 on the running example of Fig. 2/4.
        let (net, store) = new_net(2, 2, 8, 2);
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let cg_g = CompressedGnnGraph::build(&g, 2);
        let cg_q = CompressedGnnGraph::build(&q, 2);

        let mut t1 = Tape::new();
        let plain = net.forward_plain(&mut t1, &store, &g, &q);
        let mut t2 = Tape::new();
        let comp = net.forward_cg(&mut t2, &store, &cg_g, &cg_q);

        let d = t1.value(plain.h_pair).max_abs_diff(t2.value(comp.h_pair));
        assert!(
            d < 1e-5,
            "CG and plain cross-graph embeddings differ by {d}"
        );
    }

    #[test]
    fn theorem2_equivalence_random() {
        // Theorem 2 as a randomized property over many graphs and weights.
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..15 {
            let (net, store) = new_net(100 + trial, 3, 6, 2);
            let g = molecule_like(&mut rng, 4 + (trial as usize % 10), 2, 4, 3);
            let q = erdos_renyi(&mut rng, 5, 6, 3);
            let cg_g = CompressedGnnGraph::build(&g, 2);
            let cg_q = CompressedGnnGraph::build(&q, 2);

            let mut t1 = Tape::new();
            let plain = net.forward_plain(&mut t1, &store, &g, &q);
            let mut t2 = Tape::new();
            let comp = net.forward_cg(&mut t2, &store, &cg_g, &cg_q);
            let d = t1.value(plain.h_pair).max_abs_diff(t2.value(comp.h_pair));
            assert!(d < 1e-4, "trial {trial}: differ by {d}");
        }
    }

    #[test]
    fn corollary1_cg_never_more_flops() {
        // Corollary 1: the CG forward performs no more work than the plain
        // forward (measured in recorded flops).
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let (net, store) = new_net(5, 3, 8, 2);
            let g = molecule_like(&mut rng, 15, 3, 4, 3);
            let q = molecule_like(&mut rng, 12, 2, 4, 3);
            let cg_g = CompressedGnnGraph::build(&g, 2);
            let cg_q = CompressedGnnGraph::build(&q, 2);

            let mut t1 = Tape::new();
            let _ = net.forward_plain(&mut t1, &store, &g, &q);
            let mut t2 = Tape::new();
            let _ = net.forward_cg(&mut t2, &store, &cg_g, &cg_q);
            assert!(
                t2.flops() <= t1.flops(),
                "CG flops {} > plain flops {}",
                t2.flops(),
                t1.flops()
            );
        }
    }

    #[test]
    fn cg_compresses_skewed_labels_substantially() {
        // With few labels and symmetric structure the CG should be a real
        // win (this is the Fig. 12 mechanism).
        let mut rng = StdRng::seed_from_u64(6);
        let (net, store) = new_net(7, 2, 8, 2);
        let g = lan_graph::generators::power_law_like(&mut rng, 30, 2, 0, 2);
        let q = lan_graph::generators::power_law_like(&mut rng, 30, 2, 0, 2);
        let cg_g = CompressedGnnGraph::build(&g, 2);
        let cg_q = CompressedGnnGraph::build(&q, 2);
        let mut t1 = Tape::new();
        let _ = net.forward_plain(&mut t1, &store, &g, &q);
        let mut t2 = Tape::new();
        let _ = net.forward_cg(&mut t2, &store, &cg_g, &cg_q);
        assert!(
            (t2.flops() as f64) < 0.9 * t1.flops() as f64,
            "expected >10% flop reduction: plain {}, cg {}",
            t1.flops(),
            t2.flops()
        );
    }

    #[test]
    fn mixed_plain_and_cg_operands_agree() {
        // A precomputed data-graph CG against a plain query must equal the
        // all-plain result (the deployment mode: database CGs precomputed).
        let mut rng = StdRng::seed_from_u64(8);
        let (net, store) = new_net(9, 3, 6, 2);
        let g = molecule_like(&mut rng, 10, 2, 4, 3);
        let q = molecule_like(&mut rng, 8, 2, 4, 3);
        let cg_g = CompressedGnnGraph::build(&g, 2);
        let xi = CrossInput::compressed(&cg_g, &net.cfg);
        let yi = CrossInput::plain(&q, &net.cfg);
        let mut t1 = Tape::new();
        let mixed = net.forward(&mut t1, &store, &xi, &yi);
        let mut t2 = Tape::new();
        let plain = net.forward_plain(&mut t2, &store, &g, &q);
        let d = t1.value(mixed.h_pair).max_abs_diff(t2.value(plain.h_pair));
        assert!(d < 1e-5, "mixed forward differs by {d}");
    }

    #[test]
    fn gradients_flow_through_cross_forward() {
        let (net, mut store) = new_net(10, 3, 4, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let g = molecule_like(&mut rng, 8, 2, 4, 3);
        let q = molecule_like(&mut rng, 7, 2, 4, 3);
        let mut t = Tape::new();
        let out = net.forward_plain(&mut t, &store, &g, &q);
        let ones = t.leaf(Matrix::ones(net.pair_dim(), 1));
        let s = t.matmul(out.h_pair, ones);
        let loss = t.mse(s, Matrix::zeros(1, 1));
        store.zero_grads();
        t.backward(loss, &mut store);
        // Every layer's parameters should receive a nonzero gradient.
        let mut any = 0;
        for layer in &net.layers {
            if store.grad(layer.w).norm() > 0.0 {
                any += 1;
            }
        }
        assert!(any >= 1, "no gradient reached the cross-graph weights");
    }
}
