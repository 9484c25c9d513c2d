//! The rank-1 attention identity behind `lan_gnn::infer`, pinned against a
//! frozen copy of the full-attention inference forward it replaced.
//!
//! `reference_pair` below is the `n × m` kernel as it stood before the
//! collapse (score matrices, row softmaxes, two `n×m×d` matmuls per layer).
//! It lives only here, as the oracle: the properties check the new kernel
//! against it and against the autograd tape within the 1e-5 contract, check
//! the lemma itself (every row of the attention matrix is the same vector,
//! and `a₁` gets no gradient), and check that a prepared forward equals the
//! unprepared one on bits.

use lan_gnn::{CompressedGnnGraph, CrossGraphNet, CrossInput, GnnConfig, InferScratch};
use lan_graph::generators::{control_flow_like, molecule_like, power_law_like};
use lan_graph::Graph;
use lan_tensor::{Matrix, ParamStore, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Frozen reference: the full-attention inference forward.
// ---------------------------------------------------------------------------

fn rank1_add(col: &Matrix, row_col: &Matrix) -> Matrix {
    Matrix::from_fn(col.rows(), row_col.rows(), |i, j| {
        col.get(i, 0) + row_col.get(j, 0)
    })
}

fn weighted_row_softmax(x: &Matrix, w: &[f32]) -> Matrix {
    let lnw: Vec<f32> = w.iter().map(|&wi| wi.ln()).collect();
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for i in 0..x.rows() {
        let src = x.row(i);
        let row = out.row_mut(i);
        for (j, o) in row.iter_mut().enumerate() {
            *o = src[j] + lnw[j];
        }
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for o in row.iter_mut() {
            *o = (*o - m).exp();
        }
        let z: f32 = row.iter().sum();
        for o in row.iter_mut() {
            *o /= z;
        }
    }
    out
}

fn weighted_mean_rows(x: &Matrix, w: &[f32], out: &mut Vec<f32>) {
    let total: f32 = w.iter().sum();
    let base = out.len();
    out.resize(base + x.cols(), 0.0);
    for (i, &wi) in w.iter().enumerate() {
        for (o, &v) in out[base..].iter_mut().zip(x.row(i)) {
            *o += wi * v / total;
        }
    }
}

/// The pair embedding and, per layer, the database side's attention matrix.
fn reference_pair(
    net: &CrossGraphNet,
    store: &ParamStore,
    x: &CrossInput,
    y: &CrossInput,
) -> (Vec<f32>, Vec<Matrix>) {
    let (mut hx, mut hy) = (x.feats.clone(), y.feats.clone());
    let mut attention = Vec::new();
    for (l, layer) in net.layers.iter().enumerate() {
        let tx = x.sparse[l].to_dense(hx.rows()).matmul(&hx);
        let ty = y.sparse[l].to_dense(hy.rows()).matmul(&hy);
        let (a1, a2) = (store.value(layer.a1), store.value(layer.a2));
        let sx = rank1_add(&tx.matmul(a1), &ty.matmul(a2));
        let sy = rank1_add(&ty.matmul(a1), &tx.matmul(a2));
        let ax = weighted_row_softmax(&sx, &y.sizes[l + 1]);
        let ay = weighted_row_softmax(&sy, &x.sizes[l + 1]);
        let w = store.value(layer.w);
        hx = tx.add(&ax.matmul(&ty)).matmul(w).map(|v| v.max(0.0));
        hy = ty.add(&ay.matmul(&tx)).matmul(w).map(|v| v.max(0.0));
        attention.push(ax);
    }
    let mut out = Vec::new();
    let layers = net.layers.len();
    weighted_mean_rows(&hx, &x.sizes[layers], &mut out);
    weighted_mean_rows(&hy, &y.sizes[layers], &mut out);
    (out, attention)
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

fn family_graph(rng: &mut StdRng, n: usize, labels: u16) -> Graph {
    if n == 1 {
        return Graph::from_edges(vec![rng.gen_range(0..labels)], &[]).unwrap();
    }
    match rng.gen_range(0..3) {
        0 => molecule_like(rng, n, 2, 4, labels),
        1 => control_flow_like(rng, n, 0.2, 0.1, labels),
        _ => power_law_like(rng, n, 2, 1, labels),
    }
}

#[derive(Debug, Clone, Copy)]
enum Operands {
    Plain,
    Compressed,
    /// The deployment mode: database CG against a plain query.
    Mixed,
}

fn inputs(
    g: &Graph,
    q: &Graph,
    cfg: &GnnConfig,
    layers: usize,
    mode: Operands,
) -> (CrossInput, CrossInput) {
    let cg = |g: &Graph| CrossInput::compressed(&CompressedGnnGraph::build(g, layers), cfg);
    match mode {
        Operands::Plain => (CrossInput::plain(g, cfg), CrossInput::plain(q, cfg)),
        Operands::Compressed => (cg(g), cg(q)),
        Operands::Mixed => (cg(g), CrossInput::plain(q, cfg)),
    }
}

fn new_net(
    rng: &mut StdRng,
    labels: usize,
    dim: usize,
    layers: usize,
) -> (CrossGraphNet, ParamStore) {
    let mut store = ParamStore::new();
    let net = CrossGraphNet::new(rng, &mut store, GnnConfig::uniform(labels, dim, layers));
    (net, store)
}

fn tape_pair(net: &CrossGraphNet, store: &ParamStore, x: &CrossInput, y: &CrossInput) -> Vec<f32> {
    let mut t = Tape::new();
    let out = net.forward(&mut t, store, x, y);
    t.value(out.h_pair).data().to_vec()
}

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// 1e-5 is the contract at unit scale; unnormalised sums over up to 32
/// nodes and 3 layers reach the hundreds, so the bound scales with them.
fn tolerance(reference: &[f32]) -> f32 {
    1e-5 * reference.iter().fold(1.0f32, |a, v| a.max(v.abs()))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// New kernel vs the frozen full-attention reference vs the tape, and
    /// the prepared entry point vs the unprepared one.
    #[test]
    fn collapsed_kernel_matches_reference_and_tape(
        seed in any::<u64>(),
        n in 1usize..33,
        m in 1usize..33,
        labels in prop::sample::select(vec![2u16, 5, 51]),
        layers in 1usize..4,
        dim in 2usize..17,
        mode in prop::sample::select(vec![Operands::Plain, Operands::Compressed, Operands::Mixed]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = family_graph(&mut rng, n, labels);
        let q = family_graph(&mut rng, m, labels);
        let (net, store) = new_net(&mut rng, labels as usize, dim, layers);
        let (x, y) = inputs(&g, &q, &net.cfg, layers, mode);

        let mut scratch = InferScratch::new();
        let mut got = Vec::new();
        net.infer_pair(&store, &x, &y, &mut scratch, &mut got);

        let (reference, attention) = reference_pair(&net, &store, &x, &y);
        let d_ref = max_diff(&got, &reference);
        let tol = tolerance(&reference);
        prop_assert!(d_ref <= tol, "{:?} n={} m={}: vs reference {}", mode, n, m, d_ref);
        let d_tape = max_diff(&got, &tape_pair(&net, &store, &x, &y));
        prop_assert!(d_tape <= tol, "{:?} n={} m={}: vs tape {}", mode, n, m, d_tape);

        // The lemma: a row softmax of `c_i + r_j` does not depend on `i`
        // (up to the low bits of `r_j` that adding a large `c_i` drops).
        for (l, ax) in attention.iter().enumerate() {
            for i in 1..ax.rows() {
                let d = max_diff(ax.row(0), ax.row(i));
                prop_assert!(d <= 1e-5, "layer {}: attention rows 0 and {} differ by {}", l, i, d);
            }
        }

        // Prepared == unprepared, bit for bit, in both argument orders.
        let (px, py) = (net.prefix(&store, &x), net.prefix(&store, &y));
        let mut prepared = vec![0.0f32; net.pair_dim()];
        net.infer_pair_prepared(&store, &x, &px, &y, &py, &mut scratch, &mut prepared);
        prop_assert_eq!(bits(&prepared), bits(&got));
        net.infer_pair(&store, &y, &x, &mut scratch, &mut got);
        net.infer_pair_prepared(&store, &y, &py, &x, &px, &mut scratch, &mut prepared);
        prop_assert_eq!(bits(&prepared), bits(&got));
    }

    /// The other face of the lemma: the own-graph half `a₁` of the
    /// attention vector gets no gradient from any loss on the pair.
    #[test]
    fn tape_gradient_of_a1_is_nil(
        seed in any::<u64>(),
        n in 2usize..20,
        m in 2usize..20,
        layers in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = family_graph(&mut rng, n, 5);
        let q = family_graph(&mut rng, m, 5);
        let (net, mut store) = new_net(&mut rng, 5, 8, layers);
        let (x, y) = inputs(&g, &q, &net.cfg, layers, Operands::Mixed);

        let mut t = Tape::new();
        let out = net.forward(&mut t, &store, &x, &y);
        let probe = t.leaf(Matrix::from_fn(net.pair_dim(), 1, |_, _| rng.gen_range(-1.0..1.0f32)));
        let s = t.matmul(out.h_pair, probe);
        let loss = t.mse(s, Matrix::from_vec(1, 1, vec![1.0]));
        store.zero_grads();
        t.backward(loss, &mut store);
        for (l, layer) in net.layers.iter().enumerate() {
            // Analytically zero; in f32 it is rounding noise at the scale of
            // the layer's gradients. `a₂`'s own gradient can be small on
            // near-uniform graphs, so the yardstick is the larger of the two.
            let g1 = store.grad(layer.a1).norm();
            let scale = store.grad(layer.a2).norm().max(store.grad(layer.w).norm());
            prop_assert!(
                g1 <= 1e-5 * scale,
                "layer {}: |grad a1| = {} against a layer gradient of {}", l, g1, scale
            );
        }
    }
}

/// Non-unit CG group sizes are what make `ln w` matter: a star's leaves
/// collapse into one group, so the weighted softmax must count it `k` times.
#[test]
fn star_graphs_exercise_non_unit_group_sizes() {
    let mut rng = StdRng::seed_from_u64(7);
    let star = |leaves: u32| {
        let edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
        let mut labels = vec![1u16; leaves as usize + 1];
        labels[0] = 0;
        Graph::from_edges(labels, &edges).unwrap()
    };
    let (g, q) = (star(9), star(4));
    for layers in 1..=3 {
        let (net, store) = new_net(&mut rng, 2, 8, layers);
        let (x, y) = inputs(&g, &q, &net.cfg, layers, Operands::Compressed);
        assert!(
            x.sizes.iter().flatten().any(|&s| s > 1.0),
            "fixture lost its non-unit groups"
        );
        let mut got = Vec::new();
        net.infer_pair(&store, &x, &y, &mut InferScratch::new(), &mut got);
        let (reference, _) = reference_pair(&net, &store, &x, &y);
        let tol = tolerance(&reference);
        assert!(max_diff(&got, &reference) <= tol);
        assert!(max_diff(&got, &tape_pair(&net, &store, &x, &y)) <= tol);
        // And the compressed result is the plain one (Theorem 2).
        let (xp, yp) = inputs(&g, &q, &net.cfg, layers, Operands::Plain);
        let mut plain = Vec::new();
        net.infer_pair(&store, &xp, &yp, &mut InferScratch::new(), &mut plain);
        assert!(max_diff(&got, &plain) <= tol);
    }
}
