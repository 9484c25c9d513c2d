//! Tape-free inference forwards for the cross-graph network and GIN.
//!
//! Training needs the autodiff tape; query-time prediction does not. This
//! module computes the same embeddings directly on [`Matrix`] values with
//! reusable scratch buffers — and, for the cross-graph network, with far
//! less arithmetic than the tape records.
//!
//! ## The cross-graph forward is a rank-1 attention
//!
//! [`CrossGraphNet::forward`] scores node `i` of one graph against node `j`
//! of the other as `S[i][j] = a₁·t_i + a₂·t'_j` and takes a **row** softmax.
//! A row softmax is invariant to a per-row shift, so the `a₁·t_i` term
//! cancels and every row of the attention matrix is the same vector
//! `α = softmax_j(a₂·t'_j + ln w_j)`: the "cross-graph message" `μ` is one
//! attention *pooling* of the other graph, identical for every node. The
//! inference kernel therefore never forms an `n × m` matrix. Per layer it
//! computes `t·W` for both graphs, each graph's weights `α` from
//! `r = t·a₂`, the pooled message `μW = Σ_j α_j (t·W)_j` in `O(m·d)` —
//! pooling after the projection, which is the same vector by linearity —
//! and `h' = relu(t·W + 1·(μW)ᵀ)` with the *other* graph's `μW`; `a₁` is
//! not read. DESIGN.md ("Inference fast path") has the proof and the op
//! counts.
//!
//! ## Layer-0 prefixes
//!
//! At layer 0 `t` is `sparse[0]·feats`, which depends on one graph only —
//! and so, by the identity above, does that graph's pooled vector. A
//! [`CrossPrefix`] holds those products (`T⁰W`, `μ⁰W`, and `ln w` per
//! level); the database side is prepared at index time, the query side once
//! per query, and [`CrossGraphNet::infer_pair_prepared`] starts real
//! per-pair work at layer 1. [`CrossGraphNet::infer_pair`] takes bare
//! inputs, fills two prefixes in the scratch and runs the same kernel, so
//! prepared and unprepared results agree bit for bit by construction.
//!
//! ## Contract
//!
//! Against the tape forward the pair embedding agrees within 1e-5, not on
//! bits: `(t + μ)·W` is evaluated as `t·W + Σ_j α_j (t'·W)_j` and the
//! softmax stabiliser differs (`tests/attention_collapse.rs` pins this
//! against both the tape and a frozen full-attention reference).
//! [`Gin::infer_embed`] replays the tape's arithmetic order and stays
//! bit-identical to [`Gin::embed`].
//!
//! ## Scratch-buffer ownership
//!
//! All intermediates live in an [`InferScratch`], typically obtained
//! per-thread via [`with_scratch`]. A scratch is exclusively borrowed for
//! the duration of one forward and holds no state between calls (buffers
//! are `reset` to the right shape, keeping only their allocation), so
//! reuse across queries, graphs, and shard worker threads is safe by
//! construction. [`with_scratch`] must not be nested — callers acquire it
//! around leaf forwards only.

use crate::cross::{CrossGraphNet, CrossInput, FORWARD_CALLS};
use crate::gin::{Gin, EMBED_CALLS};
use lan_graph::{Graph, NodeId};
use lan_obs::{names, LazyCounter};
use lan_tensor::{dot, Matrix, ParamStore};
use std::cell::RefCell;

static INFER_FORWARDS: LazyCounter = LazyCounter::new(names::GNN_INFER_FORWARDS);

/// Records `n` computed pair embeddings on `gnn.forward_calls` and
/// `gnn.infer.forwards`. [`CrossGraphNet::infer_pair`] counts itself;
/// callers of [`CrossGraphNet::infer_pair_prepared`] count once per batch.
pub fn count_pair_forwards(n: u64) {
    FORWARD_CALLS.get().add(n);
    INFER_FORWARDS.get().add(n);
}

/// The layer-0 products of one graph that do not depend on the graph it is
/// paired with (see the module docs). Built by [`CrossGraphNet::prefix`]
/// for one `(CrossInput, weights)` and valid only with that input.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossPrefix {
    /// `T⁰·W⁰` with `T⁰ = sparse[0]·feats` (level-1 rows × `d₁`).
    tw: Matrix,
    /// `Σ_j α_j (T⁰·W⁰)_j` (`d₁`): this graph's layer-0 message to any
    /// partner — its attention pooling, projected.
    mu_w: Vec<f32>,
    /// `ln sizes[l + 1]` per layer `l` — the attention's multiplicity term.
    lnw: Vec<Vec<f32>>,
}

impl Default for CrossPrefix {
    fn default() -> Self {
        CrossPrefix {
            tw: Matrix::zeros(0, 0),
            mu_w: Vec::new(),
            lnw: Vec::new(),
        }
    }
}

impl CrossPrefix {
    /// `T⁰·W⁰`.
    pub fn tw(&self) -> &Matrix {
        &self.tw
    }

    /// The layer-0 message `Σ_j α_j (T⁰·W⁰)_j`.
    pub fn mu_w(&self) -> &[f32] {
        &self.mu_w
    }

    /// `ln sizes[l + 1]` per layer `l`.
    pub fn lnw(&self) -> &[Vec<f32>] {
        &self.lnw
    }

    /// Recomputes the prefix of `x` in place, keeping the allocations.
    /// [`CrossGraphNet::prefix`] with the thread's scratch already held:
    /// the same bits, for callers inside [`with_scratch`].
    pub fn fill(
        &mut self,
        net: &CrossGraphNet,
        store: &ParamStore,
        x: &CrossInput,
        scratch: &mut InferScratch,
    ) {
        self.lnw.resize_with(net.layers.len(), Vec::new);
        for (lnw, sizes) in self.lnw.iter_mut().zip(&x.sizes[1..]) {
            lnw.clear();
            lnw.extend(sizes.iter().map(|w| w.ln()));
        }
        let layer = &net.layers[0];
        let InferScratch { tx, alpha, .. } = scratch;
        x.sparse[0].matmul_into(&x.feats, tx);
        // `T⁰` rows aggregate one-hot labels: few non-zeros, which the
        // branching kernel skips.
        tx.matmul_into(store.value(layer.w), &mut self.tw);
        let a2 = store.value(layer.a2).data();
        attention_pool(tx, a2, &self.lnw[0], &self.tw, alpha, &mut self.mu_w);
    }
}

/// Reusable buffers for the tape-free forwards. One per thread (see
/// [`with_scratch`]); every buffer is reshaped on use, so one scratch
/// serves graphs and networks of any size.
#[derive(Debug)]
pub struct InferScratch {
    // Cross-graph per-layer intermediates (x = database side, y = query).
    tx: Matrix,
    ty: Matrix,
    zx: Matrix,
    zy: Matrix,
    hx: Matrix,
    hy: Matrix,
    alpha: Vec<f32>,
    mux: Vec<f32>,
    muy: Vec<f32>,
    // Prefixes the unprepared entry point fills per call.
    pre_x: CrossPrefix,
    pre_y: CrossPrefix,
    // GIN buffers.
    agg: Matrix,
    gh: Matrix,
    gt: Matrix,
    gz: Matrix,
}

impl Default for InferScratch {
    fn default() -> Self {
        let m = || Matrix::zeros(0, 0);
        InferScratch {
            tx: m(),
            ty: m(),
            zx: m(),
            zy: m(),
            hx: m(),
            hy: m(),
            alpha: Vec::new(),
            mux: Vec::new(),
            muy: Vec::new(),
            pre_x: CrossPrefix::default(),
            pre_y: CrossPrefix::default(),
            agg: m(),
            gh: m(),
            gt: m(),
            gz: m(),
        }
    }
}

impl InferScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static SCRATCH: RefCell<InferScratch> = RefCell::new(InferScratch::new());
}

/// Runs `f` with this thread's [`InferScratch`]. Panics if nested (the
/// scratch is exclusively borrowed); acquire it around leaf forwards only.
pub fn with_scratch<R>(f: impl FnOnce(&mut InferScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// `out = t·W`: [`Matrix::matmul_into`] bit for bit, through the faster
/// [`Matrix::matmul_acc_into`].
fn project_into(t: &Matrix, w: &Matrix, out: &mut Matrix) {
    out.reset(t.rows(), w.cols());
    t.matmul_acc_into(w, 0, out);
}

/// One graph's message to its partner: `mu_w = Σ_j α_j tw_j` with
/// `α = softmax_j(t_j·a₂ + lnw_j)`, where `tw = t·W` — the attention
/// pooling `(Σ_j α_j t_j)·W`, taken after the projection. `alpha` is a
/// reusable buffer for the weights.
fn attention_pool(
    t: &Matrix,
    a2: &[f32],
    lnw: &[f32],
    tw: &Matrix,
    alpha: &mut Vec<f32>,
    mu_w: &mut Vec<f32>,
) {
    debug_assert_eq!(lnw.len(), t.rows());
    debug_assert_eq!(tw.rows(), t.rows());
    alpha.clear();
    alpha.extend((0..t.rows()).map(|j| dot(t.row(j), a2) + lnw[j]));
    let max = alpha.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for a in alpha.iter_mut() {
        *a = (*a - max).exp();
    }
    let z: f32 = alpha.iter().sum();
    mu_w.clear();
    mu_w.resize(tw.cols(), 0.0);
    // Each output sums `a_j · tw_j` over ascending `j` from +0, as a plain
    // axpy sweep would; 16 outputs at a time stay in registers.
    let full = tw.cols() / 16 * 16;
    for c in (0..full).step_by(16) {
        let mut acc = [0.0f32; 16];
        for (j, &e) in alpha.iter().enumerate() {
            let a = e / z;
            let seg: &[f32; 16] = tw.row(j)[c..c + 16].try_into().expect("a full tile");
            for (o, &v) in acc.iter_mut().zip(seg) {
                *o += a * v;
            }
        }
        mu_w[c..c + 16].copy_from_slice(&acc);
    }
    if full < tw.cols() {
        for (j, &e) in alpha.iter().enumerate() {
            let a = e / z;
            for (m, &v) in mu_w[full..].iter_mut().zip(&tw.row(j)[full..]) {
                *m += a * v;
            }
        }
    }
}

/// `out = relu(z + 1·biasᵀ)`: the layer update once the other graph's
/// message has been folded into one row vector.
fn add_row_relu_into(z: &Matrix, bias: &[f32], out: &mut Matrix) {
    debug_assert_eq!(bias.len(), z.cols());
    out.reset(z.rows(), z.cols());
    for i in 0..z.rows() {
        for ((o, &v), &b) in out.row_mut(i).iter_mut().zip(z.row(i)).zip(bias) {
            *o = (v + b).max(0.0);
        }
    }
}

/// Writes the weighted row mean of `x` to `out` (tape
/// `weighted_mean_rows`, identical accumulation order).
fn weighted_mean_rows_into(x: &Matrix, w: &[f32], out: &mut [f32]) {
    debug_assert_eq!(w.len(), x.rows());
    let total: f32 = w.iter().sum();
    out.fill(0.0);
    for (i, &wi) in w.iter().enumerate() {
        for (o, &v) in out.iter_mut().zip(x.row(i)) {
            *o += wi * v / total;
        }
    }
}

impl CrossGraphNet {
    /// The [`CrossPrefix`] of `x` under the current weights in `store`.
    /// Rebuild it whenever the weights change.
    pub fn prefix(&self, store: &ParamStore, x: &CrossInput) -> CrossPrefix {
        let mut p = CrossPrefix::default();
        with_scratch(|s| p.fill(self, store, x, s));
        p
    }

    /// The pair embedding `h_G ‖ h_Q` (`2 d_L` scalars, written to `out`)
    /// of two inputs whose prefixes are already built. Uncounted: callers
    /// report their forwards through [`count_pair_forwards`].
    #[allow(clippy::too_many_arguments)]
    pub fn infer_pair_prepared(
        &self,
        store: &ParamStore,
        x: &CrossInput,
        px: &CrossPrefix,
        y: &CrossInput,
        py: &CrossPrefix,
        scratch: &mut InferScratch,
        out: &mut [f32],
    ) {
        let InferScratch {
            tx,
            ty,
            zx,
            zy,
            hx,
            hy,
            alpha,
            mux,
            muy,
            ..
        } = scratch;
        add_row_relu_into(&px.tw, &py.mu_w, hx);
        add_row_relu_into(&py.tw, &px.mu_w, hy);
        for (l, layer) in self.layers.iter().enumerate().skip(1) {
            x.sparse[l].matmul_into(hx, tx);
            y.sparse[l].matmul_into(hy, ty);
            let w = store.value(layer.w);
            project_into(tx, w, zx);
            project_into(ty, w, zy);
            let a2 = store.value(layer.a2).data();
            attention_pool(tx, a2, &px.lnw[l], zx, alpha, mux);
            attention_pool(ty, a2, &py.lnw[l], zy, alpha, muy);
            add_row_relu_into(zx, muy, hx);
            add_row_relu_into(zy, mux, hy);
        }
        let layers = self.layers.len();
        let (h_g, h_q) = out.split_at_mut(self.cfg.out_dim());
        weighted_mean_rows_into(hx, &x.sizes[layers], h_g);
        weighted_mean_rows_into(hy, &y.sizes[layers], h_q);
    }

    /// [`CrossGraphNet::infer_pair_prepared`] for bare inputs: both
    /// prefixes are filled in the scratch first, then the same kernel runs.
    /// Counts one forward.
    pub fn infer_pair(
        &self,
        store: &ParamStore,
        x: &CrossInput,
        y: &CrossInput,
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
    ) {
        count_pair_forwards(1);
        let mut px = std::mem::take(&mut scratch.pre_x);
        let mut py = std::mem::take(&mut scratch.pre_y);
        px.fill(self, store, x, scratch);
        py.fill(self, store, y, scratch);
        out.resize(self.pair_dim(), 0.0);
        self.infer_pair_prepared(store, x, &px, y, &py, scratch, out);
        scratch.pre_x = px;
        scratch.pre_y = py;
    }
}

impl Gin {
    /// Tape-free twin of [`Gin::embed`]: writes the pooled `1 × d_L` graph
    /// embedding into `out`. Bit-identical to the tape path.
    pub fn infer_embed(
        &self,
        store: &ParamStore,
        g: &Graph,
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
    ) {
        EMBED_CALLS.get().inc();
        let n = g.node_count();
        out.clear();
        if n == 0 {
            out.resize(self.cfg.out_dim(), 0.0);
            return;
        }
        let InferScratch {
            agg, gh, gt, gz, ..
        } = scratch;
        agg.reset(n, n);
        for u in 0..n as NodeId {
            agg.set(u as usize, u as usize, 1.0);
            for &v in g.neighbors(u) {
                agg.set(u as usize, v as usize, 1.0);
            }
        }
        gh.reset(n, self.cfg.num_labels);
        for (i, &l) in g.labels().iter().enumerate() {
            debug_assert!((l as usize) < self.cfg.num_labels);
            gh.set(i, l as usize, 1.0);
        }
        for &wid in &self.weights {
            agg.matmul_into(gh, gt);
            let w = store.value(wid);
            gt.matmul_into(w, gz);
            for v in gz.data_mut() {
                *v = v.max(0.0);
            }
            std::mem::swap(gh, gz);
        }
        // Mean readout = weighted_mean_rows with all-ones weights; the
        // tape computes the total by summing the ones, replicated here so
        // the division is bit-identical.
        let total: f32 = (0..n).map(|_| 1.0f32).sum();
        out.resize(self.cfg.out_dim(), 0.0);
        for i in 0..n {
            for (o, &v) in out.iter_mut().zip(gh.row(i)) {
                *o += v / total;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gin::GnnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gin_infer_matches_tape_embed_bitwise() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut store = ParamStore::new();
        let gin = Gin::new(&mut rng, &mut store, GnnConfig::uniform(3, 8, 2));
        let mut scratch = InferScratch::new();
        let mut out = Vec::new();
        for _ in 0..10 {
            let g = lan_graph::generators::molecule_like(&mut rng, 9, 2, 4, 3);
            let want = gin.embed(&store, &g);
            gin.infer_embed(&store, &g, &mut scratch, &mut out);
            assert_eq!(out.as_slice(), want.data(), "GIN infer != tape embed");
        }
    }

    #[test]
    fn gin_infer_empty_graph_is_zero() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut store = ParamStore::new();
        let gin = Gin::new(&mut rng, &mut store, GnnConfig::uniform(3, 6, 2));
        let mut out = vec![1.0; 3];
        with_scratch(|s| gin.infer_embed(&store, &Graph::empty(), s, &mut out));
        assert_eq!(out, vec![0.0; 6]);
    }
}
