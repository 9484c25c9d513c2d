//! Neural-network building blocks: linear layers and MLPs, plus the
//! tape-free inference kernels ([`Mlp::infer_scalar`], [`FusedHeads`]) used
//! by the query-time fast path.

use crate::matrix::Matrix;
use crate::param::ParamStore;
use crate::tape::{Tape, Var};
use rand::Rng;

/// A fully connected layer `y = x W + b` with `W: in × out`, `b: 1 × out`
/// broadcast over rows via an explicit ones-column product (keeps the op set
/// minimal).
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: usize,
    pub b: usize,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialized layer in `store`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        store: &mut ParamStore,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(Matrix::xavier(rng, in_dim, out_dim));
        let b = store.add(Matrix::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Records the forward pass for an `n × in_dim` input.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let n = tape.value(x).rows();
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let xw = tape.matmul(x, w);
        if n == 1 {
            tape.add(xw, b)
        } else {
            // Broadcast the bias: ones (n×1) @ b (1×out).
            let ones = tape.leaf(Matrix::ones(n, 1));
            let bb = tape.matmul(ones, b);
            tape.add(xw, bb)
        }
    }
}

/// Multi-layer perceptron with ReLU between layers and a linear head.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, hidden, out]`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, store: &mut ParamStore, dims: &[usize]) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(rng, store, w[0], w[1]))
            .collect();
        Mlp { layers }
    }

    /// Records the forward pass (ReLU after every layer except the last).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, store, h);
            if i + 1 < self.layers.len() {
                h = tape.relu(h);
            }
        }
        h
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(|l| l.in_dim).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(|l| l.out_dim).unwrap_or(0)
    }

    /// Tape-free forward for a single input row with a scalar output.
    /// Bit-identical to the tape path ([`Mlp::forward`] on a `1 × in_dim`
    /// leaf): same axpy matmul, same bias-after-matmul order, same ReLU.
    /// `scratch` carries the ping-pong activation buffers across calls.
    pub fn infer_scalar(&self, store: &ParamStore, x: &[f32], scratch: &mut MlpScratch) -> f32 {
        assert_eq!(x.len(), self.in_dim(), "infer_scalar input dim mismatch");
        assert_eq!(self.out_dim(), 1, "infer_scalar needs a scalar head");
        let MlpScratch { a, b } = scratch;
        a.clear();
        a.extend_from_slice(x);
        for (i, layer) in self.layers.iter().enumerate() {
            let w = store.value(layer.w);
            w.matvec_axpy(a, b);
            let bias = store.value(layer.b);
            for (o, &bb) in b.iter_mut().zip(bias.data()) {
                *o += bb;
            }
            if i + 1 < self.layers.len() {
                for o in b.iter_mut() {
                    *o = o.max(0.0);
                }
            }
            std::mem::swap(a, b);
        }
        a[0]
    }
}

/// Reusable activation buffers for [`Mlp::infer_scalar`].
#[derive(Debug, Default)]
pub struct MlpScratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

/// A bank of identically-shaped `[d, h, 1]` MLP heads fused into two dense
/// matrices so all heads score a whole batch of inputs with one matmul
/// instead of `heads × rows` separate 1×d tapes.
///
/// Layer-1 weights are stored side by side (`w1: d × (heads·h)`, column
/// `head·h + j` = column `j` of that head's `W1`), so the batched layer-1
/// is an axpy over the `heads·h` contiguous outputs
/// ([`Matrix::matmul_acc_into`]), which vectorizes, instead of a
/// latency-bound dot per output. It sums each output in the k order,
/// zero-skip included, of the tape's `matmul` op,
/// so a fused logit is bit-identical to the per-head tape forward. Each
/// output row depends only on its own input row, so scoring a batch is
/// also bit-identical to scoring its rows one at a time — and a row's sum
/// may stop after any leading features and resume later
/// ([`FusedHeads::prefix_into`], [`FusedHeads::finish_into`]).
#[derive(Debug, Clone)]
pub struct FusedHeads {
    pub num_heads: usize,
    pub in_dim: usize,
    pub hidden: usize,
    w1: Matrix,
    b1: Vec<f32>,
    w2: Matrix,
    b2: Vec<f32>,
}

impl FusedHeads {
    /// Snapshots the given heads' parameters. All heads must be two-layer
    /// `[d, h, 1]` MLPs of identical shape.
    pub fn new(heads: &[Mlp], store: &ParamStore) -> Self {
        assert!(!heads.is_empty(), "FusedHeads needs at least one head");
        let in_dim = heads[0].in_dim();
        let hidden = heads[0].layers[0].out_dim;
        let num_heads = heads.len();
        let mut w1 = Matrix::zeros(in_dim, num_heads * hidden);
        let mut b1 = vec![0.0f32; num_heads * hidden];
        let mut w2 = Matrix::zeros(num_heads, hidden);
        let mut b2 = vec![0.0f32; num_heads];
        for (hd, head) in heads.iter().enumerate() {
            assert_eq!(head.layers.len(), 2, "FusedHeads: heads must be [d,h,1]");
            assert_eq!(head.in_dim(), in_dim, "FusedHeads: in_dim mismatch");
            assert_eq!(
                head.layers[0].out_dim, hidden,
                "FusedHeads: hidden mismatch"
            );
            assert_eq!(head.out_dim(), 1, "FusedHeads: heads must be scalar");
            let l1w = store.value(head.layers[0].w); // d × h
            let l1b = store.value(head.layers[0].b); // 1 × h
            let l2w = store.value(head.layers[1].w); // h × 1
            let l2b = store.value(head.layers[1].b); // 1 × 1
            for j in 0..hidden {
                for k in 0..in_dim {
                    w1.set(k, hd * hidden + j, l1w.get(k, j));
                }
                b1[hd * hidden + j] = l1b.get(0, j);
                w2.set(hd, j, l2w.get(j, 0));
            }
            b2[hd] = l2b.get(0, 0);
        }
        FusedHeads {
            num_heads,
            in_dim,
            hidden,
            w1,
            b1,
            w2,
            b2,
        }
    }

    /// Scores every row of `x` (`n × in_dim`) with every head:
    /// `out[i][head]` is that head's pre-sigmoid logit for row `i`,
    /// bit-identical to that head's own tape forward on that row.
    /// `hidden` is a reusable `n × (heads·h)` scratch buffer.
    pub fn score_into(&self, x: &Matrix, hidden: &mut Matrix, out: &mut Matrix) {
        hidden.reset(x.rows(), self.num_heads * self.hidden);
        self.finish_into(x, hidden, out);
    }

    /// The layer-1 sums of each row of `x` after its leading `x.cols()`
    /// features, bias not added: what every output of
    /// [`FusedHeads::score_into`] holds at that step of its k-ordered sum.
    /// Written to `out` (`n × heads·h`); resume them with
    /// [`FusedHeads::finish_into`].
    pub fn prefix_into(&self, x: &Matrix, out: &mut Matrix) {
        out.reset(x.rows(), self.num_heads * self.hidden);
        x.matmul_acc_into(&self.w1, 0, out);
    }

    /// Finishes rows whose layer-1 sums over all but the last `tail.cols()`
    /// features are already in `hidden` (`n × heads·h`, rows of
    /// [`FusedHeads::prefix_into`]; zeros for whole rows): adds the tail
    /// features, then the bias, the ReLU and layer 2, writing the logits
    /// to `out` exactly as [`FusedHeads::score_into`] would on the full
    /// rows ([`Matrix::matmul_acc_into`]).
    pub fn finish_into(&self, tail: &Matrix, hidden: &mut Matrix, out: &mut Matrix) {
        let n = tail.rows();
        tail.matmul_acc_into(&self.w1, self.in_dim - tail.cols(), hidden);
        let (heads, h) = (self.num_heads, self.hidden);
        for row in hidden.data_mut().chunks_exact_mut(heads * h) {
            for (v, &b) in row.iter_mut().zip(&self.b1) {
                *v = (*v + b).max(0.0);
            }
        }
        out.reset(n, heads);
        // Layer 2: each head's serial k-order sum, like the tape's 1×h @
        // h×1 matmul, which skips ReLU zeros. Adding +0 in their place
        // leaves a sum as it was (it starts at +0 and never becomes -0) and
        // costs no mispredicted branch. Rows go two at a time (an odd last
        // row twice), their chains interleaved.
        for i in (0..n).step_by(2) {
            let rows = [i, (i + 1).min(n - 1)];
            for hd in 0..heads {
                let seg = |r: usize| &hidden.row(r)[hd * h..(hd + 1) * h];
                let (mut s0, mut s1) = (0.0f32, 0.0f32);
                let terms = seg(rows[0]).iter().zip(seg(rows[1])).zip(self.w2.row(hd));
                for ((&a0, &a1), &w) in terms {
                    s0 += if a0 == 0.0 { 0.0 } else { a0 * w };
                    s1 += if a1 == 0.0 { 0.0 } else { a1 * w };
                }
                out.set(rows[0], hd, s0 + self.b2[hd]);
                out.set(rows[1], hd, s1 + self.b2[hd]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut rng, &mut store, 4, 3);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(5, 4));
        let y = lin.forward(&mut t, &store, x);
        assert_eq!(t.value(y).shape(), (5, 3));
    }

    #[test]
    fn bias_broadcast_rows_equal_on_equal_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut rng, &mut store, 3, 2);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(4, 3));
        let y = lin.forward(&mut t, &store, x);
        let v = t.value(y);
        for i in 1..4 {
            assert_eq!(v.row(i), v.row(0));
        }
    }

    #[test]
    fn mlp_learns_xor_like_separation() {
        // Tiny sanity check that the full train loop (tape + params + Adam)
        // reduces loss on a nonlinear problem.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut rng, &mut store, &[2, 8, 1]);
        let data = [
            ([0.0f32, 0.0], 0.0f32),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let mut adam = Adam::new(0.05);
        let loss_at = |store: &ParamStore, mlp: &Mlp| -> f32 {
            data.iter()
                .map(|(x, y)| {
                    let mut t = Tape::new();
                    let xv = t.leaf(Matrix::from_vec(1, 2, x.to_vec()));
                    let logit = mlp.forward(&mut t, store, xv);
                    let l = t.bce_with_logits(logit, *y);
                    t.value(l).scalar()
                })
                .sum::<f32>()
                / 4.0
        };
        let initial = loss_at(&store, &mlp);
        for _ in 0..300 {
            store.zero_grads();
            for (x, y) in &data {
                let mut t = Tape::new();
                let xv = t.leaf(Matrix::from_vec(1, 2, x.to_vec()));
                let logit = mlp.forward(&mut t, &store, xv);
                let l = t.bce_with_logits(logit, *y);
                t.backward(l, &mut store);
            }
            adam.step(&mut store);
        }
        let trained = loss_at(&store, &mlp);
        assert!(
            trained < initial * 0.3,
            "XOR training failed: {initial} -> {trained}"
        );
    }

    #[test]
    fn infer_scalar_matches_tape_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut rng, &mut store, &[6, 5, 1]);
        let mut scratch = MlpScratch::default();
        for _ in 0..20 {
            // Exact zeros exercise the axpy zero-skip against the tape path.
            let x: Vec<f32> = (0..6)
                .map(|i| {
                    if i % 2 == 0 {
                        0.0
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            let mut t = Tape::new();
            let xv = t.leaf(Matrix::from_vec(1, 6, x.clone()));
            let y = mlp.forward(&mut t, &store, xv);
            let want = t.value(y).scalar();
            let got = mlp.infer_scalar(&store, &x, &mut scratch);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "infer != tape: {got} vs {want}"
            );
        }
    }

    #[test]
    fn fused_heads_match_per_head_tapes() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut store = ParamStore::new();
        let heads: Vec<Mlp> = (0..4)
            .map(|_| Mlp::new(&mut rng, &mut store, &[7, 5, 1]))
            .collect();
        let fused = FusedHeads::new(&heads, &store);
        assert_eq!(fused.num_heads, 4);
        let n = 6;
        let x = Matrix::from_fn(n, 7, |_, _| rng.gen_range(-2.0..2.0f32));
        let mut hidden = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        fused.score_into(&x, &mut hidden, &mut out);
        assert_eq!(out.shape(), (n, 4));
        for i in 0..n {
            for (hd, head) in heads.iter().enumerate() {
                let mut t = Tape::new();
                let xv = t.leaf(Matrix::from_vec(1, 7, x.row(i).to_vec()));
                let y = head.forward(&mut t, &store, xv);
                let want = t.value(y).scalar();
                let got = out.get(i, hd);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "row {i} head {hd}: fused {got} vs tape {want}"
                );
            }
        }
    }

    #[test]
    fn fused_heads_batch_rows_independent() {
        // A row's score must not depend on which other rows share the batch.
        let mut rng = StdRng::seed_from_u64(23);
        let mut store = ParamStore::new();
        let heads: Vec<Mlp> = (0..3)
            .map(|_| Mlp::new(&mut rng, &mut store, &[5, 4, 1]))
            .collect();
        let fused = FusedHeads::new(&heads, &store);
        let x = Matrix::from_fn(8, 5, |_, _| rng.gen_range(-1.0..1.0f32));
        let mut hidden = Matrix::zeros(0, 0);
        let (mut batch, mut single) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        fused.score_into(&x, &mut hidden, &mut batch);
        for i in 0..8 {
            let xi = Matrix::from_vec(1, 5, x.row(i).to_vec());
            fused.score_into(&xi, &mut hidden, &mut single);
            for hd in 0..3 {
                assert_eq!(
                    batch.get(i, hd).to_bits(),
                    single.get(0, hd).to_bits(),
                    "batching changed row {i} head {hd}"
                );
            }
        }
    }

    #[test]
    fn a_row_resumed_after_its_leading_features_keeps_its_bits() {
        // Rows with exact zeros (skipped terms), weights with exact zeros,
        // a layer-1 width of 3·7 = 21 (one tile and a partial one), odd
        // row counts (the unpaired last row) and every split point.
        let mut rng = StdRng::seed_from_u64(24);
        let mut store = ParamStore::new();
        let heads: Vec<Mlp> = (0..3)
            .map(|_| Mlp::new(&mut rng, &mut store, &[9, 7, 1]))
            .collect();
        for id in 0..store.len() {
            for v in store.value_mut(id).data_mut() {
                if rng.gen_bool(0.2) {
                    *v = 0.0;
                }
            }
        }
        let fused = FusedHeads::new(&heads, &store);
        let zero_heavy = |rng: &mut StdRng| {
            if rng.gen_bool(0.3) {
                0.0
            } else {
                rng.gen_range(-2.0..2.0f32)
            }
        };
        let (mut hidden, mut want, mut got) = (
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
            Matrix::zeros(0, 0),
        );
        for n in 1..=5 {
            let x = Matrix::from_fn(n, 9, |_, _| zero_heavy(&mut rng));
            fused.score_into(&x, &mut hidden, &mut want);
            for split in 0..=9 {
                let head = Matrix::from_fn(n, split, |i, k| x.get(i, k));
                fused.prefix_into(&head, &mut hidden);
                let tail = Matrix::from_fn(n, 9 - split, |i, k| x.get(i, split + k));
                fused.finish_into(&tail, &mut hidden, &mut got);
                let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{n} rows split at {split}");
            }
        }
    }

    #[test]
    fn mlp_dims() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut rng, &mut store, &[6, 4, 2]);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(store.len(), 4); // 2 layers x (W, b)
    }
}
