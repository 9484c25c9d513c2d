//! Tape-based reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records a forward computation as a DAG of [`Op`] nodes; calling
//! [`Tape::backward`] walks the nodes in reverse, accumulating gradients into
//! a [`ParamStore`]. One tape is built per training sample and discarded
//! afterwards. At the model sizes here a sample's forward, backward and
//! tape allocations come to ~20 us; what used to dominate a training
//! step was not the tape but the optimizer walking subnormal moments
//! (see [`crate::optim`]), and after that the number of samples whose
//! features are pushed through a tape at all — `lan-models` builds them
//! only for the samples training will visit.
//! Inference simply runs the forward pass and never calls `backward`, so
//! training and inference share one numerically identical code path — which
//! is what lets the CG-equivalence tests (paper Theorem 2) compare plain and
//! compressed forwards bit-for-bit-close.
//!
//! The op set is exactly what the LAN models need; the attention scores
//! `a · (t_u ‖ t_v)` are factorized as `a₁·t_u + a₂·t_v` and materialized
//! with [`Tape::rank1_add`], so no `n·m × 2d` blow-up ever happens.

use crate::matrix::Matrix;
use crate::param::ParamStore;

/// Index of a node on a [`Tape`].
pub type Var = usize;

#[derive(Debug, Clone)]
enum Op {
    /// Constant input; no gradient.
    Leaf,
    /// Trainable parameter; gradient accumulates into the store.
    Param(usize),
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    Transpose(Var),
    ConcatCols(Var, Var),
    /// `out[i][j] = col[i] + row[j]` with `col: n×1`, `row: 1×m`.
    Rank1Add(Var, Var),
    /// Row-wise softmax with fixed positive column weights `w`:
    /// `out[i][j] = w[j]·exp(x[i][j]) / Σ_k w[k]·exp(x[i][k])`.
    WeightedRowSoftmax(Var, Vec<f32>),
    /// Weighted mean of the rows: `out = Σ_i w[i]·x[i,:] / Σ_i w[i]`,
    /// producing `1×cols`.
    WeightedMeanRows(Var, Vec<f32>),
    /// Binary cross-entropy with logits against a fixed target, on a 1×1
    /// logit. Numerically stable form.
    BceWithLogits(Var, f32),
    /// Mean squared error against a fixed target matrix.
    Mse(Var, Matrix),
}

struct Node {
    op: Op,
    value: Matrix,
}

/// The autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Rough floating-point-operation count of the forward pass; used by the
    /// Theorem 3 op-count tests and the Fig. 12 accounting.
    flops: u64,
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.nodes.push(Node { op, value });
        self.nodes.len() - 1
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v].value
    }

    /// Approximate flops recorded by the forward pass so far.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Number of nodes recorded.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant (no gradient).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Records a parameter, cloning its current value from the store.
    pub fn param(&mut self, store: &ParamStore, id: usize) -> Var {
        self.push(Op::Param(id), store.value(id).clone())
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let va = &self.nodes[a].value;
        let vb = &self.nodes[b].value;
        self.flops += 2 * (va.rows() * va.cols() * vb.cols()) as u64;
        let v = va.matmul(vb);
        self.push(Op::MatMul(a, b), v)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a].value.add(&self.nodes[b].value);
        self.flops += (v.rows() * v.cols()) as u64;
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a].value.sub(&self.nodes[b].value);
        self.flops += (v.rows() * v.cols()) as u64;
        self.push(Op::Sub(a, b), v)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a].value.scale(s);
        self.flops += (v.rows() * v.cols()) as u64;
        self.push(Op::Scale(a, s), v)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a].value.map(|x| x.max(0.0));
        self.flops += (v.rows() * v.cols()) as u64;
        self.push(Op::Relu(a), v)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a].value.transpose();
        self.push(Op::Transpose(a), v)
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a].value.concat_cols(&self.nodes[b].value);
        self.push(Op::ConcatCols(a, b), v)
    }

    /// `out[i][j] = col[i] + row[j]` (`col: n×1`, `row: 1×m`).
    pub fn rank1_add(&mut self, col: Var, row: Var) -> Var {
        let c = &self.nodes[col].value;
        let r = &self.nodes[row].value;
        assert_eq!(c.cols(), 1, "rank1_add: col operand must be n×1");
        assert_eq!(r.rows(), 1, "rank1_add: row operand must be 1×m");
        let v = Matrix::from_fn(c.rows(), r.cols(), |i, j| c.get(i, 0) + r.get(0, j));
        self.flops += (c.rows() * r.cols()) as u64;
        self.push(Op::Rank1Add(col, row), v)
    }

    /// Row-softmax with fixed positive column weights (paper Eq. 10: the
    /// `|q|`-weighted attention; all-ones weights give Eq. 6).
    pub fn weighted_row_softmax(&mut self, a: Var, w: Vec<f32>) -> Var {
        let x = &self.nodes[a].value;
        assert_eq!(w.len(), x.cols(), "weight length must match columns");
        assert!(
            w.iter().all(|&wi| wi > 0.0),
            "softmax weights must be positive"
        );
        let mut v = Matrix::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            // Stabilize by the row max of x + ln w.
            let logs: Vec<f32> = (0..x.cols()).map(|j| x.get(i, j) + w[j].ln()).collect();
            let m = logs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = logs.iter().map(|&l| (l - m).exp()).collect();
            let z: f32 = exps.iter().sum();
            for (j, &e) in exps.iter().enumerate() {
                v.set(i, j, e / z);
            }
        }
        self.flops += 4 * (x.rows() * x.cols()) as u64;
        self.push(Op::WeightedRowSoftmax(a, w), v)
    }

    /// Weighted mean of rows → `1×cols` (paper: final readout; group-size
    /// weighted for CGs, all-ones for plain graphs).
    pub fn weighted_mean_rows(&mut self, a: Var, w: Vec<f32>) -> Var {
        let x = &self.nodes[a].value;
        assert_eq!(w.len(), x.rows(), "weight length must match rows");
        let total: f32 = w.iter().sum();
        assert!(total > 0.0, "weights must not sum to zero");
        let mut v = Matrix::zeros(1, x.cols());
        for (i, &wi) in w.iter().enumerate() {
            for j in 0..x.cols() {
                v.set(0, j, v.get(0, j) + wi * x.get(i, j) / total);
            }
        }
        self.flops += 2 * (x.rows() * x.cols()) as u64;
        self.push(Op::WeightedMeanRows(a, w), v)
    }

    /// Stable binary cross-entropy with logits on a 1×1 logit node.
    pub fn bce_with_logits(&mut self, logit: Var, target: f32) -> Var {
        let z = self.nodes[logit].value.scalar();
        // max(z,0) - z*y + ln(1 + exp(-|z|))
        let loss = z.max(0.0) - z * target + (-z.abs()).exp().ln_1p();
        self.push(
            Op::BceWithLogits(logit, target),
            Matrix::from_vec(1, 1, vec![loss]),
        )
    }

    /// Mean squared error against a fixed target (same shape as `pred`).
    pub fn mse(&mut self, pred: Var, target: Matrix) -> Var {
        let p = &self.nodes[pred].value;
        assert_eq!(p.shape(), target.shape(), "mse shape mismatch");
        let n = (p.rows() * p.cols()) as f32;
        let loss = p.sub(&target).data().iter().map(|d| d * d).sum::<f32>() / n;
        self.push(Op::Mse(pred, target), Matrix::from_vec(1, 1, vec![loss]))
    }

    /// Reverse pass from the scalar node `root` (must be 1×1); gradients of
    /// parameters accumulate into `store`.
    pub fn backward(&self, root: Var, store: &mut ParamStore) {
        assert_eq!(
            self.nodes[root].value.shape(),
            (1, 1),
            "backward root must be scalar"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[root] = Some(Matrix::ones(1, 1));

        for idx in (0..=root).rev() {
            let Some(g) = grads[idx].take() else { continue };
            match &self.nodes[idx].op {
                Op::Leaf => {}
                Op::Param(pid) => store.grad_mut(*pid).add_assign(&g),
                Op::MatMul(a, b) => {
                    let va = &self.nodes[*a].value;
                    let vb = &self.nodes[*b].value;
                    accumulate(&mut grads, *a, g.matmul(&vb.transpose()));
                    accumulate(&mut grads, *b, va.transpose().matmul(&g));
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *b, g.scale(-1.0));
                    accumulate(&mut grads, *a, g);
                }
                Op::Scale(a, s) => accumulate(&mut grads, *a, g.scale(*s)),
                Op::Relu(a) => {
                    let va = &self.nodes[*a].value;
                    let ga = Matrix::from_fn(va.rows(), va.cols(), |i, j| {
                        if va.get(i, j) > 0.0 {
                            g.get(i, j)
                        } else {
                            0.0
                        }
                    });
                    accumulate(&mut grads, *a, ga);
                }
                Op::Transpose(a) => accumulate(&mut grads, *a, g.transpose()),
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[*a].value.cols();
                    let rows = g.rows();
                    let cb = g.cols() - ca;
                    let ga = Matrix::from_fn(rows, ca, |i, j| g.get(i, j));
                    let gb = Matrix::from_fn(rows, cb, |i, j| g.get(i, ca + j));
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Rank1Add(col, row) => {
                    let n = g.rows();
                    let m = g.cols();
                    let gcol = Matrix::from_fn(n, 1, |i, _| (0..m).map(|j| g.get(i, j)).sum());
                    let grow = Matrix::from_fn(1, m, |_, j| (0..n).map(|i| g.get(i, j)).sum());
                    accumulate(&mut grads, *col, gcol);
                    accumulate(&mut grads, *row, grow);
                }
                Op::WeightedRowSoftmax(a, _w) => {
                    // y = softmax(x + ln w) row-wise; dL/dx = y ⊙ (g - (g·y) 1ᵀ).
                    let y = &self.nodes[idx].value;
                    let mut ga = Matrix::zeros(y.rows(), y.cols());
                    for i in 0..y.rows() {
                        let dot: f32 = (0..y.cols()).map(|j| g.get(i, j) * y.get(i, j)).sum();
                        for j in 0..y.cols() {
                            ga.set(i, j, y.get(i, j) * (g.get(i, j) - dot));
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::WeightedMeanRows(a, w) => {
                    let total: f32 = w.iter().sum();
                    let x = &self.nodes[*a].value;
                    let ga = Matrix::from_fn(x.rows(), x.cols(), |i, j| w[i] / total * g.get(0, j));
                    accumulate(&mut grads, *a, ga);
                }
                Op::BceWithLogits(logit, target) => {
                    let z = self.nodes[*logit].value.scalar();
                    let sig = 1.0 / (1.0 + (-z).exp());
                    let gz = (sig - target) * g.scalar();
                    accumulate(&mut grads, *logit, Matrix::from_vec(1, 1, vec![gz]));
                }
                Op::Mse(pred, target) => {
                    let p = &self.nodes[*pred].value;
                    let n = (p.rows() * p.cols()) as f32;
                    let gs = g.scalar();
                    let gp = Matrix::from_fn(p.rows(), p.cols(), |i, j| {
                        2.0 * (p.get(i, j) - target.get(i, j)) / n * gs
                    });
                    accumulate(&mut grads, *pred, gp);
                }
            }
        }
    }
}

fn accumulate(grads: &mut [Option<Matrix>], idx: Var, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Sigmoid helper (used when interpreting logits at inference time).
pub fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Finite-difference gradient check for a scalar function of one
    /// parameter matrix.
    fn grad_check(build: impl Fn(&mut Tape, &ParamStore) -> Var, init: Matrix, tol: f32) {
        let mut store = ParamStore::new();
        let pid = store.add(init);
        // Analytic gradient.
        let mut tape = Tape::new();
        let root = build(&mut tape, &store);
        store.zero_grads();
        tape.backward(root, &mut store);
        let analytic = store.grad(pid).clone();

        // Numeric gradient.
        let eps = 1e-3f32;
        let (r, c) = store.value(pid).shape();
        for i in 0..r {
            for j in 0..c {
                let orig = store.value(pid).get(i, j);
                store.value_mut(pid).set(i, j, orig + eps);
                let mut t1 = Tape::new();
                let v1 = build(&mut t1, &store);
                let f1 = t1.value(v1).scalar();
                store.value_mut(pid).set(i, j, orig - eps);
                let mut t2 = Tape::new();
                let v2 = build(&mut t2, &store);
                let f2 = t2.value(v2).scalar();
                store.value_mut(pid).set(i, j, orig);
                let numeric = (f1 - f2) / (2.0 * eps);
                let a = analytic.get(i, j);
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "grad mismatch at ({i},{j}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    fn rand_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn forward_values() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c).scalar(), 11.0);
        assert!(t.flops() > 0);
    }

    #[test]
    fn grad_matmul_sum() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = rand_matrix(&mut rng, 3, 4);
        grad_check(
            move |t, s| {
                let p = t.param(s, 0);
                let xl = t.leaf(x.clone());
                let y = t.matmul(xl, p); // 3x2
                let w = t.weighted_mean_rows(y, vec![1.0, 2.0, 3.0]); // 1x2
                let ones = t.leaf(Matrix::ones(2, 1));
                t.matmul(w, ones) // scalar
            },
            rand_matrix(&mut StdRng::seed_from_u64(2), 4, 2),
            2e-2,
        );
    }

    #[test]
    fn grad_relu_chain() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = rand_matrix(&mut rng, 2, 3);
        grad_check(
            move |t, s| {
                let p = t.param(s, 0);
                let xl = t.leaf(x.clone());
                let y = t.matmul(xl, p);
                let r = t.relu(y);
                let ones = t.leaf(Matrix::ones(3, 1));
                let v = t.matmul(r, ones);
                let onesr = t.leaf(Matrix::ones(1, 2));
                t.matmul(onesr, v)
            },
            rand_matrix(&mut StdRng::seed_from_u64(4), 3, 3),
            2e-2,
        );
    }

    #[test]
    fn grad_softmax_attention_block() {
        // A miniature of the cross-graph attention: scores via rank1_add,
        // weighted softmax, then a bilinear readout.
        let mut rng = StdRng::seed_from_u64(5);
        let tq = rand_matrix(&mut rng, 3, 2); // "query-side t"
        grad_check(
            move |t, s| {
                let p = t.param(s, 0); // 4x2: plays the role of T_g
                let a1 = t.leaf(Matrix::from_vec(2, 1, vec![0.3, -0.7]));
                let a2 = t.leaf(Matrix::from_vec(2, 1, vec![0.5, 0.2]));
                let col = t.matmul(p, a1); // 4x1
                let tql = t.leaf(tq.clone());
                let qrow0 = t.matmul(tql, a2); // 3x1
                                               // transpose via rank1: need 1x3 row — build with leaf matmul
                let tql2 = t.leaf(tq.transpose()); // 2x3
                let a2l = t.leaf(Matrix::from_vec(1, 2, vec![0.5, 0.2]));
                let row = t.matmul(a2l, tql2); // 1x3
                let _ = qrow0;
                let scores = t.rank1_add(col, row); // 4x3
                let att = t.weighted_row_softmax(scores, vec![1.0, 2.0, 1.0]);
                let tqleaf = t.leaf(tq.clone());
                let mu = t.matmul(att, tqleaf); // 4x2
                let pooled = t.weighted_mean_rows(mu, vec![1.0; 4]); // 1x2
                let ones = t.leaf(Matrix::ones(2, 1));
                t.matmul(pooled, ones)
            },
            rand_matrix(&mut StdRng::seed_from_u64(6), 4, 2),
            3e-2,
        );
    }

    #[test]
    fn grad_bce() {
        for target in [0.0f32, 1.0] {
            grad_check(
                move |t, s| {
                    let p = t.param(s, 0); // 1x1 logit
                    t.bce_with_logits(p, target)
                },
                Matrix::from_vec(1, 1, vec![0.37]),
                1e-2,
            );
        }
    }

    #[test]
    fn grad_mse() {
        let target = Matrix::from_vec(1, 3, vec![0.5, -0.5, 1.0]);
        grad_check(
            move |t, s| {
                let p = t.param(s, 0);
                t.mse(p, target.clone())
            },
            Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_and_rank1() {
        let mut rng = StdRng::seed_from_u64(8);
        let other = rand_matrix(&mut rng, 2, 2);
        grad_check(
            move |t, s| {
                let p = t.param(s, 0); // 2x2
                let o = t.leaf(other.clone());
                let c = t.concat_cols(p, o); // 2x4
                let pooled = t.weighted_mean_rows(c, vec![1.0, 3.0]); // 1x4
                let ones = t.leaf(Matrix::ones(4, 1));
                t.matmul(pooled, ones)
            },
            rand_matrix(&mut StdRng::seed_from_u64(9), 2, 2),
            2e-2,
        );
    }

    #[test]
    fn grad_sub_scale() {
        let mut rng = StdRng::seed_from_u64(10);
        let other = rand_matrix(&mut rng, 1, 3);
        grad_check(
            move |t, s| {
                let p = t.param(s, 0);
                let o = t.leaf(other.clone());
                let d = t.sub(p, o);
                let sc = t.scale(d, 2.5);

                t.mse(sc, Matrix::zeros(1, 3))
            },
            Matrix::from_vec(1, 3, vec![0.4, -0.2, 0.9]),
            1e-2,
        );
    }

    #[test]
    fn grad_transpose() {
        let mut rng = StdRng::seed_from_u64(11);
        let other = rand_matrix(&mut rng, 3, 2);
        grad_check(
            move |t, s| {
                let p = t.param(s, 0); // 2x3
                let pt = t.transpose(p); // 3x2
                let o = t.leaf(other.clone());
                let d = t.sub(pt, o);
                t.mse(d, Matrix::zeros(3, 2))
            },
            rand_matrix(&mut StdRng::seed_from_u64(12), 2, 3),
            1e-2,
        );
    }

    #[test]
    fn bce_matches_closed_form() {
        let mut t = Tape::new();
        let z = t.leaf(Matrix::from_vec(1, 1, vec![0.8]));
        let l1 = t.bce_with_logits(z, 1.0);
        let expected = -(sigmoid(0.8)).ln();
        assert!((t.value(l1).scalar() - expected).abs() < 1e-6);
        let l0 = t.bce_with_logits(z, 0.0);
        let expected0 = -(1.0 - sigmoid(0.8)).ln();
        assert!((t.value(l0).scalar() - expected0).abs() < 1e-6);
    }

    #[test]
    fn weighted_softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 3, vec![0.1, 5.0, -2.0, 0.0, 0.0, 0.0]));
        let y = t.weighted_row_softmax(x, vec![1.0, 2.0, 3.0]);
        for i in 0..2 {
            let s: f32 = t.value(y).row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Uniform input with weights (1,2,3) gives probabilities 1/6, 2/6, 3/6.
        let r1 = t.value(y).row(1);
        assert!((r1[0] - 1.0 / 6.0).abs() < 1e-6);
        assert!((r1[1] - 2.0 / 6.0).abs() < 1e-6);
        assert!((r1[2] - 3.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn gradient_accumulates_across_backward_calls() {
        let mut store = ParamStore::new();
        let pid = store.add(Matrix::from_vec(1, 1, vec![2.0]));
        for _ in 0..2 {
            let mut t = Tape::new();
            let p = t.param(&store, pid);
            let sq = t.mse(p, Matrix::zeros(1, 1));
            t.backward(sq, &mut store);
        }
        // d/dp (p^2) = 2p = 4, accumulated twice = 8.
        assert!((store.grad(pid).scalar() - 8.0).abs() < 1e-6);
    }
}
