//! Optimizers: Adam with the paper's step-decay learning-rate schedule.
//!
//! # What a step costs
//!
//! The heads this optimizer trains are small (a few thousand scalars), so
//! a step should be a few microseconds of streaming arithmetic. It was
//! not: the first moment of a weight whose gradient has gone to exactly
//! zero — a dead ReLU unit, an input feature that is always zero — decays
//! by `beta1` per step, reaches the f32 subnormal range after ~800 steps
//! and stays there for another ~150, and every multiply or divide that
//! touches a subnormal takes a microcode assist on x86 (~100 cycles
//! instead of ~1). With about half of a ranker head's moments in that
//! state, a step cost ~200 us instead of ~5.
//!
//! [`Adam::step`] therefore stores a moment as `0.0` once its magnitude
//! is below `f32::MIN_POSITIVE`. That is not flush-to-zero arithmetic in
//! general (no CPU mode is changed); it is a statement about this update
//! rule: a first moment `|m| < 1.18e-38` contributes at most
//! `lr * |m| / (b1t * eps)` to the weight, which with `lr <= 0.005`,
//! `b1t >= 0.1` and `eps = 1e-8` is below `6e-33` — less than half an ulp
//! of any weight larger than `1e-25`, so the subtraction returns the
//! weight unchanged either way. A second moment that small has
//! `sqrt(v / b2t) <= 3.5e-18`, which vanishes against `eps` (half an ulp
//! of `1e-8` is `4.4e-16`), so the denominator is `eps` either way. When
//! the gradient comes back, `(1 - beta1) * g` absorbs the lost tail: the
//! sum `beta1 * m + (1 - beta1) * g` rounds to its second term for any
//! `g` above `1e-30`. `tests/adam_equivalence.rs` holds the scalar,
//! non-flushing step as a reference and checks all of this on bits.
//!
//! The loop walks zipped slices of `value / grad / m / v` — the same
//! IEEE operations per element in the same order as the indexed scalar
//! loop, without its four bounds checks — so it vectorises.

use crate::param::ParamStore;

/// Adam (Kingma & Ba) with bias correction.
///
/// The paper's training setup: initial learning rate 0.005, decayed by 0.96
/// every 5 epochs — see [`StepDecay`].
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with default betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Applies one update from the accumulated gradients, then leaves the
    /// gradients untouched (callers zero them per round).
    ///
    /// A moment whose magnitude falls below `f32::MIN_POSITIVE` is stored
    /// as `0.0`: see the module docs for why that cannot move a weight.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let b1t = 1.0 - beta1.powi(self.t as i32);
        let b2t = 1.0 - beta2.powi(self.t as i32);
        for id in 0..store.len() {
            let p = store.param_mut(id);
            let moments = p.m.data_mut().iter_mut().zip(p.v.data_mut());
            let weights = p.value.data_mut().iter_mut().zip(p.grad.data());
            for ((w, &g), (m, v)) in weights.zip(moments) {
                *m = flush_subnormal(beta1 * *m + (1.0 - beta1) * g);
                *v = flush_subnormal(beta2 * *v + (1.0 - beta2) * g * g);
                let mhat = *m / b1t;
                let vhat = *v / b2t;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// `x`, or `0.0` when `x` is subnormal (a select, so the loop around it
/// still vectorises).
#[inline]
fn flush_subnormal(x: f32) -> f32 {
    if x.abs() < f32::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

/// Step-decay schedule: multiply the learning rate by `factor` every
/// `every_epochs` epochs (paper: 0.96 every 5 epochs from 0.005).
#[derive(Debug, Clone)]
pub struct StepDecay {
    pub initial_lr: f32,
    pub factor: f32,
    pub every_epochs: u32,
}

impl StepDecay {
    /// The paper's schedule.
    pub fn paper() -> Self {
        StepDecay {
            initial_lr: 0.005,
            factor: 0.96,
            every_epochs: 5,
        }
    }

    /// Learning rate at the given 0-based epoch.
    pub fn lr_at(&self, epoch: u32) -> f32 {
        self.initial_lr * self.factor.powi((epoch / self.every_epochs) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::tape::Tape;

    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let pid = store.add(Matrix::from_vec(1, 2, vec![5.0, -3.0]));
        let target = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            store.zero_grads();
            let mut t = Tape::new();
            let p = t.param(&store, pid);
            let l = t.mse(p, target.clone());
            t.backward(l, &mut store);
            adam.step(&mut store);
        }
        assert!(store.value(pid).max_abs_diff(&target) < 1e-2);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn step_decay_schedule() {
        let s = StepDecay::paper();
        assert_eq!(s.lr_at(0), 0.005);
        assert_eq!(s.lr_at(4), 0.005);
        assert!((s.lr_at(5) - 0.005 * 0.96).abs() < 1e-9);
        assert!((s.lr_at(10) - 0.005 * 0.96 * 0.96).abs() < 1e-9);
        // Monotone non-increasing.
        let mut prev = f32::INFINITY;
        for e in 0..50 {
            let lr = s.lr_at(e);
            assert!(lr <= prev);
            prev = lr;
        }
    }
}
