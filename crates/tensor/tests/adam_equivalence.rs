//! `Adam::step` against the step it replaced.
//!
//! [`RefAdam`] is the indexed scalar loop of commit 604df2a, frozen: no
//! zipped slices, no moment flush. The shipped step must give the same
//! weights on bits for every gradient stream, and the same moments on
//! bits wherever the reference's moments are normal numbers; where the
//! reference carries a subnormal moment the shipped step stores `0.0`,
//! which is the whole point (see the `optim` module docs).

use lan_tensor::{Adam, Matrix, ParamStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shapes chosen so no parameter is a multiple of a vector width.
const SHAPES: [(usize, usize); 2] = [(5, 7), (1, 29)];

struct RefAdam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    value: Vec<Vec<f32>>,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl RefAdam {
    fn new(lr: f32, value: Vec<Vec<f32>>) -> Self {
        let zeros: Vec<Vec<f32>> = value.iter().map(|p| vec![0.0; p.len()]).collect();
        RefAdam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: zeros.clone(),
            v: zeros,
            value,
        }
    }

    // The indexed loop is the point: this is the replaced code, verbatim.
    #[allow(clippy::needless_range_loop)]
    fn step(&mut self, grads: &[Vec<f32>]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (id, grad) in grads.iter().enumerate() {
            let n = self.value[id].len();
            for i in 0..n {
                let g = grad[i];
                let m = self.beta1 * self.m[id][i] + (1.0 - self.beta1) * g;
                let v = self.beta2 * self.v[id][i] + (1.0 - self.beta2) * g * g;
                self.m[id][i] = m;
                self.v[id][i] = v;
                let mhat = m / b1t;
                let vhat = v / b2t;
                self.value[id][i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// The same random initial weights in a `ParamStore` and a [`RefAdam`].
fn twins(rng: &mut StdRng, lr: f32) -> (ParamStore, Adam, RefAdam) {
    let mut store = ParamStore::new();
    let mut values = Vec::new();
    for (r, c) in SHAPES {
        let init = Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0));
        values.push(init.data().to_vec());
        store.add(init);
    }
    (store, Adam::new(lr), RefAdam::new(lr, values))
}

fn step_both(store: &mut ParamStore, adam: &mut Adam, reference: &mut RefAdam, grads: &[Vec<f32>]) {
    for (id, g) in grads.iter().enumerate() {
        store.grad_mut(id).data_mut().copy_from_slice(g);
    }
    adam.step(store);
    reference.step(grads);
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dense gradients: no moment ever leaves the normal range, so the
    /// whole optimizer state repeats on bits.
    #[test]
    fn dense_streams_repeat_on_bits(seed in any::<u64>(), scale in 1e-3f32..10.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut store, mut adam, mut reference) = twins(&mut rng, 0.005);
        for step in 0..2000 {
            let grads: Vec<Vec<f32>> = SHAPES
                .iter()
                .map(|&(r, c)| (0..r * c).map(|_| scale * rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            step_both(&mut store, &mut adam, &mut reference, &grads);
            for id in 0..SHAPES.len() {
                let (m, v) = store.moments(id);
                prop_assert_eq!(bits(store.value(id).data()), bits(&reference.value[id]), "value, step {}", step);
                prop_assert_eq!(bits(m.data()), bits(&reference.m[id]), "m, step {}", step);
                prop_assert_eq!(bits(v.data()), bits(&reference.v[id]), "v, step {}", step);
            }
        }
    }

    /// The dead-ReLU pattern: every other weight sees its gradient switch
    /// off for at least 1 500 steps, come back, and switch off again. The
    /// reference's first moments decay through the subnormal range; the
    /// shipped step stores none, and no weight bit differs at any step.
    #[test]
    fn dead_gradient_runs_keep_weights_and_store_no_subnormal(
        seed in any::<u64>(),
        warm in 50usize..300,
        dead in 1500usize..1800,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut store, mut adam, mut reference) = twins(&mut rng, 0.005);
        let mut reference_went_subnormal = false;
        let period = warm + dead;
        for step in 0..2 * period {
            let alive = step % period < warm;
            let grads: Vec<Vec<f32>> = SHAPES
                .iter()
                .map(|&(r, c)| {
                    (0..r * c)
                        .map(|i| {
                            let g = rng.gen_range(-1.0f32..1.0);
                            if i % 2 == 0 || alive { g } else { 0.0 }
                        })
                        .collect()
                })
                .collect();
            step_both(&mut store, &mut adam, &mut reference, &grads);
            for id in 0..SHAPES.len() {
                prop_assert_eq!(bits(store.value(id).data()), bits(&reference.value[id]), "value, step {}", step);
                let (m, v) = store.moments(id);
                for (stored, kept) in [(m.data(), &reference.m[id]), (v.data(), &reference.v[id])] {
                    for (s, k) in stored.iter().zip(kept) {
                        prop_assert!(!s.is_subnormal(), "stored a subnormal moment at step {}", step);
                        prop_assert!((s - k).abs() < f32::MIN_POSITIVE, "moment drifted at step {}", step);
                        reference_went_subnormal |= k.is_subnormal();
                    }
                }
            }
        }
        prop_assert!(reference_went_subnormal, "the stream never exercised the flush");
    }
}
