//! Property tests: the tape-free inference forward matches the tape
//! forward within 1e-5 on random plain/CG input pairs. (It is not
//! bit-identical: the inference kernel pools the other graph once instead
//! of materialising the attention matrix — see `attention_collapse.rs`.)
//!
//! It also matches, bit for bit, a frozen copy of the dense inference
//! forward (`dense_ref`): the kernels aggregate over the row-compressed
//! operators and sum each projected row in registers, which must change no
//! bit. An ignored stress sweep runs in release mode:
//! `cargo test --release -p lan-gnn --test infer_equivalence -- --include-ignored`.

use lan_gnn::{CompressedGnnGraph, CrossGraphNet, CrossInput, GnnConfig, InferScratch};
use lan_graph::generators::{erdos_renyi, molecule_like, power_law_like};
use lan_graph::Graph;
use lan_tensor::{Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn new_net(seed: u64, num_labels: usize, dim: usize, layers: usize) -> (CrossGraphNet, ParamStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let net = CrossGraphNet::new(
        &mut rng,
        &mut store,
        GnnConfig::uniform(num_labels, dim, layers),
    );
    (net, store)
}

fn tape_pair(net: &CrossGraphNet, store: &ParamStore, x: &CrossInput, y: &CrossInput) -> Matrix {
    let mut t = Tape::new();
    let out = net.forward(&mut t, store, x, y);
    t.value(out.h_pair).clone()
}

fn max_diff(a: &[f32], b: &Matrix) -> f32 {
    assert_eq!(a.len(), b.cols());
    a.iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[test]
fn infer_matches_tape_on_random_plain_pairs() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut scratch = InferScratch::new();
    let mut got = Vec::new();
    for trial in 0..20 {
        let (net, store) = new_net(200 + trial, 3, 6, 2);
        let g = molecule_like(&mut rng, 4 + (trial as usize % 10), 2, 4, 3);
        let q = erdos_renyi(&mut rng, 3 + (trial as usize % 7), 6, 3);
        let xi = CrossInput::plain(&g, &net.cfg);
        let yi = CrossInput::plain(&q, &net.cfg);
        let want = tape_pair(&net, &store, &xi, &yi);
        net.infer_pair(&store, &xi, &yi, &mut scratch, &mut got);
        let d = max_diff(&got, &want);
        assert!(d < 1e-5, "plain trial {trial}: infer differs by {d}");
    }
}

#[test]
fn infer_matches_tape_on_random_cg_pairs() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut scratch = InferScratch::new();
    let mut got = Vec::new();
    for trial in 0..20 {
        let (net, store) = new_net(300 + trial, 2, 8, 2);
        let g = power_law_like(&mut rng, 8 + (trial as usize % 12), 2, 0, 2);
        let q = molecule_like(&mut rng, 5 + (trial as usize % 8), 1, 4, 2);
        let xi = CrossInput::compressed(&CompressedGnnGraph::build(&g, 2), &net.cfg);
        let yi = CrossInput::compressed(&CompressedGnnGraph::build(&q, 2), &net.cfg);
        let want = tape_pair(&net, &store, &xi, &yi);
        net.infer_pair(&store, &xi, &yi, &mut scratch, &mut got);
        let d = max_diff(&got, &want);
        assert!(d < 1e-5, "CG trial {trial}: infer differs by {d}");
    }
}

#[test]
fn infer_matches_tape_on_mixed_operands() {
    // The deployment mode: precomputed database CG against a plain query.
    let mut rng = StdRng::seed_from_u64(43);
    let mut scratch = InferScratch::new();
    let mut got = Vec::new();
    for trial in 0..10 {
        let (net, store) = new_net(400 + trial, 3, 6, 2);
        let g = molecule_like(&mut rng, 10, 2, 4, 3);
        let q = molecule_like(&mut rng, 7, 2, 4, 3);
        let xi = CrossInput::compressed(&CompressedGnnGraph::build(&g, 2), &net.cfg);
        let yi = CrossInput::plain(&q, &net.cfg);
        let want = tape_pair(&net, &store, &xi, &yi);
        net.infer_pair(&store, &xi, &yi, &mut scratch, &mut got);
        let d = max_diff(&got, &want);
        assert!(d < 1e-5, "mixed trial {trial}: infer differs by {d}");
    }
}

#[test]
fn scratch_reuse_does_not_leak_state_between_pairs() {
    // Reusing one scratch across many differently-sized pairs must give the
    // same answers as a fresh scratch per pair.
    let mut rng = StdRng::seed_from_u64(44);
    let (net, store) = new_net(500, 3, 6, 2);
    let pairs: Vec<(CrossInput, CrossInput)> = (0..8)
        .map(|i| {
            let g = molecule_like(&mut rng, 4 + i * 2, 2, 4, 3);
            let q = erdos_renyi(&mut rng, 3 + i, 5, 3);
            (
                CrossInput::plain(&g, &net.cfg),
                CrossInput::plain(&q, &net.cfg),
            )
        })
        .collect();
    let mut shared = InferScratch::new();
    let mut got = Vec::new();
    for (xi, yi) in &pairs {
        net.infer_pair(&store, xi, yi, &mut shared, &mut got);
        let mut fresh = InferScratch::new();
        let mut want = Vec::new();
        net.infer_pair(&store, xi, yi, &mut fresh, &mut want);
        assert_eq!(got, want, "scratch reuse changed the embedding");
    }
    // Determinism for a fixed pair (tiny sanity anchor for the cache).
    let mut a = Vec::new();
    let mut b = Vec::new();
    net.infer_pair(&store, &pairs[0].0, &pairs[0].1, &mut shared, &mut a);
    net.infer_pair(&store, &pairs[0].0, &pairs[0].1, &mut shared, &mut b);
    assert_eq!(a, b);
    let _ = rng.gen_range(0..2); // keep rng used symmetrically
}

/// The inference forward as it stood with dense aggregation operators:
/// `Matrix::matmul_into` for `M_l·h` and for `t·W`. Never optimized.
mod dense_ref {
    use lan_gnn::{CrossGraphNet, CrossInput};
    use lan_tensor::{Matrix, ParamStore};

    pub struct Prefix {
        pub tw: Matrix,
        pub mu_w: Vec<f32>,
        lnw: Vec<Vec<f32>>,
    }

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; 4];
        let chunks = a.len() / 4;
        for c in 0..chunks {
            let i = c * 4;
            acc[0] += a[i] * b[i];
            acc[1] += a[i + 1] * b[i + 1];
            acc[2] += a[i + 2] * b[i + 2];
            acc[3] += a[i + 3] * b[i + 3];
        }
        let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for i in chunks * 4..a.len() {
            s += a[i] * b[i];
        }
        s
    }

    fn attention_pool(t: &Matrix, a2: &[f32], lnw: &[f32], tw: &Matrix) -> Vec<f32> {
        let mut alpha: Vec<f32> = (0..t.rows()).map(|j| dot(t.row(j), a2) + lnw[j]).collect();
        let max = alpha.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for a in alpha.iter_mut() {
            *a = (*a - max).exp();
        }
        let z: f32 = alpha.iter().sum();
        let mut mu_w = vec![0.0; tw.cols()];
        for (j, &e) in alpha.iter().enumerate() {
            let a = e / z;
            for (m, &v) in mu_w.iter_mut().zip(tw.row(j)) {
                *m += a * v;
            }
        }
        mu_w
    }

    fn add_row_relu(z: &Matrix, bias: &[f32]) -> Matrix {
        Matrix::from_fn(z.rows(), z.cols(), |i, j| (z.get(i, j) + bias[j]).max(0.0))
    }

    fn weighted_mean_rows(x: &Matrix, w: &[f32], out: &mut [f32]) {
        let total: f32 = w.iter().sum();
        out.fill(0.0);
        for (i, &wi) in w.iter().enumerate() {
            for (o, &v) in out.iter_mut().zip(x.row(i)) {
                *o += wi * v / total;
            }
        }
    }

    pub fn prefix(net: &CrossGraphNet, store: &ParamStore, x: &CrossInput) -> Prefix {
        let lnw: Vec<Vec<f32>> = x.sizes[1..=net.layers.len()]
            .iter()
            .map(|s| s.iter().map(|w| w.ln()).collect())
            .collect();
        let layer = &net.layers[0];
        let tx = x.sparse[0].to_dense(x.feats.rows()).matmul(&x.feats);
        let tw = tx.matmul(store.value(layer.w));
        let mu_w = attention_pool(&tx, store.value(layer.a2).data(), &lnw[0], &tw);
        Prefix { tw, mu_w, lnw }
    }

    pub fn infer_pair(
        net: &CrossGraphNet,
        store: &ParamStore,
        x: &CrossInput,
        y: &CrossInput,
    ) -> Vec<f32> {
        let (px, py) = (prefix(net, store, x), prefix(net, store, y));
        let mut hx = add_row_relu(&px.tw, &py.mu_w);
        let mut hy = add_row_relu(&py.tw, &px.mu_w);
        for (l, layer) in net.layers.iter().enumerate().skip(1) {
            let tx = x.sparse[l].to_dense(hx.rows()).matmul(&hx);
            let ty = y.sparse[l].to_dense(hy.rows()).matmul(&hy);
            let w = store.value(layer.w);
            let zx = tx.matmul(w);
            let zy = ty.matmul(w);
            let a2 = store.value(layer.a2).data();
            let mux = attention_pool(&tx, a2, &px.lnw[l], &zx);
            let muy = attention_pool(&ty, a2, &py.lnw[l], &zy);
            hx = add_row_relu(&zx, &muy);
            hy = add_row_relu(&zy, &mux);
        }
        let layers = net.layers.len();
        let mut out = vec![0.0; net.pair_dim()];
        let (h_g, h_q) = out.split_at_mut(net.cfg.out_dim());
        weighted_mean_rows(&hx, &x.sizes[layers], h_g);
        weighted_mean_rows(&hy, &y.sizes[layers], h_q);
        out
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random graph of 1–32 nodes over `labels` labels, from one of three
/// families (isolated nodes included).
fn random_graph(rng: &mut StdRng, labels: u16) -> Graph {
    let n = rng.gen_range(1..=32usize);
    let extra = rng.gen_range(0..2 * n);
    match rng.gen_range(0..3) {
        0 => molecule_like(rng, n, extra % 3, 4, labels),
        1 => erdos_renyi(rng, n, extra, labels),
        _ => power_law_like(rng, n, 2, extra % 3, labels),
    }
}

/// `trials` random pairs, each on a fresh network of 1–3 layers whose
/// weights are about a quarter exact zeros, over plain, compressed and
/// mixed operands: the prefixes and the pair embedding must carry the
/// dense reference's bits.
fn sparse_kernels_match_dense_reference(seed: u64, trials: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = InferScratch::new();
    let mut got = Vec::new();
    for trial in 0..trials {
        let labels = rng.gen_range(1..=6u16);
        let layers = rng.gen_range(1..=3usize);
        let dim = [3, 8, 16, 20, 33][rng.gen_range(0..5)];
        let (net, mut store) = new_net(seed ^ trial as u64, labels as usize, dim, layers);
        for layer in &net.layers {
            for id in [layer.w, layer.a2] {
                for v in store.value_mut(id).data_mut() {
                    if rng.gen_bool(0.25) {
                        *v = 0.0;
                    }
                }
            }
        }
        let input = |rng: &mut StdRng, g: &Graph| {
            if rng.gen_bool(0.5) {
                CrossInput::compressed(&CompressedGnnGraph::build(g, layers), &net.cfg)
            } else {
                CrossInput::plain(g, &net.cfg)
            }
        };
        let (g, q) = (
            random_graph(&mut rng, labels),
            random_graph(&mut rng, labels),
        );
        let (xi, yi) = (input(&mut rng, &g), input(&mut rng, &q));
        let (want_p, got_p) = (
            dense_ref::prefix(&net, &store, &xi),
            net.prefix(&store, &xi),
        );
        assert_eq!(
            bits(got_p.tw().data()),
            bits(want_p.tw.data()),
            "trial {trial}: T0 W0"
        );
        assert_eq!(
            bits(got_p.mu_w()),
            bits(&want_p.mu_w),
            "trial {trial}: mu0 W0"
        );
        net.infer_pair(&store, &xi, &yi, &mut scratch, &mut got);
        let want = dense_ref::infer_pair(&net, &store, &xi, &yi);
        assert_eq!(bits(&got), bits(&want), "trial {trial}: pair embedding");
    }
}

#[test]
fn sparse_kernels_match_the_frozen_dense_forward() {
    sparse_kernels_match_dense_reference(45, 300);
}

#[test]
#[ignore = "stress sweep; run in release with --include-ignored"]
fn sparse_kernels_match_the_frozen_dense_forward_stress() {
    sparse_kernels_match_dense_reference(46, 20_000);
}
