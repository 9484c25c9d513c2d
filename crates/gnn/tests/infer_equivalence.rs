//! Property tests: the tape-free inference forward matches the tape
//! forward within 1e-5 on random plain/CG input pairs. (It is not
//! bit-identical: the inference kernel pools the other graph once instead
//! of materialising the attention matrix — see `attention_collapse.rs`.)

use lan_gnn::{CompressedGnnGraph, CrossGraphNet, CrossInput, GnnConfig, InferScratch};
use lan_graph::generators::{erdos_renyi, molecule_like, power_law_like};
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
