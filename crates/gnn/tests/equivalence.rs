//! Theorem 2/3/4 as property tests over layer counts, dims, and structural
//! families.

use lan_gnn::gin::GnnConfig;
use lan_gnn::{CompressedGnnGraph, CrossGraphNet, CrossInput};
use lan_graph::generators::{control_flow_like, molecule_like, power_law_like};
use lan_graph::Graph;
use lan_tensor::{ParamStore, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_family_graph(rng: &mut StdRng, n: usize, labels: u16) -> Graph {
    match rng.gen_range(0..3) {
        0 => molecule_like(rng, n, 2, 4, labels),
        1 => control_flow_like(rng, n, 0.2, 0.1, labels),
        _ => power_law_like(rng, n, 2, 1, labels),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Theorem 2 across L ∈ {1,2,3}, dims, and graph families.
    #[test]
    fn cg_equivalence_all_depths(
        seed in any::<u64>(),
        layers in 1usize..4,
        dim in 2usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = 3u16;
        let g = random_family_graph(&mut rng, 3 + (seed % 12) as usize, labels);
        let q = random_family_graph(&mut rng, 3 + (seed % 7) as usize, labels);
        let cfg = GnnConfig::uniform(labels as usize, dim, layers);
        let mut store = ParamStore::new();
        let net = CrossGraphNet::new(&mut rng, &mut store, cfg.clone());

        let mut t1 = Tape::new();
        let plain = net.forward(
            &mut t1, &store,
            &CrossInput::plain(&g, &cfg),
            &CrossInput::plain(&q, &cfg),
        );
        let mut t2 = Tape::new();
        let comp = net.forward(
            &mut t2, &store,
            &CrossInput::compressed(&CompressedGnnGraph::build(&g, layers), &cfg),
            &CrossInput::compressed(&CompressedGnnGraph::build(&q, layers), &cfg),
        );
        let d = t1.value(plain.h_pair).max_abs_diff(t2.value(comp.h_pair));
        prop_assert!(d < 1e-4, "L={} dim={}: differ by {}", layers, dim, d);
        // Theorem 3 / Corollary 1.
        prop_assert!(t2.flops() <= t1.flops());
    }

    /// Theorem 4: CG group structure is isomorphism-invariant (group size
    /// multisets per level match under permutation).
    #[test]
    fn cg_isomorphism_invariant(seed in any::<u64>(), n in 2usize..14) {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_family_graph(&mut rng, n, 3);
        let mut perm: Vec<u32> = (0..g.node_count() as u32).collect();
        perm.shuffle(&mut rng);
        let p = g.permute(&perm);
        let cg1 = CompressedGnnGraph::build(&g, 2);
        let cg2 = CompressedGnnGraph::build(&p, 2);
        for l in 0..=2usize {
            let mut s1 = cg1.levels[l].group_sizes.clone();
            let mut s2 = cg2.levels[l].group_sizes.clone();
            s1.sort_unstable();
            s2.sort_unstable();
            prop_assert_eq!(s1, s2, "level {} group sizes differ", l);
        }
    }

    /// The CG of a graph where every node has a unique label is exactly the
    /// GNN-graph (no compression possible), and flops match the plain
    /// forward.
    #[test]
    fn unique_labels_no_compression(n in 2usize..10, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = lan_graph::GraphBuilder::new();
        for i in 0..n {
            b.add_node(i as u16);
        }
        for i in 1..n {
            let j = rng.gen_range(0..i);
            b.add_edge(i as u32, j as u32).unwrap();
        }
        let g = b.build();
        let cg = CompressedGnnGraph::build(&g, 2);
        for l in 0..=2usize {
            prop_assert_eq!(cg.groups_at(l), n);
        }
    }
}
