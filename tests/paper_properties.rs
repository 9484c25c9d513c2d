//! The paper's formal claims as randomized property tests, exercised
//! through the public API (proptest drives the instance generation).

use lan_suite::ged::engine::{ged, GedMethod};
use lan_suite::ged::exact::{
    brute_force_ged, exact_ged, exact_ged_within, ExactLimits, ExactWithin,
};
use lan_suite::ged::lower_bounds::{label_degree_lb, label_size_lb};
use lan_suite::gnn::gin::GnnConfig;
use lan_suite::gnn::{CompressedGnnGraph, CrossGraphNet, CrossInput};
use lan_suite::graph::generators::{control_flow_like, erdos_renyi, molecule_like, power_law_like};
use lan_suite::graph::{Graph, GraphBuilder};
use lan_suite::pg::np_route::{np_route, OracleRanker};
use lan_suite::pg::{beam_search, DistCache};
use lan_suite::tensor::{ParamStore, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random tree on `n` nodes labeled from `ls`, plus up to `n` random
/// extra edges (drawn from `seed`) for connectivity variety.
fn tree_plus_edges(n: usize, ls: &[u16], seed: u64) -> Graph {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node(ls[i % ls.len()]);
    }
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b.add_edge(i as u32, j as u32).unwrap();
    }
    for _ in 0..n {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v).unwrap();
        }
    }
    b.build()
}

/// Strategy: a small random labeled simple graph.
fn small_graph(max_n: usize, labels: u16) -> impl Strategy<Value = Graph> {
    (
        1..=max_n,
        proptest::collection::vec(0u16..labels, max_n),
        any::<u64>(),
    )
        .prop_map(|(n, ls, seed)| tree_plus_edges(n, &ls, seed))
}

/// Strategy: a graph of `1..=max_n` nodes from any generator family — the
/// random tree plus edges, the molecule, control-flow and power-law
/// families the dataset presets draw from, and Erdős–Rényi.
fn family_graph(max_n: usize, labels: u16) -> impl Strategy<Value = Graph> {
    (
        0usize..5,
        1..=max_n,
        proptest::collection::vec(0u16..labels, max_n),
        any::<u64>(),
    )
        .prop_map(move |(family, n, ls, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            match family {
                0 => tree_plus_edges(n, &ls, seed),
                1 => molecule_like(&mut rng, n, 1, 4, labels),
                2 => control_flow_like(&mut rng, n, 0.3, 0.2, labels),
                3 => power_law_like(&mut rng, n, 2, 1, labels),
                _ => erdos_renyi(&mut rng, n, n, labels),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact A* equals exhaustive brute force on tiny instances of every
    /// generator family.
    #[test]
    fn exact_ged_matches_brute_force(
        g1 in family_graph(6, 3),
        g2 in family_graph(6, 3),
    ) {
        let a = exact_ged(&g1, &g2, &ExactLimits::default()).distance().unwrap();
        let b = brute_force_ged(&g1, &g2);
        prop_assert_eq!(a, b);
    }

    /// Both signature lower bounds <= exact <= every approximation (the
    /// ordering every GED consumer in the system relies on).
    #[test]
    fn ged_sandwich(
        g1 in family_graph(6, 3),
        g2 in family_graph(6, 3),
    ) {
        let exact = exact_ged(&g1, &g2, &ExactLimits::default()).distance().unwrap();
        prop_assert!(label_size_lb(&g1, &g2) <= exact + 1e-9);
        prop_assert!(label_degree_lb(&g1, &g2) <= exact + 1e-9);
        for m in [
            GedMethod::Hungarian,
            GedMethod::Vj,
            GedMethod::Beam { width: 4 },
            GedMethod::BestOfThree { beam_width: 4 },
        ] {
            let approx = ged(&g1, &g2, &m).unwrap();
            prop_assert!(approx + 1e-9 >= exact, "{:?} below exact", m);
        }
    }

    /// The tau-aborting A* either solves exactly or certifies a bound in
    /// `[tau, exact]` — never a bound above the true distance, and never
    /// an abort when the distance is below tau.
    #[test]
    fn exact_within_bounds_are_admissible(
        g1 in family_graph(6, 3),
        g2 in family_graph(6, 3),
    ) {
        let limits = ExactLimits::default();
        let exact = exact_ged(&g1, &g2, &limits).distance().unwrap();
        for tau in [0.5, exact * 0.5, exact, exact + 0.5, exact + 3.0] {
            match exact_ged_within(&g1, &g2, &limits, tau) {
                ExactWithin::Optimal { distance, .. } => prop_assert_eq!(distance, exact),
                ExactWithin::AtLeast(lb) => {
                    prop_assert!(lb >= tau, "bound {} below tau {}", lb, tau);
                    prop_assert!(lb <= exact + 1e-9, "bound {} above exact {}", lb, exact);
                }
                ExactWithin::TimedOut => prop_assert!(false, "6-node pair timed out"),
            }
        }
    }

    /// Truth <= operational, pointwise: BestOfThree{w} is the minimum of
    /// three solves one of which is Beam{w}, so a preset that routes on
    /// Beam{w} and measures recall against BestOfThree{w} never reports a
    /// distance below the true one.
    #[test]
    fn beam_never_below_best_of_three(
        g1 in family_graph(12, 4),
        g2 in family_graph(12, 4),
    ) {
        for w in [1usize, 2, 4, 8] {
            let truth = ged(&g1, &g2, &GedMethod::BestOfThree { beam_width: w }).unwrap();
            let operational = ged(&g1, &g2, &GedMethod::Beam { width: w }).unwrap();
            prop_assert!(truth <= operational, "w={}: {} > {}", w, truth, operational);
        }
    }

    /// Theorem 2: compressed and plain cross-graph embeddings coincide.
    #[test]
    fn cg_equivalence(
        g in small_graph(8, 2),
        q in small_graph(8, 2),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GnnConfig::uniform(2, 6, 2);
        let mut store = ParamStore::new();
        let net = CrossGraphNet::new(&mut rng, &mut store, cfg.clone());
        let mut t1 = Tape::new();
        let plain = net.forward(
            &mut t1,
            &store,
            &CrossInput::plain(&g, &cfg),
            &CrossInput::plain(&q, &cfg),
        );
        let mut t2 = Tape::new();
        let comp = net.forward(
            &mut t2,
            &store,
            &CrossInput::compressed(&CompressedGnnGraph::build(&g, 2), &cfg),
            &CrossInput::compressed(&CompressedGnnGraph::build(&q, 2), &cfg),
        );
        let d = t1.value(plain.h_pair).max_abs_diff(t2.value(comp.h_pair));
        prop_assert!(d < 1e-4, "CG differs from plain by {}", d);
        // Corollary 1: no more work.
        prop_assert!(t2.flops() <= t1.flops());
    }

    /// Theorem 1 over a *real graph database* metric (not just synthetic
    /// distances): oracle-pruned routing returns the baseline's results
    /// with NDC no larger, under distinct distances.
    #[test]
    fn np_route_theorem1_on_graph_metric(seed in any::<u64>()) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        // A tiny database with all-distinct distances from the query:
        // perturb distances by unique epsilons to reach general position
        // while preserving the graph-metric structure.
        let n = 24usize;
        let graphs: Vec<Graph> = (0..n)
            .map(|_| molecule_like(&mut rng, 8, 1, 4, 4))
            .collect();
        let q = molecule_like(&mut rng, 8, 1, 4, 4);
        let base: Vec<f64> = graphs
            .iter()
            .map(|g| ged(&q, g, &GedMethod::Hungarian).unwrap())
            .collect();
        let dists: Vec<f64> =
            base.iter().enumerate().map(|(i, d)| d + i as f64 * 1e-6).collect();
        // Random connected PG.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 1..n {
            let j = rng.gen_range(0..i);
            adj[i].push(j as u32);
            adj[j].push(i as u32);
        }
        for _ in 0..n {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && !adj[a].contains(&(b as u32)) {
                adj[a].push(b as u32);
                adj[b].push(a as u32);
            }
        }
        let entry = rng.gen_range(0..n) as u32;
        let b = rng.gen_range(2..6);
        let k = 2;

        let f = |id: u32| dists[id as usize];
        let c1 = DistCache::new(&f);
        let bs = beam_search(&adj, &c1, &[entry], b, k);
        let c2 = DistCache::new(&f);
        let oracle = OracleRanker::new(&f, 20);
        let np = np_route(&adj, &c2, &oracle, &[entry], b, k, 1.0);
        prop_assert_eq!(bs.results, np.results);
        prop_assert!(np.ndc <= bs.ndc);
    }

    /// Isomorphism invariance of the whole distance stack.
    #[test]
    fn ged_isomorphism_invariance(g in small_graph(6, 3), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..g.node_count() as u32).collect();
        perm.shuffle(&mut rng);
        let p = g.permute(&perm);
        let d = exact_ged(&g, &p, &ExactLimits::default()).distance().unwrap();
        prop_assert_eq!(d, 0.0);
    }
}
