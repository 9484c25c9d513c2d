//! HAG correctness: the shared-partial-sum plan aggregates exactly what
//! the GIN aggregation matrix does, with no more additions.

use lan_bench::hag::HagPlan;
use lan_gnn::gin::agg_matrix;
use lan_graph::generators::{control_flow_like, molecule_like, power_law_like};
use lan_graph::Graph;
use lan_tensor::Matrix;
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

    /// HAG aggregation is exact for arbitrary features.
    #[test]
    fn hag_exactness(seed in any::<u64>(), n in 1usize..20, d in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_family_graph(&mut rng, n, 3);
        let plan = HagPlan::build(&g);
        let h = Matrix::from_fn(n, d, |_, _| rng.gen_range(-2.0..2.0));
        let fast = plan.aggregate(&h);
        let naive = agg_matrix(&g).matmul(&h);
        prop_assert!(fast.max_abs_diff(&naive) < 1e-3);
        prop_assert!(plan.planned_adds() <= HagPlan::naive_adds(&g));
    }
}
