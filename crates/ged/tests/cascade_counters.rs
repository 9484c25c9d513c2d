//! The cascade's `ged.lb_prune` / `ged.early_abort` / `ged.full_evals`
//! counters. They are process-global, so exact deltas can only be asserted
//! where nothing else evaluates distances: one test, in a binary of its
//! own.

use lan_ged::{ged_within, GedBound, GedMethod};
use lan_graph::generators::molecule_like;
use lan_graph::Graph;
use lan_obs::names;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn ged_within_counts_the_tier_that_settled_each_call() {
    if !lan_obs::enabled() {
        return;
    }
    let g1 = molecule_like(&mut StdRng::seed_from_u64(58), 10, 2, 4, 8);
    let g2 = molecule_like(&mut StdRng::seed_from_u64(59), 20, 2, 4, 8);

    // Node-count gap of 10 => label/size bound >= 10 >= tau = 1.
    let before = lan_obs::snapshot();
    let out = ged_within(&g1, &g2, 1.0, &GedMethod::Hungarian).unwrap();
    assert!(matches!(out, GedBound::AtLeast(_)));
    let d = lan_obs::snapshot().diff(&before);
    assert_eq!(d.counter(names::GED_LB_PRUNE), 1);
    assert_eq!(d.counter(names::GED_FULL_EVALS), 0);

    let before = lan_obs::snapshot();
    let out = ged_within(&g1, &g2, 1e9, &GedMethod::Hungarian).unwrap();
    assert!(matches!(out, GedBound::Exact(_)));
    let d = lan_obs::snapshot().diff(&before);
    assert_eq!(d.counter(names::GED_FULL_EVALS), 1);

    // Fig. 2: d = 5 and the lb tiers are < 4, so tau = 4 reaches the A*,
    // which must abort on the threshold.
    let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
    let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
    let before = lan_obs::snapshot();
    let out = ged_within(&g, &q, 4.0, &GedMethod::Exact { timeout_ms: 10_000 }).unwrap();
    match out {
        GedBound::AtLeast(lb) => assert!((4.0..=5.0).contains(&lb)),
        other => panic!("expected AtLeast, got {other:?}"),
    }
    let d = lan_obs::snapshot().diff(&before);
    assert_eq!(d.counter(names::GED_EARLY_ABORT), 1);
}
