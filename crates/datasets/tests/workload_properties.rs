//! Workload and metric properties of the generated datasets.

use lan_datasets::{recall_at_k, recall_at_k_ties, Dataset, DatasetSpec};
use lan_ged::{ged, GedMethod};
use proptest::prelude::*;

fn quick(spec: DatasetSpec, n: usize, q: usize) -> Dataset {
    Dataset::generate(
        spec.with_graphs(n)
            .with_queries(q)
            .with_metric(GedMethod::Hungarian),
    )
}

#[test]
fn every_preset_generates_and_splits() {
    for spec in DatasetSpec::all() {
        let d = quick(spec, 40, 10);
        assert_eq!(d.graphs.len(), 40);
        assert_eq!(d.queries.len(), 10);
        assert_eq!(
            d.split.train.len() + d.split.val.len() + d.split.test.len(),
            10
        );
        // Family structure: consecutive graphs in a family should be close.
        let d01 = d.pair_distance(0, 1);
        let mut cross: f64 = 0.0;
        for j in [20u32, 25, 30] {
            cross += d.pair_distance(0, j);
        }
        assert!(
            d01 <= cross / 3.0 + 1e-9,
            "{}: family member farther than cross-family average",
            d.spec.name
        );
    }
}

#[test]
fn metric_override_respected() {
    let d = quick(DatasetSpec::syn(), 20, 4);
    assert_eq!(d.spec.metric, GedMethod::Hungarian);
    // `with_metric` sets both metrics: one distance for routing and recall.
    assert_eq!(d.spec.truth, d.spec.metric);
    let aids = DatasetSpec::aids().with_metric(GedMethod::Vj);
    assert_eq!((aids.metric, aids.truth), (GedMethod::Vj, GedMethod::Vj));
    let default = DatasetSpec::syn();
    assert!(matches!(default.metric, GedMethod::BestOfThree { .. }));
    assert_eq!(default.truth, default.metric);
}

/// The AIDS preset routes on one solve and measures recall against the
/// best of three: `distance` is the operational metric, the ground-truth
/// scan is a full scan under the truth metric, and the truth is never
/// above the operational distance (tie-aware recall relies on it).
#[test]
fn aids_preset_routes_and_measures_on_different_metrics() {
    let d = Dataset::generate(DatasetSpec::aids().with_graphs(40).with_queries(6));
    assert_eq!(d.spec.metric, GedMethod::Beam { width: 4 });
    assert_eq!(d.spec.truth, GedMethod::BestOfThree { beam_width: 4 });
    for q in &d.queries {
        let mut full: Vec<(f64, u32)> = Vec::with_capacity(d.graphs.len());
        for (i, g) in d.graphs.iter().enumerate() {
            let id = i as u32;
            let operational = d.distance(q, id);
            assert_eq!(
                operational.to_bits(),
                ged(q, g, &d.spec.metric).unwrap().to_bits()
            );
            let truth = ged(q, g, &d.spec.truth).unwrap();
            assert!(
                truth <= operational,
                "truth {truth} > operational {operational}"
            );
            full.push((truth, id));
        }
        full.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for k in [1usize, 5, 10] {
            assert_eq!(d.ground_truth_knn(q, k), full[..k]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tie-aware recall bounds plain recall from above and behaves at the
    /// extremes.
    #[test]
    fn tie_aware_recall_properties(
        dists in proptest::collection::vec(0u8..6, 1..12),
        k in 1usize..6,
    ) {
        let k = k.min(dists.len());
        let results: Vec<(f64, u32)> = dists
            .iter()
            .enumerate()
            .map(|(i, &d)| (d as f64, i as u32))
            .collect();
        let mut sorted = results.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let kth = sorted[k - 1].0;
        // A result list equal to the true top-k has tie-aware recall 1.
        let top: Vec<(f64, u32)> = sorted[..k].to_vec();
        prop_assert_eq!(recall_at_k_ties(&top, kth, k), 1.0);
        // Tie-aware recall >= id-based recall for the same list.
        let ids: Vec<u32> = top.iter().map(|&(_, i)| i).collect();
        let truth_ids: Vec<u32> = sorted[..k].iter().map(|&(_, i)| i).collect();
        prop_assert!(
            recall_at_k_ties(&top, kth, k) >= recall_at_k(&ids, &truth_ids, k) - 1e-9
        );
        // Results all beyond the kth distance score zero.
        let far: Vec<(f64, u32)> = (0..k).map(|i| (kth + 10.0, i as u32)).collect();
        prop_assert_eq!(recall_at_k_ties(&far, kth, k), 0.0);
    }

    /// The operational distance is symmetric enough for indexing: d(a,b)
    /// and d(b,a) are both upper bounds of the same exact GED and both
    /// vanish iff the graphs are equal.
    #[test]
    fn pair_distance_sane(i in 0usize..20, j in 0usize..20) {
        let d = quick(DatasetSpec::syn(), 20, 2);
        let dij = d.pair_distance(i as u32, j as u32);
        prop_assert!(dij >= 0.0);
        if i == j {
            prop_assert_eq!(dij, 0.0);
        }
        if d.graphs[i] == d.graphs[j] {
            prop_assert_eq!(dij, 0.0);
        }
    }
}
