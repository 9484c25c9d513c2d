//! What every `LanModels::train` integration test needs before it can
//! call it: a generated dataset, its proximity graph, and the distance
//! row of every training query.

use lan_datasets::{Dataset, DatasetSpec};
use lan_pg::{PairCache, PgConfig, ProximityGraph};

pub fn training_inputs(spec: DatasetSpec) -> (Dataset, ProximityGraph, Vec<Vec<f64>>) {
    let ds = Dataset::generate(spec);
    let pg = {
        let pair_fn = |a: u32, b: u32| ds.pair_distance(a, b);
        let pairs = PairCache::new(&pair_fn);
        ProximityGraph::build(ds.graphs.len(), &pairs, &PgConfig::new(4))
    };
    let train_dists = ds
        .split
        .train
        .iter()
        .map(|&qi| {
            (0..ds.graphs.len() as u32)
                .map(|g| ds.distance(&ds.queries[qi], g))
                .collect()
        })
        .collect();
    (ds, pg, train_dists)
}
