//! End-to-end determinism contract of the `lan-par` executor: a query
//! batch over a sharded index must be bit-identical — results, per-query
//! NDC, the global `ged.calls` delta, and EXPLAIN tier attribution — at
//! one thread (the serial loop) and on several work-stealing workers.
//!
//! The `lan-par` property tests pin the executor primitives; this binary
//! pins the composition: every hot fan-out on the query path (batch,
//! shard fan-out, ground truth) runs through `par_map_dyn`, so a
//! scheduling bug anywhere in the stack shows up here as a digest
//! mismatch.

use lan_core::{InitStrategy, LanConfig, RouteStrategy, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_par::testenv;
use lan_pg::PgConfig;
use std::sync::OnceLock;

const K: usize = 5;
const B: usize = 10;

fn tiny_cfg() -> LanConfig {
    LanConfig {
        pg: PgConfig::new(4),
        model: ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 80,
            nh_cover_k: 6,
            clusters: 3,
            top_clusters: 2,
            mlp_hidden: 8,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    }
}

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(48)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

fn fixture() -> &'static (Dataset, ShardedLanIndex) {
    static FIXTURE: OnceLock<(Dataset, ShardedLanIndex)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = dataset();
        let idx = ShardedLanIndex::build(&ds, &tiny_cfg(), 3);
        (ds, idx)
    })
}

/// Everything the thread count must not change about a batch run.
#[derive(Debug, PartialEq)]
struct BatchFingerprint {
    results: Vec<Vec<(u64, u32)>>, // distance bits, id
    ndcs: Vec<usize>,
    ged_calls_delta: u64,
    tiers: Vec<(u64, u64, u64)>,
}

fn run_batch(threads: &str) -> BatchFingerprint {
    testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
        let (ds, sharded) = fixture();
        let before = lan_obs::snapshot();
        let outs: Vec<lan_core::QueryOutcome> =
            lan_par::par_map_indices_dyn(ds.queries.len(), lan_par::Grain::Fine, |qi| {
                sharded.search(
                    &ds.queries[qi],
                    K,
                    B,
                    InitStrategy::LanIs,
                    RouteStrategy::LanRoute { use_cg: true },
                    qi as u64,
                )
            });
        let ged_calls_delta = lan_obs::snapshot()
            .diff(&before)
            .counter(lan_obs::names::GED_CALLS);
        let tiers = (0..ds.queries.len().min(4))
            .map(|qi| {
                let (_, ex) = sharded.search_explain(
                    &ds.queries[qi],
                    K,
                    B,
                    InitStrategy::LanIs,
                    RouteStrategy::LanRoute { use_cg: true },
                    qi as u64,
                );
                (
                    ex.tiers.lb_prunes,
                    ex.tiers.tau_aborts,
                    ex.tiers.full_solves,
                )
            })
            .collect();
        BatchFingerprint {
            results: outs
                .iter()
                .map(|o| o.results.iter().map(|&(d, id)| (d.to_bits(), id)).collect())
                .collect(),
            ndcs: outs.iter().map(|o| o.ndc).collect(),
            ged_calls_delta,
            tiers,
        }
    })
}

#[test]
fn batch_is_bit_identical_across_thread_counts() {
    let reference = run_batch("1");
    assert!(
        reference.ged_calls_delta > 0,
        "the batch must actually compute distances for the contract to bite"
    );
    for threads in ["1", "2", "7"] {
        let got = run_batch(threads);
        assert_eq!(
            got, reference,
            "batch fingerprint diverged (threads={threads})"
        );
    }
}

#[test]
fn ground_truth_scan_is_thread_count_invariant() {
    let (ds, _) = fixture();
    let scan = |threads| {
        testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
            ds.queries
                .iter()
                .map(|q| ds.ground_truth_knn(q, K))
                .collect::<Vec<_>>()
        })
    };
    let reference = scan("1");
    for threads in ["2", "7"] {
        assert_eq!(
            scan(threads),
            reference,
            "ground truth diverged (threads={threads})"
        );
    }
}
