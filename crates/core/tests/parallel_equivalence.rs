//! Determinism contract of the parallel execution layer: every parallel
//! path must return results byte-identical to its sequential counterpart —
//! same `(distance, id)` lists, same total NDC. Only wall-clock may differ.
//!
//! `LAN_THREADS` is forced to 4 so real multi-threaded interleaving is
//! exercised even on single-core CI hosts (`lan-par` reads the variable on
//! every call; all tests in this binary set the same value, so concurrent
//! setters cannot race to different configurations).

use lan_core::{harness, InitStrategy, LanConfig, LanIndex, RouteStrategy, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

fn force_threads() {
    // Serialized via the shared env lock — a raw set_var would race the
    // num_threads() readers of concurrently running tests.
    lan_par::testenv::with_env(&[], || std::env::set_var("LAN_THREADS", "4"));
}

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

/// Sharded indexes at 2 and 3 shards, built once and shared by every case.
fn sharded_fixtures() -> &'static Vec<ShardedLanIndex> {
    static FIXTURES: OnceLock<Vec<ShardedLanIndex>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        force_threads();
        let ds = dataset();
        [2usize, 3]
            .iter()
            .map(|&s| ShardedLanIndex::build(&ds, &tiny_cfg(), s))
            .collect()
    })
}

fn single_fixture() -> &'static LanIndex {
    static FIXTURE: OnceLock<LanIndex> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        force_threads();
        LanIndex::build(dataset(), tiny_cfg())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharded search fanned out over 4 threads is byte-identical to the
    /// serial shard loop it runs at `LAN_THREADS=1`, across seeds, shard
    /// counts, k, beam widths, and both routing families.
    #[test]
    fn sharded_search_matches_across_thread_counts(
        seed in 0u64..1_000_000,
        shard_idx in 0usize..2,
        k in 1usize..=8,
        b in 4usize..=16,
        full_lan in any::<bool>(),
    ) {
        force_threads();
        let sharded = &sharded_fixtures()[shard_idx];
        let q = dataset().queries[(seed % 10) as usize].clone();
        let (init, route) = if full_lan {
            (InitStrategy::LanIs, RouteStrategy::LanRoute { use_cg: true })
        } else {
            (InitStrategy::HnswIs, RouteStrategy::HnswRoute)
        };
        let search = |threads| {
            lan_par::testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
                sharded.search(&q, k, b, init, route, seed)
            })
        };
        let (seq, par) = (search("1"), search("4"));
        prop_assert_eq!(&seq.results, &par.results,
            "parallel sharded results diverged");
        prop_assert_eq!(seq.ndc, par.ndc, "parallel sharded NDC diverged");
    }
}

/// A BestOfThree index over graphs big enough that every GED call forks
/// its Hungarian solve through `lan_par::join` when the thread budget
/// allows (`FORK_MIN_ROWS` cost-matrix rows) — the fan-out inside a single
/// `LanIndex` query.
fn forking_fixture() -> &'static LanIndex {
    static FIXTURE: OnceLock<LanIndex> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        force_threads();
        let mut spec = DatasetSpec::syn()
            .with_graphs(32)
            .with_queries(8)
            .with_metric(lan_ged::GedMethod::BestOfThree { beam_width: 2 });
        spec.avg_nodes = 24;
        LanIndex::build(Dataset::generate(spec), tiny_cfg())
    })
}

/// The harness batch is thread-count invariant: at one thread every GED
/// call solves its three bounds in turn, at four the Hungarian solve runs
/// on a second thread, and the per-point recall and average NDC are
/// identical (each query keeps its seed).
#[test]
fn run_point_is_thread_count_invariant() {
    force_threads();
    let index = forking_fixture();
    let queries: Vec<usize> = (0..index.dataset.queries.len()).collect();
    let forks = |q: &lan_graph::Graph| {
        index
            .dataset
            .graphs
            .iter()
            .filter(|g| q.node_count() + g.node_count() >= lan_ged::engine::FORK_MIN_ROWS)
            .count()
    };
    assert!(
        index.dataset.queries.iter().map(forks).sum::<usize>() * 2
            > queries.len() * index.dataset.graphs.len(),
        "most query distances must take the forking path"
    );
    let k = 5;
    let truths = harness::ground_truths(index, &queries, k);
    for b in [4usize, 12] {
        let point = |threads| {
            lan_par::testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
                harness::run_point(
                    index,
                    &queries,
                    &truths,
                    k,
                    b,
                    InitStrategy::LanIs,
                    RouteStrategy::LanRoute { use_cg: true },
                )
            })
        };
        let ((seq, seq_bd), (par, par_bd)) = (point("1"), point("4"));
        assert_eq!(seq.recall, par.recall, "b={b}: recall diverged");
        assert_eq!(seq.avg_ndc, par.avg_ndc, "b={b}: NDC diverged");
        // Component times are per-query sums of wall-clock measures, which
        // can never be compared for equality.
        assert!(par_bd.distance >= std::time::Duration::ZERO);
        assert!(seq_bd.distance >= std::time::Duration::ZERO);
    }
}

/// Index construction itself is thread-count invariant: the same dataset
/// built serially (LAN_THREADS=1 semantics are the serial fallback) and
/// with 4 workers yields identical graphs, embeddings, and search results.
#[test]
fn build_is_thread_count_invariant() {
    // This test intentionally leaves LAN_THREADS at 4 (set by fixtures) and
    // compares against a second in-process build — the lan-par helpers are
    // order-preserving, so both builds must agree bit-for-bit.
    force_threads();
    let a = LanIndex::build(dataset(), tiny_cfg());
    let b = single_fixture();
    assert_eq!(a.build_ndc, b.build_ndc);
    assert_eq!(a.models.db_embeds, b.models.db_embeds);
    assert_eq!(a.report.gamma_star, b.report.gamma_star);
    let q = dataset().queries[0].clone();
    let oa = a.search(&q, 5, 8);
    let ob = b.search(&q, 5, 8);
    assert_eq!(oa.results, ob.results);
    assert_eq!(oa.ndc, ob.ndc);
}
