//! Determinism contract of the parallel execution layer: every parallel
//! path must return results byte-identical to its sequential counterpart —
//! same `(distance, id)` lists, same total NDC. Only wall-clock may differ.
//!
//! `LAN_THREADS` is forced to 4 so real multi-threaded interleaving is
//! exercised even on single-core CI hosts (`lan-par` reads the variable on
//! every call; all tests in this binary set the same value, so concurrent
//! setters cannot race to different configurations).

use lan_core::{InitStrategy, LanConfig, LanIndex, QueryOutcome, RouteStrategy, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::budget::QueryBudget;
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

/// K concurrent clients each running interleaved sharded queries through
/// `search_budgeted` — what a served query runs on its connection thread —
/// so their fan-outs overlap: every client's results, NDC and termination
/// must match its own run alone, bit for bit.
#[test]
fn concurrent_clients_match_serial_bitwise() {
    force_threads();
    let search = |seed: u64| -> QueryOutcome {
        let sharded = &sharded_fixtures()[1];
        let q = &dataset().queries[(seed % 10) as usize];
        let route = RouteStrategy::LanRoute { use_cg: true };
        let budget = QueryBudget::unlimited();
        sharded.search_budgeted(q, 5, 8, InitStrategy::LanIs, route, seed, &budget)
    };
    let serial: Vec<QueryOutcome> = (0..12u64).map(search).collect();
    let concurrent: Vec<QueryOutcome> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4u64)
            .map(|t| scope.spawn(move || (0..3u64).map(|i| search(t * 3 + i)).collect::<Vec<_>>()))
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    for (seed, (a, b)) in serial.iter().zip(&concurrent).enumerate() {
        let bits = |o: &QueryOutcome| -> Vec<(u64, u32)> {
            o.results.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
        };
        assert_eq!(
            bits(a),
            bits(b),
            "seed {seed}: concurrent results diverged from serial"
        );
        assert_eq!(a.ndc, b.ndc, "seed {seed}: NDC diverged");
        assert_eq!(a.termination.as_str(), b.termination.as_str());
    }
}
