//! With the EXPLAIN ring on (`LAN_EXPLAIN`), a served query emits exactly
//! one plan — the merged one, with its `shard.N` timeline — as the offline
//! `ShardedLanIndex::search_budgeted` does, whether or not the client asked
//! for the plan in its reply. The ring and its counters are process-global,
//! so this test has a binary of its own.

use lan_core::{LanConfig, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_obs::json::{self, Value};
use lan_serve::{serve, Client, Response, SearchCall, ServeConfig};
use std::sync::Arc;

fn tiny_cfg() -> LanConfig {
    LanConfig {
        pg: lan_pg::PgConfig::new(4),
        model: lan_models::ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 80,
            nh_cover_k: 6,
            clusters: 3,
            top_clusters: 2,
            mlp_hidden: 8,
            ..lan_models::ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    }
}

#[test]
fn a_served_query_emits_one_merged_plan() {
    const QUERIES: u64 = 6;
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(32)
            .with_queries(QUERIES as usize)
            .with_metric(lan_ged::GedMethod::Hungarian),
    );
    let index = Arc::new(ShardedLanIndex::build(&ds, &tiny_cfg(), 2));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        max_inflight: 64,
    };
    let handle = serve(index, cfg).expect("bind ephemeral port");
    lan_obs::explain::set_enabled(true);
    lan_obs::explain::drain();
    let queries_before = lan_obs::counter(lan_obs::names::EXPLAIN_QUERIES).get();

    let mut client = Client::connect(handle.addr()).unwrap();
    for seed in 0..QUERIES {
        let mut call = SearchCall::new(&ds.queries[seed as usize], 5, 8, seed);
        // Half the clients also ask for the plan in the reply.
        call.explain = seed % 2 == 0;
        let resp = client.search(&call).unwrap();
        let Response::Ok(ok) = resp else {
            panic!("seed {seed}: expected ok, got {resp:?}")
        };
        assert_eq!(ok.explain.is_some(), call.explain, "seed {seed}");
    }
    handle.shutdown();
    lan_obs::explain::set_enabled(false);

    let plans = lan_obs::explain::drain();
    assert_eq!(plans.len(), QUERIES as usize, "one plan per served query");
    assert_eq!(
        lan_obs::counter(lan_obs::names::EXPLAIN_QUERIES).get() - queries_before,
        QUERIES
    );
    let mut seeds: Vec<u64> = plans
        .iter()
        .map(|line| {
            assert!(
                line.contains("\"stage\":\"shard.0\""),
                "unmerged plan: {line}"
            );
            let plan: Value = json::parse(line).expect("plan is JSON");
            plan.get("q").and_then(Value::as_f64).expect("query id") as u64
        })
        .collect();
    seeds.sort_unstable();
    // The merged plan carries the query's seed, not a shard's `seed ^ s`.
    assert_eq!(seeds, (0..QUERIES).collect::<Vec<_>>());
}
