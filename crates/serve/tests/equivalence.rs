//! Over-the-wire half of the serving equivalence contract: a booted
//! server answering concurrent TCP clients must return results, NDC,
//! termination, and EXPLAIN tier attribution **bit-identical** to the
//! offline [`ShardedLanIndex::search_budgeted`] /
//! [`ShardedLanIndex::search_explain_budgeted`] entry points — protocol
//! encoding and micro-batching included. (The in-process half lives in
//! `lan-core/tests/fan_out_contract.rs`.)
//!
//! Also covered here: the typed `overloaded` degradation path, ping,
//! the `/metrics` scrape on the query port, and clean shutdown.

use lan_core::{InitStrategy, LanConfig, QueryOutcome, RouteStrategy, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_obs::json::Value;
use lan_pg::budget::QueryBudget;
use lan_serve::{serve, Client, Response, SearchCall, ServeConfig, ServerHandle};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(48)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

fn fixture() -> Arc<ShardedLanIndex> {
    static FIXTURE: OnceLock<Arc<ShardedLanIndex>> = OnceLock::new();
    Arc::clone(FIXTURE.get_or_init(|| Arc::new(ShardedLanIndex::build(&dataset(), &tiny_cfg(), 3))))
}

/// Boots a server over the shared fixture on an ephemeral port.
fn boot(batch: usize, wait: Duration, max_inflight: usize) -> ServerHandle {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        batch,
        batch_wait: wait,
        max_inflight,
    };
    serve(fixture(), cfg).expect("bind ephemeral port")
}

fn serial(seed: u64, k: usize, b: usize) -> QueryOutcome {
    let ds = dataset();
    fixture().search_budgeted(
        &ds.queries[(seed % 10) as usize],
        k,
        b,
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: true },
        seed,
        &QueryBudget::unlimited(),
    )
}

fn result_bits(results: &[(f64, u32)]) -> Vec<(u64, u32)> {
    results.iter().map(|&(d, id)| (d.to_bits(), id)).collect()
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(|x| x.as_f64())
        .unwrap_or_else(|| panic!("explain field {key} missing")) as u64
}

/// K concurrent clients over TCP, one request per batch and micro-batches
/// of up to four: every reply must match that client's serial run bit for
/// bit, so batching changes no answer.
#[test]
fn concurrent_wire_results_match_serial_bitwise() {
    let serial_runs: Vec<(u64, QueryOutcome)> =
        (0..12u64).map(|seed| (seed, serial(seed, 5, 8))).collect();
    for batch in [1, 4] {
        let handle = boot(batch, Duration::from_micros(2000), 64);
        let addr = handle.addr();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let ds = dataset();
                    let mut client = Client::connect(addr).unwrap();
                    (0..3u64)
                        .map(|i| {
                            let seed = t * 3 + i;
                            let q = &ds.queries[(seed % 10) as usize];
                            let resp = client.search(&SearchCall::new(q, 5, 8, seed)).unwrap();
                            let Response::Ok(ok) = resp else {
                                panic!("seed {seed}: expected ok, got {resp:?}")
                            };
                            (seed, ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut wire: Vec<_> = threads
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        wire.sort_by_key(|&(seed, _)| seed);
        for ((seed, want), (wseed, got)) in serial_runs.iter().zip(&wire) {
            assert_eq!(seed, wseed);
            assert_eq!(
                result_bits(&want.results),
                result_bits(&got.results),
                "batch={batch} seed {seed}: served results diverged from serial"
            );
            assert_eq!(
                want.ndc as u64, got.ndc,
                "batch={batch} seed {seed}: NDC diverged"
            );
            assert_eq!(
                want.termination.as_str(),
                got.termination,
                "batch={batch} seed {seed}: termination diverged"
            );
        }
        handle.shutdown();
    }
}

/// Opt-in EXPLAIN plans cross the wire with counts (NDC, cache hits,
/// hops, cascade tier attribution, per-shard sub-plans) identical to the
/// serial EXPLAIN path.
#[test]
fn explain_attribution_crosses_the_wire() {
    let handle = boot(4, Duration::from_micros(500), 64);
    let ds = dataset();
    let sharded = fixture();
    let mut client = Client::connect(handle.addr()).unwrap();
    for seed in 0..4u64 {
        let q = &ds.queries[(seed % 10) as usize];
        let (serial_out, serial_ex) = sharded.search_explain_budgeted(
            q,
            5,
            8,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
            seed,
            &QueryBudget::unlimited(),
        );
        let mut call = SearchCall::new(q, 5, 8, seed);
        call.explain = true;
        let Response::Ok(ok) = client.search(&call).unwrap() else {
            panic!("seed {seed}: expected ok")
        };
        assert_eq!(result_bits(&serial_out.results), result_bits(&ok.results));
        let ex = ok.explain.as_ref().expect("explain plan attached");
        assert_eq!(serial_ex.ndc, num(ex, "ndc"), "seed {seed}: NDC diverged");
        assert_eq!(serial_ex.cache_hits, num(ex, "cache_hits"));
        assert_eq!(serial_ex.hops, num(ex, "hops"));
        let tiers = ex.get("tiers").expect("tiers object");
        assert_eq!(
            (
                serial_ex.tiers.lb_prunes,
                serial_ex.tiers.tau_aborts,
                serial_ex.tiers.full_solves
            ),
            (
                num(tiers, "lb_prunes"),
                num(tiers, "tau_aborts"),
                num(tiers, "full_solves")
            ),
            "seed {seed}: tier attribution diverged"
        );
        let Some(Value::Arr(shards)) = ex.get("shards") else {
            panic!("per-shard sub-plans missing")
        };
        assert_eq!(serial_ex.shards.len(), shards.len());
        for (want, got) in serial_ex.shards.iter().zip(shards) {
            assert_eq!(want.ndc, num(got, "ndc"), "per-shard NDC diverged");
            assert_eq!(want.hops, num(got, "hops"), "per-shard hops diverged");
        }
    }
}

/// An already-expired deadline is shed at dequeue time with the typed
/// `overloaded` response — the query is never executed.
#[test]
fn zero_deadline_sheds_with_typed_overloaded() {
    let handle = boot(4, Duration::from_micros(100), 64);
    let ds = dataset();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut call = SearchCall::new(&ds.queries[0], 5, 8, 0);
    call.deadline_ms = Some(0);
    match client.search(&call).unwrap() {
        Response::Overloaded { reason } => {
            assert!(reason.contains("deadline"), "unexpected reason: {reason}")
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    // The connection stays usable after a shed.
    let ok = client
        .search(&SearchCall::new(&ds.queries[0], 3, 6, 1))
        .unwrap();
    assert!(matches!(ok, Response::Ok(_)));
}

/// Malformed frames get a typed `error` response and the connection
/// survives for the next (valid) request.
#[test]
fn malformed_request_gets_typed_error() {
    use lan_serve::proto::{parse_response, read_frame, write_frame};
    let handle = boot(2, Duration::from_micros(100), 8);
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut stream, b"{\"op\":\"fly\"}").unwrap();
    let frame = read_frame(&mut stream).unwrap().expect("response frame");
    let resp = parse_response(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");
}

/// Ping, a Prometheus scrape on the query port, and a client-initiated
/// clean shutdown that joins every server thread.
#[test]
fn ping_metrics_and_clean_shutdown() {
    let handle = boot(2, Duration::from_micros(100), 8);
    let addr = handle.addr();
    let ds = dataset();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let resp = client
        .search(&SearchCall::new(&ds.queries[1], 4, 8, 7))
        .unwrap();
    assert!(matches!(resp, Response::Ok(_)));
    let body = Client::scrape_metrics(addr).expect("metrics scrape");
    assert!(
        body.contains("serve_requests_total"),
        "metrics body missing serve_requests_total:\n{body}"
    );
    assert!(body.contains("serve_batch_occupancy"));
    client.shutdown().unwrap();
    // Joins acceptor, shard workers, and connection handlers.
    handle.wait();
}
