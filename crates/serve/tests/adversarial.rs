//! The request decoder on hostile input. `lan-serve` is the one component
//! that reads untrusted bytes: every frame goes through
//! [`lan_obs::json::parse`] and [`parse_request`], so each input below must
//! come out as `Ok` or a typed `Err`, never a panic. Random byte strings,
//! damaged copies of well-formed requests and out-of-range fields are
//! decoded in-process; the worst of them then go to a live server, which
//! must answer each with a response and still answer a `ping`.

use lan_core::{LanConfig, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::generators::{molecule_like, power_law_like};
use lan_serve::proto::{
    parse_request, parse_response, read_frame, render_search_request, write_frame, Request,
    MAX_QUERY_NODES,
};
use lan_serve::{serve, Client, Response, ServeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;

/// Bytes that steer random input into the parser's deeper states.
const JSONISH: &[u8] = b"{}[]\":,0123456789-+.eE \\/utrfalsenopsearchlabelsedgesk";

/// Decodes `text` the way a connection does; a panic fails the test.
fn decode(text: &str) -> Result<Request, String> {
    let _ = lan_obs::json::parse(text);
    parse_request(text)
}

/// A search request with the given `labels` array and `fields` (each a
/// `,"key":value`, no key repeated) appended.
fn search_with(labels: &str, fields: &str) -> String {
    format!("{{\"op\":\"search\",\"labels\":{labels}{fields}}}")
}

fn small_search(fields: &str) -> String {
    search_with("[0,1,2]", &format!(",\"edges\":[[0,1],[1,2]]{fields}"))
}

fn label_array(n: usize) -> String {
    format!("[{}]", vec!["1"; n].join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, as they arrive and mapped onto JSON's alphabet,
    /// decoded after lossy UTF-8 conversion.
    #[test]
    fn random_bytes_decode_without_panicking(
        bytes in prop::collection::vec(any::<u8>(), 0..256), jsonish in any::<bool>(),
    ) {
        let bytes: Vec<u8> = if jsonish {
            bytes.iter().map(|&b| JSONISH[b as usize % JSONISH.len()]).collect()
        } else {
            bytes
        };
        let _ = decode(&String::from_utf8_lossy(&bytes));
    }

    /// A rendered request round-trips; each of its strict prefixes is an
    /// error; single-byte mutations of it decode without panicking.
    #[test]
    fn damaged_requests_decode_without_panicking(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=12);
        let g = if rng.gen_bool(0.5) {
            molecule_like(&mut rng, n, 1, 4, 51)
        } else {
            power_law_like(&mut rng, n, 2, 1, 5)
        };
        let (k, b) = (rng.gen_range(1..=20), rng.gen_range(1..=64));
        // f64 carries integers exactly up to 2^53.
        let query_seed = rng.gen_range(0..1u64 << 53);
        let deadline = rng.gen_bool(0.5).then(|| rng.gen_range(0..1_000));
        let max_ndc = rng.gen_bool(0.5).then(|| rng.gen_range(0..10_000));
        let explain = rng.gen_bool(0.5);
        let req = render_search_request("t\"0", k, b, query_seed, &g, explain, deadline, max_ndc);

        match decode(&req) {
            Ok(Request::Search(s)) => {
                prop_assert_eq!((s.k, s.b, s.seed, s.explain), (k, b, query_seed, explain));
                prop_assert_eq!(&s.tenant, "t\"0");
                prop_assert!(s.graph == g);
            }
            _ => panic!("the rendered request does not decode: {req}"),
        }
        for end in 0..req.len() {
            prop_assert!(decode(&req[..end]).is_err(), "prefix decoded: {}", &req[..end]);
        }
        let mut bytes = req.into_bytes();
        for _ in 0..64 {
            let at = rng.gen_range(0..bytes.len());
            let was = bytes[at];
            bytes[at] = rng.gen::<u32>() as u8;
            let _ = decode(&String::from_utf8_lossy(&bytes));
            bytes[at] = was;
        }
    }
}

#[test]
fn extreme_fields_are_values_or_typed_errors() {
    let search = |req: &str| match decode(req) {
        Ok(Request::Search(s)) => Ok(s),
        Ok(_) => panic!("not a search: {req}"),
        Err(e) => Err(e),
    };
    // Huge k and b are legal: the search keeps at most the whole shard.
    let s = search(&small_search(",\"k\":1e15,\"b\":1e15")).unwrap();
    assert_eq!((s.k, s.b), (1_000_000_000_000_000, 1_000_000_000_000_000));
    for bad in ["1e300", "-1", "1.5", "0", "\"5\"", "null"] {
        let req = small_search(&format!(",\"k\":{bad},\"b\":4"));
        assert!(search(&req).is_err(), "k = {bad} accepted");
    }
    // An f64 carries integers exactly only below 2^53, so larger seeds
    // (2^64 included, which used to saturate to `u64::MAX`) are refused.
    let huge_seed = small_search(",\"k\":1,\"b\":1,\"seed\":18446744073709551616");
    assert!(search(&huge_seed).is_err());
    assert!(search(&small_search(",\"k\":1,\"b\":1,\"seed\":1e20")).is_err());

    // Labels are u16.
    let labelled = |l: &str| search(&search_with(&format!("[{l}]"), ",\"k\":1,\"b\":1"));
    assert_eq!(labelled("65535").unwrap().graph.labels(), [u16::MAX]);
    for bad in ["65536", "-1", "0.5", "1e10", "\"a\"", "[1]"] {
        assert!(labelled(bad).is_err(), "label {bad} accepted");
    }

    // Edge endpoints are node ids of this graph.
    let edged = |e: &str| {
        search(&search_with(
            "[0,1]",
            &format!(",\"k\":1,\"b\":1,\"edges\":{e}"),
        ))
    };
    assert_eq!(edged("[[0,1]]").unwrap().graph.edge_count(), 1);
    for bad in [
        "[[0,4294967296]]",
        "[[4294967295,0]]",
        "[[0,1e300]]",
        "[[0,2]]",
        "[[0,0]]",
        "[[0,1],[1,0]]",
        "[[0,1.5]]",
        "[[0,-1]]",
        "[[0]]",
        "[[0,1,1]]",
        "[0,1]",
        "{}",
    ] {
        assert!(edged(bad).is_err(), "edges {bad} accepted");
    }

    // Query size is capped.
    let sized = |n: usize| search(&search_with(&label_array(n), ",\"k\":1,\"b\":1"));
    assert_eq!(
        sized(MAX_QUERY_NODES).unwrap().graph.node_count(),
        MAX_QUERY_NODES
    );
    assert!(sized(MAX_QUERY_NODES + 1).is_err());
    assert!(sized(100_000).is_err());
}

/// Sends `payload` as one frame on `stream` and decodes the response.
fn round_trip(stream: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(stream, payload).unwrap();
    let frame = read_frame(stream).unwrap().expect("a response frame");
    parse_response(std::str::from_utf8(&frame).unwrap()).unwrap()
}

#[test]
fn a_live_server_survives_the_worst_requests() {
    let cfg = LanConfig {
        pg: lan_pg::PgConfig::new(4),
        model: lan_models::ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 40,
            nh_cover_k: 4,
            clusters: 2,
            top_clusters: 1,
            mlp_hidden: 8,
            ..lan_models::ModelConfig::default()
        },
        ..LanConfig::default()
    };
    let spec = DatasetSpec::syn()
        .with_graphs(16)
        .with_queries(4)
        .with_metric(lan_ged::GedMethod::Hungarian);
    let index = ShardedLanIndex::build(&Dataset::generate(spec), &cfg, 1);
    let server = serve(
        std::sync::Arc::new(index),
        ServeConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let is_error = |r: &Response| matches!(r, Response::Error { .. });
    let huge = search_with(&label_array(100_000), ",\"k\":1,\"b\":1");
    assert!(is_error(&round_trip(&mut stream, huge.as_bytes())));
    // The largest query accepted is served (≈1 s in a debug build).
    let capped = search_with(&label_array(MAX_QUERY_NODES), ",\"k\":1,\"b\":1");
    assert!(matches!(
        round_trip(&mut stream, capped.as_bytes()),
        Response::Ok(_)
    ));
    // Every database graph, at most.
    match round_trip(
        &mut stream,
        small_search(",\"k\":1e15,\"b\":1e15").as_bytes(),
    ) {
        Response::Ok(ok) => assert!(!ok.results.is_empty() && ok.results.len() <= 16),
        other => panic!("huge k and b: {other:?}"),
    }
    let huge_seed = small_search(",\"k\":2,\"b\":4,\"seed\":18446744073709551616");
    assert!(is_error(&round_trip(&mut stream, huge_seed.as_bytes())));
    let bad_edge = search_with("[0,1]", ",\"k\":1,\"b\":1,\"edges\":[[0,4294967296]]");
    assert!(is_error(&round_trip(&mut stream, bad_edge.as_bytes())));
    assert!(is_error(&round_trip(&mut stream, b"\xff\xfe{\"op\":")));
    let cut = small_search(",\"k\":1,\"b\":1");
    assert!(is_error(&round_trip(
        &mut stream,
        &cut.as_bytes()[..cut.len() / 2]
    )));
    assert!(is_error(&round_trip(
        &mut stream,
        "[".repeat(100_000).as_bytes()
    )));

    // The same connection and a new one are still served.
    assert!(matches!(
        round_trip(&mut stream, b"{\"op\":\"ping\"}"),
        Response::Ok(_)
    ));
    Client::connect(server.addr()).unwrap().ping().unwrap();
    server.shutdown();
}
