//! The `lan-serve` binary: build (or open from `LAN_STORE`) a sharded
//! index over the deterministic SYN database and serve it.
//!
//! ```text
//! LAN_STORE=store LAN_SERVE_ADDR=127.0.0.1:7470 \
//!     cargo run --release -p lan-serve
//! ```
//!
//! Knobs: `LAN_SERVE_GRAPHS` (database size, default 1000) and
//! `LAN_SERVE_SHARDS` (default 4) pick the tier; the two serving knobs
//! (`LAN_SERVE_ADDR`, `LAN_SERVE_MAX_INFLIGHT`) are documented on
//! [`lan_serve::ServeConfig`]. The first boot with
//! `LAN_STORE` set saves the built index there, keyed by database size,
//! seed and shard count, and later boots open it in seconds.
//!
//! **Probe mode** (the client `tests/binary.rs` runs against a booted
//! server):
//!
//! ```text
//! lan-serve --probe 127.0.0.1:7470 --clients 8 --requests 32 --shutdown
//! ```
//!
//! connects the given number of concurrent clients to an already running
//! server, fires the deterministic query workload at it, checks every
//! response is `ok`, scrapes `GET /metrics`, pings, and (with
//! `--shutdown`) asks the server to stop cleanly.

use lan_core::{LanConfig, QuantConfig, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_par::env as lenv;
use lan_serve::{Client, Response, SearchCall, ServeConfig};
use std::sync::Arc;

/// The served index's configuration.
fn serve_index_config() -> LanConfig {
    LanConfig {
        pg: lan_pg::PgConfig::new(6),
        model: lan_models::ModelConfig {
            embed_dim: 16,
            epochs: 2,
            max_samples_per_epoch: 300,
            nh_cover_k: 20,
            clusters: 6,
            top_clusters: 2,
            mlp_hidden: 16,
            ..lan_models::ModelConfig::default()
        },
        ds: 1.0,
        quant: QuantConfig::default(),
    }
}

/// Build or open the index, cached under `LAN_STORE` as
/// `sharded_<name>_g<graphs>_q<queries>_seed<seed>_s<shards>.lan`.
fn build_or_open(num_graphs: usize, num_shards: usize) -> ShardedLanIndex {
    let spec = DatasetSpec::syn()
        .with_graphs(num_graphs)
        .with_queries(120)
        .with_metric(lan_ged::GedMethod::Hungarian);
    let cache = std::env::var("LAN_STORE").ok().map(|dir| {
        std::path::PathBuf::from(dir).join(format!(
            "sharded_{}_g{}_q{}_seed{}_s{}.lan",
            spec.name.to_lowercase(),
            spec.num_graphs,
            spec.num_queries,
            spec.seed,
            num_shards
        ))
    });
    if let Some(path) = &cache {
        if let Ok(index) = ShardedLanIndex::open(path) {
            eprintln!("[lan-serve] opened cached index {}", path.display());
            return index;
        }
    }
    eprintln!("[lan-serve] building index: {num_graphs} graphs, {num_shards} shards");
    let dataset = Dataset::generate_par(spec);
    let index = ShardedLanIndex::build(&dataset, &serve_index_config(), num_shards);
    if let Some(path) = &cache {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match index.save(path) {
            Ok(bytes) => eprintln!("[lan-serve] cached to {} ({bytes} bytes)", path.display()),
            Err(e) => eprintln!("[lan-serve] cache write failed: {e}"),
        }
    }
    index
}

/// Drives `clients` concurrent clients against a running server at
/// `addr` (probe mode).
fn probe(addr: std::net::SocketAddr, clients: usize, total: usize, do_shutdown: bool) {
    let num_graphs =
        lenv::parse_var_or_warn("LAN_SERVE_GRAPHS", lenv::positive_usize).unwrap_or(1000);
    let spec = DatasetSpec::syn()
        .with_graphs(num_graphs)
        .with_queries(120)
        .with_metric(lan_ged::GedMethod::Hungarian);
    let queries = Arc::new(Dataset::generate_par(spec).queries);
    let per_client = total.div_ceil(clients);
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect probe client");
                for j in 0..per_client {
                    let qi = (c * per_client + j) % queries.len();
                    let call = SearchCall::new(&queries[qi], 5, 16, qi as u64);
                    match client.search(&call).expect("search round-trip") {
                        Response::Ok(ok) => {
                            assert!(!ok.results.is_empty(), "query {qi}: empty result set")
                        }
                        other => panic!("query {qi}: expected ok, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("probe client thread");
    }
    let metrics = Client::scrape_metrics(addr).expect("metrics scrape");
    assert!(
        metrics.contains("serve_requests_total"),
        "metrics scrape missing serve_requests_total:\n{metrics}"
    );
    let mut client = Client::connect(addr).expect("connect control client");
    client.ping().expect("ping");
    if do_shutdown {
        client.shutdown().expect("shutdown acknowledged");
    }
    eprintln!(
        "[lan-serve] probe ok: {} requests over {clients} clients{}",
        clients * per_client,
        if do_shutdown { ", shutdown sent" } else { "" }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--probe") {
        let addr = args
            .get(i + 1)
            .and_then(|a| a.parse().ok())
            .expect("--probe needs an ip:port address");
        let flag_val = |name: &str, default: usize| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        probe(
            addr,
            flag_val("--clients", 8),
            flag_val("--requests", 32),
            args.iter().any(|a| a == "--shutdown"),
        );
        return;
    }
    let cfg = ServeConfig::from_env();
    let num_graphs =
        lenv::parse_var_or_warn("LAN_SERVE_GRAPHS", lenv::positive_usize).unwrap_or(1000);
    let num_shards = lenv::parse_var_or_warn("LAN_SERVE_SHARDS", lenv::positive_usize).unwrap_or(4);
    let index = Arc::new(build_or_open(num_graphs, num_shards));
    let max_inflight = cfg.max_inflight;
    let handle = lan_serve::serve(index, cfg).expect("bind listen address");
    eprintln!(
        "[lan-serve] listening on {} (max_inflight={max_inflight})",
        handle.addr(),
    );
    handle.wait();
    eprintln!("[lan-serve] server shut down cleanly");
}
