//! Sequential vs parallel throughput of the LAN query pipeline, written to
//! `results/BENCH_parallel.json`.
//!
//! Three configurations run the same test workload over the same sharded
//! index and must return identical recall and NDC (the determinism contract
//! of the parallel layer, property-tested in
//! `crates/core/tests/parallel_equivalence.rs`):
//!
//! 1. `sequential` — queries one after another under `LAN_THREADS=1`, so
//!    `ShardedLanIndex::search` visits the shards in order;
//! 2. `parallel_shards` — the same loop on the process's thread budget:
//!    each query fans its shards out in parallel;
//! 3. `parallel_queries` — the query batch itself runs in parallel, and
//!    each query's shard fan-out gets what is left of the budget (on a
//!    host with no more threads than queries, its shards run serially).
//!
//! The worker count defaults to the host's parallelism; `LAN_THREADS`
//! overrides it. On a single-core host the speedup is honestly ~1×, and
//! the JSON records `host_threads` so readers can tell; a speedup floor
//! is only asserted on hosts with ≥ 4 threads (non-smoke). The non-smoke
//! evaluation batch is padded to ≥ 64 queries by synthesizing extra
//! queries generator-style (database graph + 1–4 edits, seeded), since
//! the 6:2:2 split alone leaves too few test queries to time.
//!
//! A metrics snapshot is written to `results/BENCH_obs.json` at the end
//! (with the run's independently summed `total_ndc` for cross-checking by
//! the `obs_check` binary), and `LAN_TRACE=route` additionally produces
//! `results/trace_throughput.jsonl`.
//!
//! ```text
//! cargo run --release -p lan-bench --bin throughput [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the run to CI size: a tiny Hungarian-metric dataset
//! over 2 shards, seconds end to end.

use lan_bench::{
    bench_lan_config, finish_obs, host_threads, k_for, sized_spec, underprovisioned, Scale,
};
use lan_core::{InitStrategy, LanConfig, RouteStrategy, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::Graph;
use lan_models::ModelConfig;
use lan_obs::trace;
use lan_pg::PgConfig;
use std::time::Instant;

struct RunStats {
    wall_s: f64,
    qps: f64,
    total_ndc: usize,
    avg_ndc: f64,
    avg_recall: f64,
}

fn run_batch(
    label: &str,
    queries: &[(usize, Graph)],
    truth_kth: &[f64],
    k: usize,
    search: impl Fn(&Graph, u64) -> lan_core::QueryOutcome + Sync,
    parallel_queries: bool,
) -> RunStats {
    let t0 = Instant::now();
    let outs: Vec<lan_core::QueryOutcome> = if parallel_queries {
        lan_par::par_map_dyn(queries, lan_par::Grain::Fine, |(qi, q)| {
            let _t = trace::query(*qi as u64);
            search(q, *qi as u64)
        })
    } else {
        queries
            .iter()
            .map(|(qi, q)| {
                let _t = trace::query(*qi as u64);
                search(q, *qi as u64)
            })
            .collect()
    };
    let wall = t0.elapsed().as_secs_f64();
    let n = queries.len() as f64;
    let ndc: usize = outs.iter().map(|o| o.ndc).sum();
    let recall: f64 = outs
        .iter()
        .zip(truth_kth)
        .map(|(o, &kth)| lan_datasets::recall_at_k_ties(&o.results, kth, k))
        .sum::<f64>()
        / n;
    let stats = RunStats {
        wall_s: wall,
        qps: n / wall.max(1e-12),
        total_ndc: ndc,
        avg_ndc: ndc as f64 / n,
        avg_recall: recall,
    };
    eprintln!(
        "  {label:<18} wall {:>7.3}s  QPS {:>8.2}  avg NDC {:>8.1}  recall {:.3}",
        stats.wall_s, stats.qps, stats.avg_ndc, stats.avg_recall
    );
    stats
}

fn json_stats(s: &RunStats) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"qps\": {:.3}, \"avg_ndc\": {:.2}, \"avg_recall\": {:.4}}}",
        s.wall_s, s.qps, s.avg_ndc, s.avg_recall
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = Scale::from_env();
    let (k, num_shards, spec, cfg) = if smoke {
        // CI-sized: tiny Hungarian-metric database, seconds end to end.
        let spec = DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian);
        let cfg = LanConfig {
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
            quant: lan_core::QuantConfig::from_env(),
        };
        (5usize, 2usize, spec, cfg)
    } else {
        (
            k_for(scale),
            4usize,
            sized_spec(DatasetSpec::syn(), scale),
            bench_lan_config(scale),
        )
    };
    let b = 2 * k;
    eprintln!(
        "generating {} graphs / {} queries...",
        spec.num_graphs, spec.num_queries
    );
    let dataset = Dataset::generate(spec);
    eprintln!("building {num_shards}-shard index (parallel across shards)...");
    let t0 = Instant::now();
    let sharded = ShardedLanIndex::build(&dataset, &cfg, num_shards);
    let build_s = t0.elapsed().as_secs_f64();
    eprintln!("index ready in {build_s:.1}s");

    let mut queries: Vec<(usize, Graph)> = dataset
        .split
        .test
        .iter()
        .map(|&qi| (qi, dataset.queries[qi].clone()))
        .collect();
    if !smoke {
        // The 6:2:2 split leaves only a handful of test queries (8 at the
        // small scale) — far too few for a meaningful throughput number
        // (a 2-query batch once "measured" a 0.99x parallel speedup).
        // Synthesize additional evaluation queries the same way the
        // generator makes its own (a database graph plus 1–4 edits),
        // deterministically seeded, until the batch holds ≥ 64. Ground
        // truth is computed per query below, so recall stays exact.
        const MIN_EVAL_QUERIES: usize = 64;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7410_BE9C);
        let mut next_qi = dataset.queries.len();
        while queries.len() < MIN_EVAL_QUERIES {
            let base = &dataset.graphs[rng.gen_range(0..dataset.graphs.len())];
            let t = rng.gen_range(1..=4);
            let (q, _) = lan_graph::perturb::perturb(&mut rng, base, t, dataset.spec.num_labels);
            queries.push((next_qi, q));
            next_qi += 1;
        }
    }
    let truth_kth: Vec<f64> = queries
        .iter()
        .map(|(_, q)| {
            dataset
                .ground_truth_knn(q, k)
                .last()
                .map(|&(d, _)| d)
                .unwrap_or(f64::INFINITY)
        })
        .collect();

    let init = InitStrategy::LanIs;
    let route = RouteStrategy::LanRoute { use_cg: true };
    eprintln!(
        "running {} queries, k = {k}, b = {b}, {} worker threads:",
        queries.len(),
        lan_par::num_threads()
    );

    let search = |q: &Graph, seed| sharded.search(q, k, b, init, route, seed);
    let seq = lan_par::testenv::with_env(&[("LAN_THREADS", Some("1"))], || {
        run_batch("sequential", &queries, &truth_kth, k, search, false)
    });
    let par_shards = run_batch("parallel shards", &queries, &truth_kth, k, search, false);
    let par_queries = run_batch("parallel queries", &queries, &truth_kth, k, search, true);

    assert_eq!(
        seq.avg_ndc, par_shards.avg_ndc,
        "shard-parallel NDC diverged"
    );
    assert_eq!(
        seq.avg_ndc, par_queries.avg_ndc,
        "query-parallel NDC diverged"
    );
    assert_eq!(
        seq.avg_recall, par_shards.avg_recall,
        "shard-parallel recall diverged"
    );
    assert_eq!(
        seq.avg_recall, par_queries.avg_recall,
        "query-parallel recall diverged"
    );

    let best = par_shards.qps.max(par_queries.qps);
    let speedup = best / seq.qps.max(1e-12);
    eprintln!("best parallel speedup over sequential: {speedup:.2}x");
    // Only a real parallel host can be held to a speedup floor; on 1–2
    // cores the honest result is ~1x and the JSON tags the run
    // `underprovisioned` so nobody reads the "speedup" as a measurement.
    // Smoke batches are too small to amortize thread startup.
    if !smoke && !underprovisioned() {
        assert!(
            speedup >= 1.5,
            "parallel speedup {speedup:.2}x on a {}-thread host \
             (floor: 1.5x with >= 4 threads)",
            host_threads()
        );
    } else if underprovisioned() {
        eprintln!(
            "host has {} thread(s): speedup gate skipped, run tagged underprovisioned",
            host_threads()
        );
    }

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n{}  \"underprovisioned\": {},\n  \"num_shards\": {},\n  \"queries\": {},\n  \"k\": {},\n  \"beam\": {},\n  \"build_s\": {:.3},\n  \"sequential\": {},\n  \"parallel_shards\": {},\n  \"parallel_queries\": {},\n  \"speedup\": {:.3}\n}}\n",
        lan_bench::host_header_json(),
        underprovisioned(),
        num_shards,
        queries.len(),
        k,
        b,
        build_s,
        json_stats(&seq),
        json_stats(&par_shards),
        json_stats(&par_queries),
        speedup,
    );
    std::fs::write("results/BENCH_parallel.json", &json)
        .expect("write results/BENCH_parallel.json");
    eprintln!("wrote results/BENCH_parallel.json");

    // The run's own NDC bookkeeping, summed independently of the metrics
    // registry; `obs_check` asserts the exported `ged.calls` equals it.
    let total_ndc = (seq.total_ndc + par_shards.total_ndc + par_queries.total_ndc) as u64;
    finish_obs("throughput", &[("total_ndc", total_ndc)]);
}
