//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Three sources, all outside the measured crates: benchmark-side spans
//! around the calls into each layer; what the public API already returns
//! (`QueryOutcome`, `QueryExplain`, `lan_obs` counter deltas); and direct
//! probes — timed loops over one layer's public functions on inputs
//! sampled from the workload. Every workload prints every metric, so the
//! same probe can be read on a GED-bound and on a GNN-visible database.

use crate::run::{
    boot_server, offline_pass, peak_rss_mb, probe_store, sequential_pass, warm_up, Checks, LoadGen,
    Outcome, Pass, ScratchDir,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, Workload, B, K, WARMUP};
use lan_core::{InitStrategy, RouteStrategy, ShardedLanIndex};
use lan_datasets::Dataset;
use lan_ged::exact::{exact_ged, exact_ged_within, ExactLimits, ExactWithin};
use lan_ged::lower_bounds::{label_degree_lb, label_size_lb};
use lan_ged::{engine::ged, GedMethod};
use lan_gnn::CompressedGnnGraph;
use lan_graph::generators::power_law_like;
use lan_graph::perturb::perturb;
use lan_graph::wl::wl_labels;
use lan_graph::Graph;
use lan_models::LanModels;
use lan_obs::explain::QueryExplain;
use lan_obs::names;
use lan_pg::np_route::{np_route, OracleRanker};
use lan_pg::{beam_search, DistCache, PairCache, ProximityGraph};
use lan_serve::proto::{parse_request, render_ok, render_search_request};
use lan_serve::{Admission, Client};
use lan_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Metrics = Vec<(&'static str, f64)>;

/// Median over `reps` sweeps of the per-item time in nanoseconds, after
/// one untimed sweep (caches, lazily started worker cores). Each timed
/// sweep is one span; `sweep` returns the time it measured, so a probe can
/// keep its own preparation out of the clock.
fn per_item_ns(
    tracer: &Tracer,
    name: &'static str,
    reps: usize,
    items: usize,
    mut sweep: impl FnMut() -> Duration,
) -> f64 {
    sweep();
    let per_sweep: Vec<f64> = (0..reps)
        .map(|_| {
            let _s = tracer.span(name);
            sweep().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&per_sweep)
}

/// Times one closure call.
fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One traced pass: every query through `search_explain` inside a request
/// span, with the plans kept.
fn traced_pass(
    w: &Workload,
    index: &ShardedLanIndex,
    queries: &[Graph],
    tracer: &Tracer,
) -> (Pass, Vec<QueryExplain>) {
    let _p = tracer.span("pass.traced");
    let mut plans = Vec::with_capacity(queries.len());
    let pass = sequential_pass(queries, |i, q| {
        let _q = tracer.request_span("query", i as u64);
        let _s = tracer.span("core.search_explain");
        let (out, plan) = w.search_explain(index, q, i);
        plans.push(plan);
        out
    });
    (pass, plans)
}

/// In-situ metrics of `lan-core`, `lan-ged`, `lan-gnn` and `lan-pg`: what
/// the traced passes' plans and the counter deltas around them say.
fn in_situ(
    w: &Workload,
    plans: &[QueryExplain],
    delta: &lan_obs::Snapshot,
    traced_ns: u64,
    untraced_ns: u64,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let n = plans.len() as f64;
    let sum = |f: &dyn Fn(&QueryExplain) -> u64| plans.iter().map(f).sum::<u64>() as f64;
    let total = sum(&|p| p.total_ns);
    let dist = sum(&|p| p.dist_ns);
    let gnn = sum(&|p| p.gnn_ns);
    let ndc = sum(&|p| p.ndc);
    // Time the sharded fan-out spends outside its shards: merge, id remap
    // and the per-shard plan bookkeeping. Zero on the flat index.
    let merge = sum(&|p| {
        if p.shards.is_empty() {
            0
        } else {
            p.total_ns
                .saturating_sub(p.shards.iter().map(|s| s.total_ns).sum())
        }
    });
    m.push(("core.query.us", total / n / 1e3));
    m.push(("core.init.us", sum(&|p| p.init_ns) / n / 1e3));
    m.push(("core.route.us", sum(&|p| p.route_ns) / n / 1e3));
    m.push(("core.merge.us", merge / n / 1e3));
    let (ged_share, gnn_share) = (ratio(dist, total), ratio(gnn, total));
    m.push(("core.ged_share", ged_share));
    m.push(("core.gnn_share", gnn_share));
    m.push(("core.rest_share", 1.0 - ged_share - gnn_share));
    checks.check(
        ged_share > 0.0 && gnn_share > 0.0 && ged_share + gnn_share <= 1.0,
        || {
            format!(
                "{}: GED share {ged_share} and GNN share {gnn_share} do not fit in the query time",
                w.name
            )
        },
    );
    m.push(("core.hops_per_query", sum(&|p| p.hops) / n));
    m.push((
        "core.cache_hit_frac",
        ratio(sum(&|p| p.cache_hits), sum(&|p| p.lookups())),
    ));
    m.push((
        "core.trace_overhead_frac",
        traced_ns as f64 / untraced_ns as f64 - 1.0,
    ));

    // The work-count reconciliation: every distance computation is
    // attributed to exactly one cascade tier, per query and in total.
    let unreconciled = plans
        .iter()
        .filter(|p| p.tiers.attributed() != p.ndc)
        .count();
    checks.count(
        plans.len() as u64,
        unreconciled as u64,
        "traced queries (lb_prunes + tau_aborts + full_solves == ndc)",
    );
    let ged_calls = delta.counter(names::GED_CALLS) as f64;
    checks.check(ged_calls == ndc, || {
        format!("ged.calls delta {ged_calls} != summed NDC {ndc}")
    });
    m.push(("ged.calls_per_query", ged_calls / n));
    m.push(("ged.us_per_call", ratio(dist, ndc) / 1e3));
    m.push(("ged.lb_prune_frac", ratio(sum(&|p| p.tiers.lb_prunes), ndc)));
    m.push((
        "ged.tau_abort_frac",
        ratio(sum(&|p| p.tiers.tau_aborts), ndc),
    ));
    m.push((
        "ged.full_solve_frac",
        ratio(sum(&|p| p.tiers.full_solves), ndc),
    ));
    m.push((
        "ged.timeout_fallbacks",
        delta.counter(names::GED_TIMEOUT_FALLBACK) as f64,
    ));

    let (hit, miss) = (
        delta.counter(names::GNN_INFER_CACHE_HIT) as f64,
        delta.counter(names::GNN_INFER_CACHE_MISS) as f64,
    );
    m.push(("gnn.us_per_query", gnn / n / 1e3));
    m.push((
        "gnn.forwards_per_query",
        delta.counter(names::GNN_INFER_FORWARDS) as f64 / n,
    ));
    m.push(("gnn.pair_cache_hit_frac", ratio(hit, hit + miss)));

    m.push((
        "pg.gamma_prunes_per_query",
        delta.counter(names::ROUTE_GAMMA_PRUNES) as f64 / n,
    ));
    m.push((
        "pg.batches_opened_per_hop",
        ratio(
            delta.counter(names::ROUTE_BATCHES_OPENED) as f64,
            delta.counter(names::ROUTE_HOPS) as f64,
        ),
    ));
}

/// The paper's headline ratio: NDC of the full LAN query over NDC of the
/// HNSW baseline (hierarchy entry + exhaustive beam) on the same index and
/// the same leading queries.
fn hnsw_baseline(
    index: &ShardedLanIndex,
    queries: &[Graph],
    lan: &Pass,
    tracer: &Tracer,
    m: &mut Metrics,
) {
    let _s = tracer.span("core.search_hnsw");
    let n = queries.len().min(100);
    let hnsw: usize = queries[..n]
        .iter()
        .enumerate()
        .map(|(i, q)| {
            index
                .search(
                    q,
                    K,
                    B,
                    InitStrategy::HnswIs,
                    RouteStrategy::HnswRoute,
                    i as u64,
                )
                .ndc
        })
        .sum();
    let lan_ndc: u64 = lan.answers[..n].iter().map(|a| a.ndc).sum();
    m.push(("core.hnsw.ndc_per_query", hnsw as f64 / n as f64));
    m.push((
        "core.lan_vs_hnsw.ndc_ratio",
        ratio(lan_ndc as f64, hnsw as f64),
    ));
}

/// `lan-serve`: wire and admission probes, then the index behind the
/// server under one client (overhead over the offline path) and under
/// `threads` closed-loop clients (batching counters).
#[allow(clippy::too_many_arguments)]
fn serve_layer(
    index: &Arc<ShardedLanIndex>,
    queries: &[Graph],
    offline: &Pass,
    threads: usize,
    reps: usize,
    tracer: &Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let payloads: Vec<String> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| render_search_request("default", K, B, i as u64, q, false, None, None))
        .collect();
    let parse_ns = per_item_ns(tracer, "serve.parse_request", reps, payloads.len(), || {
        timed(|| {
            for p in &payloads {
                black_box(parse_request(p).is_ok());
            }
        })
    });
    m.push(("serve.parse_request.us", parse_ns / 1e3));
    let render_ns = per_item_ns(
        tracer,
        "serve.render_ok",
        reps,
        offline.answers.len(),
        || {
            timed(|| {
                for a in &offline.answers {
                    black_box(render_ok(&a.results, a.ndc, "converged", None));
                }
            })
        },
    );
    m.push(("serve.render_ok.us", render_ns / 1e3));
    let admission = Admission::new(lan_serve::ServeConfig::default().max_inflight);
    const ADMITS: usize = 20_000;
    let admit_ns = per_item_ns(tracer, "serve.try_admit", reps, ADMITS, || {
        timed(|| {
            for _ in 0..ADMITS {
                black_box(admission.try_admit("default").is_ok());
            }
        })
    });
    m.push(("serve.try_admit.ns", admit_ns));

    let server = boot_server(index).expect("bind the loopback server");
    let mut client = Client::connect(server.addr()).expect("connect the ping client");
    const PINGS: usize = 200;
    let mut ping_ok = true;
    let ping_ns = per_item_ns(tracer, "serve.ping", reps, PINGS, || {
        timed(|| {
            for _ in 0..PINGS {
                ping_ok &= client.ping().is_ok();
            }
        })
    });
    checks.check(ping_ok, || "a ping failed".into());
    m.push(("serve.ping_rtt.us", ping_ns / 1e3));
    drop(client);

    // One client: the served path's cost over the offline path, on the
    // same queries, both at p50.
    let digest = offline.digest();
    let mut solo = LoadGen::connect(server.addr(), 1).expect("connect the solo client");
    solo.pass(&queries[..WARMUP], tracer);
    let solo_pass = {
        let _s = tracer.span("pass.served.solo");
        solo.pass(queries, tracer)
    };
    drop(solo);
    checks.count_pass(&solo_pass, "served queries (one client)");
    checks.check(solo_pass.digest() == digest, || {
        "served answers (one client) differ from the offline answers".into()
    });
    m.push((
        "serve.overhead.us",
        (solo_pass.latency_ms(0.5) - offline.latency_ms(0.5)) * 1e3,
    ));

    // `threads` clients: what the micro-batcher saw.
    let mut load = LoadGen::connect(server.addr(), threads).expect("connect the clients");
    let before = lan_obs::snapshot();
    let loaded = {
        let _s = tracer.span("pass.served.loaded");
        load.pass(queries, tracer)
    };
    let delta = lan_obs::snapshot().diff(&before);
    drop(load);
    server.shutdown();
    checks.count_pass(&loaded, "served queries (closed loop)");
    checks.check(loaded.digest() == digest, || {
        "served answers (closed loop) differ from the offline answers".into()
    });
    m.push((
        "serve.batch_occupancy.mean",
        delta.histogram(names::SERVE_BATCH_OCCUPANCY).mean(),
    ));
    m.push((
        "serve.fused.rows_per_call",
        ratio(
            delta.counter(names::FUSED_ROWS) as f64,
            delta.counter(names::FUSED_CALLS) as f64,
        ),
    ));
    m.push(("serve.shed", delta.counter(names::SERVE_SHED) as f64));
}

/// What the build-phase probe leaves for the `lan-pg` probes: the graph it
/// built, every pairwise distance the build asked for, and the training
/// rows (one full distance table per training query).
struct BuildPhases {
    pg: ProximityGraph,
    pair_table: HashMap<(u32, u32), f64>,
    train_dists: Vec<Vec<f64>>,
}

/// `lan-core` build phases on one shard's sub-dataset, calling the three
/// phases of `LanIndex::build` directly.
fn build_phases(ds: &Dataset, tracer: &Tracer, m: &mut Metrics) -> BuildPhases {
    let cfg = workload::lan_config();
    let recorded: Mutex<HashMap<(u32, u32), f64>> = Mutex::new(HashMap::new());
    let pair_fn = |a: u32, b: u32| {
        let d = ds.pair_distance(a, b);
        recorded
            .lock()
            .expect("no holder of this lock panics")
            .insert((a, b), d);
        d
    };
    let pg = {
        let _s = tracer.span("core.build.pg");
        let pairs = PairCache::new(&pair_fn);
        ProximityGraph::build(ds.graphs.len(), &pairs, &cfg.pg)
    };
    let train_dists: Vec<Vec<f64>> = {
        let _s = tracer.span("core.build.train_dists");
        lan_par::par_map_dyn(&ds.split.train, lan_par::Grain::Fine, |&qi| {
            (0..ds.graphs.len() as u32)
                .map(|g| ds.distance(&ds.queries[qi], g))
                .collect()
        })
    };
    {
        let _s = tracer.span("core.build.models");
        black_box(LanModels::train(ds, pg.base(), &train_dists, cfg.model));
    }
    // The spans above are the clock: one of each name per run.
    let pg_s = tracer.total_s("core.build.pg");
    let td_s = tracer.total_s("core.build.train_dists");
    let models_s = tracer.total_s("core.build.models");
    let total = pg_s + td_s + models_s;
    m.push(("core.build.pg_s", pg_s));
    m.push(("core.build.train_dists_s", td_s));
    m.push(("core.build.models_s", models_s));
    m.push(("core.build.pg_share", pg_s / total));
    m.push(("core.build.train_dists_share", td_s / total));
    m.push(("core.build.models_share", models_s / total));
    BuildPhases {
        pg,
        pair_table: recorded
            .into_inner()
            .expect("no holder of this lock panics"),
        train_dists,
    }
}

/// `lan-pg` over precomputed distance tables: a zero-cost oracle, so the
/// routing and construction logic is timed without GED.
fn pg_layer(ds: &Dataset, phases: &BuildPhases, reps: usize, tracer: &Tracer, m: &mut Metrics) {
    let cfg = workload::lan_config();
    let n = ds.graphs.len();
    let table = &phases.pair_table;
    // The replayed build is deterministic, so it asks for exactly the
    // pairs the recorded build computed, in either argument order.
    let lookup = |a: u32, b: u32| {
        *table
            .get(&(a, b))
            .or_else(|| table.get(&(b, a)))
            .expect("the replayed build asks only for recorded pairs")
    };
    let mut computed = 0;
    let insert_ns = per_item_ns(tracer, "pg.build", reps, n, || {
        let pairs = PairCache::new(&lookup);
        let d = timed(|| {
            black_box(ProximityGraph::build(n, &pairs, &cfg.pg));
        });
        computed = pairs.computed();
        d
    });
    m.push(("pg.build.us_per_insert", insert_ns / 1e3));
    m.push(("pg.build.ndc_per_insert", computed as f64 / n as f64));

    let adj = phases.pg.base();
    let entry = [phases.pg.entry];
    let route = |name: &'static str, np: bool| {
        let mut hops = 0usize;
        let mut total = Duration::ZERO;
        for _ in 0..reps {
            let _s = tracer.span(name);
            for row in &phases.train_dists {
                let oracle = |id: u32| row[id as usize];
                let cache = DistCache::new(&oracle);
                let t = Instant::now();
                let r = if np {
                    let ranker = OracleRanker::new(&oracle, cfg.model.batch_pct);
                    np_route(adj, &cache, &ranker, &entry, B, K, cfg.ds)
                } else {
                    beam_search(adj, &cache, &entry, B, K)
                };
                total += t.elapsed();
                hops += r.exploration_order.len();
            }
        }
        total.as_nanos() as f64 / hops.max(1) as f64 / 1e3
    };
    let np_us = route("pg.np_route", true);
    let beam_us = route("pg.beam_search", false);
    m.push(("pg.np_route.us_per_hop", np_us));
    m.push(("pg.beam_search.us_per_hop", beam_us));
}

/// `lan-ged` probes: each kernel on (query, database graph) pairs sampled
/// from the workload, and the exact solver on small pairs of its own.
fn ged_layer(
    ds: &Dataset,
    pairs: &[(&Graph, &Graph)],
    seed: u64,
    reps: usize,
    tracer: &Tracer,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let kernel = |name: &'static str, method: GedMethod| {
        per_item_ns(tracer, name, reps, pairs.len(), || {
            timed(|| {
                for (q, g) in pairs {
                    black_box(ged(q, g, &method));
                }
            })
        }) / 1e3
    };
    let hungarian = kernel("ged.hungarian", GedMethod::Hungarian);
    let vj = kernel("ged.vj", GedMethod::Vj);
    let beam4 = kernel("ged.beam4", GedMethod::Beam { width: 4 });
    let bo3 = kernel("ged.bo3", GedMethod::BestOfThree { beam_width: 4 });
    m.push(("ged.hungarian.us", hungarian));
    m.push(("ged.vj.us", vj));
    m.push(("ged.beam4.us", beam4));
    m.push(("ged.bo3.us", bo3));
    // Cheap enough that one sweep is below the clock's comfort: repeat it.
    const LB_ROUNDS: usize = 50;
    let lb_ns = per_item_ns(
        tracer,
        "ged.lower_bounds",
        reps,
        pairs.len() * LB_ROUNDS,
        || {
            timed(|| {
                for _ in 0..LB_ROUNDS {
                    for (q, g) in pairs {
                        black_box(label_size_lb(q, g).max(label_degree_lb(q, g)));
                    }
                }
            })
        },
    );
    m.push(("ged.lower_bounds.ns", lb_ns));

    // Exact A* on pairs of at most 8 nodes (the workload's own graphs are
    // too large to solve exactly inside a probe), with the threshold one
    // edit above the true distance: at the true distance itself the root's
    // lower bound usually settles the call before any search runs.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6578_6163);
    let limits = ExactLimits::default();
    let small: Vec<(Graph, Graph, f64)> = (0..32)
        .filter_map(|_| {
            let n = rng.gen_range(5..=8);
            let extra = rng.gen_range(0..=1);
            let a = power_law_like(&mut rng, n, 2, extra, ds.spec.num_labels);
            let edits = rng.gen_range(1..=3);
            let b = perturb(&mut rng, &a, edits, ds.spec.num_labels).0;
            let d = exact_ged(&a, &b, &limits).distance()?;
            (b.node_count() <= 8).then_some((a, b, d))
        })
        .collect();
    let mut unsolved = 0;
    let exact_ns = per_item_ns(tracer, "ged.exact_within", reps, small.len(), || {
        timed(|| {
            for (a, b, d) in &small {
                match exact_ged_within(a, b, &limits, *d + 1.0) {
                    ExactWithin::Optimal { distance, .. } if distance == *d => {}
                    _ => unsolved += 1,
                }
            }
        })
    });
    checks.check(!small.is_empty() && unsolved == 0, || {
        format!(
            "exact GED probe: {unsolved} calls over {} pairs did not return the true distance",
            small.len()
        )
    });
    m.push(("ged.exact_within.us", exact_ns / 1e3));
}

/// `lan-gnn`, `lan-models` and `lan-tensor` probes on shard 0's trained
/// models: cross-graph forwards, the heads, and the kernels under them.
fn learning_layer(
    index: &ShardedLanIndex,
    queries: &[Graph],
    reps: usize,
    tracer: &Tracer,
    m: &mut Metrics,
) {
    let shard = &index.shards[0];
    let models = &shard.models;
    let db = &shard.dataset.graphs;
    let qs = &queries[..queries.len().min(16)];
    // Every probed query against a fixed stride of database graphs.
    let ids: Vec<usize> = (0..db.len()).step_by((db.len() / 16).max(1)).collect();

    let infer = |name: &'static str, use_cg: bool| {
        let ctxs: Vec<_> = qs.iter().map(|q| models.query_context(q, use_cg)).collect();
        let inputs = if use_cg {
            &models.db_inputs_cg
        } else {
            &models.db_inputs_plain
        };
        let mut out = Vec::new();
        per_item_ns(tracer, name, reps, ctxs.len() * ids.len(), || {
            timed(|| {
                lan_gnn::with_scratch(|scratch| {
                    for ctx in &ctxs {
                        for &g in &ids {
                            models.cross.infer_pair(
                                &models.cross_store,
                                &inputs[g],
                                &ctx.input,
                                scratch,
                                &mut out,
                            );
                            black_box(&out);
                        }
                    }
                })
            })
        }) / 1e3
    };
    let cg_us = infer("gnn.infer_pair", true);
    let plain_us = infer("gnn.infer_pair_plain", false);
    m.push(("gnn.infer_pair.us", cg_us));
    m.push(("gnn.infer_pair_plain.us", plain_us));
    m.push(("gnn.cg_speedup", ratio(plain_us, cg_us)));
    let cg_build_ns = per_item_ns(tracer, "gnn.cg_build", reps, ids.len(), || {
        timed(|| {
            for &g in &ids {
                black_box(CompressedGnnGraph::build(&db[g], models.cfg.layers));
            }
        })
    });
    m.push(("gnn.cg_build.us", cg_build_ns / 1e3));
    let embed_ns = per_item_ns(tracer, "gnn.embed", reps, ids.len(), || {
        timed(|| {
            for &g in &ids {
                black_box(models.embed(&db[g]));
            }
        })
    });
    m.push(("gnn.embed.us", embed_ns / 1e3));

    let ctx_ns = per_item_ns(tracer, "models.query_context", reps, qs.len(), || {
        timed(|| {
            for q in qs {
                black_box(models.query_context(q, true));
            }
        })
    });
    m.push(("models.query_context.us", ctx_ns / 1e3));
    let nh_ns = per_item_ns(
        tracer,
        "models.predicted_neighborhood",
        reps,
        qs.len(),
        || {
            qs.iter()
                .map(|q| {
                    let ctx = models.query_context(q, true);
                    timed(|| {
                        black_box(models.predicted_neighborhood(&ctx, true));
                    })
                })
                .sum()
        },
    );
    m.push(("models.predicted_neighborhood.us", nh_ns / 1e3));

    // Hops as routing meets them: the nodes each query ends on, with their
    // proximity-graph neighbours and true distances (so the gamma gate
    // behaves as in a search).
    let hops: Vec<Vec<(u32, &[u32], f64)>> = qs
        .iter()
        .enumerate()
        .map(|(i, q)| {
            shard
                .search_with(q, K, B, workload::INIT, workload::ROUTE, i as u64)
                .results
                .iter()
                .map(|&(d, id)| (id, shard.pg.base()[id as usize].as_slice(), d))
                .collect()
        })
        .collect();
    let hop_count: usize = hops.iter().map(Vec::len).sum();
    let rank = |name: &'static str, tape: bool, reps: usize| {
        per_item_ns(tracer, name, reps, hop_count, || {
            qs.iter()
                .zip(&hops)
                .map(|(q, hops)| {
                    let ctx = models.query_context(q, true);
                    timed(|| {
                        for &(node, nbs, d) in hops {
                            black_box(if tape {
                                models.rank_batches_tape(&ctx, node, nbs, d, true)
                            } else {
                                models.rank_batches(&ctx, node, nbs, d, true)
                            });
                        }
                    })
                })
                .sum()
        }) / 1e3
    };
    let rank_us = rank("models.rank_batches", false, reps);
    let tape_us = rank("models.rank_batches_tape", true, 1);
    m.push(("models.rank_batches.us", rank_us));
    m.push(("models.rank_batches_tape.us", tape_us));

    // The hop-scoring matmul: one hop's feature rows times the fused
    // first layer of the ranker heads.
    let heads = &models.rk_fused;
    let rows = (hops.iter().flatten().map(|h| h.1.len()).sum::<usize>() / hop_count.max(1)).max(1);
    let (inner, cols) = (heads.in_dim, heads.num_heads * heads.hidden);
    let x = Matrix::from_fn(rows, inner, |i, j| {
        ((i * 31 + j * 17) % 13) as f32 / 13.0 - 0.5
    });
    let wt = Matrix::from_fn(inner, cols, |i, j| {
        ((i * 7 + j * 29) % 11) as f32 / 11.0 - 0.5
    });
    let mut out = Matrix::zeros(rows, cols);
    const MATMULS: usize = 2000;
    let matmul_ns = per_item_ns(tracer, "tensor.matmul", reps, MATMULS, || {
        timed(|| {
            for _ in 0..MATMULS {
                x.matmul_into(&wt, &mut out);
                black_box(&out);
            }
        })
    });
    m.push((
        "tensor.matmul.gflops",
        (2 * rows * inner * cols) as f64 / matmul_ns,
    ));

    // The quantized-code kernels at the index's code sizes: one bit and
    // one byte per embedding dimension.
    let dim = models.cfg.embed_dim;
    let words = dim.div_ceil(64);
    const CODES: usize = 4096;
    let bits: Vec<u64> = (0..(CODES + 1) * words)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let bytes: Vec<u8> = (0..(CODES + 1) * dim)
        .map(|i| (i * 131 % 251) as u8)
        .collect();
    const KERNEL_ROUNDS: usize = 20;
    let hamming_ns = per_item_ns(
        tracer,
        "tensor.hamming",
        reps,
        CODES * KERNEL_ROUNDS,
        || {
            timed(|| {
                for _ in 0..KERNEL_ROUNDS {
                    for c in 0..CODES {
                        black_box(lan_tensor::hamming(
                            &bits[c * words..(c + 1) * words],
                            &bits[(c + 1) * words..(c + 2) * words],
                        ));
                    }
                }
            })
        },
    );
    m.push(("tensor.hamming.ns", hamming_ns));
    let dot_ns = per_item_ns(tracer, "tensor.dot_u8", reps, CODES * KERNEL_ROUNDS, || {
        timed(|| {
            for _ in 0..KERNEL_ROUNDS {
                for c in 0..CODES {
                    black_box(lan_tensor::dot_u8(
                        &bytes[c * dim..(c + 1) * dim],
                        &bytes[(c + 1) * dim..(c + 2) * dim],
                    ));
                }
            }
        })
    });
    m.push(("tensor.dot_u8.ns", dot_ns));
}

/// `lan-par`, `lan-graph` and `lan-obs` probes.
fn utility_layers(db: &[Graph], reps: usize, tracer: &Tracer, m: &mut Metrics) {
    const ITEMS: usize = 200_000;
    let item_ns = per_item_ns(tracer, "par.map_dyn.empty", reps, ITEMS, || {
        timed(|| {
            black_box(lan_par::par_map_indices_dyn(
                ITEMS,
                lan_par::Grain::Auto,
                |i| i,
            ));
        })
    });
    m.push(("par.map_dyn.ns_per_item", item_ns));
    // 50 us of spinning per item: `LAN_THREADS` workers against a plain loop.
    let spin = |_: usize| {
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(50) {
            std::hint::spin_loop();
        }
    };
    const SPINS: usize = 400;
    let par_ns = per_item_ns(tracer, "par.map_dyn.spin", reps, SPINS, || {
        timed(|| {
            black_box(lan_par::par_map_indices_dyn(
                SPINS,
                lan_par::Grain::Fine,
                spin,
            ));
        })
    });
    let seq_ns = per_item_ns(tracer, "par.sequential.spin", reps, SPINS, || {
        timed(|| (0..SPINS).for_each(spin))
    });
    m.push(("par.map_dyn.speedup", ratio(seq_ns, par_ns)));

    let sample: Vec<&Graph> = db.iter().step_by((db.len() / 64).max(1)).collect();
    let wl_ns = per_item_ns(tracer, "graph.wl_labels", reps, sample.len(), || {
        timed(|| {
            for g in &sample {
                black_box(wl_labels(g, 2));
            }
        })
    });
    m.push(("graph.wl_labels.us", wl_ns / 1e3));

    const SNAPSHOTS: usize = 200;
    let snap_ns = per_item_ns(tracer, "obs.snapshot", reps, SNAPSHOTS, || {
        timed(|| {
            for _ in 0..SNAPSHOTS {
                black_box(lan_obs::snapshot());
            }
        })
    });
    m.push(("obs.snapshot.us", snap_ns / 1e3));
}

/// The whole `--trace 1` run of one workload.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    smoke: bool,
    out_dir: &Path,
) -> Outcome {
    let tracer = Tracer::new(true);
    let scratch = ScratchDir::new(out_dir).expect("create the scratch directory");
    let mut checks = Checks::default();
    let mut m: Metrics = Vec::new();
    let reps = if smoke { 1 } else { 3 };

    // --- Set-up, once, under spans. ---
    let (dataset, queries, index) = {
        let _s = tracer.span("setup");
        let (dataset, queries) = workload::generate(w, seed, &tracer);
        let index = Arc::new(workload::build(w, &dataset, &tracer));
        (dataset, queries, index)
    };
    let before = lan_obs::snapshot();
    let truth_kth = workload::ground_truth(w, &dataset, &queries, &tracer);
    let gt_delta = lan_obs::snapshot().diff(&before);
    m.push((
        "datasets.generate.graphs_per_s",
        ratio(w.graphs as f64, tracer.total_s("datasets.generate")),
    ));
    m.push((
        "datasets.ground_truth.ms_per_query",
        tracer.total_s("datasets.ground_truth") * 1e3 / truth_kth.len() as f64,
    ));
    m.push((
        "datasets.ground_truth.full_eval_frac",
        gt_delta.counter(names::GED_FULL_EVALS) as f64 / (truth_kth.len() * w.graphs) as f64,
    ));
    m.push((
        "graph.perturb.us",
        tracer.total_s("graph.perturb") * 1e6 / queries.len() as f64,
    ));

    // --- lan-store: one save / open / cold-query round trip. ---
    let (probe, _opened) = probe_store(
        w,
        &index,
        &queries,
        &scratch.file("index.lan"),
        &mut checks,
        &tracer,
    );
    m.push((
        "store.save.mb_per_s",
        probe.bytes as f64 / 1e6 / median(&probe.save_s),
    ));
    m.push(("store.open.ms", median(&probe.open_s) * 1e3));
    m.push((
        "store.bytes_per_graph",
        probe.bytes as f64 / w.graphs as f64,
    ));

    // --- In situ: untraced and traced passes, alternating. ---
    warm_up(w, &index, &queries);
    let t0 = Instant::now();
    let mut plans: Vec<QueryExplain> = Vec::new();
    let mut delta: Option<lan_obs::Snapshot> = None;
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let mut first: Option<Pass> = None;
    while first.is_none() || t0.elapsed().as_secs_f64() < seconds {
        let plain = {
            let _s = tracer.span("pass.untraced");
            offline_pass(w, &index, &queries)
        };
        let before = lan_obs::snapshot();
        let (explained, pass_plans) = traced_pass(w, &index, &queries, &tracer);
        let pass_delta = lan_obs::snapshot().diff(&before);
        checks.count_pass(&plain, "untraced queries");
        checks.count_pass(&explained, "traced queries");
        checks.check(plain.digest() == explained.digest(), || {
            "traced answers differ from untraced answers".into()
        });
        untraced_ns += plain.lat_ns.iter().sum::<u64>();
        traced_ns += explained.lat_ns.iter().sum::<u64>();
        if first.is_none() {
            // Every pass repeats the first one's work counts exactly; the
            // first pass's plans and counter deltas stand for all.
            plans = pass_plans;
            delta = Some(pass_delta);
            first = Some(plain);
        }
    }
    let offline = first.expect("at least one round of passes");
    let delta = delta.expect("at least one round of passes");
    in_situ(
        w,
        &plans,
        &delta,
        traced_ns,
        untraced_ns,
        &mut checks,
        &mut m,
    );
    let digest = offline.digest();
    let notes = vec![format!(
        "in situ: {} queries per pass, recall_at_10 {:.4}, ndc_per_query {:.3}, peak_rss_mb {:.1}",
        queries.len(),
        crate::run::recall(&offline, &truth_kth),
        offline.mean_ndc(),
        peak_rss_mb()
    )];

    hnsw_baseline(&index, &queries, &offline, &tracer, &mut m);
    serve_layer(
        &index,
        &queries,
        &offline,
        threads,
        reps,
        &tracer,
        &mut checks,
        &mut m,
    );

    // --- Build phases and probes, one shard's worth. ---
    let shard_ds = &index.shards[0].dataset;
    let phases = build_phases(shard_ds, &tracer, &mut m);
    pg_layer(shard_ds, &phases, reps, &tracer, &mut m);
    drop(phases);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_6972);
    let pairs: Vec<(&Graph, &Graph)> = (0..w.probe_pairs)
        .map(|_| {
            (
                &queries[rng.gen_range(0..queries.len())],
                &dataset.graphs[rng.gen_range(0..dataset.graphs.len())],
            )
        })
        .collect();
    ged_layer(&dataset, &pairs, seed, reps, &tracer, &mut checks, &mut m);
    learning_layer(&index, &queries, reps, &tracer, &mut m);
    utility_layers(&dataset.graphs, reps, &tracer, &mut m);

    let trace_path = out_dir.join(format!("trace-{}-{seed}.jsonl", w.name));
    match tracer.write_jsonl(&trace_path) {
        Ok(n) => println!("trace: {n} spans in {}", trace_path.display()),
        Err(e) => checks.check(false, || {
            format!("cannot write {}: {e}", trace_path.display())
        }),
    }
    Outcome {
        metrics: m,
        checks,
        digest,
        notes,
    }
}
