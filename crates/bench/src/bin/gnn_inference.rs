//! Tape vs tape-free GNN inference, written to `results/BENCH_gnn.json`.
//!
//! Measures the three layers of the inference fast path against the
//! autograd-tape baseline the models used before:
//!
//! 1. `pair_forward` — one cross-graph pair embedding: tape forward
//!    (`pair_embedding_tape` on a cold cache) vs tape-free `infer_pair`;
//! 2. `hop_workload` — a full query's hop-ranking sequence on a fresh
//!    per-query context: per-neighbor tape scoring (`rank_batches_tape`)
//!    vs the batched fused path (`rank_batches`). Both sides use the
//!    per-query pair cache, so the overlap between consecutive hops'
//!    neighbor sets is amortized exactly as in production;
//! 3. `hop_cached` — the same hop sequence on a pre-warmed context
//!    (every pair embedding already cached): isolates head scoring,
//!    per-neighbor tapes vs one fused matmul per hop.
//!
//! Every mode first asserts the equivalence contract: batched and
//! per-neighbor fused scoring produce bit-identical batches, the cached
//! tape-free pair embeddings match the tape baseline within 1e-5, and the
//! tape and fused hop rankings agree on this (deterministic) workload.
//!
//! ```text
//! cargo run --release -p lan-bench --bin gnn_inference [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the run to CI size (seconds end to end); the
//! equivalence assertions and the ≥3× speedup gate run in both modes.

use lan_datasets::{Dataset, DatasetSpec};
use lan_ged::GedMethod;
use lan_models::{LanModels, ModelConfig, QueryContext};
use lan_obs::names;
use lan_pg::{PairCache, PgConfig, ProximityGraph};
use std::time::Instant;

struct Setup {
    ds: Dataset,
    pg: ProximityGraph,
    models: LanModels,
    /// `(node, neighbors)` hop sequence of the measured workload.
    hops: Vec<(u32, Vec<u32>)>,
    reps: usize,
}

fn build(smoke: bool) -> Setup {
    let (graphs, queries, cfg, reps, hop_count) = if smoke {
        (
            40,
            10,
            ModelConfig {
                embed_dim: 8,
                epochs: 1,
                max_samples_per_epoch: 80,
                nh_cover_k: 6,
                clusters: 3,
                top_clusters: 2,
                mlp_hidden: 8,
                ..ModelConfig::default()
            },
            3usize,
            8usize,
        )
    } else {
        (
            120,
            20,
            ModelConfig {
                embed_dim: 16,
                epochs: 2,
                max_samples_per_epoch: 300,
                nh_cover_k: 20,
                clusters: 4,
                top_clusters: 2,
                mlp_hidden: 16,
                ..ModelConfig::default()
            },
            10usize,
            20usize,
        )
    };
    let spec = DatasetSpec::syn()
        .with_graphs(graphs)
        .with_queries(queries)
        .with_metric(GedMethod::Hungarian);
    eprintln!("generating {graphs} graphs / {queries} queries...");
    let ds = Dataset::generate(spec);
    let pair_fn = |a: u32, b: u32| ds.pair_distance(a, b);
    let pairs = PairCache::new(&pair_fn);
    let pg = ProximityGraph::build(ds.graphs.len(), &pairs, &PgConfig::new(4));
    let train_dists: Vec<Vec<f64>> = ds
        .split
        .train
        .iter()
        .map(|&qi| {
            (0..ds.graphs.len() as u32)
                .map(|g| ds.distance(&ds.queries[qi], g))
                .collect()
        })
        .collect();
    eprintln!("training models...");
    let (models, _report) = LanModels::train(&ds, pg.base(), &train_dists, cfg);
    let hops: Vec<(u32, Vec<u32>)> = (0..pg.base().len().min(hop_count))
        .map(|n| (n as u32, pg.base()[n].clone()))
        .filter(|(_, nbs)| !nbs.is_empty())
        .collect();
    Setup {
        ds,
        pg,
        models,
        hops,
        reps,
    }
}

/// Ranks every hop of the workload once on `ctx`; `batched` selects the
/// fused stacked path vs the 1-row-per-neighbor path.
fn run_hops(s: &Setup, ctx: &QueryContext, batched: bool) -> Vec<Vec<Vec<u32>>> {
    s.hops
        .iter()
        .map(|(node, nbs)| {
            if batched {
                s.models.rank_batches(ctx, *node, nbs, 0.0, true)
            } else {
                s.models
                    .rank_batches_per_neighbor(ctx, *node, nbs, 0.0, true)
            }
        })
        .collect()
}

fn run_hops_tape(s: &Setup, ctx: &QueryContext) -> Vec<Vec<Vec<u32>>> {
    s.hops
        .iter()
        .map(|(node, nbs)| s.models.rank_batches_tape(ctx, *node, nbs, 0.0, true))
        .collect()
}

fn assert_equivalence(s: &Setup) {
    let q = &s.ds.queries[s.ds.split.test[0]];

    // Batched fused scoring == per-neighbor fused scoring, bit for bit.
    let ctx_a = s.models.query_context(q, true);
    let ctx_b = s.models.query_context(q, true);
    let batched = run_hops(s, &ctx_a, true);
    let per_nb = run_hops(s, &ctx_b, false);
    assert_eq!(batched, per_nb, "batched and per-neighbor batches diverged");

    // Cached tape-free pair embeddings == tape baseline within 1e-5 (the
    // inference kernel pools the other graph instead of materialising the
    // attention matrix, which reassociates a few sums).
    let ctx_tape = s.models.query_context(q, true);
    for g in 0..s.ds.graphs.len().min(12) as u32 {
        let fast = s.models.pair_embedding(&ctx_a, g, true);
        let tape = s.models.pair_embedding_tape(&ctx_tape, g, true);
        let diff = fast
            .iter()
            .zip(&tape)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            diff <= 1e-5,
            "pair {g}: tape-free embedding differs from tape by {diff}"
        );
    }

    // Tape hop ranking agrees with the fused path on this workload (the
    // fused heads reassociate sums, so this is an ulp-robustness check on
    // a deterministic instance, not a bitwise identity).
    let tape_batches = run_hops_tape(s, &ctx_tape);
    assert_eq!(
        batched, tape_batches,
        "tape and fused hop rankings diverged"
    );
    eprintln!("equivalence: OK ({} hops)", s.hops.len());
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = build(smoke);
    assert_equivalence(&s);

    let q = &s.ds.queries[s.ds.split.test[0]];
    let n_pairs = s.ds.graphs.len() as u32;
    let reps = s.reps;

    // --- 1. Per-pair forward: tape vs tape-free, cold cache each rep. ---
    let t0 = Instant::now();
    for _ in 0..reps {
        let ctx = s.models.query_context(q, true);
        for g in 0..n_pairs {
            std::hint::black_box(s.models.pair_embedding_tape(&ctx, g, true));
        }
    }
    let pair_tape_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * n_pairs as usize) as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let ctx = s.models.query_context(q, true);
        for g in 0..n_pairs {
            std::hint::black_box(s.models.pair_embedding(&ctx, g, true));
        }
    }
    let pair_infer_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * n_pairs as usize) as f64;
    let pair_speedup = pair_tape_us / pair_infer_us.max(1e-9);
    eprintln!(
        "pair_forward   tape {pair_tape_us:>9.2}us  infer {pair_infer_us:>9.2}us  speedup {pair_speedup:.2}x"
    );

    // --- 2. Full hop workload on a fresh context per rep (one query's
    //        ranking work, cache amortization included). ---
    let t0 = Instant::now();
    for _ in 0..reps {
        let ctx = s.models.query_context(q, true);
        std::hint::black_box(run_hops_tape(&s, &ctx));
    }
    let hop_tape_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * s.hops.len()) as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let ctx = s.models.query_context(q, true);
        std::hint::black_box(run_hops(&s, &ctx, true));
    }
    let hop_batched_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * s.hops.len()) as f64;
    let hop_speedup = hop_tape_us / hop_batched_us.max(1e-9);
    eprintln!(
        "hop_workload   tape {hop_tape_us:>9.2}us  batched {hop_batched_us:>7.2}us  speedup {hop_speedup:.2}x"
    );

    // --- 3. Warm-cache hop ranking: pure head scoring. ---
    let ctx_tape = s.models.query_context(q, true);
    run_hops_tape(&s, &ctx_tape); // warm the pair cache
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(run_hops_tape(&s, &ctx_tape));
    }
    let warm_tape_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * s.hops.len()) as f64;
    let ctx_fast = s.models.query_context(q, true);
    run_hops(&s, &ctx_fast, true);
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(run_hops(&s, &ctx_fast, true));
    }
    let warm_batched_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * s.hops.len()) as f64;
    let warm_speedup = warm_tape_us / warm_batched_us.max(1e-9);
    eprintln!(
        "hop_cached     tape {warm_tape_us:>9.2}us  batched {warm_batched_us:>7.2}us  speedup {warm_speedup:.2}x"
    );

    // The acceptance gate: batched+cached hop-ranking (every pair embedding
    // cached, one fused forward per hop) must beat the tape path on the
    // same workload by at least 3x.
    assert!(
        warm_speedup >= 3.0,
        "batched+cached hop-ranking speedup {warm_speedup:.2}x below the 3x acceptance floor"
    );

    let forwards = lan_obs::counter(names::GNN_INFER_FORWARDS).get();
    let hits = lan_obs::counter(names::GNN_INFER_CACHE_HIT).get();
    let misses = lan_obs::counter(names::GNN_INFER_CACHE_MISS).get();
    eprintln!("gnn.infer.forwards {forwards}  cache hit {hits} / miss {misses}");

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\n  \"bench\": \"gnn_inference\",\n{}  \"smoke\": {smoke},\n  \"graphs\": {},\n  \"hops\": {},\n  \"reps\": {reps},\n  \"equivalence\": \"ok\",\n  \"pair_forward\": {{\"tape_us\": {pair_tape_us:.3}, \"infer_us\": {pair_infer_us:.3}, \"speedup\": {pair_speedup:.3}}},\n  \"hop_workload\": {{\"tape_us\": {hop_tape_us:.3}, \"batched_us\": {hop_batched_us:.3}, \"speedup\": {hop_speedup:.3}}},\n  \"hop_cached\": {{\"tape_us\": {warm_tape_us:.3}, \"batched_us\": {warm_batched_us:.3}, \"speedup\": {warm_speedup:.3}}},\n  \"speedup\": {warm_speedup:.3},\n  \"gnn_infer_forwards\": {forwards},\n  \"gnn_infer_cache_hit\": {hits},\n  \"gnn_infer_cache_miss\": {misses}\n}}\n",
        lan_bench::host_header_json(),
        s.ds.graphs.len(),
        s.hops.len(),
    );
    std::fs::write("results/BENCH_gnn.json", &json).expect("write results/BENCH_gnn.json");
    eprintln!("wrote results/BENCH_gnn.json");
    let _ = s.pg; // keep the proximity graph alive for the whole run
}
