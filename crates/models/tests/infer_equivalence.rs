//! Equivalence properties of the tape-free inference fast path at the
//! models layer: the batched+cached `LearnedRanker` must route exactly
//! like the per-neighbor path, the batched `M_nh` sweep must score exactly
//! like one graph at a time, the tape-free pair embeddings must match
//! the autograd-tape baseline within 1e-5 (and rank a hop's neighbours
//! the same way on a fixed instance), and the database inputs and
//! prefixes prepared on first use must carry the bits of a direct build.

use lan_datasets::{Dataset, DatasetSpec};
use lan_ged::GedMethod;
use lan_gnn::{CompressedGnnGraph, CrossInput, CrossPrefix};
use lan_models::{LanModels, LearnedRanker, ModelConfig};
use lan_pg::np_route::np_route;
use lan_pg::{DistCache, PairCache, PgConfig, ProximityGraph};

fn tiny_setup() -> (Dataset, ProximityGraph, LanModels) {
    tiny_setup_seeded(ModelConfig::default().seed)
}

fn tiny_setup_seeded(seed: u64) -> (Dataset, ProximityGraph, LanModels) {
    let spec = DatasetSpec::syn()
        .with_graphs(60)
        .with_queries(20)
        .with_metric(GedMethod::Hungarian);
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
    let cfg = ModelConfig {
        embed_dim: 8,
        epochs: 2,
        max_samples_per_epoch: 200,
        nh_cover_k: 10,
        clusters: 4,
        top_clusters: 2,
        mlp_hidden: 8,
        seed,
        ..ModelConfig::default()
    };
    let (models, _report) = LanModels::train(&ds, pg.base(), &train_dists, cfg);
    (ds, pg, models)
}

/// The fused batched hop forward must be bit-identical to scoring each
/// neighbor as its own 1-row batch: each fused output row depends only on
/// its own input row, so stacking cannot change a single bit.
#[test]
fn batched_ranking_is_bit_identical_to_per_neighbor() {
    let (ds, pg, models) = tiny_setup();
    for (qi, use_cg) in [(0usize, true), (1, false)] {
        let q = &ds.queries[ds.split.test[qi]];
        let ctx_a = models.query_context(q, use_cg);
        let ctx_b = models.query_context(q, use_cg);
        for node in 0..pg.base().len().min(12) as u32 {
            let neighbors = &pg.base()[node as usize];
            // Inside the neighborhood so ranking actually runs.
            let a = models.rank_batches(&ctx_a, node, neighbors, 0.0, use_cg);
            let b = models.rank_batches_per_neighbor(&ctx_b, node, neighbors, 0.0, use_cg);
            assert_eq!(a, b, "node {node} use_cg={use_cg}: batches diverged");
        }
    }
}

/// The tape baseline ranks a hop's neighbours as the fast path does. Pair
/// embeddings agree only within 1e-5, so this is not an identity: it
/// checks, on this fixed instance, that no ulp difference flips the order
/// of two neighbours.
#[test]
fn tape_ranking_agrees_with_the_fast_path() {
    let (ds, pg, models) = tiny_setup();
    for (qi, use_cg) in [(0usize, true), (1, false)] {
        let q = &ds.queries[ds.split.test[qi]];
        let ctx_fast = models.query_context(q, use_cg);
        let ctx_tape = models.query_context(q, use_cg);
        for node in 0..pg.base().len().min(12) as u32 {
            let neighbors = &pg.base()[node as usize];
            let fast = models.rank_batches(&ctx_fast, node, neighbors, 0.0, use_cg);
            let tape = models.rank_batches_tape(&ctx_tape, node, neighbors, 0.0, use_cg);
            assert_eq!(fast, tape, "node {node} use_cg={use_cg}: rankings diverged");
        }
    }
}

/// End-to-end routing equivalence: `np_route` driven by the default
/// (batched, cached) ranker returns the same results and NDC as the
/// per-neighbor ranker, on both plain and CG inference.
#[test]
fn np_route_identical_under_batched_and_per_neighbor_rankers() {
    let (ds, pg, models) = tiny_setup();
    for use_cg in [true, false] {
        for qi in 0..3 {
            let q = &ds.queries[ds.split.test[qi]];
            let qd = |g: u32| ds.distance(q, g);

            // Entry selection gets its own cache so both routed caches
            // start empty and report comparable NDC.
            let entry = pg.hnsw_entry(&DistCache::new(&qd));

            let ctx_a = models.query_context(q, use_cg);
            let cache_a = DistCache::new(&qd);
            let ranker_a = LearnedRanker::new(&models, &ctx_a, use_cg);
            let res_a = np_route(pg.base(), &cache_a, &ranker_a, &[entry], 8, 5, 1.0);

            let ctx_b = models.query_context(q, use_cg);
            let cache_b = DistCache::new(&qd);
            let ranker_b = LearnedRanker::per_neighbor(&models, &ctx_b, use_cg);
            let res_b = np_route(pg.base(), &cache_b, &ranker_b, &[entry], 8, 5, 1.0);

            assert_eq!(res_a.results, res_b.results, "qi={qi} use_cg={use_cg}");
            assert_eq!(res_a.ndc, res_b.ndc, "qi={qi} use_cg={use_cg}");
        }
    }
}

/// The tape-free pair embedding must match the autograd-tape baseline
/// within 1e-5: the inference kernel pools the other graph once instead of
/// materialising the attention matrix, which reassociates a few sums. Both
/// paths share the per-query cache.
#[test]
fn cached_pair_embedding_matches_tape_baseline() {
    let (ds, _pg, models) = tiny_setup();
    for use_cg in [true, false] {
        let q = &ds.queries[ds.split.test[0]];
        // Separate contexts so each path computes its embeddings from
        // scratch rather than reading the other's cache.
        let ctx_infer = models.query_context(q, use_cg);
        let ctx_tape = models.query_context(q, use_cg);
        for g in 0..ds.graphs.len().min(16) as u32 {
            let fast = models.pair_embedding(&ctx_infer, g, use_cg);
            let tape = models.pair_embedding_tape(&ctx_tape, g, use_cg);
            let diff = fast
                .iter()
                .zip(&tape)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                diff <= 1e-5,
                "pair {g} use_cg={use_cg}: infer and tape embeddings differ by {diff}"
            );
        }
    }
}

/// The batched `M_nh` sweep scores every graph exactly as `nh_logit` does
/// alone (each fused output row depends on its own input row only), so the
/// predicted neighborhoods are the ones a per-graph loop would produce —
/// on CG and plain inference, for three independently trained bundles.
#[test]
fn batched_nh_sweep_is_bit_identical_to_per_graph_logits() {
    for seed in [0xCAFEu64, 7, 1234] {
        let (ds, _pg, models) = tiny_setup_seeded(seed);
        let all: Vec<u32> = (0..ds.graphs.len() as u32).collect();
        let members = models.kmeans.members();
        for use_cg in [true, false] {
            for &qi in ds.split.test.iter().take(3) {
                let q = &ds.queries[qi];
                let per_graph: Vec<f32> = {
                    let ctx = models.query_context(q, use_cg);
                    all.iter()
                        .map(|&g| models.nh_logit(&ctx, g, use_cg))
                        .collect()
                };
                let batched = models.nh_logits(&models.query_context(q, use_cg), &all, use_cg);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&batched),
                    bits(&per_graph),
                    "seed {seed} use_cg={use_cg}"
                );

                let positive = |g: &u32| per_graph[*g as usize] > 0.0;
                let basic: Vec<u32> = all.iter().copied().filter(positive).collect();
                let ctx = models.query_context(q, use_cg);
                assert_eq!(models.predicted_neighborhood_basic(&ctx, use_cg), basic);

                // The cluster design: `M_c`'s best clusters, in its order.
                let mut scored: Vec<(f32, usize)> = (0..models.kmeans.k())
                    .map(|c| (models.mc_score(&ctx, c), c))
                    .collect();
                scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let expect: Vec<u32> = scored
                    .iter()
                    .take(models.cfg.top_clusters)
                    .flat_map(|&(_, c)| members[c].iter().copied().filter(positive))
                    .collect();
                let ctx = models.query_context(q, use_cg);
                assert_eq!(models.predicted_neighborhood(&ctx, use_cg), expect);
            }
        }
    }
}

/// Shapes, then values: every matrix's `(rows, cols)` and every size
/// vector's length ahead of the flattened bits.
fn input_bits(x: &CrossInput) -> Vec<u32> {
    let mats = || x.aggs.iter().chain([&x.feats]);
    let shapes = mats().flat_map(|m| [m.rows(), m.cols()]);
    let lens = x.sizes.iter().map(Vec::len);
    let mut bits: Vec<u32> = shapes.chain(lens).map(|n| n as u32).collect();
    let values = mats()
        .flat_map(|m| m.data())
        .chain(x.sizes.iter().flatten());
    bits.extend(values.map(|v| v.to_bits()));
    bits
}

fn prefix_bits(p: &CrossPrefix) -> Vec<u32> {
    let (rows, cols) = (p.tw().rows() as u32, p.tw().cols() as u32);
    let lnw = p.lnw().iter().flatten();
    let all = p.tw().data().iter().chain(p.mu_w()).chain(lnw);
    [rows, cols]
        .into_iter()
        .chain(all.map(|v| v.to_bits()))
        .collect()
}

/// Every database input and prefix, of both kinds, equals bit for bit the
/// one built directly by `CompressedGnnGraph::build` → `CrossInput` →
/// `CrossGraphNet::prefix`, whichever path filled it first: the search
/// path's cache fill (inside the thread's forward scratch) for the graphs
/// one query touches, the accessors for the rest.
#[test]
fn lazily_prepared_inputs_and_prefixes_match_a_direct_build() {
    let (ds, _pg, models) = tiny_setup();
    let q = &ds.queries[ds.split.test[0]];
    let mut touched = 0;
    for use_cg in [true, false] {
        let ctx = models.query_context(q, use_cg);
        touched += models.predicted_neighborhood(&ctx, use_cg).len();
    }
    assert!(
        touched > 0,
        "the query must fill some cells on the search path"
    );
    let cfg = &models.cross.cfg;
    for (g, graph) in ds.graphs.iter().enumerate() {
        for use_cg in [true, false] {
            let direct = if use_cg {
                CrossInput::compressed(&CompressedGnnGraph::build(graph, cfg.dims.len()), cfg)
            } else {
                CrossInput::plain(graph, cfg)
            };
            let lazy = if use_cg {
                &models.db_inputs_cg[g]
            } else {
                &models.db_inputs_plain[g]
            };
            assert_eq!(
                input_bits(lazy),
                input_bits(&direct),
                "graph {g} use_cg={use_cg}: input"
            );
            let direct_prefix = models.cross.prefix(&models.cross_store, &direct);
            assert_eq!(
                prefix_bits(models.db_prefix(g, use_cg)),
                prefix_bits(&direct_prefix),
                "graph {g} use_cg={use_cg}: prefix"
            );
        }
    }
}
