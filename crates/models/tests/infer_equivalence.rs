//! Equivalence properties of the tape-free inference fast path at the
//! models layer: the batched+cached `LearnedRanker` must route exactly
//! like ranking each neighbor alone (`PerNeighbor`), the batched `M_nh` sweep must score exactly
//! like one graph at a time, the tape-free pair embeddings must match
//! the autograd-tape baseline within 1e-5 (and rank a hop's neighbours
//! the same way on a fixed instance), the database inputs and prefixes
//! prepared on first use must carry the bits of a direct build, and the
//! hop scores — resumed from cached pair-block sums — must carry the bits
//! of a frozen copy of the full-row head forward (`ref_rank_scores`). An
//! ignored sweep of the last runs in release mode:
//! `cargo test --release -p lan-models --test infer_equivalence -- --include-ignored`.

use lan_datasets::{Dataset, DatasetSpec};
use lan_ged::GedMethod;
use lan_gnn::{CompressedGnnGraph, CrossInput, CrossPrefix};
use lan_models::{LanModels, LearnedRanker, ModelConfig, QueryContext};
use lan_pg::np_route::{chunk_batches, np_route, NeighborRanker};
use lan_pg::{DistCache, PairCache, PgConfig, ProximityGraph};
use lan_tensor::{sigmoid, Matrix};

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

/// `rank_batches` with every neighbor scored as its own 1-row batch.
struct PerNeighbor<'a> {
    models: &'a LanModels,
    ctx: &'a QueryContext,
    use_cg: bool,
}

impl NeighborRanker for PerNeighbor<'_> {
    fn rank(&self, node: u32, neighbors: &[u32], d_node: f64) -> Vec<Vec<u32>> {
        if neighbors.is_empty() {
            return Vec::new();
        }
        if d_node > self.models.gamma_star {
            return vec![neighbors.to_vec()];
        }
        let mut scored: Vec<(f32, u32)> = neighbors
            .iter()
            .map(|&nb| {
                let s = self.models.rank_scores(self.ctx, node, &[nb], self.use_cg);
                (s[0], nb)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let ranked = scored.into_iter().map(|(_, nb)| nb).collect();
        chunk_batches(ranked, self.models.cfg.batch_pct)
    }
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
            let per_neighbor = PerNeighbor {
                models: &models,
                ctx: &ctx_b,
                use_cg,
            };
            let b = per_neighbor.rank(node, neighbors, 0.0);
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
            let ranker_b = PerNeighbor {
                models: &models,
                ctx: &ctx_b,
                use_cg,
            };
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

/// Shapes, then values: every matrix's `(rows, cols)` (the operators
/// densified, a level's columns being the previous level's rows) and every
/// size vector's length ahead of the flattened bits.
fn input_bits(x: &CrossInput) -> Vec<u32> {
    let dense = x
        .sparse
        .iter()
        .zip(&x.sizes)
        .map(|(m, s)| m.to_dense(s.len()));
    let mats: Vec<Matrix> = dense.chain([x.feats.clone()]).collect();
    let shapes = mats.iter().flat_map(|m| [m.rows(), m.cols()]);
    let lens = x.sizes.iter().map(Vec::len);
    let mut bits: Vec<u32> = shapes.chain(lens).map(|n| n as u32).collect();
    let values = mats
        .iter()
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

/// Hop scoring as it stood before the pair-block sums were cached: each
/// neighbor's full feature row `pair ‖ h_G ‖ (e_Q − e_v)² ‖ Σ` through
/// every head — a dense `1 × d` layer-1 product, bias, ReLU, a serial
/// zero-skipping layer-2 sum — and the sigmoids summed in head order.
/// Never optimized.
fn ref_rank_scores(
    models: &LanModels,
    ctx: &QueryContext,
    node: u32,
    neighbors: &[u32],
    use_cg: bool,
) -> Vec<f32> {
    let h_g = &models.db_embeds[node as usize];
    let store = &models.rk_store;
    neighbors
        .iter()
        .map(|&nb| {
            let mut feat = models.pair_embedding(ctx, nb, use_cg);
            feat.extend_from_slice(h_g);
            let mut total = 0.0f32;
            for (a, b) in ctx.gin_embed.iter().zip(&models.db_embeds[nb as usize]) {
                let d2 = (a - b) * (a - b);
                feat.push(d2);
                total += d2;
            }
            feat.push(total);
            let x = Matrix::from_vec(1, feat.len(), feat);
            let mut score = 0.0f32;
            for head in &models.rk_heads {
                let (l1, l2) = (&head.layers[0], &head.layers[1]);
                let mut h = Matrix::zeros(0, 0);
                x.matmul_into(store.value(l1.w), &mut h);
                let mut logit = 0.0f32;
                for (j, v) in h.data().iter().enumerate() {
                    let v = (v + store.value(l1.b).get(0, j)).max(0.0);
                    if v != 0.0 {
                        logit += v * store.value(l2.w).get(j, 0);
                    }
                }
                score += sigmoid(logit + store.value(l2.b).get(0, 0));
            }
            score
        })
        .collect()
}

/// Every hop of `qs` (each node of the proximity graph, its neighbours)
/// scored by `rank_scores` cold and warm (the same context again), against
/// `ref_rank_scores` on a context of its own.
fn rank_scores_match_reference(models: &LanModels, pg: &ProximityGraph, qs: &[&lan_graph::Graph]) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for use_cg in [true, false] {
        for (qi, q) in qs.iter().enumerate() {
            let ctx_ref = models.query_context(q, use_cg);
            let ctx = models.query_context(q, use_cg);
            for pass in ["cold", "warm"] {
                for (node, neighbors) in pg.base().iter().enumerate() {
                    let node = node as u32;
                    let want = bits(&ref_rank_scores(models, &ctx_ref, node, neighbors, use_cg));
                    let got = bits(&models.rank_scores(&ctx, node, neighbors, use_cg));
                    assert_eq!(
                        got, want,
                        "query {qi} node {node} use_cg={use_cg}: {pass} scores"
                    );
                }
            }
        }
    }
}

#[test]
fn rank_scores_are_bit_identical_to_the_full_row_reference() {
    let (ds, pg, models) = tiny_setup();
    let qs: Vec<_> = ds
        .split
        .test
        .iter()
        .take(3)
        .map(|&qi| &ds.queries[qi])
        .collect();
    rank_scores_match_reference(&models, &pg, &qs);
}

#[test]
#[ignore = "stress sweep; run in release with --include-ignored"]
fn rank_scores_are_bit_identical_to_the_full_row_reference_stress() {
    for seed in [0xCAFEu64, 7, 1234, 99] {
        let (ds, pg, models) = tiny_setup_seeded(seed);
        let qs: Vec<_> = ds.queries.iter().collect();
        rank_scores_match_reference(&models, &pg, &qs);
    }
}
