//! The learned components of LAN and their training pipelines.
//!
//! * the **GIN graph embedder** (node2vec substitute, see DESIGN.md) trained
//!   as a Siamese distance regressor — its embeddings drive KMeans
//!   clustering, the cluster model `M_c`, and the L2route baseline;
//! * the **cross-graph encoder** shared by the neighborhood model and the
//!   neighbor rankers;
//! * **`M_nh`** (paper §V-B1): cross-graph embedding `h_{G,Q}` → MLP →
//!   "is G in N_Q?", trained with negative downsampling;
//! * **`M_c`** (paper §V-B2): per-cluster intersection-size regressor;
//! * **`M_rk^i`** (paper §IV-C): `100/y` binary rankers over
//!   `h_{G',Q} ‖ h_G`, trained only on routing states inside the query
//!   neighborhood, with heads trained on cached pair embeddings from the
//!   frozen encoder (an engineering simplification documented in
//!   DESIGN.md).

use crate::kmeans::KMeans;
use lan_datasets::Dataset;
use lan_gnn::{
    CompressedGnnGraph, CrossGraphNet, CrossInput, CrossPrefix, Gin, GnnConfig, InferScratch,
};
use lan_graph::Graph;
use lan_obs::{names, span, Counter, TimerCell};
use lan_tensor::{sigmoid, Adam, FusedHeads, Matrix, Mlp, MlpScratch, ParamStore, StepDecay, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::ops::Index;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Hyperparameters for model training and inference.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// GNN embedding dimension (paper: 128; scaled default 32).
    pub embed_dim: usize,
    /// GNN layer count `L`.
    pub layers: usize,
    /// The batch parameter `y` in percent (paper: 20 → 5 rankers).
    pub batch_pct: usize,
    /// γ\* is set so `N_Q` covers this many NNs... (paper: 200)
    pub nh_cover_k: usize,
    /// ...for this fraction of training queries (paper: 0.9).
    pub nh_cover_quantile: f64,
    /// Training epochs (paper: 1,000 on a V100S; scaled default).
    pub epochs: usize,
    /// Cap on training samples visited per epoch.
    pub max_samples_per_epoch: usize,
    /// KMeans cluster count for the optimized `M_nh` design.
    pub clusters: usize,
    /// Clusters retained by `M_c` at query time.
    pub top_clusters: usize,
    /// Hidden width of the MLP heads.
    pub mlp_hidden: usize,
    /// `s`: samples drawn from the predicted neighborhood (paper: 4).
    pub init_samples: usize,
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            embed_dim: 32,
            layers: 2,
            batch_pct: 20,
            nh_cover_k: 200,
            nh_cover_quantile: 0.9,
            epochs: 6,
            max_samples_per_epoch: 1200,
            clusters: 8,
            top_clusters: 3,
            mlp_hidden: 32,
            init_samples: 4,
            seed: 0xCAFE,
        }
    }
}

/// Builds the ranker input feature for one neighbor: the paper's
/// `h_{G',Q} ‖ h_G`, augmented with the Siamese-GIN distance signal
/// (elementwise squared difference between the query and neighbor GIN
/// embeddings plus its sum, i.e. the embedder's distance estimate). The
/// GIN embedder is trained as a distance regressor, so this injects an
/// explicit learned-distance feature the binary rankers can threshold.
pub(crate) fn rk_feature(pair: &[f32], h_g: &[f32], q_gin: &[f32], nb_gin: &[f32]) -> Vec<f32> {
    let mut feat = Vec::with_capacity(pair.len() + h_g.len() + nb_gin.len() + 1);
    feat.extend_from_slice(pair);
    feat.extend_from_slice(h_g);
    let mut total = 0.0f32;
    for (a, b) in q_gin.iter().zip(nb_gin) {
        let d2 = (a - b) * (a - b);
        feat.push(d2);
        total += d2;
    }
    feat.push(total);
    feat
}

/// The part of [`rk_feature`] after the pair embedding, written into a
/// preallocated row (same layout and accumulation order, no `Vec`): the
/// features a hop scores on top of the cached pair-block sums.
pub(crate) fn rk_tail_into(out: &mut [f32], h_g: &[f32], q_gin: &[f32], nb_gin: &[f32]) {
    let (g, rest) = out.split_at_mut(h_g.len());
    g.copy_from_slice(h_g);
    let mut total = 0.0f32;
    for (k, (a, b)) in q_gin.iter().zip(nb_gin).enumerate() {
        let d2 = (a - b) * (a - b);
        rest[k] = d2;
        total += d2;
    }
    rest[q_gin.len()] = total;
}

/// Input dimension of [`rk_feature`] given the embedding dim.
pub(crate) fn rk_feature_dim(embed_dim: usize) -> usize {
    4 * embed_dim + 1
}

/// Descending score sort with a NaN total order and an id tiebreak: a NaN
/// head score (a pathological but possible model output) must not scramble
/// the partition or panic — NaNs sort deterministically ahead of all finite
/// scores and ties break toward the smaller graph id.
pub(crate) fn sort_scored_desc(scored: &mut [(f32, u32)]) {
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
}

/// A per-query pair-embedding cache: one flat `db_size × pair_dim` slab
/// keyed by database graph id (allocated lazily on first use), plus a
/// presence bitmap. Replaces the old per-id `HashMap<u32, Vec<f32>>` — no
/// hashing on the hot path and no per-entry allocation.
#[derive(Debug)]
struct PairSlab {
    dim: usize,
    data: Vec<f32>,
    present: Vec<bool>,
}

impl PairSlab {
    fn new(dim: usize) -> Self {
        PairSlab {
            dim,
            data: Vec::new(),
            present: Vec::new(),
        }
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.present.len() < n {
            self.present.resize(n, false);
            self.data.resize(n * self.dim, 0.0);
        }
    }

    fn has(&self, g: u32) -> bool {
        self.present.get(g as usize).copied().unwrap_or(false)
    }

    fn row(&self, g: u32) -> &[f32] {
        &self.data[g as usize * self.dim..(g as usize + 1) * self.dim]
    }

    fn insert(&mut self, g: u32, v: &[f32]) {
        self.data[g as usize * self.dim..(g as usize + 1) * self.dim].copy_from_slice(v);
        self.present[g as usize] = true;
    }

    /// Prepares the slab for reuse by another query: every entry is
    /// marked absent but the backing allocations are kept — the point of
    /// pooling slabs in a [`SlabArena`].
    fn recycle(&mut self) {
        self.present.fill(false);
    }
}

/// A reusable pool of per-query slabs for the serving path.
///
/// A cold context's two slabs — pair embeddings and `M_rk` pair-block
/// sums — lazily grow to `db_size` rows on first use; under a serving
/// workload that is a large allocation per request. Contexts built
/// through [`LanModels::query_context_pooled`] draw both from this arena
/// instead and return them (recycled, allocations intact) when the context
/// drops, so steady-state serving allocates no slab memory at all.
/// Recycling only clears the presence bitmaps — stale rows are never
/// readable because every lookup checks presence first.
pub struct SlabArena {
    dims: (usize, usize),
    slabs: Mutex<Vec<(PairSlab, PairSlab)>>,
}

impl SlabArena {
    /// An arena for contexts of `models`.
    pub fn new(models: &LanModels) -> Self {
        SlabArena {
            dims: models.slab_dims(),
            slabs: Mutex::new(Vec::new()),
        }
    }

    /// Slab pairs currently parked in the pool (test observability).
    pub fn pooled(&self) -> usize {
        self.slabs.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn take(&self) -> (PairSlab, PairSlab) {
        self.slabs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| (PairSlab::new(self.dims.0), PairSlab::new(self.dims.1)))
    }

    fn put(&self, (mut pairs, mut prefixes): (PairSlab, PairSlab)) {
        if (pairs.dim, prefixes.dim) != self.dims {
            return;
        }
        pairs.recycle();
        prefixes.recycle();
        self.slabs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((pairs, prefixes));
    }
}

thread_local! {
    /// Per-thread scratch for head scoring (feature batch, fused-head
    /// intermediates, MLP activations). Mirrors `lan_gnn`'s per-thread
    /// forward scratch: exclusively borrowed around one scoring call, holds
    /// no cross-call state beyond its allocations.
    static RANK_SCRATCH: RefCell<RankScratch> = RefCell::new(RankScratch::new());
}

struct RankScratch {
    feats: Matrix,
    hidden: Matrix,
    logits: Matrix,
    /// A hop's neighbors missing from the `M_rk` prefix cache, their pair
    /// embeddings and their layer-1 sums.
    misses: Vec<u32>,
    pairs: Matrix,
    sums: Matrix,
    mlp: MlpScratch,
    input: Vec<f32>,
}

impl RankScratch {
    fn new() -> Self {
        let m = || Matrix::zeros(0, 0);
        RankScratch {
            feats: m(),
            hidden: m(),
            logits: m(),
            misses: Vec::new(),
            pairs: m(),
            sums: m(),
            mlp: MlpScratch::default(),
            input: Vec::new(),
        }
    }
}

/// Training diagnostics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// γ\* chosen by the covering rule.
    pub gamma_star: f64,
    /// `M_nh` precision on the validation queries (Fig. 8's metric).
    pub nh_precision: f64,
    /// `M_nh` recall on the validation queries.
    pub nh_recall: f64,
    /// Final `M_nh` training loss.
    pub nh_loss: f32,
    /// Final mean ranker training loss.
    pub rk_loss: f32,
}

/// The trained LAN model bundle plus precomputed database artifacts.
pub struct LanModels {
    pub cfg: ModelConfig,
    pub num_labels: usize,
    pub gin: Gin,
    pub gin_store: ParamStore,
    pub cross: CrossGraphNet,
    pub cross_store: ParamStore,
    pub nh_head: Mlp,
    /// `nh_head` in the fused-kernel layout (one head), so a whole
    /// cluster's pair embeddings are scored by one matmul; row for row the
    /// logits are those of `nh_head`'s own forward.
    pub nh_fused: FusedHeads,
    pub rk_heads: Vec<Mlp>,
    /// The ranker heads fused into one `[num_heads·h × feat_dim]` kernel
    /// (built once after training) so a whole hop's neighbors are scored by
    /// every head with a single transposed-RHS matmul.
    pub rk_fused: FusedHeads,
    pub rk_store: ParamStore,
    pub mc_head: Mlp,
    pub mc_store: ParamStore,
    pub kmeans: KMeans,
    pub gamma_star: f64,
    /// GIN embedding of every database graph.
    pub db_embeds: Vec<Vec<f32>>,
    /// Cross-graph inputs, compressed and plain, of every database graph,
    /// each prepared on first use together with its layer-0 prefix.
    pub db_inputs_cg: DbInputs,
    pub db_inputs_plain: DbInputs,
}

/// One kind (compressed or plain) of cross-graph input of every database
/// graph, and its layer-0 prefix under the trained weights (see
/// [`lan_gnn::infer`]): pure functions of the graph, the network and the
/// weights, so neither stored nor built up front but each prepared the
/// first time it is read. Indexing yields the input.
pub struct DbInputs {
    graphs: Arc<[Graph]>,
    cfg: GnnConfig,
    compressed: bool,
    cells: Box<[(OnceLock<CrossInput>, OnceLock<CrossPrefix>)]>,
}

impl DbInputs {
    /// The compressed and the plain kind over one shared copy of `graphs`.
    pub(crate) fn both(graphs: &[Graph], cfg: &GnnConfig) -> (DbInputs, DbInputs) {
        let graphs: Arc<[Graph]> = graphs.into();
        let kind = |compressed| DbInputs {
            graphs: Arc::clone(&graphs),
            cfg: cfg.clone(),
            compressed,
            cells: graphs.iter().map(|_| Default::default()).collect(),
        };
        (kind(true), kind(false))
    }

    /// The prefix of input `g` under the weights of `m`, which owns this.
    /// Fills through the caller's scratch, so it may run inside
    /// [`lan_gnn::with_scratch`].
    fn prefix(&self, g: usize, m: &LanModels, scratch: &mut InferScratch) -> &CrossPrefix {
        self.cells[g].1.get_or_init(|| {
            let mut p = CrossPrefix::default();
            p.fill(&m.cross, &m.cross_store, &self[g], scratch);
            p
        })
    }
}

impl Index<usize> for DbInputs {
    type Output = CrossInput;

    fn index(&self, g: usize) -> &CrossInput {
        self.cells[g]
            .0
            .get_or_init(|| cross_input(&self.graphs[g], &self.cfg, self.compressed))
    }
}

/// The cross-graph input of `g`: over its compressed GNN-graph (paper
/// §VI-C) with `compressed`, over `g` itself otherwise.
fn cross_input(g: &Graph, cfg: &GnnConfig, compressed: bool) -> CrossInput {
    if compressed {
        CrossInput::compressed(&CompressedGnnGraph::build(g, cfg.dims.len()), cfg)
    } else {
        CrossInput::plain(g, cfg)
    }
}

/// A query's precomputed learning context (built once per query). Owns the
/// per-query pair-embedding cache and the per-query GNN wall-clock
/// accumulator, so concurrent queries never share mutable inference state.
pub struct QueryContext {
    pub input: CrossInput,
    /// The layer-0 prefix of `input`, built once per query.
    prefix: CrossPrefix,
    pub gin_embed: Vec<f32>,
    /// Per-query memo of pair embeddings `h_G ‖ h_Q` by database graph id:
    /// the initial-node selection (`M_nh`) and the neighbor rankers
    /// (`M_rk`) share one encoder, and proximity-graph neighborhoods
    /// overlap, so each database graph is embedded against the query at
    /// most once.
    pair_cache: RefCell<PairSlab>,
    /// Per-query memo of each neighbor's `M_rk` layer-1 sums over its pair
    /// embedding ([`FusedHeads::prefix_into`]): that block depends on
    /// (query, neighbor) only, and a neighbor is ranked at several hops.
    rk_prefix: RefCell<PairSlab>,
    /// Wall-clock spent in GNN inference for this query (Fig. 11
    /// breakdown). Atomic, so reads don't need `&mut`.
    gnn_timer: TimerCell,
    /// Cache counters resolved once per query (also guarantees both
    /// `gnn.infer.cache.*` metrics are registered whenever a context
    /// exists, hits or not).
    hit: &'static Counter,
    miss: &'static Counter,
    /// When the context was built through
    /// [`LanModels::query_context_pooled`], the arena its slabs return to
    /// on drop.
    arena: Option<Arc<SlabArena>>,
}

impl QueryContext {
    /// Wall-clock spent in GNN inference through this context so far.
    pub fn gnn_time(&self) -> Duration {
        self.gnn_timer.total()
    }
}

impl Drop for QueryContext {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            let take = |slab: &RefCell<PairSlab>| slab.replace(PairSlab::new(0));
            arena.put((take(&self.pair_cache), take(&self.rk_prefix)));
        }
    }
}

impl LanModels {
    /// Number of rankers `100 / y`.
    pub fn num_rankers(cfg: &ModelConfig) -> usize {
        (100 / cfg.batch_pct).max(1)
    }

    /// Trains all models on the dataset's training queries, given the
    /// proximity-graph base adjacency (needed for ranker labels).
    ///
    /// `train_dists[qi][g]` must hold the operational distance from
    /// training query `qi` (indexing `dataset.split.train`) to every
    /// database graph `g` — computed once by the caller and shared across
    /// all label builders.
    pub fn train(
        dataset: &Dataset,
        adj: &[Vec<u32>],
        train_dists: &[Vec<f64>],
        cfg: ModelConfig,
    ) -> (Self, TrainReport) {
        assert_eq!(train_dists.len(), dataset.split.train.len());
        assert!(
            !train_dists.is_empty(),
            "LanModels::train needs at least one training query"
        );
        let num_labels = dataset.spec.num_labels as usize;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let gcfg = GnnConfig::uniform(num_labels, cfg.embed_dim, cfg.layers);

        // --- γ*: the paper's covering rule. ---
        let cover_k = cfg
            .nh_cover_k
            .min(dataset.graphs.len().saturating_sub(1))
            .max(1);
        let mut kth: Vec<f64> = train_dists
            .iter()
            .map(|ds| {
                let mut v = ds.clone();
                v.sort_by(f64::total_cmp);
                v[cover_k - 1]
            })
            .collect();
        kth.sort_by(f64::total_cmp);
        let qi = ((kth.len() as f64 - 1.0) * cfg.nh_cover_quantile).round() as usize;
        let gamma_star = kth[qi.min(kth.len() - 1)];

        // --- GIN embedder: Siamese squared-L2 distance regression. ---
        let phase = span("build.models.embedder");
        let mut gin_store = ParamStore::new();
        let gin = Gin::new(&mut rng, &mut gin_store, gcfg.clone());
        train_embedder(dataset, train_dists, &gin, &mut gin_store, &cfg, &mut rng);
        let db_embeds: Vec<Vec<f32>> =
            lan_par::par_map_dyn(&dataset.graphs, lan_par::Grain::Coarse, |g| {
                gin.embed(&gin_store, g).data().to_vec()
            });
        drop(phase);

        // --- KMeans over embeddings. ---
        let phase = span("build.models.kmeans");
        let kmeans = KMeans::fit(&db_embeds, cfg.clusters, 50, cfg.seed ^ 0x5eed);
        drop(phase);

        // --- M_nh: cross encoder + head, negative downsampling. ---
        let phase = span("build.models.nh");
        let mut cross_store = ParamStore::new();
        let cross = CrossGraphNet::new(&mut rng, &mut cross_store, gcfg.clone());
        let nh_head = Mlp::new(
            &mut rng,
            &mut cross_store,
            &[2 * cfg.embed_dim, cfg.mlp_hidden, 1],
        );
        let dist_head = Mlp::new(
            &mut rng,
            &mut cross_store,
            &[2 * cfg.embed_dim, cfg.mlp_hidden, 1],
        );
        let (db_inputs_cg, db_inputs_plain) = DbInputs::both(&dataset.graphs, &gcfg);
        let nh_loss = train_nh(
            dataset,
            train_dists,
            gamma_star,
            &cross,
            &nh_head,
            &dist_head,
            &mut cross_store,
            &db_inputs_plain,
            &gcfg,
            &cfg,
            &mut rng,
        );
        drop(phase);

        // --- M_rk heads on frozen-encoder pair embeddings. ---
        let phase = span("build.models.rk_features");
        let mut rk_store = ParamStore::new();
        let nr = Self::num_rankers(&cfg);
        let rk_heads: Vec<Mlp> = (0..nr)
            .map(|_| {
                Mlp::new(
                    &mut rng,
                    &mut rk_store,
                    &[rk_feature_dim(cfg.embed_dim), cfg.mlp_hidden, 1],
                )
            })
            .collect();
        let rk_set = RkTrainingSet::build(
            dataset,
            adj,
            train_dists,
            gamma_star,
            &cross,
            &cross_store,
            &db_inputs_plain,
            &db_embeds,
            &gin,
            &gin_store,
            &gcfg,
            &cfg,
            &mut rng,
        );
        drop(phase);
        let phase = span("build.models.rk_heads");
        let rk_loss = rk_set.map_or(0.0, |set| set.train_heads(&rk_heads, &mut rk_store, &cfg));
        drop(phase);

        // --- M_c: per-cluster intersection-size regression. ---
        let phase = span("build.models.mc");
        let mut mc_store = ParamStore::new();
        let mc_head = Mlp::new(
            &mut rng,
            &mut mc_store,
            &[2 * cfg.embed_dim, cfg.mlp_hidden, 1],
        );
        train_mc(
            dataset,
            train_dists,
            gamma_star,
            &kmeans,
            &db_embeds,
            &gin,
            &gin_store,
            &mc_head,
            &mut mc_store,
            &cfg,
            &mut rng,
        );
        drop(phase);

        let nh_fused = FusedHeads::new(std::slice::from_ref(&nh_head), &cross_store);
        let rk_fused = FusedHeads::new(&rk_heads, &rk_store);
        let models = LanModels {
            cfg,
            num_labels,
            gin,
            gin_store,
            cross,
            cross_store,
            nh_head,
            nh_fused,
            rk_heads,
            rk_fused,
            rk_store,
            mc_head,
            mc_store,
            kmeans,
            gamma_star,
            db_embeds,
            db_inputs_cg,
            db_inputs_plain,
        };

        // --- Validation precision of M_nh (Fig. 8). ---
        let phase = span("build.models.validate");
        let (nh_precision, nh_recall) = models.nh_precision_on(dataset, &dataset.split.val);
        drop(phase);

        let report = TrainReport {
            gamma_star,
            nh_precision,
            nh_recall,
            nh_loss,
            rk_loss,
        };
        (models, report)
    }

    /// GNN config used by all networks.
    pub fn gnn_config(&self) -> GnnConfig {
        GnnConfig::uniform(self.num_labels, self.cfg.embed_dim, self.cfg.layers)
    }

    /// GIN embedding of an arbitrary graph (tape-free).
    pub fn embed(&self, g: &Graph) -> Vec<f32> {
        let mut out = Vec::new();
        lan_gnn::with_scratch(|s| self.gin.infer_embed(&self.gin_store, g, s, &mut out));
        out
    }

    /// Builds the query's learning context. With `use_cg` the query's
    /// compressed GNN-graph is built once here (the paper's on-the-fly,
    /// one-off CG cost).
    pub fn query_context(&self, q: &Graph, use_cg: bool) -> QueryContext {
        let _s = span("gnn.context");
        let gnn_timer = TimerCell::new();
        let (input, prefix, gin_embed) = gnn_timer.time(|| {
            let input = cross_input(q, &self.cross.cfg, use_cg);
            let prefix = self.cross.prefix(&self.cross_store, &input);
            (input, prefix, self.embed(q))
        });
        let (pair_dim, prefix_dim) = self.slab_dims();
        QueryContext {
            input,
            prefix,
            gin_embed,
            pair_cache: RefCell::new(PairSlab::new(pair_dim)),
            rk_prefix: RefCell::new(PairSlab::new(prefix_dim)),
            gnn_timer,
            hit: lan_obs::counter(names::GNN_INFER_CACHE_HIT),
            miss: lan_obs::counter(names::GNN_INFER_CACHE_MISS),
            arena: None,
        }
    }

    /// [`LanModels::query_context`] drawing its slabs from `arena`
    /// instead of allocating fresh ones; they return to the arena
    /// (recycled) when the context drops. The serving path builds one
    /// context per request through this, so steady-state traffic reuses a
    /// bounded set of slabs.
    pub fn query_context_pooled(
        &self,
        q: &Graph,
        use_cg: bool,
        arena: &Arc<SlabArena>,
    ) -> QueryContext {
        let mut ctx = self.query_context(q, use_cg);
        let (pairs, prefixes) = arena.take();
        ctx.pair_cache.replace(pairs);
        ctx.rk_prefix.replace(prefixes);
        ctx.arena = Some(Arc::clone(arena));
        ctx
    }

    /// Row widths of a context's slabs: the pair embedding, and the fused
    /// rankers' layer-1 outputs.
    fn slab_dims(&self) -> (usize, usize) {
        let rk = &self.rk_fused;
        (self.cross.pair_dim(), rk.num_heads * rk.hidden)
    }

    /// Fills the per-query cache for every id in `ids`: one prepared
    /// forward per miss, written straight into its slab row. Hits, misses
    /// and forwards are counted once per call, by their totals.
    fn ensure_pairs(&self, ctx: &QueryContext, ids: &[u32], use_cg: bool) {
        let mut slab = ctx.pair_cache.borrow_mut();
        slab.ensure_capacity(self.db_embeds.len());
        let PairSlab { dim, data, present } = &mut *slab;
        let db = self.db_inputs(use_cg);
        let mut misses = 0u64;
        ctx.gnn_timer.time(|| {
            lan_gnn::with_scratch(|scr| {
                for &g in ids {
                    let gi = g as usize;
                    if present[gi] {
                        continue;
                    }
                    misses += 1;
                    self.cross.infer_pair_prepared(
                        &self.cross_store,
                        &db[gi],
                        db.prefix(gi, self, scr),
                        &ctx.input,
                        &ctx.prefix,
                        scr,
                        &mut data[gi * *dim..(gi + 1) * *dim],
                    );
                    present[gi] = true;
                }
            })
        });
        ctx.hit.add(ids.len() as u64 - misses);
        ctx.miss.add(misses);
        lan_gnn::infer::count_pair_forwards(misses);
    }

    /// The database-side inputs of one kind: compressed with `use_cg`.
    fn db_inputs(&self, use_cg: bool) -> &DbInputs {
        if use_cg {
            &self.db_inputs_cg
        } else {
            &self.db_inputs_plain
        }
    }

    /// The layer-0 prefix of database graph `g`'s input of one kind under
    /// the trained weights, prepared on first use like the search path's.
    pub fn db_prefix(&self, g: usize, use_cg: bool) -> &CrossPrefix {
        lan_gnn::with_scratch(|s| self.db_inputs(use_cg).prefix(g, self, s))
    }

    /// The cross-graph pair embedding `h_G ‖ h_Q` for database graph `g`.
    /// `use_cg` selects the compressed database input (Definition 3).
    pub fn pair_embedding(&self, ctx: &QueryContext, g: u32, use_cg: bool) -> Vec<f32> {
        self.ensure_pairs(ctx, std::slice::from_ref(&g), use_cg);
        ctx.pair_cache.borrow().row(g).to_vec()
    }

    /// Tape-path twin of [`LanModels::pair_embedding`], kept as the bench
    /// baseline (and an in-situ equivalence anchor): same cache, but misses
    /// run the autograd forward.
    pub fn pair_embedding_tape(&self, ctx: &QueryContext, g: u32, use_cg: bool) -> Vec<f32> {
        {
            let slab = ctx.pair_cache.borrow();
            if slab.has(g) {
                return slab.row(g).to_vec();
            }
        }
        let gi = &self.db_inputs(use_cg)[g as usize];
        let mut tape = Tape::new();
        let out = self
            .cross
            .forward(&mut tape, &self.cross_store, gi, &ctx.input);
        let v = tape.value(out.h_pair).data().to_vec();
        let mut slab = ctx.pair_cache.borrow_mut();
        slab.ensure_capacity(self.db_embeds.len());
        slab.insert(g, &v);
        v
    }

    /// The `M_nh` logits of `ids`, in order: one cache fill, then one
    /// fused head pass over the stacked pair embeddings. Each logit depends
    /// on its own row only, so any batching of the same ids gives the same
    /// bits.
    pub fn nh_logits(&self, ctx: &QueryContext, ids: &[u32], use_cg: bool) -> Vec<f32> {
        self.ensure_pairs(ctx, ids, use_cg);
        let slab = ctx.pair_cache.borrow();
        RANK_SCRATCH.with(|rs| {
            let rs = &mut *rs.borrow_mut();
            ctx.gnn_timer.time(|| {
                rs.feats.reset(ids.len(), slab.dim);
                for (i, &g) in ids.iter().enumerate() {
                    rs.feats.row_mut(i).copy_from_slice(slab.row(g));
                }
                self.nh_fused
                    .score_into(&rs.feats, &mut rs.hidden, &mut rs.logits);
                rs.logits.data().to_vec()
            })
        })
    }

    /// `M_nh` logit for database graph `g`.
    pub fn nh_logit(&self, ctx: &QueryContext, g: u32, use_cg: bool) -> f32 {
        self.nh_logits(ctx, &[g], use_cg)[0]
    }

    /// Appends the members of `ids` that `M_nh` places in `N_Q`.
    fn nh_members(&self, ctx: &QueryContext, ids: &[u32], use_cg: bool, out: &mut Vec<u32>) {
        let logits = self.nh_logits(ctx, ids, use_cg);
        out.extend(
            ids.iter()
                .zip(&logits)
                .filter(|&(_, &logit)| logit > 0.0)
                .map(|(&g, _)| g),
        );
    }

    /// The predicted neighborhood `N̂_Q` using the optimized cluster-based
    /// design (paper §V-B2): `M_c` scores every cluster, `M_nh` is applied
    /// only within the best `top_clusters` — one batched sweep per cluster.
    pub fn predicted_neighborhood(&self, ctx: &QueryContext, use_cg: bool) -> Vec<u32> {
        let mut scored: Vec<(f32, usize)> = ctx.gnn_timer.time(|| {
            (0..self.kmeans.k())
                .map(|c| (self.mc_score(ctx, c), c))
                .collect()
        });
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut out = Vec::new();
        for &(_, c) in scored.iter().take(self.cfg.top_clusters) {
            self.nh_members(ctx, &self.kmeans.members()[c], use_cg, &mut out);
        }
        out
    }

    /// The basic (cluster-free) design of §V-B1: one `M_nh` prediction per
    /// database graph.
    pub fn predicted_neighborhood_basic(&self, ctx: &QueryContext, use_cg: bool) -> Vec<u32> {
        let all: Vec<u32> = (0..self.db_embeds.len() as u32).collect();
        let mut out = Vec::new();
        self.nh_members(ctx, &all, use_cg, &mut out);
        out
    }

    /// `M_c`'s predicted (normalized) intersection of cluster `c` with N_Q.
    pub fn mc_score(&self, ctx: &QueryContext, c: usize) -> f32 {
        RANK_SCRATCH.with(|rs| {
            let rs = &mut *rs.borrow_mut();
            rs.input.clear();
            rs.input.extend_from_slice(&self.kmeans.centroids[c]);
            rs.input.extend_from_slice(&ctx.gin_embed);
            self.mc_head
                .infer_scalar(&self.mc_store, &rs.input, &mut rs.mlp)
        })
    }

    /// Ranker-driven batch partition of a node's neighbors (paper §IV-C).
    ///
    /// Inside the neighborhood (`d_node <= γ*`) each neighbor's predicted
    /// batch is the first ranker `i` that classifies it positive
    /// (cumulative-or repairs non-monotone heads); outside, pruning is
    /// disabled and all neighbors form one batch.
    pub fn rank_batches(
        &self,
        ctx: &QueryContext,
        node: u32,
        neighbors: &[u32],
        d_node: f64,
        use_cg: bool,
    ) -> Vec<Vec<u32>> {
        if neighbors.is_empty() {
            return Vec::new();
        }
        if d_node > self.gamma_star {
            return vec![neighbors.to_vec()];
        }
        let _s = span("gnn.rank");
        // Each M_rk^i answers "is this neighbor in the top i·y%?". Summing
        // the sigmoid scores gives the expected number of top-sets the
        // neighbor belongs to — a monotone rank score that is far more
        // robust than the heads' individual 0.5-calibration. Neighbors are
        // sorted by that score and chunked into the y% batches of
        // Algorithm 4, exactly like the oracle ranker but with the learned
        // score in place of the true distance.
        let scores = self.rank_scores(ctx, node, neighbors, use_cg);
        let mut scored: Vec<(f32, u32)> =
            scores.into_iter().zip(neighbors.iter().copied()).collect();
        sort_scored_desc(&mut scored);
        let ranked: Vec<u32> = scored.into_iter().map(|(_, nb)| nb).collect();
        lan_pg::np_route::chunk_batches(ranked, self.cfg.batch_pct)
    }

    /// The rank score `Σ_i sigmoid(M_rk^i)` of each of `neighbors` seen
    /// from `node`, in order. A neighbor's layer-1 sums over its pair
    /// embedding come from the context's cache (filled here on a miss), so
    /// a hop adds only the features that depend on `node` — its GIN
    /// embedding and the query–neighbor GIN distance — to them; the logits
    /// carry the bits of the full fused forward ([`FusedHeads`]), and each
    /// depends on its own neighbor only, so any batching of the same
    /// neighbors gives the same bits.
    pub fn rank_scores(
        &self,
        ctx: &QueryContext,
        node: u32,
        neighbors: &[u32],
        use_cg: bool,
    ) -> Vec<f32> {
        self.ensure_pairs(ctx, neighbors, use_cg);
        let slab = ctx.pair_cache.borrow();
        let mut prefixes = ctx.rk_prefix.borrow_mut();
        prefixes.ensure_capacity(self.db_embeds.len());
        let h_g = &self.db_embeds[node as usize];
        let tail = self.rk_fused.in_dim - slab.dim;
        RANK_SCRATCH.with(|rs| {
            let rs = &mut *rs.borrow_mut();
            ctx.gnn_timer.time(|| {
                rs.misses.clear();
                rs.misses
                    .extend(neighbors.iter().filter(|&&nb| !prefixes.has(nb)));
                if !rs.misses.is_empty() {
                    rs.pairs.reset(rs.misses.len(), slab.dim);
                    for (i, &nb) in rs.misses.iter().enumerate() {
                        rs.pairs.row_mut(i).copy_from_slice(slab.row(nb));
                    }
                    self.rk_fused.prefix_into(&rs.pairs, &mut rs.sums);
                    for (i, &nb) in rs.misses.iter().enumerate() {
                        prefixes.insert(nb, rs.sums.row(i));
                    }
                }
                rs.hidden.reset(neighbors.len(), prefixes.dim);
                rs.feats.reset(neighbors.len(), tail);
                for (i, &nb) in neighbors.iter().enumerate() {
                    rs.hidden.row_mut(i).copy_from_slice(prefixes.row(nb));
                    let nb_gin = &self.db_embeds[nb as usize];
                    rk_tail_into(rs.feats.row_mut(i), h_g, &ctx.gin_embed, nb_gin);
                }
                self.rk_fused
                    .finish_into(&rs.feats, &mut rs.hidden, &mut rs.logits);
                (0..neighbors.len())
                    .map(|i| {
                        let mut score = 0.0f32;
                        for hd in 0..self.rk_fused.num_heads {
                            score += sigmoid(rs.logits.get(i, hd));
                        }
                        score
                    })
                    .collect()
            })
        })
    }

    /// The pre-fast-path implementation — per-neighbor autograd tapes for
    /// the pair embedding and one fresh tape per ranker head — kept as the
    /// reference `benchmark/` times [`LanModels::rank_batches`] against
    /// (`models.rank_batches_tape.us`).
    pub fn rank_batches_tape(
        &self,
        ctx: &QueryContext,
        node: u32,
        neighbors: &[u32],
        d_node: f64,
        use_cg: bool,
    ) -> Vec<Vec<u32>> {
        if neighbors.is_empty() {
            return Vec::new();
        }
        if d_node > self.gamma_star {
            return vec![neighbors.to_vec()];
        }
        let mut scored: Vec<(f32, u32)> = Vec::with_capacity(neighbors.len());
        for &nb in neighbors {
            let pair = self.pair_embedding_tape(ctx, nb, use_cg);
            let feat = rk_feature(
                &pair,
                &self.db_embeds[node as usize],
                &ctx.gin_embed,
                &self.db_embeds[nb as usize],
            );
            let mut score = 0.0f32;
            for head in &self.rk_heads {
                let mut tape = Tape::new();
                let x = tape.leaf(Matrix::from_vec(1, feat.len(), feat.clone()));
                let logit = head.forward(&mut tape, &self.rk_store, x);
                score += sigmoid(tape.value(logit).scalar());
            }
            scored.push((score, nb));
        }
        sort_scored_desc(&mut scored);
        let ranked: Vec<u32> = scored.into_iter().map(|(_, nb)| nb).collect();
        lan_pg::np_route::chunk_batches(ranked, self.cfg.batch_pct)
    }

    /// `M_nh` precision/recall over the given query indices (Fig. 8).
    /// Queries are evaluated in parallel — each one's prediction and GED
    /// ground-truth scan are independent, and the summed counts are
    /// order-free, so the result is identical to a sequential evaluation.
    pub fn nh_precision_on(&self, dataset: &Dataset, query_idx: &[usize]) -> (f64, f64) {
        let counts: Vec<(usize, usize, usize)> =
            lan_par::par_map_dyn(query_idx, lan_par::Grain::Fine, |&qi| {
                let q = &dataset.queries[qi];
                let ctx = self.query_context(q, true);
                let pred = self.predicted_neighborhood_basic(&ctx, true);
                let pred_set: std::collections::HashSet<u32> = pred.iter().copied().collect();
                let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
                for g in 0..dataset.graphs.len() as u32 {
                    let truth = dataset.distance(q, g) <= self.gamma_star;
                    let predicted = pred_set.contains(&g);
                    match (truth, predicted) {
                        (true, true) => tp += 1,
                        (false, true) => fp += 1,
                        (true, false) => fn_ += 1,
                        (false, false) => {}
                    }
                }
                (tp, fp, fn_)
            });
        let (tp, fp, fn_) = counts
            .into_iter()
            .fold((0, 0, 0), |(a, b, c), (x, y, z)| (a + x, b + y, c + z));
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        (precision, recall)
    }
}

fn train_embedder(
    dataset: &Dataset,
    train_dists: &[Vec<f64>],
    gin: &Gin,
    store: &mut ParamStore,
    cfg: &ModelConfig,
    rng: &mut StdRng,
) {
    let schedule = StepDecay::paper();
    let mut adam = Adam::new(schedule.initial_lr);
    let nq = train_dists.len();
    if nq == 0 {
        return;
    }
    let ng = dataset.graphs.len();
    for epoch in 0..cfg.epochs as u32 {
        adam.lr = schedule.lr_at(epoch);
        let samples = cfg.max_samples_per_epoch.min(nq * 8).max(16);
        for _ in 0..samples {
            let qi = rng.gen_range(0..nq);
            let gi = rng.gen_range(0..ng);
            let d = train_dists[qi][gi] as f32;
            let q = &dataset.queries[dataset.split.train[qi]];
            let g = &dataset.graphs[gi];
            store.zero_grads();
            let mut tape = Tape::new();
            let (_, eq) = gin.forward(&mut tape, store, q);
            let (_, eg) = gin.forward(&mut tape, store, g);
            let diff = tape.sub(eq, eg);
            let msd = tape.mse(diff, Matrix::zeros(1, cfg.embed_dim));
            let pred = tape.scale(msd, cfg.embed_dim as f32); // squared L2
            let loss = tape.mse(pred, Matrix::from_vec(1, 1, vec![d]));
            tape.backward(loss, store);
            adam.step(store);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn train_nh(
    dataset: &Dataset,
    train_dists: &[Vec<f64>],
    gamma_star: f64,
    cross: &CrossGraphNet,
    nh_head: &Mlp,
    dist_head: &Mlp,
    store: &mut ParamStore,
    db_inputs: &DbInputs,
    gcfg: &GnnConfig,
    cfg: &ModelConfig,
    rng: &mut StdRng,
) -> f32 {
    // Build (query, graph, label, distance) samples with negative
    // downsampling [50]. The distance target drives the auxiliary
    // regression head: the binary in/out-of-N_Q objective alone is too
    // coarse for the encoder the rankers reuse, so the encoder is also
    // asked to predict the (gamma*-normalized) distance itself.
    let mut samples: Vec<(usize, u32, f32, f32)> = Vec::new();
    for (qi, dists) in train_dists.iter().enumerate() {
        let positives: Vec<u32> = (0..dists.len() as u32)
            .filter(|&g| dists[g as usize] <= gamma_star)
            .collect();
        let num_neg = (positives.len() * 3).max(8).min(dists.len());
        for &g in &positives {
            samples.push((qi, g, 1.0, dists[g as usize] as f32));
        }
        for _ in 0..num_neg {
            let g = rng.gen_range(0..dists.len()) as u32;
            if dists[g as usize] > gamma_star {
                samples.push((qi, g, 0.0, dists[g as usize] as f32));
            }
        }
    }
    if samples.is_empty() {
        return 0.0;
    }
    let q_inputs: Vec<CrossInput> = train_dists
        .iter()
        .enumerate()
        .map(|(qi, _)| CrossInput::plain(&dataset.queries[dataset.split.train[qi]], gcfg))
        .collect();

    let gs = gamma_star.max(1.0) as f32;
    let schedule = StepDecay::paper();
    let mut adam = Adam::new(schedule.initial_lr);
    let mut last_loss = 0.0f32;
    for epoch in 0..cfg.epochs as u32 {
        adam.lr = schedule.lr_at(epoch);
        samples.shuffle(rng);
        let mut total = 0.0f32;
        let mut count = 0usize;
        for &(qi, g, label, d) in samples.iter().take(cfg.max_samples_per_epoch) {
            store.zero_grads();
            let mut tape = Tape::new();
            let out = cross.forward(&mut tape, store, &db_inputs[g as usize], &q_inputs[qi]);
            let logit = nh_head.forward(&mut tape, store, out.h_pair);
            let loss = tape.bce_with_logits(logit, label);
            let pred_d = dist_head.forward(&mut tape, store, out.h_pair);
            let reg = tape.mse(pred_d, Matrix::from_vec(1, 1, vec![d / gs]));
            let reg_s = tape.scale(reg, 0.5);
            let joint = tape.add(loss, reg_s);
            total += tape.value(loss).scalar();
            count += 1;
            tape.backward(joint, store);
            adam.step(store);
        }
        last_loss = total / count.max(1) as f32;
    }
    last_loss
}

/// One `M_rk` training sample before its feature exists: training query
/// `qi`, a routing state `g` inside `N_Q`, and the neighbor `nb` of `g`
/// that holds 0-based position `rank` among `g`'s `total` neighbors by
/// distance to the query (paper §IV-C: the reduced training set
/// restricted to the neighborhood of Q).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RkSample {
    qi: usize,
    g: u32,
    nb: u32,
    rank: usize,
    total: usize,
}

/// Enumerates the ranker samples: up to 24 shuffled states of `N_Q` per
/// training query, every neighbor of each. The shuffles are the only
/// randomness.
fn rk_samples(
    adj: &[Vec<u32>],
    train_dists: &[Vec<f64>],
    gamma_star: f64,
    rng: &mut StdRng,
) -> Vec<RkSample> {
    let max_states_per_query = 24;
    let mut samples = Vec::new();
    for (qi, dists) in train_dists.iter().enumerate() {
        let mut in_nq: Vec<u32> = (0..dists.len() as u32)
            .filter(|&g| dists[g as usize] <= gamma_star)
            .collect();
        in_nq.shuffle(rng);
        for &g in in_nq.iter().take(max_states_per_query) {
            let mut ranked: Vec<u32> = adj[g as usize].clone();
            ranked.sort_by(|&a, &b| {
                dists[a as usize]
                    .total_cmp(&dists[b as usize])
                    .then(a.cmp(&b))
            });
            let total = ranked.len();
            samples.extend(ranked.into_iter().enumerate().map(|(rank, nb)| RkSample {
                qi,
                g,
                nb,
                rank,
                total,
            }));
        }
    }
    samples
}

/// Everything the ranker heads train on, fixed before the first step.
///
/// Head training draws nothing from the RNG, so the epoch orders can be
/// drawn up front — and once they are known, so is the set of samples
/// training will ever visit. Only those get a feature: each costs a
/// frozen-encoder forward through the tape, and at benchmark sizes the
/// `6·epochs·min(n, 4·max_samples)` visits land on under a third of the
/// enumerated samples.
struct RkTrainingSet {
    samples: Vec<RkSample>,
    /// Sample indices visited by each of the `6·epochs` head epochs.
    orders: Vec<Vec<usize>>,
    /// The `1 × F` feature of every sample some order visits, ready to be
    /// a tape leaf; `None` for the rest.
    feats: Vec<Option<Matrix>>,
}

impl RkTrainingSet {
    /// `None` when no training query has a state with neighbors inside its
    /// neighborhood (nothing to train on; no order is drawn).
    #[allow(clippy::too_many_arguments)]
    fn build(
        dataset: &Dataset,
        adj: &[Vec<u32>],
        train_dists: &[Vec<f64>],
        gamma_star: f64,
        cross: &CrossGraphNet,
        cross_store: &ParamStore,
        db_inputs: &DbInputs,
        db_embeds: &[Vec<f32>],
        gin: &Gin,
        gin_store: &ParamStore,
        gcfg: &GnnConfig,
        cfg: &ModelConfig,
        rng: &mut StdRng,
    ) -> Option<Self> {
        let samples = rk_samples(adj, train_dists, gamma_star, rng);
        if samples.is_empty() {
            return None;
        }
        // Heads are cheap (features are cached), so give them a much larger
        // budget than the encoder.
        let orders: Vec<Vec<usize>> = (0..cfg.epochs * 6)
            .map(|_| {
                let mut order: Vec<usize> = (0..samples.len()).collect();
                order.shuffle(rng);
                order.truncate(cfg.max_samples_per_epoch * 4);
                order
            })
            .collect();

        let mut visited = vec![false; samples.len()];
        for &si in orders.iter().flatten() {
            visited[si] = true;
        }

        let queries: Vec<(CrossInput, Vec<f32>)> = dataset
            .split
            .train
            .iter()
            .map(|&qi| {
                let query = &dataset.queries[qi];
                (
                    CrossInput::plain(query, gcfg),
                    gin.embed(gin_store, query).data().to_vec(),
                )
            })
            .collect();
        // Pair embeddings come from the frozen encoder, so every feature is
        // independent: one flat order-preserving pass over the visited
        // samples.
        let feats = lan_par::par_map_indices_dyn(samples.len(), lan_par::Grain::Auto, |si| {
            visited[si].then(|| {
                let s = &samples[si];
                let (q_input, q_gin) = &queries[s.qi];
                let mut tape = Tape::new();
                let out = cross.forward(&mut tape, cross_store, &db_inputs[s.nb as usize], q_input);
                let feat = rk_feature(
                    tape.value(out.h_pair).data(),
                    &db_embeds[s.g as usize],
                    q_gin,
                    &db_embeds[s.nb as usize],
                );
                Matrix::from_vec(1, feat.len(), feat)
            })
        });
        Some(RkTrainingSet {
            samples,
            orders,
            feats,
        })
    }

    /// Trains the heads over the fixed orders; returns the mean loss of
    /// the last epoch. Takes no RNG: the orders are the randomness.
    fn train_heads(&self, rk_heads: &[Mlp], rk_store: &mut ParamStore, cfg: &ModelConfig) -> f32 {
        let schedule = StepDecay::paper();
        let mut adam = Adam::new(schedule.initial_lr);
        let mut last = 0.0f32;
        for (epoch, order) in self.orders.iter().enumerate() {
            adam.lr = schedule.lr_at(epoch as u32);
            let mut total = 0.0f32;
            let mut count = 0usize;
            for &si in order {
                let s = &self.samples[si];
                rk_store.zero_grads();
                // One tape, one feature leaf; the heads share no parameter,
                // so each backward pass reaches only its own head's nodes.
                let mut tape = Tape::new();
                let feat = self.feats[si]
                    .as_ref()
                    .expect("every visited sample has a feature");
                let x = tape.leaf(feat.clone());
                for (i, head) in rk_heads.iter().enumerate() {
                    // Positive iff the neighbor is among the top (i+1)·y% ranks.
                    let top = (((i + 1) * cfg.batch_pct * s.total) as f64 / 100.0).ceil() as usize;
                    let label = if s.rank < top.max(1) { 1.0 } else { 0.0 };
                    let logit = head.forward(&mut tape, rk_store, x);
                    let loss = tape.bce_with_logits(logit, label);
                    total += tape.value(loss).scalar();
                    count += 1;
                    tape.backward(loss, rk_store);
                }
                adam.step(rk_store);
            }
            last = total / count.max(1) as f32;
        }
        last
    }
}

#[allow(clippy::too_many_arguments)]
fn train_mc(
    dataset: &Dataset,
    train_dists: &[Vec<f64>],
    gamma_star: f64,
    kmeans: &KMeans,
    _db_embeds: &[Vec<f32>],
    gin: &Gin,
    gin_store: &ParamStore,
    mc_head: &Mlp,
    mc_store: &mut ParamStore,
    cfg: &ModelConfig,
    rng: &mut StdRng,
) {
    let members = kmeans.members();
    struct McSample {
        input: Vec<f32>,
        target: f32,
    }
    let mut samples: Vec<McSample> = Vec::new();
    for (qi, dists) in train_dists.iter().enumerate() {
        let q = &dataset.queries[dataset.split.train[qi]];
        let qe = gin.embed(gin_store, q).data().to_vec();
        for (c, ms) in members.iter().enumerate() {
            if ms.is_empty() {
                continue;
            }
            let inter = ms
                .iter()
                .filter(|&&g| dists[g as usize] <= gamma_star)
                .count();
            let target = inter as f32 / ms.len() as f32;
            let mut input = kmeans.centroids[c].clone();
            input.extend_from_slice(&qe);
            samples.push(McSample { input, target });
        }
    }
    if samples.is_empty() {
        return;
    }
    let schedule = StepDecay::paper();
    let mut adam = Adam::new(schedule.initial_lr);
    for epoch in 0..(cfg.epochs as u32 * 4) {
        adam.lr = schedule.lr_at(epoch);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.shuffle(rng);
        for &si in order.iter().take(cfg.max_samples_per_epoch) {
            let s = &samples[si];
            mc_store.zero_grads();
            let mut tape = Tape::new();
            let x = tape.leaf(Matrix::from_vec(1, s.input.len(), s.input.clone()));
            let out = mc_head.forward(&mut tape, mc_store, x);
            let loss = tape.mse(out, Matrix::from_vec(1, 1, vec![s.target]));
            tape.backward(loss, mc_store);
            adam.step(mc_store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_scored_desc_is_nan_safe_and_deterministic() {
        // Regression for the old `partial_cmp(..).unwrap_or(Equal)` sort: a
        // NaN score must neither panic nor scramble the order depending on
        // input permutation.
        let mut a = vec![(f32::NAN, 3), (1.0, 1), (f32::NAN, 2), (0.5, 4)];
        let mut b = vec![(0.5, 4), (f32::NAN, 2), (1.0, 1), (f32::NAN, 3)];
        sort_scored_desc(&mut a);
        sort_scored_desc(&mut b);
        // Compare bit patterns: `==` on NaN floats is always false.
        let bits = |v: &[(f32, u32)]| -> Vec<(u32, u32)> {
            v.iter().map(|&(s, id)| (s.to_bits(), id)).collect()
        };
        assert_eq!(
            bits(&a),
            bits(&b),
            "sort must be permutation-invariant with NaNs"
        );
        // NaN sorts ahead of every finite score under descending total_cmp,
        // with the id tiebreak keeping equal scores deterministic.
        let ids: Vec<u32> = a.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![2, 3, 1, 4]);
    }

    #[test]
    fn sort_scored_desc_ties_break_by_id() {
        let mut v = vec![(1.0f32, 9), (1.0, 2), (1.0, 5)];
        sort_scored_desc(&mut v);
        let ids: Vec<u32> = v.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    /// The data pass of `train_rk` as it was before `RkTrainingSet`,
    /// frozen as the reference: a feature for every enumerated sample,
    /// built state by state, then the epoch orders shuffled where the
    /// training loop used to shuffle them. Returns `(feature, rank, total)`
    /// per sample and the visited prefix of each order.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn eager_rk_reference(
        dataset: &Dataset,
        adj: &[Vec<u32>],
        train_dists: &[Vec<f64>],
        gamma_star: f64,
        cross: &CrossGraphNet,
        cross_store: &ParamStore,
        db_inputs: &[CrossInput],
        db_embeds: &[Vec<f32>],
        gin: &Gin,
        gin_store: &ParamStore,
        gcfg: &GnnConfig,
        cfg: &ModelConfig,
        rng: &mut StdRng,
    ) -> (Vec<(Vec<f32>, usize, usize)>, Vec<Vec<usize>>) {
        let mut samples = Vec::new();
        for (qi, dists) in train_dists.iter().enumerate() {
            let query = &dataset.queries[dataset.split.train[qi]];
            let q_input = CrossInput::plain(query, gcfg);
            let q_gin = gin.embed(gin_store, query).data().to_vec();
            let mut in_nq: Vec<u32> = (0..dists.len() as u32)
                .filter(|&g| dists[g as usize] <= gamma_star)
                .collect();
            in_nq.shuffle(rng);
            for &g in in_nq.iter().take(24) {
                let neighbors = &adj[g as usize];
                if neighbors.is_empty() {
                    continue;
                }
                let mut ranked: Vec<u32> = neighbors.clone();
                ranked.sort_by(|&a, &b| {
                    dists[a as usize]
                        .total_cmp(&dists[b as usize])
                        .then(a.cmp(&b))
                });
                for (rank, &nb) in ranked.iter().enumerate() {
                    let mut tape = Tape::new();
                    let out =
                        cross.forward(&mut tape, cross_store, &db_inputs[nb as usize], &q_input);
                    let pair = tape.value(out.h_pair).data().to_vec();
                    let feat = rk_feature(
                        &pair,
                        &db_embeds[g as usize],
                        &q_gin,
                        &db_embeds[nb as usize],
                    );
                    samples.push((feat, rank, ranked.len()));
                }
            }
        }
        let mut orders = Vec::new();
        if !samples.is_empty() {
            for _ in 0..(cfg.epochs as u32 * 6) {
                let mut order: Vec<usize> = (0..samples.len()).collect();
                order.shuffle(rng);
                order.truncate(cfg.max_samples_per_epoch * 4);
                orders.push(order);
            }
        }
        (samples, orders)
    }

    #[test]
    fn lazy_rk_training_set_matches_the_eager_reference() {
        let ds = Dataset::generate(
            lan_datasets::DatasetSpec::syn()
                .with_graphs(48)
                .with_queries(16)
                .with_metric(lan_ged::GedMethod::Hungarian),
        );
        let pair_fn = |a: u32, b: u32| ds.pair_distance(a, b);
        let pairs = lan_pg::PairCache::new(&pair_fn);
        let pg = lan_pg::ProximityGraph::build(ds.graphs.len(), &pairs, &lan_pg::PgConfig::new(4));
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
        // A neighborhood of about a quarter of the database per query.
        let mut all: Vec<f64> = train_dists.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        let gamma_star = all[all.len() / 4];

        // Few enough visits that most samples are never drawn.
        let cfg = ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 5,
            ..ModelConfig::default()
        };
        let gcfg = GnnConfig::uniform(ds.spec.num_labels as usize, cfg.embed_dim, cfg.layers);
        let mut init = StdRng::seed_from_u64(7);
        let mut gin_store = ParamStore::new();
        let gin = Gin::new(&mut init, &mut gin_store, gcfg.clone());
        let mut cross_store = ParamStore::new();
        let cross = CrossGraphNet::new(&mut init, &mut cross_store, gcfg.clone());
        let db_embeds: Vec<Vec<f32>> = ds
            .graphs
            .iter()
            .map(|g| gin.embed(&gin_store, g).data().to_vec())
            .collect();
        let db_inputs: Vec<CrossInput> = ds
            .graphs
            .iter()
            .map(|g| CrossInput::plain(g, &gcfg))
            .collect();
        let (_, lazy_inputs) = DbInputs::both(&ds.graphs, &gcfg);

        let mut rng_eager = StdRng::seed_from_u64(0xCAFE);
        let mut rng_lazy = rng_eager.clone();
        let (want, want_orders) = eager_rk_reference(
            &ds,
            pg.base(),
            &train_dists,
            gamma_star,
            &cross,
            &cross_store,
            &db_inputs,
            &db_embeds,
            &gin,
            &gin_store,
            &gcfg,
            &cfg,
            &mut rng_eager,
        );
        let set = RkTrainingSet::build(
            &ds,
            pg.base(),
            &train_dists,
            gamma_star,
            &cross,
            &cross_store,
            &lazy_inputs,
            &db_embeds,
            &gin,
            &gin_store,
            &gcfg,
            &cfg,
            &mut rng_lazy,
        )
        .expect("the tiny dataset has ranker samples");

        // Same samples, same orders, and the stream handed on to `train_mc`
        // is at the same position (`train_heads` takes no RNG).
        assert_eq!(set.samples.len(), want.len());
        assert_eq!(set.orders, want_orders);
        assert_eq!(rng_lazy.gen::<u64>(), rng_eager.gen::<u64>());

        // Every visited sample carries the reference's feature, on bits;
        // nothing else was computed.
        let visited: std::collections::BTreeSet<usize> =
            set.orders.iter().flatten().copied().collect();
        assert_eq!(set.feats.iter().flatten().count(), visited.len());
        assert!(
            visited.len() * 2 < want.len(),
            "the test must leave most samples unvisited ({} of {})",
            visited.len(),
            want.len()
        );
        for &si in &visited {
            let (feat, rank, total) = &want[si];
            let got = set.feats[si].as_ref().expect("visited");
            assert_eq!(got.shape(), (1, feat.len()));
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(got.data()), bits(feat), "feature of sample {si}");
            assert_eq!(
                (set.samples[si].rank, set.samples[si].total),
                (*rank, *total)
            );
        }
    }

    #[test]
    fn rk_tail_into_matches_rk_feature() {
        let pair = [0.1f32, -0.4, 0.0, 2.0];
        let h_g = [1.0f32, 0.5];
        let q_gin = [0.2f32, -1.0];
        let nb_gin = [0.1f32, 0.7];
        let want = rk_feature(&pair, &h_g, &q_gin, &nb_gin);
        let mut got = vec![0.0f32; want.len() - pair.len()];
        rk_tail_into(&mut got, &h_g, &q_gin, &nb_gin);
        assert_eq!(got, want[pair.len()..]);
    }
}
