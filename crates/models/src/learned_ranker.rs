//! The learned [`NeighborRanker`] adapter: plugs `M_rk` into `np_route`.

use crate::models::{LanModels, QueryContext};
use lan_pg::np_route::NeighborRanker;

/// Ranks neighbors with the trained `M_rk` models (paper §IV-C). Inside the
/// query neighborhood (`d(G, Q) <= γ*`) neighbors are partitioned into
/// predicted batches; outside, all neighbors form a single batch (no
/// pruning), exactly as §IV-C prescribes.
///
/// Scoring runs on the tape-free fast path ([`LanModels::rank_batches`]):
/// pair embeddings and their ranker-layer sums come from the per-query
/// caches in `ctx`, and a hop's neighbors are scored as one batch.
pub struct LearnedRanker<'a> {
    pub models: &'a LanModels,
    pub ctx: &'a QueryContext,
    /// Use the compressed GNN-graph inputs (paper §VI) for the database
    /// side of every cross-graph forward.
    pub use_cg: bool,
}

impl<'a> LearnedRanker<'a> {
    pub fn new(models: &'a LanModels, ctx: &'a QueryContext, use_cg: bool) -> Self {
        LearnedRanker {
            models,
            ctx,
            use_cg,
        }
    }
}

impl NeighborRanker for LearnedRanker<'_> {
    fn rank(&self, node: u32, neighbors: &[u32], d_node: f64) -> Vec<Vec<u32>> {
        self.models
            .rank_batches(self.ctx, node, neighbors, d_node, self.use_cg)
    }
}
