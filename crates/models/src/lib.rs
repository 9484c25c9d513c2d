//! The learned models of LAN: neighbor rankers `M_rk^i`, neighborhood model
//! `M_nh`, cluster model `M_c`, the GIN graph embedder, KMeans, and the
//! [`learned_ranker::LearnedRanker`] adapter that plugs into
//! `lan_pg::np_route`.

pub mod kmeans;
pub mod learned_ranker;
pub mod models;
pub mod store;

pub use kmeans::KMeans;
pub use learned_ranker::LearnedRanker;
pub use models::{DbInputs, LanModels, ModelConfig, QueryContext, SlabArena, TrainReport};
