//! End-to-end routing equivalence: a full `search_with` query (its oracle
//! wraps the dataset GED in timing and fault-injection layers) must be
//! bit-identical — results, NDC, termination — to driving the same router
//! by hand over a plain exact-distance closure.

use lan_core::{InitStrategy, LanConfig, LanIndex, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::{LearnedRanker, ModelConfig};
use lan_pg::np_route::np_route;
use lan_pg::{beam_search, DistCache, PgConfig};

fn tiny_index() -> LanIndex {
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    );
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
        quant: lan_core::QuantConfig::default(),
    };
    LanIndex::build(ds, cfg)
}

#[test]
fn search_matches_plain_oracle_routing() {
    let index = tiny_index();
    let (k, b) = (3usize, 4usize);
    for qi in 0..6usize {
        let q = index.dataset.queries[qi].clone();
        let f = |id: u32| index.dataset.distance(&q, id);

        // HNSW baseline: hierarchy entry + Algorithm 1.
        let out = index.search_with(&q, k, b, InitStrategy::HnswIs, RouteStrategy::HnswRoute, 0);
        let cache = DistCache::new(&f);
        let entry = index.pg.hnsw_entry(&cache);
        let rr = beam_search(index.pg.base(), &cache, &[entry], b, k);
        assert_eq!(out.results, rr.results, "hnsw results, q={qi}");
        assert_eq!(out.ndc, rr.ndc, "hnsw ndc, q={qi}");
        assert_eq!(out.termination, rr.termination, "hnsw termination, q={qi}");

        // LAN routing (Algorithms 2-4), with and without CG acceleration.
        for use_cg in [true, false] {
            let out = index.search_with(
                &q,
                k,
                b,
                InitStrategy::HnswIs,
                RouteStrategy::LanRoute { use_cg },
                0,
            );
            let cache = DistCache::new(&f);
            let entry = index.pg.hnsw_entry(&cache);
            let qc = index.models.query_context(&q, use_cg);
            let ranker = LearnedRanker::new(&index.models, &qc, use_cg);
            let rr = np_route(
                index.pg.base(),
                &cache,
                &ranker,
                &[entry],
                b,
                k,
                index.cfg.ds,
            );
            assert_eq!(out.results, rr.results, "lan results, q={qi} cg={use_cg}");
            assert_eq!(out.ndc, rr.ndc, "lan ndc, q={qi} cg={use_cg}");
            assert_eq!(
                out.termination, rr.termination,
                "lan termination, q={qi} cg={use_cg}"
            );
        }
    }
}
