//! Fig. 6: routing with neighbor pruning — LAN_Route vs HNSW_Route, both
//! using HNSW_IS for initial selection (isolating the routing effect).
//!
//! ```text
//! cargo run --release -p lan-bench --bin fig6_routing
//! ```
//!
//! Paper shape: LAN_Route ~2.5–5.5× the QPS of HNSW_Route at recall 0.95.

use lan_bench::{all_specs, beam_sweep, build_index, k_for, print_curve, Scale};
use lan_core::{harness, qps_at_recall, InitStrategy, RouteStrategy};

fn main() {
    let scale = Scale::from_env();
    let k = k_for(scale);
    let beams = beam_sweep(scale);

    for spec in all_specs() {
        let name = spec.name;
        let index = build_index(spec, scale);
        let test_q = index.dataset.split.test.clone();
        let truths = harness::ground_truths(&index, &test_q, k);

        println!("\n=== Fig 6 ({name}): routing comparison (HNSW_IS fixed) ===");
        let lan_route = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::HnswIs,
            RouteStrategy::LanRoute { use_cg: true },
        );
        print_curve("LAN_Route", &lan_route);
        let hnsw_route = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::HnswIs,
            RouteStrategy::HnswRoute,
        );
        print_curve("HNSW_Route", &hnsw_route);

        for target in [0.9, 0.95] {
            if let (Some(a), Some(h)) = (
                qps_at_recall(&lan_route, target),
                qps_at_recall(&hnsw_route, target),
            ) {
                println!(
                    "[{name}] @recall={target}: LAN_Route/HNSW_Route = {:.1}x",
                    a / h
                );
            }
        }
        // NDC view (the paper's mechanism): average NDC at the largest beam.
        let (l, h) = (lan_route.last().unwrap(), hnsw_route.last().unwrap());
        println!(
            "[{name}] NDC at b={}: LAN_Route {:.1} vs HNSW_Route {:.1}",
            l.param, l.avg_ndc, h.avg_ndc
        );
    }
    lan_bench::finish_obs("fig6_routing");
}
