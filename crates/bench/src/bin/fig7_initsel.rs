//! Fig. 7: initial node selection — LAN_IS vs HNSW_IS vs Rand_IS, all with
//! LAN_Route fixed as the routing method.
//!
//! ```text
//! cargo run --release -p lan-bench --bin fig7_initsel
//! ```
//!
//! Paper shape: LAN_IS > HNSW_IS > Rand_IS; ~1.3–1.7× over HNSW_IS and up
//! to ~2× (17× on LINUX) over Rand_IS at recall 0.95.

use lan_bench::{all_specs, beam_sweep, build_index, k_for, print_curve, Scale};
use lan_core::{harness, qps_at_recall, InitStrategy, RouteStrategy};

fn main() {
    let scale = Scale::from_env();
    let k = k_for(scale);
    let beams = beam_sweep(scale);
    let route = RouteStrategy::LanRoute { use_cg: true };

    for spec in all_specs() {
        let name = spec.name;
        let index = build_index(spec, scale);
        let test_q = index.dataset.split.test.clone();
        let truths = harness::ground_truths(&index, &test_q, k);

        println!("\n=== Fig 7 ({name}): initial selection (LAN_Route fixed) ===");
        let curves = [
            ("LAN_IS", InitStrategy::LanIs),
            ("HNSW_IS", InitStrategy::HnswIs),
            ("Rand_IS", InitStrategy::RandIs),
        ]
        .map(|(label, init)| {
            let c = harness::recall_qps_curve(&index, &test_q, &truths, k, &beams, init, route);
            print_curve(label, &c);
            (label, c)
        });

        for target in [0.9, 0.95] {
            let qs: Vec<Option<f64>> = curves
                .iter()
                .map(|(_, c)| qps_at_recall(c, target))
                .collect();
            if let (Some(lan), Some(hnsw), Some(rand)) = (qs[0], qs[1], qs[2]) {
                println!(
                    "[{name}] @recall={target}: LAN_IS/HNSW_IS = {:.2}x, LAN_IS/Rand_IS = {:.2}x",
                    lan / hnsw,
                    lan / rand
                );
            }
        }
    }
    lan_bench::finish_obs("fig7_initsel");
}
