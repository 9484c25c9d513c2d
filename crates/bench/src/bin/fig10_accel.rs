//! Fig. 10: effect of cross-graph learning acceleration (CG) on end-to-end
//! k-ANN QPS — LAN with vs without the compressed GNN-graph.
//!
//! ```text
//! cargo run --release -p lan-bench --bin fig10_accel
//! ```
//!
//! Paper shape: ~15–18% QPS increase at recall 0.95 (the GNN is ~20–30% of
//! query time and CG speeds that component up ~3–5×).

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

        println!("\n=== Fig 10 ({name}): LAN with vs without CG acceleration ===");
        let with_cg = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        );
        print_curve("LAN(CG)", &with_cg);
        let without = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: false },
        );
        print_curve("LAN(plain)", &without);

        for target in [0.9, 0.95] {
            if let (Some(a), Some(p)) = (
                qps_at_recall(&with_cg, target),
                qps_at_recall(&without, target),
            ) {
                println!(
                    "[{name}] @recall={target}: CG acceleration QPS gain = {:+.1}%",
                    (a / p - 1.0) * 100.0
                );
            }
        }
    }
    lan_bench::finish_obs("fig10_accel");
}
