//! Fig. 5: recall@k vs QPS — LAN vs HNSW vs L2route on all four datasets.
//!
//! ```text
//! cargo run --release -p lan-bench --bin fig5_compare
//! ```
//!
//! Paper shape: LAN > HNSW > L2route in QPS at every recall level; at
//! recall 0.95 LAN is ~3.6–9× over HNSW and ~16–73× over L2route.

use lan_bench::{all_specs, beam_sweep, build_index, k_for, print_curve, Scale};
use lan_core::{harness, qps_at_recall, InitStrategy, L2RouteIndex, RouteStrategy};

fn main() {
    let scale = Scale::from_env();
    let k = k_for(scale);
    let beams = beam_sweep(scale);

    for spec in all_specs() {
        let name = spec.name;
        let index = build_index(spec, scale);
        let test_q = index.dataset.split.test.clone();
        eprintln!(
            "[{name}] computing ground truth for {} test queries...",
            test_q.len()
        );
        let truths = harness::ground_truths(&index, &test_q, k);

        println!("\n=== Fig 5 ({name}): recall@{k} vs QPS ===");
        let lan = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        );
        print_curve("LAN", &lan);
        let hnsw = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::HnswIs,
            RouteStrategy::HnswRoute,
        );
        print_curve("HNSW", &hnsw);
        let l2 = L2RouteIndex::build(&index, 6);
        let n = index.dataset.graphs.len();
        let cands: Vec<usize> = [8usize, 16, 32, 64, 128, 256]
            .iter()
            .map(|&c| (c * k / 20).min(n))
            .collect();
        let l2curve = harness::l2route_curve(&index, &l2, &test_q, &truths, k, &cands);
        print_curve("L2route", &l2curve);

        for target in [0.9, 0.95] {
            let q_lan = qps_at_recall(&lan, target);
            let q_hnsw = qps_at_recall(&hnsw, target);
            let q_l2 = qps_at_recall(&l2curve, target);
            match (q_lan, q_hnsw, q_l2) {
                (Some(a), Some(h), l2q) => {
                    let l2s = l2q
                        .map(|x| format!("{:.1}x", a / x))
                        .unwrap_or("n/a".into());
                    println!(
                        "[{name}] @recall={target}: LAN/HNSW = {:.1}x, LAN/L2route = {l2s}",
                        a / h
                    );
                }
                _ => println!("[{name}] @recall={target}: some method never reached the target"),
            }
        }
    }
    lan_bench::finish_obs("fig5_compare");
}
