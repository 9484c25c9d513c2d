//! Combined driver for the index-heavy figures — Fig. 5 (method
//! comparison), Fig. 6 (routing), Fig. 7 (initial selection), and Fig. 10
//! (CG acceleration) — building each dataset's index **once** and reusing
//! it for all four, which matters on small machines (the individual
//! `fig5_compare` … `fig10_accel` binaries rebuild per figure).
//!
//! ```text
//! cargo run --release -p lan-bench --bin figs_main
//! ```

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
        eprintln!("[{name}] ground truth for {} queries...", test_q.len());
        let truths = harness::ground_truths(&index, &test_q, k);

        // --- Fig 5: LAN vs HNSW vs L2route. ---
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
        let cands: Vec<usize> = [2usize, 4, 8, 16, 32, 64]
            .iter()
            .map(|&c| (c * k / 4).min(n))
            .collect();
        let l2curve = harness::l2route_curve(&index, &l2, &test_q, &truths, k, &cands);
        print_curve("L2route", &l2curve);
        for target in [0.9, 0.95] {
            if let (Some(a), Some(h)) = (qps_at_recall(&lan, target), qps_at_recall(&hnsw, target))
            {
                let l2s = qps_at_recall(&l2curve, target)
                    .map(|x| format!("{:.1}x", a / x))
                    .unwrap_or("n/a (never reached)".into());
                println!(
                    "[{name}] Fig5 @recall={target}: LAN/HNSW = {:.2}x, LAN/L2route = {l2s}",
                    a / h
                );
            }
        }

        // --- Fig 6: LAN_Route vs HNSW_Route under HNSW_IS. ---
        println!("\n=== Fig 6 ({name}): routing (HNSW_IS fixed) ===");
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
        print_curve("HNSW_Route", &hnsw);
        for target in [0.9, 0.95] {
            if let (Some(a), Some(h)) = (
                qps_at_recall(&lan_route, target),
                qps_at_recall(&hnsw, target),
            ) {
                println!(
                    "[{name}] Fig6 @recall={target}: LAN_Route/HNSW_Route = {:.2}x",
                    a / h
                );
            }
        }
        let (l, h) = (lan_route.last().unwrap(), hnsw.last().unwrap());
        println!(
            "[{name}] Fig6 NDC at b={}: LAN_Route {:.1} vs HNSW_Route {:.1}",
            l.param, l.avg_ndc, h.avg_ndc
        );

        // --- Fig 7: initial selection under LAN_Route. ---
        println!("\n=== Fig 7 ({name}): initial selection (LAN_Route fixed) ===");
        let hnsw_is = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::HnswIs,
            RouteStrategy::LanRoute { use_cg: true },
        );
        let rand_is = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::RandIs,
            RouteStrategy::LanRoute { use_cg: true },
        );
        print_curve("LAN_IS", &lan);
        print_curve("HNSW_IS", &hnsw_is);
        print_curve("Rand_IS", &rand_is);
        for target in [0.9, 0.95] {
            if let (Some(a), Some(h), Some(r)) = (
                qps_at_recall(&lan, target),
                qps_at_recall(&hnsw_is, target),
                qps_at_recall(&rand_is, target),
            ) {
                println!(
                    "[{name}] Fig7 @recall={target}: LAN_IS/HNSW_IS = {:.2}x, LAN_IS/Rand_IS = {:.2}x",
                    a / h,
                    a / r
                );
            }
        }

        // --- Fig 10: CG on vs off. ---
        println!("\n=== Fig 10 ({name}): CG acceleration ===");
        let plain = harness::recall_qps_curve(
            &index,
            &test_q,
            &truths,
            k,
            &beams,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: false },
        );
        print_curve("LAN(CG)", &lan);
        print_curve("LAN(plain)", &plain);
        for target in [0.9, 0.95] {
            if let (Some(a), Some(p)) = (qps_at_recall(&lan, target), qps_at_recall(&plain, target))
            {
                println!(
                    "[{name}] Fig10 @recall={target}: CG QPS gain = {:+.1}%",
                    (a / p - 1.0) * 100.0
                );
            }
        }
    }
    lan_bench::finish_obs("figs_main");
}
