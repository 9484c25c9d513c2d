//! Fig. 11: breakdown of the k-ANN query time *before* CG acceleration —
//! what fraction goes to cross-graph learning vs GED computation vs rest.
//!
//! ```text
//! cargo run --release -p lan-bench --bin fig11_breakdown
//! ```
//!
//! Paper shape: cross-graph learning is ~20–29% of query time, which is
//! what makes the CG acceleration worth it (Figs. 10/12).

use lan_bench::{beam_sweep, build_index, k_for, Scale};
use lan_core::{harness, InitStrategy, RouteStrategy};

fn main() {
    let scale = Scale::from_env();
    let k = k_for(scale);
    let b = beam_sweep(scale)[2];

    println!("Fig 11: query time breakdown (LAN without CG, b = {b}, k = {k})");
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "Dataset", "total(ms)", "GED(ms)", "GNN(ms)", "GNN frac", "GED frac"
    );
    for spec in lan_bench::all_specs() {
        let index = build_index(spec, scale);
        let test_q = index.dataset.split.test.clone();
        let truths = harness::ground_truths(&index, &test_q, k);
        let (_, breakdown) = harness::run_point(
            &index,
            &test_q,
            &truths,
            k,
            b,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: false },
        );
        let n = test_q.len() as f64;
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>10.1} {:>9.1}% {:>7.1}%",
            index.dataset.spec.name,
            breakdown.total.as_secs_f64() * 1000.0 / n,
            breakdown.distance.as_secs_f64() * 1000.0 / n,
            breakdown.gnn.as_secs_f64() * 1000.0 / n,
            breakdown.gnn_fraction() * 100.0,
            breakdown.distance_fraction() * 100.0
        );
    }
    println!("\n(paper: GNN share ~24/25/20/29% on AIDS/LINUX/PUBCHEM/SYN)");
    lan_bench::finish_obs("fig11_breakdown");
}
