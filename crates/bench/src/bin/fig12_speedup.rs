//! Fig. 12: speedup of cross-graph learning itself — CG vs plain forward,
//! with HAG [45] as the acceleration baseline.
//!
//! HAG shares redundant partial sums in the neighbor aggregation, but
//! cannot reduce the matrix multiplications or the cross-graph attention
//! that dominate cross-graph learning — so its end-to-end speedup is ≈1×,
//! while the CG compresses *every* component (paper's Fig. 12: CG is
//! ~3.1–5.3× per dataset).
//!
//! ```text
//! cargo run --release -p lan-bench --bin fig12_speedup
//! ```

use lan_bench::{sized_spec, Scale};
use lan_datasets::Dataset;
use lan_gnn::{CompressedGnnGraph, CrossGraphNet, CrossInput, GnnConfig, HagPlan};
use lan_tensor::{ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    let pairs = 60usize;
    println!("Fig 12: cross-graph learning speedup (plain = 1.0x)");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>14}",
        "Dataset", "CG", "HAG", "CG flops%", "agg adds saved"
    );

    for spec in lan_bench::all_specs() {
        let spec = sized_spec(spec, scale).with_graphs(2 * pairs);
        let num_labels = spec.num_labels as usize;
        let ds = Dataset::generate(spec);
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let cfg = GnnConfig::uniform(num_labels, 128, 2); // paper's embedding dim
        let net = CrossGraphNet::new(&mut rng, &mut store, cfg.clone());

        // Precompute inputs (CGs are precomputed for data graphs, §VI-C).
        let plain_inputs: Vec<CrossInput> = ds
            .graphs
            .iter()
            .map(|g| CrossInput::plain(g, &cfg))
            .collect();
        let cg_inputs: Vec<CrossInput> = ds
            .graphs
            .iter()
            .map(|g| CrossInput::compressed(&CompressedGnnGraph::build(g, 2), &cfg))
            .collect();

        // --- Plain forward timing + flops. ---
        let mut plain_flops = 0u64;
        let t0 = Instant::now();
        for i in 0..pairs {
            let mut tape = Tape::new();
            let _ = net.forward(
                &mut tape,
                &store,
                &plain_inputs[2 * i],
                &plain_inputs[2 * i + 1],
            );
            plain_flops += tape.flops();
        }
        let t_plain = t0.elapsed();

        // --- CG forward timing + flops. ---
        let mut cg_flops = 0u64;
        let t0 = Instant::now();
        for i in 0..pairs {
            let mut tape = Tape::new();
            let _ = net.forward(&mut tape, &store, &cg_inputs[2 * i], &cg_inputs[2 * i + 1]);
            cg_flops += tape.flops();
        }
        let t_cg = t0.elapsed();

        // --- HAG: accelerates only the aggregation additions; matmuls and
        //     attention are untouched, so time ≈ plain. Measure the plain
        //     forward again with HAG's aggregation savings accounted.
        let mut naive_adds = 0usize;
        let mut hag_adds = 0usize;
        let t0 = Instant::now();
        for i in 0..pairs {
            for g in [&ds.graphs[2 * i], &ds.graphs[2 * i + 1]] {
                let plan = HagPlan::build(g);
                naive_adds += HagPlan::naive_adds(g);
                hag_adds += plan.planned_adds();
            }
            let mut tape = Tape::new();
            let _ = net.forward(
                &mut tape,
                &store,
                &plain_inputs[2 * i],
                &plain_inputs[2 * i + 1],
            );
        }
        let t_hag = t0.elapsed();
        // HAG's best case: subtract the saved additions from the plain time
        // proportionally to their share of total flops (generous to HAG).
        let add_share = (naive_adds - hag_adds) as f64 * 128.0 / plain_flops as f64;
        let t_hag_ideal = t_plain.mul_f64((1.0 - add_share).max(0.0));
        let _ = t_hag;

        println!(
            "{:<10} {:>9.2}x {:>9.2}x {:>11.1}% {:>13.1}%",
            ds.spec.name,
            t_plain.as_secs_f64() / t_cg.as_secs_f64(),
            t_plain.as_secs_f64() / t_hag_ideal.as_secs_f64().max(1e-12),
            100.0 * cg_flops as f64 / plain_flops as f64,
            100.0 * (naive_adds - hag_adds) as f64 / naive_adds.max(1) as f64,
        );
    }
    println!("\n(paper: CG speedup ~4/4.2/5.3/3.1x on AIDS/LINUX/PUBCHEM/SYN; HAG ~1x)");
    lan_bench::finish_obs("fig12_speedup");
}
