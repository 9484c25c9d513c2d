//! Fig. 9: scalability on SYN — average query time vs database scale
//! (20%..100%) at three recall levels.
//!
//! Following the paper (§VII-D), large databases are split into equal-size
//! sub-databases and the k-ANN search runs on each shard sequentially, so
//! query time scales linearly with the database size.
//!
//! ```text
//! cargo run --release -p lan-bench --bin fig9_scalability
//! ```

use lan_bench::{beam_sweep, bench_lan_config, k_for, sized_spec, Scale};
use lan_core::{harness, InitStrategy, LanIndex, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec};

fn main() {
    let scale = Scale::from_env();
    let k = k_for(scale);
    let full = sized_spec(DatasetSpec::syn(), scale).num_graphs;
    let shard_size = full / 5;
    let recalls = [0.9, 0.95, 0.98];

    // Build one index per shard of 20% once; a p% database uses the first
    // p/20 shards (the paper's sequential sub-database evaluation).
    eprintln!(
        "building {} shard indexes of {} graphs each...",
        5, shard_size
    );
    let shards: Vec<LanIndex> = (0..5)
        .map(|i| {
            let spec = DatasetSpec::syn()
                .with_graphs(shard_size)
                .with_seed(DatasetSpec::syn().seed + i as u64);
            let ds = Dataset::generate(sized_spec(spec, scale).with_graphs(shard_size));
            LanIndex::build(ds, bench_lan_config(scale))
        })
        .collect();

    // Pick beam sizes reaching each recall target on a single shard.
    let test_q = shards[0].dataset.split.test.clone();
    let truths = harness::ground_truths(&shards[0], &test_q, k);
    let beams = beam_sweep(scale);
    let curve = harness::recall_qps_curve(
        &shards[0],
        &test_q,
        &truths,
        k,
        &beams,
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: true },
    );
    let beam_for = |target: f64| -> usize {
        curve
            .iter()
            .find(|p| p.recall >= target)
            .map(|p| p.param)
            .unwrap_or(*beams.last().unwrap())
    };

    println!("\nFig 9: SYN scalability (avg query time in ms, k = {k})");
    println!(
        "{:<8} {:>12} {:>12} {:>12}",
        "scale", "recall 0.90", "recall 0.95", "recall 0.98"
    );
    for used in 1..=5usize {
        let mut row = format!("{:<8}", format!("{}%", used * 20));
        for &target in &recalls {
            let b = beam_for(target);
            let mut total = std::time::Duration::ZERO;
            let mut queries = 0usize;
            for &qi in test_q.iter() {
                // The query graph comes from shard 0's workload; it is
                // searched against every active shard sequentially.
                let q = shards[0].dataset.queries[qi].clone();
                for shard in &shards[..used] {
                    let out = shard.search_with(
                        &q,
                        k,
                        b,
                        InitStrategy::LanIs,
                        RouteStrategy::LanRoute { use_cg: true },
                        qi as u64,
                    );
                    total += out.total_time;
                }
                queries += 1;
            }
            let ms = total.as_secs_f64() * 1000.0 / queries as f64;
            row.push_str(&format!(" {ms:>12.1}"));
        }
        println!("{row}");
    }
    println!("\n(expected shape: each column grows ~linearly with the scale —");
    println!(" the sequential sub-database protocol of the paper)");
    lan_bench::finish_obs("fig9_scalability");
}
