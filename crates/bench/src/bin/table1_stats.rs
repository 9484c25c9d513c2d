//! Table I: statistics of the (synthetic stand-in) datasets.
//!
//! ```text
//! cargo run --release -p lan-bench --bin table1_stats
//! ```

use lan_bench::{sized_spec, Scale};
use lan_datasets::{Dataset, DatasetSpec};

fn main() {
    let scale = Scale::from_env();
    println!("Table I: statistics of datasets (paper targets in parentheses)");
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>9}",
        "Dataset", "#graphs", "avg |V|", "avg |E|", "#nlabel"
    );
    let paper = [
        ("AIDS", 42_687, 25.6, 27.5, 51),
        ("LINUX", 47_239, 35.5, 37.7, 36),
        ("PUBCHEM", 22_794, 48.2, 50.8, 10),
        ("SYN", 1_000_000, 10.1, 15.9, 5),
    ];
    for (spec, (pname, pg, pv, pe, pl)) in DatasetSpec::all().into_iter().zip(paper) {
        assert_eq!(spec.name, pname);
        let ds = Dataset::generate(sized_spec(spec, scale));
        println!(
            "{:<10} {:>8} {:>6.1} ({:>5.1}) {:>6.1} ({:>5.1}) {:>3} ({:>2})",
            ds.spec.name,
            ds.graphs.len(),
            ds.avg_nodes(),
            pv,
            ds.avg_edges(),
            pe,
            ds.distinct_labels(),
            pl
        );
        let _ = pg;
    }
    println!("\n(paper sizes: AIDS 42,687 / LINUX 47,239 / PUBCHEM 22,794 / SYN 1,000,000;");
    println!(" this reproduction scales #graphs down, preserving the per-graph statistics)");
    lan_bench::finish_obs("table1_stats");
}
