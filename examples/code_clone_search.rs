//! Code-clone (plagiarism) detection over control-flow graphs — the
//! software-engineering scenario from the paper's introduction: the
//! control flow of a code fragment is a graph, and near-duplicates of a
//! suspicious fragment are its k-ANNs under graph edit distance.
//!
//! ```text
//! cargo run --release --example code_clone_search
//! ```

use lan_core::{LanConfig, LanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::perturb::perturb;
use lan_models::ModelConfig;
use lan_pg::PgConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A LINUX-like database of control-flow graphs (36 block labels,
    // ~35 blocks per function).
    let dataset = Dataset::generate(DatasetSpec::linux().with_graphs(200).with_queries(20));
    println!(
        "CFG database: {} functions, avg {:.1} blocks / {:.1} edges",
        dataset.graphs.len(),
        dataset.avg_nodes(),
        dataset.avg_edges()
    );

    let cfg = LanConfig {
        pg: PgConfig::new(6),
        model: ModelConfig {
            embed_dim: 16,
            epochs: 3,
            nh_cover_k: 30,
            clusters: 6,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    };
    println!("indexing the corpus...");
    let index = LanIndex::build(dataset, cfg);

    // A "plagiarized" function: a known function with cosmetic edits
    // (renamed ops, an inserted block, a removed jump).
    let mut rng = StdRng::seed_from_u64(99);
    let original = 17u32;
    let (suspicious, edits) = perturb(
        &mut rng,
        &index.dataset.graphs[original as usize],
        3,
        index.dataset.spec.num_labels,
    );
    println!(
        "\nsuspicious function: {} blocks ({} edits from function #{original})",
        suspicious.node_count(),
        edits
    );

    let out = index.search(&suspicious, 5, 16);
    println!("\ntop-5 most similar functions in the corpus:");
    // The operational metric is an approximate (upper-bound) GED, so a
    // deployed detector calibrates its threshold on corpus statistics; a
    // dozen edits on ~35-block functions is a near-clone.
    let threshold = 12.0;
    for &(d, id) in &out.results {
        let verdict = if d <= threshold {
            "LIKELY CLONE"
        } else {
            "distinct"
        };
        println!("  function #{id:<4} GED = {d:<5} -> {verdict}");
    }
    println!(
        "\ndetection cost: {} GED computations over a {}-function corpus",
        out.ndc,
        index.dataset.graphs.len()
    );

    // The edit-perturbed source must be within `edits` of something in its
    // own perturbation family, so the top hit should sit under the
    // threshold.
    assert!(
        out.results[0].0 <= threshold,
        "expected a near-clone at the top of the result list"
    );
    println!("verdict: clone of function #{} detected", out.results[0].1);
}
