//! Fig. 8: precision of the initial-node (neighborhood) prediction model
//! `M_nh` on each dataset, plus the Lemma 2 implication for the sample
//! count `s`.
//!
//! ```text
//! cargo run --release -p lan-bench --bin fig8_precision
//! ```
//!
//! Paper shape: precision exceeds 0.7 on all datasets, so s = 4 samples put
//! at least one true neighbor in the pick with probability > 0.99.

use lan_bench::{all_specs, build_index, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("Fig 8: M_nh prediction quality on test queries");
    println!("{:<10} {:>10} {:>10}", "Dataset", "precision", "recall");
    for spec in all_specs() {
        let index = build_index(spec, scale);
        let (precision, recall) = index
            .models
            .nh_precision_on(&index.dataset, &index.dataset.split.test);
        println!(
            "{:<10} {:>10.3} {:>10.3}",
            index.dataset.spec.name, precision, recall
        );
        // Lemma 2: P(at least one of s samples in N_Q) = 1 - (1 - p)^s.
        let s = index.cfg.model.init_samples as i32;
        let hit = 1.0 - (1.0 - precision).powi(s);
        println!("           Lemma 2 with s = {s}: P(sample hits N_Q) = {hit:.4}");
    }
    lan_bench::finish_obs("fig8_precision");
}
