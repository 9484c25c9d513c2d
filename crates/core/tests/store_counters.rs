//! The process-global half of the store's bit-identity contract: a
//! saved-then-opened index bumps `ged.calls` exactly as the index that
//! built it. The deltas are read off the global registry, so this is the
//! only test in its binary — sibling tests running searches would bleed
//! into them (the rest of the contract is in `store_properties.rs`).

mod store_fixtures;

use lan_core::LanIndex;
use store_fixtures::{tiny_cfg, tiny_dataset, STRATEGIES};

#[test]
fn loaded_index_counts_ged_calls_like_the_built_one() {
    let built = LanIndex::build(tiny_dataset(40), tiny_cfg());
    let path = std::env::temp_dir().join(format!("lan_store_counters_{}.lan", std::process::id()));
    built.save(&path).expect("save");
    let loaded = LanIndex::open(&path);
    let _ = std::fs::remove_file(&path);
    let loaded = loaded.expect("open");

    lan_obs::set_enabled(true);
    let calls = |index: &LanIndex, q, init, route, seed| {
        let before = lan_obs::snapshot();
        let out = index.search_with(q, 3, 4, init, route, seed);
        let delta = lan_obs::snapshot().diff(&before);
        (out.ndc as u64, delta.counter(lan_obs::names::GED_CALLS))
    };
    for (init, route) in STRATEGIES {
        for qi in 0..6usize {
            let q = &built.dataset.queries[qi];
            for seed in [0u64, 7] {
                let a = calls(&built, q, init, route, seed);
                let b = calls(&loaded, q, init, route, seed);
                let tag = format!("init={init:?} route={route:?} qi={qi} seed={seed}");
                assert_eq!(a.0, a.1, "built: ged.calls delta != NDC ({tag})");
                assert_eq!(a, b, "ged.calls diverged ({tag})");
            }
        }
    }
}
