//! Cross-commit, cross-process replay of the on-disk store: a store file
//! committed next to this test, opened by a process that has built
//! nothing, must answer a probe workload — every strategy, several
//! queries, three seeds — with the `(distance, id)` results and NDC whose
//! digests were committed with it.
//!
//! `store_properties.rs` checks that a file round-trips within one build;
//! this binary checks that today's decoder and query path still read and
//! answer yesterday's file. A change to the store format, the decoder or
//! the query path fails here until the fixture is regenerated on purpose:
//!
//! ```text
//! cargo test -p lan-core --test store_golden -- --ignored regenerate_golden_store
//! ```

mod store_fixtures;

use lan_core::LanIndex;
use std::path::PathBuf;
use store_fixtures::{tiny_cfg, tiny_dataset, STRATEGIES};

/// Database graphs of the golden index: small enough that the committed
/// file stays well under 64 KiB.
const GRAPHS: usize = 30;
const QUERIES: usize = 6;
const SEEDS: [u64; 3] = [0, 7, 42];
const K: usize = 5;
const B: usize = 8;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/store_fixtures")
        .join(name)
}

/// FNV-1a64 over a query outcome: distance bit patterns, ids, and NDC.
fn digest(results: &[(f64, u32)], ndc: usize) -> u64 {
    let mut bytes = Vec::new();
    for &(d, id) in results {
        bytes.extend_from_slice(&d.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(id as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&(ndc as u64).to_le_bytes());
    lan_store::fnv1a64(&bytes)
}

/// One line per (strategy, query, seed): the outcome's digest, then what
/// was asked.
fn probe(index: &LanIndex) -> String {
    let mut out = String::new();
    for (init, route) in STRATEGIES {
        for qi in 0..QUERIES {
            let q = &index.dataset.queries[qi];
            for seed in SEEDS {
                let o = index.search_with(q, K, B, init, route, seed);
                out += &format!(
                    "{:016x} {init:?} {route:?} q={qi} seed={seed}\n",
                    digest(&o.results, o.ndc)
                );
            }
        }
    }
    out
}

#[test]
fn golden_store_replays_the_committed_digests() {
    let index = LanIndex::open(&fixture("golden.lan")).expect("open the committed store");
    let want = std::fs::read_to_string(fixture("golden.digests")).expect("read digests");
    let got = probe(&index);
    assert_eq!(
        got.lines().count(),
        STRATEGIES.len() * QUERIES * SEEDS.len()
    );
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "the opened store answers differently from the committed digests"
        );
    }
    assert_eq!(got, want);
}

/// Rebuilds the golden index, checks that it round-trips, and rewrites
/// both fixture files.
#[test]
#[ignore = "rewrites the committed fixture; run it by name"]
fn regenerate_golden_store() {
    let built = LanIndex::build(tiny_dataset(GRAPHS), tiny_cfg());
    let path = fixture("golden.lan");
    let bytes = built.save(&path).expect("save");
    assert!(bytes <= 64 * 1024, "golden store is {bytes} bytes");
    let digests = probe(&built);
    let reopened = LanIndex::open(&path).expect("open");
    assert_eq!(probe(&reopened), digests, "store did not round-trip");
    std::fs::write(fixture("golden.digests"), digests).expect("write digests");
}
