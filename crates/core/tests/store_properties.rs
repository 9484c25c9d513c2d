//! Persistence contracts of the on-disk index store:
//!
//! * **bit-identity** — a saved-then-opened index answers queries exactly
//!   like the index that built it: same `(distance, id)` results, same
//!   NDC, same `ged.calls` deltas (`store_counters.rs`, a process of its
//!   own), and the same EXPLAIN tier attribution
//!   (with the reconciliation invariant `lb + tau + full == ndc` holding
//!   on both sides), across both routers, several seeds, and the sharded
//!   fan-out; the layer-0 prefixes of the cross-encoder, never stored and
//!   prepared on first use, come back with the bits `build` gave them,
//!   also when four threads race to touch them first;
//! * **corruption safety** — a truncated file, a flipped byte, a future
//!   format version, hostile counts and global-id maps that are not a
//!   permutation come back as typed [`StoreError`]s, never a panic or
//!   silently wrong data.

mod store_fixtures;

use lan_core::{L2RouteIndex, LanIndex, ShardedLanIndex};
use lan_store::{Enc, StoreError, Writer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use store_fixtures::{tiny_cfg, tiny_dataset, STRATEGIES};

/// A fresh path under the system temp dir (no external tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lan_store_test_{}_{tag}_{n}.lan",
        std::process::id()
    ))
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn flat_index_round_trips_bit_identically() {
    let built = LanIndex::build(tiny_dataset(40), tiny_cfg());
    let path = scratch("flat");
    let _cleanup = TempFile(path.clone());
    let bytes = built.save(&path).expect("save");
    assert!(bytes > 0);
    let loaded = LanIndex::open(&path).expect("open");

    assert_eq!(loaded.build_ndc, built.build_ndc);
    assert_eq!(loaded.dataset.graphs.len(), built.dataset.graphs.len());
    assert_eq!(loaded.report.gamma_star, built.report.gamma_star);

    for (init, route) in STRATEGIES {
        for qi in 0..6usize {
            let q = built.dataset.queries[qi].clone();
            for seed in [0u64, 7] {
                let a = built.search_with(&q, 3, 4, init, route, seed);
                let b = loaded.search_with(&q, 3, 4, init, route, seed);
                let tag = format!("init={init:?} route={route:?} qi={qi} seed={seed}");
                assert_eq!(a.results, b.results, "results diverged ({tag})");
                assert_eq!(a.ndc, b.ndc, "NDC diverged ({tag})");
            }
        }
    }
}

#[test]
fn flat_index_explain_attribution_survives_reload() {
    let built = LanIndex::build(tiny_dataset(40), tiny_cfg());
    let path = scratch("explain");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    let loaded = LanIndex::open(&path).expect("open");

    for (init, route) in STRATEGIES {
        for qi in 0..4usize {
            let q = built.dataset.queries[qi].clone();
            let (a, ea) = built.search_explain(&q, 3, 4, init, route, 0);
            let (b, eb) = loaded.search_explain(&q, 3, 4, init, route, 0);
            let tag = format!("init={init:?} route={route:?} qi={qi}");
            assert_eq!(a.results, b.results, "results diverged ({tag})");
            // Reconciliation holds on both sides and the per-tier split
            // is identical: the loaded index routes through the same
            // cascade with the same cached signatures.
            assert_eq!(
                ea.tiers.attributed(),
                ea.ndc,
                "built reconciliation ({tag})"
            );
            assert_eq!(
                eb.tiers.attributed(),
                eb.ndc,
                "loaded reconciliation ({tag})"
            );
            assert_eq!(ea.ndc, eb.ndc, "explain NDC diverged ({tag})");
            assert_eq!(
                (
                    ea.tiers.lb_prunes,
                    ea.tiers.tau_aborts,
                    ea.tiers.full_solves
                ),
                (
                    eb.tiers.lb_prunes,
                    eb.tiers.tau_aborts,
                    eb.tiers.full_solves
                ),
                "tier attribution diverged ({tag})"
            );
            assert_eq!(ea.hops, eb.hops, "hops diverged ({tag})");
            assert_eq!(ea.cache_hits, eb.cache_hits, "cache hits diverged ({tag})");
        }
    }
}

#[test]
fn sharded_index_round_trips_bit_identically() {
    let ds = tiny_dataset(60);
    let built = ShardedLanIndex::build(&ds, &tiny_cfg(), 3);
    let path = scratch("sharded");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    let loaded = ShardedLanIndex::open(&path).expect("open");

    assert_eq!(loaded.num_shards(), built.num_shards());
    assert_eq!(loaded.len(), built.len());
    assert_eq!(loaded.global_ids, built.global_ids);

    // The layer-0 prefixes are prepared on first use from the loaded
    // weights by the chain the built index uses: same bits, both kinds,
    // every graph.
    let prefix_bits = |p: &lan_gnn::CrossPrefix| -> Vec<u32> {
        let lnw = p.lnw().iter().flatten();
        let all = p.tw().data().iter().chain(p.mu_w()).chain(lnw);
        all.map(|v| v.to_bits()).collect()
    };
    for (s, (a, b)) in built.shards.iter().zip(&loaded.shards).enumerate() {
        let (a, b) = (&a.models, &b.models);
        assert_eq!(a.db_embeds.len(), b.db_embeds.len());
        for g in 0..a.db_embeds.len() {
            for (kind, use_cg) in [("cg", true), ("plain", false)] {
                let (pa, pb) = (a.db_prefix(g, use_cg), b.db_prefix(g, use_cg));
                assert_eq!(pa.tw().shape(), pb.tw().shape());
                assert_eq!(
                    prefix_bits(pa),
                    prefix_bits(pb),
                    "shard {s} graph {g}: loaded {kind} prefix differs from the built one"
                );
            }
        }
    }

    for (init, route) in STRATEGIES {
        for qi in 0..4usize {
            let q = ds.queries[qi].clone();
            for seed in [0u64, 7] {
                let a = built.search(&q, 3, 4, init, route, seed);
                // The loaded shards agree with the built ones on the serial
                // shard loop and on the parallel fan-out alike.
                for threads in ["1", "4"] {
                    let b = lan_par::testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
                        loaded.search(&q, 3, 4, init, route, seed)
                    });
                    let tag = format!(
                        "init={init:?} route={route:?} qi={qi} seed={seed} LAN_THREADS={threads}"
                    );
                    assert_eq!(a.results, b.results, "results diverged ({tag})");
                    assert_eq!(a.ndc, b.ndc, "NDC diverged ({tag})");
                }
            }
        }
    }
}

/// Four threads query a freshly opened sharded index at once, each the
/// same queries in its own rotation, so their first touches of the
/// database inputs and prefixes race. Every answer, NDC and EXPLAIN tier
/// split equals the built index's.
#[test]
fn concurrent_first_queries_on_an_opened_index_match_the_built_one() {
    const THREADS: usize = 4;
    let ds = tiny_dataset(60);
    let built = ShardedLanIndex::build(&ds, &tiny_cfg(), 2);
    let path = scratch("race");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    let loaded = ShardedLanIndex::open(&path).expect("open");

    let cases: Vec<_> = STRATEGIES
        .iter()
        .flat_map(|&(init, route)| (0..4usize).map(move |qi| (init, route, qi)))
        .collect();
    let summary = |index: &ShardedLanIndex, (init, route, qi): (_, _, usize)| {
        let (out, ex) = index.search_explain(&ds.queries[qi], 3, 4, init, route, 0);
        let t = ex.tiers;
        let tiers = (t.lb_prunes, t.tau_aborts, t.full_solves);
        (out.results, out.ndc, tiers)
    };
    let expect: Vec<_> = cases.iter().map(|&c| summary(&built, c)).collect();

    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (start, cases, expect, loaded) = (&start, &cases, &expect, &loaded);
            scope.spawn(move || {
                start.wait();
                for i in (0..cases.len()).map(|i| (i + t) % cases.len()) {
                    let got = summary(loaded, cases[i]);
                    assert_eq!(got, expect[i], "thread {t}: case {:?}", cases[i]);
                }
            });
        }
    });
}

#[test]
fn l2route_round_trips_bit_identically() {
    let built = LanIndex::build(tiny_dataset(40), tiny_cfg());
    let l2 = L2RouteIndex::build(&built, 4);
    let path = scratch("l2");
    let _cleanup = TempFile(path.clone());
    l2.save(&path).expect("save");
    let loaded = L2RouteIndex::open(&path).expect("open");
    assert_eq!(loaded.embeds, l2.embeds);
    for qi in 0..4usize {
        let q = built.dataset.queries[qi].clone();
        let (ra, na, _, _) = l2.search(&built, &q, 3, 4);
        let (rb, nb, _, _) = loaded.search(&built, &q, 3, 4);
        assert_eq!(ra, rb, "results diverged qi={qi}");
        assert_eq!(na, nb, "NDC diverged qi={qi}");
    }
}

/// `expect_err` without a `Debug` bound on the success side (indexes are
/// deliberately not `Debug` — they hold the whole database).
fn open_err(path: &std::path::Path, why: &str) -> StoreError {
    match LanIndex::open(path) {
        Err(e) => e,
        Ok(_) => panic!("open unexpectedly succeeded: {why}"),
    }
}

#[test]
fn corrupted_files_are_typed_errors_never_panics() {
    let built = LanIndex::build(tiny_dataset(30), tiny_cfg());
    let path = scratch("corrupt");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    let good = std::fs::read(&path).expect("read back");

    // Truncation at every granularity: mid-superblock, mid-table,
    // mid-section. All must produce a typed error.
    for frac in [0.1, 0.3, 0.5, 0.9, 0.999] {
        let cut = (good.len() as f64 * frac) as usize;
        let tpath = scratch("trunc");
        let _tc = TempFile(tpath.clone());
        std::fs::write(&tpath, &good[..cut]).unwrap();
        let err = open_err(&tpath, "truncated file must fail");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BadChecksum { .. }
                    | StoreError::BadMagic
                    | StoreError::Corrupt { .. }
                    | StoreError::MissingSection { .. }
            ),
            "unexpected error for cut at {cut}/{}: {err:?}",
            good.len()
        );
    }

    // A single flipped byte anywhere in a section must trip a checksum
    // (or decode) error — sample positions across the whole file.
    for pos in (0..good.len()).step_by(good.len() / 23 + 1) {
        let mut bad = good.clone();
        bad[pos] ^= 0xA5;
        let bpath = scratch("flip");
        let _bc = TempFile(bpath.clone());
        std::fs::write(&bpath, &bad).unwrap();
        // Any typed error is acceptable; opening must never succeed with
        // silently wrong bytes in a checksummed region, and never panic.
        match LanIndex::open(&bpath) {
            Err(_) => {}
            Ok(_) => panic!("flipped byte at {pos} went undetected"),
        }
    }

    // A future format version is refused up front.
    let mut future = good.clone();
    // Version u32 sits right after the 8-byte magic (little-endian).
    future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let fpath = scratch("future");
    let _fc = TempFile(fpath.clone());
    std::fs::write(&fpath, &future).unwrap();
    let err = open_err(&fpath, "future version must fail");
    assert!(
        matches!(err, StoreError::BadVersion { .. }),
        "expected BadVersion, got {err:?}"
    );

    // Wrong magic.
    let mut nomagic = good;
    nomagic[0] ^= 0xFF;
    let mpath = scratch("magic");
    let _mc = TempFile(mpath.clone());
    std::fs::write(&mpath, &nomagic).unwrap();
    let err = open_err(&mpath, "bad magic must fail");
    assert!(matches!(err, StoreError::BadMagic), "got {err:?}");

    // Opening a flat file as sharded (and vice versa) is a typed miss.
    let spath = scratch("wrongkind");
    let _sc = TempFile(spath.clone());
    built.save(&spath).expect("save");
    let err = match ShardedLanIndex::open(&spath) {
        Err(e) => e,
        Ok(_) => panic!("opening a flat file as sharded must fail"),
    };
    assert!(
        matches!(err, StoreError::MissingSection { .. }),
        "got {err:?}"
    );
}

fn open_sharded_err(path: &Path, why: &str) -> StoreError {
    match ShardedLanIndex::open(path) {
        Err(e) => e,
        Ok(_) => panic!("open unexpectedly succeeded: {why}"),
    }
}

/// Global-id maps that repeat an id (and so miss another) are refused,
/// although every id is in range, the map lengths add up to the database
/// size and every checksum is valid.
#[test]
fn sharded_maps_that_are_not_a_permutation_are_refused() {
    let ds = tiny_dataset(40);
    let mut built = ShardedLanIndex::build(&ds, &tiny_cfg(), 2);
    // Shard 1 maps 20..40; make it claim 19 (shard 0's) instead of 20.
    assert_eq!(built.global_ids[1][0], 20);
    built.global_ids[1][0] = 19;
    let path = scratch("dupids");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    let err = open_sharded_err(&path, "a repeated global id must fail");
    assert!(matches!(err, StoreError::Corrupt { .. }), "got {err:?}");
}

/// A shard count read from the file is never trusted as an allocation
/// size: neither `u64::MAX` (a capacity overflow) nor a count that is
/// merely too large to allocate may panic or abort the process.
#[test]
fn hostile_shard_counts_are_typed_errors() {
    for count in [u64::MAX, 1 << 40] {
        let mut meta = Enc::new();
        meta.put_u64(count);
        meta.put_u64(4);
        meta.put_u32_slice(&[0, 1, 2, 3]);
        let mut w = Writer::new();
        w.add_section("sharded.meta", meta);
        let path = scratch("shardcount");
        let _cleanup = TempFile(path.clone());
        w.write(&path).expect("write");
        let err = open_sharded_err(&path, "a hostile shard count must fail");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::Corrupt { .. }
            ),
            "count {count}: got {err:?}"
        );
    }
}

/// Shards decode in parallel, but when several are bad the error is the
/// first bad shard's, at every thread count.
#[test]
fn the_first_bad_shard_in_order_names_the_error() {
    let ds = tiny_dataset(60);
    let mut built = ShardedLanIndex::build(&ds, &tiny_cfg(), 3);
    // Still a permutation, but shard 1 maps one id too few and shard 2
    // one too many for the graphs they hold.
    let moved = built.global_ids[1].pop().expect("shard 1 maps ids");
    built.global_ids[2].insert(0, moved);
    let path = scratch("firsterr");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    for threads in ["1", "4"] {
        let err = lan_par::testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
            open_sharded_err(&path, "mismatched shard maps must fail")
        });
        assert!(
            err.to_string().contains("shard 1 holds"),
            "LAN_THREADS={threads}: got {err}"
        );
    }
}
