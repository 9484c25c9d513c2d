//! Determinism contract of the work-stealing executor: for any pure `f`,
//! `par_map_dyn` / `par_map_indices_dyn` / `par_chunks_dyn` return output
//! bit-identical to the static chunked helpers and to a plain serial map —
//! across thread counts, grain policies, and forced schedulers, under
//! empty inputs and panics. The whole workspace's "dynamic == static ==
//! sequential" guarantee reduces to these properties plus purity of the
//! per-item closures (which the `lan-core` end-to-end tests pin).

use lan_par::{
    join, par_chunks_dyn, par_map, par_map_dyn, par_map_indices_dyn, testenv, Grain, Sched,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const GRAINS: [Grain; 5] = [
    Grain::Fine,
    Grain::Auto,
    Grain::Coarse,
    Grain::Fixed(3),
    Grain::Fixed(1000),
];

const THREAD_COUNTS: [&str; 3] = ["1", "2", "7"];

/// A deliberately skewed workload: item cost varies by two orders of
/// magnitude, so dynamic claims interleave very differently from static
/// chunks — exactly the regime where a scheduling bug would reorder or
/// drop results.
fn skewed(x: &u64) -> u64 {
    let mut acc = *x;
    let spins = if x.is_multiple_of(7) { 2000 } else { 20 };
    for i in 0..spins {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

#[test]
fn dyn_equals_static_equals_sequential_across_threads_and_grains() {
    let items: Vec<u64> = (0..257).collect();
    let serial: Vec<u64> = items.iter().map(skewed).collect();
    for threads in THREAD_COUNTS {
        for sched in ["seq", "static", "ws"] {
            testenv::with_env(
                &[("LAN_THREADS", Some(threads)), ("LAN_SCHED", Some(sched))],
                || {
                    let st = par_map(&items, skewed);
                    assert_eq!(st, serial, "static diverged (threads={threads})");
                    for grain in GRAINS {
                        let dy = par_map_dyn(&items, grain, skewed);
                        assert_eq!(
                            dy, serial,
                            "par_map_dyn diverged (threads={threads}, sched={sched}, {grain:?})"
                        );
                        let di = par_map_indices_dyn(items.len(), grain, |i| skewed(&items[i]));
                        assert_eq!(
                            di, serial,
                            "par_map_indices_dyn diverged (threads={threads}, {grain:?})"
                        );
                    }
                },
            );
        }
    }
}

#[test]
fn par_chunks_dyn_concatenates_in_order() {
    // A chunk-homomorphic f: per-item results labeled with their global
    // index. Output must be the identity labeling for every scheduler,
    // thread count, and grain.
    let items: Vec<u32> = (0..143).collect();
    for threads in THREAD_COUNTS {
        for sched in ["seq", "static", "ws"] {
            testenv::with_env(
                &[("LAN_THREADS", Some(threads)), ("LAN_SCHED", Some(sched))],
                || {
                    for grain in GRAINS {
                        let out = par_chunks_dyn(&items, grain, |offset, chunk| {
                            chunk
                                .iter()
                                .enumerate()
                                .map(|(i, &x)| (offset + i, x * 2))
                                .collect()
                        });
                        assert_eq!(out.len(), items.len());
                        for (i, &(idx, x)) in out.iter().enumerate() {
                            assert_eq!(idx, i, "sched={sched} grain={grain:?}");
                            assert_eq!(x, 2 * i as u32);
                        }
                    }
                },
            );
        }
    }
}

#[test]
fn dyn_runs_every_item_exactly_once() {
    // Cursor bookkeeping: no item may be skipped or double-claimed, even
    // when the grain does not divide the length.
    for (len, grain) in [
        (0usize, Grain::Fine),
        (1, Grain::Fixed(4)),
        (97, Grain::Fixed(8)),
        (64, Grain::Fixed(64)),
    ] {
        testenv::with_env(
            &[("LAN_THREADS", Some("7")), ("LAN_SCHED", Some("ws"))],
            || {
                let calls = AtomicUsize::new(0);
                let items: Vec<usize> = (0..len).collect();
                let out = par_map_dyn(&items, grain, |&x| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    x
                });
                assert_eq!(out, items, "len={len} grain={grain:?}");
                assert_eq!(calls.load(Ordering::Relaxed), len);
            },
        );
    }
}

#[test]
fn empty_inputs_are_fine() {
    let empty: Vec<u32> = Vec::new();
    for sched in ["seq", "static", "ws"] {
        testenv::with_env(
            &[("LAN_SCHED", Some(sched)), ("LAN_THREADS", Some("7"))],
            || {
                assert!(par_map_dyn(&empty, Grain::Fine, |&x: &u32| x).is_empty());
                assert!(par_map_indices_dyn(0, Grain::Auto, |i| i).is_empty());
                assert!(par_chunks_dyn(&empty, Grain::Coarse, |_, c| c.to_vec()).is_empty());
            },
        );
    }
}

#[test]
fn panics_propagate_not_deadlock() {
    // A panicking item must abort the whole call with a propagated panic
    // (sibling workers finish draining the cursor first, so the scope
    // joins cleanly) — never a silent partial result or a hang.
    for sched in ["seq", "static", "ws"] {
        testenv::with_env(
            &[("LAN_SCHED", Some(sched)), ("LAN_THREADS", Some("4"))],
            || {
                let items: Vec<u32> = (0..100).collect();
                let r = std::panic::catch_unwind(|| {
                    par_map_dyn(&items, Grain::Fine, |&x| {
                        if x == 63 {
                            panic!("boom at {x}");
                        }
                        x
                    })
                });
                assert!(r.is_err(), "sched={sched}: panic must propagate");
                // The executor is still usable afterwards.
                assert_eq!(par_map_dyn(&items, Grain::Auto, |&x| x + 1).len(), 100);
            },
        );
    }
}

#[test]
fn inner_fan_out_of_a_saturated_outer_runs_on_the_worker_itself() {
    // w = 4 workers on T = 4 threads (and w = T = 2): each worker's budget
    // is one thread, so a fan-out it starts never leaves its thread. The
    // caller is one of the workers, and holds to the same rule while it
    // runs its share.
    for (threads, sched) in [("4", "ws"), ("4", "static"), ("2", "ws")] {
        testenv::with_env(
            &[("LAN_THREADS", Some(threads)), ("LAN_SCHED", Some(sched))],
            || {
                let outer: Vec<u32> = (0..8).collect();
                let per_worker: Vec<(ThreadId, Vec<ThreadId>)> =
                    par_map_dyn(&outer, Grain::Fine, |_| {
                        let me = std::thread::current().id();
                        let inner: Vec<u32> = (0..16).collect();
                        let ids = par_map_dyn(&inner, Grain::Fine, |_| std::thread::current().id());
                        (me, ids)
                    });
                for (me, ids) in per_worker {
                    assert!(
                        ids.iter().all(|&id| id == me),
                        "inner item left its worker (threads={threads}, sched={sched})"
                    );
                }
            },
        );
    }
}

#[test]
fn inner_fan_out_gets_its_share_of_the_budget() {
    // w = 2 workers on T = 4 threads: each may use 2 for its own fan-out.
    // Inner items 0 and 1 wait for each other, which forces two threads
    // (a serial inner loop would time out here, not hang); the budget
    // caps it at two.
    testenv::with_env(
        &[("LAN_THREADS", Some("4")), ("LAN_SCHED", Some("ws"))],
        || {
            let outer = [0u32, 1];
            let distinct: Vec<usize> = par_map_dyn(&outer, Grain::Fine, |_| {
                let arrived = AtomicUsize::new(0);
                let ids = par_map_indices_dyn(8, Grain::Fine, |i| {
                    if i < 2 {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while arrived.load(Ordering::SeqCst) < 2 {
                            assert!(Instant::now() < deadline, "inner fan-out ran serially");
                            std::thread::yield_now();
                        }
                    }
                    std::thread::current().id()
                });
                ids.into_iter().collect::<HashSet<ThreadId>>().len()
            });
            assert_eq!(distinct, [2, 2]);
        },
    );
}

#[test]
fn nested_output_equals_the_serial_map() {
    let serial: Vec<Vec<u64>> = (0..9u64)
        .map(|o| (0..33u64).map(|i| skewed(&(o * 100 + i))).collect())
        .collect();
    for threads in ["1", "2", "4", "7"] {
        for sched in ["seq", "static", "ws"] {
            testenv::with_env(
                &[("LAN_THREADS", Some(threads)), ("LAN_SCHED", Some(sched))],
                || {
                    let nested: Vec<Vec<u64>> = par_map_indices_dyn(9, Grain::Fine, |o| {
                        let half = |lo: usize, hi: usize| {
                            par_map_indices_dyn(hi - lo, Grain::Auto, |i| {
                                skewed(&(o as u64 * 100 + (lo + i) as u64))
                            })
                        };
                        let (mut lo, hi) = join(|| half(0, 16), || half(16, 33));
                        lo.extend(hi);
                        lo
                    });
                    assert_eq!(nested, serial, "threads={threads} sched={sched}");
                },
            );
        }
    }
}

/// The thread `f` ran on, with `f`'s result.
fn on_thread<R>(f: impl FnOnce() -> R) -> (ThreadId, R) {
    let r = f();
    (std::thread::current().id(), r)
}

#[test]
fn join_returns_both_results_on_bits() {
    let a = || (0..97u64).map(|x| skewed(&x)).collect::<Vec<u64>>();
    let b = || {
        (1..200)
            .map(|x| 1.0 / x as f64)
            .fold(0.0f64, |s, x| s + x.sqrt())
    };
    let (want_a, want_b) = (a(), b());
    for threads in ["1", "2", "4", "7"] {
        testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
            let (got_a, got_b) = join(a, b);
            assert_eq!(got_a, want_a, "threads={threads}");
            assert_eq!(got_b.to_bits(), want_b.to_bits(), "threads={threads}");
        });
    }
}

#[test]
fn join_stays_on_the_caller_when_the_budget_is_one() {
    let main = std::thread::current().id();
    testenv::with_env(&[("LAN_THREADS", Some("1"))], || {
        let ((ia, _), (ib, _)) = join(|| on_thread(|| ()), || on_thread(|| ()));
        assert_eq!((ia, ib), (main, main), "LAN_THREADS=1 must not spawn");
    });
    // Two workers on two threads: each has a budget of one.
    testenv::with_env(
        &[("LAN_THREADS", Some("2")), ("LAN_SCHED", Some("ws"))],
        || {
            let per_worker = par_map_dyn(&[0u8, 1], Grain::Fine, |_| {
                let me = std::thread::current().id();
                let ((ia, _), (ib, _)) = join(|| on_thread(|| ()), || on_thread(|| ()));
                (me, ia, ib)
            });
            for (me, ia, ib) in per_worker {
                assert_eq!((ia, ib), (me, me), "a saturated worker must not spawn");
            }
        },
    );
}

#[test]
fn join_on_two_threads_uses_the_caller_and_one_helper() {
    let main = std::thread::current().id();
    testenv::with_env(&[("LAN_THREADS", Some("2"))], || {
        // Each side's own joins get half of two threads: one, so serial.
        let side = || {
            let ((x, _), (y, _)) = join(|| on_thread(|| ()), || on_thread(|| ()));
            [std::thread::current().id(), x, y]
        };
        let (a, b) = join(side, side);
        assert!(a.iter().all(|&id| id == main), "a runs on the caller");
        assert!(b.iter().all(|&id| id == b[0]), "b's nested join stays put");
        assert_ne!(b[0], main, "b runs on a spawned thread");
        let distinct: HashSet<ThreadId> = a.iter().chain(&b).copied().collect();
        assert_eq!(distinct.len(), 2);
    });
}

/// Whether a `join` started here runs its two sides on two threads.
fn join_forks() -> bool {
    let ((ia, _), (ib, _)) = join(|| on_thread(|| ()), || on_thread(|| ()));
    ia != ib
}

#[test]
fn the_callers_budget_survives_fan_outs_and_panics() {
    // Running its share sets the caller's budget to one (8 items on the
    // whole budget); if it were not restored, the next join would not fork.
    let fan_out = || par_map_dyn(&[0u32; 8], Grain::Fine, |&x| x).len();
    let panicking = || {
        std::panic::catch_unwind(|| {
            par_map_dyn(&[0u32; 8], Grain::Fine, |_| -> u32 { panic!("boom") })
        })
        .is_err()
    };
    let panicking_join = || {
        std::panic::catch_unwind(|| join(|| panic!("a"), || ()))
            .map(|_| ())
            .is_err()
    };
    testenv::with_env(
        &[("LAN_THREADS", Some("2")), ("LAN_SCHED", Some("ws"))],
        || {
            assert!(join_forks());
            assert_eq!(fan_out(), 8);
            assert!(join_forks(), "budget not restored after a fan-out");
            assert!(panicking());
            assert!(join_forks(), "budget not restored after a panic");
            assert!(panicking_join());
            assert!(join_forks(), "budget not restored after a panicking join");
        },
    );
    // Inside a worker with a budget of two (2 workers on 4 threads).
    testenv::with_env(
        &[("LAN_THREADS", Some("4")), ("LAN_SCHED", Some("ws"))],
        || {
            let ok = par_map_dyn(&[0u8, 1], Grain::Fine, |_| {
                fan_out();
                let after_fan_out = join_forks();
                panicking();
                (after_fan_out, join_forks())
            });
            assert_eq!(ok, [(true, true), (true, true)]);
        },
    );
}

#[test]
fn lan_sched_env_parsing() {
    for (raw, want) in [
        ("seq", Sched::Sequential),
        ("sequential", Sched::Sequential),
        ("static", Sched::Static),
        ("ws", Sched::WorkStealing),
        ("steal", Sched::WorkStealing),
        ("dyn", Sched::WorkStealing),
        (" WS ", Sched::WorkStealing),
    ] {
        testenv::with_env(&[("LAN_SCHED", Some(raw))], || {
            assert_eq!(lan_par::try_sched().unwrap(), want, "raw={raw:?}");
        });
    }
    testenv::with_env(&[("LAN_SCHED", None)], || {
        assert_eq!(lan_par::try_sched().unwrap(), Sched::WorkStealing);
    });
    for bad in ["", "fast", "ws2", "0"] {
        testenv::with_env(&[("LAN_SCHED", Some(bad))], || {
            let err = lan_par::try_sched().expect_err(bad);
            assert_eq!(err.key, "LAN_SCHED");
            // The total path must still run (falls back to work stealing).
            assert_eq!(lan_par::sched(), Sched::WorkStealing);
        });
    }
}

#[test]
fn grain_sizes_are_sane() {
    // Fine is always 1; Auto/Coarse scale with len/threads, never zero,
    // and cover the whole input in at most len claims.
    assert_eq!(Grain::Fine.size(1_000_000, 8), 1);
    assert_eq!(
        Grain::Fixed(0).size(10, 4),
        1,
        "zero grain cannot make progress"
    );
    for len in [0usize, 1, 7, 100, 10_000] {
        for threads in [1usize, 2, 7, 64] {
            for g in GRAINS {
                let s = g.size(len, threads);
                assert!(s >= 1, "grain {g:?} collapsed to 0 at len={len}");
            }
        }
    }
    // Coarse hands out bigger chunks than Auto on big uniform batches.
    assert!(Grain::Coarse.size(10_000, 4) >= Grain::Auto.size(10_000, 4));
}
