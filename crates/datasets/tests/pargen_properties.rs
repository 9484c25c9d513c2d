//! Determinism contract of `Dataset::generate_par`: the per-stream RNG
//! scheme must make generation a pure function of the spec — independent
//! of thread count — because the benchmark workloads and the serving
//! binary generate their datasets with it and assume the bytes never move.

use lan_datasets::{Dataset, DatasetSpec};
use lan_par::testenv;

fn spec() -> DatasetSpec {
    DatasetSpec::syn().with_graphs(61).with_queries(20)
}

#[test]
fn parallel_generation_is_thread_count_invariant() {
    let generate = |threads| {
        testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
            Dataset::generate_par(spec())
        })
    };
    // Reference instance: the serial loop on one thread.
    let reference = generate("1");
    for threads in ["2", "7"] {
        let d = generate(threads);
        assert_eq!(
            d.graphs, reference.graphs,
            "graphs diverged (threads={threads})"
        );
        assert_eq!(
            d.queries, reference.queries,
            "queries diverged (threads={threads})"
        );
        assert_eq!(d.split.train, reference.split.train);
        assert_eq!(d.split.val, reference.split.val);
        assert_eq!(d.split.test, reference.split.test);
    }
}

#[test]
fn counts_and_split_validity() {
    let d = Dataset::generate_par(spec());
    assert_eq!(d.graphs.len(), 61);
    assert_eq!(d.queries.len(), 20);
    assert_eq!(d.split.train.len(), 12);
    assert_eq!(d.split.val.len(), 4);
    assert_eq!(d.split.test.len(), 4);
    let mut all: Vec<usize> = d
        .split
        .train
        .iter()
        .chain(&d.split.val)
        .chain(&d.split.test)
        .copied()
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..20).collect::<Vec<_>>());
}

#[test]
fn seed_controls_the_instance() {
    let a = Dataset::generate_par(spec());
    let b = Dataset::generate_par(spec());
    assert_eq!(
        a.graphs, b.graphs,
        "same seed must reproduce bit-identically"
    );
    let c = Dataset::generate_par(spec().with_seed(987_654));
    assert_ne!(
        a.graphs, c.graphs,
        "different seed must change the instance"
    );
}

#[test]
fn stats_still_near_table1_targets() {
    // The per-stream scheme is a different instance but the same
    // distribution: Table I shape targets must keep holding.
    let d = Dataset::generate_par(DatasetSpec::syn().with_graphs(120).with_queries(5));
    let target = d.spec.avg_nodes as f64;
    let avg = d.avg_nodes();
    assert!(
        (avg - target).abs() / target < 0.25,
        "avg nodes {avg} vs target {target}"
    );
    assert!(d.avg_edges() >= avg * 0.8, "too sparse");
}
