//! The approximate GED kernels against frozen reference implementations.
//!
//! `lan-ged`'s beam search scores children incrementally and its LSAP
//! solvers walk zipped slices; the distances that come out order every
//! routing decision and every ground-truth list, so they must be the values
//! the textbook formulations give, bit for bit, with the same tie choices.
//! This file keeps those formulations — the clone-per-child beam search
//! that re-derives each child from its mapping, the index-based
//! Kuhn–Munkres and LAPJV loops, the per-cell Riesen–Bunke matrix — as
//! references that are never optimized, and compares distance bits,
//! [`NodeMapping`]s and `row_to_col` assignments. `BestOfThree`, which
//! forks its Hungarian solve onto a second thread when the thread budget
//! allows, is held to the serial minimum of those references under every
//! budget.

use lan_ged::assignment::{
    hungarian, hungarian_with, lapjv, lapjv_with, AssignScratch, CostMatrix,
};
use lan_ged::beam::{beam_ged, beam_ged_with_mapping};
use lan_ged::bipartite::{
    bipartite_ged, bipartite_ged_with_mapping, rb_cost_matrix, rb_cost_matrix_into, Solver,
};
use lan_ged::engine::{ged, GedMethod, FORK_MIN_ROWS};
use lan_ged::lower_bounds::{masked_label_multiset_lb, sorted_label_multiset_lb};
use lan_ged::mapping::{mapping_cost, NodeMapping, EPS};
use lan_ged::GedScratch;
use lan_graph::generators::{erdos_renyi, molecule_like, power_law_like};
use lan_graph::perturb::perturb;
use lan_graph::{Graph, Label, NodeId};
use lan_par::{par_map_dyn, testenv, Grain};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Frozen references.
// ---------------------------------------------------------------------

/// Kuhn–Munkres with potentials, indexing the matrix cell by cell.
#[allow(clippy::needless_range_loop)] // the index form is the reference
fn ref_hungarian(c: &CostMatrix) -> (Vec<usize>, f64) {
    let n = c.n();
    if n == 0 {
        return (vec![], 0.0);
    }
    const INF: f64 = f64::INFINITY;
    let mut u = vec![0.0; n + 1];
    let mut v = vec![0.0; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = c.get(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut row_to_col = vec![0usize; n];
    for j in 1..=n {
        if p[j] > 0 {
            row_to_col[p[j] - 1] = j - 1;
        }
    }
    let cost = (0..n).map(|i| c.get(i, row_to_col[i])).sum();
    (row_to_col, cost)
}

/// Jonker–Volgenant LAPJV, indexing the matrix cell by cell.
#[allow(clippy::needless_range_loop)] // the index form is the reference
fn ref_lapjv(c: &CostMatrix) -> (Vec<usize>, f64) {
    let n = c.n();
    if n == 0 {
        return (vec![], 0.0);
    }
    const INF: f64 = f64::INFINITY;
    let mut x = vec![usize::MAX; n];
    let mut y = vec![usize::MAX; n];
    let mut vv = vec![0.0; n];

    for j in (0..n).rev() {
        let mut imin = 0usize;
        let mut min = c.get(0, j);
        for i in 1..n {
            let cij = c.get(i, j);
            if cij < min {
                min = cij;
                imin = i;
            }
        }
        vv[j] = min;
        if x[imin] == usize::MAX {
            x[imin] = j;
            y[j] = imin;
        }
    }

    let mut free: Vec<usize> = (0..n).filter(|&i| x[i] == usize::MAX).collect();
    for _ in 0..2 {
        let mut k = 0usize;
        let nfree = free.len();
        let mut next_free = Vec::new();
        while k < nfree {
            let i = free[k];
            k += 1;
            let mut u1 = c.get(i, 0) - vv[0];
            let mut u2 = INF;
            let mut j1 = 0usize;
            let mut j2 = usize::MAX;
            for j in 1..n {
                let h = c.get(i, j) - vv[j];
                if h < u2 {
                    if h < u1 {
                        u2 = u1;
                        j2 = j1;
                        u1 = h;
                        j1 = j;
                    } else {
                        u2 = h;
                        j2 = j;
                    }
                }
            }
            let mut jbest = j1;
            let i0 = y[jbest];
            if u1 < u2 {
                vv[jbest] -= u2 - u1;
            } else if i0 != usize::MAX {
                if j2 == usize::MAX {
                    next_free.push(i);
                    continue;
                }
                jbest = j2;
            }
            x[i] = jbest;
            let prev = y[jbest];
            y[jbest] = i;
            if prev != usize::MAX {
                next_free.push(prev);
                x[prev] = usize::MAX;
            }
        }
        free = next_free;
        if free.is_empty() {
            break;
        }
    }

    for &f in &free {
        let mut d: Vec<f64> = (0..n).map(|j| c.get(f, j) - vv[j]).collect();
        let mut pred = vec![f; n];
        let mut done = vec![false; n];
        let mut ready = Vec::new();
        let endj;
        loop {
            let mut jmin = usize::MAX;
            let mut dmin = INF;
            for j in 0..n {
                if !done[j] && d[j] < dmin {
                    dmin = d[j];
                    jmin = j;
                }
            }
            assert!(jmin != usize::MAX, "LAPJV: no reachable column");
            done[jmin] = true;
            ready.push(jmin);
            if y[jmin] == usize::MAX {
                endj = jmin;
                for &j in &ready {
                    if j != jmin {
                        vv[j] += d[j] - dmin;
                    }
                }
                break;
            }
            let i = y[jmin];
            for j in 0..n {
                if !done[j] {
                    let nd = dmin + c.get(i, j) - vv[j] - (c.get(i, jmin) - vv[jmin]);
                    if nd < d[j] {
                        d[j] = nd;
                        pred[j] = i;
                    }
                }
            }
        }
        let mut j = endj;
        loop {
            let i = pred[j];
            y[j] = i;
            std::mem::swap(&mut x[i], &mut j);
            if j == usize::MAX {
                break;
            }
        }
    }

    let cost = (0..n).map(|i| c.get(i, x[i])).sum();
    (x, cost)
}

/// The Riesen–Bunke matrix, sorting both neighbor-label lists per cell.
fn ref_rb_cost_matrix(g1: &Graph, g2: &Graph) -> CostMatrix {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let n = n1 + n2;
    let forbid = (n as f64 + 1.0) * (g1.edge_count() + g2.edge_count() + n) as f64 + 1e6;
    let sorted_around = |g: &Graph, x: NodeId| -> Vec<Label> {
        let mut ls: Vec<Label> = g.neighbors(x).iter().map(|&y| g.label(y)).collect();
        ls.sort_unstable();
        ls
    };
    let mut c = CostMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            let v = match (i < n1, j < n2) {
                (true, true) => {
                    let (u, w) = (i as NodeId, j as NodeId);
                    let label = if g1.label(u) != g2.label(w) { 1.0 } else { 0.0 };
                    label + sorted_label_multiset_lb(&sorted_around(g1, u), &sorted_around(g2, w))
                }
                (true, false) if j - n2 == i => 1.0 + g1.degree(i as NodeId) as f64,
                (false, true) if i - n1 == j => 1.0 + g2.degree(j as NodeId) as f64,
                (false, false) => 0.0,
                _ => forbid,
            };
            c.set(i, j, v);
        }
    }
    c
}

/// Bipartite GED from the reference matrix and the reference solver.
fn ref_bipartite(g1: &Graph, g2: &Graph, solver: Solver) -> (f64, NodeMapping) {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    if n1 == 0 && n2 == 0 {
        return (0.0, NodeMapping { map: vec![] });
    }
    if g1 == g2 {
        return (0.0, NodeMapping::identity(n1));
    }
    let c = ref_rb_cost_matrix(g1, g2);
    let (row_to_col, _) = match solver {
        Solver::Hungarian => ref_hungarian(&c),
        Solver::Vj => ref_lapjv(&c),
    };
    let mut map = vec![EPS; n1];
    for (u, &j) in row_to_col.iter().take(n1).enumerate() {
        if j < n2 {
            map[u] = j as NodeId;
        }
    }
    let mapping = NodeMapping { map };
    (mapping_cost(g1, g2, &mapping), mapping)
}

#[derive(Clone)]
struct Partial {
    map: Vec<NodeId>,
    used: Vec<bool>,
    g: f64,
    f: f64,
}

/// Beam search that clones the parent for every child, recounts the child's
/// edge disagreements against every mapped node with `has_edge`, and streams
/// the remaining label multisets for its heuristic. The stable sort keeps
/// generation order among equal `f`.
fn ref_beam(g1: &Graph, g2: &Graph, width: usize) -> (f64, NodeMapping) {
    assert!(width >= 1);
    if g1.node_count() > g2.node_count() {
        let (d, m) = ref_beam(g2, g1, width);
        let mut inv = vec![EPS; g1.node_count()];
        for (u, &v) in m.map.iter().enumerate() {
            if v != EPS {
                inv[v as usize] = u as NodeId;
            }
        }
        return (d, NodeMapping { map: inv });
    }
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let suffixes: Vec<Vec<Label>> = (0..=n1)
        .map(|i| {
            let mut s = g1.labels()[i..].to_vec();
            s.sort_unstable();
            s
        })
        .collect();
    let mut g2_sorted: Vec<(Label, NodeId)> = g2
        .labels()
        .iter()
        .enumerate()
        .map(|(v, &l)| (l, v as NodeId))
        .collect();
    g2_sorted.sort_unstable();
    let heuristic = |p: &Partial| -> f64 {
        masked_label_multiset_lb(&suffixes[p.map.len()], &g2_sorted, |v| p.used[v as usize])
    };

    let mut frontier = vec![Partial {
        map: Vec::new(),
        used: vec![false; n2],
        g: 0.0,
        f: 0.0,
    }];
    for i in 0..n1 {
        let u = i as NodeId;
        let mut next: Vec<Partial> = Vec::new();
        for p in &frontier {
            for v in 0..n2 as NodeId {
                if p.used[v as usize] {
                    continue;
                }
                let mut g = p.g;
                if g1.label(u) != g2.label(v) {
                    g += 1.0;
                }
                for j in 0..i {
                    let pv = p.map[j];
                    let e1 = g1.has_edge(u, j as NodeId);
                    let e2 = pv != EPS && g2.has_edge(v, pv);
                    if e1 != e2 {
                        g += 1.0;
                    }
                }
                let mut q = p.clone();
                q.map.push(v);
                q.used[v as usize] = true;
                q.g = g;
                q.f = g + heuristic(&q);
                next.push(q);
            }
            let mut g = p.g + 1.0;
            for j in 0..i {
                if g1.has_edge(u, j as NodeId) {
                    g += 1.0;
                }
            }
            let mut q = p.clone();
            q.map.push(EPS);
            q.g = g;
            q.f = g + heuristic(&q);
            next.push(q);
        }
        next.sort_by(|a, b| a.f.partial_cmp(&b.f).unwrap());
        next.truncate(width);
        frontier = next;
    }

    // The first of the cheapest complete mappings.
    let mut best: Option<(f64, NodeMapping)> = None;
    for p in frontier {
        let m = NodeMapping { map: p.map };
        let d = mapping_cost(g1, g2, &m);
        if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
            best = Some((d, m));
        }
    }
    best.expect("beam frontier never empty")
}

/// `BestOfThree` as one thread computes it: zero on equal graphs, else the
/// minimum of Hungarian, VJ and beam, in that order.
fn ref_best_of_three(g1: &Graph, g2: &Graph, width: usize) -> f64 {
    if g1 == g2 {
        return 0.0;
    }
    let h = ref_bipartite(g1, g2, Solver::Hungarian).0;
    let v = ref_bipartite(g1, g2, Solver::Vj).0;
    let b = ref_beam(g1, g2, width).0;
    h.min(v).min(b)
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

const WIDTHS: [usize; 3] = [1, 4, 16];

/// One graph of the given family, deterministic in `seed`.
fn graph_of(family: u8, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 6 {
        // AIDS-like molecules: 51 labels, 20–32 nodes.
        0 => {
            let n = rng.gen_range(20..=32);
            let extra = rng.gen_range(0..=3);
            molecule_like(&mut rng, n, extra, 4, 51)
        }
        // Uniform random graphs.
        1 => {
            let n = rng.gen_range(2..=14);
            let m = rng.gen_range(0..=2 * n);
            erdos_renyi(&mut rng, n, m, 4)
        }
        // SYN: the power-law generator at the dataset's size and labels.
        2 => {
            let n = rng.gen_range(6..=14);
            let extra = rng.gen_range(0..=3);
            power_law_like(&mut rng, n, 2, extra, 5)
        }
        // Tie-heavy: at most three labels, so cost matrices and beam
        // frontiers are full of equal values.
        3 => {
            let n = rng.gen_range(3..=16);
            let labels = rng.gen_range(1..=3);
            molecule_like(&mut rng, n, 2, 4, labels)
        }
        4 => {
            let n = rng.gen_range(2..=12);
            let labels = rng.gen_range(1..=3);
            erdos_renyi(&mut rng, n, n + 2, labels)
        }
        // Degenerate sizes.
        _ => match seed % 3 {
            0 => Graph::empty(),
            1 => Graph::from_edges(vec![(seed % 5) as Label], &[]).unwrap(),
            _ => Graph::from_edges(vec![0, (seed % 2) as Label], &[(0, 1)]).unwrap(),
        },
    }
}

/// A pair: two independent graphs, or a graph and a 1–4 edit perturbation
/// of it (what a held-out query is to its database graph).
fn pair_of(family: u8, near: bool, s1: u64, s2: u64) -> (Graph, Graph) {
    let a = graph_of(family, s1);
    let b = if near && a.node_count() > 0 {
        let mut rng = StdRng::seed_from_u64(s2);
        let t = rng.gen_range(1..=4);
        perturb(&mut rng, &a, t, 5).0
    } else {
        // Half of the time from the neighboring family, so sizes and label
        // alphabets differ across the pair.
        graph_of(family.wrapping_add((s2 % 2) as u8 * 5), s2)
    };
    (a, b)
}

fn assert_kernels_match(g1: &Graph, g2: &Graph) {
    // The shared matrix.
    let want_c = ref_rb_cost_matrix(g1, g2);
    let got_c = rb_cost_matrix(g1, g2);
    assert_eq!(got_c.n(), want_c.n());
    for i in 0..want_c.n() {
        for j in 0..want_c.n() {
            assert_eq!(got_c.get(i, j).to_bits(), want_c.get(i, j).to_bits());
        }
    }
    // LSAP: assignment choice, not just cost.
    let (want_rows, want_cost) = ref_hungarian(&want_c);
    let got = hungarian(&got_c);
    assert_eq!(got.row_to_col, want_rows, "hungarian row_to_col");
    assert_eq!(got.cost.to_bits(), want_cost.to_bits());
    let (want_rows, want_cost) = ref_lapjv(&want_c);
    let got = lapjv(&got_c);
    assert_eq!(got.row_to_col, want_rows, "lapjv row_to_col");
    assert_eq!(got.cost.to_bits(), want_cost.to_bits());

    // Bipartite distances and mappings.
    let mut want_min = f64::INFINITY;
    for solver in [Solver::Hungarian, Solver::Vj] {
        let (want_d, want_m) = ref_bipartite(g1, g2, solver);
        let (got_d, got_m) = bipartite_ged_with_mapping(g1, g2, solver);
        assert_eq!(got_d.to_bits(), want_d.to_bits(), "{solver:?} distance");
        assert_eq!(got_m, want_m, "{solver:?} mapping");
        assert_eq!(bipartite_ged(g1, g2, solver).to_bits(), want_d.to_bits());
        want_min = want_min.min(want_d);
    }

    // Beam distances and mappings, and the composed method.
    for width in WIDTHS {
        let (want_d, want_m) = ref_beam(g1, g2, width);
        let (got_d, got_m) = beam_ged_with_mapping(g1, g2, width);
        assert_eq!(got_d.to_bits(), want_d.to_bits(), "beam({width}) distance");
        assert_eq!(got_m, want_m, "beam({width}) mapping");
        assert_eq!(beam_ged(g1, g2, width).to_bits(), want_d.to_bits());

        let bo3 = ged(g1, g2, &GedMethod::BestOfThree { beam_width: width }).unwrap();
        assert_eq!(
            bo3.to_bits(),
            want_min.min(want_d).to_bits(),
            "bo3({width})"
        );
        let h = ged(g1, g2, &GedMethod::Hungarian).unwrap();
        let v = ged(g1, g2, &GedMethod::Vj).unwrap();
        let b = ged(g1, g2, &GedMethod::Beam { width }).unwrap();
        assert_eq!(bo3.to_bits(), h.min(v).min(b).to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every kernel equals its reference in both argument orders (the beam
    /// search swaps to the smaller side and inverts the mapping). All cases
    /// of a property run on one thread, so the per-thread `GedScratch` is
    /// one long-lived scratch reused across mixed sizes and families.
    #[test]
    fn kernels_match_references(
        family in 0u8..6, near in any::<bool>(), s1 in any::<u64>(), s2 in any::<u64>(),
    ) {
        let (a, b) = pair_of(family, near, s1, s2);
        assert_kernels_match(&a, &b);
        assert_kernels_match(&b, &a);
    }

    /// LSAP solvers on plain random matrices with many ties, one scratch
    /// across sizes.
    #[test]
    fn lsap_matches_references_on_tied_matrices(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = AssignScratch::new();
        for _ in 0..8 {
            let n = rng.gen_range(0..=14);
            let span = rng.gen_range(1..=6);
            let data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0..span) as f64).collect();
            let c = CostMatrix::from_vec(n, data);
            let (want_rows, want_cost) = ref_hungarian(&c);
            let got = hungarian_with(&c, &mut scratch);
            prop_assert_eq!(&got.row_to_col, &want_rows);
            prop_assert_eq!(got.cost.to_bits(), want_cost.to_bits());
            let (want_rows, want_cost) = ref_lapjv(&c);
            let got = lapjv_with(&c, &mut scratch);
            prop_assert_eq!(&got.row_to_col, &want_rows);
            prop_assert_eq!(got.cost.to_bits(), want_cost.to_bits());
        }
    }
}

/// The sizes the `aids-ged` workload runs at, on near-duplicate pairs, with
/// one explicit scratch for the matrices.
#[test]
fn molecule_pairs_match_references() {
    let mut rng = StdRng::seed_from_u64(0xa1d5);
    let mut s = GedScratch::new();
    for round in 0..40 {
        let n = rng.gen_range(20..=32);
        let a = molecule_like(&mut rng, n, round % 4, 4, 51);
        let b = if round % 2 == 0 {
            perturb(&mut rng, &a, 1 + round % 4, 51).0
        } else {
            let n = rng.gen_range(20..=32);
            molecule_like(&mut rng, n, round % 3, 4, 51)
        };
        assert_kernels_match(&a, &b);
        assert_kernels_match(&b, &a);
        rb_cost_matrix_into(&a, &b, &mut s);
        let want = ref_rb_cost_matrix(&a, &b);
        assert_eq!(s.cost.n(), want.n());
        for i in 0..want.n() {
            assert_eq!(s.cost.row(i), want.row(i));
        }
    }
}

#[test]
fn empty_and_singleton_graphs_match_references() {
    let e = Graph::empty();
    let one = Graph::from_edges(vec![3], &[]).unwrap();
    let other = Graph::from_edges(vec![4], &[]).unwrap();
    let edge = Graph::from_edges(vec![3, 3], &[(0, 1)]).unwrap();
    let all = [e, one, other, edge];
    for a in &all {
        for b in &all {
            assert_kernels_match(a, b);
        }
    }
}

/// Forked and serial `BestOfThree` calls return the frozen serial value on
/// bits: on molecule and power-law pairs on both sides of
/// [`FORK_MIN_ROWS`], from the main thread at 1, 2 and 4 threads, and from
/// inside fan-out workers whose budget is one (serial) or two (forks).
#[test]
fn best_of_three_forked_equals_the_serial_reference() {
    let mut rng = StdRng::seed_from_u64(0xb03);
    let mut pairs: Vec<(Graph, Graph)> = Vec::new();
    for n in [6, 10, 14, 17, 20, 26, 32] {
        let a = molecule_like(&mut rng, n, 2, 4, 51);
        let near = perturb(&mut rng, &a, 2, 51).0;
        let far = molecule_like(&mut rng, n + 1, 1, 4, 51);
        pairs.push((a.clone(), near));
        pairs.push((far, a));
        let p = power_law_like(&mut rng, n, 2, 2, 5);
        let q = power_law_like(&mut rng, n + 2, 2, 1, 5);
        pairs.push((p, q));
    }
    let rows = |(a, b): &(Graph, Graph)| a.node_count() + b.node_count();
    assert!(pairs.iter().any(|p| rows(p) < FORK_MIN_ROWS));
    assert!(pairs.iter().any(|p| rows(p) >= FORK_MIN_ROWS));
    let want: Vec<Vec<u64>> = pairs
        .iter()
        .map(|(a, b)| {
            WIDTHS
                .iter()
                .map(|&w| ref_best_of_three(a, b, w).to_bits())
                .collect()
        })
        .collect();
    let all = || -> Vec<Vec<u64>> {
        pairs
            .iter()
            .map(|(a, b)| {
                WIDTHS
                    .iter()
                    .map(|&beam_width| {
                        ged(a, b, &GedMethod::BestOfThree { beam_width })
                            .unwrap()
                            .to_bits()
                    })
                    .collect()
            })
            .collect()
    };
    for threads in ["1", "2", "4"] {
        testenv::with_env(&[("LAN_THREADS", Some(threads))], || {
            assert_eq!(all(), want, "main thread, LAN_THREADS={threads}");
            // Two workers: a budget of one at 2 threads, of two at 4.
            for got in par_map_dyn(&[0u8, 1], Grain::Fine, |_| all()) {
                assert_eq!(got, want, "fan-out worker, LAN_THREADS={threads}");
            }
        });
    }
}
