//! Beam-search suboptimal GED (the paper's "Beam" [58], Neuhaus, Riesen &
//! Bunke).
//!
//! The search tree is the same node-mapping tree as exact A\*
//! ([`crate::exact`]), but at each depth only the `width` most promising
//! partial mappings (by `g + h`) survive. The best complete mapping found is
//! returned; its cost is the exact cost of a valid edit path, hence an upper
//! bound on true GED. With `width = ∞` this degenerates to breadth-first
//! exact search; with `width = 1` it is a greedy matcher.
//!
//! # Cost of one level
//!
//! A level maps `g1` node `u = i` in every frontier parent to every unused
//! `g2` node or to ε: `width · (n2 + 1)` children, of which `width` survive.
//! Children are therefore *scored, then materialized*: a child is a
//! `(f, g, parent, v)` tuple until it is selected, and only the survivors'
//! state is copied.
//!
//! * `g` of `u -> v` is the parent's `g`, plus the label mismatch, plus the
//!   edges among mapped nodes that `v` disagrees on:
//!   `|{j < i : (u, j) ∈ E1}| + |{w ∈ N(v) : w mapped}| − 2 · |both|`. The
//!   first term is one count per level, the other two are one walk over
//!   `N(v)` through the parent's inverse map (`g2` node -> `g1` index) and
//!   the level's "neighbor of `u` below `i`" mask.
//! * `h` is the label-multiset bound between `g1`'s remaining nodes and the
//!   child's unused `g2` nodes, `max(len1, len2) − Σ_l min(c1[l], c2[l])`
//!   (the value of [`crate::lower_bounds::masked_label_multiset_lb`]). The
//!   sum is taken once per parent; removing `v` from the unused side lowers
//!   it by one exactly when `c2[l(v)] <= c1[l(v)]`.
//!
//! Every term is a count of unit costs, so `g` and `f` are small integers
//! held in `f64`: the sums are exact in any order, which is what makes the
//! incremental form bit-identical to re-deriving each child from scratch
//! (`tests/kernel_equivalence.rs` holds that derivation as the reference).
//! All buffers live in [`BeamScratch`]; a call allocates nothing once the
//! scratch has grown to the pair's size.

use crate::mapping::{mapping_cost_with, NodeMapping, EPS};
use crate::scratch::{with_scratch, GedScratch};
use lan_graph::{Graph, Label, NodeId};
use std::cmp::Ordering;

/// "Not mapped" in a frontier entry's inverse map.
const UNMAPPED: u32 = u32::MAX;

/// A scored, not yet materialized child: `parent`'s mapping extended by
/// `u -> v` (`v` may be [`EPS`]).
#[derive(Debug, Clone, Copy)]
struct Cand {
    f: f64,
    g: f64,
    parent: u32,
    v: NodeId,
}

/// Ascending `f`; ties in generation order — parents in frontier order,
/// then `v` ascending with ε (`NodeId::MAX`) last. A total order with no
/// equal elements, so unstable selection and sorting are deterministic, and
/// a NaN `f` sorts last instead of comparing equal to everything.
fn by_f_then_generation(a: &Cand, b: &Cand) -> Ordering {
    a.f.total_cmp(&b.f)
        .then_with(|| (a.parent, a.v).cmp(&(b.parent, b.v)))
}

/// Keeps the `width` best candidates, best first.
fn keep_best(cands: &mut Vec<Cand>, width: usize) {
    if cands.len() > width {
        cands.select_nth_unstable_by(width - 1, by_f_then_generation);
        cands.truncate(width);
    }
    cands.sort_unstable_by(by_f_then_generation);
}

/// The partial mappings of one level, as flat per-entry rows.
#[derive(Debug, Default)]
struct Frontier {
    len: usize,
    /// Row lengths of `map`, `inv` and `unused_labels`.
    n1: usize,
    n2: usize,
    label_slots: usize,
    /// Accumulated cost of each entry.
    g: Vec<f64>,
    /// Number of unused `g2` nodes of each entry.
    unused: Vec<u32>,
    /// The image of each mapped `g1` node.
    map: Vec<NodeId>,
    /// The `g1` index mapped to each `g2` node, or [`UNMAPPED`].
    inv: Vec<u32>,
    /// Unused `g2` nodes per dense label.
    unused_labels: Vec<u32>,
}

impl Frontier {
    /// Makes room for `len` entries of the given row lengths; the entries
    /// themselves are written by [`Self::write_root`] / [`Self::write_child`].
    fn resize(&mut self, len: usize, n1: usize, n2: usize, label_slots: usize) {
        fn grow<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) {
            if v.len() < len {
                v.resize(len, fill);
            }
        }
        (self.len, self.n1, self.n2, self.label_slots) = (len, n1, n2, label_slots);
        grow(&mut self.g, len, 0.0);
        grow(&mut self.unused, len, 0);
        grow(&mut self.map, len * n1, EPS);
        grow(&mut self.inv, len * n2, UNMAPPED);
        grow(&mut self.unused_labels, len * label_slots, 0);
    }

    fn map(&self, q: usize) -> &[NodeId] {
        &self.map[q * self.n1..(q + 1) * self.n1]
    }

    fn inv(&self, q: usize) -> &[u32] {
        &self.inv[q * self.n2..(q + 1) * self.n2]
    }

    fn unused_labels(&self, q: usize) -> &[u32] {
        &self.unused_labels[q * self.label_slots..(q + 1) * self.label_slots]
    }

    /// Entry 0 as the empty mapping: every `g2` node (dense labels
    /// `dense2`) unused.
    fn write_root(&mut self, dense2: &[u32]) {
        self.g[0] = 0.0;
        self.unused[0] = self.n2 as u32;
        self.inv[..self.n2].fill(UNMAPPED);
        let unused_labels = &mut self.unused_labels[..self.label_slots];
        unused_labels.fill(0);
        for &l in dense2 {
            unused_labels[l as usize] += 1;
        }
    }

    /// Entry `q` as `from`'s entry `c.parent` extended by `i -> c.v`.
    fn write_child(&mut self, q: usize, from: &Frontier, c: &Cand, i: usize, dense2: &[u32]) {
        let (n1, n2, label_slots) = (self.n1, self.n2, self.label_slots);
        let p = c.parent as usize;
        self.g[q] = c.g;
        self.unused[q] = from.unused[p];
        let map_q = &mut self.map[q * n1..(q + 1) * n1];
        map_q[..i].copy_from_slice(&from.map(p)[..i]);
        map_q[i] = c.v;
        let inv_q = &mut self.inv[q * n2..(q + 1) * n2];
        inv_q.copy_from_slice(from.inv(p));
        let unused_labels_q = &mut self.unused_labels[q * label_slots..(q + 1) * label_slots];
        unused_labels_q.copy_from_slice(from.unused_labels(p));
        if c.v != EPS {
            inv_q[c.v as usize] = i as u32;
            unused_labels_q[dense2[c.v as usize] as usize] -= 1;
            self.unused[q] -= 1;
        }
    }
}

/// Reusable buffers of the beam search.
#[derive(Debug, Default)]
pub(crate) struct BeamScratch {
    /// `g1`'s distinct labels, ascending; a label's position is its dense
    /// index, and `distinct.len()` is the slot of every label `g1` lacks.
    distinct: Vec<Label>,
    /// Dense label of each `g1` / `g2` node.
    dense1: Vec<u32>,
    dense2: Vec<u32>,
    /// Per dense label: `g1` nodes above the current level.
    remaining1: Vec<u32>,
    /// `below[j]`: `j` is a neighbor of the current level's node `u` with
    /// `j < u`.
    below: Vec<bool>,
    cands: Vec<Cand>,
    frontier: Frontier,
    next: Frontier,
}

/// Beam-search approximate GED with the given beam width, returning the
/// distance and the mapping that achieves it.
pub fn beam_ged_with_mapping(g1: &Graph, g2: &Graph, width: usize) -> (f64, NodeMapping) {
    with_scratch(|s| {
        let d = beam_ged_scratch(g1, g2, width, s);
        // The search ran from the smaller side; `s.map` maps that side.
        let map = if g1.node_count() > g2.node_count() {
            let mut inv = vec![EPS; g1.node_count()];
            for (u, &v) in s.map.iter().enumerate() {
                if v != EPS {
                    inv[v as usize] = u as NodeId;
                }
            }
            inv
        } else {
            s.map.clone()
        };
        (d, NodeMapping { map })
    })
}

/// Beam-search approximate GED (distance only; allocation-free once this
/// thread's scratch has grown to the pair's size).
pub fn beam_ged(g1: &Graph, g2: &Graph, width: usize) -> f64 {
    with_scratch(|s| beam_ged_scratch(g1, g2, width, s))
}

/// [`beam_ged`] on an explicit scratch, leaving the best mapping — from the
/// graph with fewer nodes to the other — in `s.map`.
pub(crate) fn beam_ged_scratch(g1: &Graph, g2: &Graph, width: usize, s: &mut GedScratch) -> f64 {
    assert!(width >= 1, "beam width must be at least 1");
    // Search from the smaller side: shallower tree, better pruning.
    let (g1, g2) = if g1.node_count() > g2.node_count() {
        (g2, g1)
    } else {
        (g1, g2)
    };
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let b = &mut s.beam;

    // Dense labels: positions in g1's distinct labels; one shared extra slot
    // for g2 labels g1 lacks (never matched, never equal to a g1 label).
    b.distinct.clear();
    b.distinct.extend_from_slice(g1.signature().sorted_labels());
    b.distinct.dedup();
    let absent = b.distinct.len() as u32;
    let label_slots = b.distinct.len() + 1;
    let dense = |l: &Label| b.distinct.binary_search(l).map_or(absent, |p| p as u32);
    b.dense1.clear();
    b.dense1.extend(g1.labels().iter().map(dense));
    b.dense2.clear();
    b.dense2.extend(g2.labels().iter().map(dense));
    b.remaining1.clear();
    b.remaining1.resize(label_slots, 0);
    for &l in &b.dense1 {
        b.remaining1[l as usize] += 1;
    }
    b.below.clear();
    b.below.resize(n1, false);

    b.frontier.resize(1, n1, n2, label_slots);
    b.frontier.write_root(&b.dense2);

    for i in 0..n1 {
        let u = i as NodeId;
        let label_u = b.dense1[i];
        // Neighbor lists are sorted: u's neighbors below it are a prefix.
        let around_u = g1.neighbors(u);
        let lower = &around_u[..around_u.partition_point(|&j| j < u)];
        let edges_below = lower.len() as u32;
        for &j in lower {
            b.below[j as usize] = true;
        }
        b.remaining1[label_u as usize] -= 1;
        let len1 = (n1 - i - 1) as u32;

        b.cands.clear();
        for p in 0..b.frontier.len {
            let g_p = b.frontier.g[p];
            let unused_p = b.frontier.unused[p];
            let inv_p = b.frontier.inv(p);
            let unused_labels_p = b.frontier.unused_labels(p);
            let common_p: u32 = b
                .remaining1
                .iter()
                .zip(unused_labels_p)
                .map(|(&c1, &c2)| c1.min(c2))
                .sum();
            // u -> v for each unused v.
            for (v, _) in inv_p.iter().enumerate().filter(|(_, &j)| j == UNMAPPED) {
                let label_v = b.dense2[v] as usize;
                let mut mapped_around_v = 0u32;
                let mut both = 0u32;
                for &w in g2.neighbors(v as NodeId) {
                    let j = inv_p[w as usize];
                    if j != UNMAPPED {
                        mapped_around_v += 1;
                        both += b.below[j as usize] as u32;
                    }
                }
                let step =
                    (label_u as usize != label_v) as u32 + edges_below + mapped_around_v - 2 * both;
                let common = common_p - (unused_labels_p[label_v] <= b.remaining1[label_v]) as u32;
                let g = g_p + step as f64;
                let h = len1.max(unused_p - 1) - common;
                b.cands.push(Cand {
                    f: g + h as f64,
                    g,
                    parent: p as u32,
                    v: v as NodeId,
                });
            }
            // u -> EPS.
            let g = g_p + (1 + edges_below) as f64;
            let h = len1.max(unused_p) - common_p;
            b.cands.push(Cand {
                f: g + h as f64,
                g,
                parent: p as u32,
                v: EPS,
            });
        }
        for &j in lower {
            b.below[j as usize] = false;
        }

        // Keep the `width` best and materialize them, in order.
        keep_best(&mut b.cands, width);
        b.next.resize(b.cands.len(), n1, n2, label_slots);
        for (q, c) in b.cands.iter().enumerate() {
            b.next.write_child(q, &b.frontier, c, i, &b.dense2);
        }
        std::mem::swap(&mut b.frontier, &mut b.next);
    }

    // The cheapest complete mapping; the earliest in frontier order on ties.
    let mut best = (f64::INFINITY, 0usize);
    for q in 0..b.frontier.len {
        let d = mapping_cost_with(g1, g2, b.frontier.map(q), &mut s.hit);
        if d.total_cmp(&best.0) == Ordering::Less {
            best = (d, q);
        }
    }
    let (d, q) = best;
    s.map.clear();
    s.map.extend_from_slice(b.frontier.map(q));
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_ged, ExactLimits};
    use crate::mapping::mapping_cost;
    use lan_graph::generators::{erdos_renyi, molecule_like};
    use lan_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_graphs_zero() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = molecule_like(&mut rng, 15, 3, 4, 6);
        assert_eq!(beam_ged(&g, &g, 4), 0.0);
    }

    #[test]
    fn upper_bounds_exact() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..30 {
            let g1 = erdos_renyi(&mut rng, 5, 5, 3);
            let g2 = erdos_renyi(&mut rng, 6, 6, 3);
            let exact = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            for w in [1, 4, 16] {
                let d = beam_ged(&g1, &g2, w);
                assert!(d + 1e-9 >= exact, "beam({w}) = {d} < exact {exact}");
            }
        }
    }

    #[test]
    fn wider_beam_never_worse() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..15 {
            let g1 = erdos_renyi(&mut rng, 6, 6, 3);
            let g2 = erdos_renyi(&mut rng, 6, 7, 3);
            let d_wide = beam_ged(&g1, &g2, 64);
            let exact = exact_ged(&g1, &g2, &ExactLimits::default())
                .distance()
                .unwrap();
            // A wide beam on tiny graphs should be optimal or very close.
            assert!(d_wide <= exact + 2.0, "wide beam {d_wide} vs exact {exact}");
        }
    }

    #[test]
    fn fig2_beam_reaches_optimum() {
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(beam_ged(&g, &q, 32), 5.0);
    }

    #[test]
    fn nan_scores_order_last_and_deterministically() {
        // With partial_cmp-or-Equal a NaN compared Equal to every
        // neighbor, so which candidates survived depended on where the NaN
        // sat. Under total_cmp it sorts after +inf and ties fall back to
        // generation order (parent, then v with ε last).
        let cand = |f: f64, parent: u32, v: NodeId| Cand {
            f,
            g: 0.0,
            parent,
            v,
        };
        let mut cands = vec![
            cand(f64::NAN, 0, 0),
            cand(3.0, 0, 1),
            cand(f64::INFINITY, 0, EPS),
            cand(2.0, 1, 5),
            cand(f64::NAN, 1, 2),
            cand(2.0, 1, EPS),
            cand(2.0, 0, 7),
        ];
        let order = |cs: &[Cand]| cs.iter().map(|c| (c.parent, c.v)).collect::<Vec<_>>();
        let mut all = cands.clone();
        keep_best(&mut all, usize::MAX);
        assert_eq!(
            order(&all),
            vec![(0, 7), (1, 5), (1, EPS), (0, 1), (0, EPS), (0, 0), (1, 2)]
        );
        keep_best(&mut cands, 4);
        assert_eq!(order(&cands), vec![(0, 7), (1, 5), (1, EPS), (0, 1)]);
    }

    #[test]
    fn mapping_consistency() {
        let mut rng = StdRng::seed_from_u64(44);
        let g1 = molecule_like(&mut rng, 12, 2, 4, 5);
        let g2 = molecule_like(&mut rng, 14, 2, 4, 5);
        let (d, m) = beam_ged_with_mapping(&g1, &g2, 8);
        assert!(m.is_injective());
        assert_eq!(mapping_cost(&g1, &g2, &m), d);
        assert_eq!(m.map.len(), g1.node_count());
    }

    #[test]
    fn empty_graphs() {
        let e = Graph::empty();
        assert_eq!(beam_ged(&e, &e, 4), 0.0);
        let g = Graph::from_edges(vec![0, 0], &[(0, 1)]).unwrap();
        assert_eq!(beam_ged(&e, &g, 4), 3.0);
        assert_eq!(beam_ged(&g, &e, 4), 3.0);
    }

    #[test]
    fn scales_to_paper_sized_graphs() {
        let mut rng = StdRng::seed_from_u64(45);
        let g1 = molecule_like(&mut rng, 35, 3, 4, 10);
        let g2 = molecule_like(&mut rng, 36, 3, 4, 10);
        let d = beam_ged(&g1, &g2, 8);
        assert!(d > 0.0 && d < 200.0);
    }
}
