//! Beam-search suboptimal GED (the paper's "Beam" \[58\], Neuhaus, Riesen &
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
//! `g2` node or to ε: up to `width · (n2 + 1)` children, of which `width`
//! survive. A child is a `(f, g, parent, v)` tuple until it survives, and
//! only the survivors' state is copied.
//!
//! * `g` of `u -> v` is the parent's `g`, plus the label mismatch, plus the
//!   edges among mapped nodes that `v` disagrees on: `a + b − 2c` with
//!   `a = |{j < i : (u, j) ∈ E1}|`, `b = |{w ∈ N(v) : w mapped}|` and `c`
//!   the mapped neighbors of `v` whose preimage is one of those `j`. `a` is
//!   one count per level, `b` and `c` one walk over `N(v)` through the
//!   parent's inverse map (`g2` node -> `g1` index) and the level's
//!   "neighbor of `u` below `i`" mask.
//! * `h` is the label-multiset bound between `g1`'s remaining nodes and the
//!   child's unused `g2` nodes, `max(len1, len2) − Σ_l min(c1[l], c2[l])`
//!   (the value of [`crate::lower_bounds::masked_label_multiset_lb`]). The
//!   sum is taken once per parent; removing `v` from the unused side lowers
//!   it by one exactly when `c2[l(v)] <= c1[l(v)]`.
//!
//! The survivors are the `width` least children under `(f, parent, v)`,
//! and children are generated in increasing `(parent, v)` order (ε last).
//! Four exact cuts skip children that cannot survive without changing which
//! do; the bar is the `f` of the worst of a full set of `width`:
//!
//! * **(a) Bounded top-w.** `cands` holds the best `width` children so far
//!   (`offer`). A child enters a full set only with `f` strictly below
//!   the bar; on an equal `f` the earlier child wins the tie-break. Nothing
//!   is selected or sorted afterwards.
//! * **(b) Label-only pre-check.** `c ≤ min(a, b)`, so the edge term is
//!   never negative and `g_p + [l(u) ≠ l(v)] + h` bounds the child's `f`
//!   from below. When that bound is not below the bar, the `N(v)` walk is
//!   skipped.
//! * **(c) Best-first parent cutoff.** `h` is consistent under unit costs,
//!   so no child's `f` is below its parent's: mapping `u` to a `v` of its
//!   label leaves `h` unchanged (both sides lose one node of that label),
//!   and a mismatch or a deletion costs at least 1 and lowers `h` by at
//!   most 1. The frontier is stored in ascending `f`, so once a parent's
//!   `f` is not below the bar, neither is any child of it or of a later
//!   parent, and the level ends. Debug builds assert the premise on every
//!   child they score.
//! * **(d) Off-neighborhood cut.** A `v` adjacent to no image of a lower
//!   neighbor `j` of `u` has `c = 0`, so its `f` is at least `f_p + a` (by
//!   (c)'s argument for the label part). When that is not below the bar,
//!   only the unused neighbors of those images are scored, ascending.
//!
//! A step profile at `width = 4` (every pair of 47 AIDS-like queries × 64
//! graphs and of 10 SYN queries × 300 graphs, as shares of the children a
//! push-all level would score):
//!
//! | pairs | parents cut by (c) | children: of cut parents | cut by (d) | rejected by (b) | walked | ε |
//! |---|---|---|---|---|---|---|
//! | AIDS-like | 19.3 % | 21.8 % | 38.8 % | 5.7 % | 29.0 % | 4.7 % |
//! | SYN | 15.2 % | 18.8 % | 17.1 % | 10.9 % | 44.0 % | 9.2 % |
//!
//! Every term is a count of unit costs, so `g` and `f` are small integers
//! held in `f64`: the sums and bounds are exact in any order, which is what
//! makes the incremental form bit-identical to re-deriving each child from
//! scratch (`tests/kernel_equivalence.rs` holds that derivation as the
//! reference). All buffers live in `BeamScratch`; a call allocates nothing
//! once the scratch has grown to the pair's size and width.

use crate::mapping::{mapping_cost_with, NodeMapping, EPS};
use crate::scratch::{with_scratch, MappingOut};
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
/// equal elements, so the survivors of a level are one well-defined set, and
/// a NaN `f` sorts last instead of comparing equal to everything.
fn by_f_then_generation(a: &Cand, b: &Cand) -> Ordering {
    a.f.total_cmp(&b.f)
        .then_with(|| (a.parent, a.v).cmp(&(b.parent, b.v)))
}

/// Offers `c` to `cands`, the at most `width` best children seen so far,
/// best first. A full set takes `c` only if it beats the worst entry, which
/// it then evicts. Children arrive in generation order, so a latecomer
/// beats the worst entry exactly when its `f` is strictly lower, and it
/// goes after every entry of equal `f`.
fn offer(cands: &mut Vec<Cand>, width: usize, c: Cand) {
    if cands.len() >= width {
        match cands.last() {
            Some(worst) if by_f_then_generation(&c, worst) == Ordering::Less => {
                cands.pop();
            }
            _ => return,
        }
    }
    let at = cands.partition_point(|x| by_f_then_generation(x, &c) == Ordering::Less);
    cands.insert(at, c);
}

/// Whether no later child whose `f` is at least `bound` can enter `cands`:
/// the set is full and `bound` is not below its worst entry's `f` (the bar).
fn cannot_enter(cands: &[Cand], width: usize, bound: f64) -> bool {
    cands.len() >= width
        && cands
            .last()
            .is_some_and(|worst| bound.total_cmp(&worst.f) != Ordering::Less)
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
    /// `g + h` of each entry; entries are stored in ascending `f`.
    f: Vec<f64>,
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
        grow(&mut self.f, len, 0.0);
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
    /// `dense2`) unused, and every `g1` node (`labels1` per dense label)
    /// still to map.
    fn write_root(&mut self, labels1: &[u32], dense2: &[u32]) {
        self.g[0] = 0.0;
        self.unused[0] = self.n2 as u32;
        self.inv[..self.n2].fill(UNMAPPED);
        let unused_labels = &mut self.unused_labels[..self.label_slots];
        unused_labels.fill(0);
        for &l in dense2 {
            unused_labels[l as usize] += 1;
        }
        let h = self.n1.max(self.n2) as u32 - common_labels(labels1, unused_labels);
        self.f[0] = h as f64;
    }

    /// Entry `q` as `from`'s entry `c.parent` extended by `i -> c.v`.
    fn write_child(&mut self, q: usize, from: &Frontier, c: &Cand, i: usize, dense2: &[u32]) {
        let (n1, n2, label_slots) = (self.n1, self.n2, self.label_slots);
        let p = c.parent as usize;
        self.g[q] = c.g;
        self.f[q] = c.f;
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

/// `Σ_l min(c1[l], c2[l])`: the nodes the label-multiset bound can match.
fn common_labels(c1: &[u32], c2: &[u32]) -> u32 {
    c1.iter().zip(c2).map(|(&a, &b)| a.min(b)).sum()
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
    /// Every `g2` node, ascending: the `v` a parent scores by default.
    all2: Vec<NodeId>,
    /// The `g2` neighbors of the images of `u`'s lower neighbors, ascending
    /// and distinct: the `v` a parent scores under cut (d).
    near: Vec<NodeId>,
    /// The level's best children so far, best first (see `offer`).
    cands: Vec<Cand>,
    frontier: Frontier,
    next: Frontier,
}

/// Beam-search approximate GED with the given beam width, returning the
/// distance and the mapping that achieves it.
pub fn beam_ged_with_mapping(g1: &Graph, g2: &Graph, width: usize) -> (f64, NodeMapping) {
    with_scratch(|s| {
        let d = beam_ged_scratch(g1, g2, width, &mut s.beam, &mut s.out);
        // The search ran from the smaller side; `s.out` maps that side.
        let map = if g1.node_count() > g2.node_count() {
            let mut inv = vec![EPS; g1.node_count()];
            for (u, &v) in s.out.map.iter().enumerate() {
                if v != EPS {
                    inv[v as usize] = u as NodeId;
                }
            }
            inv
        } else {
            s.out.map.clone()
        };
        (d, NodeMapping { map })
    })
}

/// Beam-search approximate GED (distance only; allocation-free once this
/// thread's scratch has grown to the pair's size).
pub fn beam_ged(g1: &Graph, g2: &Graph, width: usize) -> f64 {
    with_scratch(|s| beam_ged_scratch(g1, g2, width, &mut s.beam, &mut s.out))
}

/// [`beam_ged`] on explicit buffers, leaving the best mapping — from the
/// graph with fewer nodes to the other — in `out`.
pub(crate) fn beam_ged_scratch(
    g1: &Graph,
    g2: &Graph,
    width: usize,
    b: &mut BeamScratch,
    out: &mut MappingOut,
) -> f64 {
    assert!(width >= 1, "beam width must be at least 1");
    // Search from the smaller side: shallower tree, better pruning.
    let (g1, g2) = if g1.node_count() > g2.node_count() {
        (g2, g1)
    } else {
        (g1, g2)
    };
    let n1 = g1.node_count();
    let n2 = g2.node_count();

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
    b.all2.clear();
    b.all2.extend(0..n2 as NodeId);

    b.frontier.resize(1, n1, n2, label_slots);
    b.frontier.write_root(&b.remaining1, &b.dense2);

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
            let f_p = b.frontier.f[p];
            // (c) No child of this parent or of a later one (f ≥ f_p,
            // generated later) can beat a full set's worst entry.
            if cannot_enter(&b.cands, width, f_p) {
                break;
            }
            let g_p = b.frontier.g[p];
            let unused_p = b.frontier.unused[p];
            let inv_p = b.frontier.inv(p);
            let unused_labels_p = b.frontier.unused_labels(p);
            let common_p = common_labels(&b.remaining1, unused_labels_p);
            // (d) A child `v` adjacent to no image of a lower neighbor of
            // `u` pays every one of its `edges_below` edges on top of
            // `f_p`. Once that cannot enter, score only those images'
            // neighbors.
            let targets = if cannot_enter(&b.cands, width, f_p + edges_below as f64) {
                let map_p = b.frontier.map(p);
                b.near.clear();
                for &j in lower {
                    let image = map_p[j as usize];
                    if image != EPS {
                        b.near.extend_from_slice(g2.neighbors(image));
                    }
                }
                b.near.sort_unstable();
                b.near.dedup();
                &b.near
            } else {
                &b.all2
            };
            // u -> v for each unused v, ascending.
            for &v in targets {
                if inv_p[v as usize] != UNMAPPED {
                    continue;
                }
                let label_v = b.dense2[v as usize] as usize;
                let mismatch = (label_u as usize != label_v) as u32;
                let common = common_p - (unused_labels_p[label_v] <= b.remaining1[label_v]) as u32;
                let h = len1.max(unused_p - 1) - common;
                // (b) The edge term below is never negative: skip its walk
                // when the rest of `f` already loses.
                if cannot_enter(&b.cands, width, g_p + (mismatch + h) as f64) {
                    continue;
                }
                let mut mapped_around_v = 0u32;
                let mut both = 0u32;
                for &w in g2.neighbors(v) {
                    let j = inv_p[w as usize];
                    if j != UNMAPPED {
                        mapped_around_v += 1;
                        both += b.below[j as usize] as u32;
                    }
                }
                let g = g_p + (mismatch + edges_below + mapped_around_v - 2 * both) as f64;
                let f = g + h as f64;
                debug_assert!(f >= f_p, "inconsistent h: child f {f} < parent f {f_p}");
                let c = Cand {
                    f,
                    g,
                    parent: p as u32,
                    v,
                };
                offer(&mut b.cands, width, c);
            }
            // u -> EPS.
            let g = g_p + (1 + edges_below) as f64;
            let f = g + (len1.max(unused_p) - common_p) as f64;
            debug_assert!(f >= f_p, "inconsistent h: child f {f} < parent f {f_p}");
            let c = Cand {
                f,
                g,
                parent: p as u32,
                v: EPS,
            };
            offer(&mut b.cands, width, c);
        }
        for &j in lower {
            b.below[j as usize] = false;
        }

        // Materialize the survivors, best first.
        b.next.resize(b.cands.len(), n1, n2, label_slots);
        for (q, c) in b.cands.iter().enumerate() {
            b.next.write_child(q, &b.frontier, c, i, &b.dense2);
        }
        std::mem::swap(&mut b.frontier, &mut b.next);
    }

    // The cheapest complete mapping; the earliest in frontier order on ties.
    let mut best = (f64::INFINITY, 0usize);
    for q in 0..b.frontier.len {
        let d = mapping_cost_with(g1, g2, b.frontier.map(q), &mut out.hit);
        if d.total_cmp(&best.0) == Ordering::Less {
            best = (d, q);
        }
    }
    let (d, q) = best;
    out.map.clear();
    out.map.extend_from_slice(b.frontier.map(q));
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

    fn cand(f: f64, parent: u32, v: NodeId) -> Cand {
        Cand {
            f,
            g: 0.0,
            parent,
            v,
        }
    }

    fn offer_all(cands: &[Cand], width: usize) -> Vec<(u32, NodeId)> {
        let mut kept = Vec::new();
        for &c in cands {
            offer(&mut kept, width, c);
            assert!(kept.len() <= width);
        }
        kept.iter().map(|c| (c.parent, c.v)).collect()
    }

    #[test]
    fn nan_scores_order_last_and_deterministically() {
        // With partial_cmp-or-Equal a NaN compared Equal to every
        // neighbor, so which candidates survived depended on where the NaN
        // sat. Under total_cmp it sorts after +inf and ties fall back to
        // generation order (parent, then v with ε last). Offered in
        // generation order, as the kernel does.
        let cands = [
            cand(f64::NAN, 0, 0),
            cand(3.0, 0, 1),
            cand(2.0, 0, 7),
            cand(f64::INFINITY, 0, EPS),
            cand(f64::NAN, 1, 2),
            cand(2.0, 1, 5),
            cand(2.0, 1, EPS),
        ];
        let all = offer_all(&cands, usize::MAX);
        assert_eq!(
            all,
            vec![(0, 7), (1, 5), (1, EPS), (0, 1), (0, EPS), (0, 0), (1, 2)]
        );
        assert_eq!(offer_all(&cands, 4), all[..4]);
        // The survivors are a set under a total order: offering order does
        // not change them.
        let mut reversed = cands;
        reversed.reverse();
        assert_eq!(offer_all(&reversed, 4), all[..4]);
    }

    #[test]
    fn full_set_rejects_an_equal_f_latecomer() {
        let mut kept = Vec::new();
        for c in [cand(1.0, 0, 0), cand(2.0, 0, 1), cand(2.0, 0, EPS)] {
            offer(&mut kept, 3, c);
        }
        assert!(cannot_enter(&kept, 3, 2.0));
        assert!(!cannot_enter(&kept, 3, 1.0));
        offer(&mut kept, 3, cand(2.0, 1, 0));
        let order = |cs: &[Cand]| cs.iter().map(|c| (c.parent, c.v)).collect::<Vec<_>>();
        assert_eq!(order(&kept), vec![(0, 0), (0, 1), (0, EPS)]);
        // A strictly lower f evicts the worst and goes after its equals.
        offer(&mut kept, 3, cand(1.0, 1, 1));
        assert_eq!(order(&kept), vec![(0, 0), (1, 1), (0, 1)]);
        // Room left: nothing is cut.
        assert!(!cannot_enter(&kept, 4, f64::INFINITY));
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
