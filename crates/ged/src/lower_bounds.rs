//! Admissible lower bounds on GED.
//!
//! Used as the A\* heuristic, as cheap filters, and as test oracles (every
//! lower bound must be ≤ the exact GED ≤ every approximation).

use lan_graph::{Graph, Label, NodeId};

/// Label-multiset lower bound on the *node* edit cost between two label
/// multisets: `max(|A|, |B|) - |A ∩ B|` where the intersection is the
/// multiset intersection.
///
/// Every node mapping must relabel nodes whose labels cannot be matched and
/// delete/insert the size difference, so this bounds node edits from below.
pub fn label_multiset_lb(a: &[Label], b: &[Label]) -> f64 {
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_unstable();
    sb.sort_unstable();
    sorted_label_multiset_lb(&sa, &sb)
}

/// [`label_multiset_lb`] over *pre-sorted* slices: a pure merge walk, no
/// allocation. This is the hot-path form — callers pass
/// `Graph::signature().sorted_labels()` (or scratch buffers they sorted
/// themselves). The allocating [`label_multiset_lb`] stays as the test
/// oracle.
pub fn sorted_label_multiset_lb(sa: &[Label], sb: &[Label]) -> f64 {
    debug_assert!(sa.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(sb.windows(2).all(|w| w[0] <= w[1]));
    let mut i = 0;
    let mut j = 0;
    let mut common = 0usize;
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    (sa.len().max(sb.len()) - common) as f64
}

/// [`label_multiset_lb`] between a pre-sorted label slice and the labels of
/// the `g2` nodes *not* excluded by `used`, streamed in sorted order from
/// `g2_sorted` (the graph's labels paired with their node ids, sorted by
/// label). No allocation — this is the per-expansion heuristic of the A\*
/// search, where the remaining `g2` multiset changes with every partial
/// mapping. (The beam search derives the same value per child from label
/// counts; see [`crate::beam`].)
pub fn masked_label_multiset_lb(
    sorted_rem1: &[Label],
    g2_sorted: &[(Label, NodeId)],
    used: impl Fn(NodeId) -> bool,
) -> f64 {
    debug_assert!(sorted_rem1.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(g2_sorted.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut i = 0;
    let mut common = 0usize;
    let mut len2 = 0usize;
    for &(lab, v) in g2_sorted {
        if used(v) {
            continue;
        }
        len2 += 1;
        while i < sorted_rem1.len() && sorted_rem1[i] < lab {
            i += 1;
        }
        if i < sorted_rem1.len() && sorted_rem1[i] == lab {
            common += 1;
            i += 1;
        }
    }
    (sorted_rem1.len().max(len2) - common) as f64
}

/// Full label-and-size lower bound on GED:
/// node part (label multiset) + edge part (`| |E1| - |E2| |`).
///
/// Any edit path must perform at least `| |E1| - |E2| |` edge insertions or
/// deletions in excess, independently of the node edits counted by the label
/// bound, so the sum is admissible.
pub fn label_size_lb(g1: &Graph, g2: &Graph) -> f64 {
    let node_lb = sorted_label_multiset_lb(
        g1.signature().sorted_labels(),
        g2.signature().sorted_labels(),
    );
    let edge_lb = (g1.edge_count() as f64 - g2.edge_count() as f64).abs();
    node_lb + edge_lb
}

/// Degree-sequence edge lower bound: at least
/// `ceil(Σ |d1_(i) - d2_(i)| / 2)` edge edits are needed, where the two
/// degree sequences are sorted the same way and the shorter one is padded
/// with zeros.
///
/// Admissibility: fix any node mapping `φ`. For a matched pair `(u, φ(u))`,
/// `|deg(u) - deg(φ(u))|` is at most the number of non-preserved `G1`-edges
/// at `u` plus non-hit `G2`-edges at `φ(u)`; a deleted (inserted) node
/// contributes its full degree, all of whose edges must be deleted
/// (inserted). Summing over the padded pairing induced by `φ`, every edge
/// deletion/insertion is counted at most twice, so
/// `Σ |Δdeg| ≤ 2·(edge edits)`. The same-order sorted pairing minimizes
/// `Σ |Δdeg|` over all pairings, hence the bound holds for every `φ`.
pub fn degree_sequence_edge_lb(g1: &Graph, g2: &Graph) -> f64 {
    let d1 = g1.signature().degree_sequence();
    let d2 = g2.signature().degree_sequence();
    let (long, short) = if d1.len() >= d2.len() {
        (d1, d2)
    } else {
        (d2, d1)
    };
    let mut total: u64 = 0;
    for (i, &a) in long.iter().enumerate() {
        let b = short.get(i).copied().unwrap_or(0);
        total += a.abs_diff(b) as u64;
    }
    total.div_ceil(2) as f64
}

/// Tier-2 cascade bound: label-multiset node part + the stronger of the
/// size and degree-sequence edge parts. Dominates [`label_size_lb`]
/// (`Σ |Δdeg| / 2 ≥ | |E1| - |E2| |` since degree sums are `2|E|`), while
/// staying `O(n)` on precomputed signatures.
pub fn label_degree_lb(g1: &Graph, g2: &Graph) -> f64 {
    let node_lb = sorted_label_multiset_lb(
        g1.signature().sorted_labels(),
        g2.signature().sorted_labels(),
    );
    let size_edge = (g1.edge_count() as f64 - g2.edge_count() as f64).abs();
    node_lb + degree_sequence_edge_lb(g1, g2).max(size_edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_graph::Graph;

    #[test]
    fn identical_graphs_zero() {
        let g = Graph::from_edges(vec![0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(label_size_lb(&g, &g), 0.0);
    }

    #[test]
    fn multiset_bound_examples() {
        assert_eq!(label_multiset_lb(&[0, 0, 1], &[0, 1, 1]), 1.0);
        assert_eq!(label_multiset_lb(&[0, 0], &[0, 0, 0]), 1.0);
        assert_eq!(label_multiset_lb(&[], &[1, 2]), 2.0);
        assert_eq!(label_multiset_lb(&[], &[]), 0.0);
        assert_eq!(label_multiset_lb(&[5], &[6]), 1.0);
    }

    #[test]
    fn edge_part_counts() {
        let g1 = Graph::from_edges(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let g2 = Graph::from_edges(vec![0, 0, 0], &[(0, 1)]).unwrap();
        assert_eq!(label_size_lb(&g1, &g2), 2.0);
    }

    #[test]
    fn sorted_variant_matches_allocating_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xded);
        for _ in 0..200 {
            let na = rng.gen_range(0..12);
            let nb = rng.gen_range(0..12);
            let a: Vec<Label> = (0..na).map(|_| rng.gen_range(0..5)).collect();
            let b: Vec<Label> = (0..nb).map(|_| rng.gen_range(0..5)).collect();
            let mut sa = a.clone();
            let mut sb = b.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(
                label_multiset_lb(&a, &b),
                sorted_label_multiset_lb(&sa, &sb)
            );
        }
    }

    #[test]
    fn signature_bound_matches_slice_oracle() {
        let g1 = Graph::from_edges(vec![2, 0, 1, 0], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let g2 = Graph::from_edges(vec![0, 1, 2], &[(0, 2)]).unwrap();
        assert_eq!(
            sorted_label_multiset_lb(
                g1.signature().sorted_labels(),
                g2.signature().sorted_labels()
            ),
            label_multiset_lb(g1.labels(), g2.labels())
        );
    }

    #[test]
    fn masked_variant_matches_allocating_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xbee);
        for _ in 0..200 {
            let na = rng.gen_range(0..10);
            let n2 = rng.gen_range(0..10usize);
            let mut a: Vec<Label> = (0..na).map(|_| rng.gen_range(0..4)).collect();
            a.sort_unstable();
            let labels2: Vec<Label> = (0..n2).map(|_| rng.gen_range(0..4)).collect();
            let used: Vec<bool> = (0..n2).map(|_| rng.gen_bool(0.4)).collect();
            let mut g2_sorted: Vec<(Label, NodeId)> = labels2
                .iter()
                .enumerate()
                .map(|(v, &l)| (l, v as NodeId))
                .collect();
            g2_sorted.sort_unstable();
            let rem2: Vec<Label> = (0..n2).filter(|&v| !used[v]).map(|v| labels2[v]).collect();
            assert_eq!(
                masked_label_multiset_lb(&a, &g2_sorted, |v| used[v as usize]),
                label_multiset_lb(&a, &rem2)
            );
        }
    }

    #[test]
    fn degree_bound_examples() {
        // Triangle vs path on equal labels: degree sequences [2,2,2] vs
        // [2,1,1] -> sum |Δ| = 2 -> 1 edge edit; size bound also 1.
        let tri = Graph::from_edges(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let path = Graph::from_edges(vec![0, 0, 0], &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(degree_sequence_edge_lb(&tri, &path), 1.0);
        assert_eq!(label_degree_lb(&tri, &path), 1.0);

        // Star vs path on 4 equal-label nodes: same |E|, but degree
        // sequences [3,1,1,1] vs [2,2,1,1] differ -> the degree bound sees
        // an edit the size bound misses.
        let star = Graph::from_edges(vec![0; 4], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let p4 = Graph::from_edges(vec![0; 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(label_size_lb(&star, &p4), 0.0);
        assert_eq!(degree_sequence_edge_lb(&star, &p4), 1.0);
        assert_eq!(label_degree_lb(&star, &p4), 1.0);
    }

    #[test]
    fn degree_bound_dominates_size_bound() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..50 {
            let g1 = lan_graph::generators::molecule_like(&mut rng, 10, 3, 3, 6);
            let g2 = lan_graph::generators::molecule_like(&mut rng, 8, 3, 3, 6);
            assert!(label_degree_lb(&g1, &g2) >= label_size_lb(&g1, &g2));
        }
    }

    #[test]
    fn fig2_lower_bound_below_exact() {
        let g = Graph::from_edges(vec![0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let q = Graph::from_edges(vec![0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let lb = label_size_lb(&g, &q);
        assert!(lb <= 5.0);
        assert!(lb >= 1.0);
    }
}
