//! Random edit perturbation.
//!
//! Query workloads in the paper are sampled from the database (\[9\]'s
//! protocol); we additionally perturb sampled graphs with a small number of
//! random edit operations so queries are near-but-not-in the database —
//! this is what creates the "neighborhood of Q" structure that LAN exploits,
//! and it gives test oracles: applying `t` edits bounds GED from above by
//! `t`.

use crate::graph::{Graph, GraphBuilder, Label, NodeId};
use rand::Rng;

/// One of the five GED edit operation kinds (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    NodeInsert,
    NodeDelete,
    EdgeInsert,
    EdgeDelete,
    Relabel,
}

/// Applies up to `t` random edit operations to `g`, returning the perturbed
/// graph and the number of edits actually applied (an upper bound on
/// `GED(g, result)`).
///
/// Node deletion targets only isolated-able nodes by first removing incident
/// edges, with each removed edge counted as an edit — so the returned count
/// remains a valid GED upper bound.
pub fn perturb<R: Rng + ?Sized>(
    rng: &mut R,
    g: &Graph,
    t: usize,
    num_labels: u16,
) -> (Graph, usize) {
    let mut labels: Vec<Label> = g.labels().to_vec();
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut applied = 0usize;

    while applied < t {
        let n = labels.len();
        let kind = match rng.gen_range(0..5) {
            0 => EditKind::NodeInsert,
            1 => EditKind::NodeDelete,
            2 => EditKind::EdgeInsert,
            3 => EditKind::EdgeDelete,
            _ => EditKind::Relabel,
        };
        match kind {
            EditKind::NodeInsert => {
                labels.push(rng.gen_range(0..num_labels));
                applied += 1;
                // Attach it so the graph stays connected-ish (edge counts as
                // a second edit when budget allows; otherwise leave isolated).
                if applied < t && n > 0 {
                    let u = labels.len() as NodeId - 1;
                    let v = rng.gen_range(0..n) as NodeId;
                    edges.push((v.min(u), v.max(u)));
                    applied += 1;
                }
            }
            EditKind::NodeDelete => {
                if n <= 2 {
                    continue;
                }
                let v = rng.gen_range(0..n) as NodeId;
                let incident = edges.iter().filter(|&&(a, b)| a == v || b == v).count();
                if applied + incident + 1 > t {
                    continue; // not enough edit budget
                }
                edges.retain(|&(a, b)| a != v && b != v);
                applied += incident;
                labels.remove(v as usize);
                // Reindex nodes above v.
                for e in &mut edges {
                    if e.0 > v {
                        e.0 -= 1;
                    }
                    if e.1 > v {
                        e.1 -= 1;
                    }
                }
                applied += 1;
            }
            EditKind::EdgeInsert => {
                if n < 2 {
                    continue;
                }
                let u = rng.gen_range(0..n) as NodeId;
                let v = rng.gen_range(0..n) as NodeId;
                if u == v {
                    continue;
                }
                let e = (u.min(v), u.max(v));
                if edges.contains(&e) {
                    continue;
                }
                edges.push(e);
                applied += 1;
            }
            EditKind::EdgeDelete => {
                if edges.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..edges.len());
                edges.swap_remove(i);
                applied += 1;
            }
            EditKind::Relabel => {
                if n == 0 || num_labels < 2 {
                    continue;
                }
                let v = rng.gen_range(0..n);
                let old = labels[v];
                let mut newl = rng.gen_range(0..num_labels);
                if newl == old {
                    newl = (newl + 1) % num_labels;
                }
                labels[v] = newl;
                applied += 1;
            }
        }
    }

    let mut b = GraphBuilder::with_labels(labels);
    for (u, v) in edges {
        // Duplicates impossible by construction, but be defensive.
        if !b.has_edge(u, v) {
            b.add_edge(u, v).unwrap();
        }
    }
    (b.build(), applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::molecule_like;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_edits_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = molecule_like(&mut rng, 20, 3, 4, 10);
        let (p, applied) = perturb(&mut rng, &g, 0, 10);
        assert_eq!(applied, 0);
        assert_eq!(p, g);
    }

    #[test]
    fn applied_never_exceeds_budget() {
        let mut rng = StdRng::seed_from_u64(2);
        for t in [1usize, 3, 5, 10] {
            let g = molecule_like(&mut rng, 15, 2, 4, 8);
            let (_, applied) = perturb(&mut rng, &g, t, 8);
            assert!(applied <= t, "applied {applied} > budget {t}");
        }
    }

    #[test]
    fn result_is_valid_simple_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let g = molecule_like(&mut rng, 12, 2, 4, 6);
            let (p, _) = perturb(&mut rng, &g, 6, 6);
            // GraphBuilder enforces simplicity; check no node vanished below 2.
            assert!(p.node_count() >= 2);
            for v in p.nodes() {
                for &w in p.neighbors(v) {
                    assert!(p.has_edge(w, v));
                    assert_ne!(w, v);
                }
            }
        }
    }

    #[test]
    fn perturbation_changes_graph() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = molecule_like(&mut rng, 20, 3, 4, 10);
        let mut changed = 0;
        for _ in 0..10 {
            let (p, applied) = perturb(&mut rng, &g, 4, 10);
            if p != g {
                changed += 1;
            }
            assert!(applied >= 1);
        }
        assert!(changed >= 8);
    }
}
