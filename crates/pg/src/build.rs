//! Proximity-graph (HNSW-style) index construction.
//!
//! The paper indexes the graph database with a proximity graph and compares
//! against HNSW \[17\]; we build a hierarchical navigable-small-world index:
//! each object draws a geometric level, lives in layers `0..=level`, and is
//! connected to its `ef_construction`-searched nearest neighbors, capped at
//! `m` (base layer `2m`). LAN's `np_route` runs on the base layer; the
//! hierarchy also provides the `HNSW_IS` initial-node selection (greedy
//! descent from the top layer).

use crate::metric::{DistCache, PairCache, QueryDistance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct PgConfig {
    /// Max neighbors per node above the base layer (base allows `2m`).
    pub m: usize,
    /// Beam width used when searching for insertion neighbors.
    pub ef_construction: usize,
    /// Level-generation factor; HNSW default `1 / ln(m)`.
    pub ml: f64,
    /// RNG seed for level draws (construction is deterministic per seed).
    pub seed: u64,
}

impl PgConfig {
    /// Sensible defaults for databases of hundreds to thousands of graphs.
    pub fn new(m: usize) -> Self {
        PgConfig {
            m,
            ef_construction: 4 * m,
            ml: 1.0 / (m as f64).ln().max(0.5),
            seed: 0x1a4,
        }
    }
}

/// The built index.
#[derive(Debug, Clone)]
pub struct ProximityGraph {
    /// `layers[l][v]` = neighbors of `v` at layer `l` (empty if `v` does not
    /// live at layer `l`). `layers[0]` is the base proximity graph.
    pub layers: Vec<Vec<Vec<u32>>>,
    /// Top layer of each node.
    pub levels: Vec<u8>,
    /// Entry point (a node on the top layer).
    pub entry: u32,
}

impl ProximityGraph {
    /// Builds the index over objects `0..n` with the given symmetric
    /// distance (construction-time distances flow through a [`PairCache`]).
    pub fn build(n: usize, pairs: &PairCache<'_>, cfg: &PgConfig) -> Self {
        assert!(n > 0, "cannot index an empty database");
        // Node ids are u32 throughout (adjacency, caches, pool entries);
        // a larger database would silently truncate `0..n as u32` below.
        assert!(
            n <= u32::MAX as usize + 1,
            "database of {n} objects exceeds the u32 id space"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let levels: Vec<u8> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                ((-u.ln() * cfg.ml).floor() as usize).min(12) as u8
            })
            .collect();
        let top = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut layers: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n]; top + 1];
        let mut entry: u32 = 0;
        let mut entry_level: i32 = -1;

        for v in 0..n as u32 {
            let level = levels[v as usize] as usize;
            if entry_level < 0 {
                entry = v;
                entry_level = level as i32;
                continue;
            }
            // Greedy descent from the global entry to `level + 1`.
            let mut ep = entry;
            let mut l = entry_level as usize;
            while l > level {
                ep = greedy_step_to_min(&layers[l], ep, |x| pairs.get(v, x));
                l -= 1;
            }
            // Insert at each layer from min(level, entry_level) down to 0.
            let start = level.min(entry_level as usize);
            for l in (0..=start).rev() {
                let found = search_layer(&layers[l], ep, cfg.ef_construction, |x| pairs.get(v, x));
                let cap = if l == 0 { 2 * cfg.m } else { cfg.m };
                // HNSW's select-neighbors *heuristic*: clustered databases
                // (exactly what edit-perturbation graph families are) would
                // otherwise saturate every node's list with same-cluster
                // duplicates and disconnect the base layer.
                let chosen = select_neighbors_heuristic(&found, cap, |a, b| pairs.get(a, b));
                for &nb in &chosen {
                    layers[l][v as usize].push(nb);
                    layers[l][nb as usize].push(v);
                    // Shrink over-full neighbor lists with the same
                    // diversity heuristic.
                    if layers[l][nb as usize].len() > cap {
                        let mut ns: Vec<(f64, u32)> = layers[l][nb as usize]
                            .iter()
                            .map(|&x| (pairs.get(nb, x), x))
                            .collect();
                        ns.sort_by(by_distance_then_id);
                        layers[l][nb as usize] =
                            select_neighbors_heuristic(&ns, cap, |a, b| pairs.get(a, b));
                    }
                }
                if let Some(&(_, best)) = found.first() {
                    ep = best;
                }
            }
            if (level as i32) > entry_level {
                entry = v;
                entry_level = level as i32;
            }
        }
        for layer in &mut layers {
            for l in layer.iter_mut() {
                l.sort_unstable();
                l.dedup();
            }
        }

        // Connectivity repair: databases with many near-duplicates can
        // still splinter the base layer despite the selection heuristic.
        // Bridge every unreachable component to its nearest reached node —
        // searches are only correct on the reachable component, so this is
        // required for a usable index.
        loop {
            let mut reached = vec![false; n];
            let mut stack = vec![entry];
            reached[entry as usize] = true;
            while let Some(v) = stack.pop() {
                for &nb in &layers[0][v as usize] {
                    if !reached[nb as usize] {
                        reached[nb as usize] = true;
                        stack.push(nb);
                    }
                }
            }
            let unreached: Vec<u32> = (0..n as u32).filter(|&v| !reached[v as usize]).collect();
            if unreached.is_empty() {
                break;
            }
            // Cheapest bridge from the unreached set into the reached set.
            // Each unreached node's row scan is independent; rows evaluate
            // in parallel and the final reduction keeps the sequential
            // tie-breaking (first strict improvement in (u, v) order).
            let reached_ref = &reached;
            let row_best: Vec<Option<(f64, u32, u32)>> =
                lan_par::par_map_dyn(&unreached, lan_par::Grain::Auto, |&u| {
                    let mut best: Option<(f64, u32, u32)> = None;
                    for v in 0..n as u32 {
                        if reached_ref[v as usize] {
                            let d = pairs.get(u, v);
                            if best.map(|(bd, _, _)| d < bd).unwrap_or(true) {
                                best = Some((d, u, v));
                            }
                        }
                    }
                    best
                });
            let mut best: Option<(f64, u32, u32)> = None;
            for b in row_best.into_iter().flatten() {
                if best.map(|(bd, _, _)| b.0 < bd).unwrap_or(true) {
                    best = Some(b);
                }
            }
            let (_, u, v) = best.expect("reached set is never empty");
            layers[0][u as usize].push(v);
            layers[0][v as usize].push(u);
            layers[0][u as usize].sort_unstable();
            layers[0][v as usize].sort_unstable();
        }

        ProximityGraph {
            layers,
            levels,
            entry,
        }
    }

    /// The base-layer adjacency LAN routes on.
    pub fn base(&self) -> &[Vec<u32>] {
        &self.layers[0]
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when the index is empty (never: construction requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// HNSW-style initial-node selection (`HNSW_IS`): greedy descent from
    /// the top layer to layer 1 using **counted** query distances, returning
    /// the entry node for base-layer routing.
    pub fn hnsw_entry(&self, cache: &DistCache<'_>) -> u32 {
        self.hnsw_entry_budgeted(cache, &crate::budget::BudgetCtx::unlimited())
    }

    /// [`Self::hnsw_entry`] under a query budget: once the budget stops
    /// answering distances the descent sees `+inf` for every further
    /// candidate, stops improving, and returns the best node reached so
    /// far — graceful degradation, never a panic.
    pub fn hnsw_entry_budgeted(
        &self,
        cache: &DistCache<'_>,
        ctx: &crate::budget::BudgetCtx,
    ) -> u32 {
        use crate::budget::budgeted_get;
        let mut cur = self.entry;
        for l in (1..self.layers.len()).rev() {
            cur = greedy_step_to_min(&self.layers[l], cur, |x| {
                budgeted_get(cache, ctx, x).unwrap_or(f64::INFINITY)
            });
        }
        cur
    }
}

/// Ascending distance, ties by id. `total_cmp`, not `partial_cmp` with an
/// `Equal` fallback: a NaN distance (a buggy or faulted metric) then orders
/// after +inf instead of comparing equal to every neighbor, so the order of
/// the finite entries never depends on where the NaN sat.
fn by_distance_then_id(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// HNSW's neighbor-selection heuristic (Malkov & Yashunin, Alg. 4):
/// from candidates sorted by distance to the inserted point, keep `e` only
/// if it is closer to the point than to every already-selected neighbor —
/// this spends degree budget on *diverse* directions instead of one dense
/// cluster. Pruned candidates backfill remaining slots
/// (`keepPrunedConnections`), preserving connectivity.
fn select_neighbors_heuristic(
    cands: &[(f64, u32)],
    cap: usize,
    pair_dist: impl Fn(u32, u32) -> f64,
) -> Vec<u32> {
    let mut selected: Vec<(f64, u32)> = Vec::with_capacity(cap);
    let mut pruned: Vec<u32> = Vec::new();
    for &(d_e, e) in cands {
        if selected.len() >= cap {
            break;
        }
        let diverse = selected.iter().all(|&(_, s)| pair_dist(e, s) > d_e);
        if diverse {
            selected.push((d_e, e));
        } else {
            pruned.push(e);
        }
    }
    let mut out: Vec<u32> = selected.into_iter().map(|(_, e)| e).collect();
    for e in pruned {
        if out.len() >= cap {
            break;
        }
        out.push(e);
    }
    out
}

/// Greedy walk to a local minimum of `dist` within one layer.
fn greedy_step_to_min(layer: &[Vec<u32>], start: u32, dist: impl Fn(u32) -> f64) -> u32 {
    let mut cur = start;
    let mut cur_d = dist(cur);
    loop {
        let mut best = cur;
        let mut best_d = cur_d;
        for &nb in &layer[cur as usize] {
            let d = dist(nb);
            if d < best_d || (d == best_d && nb < best) {
                best = nb;
                best_d = d;
            }
        }
        if best == cur {
            return cur;
        }
        cur = best;
        cur_d = best_d;
    }
}

/// ef-limited best-first search within one layer; returns candidates sorted
/// by `(distance, id)`.
///
/// The candidate-distance evaluations of each expansion are batched through
/// `lan-par` — with an expensive metric (GED) the per-expansion fan of up
/// to `2m` distances dominates construction time and parallelizes with no
/// change in behavior: distances are pure, and admission decisions are
/// replayed sequentially in neighbor order afterwards.
fn search_layer(
    layer: &[Vec<u32>],
    entry: u32,
    ef: usize,
    dist: impl Fn(u32) -> f64 + Sync,
) -> Vec<(f64, u32)> {
    use std::collections::HashSet;
    // Spawning scoped workers is only worth it for a decent fan-out.
    const MIN_PAR_BATCH: usize = 4;
    let mut visited: HashSet<u32> = HashSet::new();
    visited.insert(entry);
    let mut results: Vec<(f64, u32)> = vec![(dist(entry), entry)];
    let mut frontier: Vec<(f64, u32)> = results.clone();

    // total_cmp everywhere below: a NaN distance must order
    // deterministically (after +inf) instead of comparing Equal to
    // everything and leaving the pick dependent on iteration order.
    while let Some(i) = frontier
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.cmp(&b.1 .1)))
        .map(|(i, _)| i)
    {
        let (d, v) = frontier.swap_remove(i);
        let worst = results
            .iter()
            .map(|&(d, _)| d)
            .fold(f64::NEG_INFINITY, f64::max);
        if results.len() >= ef && d > worst {
            break;
        }
        let fresh: Vec<u32> = layer[v as usize]
            .iter()
            .copied()
            .filter(|&nb| visited.insert(nb))
            .collect();
        let dists: Vec<f64> = if fresh.len() >= MIN_PAR_BATCH {
            lan_par::par_map_dyn(&fresh, lan_par::Grain::Fine, |&nb| dist(nb))
        } else {
            fresh.iter().map(|&nb| dist(nb)).collect()
        };
        for (&nb, &nd) in fresh.iter().zip(&dists) {
            if results.len() < ef || nd < worst {
                results.push((nd, nb));
                frontier.push((nd, nb));
                if results.len() > ef {
                    // Drop the worst.
                    let worst_i = results
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.cmp(&b.1 .1)))
                        .map(|(i, _)| i)
                        .unwrap();
                    results.swap_remove(worst_i);
                }
            }
        }
    }
    results.sort_by(by_distance_then_id);
    results
}

/// Exhaustive k-NN scan — the brute-force reference used to measure recall.
/// The scan parallelizes over the database (distances are independent).
pub fn brute_force_knn(n: usize, query: &dyn QueryDistance, k: usize) -> Vec<(f64, u32)> {
    let mut all: Vec<(f64, u32)> = lan_par::par_map_indices_dyn(n, lan_par::Grain::Fine, |i| {
        (query.distance(i as u32), i as u32)
    });
    all.sort_by(by_distance_then_id);
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{DistCache, PairCache};
    use crate::routing::beam_search;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 1-D points: distance = |a - b| gives an easy metric space.
    fn points(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0.0..100.0)).collect()
    }

    #[test]
    fn nan_distances_order_last_and_deterministically() {
        let sorted = |mut ns: Vec<(f64, u32)>| {
            ns.sort_by(by_distance_then_id);
            ns.into_iter().map(|(_, id)| id).collect::<Vec<u32>>()
        };
        let ns = vec![
            (f64::NAN, 4),
            (5.0, 1),
            (f64::NAN, 9),
            (2.0, 7),
            (f64::INFINITY, 3),
            (2.0, 2),
        ];
        let want = vec![2, 7, 1, 3, 4, 9]; // NaN after +inf, then by id
        assert_eq!(sorted(ns.clone()), want);
        assert_eq!(sorted(ns.into_iter().rev().collect()), want);
    }

    #[test]
    fn build_produces_connected_base_layer() {
        let pts = points(100, 1);
        let f = |a: u32, b: u32| (pts[a as usize] - pts[b as usize]).abs();
        let cache = PairCache::new(&f);
        let pg = ProximityGraph::build(100, &cache, &PgConfig::new(6));
        // BFS from entry over base layer reaches everyone.
        let mut seen = [false; 100];
        let mut stack = vec![pg.entry];
        seen[pg.entry as usize] = true;
        let mut cnt = 1;
        while let Some(v) = stack.pop() {
            for &nb in &pg.base()[v as usize] {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    cnt += 1;
                    stack.push(nb);
                }
            }
        }
        assert_eq!(cnt, 100, "base layer disconnected");
    }

    #[test]
    fn degree_caps_respected() {
        let pts = points(80, 2);
        let f = |a: u32, b: u32| (pts[a as usize] - pts[b as usize]).abs();
        let cache = PairCache::new(&f);
        let cfg = PgConfig::new(5);
        let pg = ProximityGraph::build(80, &cache, &cfg);
        for (l, layer) in pg.layers.iter().enumerate() {
            let cap = if l == 0 { 2 * cfg.m } else { cfg.m };
            for ns in layer {
                assert!(
                    ns.len() <= cap + 1,
                    "layer {l} degree {} > cap {cap}",
                    ns.len()
                );
            }
        }
    }

    #[test]
    fn search_quality_on_1d_points() {
        let pts = points(200, 3);
        let f = |a: u32, b: u32| (pts[a as usize] - pts[b as usize]).abs();
        let cache = PairCache::new(&f);
        let pg = ProximityGraph::build(200, &cache, &PgConfig::new(8));

        let mut rng = StdRng::seed_from_u64(4);
        let mut total_recall = 0.0;
        let queries = 20;
        for _ in 0..queries {
            let q = rng.gen_range(0.0..100.0);
            let pts_c = pts.clone();
            let qd = move |id: u32| (pts_c[id as usize] - q).abs();
            let truth = brute_force_knn(200, &qd, 10);
            let dc = DistCache::new(&qd);
            let entry = pg.hnsw_entry(&dc);
            let res = beam_search(pg.base(), &dc, &[entry], 20, 10);
            let truth_ids: std::collections::HashSet<u32> = truth.iter().map(|&(_, i)| i).collect();
            let hit = res.ids().iter().filter(|i| truth_ids.contains(i)).count();
            total_recall += hit as f64 / 10.0;
        }
        let recall = total_recall / queries as f64;
        assert!(recall > 0.9, "recall@10 too low: {recall}");
    }

    #[test]
    fn hnsw_entry_descends_toward_query() {
        let pts = points(150, 5);
        let f = |a: u32, b: u32| (pts[a as usize] - pts[b as usize]).abs();
        let cache = PairCache::new(&f);
        let pg = ProximityGraph::build(150, &cache, &PgConfig::new(6));
        let q = 42.0;
        let pts_c = pts.clone();
        let qd = move |id: u32| (pts_c[id as usize] - q).abs();
        let dc = DistCache::new(&qd);
        let entry = pg.hnsw_entry(&dc);
        // The selected entry should be much closer than a random node on
        // average.
        let entry_d = (pts[entry as usize] - q).abs();
        let mean_d: f64 = (0..150).map(|i| (pts[i] - q).abs()).sum::<f64>() / 150.0;
        assert!(
            entry_d < mean_d,
            "entry {entry_d} not better than mean {mean_d}"
        );
        assert!(dc.ndc() > 0, "descent must cost counted distances");
    }

    #[test]
    fn single_object_database() {
        let f = |_: u32, _: u32| 0.0;
        let cache = PairCache::new(&f);
        let pg = ProximityGraph::build(1, &cache, &PgConfig::new(4));
        assert_eq!(pg.len(), 1);
        assert_eq!(pg.entry, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = points(60, 6);
        let f = |a: u32, b: u32| (pts[a as usize] - pts[b as usize]).abs();
        let c1 = PairCache::new(&f);
        let c2 = PairCache::new(&f);
        let cfg = PgConfig::new(5);
        let p1 = ProximityGraph::build(60, &c1, &cfg);
        let p2 = ProximityGraph::build(60, &c2, &cfg);
        assert_eq!(p1.layers, p2.layers);
        assert_eq!(p1.entry, p2.entry);
    }

    #[test]
    fn brute_force_reference() {
        let pts = [5.0f64, 1.0, 9.0, 3.0];
        let qd = |id: u32| (pts[id as usize] - 2.0).abs();
        let knn = brute_force_knn(4, &qd, 2);
        assert_eq!(knn[0].1, 1);
        assert_eq!(knn[1].1, 3);
    }
}
