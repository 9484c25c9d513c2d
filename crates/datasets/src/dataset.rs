//! Dataset generation: database graphs, query workload, and splits.

use crate::spec::{DatasetSpec, Family};
use lan_ged::engine::ged;
use lan_graph::generators::{control_flow_like, molecule_like, power_law_like};
use lan_graph::perturb::perturb;
use lan_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Train/validation/test query split (paper: 6:2:2).
#[derive(Debug, Clone)]
pub struct WorkloadSplit {
    pub train: Vec<usize>,
    pub val: Vec<usize>,
    pub test: Vec<usize>,
}

/// A generated dataset: database, queries, and split.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub spec: DatasetSpec,
    pub graphs: Vec<Graph>,
    pub queries: Vec<Graph>,
    pub split: WorkloadSplit,
}

fn base_graph(rng: &mut StdRng, spec: &DatasetSpec) -> Graph {
    // Node counts jitter ±40% around the Table I average.
    let lo = (spec.avg_nodes as f64 * 0.6).max(3.0) as usize;
    let hi = (spec.avg_nodes as f64 * 1.4) as usize + 1;
    let n = rng.gen_range(lo..=hi.max(lo + 1));
    match spec.family {
        Family::Molecule => {
            let extra = rng.gen_range(0..=(spec.density * 2.0) as usize + 1);
            molecule_like(rng, n, extra, 4, spec.num_labels)
        }
        Family::ControlFlow => {
            control_flow_like(rng, n, spec.density * 4.0, spec.density, spec.num_labels)
        }
        Family::PowerLaw => {
            let extra = rng.gen_range(0..=(spec.density * 3.0) as usize + 1);
            power_law_like(rng, n, 2, extra, spec.num_labels)
        }
    }
}

/// SplitMix64 finalizer — a bijective 64-bit mixer. Used to derive
/// statistically independent per-stream RNG seeds from `(seed, salt, i)`
/// so each perturbation family / query owns its own random stream and can
/// be generated in any order (or in parallel) without changing the output.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent RNG stream for item `i` of the `salt`-tagged phase.
/// Double mixing keeps streams with nearby `(seed, i)` pairs decorrelated.
fn stream_rng(seed: u64, salt: u64, i: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(splitmix64(seed ^ salt).wrapping_add(i)))
}

const SALT_DB: u64 = 0x4C41_4E00_6462; // "LAN\0db"
const SALT_QUERY: u64 = 0x4C41_4E00_7175; // "LAN\0qu"
const SALT_SPLIT: u64 = 0x4C41_4E00_7370; // "LAN\0sp"

impl Dataset {
    /// Generates the full dataset deterministically from `spec.seed`.
    ///
    /// Database graphs come in perturbation families (a base graph plus
    /// `family_size - 1` edit-perturbed variants) — the scaffold-cluster
    /// structure of real compound databases that makes both the proximity
    /// graph and the learned neighborhood models meaningful. Queries are
    /// sampled from the database and lightly perturbed, following the
    /// workload protocol of \[9\] (paper §VII).
    pub fn generate(spec: DatasetSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut graphs: Vec<Graph> = Vec::with_capacity(spec.num_graphs);
        while graphs.len() < spec.num_graphs {
            let base = base_graph(&mut rng, &spec);
            graphs.push(base.clone());
            let members = (spec.family_size - 1).min(spec.num_graphs - graphs.len());
            for _ in 0..members {
                let t = rng.gen_range(1..=6);
                let (p, _) = perturb(&mut rng, &base, t, spec.num_labels);
                graphs.push(p);
            }
        }
        graphs.truncate(spec.num_graphs);

        let mut queries = Vec::with_capacity(spec.num_queries);
        for _ in 0..spec.num_queries {
            let i = rng.gen_range(0..graphs.len());
            let t = rng.gen_range(1..=4);
            let (q, _) = perturb(&mut rng, &graphs[i], t, spec.num_labels);
            queries.push(q);
        }

        // 6:2:2 split over a shuffled index list.
        let mut idx: Vec<usize> = (0..queries.len()).collect();
        use rand::seq::SliceRandom;
        idx.shuffle(&mut rng);
        let n_train = queries.len() * 6 / 10;
        let n_val = queries.len() * 2 / 10;
        let split = WorkloadSplit {
            train: idx[..n_train].to_vec(),
            val: idx[n_train..n_train + n_val].to_vec(),
            test: idx[n_train + n_val..].to_vec(),
        };

        Dataset {
            spec,
            graphs,
            queries,
            split,
        }
    }

    /// Parallel, seed-deterministic generation for the larger databases
    /// (the benchmark workloads, the serving binary).
    ///
    /// Same workload protocol as [`Self::generate`], but every
    /// perturbation family and every query draws from its own
    /// splitmix64-derived RNG stream instead of one serial stream, so
    /// generation parallelizes over families with output **bit-identical
    /// at any thread count** (the parallel helpers are order-preserving
    /// and each stream is a pure function of `(spec.seed, salt, index)`).
    ///
    /// The per-stream scheme is a *different* deterministic instance than
    /// the single-stream [`Self::generate`] for the same seed — fixtures
    /// keyed on `generate` are untouched.
    pub fn generate_par(spec: DatasetSpec) -> Self {
        let fam = spec.family_size.max(1);
        let num_families = spec.num_graphs.div_ceil(fam);
        let families: Vec<Vec<Graph>> =
            lan_par::par_map_indices_dyn(num_families, lan_par::Grain::Auto, |f| {
                let mut rng = stream_rng(spec.seed, SALT_DB, f as u64);
                let count = fam.min(spec.num_graphs - f * fam);
                let base = base_graph(&mut rng, &spec);
                let mut out = Vec::with_capacity(count);
                out.push(base.clone());
                for _ in 1..count {
                    let t = rng.gen_range(1..=6);
                    let (p, _) = perturb(&mut rng, &base, t, spec.num_labels);
                    out.push(p);
                }
                out
            });
        let graphs: Vec<Graph> = families.into_iter().flatten().collect();
        debug_assert_eq!(graphs.len(), spec.num_graphs);

        let queries: Vec<Graph> =
            lan_par::par_map_indices_dyn(spec.num_queries, lan_par::Grain::Auto, |qi| {
                let mut rng = stream_rng(spec.seed, SALT_QUERY, qi as u64);
                let i = rng.gen_range(0..graphs.len());
                let t = rng.gen_range(1..=4);
                perturb(&mut rng, &graphs[i], t, spec.num_labels).0
            });

        let mut idx: Vec<usize> = (0..queries.len()).collect();
        use rand::seq::SliceRandom;
        idx.shuffle(&mut stream_rng(spec.seed, SALT_SPLIT, 0));
        let n_train = queries.len() * 6 / 10;
        let n_val = queries.len() * 2 / 10;
        let split = WorkloadSplit {
            train: idx[..n_train].to_vec(),
            val: idx[n_train..n_train + n_val].to_vec(),
            test: idx[n_train + n_val..].to_vec(),
        };

        Dataset {
            spec,
            graphs,
            queries,
            split,
        }
    }

    /// The operational distance between a query graph and database graph
    /// `id` (see [`DatasetSpec::metric`]). Total even under
    /// `GedMethod::Exact`: a timeout falls back to the approximate
    /// [`Self::fallback_metric`] (counted in `ged.timeout_fallback`)
    /// instead of panicking mid-query.
    pub fn distance(&self, q: &Graph, id: u32) -> f64 {
        self.within(q, id, f64::INFINITY, &self.spec.metric)
            .0
            .min_value()
    }

    /// Symmetric operational distance between two database graphs
    /// (index-construction time). Total, like [`Self::distance`].
    pub fn pair_distance(&self, a: u32, b: u32) -> f64 {
        self.distance(&self.graphs[a as usize], b)
    }

    /// The approximate metric a timed-out (or fault-injected) distance
    /// falls back to. BestOfThree is total and, per the paper's
    /// ground-truth protocol, the tightest cheap upper bound available.
    pub fn fallback_metric(&self) -> lan_ged::GedMethod {
        lan_ged::GedMethod::BestOfThree { beam_width: 16 }
    }

    /// The distance between a query and database graph `id` under the
    /// approximate fallback metric — what the fault-injection policy uses
    /// when the primary computation faults twice.
    pub fn distance_fallback(&self, q: &Graph, id: u32) -> f64 {
        ged(q, &self.graphs[id as usize], &self.fallback_metric()).expect("BestOfThree is total")
    }

    /// Threshold-gated operational distance: the GED kernel cascade
    /// ([`lan_ged::ged_within`]) may answer with an admissible lower bound
    /// `GedBound::AtLeast(lb)` (`tau <= lb <=` true distance) instead of a
    /// full solve. An `Exact` answer is bit-identical to
    /// [`Self::distance`], including the timeout fallback, so callers can
    /// mix the two freely. Total, never panics.
    ///
    /// The signature bounds are lower bounds on the *true* GED while the
    /// operational metric may be an upper-bounding approximation; since
    /// `lb <= true <= approx`, a bound that clears `tau` clears it for the
    /// operational distance too, so the cascade stays admissible for every
    /// [`lan_ged::GedMethod`].
    pub fn distance_within(&self, q: &Graph, id: u32, tau: f64) -> lan_ged::GedBound {
        self.distance_within_outcome(q, id, tau).0
    }

    /// [`Self::distance_within`] plus the [`lan_ged::CascadeOutcome`] that
    /// settled the call (per-query EXPLAIN attribution). A timeout
    /// fallback ran a full approximate solve, so it reports `FullSolve`.
    pub fn distance_within_outcome(
        &self,
        q: &Graph,
        id: u32,
        tau: f64,
    ) -> (lan_ged::GedBound, lan_ged::CascadeOutcome) {
        self.within(q, id, tau, &self.spec.metric)
    }

    /// The cascade under `method` — the operational or the ground-truth
    /// metric — with the approximate fallback applied to any `Exact`
    /// timeout. A non-finite `tau` is the ungated full solve.
    fn within(
        &self,
        q: &Graph,
        id: u32,
        tau: f64,
        method: &lan_ged::GedMethod,
    ) -> (lan_ged::GedBound, lan_ged::CascadeOutcome) {
        let g = &self.graphs[id as usize];
        lan_ged::ged_within_outcome(q, g, tau, method).unwrap_or_else(|| {
            lan_obs::counter(lan_obs::names::GED_TIMEOUT_FALLBACK).inc();
            (
                lan_ged::GedBound::Exact(
                    ged(q, g, &self.fallback_metric()).expect("BestOfThree is total"),
                ),
                lan_ged::CascadeOutcome::FullSolve,
            )
        })
    }

    /// Average node count over the database.
    pub fn avg_nodes(&self) -> f64 {
        self.graphs.iter().map(|g| g.node_count()).sum::<usize>() as f64 / self.graphs.len() as f64
    }

    /// Average edge count over the database.
    pub fn avg_edges(&self) -> f64 {
        self.graphs.iter().map(|g| g.edge_count()).sum::<usize>() as f64 / self.graphs.len() as f64
    }

    /// Number of distinct labels actually used.
    pub fn distinct_labels(&self) -> usize {
        let mut ls: Vec<u16> = self
            .graphs
            .iter()
            .flat_map(|g| g.labels().iter().copied())
            .collect();
        ls.sort_unstable();
        ls.dedup();
        ls.len()
    }

    /// Brute-force k-NN of `q` under the ground-truth distance
    /// ([`DatasetSpec::truth`]) — the ground truth for recall@k.
    /// Parallelized over the database (`LAN_THREADS` overrides the worker
    /// count, see `lan-par`).
    /// The scan runs the GED kernel cascade, filter-verify style:
    /// candidates are visited in ascending signature-lower-bound order (an
    /// `O(n)` pass over precomputed signatures), so the near graphs are
    /// solved first and the k-th best distance tightens immediately; it is
    /// then frozen as the threshold `t` for each subsequent fixed-size
    /// chunk, and a candidate whose cascade bound *strictly* exceeds `t`
    /// is skipped without a full solve. Since the final k-th distance can
    /// only be `<= t` and ties at `t` are re-solved exactly, the returned
    /// list is identical to the full scan in any order — only
    /// `ged.full_evals` drops.
    ///
    /// For a non-aborting solver (Hungarian and friends) the ascending-lb
    /// order is provably optimal — every candidate whose bound does not
    /// exceed the final threshold must be solved in *any* order, and the
    /// lb order solves nothing else — and with the tau-aborting exact
    /// solver, measurement puts even the oracle ascending-true-distance
    /// order at cost parity with it, because the threshold converges
    /// during the mandatory warm-up (the first `⌈k/CHUNK⌉` chunks run
    /// ungated). The savings come from the threshold-boundary handling
    /// below, which resolves `lb == t` candidates with a nudged threshold
    /// instead of an unbounded solve.
    pub fn ground_truth_knn(&self, q: &Graph, k: usize) -> Vec<(f64, u32)> {
        const CHUNK: usize = 8;
        let lbs: Vec<f64> = self
            .graphs
            .iter()
            .map(|g| {
                lan_ged::lower_bounds::label_size_lb(q, g)
                    .max(lan_ged::lower_bounds::label_degree_lb(q, g))
            })
            .collect();
        let mut order: Vec<u32> = (0..self.graphs.len() as u32).collect();
        order.sort_by(|&a, &b| lbs[a as usize].total_cmp(&lbs[b as usize]).then(a.cmp(&b)));
        let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + CHUNK);
        for chunk_ids in order.chunks(CHUNK) {
            // Frozen for the whole chunk: a strict improvement mid-chunk
            // cannot un-skip anything (the threshold only tightens).
            let t = if best.len() >= k {
                best[k - 1].0
            } else {
                f64::INFINITY
            };
            // While `t` is infinite the cascade is the ungated full solve.
            let within = |i, tau| self.within(q, i, tau, &self.spec.truth).0;
            let chunk: Vec<Option<(f64, u32)>> =
                lan_par::par_map_indices_dyn(chunk_ids.len(), lan_par::Grain::Fine, |j| {
                    let i = chunk_ids[j];
                    match within(i, t) {
                        lan_ged::GedBound::Exact(d) => Some((d, i)),
                        // lb > t: the true distance is strictly beyond the
                        // frozen k-th and the final k-th is <= t, so `i`
                        // cannot enter the top-k even through id ties.
                        lan_ged::GedBound::AtLeast(lb) if lb > t => None,
                        // lb == t could still tie its way in. Re-resolve
                        // with the threshold nudged just past t: a genuine
                        // tie (d == t) comes back Exact and is kept, while
                        // d > t aborts again with a certificate lb > t —
                        // far cheaper than the unbounded re-solve, which
                        // paid a full evaluation for every boundary abort.
                        // An Exact(d) with t < d < t+1 is harmless: the
                        // final sort-and-truncate discards it.
                        lan_ged::GedBound::AtLeast(_) => match within(i, t + 1.0) {
                            lan_ged::GedBound::Exact(d) => Some((d, i)),
                            lan_ged::GedBound::AtLeast(_) => None,
                        },
                    }
                });
            best.extend(chunk.into_iter().flatten());
            best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            best.truncate(k);
        }
        best
    }
}

/// recall@k (paper §VII): `|R ∩ R'| / k`.
pub fn recall_at_k(result: &[u32], truth: &[u32], k: usize) -> f64 {
    let ts: std::collections::HashSet<u32> = truth.iter().take(k).copied().collect();
    result.iter().take(k).filter(|id| ts.contains(id)).count() as f64 / k as f64
}

/// Tie-aware recall@k: a returned candidate counts as a hit when its
/// distance does not exceed the true k-th NN distance.
///
/// Integer-valued GED produces heavy distance ties (entire tie groups
/// straddle the k boundary), under which id-based recall penalizes a router
/// for returning a *different but equally near* neighbor. Tie-aware recall
/// is the standard fix and the metric used by the experiment harness.
pub fn recall_at_k_ties(results: &[(f64, u32)], truth_kth_dist: f64, k: usize) -> f64 {
    results
        .iter()
        .take(k)
        .filter(|&&(d, _)| d <= truth_kth_dist + 1e-9)
        .count() as f64
        / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;

    fn tiny(spec: DatasetSpec) -> Dataset {
        Dataset::generate(spec.with_graphs(60).with_queries(20))
    }

    #[test]
    fn generation_counts() {
        let d = tiny(DatasetSpec::aids());
        assert_eq!(d.graphs.len(), 60);
        assert_eq!(d.queries.len(), 20);
        assert_eq!(d.split.train.len(), 12);
        assert_eq!(d.split.val.len(), 4);
        assert_eq!(d.split.test.len(), 4);
        // Splits are disjoint and cover 0..20.
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
    fn deterministic() {
        let d1 = tiny(DatasetSpec::syn());
        let d2 = tiny(DatasetSpec::syn());
        assert_eq!(d1.graphs, d2.graphs);
        assert_eq!(d1.queries, d2.queries);
    }

    #[test]
    fn stats_near_table1_targets() {
        for spec in [
            DatasetSpec::aids(),
            DatasetSpec::linux(),
            DatasetSpec::pubchem(),
            DatasetSpec::syn(),
        ] {
            let target_nodes = spec.avg_nodes as f64;
            let labels = spec.num_labels as usize;
            let d = Dataset::generate(spec.with_graphs(120).with_queries(5));
            let avg = d.avg_nodes();
            assert!(
                (avg - target_nodes).abs() / target_nodes < 0.25,
                "{}: avg nodes {avg} vs target {target_nodes}",
                d.spec.name
            );
            assert!(d.avg_edges() >= avg * 0.8, "{}: too sparse", d.spec.name);
            assert!(d.distinct_labels() <= labels);
        }
    }

    #[test]
    fn distance_zero_for_identical() {
        let d = tiny(DatasetSpec::syn());
        let g = d.graphs[3].clone();
        assert_eq!(d.distance(&g, 3), 0.0);
    }

    #[test]
    fn ground_truth_sorted_and_consistent() {
        let d = tiny(DatasetSpec::syn());
        let q = &d.queries[0];
        let gt = d.ground_truth_knn(q, 5);
        assert_eq!(gt.len(), 5);
        assert!(gt.windows(2).all(|w| w[0].0 <= w[1].0));
        // Parallel scan equals serial scan.
        let mut serial: Vec<(f64, u32)> = (0..d.graphs.len())
            .map(|i| (d.distance(q, i as u32), i as u32))
            .collect();
        serial.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        serial.truncate(5);
        assert_eq!(gt, serial);
    }

    #[test]
    fn cascade_ground_truth_matches_full_scan() {
        // The chunked threshold cascade must be invisible in the output:
        // same neighbors, same distances, same tie-breaks as a full scan,
        // across k values that exercise empty, partial, and saturated
        // threshold regimes (k > CHUNK prefix, ties at the threshold).
        let d = tiny(DatasetSpec::syn());
        let mut serial: Vec<(f64, u32)> = Vec::new();
        for qi in [0usize, 3, 7] {
            let q = &d.queries[qi];
            serial.clear();
            serial.extend((0..d.graphs.len()).map(|i| (d.distance(q, i as u32), i as u32)));
            serial.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for k in [1usize, 5, 17] {
                let gt = d.ground_truth_knn(q, k);
                assert_eq!(gt, serial[..k], "q={qi} k={k}");
            }
        }
    }

    #[test]
    fn distance_within_is_admissible_and_exact_compatible() {
        let d = tiny(DatasetSpec::syn());
        let q = &d.queries[1];
        for id in 0..20u32 {
            let exact = d.distance(q, id);
            for tau in [0.0, 1.0, exact, exact + 1.0] {
                match d.distance_within(q, id, tau) {
                    // An exact answer must be the operational distance,
                    // bit for bit.
                    lan_ged::GedBound::Exact(e) => assert_eq!(e.to_bits(), exact.to_bits()),
                    // A bound must clear tau and stay admissible (lb is a
                    // lower bound on the true GED, which the operational
                    // metric upper-bounds).
                    lan_ged::GedBound::AtLeast(lb) => {
                        assert!(lb >= tau, "bound below tau: {lb} < {tau}");
                        assert!(lb <= exact, "inadmissible bound: {lb} > {exact}");
                    }
                }
            }
            // tau beyond the operational distance can never be cleared by
            // an admissible bound: the cascade must solve fully.
            assert!(matches!(
                d.distance_within(q, id, exact + 1.0),
                lan_ged::GedBound::Exact(_)
            ));
        }
    }

    #[test]
    fn queries_are_near_database() {
        // Perturbed queries should have a small nearest-neighbor distance.
        // Queries take 1..=4 edits, but the operational metric is an
        // approximation that can overestimate, and the exact draw depends
        // on the RNG stream — assert on the workload average, which is
        // robust to both.
        let d = tiny(DatasetSpec::aids());
        let avg: f64 = d
            .queries
            .iter()
            .map(|q| d.ground_truth_knn(q, 1)[0].0)
            .sum::<f64>()
            / d.queries.len() as f64;
        assert!(
            avg <= 10.0,
            "queries too far from database: avg NN distance {avg}"
        );
    }

    #[test]
    fn exact_timeout_falls_back_instead_of_panicking() {
        // An Exact metric with a zero timeout times out on any non-trivial
        // pair; distance() must recover with the approximate fallback.
        let mut d = tiny(DatasetSpec::syn());
        d.spec.metric = lan_ged::GedMethod::Exact { timeout_ms: 0 };
        let q = d.queries[0].clone();
        for id in 0..4u32 {
            let dist = d.distance(&q, id);
            assert!(dist.is_finite() && dist >= 0.0);
        }
        let p = d.pair_distance(0, 1);
        assert!(p.is_finite() && p >= 0.0);
        // The fallback is the documented approximate metric.
        let fb = d.distance_fallback(&q, 0);
        assert!(fb.is_finite() && fb >= 0.0);
        // The ground-truth scan recovers the same way under its own metric.
        d.spec.truth = d.spec.metric.clone();
        let gt = d.ground_truth_knn(&q, 3);
        assert_eq!(gt.len(), 3);
        assert!(gt.iter().all(|&(dist, _)| dist.is_finite() && dist >= 0.0));
    }

    #[test]
    fn recall_math() {
        assert_eq!(recall_at_k(&[1, 2, 3], &[1, 2, 3], 3), 1.0);
        assert_eq!(recall_at_k(&[1, 9, 8], &[1, 2, 3], 3), 1.0 / 3.0);
        assert_eq!(recall_at_k(&[], &[1, 2], 2), 0.0);
    }
}
