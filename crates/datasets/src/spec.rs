//! Dataset specifications matched to the paper's Table I.
//!
//! The real datasets (AIDS antivirus screen compounds, LINUX control-flow
//! graphs, PUBCHEM molecules, and the graphgen-generated SYN) are not
//! redistributable here, so each is replaced by a synthetic generator tuned
//! to Table I's statistics — label cardinality, average node/edge counts —
//! and to the structural family (sparse molecules, control-flow skeletons,
//! denser molecules, small power-law graphs). Sizes are scaled down by
//! default so every experiment reruns in minutes; scale with
//! [`DatasetSpec::with_graphs`].

use lan_ged::GedMethod;

/// The structural family a dataset draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Spanning tree + ring closures, valence-capped (AIDS, PUBCHEM).
    Molecule,
    /// Chain with branch diamonds and loop back-edges (LINUX).
    ControlFlow,
    /// Preferential attachment + random edges (SYN).
    PowerLaw,
}

/// Full description of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub family: Family,
    /// Number of database graphs (paper values: 42,687 / 47,239 / 22,794 /
    /// 1,000,000 — defaults here are laptop-scale).
    pub num_graphs: usize,
    /// Distinct node labels (Table I `#nlabel`).
    pub num_labels: u16,
    /// Target average node count (Table I `avg |V|`).
    pub avg_nodes: usize,
    /// Density knob: extra edges for molecules/power-law; scaled branch
    /// probability for control flow.
    pub density: f64,
    /// Database graphs are generated in perturbation families of this size,
    /// mimicking the scaffold clusters of real compound datasets.
    pub family_size: usize,
    /// Number of query graphs (the paper samples 4,000; scaled here).
    pub num_queries: usize,
    /// The operational distance: every distance the index computes — PG
    /// build, the models' training distances, routing, and the distances a
    /// query returns. Exact GED is NP-hard, so the system serves an
    /// approximate GED, one solve per candidate as in the paper; it must
    /// never be below [`Self::truth`] (every approximation upper-bounds
    /// the exact GED), which tie-aware recall relies on.
    pub metric: GedMethod,
    /// The ground-truth distance: only the brute-force scan behind recall
    /// ([`crate::Dataset::ground_truth_knn`]) uses it. The paper's
    /// protocol falls back to the best of VJ, Hungarian, and Beam for its
    /// ground truth, so a preset may route on a cheaper single solve than
    /// it is measured against.
    pub truth: GedMethod,
    /// Base RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// AIDS-like: 51 labels, avg |V| ≈ 25.6, avg |E| ≈ 27.5. Routes on
    /// Beam-4, which equals BestOfThree on ≥ 98.7% of these pairs at a
    /// fraction of its cost (one of its three solves), and is measured
    /// against BestOfThree.
    pub fn aids() -> Self {
        DatasetSpec {
            name: "AIDS",
            family: Family::Molecule,
            num_graphs: 400,
            num_labels: 51,
            avg_nodes: 25,
            density: 2.0,
            family_size: 8,
            num_queries: 60,
            metric: GedMethod::Beam { width: 4 },
            truth: GedMethod::BestOfThree { beam_width: 4 },
            seed: 0xA1D5,
        }
    }

    /// LINUX-like: 36 labels, avg |V| ≈ 35.5, avg |E| ≈ 37.7.
    pub fn linux() -> Self {
        DatasetSpec {
            name: "LINUX",
            family: Family::ControlFlow,
            num_graphs: 400,
            num_labels: 36,
            avg_nodes: 35,
            density: 0.03,
            family_size: 8,
            num_queries: 60,
            metric: GedMethod::BestOfThree { beam_width: 4 },
            truth: GedMethod::BestOfThree { beam_width: 4 },
            seed: 0x11AB,
        }
    }

    /// PUBCHEM-like: 10 labels, avg |V| ≈ 48.2, avg |E| ≈ 50.8.
    pub fn pubchem() -> Self {
        DatasetSpec {
            name: "PUBCHEM",
            family: Family::Molecule,
            num_graphs: 300,
            num_labels: 10,
            avg_nodes: 48,
            density: 2.5,
            family_size: 8,
            num_queries: 50,
            metric: GedMethod::BestOfThree { beam_width: 4 },
            truth: GedMethod::BestOfThree { beam_width: 4 },
            seed: 0x9B1C,
        }
    }

    /// SYN-like: 5 labels, avg |V| ≈ 10.1, avg |E| ≈ 15.9.
    pub fn syn() -> Self {
        DatasetSpec {
            name: "SYN",
            family: Family::PowerLaw,
            num_graphs: 1500,
            num_labels: 5,
            avg_nodes: 10,
            density: 0.3,
            family_size: 10,
            num_queries: 60,
            metric: GedMethod::BestOfThree { beam_width: 4 },
            truth: GedMethod::BestOfThree { beam_width: 4 },
            seed: 0x5111,
        }
    }

    /// All four presets.
    pub fn all() -> Vec<DatasetSpec> {
        vec![Self::aids(), Self::linux(), Self::pubchem(), Self::syn()]
    }

    /// Overrides the database size (e.g. for the SYN scalability sweep).
    pub fn with_graphs(mut self, n: usize) -> Self {
        self.num_graphs = n;
        self
    }

    /// Overrides the query count.
    pub fn with_queries(mut self, n: usize) -> Self {
        self.num_queries = n;
        self
    }

    /// Overrides the seed (for replicated runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets both the operational and the ground-truth metric to `metric`
    /// (tests use the cheap Hungarian-only metric).
    pub fn with_metric(mut self, metric: GedMethod) -> Self {
        self.truth = metric.clone();
        self.metric = metric;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1_shape() {
        let a = DatasetSpec::aids();
        assert_eq!(a.num_labels, 51);
        assert_eq!(a.avg_nodes, 25);
        let l = DatasetSpec::linux();
        assert_eq!(l.num_labels, 36);
        let p = DatasetSpec::pubchem();
        assert_eq!(p.num_labels, 10);
        assert!(p.avg_nodes > a.avg_nodes);
        let s = DatasetSpec::syn();
        assert_eq!(s.num_labels, 5);
        assert!(
            s.num_graphs > a.num_graphs,
            "SYN is the scalability dataset"
        );
    }

    #[test]
    fn builders() {
        let s = DatasetSpec::syn()
            .with_graphs(99)
            .with_queries(7)
            .with_seed(42);
        assert_eq!(s.num_graphs, 99);
        assert_eq!(s.num_queries, 7);
        assert_eq!(s.seed, 42);
    }
}
