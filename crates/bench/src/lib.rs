//! Shared scaffolding for the figure-regeneration binaries.
//!
//! Every binary accepts a scale from the `LAN_SCALE` environment variable:
//!
//! * `small` (default) — minutes-scale runs that reproduce the *shapes* of
//!   the paper's figures;
//! * `medium` — larger databases and more queries for tighter curves.
//!
//! Absolute numbers cannot match the paper's testbed (V100S + 800 GB
//! server, 42k–1M graph databases); EXPERIMENTS.md records what transfers:
//! orderings, approximate speedup factors, and crossover locations.

use lan_core::{LanConfig, LanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;

/// Benchmark scale selected via `LAN_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Small,
    Medium,
}

impl Scale {
    /// Reads `LAN_SCALE` (default `small`).
    pub fn from_env() -> Self {
        match std::env::var("LAN_SCALE").as_deref() {
            Ok("medium") => Scale::Medium,
            _ => Scale::Small,
        }
    }
}

/// Database / query sizes per dataset at a scale.
pub fn sized_spec(spec: DatasetSpec, scale: Scale) -> DatasetSpec {
    match scale {
        Scale::Small => {
            let (g, q) = match spec.name {
                "AIDS" => (240, 40),
                "LINUX" => (240, 40),
                "PUBCHEM" => (160, 30),
                _ => (600, 40),
            };
            spec.with_graphs(g).with_queries(q)
        }
        Scale::Medium => {
            let (g, q) = match spec.name {
                "AIDS" => (600, 80),
                "LINUX" => (600, 80),
                "PUBCHEM" => (400, 60),
                _ => (1500, 80),
            };
            spec.with_graphs(g).with_queries(q)
        }
    }
}

/// Index configuration used by all figure binaries.
pub fn bench_lan_config(scale: Scale) -> LanConfig {
    let model = match scale {
        Scale::Small => ModelConfig {
            embed_dim: 16,
            epochs: 3,
            max_samples_per_epoch: 500,
            nh_cover_k: 40,
            clusters: 6,
            top_clusters: 3,
            mlp_hidden: 16,
            ..ModelConfig::default()
        },
        Scale::Medium => ModelConfig {
            embed_dim: 32,
            epochs: 5,
            max_samples_per_epoch: 1000,
            nh_cover_k: 80,
            clusters: 8,
            top_clusters: 3,
            ..ModelConfig::default()
        },
    };
    LanConfig {
        pg: PgConfig::new(6),
        model,
        ds: 1.0,
        quant: lan_core::QuantConfig::from_env(),
    }
}

/// Builds the index for one dataset preset at the current scale, printing
/// progress (index construction dominated by GED computations is slow by
/// nature — that is the paper's premise).
///
/// When `LAN_STORE` names a directory, built indexes are cached there as
/// store files keyed by dataset name, size, and scale: a later run with
/// the same key `open`s the file (milliseconds) instead of rebuilding
/// (minutes). A stale or corrupt cache entry is rebuilt and overwritten —
/// the typed open error is printed, never trusted.
pub fn build_index(spec: DatasetSpec, scale: Scale) -> LanIndex {
    let spec = sized_spec(spec, scale);
    let cache = cache_path(&spec, scale);
    if let Some(path) = &cache {
        match LanIndex::open(path) {
            Ok(index) => {
                eprintln!("[{}] opened cached index {}", spec.name, path.display());
                return index;
            }
            Err(lan_store::StoreError::Io(_)) => {} // not cached yet
            Err(e) => eprintln!(
                "[{}] ignoring unusable cache {}: {e}",
                spec.name,
                path.display()
            ),
        }
    }
    let index = build_index_uncached(spec, scale);
    if let Some(path) = &cache {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match index.save(path) {
            Ok(bytes) => eprintln!(
                "[{}] cached index to {} ({bytes} bytes)",
                index.dataset.spec.name,
                path.display()
            ),
            Err(e) => eprintln!(
                "[{}] failed to cache index to {}: {e}",
                index.dataset.spec.name,
                path.display()
            ),
        }
    }
    index
}

/// Cache file for a sized spec under `LAN_STORE`, or `None` when the env
/// knob is unset. The key carries everything `sized_spec` pins (name,
/// sizes, scale); model/PG config follow from the scale.
fn cache_path(spec: &DatasetSpec, scale: Scale) -> Option<std::path::PathBuf> {
    std::env::var("LAN_STORE").ok().map(|dir| {
        std::path::PathBuf::from(dir).join(format!(
            "{}_g{}_q{}_{:?}.lan",
            spec.name.to_lowercase(),
            spec.num_graphs,
            spec.num_queries,
            scale
        ))
    })
}

fn build_index_uncached(spec: DatasetSpec, scale: Scale) -> LanIndex {
    let name = spec.name;
    eprintln!(
        "[{name}] generating dataset ({} graphs)...",
        spec.num_graphs
    );
    let ds = Dataset::generate(spec);
    eprintln!(
        "[{name}] building index (PG + model training); avg |V| = {:.1}, avg |E| = {:.1}",
        ds.avg_nodes(),
        ds.avg_edges()
    );
    let t0 = std::time::Instant::now();
    let index = LanIndex::build(ds, bench_lan_config(scale));
    eprintln!(
        "[{name}] index ready in {:.1}s (build NDC = {}, gamma* = {}, M_nh precision = {:.2})",
        t0.elapsed().as_secs_f64(),
        index.build_ndc,
        index.report.gamma_star,
        index.report.nh_precision
    );
    index
}

/// The four dataset presets.
pub fn all_specs() -> Vec<DatasetSpec> {
    DatasetSpec::all()
}

/// Beam sweep used for recall–QPS curves.
pub fn beam_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![20, 24, 30, 40, 56, 80],
        Scale::Medium => vec![50, 56, 68, 88, 120, 160, 220],
    }
}

/// `k` for recall@k. The paper reports k = 50; at the scaled database sizes
/// 50 is a large fraction of the database, so `small` uses k = 20.
pub fn k_for(scale: Scale) -> usize {
    match scale {
        Scale::Small => 20,
        Scale::Medium => 50,
    }
}

/// Finishes a bench run's observability outputs: the global metrics
/// snapshot as `results/BENCH_obs.json` (+ `results/BENCH_obs.prom`);
/// when `LAN_TRACE=route`, the buffered routing trace as
/// `results/trace_<bench>.jsonl`; when `LAN_EXPLAIN=1`, the buffered
/// per-query EXPLAIN plans as `results/explain_<bench>.jsonl`; and when
/// `LAN_PROFILE=1`, the folded span-tree stacks as
/// `results/PROFILE_<bench>.folded` (inferno/speedscope-compatible) plus
/// a top-self-time table on stderr.
pub fn finish_obs(bench: &str) {
    std::fs::create_dir_all("results").expect("create results/");
    lan_obs::mem::sample_peak_rss();
    let snap = lan_obs::snapshot();
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"metrics_enabled\": {},\n  \"metrics\": {}\n}}\n",
        lan_obs::enabled(),
        snap.to_json(),
    );
    std::fs::write("results/BENCH_obs.json", json).expect("write results/BENCH_obs.json");
    std::fs::write("results/BENCH_obs.prom", snap.to_prometheus())
        .expect("write results/BENCH_obs.prom");
    eprintln!("wrote results/BENCH_obs.json (+ .prom)");
    if lan_obs::trace::route_enabled() {
        let path = format!("results/trace_{bench}.jsonl");
        match lan_obs::trace::write_jsonl(&path) {
            Ok(n) => eprintln!("wrote {n} routing-trace events to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if lan_obs::explain::enabled() {
        let path = format!("results/explain_{bench}.jsonl");
        match lan_obs::explain::write_jsonl(&path) {
            Ok(n) => eprintln!("wrote {n} EXPLAIN plans to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if lan_obs::profile::enabled() {
        let path = format!("results/PROFILE_{bench}.folded");
        match lan_obs::profile::write_folded(&path) {
            Ok(n) => eprintln!("wrote {n} folded stacks to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
        eprint!("{}", lan_obs::profile::format_top(10));
    }
}

/// Prints a curve as aligned rows.
pub fn print_curve(method: &str, curve: &[lan_core::CurvePoint]) {
    for p in curve {
        println!(
            "{method:<12} param={:<5} recall@k={:<8.3} QPS={:<10.2} avgNDC={:.1}",
            p.param, p.recall, p.qps, p.avg_ndc
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_default() {
        // Do not set the env var here (tests run in parallel); just check
        // the parse of explicit values via sized_spec behavior.
        let s = sized_spec(DatasetSpec::aids(), Scale::Small);
        assert_eq!(s.num_graphs, 240);
        let m = sized_spec(DatasetSpec::aids(), Scale::Medium);
        assert!(m.num_graphs > s.num_graphs);
    }

    #[test]
    fn lan_store_cache_is_opened_instead_of_rebuilt() {
        // Plant a tiny prebuilt index under the exact cache key build_index
        // computes for (SYN, Small); the call must come back with the
        // planted 25-graph index instead of rebuilding the 600-graph one.
        let tiny = LanIndex::build(
            Dataset::generate(
                DatasetSpec::syn()
                    .with_graphs(25)
                    .with_queries(8)
                    .with_metric(lan_ged::GedMethod::Hungarian),
            ),
            LanConfig {
                pg: PgConfig::new(4),
                model: ModelConfig {
                    embed_dim: 8,
                    epochs: 1,
                    max_samples_per_epoch: 50,
                    nh_cover_k: 5,
                    clusters: 2,
                    top_clusters: 1,
                    mlp_hidden: 8,
                    ..ModelConfig::default()
                },
                ds: 1.0,
                quant: lan_core::QuantConfig::default(),
            },
        );
        let dir = std::env::temp_dir().join(format!("lan_store_cache_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_str().unwrap().to_string();
        lan_par::testenv::with_env(&[("LAN_STORE", Some(&dir_s))], || {
            let key = cache_path(&sized_spec(DatasetSpec::syn(), Scale::Small), Scale::Small)
                .expect("LAN_STORE is set");
            tiny.save(&key).expect("plant cache");
            let got = build_index(DatasetSpec::syn(), Scale::Small);
            assert_eq!(
                got.dataset.graphs.len(),
                25,
                "build_index must open the planted cache, not rebuild"
            );
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_is_increasing() {
        let sweep = beam_sweep(Scale::Small);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert!(*sweep.first().unwrap() >= k_for(Scale::Small));
    }
}
