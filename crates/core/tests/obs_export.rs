//! The exported observability artifacts of a sharded query batch, read
//! back the way a consumer reads them: the metrics snapshot as JSON, the
//! routing trace and the EXPLAIN plans as JSONL files, and the span
//! profile as folded stacks.
//!
//! This binary holds one test because it reads global counters: a sibling
//! test running searches would bleed into the `ged.calls` delta.

use lan_core::{InitStrategy, LanConfig, RouteStrategy, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_obs::json::{parse, Value};
use lan_pg::PgConfig;

/// Counters and gauges every process that builds an index and queries it
/// exports (zero-valued when their feature is off: presence is the
/// schema contract).
const REQUIRED_COUNTERS: &[&str] = &[
    "ged.calls",
    "ged.cache.hit",
    "ged.cache.miss",
    "route.hops",
    "route.batches_opened",
    "gnn.forward_calls",
    "gnn.infer.forwards",
    "gnn.infer.cache.hit",
    "gnn.infer.cache.miss",
    "query.count",
    "quant.prefilter.evals",
    "quant.prefilter.pruned",
    "quant.reorder.used",
    "quant.kernel.simd",
    "quant.kernel.scalar",
    "explain.queries",
    "explain.dropped",
    "profile.spans",
    "trace.dropped",
    "mem.peak_rss_kb",
];

fn tiny_cfg() -> LanConfig {
    LanConfig {
        pg: PgConfig::new(4),
        model: ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 80,
            nh_cover_k: 6,
            clusters: 3,
            top_clusters: 2,
            mlp_hidden: 8,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    }
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing number {key}")) as u64
}

/// Writes `what` through its exporter into a fresh temp file and returns
/// the file's lines.
fn exported(tag: &str, what: impl FnOnce(&str) -> std::io::Result<usize>) -> Vec<String> {
    let path = std::env::temp_dir().join(format!("lan_obs_export_{}_{tag}", std::process::id()));
    let path = path.to_str().unwrap();
    let written = what(path).expect("export");
    let text = std::fs::read_to_string(path).expect("read export back");
    let _ = std::fs::remove_file(path);
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), written, "{tag}: exporter miscounted its lines");
    lines
}

#[test]
fn exported_metrics_trace_explain_and_profile_are_consistent() {
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    );
    let sharded = ShardedLanIndex::build(&ds, &tiny_cfg(), 2);
    lan_obs::set_enabled(true);
    lan_obs::trace::set_route_enabled(true);
    lan_obs::explain::set_enabled(true);
    lan_obs::profile::set_enabled(true);
    lan_obs::trace::drain();
    lan_obs::explain::drain();

    let before = lan_obs::snapshot();
    let mut total_ndc = 0u64;
    for (qi, q) in ds.queries.iter().enumerate() {
        let _t = lan_obs::trace::query(qi as u64);
        let out = sharded.search(
            q,
            5,
            10,
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
            qi as u64,
        );
        total_ndc += out.ndc as u64;
    }
    lan_obs::mem::sample_peak_rss();
    let snap = lan_obs::snapshot();
    let delta = snap.diff(&before);
    assert_eq!(
        delta.counter(lan_obs::names::GED_CALLS),
        total_ndc,
        "ged.calls delta != summed NDC"
    );
    assert_eq!(
        delta.counter(lan_obs::names::EXPLAIN_QUERIES),
        ds.queries.len() as u64,
        "one emitted plan per query"
    );

    let doc = parse(&snap.to_json()).expect("metrics snapshot is JSON");
    for key in REQUIRED_COUNTERS {
        let present = ["counters", "gauges"]
            .iter()
            .any(|family| doc.get(family).and_then(|f| f.get(key)).is_some());
        assert!(present, "snapshot is missing {key}");
    }
    assert!(num(doc.get("counters").unwrap(), "query.count") > 0);
    if cfg!(target_os = "linux") {
        assert!(num(doc.get("gauges").unwrap(), "mem.peak_rss_kb") > 0);
    }

    let trace = exported("trace.jsonl", lan_obs::trace::write_jsonl);
    let mut hops = 0;
    for line in &trace {
        let ev = parse(line).unwrap_or_else(|e| panic!("trace line is not JSON ({e}): {line}"));
        if ev.get("ev") == Some(&Value::Str("hop".into())) {
            for field in ["q", "hop", "node", "d", "gamma"] {
                assert!(ev.get(field).is_some(), "hop event missing {field}: {line}");
            }
            hops += 1;
        }
    }
    assert!(hops > 0, "the trace holds no hop events");

    let plans = exported("explain.jsonl", lan_obs::explain::write_jsonl);
    assert_eq!(plans.len(), ds.queries.len(), "one EXPLAIN plan per query");
    for line in &plans {
        let plan = parse(line).unwrap_or_else(|e| panic!("plan is not JSON ({e}): {line}"));
        let tiers = plan.get("tiers").expect("plan has tiers");
        let (lb, tau, full) = (
            num(tiers, "lb_prunes"),
            num(tiers, "tau_aborts"),
            num(tiers, "full_solves"),
        );
        assert_eq!(
            lb + tau + full,
            num(&plan, "ndc"),
            "tiers do not reconcile: {line}"
        );
        assert!(plan.get("shards").is_some(), "plan has no shard sub-plans");
    }

    let folded = exported("profile.folded", lan_obs::profile::write_folded);
    assert!(
        folded.iter().any(|l| l.starts_with("query;query.route ")),
        "no query;query.route stack in the folded profile"
    );
}
