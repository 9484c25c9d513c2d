//! The exported observability artifacts of a sharded query batch, read
//! back the way a consumer reads them: the metrics snapshot as JSON, the
//! EXPLAIN plans (routing hop events included) as a JSONL file, and the
//! span profile as folded stacks.
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
    "explain.queries",
    "explain.dropped",
    "profile.spans",
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
fn exported_metrics_explain_and_profile_are_consistent() {
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    );
    let sharded = ShardedLanIndex::build(&ds, &tiny_cfg(), 2);
    lan_obs::set_enabled(true);
    lan_obs::explain::set_enabled(true);
    lan_obs::profile::set_enabled(true);
    lan_obs::explain::drain();

    let before = lan_obs::snapshot();
    let mut total_ndc = 0u64;
    for (qi, q) in ds.queries.iter().enumerate() {
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

    let plans = exported("explain.jsonl", lan_obs::explain::write_jsonl);
    assert_eq!(plans.len(), ds.queries.len(), "one EXPLAIN plan per query");
    let mut total_hops = 0;
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
        let Some(Value::Arr(shards)) = plan.get("shards") else {
            panic!("plan has no shard sub-plans: {line}");
        };
        // Each shard sub-plan carries one hop event per hop, every field
        // the routers record; the merged plan's hops are the shards' sum.
        let mut shard_hops = 0;
        for sub in shards {
            let Some(Value::Arr(events)) = sub.get("hop_events") else {
                panic!("sub-plan has no hop_events: {line}");
            };
            assert_eq!(events.len() as u64, num(sub, "hops"), "{line}");
            let mut ndc_so_far = 0;
            for (i, ev) in events.iter().enumerate() {
                for field in ["d", "gamma", "nb", "batches", "opened", "hits"] {
                    assert!(ev.get(field).is_some(), "hop event missing {field}: {line}");
                }
                let stage = num(ev, "stage");
                assert!(
                    stage == 1 || stage == 2,
                    "a LAN hop is stage 1 or 2: {line}"
                );
                if i == 0 {
                    assert_eq!(stage, 1, "the first LAN hop is stage 1: {line}");
                }
                assert!(
                    ev.get("gamma").and_then(Value::as_f64).is_some(),
                    "a LAN hop has a γ: {line}"
                );
                assert!(num(ev, "node") < 20, "node outside its shard: {line}");
                assert!(num(ev, "opened") <= num(ev, "batches"), "{line}");
                assert!(num(ev, "ndc") >= ndc_so_far, "per-hop NDC fell: {line}");
                ndc_so_far = num(ev, "ndc");
            }
            assert!(ndc_so_far <= num(sub, "ndc"), "{line}");
            shard_hops += events.len() as u64;
        }
        assert_eq!(shard_hops, num(&plan, "hops"), "{line}");
        match plan.get("hop_events") {
            Some(Value::Arr(own)) => assert!(own.is_empty(), "merged plan holds hops: {line}"),
            _ => panic!("merged plan has no hop_events array: {line}"),
        }
        total_hops += shard_hops;
    }
    assert!(total_hops > 0, "the plans hold no hop events");

    let folded = exported("profile.folded", lan_obs::profile::write_folded);
    assert!(
        folded.iter().any(|l| l.starts_with("query;query.route ")),
        "no query;query.route stack in the folded profile"
    );
}
