//! Drives the built binary at `--smoke` size: the contract with
//! `BENCHMARK.json`, hermeticity, and the `--compare` subcommand.

use lan_obs::json::{parse, Value};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 4] = ["syn-route", "aids-ged", "syn-serve", "syn-build"];

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lan-benchmark"))
}

fn run(workload: &str, seed: u64, traced: bool, extra: &[&str]) -> Output {
    bench()
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("start the benchmark binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// The JSON object on the last line of standard output.
fn result(out: &Output) -> Value {
    let text = stdout(out);
    let last = text.lines().last().expect("the run printed a result");
    parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn members(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn digest_line(out: &Output) -> String {
    stdout(out)
        .lines()
        .find(|l| l.starts_with("digest="))
        .expect("the run printed its digest")
        .to_string()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let spec = parse(BENCHMARK_JSON).unwrap();
    let Some(Value::Arr(items)) = spec.get(key) else {
        panic!("BENCHMARK.json: {key}")
    };
    let text = |v: &Value, k: &str| match v.get(k) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key}.{k}: {other:?}"),
    };
    items
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Every workload, untraced and traced: the run succeeds, its last line
/// has exactly the four result keys, and it prints exactly the metrics
/// `BENCHMARK.json` lists for that mode, with the listed units — no name
/// more, no name less. The four untraced smoke runs fit in a minute.
#[test]
fn every_workload_prints_exactly_the_listed_metrics() {
    let spec = parse(BENCHMARK_JSON).unwrap();
    let Some(Value::Arr(listed_workloads)) = spec.get("workloads") else {
        panic!("BENCHMARK.json: workloads")
    };
    let names: Vec<&Value> = listed_workloads
        .iter()
        .filter_map(|w| w.get("name"))
        .collect();
    assert_eq!(
        names,
        WORKLOADS
            .map(|w| Value::Str(w.into()))
            .iter()
            .collect::<Vec<_>>()
    );
    let mut untraced_time = Duration::ZERO;
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for traced in [false, true] {
            let t0 = Instant::now();
            let out = run(workload, 3, traced, &[]);
            if !traced {
                untraced_time += t0.elapsed();
            }
            assert!(
                out.status.success(),
                "{workload} trace={traced} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let res = result(&out);
            let mut keys: Vec<&str> = members(&res).iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(res.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(res.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(res.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let expect = listed(if traced { "per_layer" } else { "end_to_end" });
            let printed = members(res.get("metrics").unwrap());
            let mut got: Vec<(String, String)> = printed
                .iter()
                .map(|(name, m)| match m.get("unit") {
                    Some(Value::Str(u)) => (name.clone(), u.clone()),
                    other => panic!("{name}: unit {other:?}"),
                })
                .collect();
            let mut want = expect.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} trace={traced}");
            for (name, _) in &expect {
                let v = metric(&res, name);
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                // End-to-end metrics are chosen never to be zero.
                assert!(traced || v > 0.0, "{workload}: {name} = {v}");
            }
            digests.push(digest_line(&out));
        }
        assert_eq!(
            digests[0], digests[1],
            "{workload}: traced and untraced answers differ"
        );
    }
    assert!(
        untraced_time < Duration::from_secs(60),
        "smoke runs took {untraced_time:?}"
    );
}

/// Set `LAN_*` knobs must not reach the measured code: a quantized
/// prefilter, injected GED faults, a forced scheduler and an NDC budget
/// would each change the answers or the work counts if they did.
#[test]
fn lan_environment_is_scrubbed_and_counts_repeat_exactly() {
    let clean = run("syn-route", 5, false, &[]);
    let dirty = bench()
        .args(["--workload", "syn-route", "--seed", "5", "--smoke"])
        .env("LAN_QUANT", "binary")
        .env("LAN_FAULTS", "ged_fail:0.5")
        .env("LAN_SCHED", "seq")
        .env("LAN_NDC_BUDGET", "5")
        .env("LAN_THREADS", "1")
        .output()
        .unwrap();
    assert!(clean.status.success() && dirty.status.success());
    assert_eq!(digest_line(&clean), digest_line(&dirty));
    let (a, b) = (result(&clean), result(&dirty));
    for exact in ["ndc_per_query", "recall_at_10", "build_ndc", "store_mb"] {
        assert_eq!(metric(&a, exact), metric(&b, exact), "{exact}");
    }
    // A time, on the other hand, never reads the same twice.
    assert_ne!(metric(&a, "setup_s"), metric(&b, "setup_s"));
}

#[test]
fn compare_applies_the_bounds() {
    let a = scratch("compare-a.jsonl");
    let out = run("syn-build", 7, false, &["--out", a.to_str().unwrap()]);
    assert!(out.status.success());
    let record = std::fs::read_to_string(&a).unwrap();
    assert_eq!(record.lines().count(), 1);

    // A set of runs agrees with itself, and the counts agree exactly.
    let same = bench().arg("--compare").arg(&a).arg(&a).output().unwrap();
    let text = stdout(&same);
    assert!(same.status.success(), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("ndc_per_query") && l.contains("same (exact)")));
    assert!(text.contains("0 worse"));

    // Halve the throughput of the candidate: worse, and exit code 1.
    let v = parse(record.trim()).unwrap();
    let qps = metric(&v, "qps");
    let needle = format!("\"qps\": {{\"value\": {qps}");
    assert!(record.contains(&needle), "{record}");
    let b = scratch("compare-b.jsonl");
    std::fs::write(
        &b,
        record.replace(&needle, &format!("\"qps\": {{\"value\": {}", qps / 2.0)),
    )
    .unwrap();
    let worse = bench().arg("--compare").arg(&a).arg(&b).output().unwrap();
    assert_eq!(worse.status.code(), Some(1), "{}", stdout(&worse));
    assert!(stdout(&worse)
        .lines()
        .any(|l| l.contains("qps") && l.contains("WORSE")));

    // Another digest for the same workload and seed is a failure too.
    let c = scratch("compare-c.jsonl");
    std::fs::write(&c, record.replace("\"digest\": \"0x", "\"digest\": \"0xf")).unwrap();
    let differs = bench().arg("--compare").arg(&a).arg(&c).output().unwrap();
    assert_eq!(differs.status.code(), Some(1));
    assert!(stdout(&differs).contains("DIFFERENT"));
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "syn-route"],
        &["--workload", "syn-route", "--seed", "1", "--trace", "2"],
        &["--workload", "syn-route", "--seed", "x"],
        &["--workload", "syn-route", "--seed", "1", "--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = bench().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!stdout(&out).contains("\"metrics\""), "{args:?}");
    }
}
