//! `BENCHMARK.json` — the one list of workloads, metric names, units,
//! directions and regression bounds. It is compiled in, so the binary, the
//! `--compare` subcommand and the tests all read the same contract.

use lan_obs::json::{parse, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn string(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: {key} must be a string, got {other:?}"),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("BENCHMARK.json: {key} must be an array, got {other:?}"),
    }
}

fn metric(v: &Value) -> MetricSpec {
    let better = string(v, "better");
    MetricSpec {
        name: string(v, "name"),
        unit: string(v, "unit"),
        higher_is_better: match better.as_str() {
            "higher" => true,
            "lower" => false,
            other => panic!("BENCHMARK.json: better must be higher|lower, got {other:?}"),
        },
        bound: v.get("bound").and_then(Value::as_f64),
    }
}

impl BenchSpec {
    /// The compiled-in contract. Panics on a malformed file: that is a
    /// defect of this repository, not an input.
    pub fn load() -> BenchSpec {
        let v = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        BenchSpec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: array(&v, "workloads")
                .iter()
                .map(|w| string(w, "name"))
                .collect(),
            end_to_end: array(&v, "end_to_end").iter().map(metric).collect(),
            per_layer: array(&v, "per_layer").iter().map(metric).collect(),
        }
    }

    /// The metrics one run must print: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub fn expected(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver refuses a `BENCHMARK.json` over.
    #[test]
    fn contract_limits_hold() {
        let raw = parse(BENCHMARK_JSON).unwrap();
        let Value::Obj(members) = &raw else {
            panic!("top level must be an object")
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);

        let spec = BenchSpec::load();
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));

        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(unit_ok(&m.unit), "unit {:?}", m.unit);
            names.push(&m.name);
        }
        for n in &names {
            assert!(name_ok(n), "name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        for m in &spec.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");

        for w in array(&raw, "workloads") {
            let why = string(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why:?}");
        }
        let strings = |key: &str| -> Vec<String> {
            array(&raw, key)
                .iter()
                .map(|v| match v {
                    Value::Str(s) => s.clone(),
                    other => panic!("{key}: {other:?}"),
                })
                .collect()
        };
        let command = strings("command");
        assert!(!command.is_empty() && command.len() <= 32);
        assert!(command
            .iter()
            .all(|a| a.len() <= 200 && !a.starts_with('/') && !a.contains("..")));
        assert_eq!(strings("paths"), ["benchmark"]);
    }
}
