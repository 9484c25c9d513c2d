//! `--compare a.jsonl b.jsonl`: applies the bounds of `BENCHMARK.json` to
//! two sets of run records (`--out` files), per workload and metric.
//!
//! `a` is the baseline, `b` the candidate. A metric is *worse* when the
//! candidate's median is worse than the baseline's by more than the bound
//! (a share of the baseline median); *unresolved* when it is not worse but
//! the run-to-run spread of either side (interquartile range over median)
//! is wider than the bound, so "unchanged" cannot be claimed; *same*
//! otherwise. Records of the same workload and seed must also carry the
//! same result digest, whichever trace mode produced them.

use crate::spec::BenchSpec;
use crate::stats::{median, spread};
use lan_obs::json::{parse, Value};
use std::path::Path;

struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    smoke: bool,
    digest: String,
    metrics: Vec<(String, f64)>,
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string {key:?}")),
    }
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

fn record(line: &str) -> Result<Record, String> {
    let v = parse(line)?;
    let metrics = match v.get("metrics") {
        Some(Value::Obj(members)) => members
            .iter()
            .map(|(name, m)| Ok((name.clone(), number(m, "value")?)))
            .collect::<Result<_, String>>()?,
        _ => return Err("missing object \"metrics\"".into()),
    };
    Ok(Record {
        workload: text(&v, "workload")?,
        seed: number(&v, "seed")? as u64,
        traced: number(&v, "trace")? != 0.0,
        smoke: matches!(v.get("smoke"), Some(Value::Bool(true))),
        digest: text(&v, "digest")?,
        metrics,
    })
}

fn load(path: &Path) -> Result<Vec<Record>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    body.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| record(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

/// By what share of the baseline median `a` the candidate median `b` is
/// worse (negative when it is better).
fn worse_by(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    (if higher_is_better { ma - mb } else { mb - ma }) / ma.abs()
}

/// The rule of the module docs for one (workload, metric) pairing.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if worse_by(a, b, higher_is_better) > bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .flat_map(|r| {
            r.metrics
                .iter()
                .filter(|(n, _)| n == metric)
                .map(|&(_, v)| v)
        })
        .collect()
}

/// Prints the comparison; returns the process exit code (1 when any
/// pairing is worse or any digest differs, 2 on unreadable input).
pub fn compare(a_path: &Path, b_path: &Path, spec: &BenchSpec) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if a.iter().chain(&b).any(|r| r.smoke) != a.iter().chain(&b).all(|r| r.smoke) {
        eprintln!("smoke and full-size records do not compare");
        return 2;
    }
    println!(
        "{:<10} {:<20} {:>14} {:>14} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median_a", "median_b", "worse_by", "spread_a", "spread_b", "bound"
    );
    let mut counts = [0usize; 3];
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(&va, &vb, m.higher_is_better, bound);
            counts[v as usize] += 1;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{w:<10} {:<20} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>7.2}% {:>7.2}% {:>6.1}%  {}",
                m.name,
                worse_by(&va, &vb, m.higher_is_better) * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Same if ma == mb => "same (exact)",
                    Verdict::Same => "same",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    let mut differing = 0;
    for ra in &a {
        for rb in b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed)
        {
            if ra.digest != rb.digest {
                differing += 1;
                println!(
                    "digest {} seed={}: DIFFERENT ({} vs {})",
                    ra.workload, ra.seed, ra.digest, rb.digest
                );
            }
        }
    }
    println!(
        "{} same, {} worse, {} unresolved; {differing} differing result digests",
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize],
    );
    i32::from(counts[Verdict::Worse as usize] > 0 || differing > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_applies_the_bound_in_the_metric_direction() {
        let base = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: +5 % is inside a 10 % bound, +20 % is not.
        assert_eq!(verdict(&base, &[105.0; 4], false, 0.10), Verdict::Same);
        assert_eq!(verdict(&base, &[120.0; 4], false, 0.10), Verdict::Worse);
        // An improvement never counts as worse.
        assert_eq!(verdict(&base, &[50.0; 4], false, 0.10), Verdict::Same);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict(&base, &[120.0; 4], true, 0.10), Verdict::Same);
        assert_eq!(verdict(&base, &[80.0; 4], true, 0.10), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 100.0];
        assert_eq!(verdict(&noisy, &noisy, false, 0.10), Verdict::Unresolved);
        // A single record per side has no spread to speak of.
        assert_eq!(verdict(&[100.0], &[104.0], false, 0.10), Verdict::Same);
    }

    #[test]
    fn records_parse_from_the_out_format() {
        let line = "{\"workload\": \"syn-route\", \"seed\": 7, \"trace\": 0, \"smoke\": true, \
                    \"nproc\": 2, \"threads\": 2, \"commit\": \"unknown\", \
                    \"digest\": \"0x00000000000000ff\", \"correct\": true, \"attempted\": 3, \
                    \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}";
        let r = record(line).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.traced, r.smoke),
            ("syn-route", 7, false, true)
        );
        assert_eq!(r.metrics, vec![("qps".to_string(), 12.5)]);
        assert!(record("{\"workload\": 3}").is_err());
    }
}
