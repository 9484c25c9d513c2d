//! One hermetic recall@QPS benchmark of the LAN workspace.
//!
//! ```text
//! lan-benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//!               [--smoke] [--out <file.jsonl>]
//! lan-benchmark --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! A run generates its inputs from the seed, builds what the workload
//! needs, runs the timed body, checks the outputs and prints every metric
//! by name with its unit; the last line of standard output is the JSON
//! object the driver reads. `--trace 0` prints the end-to-end metrics
//! (timed with tracing off), `--trace 1` the per-layer metrics. See
//! `README.md` next to this package and `BENCHMARK.json` at the root.

mod compare;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use run::Outcome;
use spec::BenchSpec;
use std::io::Write;
use std::path::{Path, PathBuf};
use workload::Workload;

/// Worker threads and load-generating connections: the host's cores, at
/// most four, so that results from hosts of four cores or more compare.
const MAX_THREADS: usize = 4;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn usage() -> String {
    format!(
        "usage: lan-benchmark --workload <{}> --seed <u64> [--seconds <s>] [--trace 0|1] \
         [--smoke] [--out <file.jsonl>]\n       lan-benchmark --compare <a.jsonl> <b.jsonl>",
        workload::names().join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("--seed: not a u64: {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        smoke,
        out,
    }))
}

/// Removes every `LAN_*` variable, then pins the worker count. Runs before
/// any thread starts; afterwards no knob of the measured crates is set
/// except the one this benchmark sets.
fn scrub_environment(threads: usize) {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("LAN_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
    std::env::set_var("LAN_THREADS", threads.to_string());
}

/// The checked-out commit, read from `.git` without starting a process;
/// `unknown` in a checkout that is not a git repository.
fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = match read(git.join("HEAD")) {
        Some(h) => h,
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(git.join(r)).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Names the run printed but `BENCHMARK.json` does not list, or lists but
/// the run did not print, or printed as a non-finite number.
fn contract_violations(spec: &[spec::MetricSpec], values: &[(&'static str, f64)]) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, value) in values {
        if !spec.iter().any(|m| m.name == *name) {
            bad.push(format!("metric {name} is not listed in BENCHMARK.json"));
        }
        if !value.is_finite() {
            bad.push(format!("metric {name} is not a finite number: {value}"));
        }
    }
    for m in spec {
        if values.iter().filter(|(n, _)| *n == m.name).count() != 1 {
            bad.push(format!("metric {} must be printed exactly once", m.name));
        }
    }
    bad
}

fn run(args: RunArgs) -> i32 {
    let bench = BenchSpec::load();
    let Some(w) = Workload::by_name(&args.workload, args.smoke) else {
        eprintln!("unknown workload {:?}\n{}", args.workload, usage());
        return 2;
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = nproc.min(MAX_THREADS);
    scrub_environment(threads);
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { bench.run_seconds });

    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = package.join("out");
    let commit = git_commit(package.parent().unwrap_or(package));
    println!(
        "workload={} seed={} seconds={seconds} trace={} smoke={} nproc={nproc} threads={threads} commit={commit}",
        w.name, args.seed, args.traced as u8, args.smoke
    );

    let Outcome {
        metrics,
        mut checks,
        digest,
        notes,
    } = if args.traced {
        layers::run_traced(&w, args.seed, seconds, threads, args.smoke, &out_dir)
    } else {
        run::run_untraced(&w, args.seed, seconds, threads, args.smoke, &out_dir)
    };
    let expected = bench.expected(args.traced);
    for v in contract_violations(expected, &metrics) {
        checks.check(false, || v);
    }

    for note in &notes {
        println!("{note}");
    }
    println!("digest={digest:#018x}");
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value) in &metrics {
        let unit = expected
            .iter()
            .find(|m| m.name == *name)
            .map_or("?", |m| m.unit.as_str());
        println!("{name:<36} {value:>16.6} {unit}");
        // A non-finite value already failed a check above; keep the line JSON.
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for e in &checks.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = checks.failed == 0;
    let result = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        checks.attempted,
        checks.failed,
        fields.join(", ")
    );
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {nproc}, \
             \"threads\": {threads}, \"commit\": \"{commit}\", \"digest\": \"{digest:#018x}\", {result}}}\n",
            w.name, args.seed, args.traced as u8, args.smoke
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return 1;
        }
    }
    println!("{{{result}}}");
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(Command::Run(args)) => run(args),
        Ok(Command::Compare(a, b)) => compare::compare(&a, &b, &BenchSpec::load()),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            2
        }
    };
    std::process::exit(code);
}
