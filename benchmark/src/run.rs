//! The end-to-end run (`--trace 0`): set-up several times, the timed body
//! with tracing off, the output checks, and the end-to-end metrics.

use crate::stats::{self, median, percentile, Fnv};
use crate::trace::Tracer;
use crate::workload::{self, Workload, B, K, WARMUP};
use lan_core::{QueryOutcome, ShardedLanIndex, Termination};
use lan_datasets::{recall_at_k_ties, Dataset};
use lan_graph::Graph;
use lan_serve::{serve, Client, Response, SearchCall, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Latency percentiles are taken per pass and need ten samples beyond
/// p95 over the passes of one run: at least this many timed queries.
pub const MIN_TIMED_QUERIES: usize = 200;

/// One answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub results: Vec<(f64, u32)>,
    pub ndc: u64,
}

/// One pass over the evaluation queries, in query order.
pub struct Pass {
    /// Per-query latency in nanoseconds, in query order.
    pub lat_ns: Vec<u64>,
    pub wall_s: f64,
    pub answers: Vec<Answer>,
    /// Queries that did not end `ok` and `Converged`.
    pub failed: u64,
}

impl Pass {
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for a in &self.answers {
            stats::eat_answer(&mut h, &a.results, a.ndc);
        }
        h.finish()
    }

    pub fn qps(&self) -> f64 {
        self.answers.len() as f64 / self.wall_s
    }

    /// Nearest-rank latency percentile of this pass, in milliseconds.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, p) as f64 / 1e6
    }

    pub fn mean_ndc(&self) -> f64 {
        self.answers.iter().map(|a| a.ndc as f64).sum::<f64>() / self.answers.len() as f64
    }
}

/// Counts operations and failed operations, and keeps why each failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// One output check: counted as an operation, and as a failure with
    /// its reason when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(why());
        }
    }

    /// A batch of operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.errors
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    pub fn count_pass(&mut self, pass: &Pass, what: &str) {
        self.count(pass.answers.len() as u64, pass.failed, what);
    }
}

/// What one run hands to `main` for printing.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Checks,
    /// Digest of the first pass: equal between the traced and the untraced
    /// run of one seed.
    pub digest: u64,
    /// Human-readable context lines (sample counts and the like).
    pub notes: Vec<String>,
}

/// A per-process scratch directory under `benchmark/out/`, removed on drop
/// so that no run can open a store file an earlier commit wrote.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out_dir: &Path) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One sequential caller over every query: `search(i, query)` is timed
/// around each call.
pub fn sequential_pass(
    queries: &[Graph],
    mut search: impl FnMut(usize, &Graph) -> QueryOutcome,
) -> Pass {
    let mut lat_ns = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    let mut failed = 0;
    let t0 = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let out = search(i, q);
        lat_ns.push(t.elapsed().as_nanos() as u64);
        failed += u64::from(out.termination != Termination::Converged);
        answers.push(Answer {
            results: out.results,
            ndc: out.ndc as u64,
        });
    }
    Pass {
        lat_ns,
        wall_s: t0.elapsed().as_secs_f64(),
        answers,
        failed,
    }
}

/// [`sequential_pass`] through the path the workload measures offline.
pub fn offline_pass(w: &Workload, index: &ShardedLanIndex, queries: &[Graph]) -> Pass {
    sequential_pass(queries, |i, q| w.search(index, q, i))
}

/// The untimed queries that let caches fill and lazy set-up finish.
pub fn warm_up(w: &Workload, index: &ShardedLanIndex, queries: &[Graph]) {
    for (i, q) in queries.iter().take(WARMUP).enumerate() {
        std::hint::black_box(w.search(index, q, i));
    }
}

/// Boots the server on an ephemeral loopback port.
pub fn boot_server(index: &Arc<ShardedLanIndex>) -> std::io::Result<ServerHandle> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".parse().expect("loopback address parses"),
        ..ServeConfig::default()
    };
    serve(Arc::clone(index), cfg)
}

/// Closed-loop load: one blocking connection per client, each sending its
/// contiguous slice of the queries and waiting for every reply.
pub struct LoadGen {
    clients: Vec<Client>,
}

impl LoadGen {
    pub fn connect(addr: SocketAddr, clients: usize) -> std::io::Result<Self> {
        let clients = (0..clients)
            .map(|_| Client::connect(addr))
            .collect::<std::io::Result<_>>()?;
        Ok(LoadGen { clients })
    }

    /// One pass: every client starts on a barrier; latency is timed at the
    /// client, around the whole round trip. A failed request leaves an
    /// empty answer, so the pass digest cannot match the offline one.
    pub fn pass(&mut self, queries: &[Graph], tracer: &Tracer) -> Pass {
        let n = queries.len();
        let chunk = n.div_ceil(self.clients.len());
        let barrier = Barrier::new(self.clients.len() + 1);
        let epoch = tracer.epoch();
        // (query, start, end, answer) per request.
        type Row = (usize, Instant, Instant, Option<Answer>);
        let (t0, rows): (Instant, Vec<Row>) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let lo = (c * chunk).min(n);
                        let hi = ((c + 1) * chunk).min(n);
                        (lo..hi)
                            .map(|i| {
                                let call = SearchCall::new(&queries[i], K, B, i as u64);
                                let start = Instant::now();
                                let resp = client.search(&call);
                                let end = Instant::now();
                                let answer = match resp {
                                    Ok(Response::Ok(ok)) if ok.termination == "converged" => {
                                        Some(Answer {
                                            results: ok.results,
                                            ndc: ok.ndc,
                                        })
                                    }
                                    _ => None,
                                };
                                (i, start, end, answer)
                            })
                            .collect::<Vec<Row>>()
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            let rows = handles
                .into_iter()
                .flat_map(|h| h.join().expect("load client thread"))
                .collect();
            (t0, rows)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        // Clients own contiguous ascending slices and are joined in order,
        // so `rows` is already in query order.
        debug_assert!(rows.iter().enumerate().all(|(i, r)| r.0 == i));
        let mut pass = Pass {
            lat_ns: Vec::with_capacity(n),
            wall_s,
            answers: Vec::with_capacity(n),
            failed: 0,
        };
        for (i, start, end, answer) in rows {
            pass.lat_ns.push((end - start).as_nanos() as u64);
            tracer.record(
                "serve.request",
                i as u64,
                (start - epoch).as_nanos() as u64,
                (end - epoch).as_nanos() as u64,
            );
            pass.failed += u64::from(answer.is_none());
            pass.answers.push(answer.unwrap_or(Answer {
                results: Vec::new(),
                ndc: 0,
            }));
        }
        pass
    }
}

/// Samples of the build/store metrics over set-ups (or build cycles).
#[derive(Default)]
struct BuildSamples {
    build_s: Vec<f64>,
    save_s: Vec<f64>,
    open_s: Vec<f64>,
    cold_s: Vec<f64>,
    /// `(build_ndc, store bytes, store checksum)` per build: equal across
    /// builds of the same inputs.
    identity: Vec<(u64, u64, u64)>,
}

fn build_ndc(index: &ShardedLanIndex) -> u64 {
    index.shards.iter().map(|s| s.build_ndc as u64).sum()
}

/// Builds the index, times it, and round-trips it through the store.
/// Returns the built and the last opened index.
fn build_and_probe(
    w: &Workload,
    dataset: &Dataset,
    queries: &[Graph],
    store_path: &Path,
    samples: &mut BuildSamples,
    checks: &mut Checks,
    tracer: &Tracer,
) -> (ShardedLanIndex, ShardedLanIndex) {
    let t0 = Instant::now();
    let index = workload::build(w, dataset, tracer);
    samples.build_s.push(t0.elapsed().as_secs_f64());
    let (probe, opened) = probe_store(w, &index, queries, store_path, checks, tracer);
    samples.save_s.extend(&probe.save_s);
    samples.open_s.extend(&probe.open_s);
    // One sample per round trip: the mean over its distinct cold queries.
    samples
        .cold_s
        .push(probe.cold_s.iter().sum::<f64>() / probe.cold_s.len() as f64);
    samples
        .identity
        .push((build_ndc(&index), probe.bytes, probe.checksum));
    (index, opened)
}

/// One save → open → cold-query round trip of the store.
pub struct StoreProbe {
    pub save_s: Vec<f64>,
    pub bytes: u64,
    /// FNV-1a of the file: equal across builds of the same inputs.
    pub checksum: u64,
    pub open_s: Vec<f64>,
    /// `open` plus the first answer, per repetition.
    pub cold_s: Vec<f64>,
}

/// Saves `index` to `path` `w.opens` times (each save replaces the file
/// atomically), then opens it `w.opens` times bare and `w.opens` times
/// followed by one query, each time another one (an even stride through
/// `queries`, so that no single query's cost stands for the cold path);
/// every cold answer must equal the built index's. Returns the
/// measurements and the last opened index; a store error fails the run.
pub fn probe_store(
    w: &Workload,
    index: &ShardedLanIndex,
    queries: &[Graph],
    path: &Path,
    checks: &mut Checks,
    tracer: &Tracer,
) -> (StoreProbe, ShardedLanIndex) {
    let open =
        || ShardedLanIndex::open(path).unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    let mut save_s = Vec::with_capacity(w.opens);
    let mut bytes = 0;
    for _ in 0..w.opens {
        let t0 = Instant::now();
        let _s = tracer.span("store.save");
        bytes = index
            .save(path)
            .unwrap_or_else(|e| panic!("save {}: {e}", path.display()));
        save_s.push(t0.elapsed().as_secs_f64());
    }
    let stored = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let checksum = lan_store::fnv1a64(&stored);
    drop(stored);

    let mut open_s = Vec::with_capacity(w.opens);
    for _ in 0..w.opens {
        let t0 = Instant::now();
        let idx = {
            let _s = tracer.span("store.open");
            open()
        };
        open_s.push(t0.elapsed().as_secs_f64());
        drop(idx);
    }
    let mut cold_s = Vec::with_capacity(w.opens);
    let mut mismatches = 0;
    let mut opened = None;
    for rep in 0..w.opens {
        let i = rep * queries.len() / w.opens;
        let expect = w.search(index, &queries[i], i);
        let t0 = Instant::now();
        let cold = {
            let _s = tracer.span("store.cold_first_query");
            let idx = open();
            let out = w.search(&idx, &queries[i], i);
            cold_s.push(t0.elapsed().as_secs_f64());
            opened = Some(idx);
            out
        };
        mismatches += u64::from(cold.results != expect.results || cold.ndc != expect.ndc);
    }
    checks.count(
        w.opens as u64,
        mismatches,
        "cold first answers (opened index vs built index)",
    );
    let probe = StoreProbe {
        save_s,
        bytes,
        checksum,
        open_s,
        cold_s,
    };
    (probe, opened.expect("at least one open per probe"))
}

/// Runs `one` until `seconds` have passed and at least `min_passes` ran.
fn timed_passes(seconds: f64, min_passes: usize, mut one: impl FnMut() -> Pass) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || t0.elapsed().as_secs_f64() < seconds {
        passes.push(one());
    }
    passes
}

/// Tie-aware recall@K of `pass` against the k-th true distances.
pub fn recall(pass: &Pass, truth_kth: &[f64]) -> f64 {
    let total: f64 = pass
        .answers
        .iter()
        .zip(truth_kth)
        .map(|(a, &kth)| recall_at_k_ties(&a.results, kth, K))
        .sum();
    total / truth_kth.len() as f64
}

/// The whole `--trace 0` run of one workload.
pub fn run_untraced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    smoke: bool,
    out_dir: &Path,
) -> Outcome {
    let tracer = Tracer::new(false);
    let scratch = ScratchDir::new(out_dir).expect("create the scratch directory");
    let store_path = scratch.file("index.lan");
    let mut checks = Checks::default();
    let mut samples = BuildSamples::default();
    let mut notes = Vec::new();

    // --- Set-up, several times; the last one feeds the timed body. ---
    let mut setup_s = Vec::with_capacity(w.setup_reps);
    let mut last = None;
    for _ in 0..w.setup_reps {
        // Set-up is generation + index build + ground truth; the store
        // round trip in between is measured by its own metrics.
        let t0 = Instant::now();
        let (dataset, queries) = workload::generate(w, seed, &tracer);
        let mut spent = t0.elapsed().as_secs_f64();
        let built = (!w.builds_in_body()).then(|| {
            let (built, _opened) = build_and_probe(
                w,
                &dataset,
                &queries,
                &store_path,
                &mut samples,
                &mut checks,
                &tracer,
            );
            spent += samples.build_s.last().expect("the build just timed");
            built
        });
        let t0 = Instant::now();
        let truth_kth = workload::ground_truth(w, &dataset, &queries, &tracer);
        setup_s.push(spent + t0.elapsed().as_secs_f64());
        last = Some((dataset, queries, truth_kth, built));
    }
    let (dataset, queries, truth_kth, built) = last.expect("at least one set-up");

    // --- The timed body. ---
    let min_passes = if smoke {
        1
    } else {
        MIN_TIMED_QUERIES.div_ceil(w.queries)
    };
    let (passes, reference): (Vec<Pass>, Option<Pass>) = match w.kind {
        workload::Kind::SynRoute | workload::Kind::AidsGed => {
            let index = built.expect("set-up built the index");
            warm_up(w, &index, &queries);
            let passes = timed_passes(seconds, min_passes, || offline_pass(w, &index, &queries));
            (passes, None)
        }
        workload::Kind::SynServe => {
            let index = Arc::new(built.expect("set-up built the index"));
            // The offline answers the served ones must equal, bit for bit.
            let offline = offline_pass(w, &index, &queries);
            let server = boot_server(&index).expect("bind the loopback server");
            let mut load = LoadGen::connect(server.addr(), threads).expect("connect the clients");
            load.pass(&queries[..WARMUP], &tracer);
            let passes = timed_passes(seconds, min_passes, || load.pass(&queries, &tracer));
            drop(load);
            server.shutdown();
            (passes, Some(offline))
        }
        workload::Kind::SynBuild => {
            // Build cycles take most of the run; the queries then run on
            // the index as a fresh process would find it: opened from disk.
            let t0 = Instant::now();
            let min_cycles = if smoke { 1 } else { 3 };
            let mut pair = None;
            while samples.build_s.len() < min_cycles || t0.elapsed().as_secs_f64() < 0.5 * seconds {
                pair = Some(build_and_probe(
                    w,
                    &dataset,
                    &queries,
                    &store_path,
                    &mut samples,
                    &mut checks,
                    &tracer,
                ));
            }
            let (built, opened) = pair.expect("at least one build cycle");
            let reference = offline_pass(w, &built, &queries);
            drop(built);
            warm_up(w, &opened, &queries);
            let left = seconds - t0.elapsed().as_secs_f64();
            let passes = timed_passes(left, min_passes.max(3), || {
                offline_pass(w, &opened, &queries)
            });
            (passes, Some(reference))
        }
    };

    // --- Output checks. ---
    let digest = passes[0].digest();
    for p in &passes {
        checks.count_pass(p, "timed queries");
    }
    checks.check(passes.iter().all(|p| p.digest() == digest), || {
        "passes over the same queries gave different answers".into()
    });
    if let Some(reference) = &reference {
        checks.count_pass(reference, "reference queries");
        checks.check(reference.digest() == digest, || {
            format!(
                "{}: measured answers differ from the reference path (digest {:#018x} vs {digest:#018x})",
                w.name,
                reference.digest()
            )
        });
    }
    let first = samples.identity[0];
    checks.check(samples.identity.iter().all(|&id| id == first), || {
        format!(
            "builds of the same inputs differ (build_ndc, store bytes, checksum): {:?}",
            samples.identity
        )
    });

    // --- End-to-end metrics: medians over passes / set-ups / cycles. ---
    let over_passes = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let timed: usize = passes.iter().map(|p| p.answers.len()).sum();
    notes.push(format!(
        "samples: {} set-ups, {} builds, {} opens, {} passes of {} queries ({timed} timed queries{})",
        setup_s.len(),
        samples.build_s.len(),
        samples.open_s.len(),
        passes.len(),
        w.queries,
        match stats::supported_tail(timed) {
            Some(p) if p >= 0.95 => String::new(),
            _ => "; too few for p95, smoke sizes only".to_string(),
        }
    ));
    notes.push(format!(
        "qps per pass: {}",
        passes
            .iter()
            .map(|p| format!("{:.1}", p.qps()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("qps", over_passes(&|p| p.qps())),
        ("latency_p50_ms", over_passes(&|p| p.latency_ms(0.50))),
        ("latency_p95_ms", over_passes(&|p| p.latency_ms(0.95))),
        ("recall_at_10", recall(&passes[0], &truth_kth)),
        ("ndc_per_query", passes[0].mean_ndc()),
        ("peak_rss_mb", peak_rss_mb()),
        ("build_s", median(&samples.build_s)),
        ("build_ndc", first.0 as f64),
        ("save_ms", median(&samples.save_s) * 1e3),
        ("open_ms", median(&samples.open_s) * 1e3),
        ("cold_first_query_ms", median(&samples.cold_s) * 1e3),
        ("store_mb", first.1 as f64 / 1e6),
    ];
    Outcome {
        metrics,
        checks,
        digest,
        notes,
    }
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where unsupported.
pub fn peak_rss_mb() -> f64 {
    lan_obs::mem::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}
