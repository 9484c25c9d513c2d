//! The serving loop: blocking acceptor + per-connection readers feeding
//! per-shard micro-batching workers.
//!
//! # Execution model
//!
//! Zero external dependencies and no async runtime: connections get one
//! blocking reader thread each (cheap at the closed-loop client counts
//! the service targets), and heavy work happens on `num_shards` *shard
//! workers*. An admitted query is enqueued on **every** shard's queue;
//! each worker pops up to `LAN_SERVE_BATCH` queued queries (holding the
//! first for `LAN_SERVE_BATCH_WAIT_US` to let co-batchable arrivals
//! land), then executes the micro-batch concurrently via
//! `lan_par::par_map_dyn`. Each query runs
//! [`ShardedLanIndex::shard_search`], the code an offline fan-out runs per
//! shard, with its own `BudgetCtx`, query context and `DistCache`;
//! co-batched queries share nothing but the index. That is what makes
//! results bit-identical to [`ShardedLanIndex::search_budgeted`]
//! (property-tested in `tests/equivalence.rs`). With `LAN_EXPLAIN` on,
//! the front-end emits one merged plan per query, as the offline fan-out
//! does.
//!
//! # Degradation tiers
//!
//! 1. **Admission** — the global in-flight cap and per-tenant fair share
//!    ([`crate::admission`]) refuse excess queries up front: typed
//!    `overloaded` response, no work done.
//! 2. **Deadline shed** — a query whose budget deadline has already
//!    passed when a shard worker dequeues it is shed, not executed
//!    (`serve.shed` counts both tiers). The same deadline also bounds
//!    execution via the ordinary budget machinery, with the GED poll
//!    stride tightened at boot ([`lan_ged::set_default_poll_stride`]) so
//!    in-flight kernels notice expiry promptly.
//!
//! The listener answers `GET /metrics` HTTP requests on the same port
//! with the Prometheus rendering of the global metrics snapshot.

use crate::admission::Admission;
use crate::config::ServeConfig;
use crate::proto::{
    parse_request, render_error, render_ok, render_overloaded, write_frame, Request, SearchRequest,
};
use lan_core::sharded::merged_explain;
use lan_core::{InitStrategy, QueryOutcome, RouteStrategy, ShardedLanIndex};
use lan_obs::explain::QueryExplain;
use lan_obs::names;
use lan_pg::budget::BudgetCtx;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving queries answer with the full LAN pipeline (learned initial
/// selection + learned routing with CG acceleration) — the paper's
/// deployed configuration.
const INIT: InitStrategy = InitStrategy::LanIs;
const ROUTE: RouteStrategy = RouteStrategy::LanRoute { use_cg: true };

/// GED deadline-poll stride under serve mode: 4x tighter than the
/// offline default of 256, bounding a budgeted kernel's deadline
/// overshoot to 64 expansions (pinned by `poll_stride_bounds_deadline_
/// overshoot` in `lan-ged`).
const SERVE_POLL_STRIDE: usize = 64;

/// How long blocked reads wait before re-checking the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

enum Slot {
    Pending,
    Done(Box<(QueryOutcome, Option<QueryExplain>)>),
    Shed,
}

struct JobState {
    remaining: usize,
    slots: Vec<Slot>,
}

/// One admitted query in flight across the shard workers.
struct QueryJob {
    req: SearchRequest,
    ctx: BudgetCtx,
    /// Whether the shards return EXPLAIN sub-plans: the client asked for
    /// the merged plan, or the EXPLAIN ring is on (`LAN_EXPLAIN`).
    explain: bool,
    t0: Instant,
    /// Arrival + deadline budget; a worker dequeuing past it sheds the
    /// query instead of executing.
    abs_deadline: Option<Instant>,
    shed: AtomicBool,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl QueryJob {
    fn new(req: SearchRequest, num_shards: usize) -> Self {
        let ctx = BudgetCtx::new(&req.budget);
        let t0 = Instant::now();
        let abs_deadline = req.budget.deadline.map(|d| t0 + d);
        QueryJob {
            explain: req.explain || lan_obs::explain::enabled(),
            req,
            ctx,
            t0,
            abs_deadline,
            shed: AtomicBool::new(false),
            state: Mutex::new(JobState {
                remaining: num_shards,
                slots: (0..num_shards).map(|_| Slot::Pending).collect(),
            }),
            cv: Condvar::new(),
        }
    }

    fn past_deadline(&self, now: Instant) -> bool {
        self.abs_deadline.is_some_and(|d| now >= d)
    }

    fn complete(&self, shard: usize, slot: Slot) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.slots[shard] = slot;
        st.remaining -= 1;
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until every shard has reported, then takes the slots.
    fn wait(&self) -> Vec<Slot> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.remaining > 0 {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        std::mem::take(&mut st.slots)
    }
}

struct ShardQueue {
    q: Mutex<VecDeque<Arc<QueryJob>>>,
    cv: Condvar,
}

struct ServeMetrics {
    requests: &'static lan_obs::Counter,
    shed: &'static lan_obs::Counter,
    occupancy: &'static lan_obs::Histogram,
    latency: &'static lan_obs::Histogram,
}

struct ServerInner {
    index: Arc<ShardedLanIndex>,
    cfg: ServeConfig,
    queues: Vec<ShardQueue>,
    admission: Arc<Admission>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    metrics: ServeMetrics,
}

impl ServerInner {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for sq in &self.queues {
            let _g = sq.q.lock().unwrap_or_else(|e| e.into_inner());
            sq.cv.notify_all();
        }
        // Wake the acceptor's blocking accept().
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: bound address plus the thread tree for shutdown.
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0 to the OS choice).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops (a `shutdown` request arrives), then
    /// joins every thread.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Stops the server from the hosting process and joins every thread.
    pub fn shutdown(mut self) {
        self.inner.begin_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for c in conns {
            let _ = c.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.inner.shutdown.load(Ordering::SeqCst) {
            self.inner.begin_shutdown();
        }
        self.join_all();
    }
}

/// Boots the service on `cfg.addr` over a built sharded index. Returns
/// once the listener is bound; queries are served until a `shutdown`
/// request or [`ServerHandle::shutdown`].
pub fn serve(index: Arc<ShardedLanIndex>, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    lan_ged::set_default_poll_stride(SERVE_POLL_STRIDE);
    let listener = TcpListener::bind(cfg.addr)?;
    let addr = listener.local_addr()?;
    let num_shards = index.num_shards();
    let inner = Arc::new(ServerInner {
        queues: (0..num_shards)
            .map(|_| ShardQueue {
                q: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            })
            .collect(),
        admission: Admission::new(cfg.max_inflight),
        shutdown: AtomicBool::new(false),
        addr,
        metrics: ServeMetrics {
            requests: lan_obs::counter(names::SERVE_REQUESTS),
            shed: lan_obs::counter(names::SERVE_SHED),
            occupancy: lan_obs::histogram(names::SERVE_BATCH_OCCUPANCY),
            latency: lan_obs::histogram(names::SERVE_LATENCY_NS),
        },
        index,
        cfg,
    });

    let workers: Vec<JoinHandle<()>> = (0..num_shards)
        .map(|s| {
            let inner = Arc::clone(&inner);
            // Each worker's micro-batch fan-out gets its share of the
            // thread budget, not all of it.
            lan_par::spawn_worker(
                std::thread::Builder::new().name(format!("lan-serve-shard-{s}")),
                num_shards,
                move || shard_worker(s, &inner),
            )
            .expect("spawn shard worker")
        })
        .collect();

    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let inner = Arc::clone(&inner);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("lan-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let inner = Arc::clone(&inner);
                    let h = std::thread::Builder::new()
                        .name("lan-serve-conn".into())
                        .spawn(move || handle_conn(&inner, stream))
                        .expect("spawn connection handler");
                    let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
                    reap_finished(&mut conns);
                    conns.push(h);
                }
            })
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        inner,
        addr,
        acceptor: Some(acceptor),
        workers,
        conns,
    })
}

/// Joins the connection handlers that have returned, so the acceptor holds
/// one handle per open connection rather than one per connection it ever
/// accepted.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// One shard's micro-batching loop: pop → wait for co-batchable arrivals
/// → shed expired → execute the batch concurrently, each query through
/// [`ShardedLanIndex::shard_search`].
fn shard_worker(s: usize, inner: &Arc<ServerInner>) {
    loop {
        let mut batch: Vec<Arc<QueryJob>> = Vec::new();
        {
            let sq = &inner.queues[s];
            let mut q = sq.q.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    batch.push(j);
                    break;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = sq.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            let wait_deadline = Instant::now() + inner.cfg.batch_wait;
            loop {
                while batch.len() < inner.cfg.batch {
                    match q.pop_front() {
                        Some(j) => batch.push(j),
                        None => break,
                    }
                }
                if batch.len() >= inner.cfg.batch || inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let now = Instant::now();
                if now >= wait_deadline {
                    break;
                }
                let (guard, timeout) = sq
                    .cv
                    .wait_timeout(q, wait_deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
                if timeout.timed_out() {
                    // One final drain happens at the top of the loop.
                    if q.is_empty() {
                        break;
                    }
                }
            }
        }
        inner.metrics.occupancy.record(batch.len() as u64);

        let now = Instant::now();
        let (run, expired): (Vec<_>, Vec<_>) =
            batch.into_iter().partition(|j| !j.past_deadline(now));
        for job in expired {
            job.shed.store(true, Ordering::SeqCst);
            job.complete(s, Slot::Shed);
        }
        if run.is_empty() {
            continue;
        }
        let outs: Vec<(QueryOutcome, Option<QueryExplain>)> =
            lan_par::par_map_dyn(&run, lan_par::Grain::Fine, |job| {
                let r = &job.req;
                inner.index.shard_search(
                    s,
                    &r.graph,
                    r.k,
                    r.b,
                    INIT,
                    ROUTE,
                    r.seed,
                    &job.ctx,
                    job.explain,
                )
            });
        for (job, (out, ex)) in run.iter().zip(outs) {
            job.complete(s, Slot::Done(Box::new((out, ex))));
        }
    }
}

/// Reads exactly `buf.len()` bytes, tolerating read-timeout ticks (used
/// to observe the shutdown flag). `Ok(false)` = clean EOF before any
/// byte; an EOF mid-buffer is an error.
fn read_full(inner: &ServerInner, stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads an `n`-byte frame payload, growing the buffer as the bytes arrive:
/// a length prefix alone commits at most one `CHUNK`, however large a frame
/// it announces. `Ok(None)` = the peer closed or the server is shutting
/// down.
fn read_payload(
    inner: &ServerInner,
    stream: &mut TcpStream,
    n: usize,
) -> std::io::Result<Option<Vec<u8>>> {
    const CHUNK: usize = 64 << 10;
    let mut payload = Vec::new();
    while payload.len() < n {
        let filled = payload.len();
        payload.resize(filled + (n - filled).min(CHUNK), 0);
        if !read_full(inner, stream, &mut payload[filled..])? {
            return Ok(None);
        }
    }
    Ok(Some(payload))
}

/// Serves `GET /metrics`: drains the request head, writes one HTTP
/// response with the Prometheus rendering, and closes.
fn handle_metrics_scrape(inner: &ServerInner, stream: &mut TcpStream) -> std::io::Result<()> {
    // Drain the request head (bounded) until the blank line.
    let mut head: Vec<u8> = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while head.len() < 16 << 10 && !head.ends_with(b"\r\n\r\n") {
        if !read_full(inner, stream, &mut byte)? {
            break;
        }
        head.push(byte[0]);
    }
    let body = lan_obs::snapshot().to_prometheus();
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

fn handle_conn(inner: &Arc<ServerInner>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_nodelay(true);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Sniff: a JSON frame's 4-byte length prefix can never be
        // ASCII "GET " (that would be a 1.2 GB frame, over MAX_FRAME).
        let mut prefix = [0u8; 4];
        match read_full(inner, &mut stream, &mut prefix) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        if &prefix == b"GET " {
            let _ = handle_metrics_scrape(inner, &mut stream);
            return;
        }
        let n = u32::from_be_bytes(prefix) as usize;
        if n > crate::proto::MAX_FRAME {
            let _ = write_frame(&mut stream, render_error("frame too large").as_bytes());
            return;
        }
        let payload = match read_payload(inner, &mut stream, n) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        let payload = match String::from_utf8(payload) {
            Ok(s) => s,
            Err(_) => {
                let _ = write_frame(&mut stream, render_error("frame is not UTF-8").as_bytes());
                continue;
            }
        };
        let resp = match parse_request(&payload) {
            Err(reason) => render_error(&reason),
            Ok(Request::Ping) => "{\"status\":\"ok\"}".to_string(),
            Ok(Request::Shutdown) => {
                inner.begin_shutdown();
                let _ = write_frame(&mut stream, b"{\"status\":\"ok\"}");
                return;
            }
            Ok(Request::Search(req)) => handle_search(inner, *req),
        };
        if write_frame(&mut stream, resp.as_bytes()).is_err() {
            return;
        }
    }
}

/// Admission → enqueue on every shard → wait → merge (or typed shed).
fn handle_search(inner: &Arc<ServerInner>, req: SearchRequest) -> String {
    inner.metrics.requests.inc();
    let _token = match inner.admission.try_admit(&req.tenant) {
        Ok(t) => t,
        Err(e) => {
            inner.metrics.shed.inc();
            return render_overloaded(&e.to_string());
        }
    };
    let (k, b, reply_plan) = (req.k, req.b, req.explain);
    let job = Arc::new(QueryJob::new(req, inner.index.num_shards()));
    for sq in &inner.queues {
        sq.q.lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(Arc::clone(&job));
        sq.cv.notify_all();
    }
    // The front-end's own share of the plan's `total_ns`: enqueueing
    // before the shards run and merging after (queue waits are not work).
    let set_up = job.t0.elapsed();
    let slots = job.wait();
    let t_merge = Instant::now();
    inner
        .metrics
        .latency
        .record(job.t0.elapsed().as_nanos() as u64);
    if job.shed.load(Ordering::SeqCst) {
        inner.metrics.shed.inc();
        return render_overloaded("deadline passed before execution");
    }
    let mut per_shard: Vec<QueryOutcome> = Vec::with_capacity(slots.len());
    let mut plans: Vec<QueryExplain> = Vec::new();
    for slot in slots {
        match slot {
            Slot::Done(done) => {
                let (out, ex) = *done;
                per_shard.push(out);
                if let Some(ex) = ex {
                    plans.push(ex);
                }
            }
            Slot::Pending | Slot::Shed => unreachable!("unshed jobs complete every shard"),
        }
    }
    let merged = inner
        .index
        .merge_shard_outcomes(per_shard, k, job.t0, job.ctx.termination());
    let ex = job.explain.then(|| {
        let own = set_up + t_merge.elapsed();
        merged_explain(
            &merged,
            k,
            b,
            INIT,
            ROUTE,
            job.req.seed,
            &job.ctx,
            plans,
            own,
        )
    });
    // One merged plan per served query, as an offline sharded query emits.
    if let Some(ex) = &ex {
        if lan_obs::explain::enabled() {
            lan_obs::explain::emit(ex);
        }
    }
    let explain_json = ex.filter(|_| reply_plan).map(|ex| ex.to_json());
    render_ok(
        &merged.results,
        merged.ndc as u64,
        merged.termination.as_str(),
        explain_json.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::MAX_FRAME;
    use lan_core::LanConfig;
    use lan_datasets::{Dataset, DatasetSpec};

    /// Boots a server on an ephemeral port over a 16-graph, one-shard index.
    fn boot() -> ServerHandle {
        let cfg = LanConfig {
            pg: lan_pg::PgConfig::new(4),
            model: lan_models::ModelConfig {
                embed_dim: 8,
                epochs: 1,
                max_samples_per_epoch: 40,
                nh_cover_k: 4,
                clusters: 2,
                top_clusters: 1,
                mlp_hidden: 8,
                ..lan_models::ModelConfig::default()
            },
            ..LanConfig::default()
        };
        let spec = DatasetSpec::syn()
            .with_graphs(16)
            .with_queries(4)
            .with_metric(lan_ged::GedMethod::Hungarian);
        let index = ShardedLanIndex::build(&Dataset::generate(spec), &cfg, 1);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            ..ServeConfig::default()
        };
        serve(Arc::new(index), cfg).expect("bind ephemeral port")
    }

    fn held(server: &ServerHandle) -> usize {
        server.conns.lock().unwrap().len()
    }

    #[test]
    fn closed_connections_do_not_accumulate_handles() {
        let server = boot();
        for _ in 0..200 {
            Client::connect(server.addr()).unwrap().ping().unwrap();
        }
        // A handler's handle goes at the first accept after it returned, so
        // keep connecting until the stragglers of the loop are gone: at
        // most this connection's handle and one other may remain.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            Client::connect(server.addr()).unwrap().ping().unwrap();
            let n = held(&server);
            if n <= 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{n} handles held after 200 closed connections"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn a_frame_that_never_arrives_does_not_stop_the_server() {
        let server = boot();
        let mut liar = TcpStream::connect(server.addr()).unwrap();
        liar.write_all(&(MAX_FRAME as u32).to_be_bytes()).unwrap();
        liar.write_all(&[b' '; 8]).unwrap();
        // Others are served while the frame is pending, and after its
        // sender gives up.
        Client::connect(server.addr()).unwrap().ping().unwrap();
        drop(liar);
        Client::connect(server.addr()).unwrap().ping().unwrap();
        server.shutdown();
    }
}
