//! The serving loop: a blocking acceptor and one thread per connection,
//! on which each admitted query runs the offline sharded search.
//!
//! # Execution model
//!
//! Zero external dependencies and no async runtime: connections get one
//! blocking reader thread each (cheap at the closed-loop client counts
//! the service targets). An admitted query runs
//! [`ShardedLanIndex::search_budgeted`] (or
//! [`ShardedLanIndex::search_explain_budgeted`] when the client asked for
//! the plan) on its connection's thread: the shards fan out under the
//! `lan-par` thread budget, an NDC cap runs them in shard order, and
//! the merge is the offline one. A served query is therefore the offline
//! query, bit for bit (property-tested in `tests/equivalence.rs`),
//! finite NDC budgets included. Concurrent queries share nothing but the
//! index. With `LAN_EXPLAIN` on, each query emits one merged plan, as the
//! offline search does.
//!
//! # Degradation tiers
//!
//! 1. **Admission** — the global in-flight cap and per-tenant fair share
//!    ([`crate::admission`]) refuse excess queries up front: typed
//!    `overloaded` response, no work done.
//! 2. **Deadline shed** — a query whose budget deadline has already
//!    passed when it would start is shed, not executed (`serve.shed`
//!    counts both tiers). Admission never blocks, so this check runs
//!    microseconds after arrival: it sheds a deadline that expired on
//!    arrival (`deadline_ms: 0`), not load. Every later expiry is the
//!    budget's: the deadline bounds execution through the ordinary budget
//!    machinery, with the GED poll stride tightened at boot
//!    ([`lan_ged::set_default_poll_stride`]) so in-flight kernels notice
//!    expiry promptly, and the query answers best-so-far tagged
//!    `deadline`.
//!
//! A connection whose handler thread cannot be started is dropped (the
//! client reads EOF) and counted in `serve.shed`; the acceptor keeps
//! accepting.
//!
//! The listener answers `GET /metrics` HTTP requests on the same port
//! with the Prometheus rendering of the global metrics snapshot.

use crate::admission::Admission;
use crate::config::ServeConfig;
use crate::proto::{
    parse_request, render_error, render_ok, render_overloaded, write_frame, Request, SearchRequest,
};
use lan_core::{InitStrategy, RouteStrategy, ShardedLanIndex};
use lan_obs::names;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

struct ServeMetrics {
    requests: &'static lan_obs::Counter,
    shed: &'static lan_obs::Counter,
    latency: &'static lan_obs::Histogram,
}

struct ServerInner {
    index: Arc<ShardedLanIndex>,
    admission: Arc<Admission>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    metrics: ServeMetrics,
}

impl ServerInner {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor's blocking accept().
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: bound address plus the thread tree for shutdown.
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
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

/// A connection handler to run on a thread of its own.
type Handler = Box<dyn FnOnce() + Send>;

/// Boots the service on `cfg.addr` over a built sharded index. Returns
/// once the listener is bound; queries are served until a `shutdown`
/// request or [`ServerHandle::shutdown`].
pub fn serve(index: Arc<ShardedLanIndex>, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    serve_with(index, cfg, spawn_conn)
}

/// Starts a connection handler's thread.
fn spawn_conn(handler: Handler) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("lan-serve-conn".into())
        .spawn(handler)
}

/// [`serve`] with the acceptor starting each connection's handler through
/// `spawn`.
fn serve_with(
    index: Arc<ShardedLanIndex>,
    cfg: ServeConfig,
    spawn: impl FnMut(Handler) -> std::io::Result<JoinHandle<()>> + Send + 'static,
) -> std::io::Result<ServerHandle> {
    lan_ged::set_default_poll_stride(SERVE_POLL_STRIDE);
    let listener = TcpListener::bind(cfg.addr)?;
    let addr = listener.local_addr()?;
    let inner = Arc::new(ServerInner {
        index,
        admission: Admission::new(cfg.max_inflight),
        shutdown: AtomicBool::new(false),
        addr,
        metrics: ServeMetrics {
            requests: lan_obs::counter(names::SERVE_REQUESTS),
            shed: lan_obs::counter(names::SERVE_SHED),
            latency: lan_obs::histogram(names::SERVE_LATENCY_NS),
        },
    });

    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let inner = Arc::clone(&inner);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("lan-serve-accept".into())
            .spawn(move || accept_loop(listener, &inner, &conns, spawn))
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        inner,
        addr,
        acceptor: Some(acceptor),
        conns,
    })
}

/// Accepts connections until shutdown, one handler thread each. A handler
/// that cannot be started drops its stream (the client sees EOF) and
/// counts in `serve.shed`; the acceptor goes on accepting.
fn accept_loop(
    listener: TcpListener,
    inner: &Arc<ServerInner>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
    mut spawn: impl FnMut(Handler) -> std::io::Result<JoinHandle<()>>,
) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_inner = Arc::clone(inner);
        match spawn(Box::new(move || handle_conn(&conn_inner, stream))) {
            Ok(h) => {
                let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
                reap_finished(&mut conns);
                conns.push(h);
            }
            Err(_) => inner.metrics.shed.inc(),
        }
    }
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

fn handle_conn(inner: &ServerInner, mut stream: TcpStream) {
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

/// Admission → deadline shed → the offline sharded search, run on this
/// connection's thread.
fn handle_search(inner: &ServerInner, req: SearchRequest) -> String {
    let t0 = Instant::now();
    inner.metrics.requests.inc();
    let _token = match inner.admission.try_admit(&req.tenant) {
        Ok(t) => t,
        Err(e) => {
            inner.metrics.shed.inc();
            return render_overloaded(&e.to_string());
        }
    };
    if req.budget.deadline.is_some_and(|d| t0.elapsed() >= d) {
        inner.metrics.shed.inc();
        return render_overloaded("deadline passed before execution");
    }
    let (q, k, b, seed, budget) = (&req.graph, req.k, req.b, req.seed, &req.budget);
    let (out, plan) = if req.explain {
        let (out, ex) = inner
            .index
            .search_explain_budgeted(q, k, b, INIT, ROUTE, seed, budget);
        // One merged plan per served query, as an offline sharded query
        // emits.
        if lan_obs::explain::enabled() {
            lan_obs::explain::emit(&ex);
        }
        (out, Some(ex.to_json()))
    } else {
        // Emits the merged plan itself when the EXPLAIN ring is on.
        let out = inner
            .index
            .search_budgeted(q, k, b, INIT, ROUTE, seed, budget);
        (out, None)
    };
    inner.metrics.latency.record(t0.elapsed().as_nanos() as u64);
    render_ok(
        &out.results,
        out.ndc as u64,
        out.termination.as_str(),
        plan.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::MAX_FRAME;
    use lan_core::LanConfig;
    use lan_datasets::{Dataset, DatasetSpec};

    /// A 16-graph, one-shard index.
    fn boot_index() -> Arc<ShardedLanIndex> {
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
        Arc::new(ShardedLanIndex::build(&Dataset::generate(spec), &cfg, 1))
    }

    fn ephemeral_port() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            ..ServeConfig::default()
        }
    }

    /// Boots a server on an ephemeral port over [`boot_index`].
    fn boot() -> ServerHandle {
        serve(boot_index(), ephemeral_port()).expect("bind ephemeral port")
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
    fn a_failed_handler_spawn_drops_one_connection_and_keeps_accepting() {
        let shed = lan_obs::counter(names::SERVE_SHED);
        let before = shed.get();
        let mut failed = false;
        let server = serve_with(boot_index(), ephemeral_port(), move |handler| {
            if std::mem::replace(&mut failed, true) {
                spawn_conn(handler)
            } else {
                Err(std::io::Error::other("injected spawn failure"))
            }
        })
        .expect("bind ephemeral port");
        // The first connection's handler never starts: its stream is
        // dropped, so the client reads EOF instead of an answer.
        assert!(Client::connect(server.addr()).unwrap().ping().is_err());
        // The acceptor counts the shed connection after its stream closed.
        let deadline = Instant::now() + Duration::from_secs(10);
        while shed.get() == before {
            assert!(
                Instant::now() < deadline,
                "the dropped connection was not shed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The acceptor survived and serves the next connection.
        Client::connect(server.addr()).unwrap().ping().unwrap();
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
