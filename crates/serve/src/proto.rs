//! Wire protocol: 4-byte big-endian length-prefixed UTF-8 JSON frames.
//!
//! One request frame yields exactly one response frame on the same
//! connection; a connection carries any number of requests sequentially.
//! The same listener also answers plain `GET /metrics` HTTP requests
//! (sniffed from the first bytes — no JSON frame starts with `GET `),
//! so one port serves both queries and Prometheus scrapes.
//!
//! Request (`op` selects the action):
//!
//! ```json
//! {"op": "search", "tenant": "t0", "k": 5, "b": 16, "seed": 3,
//!  "labels": [0, 1, 1], "edges": [[0, 1], [1, 2]],
//!  "explain": false, "deadline_ms": 50, "max_ndc": 5000}
//! ```
//!
//! `op: "ping"` health-checks; `op: "shutdown"` stops the server after
//! acknowledging. Responses carry a `status` discriminant: `ok` (with
//! `results` as `[distance, id]` pairs, `ndc`, `termination`, and the
//! optional `explain` plan), `overloaded` (typed shed — admission
//! rejected or deadline passed before execution), or `error` (malformed
//! request). Distances are rendered with Rust's shortest-roundtrip `f64`
//! formatting, so values cross the wire bit-exactly — the equivalence
//! tests rely on this.

use lan_graph::Graph;
use lan_obs::json::{parse, Value};
use lan_pg::budget::QueryBudget;
use std::io::{Read, Write};
use std::time::Duration;

/// Hard cap on one frame's payload; a length prefix beyond it is treated
/// as a protocol error rather than an allocation request.
pub const MAX_FRAME: usize = 64 << 20;

/// Most nodes a query graph may have. Every distance the search computes
/// is at least linear in the query's size and the Riesen–Bunke matrix is
/// quadratic, so a frame-sized label array (millions of nodes) must be a
/// request error, not a multi-gigabyte allocation inside a shard worker.
/// The dataset presets average 10–48 nodes a graph.
pub const MAX_QUERY_NODES: usize = 1 << 10;

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF at a frame
/// boundary (peer closed the connection between requests).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// JSON string escaping (the protocol never emits raw control bytes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed request.
pub enum Request {
    Search(Box<SearchRequest>),
    Ping,
    Shutdown,
}

/// One k-ANN query as received off the wire.
pub struct SearchRequest {
    /// Tenant for admission fair-share accounting.
    pub tenant: String,
    pub k: usize,
    pub b: usize,
    /// Global query seed (per-shard seeds are derived server-side exactly
    /// like the offline fan-out: `seed ^ shard`).
    pub seed: u64,
    pub graph: Graph,
    /// Attach the per-request EXPLAIN plan to the response.
    pub explain: bool,
    /// Query budget; the deadline doubles as the load-shedding deadline
    /// (a query still queued past it is shed, not executed).
    pub budget: QueryBudget,
}

/// The largest integer a JSON number (an `f64`) carries exactly: from
/// 2^53 on, distinct integers parse to the same value, so a seed there
/// would silently differ from the one the client sent.
const MAX_WIRE_INT: f64 = 9_007_199_254_740_991.0; // 2^53 - 1

fn field_u64(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let f = v
                .as_f64()
                .ok_or_else(|| format!("{key} must be a number"))?;
            if f < 0.0 || f.fract() != 0.0 || f > MAX_WIRE_INT {
                return Err(format!(
                    "{key} must be a non-negative integer below 2^53, got {f}"
                ));
            }
            Ok(Some(f as u64))
        }
    }
}

fn field_bool(obj: &Value, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{key} must be a boolean")),
    }
}

fn parse_graph(obj: &Value) -> Result<Graph, String> {
    let labels = match obj.get("labels") {
        Some(Value::Arr(items)) if items.len() > MAX_QUERY_NODES => {
            return Err(format!(
                "query graph of {} nodes exceeds the {MAX_QUERY_NODES}-node cap",
                items.len()
            ))
        }
        Some(Value::Arr(items)) => items
            .iter()
            .map(|v| {
                let f = v.as_f64().ok_or("labels must be numbers")?;
                if f < 0.0 || f.fract() != 0.0 || f > u16::MAX as f64 {
                    return Err(format!("label out of u16 range: {f}"));
                }
                Ok(f as u16)
            })
            .collect::<Result<Vec<u16>, String>>()?,
        _ => return Err("labels must be an array".into()),
    };
    let edges = match obj.get("edges") {
        None | Some(Value::Null) => Vec::new(),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|e| match e {
                Value::Arr(uv) if uv.len() == 2 => {
                    let u = uv[0].as_f64().ok_or("edge endpoints must be numbers")?;
                    let v = uv[1].as_f64().ok_or("edge endpoints must be numbers")?;
                    let endpoint = |x: f64| x >= 0.0 && x.fract() == 0.0 && x <= u32::MAX as f64;
                    if !endpoint(u) || !endpoint(v) {
                        return Err(format!("edge endpoints must be node ids, got [{u}, {v}]"));
                    }
                    Ok((u as u32, v as u32))
                }
                _ => Err("edges must be [u, v] pairs".to_string()),
            })
            .collect::<Result<Vec<(u32, u32)>, String>>()?,
        Some(_) => return Err("edges must be an array".into()),
    };
    Graph::from_edges(labels, &edges).map_err(|e| format!("invalid query graph: {e}"))
}

/// Parses one request frame.
pub fn parse_request(payload: &str) -> Result<Request, String> {
    let v = parse(payload)?;
    let op = match v.get("op") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("missing op".into()),
    };
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "search" => {
            let tenant = match v.get("tenant") {
                Some(Value::Str(s)) => s.clone(),
                None | Some(Value::Null) => "default".to_string(),
                Some(_) => return Err("tenant must be a string".into()),
            };
            let k = field_u64(&v, "k")?.ok_or("missing k")? as usize;
            let b = field_u64(&v, "b")?.ok_or("missing b")? as usize;
            if k == 0 || b == 0 {
                return Err("k and b must be >= 1".into());
            }
            let seed = field_u64(&v, "seed")?.unwrap_or(0);
            let graph = parse_graph(&v)?;
            let explain = field_bool(&v, "explain")?;
            let mut budget = QueryBudget::unlimited();
            if let Some(ms) = field_u64(&v, "deadline_ms")? {
                budget = budget.with_deadline(Duration::from_millis(ms));
            }
            if let Some(n) = field_u64(&v, "max_ndc")? {
                budget = budget.with_max_ndc(n as usize);
            }
            if let Some(h) = field_u64(&v, "max_hops")? {
                budget = budget.with_max_hops(h as usize);
            }
            Ok(Request::Search(Box::new(SearchRequest {
                tenant,
                k,
                b,
                seed,
                graph,
                explain,
                budget,
            })))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Client-side request rendering (the exact shape [`parse_request`]
/// accepts).
#[allow(clippy::too_many_arguments)]
pub fn render_search_request(
    tenant: &str,
    k: usize,
    b: usize,
    seed: u64,
    graph: &Graph,
    explain: bool,
    deadline_ms: Option<u64>,
    max_ndc: Option<u64>,
) -> String {
    let labels: Vec<String> = graph.labels().iter().map(|l| l.to_string()).collect();
    let edges: Vec<String> = graph.edges().map(|(u, v)| format!("[{u},{v}]")).collect();
    let mut req = format!(
        "{{\"op\":\"search\",\"tenant\":\"{}\",\"k\":{k},\"b\":{b},\"seed\":{seed},\"labels\":[{}],\"edges\":[{}],\"explain\":{explain}",
        json_escape(tenant),
        labels.join(","),
        edges.join(","),
    );
    if let Some(ms) = deadline_ms {
        req.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    if let Some(n) = max_ndc {
        req.push_str(&format!(",\"max_ndc\":{n}"));
    }
    req.push('}');
    req
}

/// Renders a successful search response. `{}`-formatted `f64` is Rust's
/// shortest-roundtrip rendering, so distances survive the wire bit-exactly.
pub fn render_ok(
    results: &[(f64, u32)],
    ndc: u64,
    termination: &str,
    explain: Option<&str>,
) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|(d, id)| format!("[{d},{id}]"))
        .collect();
    let mut out = format!(
        "{{\"status\":\"ok\",\"results\":[{}],\"ndc\":{ndc},\"termination\":\"{termination}\"",
        rows.join(",")
    );
    if let Some(ex) = explain {
        out.push_str(",\"explain\":");
        out.push_str(ex);
    }
    out.push('}');
    out
}

/// Renders the typed shed response.
pub fn render_overloaded(reason: &str) -> String {
    format!(
        "{{\"status\":\"overloaded\",\"reason\":\"{}\"}}",
        json_escape(reason)
    )
}

/// Renders a request-level error response.
pub fn render_error(reason: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"reason\":\"{}\"}}",
        json_escape(reason)
    )
}

/// A parsed response (client side).
#[derive(Debug)]
pub enum Response {
    Ok(OkResponse),
    /// Typed shed: the server refused or abandoned the query under load.
    Overloaded {
        reason: String,
    },
    Error {
        reason: String,
    },
}

/// Successful search response payload.
#[derive(Debug)]
pub struct OkResponse {
    pub results: Vec<(f64, u32)>,
    pub ndc: u64,
    pub termination: String,
    /// The EXPLAIN plan when the request opted in (raw parsed JSON).
    pub explain: Option<Value>,
}

/// Parses one response frame.
pub fn parse_response(payload: &str) -> Result<Response, String> {
    let v = parse(payload)?;
    let status = match v.get("status") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("missing status".into()),
    };
    let reason = || match v.get("reason") {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    match status.as_str() {
        "overloaded" => Ok(Response::Overloaded { reason: reason() }),
        "error" => Ok(Response::Error { reason: reason() }),
        "ok" => {
            let results = match v.get("results") {
                None => Vec::new(),
                Some(Value::Arr(rows)) => rows
                    .iter()
                    .map(|row| match row {
                        Value::Arr(pair) if pair.len() == 2 => {
                            let d = pair[0].as_f64().ok_or("distance must be a number")?;
                            let id = pair[1].as_f64().ok_or("id must be a number")?;
                            Ok((d, id as u32))
                        }
                        _ => Err("results rows must be [distance, id]".to_string()),
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                Some(_) => return Err("results must be an array".into()),
            };
            let ndc = field_u64(&v, "ndc")?.unwrap_or(0);
            let termination = match v.get("termination") {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            let explain = v.get("explain").cloned();
            Ok(Response::Ok(OkResponse {
                results,
                ndc,
                termination,
                explain,
            }))
        }
        other => Err(format!("unknown status {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn search_request_round_trip() {
        let g = Graph::from_edges(vec![0, 1, 1], &[(0, 1), (1, 2)]).unwrap();
        let payload = render_search_request("acme", 5, 16, 42, &g, true, Some(50), Some(1000));
        let req = parse_request(&payload).unwrap();
        let Request::Search(sr) = req else {
            panic!("expected search")
        };
        assert_eq!(sr.tenant, "acme");
        assert_eq!((sr.k, sr.b, sr.seed), (5, 16, 42));
        assert!(sr.explain);
        assert_eq!(sr.graph.node_count(), 3);
        assert_eq!(sr.budget.deadline, Some(Duration::from_millis(50)));
        assert_eq!(sr.budget.max_ndc, Some(1000));
        assert_eq!(sr.budget.max_hops, None);
    }

    #[test]
    fn seeds_up_to_2_pow_53_round_trip_and_larger_ones_are_refused() {
        let g = Graph::from_edges(vec![0, 1], &[(0, 1)]).unwrap();
        let max = (1u64 << 53) - 1;
        let payload = render_search_request("t", 1, 1, max, &g, false, None, None);
        let Request::Search(sr) = parse_request(&payload).unwrap() else {
            panic!("expected search")
        };
        assert_eq!(sr.seed, max);
        for seed in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
            "1e300",
        ] {
            let payload =
                format!(r#"{{"op":"search","k":1,"b":1,"seed":{seed},"labels":[0],"edges":[]}}"#);
            match parse_request(&payload) {
                Err(err) => assert!(err.contains("must be a non-negative integer"), "{err}"),
                Ok(_) => panic!("seed {seed} was accepted"),
            }
        }
    }

    #[test]
    fn distances_cross_the_wire_bit_exactly() {
        let results = vec![(0.1 + 0.2, 7u32), (std::f64::consts::PI, 3), (1.0 / 3.0, 0)];
        let payload = render_ok(&results, 12, "converged", None);
        let Response::Ok(ok) = parse_response(&payload).unwrap() else {
            panic!("expected ok")
        };
        let got: Vec<(u64, u32)> = ok
            .results
            .iter()
            .map(|&(d, id)| (d.to_bits(), id))
            .collect();
        let want: Vec<(u64, u32)> = results.iter().map(|&(d, id)| (d.to_bits(), id)).collect();
        assert_eq!(got, want);
        assert_eq!(ok.ndc, 12);
        assert_eq!(ok.termination, "converged");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"fly"}"#,
            r#"{"op":"search","k":5,"b":8}"#,
            r#"{"op":"search","k":0,"b":8,"labels":[0]}"#,
            r#"{"op":"search","k":5,"b":8,"labels":[0],"edges":[[0,9]]}"#,
            r#"{"op":"search","k":5,"b":8,"labels":[-1]}"#,
            r#"{"op":"search","k":5,"b":8,"labels":[0],"deadline_ms":-4}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn deeply_nested_requests_are_typed_errors() {
        // A frame of a million `[` under a valid request prefix: the JSON
        // depth cap turns it into an error, not a stack overflow that
        // would abort the server.
        let payload = format!(
            "{{\"op\":\"search\",\"k\":5,\"b\":8,\"labels\":{}",
            "[".repeat(1_000_000)
        );
        match parse_request(&payload) {
            Err(err) => assert!(err.contains("nesting"), "{err}"),
            Ok(_) => panic!("a million nested arrays were accepted"),
        }
    }

    #[test]
    fn shed_response_is_typed() {
        let payload = render_overloaded("inflight cap (64) reached");
        match parse_response(&payload).unwrap() {
            Response::Overloaded { reason } => assert!(reason.contains("inflight cap")),
            other => panic!("expected overloaded, got {other:?}"),
        }
    }

    #[test]
    fn escaping_survives_round_trip() {
        let payload = render_error("quote \" backslash \\ newline \n tab \t");
        match parse_response(&payload).unwrap() {
            Response::Error { reason } => {
                assert_eq!(reason, "quote \" backslash \\ newline \n tab \t")
            }
            other => panic!("expected error, got {other:?}"),
        }
    }
}
