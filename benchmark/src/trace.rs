//! Benchmark-side spans: one record per call into a layer, kept in memory
//! and written out when the run ends.
//!
//! The spans are recorded from this package, around the public functions
//! of the layers; nothing inside the measured crates changes. A disabled
//! tracer (every `--trace 0` run) records nothing and never reads the
//! clock, so the end-to-end timings are taken with tracing off.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` indexes the span that caused it; spans of one
/// request (one query of one pass) share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
}

/// Single-threaded span recorder (the benchmark's driver thread owns it;
/// load-generating client threads time their own requests and hand the
/// intervals over with [`Tracer::record`]).
pub struct Tracer {
    epoch: Instant,
    state: Option<RefCell<State>>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            state: enabled.then(|| RefCell::new(State::default())),
        }
    }

    /// The instant every span time is relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_for(name, None)
    }

    /// Opens a span tagged with a request id; children inherit the id.
    pub fn request_span(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        self.span_for(name, Some(request))
    }

    fn span_for(&self, name: &'static str, request: Option<u64>) -> SpanGuard<'_> {
        let index = self.state.as_ref().map(|cell| {
            let start_ns = self.now_ns();
            let mut st = cell.borrow_mut();
            let parent = st.open.last().copied();
            let request = request.or_else(|| parent.and_then(|p| st.spans[p].request));
            st.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            let index = st.spans.len() - 1;
            st.open.push(index);
            index
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Records an interval measured elsewhere (a client thread's request)
    /// as a closed child of the innermost open span.
    pub fn record(&self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        if let Some(cell) = &self.state {
            let mut st = cell.borrow_mut();
            let parent = st.open.last().copied();
            st.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: Some(request),
            });
        }
    }

    /// Every closed span so far (empty when disabled).
    pub fn spans(&self) -> Vec<Span> {
        match &self.state {
            Some(cell) => cell.borrow().spans.clone(),
            None => Vec::new(),
        }
    }

    /// Total duration in seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        match &self.state {
            Some(cell) => {
                let st = cell.borrow();
                st.spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                    .sum()
            }
            None => 0.0,
        }
    }

    /// Writes one JSON object per span, with its self time, to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(index), Some(cell)) = (self.index, &self.tracer.state) {
            let end_ns = self.tracer.now_ns();
            let mut st = cell.borrow_mut();
            st.spans[index].end_ns = end_ns;
            // Guards drop innermost first, so `index` is the top of the stack.
            st.open.pop();
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children may overlap each other (parallel
/// client requests), so the covered part is the length of the union of
/// the child intervals clipped to the parent, never their plain sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            sp("pass", 0, 100, None),
            sp("query", 10, 40, Some(0)),
            sp("core.search", 15, 35, Some(1)),
            sp("query", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 40, 30 - 20, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two clients in flight at once: [10, 60) and [30, 80) cover 70 ns.
        let spans = vec![
            sp("pass", 0, 100, None),
            sp("serve.request", 10, 60, Some(0)),
            sp("serve.request", 30, 80, Some(0)),
            // A child that outlives its parent is clipped to it.
            sp("serve.request", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn guards_nest_and_inherit_the_request_id() {
        let t = Tracer::new(true);
        {
            let _pass = t.span("pass");
            {
                let _q = t.request_span("query", 7);
                let _inner = t.span("core.search");
            }
            t.record("serve.request", 9, 1, 2);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, Some(7));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[3].request, Some(9));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _s = t.span("pass");
            t.record("x", 1, 0, 5);
        }
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s("pass"), 0.0);
    }
}
