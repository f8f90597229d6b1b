//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span has a name, a start and end relative to the
//! tracer's creation, and the span that was open when it began. With
//! tracing off every call is a no-op, so the untraced run measures the
//! program alone; the difference between the traced and untraced
//! end-to-end figures is the tracing overhead.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Handle of an open span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            parent: open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        let mut open = self.open.borrow_mut();
        if let Some(pos) = open.iter().rposition(|&s| s == id) {
            open.truncate(pos);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-measured interval (e.g. one request, timed by
    /// the load generator) as a closed child of the innermost open span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let base = self.origin;
        let ns = |t: Instant| t.saturating_duration_since(base).as_nanos() as u64;
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Durations in ms of every closed span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(Span::ms)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
