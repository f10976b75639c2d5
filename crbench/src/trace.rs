//! In-memory span recorder, written out as Chrome trace-event JSON.
//!
//! Spans are recorded by the benchmark around its calls into the
//! library's public functions: name, start, end, parent span and the id of
//! the operation they belong to.  Nothing is recorded when tracing is off.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crac_repro::sync::Mutex;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span id (unique within the run, never 0).
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to (one checkpoint, one restart, ...).
    pub op: u64,
    /// Layer function the span wraps, e.g. `imagestore.write_image`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A recorder; with `enabled` false every method is a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new("bench.trace.spans", Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span (or operation) id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id();
        self.spans.lock().push(SpanRec {
            id,
            parent,
            op,
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        id
    }

    /// Runs `f` as span `name`; returns its value and duration.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let v = f();
        let t1 = Instant::now();
        self.record(name, parent, op, t0, t1);
        (v, t1 - t0)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// `true` when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto), one complete (`"ph":"X"`) event per span.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().clone();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"crbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{sep}",
                s.name,
                s.op,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.id,
                s.parent,
                s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
