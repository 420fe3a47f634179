//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the harness, around its calls into each
//! layer; they stop at the library boundary (inside `core.run` only the
//! caller-supplied `Meter` sees). Every span carries its name, start,
//! end, the span that caused it, and the op it belongs to; they stay in
//! memory and are written as JSON lines when the run ends.
//!
//! The untraced pass goes through the same [`Tracer::begin`]/[`Tracer::end`]
//! calls with recording off, so both passes time identically and the
//! difference between them is the recording itself.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran, e.g. `core.prepare`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The op (round, wave or campaign) the span belongs to.
    pub op: Option<u64>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    index: Option<usize>,
    start: Instant,
}

/// The recorder. With recording off it only measures.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    /// A recorder; `recording` off turns `begin`/`end` into a stopwatch.
    pub fn new(recording: bool) -> Tracer {
        Tracer { origin: Instant::now(), recording, spans: Vec::new(), stack: Vec::new(), op: None }
    }

    /// Switches recording on or off between segments of a run.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn set_recording(&mut self, recording: bool) {
        assert!(self.stack.is_empty(), "cannot switch recording inside a span");
        self.recording = recording;
    }

    /// Tags the spans that follow with an op id (`None` = set-up).
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Begins a span nested in whichever span is currently open.
    pub fn begin(&mut self, name: &'static str) -> OpenSpan {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let ns = (start - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                op: self.op,
                start_ns: ns,
                end_ns: ns,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        OpenSpan { index, start }
    }

    /// Ends `open` and returns how long it lasted.
    ///
    /// # Panics
    ///
    /// Panics if spans end out of nesting order.
    pub fn end(&mut self, open: OpenSpan) -> Duration {
        let now = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must end innermost first");
            self.spans[index].end_ns = (now - self.origin).as_nanos() as u64;
        }
        now - open.start
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: name, start, end, self time,
    /// parent index and op id.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (i, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name,
                opt(span.parent.map(|p| p as u64)),
                opt(span.op),
                span.start_ns,
                span.end_ns,
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover (children of one parent never overlap —
/// the harness is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] -= span.end_ns - span.start_ns;
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, op: Some(0), start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("op", None, 0, 100),
            span("core.prepare", Some(0), 5, 35),
            span("core.run", Some(0), 40, 90),
            span("check.oracle", Some(2), 80, 88),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 42, 8]);
    }

    #[test]
    fn nesting_records_parents_and_ops() {
        let mut tracer = Tracer::new(true);
        tracer.set_op(Some(7));
        let outer = tracer.begin("op");
        let ((), inner) = tracer.time("core.run", || ());
        let outer = tracer.end(outer);
        assert!(outer >= inner);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].op), ("op", None, Some(7)));
        assert_eq!((spans[1].name, spans[1].parent), ("core.run", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn recording_off_measures_without_storing() {
        let mut tracer = Tracer::new(false);
        let (v, _) = tracer.time("core.run", || 3);
        assert_eq!(v, 3);
        assert!(tracer.spans().is_empty());
    }
}
