//! In-memory spans around the public calls the harness makes
//! (choosing-metrics §4): recorded only in a traced run, kept in memory,
//! written out once at exit, and the source of every per-layer timing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans written to the trace file; the rest stay in memory for the
/// derived numbers only (a 15 s direct run records several hundred
/// thousand).
const MAX_SPANS_WRITTEN: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// The parent of a top-level span.
    pub const ROOT: SpanId = SpanId(None);
}

/// Span recorder. A disabled tracer records nothing, so the untraced run
/// pays one predictable branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off; a traced run times its untraced
    /// segment with the same tracer switched off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`, belonging to operation `op`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            op,
        });
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span the caller timed itself (on another thread, or
    /// where the timed call must not sit inside a closure), whether or not
    /// the tracer is switched on: the caller decides.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            op: 0,
        });
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `{"workload", "spans_total", "spans": [{name, start_ns,
    /// end_ns, parent, op}, …]}` with the first [`MAX_SPANS_WRITTEN`] spans.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"spans_total\":{},\"spans\":[",
            self.spans.len()
        )?;
        for (i, s) in self.spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", SpanId::ROOT, 0);
        t.end(id);
        assert_eq!(t.span("y", id, 0, || 7), 7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", SpanId::ROOT, 3);
        t.span("child", op, 3, || ());
        t.span("child", op, 3, || ());
        t.end(op);
        t.span("child", SpanId::ROOT, 4, || ());
        assert_eq!(t.len(), 4);
        assert_eq!(t.durations_us("child").len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
    }

    #[test]
    fn trace_file_is_json() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", SpanId::ROOT, 0);
        t.span("core.estimate_subplans", op, 0, || ());
        t.end(op);
        let dir = crate::sys::ScratchDir::create().expect("scratch dir");
        let path = dir.file("t.trace.json");
        t.write_json(&path, "direct_stats").expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        let v = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v["spans_total"], 2);
        let spans = v["spans"].as_array().expect("span array");
        assert_eq!(spans[1]["name"], "core.estimate_subplans");
        assert_eq!(spans[1]["parent"], 0);
        assert!(spans[0]["parent"].is_null());
    }
}
