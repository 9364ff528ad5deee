//! Metric registry with Prometheus text exposition.
//!
//! A [`MetricsRegistry`] owns an ordered list of metric *families* (one
//! `# HELP`/`# TYPE` header each); every family holds one entry per label
//! set, and every entry is a closure sampled at render time. The owner of
//! the atomics keeps them; the registry only knows how to read them, so
//! the hot path never learns the registry exists.
//!
//! Rendering follows the Prometheus text format: families and entries in
//! registration order, label values escaped (`\\`, `\"`, `\n`), histogram
//! buckets as cumulative `_bucket{le="…"}` series ending in `+Inf`, plus
//! `_sum` and `_count`. Histograms record **nanosecond** durations; the
//! exposition converts bounds and sums to seconds (the Prometheus base
//! unit), so histogram families should be named `*_seconds`.

use crate::histogram::HistogramSnapshot;
use std::fmt::Write as _;
use std::sync::Mutex;

enum Source {
    Counter(Box<dyn Fn() -> u64 + Send + Sync>),
    Gauge(Box<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Box<dyn Fn() -> HistogramSnapshot + Send + Sync>),
}

impl Source {
    /// The family type, as its `# TYPE` line spells it.
    fn kind(&self) -> &'static str {
        match self {
            Source::Counter(_) => "counter",
            Source::Gauge(_) => "gauge",
            Source::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    labels: Vec<(String, String)>,
    source: Source,
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    entries: Vec<Entry>,
}

/// An ordered collection of metric families with Prometheus exposition.
///
/// Registration takes a short lock; rendering takes the same lock and
/// samples every entry's closure.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `name{labels}` to its family, creating the family (with this
    /// `help`) on first use; a later entry's `help` is ignored.
    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], source: Source) {
        let kind = source.kind();
        let entry = Entry {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            source,
        };
        let mut fams = self.families.lock().unwrap();
        if let Some(fam) = fams.iter_mut().find(|f| f.name == name) {
            assert!(
                fam.kind == kind,
                "metric family {name:?} registered as {} and {kind}",
                fam.kind
            );
            fam.entries.push(entry);
        } else {
            fams.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                entries: vec![entry],
            });
        }
    }

    /// Register a counter sampled from a closure at render time.
    pub fn register_counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Counter(Box::new(f)));
    }

    /// Register a gauge sampled from a closure at render time (e.g. a live
    /// queue depth).
    pub fn register_gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Gauge(Box::new(f)));
    }

    /// Register a histogram sampled from a closure at render time (record
    /// nanoseconds into the [`crate::Histogram`] behind it; the exposition
    /// renders seconds).
    pub fn register_histogram_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Histogram(Box::new(f)));
    }

    /// Render the whole registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for fam in fams.iter() {
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind);
            for entry in &fam.entries {
                render_entry(&mut out, &fam.name, entry);
            }
        }
        out
    }
}

fn render_entry(out: &mut String, name: &str, entry: &Entry) {
    match &entry.source {
        Source::Counter(f) => scalar_line(out, name, &entry.labels, None, &f().to_string()),
        Source::Gauge(f) => scalar_line(out, name, &entry.labels, None, &fmt_f64(f())),
        Source::Histogram(f) => histogram_lines(out, name, &entry.labels, &f()),
    }
}

fn histogram_lines(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    let bucket_name = format!("{name}_bucket");
    let mut cum = 0u64;
    for (hi_ns, count) in snap.buckets() {
        cum += count;
        // Divide rather than multiply by 1e-9: division by the exactly
        // representable 1e9 is correctly rounded, so 25 ns renders as
        // "0.000000025", not "0.000000025000000000000002".
        let le = fmt_f64(hi_ns as f64 / 1e9);
        scalar_line(
            out,
            &bucket_name,
            labels,
            Some(("le", &le)),
            &cum.to_string(),
        );
    }
    scalar_line(
        out,
        &bucket_name,
        labels,
        Some(("le", "+Inf")),
        &snap.count().to_string(),
    );
    scalar_line(
        out,
        &format!("{name}_sum"),
        labels,
        None,
        &fmt_f64(snap.sum() as f64 / 1e9),
    );
    scalar_line(
        out,
        &format!("{name}_count"),
        labels,
        None,
        &snap.count().to_string(),
    );
}

fn scalar_line(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || extra.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Format an f64 the way Prometheus expects: plain decimal, no exponent
/// (Rust's `Display` for `f64` never emits scientific notation).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a label value: backslash, double-quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Escape a HELP string: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::bucket_bounds;
    use crate::{Counter, Histogram};
    use std::sync::Arc;

    /// Registers a fresh histogram under `name{labels}`; the returned
    /// handle is the recording side.
    fn histogram(
        reg: &MetricsRegistry,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        let read = Arc::clone(&h);
        reg.register_histogram_fn(name, help, labels, move || read.snapshot());
        h
    }

    #[test]
    fn golden_exposition_text() {
        let reg = MetricsRegistry::new();
        let requests = Arc::new(Counter::new());
        let read = Arc::clone(&requests);
        reg.register_counter_fn(
            "fj_requests_total",
            "Requests served.",
            &[("dataset", "stats")],
            move || read.get(),
        );
        requests.add(3);
        reg.register_counter_fn(
            "fj_requests_total",
            "ignored duplicate help",
            &[("dataset", "imdb")],
            || 7,
        );
        reg.register_gauge_fn("fj_queue_depth", "Jobs queued.", &[], || 4.0);
        let h = histogram(
            &reg,
            "fj_latency_seconds",
            "End-to-end latency.",
            &[("dataset", "stats")],
        );
        // 100 ns lands in bucket [100, 101]; 25 and 40 are in width-1
        // buckets (exact range and the first octave).
        h.record(25);
        h.record(100);
        h.record(100);
        h.record(40);

        let text = reg.render();
        let expected = "\
# HELP fj_requests_total Requests served.
# TYPE fj_requests_total counter
fj_requests_total{dataset=\"stats\"} 3
fj_requests_total{dataset=\"imdb\"} 7
# HELP fj_queue_depth Jobs queued.
# TYPE fj_queue_depth gauge
fj_queue_depth 4
# HELP fj_latency_seconds End-to-end latency.
# TYPE fj_latency_seconds histogram
fj_latency_seconds_bucket{dataset=\"stats\",le=\"0.000000025\"} 1
fj_latency_seconds_bucket{dataset=\"stats\",le=\"0.00000004\"} 2
fj_latency_seconds_bucket{dataset=\"stats\",le=\"0.000000101\"} 4
fj_latency_seconds_bucket{dataset=\"stats\",le=\"+Inf\"} 4
fj_latency_seconds_sum{dataset=\"stats\"} 0.000000265
fj_latency_seconds_count{dataset=\"stats\"} 4
";
        // Sanity-check the bucket bounds the golden text bakes in.
        assert_eq!(bucket_bounds(100).1, 101);
        assert_eq!(bucket_bounds(40).1, 40);
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_sum_and_count_carry_labels() {
        let reg = MetricsRegistry::new();
        let h = histogram(&reg, "fj_h_seconds", "h", &[("dataset", "s")]);
        h.record(1);
        let text = reg.render();
        assert!(text.contains("fj_h_seconds_sum{dataset=\"s\"} 0.000000001"));
        assert!(text.contains("fj_h_seconds_count{dataset=\"s\"} 1"));
    }

    #[test]
    fn label_escaping() {
        let reg = MetricsRegistry::new();
        reg.register_counter_fn(
            "fj_weird_total",
            "Help with \\ backslash\nand newline.",
            &[("path", "a\\b\"c\nd")],
            || 1,
        );
        let text = reg.render();
        assert!(
            text.contains("# HELP fj_weird_total Help with \\\\ backslash\\nand newline.\n"),
            "HELP escaping broken: {text}"
        );
        assert!(
            text.contains("fj_weird_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            "label escaping broken: {text}"
        );
    }

    #[test]
    fn le_bounds_are_cumulative_and_sorted() {
        let reg = MetricsRegistry::new();
        let h = histogram(&reg, "fj_x_seconds", "x", &[]);
        let mut state = 99u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(state % 10_000_000);
        }
        let text = reg.render();
        let mut last_le = f64::NEG_INFINITY;
        let mut last_cum = 0u64;
        let mut saw_inf = false;
        for line in text
            .lines()
            .filter(|l| l.starts_with("fj_x_seconds_bucket"))
        {
            let le_raw = line
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .unwrap();
            let cum: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(cum >= last_cum, "bucket counts must be cumulative: {line}");
            last_cum = cum;
            if le_raw == "+Inf" {
                saw_inf = true;
                assert_eq!(cum, 2000, "+Inf bucket must equal the count");
            } else {
                assert!(!saw_inf, "+Inf must come last");
                let le: f64 = le_raw.parse().unwrap();
                assert!(le > last_le, "le bounds must strictly increase: {line}");
                last_le = le;
            }
        }
        assert!(saw_inf, "exposition must end histogram with +Inf bucket");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.register_counter_fn("fj_dup", "a", &[], || 0);
        reg.register_gauge_fn("fj_dup", "b", &[], || 0.0);
    }
}
