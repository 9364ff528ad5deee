//! Per-stage request spans and the worst-N slow-query log.

use std::sync::Mutex;

/// The serving-path stages a request passes through, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Frame decode, quota/drain checks, and queue admission.
    Admission,
    /// Time between enqueue and a worker picking the job up.
    QueueWait,
    /// Model inference over the batch's sub-plan queries.
    Estimation,
    /// Encoding the result frame.
    Encode,
    /// Writing the result frame to the socket.
    SocketWrite,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Admission,
        Stage::QueueWait,
        Stage::Estimation,
        Stage::Encode,
        Stage::SocketWrite,
    ];

    /// Stable snake_case name, used as the `stage` label value and in
    /// slow-query-log lines.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Estimation => "estimation",
            Stage::Encode => "encode",
            Stage::SocketWrite => "socket_write",
        }
    }
}

/// Nanoseconds spent in each [`Stage`] for one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageBreakdown {
    ns: [u64; Stage::ALL.len()],
}

impl StageBreakdown {
    /// All stages at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set one stage's duration in nanoseconds.
    pub fn set(&mut self, stage: Stage, ns: u64) {
        self.ns[stage as usize] = ns;
    }

    /// One stage's duration in nanoseconds.
    pub(crate) fn get(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// The stage that consumed the most time (earliest wins ties).
    pub(crate) fn dominant(&self) -> Stage {
        let mut best = Stage::ALL[0];
        for stage in Stage::ALL {
            if self.get(stage) > self.get(best) {
                best = stage;
            }
        }
        best
    }
}

/// One slow-query-log entry: where a request's time went.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Client-minted trace id (0 when the client did not send one).
    pub trace_id: u64,
    /// Dataset the batch targeted.
    pub dataset: String,
    /// Sub-plan estimates produced by the batch.
    pub subplans: usize,
    /// End-to-end server-side time (decode to socket-write completion), ns.
    pub total_ns: u64,
    /// Per-stage breakdown. For a batch, queue wait is the worst job's
    /// wait and estimation is the summed worker time.
    pub stages: StageBreakdown,
}

/// A bounded worst-N log of the slowest requests offered to it.
///
/// `offer` keeps the N entries with the largest `total_ns`; it takes a
/// short lock on the entry vector (capacity is small — tens of entries),
/// so it stays off the per-estimate hot path: one offer per *batch*.
pub struct SlowLog {
    cap: usize,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowLog {
    /// A log keeping the `cap` slowest requests.
    pub fn new(cap: usize) -> Self {
        SlowLog {
            cap: cap.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offer an entry; it is kept if the log has room or the entry is
    /// slower than the current fastest kept entry (which it evicts).
    pub fn offer(&self, q: SlowQuery) {
        let mut entries = self.entries.lock().unwrap();
        if entries.len() < self.cap {
            entries.push(q);
            return;
        }
        if let Some((i, min)) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.total_ns)
            .map(|(i, e)| (i, e.total_ns))
        {
            if q.total_ns > min {
                entries[i] = q;
            }
        }
    }

    /// Kept entries, slowest first.
    fn snapshot(&self) -> Vec<SlowQuery> {
        let mut entries = self.entries.lock().unwrap().clone();
        entries.sort_by_key(|q| std::cmp::Reverse(q.total_ns));
        entries
    }

    /// Render the log as `# slowlog …` comment lines — legal trailing
    /// content in a Prometheus text exposition (scrapers ignore non-HELP/
    /// TYPE comments), so one scrape carries both metrics and the log.
    ///
    /// Line format (stable, space-separated `key=value`):
    /// `# slowlog trace_id=0x… dataset="…" subplans=… total_ns=…
    /// admission_ns=… queue_wait_ns=… estimation_ns=… encode_ns=…
    /// socket_write_ns=… dominant=…`
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for q in self.snapshot() {
            let _ = write!(
                out,
                "# slowlog trace_id={:#018x} dataset=\"{}\" subplans={} total_ns={}",
                q.trace_id,
                q.dataset.replace('\\', "\\\\").replace('"', "\\\""),
                q.subplans,
                q.total_ns
            );
            for stage in Stage::ALL {
                let _ = write!(out, " {}_ns={}", stage.name(), q.stages.get(stage));
            }
            let _ = writeln!(out, " dominant={}", q.stages.dominant().name());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace_id: u64, total_ns: u64) -> SlowQuery {
        let mut stages = StageBreakdown::new();
        stages.set(Stage::QueueWait, total_ns / 2);
        stages.set(Stage::Estimation, total_ns / 4);
        SlowQuery {
            trace_id,
            dataset: "stats".to_string(),
            subplans: 3,
            total_ns,
            stages,
        }
    }

    #[test]
    fn keeps_worst_n() {
        let log = SlowLog::new(3);
        for (id, total) in [(1, 10), (2, 50), (3, 30), (4, 40), (5, 20)] {
            log.offer(entry(id, total));
        }
        let kept = log.snapshot();
        assert_eq!(
            kept.iter().map(|q| q.total_ns).collect::<Vec<_>>(),
            vec![50, 40, 30],
            "must keep the three slowest, slowest first"
        );
    }

    #[test]
    fn dominant_stage_and_render() {
        let log = SlowLog::new(4);
        log.offer(entry(0xabcd, 1000));
        let text = log.render();
        assert!(
            text.contains("trace_id=0x000000000000abcd"),
            "trace id must render as fixed-width hex: {text}"
        );
        assert!(text.contains("queue_wait_ns=500"));
        assert!(text.contains("dominant=queue_wait"));
        assert!(text.starts_with("# "), "slowlog lines must be comments");
    }

    #[test]
    fn breakdown_dominant_prefers_earlier_on_tie() {
        let mut b = StageBreakdown::new();
        b.set(Stage::Admission, 7);
        b.set(Stage::Encode, 7);
        assert_eq!(b.dominant(), Stage::Admission);
    }
}
