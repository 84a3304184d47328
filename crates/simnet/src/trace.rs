//! Optional event tracing.
//!
//! When enabled, every `ProcessCtx::trace` call appends a record. The trace
//! is used by the determinism tests (two runs with the same seed must yield
//! identical traces) and by the Fig. 1 timeline example.

use crate::process::Pid;
use crate::time::SimTime;

/// One trace record: which process logged what, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the record.
    pub at: SimTime,
    /// Logging process.
    pub pid: Pid,
    /// Free-form label.
    pub label: String,
}

/// One typed span: a named interval of a process's virtual time.
///
/// Spans complement the point [`TraceRecord`]s: where a record marks an
/// instant ("RTS sent"), a span covers a duration ("compute", "group
/// wait") and maps directly onto a Chrome-trace `"X"` (complete) event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Virtual time the interval opened.
    pub start: SimTime,
    /// Virtual time the interval closed (`end >= start`).
    pub end: SimTime,
    /// Process the interval belongs to.
    pub pid: Pid,
    /// Category, e.g. `"compute"` or `"offload"` (Chrome-trace `cat`).
    pub cat: String,
    /// Span name, e.g. `"group_wait"`.
    pub name: String,
}

/// A collected trace.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Trace {
    records: Vec<TraceRecord>,
    spans: Vec<SpanRecord>,
}

impl Trace {
    pub(crate) fn push(&mut self, at: SimTime, pid: Pid, label: String) {
        self.records.push(TraceRecord { at, pid, label });
    }

    pub(crate) fn push_span(
        &mut self,
        start: SimTime,
        end: SimTime,
        pid: Pid,
        cat: String,
        name: String,
    ) {
        debug_assert!(end >= start, "span must not end before it starts");
        self.spans.push(SpanRecord {
            start,
            end,
            pid,
            cat,
            name,
        });
    }

    /// All records in chronological (execution) order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// All spans, in the order they *closed*.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Render as lines of `time pid label` (stable across runs).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(out, "{:>14} {} {}", r.at.as_ps(), r.pid, r.label);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable() {
        let mut t = Trace::default();
        t.push(SimTime::from_ps(5), Pid(0), "a".into());
        t.push(SimTime::from_ps(9), Pid(1), "b".into());
        let r1 = t.render();
        let r2 = t.render();
        assert_eq!(r1, r2);
        assert!(r1.contains("pid0 a"));
    }

    #[test]
    fn spans_record_intervals() {
        let mut t = Trace::default();
        t.push_span(
            SimTime::from_ps(10),
            SimTime::from_ps(30),
            Pid(2),
            "compute".into(),
            "update".into(),
        );
        assert_eq!(t.spans().len(), 1);
        let s = &t.spans()[0];
        assert_eq!(s.start, SimTime::from_ps(10));
        assert_eq!(s.end, SimTime::from_ps(30));
        assert_eq!(s.cat, "compute");
    }
}
