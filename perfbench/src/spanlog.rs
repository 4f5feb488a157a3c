//! Benchmark-side spans: one span around each call into a layer's public
//! functions, held in memory and written out when the benchmark ends.
//!
//! A span has a name, a start and an end (ns since the log was created),
//! the span that encloses it, and the body repetition it belongs to. A
//! disabled log records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One closed span.
#[derive(Debug)]
struct Span {
    /// Layer-qualified name, e.g. `spans.perfetto`.
    name: &'static str,
    /// Start, ns since the log's epoch.
    start_ns: u64,
    /// End, ns since the log's epoch.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Body repetition the span was recorded in.
    rep: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u64,
}

impl SpanLog {
    /// A log that records only when `enabled`.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), rep: 0 }
    }

    /// Turns recording on or off for later spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags later spans with body repetition `rep`.
    pub fn set_rep(&mut self, rep: u64) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; nested calls through the
    /// `&mut SpanLog` handed to `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e9).collect()
    }

    /// Per-name totals: `(count, total_ns, self_ns)`, where self time is
    /// the span's duration minus the time its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let mut log = SpanLog::new(true);
        log.span("outer", |log| {
            log.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let t = log.totals();
        let (n, total, self_ns) = t["outer"];
        assert_eq!(n, 1);
        assert!(self_ns < total, "child time is not self time");
        assert_eq!(t["inner"].1, t["inner"].2, "a leaf's self time is its duration");
        assert_eq!(log.durations_s("inner").len(), 1);

        let mut off = SpanLog::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.totals().is_empty());
    }
}
