//! In-memory span recorder for the traced mode.
//!
//! A span marks one call from the benchmark into a layer's public API:
//! its name, start and end on a monotonic clock, the span that was open
//! around it (its parent), and the operation (request, round or solve) it
//! belongs to. Spans stay in memory and are written out once, when the run
//! ends. A disabled recorder reads no clock and stores nothing, so the
//! untraced run pays for one branch per call.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.allocate.dcta`.
    pub name: String,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request, round or solve the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Number of spans with this name.
    pub calls: usize,
    /// Summed span durations, ms.
    pub total_ms: f64,
    /// Summed self time (duration minus the part covered by child spans), ms.
    pub self_ms: f64,
    /// Median span duration, ms.
    pub p50_ms: f64,
}

/// Span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans opened
    /// inside `f` (through the tracer it receives) become its children.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Median duration (ms) of the spans named `name`; 0 when none ran.
    pub fn median_ms(&self, name: &str) -> f64 {
        stats::median(&self.durations(name))
    }

    /// Per-name call count, total, self time and median.
    pub fn layer_times(&self) -> BTreeMap<String, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<String, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let entry = by_name.entry(s.name.clone()).or_default();
            entry.0.push(s.ms());
            entry.1 += (s.end_ns - s.start_ns).saturating_sub(*child) as f64 / 1e6;
        }
        by_name
            .into_iter()
            .map(|(name, (durations, self_ms))| {
                let time = LayerTime {
                    calls: durations.len(),
                    total_ms: durations.iter().sum(),
                    self_ms,
                    p50_ms: stats::median(&durations),
                };
                (name, time)
            })
            .collect()
    }

    /// Measured cost of recording one span, ms: times `n` empty spans on a
    /// scratch recorder.
    pub fn cost_per_span_ms(n: usize) -> f64 {
        let mut scratch = Tracer::new(true);
        let t0 = Instant::now();
        for i in 0..n {
            scratch.span("calibrate", i as u64, |_| ());
        }
        t0.elapsed().as_secs_f64() * 1e3 / n.max(1) as f64
    }

    /// The spans as JSON lines: one object per span.
    pub fn spans_json(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 7);
        let times = t.layer_times();
        let (outer, inner) = (&times["outer"], &times["inner"]);
        assert!(inner.total_ms >= 2.0);
        assert!(outer.self_ms < outer.total_ms);
        assert!((outer.self_ms + inner.total_ms - outer.total_ms).abs() < 1e-6);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.median_ms("x"), 0.0);
    }
}
