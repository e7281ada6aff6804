//! Spans recorded by the benchmark around its calls into each layer
//! (choosing-metrics §4): name, start, end, the span that caused it and
//! the request or round it belongs to. Kept in memory, written out once
//! at exit. Self time is a span's duration minus what its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id (client spans) or round number (replay spans).
    pub group: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Single-threaded by construction: the replay
/// and each client own theirs, so nesting is a plain stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
    /// When false, `span` runs the closure without recording (warm-up).
    pub enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
            enabled: true,
        }
    }

    /// Sets the request/round id stamped on subsequent spans.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, nested under whatever span is
    /// open. The closure gets the tracer back so callees can nest more.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            group: self.group,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a child of the open span
    /// (a duration a callee reports about itself, e.g. a solve's
    /// `algorithm_time`). It is laid at the parent's start.
    pub fn child(&mut self, name: &'static str, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            group: self.group,
        });
    }

    /// Records a client-observed interval measured with `Instant`s.
    pub fn interval(&mut self, name: &'static str, start: Instant, end: Instant, group: u64) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            group,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (the poller's to the sender's),
    /// re-basing parents and clock origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Serializes every span as one JSON array (times in microseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"group\":{},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.group,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the sum of its direct
/// children's durations (children of one parent never overlap — the
/// recorder is single-threaded), floored at zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // round 0..100 { propose 10..70 { solve 10..50 }, commit 70..95 }
        let spans = vec![
            span("round", 0, 100, None),
            span("propose", 10, 70, Some(0)),
            span("solve", 10, 50, Some(1)),
            span("commit", 70, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 20, 40, 25]);
        // Self times of a tree always sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overreported_child_floors_at_zero() {
        let spans = vec![span("propose", 0, 10, None), span("solve", 0, 12, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let mut t = Tracer::new();
        t.set_group(7);
        t.span("round", |t| {
            t.span("propose", |t| t.child("solve", 5));
            t.span("commit", |_| ());
        });
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["round", "propose", "solve", "commit"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert!(s.iter().all(|s| s.group == 7));
        assert!(s[0].end_ns >= s[3].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.enabled = false;
        assert_eq!(t.span("x", |_| 3), 3);
        t.child("y", 1);
        assert!(t.spans().is_empty());
    }
}
