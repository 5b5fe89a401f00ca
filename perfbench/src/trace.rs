//! Spans recorded in the harness around each call into a layer.
//!
//! A span is `(id, parent, run, name, start_ns, end_ns, count)`.  Spans on
//! the harness thread nest properly (`begin`/`end` is a stack), so a span's
//! self time — its duration minus the part its children cover — sums over
//! all of them to the root's duration; [`Tracer::report`] checks that.  A
//! wait that outlives the call that caused it (a request in flight) is
//! recorded with [`Tracer::detached`]: it names its cause as parent but is
//! kept off the stack and out of the self-time sum.
//!
//! Spans stay in memory and are written out once, at exit.  A disabled
//! tracer reads no clock and allocates nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent (a root).
    pub parent: u32,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the span covered (elements, requests, cells).
    pub count: u64,
    /// Off the harness thread's stack: excluded from self-time accounting.
    pub detached: bool,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle returned by [`Tracer::begin`]; 0 when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggling the tracer inside a span");
        self.enabled = enabled;
    }

    /// Starts a new run: spans recorded from here carry the next run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            run: self.run,
            name,
            start_ns: now,
            end_ns: now,
            count: 0,
            detached: false,
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId, count: u64) {
        if id.0 == 0 {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must end in LIFO order");
        let now = self.now_ns();
        let span = &mut self.spans[id.0 as usize - 1];
        span.end_ns = now;
        span.count = count;
    }

    /// Records a wait `[start_ns, end_ns]` caused by `parent` but not
    /// nested inside it (e.g. a request in flight after `submit` returned).
    pub fn detached(&mut self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: parent.0,
            run: self.run,
            name,
            start_ns,
            end_ns,
            count: 1,
            detached: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{},\"detached\":{}}}",
                s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns, s.count, s.detached
            )?;
        }
        out.flush()
    }

    /// Per-name totals plus the self-time closure check.
    pub fn report(&self) -> TraceReport {
        report(&self.spans)
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameRow {
    pub spans: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    pub by_name: BTreeMap<&'static str, NameRow>,
    /// Σ duration of the attached root spans.
    pub traced_wall_ns: u64,
    /// Σ self time of every attached span.
    pub self_sum_ns: u64,
}

impl TraceReport {
    /// |Σ self − traced wall| ÷ traced wall.
    pub fn closure_error(&self) -> f64 {
        if self.traced_wall_ns == 0 {
            return 0.0;
        }
        (self.self_sum_ns as f64 - self.traced_wall_ns as f64).abs() / self.traced_wall_ns as f64
    }

    pub fn mean_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .filter(|r| r.spans > 0)
            .map_or(0.0, |r| r.total_ns as f64 / r.spans as f64)
    }
}

/// Self time of a span = its duration minus the union of its attached
/// children's intervals, clipped to the span.
pub fn report(spans: &[Span]) -> TraceReport {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.detached && s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut rep = TraceReport::default();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let row = rep.by_name.entry(s.name).or_default();
        row.spans += 1;
        row.count += s.count;
        row.total_ns += dur;
        if s.detached {
            continue;
        }
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        let self_ns = dur - covered;
        row.self_ns += self_ns;
        rep.self_sum_ns += self_ns;
        if s.parent == 0 {
            rep.traced_wall_ns += dur;
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            start_ns: start,
            end_ns: end,
            count: 1,
            detached: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        // root 0..100; call 10..60 with validate 20..30 inside; teardown 70..90.
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "call", 10, 60),
            span(3, 2, "validate", 20, 30),
            span(4, 1, "teardown", 70, 90),
        ];
        let rep = report(&spans);
        assert_eq!(rep.by_name["root"].self_ns, 100 - 50 - 20);
        assert_eq!(rep.by_name["call"].self_ns, 40);
        assert_eq!(rep.by_name["validate"].self_ns, 10);
        assert_eq!(rep.traced_wall_ns, 100);
        assert_eq!(rep.self_sum_ns, 100);
        assert_eq!(rep.closure_error(), 0.0);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_detached_spans_are_left_out() {
        let mut spans = vec![
            span(1, 0, "phase", 0, 100),
            span(2, 1, "a", 10, 50),
            span(3, 1, "b", 40, 80),
        ];
        spans.push(Span {
            detached: true,
            ..span(4, 2, "in_flight", 50, 500)
        });
        let rep = report(&spans);
        // Union of a and b is 10..80.
        assert_eq!(rep.by_name["phase"].self_ns, 30);
        assert_eq!(rep.by_name["in_flight"].total_ns, 450);
        assert_eq!(rep.by_name["in_flight"].self_ns, 0);
        assert_eq!(rep.traced_wall_ns, 100);
    }

    #[test]
    fn tracer_nests_by_stack_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let call = t.begin("call");
        t.end(call, 7);
        t.end(root, 0);
        assert_eq!(t.spans()[1].parent, t.spans()[0].id);
        assert_eq!(t.spans()[1].count, 7);
        assert!(t.report().closure_error() < 1e-12);

        let mut off = Tracer::new(false);
        let id = off.begin("root");
        off.end(id, 1);
        off.detached("in_flight", id, 0, 1);
        assert!(off.spans().is_empty());
    }
}
