//! Wall-clock spans recorded around the calls into each layer's public
//! functions, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"model.fwd_bwd"`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread; every span carries the run's trace
/// id (the workload seed) when written out.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    trace_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use = "an opened span must be ended"]
pub struct Open(usize);

impl Tracer {
    /// An empty tracer whose spans carry `trace_id`.
    pub fn new(trace_id: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            trace_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Every span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Spans as a JSON array of `{name, start_ns, end_ns, parent, trace_id}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"trace_id\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.trace_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }

    /// Spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// complete events with microsecond timestamps on one thread.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"trace_id\": {}}}}}{}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                self.trace_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals of one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: usize,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Calls, total and self time per span name, sorted by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let t = totals_by_name(&spans);
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["a"].total_ns, 30);
        // Self times partition the root's interval.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        // Covered: [10, 80) and [90, 100) → 80; self = 20.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut tr = Tracer::new(7);
        let outer = tr.begin("outer");
        let v = tr.time("inner", || 3);
        tr.end(outer);
        assert_eq!(v, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tr.durations_ns("inner").len(), 1);
        let json = tr.to_json();
        assert!(json.contains("\"parent\": 0") && json.contains("\"trace_id\": 7"));
        let chrome = tr.to_chrome_json();
        assert_eq!(chrome.matches("\"ph\": \"X\"").count(), 2);
        assert!(chrome.starts_with("{\"traceEvents\"") && chrome.ends_with("]}"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut tr = Tracer::new(0);
        let a = tr.begin("a");
        let _b = tr.begin("b");
        tr.end(a);
    }
}
