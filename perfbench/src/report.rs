//! Result rows: every metric tagged with its clock and unit, the host it
//! ran on, and the JSON the benchmark prints and keeps.

use crate::stats::{Summary, Tally};
use std::fmt::Write as _;

/// Longest sample list a result file keeps.
const MAX_KEPT_SAMPLES: usize = 100;

/// Which clock a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Measured on the host running the benchmark.
    Wall,
    /// Read from the simulator's virtual clocks or simulated accounting.
    Sim,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
        }
    }
}

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Name the documentation and tables use (e.g. `train_samples_per_s`).
    pub name: String,
    /// Name under which the value goes into the printed result object, when
    /// it is one of the benchmark's declared metrics.
    pub key: Option<&'static str>,
    /// Unit, e.g. `ms` or `1/s`.
    pub unit: &'static str,
    /// Clock the value comes from.
    pub clock: Clock,
    /// Better direction.
    pub better: Better,
    /// The reported value (the median for a timing).
    pub value: f64,
    /// Sample summary behind `value`, for timings.
    pub summary: Option<Summary>,
    /// The samples behind `summary`, in measurement order.
    pub samples: Vec<f64>,
}

impl Row {
    /// A single-valued metric.
    pub fn value(
        name: impl Into<String>,
        unit: &'static str,
        clock: Clock,
        better: Better,
        value: f64,
    ) -> Self {
        Row {
            name: name.into(),
            key: None,
            unit,
            clock,
            better,
            value,
            summary: None,
            samples: Vec::new(),
        }
    }

    /// A timing reported as the median of `samples`; `None` when empty.
    pub fn timing(
        name: impl Into<String>,
        unit: &'static str,
        clock: Clock,
        better: Better,
        samples: &[f64],
    ) -> Option<Self> {
        let s = Summary::of(samples)?;
        Some(Row {
            summary: Some(s),
            samples: samples.to_vec(),
            ..Row::value(name, unit, clock, better, s.median)
        })
    }

    /// Publishes the row under a declared metric name.
    pub fn published_as(mut self, key: &'static str) -> Self {
        self.key = Some(key);
        self
    }
}

/// A single-valued row: `(name, unit, clock, better, value)`.
pub type Fact = (&'static str, &'static str, Clock, Better, f64);

/// Host facts recorded with every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `ASGD_THREADS` as set for the run (`"unset"` when absent).
    pub asgd_threads: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo` (`"unknown"` elsewhere).
    pub cpu: String,
    /// Commit of the measured source, as handed in by the launcher
    /// (`"unknown"` outside a git checkout).
    pub commit: String,
}

impl Host {
    /// Reads the host facts from the environment.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            asgd_threads: std::env::var("ASGD_THREADS").unwrap_or_else(|_| "unset".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"asgd_threads\": {}, \"nproc\": {}, \"cpu\": {}, \"commit\": {}}}",
            json_str(&self.asgd_threads),
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.commit)
        )
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit kept; non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Everything one benchmark invocation produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed (also the trace id).
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Host facts.
    pub host: Host,
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// Correctness checks that failed, by description.
    pub failures: Vec<String>,
    /// Reported metrics.
    pub rows: Vec<Row>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Report {
            workload,
            seed,
            traced,
            host: Host::detect(),
            tally: Tally::default(),
            failures: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Records one correctness check; a failed one counts as a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.check(ok);
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Appends single-valued rows.
    pub fn extend(&mut self, facts: impl IntoIterator<Item = Fact>) {
        for (name, unit, clock, better, value) in facts {
            self.rows.push(Row::value(name, unit, clock, better, value));
        }
    }

    /// Appends a row if there is one.
    pub fn push_opt(&mut self, row: Option<Row>) {
        if let Some(r) = row {
            self.rows.push(r);
        }
    }

    /// The human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>16} {:>8} {:>22} {:>6}  {:<5} {:<6} key",
            "metric", "value", "unit", "tail", "n", "clock", "better"
        );
        for r in &self.rows {
            let (tail, n) = match r.summary {
                Some(s) => (
                    s.tail
                        .map(|(q, v)| format!("{}={v:.6}", crate::stats::percentile_label(q)))
                        .unwrap_or_else(|| "(n<20)".into()),
                    s.n.to_string(),
                ),
                None => ("-".into(), "-".into()),
            };
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {:>8} {:>22} {:>6}  {:<5} {:<6} {}",
                r.name,
                r.value,
                r.unit,
                tail,
                n,
                r.clock.name(),
                r.better.name(),
                r.key.unwrap_or("-")
            );
        }
        let _ = writeln!(
            out,
            "failed_share {:.6} ({} failed of {} attempted)",
            self.tally.failed_share(),
            self.tally.failed,
            self.tally.attempted
        );
        out
    }

    /// The full result set: host, tally and every row with its clock.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"failures\": [{}], \"rows\": [",
            json_str(self.workload),
            self.seed,
            u8::from(self.traced),
            self.host.to_json(),
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            json_num(self.tally.failed_share()),
            self.failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (i, r) in self.rows.iter().enumerate() {
            let (n, tail_q, tail) = match r.summary {
                Some(s) => (
                    s.n.to_string(),
                    s.tail.map_or("null".into(), |(q, _)| json_num(q)),
                    s.tail.map_or("null".into(), |(_, v)| json_num(v)),
                ),
                None => ("null".into(), "null".into(), "null".into()),
            };
            let _ = writeln!(
                out,
                "  {{\"metric\": {}, \"key\": {}, \"unit\": {}, \"clock\": \"{}\", \
                 \"better\": \"{}\", \"value\": {}, \"n\": {n}, \"tail_q\": {tail_q}, \
                 \"tail\": {tail}, \"samples\": [{}], \"host\": {}}}{}",
                json_str(&r.name),
                r.key.map_or("null".into(), json_str),
                json_str(r.unit),
                r.clock.name(),
                r.better.name(),
                json_num(r.value),
                // Long sample lists (per-request latencies) stay out of the
                // result file; their summary is kept.
                if r.samples.len() <= MAX_KEPT_SAMPLES {
                    r.samples
                        .iter()
                        .map(|&x| json_num(x))
                        .collect::<Vec<_>>()
                        .join(", ")
                } else {
                    String::new()
                },
                self.host.to_json(),
                if i + 1 == self.rows.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }

    /// The one-line result object: the declared metrics only.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .filter_map(|r| {
                r.key.map(|k| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_str(k),
                        json_num(r.value),
                        json_str(r.unit)
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_only_declared_metrics() {
        let mut r = Report::new("w", 3, false);
        r.tally.add(10, 0);
        r.push(Row::value("a", "ms", Clock::Wall, Better::Lower, 1.5).published_as("a_ms"));
        r.push(Row::value("b", "count", Clock::Sim, Better::Higher, 2.0));
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "boom".into());
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1"));
        let full = r.to_json();
        assert!(full.contains("\"clock\": \"sim\"") && full.contains("\"failures\": [\"boom\"]"));
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
