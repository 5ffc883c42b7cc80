//! Repository benchmark: runs one named workload and prints every metric
//! by name and unit, then one JSON result line.
//!
//! ```text
//! perfbench --workload <train-dense|train-sampled-wide|serve-fleet>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` is the timed run (tracing off) and reports the end-to-end
//! metrics; `--trace 1` is the traced run and reports the per-layer
//! metrics. The process exits non-zero when a correctness check fails.
//! See `README.md` next to this crate for the workloads and metrics.

mod report;
mod serve;
mod simtrace;
mod stats;
mod trace;
mod train;

use report::{Better, Clock, Report, Row};
use stats::Summary;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::{totals_by_name, Tracer};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; also the trace id.
    pub seed: u64,
    /// Measurement window of the timed run, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for result rows, traces and output fingerprints.
    pub out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <train-dense|train-sampled-wide|serve-fleet> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = [train::DENSE.name, train::WIDE.name, serve::NAME];

/// End-to-end metrics every timed run reports, with their units: the
/// wall-clock ones, which every workload has and which hold still from seed
/// to seed. The simulated and accuracy metrics are deterministic per seed
/// but move with the seed's inputs by 10% to 400%, so they are reported as
/// rows and compared seed by seed, not against a bound.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// the workload never calls reports 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("data.generate_s", "s"),
    ("data.select_rows_us.p50", "us"),
    ("slide.select_ms.p50", "ms"),
    ("slide.select_ms.tail", "ms"),
    ("slide.rebuild_ms.p50", "ms"),
    ("slide.rebuilds", "count"),
    ("slide.candidates_per_batch", "count"),
    ("model.fwd_bwd_ms.p50", "ms"),
    ("model.fwd_bwd_ms.tail", "ms"),
    ("model.update_ms.p50", "ms"),
    ("tensor.step_gflop", "GFLOP"),
    ("tensor.fwd_bwd_gflops", "GFLOP/s"),
    ("model.eval_ms.p50", "ms"),
    ("model.predict_us.p50", "us"),
    ("model.predict_us.tail", "us"),
    ("collective.allreduce_ms.p50", "ms"),
    ("collective.sparse_plan_ms.p50", "ms"),
    ("collective.sim_ms_per_merge", "ms"),
    ("collective.sim_mb_per_merge", "MB"),
    ("collective.sparse_bytes_ratio", "ratio"),
    ("merge.gather_ms.p50", "ms"),
    ("merge.scatter_ms.p50", "ms"),
    ("merge.global_update_ms.p50", "ms"),
    ("merge.redistribute_ms.p50", "ms"),
    ("gpusim.idle_share", "share"),
    ("gpusim.merge_share", "share"),
    ("trainer.update_imbalance", "ratio"),
    ("chaos.redispatched_batches", "count"),
    ("chaos.samples_committed", "count"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.cache_hit_rate", "share"),
    ("serve.hedge_rate", "share"),
    ("serve.hedge_win_rate", "share"),
    ("serve.mean_batch", "count"),
    ("serve.replicas_mean", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("self_ms.data", "ms"),
    ("self_ms.slide", "ms"),
    ("self_ms.model.fwd_bwd", "ms"),
    ("self_ms.model.update", "ms"),
    ("self_ms.model.eval", "ms"),
    ("self_ms.model.predict", "ms"),
    ("self_ms.collective", "ms"),
    ("self_ms.merge", "ms"),
    ("trace.replay_ratio", "ratio"),
];

/// Span groups whose self time is reported as `self_ms.<group>`: a span
/// belongs to the first group its name starts with.
const SELF_GROUPS: [&str; 8] = [
    "data",
    "slide",
    "model.fwd_bwd",
    "model.update",
    "model.eval",
    "model.predict",
    "collective",
    "merge",
];

/// Durations of the spans named `name`, summed per enclosing `merge` span
/// when `per_merge` is set (a merge's gather or redistribution is one call
/// per replica, and the whole set blocks every replica).
fn span_samples(tr: &Tracer, name: &str, per_merge: bool, scale: f64) -> Vec<f64> {
    let spans = tr.spans();
    if !per_merge {
        return tr.durations_ns(name).iter().map(|d| d * scale).collect();
    }
    let mut sums: std::collections::BTreeMap<usize, f64> = Default::default();
    for s in spans.iter().filter(|s| s.name == name) {
        *sums.entry(s.parent.unwrap_or(usize::MAX)).or_default() += s.dur_ns() as f64 * scale;
    }
    sums.into_values().collect()
}

/// The fastest repetition's rate, published as `throughput_per_s`.
///
/// On a shared host the median of a run's repetitions moves with the
/// host's load by 10-20% from run to run (CPU steal comes in bursts of
/// seconds, longer than one repetition), while the fastest repetition, the
/// least disturbed one, holds within a few percent. The median row is
/// reported next to it.
pub fn fastest(name: &str, rates: &[f64]) -> Row {
    let best = rates.iter().copied().fold(f64::NAN, f64::max);
    Row::value(name, "1/s", Clock::Wall, Better::Higher, best).published_as("throughput_per_s")
}

/// The rows every timed run reports: the median set-up time and the peak
/// resident set, both declared metrics.
pub fn setup_and_memory_rows(report: &mut Report, setups: &[f64]) {
    report.push_opt(
        Row::timing("setup_s", "s", Clock::Wall, Better::Lower, setups)
            .map(|r| r.published_as("setup_s")),
    );
    report.push_opt(report::peak_rss_mb().map(|m| {
        Row::value("peak_rss_mb", "MB", Clock::Wall, Better::Lower, m).published_as("peak_rss_mb")
    }));
}

/// Span timings reported per layer as `<metric>.p50`, `(metric, span)`;
/// the metric's suffix names its unit.
const TIMED_SPANS: [(&str, &str); 13] = [
    ("data.select_rows_us", "data.select_rows"),
    ("slide.select_ms", "slide.select"),
    ("slide.rebuild_ms", "slide.rebuild"),
    ("model.fwd_bwd_ms", "model.fwd_bwd"),
    ("model.update_ms", "model.update"),
    ("model.eval_ms", "model.eval"),
    ("model.predict_us", "model.predict"),
    ("collective.allreduce_ms", "collective.allreduce"),
    ("collective.sparse_plan_ms", "collective.sparse_plan"),
    ("merge.gather_ms", "merge.gather"),
    ("merge.scatter_ms", "merge.scatter"),
    ("merge.global_update_ms", "merge.global_update"),
    ("merge.redistribute_ms", "merge.redistribute"),
];

/// Spans that also report a `.tail` row: the per-step and per-request ones,
/// which have enough samples for a tail.
const TAILED_SPANS: [&str; 3] = ["slide.select", "model.fwd_bwd", "model.predict"];

/// Spans timed per merge rather than per call.
const PER_MERGE_SPANS: [&str; 2] = ["merge.gather", "merge.scatter"];

/// Adds the span-derived per-layer rows of a replay trace.
pub fn layer_rows(report: &mut Report, tr: &Tracer) {
    const MS: f64 = 1e-6;
    for (metric, span) in TIMED_SPANS {
        let (unit, scale) = if metric.ends_with("_us") {
            ("us", 1e-3)
        } else {
            ("ms", MS)
        };
        let samples = span_samples(tr, span, PER_MERGE_SPANS.contains(&span), scale);
        let Some(s) = Summary::of(&samples) else {
            continue;
        };
        let row = |suffix: &str, value: f64| {
            Row::value(
                format!("{metric}.{suffix}"),
                unit,
                Clock::Wall,
                Better::Lower,
                value,
            )
        };
        report.push(row("p50", s.median));
        if TAILED_SPANS.contains(&span) {
            // The highest percentile with ten samples beyond it; the full
            // result rows name which one it is.
            let mut tail = row("tail", s.tail.map_or(s.median, |(_, v)| v));
            tail.summary = Some(s);
            report.push(tail);
        }
    }
    let mut self_ms = [0.0f64; SELF_GROUPS.len()];
    for (s, own) in tr.spans().iter().zip(trace::self_times_ns(tr.spans())) {
        if let Some(i) = SELF_GROUPS.iter().position(|g| s.name.starts_with(g)) {
            self_ms[i] += own as f64 * MS;
        }
    }
    for (g, v) in SELF_GROUPS.iter().zip(self_ms) {
        report.push(Row::value(
            format!("self_ms.{g}"),
            "ms",
            Clock::Wall,
            Better::Lower,
            v,
        ));
    }
}

/// Checks a fingerprint of the workload's output against the one recorded
/// by earlier runs of the same seed and source, recording it when it is the
/// first.
pub fn fnv_record(report: &mut Report, args: &Args, what: &str, fnv: u64) {
    let source = std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into());
    let dir = args.out.join("fnv").join(source);
    let path = dir.join(format!("{}-seed{}-{what}.txt", args.workload, args.seed));
    let mine = format!("{fnv:#018x}\n");
    match std::fs::read_to_string(&path) {
        Ok(prev) => report.check(prev == mine, || {
            format!(
                "{what} fingerprint {} differs from the {} an earlier run of this seed recorded",
                mine.trim(),
                prev.trim()
            )
        }),
        Err(_) => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &mine));
            report.check(written.is_ok(), || {
                format!("cannot record {}", path.display())
            });
        }
    }
}

/// Publishes the declared metrics of this run's kind under their names,
/// filling layers the workload never calls with 0, and fails the run when
/// an end-to-end metric is missing.
fn publish(report: &mut Report) {
    if report.traced {
        for (name, unit) in PER_LAYER {
            match report.rows.iter_mut().find(|r| r.name == name) {
                Some(r) => {
                    assert_eq!(r.unit, unit, "unit of {name}");
                    r.key = Some(name);
                }
                None => report.push(
                    Row::value(name, unit, Clock::Wall, Better::Lower, 0.0).published_as(name),
                ),
            }
        }
    } else {
        for (key, unit) in END_TO_END {
            let found = report.rows.iter().find(|r| r.key == Some(key));
            if let Some(r) = found {
                assert_eq!(r.unit, unit, "unit of {key}");
            }
            let present = found.is_some();
            report.check(present, || {
                format!("end-to-end metric {key} was not measured")
            });
        }
    }
}

/// Calls, total and self time per span name, with the share of the replay.
fn span_table(tr: &Tracer) -> String {
    let totals = totals_by_name(tr.spans());
    let whole = totals.get("replay").map_or(1, |t| t.total_ns.max(1)) as f64;
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>12} {:>12} {:>8}",
        "span", "calls", "total_ms", "self_ms", "self_%"
    );
    for (name, t) in rows {
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>12.3} {:>12.3} {:>8.2}",
            name,
            t.calls,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6,
            100.0 * t.self_ns as f64 / whole
        );
    }
    out
}

fn write_file(path: PathBuf, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (mut report, tracer) = match (args.workload.as_str(), args.trace) {
        (w, false) if w == serve::NAME => (serve::timed(&args), None),
        (w, true) if w == serve::NAME => {
            let (r, t) = serve::traced(&args);
            (r, Some(t))
        }
        (w, traced) => {
            let shape = if w == train::DENSE.name {
                &train::DENSE
            } else {
                &train::WIDE
            };
            if traced {
                let (r, t) = train::traced(shape, &args);
                (r, Some(t))
            } else {
                (train::timed(shape, &args), None)
            }
        }
    };
    publish(&mut report);

    let host = &report.host;
    println!(
        "perfbench {} seed {} {} | ASGD_THREADS={} nproc={} cpu=\"{}\" commit={}",
        report.workload,
        args.seed,
        if args.trace {
            "traced run"
        } else {
            "timed run"
        },
        host.asgd_threads,
        host.nproc,
        host.cpu,
        host.commit
    );
    if report.workload == serve::NAME {
        println!(
            "open loop: arrivals are drawn in virtual time before serving starts, \
             so the generator is never late (lateness 0 by construction)"
        );
    }
    print!("{}", report.table());
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut written = write_file(
        args.out.join("results").join(format!("{stem}.json")),
        &report.to_json(),
    );
    if let Some(tr) = &tracer {
        print!("{}", span_table(tr));
        let spans = args.out.join("traces").join(format!("{stem}.spans.json"));
        let chrome = args.out.join("traces").join(format!("{stem}.chrome.json"));
        written = written
            .and_then(|()| write_file(spans, &tr.to_json()))
            .and_then(|()| write_file(chrome, &tr.to_chrome_json()));
    }
    if let Err(e) = written {
        report.check(false, || {
            format!("cannot write results under {}: {e}", args.out.display())
        });
    }
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload serve-fleet --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv(
            "--workload serve-fleet --seed 3 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload serve-fleet --seed 3 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload serve-fleet --seed 3 --trace 0")).is_err());
    }

    #[test]
    fn per_merge_samples_sum_the_calls_of_each_merge() {
        let mut tr = Tracer::new(1);
        for _ in 0..2 {
            let m = tr.begin("merge");
            for _ in 0..3 {
                tr.time("merge.gather", || std::hint::black_box(0));
            }
            tr.end(m);
        }
        assert_eq!(span_samples(&tr, "merge.gather", false, 1.0).len(), 6);
        let per_merge = span_samples(&tr, "merge.gather", true, 1.0);
        assert_eq!(per_merge.len(), 2);
        let total: f64 = tr.durations_ns("merge.gather").iter().sum();
        assert!((per_merge.iter().sum::<f64>() - total).abs() < 1e-6);
    }

    /// The declared metrics and workloads match `BENCHMARK.json`.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        let compact: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\": \"{w}\"")),
                "workload {w}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(compact.contains(&entry), "metric {name} ({unit})");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
