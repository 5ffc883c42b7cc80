//! The `serve-fleet` workload: the elastic multi-tenant fleet of
//! `asgd_bench::fleet` under its seeded random fault plan, served through
//! `asgd_serve::serve_fleet`.

use crate::report::Better::{Higher, Lower};
use crate::report::Clock::{Sim, Wall};
use crate::report::{Report, Row};
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{fastest, fnv_record, layer_rows, setup_and_memory_rows, Args};
use asgd_bench::fleet::{FleetKnobs, FleetScenario, FLEET_SCALE, FLEET_SLOTS};
use asgd_data::{generate, DatasetSpec};
use asgd_gpusim::FaultPlan;
use asgd_model::Workspace;
use asgd_serve::{FleetOutcome, VersionId};
use asgd_stats::fnv1a;
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "serve-fleet";
/// Requests per stream: long enough that one `serve_fleet` call runs for
/// seconds on a 2-core host.
const REQUESTS: usize = 60_000;
/// Scenario set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 2;
/// Fewest timed `serve_fleet` repetitions per run.
const MIN_REPS: usize = 3;
/// Mega-batch horizon of the random fault plan.
const FAULT_WINDOWS: usize = 3;

/// The scenario for a workload seed: the seed draws the request stream.
/// The corpus, the serving twin and the fault plan are the scenario's own
/// defaults, as the program's settings, so every seed meets the same fleet
/// and the same faults.
fn knobs(seed: u64) -> FleetKnobs {
    FleetKnobs {
        serve_seed: seed,
        n_requests: REQUESTS,
        ..FleetKnobs::default()
    }
}

/// Master seed of the scenario build (corpus and twin training).
const SCENARIO_SEED: u64 = 42;

fn plan() -> FaultPlan {
    FaultPlan::random(FleetKnobs::default().fault_seed, FLEET_SLOTS, FAULT_WINDOWS)
}

fn predictions_fnv(o: &FleetOutcome) -> u64 {
    fnv1a(o.predictions.iter().flat_map(|p| p.to_le_bytes()))
}

/// Checks one fleet outcome; every offered request counts as an attempt
/// and every lost or unserved one as a failure.
fn check_outcome(sc: &FleetScenario, o: &FleetOutcome, report: &mut Report) {
    let offered = sc.requests.len();
    report.check(o.served + o.lost == offered, || {
        format!("served {} + lost {} != offered {offered}", o.served, o.lost)
    });
    let unserved = o.records.iter().filter(|r| r.is_none()).count();
    report
        .tally
        .add(offered as u64, unserved.max(o.lost) as u64);
}

/// Top-1 of the served predictions against the labels of the requested
/// rows; lost requests count as misses.
fn served_top1(sc: &FleetScenario, o: &FleetOutcome) -> f64 {
    let hits = sc
        .requests
        .iter()
        .filter(|q| {
            o.records[q.id as usize].is_some()
                && o.prediction(q.id)
                    .and_then(|p| p.first())
                    .is_some_and(|top| sc.ds.test.labels[q.pool_row].contains(top))
        })
        .count();
    hits as f64 / sc.requests.len() as f64
}

/// The timed run: repeated scenario set-ups, then `serve_fleet`
/// repetitions for `args.seconds`.
pub fn timed(args: &Args) -> Report {
    let mut report = Report::new(NAME, args.seed, false);
    let mut setups = Vec::new();
    let mut sc = None;
    for _ in 0..SETUP_REPS {
        drop(sc.take());
        let t = Instant::now();
        sc = Some(FleetScenario::build(SCENARIO_SEED, knobs(args.seed)));
        setups.push(t.elapsed().as_secs_f64());
    }
    let sc = sc.expect("at least one set-up");
    let config = sc.auto_config();
    let plan = plan();

    let start = Instant::now();
    let mut rates = Vec::new();
    let mut first: Option<FleetOutcome> = None;
    while rates.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let o = sc.run(&config, &plan);
        let wall = t.elapsed().as_secs_f64();
        check_outcome(&sc, &o, &mut report);
        rates.push(sc.requests.len() as f64 / wall);
        match &first {
            None => first = Some(o),
            Some(f) => {
                report.check(predictions_fnv(f) == predictions_fnv(&o), || {
                    "predictions differ between repetitions of one seed".into()
                });
                report.check(f.makespan_s == o.makespan_s && f.served == o.served, || {
                    "simulated outcome differs between repetitions".into()
                });
            }
        }
    }
    let o = first.expect("at least one repetition");
    fnv_record(&mut report, args, "predictions", predictions_fnv(&o));

    let offered = sc.requests.len() as f64;
    let slo = sc.slo_s();
    let lat_us: Vec<f64> = o
        .records
        .iter()
        .flatten()
        .map(|r| r.latency() * 1e6)
        .collect();
    let met = o
        .records
        .iter()
        .flatten()
        .filter(|r| r.latency() <= slo)
        .count();
    setup_and_memory_rows(&mut report, &setups);
    report.push_opt(Row::timing(
        "serve_requests_per_s",
        "1/s",
        Wall,
        Higher,
        &rates,
    ));
    report.push(fastest("serve_requests_per_s.best", &rates));
    // Exact latency percentiles over every served request, in id order.
    report.push_opt(Row::timing("serve_latency_us", "us", Sim, Lower, &lat_us));
    let p_us = |q: f64| o.latency_percentile(q).unwrap_or(0.0) * 1e6;
    report.extend([
        ("serve_p50_us", "us", Sim, Lower, p_us(0.5)),
        ("serve_p99_us", "us", Sim, Lower, p_us(0.99)),
        (
            "serve_slo_attainment",
            "share",
            Sim,
            Higher,
            met as f64 / offered,
        ),
        ("serve_device_s", "s", Sim, Lower, o.device_seconds()),
        ("served_top1", "share", Wall, Higher, served_top1(&sc, &o)),
    ]);
    report
}

/// One dispatched micro-batch, rebuilt from the per-request records.
struct MicroBatch {
    version: VersionId,
    rows: Vec<usize>,
}

/// Groups the served, non-cached requests into the micro-batches that
/// carried them (one replica and dispatch instant per batch), in dispatch
/// order.
fn micro_batches(sc: &FleetScenario, o: &FleetOutcome) -> Vec<MicroBatch> {
    let mut groups: BTreeMap<(u64, usize), MicroBatch> = BTreeMap::new();
    for q in &sc.requests {
        let Some(rec) = &o.records[q.id as usize] else {
            continue;
        };
        let Some(replica) = rec.replica.filter(|_| !rec.cache_hit) else {
            continue;
        };
        groups
            .entry((rec.dispatched.to_bits(), replica))
            .or_insert_with(|| MicroBatch {
                version: sc.tenant_versions[q.tenant as usize],
                rows: Vec::new(),
            })
            .rows
            .push(q.pool_row);
    }
    groups.into_values().collect()
}

/// The traced run: one untraced fleet run, then a replay of its
/// micro-batches through `select_rows` and `predict_topk_ws`.
pub fn traced(args: &Args) -> (Report, Tracer) {
    let mut report = Report::new(NAME, args.seed, true);
    // The data generation the scenario build performs, timed on its own.
    let t = Instant::now();
    drop(generate(
        &DatasetSpec::amazon_670k(FLEET_SCALE),
        SCENARIO_SEED ^ 0xD5,
    ));
    let generate_s = t.elapsed().as_secs_f64();
    let sc = FleetScenario::build(SCENARIO_SEED, knobs(args.seed));
    let t = Instant::now();
    let o = sc.run(&sc.auto_config(), &plan());
    let run_wall = t.elapsed().as_secs_f64();
    check_outcome(&sc, &o, &mut report);
    fnv_record(&mut report, args, "predictions", predictions_fnv(&o));

    let batches = micro_batches(&sc, &o);
    let mut tr = Tracer::new(args.seed);
    let root = tr.begin("replay");
    let mut ws = Workspace::new(sc.registry.config());
    let mut out = Vec::new();
    for b in &batches {
        let x = tr.time("data.select_rows", || {
            sc.ds.test.features.select_rows(&b.rows)
        });
        let model = sc.registry.model(b.version);
        tr.time("model.predict", || {
            model.predict_topk_ws(&x, o.k_eff, &mut ws, &mut out)
        });
    }
    tr.end(root);
    let replay_wall = tr.durations_ns("replay")[0] * 1e-9;

    let served: Vec<_> = o.records.iter().flatten().collect();
    let queue_us: Vec<f64> = served.iter().map(|r| r.queueing() * 1e6).collect();
    let queue_p99 = percentile(&queue_us, 0.99).unwrap_or(0.0);
    let batched: usize = batches.iter().map(|b| b.rows.len()).sum();
    let issued = o.hedge.issued as f64;
    let hedge_wins = if issued > 0.0 {
        o.hedge.wins as f64 / issued
    } else {
        0.0
    };
    let replicas_mean = if o.trajectory.is_empty() {
        0.0
    } else {
        o.trajectory.iter().map(|d| d.replicas as f64).sum::<f64>() / o.trajectory.len() as f64
    };
    report.extend([
        ("data.generate_s", "s", Wall, Lower, generate_s),
        ("serve.queue_wait_p99_us", "us", Sim, Lower, queue_p99),
        (
            "serve.cache_hit_rate",
            "share",
            Sim,
            Higher,
            o.cache.hit_rate(),
        ),
        (
            "serve.hedge_rate",
            "share",
            Sim,
            Lower,
            issued / served.len().max(1) as f64,
        ),
        ("serve.hedge_win_rate", "share", Sim, Higher, hedge_wins),
        (
            "serve.mean_batch",
            "count",
            Sim,
            Higher,
            batched as f64 / batches.len().max(1) as f64,
        ),
        ("serve.replicas_mean", "count", Sim, Lower, replicas_mean),
        ("serve.dedup_ratio", "ratio", Sim, Higher, o.dedup.ratio()),
        (
            "trace.replay_ratio",
            "ratio",
            Wall,
            Lower,
            replay_wall / run_wall,
        ),
    ]);
    layer_rows(&mut report, &tr);
    (report, tr)
}
