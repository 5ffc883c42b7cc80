//! Autoscale determinism probe: the multi-tenant fleet (weight-dedup
//! registry, Zipf prediction cache, hedged requests, elastic autoscaling)
//! served end-to-end and rendered to a deterministic report.
//!
//! The CI gate runs this binary with the same `(load seed, fault seed)`
//! under different `ASGD_THREADS` settings (in separate processes, so each
//! gets its own worker pool) and byte-diffs the reports against each other
//! and the checked-in goldens: a fleet run must be a pure function of its
//! seeds, independent of host parallelism. The report carries the fault
//! log, per-slot cost/latency lines, the autoscale trajectory, cache /
//! hedge / dedup counters, exact fleet percentiles, and an FNV checksum of
//! every served prediction — so a diff catches scheduler *and* numeric
//! divergence alike.
//!
//! Four sessions over the same stream: elastic under faults (the chaos
//! artifact), elastic fault-free, and the two static baselines the
//! autoscaler is judged against — static-min (the elastic floor, misses the
//! SLO at peak) and static-max (every slot, holds the SLO but pays for idle
//! troughs).
//!
//! Environment (on top of the shared `ASGD_*` variables):
//!   ASGD_SERVE_SEED      load-stream seed                  (default 11)
//!   ASGD_FAULT_SEED      seed for `FaultPlan::random`      (default 7)
//!   ASGD_TENANTS         tenant count                      (default 12)
//!   ASGD_ZIPF_S          popularity Zipf exponent          (default 1.1)
//!   ASGD_CACHE_CAP       prediction-cache entries          (default 1024)
//!   ASGD_HEDGE_Q         hedge quantile, 0 disables        (default 0.95)
//!   ASGD_AUTOSCALE       elastic floor / static-min size   (default 2)
//!   ASGD_SLO_MS          per-request latency SLO, ms       (default 0.4)
//!   ASGD_SERVE_RPS       diurnal-midline load, rps         (default 2e6)
//!   ASGD_SERVE_REQUESTS  stream length                     (default 6000)
//!   ASGD_PRECISION       registry tier, `f32` or `bf16`; bf16 artifacts
//!                        get a `_bf16` name suffix

use asgd_bench::fleet::{FleetKnobs, FleetScenario, FLEET_SLOTS};
use asgd_gpusim::FaultPlan;
use asgd_serve::{FaultAction, FaultRecord, FleetOutcome};
use asgd_stats::fnv1a;
use std::fmt::Write as _;

/// Writes one fault record in the fleet wording (replicas are slots).
fn render_fault(report: &mut String, f: &FaultRecord) {
    let (at, t) = (format!("w{}+{}", f.window, f.ordinal), f.target);
    let line = match f.action {
        FaultAction::Speed { factor } => format!("slot{t} speed -> {factor:.2}"),
        FaultAction::Stall { seconds } => format!("slot{t} stalled {seconds:.3}s"),
        FaultAction::Lost | FaultAction::LostWithServer => format!("slot{t} lost"),
        FaultAction::LossRefused => format!("slot{t} loss REFUSED (last survivor)"),
        FaultAction::ServerLost => format!("server{t} lost"),
        FaultAction::ServerLossRefused => format!("server{t} loss REFUSED (no survivor outside)"),
        FaultAction::Unreachable { seconds } => format!("server{t} unreachable {seconds:.3}s"),
    };
    let _ = writeln!(report, "fault: {at}: {line}");
    if f.action == FaultAction::Lost {
        let _ = writeln!(
            report,
            "fault: {at}: {} queued drain through survivors",
            f.queued
        );
    }
}

fn render(report: &mut String, label: &str, o: &FleetOutcome) {
    let _ = writeln!(report, "[{label}]");
    for f in &o.fault_log {
        render_fault(report, f);
    }
    for (i, r) in o.replicas.iter().enumerate() {
        let _ = writeln!(
            report,
            "slot {i} {} server={} alive={} commissioned={} served={} \
             batches={} final_b={} device_s={:.9}",
            r.name,
            r.server,
            r.alive,
            r.commissioned,
            r.served,
            r.batches,
            r.final_b,
            r.device_seconds
        );
    }
    if !o.trajectory.is_empty() {
        let traj: Vec<(u64, usize, usize)> = o
            .trajectory
            .iter()
            .map(|d| (d.window, d.depth, d.replicas))
            .collect();
        let _ = writeln!(report, "autoscale trajectory {traj:?}");
    }
    let _ = writeln!(
        report,
        "cache hits={} misses={} insertions={} evictions={} hit_rate={:.6}",
        o.cache.hits,
        o.cache.misses,
        o.cache.insertions,
        o.cache.evictions,
        o.cache.hit_rate()
    );
    let _ = writeln!(
        report,
        "hedge issued={} wins={} losses={} cancelled_s={:.9}",
        o.hedge.issued, o.hedge.wins, o.hedge.losses, o.hedge.cancelled_s
    );
    let p = |q: f64| o.latency_percentile(q).unwrap_or(0.0) * 1e6;
    let _ = writeln!(
        report,
        "fleet p50_us={:.9} p95_us={:.9} p99_us={:.9} throughput_rps={:.3} \
         makespan_s={:.9} device_s={:.9} served={} lost={}",
        p(0.50),
        p(0.95),
        p(0.99),
        o.throughput_rps(),
        o.makespan_s,
        o.device_seconds(),
        o.served,
        o.lost
    );
    let _ = writeln!(
        report,
        "predictions fnv {:#018x}",
        fnv1a(o.predictions.iter().flat_map(|p| p.to_le_bytes()))
    );
}

fn main() {
    let env = asgd_bench::Env::from_env();
    let knobs = FleetKnobs::from_env();
    let scenario = FleetScenario::build(env.seed, knobs.clone());
    let plan = FaultPlan::random(knobs.fault_seed, FLEET_SLOTS, 3);

    let faulted = scenario.run(&scenario.auto_config(), &plan);
    let auto = scenario.run(&scenario.auto_config(), &FaultPlan::new());
    let static_min = scenario.run(&scenario.static_config(knobs.r_min), &FaultPlan::new());
    let static_max = scenario.run(&scenario.static_config(FLEET_SLOTS), &FaultPlan::new());

    let mut report = String::new();
    let _ = writeln!(
        report,
        "autoscale probe: load seed {}, fault seed {}, {} tenants on {} \
         versions, zipf {}, cache {}, hedge q {}, r_min {}, slo {} ms, \
         rate {} rps, {} requests, {} slots on {} servers, {}",
        knobs.serve_seed,
        knobs.fault_seed,
        knobs.tenants,
        scenario.registry.len(),
        knobs.zipf_s,
        knobs.cache_cap,
        knobs.hedge_q,
        knobs.r_min,
        knobs.slo_ms,
        knobs.base_rps,
        scenario.requests.len(),
        FLEET_SLOTS,
        scenario.topo.servers(),
        knobs.precision.name(),
    );
    let d = scenario.registry.dedup_stats();
    let _ = writeln!(
        report,
        "registry: {} versions, {} distinct models, {} logical bytes, \
         {} stored bytes, dedup ratio {:.4}",
        scenario.registry.len(),
        scenario.registry.distinct_models(),
        d.bytes_logical,
        d.bytes_stored,
        d.ratio()
    );
    for e in plan.events() {
        let _ = writeln!(report, "plan: {e:?}");
    }
    render(&mut report, "elastic under faults", &faulted);
    render(&mut report, "elastic", &auto);
    render(&mut report, "static-min", &static_min);
    render(&mut report, "static-max", &static_max);

    let p99 = |o: &FleetOutcome| o.latency_percentile(0.99).unwrap_or(0.0);
    let slo = scenario.slo_s();
    let _ = writeln!(
        report,
        "slo {:.3} us: elastic p99 {:.9} us ({}), static-min p99 {:.9} us \
         ({}), static-max p99 {:.9} us ({})",
        slo * 1e6,
        p99(&auto) * 1e6,
        if p99(&auto) <= slo { "met" } else { "MISSED" },
        p99(&static_min) * 1e6,
        if p99(&static_min) <= slo {
            "met"
        } else {
            "MISSED"
        },
        p99(&static_max) * 1e6,
        if p99(&static_max) <= slo {
            "met"
        } else {
            "MISSED"
        },
    );
    let _ = writeln!(
        report,
        "cost: elastic {:.9} device-s vs static-min {:.9} vs static-max \
         {:.9} (static-max/elastic {:.4})",
        auto.device_seconds(),
        static_min.device_seconds(),
        static_max.device_seconds(),
        static_max.device_seconds() / auto.device_seconds()
    );
    let _ = writeln!(
        report,
        "degradation: faulted elastic served {} of {} requests, lost {}",
        faulted.served,
        scenario.requests.len(),
        faulted.lost
    );

    print!("{report}");
    let path = env.write_artifact(
        &format!(
            "autoscale_probe_{}_{}{}.txt",
            knobs.serve_seed,
            knobs.fault_seed,
            knobs.suffix()
        ),
        &report,
    );
    eprintln!("wrote {path:?}");
}
