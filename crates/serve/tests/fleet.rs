//! Integration contracts of the multi-tenant fleet: per-tenant prediction
//! correctness through the dedup registry, thread-count invariance with
//! every subsystem armed, cache hit economics on the Zipf head, hedging
//! accounting, elastic autoscaling's cost win, and zero-loss degradation
//! under cluster faults.

use asgd_data::{generate, DatasetSpec, XmlDataset};
use asgd_gpusim::profile::{homogeneous_server, two_tier_server};
use asgd_gpusim::{ClusterTopology, DeviceProfile, FaultPlan};
use asgd_model::{Mlp, MlpConfig};
use asgd_serve::{
    adapter_variant, fleet_stream, serve_fleet, FaultAction, FleetConfig, FleetLoadSpec,
    ModelRegistry, VersionId,
};
use asgd_tensor::Precision;

fn tiny_dataset() -> XmlDataset {
    generate(&DatasetSpec::amazon_670k(0.001), 42 ^ 0xD5)
}

fn mlp_config(ds: &XmlDataset) -> MlpConfig {
    MlpConfig {
        num_features: ds.num_features,
        hidden: 24,
        num_classes: ds.num_labels,
    }
}

fn scaled(profiles: Vec<DeviceProfile>) -> Vec<DeviceProfile> {
    profiles
        .into_iter()
        .map(|p| p.with_overhead_scale(0.001))
        .collect()
}

/// base + one adapter fine-tune + a pinned copy of base: three tenants, two
/// distinct models, a registry that actually dedups.
fn three_tenant_registry(ds: &XmlDataset) -> (ModelRegistry, Vec<VersionId>) {
    let config = mlp_config(ds);
    let base = Mlp::init(&config, 7);
    let mut reg = ModelRegistry::new(config);
    let v0 = reg.register("base/v1", &base, Precision::F32);
    let v1 = reg.register(
        "tenant1/v1",
        &adapter_variant(&base, 1, 1e-3),
        Precision::F32,
    );
    let v2 = reg.register("pinned/v1", &base, Precision::F32);
    (reg, vec![v0, v1, v2])
}

#[test]
fn every_tenant_is_served_its_own_version_bit_exactly() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let spec = FleetLoadSpec::steady(300, 600.0, 3, 1.0, pool.rows());
    let requests = fleet_stream(11, &spec);
    let topo = ClusterTopology::ethernet(1, 4);
    let config = FleetConfig::paper_defaults(32, 0.050);
    let outcome = serve_fleet(
        &reg,
        &tenants,
        &scaled(homogeneous_server(3)),
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    assert_eq!(outcome.served, requests.len());
    // Tenants 0 and 2 pin identical content: the registry must have
    // materialized one model and stored one set of layers for them.
    assert_eq!(outcome.dedup.versions, 3);
    assert!(
        outcome.dedup.ratio() > 1.3,
        "dedup ratio {}",
        outcome.dedup.ratio()
    );
    // Every request's predictions match direct inference on its tenant's
    // registered version — multi-model batching never crosses weights.
    for r in &requests {
        let x = pool.select_rows(&[r.pool_row]);
        let direct = reg
            .model(tenants[r.tenant as usize])
            .predict_topk(&x, config.k);
        assert_eq!(
            outcome.prediction(r.id).unwrap(),
            &direct[..],
            "request {} (tenant {}) served ≠ direct",
            r.id,
            r.tenant
        );
    }
}

#[test]
fn fleet_outcome_is_thread_count_invariant_with_everything_armed() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let spec = FleetLoadSpec {
        n: 500,
        base_rps: 1.5e7,
        diurnal_amplitude: 0.5,
        diurnal_period_s: 50e-6,
        burst_factor: 2.0,
        burst_every_s: 30e-6,
        burst_len_s: 8e-6,
        tenants: 3,
        zipf_s: 1.1,
        pool_rows: pool.rows(),
    };
    let requests = fleet_stream(3, &spec);
    let topo = ClusterTopology::ethernet(3, 2);
    let profiles = scaled(homogeneous_server(6));
    let plan = FaultPlan::random(9, profiles.len(), 6);
    let mut config = FleetConfig::paper_defaults(16, 0.020)
        .with_cache(64)
        .hedged(0.9)
        .autoscaled(2);
    config.window_dispatches = 8;
    config.boot_delay_s = 2e-6;

    let run = || {
        serve_fleet(
            &reg, &tenants, &profiles, &topo, pool, &requests, &plan, &config,
        )
    };
    asgd_tensor::parallel::override_threads(1);
    let single = run();
    asgd_tensor::parallel::override_threads(8);
    let eight = run();
    asgd_tensor::parallel::override_threads(0);

    assert_eq!(single.records, eight.records, "schedules diverged");
    assert_eq!(
        single.predictions, eight.predictions,
        "predictions diverged"
    );
    assert_eq!(single.fault_log, eight.fault_log, "fault logs diverged");
    assert_eq!(single.trajectory, eight.trajectory, "autoscale diverged");
    assert_eq!(single.cache, eight.cache, "cache stats diverged");
    assert_eq!(single.hedge, eight.hedge, "hedge stats diverged");
    assert_eq!(
        single.makespan_s.to_bits(),
        eight.makespan_s.to_bits(),
        "makespans diverged"
    );
    for (a, b) in single.replicas.iter().zip(&eight.replicas) {
        assert_eq!(a.served, b.served);
        assert_eq!(a.trajectory, b.trajectory, "trajectories diverged");
        assert_eq!(a.device_seconds.to_bits(), b.device_seconds.to_bits());
    }
}

#[test]
fn the_zipf_head_hits_the_cache_and_replays_exact_predictions() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    // Zipf s=1.1 over the pool: the head dominates, so a modest cache
    // should absorb the majority of lookups once warm.
    let spec = FleetLoadSpec::steady(1500, 800.0, 3, 1.1, pool.rows());
    let requests = fleet_stream(21, &spec);
    let topo = ClusterTopology::ethernet(1, 4);
    let config = FleetConfig::paper_defaults(32, 0.050).with_cache(256);
    let outcome = serve_fleet(
        &reg,
        &tenants,
        &scaled(homogeneous_server(4)),
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    assert!(
        outcome.cache.hit_rate() > 0.5,
        "hit rate {} too low at s=1.1",
        outcome.cache.hit_rate()
    );
    assert_eq!(
        outcome.cache.hits + outcome.cache.misses,
        requests.len() as u64
    );
    let mut hits = 0usize;
    for r in &requests {
        let rec = outcome.records[r.id as usize].unwrap();
        if rec.cache_hit {
            hits += 1;
            assert_eq!(rec.replica, None);
            assert!((rec.latency() - config.cache_latency_s).abs() < 1e-12);
            // A replayed prediction is still the tenant's own model, bit
            // for bit.
            let x = pool.select_rows(&[r.pool_row]);
            let direct = reg
                .model(tenants[r.tenant as usize])
                .predict_topk(&x, config.k);
            assert_eq!(outcome.prediction(r.id).unwrap(), &direct[..]);
        }
    }
    assert_eq!(hits as u64, outcome.cache.hits);
    // Tenants 0 and 2 share content: hits must cross between them, which
    // only works because the key is the content signature, not the tenant.
    assert!(
        requests
            .iter()
            .any(|r| r.tenant == 2 && outcome.records[r.id as usize].unwrap().cache_hit),
        "the pinned tenant should profit from the base tenant's cache fills"
    );
}

#[test]
fn hedged_requests_race_consistently_and_reclaim_cancelled_time() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    // Oversubscribed two-tier fleet: waits build, the p90 threshold arms,
    // stragglers hedge onto whichever replica frees first.
    let spec = FleetLoadSpec::steady(800, 2.5e7, 3, 1.0, pool.rows());
    let requests = fleet_stream(5, &spec);
    let topo = ClusterTopology::ethernet(2, 2);
    let mut config = FleetConfig::paper_defaults(16, 0.020).hedged(0.9);
    config.hedge_min_obs = 32;
    let outcome = serve_fleet(
        &reg,
        &tenants,
        &scaled(two_tier_server(2, 2, 0.25)),
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    assert!(outcome.hedge.issued > 0, "no hedge ever fired");
    assert_eq!(
        outcome.hedge.wins + outcome.hedge.losses,
        outcome.hedge.issued
    );
    let hedged = outcome
        .records
        .iter()
        .flatten()
        .filter(|r| r.hedged)
        .count() as u64;
    assert_eq!(hedged, outcome.hedge.issued);
    if outcome.hedge.losses > 0 {
        assert!(
            outcome.hedge.cancelled_s >= 0.0,
            "cancellation cannot reclaim negative time"
        );
    }
    // Timing stays causally ordered for every record, hedged or not.
    for rec in outcome.records.iter().flatten() {
        assert!(rec.dispatched >= rec.arrival);
        assert!(rec.completed > rec.dispatched || rec.cache_hit);
    }
    // Predictions are untouched by hedging — still the tenant's model.
    for r in requests.iter().take(100) {
        let x = pool.select_rows(&[r.pool_row]);
        let direct = reg
            .model(tenants[r.tenant as usize])
            .predict_topk(&x, config.k);
        assert_eq!(outcome.prediction(r.id).unwrap(), &direct[..]);
    }
}

#[test]
fn autoscaling_rides_the_burst_and_undercuts_static_max_cost() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let spec = FleetLoadSpec {
        n: 1200,
        base_rps: 8.0e6,
        diurnal_amplitude: 0.7,
        diurnal_period_s: 60e-6,
        burst_factor: 2.5,
        burst_every_s: 40e-6,
        burst_len_s: 8e-6,
        tenants: 3,
        zipf_s: 1.0,
        pool_rows: pool.rows(),
    };
    let requests = fleet_stream(13, &spec);
    let topo = ClusterTopology::ethernet(3, 2);
    let profiles = scaled(homogeneous_server(6));
    let mut auto_cfg = FleetConfig::paper_defaults(8, 0.050).autoscaled(1);
    auto_cfg.window_dispatches = 8;
    auto_cfg.autoscale_target_depth = 4.0;
    auto_cfg.boot_delay_s = 2e-6;
    let auto_run = serve_fleet(
        &reg,
        &tenants,
        &profiles,
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &auto_cfg,
    );
    let static_cfg = FleetConfig::paper_defaults(8, 0.050).static_replicas(6);
    let static_run = serve_fleet(
        &reg,
        &tenants,
        &profiles,
        &topo,
        pool,
        &requests,
        &FaultPlan::new(),
        &static_cfg,
    );
    assert_eq!(auto_run.lost, 0);
    assert_eq!(static_run.lost, 0);
    assert!(!auto_run.trajectory.is_empty(), "no autoscale decisions");
    let peak = auto_run
        .trajectory
        .iter()
        .map(|d| d.replicas)
        .max()
        .unwrap();
    assert!(
        peak > 1,
        "the controller never scaled out: {:?}",
        auto_run.trajectory
    );
    // Scale-out lands round-robin across servers: slot i on server i mod 3.
    for (i, r) in auto_run.replicas.iter().enumerate() {
        assert_eq!(r.server, i % 3);
    }
    // The elastic fleet pays for fewer device-seconds than full static
    // provisioning of the same slots.
    assert!(
        auto_run.device_seconds() < static_run.device_seconds(),
        "auto {} ≥ static-max {}",
        auto_run.device_seconds(),
        static_run.device_seconds()
    );
    // Static provisioning pays all six slots for the whole run.
    for r in &static_run.replicas {
        assert!((r.device_seconds - static_run.makespan_s).abs() < 1e-12);
    }
}

#[test]
fn device_loss_in_a_fleet_loses_zero_requests() {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let spec = FleetLoadSpec::steady(400, 700.0, 3, 1.0, pool.rows());
    let requests = fleet_stream(7, &spec);
    let topo = ClusterTopology::ethernet(2, 2);
    let plan = FaultPlan::new().device_loss(1, 3, 2);
    let config = FleetConfig::paper_defaults(32, 0.050).static_replicas(4);
    let outcome = serve_fleet(
        &reg,
        &tenants,
        &scaled(homogeneous_server(4)),
        &topo,
        pool,
        &requests,
        &plan,
        &config,
    );
    assert_eq!(outcome.lost, 0, "device loss must lose zero requests");
    assert!(outcome.records.iter().all(Option::is_some));
    assert!(!outcome.replicas[2].alive);
    assert!(
        outcome
            .fault_log
            .iter()
            .any(|f| f.action == FaultAction::Lost && f.target == 2),
        "loss should be logged: {:?}",
        outcome.fault_log
    );
    // The dead slot stopped being paid for at the loss, not at run end.
    assert!(outcome.replicas[2].device_seconds < outcome.makespan_s);
    for r in requests.iter().take(60) {
        let x = pool.select_rows(&[r.pool_row]);
        let direct = reg
            .model(tenants[r.tenant as usize])
            .predict_topk(&x, config.k);
        assert_eq!(outcome.prediction(r.id).unwrap(), &direct[..]);
    }
}

/// A small static fleet run under `plan`: 4 slots on 2 servers.
fn run_with_plan(plan: &FaultPlan) {
    let ds = tiny_dataset();
    let (reg, tenants) = three_tenant_registry(&ds);
    let pool = &ds.test.features;
    let requests = fleet_stream(7, &FleetLoadSpec::steady(40, 700.0, 3, 1.0, pool.rows()));
    serve_fleet(
        &reg,
        &tenants,
        &scaled(homogeneous_server(4)),
        &ClusterTopology::ethernet(2, 2),
        pool,
        &requests,
        plan,
        &FleetConfig::paper_defaults(32, 0.050),
    );
}

#[test]
#[should_panic(expected = "fault aimed at slot 4 of a 4-slot fleet")]
fn a_device_fault_past_the_last_slot_is_rejected_up_front() {
    run_with_plan(&FaultPlan::new().device_loss(0, 1, 4));
}

#[test]
#[should_panic(expected = "fault aimed at server 2 of a 2-server cluster")]
fn a_server_fault_past_the_last_server_is_rejected_up_front() {
    run_with_plan(&FaultPlan::new().server_loss(0, 1, 2));
}
