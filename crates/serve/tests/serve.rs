//! Integration contracts of the serving engine: checkpoint→serve handoff,
//! thread-count invariance, zero-loss degradation, and the SLO controller's
//! tail-latency win over fixed-size micro-batching.

use asgd_core::{algorithms, load_model, trainer::RunConfig, trainer::Trainer};
use asgd_data::{generate, DatasetSpec, XmlDataset};
use asgd_gpusim::profile::{homogeneous_server, two_tier_server};
use asgd_gpusim::{DeviceProfile, FaultPlan};
use asgd_model::{Mlp, MlpConfig};
use asgd_serve::{open_loop_stream, serve, FaultAction, FleetOutcome, ServeConfig, TenantRequest};
use asgd_sparse::CsrMatrix;

const HIDDEN: usize = 24;

fn tiny_dataset() -> XmlDataset {
    generate(&DatasetSpec::amazon_670k(0.001), 42 ^ 0xD5)
}

fn mlp_config(ds: &XmlDataset) -> MlpConfig {
    MlpConfig {
        num_features: ds.num_features,
        hidden: HIDDEN,
        num_classes: ds.num_labels,
    }
}

/// Trains two mega-batches, round-trips the result through the serveable
/// checkpoint format, and returns the loaded model.
fn train_and_reload(ds: &XmlDataset) -> Mlp {
    let mut config = RunConfig::paper_defaults(32, 8);
    config.hidden = HIDDEN;
    config.base_lr = 0.1;
    config.seed = 42;
    config.mega_batch_limit = Some(2);
    config.overhead_scale = 0.001;
    let result = Trainer::new(algorithms::adaptive_sgd(), homogeneous_server(2), config).run(ds);
    let state = result.final_state.expect("gpu trainer keeps a snapshot");
    load_model(state.export_model(&mlp_config(ds))).expect("checkpoint decodes")
}

fn scaled(profiles: Vec<DeviceProfile>) -> Vec<DeviceProfile> {
    profiles
        .into_iter()
        .map(|p| p.with_overhead_scale(0.001))
        .collect()
}

fn run(
    model: &Mlp,
    profiles: &[DeviceProfile],
    pool: &CsrMatrix,
    requests: &[TenantRequest],
    plan: &FaultPlan,
    config: &ServeConfig,
) -> FleetOutcome {
    serve(model, profiles, pool, requests, plan, config)
}

#[test]
fn checkpoint_to_serve_roundtrip_is_bit_identical() {
    let ds = tiny_dataset();
    let model = train_and_reload(&ds);
    let pool = &ds.test.features;
    let requests = open_loop_stream(11, 200, 400.0, pool.rows());
    let config = ServeConfig::paper_defaults(32, 0.050);
    let outcome = run(
        &model,
        &scaled(two_tier_server(1, 1, 0.5)),
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.served, requests.len());
    assert_eq!(outcome.lost, 0);
    // Every served prediction must match direct inference on the same row —
    // bit for bit, independent of which replica served it and in which
    // micro-batch it rode (row-wise kernels make batch composition
    // irrelevant to a row's values).
    for r in &requests {
        let x = pool.select_rows(&[r.pool_row]);
        let direct = model.predict_topk(&x, config.k);
        assert_eq!(
            outcome.prediction(r.id).unwrap(),
            &direct[..],
            "request {} served ≠ direct inference",
            r.id
        );
    }
}

#[test]
fn bf16_serving_matches_the_quantized_model_exactly() {
    let ds = tiny_dataset();
    let model = train_and_reload(&ds);
    let pool = &ds.test.features;
    let requests = open_loop_stream(11, 120, 400.0, pool.rows());
    let config = ServeConfig::paper_defaults(32, 0.050).bf16();
    let outcome = run(
        &model,
        &scaled(two_tier_server(1, 1, 0.5)),
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(outcome.lost, 0);
    // bf16 serving is direct inference on the once-quantized model — the
    // single round point is the streamed checkpoint, nothing downstream.
    let reference = model.quantized(asgd_tensor::Precision::Bf16);
    for r in &requests {
        let x = pool.select_rows(&[r.pool_row]);
        let direct = reference.predict_topk(&x, config.k);
        assert_eq!(
            outcome.prediction(r.id).unwrap(),
            &direct[..],
            "request {} served ≠ quantized direct inference",
            r.id
        );
    }
}

#[test]
fn serve_outcome_is_thread_count_invariant() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 7);
    let pool = &ds.test.features;
    let requests = open_loop_stream(3, 400, 800.0, pool.rows());
    let profiles = scaled(two_tier_server(2, 2, 0.5));
    let plan = FaultPlan::random(9, profiles.len(), 6);
    let config = ServeConfig::paper_defaults(32, 0.020);

    asgd_tensor::parallel::override_threads(1);
    let single = run(&model, &profiles, pool, &requests, &plan, &config);
    asgd_tensor::parallel::override_threads(8);
    let eight = run(&model, &profiles, pool, &requests, &plan, &config);
    asgd_tensor::parallel::override_threads(0);

    assert_eq!(single.records, eight.records, "schedules diverged");
    assert_eq!(
        single.predictions, eight.predictions,
        "predictions diverged"
    );
    assert_eq!(single.fault_log, eight.fault_log, "fault logs diverged");
    assert_eq!(
        single.makespan_s.to_bits(),
        eight.makespan_s.to_bits(),
        "makespans diverged"
    );
    for (a, b) in single.replicas.iter().zip(&eight.replicas) {
        assert_eq!(a.trajectory, b.trajectory, "trajectories diverged");
        assert_eq!(a.served, b.served);
    }
    let (pa, pb) = (single.fleet_latency(), eight.fleet_latency());
    assert_eq!(
        pa.p99.value().unwrap().to_bits(),
        pb.p99.value().unwrap().to_bits(),
        "fleet p99 diverged"
    );
}

#[test]
fn device_loss_mid_run_loses_zero_requests() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 8);
    let pool = &ds.test.features;
    let requests = open_loop_stream(5, 300, 600.0, pool.rows());
    let profiles = scaled(homogeneous_server(4));
    // Kill gpu 2 in the second controller window, mid-window.
    let plan = FaultPlan::new().device_loss(1, 3, 2);
    let config = ServeConfig::paper_defaults(32, 0.020);
    let outcome = run(&model, &profiles, pool, &requests, &plan, &config);

    assert_eq!(outcome.lost, 0, "device loss must lose zero requests");
    assert_eq!(outcome.served, requests.len());
    assert!(outcome.records.iter().all(Option::is_some));
    assert!(!outcome.replicas[2].alive, "gpu 2 should be dead");
    assert_eq!(
        outcome.replicas.iter().filter(|r| r.alive).count(),
        3,
        "three survivors"
    );
    assert!(
        outcome
            .fault_log
            .iter()
            .any(|f| f.action == FaultAction::Lost && f.target == 2 && f.survivors == 3),
        "loss should be logged: {:?}",
        outcome.fault_log
    );
    // The survivors picked up the dead replica's share.
    let survivor_served: usize = outcome
        .replicas
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(_, r)| r.served)
        .sum();
    assert_eq!(survivor_served + outcome.replicas[2].served, requests.len());
    // Predictions still match direct inference — in-flight work was drained,
    // not dropped.
    for r in requests.iter().take(50) {
        let x = pool.select_rows(&[r.pool_row]);
        assert_eq!(
            outcome.prediction(r.id).unwrap(),
            &model.predict_topk(&x, config.k)[..]
        );
    }
}

#[test]
fn losing_the_last_survivor_is_refused() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 9);
    let pool = &ds.test.features;
    let requests = open_loop_stream(6, 120, 600.0, pool.rows());
    let profiles = scaled(homogeneous_server(2));
    let plan = FaultPlan::new().device_loss(0, 1, 0).device_loss(0, 5, 1);
    let outcome = run(
        &model,
        &profiles,
        pool,
        &requests,
        &plan,
        &ServeConfig::paper_defaults(32, 0.020),
    );
    assert_eq!(outcome.lost, 0);
    assert_eq!(outcome.replicas.iter().filter(|r| r.alive).count(), 1);
    assert!(
        outcome
            .fault_log
            .iter()
            .any(|f| f.action == FaultAction::LossRefused),
        "refusal should be logged: {:?}",
        outcome.fault_log
    );
}

#[test]
fn stall_and_speed_faults_keep_the_run_deterministic() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 10);
    let pool = &ds.test.features;
    let requests = open_loop_stream(7, 200, 600.0, pool.rows());
    let profiles = scaled(homogeneous_server(3));
    let plan = FaultPlan::new()
        .speed_change(0, 2, 1, 0.3)
        .stall(1, 0, 0, 0.01)
        .speed_change(2, 4, 1, 1.0);
    let config = ServeConfig::paper_defaults(32, 0.020);
    let a = run(&model, &profiles, pool, &requests, &plan, &config);
    let b = run(&model, &profiles, pool, &requests, &plan, &config);
    assert_eq!(a.lost, 0);
    assert_eq!(a.records, b.records);
    assert_eq!(a.fault_log, b.fault_log);
    assert!(a
        .fault_log
        .iter()
        .any(|f| matches!(f.action, FaultAction::Speed { .. })));
    assert!(a
        .fault_log
        .iter()
        .any(|f| matches!(f.action, FaultAction::Stall { .. })));
}

#[test]
fn outcome_accessors_are_total() {
    let ds = tiny_dataset();
    let model = Mlp::init(&mlp_config(&ds), 4);
    let pool = &ds.test.features;
    let config = ServeConfig::paper_defaults(32, 0.020);
    // An empty run must not divide by zero or panic anywhere.
    let empty = run(
        &model,
        &scaled(homogeneous_server(2)),
        pool,
        &[],
        &FaultPlan::new(),
        &config,
    );
    assert_eq!(empty.served, 0);
    assert_eq!(empty.throughput_rps(), 0.0);
    assert_eq!(empty.prediction(0), None);
    // An unknown id on a real run is a lookup miss, not a panic.
    let requests = open_loop_stream(2, 40, 600.0, pool.rows());
    let outcome = run(
        &model,
        &scaled(homogeneous_server(2)),
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    assert!(outcome.prediction(39).is_some());
    assert_eq!(outcome.prediction(40), None);
    assert_eq!(outcome.prediction(u32::MAX), None);
    assert!(outcome.throughput_rps() > 0.0);
}

#[test]
fn adaptive_micro_batching_shrinks_p99_on_a_two_tier_fleet() {
    // The serving testbed where micro-batch size is the latency knob: a
    // wide-head classifier (many classes, tiny hidden layer) makes
    // per-request softmax/top-k cost dominate per-batch flat cost, so a slow
    // device greedily draining full-size batches inflates exactly those
    // requests' tail latency. Offered load sits near aggregate capacity so
    // backlog bursts actually form.
    let ds = generate(&DatasetSpec::amazon_670k(0.03), 42 ^ 0xD5);
    let cfg = MlpConfig {
        num_features: ds.num_features,
        hidden: 8,
        num_classes: ds.num_labels,
    };
    let model = Mlp::init(&cfg, 12);
    let pool = &ds.test.features;
    let profiles: Vec<_> = two_tier_server(2, 2, 0.25)
        .into_iter()
        .map(|p| p.with_overhead_scale(0.05))
        .collect();
    let requests = open_loop_stream(13, 1200, 4.0e6, pool.rows());
    let config = ServeConfig::paper_defaults(64, 0.000_015);
    let adaptive = run(
        &model,
        &profiles,
        pool,
        &requests,
        &FaultPlan::new(),
        &config,
    );
    let fixed = run(
        &model,
        &profiles,
        pool,
        &requests,
        &FaultPlan::new(),
        &config.clone().fixed_batch(),
    );
    assert_eq!(adaptive.lost, 0);
    assert_eq!(fixed.lost, 0);
    let (pa, pf) = (adaptive.fleet_latency(), fixed.fleet_latency());
    let (a99, f99) = (pa.p99.value().unwrap(), pf.p99.value().unwrap());
    assert!(
        a99 < 0.95 * f99,
        "adaptive p99 {a99:.6}s should clearly beat fixed p99 {f99:.6}s"
    );
    // The controller actually moved: the slow replicas shrank below b_max.
    for slow in [2usize, 3] {
        assert!(
            adaptive.replicas[slow].trajectory.iter().any(|&b| b < 64),
            "slow replica {slow} never shrank: {:?}",
            adaptive.replicas[slow].trajectory
        );
    }
    // The fixed baseline never moves.
    assert!(fixed
        .replicas
        .iter()
        .all(|r| r.trajectory.iter().all(|&b| b == 64)));
}
