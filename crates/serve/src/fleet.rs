//! The serving scheduler: registry-backed replicas, prediction cache,
//! hedged requests, and elastic autoscaling in one virtual-time loop.
//!
//! This is the crate's only scheduler loop. [`crate::engine::serve`] runs it
//! as its simplest case — one model, one tenant, one server, a static slot
//! set, no cache, no hedging — and [`serve_fleet`] runs it at internet
//! scale. Either way a **single scheduler loop owns every decision**
//! (admission, cache lookups, version selection, dispatch, hedging, scaling,
//! faults) and consumes only virtual device clocks and seeded state, while
//! the real forward math runs on worker threads that write id-indexed
//! buffers nobody schedules against. The outcome is therefore a pure
//! function of `(load seed, fault seed, config)` at any `ASGD_THREADS`.
//!
//! - **Dynamic dispatch.** The next micro-batch goes to whichever
//!   dispatchable slot's virtual clock frees first (the paper's
//!   one-batch-at-a-time dispatch, repurposed for inference), sized by
//!   that slot's [`SloController`]. Requests wait in the central queues,
//!   never on a device, so a lost slot loses nothing: its worker finishes
//!   the batches already shipped, the queue drains through the survivors,
//!   and losing the last survivor is refused.
//! - **Many models.** Requests carry a tenant; tenants map to registry
//!   versions; each version has its own FIFO so a micro-batch is always
//!   single-model. Dispatch serves the version whose queue head has waited
//!   longest (ties to the lowest version index).
//! - **Prediction cache.** Admission looks `(model signature, pool row)`
//!   up; a hit completes at `arrival + cache_latency_s` without touching a
//!   device, and its predictions are replayed from the computed request
//!   that filled the entry (after the workers drain — reps are always
//!   computed requests, never other hits, so replay is one copy deep).
//! - **Hedged requests.** At dispatch, a request whose queueing delay
//!   crossed the [`HedgePolicy`] quantile is also charged as a singleton
//!   batch on the earliest-free *other* replica; the earlier completion
//!   (plus cross-server RTT) wins and the loser's device clock is rolled
//!   back from the moment the winner finished ([`Device::rollback_to`] —
//!   virtual-time cancellation). Predictions always come from the primary
//!   batch, so hedging changes timing, never math.
//! - **Elastic autoscaling.** Replica *slots* (one per device profile,
//!   placed round-robin across the cluster's servers so scale-out lands on
//!   different simulated machines) are commissioned and decommissioned by
//!   the [`AutoscaleController`] at window boundaries, reusing the chaos
//!   harness's add/remove mechanics: a booted slot joins dispatch after
//!   `boot_delay_s`, a drained slot stops being paid for. Device-seconds
//!   (the cost metric) integrate commissioned wall-time, not busy time —
//!   an idle static fleet pays for its idleness.

use crate::autoscale::{AutoscaleController, AutoscaleDecision, Provisioning};
use crate::cache::{CacheStats, PredictionCache};
use crate::engine::LatencyStats;
use crate::hedge::{HedgePolicy, HedgeStats};
use crate::loadgen::TenantRequest;
use crate::registry::{DedupStats, ModelRegistry, VersionId};
use crate::slo::SloController;
use asgd_core::ScalingParams;
use asgd_gpusim::{
    ClusterTopology, Device, DeviceId, DeviceProfile, FaultEvent, FaultKind, FaultPlan, SimTime,
};
use asgd_model::workload::inference_kernels;
use asgd_model::{Mlp, Workspace};
use asgd_sparse::CsrMatrix;
use asgd_stats::percentile;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;

/// Histogram upper bound of per-replica latency stats, in SLO multiples
/// (tail beyond it lands in the saturating overflow bucket).
const HIST_SLO_SPAN: f64 = 8.0;

/// Fleet-run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Top-k classes per request (capped at `num_classes`).
    pub k: usize,
    /// Per-request latency SLO, seconds.
    pub slo_s: f64,
    /// Micro-batch bounds of the per-replica SLO controller.
    pub scaling: ScalingParams,
    /// Adaptive micro-batching on/off (off = fixed `b_max`).
    pub adaptive: bool,
    /// Controller window length, in fleet-wide dispatches. Autoscale
    /// decisions fire at the same boundaries.
    pub window_dispatches: usize,
    /// Seed of the devices' jitter streams.
    pub device_seed: u64,
    /// Prediction-cache capacity in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Completion latency of a cache hit, seconds.
    pub cache_latency_s: f64,
    /// Hedge above this quantile of observed queueing delays
    /// (`None` = hedging off).
    pub hedge_quantile: Option<f64>,
    /// Queueing-delay observations required before hedging arms.
    pub hedge_min_obs: u64,
    /// Minimum actual wait before a hedge fires, seconds (noise floor).
    pub hedge_min_wait_s: f64,
    /// Replica provisioning policy.
    pub provisioning: Provisioning,
    /// Elastic floor (initial commissioned count under
    /// [`Provisioning::Auto`]).
    pub r_min: usize,
    /// Autoscale controller gain (replicas per unit relative depth error).
    pub autoscale_beta: f64,
    /// Admission-queue depth the autoscaler targets.
    pub autoscale_target_depth: f64,
    /// Virtual boot time of a newly commissioned replica, seconds.
    pub boot_delay_s: f64,
}

impl FleetConfig {
    /// Paper-flavored defaults: adaptive micro-batching with `b_max`-derived
    /// bounds, cache and hedging off, static full provisioning. Turn the
    /// subsystems on with the builder methods.
    pub fn paper_defaults(b_max: usize, slo_s: f64) -> Self {
        Self {
            k: 5,
            slo_s,
            scaling: ScalingParams::paper_defaults(b_max),
            adaptive: true,
            window_dispatches: 16,
            device_seed: 0x5E12_F1EE,
            cache_capacity: 0,
            cache_latency_s: 50e-6,
            hedge_quantile: None,
            hedge_min_obs: 64,
            hedge_min_wait_s: 0.0,
            provisioning: Provisioning::Static(usize::MAX),
            r_min: 1,
            autoscale_beta: 1.0,
            autoscale_target_depth: 16.0,
            boot_delay_s: 0.0,
        }
    }

    /// Enables the prediction cache with `capacity` entries.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Enables hedging above quantile `q` of observed queueing delays.
    pub fn hedged(mut self, q: f64) -> Self {
        self.hedge_quantile = Some(q);
        self
    }

    /// Elastic provisioning: start at `r_min` replicas, scale on queue depth.
    pub fn autoscaled(mut self, r_min: usize) -> Self {
        self.provisioning = Provisioning::Auto;
        self.r_min = r_min;
        self
    }

    /// Static provisioning at exactly `n` replicas (clamped to the slot
    /// count by the engine).
    pub fn static_replicas(mut self, n: usize) -> Self {
        self.provisioning = Provisioning::Static(n);
        self
    }
}

/// Timing record of one fleet request (simulated seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRecord {
    /// Arrival at the admission frontend.
    pub arrival: f64,
    /// Dispatch to a replica (equals `arrival` for cache hits).
    pub dispatched: f64,
    /// Completion as seen by the frontend (cross-server RTT included).
    pub completed: f64,
    /// Winning replica slot; `None` for cache hits.
    pub replica: Option<usize>,
    /// Micro-batch size the request rode in (0 for cache hits).
    pub batch: usize,
    /// Owning tenant.
    pub tenant: u16,
    /// Served from the prediction cache.
    pub cache_hit: bool,
    /// A hedge was issued for this request.
    pub hedged: bool,
    /// The hedge beat the primary batch.
    pub hedge_won: bool,
}

impl FleetRecord {
    /// End-to-end latency (the SLO'd quantity).
    pub fn latency(&self) -> f64 {
        self.completed - self.arrival
    }

    /// Time spent waiting for dispatch.
    pub fn queueing(&self) -> f64 {
        self.dispatched - self.arrival
    }
}

/// Per-slot summary of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReplicaReport {
    /// Device name (from the profile).
    pub name: String,
    /// Simulated server the slot lives on.
    pub server: usize,
    /// Still alive at end of run.
    pub alive: bool,
    /// Commissioned at end of run.
    pub commissioned: bool,
    /// Requests whose winning completion this slot produced.
    pub served: usize,
    /// Primary micro-batches executed.
    pub batches: usize,
    /// Micro-batch size at end of run.
    pub final_b: usize,
    /// Micro-batch size after each controller window the slot was
    /// dispatchable in.
    pub trajectory: Vec<usize>,
    /// Commissioned wall-time paid for, device-seconds.
    pub device_seconds: f64,
    /// Latency statistics of the requests this slot completed.
    pub stats: LatencyStats,
}

/// What a fault did to the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Slot `target` runs at `factor` × nominal speed from the fault on.
    Speed {
        /// New speed factor.
        factor: f64,
    },
    /// Slot `target`'s clock jumped ahead.
    Stall {
        /// Stall length, seconds.
        seconds: f64,
    },
    /// Slot `target` was lost; the queue drains through the survivors.
    Lost,
    /// Losing slot `target` was refused: it is the last survivor.
    LossRefused,
    /// Slot `target` went down with its server (recorded just before that
    /// server's [`FaultAction::ServerLost`]).
    LostWithServer,
    /// Every live slot of server `target` was lost.
    ServerLost,
    /// Losing server `target` was refused: no survivor lives elsewhere.
    ServerLossRefused,
    /// Server `target`'s slots were unreachable for a while.
    Unreachable {
        /// Outage length, seconds.
        seconds: f64,
    },
}

/// One fault the scheduler applied (or refused), in firing order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// Controller window the event was planned for.
    pub window: usize,
    /// Dispatch ordinal within that window.
    pub ordinal: usize,
    /// What happened.
    pub action: FaultAction,
    /// Slot index, or server index for the server actions.
    pub target: usize,
    /// Requests waiting for dispatch when it fired.
    pub queued: usize,
    /// Dispatchable slots after it.
    pub survivors: usize,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-request timing, indexed by request id (`None` = never served;
    /// zero-loss degradation says there are none).
    pub records: Vec<Option<FleetRecord>>,
    /// Row-major `n × k_eff` predicted class ids, indexed by request id.
    pub predictions: Vec<u32>,
    /// Classes returned per request.
    pub k_eff: usize,
    /// Per-slot summaries, by slot index.
    pub replicas: Vec<FleetReplicaReport>,
    /// Every fault applied or refused, in firing order.
    pub fault_log: Vec<FaultRecord>,
    /// Autoscale decision per window (empty under static provisioning).
    pub trajectory: Vec<AutoscaleDecision>,
    /// Prediction-cache counters.
    pub cache: CacheStats,
    /// Hedging counters.
    pub hedge: HedgeStats,
    /// Registry dedup accounting at serve time.
    pub dedup: DedupStats,
    /// Completion time of the last request.
    pub makespan_s: f64,
    /// Requests served.
    pub served: usize,
    /// Requests never served (zero by construction).
    pub lost: usize,
}

impl FleetOutcome {
    /// Fleet-wide streaming latency statistics: per-slot collectors folded
    /// in ascending slot index — the deterministic merge order that keeps
    /// fleet quantiles independent of thread count and completion order.
    pub fn fleet_latency(&self) -> LatencyStats {
        let hi = self.replicas.first().map_or(1.0, |r| r.stats.hi);
        let mut fleet = LatencyStats::new(hi);
        for r in &self.replicas {
            fleet.merge(&r.stats);
        }
        fleet
    }

    /// Exact latency percentile over every served request (id order —
    /// deterministic, unlike completion-order streaming merges). `None` on
    /// an empty run.
    pub fn latency_percentile(&self, q: f64) -> Option<f64> {
        let lats: Vec<f64> = self.records.iter().flatten().map(|r| r.latency()).collect();
        percentile(&lats, q)
    }

    /// Total commissioned device-seconds — the provisioning cost.
    pub fn device_seconds(&self) -> f64 {
        self.replicas.iter().map(|r| r.device_seconds).sum()
    }

    /// Served requests per simulated second (0 on an empty run).
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.served as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// The predictions of one request (`k_eff` class ids), or `None` for an
    /// id the run never saw.
    pub fn prediction(&self, id: u32) -> Option<&[u32]> {
        let lo = (id as usize).checked_mul(self.k_eff)?;
        self.predictions.get(lo..lo + self.k_eff)
    }
}

/// One replica slot's scheduler-side state.
struct Slot {
    device: Device,
    server: usize,
    controller: SloController,
    alive: bool,
    commissioned: bool,
    served: usize,
    batches: usize,
    window_lat: Vec<f64>,
    trajectory: Vec<usize>,
    stats: LatencyStats,
    /// Commissioned `(start, end)` intervals; `None` end = still open.
    intervals: Vec<(f64, Option<f64>)>,
    tx: Option<mpsc::Sender<WorkItem>>,
}

impl Slot {
    fn dispatchable(&self) -> bool {
        self.alive && self.commissioned
    }

    fn commission(&mut self, at: f64) {
        self.commissioned = true;
        self.intervals.push((at, None));
    }

    fn decommission(&mut self, at: f64) {
        self.commissioned = false;
        if let Some(open) = self.intervals.last_mut().filter(|i| i.1.is_none()) {
            open.1 = Some(at.max(open.0));
        }
    }
}

/// A micro-batch shipped to a slot worker (the model rides along — slots
/// serve whichever version the scheduler picked).
struct WorkItem {
    model: Arc<Mlp>,
    x: CsrMatrix,
    ids: Vec<u32>,
}

/// The dispatchable slot other than `skip` whose clock frees first (ties to
/// the lowest slot index), or `None` when there is no such slot.
fn earliest_free(slots: &[Slot], skip: Option<usize>) -> Option<usize> {
    let mut best = None;
    let mut best_t = f64::INFINITY;
    for (i, s) in slots.iter().enumerate() {
        if Some(i) != skip && s.dispatchable() && s.device.now().secs() < best_t {
            best_t = s.device.now().secs();
            best = Some(i);
        }
    }
    best
}

/// The dispatchable slot whose clock frees first.
fn pick_slot(slots: &[Slot]) -> usize {
    earliest_free(slots, None).expect("no dispatchable replica")
}

/// Applies one due fault event to the fleet. Device indices address slots;
/// `ServerLoss`/`InterNodeStall` address servers of the cluster topology.
fn apply_fault(
    slots: &mut [Slot],
    e: FaultEvent,
    anchor: f64,
    queued: usize,
    log: &mut Vec<FaultRecord>,
) {
    let mut note = |slots: &[Slot], action: FaultAction, target: usize| {
        log.push(FaultRecord {
            window: e.at_mega,
            ordinal: e.after_batches,
            action,
            target,
            queued,
            survivors: slots.iter().filter(|s| s.dispatchable()).count(),
        })
    };
    let kill = |s: &mut Slot| {
        s.alive = false;
        if s.commissioned {
            s.decommission(anchor);
        }
        // Dropping the sender lets the worker drain its in-flight batches
        // (the channel is FIFO) and exit; their results are kept.
        s.tx = None;
    };
    match e.kind {
        FaultKind::SpeedChange { factor } => {
            if slots[e.gpu].alive {
                slots[e.gpu]
                    .device
                    .schedule_speed_factor(SimTime(anchor), factor);
                note(slots, FaultAction::Speed { factor }, e.gpu);
            }
        }
        FaultKind::Stall { seconds } => {
            if slots[e.gpu].alive {
                let now = slots[e.gpu].device.now();
                slots[e.gpu].device.advance_to(now + seconds);
                note(slots, FaultAction::Stall { seconds }, e.gpu);
            }
        }
        FaultKind::DeviceLoss => {
            if !slots[e.gpu].alive {
                return;
            }
            let survivors = slots.iter().filter(|s| s.dispatchable()).count();
            if slots[e.gpu].commissioned && survivors <= 1 {
                note(slots, FaultAction::LossRefused, e.gpu);
            } else {
                kill(&mut slots[e.gpu]);
                note(slots, FaultAction::Lost, e.gpu);
            }
        }
        FaultKind::ServerLoss => {
            let victims: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.server == e.gpu && s.alive)
                .map(|(i, _)| i)
                .collect();
            let outside = slots
                .iter()
                .filter(|s| s.dispatchable() && s.server != e.gpu)
                .count();
            if victims.is_empty() {
                // Nothing alive there — nothing to do.
            } else if outside == 0 {
                note(slots, FaultAction::ServerLossRefused, e.gpu);
            } else {
                for i in victims {
                    kill(&mut slots[i]);
                    note(slots, FaultAction::LostWithServer, i);
                }
                note(slots, FaultAction::ServerLost, e.gpu);
            }
        }
        FaultKind::InterNodeStall { seconds } => {
            // The stalled link makes every replica on that server
            // unreachable for `seconds` — model it as a fleet-visible stall
            // of those devices.
            for s in slots.iter_mut().filter(|s| s.server == e.gpu && s.alive) {
                let now = s.device.now();
                s.device.advance_to(now + seconds);
            }
            note(slots, FaultAction::Unreachable { seconds }, e.gpu);
        }
        // Training-merge fault; serving has no merge phase.
        FaultKind::MergeOom => {}
    }
}

/// Runs a multi-tenant fleet session.
///
/// `tenant_versions[t]` is the registry version tenant `t` serves;
/// `profiles[i]` is replica slot `i`'s device, placed on server
/// `i % topo.servers()` (round-robin, so elastic scale-out lands on a
/// different simulated server). Requests (rows of `pool`) drain through
/// per-version FIFOs under `plan`'s faults, with the cache, hedging, and
/// provisioning behavior of `config`.
///
/// The returned outcome — every latency, decision, and prediction — is a
/// pure function of the inputs, bit-identical at any `ASGD_THREADS`.
///
/// Slot `i`'s device is seeded `config.device_seed ^ i`, so slots jitter
/// independently.
///
/// # Panics
/// Panics on an empty fleet, more slots than cluster devices, an unknown
/// tenant or version, an architecture/pool mismatch, a request referencing
/// a row outside the pool, a device fault aimed at a slot the fleet lacks,
/// or a server fault aimed at a server the topology lacks.
#[allow(clippy::too_many_arguments)] // the session's full input tuple, each independently owned
pub fn serve_fleet(
    registry: &ModelRegistry,
    tenant_versions: &[VersionId],
    profiles: &[DeviceProfile],
    topo: &ClusterTopology,
    pool: &CsrMatrix,
    requests: &[TenantRequest],
    plan: &FaultPlan,
    config: &FleetConfig,
) -> FleetOutcome {
    let devices = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| Device::new(DeviceId(i), p.clone(), config.device_seed ^ i as u64))
        .collect();
    run(
        registry,
        tenant_versions,
        devices,
        topo,
        pool,
        requests,
        plan,
        config,
    )
}

/// The scheduler loop behind [`serve_fleet`] and [`crate::engine::serve`]:
/// `devices[i]` is slot `i`'s device, already built and seeded; everything
/// else is as in [`serve_fleet`].
#[allow(clippy::too_many_arguments)] // the session's full input tuple, each independently owned
pub(crate) fn run(
    registry: &ModelRegistry,
    tenant_versions: &[VersionId],
    devices: Vec<Device>,
    topo: &ClusterTopology,
    pool: &CsrMatrix,
    requests: &[TenantRequest],
    plan: &FaultPlan,
    config: &FleetConfig,
) -> FleetOutcome {
    let n_slots = devices.len();
    assert!(n_slots > 0, "need at least one replica slot");
    assert!(
        n_slots <= topo.n_devices(),
        "more replica slots than cluster devices"
    );
    for e in plan.events() {
        match e.kind {
            FaultKind::ServerLoss | FaultKind::InterNodeStall { .. } => assert!(
                e.gpu < topo.servers(),
                "fault aimed at server {} of a {}-server cluster",
                e.gpu,
                topo.servers()
            ),
            FaultKind::SpeedChange { .. } | FaultKind::Stall { .. } | FaultKind::DeviceLoss => {
                assert!(
                    e.gpu < n_slots,
                    "fault aimed at slot {} of a {n_slots}-slot fleet",
                    e.gpu
                )
            }
            FaultKind::MergeOom => {}
        }
    }
    assert!(config.k >= 1, "k must be at least 1");
    assert!(config.window_dispatches >= 1, "window must be non-empty");
    assert!(!tenant_versions.is_empty(), "need at least one tenant");
    assert!(
        tenant_versions.iter().all(|v| v.0 < registry.len()),
        "tenant mapped to unknown version"
    );
    assert_eq!(
        pool.cols(),
        registry.config().num_features,
        "pool/registry architecture mismatch"
    );
    assert!(
        requests
            .iter()
            .all(|r| r.pool_row < pool.rows() && (r.tenant as usize) < tenant_versions.len()),
        "request outside the pool or tenant map"
    );

    let n = requests.len();
    let k_eff = config.k.min(registry.config().num_classes);
    let hist_hi = config.slo_s * HIST_SLO_SPAN;
    let n_versions = registry.len();
    // Per-tenant shortcuts: the served model and its content signature
    // (shared across deduped versions — the cache key prefix).
    let tenant_model: Vec<Arc<Mlp>> = tenant_versions
        .iter()
        .map(|&v| registry.model(v).clone())
        .collect();
    let tenant_sig: Vec<u64> = tenant_versions
        .iter()
        .map(|&v| registry.version(v).sig)
        .collect();
    let tenant_queue: Vec<usize> = tenant_versions.iter().map(|&v| v.0).collect();

    // Cross-server RTT charged on completions a non-frontend server
    // produces (the frontend lives on server 0): one result payload each
    // way over the inter-node link.
    let rtt_s = 2.0 * topo.inter_time(k_eff * 4);
    let rtt = |server: usize| if server == 0 { 0.0 } else { rtt_s };

    let mut records: Vec<Option<FleetRecord>> = vec![None; n];
    let mut predictions = vec![0u32; n * k_eff];
    let mut fault_log: Vec<FaultRecord> = Vec::new();
    let mut trajectory: Vec<AutoscaleDecision> = Vec::new();
    let mut cache = PredictionCache::new(config.cache_capacity);
    // id of a cache hit → id of the computed request whose predictions it
    // replays (resolved after the workers drain).
    let mut replays: Vec<(u32, u32)> = Vec::new();
    let mut hedge_policy = match config.hedge_quantile {
        Some(q) => HedgePolicy::new(q, config.hedge_min_obs, config.hedge_min_wait_s),
        None => HedgePolicy::disabled(),
    };
    let mut hedge_stats = HedgeStats::default();

    let mut autoscaler = match config.provisioning {
        Provisioning::Auto => Some(AutoscaleController::new(
            config.r_min.min(n_slots).max(1),
            n_slots,
            config.autoscale_beta,
            config.autoscale_target_depth,
        )),
        Provisioning::Static(_) => None,
    };
    let initial = match config.provisioning {
        Provisioning::Auto => config.r_min.min(n_slots).max(1),
        Provisioning::Static(s) => s.clamp(1, n_slots),
    };

    let mut slots: Vec<Slot> = devices
        .into_iter()
        .enumerate()
        .map(|(i, device)| Slot {
            device,
            server: i % topo.servers(),
            controller: SloController::new(config.scaling, config.slo_s),
            alive: true,
            commissioned: false,
            served: 0,
            batches: 0,
            window_lat: Vec::new(),
            trajectory: Vec::new(),
            stats: LatencyStats::new(hist_hi),
            intervals: Vec::new(),
            tx: None,
        })
        .collect();
    for s in slots.iter_mut().take(initial) {
        s.commission(0.0);
    }

    std::thread::scope(|scope| {
        // One inference worker per slot, spawned up front — spare slots just
        // idle on an empty channel until commissioned. Workers own reused
        // workspaces and write nothing the scheduler reads.
        let (res_tx, res_rx) = mpsc::channel::<(Vec<u32>, Vec<u32>)>();
        let ws_config = *registry.config();
        for slot in slots.iter_mut() {
            let (tx, rx) = mpsc::channel::<WorkItem>();
            slot.tx = Some(tx);
            let res = res_tx.clone();
            scope.spawn(move || {
                let mut ws = Workspace::new(&ws_config);
                let mut out: Vec<u32> = Vec::new();
                for item in rx {
                    let got = item
                        .model
                        .predict_topk_ws(&item.x, k_eff, &mut ws, &mut out);
                    debug_assert_eq!(got, k_eff);
                    let _ = res.send((item.ids, out.clone()));
                }
            });
        }
        drop(res_tx);

        // The scheduler loop: single-threaded, virtual-time only.
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_versions];
        let mut queued = 0usize;
        let mut next_arr = 0usize;
        let mut window = 0u64;
        let mut in_window = 0usize;
        let mut batch: Vec<usize> = Vec::new();
        let mut pool_rows: Vec<usize> = Vec::new();

        loop {
            if queued == 0 && next_arr >= n {
                break;
            }
            // Fault events due before this dispatch.
            let anchor = slots[pick_slot(&slots)].device.now().secs();
            for e in plan.due(window as usize, in_window, false) {
                apply_fault(&mut slots, e, anchor, queued, &mut fault_log);
            }

            // Dispatch to whichever commissioned replica frees first, no
            // earlier than the oldest pending request.
            let r = pick_slot(&slots);
            let free = slots[r].device.now().secs();
            let first_pending = queues
                .iter()
                .filter_map(|q| q.front())
                .map(|&q| requests[q].arrival)
                .fold(f64::INFINITY, f64::min)
                .min(if next_arr < n {
                    requests[next_arr].arrival
                } else {
                    f64::INFINITY
                });
            let t = free.max(first_pending);
            slots[r].device.advance_to(SimTime(t));

            // Admit arrivals up to `t`. Admission is where the cache acts:
            // a ready hit completes immediately at the frontend and never
            // queues.
            while next_arr < n && requests[next_arr].arrival <= t {
                let req = &requests[next_arr];
                let key = (tenant_sig[req.tenant as usize], req.pool_row as u32);
                if let Some(rep) = cache.lookup(key, req.arrival) {
                    records[next_arr] = Some(FleetRecord {
                        arrival: req.arrival,
                        dispatched: req.arrival,
                        completed: req.arrival + config.cache_latency_s,
                        replica: None,
                        batch: 0,
                        tenant: req.tenant,
                        cache_hit: true,
                        hedged: false,
                        hedge_won: false,
                    });
                    replays.push((req.id, rep));
                } else {
                    queues[tenant_queue[req.tenant as usize]].push_back(next_arr);
                    queued += 1;
                }
                next_arr += 1;
            }
            if queued == 0 {
                // Everything admitted this round hit the cache; nothing to
                // dispatch yet.
                continue;
            }

            // Serve the version whose head has waited longest (ties to the
            // lowest version index), cutting up to the replica's adaptive
            // micro-batch of already-arrived requests.
            let v = queues
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.front().map(|&h| (i, requests[h].arrival)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
                .map(|(i, _)| i)
                .expect("queued > 0");
            let b = slots[r].controller.micro_batch();
            batch.clear();
            while batch.len() < b {
                match queues[v].front() {
                    Some(&q) if requests[q].arrival <= t => {
                        batch.push(q);
                        queues[v].pop_front();
                        queued -= 1;
                    }
                    _ => break,
                }
            }
            debug_assert!(!batch.is_empty(), "dispatch with nothing arrived");

            // Charge the primary device the batch's forward kernels.
            pool_rows.clear();
            pool_rows.extend(batch.iter().map(|&q| requests[q].pool_row));
            let x = pool.select_rows(&pool_rows);
            let model = &tenant_model[requests[batch[0]].tenant as usize];
            let kernels = inference_kernels(model.config(), x.rows(), x.nnz(), k_eff);
            slots[r].device.execute_all(&kernels);
            let done = slots[r].device.now().secs();

            // Hedge the stragglers: requests whose wait crossed the policy
            // threshold race a singleton batch on the earliest-free other
            // replica; the loser's clock is rolled back from the moment the
            // winner finished.
            for &q in &batch {
                let wait = t - requests[q].arrival;
                let mut completed = done + rtt(slots[r].server);
                let mut winner = r;
                let mut hedged = false;
                let mut hedge_won = false;
                let hedge_slot = hedge_policy
                    .should_hedge(wait)
                    .then(|| earliest_free(&slots, Some(r)))
                    .flatten();
                if let Some(h) = hedge_slot {
                    hedged = true;
                    hedge_stats.issued += 1;
                    let t2 = slots[h].device.now().secs().max(t);
                    slots[h].device.advance_to(SimTime(t2));
                    let x1 = pool.select_rows(&[requests[q].pool_row]);
                    let k1 = inference_kernels(model.config(), 1, x1.nnz(), k_eff);
                    slots[h].device.execute_all(&k1);
                    let h_done = slots[h].device.now().secs();
                    let h_completed = h_done + rtt(slots[h].server);
                    if h_completed < completed {
                        hedge_won = true;
                        hedge_stats.wins += 1;
                        completed = h_completed;
                        winner = h;
                    } else {
                        // Cancelled when the primary's completion
                        // reaches the frontend; work past that point is
                        // reclaimed in virtual time.
                        hedge_stats.losses += 1;
                        let cancel = completed.max(t2);
                        hedge_stats.cancelled_s += slots[h].device.rollback_to(SimTime(cancel));
                    }
                }
                let rec = FleetRecord {
                    arrival: requests[q].arrival,
                    dispatched: t,
                    completed,
                    replica: Some(winner),
                    batch: batch.len(),
                    tenant: requests[q].tenant,
                    cache_hit: false,
                    hedged,
                    hedge_won,
                };
                records[q] = Some(rec);
                slots[winner].window_lat.push(rec.latency());
                slots[winner].stats.record(rec.latency());
                slots[winner].served += 1;
                hedge_policy.observe(wait);
                // Fill the cache at the frontend-visible completion; the
                // first computation of a key wins, so replays never alias
                // through another hit.
                let key = (
                    tenant_sig[requests[q].tenant as usize],
                    requests[q].pool_row as u32,
                );
                cache.insert(key, requests[q].id, rec.completed);
            }
            slots[r].batches += 1;

            // Ship the real math to the primary's worker (hedges re-time a
            // request, they never recompute it).
            let ids: Vec<u32> = batch.iter().map(|&q| requests[q].id).collect();
            if let Some(tx) = &slots[r].tx {
                let _ = tx.send(WorkItem {
                    model: model.clone(),
                    x,
                    ids,
                });
            }

            in_window += 1;
            if in_window == config.window_dispatches {
                // Boundary sweep: never-reached fault ordinals fire here.
                let anchor = slots[pick_slot(&slots)].device.now().secs();
                for e in plan.due(window as usize, in_window, true) {
                    apply_fault(&mut slots, e, anchor, queued, &mut fault_log);
                }
                for s in slots.iter_mut().filter(|s| s.dispatchable()) {
                    if config.adaptive && !s.window_lat.is_empty() {
                        let p99 = percentile(&s.window_lat, 0.99).expect("non-empty window");
                        s.controller.observe_window(p99);
                    }
                    s.trajectory.push(s.controller.micro_batch());
                    s.window_lat.clear();
                }
                if let Some(ctl) = autoscaler.as_mut() {
                    let decision = ctl.observe_depth(window, queued);
                    trajectory.push(decision);
                    let anchor = slots[pick_slot(&slots)].device.now().secs();
                    let mut up = slots.iter().filter(|s| s.dispatchable()).count();
                    // Scale out: commission spare alive slots ascending —
                    // round-robin placement sends them to other servers.
                    while up < decision.replicas {
                        let Some(i) = slots.iter().position(|s| s.alive && !s.commissioned) else {
                            break;
                        };
                        slots[i].commission(anchor);
                        let boot = anchor + config.boot_delay_s;
                        let now = slots[i].device.now().secs();
                        slots[i].device.advance_to(SimTime(now.max(boot)));
                        up += 1;
                    }
                    // Scale in: decommission LIFO, never below one replica.
                    while up > decision.replicas && up > 1 {
                        let i = slots
                            .iter()
                            .rposition(|s| s.dispatchable())
                            .expect("up > 0");
                        let end = anchor.max(slots[i].device.now().secs());
                        slots[i].decommission(end);
                        up -= 1;
                    }
                }
                window += 1;
                in_window = 0;
            }
        }

        // Close every worker channel, then drain all results into the
        // id-indexed prediction buffer (order-independent by construction).
        for s in slots.iter_mut() {
            s.tx = None;
        }
        for (ids, out) in res_rx {
            for (j, &id) in ids.iter().enumerate() {
                predictions[id as usize * k_eff..(id as usize + 1) * k_eff]
                    .copy_from_slice(&out[j * k_eff..(j + 1) * k_eff]);
            }
        }
    });

    // Replay cached predictions from their computed representatives (one
    // copy deep — reps are never hits themselves).
    for &(id, rep) in &replays {
        let (dst, src) = (id as usize * k_eff, rep as usize * k_eff);
        let row: Vec<u32> = predictions[src..src + k_eff].to_vec();
        predictions[dst..dst + k_eff].copy_from_slice(&row);
    }

    let served = records.iter().filter(|r| r.is_some()).count();
    let makespan_s = records
        .iter()
        .flatten()
        .map(|r| r.completed)
        .fold(0.0f64, f64::max);
    let replicas = slots
        .into_iter()
        .map(|s| {
            let device_seconds: f64 = s
                .intervals
                .iter()
                .map(|&(start, end)| end.unwrap_or(makespan_s).max(start) - start)
                .sum();
            FleetReplicaReport {
                name: s.device.profile().name.clone(),
                server: s.server,
                alive: s.alive,
                commissioned: s.commissioned,
                served: s.served,
                batches: s.batches,
                final_b: s.controller.micro_batch(),
                trajectory: s.trajectory,
                device_seconds,
                stats: s.stats,
            }
        })
        .collect();
    FleetOutcome {
        records,
        predictions,
        k_eff,
        replicas,
        fault_log,
        trajectory,
        cache: cache.stats(),
        hedge: hedge_stats,
        dedup: registry.dedup_stats(),
        makespan_s,
        served,
        lost: n - served,
    }
}
