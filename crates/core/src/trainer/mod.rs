//! The HeteroGPU training framework (Fig. 3): central dynamic scheduler +
//! per-GPU manager threads over simulated heterogeneous devices.
//!
//! # Determinism model
//!
//! The scheduler owns the simulated [`Device`]s and the shuffled
//! [`SampleStream`]; every scheduling decision (which GPU receives the next
//! batch, when merges happen, what Algorithm 1/2 compute) is a function of
//! *virtual clocks* and seeded RNG state only. GPU-manager threads do the
//! real numeric work concurrently, but since the scheduler never waits on
//! them to decide placement, a run's result is bit-identical for a fixed
//! `(seed, thread-count)` regardless of OS scheduling.
//!
//! # Policy space
//!
//! One engine covers all four GPU algorithms of the paper's evaluation via
//! [`TrainerSpec`]: dynamic vs static dispatch, adaptive vs fixed batch
//! sizes, merge-per-mega-batch vs merge-every-round, and the merge rule
//! (Algorithm 2, plain averaging, or CROSSBOW-style partial pull).

pub mod arena;
pub mod chaos;
mod manager;
mod messages;

use crate::checkpoint::TrainingState;
use crate::hyper::{GpuHyper, ScalingParams};
use crate::merging::{
    apply_global_update_flat, compute_merge_weights, redistribute_global, MergeDecision,
    MergeParams,
};
use crate::metrics::{MergeRecord, RunRecorder, RunResult, SparseMergeStats};
use crate::schedule::{ScalingScheduler, StalenessBound};
use arena::{DeltaArena, MergeArena};
use asgd_collective::{
    scatter_delta, sparse_merge_timing, Algorithm, AllReduceTiming, CollectiveContext, InterNode,
    SparseLayout, SparseMergePlan,
};
use asgd_data::{batching::MegaBatchBudget, SampleStream, XmlDataset};
use asgd_gpusim::device::build_server;
use asgd_gpusim::fusion::{FusionPolicy, LaunchModel};
use asgd_gpusim::memory::MemoryTracker;
use asgd_gpusim::{
    ClusterTopology, Device, DeviceId, DeviceProfile, FaultPlan, SimTime, Topology, TraceLog,
};
use asgd_model::workload::{
    epoch_kernels, lsh_rebuild_kernels, model_transfer_kernels_sized, overhead_delta_for,
    sampled_epoch_kernels,
};
use asgd_model::{eval, Mlp, MlpConfig};
use asgd_tensor::parallel::{par_copy, par_widen};
use asgd_tensor::{FlatVec, Precision};
use chaos::ChaosStats;
use messages::{FromManager, ToManager};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Redistribution copies shorter than this stay serial (same rationale as
/// the collective's reduction threshold).
const MIN_PAR_MERGE: usize = 1 << 14;

/// Copies a merged buffer into the f32 global model (bf16 widens exactly,
/// so this direction never rounds).
pub(crate) fn copy_to_global(buf: &FlatVec, global: &mut [f32]) {
    match buf {
        FlatVec::F32(v) => par_copy(v, global, MIN_PAR_MERGE),
        FlatVec::Bf16(v) => par_widen(v, global, MIN_PAR_MERGE),
    }
}

/// Replaces the dense merge timing with the sparse-schedule timing when the
/// sparse delta merge is active. The reduction arithmetic already ran over
/// full reconstructed buffers (the reduction contract), so sparsity only
/// changes what the simulated wire carries; the dense timing doubles as the
/// density-threshold fallback. Free function over disjoint scheduler fields
/// so callers can split borrows (same pattern as
/// [`chaos::reduce_with_oom_fallback`]).
#[allow(clippy::too_many_arguments)]
fn sparse_timing_or_dense(
    delta_arena: &DeltaArena,
    layout: &SparseLayout,
    stats: &mut SparseMergeStats,
    plan: &SparseMergePlan,
    gpus: &[usize],
    ctx: &CollectiveContext,
    arrivals: &[SimTime],
    dense: AllReduceTiming,
) -> AllReduceTiming {
    let row_sets: Vec<&[u32]> = gpus.iter().map(|&g| delta_arena.slot(g).0).collect();
    let s = sparse_merge_timing(layout, &row_sets, plan, ctx, arrivals, dense);
    stats.merges += 1;
    if s.fell_back {
        stats.fallbacks += 1;
    }
    stats.sparse_bytes += s.timing.bytes_moved as u64;
    stats.dense_bytes += dense.bytes_moved as u64;
    s.timing
}

/// Sample seed of a batch: an FNV-1a fold of its sample ids mixed with the
/// LSH seed. A pure function of the ids, so a batch re-dispatched after a
/// device loss (same ids, different GPU) reproduces its candidate set
/// exactly; dispatch order and dispatch target never enter the seed.
fn batch_sample_seed(ids: &[usize], lsh_seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &id in ids {
        h ^= id as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ lsh_seed
}

/// How batches are assigned to GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// The paper's dynamic scheduling: the next batch goes to the GPU whose
    /// virtual clock is lowest (i.e. the first to become available).
    Dynamic,
    /// Static round-robin partitioning (Elastic SGD, TensorFlow, CROSSBOW).
    Static,
}

/// Whether Algorithm 1 runs at mega-batch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingPolicy {
    /// Adaptive batch size scaling (Algorithm 1, linear rule).
    Adaptive,
    /// Adaptive scaling with the multiplicative update — the alternative
    /// the paper tried and rejected (ablation).
    AdaptiveMultiplicative,
    /// Fixed equal batch sizes.
    Fixed,
}

/// How often replicas are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeInterval {
    /// Once per mega-batch (Adaptive and Elastic SGD).
    MegaBatch,
    /// After every round of one batch per GPU (TensorFlow's gradient
    /// aggregation and CROSSBOW's synchronous model averaging).
    EveryRound,
}

/// The rule combining replicas into the global model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeRule {
    /// Algorithm 2: normalized weights + perturbation + momentum.
    Normalized(MergeParams),
    /// Uniform averaging followed by the same momentum global-model update
    /// Adaptive SGD uses (`gamma = 0` disables it). With `gamma = 0.9` this
    /// is Elastic SGD's update rule — the paper notes Elastic and Adaptive
    /// "use the same model update rule" and coincide on a single GPU. For
    /// merge-every-round with equal batch sizes and `gamma = 0`, uniform
    /// averaging is mathematically identical to synchronous gradient
    /// aggregation (averaging `w − lr·∇_i` equals applying the averaged
    /// gradient).
    Average {
        /// Momentum of the global-model update.
        gamma: f64,
    },
    /// CROSSBOW-style synchronous model averaging: the central average model
    /// becomes the global model, and every replica is *partially pulled*
    /// toward it (`w ← w + pull·(z − w)`), keeping learner diversity. The
    /// sensitivity of this update is the source of the divergence the paper
    /// observes (§V-B).
    Crossbow {
        /// Pull strength in `(0, 1]`.
        pull: f64,
    },
}

/// The complete policy bundle describing one training algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerSpec {
    /// Display name (used in experiment output).
    pub name: String,
    /// Batch placement policy.
    pub dispatch: DispatchPolicy,
    /// Batch-size adaptation policy.
    pub scaling: ScalingPolicy,
    /// Merge cadence.
    pub merge_interval: MergeInterval,
    /// Merge rule.
    pub merge_rule: MergeRule,
    /// All-reduce implementation for model merging.
    pub allreduce: Algorithm,
    /// Kernel-fusion policy of the GPU managers.
    pub fusion: FusionPolicy,
    /// Multiplier on epoch compute time (1.0 for HeteroGPU implementations;
    /// >1 models TensorFlow's slower epoch execution, §V-B).
    pub compute_overhead: f64,
}

/// Configuration of the LSH-sampled softmax training path (see `DESIGN.md`,
/// "Sampled softmax & sparse output path").
///
/// With [`RunConfig::sampled_softmax`] set, every manager trains through a
/// deterministic candidate set — the batch's true labels plus
/// `neg_samples` hash-bucket negatives — instead of the full `num_classes`
/// output layer, which is what makes full-label-scale XC shapes (670k
/// labels) trainable. `None` trains the exact dense softmax (the reference
/// path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledSoftmax {
    /// SimHash tables in the LSH index (`ASGD_LSH_TABLES`).
    pub tables: usize,
    /// Bits per table signature (buckets per table = `2^k_bits`).
    pub k_bits: usize,
    /// Negatives per batch (`ASGD_NEG_SAMPLES`); the candidate set is
    /// `positives ∪ negatives`, clamped to the class count.
    pub neg_samples: usize,
    /// Seed of the LSH hyperplanes and the per-batch negative draws — the
    /// third seed of the determinism contract, next to the run seed and the
    /// fault seed.
    pub seed: u64,
}

impl SampledSoftmax {
    /// Defaults used by the experiment harness: 8 tables × 9 bits, seeded
    /// independently of the run seed.
    pub fn defaults(neg_samples: usize) -> Self {
        SampledSoftmax {
            tables: 8,
            k_bits: 9,
            neg_samples,
            seed: 0x51DE_CA5E,
        }
    }
}

/// Shape and merge topology of a simulated multi-server fleet
/// (`ASGD_SERVERS` × `ASGD_DEVICES_PER_SERVER`).
///
/// With [`RunConfig::cluster`] set, the trainer's collective context routes
/// cross-server transfers over a slow inter-node link
/// ([`ClusterTopology::ethernet`]) and the merge runs the two-level
/// hierarchical schedule (`asgd_collective::hierarchical`). Result bits are
/// **identical** to the flat merge over the same replicas — the merge
/// topology is a scheduling optimization, never an arithmetic one (see
/// `DESIGN.md`, "Cluster topology & hierarchical merge") — so cluster runs
/// stay bit-deterministic at any `ASGD_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of servers (nodes); device `g` lives on server
    /// `g / devices_per_server` (fixed server-major ordering).
    pub servers: usize,
    /// Devices per server; `servers · devices_per_server` must equal the
    /// trainer's device count.
    pub devices_per_server: usize,
    /// Inter-node reduction shape over the server leads.
    pub inter: InterNode,
}

/// Run-level configuration shared by all algorithms (the paper uses "the
/// same hyperparameters for all the algorithms", §V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Maximum (and initial) batch size `b_max`.
    pub b_max: usize,
    /// Learning rate at `b_max`; other sizes follow the linear scaling rule.
    pub base_lr: f64,
    /// Samples per mega-batch.
    pub mega_batch_size: usize,
    /// Algorithm 1 parameters.
    pub scaling_params: ScalingParams,
    /// Hidden-layer width of the MLP.
    pub hidden: usize,
    /// Master seed: drives init, shuffling, and device jitter.
    pub seed: u64,
    /// Stop once simulated time reaches this many seconds (checked at
    /// mega-batch boundaries). At least one of the two limits must be set.
    pub time_limit: Option<f64>,
    /// Stop after this many mega-batches.
    pub mega_batch_limit: Option<usize>,
    /// Evaluation chunk size (bounds dense activation memory).
    pub eval_chunk: usize,
    /// Record a dispatch trace (Fig. 2).
    pub trace: bool,
    /// Scale applied to fixed overheads (kernel launch, transfer setup).
    /// Set this to the dataset's linear scale when training scaled-down
    /// synthetic twins, so the compute-to-overhead ratio matches what the
    /// paper's full-size datasets exhibit (see `DESIGN.md` §2). 1.0 = real
    /// hardware constants.
    pub overhead_scale: f64,
    /// Optional scaling-frequency adaptation (§III-A): once batch sizes are
    /// stable or oscillating, the interval between Algorithm 1 invocations
    /// grows up to `(tolerance, max_interval)`. `None` (the paper default)
    /// scales after every mega-batch.
    pub scaling_schedule: Option<(f64, usize)>,
    /// Mid-training device speed changes, `(mega_batch_index, gpu, factor)`
    /// — applied before the given mega-batch begins. Models thermal
    /// throttling / DVFS / co-tenant interference and exercises Adaptive
    /// SGD's ability to re-balance at runtime.
    pub speed_events: Vec<(usize, usize, f64)>,
    /// Optional seeded fault plan (straggler spikes, stalls, device loss,
    /// merge-time OOM) injected against the deterministic scheduling loop;
    /// the trainer degrades gracefully (see [`chaos`]). Requires
    /// [`MergeInterval::MegaBatch`]. `None` injects nothing and skips all
    /// chaos bookkeeping.
    pub fault_plan: Option<FaultPlan>,
    /// Storage precision of the merge/transfer tier (arena buffers, message
    /// payloads, simulated replica transfers). [`Precision::F32`] is the
    /// paper-faithful default; [`Precision::Bf16`] halves merge-stage bytes
    /// while all accumulation (all-reduce, momentum, blending) stays f32 —
    /// see `DESIGN.md`, "Precision tiers & rounding contract". Replica
    /// training math is f32 either way.
    pub precision: Precision,
    /// LSH-sampled softmax configuration (`ASGD_SOFTMAX=sampled`); `None`
    /// (the default) trains the exact dense output layer. Sampled runs stay
    /// bit-deterministic: outcomes are a pure function of
    /// `(seed, fault_plan, sampled_softmax.seed)` at any `ASGD_THREADS`.
    pub sampled_softmax: Option<SampledSoftmax>,
    /// Multi-server fleet shape; `None` (the default) is the paper's
    /// single-server setup with the flat all-reduce.
    pub cluster: Option<ClusterConfig>,
    /// Sparse delta merge (`ASGD_SPARSE_MERGE=1`): replicas ship only the
    /// rows they dirtied since the last sync (the sampled softmax's
    /// candidate sets make the dirty set exact and free) and the merge
    /// charges a union-sized schedule instead of a model-sized one.
    /// Effective only with [`RunConfig::sampled_softmax`] set and a
    /// `SetModel`-redistributing merge rule (Normalized/Average); Crossbow
    /// blends every parameter, so it silently stays on the dense path.
    /// Results are **bit-identical** to the dense merge — the reduction
    /// arithmetic is unchanged, only the simulated wire traffic shrinks
    /// (see `asgd_collective::sparse`).
    pub sparse_merge: bool,
    /// Union-density threshold (`union elems / param_len`) above which a
    /// sparse merge falls back to the dense schedule (timing-only).
    pub sparse_max_density: f64,
}

impl RunConfig {
    /// Paper defaults derived from `b_max`: a mega-batch of
    /// `batches_per_mega · b_max` samples (the paper uses 100 batches),
    /// `b_min = b_max/8`, `β = b_min/2`, hidden = 128.
    pub fn paper_defaults(b_max: usize, batches_per_mega: usize) -> Self {
        RunConfig {
            b_max,
            base_lr: 0.1,
            mega_batch_size: b_max * batches_per_mega.max(1),
            scaling_params: ScalingParams::paper_defaults(b_max),
            hidden: 128,
            seed: 42,
            time_limit: None,
            mega_batch_limit: None,
            eval_chunk: 256,
            trace: false,
            overhead_scale: 1.0,
            scaling_schedule: None,
            speed_events: Vec::new(),
            fault_plan: None,
            precision: Precision::F32,
            sampled_softmax: None,
            cluster: None,
            sparse_merge: false,
            sparse_max_density: asgd_collective::DEFAULT_MAX_DENSITY,
        }
    }
}

/// The training engine: couples a [`TrainerSpec`] with a simulated server.
#[derive(Debug, Clone)]
pub struct Trainer {
    spec: TrainerSpec,
    profiles: Vec<DeviceProfile>,
    config: RunConfig,
}

impl Trainer {
    /// Creates a trainer over the given device profiles.
    pub fn new(spec: TrainerSpec, profiles: Vec<DeviceProfile>, config: RunConfig) -> Self {
        assert!(!profiles.is_empty(), "need at least one device");
        assert!(
            config.time_limit.is_some() || config.mega_batch_limit.is_some(),
            "set a time limit or a mega-batch limit"
        );
        assert!(
            config.fault_plan.is_none() || spec.merge_interval == MergeInterval::MegaBatch,
            "fault injection requires merge-per-mega-batch"
        );
        if let Some(cl) = &config.cluster {
            assert_eq!(
                cl.servers * cl.devices_per_server,
                profiles.len(),
                "cluster shape does not match the device count"
            );
        }
        Self {
            spec,
            profiles,
            config,
        }
    }

    /// The spec this trainer runs.
    pub fn spec(&self) -> &TrainerSpec {
        &self.spec
    }

    /// Trains on `dataset` until a limit is hit; returns the full record.
    pub fn run(&self, dataset: &XmlDataset) -> RunResult {
        self.run_with_state(dataset, None)
    }

    /// Resumes training from a checkpoint (see [`crate::checkpoint`]):
    /// model, momentum memory, and per-GPU hyperparameters continue where
    /// the snapshot left off; merge indices continue from
    /// `state.megas_done`. Device clocks restart at zero (a resumed run
    /// continues the *optimization*, not the timing trace).
    pub fn run_resumed(&self, dataset: &XmlDataset, state: &TrainingState) -> RunResult {
        self.run_with_state(dataset, Some(state))
    }

    fn run_with_state(&self, dataset: &XmlDataset, resume: Option<&TrainingState>) -> RunResult {
        let n = self.profiles.len();
        let cfg = &self.config;
        let mconfig = MlpConfig {
            num_features: dataset.num_features,
            hidden: cfg.hidden,
            num_classes: dataset.num_labels,
        };
        let mut init_model = Mlp::init(&mconfig, cfg.seed);
        let mut start_index = 0usize;
        let mut hypers: Vec<GpuHyper> = (0..n)
            .map(|_| GpuHyper::initial(cfg.b_max, cfg.base_lr))
            .collect();
        if let Some(state) = resume {
            assert_eq!(
                state.global.len(),
                mconfig.param_len(),
                "checkpoint does not match the model architecture"
            );
            assert_eq!(
                state.hypers.len(),
                n,
                "checkpoint does not match the GPU count"
            );
            init_model.load_flat(&state.global);
            hypers = state.hypers.clone();
            start_index = state.megas_done as usize;
        }
        // Fixed overheads scale with the dataset (see `RunConfig::overhead_scale`).
        let profiles: Vec<DeviceProfile> = self
            .profiles
            .iter()
            .map(|p| p.clone().with_overhead_scale(cfg.overhead_scale))
            .collect();
        let mut launch_model = LaunchModel::default_cuda();
        launch_model.base_overhead_s *= cfg.overhead_scale;
        let track_in_flight = cfg.fault_plan.as_ref().is_some_and(|p| p.has_device_loss());
        let param_len = mconfig.param_len();
        let mut state = SchedulerState {
            spec: &self.spec,
            cfg,
            mconfig,
            dataset,
            devices: build_server(&profiles, cfg.seed),
            ctx: match &cfg.cluster {
                // The single-server context is untouched by the cluster
                // feature: same constructor, same timing bits.
                None => CollectiveContext::new(
                    Topology::pcie(n).with_setup_scale(cfg.overhead_scale),
                    &profiles,
                ),
                Some(cl) => CollectiveContext::cluster(
                    &ClusterTopology::ethernet(cl.servers, cl.devices_per_server)
                        .with_setup_scale(cfg.overhead_scale),
                    &profiles,
                ),
            },
            launch_model,
            trace: if cfg.trace {
                TraceLog::enabled()
            } else {
                TraceLog::disabled()
            },
            stream: SampleStream::new(
                dataset.train.len(),
                cfg.seed ^ 0xA5A5_5A5A ^ (start_index as u64) << 17,
            ),
            budget: MegaBatchBudget::new(cfg.mega_batch_size),
            hypers,
            arena: MergeArena::new(n, mconfig.param_len(), cfg.precision),
            global: init_model.to_flat(),
            prev_global: resume
                .map(|s| s.prev_global.clone())
                .unwrap_or_else(|| init_model.to_flat()),
            eval_model: init_model.clone(),
            recorder: RunRecorder::new(),
            rr_cursor: 0,
            batches_dispatched: 0,
            start_index,
            scaling_scheduler: cfg
                .scaling_schedule
                .map(|(tol, cap)| ScalingScheduler::new(tol, cap)),
            alive: vec![true; n],
            in_flight: vec![Vec::new(); n],
            track_in_flight,
            chaos: ChaosStats::default(),
            // Enough for the pooled merge scratch (n replica-sized buffers
            // at the run's storage precision) plus slack; an OOM fault hogs
            // the capacity so the scratch request genuinely fails.
            merge_memory: MemoryTracker::new((n * param_len * cfg.precision.bytes()) as u64 + 4096),
            delta_arena: (cfg.sparse_merge
                && cfg.sampled_softmax.is_some()
                && !matches!(self.spec.merge_rule, MergeRule::Crossbow { .. }))
            .then(|| DeltaArena::new(n, cfg.precision)),
            sparse_layout: SparseLayout::new(
                mconfig.num_features,
                mconfig.hidden,
                mconfig.num_classes,
            ),
            sparse_stats: SparseMergeStats::default(),
        };
        if state.delta_arena.is_some() {
            // Sparse mode parks each manager's last-synced base in its arena
            // slot; seed every slot with the init model all replicas start
            // from (`drive` sends no initial `SetModel`).
            for g in 0..n {
                let mut buf = state.arena.lend(g);
                init_model.write_flat_buf(&mut buf);
                state.arena.restore(g, buf);
            }
        }

        // std scoped threads: a panicking manager propagates out of the
        // scope when it joins, same observable behavior as the crossbeam
        // scope this replaced.
        std::thread::scope(|s| {
            let (from_tx, from_rx) = channel();
            let mut to_managers: Vec<Sender<ToManager>> = Vec::with_capacity(n);
            for g in 0..n {
                let (tx, rx) = channel();
                let replica = init_model.clone();
                let ftx = from_tx.clone();
                let sampled = cfg.sampled_softmax;
                s.spawn(move || manager::run_manager(g, replica, dataset, rx, ftx, sampled));
                to_managers.push(tx);
            }
            drop(from_tx);
            state.drive(&to_managers, &from_rx);
            for tx in &to_managers {
                let _ = tx.send(ToManager::Stop);
            }
        });

        let sparse_merge = state
            .delta_arena
            .is_some()
            .then(|| state.sparse_stats.clone());
        let megas_run = state.recorder.records().len() as u64;
        let final_state = TrainingState {
            global: state.global.clone(),
            prev_global: state.prev_global.clone(),
            hypers: state.hypers.clone(),
            megas_done: start_index as u64 + megas_run,
        };
        RunResult {
            name: self.spec.name.clone(),
            records: state.recorder.into_records(),
            final_model: state.global,
            trace: state.trace.render(),
            final_state: Some(final_state),
            chaos: state.chaos,
            sparse_merge,
        }
    }
}

/// All mutable scheduler-side state, grouped so the main loop reads cleanly.
struct SchedulerState<'a> {
    spec: &'a TrainerSpec,
    cfg: &'a RunConfig,
    mconfig: MlpConfig,
    dataset: &'a XmlDataset,
    devices: Vec<Device>,
    ctx: CollectiveContext,
    launch_model: LaunchModel,
    trace: TraceLog,
    stream: SampleStream,
    budget: MegaBatchBudget,
    hypers: Vec<GpuHyper>,
    /// Persistent flat-model buffers recycled across merges (see [`arena`]).
    arena: MergeArena,
    global: Vec<f32>,
    prev_global: Vec<f32>,
    eval_model: Mlp,
    recorder: RunRecorder,
    rr_cursor: usize,
    batches_dispatched: usize,
    start_index: usize,
    scaling_scheduler: Option<ScalingScheduler>,
    /// Which replicas still participate (all `true` until a DeviceLoss).
    alive: Vec<bool>,
    /// Per-GPU sample-id batches dispatched since the last merge — the work
    /// that dies with a replica. Populated only when `track_in_flight`.
    in_flight: Vec<Vec<Vec<usize>>>,
    /// Whether the fault plan contains a device loss (gates the in-flight
    /// clones so the fault-free hot path stays zero-overhead).
    track_in_flight: bool,
    /// Chaos accounting (empty unless a fault plan is set).
    chaos: ChaosStats,
    /// Memory budget of the merge stage's pooled scratch.
    merge_memory: MemoryTracker,
    /// `Some` iff the sparse delta merge is active: recycled per-replica
    /// `(rows, payload)` pairs. When active, [`Self::arena`] slots double as
    /// each manager's *base* — the payload of its last `SetModel` — between
    /// merges, so scattering a delta over the slot reconstructs the
    /// replica's flat buffer bit-for-bit.
    delta_arena: Option<DeltaArena>,
    /// Row space of the sparse wire format.
    sparse_layout: SparseLayout,
    /// Sparse-merge accounting (untouched unless `delta_arena` is set).
    sparse_stats: SparseMergeStats,
}

impl SchedulerState<'_> {
    fn n(&self) -> usize {
        self.devices.len()
    }

    /// Runs the whole training loop.
    fn drive(&mut self, to: &[Sender<ToManager>], from: &Receiver<FromManager>) {
        // The model replica moves to every GPU once, at training start
        // (within a mega-batch only batches move, §IV), at the run's
        // storage precision (bf16 halves the bytes on the wire).
        let transfer =
            model_transfer_kernels_sized(&self.mconfig, true, self.cfg.precision.bytes());
        for d in self.devices.iter_mut() {
            d.execute_all(&transfer);
        }
        // Sampled mode hashes every output neuron at startup.
        self.charge_lsh_rebuild();

        let mut mega_index = 0usize;
        loop {
            for &(at, gpu, factor) in &self.cfg.speed_events {
                if at == mega_index {
                    assert!(gpu < self.devices.len(), "speed event gpu out of range");
                    self.devices[gpu].set_speed_factor(factor);
                }
            }
            self.budget.refill();
            let mega = self.run_mega_batch(to, from, mega_index);
            let sim_time = self.max_clock().secs();
            self.eval_model.load_flat(&self.global);
            let accuracy = eval::top1_accuracy(
                &self.eval_model,
                &self.dataset.test.features,
                &self.dataset.test.labels,
                self.cfg.eval_chunk,
            );
            self.recorder.push(MergeRecord {
                merge_index: self.start_index + mega_index,
                sim_time,
                epochs: self.stream.epochs(),
                accuracy,
                mean_loss: mega.mean_loss,
                batch_sizes: self.hypers.iter().map(|h| h.batch_size).collect(),
                updates: mega.updates,
                perturbed: mega.perturbed,
                merge_weights: mega.weights,
            });
            mega_index += 1;
            if let Some(limit) = self.cfg.mega_batch_limit {
                if mega_index >= limit {
                    break;
                }
            }
            if let Some(limit) = self.cfg.time_limit {
                if sim_time >= limit {
                    break;
                }
            }
        }
    }

    /// Processes one mega-batch (dispatch + merge(s) + scaling); returns its
    /// summary for recording.
    fn run_mega_batch(
        &mut self,
        to: &[Sender<ToManager>],
        from: &Receiver<FromManager>,
        mega_index: usize,
    ) -> MegaSummary {
        let n = self.n();
        // Losses are accumulated per GPU (each manager's replies arrive in
        // its own FIFO order) and summed in GPU-index order afterwards, so
        // the mean loss is independent of cross-manager arrival interleaving.
        let mut loss_sums = vec![0.0f64; n];
        let mut loss_counts = vec![0usize; n];
        let mut interval_updates = vec![0u64; n];
        let mut interval_samples = vec![0u64; n];
        let mut perturbed = false;
        let mut weights = vec![1.0 / n as f64; n];

        let deadline = self.cfg.time_limit.unwrap_or(f64::INFINITY);
        match self.spec.merge_interval {
            MergeInterval::MegaBatch => {
                let mut dispatched = 0usize;
                let mut extra_trains = 0usize;
                loop {
                    extra_trains += self.fire_due_faults(
                        to,
                        mega_index,
                        dispatched,
                        false,
                        &mut interval_updates,
                        &mut interval_samples,
                    );
                    let g = self.pick_gpu();
                    // Stop dispatching once the budgeted time is exhausted
                    // (the merge still runs, so the final state is global).
                    if self.devices[g].now().secs() >= deadline {
                        break;
                    }
                    let want = self.hypers[g].rounded_batch();
                    let Some(got) = self.budget.grant(want) else {
                        break;
                    };
                    self.dispatch_batch(g, got, to);
                    interval_updates[g] += 1;
                    interval_samples[g] += got as u64;
                    dispatched += 1;
                }
                // Events whose dispatch ordinal was never reached fire at
                // the merge boundary (no event is silently dropped).
                extra_trains += self.fire_due_faults(
                    to,
                    mega_index,
                    dispatched,
                    true,
                    &mut interval_updates,
                    &mut interval_samples,
                );
                self.drain_trained(
                    from,
                    dispatched + extra_trains,
                    &mut loss_sums,
                    &mut loss_counts,
                );
                let decision = self.merge(to, from, mega_index);
                perturbed = decision.perturbed;
                weights = decision.weights;
                if self.track_in_flight {
                    // Merged work can no longer die with a replica.
                    for f in &mut self.in_flight {
                        f.clear();
                    }
                }
                let scale_now = match &mut self.scaling_scheduler {
                    Some(sched) => {
                        let sizes: Vec<f64> = self.hypers.iter().map(|h| h.batch_size).collect();
                        sched.observe_and_decide(&sizes)
                    }
                    None => true,
                };
                if scale_now {
                    self.scale_survivors();
                }
                for h in &mut self.hypers {
                    h.updates = 0;
                }
            }
            MergeInterval::EveryRound => {
                loop {
                    if self.max_clock().secs() >= deadline {
                        break;
                    }
                    let mut sent = 0usize;
                    #[allow(clippy::needless_range_loop)]
                    // g indexes hypers, devices, AND interval_updates
                    for g in 0..n {
                        let want = self.hypers[g].rounded_batch();
                        let Some(got) = self.budget.grant(want) else {
                            break;
                        };
                        self.dispatch_batch(g, got, to);
                        interval_updates[g] += 1;
                        interval_samples[g] += got as u64;
                        sent += 1;
                    }
                    if sent == 0 {
                        break;
                    }
                    self.drain_trained(from, sent, &mut loss_sums, &mut loss_counts);
                    let decision = self.merge(to, from, mega_index);
                    weights = decision.weights;
                    for h in &mut self.hypers {
                        h.updates = 0;
                    }
                    if self.budget.remaining() == 0 {
                        break;
                    }
                }
            }
        }

        // Commit accounting and the interval mean loss over survivors only:
        // a dead replica's results never reach the global model.
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0usize;
        for g in 0..n {
            if self.alive[g] {
                loss_sum += loss_sums[g];
                loss_n += loss_counts[g];
            }
        }
        if self.cfg.fault_plan.is_some() {
            for g in 0..n {
                if self.alive[g] {
                    self.chaos.batches_committed += interval_updates[g];
                    self.chaos.samples_committed += interval_samples[g];
                }
            }
        }

        MegaSummary {
            mean_loss: if loss_n == 0 {
                0.0
            } else {
                loss_sum / loss_n as f64
            },
            updates: interval_updates,
            perturbed,
            weights,
        }
    }

    /// Runs the configured Algorithm 1 variant over the surviving replicas
    /// (the scaler's mean update count must not be dragged down by dead
    /// replicas pinned at zero updates).
    fn scale_survivors(&mut self) {
        let rule = match self.spec.scaling {
            ScalingPolicy::Adaptive => crate::hyper::ScalingRule::Linear,
            ScalingPolicy::AdaptiveMultiplicative => crate::hyper::ScalingRule::Multiplicative,
            ScalingPolicy::Fixed => return,
        };
        let alive_idx: Vec<usize> = (0..self.n()).filter(|&g| self.alive[g]).collect();
        let mut sub: Vec<GpuHyper> = alive_idx.iter().map(|&g| self.hypers[g].clone()).collect();
        crate::hyper::scale_batch_sizes_with(&mut sub, &self.cfg.scaling_params, rule);
        for (&g, h) in alive_idx.iter().zip(sub) {
            self.hypers[g] = h;
        }
    }

    /// Chooses the GPU for the next batch per the dispatch policy. Dead
    /// replicas are never picked.
    fn pick_gpu(&mut self) -> usize {
        match self.spec.dispatch {
            DispatchPolicy::Dynamic => {
                // First-available = smallest virtual clock; ties (exact f64
                // equality, e.g. at t = 0) break by id for determinism.
                (0..self.n())
                    .filter(|&g| self.alive[g])
                    .min_by(|&a, &b| {
                        self.devices[a]
                            .now()
                            .partial_cmp(&self.devices[b].now())
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    })
                    .expect("at least one device alive")
            }
            DispatchPolicy::Static => {
                let mut g = self.rr_cursor;
                while !self.alive[g] {
                    g = (g + 1) % self.n();
                }
                self.rr_cursor = (g + 1) % self.n();
                g
            }
        }
    }

    /// Cuts a batch from the stream, charges its kernels to device `g`, and
    /// sends the numeric work to manager `g`.
    fn dispatch_batch(&mut self, g: usize, got: usize, to: &[Sender<ToManager>]) {
        let ids = self.stream.take(got);
        self.charge_and_send(g, ids, to);
    }

    /// Charges an id-batch's kernels to device `g` and sends the numeric
    /// work to manager `g` at its current learning rate. Shared by the
    /// primary dispatch path and the device-loss re-dispatch path — which is
    /// what makes candidate sets loss-proof: the sample seed is a function
    /// of the ids alone, so a re-dispatched batch reselects identically.
    fn charge_and_send(&mut self, g: usize, ids: Vec<usize>, to: &[Sender<ToManager>]) {
        let got = ids.len();
        let nnz: usize = ids
            .iter()
            .map(|&i| self.dataset.train.features.row_nnz(i))
            .sum();
        let kinds = match self.cfg.sampled_softmax {
            Some(s) => {
                let cand = self.candidate_estimate(&ids, s.neg_samples);
                sampled_epoch_kernels(&self.mconfig, got, nnz, cand, s.tables)
            }
            None => epoch_kernels(&self.mconfig, got, nnz),
        };
        let extra = overhead_delta_for(&kinds, self.spec.fusion, &self.launch_model, self.n());
        let sample_seed = batch_sample_seed(&ids, self.cfg.sampled_softmax.map_or(0, |s| s.seed));
        let t0 = self.devices[g].now();
        self.devices[g].charge_epoch(&kinds, self.spec.compute_overhead, extra);
        self.trace.record(
            DeviceId(g),
            t0,
            self.devices[g].now(),
            format!(
                "batch {} (size {got}, nnz {nnz}, lr {:.4})",
                self.batches_dispatched, self.hypers[g].lr
            ),
        );
        self.batches_dispatched += 1;
        self.hypers[g].updates += 1;
        if self.track_in_flight {
            self.in_flight[g].push(ids.clone());
        }
        to[g]
            .send(ToManager::Train {
                batch_ids: ids,
                lr: self.hypers[g].lr as f32,
                sample_seed,
            })
            .expect("manager channel closed");
    }

    /// The exact size of the candidate set the sampler will select for this
    /// batch — `min(|positive union| + neg_samples, classes)` — used for
    /// cost charging (the scheduler never runs the LSH itself).
    fn candidate_estimate(&self, ids: &[usize], neg_samples: usize) -> usize {
        let mut pos: Vec<u32> = ids
            .iter()
            .flat_map(|&i| self.dataset.train.labels[i].iter().copied())
            .collect();
        pos.sort_unstable();
        pos.dedup();
        (pos.len() + neg_samples).min(self.mconfig.num_classes)
    }

    /// Charges the per-sync LSH rebuild (sampled mode only) to every
    /// surviving device: each manager re-hashes all output neurons after a
    /// model sync (startup, redistribute, blend).
    fn charge_lsh_rebuild(&mut self) {
        let Some(s) = self.cfg.sampled_softmax else {
            return;
        };
        let kernels = lsh_rebuild_kernels(&self.mconfig, s.tables, s.k_bits);
        for (d, &a) in self.devices.iter_mut().zip(&self.alive) {
            if a {
                d.execute_all(&kernels);
            }
        }
    }

    /// Receives exactly `count` `Trained` messages, accumulating losses
    /// per GPU (callers sum the per-GPU buckets in index order, keeping the
    /// mean loss independent of cross-manager arrival interleaving).
    fn drain_trained(
        &mut self,
        from: &Receiver<FromManager>,
        count: usize,
        loss_sums: &mut [f64],
        loss_counts: &mut [usize],
    ) {
        for _ in 0..count {
            match from.recv().expect("manager channel closed") {
                FromManager::Trained {
                    gpu,
                    loss,
                    batch_size,
                } => {
                    debug_assert!(gpu < self.n(), "reply from unknown manager");
                    debug_assert!(batch_size > 0, "empty batch trained");
                    loss_sums[gpu] += loss;
                    loss_counts[gpu] += 1;
                }
                FromManager::Model { .. }
                | FromManager::Redistributed { .. }
                | FromManager::Delta { .. } => {
                    unreachable!("merge-phase reply outside a merge phase")
                }
            }
        }
    }

    /// One full model-merging stage over the alive replicas: collect them,
    /// compute weights, all-reduce, global update, redistribute, advance
    /// clocks. The fault-free fleet is the case where every replica is
    /// alive; after a device loss, `α_i` renormalize over the survivors
    /// (Σα = 1 by construction), the reduction runs over a survivor-sized
    /// collective context, dead clocks freeze, and dead slots report weight
    /// 0 in the returned decision.
    ///
    /// Model-sized payloads live in the scheduler's [`MergeArena`]: every
    /// buffer is lent to its manager for the gather (`GetModel` → `Model`),
    /// all-reduced in place — after which **all** buffers hold the merged
    /// model — then lent again for redistribution (`SetModel`/`Blend` →
    /// `Redistributed`). Steady-state merges allocate nothing model-sized.
    fn merge(
        &mut self,
        to: &[Sender<ToManager>],
        from: &Receiver<FromManager>,
        mega_index: usize,
    ) -> MergeDecision {
        let n = self.n();
        let alive_idx: Vec<usize> = (0..n).filter(|&g| self.alive[g]).collect();
        let k = alive_idx.len();
        assert!(k >= 1, "no surviving device to merge");

        if let Some(arena) = self.delta_arena.as_mut() {
            for &g in &alive_idx {
                let (rows, payload) = arena.lend(g);
                to[g]
                    .send(ToManager::GetDelta { rows, payload })
                    .expect("manager channel closed");
            }
        } else {
            for &g in &alive_idx {
                to[g]
                    .send(ToManager::GetModel {
                        buf: self.arena.lend(g),
                    })
                    .expect("manager channel closed");
            }
        }
        let mut norms = vec![0.0f64; n];
        let mut received = 0usize;
        while received < k {
            match from.recv().expect("manager channel closed") {
                FromManager::Model {
                    gpu,
                    flat,
                    norm_per_param,
                } => {
                    self.arena.restore(gpu, flat);
                    norms[gpu] = norm_per_param;
                    received += 1;
                }
                FromManager::Delta {
                    gpu,
                    rows,
                    payload,
                    norm_per_param,
                } => {
                    // Scattering the delta over the replica's parked base
                    // (its last `SetModel` payload) reconstructs exactly the
                    // buffer a dense gather would have produced.
                    let mut base = self.arena.lend(gpu);
                    scatter_delta(&self.sparse_layout, &rows, &payload, &mut base);
                    self.arena.restore(gpu, base);
                    self.delta_arena
                        .as_mut()
                        .expect("Delta reply without a delta arena")
                        .restore(gpu, rows, payload);
                    norms[gpu] = norm_per_param;
                    received += 1;
                }
                FromManager::Trained { .. } | FromManager::Redistributed { .. } => {
                    unreachable!("non-gather reply during the merge gather")
                }
            }
        }

        let decision = match self.spec.merge_rule {
            MergeRule::Normalized(params) => {
                let hypers: Vec<GpuHyper> =
                    alive_idx.iter().map(|&g| self.hypers[g].clone()).collect();
                let norms: Vec<f64> = alive_idx.iter().map(|&g| norms[g]).collect();
                compute_merge_weights(&hypers, &norms, &params)
            }
            MergeRule::Average { .. } | MergeRule::Crossbow { .. } => MergeDecision {
                weights: vec![1.0 / k as f64; k],
                by_updates: false,
                perturbed: false,
            },
        };

        // Cluster merges cross the slow inter-node link; Algorithm 2's α
        // weights assume every replica's per-mega update count stays inside
        // the band the batch-size clamps imply (§III-A) — the staleness
        // bound over the full fleet pins that here. Injected faults
        // (stalls, node losses) break the symmetry on purpose, so the bound
        // is a clean-run contract only.
        if self.cfg.cluster.is_some() && self.cfg.fault_plan.is_none() {
            let bound =
                StalenessBound::derive(&self.cfg.scaling_params, self.cfg.mega_batch_size, n);
            let updates: Vec<u64> = self.hypers.iter().map(|h| h.updates).collect();
            debug_assert!(
                bound.check(&updates),
                "staleness bound violated at merge {mega_index}: {updates:?} vs {bound:?}"
            );
        }
        // Survivors keep their original server assignments in a subset
        // context, so cross-server hops still pay the inter-node link.
        let sub_ctx;
        let ctx = if k == n {
            &self.ctx
        } else {
            sub_ctx = self.ctx.subset(&alive_idx);
            &sub_ctx
        };
        let arrivals: Vec<SimTime> = alive_idx.iter().map(|&g| self.devices[g].now()).collect();
        let mut bufs: Vec<FlatVec> = alive_idx.iter().map(|&g| self.arena.lend(g)).collect();
        let timing = chaos::reduce_with_oom_fallback(
            &mut self.merge_memory,
            &mut self.chaos,
            self.cfg.fault_plan.as_ref(),
            self.spec.allreduce,
            self.cfg.cluster.as_ref().map(|cl| cl.inter),
            &mut bufs,
            &decision.weights,
            ctx,
            &arrivals,
            mega_index,
        );
        let timing = match &self.delta_arena {
            None => timing,
            Some(da) => sparse_timing_or_dense(
                da,
                &self.sparse_layout,
                &mut self.sparse_stats,
                &SparseMergePlan {
                    algo: self.spec.allreduce,
                    inter: self.cfg.cluster.as_ref().map(|cl| cl.inter),
                    elem_bytes: self.cfg.precision.bytes(),
                    max_density: self.cfg.sparse_max_density,
                },
                &alive_idx,
                ctx,
                &arrivals,
                timing,
            ),
        };

        // Every buffer now holds the merged model.
        match self.spec.merge_rule {
            MergeRule::Normalized(MergeParams { gamma, .. }) | MergeRule::Average { gamma } => {
                apply_global_update_flat(&bufs[0], &mut self.global, &mut self.prev_global, gamma);
                redistribute_global(&self.global, &mut bufs);
                for (&g, buf) in alive_idx.iter().zip(bufs) {
                    to[g]
                        .send(ToManager::SetModel(buf))
                        .expect("manager channel closed");
                }
            }
            MergeRule::Crossbow { pull } => {
                // The merged model becomes the new global; the blend targets
                // ship with zero copies.
                copy_to_global(&bufs[0], &mut self.global);
                for (&g, buf) in alive_idx.iter().zip(bufs) {
                    to[g]
                        .send(ToManager::Blend {
                            target: buf,
                            pull: pull as f32,
                        })
                        .expect("manager channel closed");
                }
            }
        }

        // Drain the redistribution acks, bringing every buffer home for the
        // next merge.
        let mut returned = 0usize;
        while returned < k {
            match from.recv().expect("manager channel closed") {
                FromManager::Redistributed { gpu, buf } => {
                    self.arena.restore(gpu, buf);
                    returned += 1;
                }
                FromManager::Trained { .. }
                | FromManager::Model { .. }
                | FromManager::Delta { .. } => {
                    unreachable!("non-Redistributed reply during redistribution")
                }
            }
        }

        for &g in &alive_idx {
            self.devices[g].advance_to(timing.end);
        }
        // Sampled mode: every survivor re-hashes the output neurons against
        // the freshly synced model.
        self.charge_lsh_rebuild();
        let mut weights = vec![0.0f64; n];
        for (&g, &w) in alive_idx.iter().zip(&decision.weights) {
            weights[g] = w;
        }
        let survivors = if k < n {
            format!("survivors {alive_idx:?}, ")
        } else {
            String::new()
        };
        self.trace.record(
            DeviceId(alive_idx[0]),
            timing.start,
            timing.end,
            format!(
                "merge ({survivors}weights {:?}, perturbed {})",
                weights
                    .iter()
                    .map(|w| (w * 1000.0).round() / 1000.0)
                    .collect::<Vec<_>>(),
                decision.perturbed
            ),
        );
        MergeDecision {
            weights,
            ..decision
        }
    }

    fn max_clock(&self) -> SimTime {
        self.devices
            .iter()
            .zip(&self.alive)
            .filter(|(_, &a)| a)
            .map(|(d, _)| d.now())
            .fold(SimTime::ZERO, SimTime::max)
    }
}

/// Per-mega-batch summary used for recording.
struct MegaSummary {
    mean_loss: f64,
    updates: Vec<u64>,
    perturbed: bool,
    weights: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use asgd_collective::allreduce;
    use asgd_data::{generate, DatasetSpec};
    use asgd_gpusim::profile::{heterogeneous_server, homogeneous_server};

    fn quick_config() -> RunConfig {
        let mut c = RunConfig::paper_defaults(32, 4);
        c.hidden = 12;
        c.mega_batch_limit = Some(4);
        c.eval_chunk = 64;
        c
    }

    fn dataset() -> XmlDataset {
        generate(&DatasetSpec::tiny("trainer"), 5)
    }

    #[test]
    fn adaptive_runs_and_records() {
        let ds = dataset();
        let result = Trainer::new(
            algorithms::adaptive_sgd(),
            heterogeneous_server(2),
            quick_config(),
        )
        .run(&ds);
        assert_eq!(result.records.len(), 4);
        // Time moves forward strictly across mega-batches.
        for w in result.records.windows(2) {
            assert!(w[1].sim_time > w[0].sim_time);
            assert!(w[1].epochs > w[0].epochs);
        }
        assert!(!result.final_model.is_empty());
    }

    #[test]
    fn adaptive_is_deterministic_across_runs() {
        let ds = dataset();
        let run = || {
            Trainer::new(
                algorithms::adaptive_sgd(),
                heterogeneous_server(2),
                quick_config(),
            )
            .run(&ds)
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_model, b.final_model);
        assert_eq!(
            a.records.iter().map(|r| r.sim_time).collect::<Vec<_>>(),
            b.records.iter().map(|r| r.sim_time).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dynamic_dispatch_gives_slow_gpu_fewer_updates() {
        let ds = dataset();
        // Very skewed server: second GPU at half speed.
        let profiles = vec![
            asgd_gpusim::DeviceProfile::v100("fast"),
            asgd_gpusim::DeviceProfile::v100("slow").with_speed(0.5),
        ];
        let mut config = quick_config();
        config.mega_batch_limit = Some(1);
        // Enough batches per mega-batch that the 2x speed gap dominates the
        // per-batch nnz variance of the synthetic dataset.
        config.mega_batch_size = config.b_max * 24;
        let result = Trainer::new(algorithms::adaptive_sgd(), profiles, config).run(&ds);
        let updates = &result.records[0].updates;
        assert!(
            updates[0] > updates[1],
            "fast GPU should run more batches: {updates:?}"
        );
    }

    #[test]
    fn elastic_static_dispatch_gives_equal_updates() {
        let ds = dataset();
        let profiles = vec![
            asgd_gpusim::DeviceProfile::v100("fast"),
            asgd_gpusim::DeviceProfile::v100("slow").with_speed(0.5),
        ];
        let mut config = quick_config();
        config.mega_batch_limit = Some(1);
        let result = Trainer::new(algorithms::elastic_sgd(), profiles, config).run(&ds);
        let updates = &result.records[0].updates;
        assert_eq!(updates[0], updates[1], "static dispatch must be equal");
    }

    #[test]
    fn adaptive_batch_sizes_move_on_heterogeneous_server() {
        let ds = dataset();
        let profiles = vec![
            asgd_gpusim::DeviceProfile::v100("fast"),
            asgd_gpusim::DeviceProfile::v100("slow").with_speed(0.5),
        ];
        let mut config = quick_config();
        config.mega_batch_limit = Some(6);
        // As above: a wide mega-batch makes the update-count gap (and thus
        // Algorithm 1's batch-size movement) robust to dataset sparsity noise.
        config.mega_batch_size = config.b_max * 24;
        let result = Trainer::new(algorithms::adaptive_sgd(), profiles, config).run(&ds);
        let last = result.records.last().unwrap();
        assert!(
            last.batch_sizes[0] > last.batch_sizes[1],
            "faster GPU should end with the larger batch: {:?}",
            last.batch_sizes
        );
    }

    #[test]
    fn elastic_keeps_batch_sizes_fixed() {
        let ds = dataset();
        let result = Trainer::new(
            algorithms::elastic_sgd(),
            heterogeneous_server(2),
            quick_config(),
        )
        .run(&ds);
        for r in &result.records {
            assert!(r.batch_sizes.iter().all(|&b| b == 32.0));
        }
    }

    #[test]
    fn sync_sgd_merges_every_round_and_replicas_stay_identical() {
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(2);
        let result =
            Trainer::new(algorithms::tensorflow_sync(), homogeneous_server(2), config).run(&ds);
        assert_eq!(result.records.len(), 2);
        assert!(result.records[1].accuracy >= 0.0);
    }

    #[test]
    fn crossbow_runs() {
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(2);
        let result =
            Trainer::new(algorithms::crossbow_sma(), heterogeneous_server(2), config).run(&ds);
        assert_eq!(result.records.len(), 2);
    }

    #[test]
    fn single_gpu_all_algorithms_agree_on_update_counts() {
        // With one GPU, Adaptive and Elastic degenerate to mini-batch SGD
        // (the paper plots them as a single curve in Fig. 4).
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(2);
        let a = Trainer::new(
            algorithms::adaptive_sgd(),
            homogeneous_server(1),
            config.clone(),
        )
        .run(&ds);
        let e = Trainer::new(algorithms::elastic_sgd(), homogeneous_server(1), config).run(&ds);
        assert_eq!(
            a.records
                .iter()
                .map(|r| r.updates.clone())
                .collect::<Vec<_>>(),
            e.records
                .iter()
                .map(|r| r.updates.clone())
                .collect::<Vec<_>>()
        );
        // Same model math: identical final replicas.
        assert_eq!(a.final_model, e.final_model);
    }

    /// The pooled merge path (collective reductions, redistribution copies,
    /// momentum update) must not depend on the worker count: a whole run is
    /// bit-identical at `ASGD_THREADS=1` and `=8`, for both the arena
    /// `SetModel` and the zero-copy `Blend` redistribution.
    #[test]
    fn run_is_bit_identical_across_thread_counts() {
        let ds = dataset();
        for spec in [algorithms::adaptive_sgd(), algorithms::crossbow_sma()] {
            let run =
                || Trainer::new(spec.clone(), heterogeneous_server(2), quick_config()).run(&ds);
            asgd_tensor::parallel::override_threads(1);
            let serial = run();
            asgd_tensor::parallel::override_threads(8);
            let pooled = run();
            asgd_tensor::parallel::override_threads(0);
            assert_eq!(
                serial.final_model, pooled.final_model,
                "{}: thread count changed the result",
                spec.name
            );
            assert_eq!(
                serial
                    .records
                    .iter()
                    .map(|r| r.accuracy)
                    .collect::<Vec<_>>(),
                pooled
                    .records
                    .iter()
                    .map(|r| r.accuracy)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// Recycled arena buffers across consecutive merges produce exactly the
    /// bits fresh allocations would — no state leaks through the recycling.
    #[test]
    fn recycled_arena_merges_match_fresh_buffers() {
        use crate::trainer::arena::MergeArena;
        use asgd_gpusim::profile::homogeneous_server;

        let n = 4;
        let len = 257;
        let ctx = CollectiveContext::new(Topology::pcie(n), &homogeneous_server(n));
        let arrivals = vec![SimTime::ZERO; n];
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let replica =
            |merge: usize, g: usize, i: usize| ((merge * 31 + g * 7 + i) % 13) as f32 - 6.0;

        let mut arena = MergeArena::new(n, len, Precision::F32);
        for merge in 0..3 {
            // Arena path: recycle the same buffers, refilled like a manager
            // would via `write_flat_buf`.
            for g in 0..n {
                let mut buf = match arena.lend(g) {
                    FlatVec::F32(v) => v,
                    other => panic!("f32 arena lent {other:?}"),
                };
                buf.clear();
                buf.extend((0..len).map(|i| replica(merge, g, i)));
                arena.restore(g, FlatVec::F32(buf));
            }
            // Lend every slot for the in-place all-reduce, as the merge does.
            let mut bufs: Vec<FlatVec> = (0..n).map(|g| arena.lend(g)).collect();
            asgd_collective::allreduce_flat(
                &mut bufs,
                &weights,
                Algorithm::MultiStreamRing { partitions: n },
                &ctx,
                &arrivals,
            );
            // Fresh path: identical inputs in brand-new allocations.
            let mut fresh: Vec<Vec<f32>> = (0..n)
                .map(|g| (0..len).map(|i| replica(merge, g, i)).collect())
                .collect();
            allreduce(
                &mut fresh,
                &weights,
                Algorithm::MultiStreamRing { partitions: n },
                &ctx,
                &arrivals,
            );
            for (g, (buf, f)) in bufs.into_iter().zip(&fresh).enumerate() {
                assert_eq!(buf, FlatVec::F32(f.clone()), "merge {merge} gpu {g}");
                arena.restore(g, buf);
            }
        }
    }

    /// Satellite gate for the bf16 tier: a whole bf16-precision run is
    /// bit-identical across worker thread counts, same as the f32 run —
    /// every bf16 round point is placement-independent.
    #[test]
    fn bf16_run_is_bit_identical_across_thread_counts() {
        let ds = dataset();
        let mut config = quick_config();
        config.precision = Precision::Bf16;
        for spec in [algorithms::adaptive_sgd(), algorithms::crossbow_sma()] {
            let run =
                || Trainer::new(spec.clone(), heterogeneous_server(2), config.clone()).run(&ds);
            asgd_tensor::parallel::override_threads(1);
            let serial = run();
            asgd_tensor::parallel::override_threads(8);
            let pooled = run();
            asgd_tensor::parallel::override_threads(0);
            assert_eq!(
                serial.final_model, pooled.final_model,
                "{}: thread count changed the bf16 result",
                spec.name
            );
            assert_eq!(
                serial
                    .records
                    .iter()
                    .map(|r| r.accuracy)
                    .collect::<Vec<_>>(),
                pooled
                    .records
                    .iter()
                    .map(|r| r.accuracy)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// bf16 storage must not change the optimization qualitatively: the
    /// final global model stays within bf16-scale distance of the f32 run
    /// and the run still learns.
    #[test]
    fn bf16_run_tracks_f32_run_within_tolerance() {
        let ds = dataset();
        let f32_cfg = quick_config();
        let mut bf16_cfg = quick_config();
        bf16_cfg.precision = Precision::Bf16;
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let a = run(f32_cfg);
        let b = run(bf16_cfg);
        assert_eq!(a.records.len(), b.records.len());
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for (x, y) in a.final_model.iter().zip(&b.final_model) {
            num += ((x - y) as f64).powi(2);
            den += (*x as f64).powi(2);
        }
        let rel = (num / den.max(1e-30)).sqrt();
        // bf16 has ~3 decimal digits; merge-stage-only narrowing keeps the
        // drift around the format's epsilon, far below 5%.
        assert!(rel < 0.05, "bf16 drifted {rel} from the f32 trajectory");
        let f32_acc = a.records.last().unwrap().accuracy;
        let bf16_acc = b.records.last().unwrap().accuracy;
        assert!(
            (f32_acc - bf16_acc).abs() < 0.1,
            "accuracy gap too wide: f32 {f32_acc} vs bf16 {bf16_acc}"
        );
    }

    /// Tentpole determinism gate: a full sampled-softmax run — LSH tables,
    /// candidate selection, gathered-row kernels, sparse output update —
    /// is bit-identical at `ASGD_THREADS=1` and `=8`, for two different
    /// master seeds (so the property is not an artifact of one trajectory).
    #[test]
    fn sampled_run_is_bit_identical_across_thread_counts() {
        let ds = dataset();
        for seed in [42u64, 1913] {
            let mut config = quick_config();
            config.seed = seed;
            config.sampled_softmax = Some(SampledSoftmax::defaults(12));
            let run = || {
                Trainer::new(
                    algorithms::adaptive_sgd(),
                    heterogeneous_server(2),
                    config.clone(),
                )
                .run(&ds)
            };
            asgd_tensor::parallel::override_threads(1);
            let serial = run();
            asgd_tensor::parallel::override_threads(8);
            let pooled = run();
            asgd_tensor::parallel::override_threads(0);
            assert_eq!(
                serial.final_model, pooled.final_model,
                "seed {seed}: thread count changed the sampled result"
            );
            assert_eq!(
                serial
                    .records
                    .iter()
                    .map(|r| (r.mean_loss.to_bits(), r.accuracy.to_bits()))
                    .collect::<Vec<_>>(),
                pooled
                    .records
                    .iter()
                    .map(|r| (r.mean_loss.to_bits(), r.accuracy.to_bits()))
                    .collect::<Vec<_>>(),
                "seed {seed}: per-merge records drifted"
            );
        }
    }

    /// Convergence gate: sampled-softmax training must track the dense
    /// reference — same learning signal through a shrunken output layer.
    /// With the tiny 40-class space and 16 negatives the candidate sets
    /// cover most classes, so the final losses agree within the same 5%
    /// relative tolerance the bf16 tier is held to, and accuracy matches.
    #[test]
    fn sampled_run_tracks_dense_run() {
        let ds = dataset();
        let mut dense_cfg = quick_config();
        dense_cfg.mega_batch_limit = Some(12);
        dense_cfg.base_lr = 0.25;
        let mut sampled_cfg = dense_cfg.clone();
        sampled_cfg.sampled_softmax = Some(SampledSoftmax::defaults(16));
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let dense = run(dense_cfg);
        let sampled = run(sampled_cfg);
        // Both learn.
        let first = sampled.records.first().unwrap().accuracy;
        let best = sampled.best_accuracy();
        assert!(
            best > first + 0.05,
            "sampled run is not learning: first {first}, best {best}"
        );
        // The final candidate-set loss tracks the full-softmax loss.
        let dl = dense.records.last().unwrap().mean_loss;
        let sl = sampled.records.last().unwrap().mean_loss;
        let rel = (dl - sl).abs() / dl.max(1e-30);
        assert!(
            rel < 0.05,
            "sampled loss drifted {rel} from dense ({sl} vs {dl})"
        );
        // And the models end in comparable places accuracy-wise.
        let da = dense.records.last().unwrap().accuracy;
        let sa = sampled.records.last().unwrap().accuracy;
        assert!(
            (da - sa).abs() < 0.1,
            "accuracy gap too wide: dense {da} vs sampled {sa}"
        );
    }

    /// Sampled mode must also charge differently: the simulated epoch cost
    /// at identical shapes is lower than dense (output work shrinks to the
    /// candidate set), so sim time advances less per mega-batch.
    #[test]
    fn sampled_runs_charge_cheaper_epochs_than_dense() {
        let ds = dataset();
        let dense_cfg = quick_config();
        let mut sampled_cfg = quick_config();
        sampled_cfg.sampled_softmax = Some(SampledSoftmax::defaults(8));
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let dense = run(dense_cfg);
        let sampled = run(sampled_cfg);
        // Same batch counts, smaller per-epoch kernels: with the per-sync
        // LSH rebuild charged on top the gap narrows at this tiny shape,
        // but dense must still not be cheaper.
        let d = dense.records.last().unwrap().sim_time;
        let s = sampled.records.last().unwrap().sim_time;
        assert!(
            s < d * 1.5,
            "sampled charging out of range: {s} vs dense {d}"
        );
    }

    /// Tentpole gate: a sparse-delta-merge run produces the *same bits* as
    /// the dense-merge run — same final model, same per-merge losses and
    /// accuracies — while charging strictly less simulated merge traffic.
    /// Clock resync at each merge makes the trajectory independent of the
    /// merge schedule's duration, so only `sim_time` may differ.
    #[test]
    fn sparse_merge_run_is_bit_identical_to_dense_run() {
        let ds = dataset();
        let mut dense_cfg = quick_config();
        dense_cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        // The tiny 40-class space makes unions dense; disable the fallback
        // so the sparse schedule genuinely runs.
        dense_cfg.sparse_max_density = 1.0;
        let mut sparse_cfg = dense_cfg.clone();
        sparse_cfg.sparse_merge = true;
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let dense = run(dense_cfg);
        let sparse = run(sparse_cfg);
        assert_eq!(dense.final_model, sparse.final_model);
        assert_eq!(
            dense
                .records
                .iter()
                .map(|r| (
                    r.mean_loss.to_bits(),
                    r.accuracy.to_bits(),
                    r.updates.clone()
                ))
                .collect::<Vec<_>>(),
            sparse
                .records
                .iter()
                .map(|r| (
                    r.mean_loss.to_bits(),
                    r.accuracy.to_bits(),
                    r.updates.clone()
                ))
                .collect::<Vec<_>>()
        );
        assert!(dense.sparse_merge.is_none());
        let stats = sparse.sparse_merge.expect("sparse run must report stats");
        assert_eq!(stats.merges, 4);
        assert_eq!(stats.fallbacks, 0);
        assert!(
            stats.sparse_bytes < stats.dense_bytes,
            "sparse {} !< dense {}",
            stats.sparse_bytes,
            stats.dense_bytes
        );
    }

    /// With the density threshold at zero every merge falls back: timing
    /// (and thus `sim_time`) matches the dense run exactly, bits included.
    #[test]
    fn sparse_merge_fallback_reproduces_dense_timing() {
        let ds = dataset();
        let mut dense_cfg = quick_config();
        dense_cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        let mut sparse_cfg = dense_cfg.clone();
        sparse_cfg.sparse_merge = true;
        sparse_cfg.sparse_max_density = 0.0;
        let run = |cfg: RunConfig| {
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), cfg).run(&ds)
        };
        let dense = run(dense_cfg);
        let sparse = run(sparse_cfg);
        assert_eq!(dense.final_model, sparse.final_model);
        assert_eq!(
            dense
                .records
                .iter()
                .map(|r| r.sim_time.to_bits())
                .collect::<Vec<_>>(),
            sparse
                .records
                .iter()
                .map(|r| r.sim_time.to_bits())
                .collect::<Vec<_>>()
        );
        let stats = sparse.sparse_merge.unwrap();
        assert_eq!(stats.fallbacks, stats.merges);
        assert_eq!(stats.sparse_bytes, stats.dense_bytes);
    }

    /// Sparse merge is a no-op request outside the sampled path or under
    /// Crossbow: the run silently stays dense and reports no stats.
    #[test]
    fn sparse_merge_gates_off_dense_softmax_and_crossbow() {
        let ds = dataset();
        let mut cfg = quick_config();
        cfg.sparse_merge = true;
        cfg.mega_batch_limit = Some(1);
        let dense_softmax = Trainer::new(
            algorithms::adaptive_sgd(),
            heterogeneous_server(2),
            cfg.clone(),
        )
        .run(&ds);
        assert!(dense_softmax.sparse_merge.is_none());
        cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        let crossbow =
            Trainer::new(algorithms::crossbow_sma(), heterogeneous_server(2), cfg).run(&ds);
        assert!(crossbow.sparse_merge.is_none());
    }

    #[test]
    fn batch_sample_seed_depends_on_ids_not_order_of_dispatch() {
        let a = batch_sample_seed(&[3, 1, 4], 7);
        assert_eq!(a, batch_sample_seed(&[3, 1, 4], 7));
        assert_ne!(a, batch_sample_seed(&[1, 3, 4], 7));
        assert_ne!(a, batch_sample_seed(&[3, 1, 4], 8));
        assert_ne!(a, batch_sample_seed(&[3, 1], 7));
    }

    #[test]
    fn trace_capture_contains_batches_and_merges() {
        let ds = dataset();
        let mut config = quick_config();
        config.trace = true;
        config.mega_batch_limit = Some(1);
        let result =
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), config).run(&ds);
        assert!(result.trace.contains("batch 0"));
        assert!(result.trace.contains("merge"));
    }

    #[test]
    fn accuracy_improves_over_training() {
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(12);
        config.base_lr = 0.25;
        let result =
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), config).run(&ds);
        let first = result.records.first().unwrap().accuracy;
        let best = result.best_accuracy();
        assert!(
            best > first + 0.05,
            "no learning: first {first}, best {best}"
        );
    }

    #[test]
    fn scaling_schedule_backs_off_but_training_still_works() {
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(10);
        config.scaling_schedule = Some((0.02, 8));
        let result =
            Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(2), config).run(&ds);
        assert_eq!(result.records.len(), 10);
    }

    #[test]
    fn speed_event_rebalances_batch_sizes() {
        // GPU 1 throttles hard at mega-batch 3: afterwards the scaler should
        // push its batch size well below GPU 0's.
        let ds = dataset();
        let mut config = quick_config();
        config.mega_batch_limit = Some(12);
        config.speed_events = vec![(3, 1, 0.3)];
        let result =
            Trainer::new(algorithms::adaptive_sgd(), homogeneous_server(2), config).run(&ds);
        let before = &result.records[2].batch_sizes;
        let after = result.records.last().unwrap();
        let gap_before = (before[0] - before[1]).abs();
        let gap_after = after.batch_sizes[0] - after.batch_sizes[1];
        assert!(
            gap_after > gap_before + 4.0,
            "throttling should widen the batch-size gap: before {before:?}, after {:?}",
            after.batch_sizes
        );
        // And the throttled GPU runs fewer batches despite the rebalancing
        // being underway.
        assert!(after.updates[0] >= after.updates[1]);
    }

    #[test]
    #[should_panic(expected = "time limit or a mega-batch limit")]
    fn missing_limits_panic() {
        let _ = Trainer::new(
            algorithms::adaptive_sgd(),
            homogeneous_server(1),
            RunConfig::paper_defaults(32, 2),
        );
    }
}
