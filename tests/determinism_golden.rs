//! Golden determinism gate (tier-1): a fixed-seed run must reproduce
//! checked-in checksums of its dispatch trace and final model, byte for
//! byte, on every machine and at every `ASGD_THREADS` setting.
//!
//! The trainer's contract is that scheduling consumes only virtual device
//! clocks and seeded RNG, and that all floating-point reductions fix their
//! association order — so these values are constants of the codebase, not
//! of the host. If a change legitimately alters the numerics (new kernel
//! order, different merge arithmetic), re-derive the constants by running
//! this test and copying the printed values; an *unintentional* mismatch is
//! a determinism regression.

use adaptive_sgd::collective::InterNode;
use adaptive_sgd::core::{
    algorithms,
    trainer::{RunConfig, SampledSoftmax, Trainer, TrainerSpec},
    ClusterConfig,
};
use adaptive_sgd::data::{generate, DatasetSpec};
use adaptive_sgd::gpusim::profile::heterogeneous_server;
use adaptive_sgd::stats::fnv1a;
use adaptive_sgd::tensor::Precision;

fn golden_run() -> adaptive_sgd::core::metrics::RunResult {
    let ds = generate(&DatasetSpec::tiny("golden"), 5);
    let mut cfg = RunConfig::paper_defaults(64, 8);
    cfg.hidden = 16;
    cfg.base_lr = 0.2;
    cfg.seed = 42;
    cfg.mega_batch_limit = Some(3);
    cfg.overhead_scale = 0.001;
    cfg.trace = true;
    Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(3), cfg).run(&ds)
}

const GOLDEN_TRACE_FNV: u64 = 0x63a8_f15d_ffcb_a276;
const GOLDEN_MODEL_FNV: u64 = 0x47e2_857a_2f16_1107;

#[test]
fn fixed_seed_run_matches_checked_in_checksums() {
    let result = golden_run();
    let trace_fnv = fnv1a(result.trace.bytes());
    let model_fnv = fnv1a(result.final_model.iter().flat_map(|w| w.to_le_bytes()));
    assert!(!result.trace.is_empty(), "trace capture was disabled");
    assert!(
        trace_fnv == GOLDEN_TRACE_FNV && model_fnv == GOLDEN_MODEL_FNV,
        "golden checksums diverged:\n  trace: got {trace_fnv:#018x}, want {GOLDEN_TRACE_FNV:#018x}\n  model: got {model_fnv:#018x}, want {GOLDEN_MODEL_FNV:#018x}\n\
         If this change is *supposed* to alter the numerics or the trace \
         format, update the constants in tests/determinism_golden.rs."
    );
}

/// The same fixed-seed run over a simulated 2-server × 3-device cluster:
/// the two-level hierarchical merge (intra-node pool, inter-node ring over
/// the slow ethernet link) must be just as much a constant of the codebase
/// as the single-server path — scheduling consumes only virtual clocks, and
/// the hierarchical schedule never changes the reduction's arithmetic
/// association (see `asgd-collective::hierarchical`, "The reduction
/// contract").
fn cluster_golden_run() -> adaptive_sgd::core::metrics::RunResult {
    let ds = generate(&DatasetSpec::tiny("golden"), 5);
    let mut cfg = RunConfig::paper_defaults(64, 8);
    cfg.hidden = 16;
    cfg.base_lr = 0.2;
    cfg.seed = 42;
    cfg.mega_batch_limit = Some(3);
    cfg.overhead_scale = 0.001;
    cfg.trace = true;
    cfg.cluster = Some(ClusterConfig {
        servers: 2,
        devices_per_server: 3,
        inter: InterNode::Ring,
    });
    Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(6), cfg).run(&ds)
}

const CLUSTER_TRACE_FNV: u64 = 0x4e72_e7e3_1dd0_b96b;
const CLUSTER_MODEL_FNV: u64 = 0x0523_0ee1_1826_c900;

#[test]
fn cluster_fixed_seed_run_matches_checked_in_checksums() {
    let result = cluster_golden_run();
    let trace_fnv = fnv1a(result.trace.bytes());
    let model_fnv = fnv1a(result.final_model.iter().flat_map(|w| w.to_le_bytes()));
    assert!(!result.trace.is_empty(), "trace capture was disabled");
    assert!(
        trace_fnv == CLUSTER_TRACE_FNV && model_fnv == CLUSTER_MODEL_FNV,
        "cluster golden checksums diverged:\n  trace: got {trace_fnv:#018x}, want {CLUSTER_TRACE_FNV:#018x}\n  model: got {model_fnv:#018x}, want {CLUSTER_MODEL_FNV:#018x}\n\
         If this change is *supposed* to alter the numerics or the trace \
         format, update the constants in tests/determinism_golden.rs."
    );
}

#[test]
fn cluster_golden_run_is_thread_invariant() {
    // The in-process twin of ci.sh's 64×4 `cluster_probe` gate: the worker
    // pool size must never leak into a clustered run, however the intra-node
    // and inter-node phases interleave on the host.
    adaptive_sgd::tensor::parallel::override_threads(1);
    let a = cluster_golden_run();
    adaptive_sgd::tensor::parallel::override_threads(8);
    let b = cluster_golden_run();
    adaptive_sgd::tensor::parallel::override_threads(0);
    assert_eq!(a.trace, b.trace, "cluster trace depends on thread count");
    assert_eq!(
        a.final_model, b.final_model,
        "cluster model bits depend on thread count"
    );
}

#[test]
fn golden_run_is_stable_within_a_process() {
    // The cheaper sibling check: two in-process runs agree exactly. A
    // failure here (with the checksum test passing) means nondeterminism
    // crept in *between* runs — a stateful cache or pool leak.
    let a = golden_run();
    let b = golden_run();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.final_model, b.final_model);
}

/// One cell of the sampled-softmax matrix: LSH-sampled training under a
/// merge rule (Algorithm 2's `SetModel` redistribution, or CROSSBOW's
/// per-round `Blend`) at a storage precision. 300 classes over 20 hidden
/// units put several hash tiles (with a partial last one) and a lane tail
/// on every index build. Small batches over 2 × 6-bit tables keep the
/// bucket pool well short of the class count, so the negatives depend on
/// which bytes each sync hashed (a stale or wrongly rounded index changes
/// the checksums).
fn sampled_cell_run(
    spec: TrainerSpec,
    precision: Precision,
) -> adaptive_sgd::core::metrics::RunResult {
    let mut ds_spec = DatasetSpec::tiny("golden-sampled");
    ds_spec.num_labels = 300;
    let ds = generate(&ds_spec, 5);
    let mut cfg = RunConfig::paper_defaults(8, 12);
    cfg.hidden = 20;
    cfg.base_lr = 0.2;
    cfg.seed = 42;
    cfg.mega_batch_limit = Some(3);
    cfg.overhead_scale = 0.001;
    cfg.precision = precision;
    cfg.sampled_softmax = Some(SampledSoftmax {
        tables: 2,
        k_bits: 6,
        neg_samples: 16,
        seed: 0x51DE_CA5E,
    });
    Trainer::new(spec, heterogeneous_server(3), cfg).run(&ds)
}

/// `(name, trainer, storage precision, final-model FNV)`.
type SampledCell = (&'static str, fn() -> TrainerSpec, Precision, u64);

/// Sampled softmax × {Algorithm 2, CROSSBOW} × {f32, bf16}. Where and how
/// often the LSH index is hashed is a wall-clock choice, never an
/// arithmetic one, so these checksums must not move when it changes.
const SAMPLED_CELLS: [SampledCell; 4] = [
    (
        "adaptive/f32",
        algorithms::adaptive_sgd,
        Precision::F32,
        0x82bb_240b_844d_d0cf,
    ),
    (
        "adaptive/bf16",
        algorithms::adaptive_sgd,
        Precision::Bf16,
        0xa6d7_b27e_eb62_8676,
    ),
    (
        "crossbow/f32",
        algorithms::crossbow_sma,
        Precision::F32,
        0x4370_d193_3c16_3e53,
    ),
    (
        "crossbow/bf16",
        algorithms::crossbow_sma,
        Precision::Bf16,
        0xd014_f7db_56fe_5eca,
    ),
];

#[test]
fn sampled_matrix_matches_checked_in_checksums() {
    let mut diverged = Vec::new();
    for (name, spec, precision, want) in SAMPLED_CELLS {
        let result = sampled_cell_run(spec(), precision);
        let got = fnv1a(result.final_model.iter().flat_map(|w| w.to_le_bytes()));
        if got != want {
            diverged.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(
        diverged.is_empty(),
        "sampled golden checksums diverged:\n  {}",
        diverged.join("\n  ")
    );
}

#[test]
fn sampled_matrix_is_thread_invariant() {
    for (name, spec, precision, _) in SAMPLED_CELLS {
        adaptive_sgd::tensor::parallel::override_threads(1);
        let a = sampled_cell_run(spec(), precision);
        adaptive_sgd::tensor::parallel::override_threads(8);
        let b = sampled_cell_run(spec(), precision);
        adaptive_sgd::tensor::parallel::override_threads(0);
        assert_eq!(
            a.final_model, b.final_model,
            "{name}: model bits depend on thread count"
        );
    }
}
