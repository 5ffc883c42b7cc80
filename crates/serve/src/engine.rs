//! The single-model serving front end: dynamic dispatch + adaptive
//! micro-batching of one model over simulated heterogeneous devices.
//!
//! [`serve`] is the fleet scheduler ([`crate::fleet`]) in its simplest
//! configuration: one registry version, one tenant, one server, every slot
//! commissioned for the whole run, no prediction cache, no hedging. One
//! model replica runs per simulated GPU, the next micro-batch goes to
//! whichever replica's virtual clock frees first (the paper's
//! one-batch-at-a-time dynamic dispatch, repurposed for inference), and the
//! whole schedule — every dispatch, latency, and fault reaction — is a pure
//! function of `(request seed, fault seed)` regardless of `ASGD_THREADS`.

use crate::fleet::{self, FleetConfig, FleetOutcome};
use crate::loadgen::TenantRequest;
use crate::registry::ModelRegistry;
use asgd_core::ScalingParams;
use asgd_gpusim::device::build_server;
use asgd_gpusim::{ClusterTopology, DeviceProfile, FaultPlan};
use asgd_model::Mlp;
use asgd_sparse::CsrMatrix;
use asgd_stats::{Histogram, P2Quantile};
use asgd_tensor::Precision;

/// Histogram bins of the latency distribution (per replica and fleet).
const HIST_BINS: usize = 64;

/// Serving-run parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Top-k classes returned per request (capped at `num_classes`).
    pub k: usize,
    /// Per-request latency SLO, seconds (arrival → completion).
    pub slo_s: f64,
    /// Micro-batch bounds and step, in request-count units (the paper's
    /// `b_min = b_max/8`, `β = b_min/2` defaults apply unchanged).
    pub scaling: ScalingParams,
    /// `true` = adaptive micro-batching (the SLO controller); `false` =
    /// fixed micro-batches of `b_max` (the baseline).
    pub adaptive: bool,
    /// Controller window length, in fleet-wide dispatches.
    pub window_dispatches: usize,
    /// Seed of the devices' jitter streams.
    pub device_seed: u64,
    /// Storage precision the replica weights were streamed at.
    /// [`Precision::F32`] serves the checkpoint exactly;
    /// [`Precision::Bf16`] models a bf16-streamed checkpoint — weights are
    /// narrowed once (round-to-nearest-even) and widened exactly, so every
    /// replica serves the identically-rounded model and all inference math
    /// stays f32.
    pub precision: Precision,
}

impl ServeConfig {
    /// Paper-default config: adaptive, `b_max`-derived scaling bounds.
    pub fn paper_defaults(b_max: usize, slo_s: f64) -> Self {
        Self {
            k: 5,
            slo_s,
            scaling: ScalingParams::paper_defaults(b_max),
            adaptive: true,
            window_dispatches: 16,
            device_seed: 0x5E12_EE00,
            precision: Precision::F32,
        }
    }

    /// The same config serving bf16-streamed weights.
    pub fn bf16(mut self) -> Self {
        self.precision = Precision::Bf16;
        self
    }

    /// The same config with adaptive batching disabled (fixed `b_max`).
    pub fn fixed_batch(mut self) -> Self {
        self.adaptive = false;
        self
    }
}

/// Streaming latency statistics of one replica (or, merged, of the fleet).
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Median estimator.
    pub p50: P2Quantile,
    /// 95th-percentile estimator.
    pub p95: P2Quantile,
    /// 99th-percentile estimator.
    pub p99: P2Quantile,
    /// Latency histogram over `[0, hi)`.
    pub hist: Histogram,
    pub(crate) hi: f64,
}

impl LatencyStats {
    /// Empty statistics with a histogram over `[0, hi)` seconds.
    pub fn new(hi: f64) -> Self {
        Self {
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            hist: Histogram::new(0.0, hi, HIST_BINS),
            hi,
        }
    }

    /// Records one latency observation (seconds).
    pub fn record(&mut self, latency_s: f64) {
        self.p50.record(latency_s);
        self.p95.record(latency_s);
        self.p99.record(latency_s);
        self.hist.record(latency_s);
    }

    /// Observations recorded.
    pub fn count(&self) -> usize {
        self.p99.count()
    }

    /// Folds another replica's statistics into this one. P² merging is
    /// order-dependent — callers MUST fold replicas in ascending replica
    /// index (as [`FleetOutcome::fleet_latency`] does), never in completion
    /// order, or the fleet quantiles stop being thread-count independent.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.p50.merge(&other.p50);
        self.p95.merge(&other.p95);
        self.p99.merge(&other.p99);
        self.hist.merge(&other.hist);
    }
}

/// Runs a serving session: drains `requests` (rows of `pool`) through one
/// replica of `model` per device in `profiles`, under `plan`'s faults
/// (reinterpreted at `(window, dispatch ordinal)` points), with adaptive
/// micro-batching per `config`.
///
/// The model is registered once at `config.precision` and served to the
/// single tenant of the requests; the devices come from [`build_server`]
/// under `config.device_seed`. The returned outcome — every latency,
/// trajectory entry, and prediction — is a pure function of the inputs,
/// bit-identical at any `ASGD_THREADS`.
///
/// # Panics
/// Panics on an empty server, an architecture/pool width mismatch, a
/// request referencing a row outside the pool or a tenant other than 0, or
/// a fault aimed at a device the server lacks.
pub fn serve(
    model: &Mlp,
    profiles: &[DeviceProfile],
    pool: &CsrMatrix,
    requests: &[TenantRequest],
    plan: &FaultPlan,
    config: &ServeConfig,
) -> FleetOutcome {
    assert!(!profiles.is_empty(), "need at least one device");
    let mut registry = ModelRegistry::new(*model.config());
    let version = registry.register("model", model, config.precision);
    let fleet_config = FleetConfig {
        k: config.k,
        slo_s: config.slo_s,
        scaling: config.scaling,
        adaptive: config.adaptive,
        window_dispatches: config.window_dispatches,
        device_seed: config.device_seed,
        // The rest at the fleet defaults: no cache, no hedging.
        ..FleetConfig::paper_defaults(1, config.slo_s)
    }
    .static_replicas(profiles.len());
    fleet::run(
        &registry,
        &[version],
        build_server(profiles, config.device_seed),
        &ClusterTopology::ethernet(1, profiles.len()),
        pool,
        requests,
        plan,
        &fleet_config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded per-replica latency samples (distinct distributions so merge
    /// order would actually matter if it were allowed to vary).
    fn replica_samples() -> Vec<Vec<f64>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1A7E);
        (0..4)
            .map(|r| {
                (0..500)
                    .map(|_| (1.0 + r as f64) * 0.010 * rng.gen::<f64>())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn merge_in_ascending_replica_order_is_reproducible() {
        // P² merging is order-dependent; the fleet contract is that callers
        // always fold ascending by replica index. Folding the same replicas
        // ascending must be bit-reproducible run to run…
        let samples = replica_samples();
        let fold_ascending = || {
            let mut fleet = LatencyStats::new(1.0);
            for s in &samples {
                let mut stats = LatencyStats::new(1.0);
                for &l in s {
                    stats.record(l);
                }
                fleet.merge(&stats);
            }
            fleet
        };
        let (a, b) = (fold_ascending(), fold_ascending());
        assert_eq!(
            a.p99.value().unwrap().to_bits(),
            b.p99.value().unwrap().to_bits()
        );
        assert_eq!(
            a.p50.value().unwrap().to_bits(),
            b.p50.value().unwrap().to_bits()
        );
        assert_eq!(a.count(), samples.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn merge_order_matters_which_is_why_the_contract_exists() {
        // …and folding in a different order genuinely changes the estimate —
        // the reason completion-order merging would break thread-count
        // invariance. (The histogram, by contrast, is exactly order-free.)
        let samples = replica_samples();
        let fold = |order: &[usize]| {
            let mut fleet = LatencyStats::new(1.0);
            for &i in order {
                let mut stats = LatencyStats::new(1.0);
                for &l in &samples[i] {
                    stats.record(l);
                }
                fleet.merge(&stats);
            }
            fleet
        };
        let asc = fold(&[0, 1, 2, 3]);
        let desc = fold(&[3, 2, 1, 0]);
        assert_ne!(
            asc.p99.value().unwrap().to_bits(),
            desc.p99.value().unwrap().to_bits(),
            "P² merge should be order-dependent for distinct distributions"
        );
        assert_eq!(asc.hist.bins(), desc.hist.bins(), "histogram is order-free");
    }
}
