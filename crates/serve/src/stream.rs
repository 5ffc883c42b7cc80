//! Seeded open-loop request streams.
//!
//! An *open-loop* load generator emits requests at times drawn from a
//! Poisson process, independent of how fast the server drains them — the
//! standard model for user-facing traffic, and the one that exposes queueing
//! collapse (a closed loop self-throttles and hides it). The whole stream is
//! materialized up front from a single seed, so a serving run is a pure
//! function of `(request seed, fault seed)`: replaying the same seeds at any
//! `ASGD_THREADS` reproduces every arrival, dispatch, and latency bit for
//! bit.

use crate::loadgen::TenantRequest;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Generates `n` requests with exponential inter-arrival times at mean rate
/// `rate_rps` (a Poisson process), each drawing a uniform row of a
/// `pool_rows`-row request pool. Every request belongs to tenant 0 (the
/// single-model case). Arrivals are strictly increasing; the same
/// `(seed, n, rate_rps, pool_rows)` always yields the same stream.
///
/// # Panics
/// Panics when the rate is not positive or the pool is empty.
pub fn open_loop_stream(
    seed: u64,
    n: usize,
    rate_rps: f64,
    pool_rows: usize,
) -> Vec<TenantRequest> {
    assert!(rate_rps > 0.0, "arrival rate must be positive");
    assert!(pool_rows > 0, "request pool must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_57EA_4D15_7A7C);
    let mut t = 0.0f64;
    (0..n)
        .map(|id| {
            let u: f64 = rng.gen();
            // Inverse-CDF exponential; 1-u avoids ln(0).
            t += -(1.0 - u).ln() / rate_rps;
            TenantRequest {
                id: id as u32,
                arrival: t,
                tenant: 0,
                pool_row: rng.gen_range(0..pool_rows),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let a = open_loop_stream(7, 100, 50.0, 32);
        let b = open_loop_stream(7, 100, 50.0, 32);
        assert_eq!(a, b);
        let c = open_loop_stream(8, 100, 50.0, 32);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn arrivals_increase_and_ids_are_dense() {
        let s = open_loop_stream(3, 200, 100.0, 10);
        for (i, r) in s.iter().enumerate() {
            assert_eq!(r.id as usize, i);
            assert!(r.pool_row < 10);
            assert!(r.arrival > 0.0);
        }
        for w in s.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
    }

    #[test]
    fn mean_rate_is_roughly_honored() {
        let s = open_loop_stream(11, 20_000, 250.0, 4);
        let span = s.last().unwrap().arrival;
        let rate = s.len() as f64 / span;
        assert!((rate / 250.0 - 1.0).abs() < 0.05, "observed rate {rate}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = open_loop_stream(0, 1, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn negative_rate_panics() {
        let _ = open_loop_stream(0, 1, -5.0, 1);
    }

    #[test]
    fn zero_requests_yield_an_empty_stream() {
        let s = open_loop_stream(9, 0, 100.0, 4);
        assert!(s.is_empty());
    }

    #[test]
    fn single_request_stream_is_well_formed() {
        let s = open_loop_stream(9, 1, 100.0, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].id, 0);
        assert_eq!(s[0].pool_row, 0, "one-row pool has one valid row");
        assert!(s[0].arrival > 0.0 && s[0].arrival.is_finite());
    }

    #[test]
    fn inter_arrivals_look_exponential() {
        // A Poisson process has exponential gaps: mean ≈ 1/λ, coefficient
        // of variation ≈ 1, and the empirical CDF at the mean ≈ 1 − e⁻¹.
        let rate = 200.0;
        let s = open_loop_stream(17, 50_000, rate, 8);
        let gaps: Vec<f64> = std::iter::once(s[0].arrival)
            .chain(s.windows(2).map(|w| w[1].arrival - w[0].arrival))
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((mean * rate - 1.0).abs() < 0.03, "mean gap {mean}");
        assert!((cv - 1.0).abs() < 0.03, "coefficient of variation {cv}");
        let below_mean = gaps.iter().filter(|&&g| g < mean).count() as f64 / gaps.len() as f64;
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (below_mean - expected).abs() < 0.02,
            "CDF at mean {below_mean} vs {expected}"
        );
    }

    #[test]
    fn pool_rows_are_roughly_uniform() {
        let s = open_loop_stream(23, 40_000, 100.0, 8);
        let mut counts = [0usize; 8];
        for r in &s {
            counts[r.pool_row] += 1;
        }
        for (row, &c) in counts.iter().enumerate() {
            let share = c as f64 / s.len() as f64;
            assert!(
                (share - 0.125).abs() < 0.01,
                "row {row} share {share} far from uniform"
            );
        }
    }
}
