//! Summary statistics the benchmark reports: medians, the tail percentile
//! rule, time-to-target and failure accounting.

/// Percentiles considered for a tail, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q` percentile among `n` samples (`n ≥ 1`).
/// The epsilon keeps `0.99 · 1000` from rounding up to rank 991.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median, tail percentile and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median (the mean of the two middle samples for an even count).
    pub median: f64,
    /// `(q, value)` of the highest percentile in the ladder with at least
    /// [`MIN_BEYOND`] samples ranked above it; `None` when there are too few
    /// samples for any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order). `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            0.5 * (s[n / 2 - 1] + s[n / 2])
        };
        let tail = TAIL_LADDER
            .iter()
            .find(|&&q| beyond(n, q) >= MIN_BEYOND)
            .map(|&q| (q, s[rank(n, q) - 1]));
        Some(Summary { n, median, tail })
    }
}

/// Nearest-rank `q` percentile of `samples` (any order); `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(s.len(), q) - 1])
}

/// Samples ranked strictly above the nearest-rank `q` percentile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// `0.99 → "p99"`, `0.999 → "p99.9"`.
pub fn percentile_label(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("p{}", p.round() as u64)
    } else {
        format!("p{p:.1}")
    }
}

/// Simulated time at which a run's accuracy curve first reaches `target`,
/// interpolated linearly between the two evaluations that bracket the
/// crossing (the first evaluation counts from time zero at accuracy zero).
/// `None` when the curve never reaches the target: that is a failed
/// operation, never a value.
pub fn time_to_target(curve: &[(f64, f64)], target: f64) -> Option<f64> {
    let mut prev = (0.0f64, 0.0f64);
    for &(t, acc) in curve {
        if acc >= target {
            if acc <= prev.1 || t <= prev.0 {
                return Some(t);
            }
            let frac = ((target - prev.1) / (acc - prev.1)).clamp(0.0, 1.0);
            return Some(prev.0 + frac * (t - prev.0));
        }
        prev = (t, acc);
    }
    None
}

/// Operations attempted and failed over one benchmark run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (samples dispatched, requests offered, checks).
    pub attempted: u64,
    /// Of those, how many failed (lost or double-counted samples, lost or
    /// refused requests, failed correctness checks).
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations of which `failed` failed (`failed` is clamped
    /// to `n`: an operation fails at most once).
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Too few samples for any tail: the median needs 20.
        let s = Summary::of(&(1..=19).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.n, 19);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.tail, None);
        // 20 samples: p50 has exactly ten above it.
        let s = Summary::of(&(1..=20).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.tail, Some((0.5, 10.0)));
        // 100 samples: p90 (rank 90) leaves ten; p95 would leave five.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.tail, Some((0.9, 90.0)));
        assert_eq!(percentile_label(0.9), "p90");
        assert_eq!(s.median, 50.5);
        // 1000 samples reach p99; 10 000 reach p99.9.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).unwrap().tail, Some((0.99, 990.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.tail, Some((0.999, 9990.0)));
        assert_eq!(percentile_label(0.999), "p99.9");
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(percentile(&xs, 0.99), Some(9900.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn time_to_target_interpolates_the_crossing() {
        let curve = [(1.0, 0.1), (2.0, 0.3), (3.0, 0.5)];
        assert_eq!(time_to_target(&curve, 0.05), Some(0.5));
        assert_eq!(time_to_target(&curve, 0.2), Some(1.5));
        assert_eq!(time_to_target(&curve, 0.5), Some(3.0));
        // A dip before the crossing does not confuse the interpolation.
        let dip = [(1.0, 0.3), (2.0, 0.2), (3.0, 0.4)];
        assert_eq!(time_to_target(&dip, 0.3), Some(1.0));
        let t = time_to_target(&dip, 0.35).unwrap();
        assert!((t - 2.75).abs() < 1e-12, "{t}");
    }

    #[test]
    fn time_to_target_never_reached_is_none() {
        let curve = [(1.0, 0.1), (2.0, 0.2)];
        assert_eq!(time_to_target(&curve, 0.25), None);
        assert_eq!(time_to_target(&[], 0.1), None);
    }

    #[test]
    fn failed_share_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        t.add(1000, 0);
        t.check(true);
        assert_eq!(t.failed_share(), 0.0);
        t.check(false);
        t.add(98, 3);
        assert_eq!(
            t,
            Tally {
                attempted: 1100,
                failed: 4
            }
        );
        assert!((t.failed_share() - 4.0 / 1100.0).abs() < 1e-15);
        // A failure count above the attempts is clamped.
        let mut u = Tally::default();
        u.add(2, 5);
        assert_eq!(u.failed_share(), 1.0);
    }
}
