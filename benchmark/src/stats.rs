//! Sample arithmetic: percentiles that refuse to over-read a small
//! sample, shares that count refusals, and the quartile spread the
//! steadiness check and `--compare` use.

use std::time::Instant;

/// Samples that must lie beyond a reported percentile (choosing-metrics
/// §1: "the highest percentile that has at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`MIN_BEYOND`] of them lie strictly beyond the reported rank.
pub fn supports(n: usize, p: f64) -> bool {
    let rank = ((p * n as f64).ceil().max(1.0) as usize).min(n);
    n - rank >= MIN_BEYOND
}

/// Sorts in place and returns the median (0 when empty, which only a
/// failed run produces — its `correct` flag is already false).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5).unwrap_or(0.0)
}

/// Latency of an open-loop request: observed completion minus the time
/// the request was *due* — not the time it was actually sent — so the
/// wait a stall imposes on later requests is counted (no coordinated
/// omission).
pub fn due_latency_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Share of `attempted` operations that were on time: `latencies_ms`
/// holds the completed ones, everything else (refused, dropped, timed
/// out) counts as late. 1.0 when nothing was attempted.
pub fn on_time_share(latencies_ms: &[f64], attempted: usize, limit_ms: f64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    let on_time = latencies_ms.iter().filter(|&&l| l <= limit_ms).count();
    on_time.min(attempted) as f64 / attempted as f64
}

/// Interquartile range over the median — the run-to-run spread the
/// driver checks (Python's `statistics.quantiles(values, n=4)`,
/// exclusive method). `None` below two values or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: f64| {
        let pos = k * (v.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let mid = q(2.0);
    (mid != 0.0).then(|| (q(3.0) - q(1.0)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 100 leaves exactly 10 beyond; of 99 only 9.
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        // The median of a 17-burst window is supported, its p90 is not.
        assert!(supports(21, 0.5));
        assert!(!supports(17, 0.9));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn latency_counts_from_due_time() {
        // Due at t, actually sent 30 ms late, placed at t + 50 ms: the
        // tenant waited 50 ms, not 20.
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(20);
        assert!((due_latency_ms(due, done) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn refused_requests_are_late() {
        // 8 attempted, 6 completed (two refused): one completed late.
        let done = [10.0, 12.0, 49.0, 50.0, 51.0, 20.0];
        assert!((on_time_share(&done, 8, 50.0) - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(on_time_share(&[], 4, 50.0), 0.0);
        assert_eq!(on_time_share(&[], 0, 50.0), 1.0);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
