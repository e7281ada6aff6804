//! Wall-clock sampling shared by the `*_bench` binaries.

use std::time::Instant;

/// Times `f` for `iters` iterations after `warmup` untimed runs; one
/// sample per timed run, in µs.
pub fn time_iters<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> Vec<u64> {
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_micros() as u64);
    }
    samples
}

/// Median, nearest-rank p99 and mean of a set of µs samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub iters: usize,
    /// The upper median (`sorted[n / 2]`).
    pub median_us: u64,
    /// The nearest-rank 99th percentile.
    pub p99_us: u64,
    /// The mean, rounded down.
    pub mean_us: u64,
}

impl Summary {
    /// Summarizes `samples`, sorting them in place.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        let iters = samples.len();
        let p99_idx = ((iters as f64 * 0.99).ceil() as usize).clamp(1, iters) - 1;
        Summary {
            iters,
            median_us: samples[iters / 2],
            p99_us: samples[p99_idx],
            mean_us: samples.iter().sum::<u64>() / iters as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reads_sorted_ranks() {
        let mut samples = vec![5, 1, 4, 2, 3];
        assert_eq!(
            Summary::of(&mut samples),
            Summary {
                iters: 5,
                median_us: 3,
                p99_us: 5,
                mean_us: 3
            }
        );
        let mut hundred: Vec<u64> = (1..=200).rev().collect();
        let s = Summary::of(&mut hundred);
        assert_eq!((s.median_us, s.p99_us, s.mean_us), (101, 198, 100));
    }

    #[test]
    fn time_iters_runs_warmup_untimed() {
        let mut runs = 0;
        let samples = time_iters(2, 3, || runs += 1);
        assert_eq!((runs, samples.len()), (5, 3));
    }
}
