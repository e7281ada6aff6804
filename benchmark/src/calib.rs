//! Machine-speed calibration. The benchmark runs on a few virtual CPUs
//! of a shared host, and each of them flips — independently of the
//! other, within tens of milliseconds, for spells of up to a minute —
//! between a fast state and one 1.3–1.6 times slower (a busy neighbour on
//! the same physical core): the same instructions take longer, wall
//! clock and CPU time alike. Medians of ten untreated runs spread by
//! 15–40%. A run cannot outlast that, so it measures it:
//!
//! * the whole process is pinned to one CPU ([`crate::sys`]), so the
//!   server, the generator and the yardstick see the same state;
//! * wherever the generator waits for the server it times [`kernel`] —
//!   fixed, benchmark-owned work that no commit to `crates/` can change —
//!   once every [`GAP`], on its own thread's CPU clock, so the readings
//!   are spread through the very interval they will be applied to and
//!   being preempted by the server does not count;
//! * the window is cut into segments, and each segment's compute-bound
//!   times are divided by how much slower than [`REFERENCE_NS`] the
//!   kernel ran during it.
//!
//! Times reported this way are "at reference speed": what the clock
//! would have read had the machine stayed in its fast state. Burst by
//! burst the kernel's slowdown correlates 0.9–0.96 with the latency it is
//! compared to, and dividing by it brings the spreads to 1–4%.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::sys::thread_cpu_ns;

/// What one [`kernel`] call takes in the fast state of the 2-vCPU VM the
/// benchmark was written on (Xeon @ 2.1 GHz). Only ratios to it are
/// used, and it is the same constant on both sides of any comparison.
pub const REFERENCE_NS: f64 = 1_700_000.0;

/// Fixed work shaped like the program's: dense `f64` row operations (the
/// simplex), building and copying a map of tagged id lists (constraint
/// and index upkeep), and formatting and parsing numbers (the wire).
/// Returns a checksum so nothing is optimised away.
pub fn kernel() -> u64 {
    const N: usize = 110;
    let mut sum = 0u64;

    let mut a: Vec<f64> = (0..N * N)
        .map(|i| {
            let diagonal = if i % (N + 1) == 0 { N as f64 } else { 0.0 };
            ((i * 7919 + 13) % 1009) as f64 / 1009.0 + diagonal
        })
        .collect();
    for p in 0..N {
        let pivot = a[p * N + p];
        for r in 0..N {
            if r == p {
                continue;
            }
            let factor = a[r * N + p] / pivot;
            for c in 0..N {
                a[r * N + c] -= factor * a[p * N + c];
            }
        }
    }
    sum = sum.wrapping_add(a.iter().sum::<f64>().to_bits());

    let mut by_tag: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..6_000u64 {
        by_tag
            .entry(format!("tag{}", (i * 7919) % 1500))
            .or_default()
            .push(i);
    }
    for (tag, ids) in &by_tag.clone() {
        sum = sum.wrapping_add(tag.len() as u64 + ids.iter().sum::<u64>());
    }

    let mut text = String::new();
    for i in 0..2_500u64 {
        text.clear();
        let _ = write!(
            text,
            "{{\"id\": {}, \"app\": {}}}",
            i * 31,
            (i * 977) % 100_000
        );
        let digits: u64 = text
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse::<u64>().ok())
            .sum();
        sum = sum.wrapping_add(digits);
    }

    black_box(sum)
}

/// A running account of the machine's speed: kernel timings since the
/// last [`take`](Speedometer::take).
pub struct Speedometer {
    sum_ns: f64,
    reps: u32,
    last: Instant,
}

/// One kernel call per this much waiting: a seventh of the core, which
/// the server shares on both sides of any comparison.
const GAP: std::time::Duration = std::time::Duration::from_millis(10);

impl Speedometer {
    pub fn new() -> Speedometer {
        Speedometer {
            sum_ns: 0.0,
            reps: 0,
            last: Instant::now(),
        }
    }

    /// Times `reps` kernel calls now.
    pub fn read(&mut self, reps: u32) {
        for _ in 0..reps {
            let t = thread_cpu_ns();
            black_box(kernel());
            self.sum_ns += (thread_cpu_ns() - t) as f64;
            self.reps += 1;
        }
        self.last = Instant::now();
    }

    /// Called from every wait loop: one kernel call if the last is
    /// [`GAP`] old, so the readings are spread evenly through the wait
    /// and share the core with the work they are compared to.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= GAP {
            self.read(1);
        }
    }

    /// How much slower than the reference the machine ran since the last
    /// call (1.0 = reference speed, 1.3 = the same work took 30% longer):
    /// the mean kernel timing over [`REFERENCE_NS`]. The mean, because the
    /// machine flips between a fast and a slow state within tens of
    /// milliseconds and the work beside it sees the same mixture. 1.0
    /// when nothing was timed.
    pub fn take(&mut self) -> f64 {
        let factor = match self.reps {
            0 => 1.0,
            reps => self.sum_ns / f64::from(reps) / REFERENCE_NS,
        };
        (self.sum_ns, self.reps) = (0.0, 0);
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
    }
}
