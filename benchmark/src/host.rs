//! Host probes: a fixed calibration kernel and the thread's on-CPU share.
//!
//! On the shared 2-CPU box this benchmark was defined on, the same binary's
//! rep time swings by up to 1.6x for minutes at a time. An arithmetic loop
//! does not see it (its time moves by 5% and does not correlate with the
//! reps'), the thread stays on its CPU throughout, but a dependent-load loop
//! over a few MB slows down with the reps (correlation 0.75): the neighbours
//! contend for the shared cache and memory, not for the core. So the kernel
//! here is two pointer chases, over 1 MiB and over 4 MiB, and the wall-clock
//! end-to-end metrics are divided by its slowdown against a fixed nominal
//! time, measured before and after every rep. That halves the run-to-run
//! spread. The kernel is benchmark-owned code and data: nothing the program
//! under test does can make it faster.

use std::hint::black_box;
use std::time::Instant;

/// A kernel-time spread above this marks the set of reps `DISTURBED`.
pub const MAX_CALIB_SPREAD: f64 = 0.25;
/// A rep whose thread was on a CPU for less than this share of its
/// wall-clock marks the set `DISTURBED`.
pub const MIN_ONCPU_SHARE: f64 = 0.95;

/// One chase: entries in the cycle, steps per sample, and the time per step
/// on the quiet reference box (the lower quartile seen there).
struct Chase {
    next: Vec<u32>,
    at: u32,
    steps: u32,
    nominal_ns_per_step: f64,
}

impl Chase {
    /// A single cycle through `len` entries (Sattolo's algorithm on a fixed
    /// xorshift stream), so every step is a load that depends on the last.
    fn new(len: usize, steps: u32, nominal_ns_per_step: f64) -> Self {
        let mut next: Vec<u32> = (0..len as u32).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15 ^ len as u64;
        for i in (1..len).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Chase {
            next,
            at: 0,
            steps,
            nominal_ns_per_step,
        }
    }

    /// Seconds one sample took, and that time over the nominal time.
    fn sample(&mut self) -> (f64, f64) {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..self.steps {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        let seconds = start.elapsed().as_secs_f64();
        let nominal = f64::from(self.steps) * self.nominal_ns_per_step / 1e9;
        (seconds, seconds / nominal)
    }
}

/// One reading of the calibration kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Wall-clock of the kernel (about 30 ms on the reference box).
    pub seconds: f64,
    /// How much slower than nominal the host ran it: the mean of the two
    /// chases' slowdowns, 1.0 on a quiet reference box.
    pub slowdown: f64,
}

/// The calibration kernel: fixed work, fixed data, built once per process.
pub struct Calibrator {
    small: Chase,
    large: Chase,
}

impl Calibrator {
    /// Builds the two cycles (1 MiB and 4 MiB of `u32`).
    pub fn new() -> Self {
        Calibrator {
            small: Chase::new(1 << 18, 1_000_000, 8.5),
            large: Chase::new(1 << 20, 500_000, 38.0),
        }
    }

    /// Runs the kernel once.
    pub fn sample(&mut self) -> Calibration {
        let (small_s, small_x) = self.small.sample();
        let (large_s, large_x) = self.large.sample();
        Calibration {
            seconds: small_s + large_s,
            slowdown: (small_x + large_x) / 2.0,
        }
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

/// Nanoseconds the calling thread has spent on a CPU, from
/// `/proc/thread-self/schedstat`; `None` where the file is missing.
pub fn oncpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// On-CPU share of an interval: on-CPU ns between two [`oncpu_ns`] readings
/// over the interval's wall-clock.
pub fn oncpu_share(before: Option<u64>, after: Option<u64>, wall_s: f64) -> Option<f64> {
    let on = after?.checked_sub(before?)? as f64 / 1e9;
    (wall_s > 0.0).then(|| on / wall_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oncpu_share_is_a_ratio_or_absent() {
        assert_eq!(oncpu_share(Some(0), Some(500_000_000), 1.0), Some(0.5));
        assert_eq!(oncpu_share(None, Some(5), 1.0), None);
        assert_eq!(oncpu_share(Some(9), Some(5), 1.0), None, "a reset counter");
        assert_eq!(oncpu_share(Some(0), Some(5), 0.0), None);
    }

    #[test]
    fn a_chase_is_one_cycle_through_every_entry() {
        let chase = Chase::new(1 << 10, 10, 1.0);
        let mut seen = vec![false; 1 << 10];
        let mut at = 0u32;
        for _ in 0..1 << 10 {
            assert!(!seen[at as usize], "the cycle closed early");
            seen[at as usize] = true;
            at = chase.next[at as usize];
        }
        assert_eq!(at, 0, "the cycle returns to its start");
    }

    #[test]
    fn the_kernel_reports_time_and_a_positive_slowdown() {
        let mut calibrator = Calibrator {
            small: Chase::new(1 << 8, 1_000, 8.5),
            large: Chase::new(1 << 10, 1_000, 38.0),
        };
        let c = calibrator.sample();
        assert!(c.seconds > 0.0 && c.slowdown > 0.0);
    }
}
