//! The per-site metrics registry (counters and gauges) and the fixed-bucket
//! histogram the lifecycle ledger folds into, all keyed by *logical* time.
//!
//! Nothing in this module ever reads a wall clock. Counters advance when the
//! instrumented code says so, histograms bucket logical durations (scenario
//! steps), and every rendering walks `BTreeMap`s —
//! so two runs of the same deterministic schedule produce byte-identical
//! snapshots, and the sequential and parallel drivers agree wherever the
//! underlying quantity is schedule-independent.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Upper bounds of the fixed histogram buckets (inclusive), in logical time
/// units. Powers of two up to 2^14, plus an unbounded overflow bucket.
pub const HISTOGRAM_BOUNDS: [u64; 16] = [
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1024,
    2048,
    4096,
    8192,
    16384,
    u64::MAX,
];

/// A fixed-bucket histogram of logical durations.
///
/// The bucket layout is static ([`HISTOGRAM_BOUNDS`]) so that merging two
/// histograms — or diffing two runs — is element-wise and deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Histogram {
    /// Observation count per bucket, parallel to [`HISTOGRAM_BOUNDS`].
    pub buckets: [u64; 16],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Histogram {
    /// Records one logical-duration observation.
    pub fn observe(&mut self, value: u64) {
        let slot = HISTOGRAM_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(HISTOGRAM_BOUNDS.len() - 1);
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Element-wise merge of another histogram into this one.
    pub fn absorb(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Canonical one-line rendering: `count/sum/max` then the non-empty
    /// buckets as `le<bound>:<n>` pairs (the overflow bucket prints as
    /// `le+inf`). Byte-stable across runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "count={} sum={} max={}",
            self.count, self.sum, self.max
        );
        for (slot, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let bound = HISTOGRAM_BOUNDS[slot];
            if bound == u64::MAX {
                let _ = write!(out, " le+inf:{n}");
            } else {
                let _ = write!(out, " le{bound}:{n}");
            }
        }
        out
    }
}

/// One scope's worth of named metrics (a site, or the cluster itself).
///
/// Metric names are `&'static str` by design: the set of instruments is
/// fixed at compile time, lookups never allocate, and renderings sort by
/// name so snapshots are canonical.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
}

impl Registry {
    /// Adds `n` to the named counter.
    pub fn add(&mut self, counter: &'static str, n: u64) {
        *self.counters.entry(counter).or_insert(0) += n;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, gauge: &'static str, value: u64) {
        self.gauges.insert(gauge, value);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, when set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// True when no instrument has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Merges another registry into this one: counters add, gauges take the
    /// other's value.
    pub fn absorb(&mut self, other: &Registry) {
        for (&name, &value) in &other.counters {
            self.add(name, value);
        }
        for (&name, &value) in &other.gauges {
            self.set_gauge(name, value);
        }
    }

    /// Appends the canonical text rendering of this registry to `out`, one
    /// line per instrument, each prefixed with `scope`. Sorted by kind then
    /// name; byte-stable across runs.
    pub fn render_into(&self, scope: &str, out: &mut String) {
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{scope} counter {name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{scope} gauge {name} {value}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(16384);
        h.observe(16385);
        assert_eq!(h.count, 6);
        assert_eq!(h.max, 16385);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 1); // 2
        assert_eq!(h.buckets[2], 1); // 3
        assert_eq!(h.buckets[14], 1); // 16384
        assert_eq!(h.buckets[15], 1); // overflow
    }

    #[test]
    fn histogram_absorb_is_elementwise() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.observe(1);
        b.observe(5);
        b.observe(100);
        a.absorb(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 106);
        assert_eq!(a.max, 100);
    }

    #[test]
    fn registry_rendering_is_sorted_and_stable() {
        let mut r = Registry::default();
        r.add("zeta", 2);
        r.add("alpha", 1);
        r.set_gauge("mid", 7);
        let mut one = String::new();
        r.render_into("s0", &mut one);
        let mut two = String::new();
        r.render_into("s0", &mut two);
        assert_eq!(one, two);
        assert!(one.find("alpha").unwrap() < one.find("zeta").unwrap());
        assert!(one.contains("s0 gauge mid 7"));
    }

    #[test]
    fn registry_absorb_adds_counters() {
        let mut a = Registry::default();
        let mut b = Registry::default();
        a.add("x", 1);
        b.add("x", 2);
        b.set_gauge("g", 9);
        a.absorb(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.gauge("g"), Some(9));
    }
}
