//! The four workloads: what each generates from the seed and why it exists.
//!
//! Sizes are a workload's identity. To fit a time cap, lower the number of
//! reps, never the sizes; `scale_div` exists only for the reduced-scale
//! oracle pass and for tests (`--quick`).

use ggd_mutator::generator::{build_perf_scenario, PerfSpec};
use ggd_mutator::{MutatorOp, ObjName, Scenario, Step};
use ggd_sim::{ClusterConfig, DurabilityConfig};
use ggd_types::SiteId;

/// WAL records between checkpoints wherever the benchmark turns durability
/// on (timed reps of `wide_durable`, the reference pass of every workload).
pub const CHECKPOINT_EVERY: u32 = 512;

/// Rings built and cut by `ring_reclaim`, and the sites each spans.
const RINGS: u32 = 400;
const RING_SPAN: u32 = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Stable name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One sentence on why the workload exists.
    pub why: &'static str,
    /// Whether the timed reps run with the in-memory durable medium.
    pub durable: bool,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `PerfSpec::mix(sites, objects, churn_ops)`.
    Mix(u32, u32, u32),
    /// Clean ballast, then disconnected inter-site rings one at a time.
    Rings,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bulk_build",
        why: "Grow-only 100k-object heap on 64 sites (the historical churn_100k): sim dispatch, heap alloc/add_ref/take_delta and O(live heap) collection own the time; core, net and codec are nearly idle.",
        durable: false,
        kind: Kind::Mix(64, 100_000, 20_000),
    },
    Workload {
        name: "remote_churn",
        why: "Small 8k-object heap under 150k churn ops with free-list reuse and many remote reference events: core, net queues and wire volume do most of their work here; exposes the re-export residual.",
        durable: false,
        kind: Kind::Mix(64, 8_000, 150_000),
    },
    Workload {
        name: "ring_reclaim",
        why: "400 disconnected 8-site cycles cut one by one over 20k objects of clean ballast: the paper's headline; the settle loop, heap collection of untouched sites and core message chains own the time.",
        durable: false,
        kind: Kind::Rings,
    },
    Workload {
        name: "wide_durable",
        why: "256 sites, 50k objects, 60k churn ops with WAL append and checkpoints on: wide vectors, per-site maps and collect_all over 256 sites beside the store write path; recovery reads it back.",
        durable: true,
        kind: Kind::Mix(256, 50_000, 60_000),
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Generates the workload's scenario from `seed`. `scale_div` divides
    /// object and op counts (1 = the real workload).
    pub fn scenario(&self, seed: u64, scale_div: u32) -> Scenario {
        let d = scale_div.max(1);
        match self.kind {
            Kind::Mix(sites, objects, churn) => {
                build_perf_scenario(&PerfSpec::mix(sites, objects / d, churn / d), seed)
            }
            Kind::Rings => ring_reclaim(seed, 20_000 / d, RINGS / d),
        }
    }

    /// The cluster configuration of the timed reps: oracle and obs off, as
    /// the historical perf suite ran, durability per workload.
    pub fn config(&self) -> ClusterConfig {
        ClusterConfig {
            durability: if self.durable {
                durable()
            } else {
                DurabilityConfig::off()
            },
            ..base_config()
        }
    }
}

/// Oracle off (its global reachability pass per collection would dominate),
/// obs off, everything else default.
pub fn base_config() -> ClusterConfig {
    ClusterConfig {
        safety_oracle: false,
        ..ClusterConfig::default()
    }
}

/// The in-memory durable medium at the benchmark's checkpoint cadence.
pub fn durable() -> DurabilityConfig {
    DurabilityConfig::memory().with_checkpoint_every(CHECKPOINT_EVERY)
}

/// Number of mutator ops (`Step::Op`) in a scenario.
pub fn op_count(scenario: &Scenario) -> u64 {
    scenario
        .steps()
        .iter()
        .filter(|s| matches!(s, Step::Op(_)))
        .count() as u64
}

/// Number of scripted settle points in a scenario.
pub fn settle_count(scenario: &Scenario) -> u64 {
    scenario
        .steps()
        .iter()
        .filter(|s| matches!(s, Step::Settle))
        .count() as u64
}

/// The splitmix64 step: ring placement must not share a stream with the
/// ballast generator, or changing one would reshuffle the other.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `ring_reclaim`: clean ballast (no islands, hubs or churn), then `rings`
/// times: a rooted anchor holding an 8-site ring built by `send_ref`, a
/// settle, the anchor cut, a settle. After each cut the ring is a
/// disconnected inter-site cycle, so the second settle's wall-clock is the
/// unreachable-to-reclaimed latency of distributed cyclic garbage.
pub fn ring_reclaim(seed: u64, ballast_objects: u32, rings: u32) -> Scenario {
    const SITES: u32 = 64;
    let ballast = PerfSpec {
        islands: 0,
        hubs: 0,
        churn_ops: 0,
        ..PerfSpec::mix(SITES, ballast_objects, 0)
    };
    let mut s = build_perf_scenario(&ballast, seed);
    let mut rng = seed;
    for _ in 0..rings {
        let base = (splitmix64(&mut rng) % u64::from(SITES)) as u32;
        let stride = 1 + (splitmix64(&mut rng) % 7) as u32;
        let sites: Vec<SiteId> = (0..RING_SPAN)
            .map(|k| SiteId::new((base + k * stride) % SITES))
            .collect();
        let anchor = s.alloc(sites[0], true);
        let members: Vec<ObjName> = sites.iter().map(|&site| s.alloc(site, false)).collect();
        s.send_ref(sites[0], anchor, members[0]);
        for k in 0..members.len() {
            let next = (k + 1) % members.len();
            s.send_ref(sites[next], members[k], members[next]);
        }
        s.settle();
        s.op(MutatorOp::Unlink {
            site: sites[0],
            from: anchor,
            to: members[0],
        });
        s.settle();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ring_reclaim_is_deterministic_and_legal() {
        let a = ring_reclaim(23, 2_000, 40);
        let b = ring_reclaim(23, 2_000, 40);
        assert_eq!(a, b, "same seed must give the same scenario");
        assert_ne!(a, ring_reclaim(24, 2_000, 40), "the seed must matter");

        let mut defined = BTreeSet::new();
        for step in a.steps() {
            let Step::Op(op) = step else { continue };
            for site in op.sites() {
                assert!(site.index() < a.site_count(), "site out of range in {op:?}");
            }
            for name in op.used_names() {
                assert!(defined.contains(&name), "{op:?} uses an undefined name");
            }
            if let Some(name) = op.defined_name() {
                assert!(defined.insert(name), "{name} defined twice");
            }
        }
        // Three settles in the ballast, two per ring.
        assert_eq!(settle_count(&a), 3 + 2 * 40);
    }

    #[test]
    fn ring_sites_are_distinct_within_a_ring() {
        // stride in 1..=7 and span 8 on 64 sites: k*stride stays below 64,
        // so the eight member sites of a ring never coincide.
        for stride in 1..=7u32 {
            let sites: BTreeSet<u32> = (0..RING_SPAN).map(|k| (k * stride) % 64).collect();
            assert_eq!(sites.len(), RING_SPAN as usize);
        }
    }

    #[test]
    fn workload_names_resolve() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
            assert!(w.why.len() <= 200, "{} why is too long", w.name);
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
