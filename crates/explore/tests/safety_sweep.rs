//! The standing safety sweep: the causal collector, judged by the live
//! oracle, over the two scenario sets on which ROADMAP item 2's violations
//! were found, compared with the checked-in list of what it frees unsafely
//! today.
//!
//! * Seeds 1..=40 of `PerfSpec::mix(64, 800, 15_000)`, at full scale: no
//!   seed violates at 1/10, 1/20 or 1/40 scale, so a reduced-scale sweep
//!   could not fail.
//! * The 1,600 churn-only explorer builds behind reproducer (C): four
//!   `ScenarioSpec`s of one `Segment::Churn`, 400 seeds each.
//! * The benchmark's own `remote_churn` shape, `PerfSpec::mix(64, 8_000,
//!   150_000)` at full scale, seeds 17 and 23: the benchmark's oracle pass
//!   runs it at 1/10 scale only, where both seeds are clean.
//!
//! The lists record a known defect and must never hide a new one: a
//! violation not on them fails the sweep, and so does a listed one that
//! stops happening, so the fix for item 2 must empty them. Release only —
//! the full-scale seeds take minutes in a debug build:
//!
//! ```sh
//! cargo test --release -p ggd-explore --test safety_sweep -- --ignored
//! ```

use ggd_mutator::generator::{build_perf_scenario, PerfSpec, ScenarioSpec, Segment};
use ggd_mutator::Scenario;
use ggd_sim::{CausalCollector, Cluster, ClusterConfig, RunReport};

/// The perf seeds that free a reachable object, as (seed, violations).
const PERF_VIOLATIONS: [(u64, u64); 11] = [
    (4, 1),
    (6, 1),
    (7, 1),
    (9, 1),
    (14, 1),
    (18, 2),
    (20, 1),
    (21, 3),
    (30, 1),
    (33, 2),
    (35, 3),
];

/// Residual garbage summed over the 40 perf runs.
const PERF_RESIDUAL: u64 = 363;

/// The benchmark-shaped seeds, as (seed, violations, residual): every one
/// of them violates.
const BENCHMARK_SHAPE_RUNS: [(u64, u64, u64); 2] = [(17, 3, 415), (23, 4, 414)];

/// The churn builds that free a reachable object, as (sites, ops, seed,
/// violations).
const CHURN_VIOLATIONS: [(u32, u32, u64, u64); 7] = [
    (4, 80, 0, 1),
    (3, 60, 318, 1),
    (4, 40, 0, 1),
    (6, 120, 23, 1),
    (6, 120, 29, 2),
    (6, 120, 382, 1),
    (6, 120, 385, 1),
];

/// One causal run under the default configuration: fault-free, safety
/// oracle on.
fn run(scenario: &Scenario) -> RunReport {
    Cluster::run_seeded(scenario, ClusterConfig::default(), CausalCollector::new).0
}

#[test]
#[ignore = "release-only sweep (CI's safety-sweep step)"]
fn perf_seeds_violate_exactly_as_listed() {
    let spec = PerfSpec::mix(64, 800, 15_000);
    let mut violating = Vec::new();
    let mut residual = 0;
    for seed in 1..=40 {
        let report = run(&build_perf_scenario(&spec, seed));
        if report.safety_violations > 0 {
            violating.push((seed, report.safety_violations));
        }
        residual += report.residual_garbage;
    }
    assert_eq!(
        violating, PERF_VIOLATIONS,
        "perf seeds (seed, violations) moved: update the list only for a fix"
    );
    assert_eq!(residual, PERF_RESIDUAL, "residual over the 40 perf seeds");
}

#[test]
#[ignore = "release-only sweep (CI's safety-sweep step)"]
fn churn_builds_violate_exactly_as_listed() {
    let mut violating = Vec::new();
    for (sites, ops) in [(4, 80), (3, 60), (4, 40), (6, 120)] {
        let spec = ScenarioSpec {
            sites,
            segments: vec![Segment::Churn { ops }],
        };
        for seed in 0..400 {
            let report = run(&spec.build(seed).scenario);
            if report.safety_violations > 0 {
                violating.push((sites, ops, seed, report.safety_violations));
            }
        }
    }
    assert_eq!(
        violating, CHURN_VIOLATIONS,
        "churn builds (sites, ops, seed, violations) moved: update the list only for a fix"
    );
}

#[test]
#[ignore = "release-only sweep (CI's safety-sweep step)"]
fn benchmark_shape_seeds_violate_exactly_as_listed() {
    let spec = PerfSpec::mix(64, 8_000, 150_000);
    let runs: Vec<_> = [17, 23]
        .into_iter()
        .map(|seed| {
            let report = run(&build_perf_scenario(&spec, seed));
            (seed, report.safety_violations, report.residual_garbage)
        })
        .collect();
    assert_eq!(
        runs, BENCHMARK_SHAPE_RUNS,
        "benchmark-shaped (seed, violations, residual) moved: update the list only for a fix"
    );
}
