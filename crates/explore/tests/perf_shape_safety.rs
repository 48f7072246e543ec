//! ROADMAP item 1: the two minimal inputs on which the causal collector
//! frees an object that is still reachable. Both are `ggd-causal` protocol
//! bugs (DESIGN.md "Known limitations" carries the traces), both need the
//! perf-shaped generator — 64 sites and remote-reference churn over reused
//! slots, which the ≤16-site explorer DSL never produces — and both fail
//! today, so they are `#[ignore]`d until item 1 lands its fix:
//!
//! ```sh
//! cargo test --release -p ggd-explore --test perf_shape_safety -- --ignored
//! ```

use ggd_mutator::generator::{build_perf_scenario, PerfSpec};
use ggd_sim::{CausalCollector, Cluster, ClusterConfig};

/// Safety violations of the causal collector on one perf-shaped scenario,
/// with the default configuration (safety oracle on).
fn safety_violations(spec: &PerfSpec, seed: u64) -> u64 {
    let scenario = build_perf_scenario(spec, seed);
    let (report, _cluster) =
        Cluster::run_seeded(&scenario, ClusterConfig::default(), CausalCollector::new);
    report.safety_violations
}

/// (A) `DkLog::direct_live_entries_resolved` takes an on-behalf row for a
/// remote vertex as "that vertex has been heard from": at step 6017 s51/o12
/// is re-exported to s29/o9 while an earlier destruction is in flight, the
/// placeholder `s29/o9:1` counts as resolved through the tombstone row s51
/// keeps for s29/o9, the verdict fires before the `Reference` lands, and
/// s51/o12 (with its child o15) is swept while s29/o9 holds it.
#[test]
#[ignore = "ROADMAP item 1 (A)"]
fn on_behalf_row_must_not_resolve_a_reexport_placeholder() {
    assert_eq!(safety_violations(&PerfSpec::mix(64, 200, 3_750), 6), 0);
}

/// (B) The same target exported twice to a recipient that already holds it:
/// `on_export` re-records the placeholder `created(1)`, `merge_entry`
/// discards it under the recipient's newer real entry, the recipient drops
/// its first copy, its tombstone supersedes everything the exporter knows,
/// the verdict fires, and the second `Reference` re-creates the edge lazily.
/// At step 4467 s32/o19 is swept while s42/o4 holds it.
#[test]
#[ignore = "ROADMAP item 1 (B)"]
fn second_export_to_a_current_holder_must_stay_visible() {
    assert_eq!(safety_violations(&PerfSpec::mix(64, 800, 15_000), 14), 0);
}
