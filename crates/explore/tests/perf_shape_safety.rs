//! ROADMAP item 2: minimal inputs on which the causal collector frees an
//! object that is still reachable. All are `ggd-causal` protocol bugs
//! (DESIGN.md "Known limitations" carries the traces). (A) and (B) come
//! from the perf-shaped generator — 64 sites and remote-reference churn
//! over reused slots; (C) is a fault-free, 13-op shrink of a churn-only
//! explorer spec, so the ≤16-site explorer DSL reaches the same class of
//! bug. All fail today, so they are `#[ignore]`d until item 2 lands its
//! fix:
//!
//! ```sh
//! cargo test --release -p ggd-explore --test perf_shape_safety -- --ignored
//! ```

use ggd_mutator::generator::{build_perf_scenario, PerfSpec};
use ggd_mutator::{MutatorOp, Scenario};
use ggd_sim::{CausalCollector, Cluster, ClusterConfig};
use ggd_types::SiteId;

/// Safety violations of the causal collector on one scenario, with the
/// default configuration (fault-free, safety oracle on).
fn violations(scenario: &Scenario) -> u64 {
    let (report, _cluster) =
        Cluster::run_seeded(scenario, ClusterConfig::default(), CausalCollector::new);
    report.safety_violations
}

/// Safety violations of the causal collector on one perf-shaped scenario.
fn safety_violations(spec: &PerfSpec, seed: u64) -> u64 {
    violations(&build_perf_scenario(spec, seed))
}

/// (A) `DkLog::direct_live_entries_resolved` takes an on-behalf row for a
/// remote vertex as "that vertex has been heard from": at step 6017 s51/o12
/// is re-exported to s29/o9 while an earlier destruction is in flight, the
/// placeholder `s29/o9:1` counts as resolved through the tombstone row s51
/// keeps for s29/o9, the verdict fires before the `Reference` lands, and
/// s51/o12 (with its child o15) is swept while s29/o9 holds it.
#[test]
#[ignore = "ROADMAP item 2 (A)"]
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
#[ignore = "ROADMAP item 2 (B)"]
fn second_export_to_a_current_holder_must_stay_visible() {
    assert_eq!(safety_violations(&PerfSpec::mix(64, 800, 15_000), 14), 0);
}

/// (C) `ScenarioSpec { sites: 4, segments: vec![Segment::Churn { ops: 40 }] }`
/// built at seed 0 (53 steps), shrunk by `ggd_explore::shrink` to 13 ops
/// on three of its four sites. s0/o3 hangs under s0's root and is exported
/// to s1/o2, which s3's local root holds; then both local edges above the
/// two objects are cut. At the end s0's row for s1/o2 is `{s1/o2:4}` while
/// s1's own row is `{root(s3):1, s1/o2:5, s3/o1:1}`, and s0/o3 is swept
/// while s1/o2 holds it.
#[test]
#[ignore = "ROADMAP item 2 (C)"]
fn churn_spec_export_to_a_remotely_rooted_holder_must_stay_live() {
    let (s0, s1, s3) = (SiteId::new(0), SiteId::new(1), SiteId::new(3));
    let mut s = Scenario::new(4);
    let root0 = s.alloc(s0, true);
    let root1 = s.alloc(s1, true);
    let root3 = s.alloc(s3, true);
    let holder = s.alloc(s1, false);
    s.op(MutatorOp::LinkLocal {
        site: s1,
        from: root1,
        to: holder,
    });
    s.send_ref(s1, root3, holder);
    let mid = s.alloc(s0, false);
    s.op(MutatorOp::LinkLocal {
        site: s0,
        from: root0,
        to: mid,
    });
    let freed = s.alloc(s0, false);
    s.op(MutatorOp::LinkLocal {
        site: s0,
        from: mid,
        to: freed,
    });
    s.settle();
    s.send_ref(s0, holder, freed);
    s.settle();
    s.op(MutatorOp::Unlink {
        site: s1,
        from: root1,
        to: holder,
    });
    s.op(MutatorOp::Unlink {
        site: s0,
        from: mid,
        to: freed,
    });
    assert_eq!(violations(&s), 0);
}
