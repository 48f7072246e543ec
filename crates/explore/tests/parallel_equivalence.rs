//! Differential equivalence of the two drive loops: the parallel
//! worker-per-shard driver must reclaim exactly the objects the sequential
//! deterministic driver reclaims, and leave exactly the same residual
//! garbage, on the explorer's pinned reliable-plan corpus, under every
//! collector.
//!
//! Reliable ([`FaultPlan::is_reliable`]) is the right boundary: the
//! parallel driver's mailboxes drop frames only in crash and partition
//! windows, timed on its own delivered-frame clock, so it can only be
//! compared against plans that never lose *or duplicate* a message — a
//! duplicated reference transfer redelivered after a later
//! unlink genuinely resurrects an edge, which is a semantic difference,
//! not a driver bug. Stalled sites are likewise excluded: a stall holds
//! messages for the whole run, starving collectors of
//! exactly the notices the parallel mailboxes (which never stall) would
//! deliver. Delay and reordering jitter stay in the sequential leg: the
//! settling guarantees claim those cannot change the outcome, so the
//! cross-driver comparison doubles as an end-to-end check of both.

use ggd_explore::{corpus_triple, SaboteurCollector};
use ggd_mutator::generator::SegmentWeights;
use ggd_net::FaultPlan;
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, ParallelCluster, RefListingCollector, TracingCollector,
};
use ggd_types::SiteId;

/// True when `plan` has semantics the parallel driver can reproduce:
/// reliable (no loss, duplication, partitions or crashes) and no stalled
/// sites.
fn comparable(plan: &FaultPlan, sites: u32) -> bool {
    plan.is_reliable() && !(0..sites).any(|i| plan.is_stalled(SiteId::new(i)))
}

/// Runs one collector through the sequential driver and the parallel driver
/// at the given worker counts, asserting that the parallel run frees no
/// object the live oracle holds reachable, leaves no dangling reference, and
/// reclaimed- and residual-set equality.
macro_rules! assert_drivers_agree {
    ($index:expr, $scenario:expr, $config:expr, $factory:expr) => {{
        let (seq_report, seq) = Cluster::run_seeded($scenario, $config.clone(), $factory);
        for workers in [1u32, 3] {
            let parallel_config = ClusterConfig {
                workers,
                ..$config.clone()
            };
            let (report, cluster) =
                ParallelCluster::run_seeded($scenario, parallel_config, $factory);
            assert_eq!(
                report.safety_violations, 0,
                "triple #{}: live oracle saw an unsafe sweep ({}, workers={workers})",
                $index, seq_report.collector
            );
            let dangling = cluster.dangling_refs();
            assert!(
                dangling.is_empty(),
                "triple #{}: freed objects still referenced ({}, workers={workers}): {dangling:?}",
                $index,
                seq_report.collector
            );
            assert_eq!(
                seq.reclaimed_addrs(),
                cluster.reclaimed_addrs(),
                "triple #{}: reclaimed sets diverge ({}, workers={workers})",
                $index,
                seq_report.collector
            );
            assert_eq!(
                seq.garbage_addrs(),
                cluster.garbage_addrs(),
                "triple #{}: residual garbage diverges ({}, workers={workers})",
                $index,
                seq_report.collector
            );
            assert_eq!(
                seq_report.allocated, report.allocated,
                "triple #{}: allocation counts diverge ({}, workers={workers})",
                $index, seq_report.collector
            );
            assert_eq!(
                seq_report.reclaimed, report.reclaimed,
                "triple #{}: reclaim counts diverge ({}, workers={workers})",
                $index, seq_report.collector
            );
        }
    }};
}

#[test]
fn parallel_driver_matches_sequential_on_the_reliable_corpus() {
    let mut compared = 0u32;
    for index in 0..24u32 {
        let (_spec, triple) = corpus_triple(7, index, &SegmentWeights::default());
        let scenario = &triple.scenario;
        let sites = scenario.site_count();
        if !comparable(&triple.fault.plan, sites) {
            continue;
        }
        let config = triple.config();
        compared += 1;

        assert_drivers_agree!(index, scenario, config, CausalCollector::new);
        assert_drivers_agree!(index, scenario, config, TracingCollector::factory(sites));
        assert_drivers_agree!(index, scenario, config, RefListingCollector::new);
    }
    assert!(
        compared >= 4,
        "the pinned corpus must keep a meaningful reliable slice (got {compared})"
    );
}

#[test]
fn parallel_driver_matches_sequential_under_churn() {
    // A churn-heavy seeded sweep: the workload with the densest inter-site
    // reference turnover, i.e. the most frames racing between workers.
    let weights = SegmentWeights {
        list: 1,
        ring: 1,
        island: 1,
        hub: 1,
        churn: 6,
        hot_churn: 0,
    };
    for index in 0..8u32 {
        let (_spec, triple) = corpus_triple(1312, index, &weights);
        let scenario = &triple.scenario;
        if !comparable(&triple.fault.plan, scenario.site_count()) {
            continue;
        }
        let config = triple.config();
        assert_drivers_agree!(index, scenario, config, CausalCollector::new);
    }
}

#[test]
fn the_dangling_check_catches_an_unsafe_sweep_on_workers() {
    // Site 1 exports an unrooted object to site 0's root; the saboteur then
    // forges a verdict for it. Without a live oracle, the freed-but-held
    // reference must still be found at end of run; with it, the parallel
    // driver judges the sweep as it happens, like the sequential one.
    let [s0, s1] = [0, 1].map(SiteId::new);
    let mut s = ggd_mutator::Scenario::new(2);
    let root = s.alloc(s0, true);
    let exported = s.alloc(s1, false);
    s.send_ref(s1, root, exported);
    s.settle();

    let sabotaged = |site| SaboteurCollector::new(site, 0);
    let (report, _) = Cluster::run_seeded(&s, ClusterConfig::default(), sabotaged);
    assert!(
        report.safety_violations > 0,
        "the live oracle sees the sweep"
    );
    for workers in [1, 2] {
        let config = ClusterConfig {
            workers,
            safety_oracle: false,
            ..ClusterConfig::default()
        };
        let (_, cluster) = ParallelCluster::run_seeded(&s, config, sabotaged);
        assert!(
            !cluster.dangling_refs().is_empty(),
            "workers={workers}: the unsafe sweep went unnoticed"
        );
        let judged = ClusterConfig {
            workers,
            ..ClusterConfig::default()
        };
        let (report, _) = ParallelCluster::run_seeded(&s, judged, sabotaged);
        assert!(
            report.safety_violations > 0,
            "workers={workers}: the live oracle missed the sweep"
        );
    }
}
