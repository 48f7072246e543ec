//! The membership corpus end-to-end: elastic joins, planned leaves and
//! evictions under scheduled split-and-heal partition windows, run
//! differentially across all three collectors with the
//! zero-references-to-departed-sites oracle armed, plus the shrinker
//! self-test over membership schedules and the sequential/parallel driver
//! equivalence pin for planned departures.

use std::collections::BTreeSet;

use ggd_explore::{
    explore, membership_corpus_triple, run_triple, CorpusFamily, ExplorerConfig, RunMode,
};
use ggd_mutator::generator::SegmentWeights;
use ggd_mutator::MembershipKind;
use ggd_sim::{CausalCollector, Cluster, ClusterConfig, ParallelCluster, TracingCollector};
use ggd_types::SiteId;

/// Seed pinned so the corpus below keeps covering every membership kind
/// and every partition-matrix entry (asserted by the coverage test).
const PINNED_SEED: u64 = 0xE1A5;

#[test]
fn membership_corpus_runs_clean_and_deterministically() {
    let config = ExplorerConfig {
        corpus: 24,
        seed: PINNED_SEED,
        family: CorpusFamily::Membership,
        ..ExplorerConfig::default()
    };
    let first = explore(&config);
    assert_eq!(first.stats.triples, 24);
    assert_eq!(
        first.stats.violating_triples, 0,
        "membership must stay safe and leave no departed references: {:?}",
        first.stats.failures
    );
    assert!(first.failures.is_empty());
    assert!(first.stats.collectors.contains_key("causal"));
    assert!(first.stats.collectors.contains_key("tracing"));
    assert!(
        first.stats.collectors.contains_key("reflisting"),
        "loss-free non-evicting triples must still run reference listing"
    );
    assert!(
        first.stats.segments.contains_key("hot-churn"),
        "the membership corpus biases toward the zipf segment"
    );

    let second = explore(&config);
    assert_eq!(first.stats, second.stats, "same seed, same verdict counts");
}

#[test]
fn membership_corpus_covers_every_kind_and_partition_plan() {
    let weights = SegmentWeights::default();
    let mut kinds: BTreeSet<MembershipKind> = BTreeSet::new();
    let mut plans: BTreeSet<String> = BTreeSet::new();
    let mut partitioned = 0u32;
    for index in 0..24u32 {
        let (_, triple) = membership_corpus_triple(PINNED_SEED, index, &weights);
        assert!(
            triple.scenario.has_membership(),
            "a schedule is always spliced"
        );
        assert!(
            triple.durability.is_on(),
            "joiners must get a durable medium"
        );
        kinds.extend(triple.scenario.membership_events().map(|ev| ev.kind));
        plans.insert(triple.fault.name.clone());
        if !triple.fault.plan.is_loss_free() {
            partitioned += 1;
        }
    }
    assert_eq!(
        kinds.len(),
        3,
        "join, leave and evict all appear: {kinds:?}"
    );
    assert!(
        plans.len() >= 4,
        "the partition matrix must rotate through its entries: {plans:?}"
    );
    assert!(
        partitioned >= 12,
        "most triples run under partition windows"
    );
}

/// The shrinker self-test over membership schedules: a deliberately unsafe
/// sweep injected into the membership corpus must be caught, minimized
/// without desyncing the membership schedule (sanitize keeps only legal
/// join/leave/evict sequences), and printed as a reproducer whose shrunk
/// triple still fails for the reported reason.
#[test]
fn injected_unsafe_sweep_shrinks_under_membership_schedules() {
    let config = ExplorerConfig {
        corpus: 8,
        seed: PINNED_SEED,
        family: CorpusFamily::Membership,
        mode: RunMode::SabotagedCausal { arm_after: 2 },
        ..ExplorerConfig::default()
    };
    let exploration = explore(&config);
    assert!(
        exploration.stats.violating_triples > 0,
        "the saboteur must be caught under membership schedules"
    );
    for failure in &exploration.failures {
        assert!(failure.reproducer.contains("#[test]"));
        let outcome = run_triple(&failure.shrunk, config.mode);
        assert!(
            outcome.has_kind(failure.kind),
            "triple #{} stopped failing after shrinking",
            failure.index
        );
        // A surviving membership schedule must be printed as builder calls.
        if failure.shrunk.scenario.has_membership() {
            assert!(
                failure.reproducer.contains(".join(")
                    || failure.reproducer.contains(".planned_leave(")
                    || failure.reproducer.contains(".evict("),
                "membership steps must appear in the reproducer"
            );
        }
    }
}

/// The explorer-corpus equivalence pin for the handoff invariant: on every
/// reliable membership triple, the sequential and parallel drivers must
/// reclaim the same objects, leave the same residual garbage, and both
/// finish with *zero* references to every site that completed a planned
/// leave.
#[test]
fn planned_departures_leave_zero_references_on_both_drivers() {
    let weights = SegmentWeights::default();
    let mut checked_departures = 0u32;
    for index in 0..24u32 {
        let (_, triple) = membership_corpus_triple(PINNED_SEED, index, &weights);
        let scenario = &triple.scenario;
        let sites = scenario.site_count();
        // The parallel driver's mailboxes are reliable; only reliable,
        // stall-free plans are semantically comparable (see
        // `parallel_equivalence.rs`).
        if !triple.fault.plan.is_reliable()
            || (0..scenario.max_site_count()).any(|i| triple.fault.plan.is_stalled(SiteId::new(i)))
        {
            continue;
        }
        let config = triple.config();

        macro_rules! check_drivers {
            ($factory:expr) => {{
                let (seq_report, seq) = Cluster::run_seeded(scenario, config.clone(), $factory);
                assert_eq!(
                    seq_report.safety_violations, 0,
                    "triple #{index}: sequential run unsafe ({})",
                    seq_report.collector
                );
                for departed in seq.departed_sites() {
                    assert!(
                        seq.sites_mentioning(departed).is_empty(),
                        "triple #{index}: sequential {} still references departed {departed}",
                        seq_report.collector
                    );
                    checked_departures += 1;
                }
                let parallel_config = ClusterConfig {
                    workers: 3,
                    ..config.clone()
                };
                let (par_report, par) =
                    ParallelCluster::run_seeded(scenario, parallel_config, $factory);
                assert_eq!(
                    par_report.safety_violations, 0,
                    "triple #{index}: parallel run unsafe ({})",
                    par_report.collector
                );
                assert_eq!(
                    seq.reclaimed_addrs(),
                    par.reclaimed_addrs(),
                    "triple #{index}: reclaimed sets diverge ({})",
                    seq_report.collector
                );
                assert_eq!(
                    seq.garbage_addrs(),
                    par.garbage_addrs(),
                    "triple #{index}: residual garbage diverges ({})",
                    seq_report.collector
                );
                assert_eq!(
                    seq_report.sites, par_report.sites,
                    "triple #{index}: final fleet sizes diverge"
                );
                for departed in par.departed_sites() {
                    assert!(
                        par.sites_mentioning(departed).is_empty(),
                        "triple #{index}: parallel {} still references departed {departed}",
                        par_report.collector
                    );
                }
            }};
        }

        check_drivers!(CausalCollector::new);
        check_drivers!(TracingCollector::factory(sites));
    }
    assert!(
        checked_departures >= 2,
        "the pinned corpus must exercise planned leaves on reliable plans \
         (got {checked_departures})"
    );
}

/// Evictions take a site as it lies on every driver: a site evicted while
/// crashed is never recovered first (its crash-time heap is what the oracle
/// keeps), and an up site is evicted with the heap it has.
#[test]
fn evicting_a_downed_site_never_recovers_it_on_either_driver() {
    use ggd_mutator::{MutatorOp, Scenario};
    use ggd_net::FaultPlan;
    use ggd_sim::DurabilityConfig;

    let [s0, s1, s2, s3] = [0, 1, 2, 3].map(SiteId::new);
    let mut s = Scenario::new(4);
    let a = s.alloc(s0, true);
    let b = s.alloc(s1, false);
    let c = s.alloc(s2, false);
    let d = s.alloc(s3, false);
    s.send_ref(s1, a, b);
    s.send_ref(s2, a, c);
    s.send_ref(s3, a, d);
    // The crash window opens on the first delivery of this settle, on both
    // clocks; site 3 only ever sends, so it goes down in the same state.
    s.settle();
    s.evict(s3);
    s.evict(s2);
    s.settle();
    s.op(MutatorOp::ClearRefs { site: s0, name: a });
    s.settle();

    let config = ClusterConfig {
        faults: FaultPlan::new().with_crash(s3, 1, u64::MAX),
        durability: DurabilityConfig::memory(),
        ..ClusterConfig::default()
    };
    let (seq_report, seq) = Cluster::run_seeded(&s, config.clone(), CausalCollector::new);
    assert_eq!(seq_report.safety_violations, 0);
    assert_eq!(seq.recoveries(), 0, "an evicted site never comes back");
    assert_eq!(seq.evicted_sites().collect::<Vec<_>>(), [s2, s3]);
    assert_eq!(
        seq.reclaimed_addrs()
            .iter()
            .map(|addr| addr.site())
            .collect::<Vec<_>>(),
        [s1],
        "the survivor's object is reclaimed; the evicted heaps' garbage stays"
    );
    assert_eq!(seq.garbage_addrs().len(), 2);
    for workers in [1, 3] {
        let parallel_config = ClusterConfig {
            workers,
            ..config.clone()
        };
        let (par_report, par) =
            ParallelCluster::run_seeded(&s, parallel_config, CausalCollector::new);
        assert_eq!(par_report.safety_violations, 0, "workers={workers}");
        assert_eq!(par.recoveries(), seq.recoveries(), "workers={workers}");
        assert_eq!(
            par.evicted_sites().collect::<Vec<_>>(),
            seq.evicted_sites().collect::<Vec<_>>(),
            "workers={workers}"
        );
        assert_eq!(
            par.garbage_addrs(),
            seq.garbage_addrs(),
            "workers={workers}"
        );
        assert_eq!(
            par.reclaimed_addrs(),
            seq.reclaimed_addrs(),
            "workers={workers}"
        );
    }
}

/// Sites are held in tables indexed by `SiteId`, which must grow to fit a
/// joiner past the founding sites (leaving holes below it) and keep
/// iterating in ascending `SiteId` while entries come and go: the joiner
/// crashes and comes back, and a founding site in the middle is evicted.
/// Both drivers must agree on which sites end up up, in what order they are
/// reported, on the fleet size, the evicted sites and every reclaimed
/// address.
#[test]
fn a_joiner_past_the_founding_sites_crashes_recovers_and_outlives_an_eviction_on_both_drivers() {
    use ggd_mutator::{MutatorOp, Scenario};
    use ggd_net::FaultPlan;
    use ggd_sim::DurabilityConfig;

    let [s0, s1, s2, s5] = [0, 1, 2, 5].map(SiteId::new);
    let mut s = Scenario::new(3);
    s.join(s5);
    let a = s.alloc(s0, true);
    let b = s.alloc(s1, true);
    let c = s.alloc(s2, false);
    let d = s.alloc(s1, false);
    let e = s.alloc(s5, false);
    s.send_ref(s2, a, c);
    s.send_ref(s2, b, c);
    s.send_ref(s1, a, d);
    // The joiner only ever sends, so it goes down in the same state on both
    // clocks, and it is brought back by the end-of-run recovery.
    s.send_ref(s5, a, e);
    s.settle();
    s.evict(s2);
    s.settle();
    s.op(MutatorOp::ClearRefs { site: s0, name: a });
    s.settle();

    let config = ClusterConfig {
        faults: FaultPlan::new().with_crash(s5, 1, u64::MAX),
        durability: DurabilityConfig::memory(),
        ..ClusterConfig::default()
    };
    let up_sites = |is_up: &dyn Fn(SiteId) -> bool| -> Vec<SiteId> {
        (0..s.max_site_count())
            .map(SiteId::new)
            .filter(|&site| is_up(site))
            .collect()
    };
    let (seq_report, seq) = Cluster::run_seeded(&s, config.clone(), CausalCollector::new);
    assert_eq!(seq_report.safety_violations, 0);
    assert_eq!(seq.recoveries(), 1, "the joiner came back");
    assert_eq!(up_sites(&|site| seq.site_is_up(site)), [s0, s1, s5]);
    assert_eq!(seq_report.sites, 3);
    assert_eq!(seq.evicted_sites().collect::<Vec<_>>(), [s2]);
    assert!(!seq.reclaimed_addrs().is_empty());
    let mentioning = seq.sites_mentioning(s2);
    assert!(
        mentioning.windows(2).all(|pair| pair[0] < pair[1]),
        "reported in ascending SiteId: {mentioning:?}"
    );
    assert!(mentioning.contains(&s1), "s1 still holds c: {mentioning:?}");
    for workers in [1, 3] {
        let parallel_config = ClusterConfig {
            workers,
            ..config.clone()
        };
        let (par_report, par) =
            ParallelCluster::run_seeded(&s, parallel_config, CausalCollector::new);
        assert_eq!(par_report.safety_violations, 0, "workers={workers}");
        assert_eq!(par.recoveries(), seq.recoveries(), "workers={workers}");
        assert_eq!(
            up_sites(&|site| par.site_is_up(site)),
            up_sites(&|site| seq.site_is_up(site)),
            "workers={workers}"
        );
        assert_eq!(par.sites_mentioning(s2), mentioning, "workers={workers}");
        assert_eq!(par_report.sites, seq_report.sites, "workers={workers}");
        assert_eq!(
            par.evicted_sites().collect::<Vec<_>>(),
            seq.evicted_sites().collect::<Vec<_>>(),
            "workers={workers}"
        );
        assert_eq!(
            par.reclaimed_addrs(),
            seq.reclaimed_addrs(),
            "workers={workers}"
        );
        assert_eq!(
            par.garbage_addrs(),
            seq.garbage_addrs(),
            "workers={workers}"
        );
    }
}

/// A planned leave commits when it starts: a crash window that opens on the
/// departing site while its leave runs is ignored on both drivers. The site
/// is not crashed mid-protocol, so it is neither recovered later nor left
/// behind as a downed site; it departs like any other, and both drivers
/// agree on what was reclaimed and what is left.
#[test]
fn a_crash_window_opening_on_a_departing_site_mid_leave_is_ignored_on_both_drivers() {
    use ggd_mutator::Scenario;
    use ggd_net::FaultPlan;
    use ggd_sim::{DurabilityConfig, RunReport};

    let [s0, s1, s2] = [0, 1, 2].map(SiteId::new);
    let build = |leave: bool| {
        let mut s = Scenario::new(3);
        let a = s.alloc(s0, true);
        let b = s.alloc(s1, true);
        let c = s.alloc(s2, true);
        let d = s.alloc(s1, false);
        s.send_ref(s2, a, c);
        s.send_ref(s2, b, c);
        s.send_ref(s1, c, d);
        s.settle();
        if leave {
            s.planned_leave(s2);
            s.settle();
        }
        s
    };
    let (prefix, scenario) = (build(false), build(true));
    let durable = |workers| ClusterConfig {
        durability: DurabilityConfig::memory().with_checkpoint_every(4),
        workers,
        ..ClusterConfig::default()
    };
    // The clock each driver reads when the leave begins is where its
    // prefix run ends: the prefix closes with a settle, so the end-of-run
    // completion delivers nothing more. The window opens one tick later,
    // on the first delivery of the leave's own settles.
    let window = |prefix_report: RunReport| {
        let at = prefix_report.finished_at + 1;
        FaultPlan::new().with_crash(s2, at, u64::MAX)
    };
    let check = |label: &str, report: &RunReport, at: u64, departed, recoveries, up: bool| {
        assert_eq!(report.safety_violations, 0, "{label}");
        assert!(
            report.finished_at >= at,
            "{label}: the window must open during the leave (clock {} < {at})",
            report.finished_at
        );
        assert_eq!(recoveries, 0, "{label}: the departing site never crashed");
        assert_eq!(departed, std::collections::BTreeSet::from([s2]), "{label}");
        assert!(
            !up,
            "{label}: no downed or revived trace of the departed site"
        );
        assert_eq!(report.sites, 2, "{label}");
    };

    let (probe, _) = Cluster::run_seeded(&prefix, durable(0), CausalCollector::new);
    let faults = window(probe);
    let at = faults.crashes()[0].at_round;
    let config = ClusterConfig {
        faults,
        ..durable(0)
    };
    let (seq_report, seq) = Cluster::run_seeded(&scenario, config, CausalCollector::new);
    check(
        "sequential",
        &seq_report,
        at,
        seq.departed_sites(),
        seq.recoveries(),
        seq.site_is_up(s2),
    );
    assert!(seq.sites_mentioning(s2).is_empty());
    assert_eq!(seq.membership(), BTreeSet::from([s0, s1]));

    for workers in [1, 3] {
        let (probe, _) =
            ParallelCluster::run_seeded(&prefix, durable(workers), CausalCollector::new);
        let faults = window(probe);
        let at = faults.crashes()[0].at_round;
        let config = ClusterConfig {
            faults,
            ..durable(workers)
        };
        let (par_report, par) =
            ParallelCluster::run_seeded(&scenario, config, CausalCollector::new);
        let label = format!("workers={workers}");
        check(
            &label,
            &par_report,
            at,
            par.departed_sites(),
            par.recoveries(),
            par.site_is_up(s2),
        );
        assert!(par.sites_mentioning(s2).is_empty(), "{label}");
        assert_eq!(par.membership(), seq.membership(), "{label}");
        assert_eq!(par.reclaimed_addrs(), seq.reclaimed_addrs(), "{label}");
        assert_eq!(par.garbage_addrs(), seq.garbage_addrs(), "{label}");
    }
}
