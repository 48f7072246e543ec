//! Heap deltas against full rescans, on whole cluster runs. There is one
//! delta pipeline, the incremental tracker behind `SiteHeap::take_delta`;
//! the full rescan (`SiteHeap::snapshot`) is only its reference. Debug
//! builds check every delta against one rescan: the heap's cached snapshot
//! must equal it, and the delta must equal the `ReachabilitySnapshot::diff`
//! from the previous cache to it. So running a scenario in a debug build is
//! the differential test, and each `(scenario, fault plan, seed)` triple of
//! the explorer corpus runs once per collector. The perf-shaped
//! `remote_churn` and `bulk_build` runs are the only debug runs of 64-site
//! shapes. Every run also ends by checking each heap's tracker against a
//! rescan (`SiteHeap::tracker_is_consistent`: the cache, the rootedness
//! bits and the per-remote reference counts), which release builds keep;
//! the stepped durable runs check it after every settle. (The test names
//! still speak of two "pipelines", from when the runtime could also rescan
//! on every mutation.)

use ggd_explore::corpus_triple;
use ggd_heap::SiteHeap;
use ggd_mutator::generator::{build_perf_scenario, PerfSpec, SegmentWeights};
use ggd_mutator::{Scenario, Step};
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, Collector, DurabilityConfig, RefListingCollector,
    TracingCollector,
};
use ggd_types::SiteId;

/// Runs one collector over `scenario`; debug builds check every delta on
/// the way, and every build checks the final caches.
fn run_checked<C: Collector>(
    label: &str,
    scenario: &Scenario,
    config: &ClusterConfig,
    factory: impl Fn(SiteId) -> C + 'static,
) {
    let (report, cluster) = Cluster::run_seeded(scenario, config.clone(), factory);
    assert!(
        cluster.heaps().all(|heap| heap.tracker_is_consistent()),
        "{label}: a cached snapshot diverged from its rescan ({})",
        report.collector
    );
}

#[test]
fn incremental_and_full_rescan_pipelines_are_equivalent_on_the_corpus() {
    for index in 0..24u32 {
        let (_spec, triple) = corpus_triple(7, index, &SegmentWeights::default());
        let scenario = &triple.scenario;
        let config = triple.config();
        let sites = scenario.site_count();
        let label = format!("triple #{index}");

        run_checked(&label, scenario, &config, CausalCollector::new);
        run_checked(&label, scenario, &config, TracingCollector::factory(sites));
        if triple.fault.plan.is_loss_free() {
            // Reference listing assumes reliable channels (see the runner).
            run_checked(&label, scenario, &config, RefListingCollector::new);
        }
    }
}

#[test]
fn pipelines_agree_under_heavy_churn_and_faults() {
    // A denser seeded sweep biased toward churn — the workload where the
    // incremental tracker does the most bookkeeping (dirty accumulation,
    // collections between deltas, global-root turnover).
    let weights = SegmentWeights {
        list: 1,
        ring: 1,
        island: 1,
        hub: 1,
        churn: 6,
        hot_churn: 0,
    };
    for index in 0..12u32 {
        let (_spec, triple) = corpus_triple(1312, index, &weights);
        let label = format!("triple #{index}");
        let config = triple.config();
        run_checked(&label, &triple.scenario, &config, CausalCollector::new);
    }
}

#[test]
fn pipelines_agree_on_the_perf_shaped_churn() {
    // Two benchmark workloads at 1/10, shapes the ≤16-site explorer DSL
    // never reaches:
    // * `remote_churn`: 64 sites and free-list slot reuse under
    //   remote-reference churn, with the change-proportional collection
    //   running between deltas.
    // * `bulk_build`: mostly growth, so most deltas take the tracker's
    //   grow-only path (the cache extended along added references).
    // The oracle is off: ROADMAP item 2's violations on the churn shape are
    // the collector's, not the tracker's, and `perf_shape_safety.rs` pins
    // them.
    let config = ClusterConfig {
        safety_oracle: false,
        ..ClusterConfig::default()
    };
    let shapes = [
        ("remote_churn", PerfSpec::mix(64, 800, 15_000)),
        ("bulk_build", PerfSpec::mix(64, 10_000, 2_000)),
    ];
    for (name, spec) in &shapes {
        for seed in [17u64, 23] {
            let scenario = build_perf_scenario(spec, seed);
            let label = format!("{name}/{seed}");
            run_checked(&label, &scenario, &config, CausalCollector::new);
        }
    }
}

#[test]
fn tracker_stays_consistent_across_checkpoints_and_recoveries() {
    // The two benchmark shapes richest in removal windows, at 1/10, with
    // durability on and a short checkpoint cadence. Every settle ends by
    // crashing and recovering the next site in turn, so heaps are rebuilt
    // from checkpoint images (a primed tracker) and then fed the replayed
    // log. After every settle each heap's tracker must agree with a rescan:
    // release builds check no delta on the way, so this is where they check
    // the counts' upkeep on these shapes.
    let config = ClusterConfig {
        safety_oracle: false,
        durability: DurabilityConfig::memory().with_checkpoint_every(64),
        ..ClusterConfig::default()
    };
    let shapes = [
        ("remote_churn", PerfSpec::mix(64, 800, 15_000)),
        ("wide_durable", PerfSpec::mix(256, 5_000, 6_000)),
    ];
    for (name, spec) in &shapes {
        for seed in [17u64, 23] {
            let scenario = build_perf_scenario(spec, seed);
            let mut cluster =
                Cluster::from_scenario(&scenario, config.clone(), CausalCollector::new);
            let mut settles = 0u32;
            let mut settle_checked = |cluster: &mut Cluster<CausalCollector>| {
                cluster.settle();
                assert!(
                    cluster.heaps().all(SiteHeap::tracker_is_consistent),
                    "{name}/{seed}: a tracker diverged from its rescan by settle {settles}"
                );
                cluster.crash_and_recover(SiteId::new(settles % scenario.site_count()));
                settles += 1;
            };
            for step in scenario.steps() {
                match step {
                    Step::Op(op) => cluster.execute(*op),
                    Step::Settle => settle_checked(&mut cluster),
                    Step::Membership(ev) => cluster.execute_membership(*ev),
                }
            }
            settle_checked(&mut cluster);
            assert!(cluster.recoveries() > 1, "{name}/{seed}: no recovery ran");
        }
    }
}
