//! Differential equivalence of the two snapshot pipelines: the incremental
//! delta path (the default) must produce *identical* behaviour to the
//! retained full-rescan path — same control-message streams (pinned through
//! the metrics embedded in [`RunReport`] equality, which count messages and
//! bytes per class and label), same verdicts, same reclaimed sets and same
//! residual garbage — for every `(scenario, fault plan, seed)` triple of
//! the explorer corpus, under every collector.

use ggd_explore::corpus_triple;
use ggd_mutator::generator::{build_perf_scenario, PerfSpec, SegmentWeights};
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, RefListingCollector, SyncMode, TracingCollector,
};

/// Runs one collector under both pipelines and asserts equivalence of the
/// report, the reclaimed set and the residual-garbage set.
macro_rules! assert_modes_agree {
    ($index:expr, $scenario:expr, $config:expr, $factory:expr) => {{
        let full = ClusterConfig {
            sync_mode: SyncMode::FullRescan,
            ..$config.clone()
        };
        let incremental = ClusterConfig {
            sync_mode: SyncMode::Incremental,
            ..$config.clone()
        };
        let (report_full, cluster_full) = Cluster::run_seeded($scenario, full, $factory);
        let (report_incr, cluster_incr) = Cluster::run_seeded($scenario, incremental, $factory);
        assert_eq!(
            report_full, report_incr,
            "triple #{}: reports diverge between pipelines ({})",
            $index, report_full.collector
        );
        assert_eq!(
            cluster_full.reclaimed_addrs(),
            cluster_incr.reclaimed_addrs(),
            "triple #{}: reclaimed sets diverge ({})",
            $index,
            report_full.collector
        );
        assert_eq!(
            cluster_full.garbage_addrs(),
            cluster_incr.garbage_addrs(),
            "triple #{}: residual garbage diverges ({})",
            $index,
            report_full.collector
        );
    }};
}

#[test]
fn incremental_and_full_rescan_pipelines_are_equivalent_on_the_corpus() {
    for index in 0..24u32 {
        let (_spec, triple) = corpus_triple(7, index, &SegmentWeights::default());
        let scenario = &triple.scenario;
        let config = triple.config();
        let sites = scenario.site_count();

        assert_modes_agree!(index, scenario, config, CausalCollector::new);
        assert_modes_agree!(index, scenario, config, TracingCollector::factory(sites));
        if triple.fault.plan.is_loss_free() {
            // Reference listing assumes reliable channels (see the runner).
            assert_modes_agree!(index, scenario, config, RefListingCollector::new);
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
        let scenario = &triple.scenario;
        let config = triple.config();
        assert_modes_agree!(index, scenario, config, CausalCollector::new);
    }
}

#[test]
fn pipelines_agree_on_the_perf_shaped_churn() {
    // Two benchmark workloads at 1/10, shapes the ≤16-site explorer DSL
    // never reaches:
    // * `remote_churn`: 64 sites and free-list slot reuse under
    //   remote-reference churn. Under FullRescan the delta tracker stays
    //   inactive, so every collection there is the full mark-sweep — which
    //   makes this the cluster-level differential of the
    //   change-proportional collection the incremental pipeline runs.
    // * `bulk_build`: mostly growth, so most deltas take the tracker's
    //   grow-only path (the cache extended along added references).
    // The oracle is off: ROADMAP item 1's violations on the churn shape are
    // the collector's, identical under both pipelines, and pinned by
    // `perf_shape_safety.rs`.
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
            let index = format!("{name}/{seed}");
            assert_modes_agree!(index, &scenario, config, CausalCollector::new);
        }
    }
}
