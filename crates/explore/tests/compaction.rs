//! DkLog compaction: checkpoint-time pruning against the stable cutoff
//! (vertices whose garbage verdict is final, dead remote rows, inert local
//! self-rows) keeps the causal engine's log bounded under churn, where the
//! uncompacted log grows with every object that ever crossed a site
//! boundary.

use ggd_mutator::workloads;
use ggd_sim::{CausalCollector, Cluster, ClusterConfig, DurabilityConfig};
use ggd_types::SiteId;

/// Runs the export-churn workload and returns the per-site DkLog row
/// counts at end of run, with compaction (durability on: every checkpoint
/// compacts) or without (durability off: the log only ever grows).
fn log_rows(rounds: u32, compacting: bool) -> Vec<usize> {
    let scenario = workloads::export_churn(4, rounds);
    let config = ClusterConfig {
        durability: if compacting {
            // An aggressive cadence so compaction fires many times.
            DurabilityConfig::memory().with_checkpoint_every(8)
        } else {
            DurabilityConfig::off()
        },
        ..ClusterConfig::default()
    };
    let (report, cluster) = Cluster::run_seeded(&scenario, config, CausalCollector::new);
    assert_eq!(report.safety_violations, 0);
    assert_eq!(
        report.verdicts,
        u64::from(rounds),
        "every round's export must end in exactly one GGD verdict"
    );
    (0..scenario.site_count())
        .map(|site| cluster.collector(SiteId::new(site)).engine().log().len())
        .collect()
}

#[test]
fn compaction_bounds_log_growth_under_churn() {
    // Without compaction the holder site accumulates one row per object
    // that ever crossed a site boundary: growth is linear in the rounds.
    let uncompacted_60: usize = log_rows(60, false).into_iter().max().unwrap();
    let uncompacted_120: usize = log_rows(120, false).into_iter().max().unwrap();
    assert!(
        uncompacted_120 >= uncompacted_60 + 50,
        "churn must grow the uncompacted log roughly linearly \
         ({uncompacted_60} -> {uncompacted_120})"
    );

    // With compaction the log tracks the *live* cross-site graph — a
    // handful of rows, independent of how many rounds ran.
    const BOUND: usize = 8;
    for rounds in [60, 120] {
        let compacted = log_rows(rounds, true);
        let max = compacted.iter().copied().max().unwrap();
        assert!(
            max <= BOUND,
            "compacted log must stay bounded under churn: {rounds} rounds \
             left {compacted:?} rows (bound {BOUND})"
        );
    }
}

#[test]
fn compaction_does_not_change_outcomes_under_churn() {
    // Compaction is a space optimization with a soundness argument (a
    // dropped row can never witness a real live root path); the observable
    // outcome of the run must not change relative to the uncompacted run
    // on a reliable network.
    for scenario in [
        workloads::export_churn(4, 40),
        workloads::random_churn(4, 160, 9),
    ] {
        let run = |durability: DurabilityConfig| {
            let config = ClusterConfig {
                durability,
                ..ClusterConfig::default()
            };
            let (report, cluster) = Cluster::run_seeded(&scenario, config, CausalCollector::new);
            (
                report.safety_violations,
                cluster.reclaimed_addrs(),
                cluster.garbage_addrs(),
            )
        };
        let plain = run(DurabilityConfig::off());
        let compacting = run(DurabilityConfig::memory().with_checkpoint_every(8));
        assert_eq!(plain, compacting, "compaction changed a run's outcome");
    }
}
