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

/// Reproducer for ROADMAP item 3, "Compaction keeps some dead rows":
/// `compact_detected` keeps a remote row while any of its entries is live,
/// so a row naming an object its owner has freed can outlive it. Under a
/// 3-site random churn (legal sends only), with memory durability and a
/// checkpoint every 8 records, site 0's log should hold a handful of such
/// rows and root stamps whatever the op count. The stamps do stay small
/// (at most 5), but the dead remote rows grow with the churn: 14–34 of
/// 55–68 rows at 800 ops and 47–57 of 108–111 at 1,600 (seeds 0–2), each
/// still carrying live entries for site 0's root and its holder. Ignored
/// until item 3 lands.
#[test]
#[ignore = "ROADMAP item 3: compaction keeps remote rows of freed objects"]
fn compaction_drops_every_row_of_a_freed_remote_object() {
    use ggd_explore::sanitize;
    use ggd_mutator::Scenario;
    use ggd_types::VertexId;

    const BOUND: usize = 8;
    let s0 = SiteId::new(0);
    for ops in [800, 1_600] {
        for seed in 0..3 {
            // Illegal sends (ROADMAP item 1) make rows for dead objects of
            // their own; the sanitized scenario has none.
            let churn = workloads::random_churn(3, ops, seed);
            let scenario = Scenario::from_steps(3, sanitize(3, churn.steps()));
            let config = ClusterConfig {
                durability: DurabilityConfig::memory().with_checkpoint_every(8),
                ..ClusterConfig::default()
            };
            let (report, cluster) = Cluster::run_seeded(&scenario, config, CausalCollector::new);
            assert_eq!(report.safety_violations, 0);
            let log = cluster.collector(s0).engine().log();
            let freed = |vertex: VertexId| match vertex.as_object() {
                Some(addr) if addr.site() != s0 => {
                    !cluster.heap(addr.site()).contains(addr.object())
                }
                _ => false,
            };
            let dead = log.rows().filter(|&(vertex, _)| freed(vertex)).count();
            let stamps = log.root_flags().len();
            let label = format!("{ops} ops, seed {seed}: {} rows", log.len());
            assert!(stamps <= BOUND, "{label}, {stamps} root stamps");
            assert!(dead <= BOUND, "{label}, {dead} name freed remote objects");
        }
    }
}
