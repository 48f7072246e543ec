//! Parallel-driver stress: churn workloads over 8 sites on 8 shards, each
//! drained on a thread of its own — through every collector family, and
//! under site crashes — with a hard timeout.
//!
//! Ignored by default so `cargo test` stays fast and scheduler-dependent
//! timing cannot flake CI; opt in with:
//!
//! ```sh
//! cargo test --test stress -- --ignored
//! ```

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use ggd::prelude::*;

/// Wall-clock budget for each stress run. Generous: a run takes well under
/// a second in release; only a genuine hang (e.g. a termination barrier
/// that never drains) should ever exhaust it.
const HARD_TIMEOUT: Duration = Duration::from_secs(120);

/// Runs `body` on a helper thread so the test thread can enforce the hard
/// timeout; on timeout the helper is abandoned (the process exits with the
/// failing test).
fn within_timeout<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(HARD_TIMEOUT) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("stress run exceeded the hard timeout — the termination barrier deadlocked")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("stress run panicked before reporting; see its panic output above")
        }
    }
}

/// One run with one worker per site, judged by the live oracle as it runs
/// and again at end of run: no reachable object may reference one a
/// collector freed.
fn run<C>(
    scenario: &Scenario,
    config: ClusterConfig,
    factory: impl Fn(SiteId) -> C + Clone + Send + 'static,
) -> (RunReport, ParallelCluster<C>)
where
    C: Collector + Send + 'static,
    C::Msg: Send + 'static,
{
    let config = ClusterConfig {
        workers: 8,
        ..config
    };
    let (report, cluster) = ParallelCluster::run_seeded(scenario, config, factory);
    assert_eq!(
        report.safety_violations, 0,
        "{} freed objects the live oracle holds reachable",
        report.collector
    );
    let dangling = cluster.dangling_refs();
    assert!(
        dangling.is_empty(),
        "{} freed objects that are still referenced: {dangling:?}",
        report.collector
    );
    assert_eq!(report.sites, 8);
    assert!(report.allocated > 0, "the run executed no allocations");
    assert_eq!(
        report.net.queued_bytes(),
        0,
        "every queued frame must have been consumed or died with a crashed site"
    );
    (report, cluster)
}

#[test]
#[ignore = "parallel-driver stress run; opt in with `cargo test --test stress -- --ignored`"]
fn parallel_churn_stress_across_all_collectors() {
    let reports = within_timeout(|| {
        let scenario = workloads::random_churn(8, 200, 21);
        let config = ClusterConfig::default;
        [
            run(&scenario, config(), CausalCollector::new).0,
            run(&scenario, config(), TracingCollector::factory(8)).0,
            run(&scenario, config(), RefListingCollector::new).0,
        ]
    });
    // The mutator traffic is schedule-independent: every collector saw the
    // same scenario, so the reference-transfer counts must agree.
    let mutator_counts: Vec<u64> = reports.iter().map(RunReport::mutator_messages).collect();
    assert!(
        mutator_counts.windows(2).all(|w| w[0] == w[1]),
        "mutator traffic diverged across collectors: {mutator_counts:?}"
    );
}

#[test]
#[ignore = "parallel-driver crash stress run; opt in with `cargo test --test stress -- --ignored`"]
fn parallel_driver_survives_killing_and_restarting_two_of_eight_workers() {
    // Churn over 8 sites while two of them are killed mid-run and restarted
    // from their durable stores (checkpoint-load + WAL replay). Crash
    // windows are in the delivered-frame clock, so exactly *which* frames
    // die with the crashed inboxes is scheduler-dependent — which is the
    // point: whatever the interleaving, safety must hold and both victims
    // must come back. While sites 6 and 7 are down their worker keeps only
    // the durable store, and the termination barrier's in-flight credits
    // must drain even though the downed sites consume frames without
    // answering.
    let (recoveries, up, stats) = within_timeout(|| {
        let scenario = workloads::random_churn(8, 240, 23);
        let config = ClusterConfig {
            faults: FaultPlan::new()
                .with_crash(SiteId::new(6), 10, 120)
                .with_crash(SiteId::new(7), 40, 200),
            durability: DurabilityConfig::memory().with_checkpoint_every(16),
            ..ClusterConfig::default()
        };
        let (_, cluster) = run(&scenario, config, CausalCollector::new);
        let up: Vec<bool> = (0..8).map(|i| cluster.site_is_up(SiteId::new(i))).collect();
        (cluster.recoveries(), up, cluster.store_stats())
    });

    assert!(up.iter().all(|&b| b), "every site must be up at end of run");
    assert!(
        recoveries >= 2,
        "both scheduled crashes must have fired and recovered (got {recoveries})"
    );
    assert!(
        stats.records_replayed > 0,
        "recovery must have replayed WAL records"
    );
}
