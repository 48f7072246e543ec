//! Metric-determinism tests for the `ggd-obs` layer (ISSUE 9, satellite 3).
//!
//! The same `(scenario, fault plan, seed)` triple must produce a
//! byte-identical metrics snapshot and JSONL trace:
//!
//! * within one driver, across repeated runs (full view — everything,
//!   including the driver-shaped auxiliary registries, is reproducible in
//!   the deterministic sequential driver);
//! * across drivers — sequential vs parallel at 1 and 3 workers — in the
//!   deterministic view, for all three collector families;
//! * and the step-clock detection latency must agree across drivers.

use ggd::obs::{validate_jsonl, ObsConfig, TraceView};
use ggd::prelude::*;

/// Scenarios of the cross-driver equivalence corpus exercised here.
fn corpus() -> Vec<(&'static str, Scenario)> {
    vec![
        ("paper_example", workloads::paper_example()),
        ("ring", workloads::ring(5)),
        ("churn", workloads::random_churn(6, 120, 9)),
    ]
}

/// Observability on, oracle off: both drivers can run the oracle, but the
/// deterministic view leaves out what it adds (the ledger's `unreachable`
/// stamps), so the cross-driver surface is produced without its global
/// reachability pass per step.
fn obs_config(workers: u32) -> ClusterConfig {
    ClusterConfig {
        obs: ObsConfig::enabled(),
        safety_oracle: false,
        workers,
        ..ClusterConfig::default()
    }
}

#[test]
fn observability_off_by_default_costs_nothing_and_yields_empty_artifacts() {
    let scenario = workloads::paper_example();
    let (_, cluster) =
        Cluster::run_seeded(&scenario, ClusterConfig::default(), CausalCollector::new);
    let report = cluster.obs_report();
    assert!(!report.enabled, "default config must keep obs disabled");
    assert!(report.events().is_empty());
    assert_eq!(report.ledger().len(), 0);
}

#[test]
fn sequential_runs_are_byte_identical_in_the_full_view() {
    for (name, scenario) in corpus() {
        let run = || {
            let (_, cluster) = Cluster::run_seeded(&scenario, obs_config(1), CausalCollector::new);
            let report = cluster.obs_report();
            (
                report.metrics_text(TraceView::Full),
                report.trace_jsonl(TraceView::Full),
            )
        };
        let (metrics_a, trace_a) = run();
        let (metrics_b, trace_b) = run();
        assert_eq!(metrics_a, metrics_b, "{name}: metrics must be reproducible");
        assert_eq!(trace_a, trace_b, "{name}: trace must be reproducible");
        validate_jsonl(&trace_a).unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));
    }
}

#[test]
fn parallel_runs_are_byte_identical_in_the_deterministic_view() {
    let scenario = workloads::paper_example();
    let run = || {
        let (_, cluster) =
            ParallelCluster::run_seeded(&scenario, obs_config(3), CausalCollector::new);
        let report = cluster.obs_report();
        (
            report.metrics_text(TraceView::Deterministic),
            report.trace_jsonl(TraceView::Deterministic),
        )
    };
    let (metrics_a, trace_a) = run();
    let (metrics_b, trace_b) = run();
    assert_eq!(metrics_a, metrics_b);
    assert_eq!(trace_a, trace_b);
    validate_jsonl(&trace_a).expect("parallel deterministic trace must validate");
}

/// The deterministic view — schedule-independent registries, det events,
/// ledger without the oracle-only `unreachable` stamp — must agree
/// byte-for-byte between the sequential driver and the parallel driver at
/// 1 and 3 workers, for every collector family.
fn assert_cross_driver_identity<C, F>(label: &str, factory: F)
where
    C: Collector + Send + 'static,
    C::Msg: Send + 'static,
    F: Fn(SiteId) -> C + Clone + Send + 'static,
{
    for (name, scenario) in corpus() {
        let (seq_report, seq) = Cluster::run_seeded(&scenario, obs_config(1), factory.clone());
        let seq_obs = seq.obs_report();
        let seq_metrics = seq_obs.metrics_text(TraceView::Deterministic);
        let seq_trace = seq_obs.trace_jsonl(TraceView::Deterministic);
        validate_jsonl(&seq_trace).unwrap_or_else(|e| panic!("{label}/{name}: {e}"));
        for workers in [1, 3] {
            let (par_report, par) =
                ParallelCluster::run_seeded(&scenario, obs_config(workers), factory.clone());
            let par_obs = par.obs_report();
            assert_eq!(
                seq_metrics,
                par_obs.metrics_text(TraceView::Deterministic),
                "{label}/{name}: deterministic metrics differ at workers={workers}"
            );
            assert_eq!(
                seq_trace,
                par_obs.trace_jsonl(TraceView::Deterministic),
                "{label}/{name}: deterministic trace differs at workers={workers}"
            );
            assert_eq!(
                seq_report.triggered_step, par_report.triggered_step,
                "{label}/{name}: triggered_step differs at workers={workers}"
            );
            assert_eq!(
                seq_report.last_verdict_step, par_report.last_verdict_step,
                "{label}/{name}: last_verdict_step differs at workers={workers}"
            );
            assert_eq!(
                seq_report.detection_latency_steps(),
                par_report.detection_latency_steps(),
                "{label}/{name}: detection latency differs at workers={workers}"
            );
        }
    }
}

#[test]
fn causal_collector_metrics_agree_across_drivers() {
    assert_cross_driver_identity("causal", CausalCollector::new);
}

#[test]
fn reflisting_collector_metrics_agree_across_drivers() {
    assert_cross_driver_identity("reflisting", RefListingCollector::new);
}

/// The widest scenario of the corpus: what the tracing collector's factory
/// must be sized for.
fn corpus_sites() -> u32 {
    corpus()
        .iter()
        .map(|(_, s)| s.site_count())
        .max()
        .unwrap_or(0)
}

#[test]
fn tracing_collector_metrics_agree_across_drivers() {
    assert_cross_driver_identity("tracing", TracingCollector::factory(corpus_sites()));
}

/// Switching observability on must not change what a run does: same
/// reclamation, verdicts, residual garbage, message counts and control
/// bytes as the default (obs-off) configuration.
fn assert_obs_changes_no_outcome<C: Collector>(
    label: &str,
    factory: impl Fn(SiteId) -> C + Clone + 'static,
) {
    let outcome = |report: &RunReport| {
        (
            report.reclaimed,
            report.verdicts,
            report.residual_garbage,
            report.control_messages(),
            report.mutator_messages(),
            report.net.control_bytes_sent(),
        )
    };
    for (name, scenario) in corpus() {
        let enabled = ClusterConfig {
            obs: ObsConfig::enabled(),
            ..ClusterConfig::default()
        };
        let (on, _) = Cluster::run_seeded(&scenario, enabled, factory.clone());
        let (off, _) = Cluster::run_seeded(&scenario, ClusterConfig::default(), factory.clone());
        assert_eq!(outcome(&on), outcome(&off), "{label}/{name}");
    }
}

#[test]
fn enabling_observability_changes_no_outcome_for_any_collector() {
    assert_obs_changes_no_outcome("causal", CausalCollector::new);
    assert_obs_changes_no_outcome("reflisting", RefListingCollector::new);
    assert_obs_changes_no_outcome("tracing", TracingCollector::factory(corpus_sites()));
}

#[test]
fn step_clock_detection_latency_is_populated_on_the_paper_example() {
    let scenario = workloads::paper_example();
    let (report, _) = Cluster::run_seeded(&scenario, obs_config(1), CausalCollector::new);
    let latency = report
        .detection_latency_steps()
        .expect("the paper example must trigger and detect garbage");
    assert!(
        latency <= report.last_verdict_step.unwrap(),
        "latency must be derived from the step clock"
    );
}

#[test]
fn oracle_populates_the_detection_histogram_sequentially() {
    let scenario = workloads::paper_example();
    let config = ClusterConfig {
        obs: ObsConfig::enabled(),
        ..ClusterConfig::default()
    };
    let (_, cluster) = Cluster::run_seeded(&scenario, config, CausalCollector::new);
    let report = cluster.obs_report();
    assert!(
        report.detection_histogram().count > 0,
        "with the oracle on, unreachable→detected latencies must be sampled"
    );
    assert!(report.reclaim_lag_histogram().count > 0);
    assert!(report.lifetime_histogram().count > 0);
    let full = report.metrics_text(TraceView::Full);
    assert!(full.contains("total histogram detection"));
    // The oracle-only stamp must stay out of the deterministic artifacts.
    let det_trace = report.trace_jsonl(TraceView::Deterministic);
    assert!(!det_trace.contains("unreachable"));
}

#[test]
fn crash_faults_keep_the_trace_valid_and_count_recoveries() {
    let scenario = workloads::random_churn(4, 80, 5);
    let config = ClusterConfig {
        obs: ObsConfig::enabled(),
        faults: FaultPlan::new().with_crash(SiteId::new(1), 10, 40),
        durability: DurabilityConfig::memory().with_checkpoint_every(8),
        safety_oracle: false,
        ..ClusterConfig::default()
    };
    let run = || {
        let (_, cluster) = Cluster::run_seeded(&scenario, config.clone(), CausalCollector::new);
        let report = cluster.obs_report();
        assert!(report.total_aux("recoveries") >= 1, "crash must recover");
        assert!(
            report
                .events()
                .iter()
                .any(|e| e.kind == "wal-replay" && !e.det),
            "recovery must emit a wal-replay event"
        );
        (
            report.metrics_text(TraceView::Full),
            report.trace_jsonl(TraceView::Full),
        )
    };
    let (metrics_a, trace_a) = run();
    let (metrics_b, trace_b) = run();
    assert_eq!(metrics_a, metrics_b, "faulted metrics must be reproducible");
    assert_eq!(trace_a, trace_b, "faulted trace must be reproducible");
    validate_jsonl(&trace_a).expect("faulted trace must validate");
}

#[test]
fn wal_replay_events_count_the_tail_each_recovery_replayed() {
    // No checkpoint in the run: each recovery replays the site's whole log,
    // which grows between the two crashes. Each event must count its own
    // tail, not the store's lifetime sum of replayed records.
    let scenario = workloads::random_churn(4, 120, 5);
    let config = ClusterConfig {
        obs: ObsConfig::enabled(),
        durability: DurabilityConfig::memory().with_checkpoint_every(100_000),
        safety_oracle: false,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
    let site = SiteId::new(1);
    let steps = scenario.steps();
    let mut tails = Vec::new();
    for half in steps.chunks(steps.len().div_ceil(2)) {
        for step in half {
            match step {
                Step::Op(op) => cluster.execute(*op),
                Step::Settle => cluster.settle(),
                Step::Membership(ev) => cluster.execute_membership(*ev),
            }
        }
        let before = cluster.store_stats().records_replayed;
        cluster.crash_and_recover(site);
        tails.push(cluster.store_stats().records_replayed - before);
    }
    assert!(
        tails[0] > 0 && tails[1] > tails[0],
        "the log grows between the crashes: {tails:?}"
    );
    let replayed: Vec<u64> = cluster
        .obs_report()
        .events()
        .iter()
        .filter(|e| e.kind == "wal-replay" && e.site == Some(site))
        .flat_map(|e| &e.fields)
        .filter(|(name, _)| *name == "records_replayed")
        .map(|&(_, count)| count)
        .collect();
    assert_eq!(replayed, tails, "each event counts its own tail");
}

#[test]
fn membership_events_land_in_the_deterministic_trace() {
    let base = workloads::random_churn(5, 60, 3);
    let mut saw_handoff = false;
    for seed in 0..6 {
        let spliced = splice_membership(&base, seed);
        let (_, cluster) = Cluster::run_seeded(&spliced, obs_config(1), CausalCollector::new);
        let report = cluster.obs_report();
        let det_trace = report.trace_jsonl(TraceView::Deterministic);
        assert!(
            det_trace.contains("\"kind\":\"membership\""),
            "seed {seed}: every spliced schedule announces membership"
        );
        saw_handoff |= det_trace.contains("\"kind\":\"handoff\"");
        validate_jsonl(&det_trace).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    assert!(saw_handoff, "some schedule must include a planned leave");
}

/// Reproducer for the ledger's `unreachable` stamp (ROADMAP item 4,
/// "Latency"): an object allocated unrooted is unreachable from its
/// allocation step until a link makes it reachable, and the first sighting
/// wins, so the cut that later makes it garbage never moves the stamp. The
/// stamp should be the step of that cut (the unlink, step 5); today it is
/// the allocation step (2), so the `detection` histogram measures lifetime
/// plus detection. Ignored until item 4 lands.
#[test]
#[ignore = "ROADMAP item 4: the unreachable stamp is the alloc step"]
fn the_unreachable_stamp_is_the_step_that_cut_the_object_off() {
    let site = SiteId::new(0);
    let mut s = Scenario::new(1);
    let root = s.alloc(site, true); // step 1
    let object = s.alloc(site, false); // step 2
    s.op(MutatorOp::LinkLocal {
        site,
        from: root,
        to: object,
    }); // step 3
    s.settle(); // step 4
    s.op(MutatorOp::Unlink {
        site,
        from: root,
        to: object,
    }); // step 5
    s.settle(); // step 6
    let config = ClusterConfig {
        obs: ObsConfig::enabled(),
        safety_oracle: true,
        ..ClusterConfig::default()
    };
    let (_, cluster) = Cluster::run_seeded(&s, config, CausalCollector::new);
    let addr = cluster.addr_of(object).expect("the object was allocated");
    let report = cluster.obs_report();
    let (_, lifecycle) = (report.ledger().iter())
        .find(|&(at, _)| at == addr)
        .expect("the ledger records every allocation");
    assert_eq!(lifecycle.allocated, 2);
    assert_eq!(lifecycle.unreachable, Some(5), "stamped by the unlink");
}
