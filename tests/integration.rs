//! Cross-crate integration tests: full cluster runs for each workload and
//! collector, judged by the oracle.

use ggd::prelude::*;

fn causal(scenario: &Scenario) -> RunReport {
    let mut cluster =
        Cluster::from_scenario(scenario, ClusterConfig::default(), CausalCollector::new);
    cluster.run(scenario)
}

#[test]
fn paper_example_matches_figure_8_outcome() {
    let report = causal(&workloads::paper_example());
    assert_eq!(report.safety_violations, 0);
    assert_eq!(report.residual_garbage, 0);
    assert_eq!(report.allocated, 4);
    assert_eq!(report.reclaimed, 3, "objects 2, 3 and 4 are garbage");
    assert!(report.verdicts >= 3);
}

#[test]
fn every_workload_is_safe_and_comprehensive_under_the_causal_collector() {
    let scenarios = [
        workloads::paper_example(),
        workloads::doubly_linked_list(5),
        workloads::ring(4),
        workloads::third_party_exchanges(3),
        workloads::garbage_island(6, 3, 2),
        workloads::random_churn(3, 60, 1),
        workloads::random_churn(5, 90, 2),
    ];
    for (i, scenario) in scenarios.iter().enumerate() {
        let report = causal(scenario);
        assert_eq!(report.safety_violations, 0, "workload {i} violated safety");
        assert_eq!(report.residual_garbage, 0, "workload {i} left garbage");
    }
}

#[test]
fn reference_listing_cannot_collect_cycles_but_the_causal_engine_can() {
    let scenario = workloads::ring(5);
    let causal_report = causal(&scenario);
    let mut reflist = Cluster::from_scenario(
        &scenario,
        ClusterConfig::default(),
        RefListingCollector::new,
    );
    let reflist_report = reflist.run(&scenario);
    assert_eq!(causal_report.residual_garbage, 0);
    assert_eq!(reflist_report.residual_garbage, 5);
    assert_eq!(reflist_report.safety_violations, 0);
}

#[test]
fn tracing_blocks_on_a_stalled_site_while_causal_does_not() {
    let scenario = workloads::garbage_island(6, 3, 1);
    let stalled = SiteId::new(5);

    let config = ClusterConfig {
        faults: FaultPlan::new().with_stalled_site(stalled),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
    let report = cluster.run(&scenario);
    assert_eq!(report.residual_garbage, 0, "causal GGD progresses");

    let config = ClusterConfig {
        faults: FaultPlan::new().with_stalled_site(stalled),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::from_scenario(&scenario, config, TracingCollector::factory(6));
    let report = cluster.run(&scenario);
    assert!(
        report.residual_garbage > 0,
        "graph tracing must wait for the stalled site (consensus bottleneck)"
    );
}

#[test]
fn message_loss_only_delays_collection() {
    for seed in [3u64, 5, 8] {
        let scenario = workloads::random_churn(4, 80, seed);
        let config = ClusterConfig {
            faults: FaultPlan::new()
                .with_drop_probability(0.25)
                .with_duplicate_probability(0.25),
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0, "seed {seed}");
    }
}

/// Evaluates a fault-plan expression and also returns its source text.
macro_rules! plan_with_source {
    ($($plan:tt)+) => {
        ($($plan)+, stringify!($($plan)+))
    };
}

#[test]
fn fault_plan_code_is_the_expression_that_built_it() {
    // Every setting a plan holds, each through its builder, in the order
    // `FaultPlan::code` renders them. Shrunk reproducers print this code, so
    // it must compile back to the same plan.
    let (plan, source) = plan_with_source!(FaultPlan::new()
        .with_drop_probability(0.1)
        .with_duplicate_probability(0.05)
        .with_link_fault(
            SiteId::new(0),
            SiteId::new(1),
            LinkFault {
                drop_probability: 0.2,
                duplicate_probability: 0.0,
                extra_delay: 4
            }
        )
        .with_stalled_site(SiteId::new(3))
        .with_crash(SiteId::new(2), 5, 14)
        .with_partition_window(SiteId::new(0), SiteId::new(3), 4, 9));
    let squash = |code: &str| code.split_whitespace().collect::<String>();
    assert_eq!(squash(&plan.code()), squash(source));
}
