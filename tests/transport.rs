//! Driver-genericity tests: the paper's scenario runs through the *same*
//! drive loop and shard code on the sequential `Cluster` over the
//! deterministic simulated network and on the `ParallelCluster`'s worker
//! threads, for every collector family, and produces the same outcome.

use ggd::prelude::*;

/// Runs `scenario` through both drivers and returns the sequential report
/// once the two agree on everything scheduling cannot change: what was
/// reclaimed, what remains and the mutator traffic (control-message counts
/// may differ — delivery interleaving on threads is scheduler-dependent,
/// and GGD propagation adapts to it). Both runs are judged by the live
/// oracle and by the end-of-run dangling-reference check.
fn run_both<C>(
    scenario: &Scenario,
    factory: impl Fn(SiteId) -> C + Clone + Send + 'static,
    label: &str,
) -> RunReport
where
    C: Collector + Send + 'static,
    C::Msg: Send + 'static,
{
    let mut cluster = Cluster::from_scenario(scenario, ClusterConfig::default(), factory.clone());
    let sim = cluster.run(scenario);
    assert_eq!(sim.safety_violations, 0, "{label}: safety violated");
    let dangling = cluster.dangling_refs();
    assert!(dangling.is_empty(), "{label}: {dangling:?}");

    let config = ClusterConfig {
        workers: 2,
        ..ClusterConfig::default()
    };
    let (parallel, cluster) = ParallelCluster::run_seeded(scenario, config, factory);
    assert_eq!(
        parallel.safety_violations, 0,
        "{label}/parallel: safety violated"
    );
    let dangling = cluster.dangling_refs();
    assert!(dangling.is_empty(), "{label}/parallel: {dangling:?}");
    assert_eq!(sim.reclaimed, parallel.reclaimed, "{label}: reclaimed");
    assert_eq!(
        sim.residual_garbage, parallel.residual_garbage,
        "{label}: residual"
    );
    assert_eq!(
        sim.mutator_messages(),
        parallel.mutator_messages(),
        "{label}: mutator traffic"
    );
    sim
}

#[test]
fn causal_collector_agrees_across_transports() {
    let report = run_both(&workloads::paper_example(), CausalCollector::new, "causal");
    assert_eq!(report.residual_garbage, 0);
    assert_eq!(report.reclaimed, 3, "objects 2, 3 and 4 are garbage");
}

#[test]
fn tracing_collector_agrees_across_transports() {
    let scenario = workloads::paper_example();
    let factory = TracingCollector::factory(scenario.site_count());
    assert_eq!(run_both(&scenario, factory, "tracing").residual_garbage, 0);
}

#[test]
fn reflisting_collector_agrees_across_transports() {
    // Reference listing is *not* comprehensive: the paper example's garbage
    // {2, 3, 4} is a distributed cycle, which acyclic schemes can never
    // reclaim (§3 of the paper). Both drivers must exhibit the identical
    // gap — safety holds, and exactly the cycle is left behind.
    let report = run_both(
        &workloads::paper_example(),
        RefListingCollector::new,
        "reflisting",
    );
    assert_eq!(
        report.residual_garbage, 3,
        "the disconnected cycle stays in place under reference listing"
    );
}

#[test]
fn parallel_cluster_handles_structured_garbage_workloads() {
    // Beyond the paper example: rings and islands exercise multi-hop GGD
    // propagation under scheduler-dependent delivery interleaving.
    for (label, scenario, expected_reclaimed) in [
        ("ring", workloads::ring(5), 5),
        ("island", workloads::garbage_island(6, 3, 2), 3),
        ("list", workloads::doubly_linked_list(4), 4),
    ] {
        let report = run_both(&scenario, CausalCollector::new, label);
        assert_eq!(report.residual_garbage, 0, "{label}: left garbage behind");
        assert_eq!(report.reclaimed, expected_reclaimed, "{label}");
    }
}
