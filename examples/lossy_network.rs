//! Robustness demonstration: the same churning workload is run over networks
//! that drop and duplicate control messages, and then the paper's example
//! runs on real OS threads through the parallel driver (the same drive loop
//! and site code). Safety is never compromised; loss only leaves residual
//! garbage (§1/§5 of the paper).
//!
//! ```sh
//! cargo run --example lossy_network
//! ```

use ggd::prelude::*;

fn main() {
    println!("== random churn over an unreliable network (causal collector) ==");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12}",
        "drop p", "dup p", "violations", "residual", "ctrl msgs"
    );
    for (drop_p, dup_p) in [(0.0, 0.0), (0.1, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3)] {
        let scenario = workloads::random_churn(4, 120, 42);
        let mut faults = FaultPlan::new();
        if drop_p > 0.0 {
            faults = faults.with_drop_probability(drop_p);
        }
        if dup_p > 0.0 {
            faults = faults.with_duplicate_probability(dup_p);
        }
        let config = ClusterConfig {
            faults,
            seed: 7,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
        let report = cluster.run(&scenario);
        println!(
            "{:>10.2} {:>10.2} {:>12} {:>12} {:>12}",
            drop_p,
            dup_p,
            report.safety_violations,
            report.residual_garbage,
            report.control_messages()
        );
    }
    println!();
    println!(
        "safety violations must stay at 0; residual garbage may appear once messages are lost."
    );

    println!();
    println!("== the paper's running example over real OS threads (2 workers) ==");
    let scenario = workloads::paper_example();
    let config = ClusterConfig {
        workers: 2,
        safety_oracle: false,
        ..ClusterConfig::default()
    };
    let (report, _) = ParallelCluster::run_seeded(&scenario, config, CausalCollector::new);
    println!("{report}");
    println!(
        "delivery interleaving across workers is scheduler-dependent, yet the outcome matches \
         the simulation: reclaimed = {}, residual = {}, violations = {}",
        report.reclaimed, report.residual_garbage, report.safety_violations
    );
}
