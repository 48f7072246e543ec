//! Experiment harness regenerating every figure and quantitative claim of
//! the paper (see DESIGN.md §5 and EXPERIMENTS.md).
//!
//! Each `run_*` function returns printable rows so that the same code backs
//! the `harness` binary, the Criterion benchmarks and the integration tests.

use std::fmt::Write as _;

use ggd_mutator::{workloads, Scenario};
use ggd_net::FaultPlan;
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, Collector, RefListingCollector, RunReport,
    TracingCollector,
};
use ggd_types::SiteId;

/// One row of an experiment table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Independent-variable description (e.g. `k=8` or `p=0.3`).
    pub x: String,
    /// Collector name.
    pub collector: String,
    /// Named measurements, in display order.
    pub values: Vec<(&'static str, f64)>,
}

impl Row {
    fn from_report(x: impl Into<String>, report: &RunReport) -> Row {
        Row {
            x: x.into(),
            collector: report.collector.clone(),
            values: vec![
                ("control_msgs", report.control_messages() as f64),
                ("mutator_msgs", report.mutator_messages() as f64),
                ("reclaimed", report.reclaimed as f64),
                ("residual", report.residual_garbage as f64),
                ("violations", report.safety_violations as f64),
                (
                    "latency",
                    report.detection_latency().map(|l| l as f64).unwrap_or(-1.0),
                ),
            ],
        }
    }
}

/// Renders rows as an aligned text table. Cells are written straight into
/// one output buffer with `write!` — no per-cell `String` allocations.
pub fn render(title: &str, rows: &[Row]) -> String {
    let mut out = String::with_capacity(64 + rows.len() * 128);
    let _ = writeln!(out, "## {title}");
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    let _ = write!(out, "{:<14} {:<12}", "x", "collector");
    for (name, _) in &rows[0].values {
        let _ = write!(out, " {name:>13}");
    }
    out.push('\n');
    for row in rows {
        let _ = write!(out, "{:<14} {:<12}", row.x, row.collector);
        for (_, value) in &row.values {
            let _ = write!(out, " {value:>13.1}");
        }
        out.push('\n');
    }
    out
}

fn run_with<C: Collector>(
    scenario: &Scenario,
    config: ClusterConfig,
    factory: impl Fn(SiteId) -> C + 'static,
) -> RunReport {
    let mut cluster = Cluster::from_scenario(scenario, config, factory);
    cluster.run(scenario)
}

/// Runs a scenario under the causal collector with default configuration.
pub fn run_causal(scenario: &Scenario) -> RunReport {
    run_with(scenario, ClusterConfig::default(), CausalCollector::new)
}

/// E1/E2 — the paper's running example (Figures 3–5 and 8): the report plus
/// the final per-site `DK` logs.
pub fn experiment_paper_example() -> (RunReport, String) {
    let scenario = workloads::paper_example();
    let mut cluster =
        Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
    let report = cluster.run(&scenario);
    let mut logs = String::new();
    for i in 0..scenario.site_count() {
        let site = SiteId::new(i);
        logs.push_str(&format!(
            "--- {site}\n{}",
            cluster.collector(site).engine().log()
        ));
    }
    (report, logs)
}

/// E3 — message complexity of collecting a disconnected doubly-linked list
/// of `k` elements (the §4 Schelvis comparison), causal vs tracing, plus the
/// analytical O(k²) packet count Schelvis' depth-first scheme would need.
pub fn experiment_list_collapse(ks: &[u32]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &k in ks {
        let scenario = workloads::doubly_linked_list(k);
        let report = run_causal(&scenario);
        rows.push(Row::from_report(format!("k={k}"), &report));
        let report = run_with(
            &scenario,
            ClusterConfig::default(),
            TracingCollector::factory(scenario.site_count()),
        );
        rows.push(Row::from_report(format!("k={k}"), &report));
        rows.push(Row {
            x: format!("k={k}"),
            collector: "schelvis*".into(),
            values: vec![("control_msgs", f64::from(k) * f64::from(k))],
        });
    }
    rows
}

/// E4 — robustness: safety and residual garbage under message loss and
/// duplication.
pub fn experiment_faults(probabilities: &[(f64, f64)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(drop_p, dup_p) in probabilities {
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
            seed: 9,
            ..ClusterConfig::default()
        };
        let report = run_with(&scenario, config, CausalCollector::new);
        rows.push(Row::from_report(format!("p={drop_p}/{dup_p}"), &report));
    }
    rows
}

/// E5 — log-keeping overhead on a third-party-exchange workload: the lazy
/// mechanism adds no control messages per exchange, eager reference listing
/// does.
pub fn experiment_lazy_vs_eager(spokes: &[u32]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in spokes {
        let scenario = workloads::third_party_exchanges(n);
        let report = run_causal(&scenario);
        rows.push(Row::from_report(format!("spokes={n}"), &report));
        let report = run_with(
            &scenario,
            ClusterConfig::default(),
            RefListingCollector::new,
        );
        rows.push(Row::from_report(format!("spokes={n}"), &report));
    }
    rows
}

/// E6 — comprehensiveness: inter-site cyclic garbage under each collector.
pub fn experiment_cycles(sizes: &[u32]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &k in sizes {
        let scenario = workloads::ring(k);
        let report = run_causal(&scenario);
        rows.push(Row::from_report(format!("ring={k}"), &report));
        let report = run_with(
            &scenario,
            ClusterConfig::default(),
            TracingCollector::factory(scenario.site_count()),
        );
        rows.push(Row::from_report(format!("ring={k}"), &report));
        let report = run_with(
            &scenario,
            ClusterConfig::default(),
            RefListingCollector::new,
        );
        rows.push(Row::from_report(format!("ring={k}"), &report));
    }
    rows
}

/// E7 — the consensus bottleneck: a garbage island touching 3 of N sites,
/// with one unrelated site stalled for the whole run. The causal collector
/// reclaims the island anyway; the tracing collector reclaims nothing,
/// because the stalled site never acknowledges a round.
pub fn experiment_stalled_site(total_sites: &[u32]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in total_sites {
        let scenario = workloads::garbage_island(n, 3, 2);
        let stalled = SiteId::new(n - 1);
        let config = ClusterConfig {
            faults: FaultPlan::new().with_stalled_site(stalled),
            ..ClusterConfig::default()
        };
        let report = run_with(&scenario, config, CausalCollector::new);
        rows.push(Row::from_report(format!("sites={n}"), &report));
        let config = ClusterConfig {
            faults: FaultPlan::new().with_stalled_site(stalled),
            ..ClusterConfig::default()
        };
        let report = run_with(&scenario, config, TracingCollector::factory(n));
        rows.push(Row::from_report(format!("sites={n}"), &report));
    }
    rows
}

/// E8 — message complexity scales with the amount of garbage, not with the
/// amount of live data: fixed 3-site garbage island, growing live heap.
pub fn experiment_live_population(live_per_site: &[u32]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &live in live_per_site {
        let scenario = workloads::garbage_island(8, 3, live);
        let report = run_causal(&scenario);
        rows.push(Row::from_report(format!("live={live}"), &report));
        let report = run_with(
            &scenario,
            ClusterConfig::default(),
            TracingCollector::factory(8),
        );
        rows.push(Row::from_report(format!("live={live}"), &report));
    }
    rows
}

/// E10 — per-object detection latency over the E-series workloads: each
/// scenario runs sequentially with full observability and the safety
/// oracle on, so the lifecycle ledger records `unreachable → detected`
/// per object. Returns the rendered per-scenario means plus the merged
/// fixed-bucket histogram (logical steps; see DESIGN.md §10).
pub fn experiment_detection_latency() -> String {
    let scenarios: Vec<(&str, Scenario, FaultPlan)> = vec![
        (
            "paper_example",
            workloads::paper_example(),
            FaultPlan::new(),
        ),
        (
            "list_k8",
            workloads::doubly_linked_list(8),
            FaultPlan::new(),
        ),
        (
            "exchanges_n8",
            workloads::third_party_exchanges(8),
            FaultPlan::new(),
        ),
        ("ring_k8", workloads::ring(8), FaultPlan::new()),
        (
            "island_8x3",
            workloads::garbage_island(8, 3, 4),
            FaultPlan::new(),
        ),
        // The delayed-detection case: a split-and-heal window holds the
        // island's verdicts back until the partition heals, so the
        // unreachable→detected latency is measured in scenario steps > 0.
        (
            "island_split",
            workloads::garbage_island(8, 3, 4),
            FaultPlan::new().with_split(4, 5, 40),
        ),
        (
            "churn_8x400",
            workloads::random_churn(8, 400, 21),
            FaultPlan::new(),
        ),
    ];
    let mut merged = ggd_obs::Histogram::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>10} {:>12} {:>12}",
        "scenario", "tracked", "detected", "mean_steps", "max_steps"
    );
    for (name, scenario, faults) in &scenarios {
        let config = ClusterConfig {
            obs: ggd_obs::ObsConfig::enabled(),
            faults: faults.clone(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(scenario, config, CausalCollector::new);
        cluster.run(scenario);
        let report = cluster.obs_report();
        let detection = report.detection_histogram();
        let detected: u64 = report
            .ledger()
            .iter()
            .filter(|(_, l)| l.detected.is_some())
            .count() as u64;
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10} {:>12.1} {:>12}",
            name,
            report.ledger().len(),
            detected,
            detection.mean(),
            detection.max,
        );
        merged.absorb(detection);
    }
    let _ = writeln!(
        out,
        "\nmerged unreachable→detected histogram (logical steps):\n{}",
        merged.render()
    );
    out
}

/// One entry of the performance baseline (see [`baseline`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Scenario identifier, e.g. `"paper_example"`.
    pub scenario: String,
    /// Collector name.
    pub collector: String,
    /// Control (collector overhead) messages sent.
    pub control_msgs: u64,
    /// Mutator (application) messages sent.
    pub mutator_msgs: u64,
    /// Objects reclaimed.
    pub reclaimed: u64,
    /// Residual garbage at quiescence.
    pub residual: u64,
    /// Safety violations (must be zero).
    pub violations: u64,
    /// Detection latency in transport ticks, if GGD triggered.
    pub detection_latency: Option<u64>,
}

impl BaselineEntry {
    fn new(scenario: &str, report: &RunReport) -> BaselineEntry {
        BaselineEntry {
            scenario: scenario.to_owned(),
            collector: report.collector.clone(),
            control_msgs: report.control_messages(),
            mutator_msgs: report.mutator_messages(),
            reclaimed: report.reclaimed,
            residual: report.residual_garbage,
            violations: report.safety_violations,
            detection_latency: report.detection_latency(),
        }
    }
}

/// Runs the canonical scenario set under every applicable collector and
/// returns per-scenario control-message counts and detection latencies —
/// the numbers future PRs diff against for perf-trajectory tracking
/// (`BENCH_baseline.json`).
pub fn baseline() -> Vec<BaselineEntry> {
    let mut entries = Vec::new();
    let mut push = |scenario: &str, report: &RunReport| {
        entries.push(BaselineEntry::new(scenario, report));
    };

    let paper = workloads::paper_example();
    push("paper_example", &run_causal(&paper));
    push(
        "paper_example",
        &run_with(
            &paper,
            ClusterConfig::default(),
            TracingCollector::factory(paper.site_count()),
        ),
    );
    push(
        "paper_example",
        &run_with(&paper, ClusterConfig::default(), RefListingCollector::new),
    );

    let list = workloads::doubly_linked_list(8);
    push("list_collapse_k8", &run_causal(&list));
    push(
        "list_collapse_k8",
        &run_with(
            &list,
            ClusterConfig::default(),
            TracingCollector::factory(list.site_count()),
        ),
    );

    let ring = workloads::ring(8);
    push("ring_k8", &run_causal(&ring));

    let island = workloads::garbage_island(8, 3, 2);
    push("garbage_island_8_3_2", &run_causal(&island));

    let spokes = workloads::third_party_exchanges(8);
    push("third_party_8", &run_causal(&spokes));
    push(
        "third_party_8",
        &run_with(&spokes, ClusterConfig::default(), RefListingCollector::new),
    );

    entries
}

/// Renders baseline entries as a JSON document (hand-rolled: the offline
/// build has no JSON library — see vendor/README.md).
pub fn baseline_json(entries: &[BaselineEntry]) -> String {
    let mut out = String::from("{\n  \"schema\": \"ggd-bench-baseline/v1\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"scenario\": \"{}\", \"collector\": \"{}\", \"control_msgs\": {}, \
             \"mutator_msgs\": {}, \"reclaimed\": {}, \"residual\": {}, \"violations\": {}, \
             \"detection_latency\": ",
            e.scenario,
            e.collector,
            e.control_msgs,
            e.mutator_msgs,
            e.reclaimed,
            e.residual,
            e.violations,
        );
        match e.detection_latency {
            Some(latency) => {
                let _ = write!(out, "{latency}");
            }
            None => out.push_str("null"),
        }
        let _ = writeln!(out, "}}{}", if i + 1 < entries.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_covers_every_scenario_safely() {
        let entries = baseline();
        assert!(entries.len() >= 8);
        for e in &entries {
            assert_eq!(
                e.violations, 0,
                "{}/{} violated safety",
                e.scenario, e.collector
            );
        }
        let causal_paper = entries
            .iter()
            .find(|e| e.scenario == "paper_example" && e.collector == "causal")
            .expect("causal paper-example entry");
        assert_eq!(causal_paper.mutator_msgs, 6);
        assert_eq!(causal_paper.control_msgs, 12);
        assert_eq!(causal_paper.detection_latency, Some(5));
    }

    #[test]
    fn baseline_json_is_well_formed() {
        let entries = baseline();
        let json = baseline_json(&entries);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"scenario\"").count(), entries.len());
        assert!(json.contains("ggd-bench-baseline/v1"));
    }

    #[test]
    fn paper_example_experiment_is_clean() {
        let (report, logs) = experiment_paper_example();
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert!(logs.contains("DK["));
    }

    #[test]
    fn tables_render() {
        let rows = experiment_cycles(&[3]);
        let text = render("cycles", &rows);
        assert!(text.contains("causal"));
        assert!(text.contains("reflisting"));
    }

    #[test]
    fn causal_beats_reflisting_on_cycles() {
        let rows = experiment_cycles(&[4]);
        let causal: f64 = rows
            .iter()
            .find(|r| r.collector == "causal")
            .unwrap()
            .values
            .iter()
            .find(|(n, _)| *n == "residual")
            .unwrap()
            .1;
        let reflist: f64 = rows
            .iter()
            .find(|r| r.collector == "reflisting")
            .unwrap()
            .values
            .iter()
            .find(|(n, _)| *n == "residual")
            .unwrap()
            .1;
        assert_eq!(causal, 0.0);
        assert!(reflist > 0.0);
    }
}
