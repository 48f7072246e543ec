//! The differential runner: one `(scenario, fault plan, seed)` triple
//! through every collector, cross-checked by the oracle.

use std::collections::BTreeSet;

use ggd_mutator::{ObjName, Scenario};
use ggd_net::{NamedFaultPlan, SimNetworkConfig};
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, Collector, DurabilityConfig, RefListingCollector,
    RunReport, TracingCollector,
};
use ggd_types::{GlobalAddr, SiteId};

use crate::saboteur::SaboteurCollector;

/// One exploration unit: a concrete scenario, a fault-matrix entry, the
/// network seed/jitter, and the generation metadata the checks consume.
/// Everything a run does is a pure function of this value.
#[derive(Debug, Clone, PartialEq)]
pub struct Triple {
    /// The replayable op sequence.
    pub scenario: Scenario,
    /// The fault plan the simulated network injects.
    pub fault: NamedFaultPlan,
    /// Reordering jitter for the simulated network.
    pub jitter: u64,
    /// RNG seed of the simulated network.
    pub seed: u64,
    /// Site durability. Off for the classic fault matrix; the crash-plan
    /// family runs on the in-memory durable medium (crash faults require a
    /// durable backend, enforced by the cluster).
    pub durability: DurabilityConfig,
    /// Objects that end the run as members of disconnected inter-site
    /// cycles. Generation-time knowledge: valid for the scenario exactly as
    /// built, which is why the shrinker never removes ops while minimizing
    /// a cycle-reclaim failure (see [`shrink`](crate::shrink)).
    pub cyclic: Vec<ObjName>,
}

impl Triple {
    /// The cluster configuration this triple runs under.
    pub fn config(&self) -> ClusterConfig {
        ClusterConfig {
            net: SimNetworkConfig::reordering(self.jitter),
            faults: self.fault.plan.clone(),
            seed: self.seed,
            durability: self.durability.clone(),
            ..ClusterConfig::default()
        }
    }

    /// Number of mutator-operation steps (settling points excluded).
    pub fn op_count(&self) -> usize {
        self.scenario
            .steps()
            .iter()
            .filter(|s| matches!(s, ggd_mutator::Step::Op(_)))
            .count()
    }
}

/// How the runner instantiates the causal collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The real collectors — what the explorer normally runs.
    Standard,
    /// Replace the causal collector with the [`SaboteurCollector`] wrapper,
    /// which forges unsafe verdicts. Used to validate end-to-end that the
    /// differential oracle catches an unsafe sweep and that the shrinker
    /// minimizes it.
    SabotagedCausal {
        /// Snapshots to observe before the saboteur starts forging.
        arm_after: u32,
    },
}

/// One check failure. `Violation`-severity failures mean a collector (or
/// the harness) is broken; `Divergence`-severity failures flag behaviour
/// worth a look that known limitations can legitimately produce (see
/// DESIGN.md "Known limitations").
#[derive(Debug, Clone, PartialEq)]
pub enum CheckFailure {
    /// A collector freed objects the oracle still considered reachable.
    Safety {
        /// Which collector.
        collector: String,
        /// How many objects were freed while reachable.
        violations: u64,
    },
    /// Reference listing reclaimed a member of a disconnected inter-site
    /// cycle — impossible for a correct acyclic collector.
    RefListingReclaimedCycle {
        /// The cycle member's symbolic name.
        name: ObjName,
        /// Its concrete address in the run.
        addr: GlobalAddr,
    },
    /// Running the identical triple twice produced different reports.
    NonDeterministicReplay {
        /// Which collector diverged between the two runs.
        collector: String,
    },
    /// On a loss-free plan, the causal collector left garbage behind that
    /// graph tracing reclaimed (the paper's comprehensiveness claim says it
    /// should not). Known churn-interleaving limitations can trigger this,
    /// so it is a divergence, not a violation.
    CausalResidualExceedsTracing {
        /// Garbage present under causal but absent under tracing.
        extra: Vec<GlobalAddr>,
    },
    /// After a *planned* leave, some surviving site's collector state or
    /// heap still referenced the departed site. The reference-handoff
    /// protocol must leave zero trace cluster-wide, so this is a hard
    /// violation for every collector. (Evicted sites are exempt: eviction
    /// is a permanent crash and residual references to it are the expected
    /// conservative outcome.)
    DepartedSiteReferenced {
        /// Which collector.
        collector: String,
        /// The site that completed a planned leave.
        departed: SiteId,
        /// The surviving sites still mentioning it.
        by: Vec<SiteId>,
    },
}

impl CheckFailure {
    /// Stable kind tag, used by statistics and by the shrinker's
    /// "same failure still present" predicate.
    pub fn kind(&self) -> &'static str {
        match self {
            CheckFailure::Safety { .. } => "safety",
            CheckFailure::RefListingReclaimedCycle { .. } => "reflisting-cycle-reclaim",
            CheckFailure::NonDeterministicReplay { .. } => "nondeterministic-replay",
            CheckFailure::CausalResidualExceedsTracing { .. } => "causal-residual-exceeds-tracing",
            CheckFailure::DepartedSiteReferenced { .. } => "departed-site-referenced",
        }
    }

    /// True for hard failures (safety, cycle reclaim, nondeterminism);
    /// false for divergences (comprehensiveness gaps with documented
    /// causes).
    pub fn is_violation(&self) -> bool {
        !matches!(self, CheckFailure::CausalResidualExceedsTracing { .. })
    }
}

/// Everything one differential run produced.
#[derive(Debug, Clone)]
pub struct TripleOutcome {
    /// The causal collector's report.
    pub causal: RunReport,
    /// The tracing collector's report.
    pub tracing: RunReport,
    /// The reference-listing report; `None` on lossy plans (eager
    /// reference listing assumes reliable channels, see EXPERIMENTS.md).
    pub reflisting: Option<RunReport>,
    /// The cross-check failures, hard and soft.
    pub failures: Vec<CheckFailure>,
}

impl TripleOutcome {
    /// True when any hard failure was detected.
    pub fn has_violation(&self) -> bool {
        self.failures.iter().any(CheckFailure::is_violation)
    }

    /// True when a failure of the given kind is present.
    pub fn has_kind(&self, kind: &str) -> bool {
        self.failures.iter().any(|f| f.kind() == kind)
    }
}

/// Collects [`CheckFailure::DepartedSiteReferenced`] entries for every
/// planned-leave departure some surviving site still mentions. Evicted
/// sites are not checked: their residuals are the expected conservative
/// outcome of a permanent crash.
fn departed_ref_failures<C: Collector>(cluster: &Cluster<C>, collector: &str) -> Vec<CheckFailure> {
    cluster
        .departed_sites()
        .iter()
        .filter_map(|&departed| {
            let by = cluster.sites_mentioning(departed);
            (!by.is_empty()).then(|| CheckFailure::DepartedSiteReferenced {
                collector: collector.to_owned(),
                departed,
                by,
            })
        })
        .collect()
}

/// Re-runs a triple's causal-collector run with full observability on and
/// returns the full-view JSONL event timeline (versioned header, events,
/// object-lifecycle lines). Used by the explorer's `--trace` mode to dump
/// the timeline of a failing triple next to its shrunk reproducer, and by
/// the CI obs-smoke job to schema-validate traces over a whole corpus.
/// Replay determinism makes the traced run the *same* run that failed —
/// observability is off-path and never perturbs the schedule.
pub fn trace_triple(triple: &Triple) -> String {
    let config = ClusterConfig {
        obs: ggd_obs::ObsConfig::enabled(),
        ..triple.config()
    };
    let (_, cluster) = Cluster::run_seeded(&triple.scenario, config, CausalCollector::new);
    cluster.obs_report().trace_jsonl(ggd_obs::TraceView::Full)
}

/// Runs a triple's scenario under one causal variant. The variants build
/// different cluster types, so what the checks need of the cluster — the
/// oracle garbage set when `want_garbage`, the departed-site failures — is
/// extracted here, beside the report.
fn run_causal_with<C: Collector>(
    triple: &Triple,
    factory: impl Fn(SiteId) -> C + 'static,
    want_garbage: bool,
) -> (RunReport, BTreeSet<GlobalAddr>, Vec<CheckFailure>) {
    let (report, cluster) = Cluster::run_seeded(&triple.scenario, triple.config(), factory);
    let garbage = if want_garbage {
        cluster.garbage_addrs()
    } else {
        BTreeSet::new()
    };
    let departed = departed_ref_failures(&cluster, &report.collector);
    (report, garbage, departed)
}

/// Runs one triple through every collector and applies the differential
/// checks. When any check fails, the failing collectors are re-run once and
/// the two reports compared, asserting replay determinism.
pub fn run_triple(triple: &Triple, mode: RunMode) -> TripleOutcome {
    let scenario = &triple.scenario;
    let sites = scenario.site_count();
    let mut failures = Vec::new();

    let loss_free = triple.fault.plan.is_loss_free();
    // The oracle reachability pass only matters for the loss-free subset
    // check, so it is skipped on lossy plans and on determinism re-runs —
    // the shrinker calls this hundreds of times per minimization.
    let run_causal = |want_garbage: bool| match mode {
        RunMode::Standard => run_causal_with(triple, CausalCollector::new, want_garbage),
        RunMode::SabotagedCausal { arm_after } => run_causal_with(
            triple,
            move |site| SaboteurCollector::new(site, arm_after),
            want_garbage,
        ),
    };

    let (causal_report, causal_garbage, causal_departed) = run_causal(loss_free);
    failures.extend(causal_departed);
    let (tracing_report, tracing_cluster) =
        Cluster::run_seeded(scenario, triple.config(), TracingCollector::factory(sites));
    failures.extend(departed_ref_failures(
        &tracing_cluster,
        &tracing_report.collector,
    ));

    for (name, report) in [
        (causal_report.collector.clone(), &causal_report),
        (tracing_report.collector.clone(), &tracing_report),
    ] {
        if report.safety_violations > 0 {
            failures.push(CheckFailure::Safety {
                collector: name,
                violations: report.safety_violations,
            });
        }
    }

    let mut reflisting_report = None;
    // An eviction is a permanent crash: in-flight messages to the evicted
    // site are lost no matter what the fault plan says, so the
    // loss-free-only cross-checks are skipped for evicting scenarios.
    if loss_free && !scenario.has_evict() {
        // Comprehensiveness ordering: whatever tracing reclaims on a
        // loss-free plan, the causal engine must reclaim too — i.e. causal
        // residual ⊆ tracing residual, compared as concrete address sets
        // (allocation order is deterministic, so addresses line up across
        // collector runs of the same scenario).
        let tracing_garbage = tracing_cluster.garbage_addrs();
        let extra: Vec<GlobalAddr> = causal_garbage
            .difference(&tracing_garbage)
            .copied()
            .collect();
        if !extra.is_empty() {
            failures.push(CheckFailure::CausalResidualExceedsTracing { extra });
        }

        // Reference listing runs on loss-free plans only: its eager
        // log-keeping protocol assumes reliable channels (a lost AddEntry
        // could make it unsafe), which is part of why the paper prefers
        // lazy causal log-keeping.
        let (rl_report, rl_cluster) =
            Cluster::run_seeded(scenario, triple.config(), RefListingCollector::new);
        if rl_report.safety_violations > 0 {
            failures.push(CheckFailure::Safety {
                collector: rl_report.collector.clone(),
                violations: rl_report.safety_violations,
            });
        }
        failures.extend(departed_ref_failures(&rl_cluster, &rl_report.collector));
        // The `cyclic` metadata describes the scenario as generated; a
        // departure can legitimately turn a listed member into reclaimable
        // acyclic garbage (its cycle loses the departed edge at handoff),
        // so the boundary check only applies to membership-free scenarios.
        if !scenario.has_membership() {
            let reclaimed: BTreeSet<GlobalAddr> = rl_cluster.reclaimed_addrs();
            for &name in &triple.cyclic {
                if let Some(addr) = rl_cluster.addr_of(name) {
                    if reclaimed.contains(&addr) {
                        failures.push(CheckFailure::RefListingReclaimedCycle { name, addr });
                    }
                }
            }
        }
        reflisting_report = Some(rl_report);
    }

    // Replay determinism: failing triples are re-run once and must
    // reproduce bit-identical reports, otherwise the reproducer we print
    // would be worthless.
    if !failures.is_empty() {
        let (causal_again, _, _) = run_causal(false);
        if causal_again != causal_report {
            failures.push(CheckFailure::NonDeterministicReplay {
                collector: causal_report.collector.clone(),
            });
        }
        let (tracing_again, _) =
            Cluster::run_seeded(scenario, triple.config(), TracingCollector::factory(sites));
        if tracing_again != tracing_report {
            failures.push(CheckFailure::NonDeterministicReplay {
                collector: tracing_report.collector.clone(),
            });
        }
        if let Some(rl_report) = &reflisting_report {
            let (rl_again, _) =
                Cluster::run_seeded(scenario, triple.config(), RefListingCollector::new);
            if rl_again != *rl_report {
                failures.push(CheckFailure::NonDeterministicReplay {
                    collector: rl_report.collector.clone(),
                });
            }
        }
    }

    TripleOutcome {
        causal: causal_report,
        tracing: tracing_report,
        reflisting: reflisting_report,
        failures,
    }
}
