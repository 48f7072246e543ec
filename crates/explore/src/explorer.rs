//! The corpus loop: generate, run, cross-check, shrink, report.

use std::collections::BTreeMap;
use std::fmt;

use ggd_mutator::generator::{ScenarioSpec, SegmentWeights};
use ggd_net::FaultPlan;
use ggd_sim::DurabilityConfig;

use crate::repro;
use crate::runner::{run_triple, CheckFailure, RunMode, Triple, TripleOutcome};
use crate::shrink::shrink;

/// Configuration of one exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExplorerConfig {
    /// Number of `(scenario, fault plan, seed)` triples to run.
    pub corpus: u32,
    /// Master seed; every triple's scenario, fault pick and network seed
    /// derive from it, so `(corpus, seed)` fully determines the run.
    pub seed: u64,
    /// Segment sampling weights.
    pub weights: SegmentWeights,
    /// When true, comprehensiveness divergences shrink and report like
    /// violations instead of only being counted.
    pub strict: bool,
    /// How the causal collector is instantiated (the sabotaged mode is the
    /// explorer's self-test).
    pub mode: RunMode,
    /// Which generated corpus the triples come from.
    pub family: CorpusFamily,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            corpus: 200,
            seed: 7,
            weights: SegmentWeights::default(),
            strict: false,
            mode: RunMode::Standard,
            family: CorpusFamily::Classic,
        }
    }
}

/// The generated corpus an exploration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusFamily {
    /// Generated scenarios under the classic fault matrix, durability off
    /// ([`corpus_triple`]).
    Classic,
    /// Plans from the *crash* fault matrix ([`FaultPlan::crash_matrix`])
    /// on the in-memory durable medium: every site that crashes recovers
    /// by checkpoint-load + WAL replay mid-run (`crash_corpus_triple`).
    Crashes,
    /// A deterministic elastic-membership schedule spliced into every
    /// triple (joins, planned leaves, evictions — see
    /// [`splice_membership`](ggd_mutator::generator::splice_membership)),
    /// plans from the *partition* matrix
    /// ([`FaultPlan::partition_matrix`]), generation biased toward the
    /// zipf hot-churn segment, and the in-memory durable medium so joiners
    /// exercise the WAL-from-first-input path
    /// ([`membership_corpus_triple`]).
    Membership,
}

/// Per-collector aggregate over the corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorTally {
    /// Cluster runs under this collector.
    pub runs: u64,
    /// Objects reclaimed, summed.
    pub reclaimed: u64,
    /// Residual garbage at quiescence, summed.
    pub residual: u64,
    /// GGD verdicts applied, summed.
    pub verdicts: u64,
    /// Safety violations, summed (must stay 0 outside self-test mode).
    pub violations: u64,
}

/// Aggregate statistics of one exploration. Two explorations with the same
/// [`ExplorerConfig`] must produce equal stats — that equality is itself one
/// of the explorer's determinism tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Triples executed.
    pub triples: u64,
    /// Mutator-op steps executed across all triples.
    pub ops: u64,
    /// Per-collector aggregates, keyed by collector name.
    pub collectors: BTreeMap<String, CollectorTally>,
    /// Triples run per fault-plan name.
    pub plans: BTreeMap<String, u64>,
    /// Segments generated per kind.
    pub segments: BTreeMap<&'static str, u64>,
    /// Check failures per kind (hard and soft).
    pub failures: BTreeMap<&'static str, u64>,
    /// Triples with at least one hard (violation-severity) failure.
    pub violating_triples: u64,
    /// Triples with only divergence-severity failures.
    pub diverging_triples: u64,
}

impl CorpusStats {
    fn absorb_report(&mut self, report: &ggd_sim::RunReport) {
        let tally = self.collectors.entry(report.collector.clone()).or_default();
        tally.runs += 1;
        tally.reclaimed += report.reclaimed;
        tally.residual += report.residual_garbage;
        tally.verdicts += report.verdicts;
        tally.violations += report.safety_violations;
    }

    fn absorb(&mut self, triple: &Triple, outcome: &TripleOutcome) {
        self.triples += 1;
        self.ops += triple.op_count() as u64;
        *self.plans.entry(triple.fault.name.clone()).or_default() += 1;
        self.absorb_report(&outcome.causal);
        self.absorb_report(&outcome.tracing);
        if let Some(reflisting) = &outcome.reflisting {
            self.absorb_report(reflisting);
        }
        for failure in &outcome.failures {
            *self.failures.entry(failure.kind()).or_default() += 1;
        }
        if outcome.has_violation() {
            self.violating_triples += 1;
        } else if !outcome.failures.is_empty() {
            self.diverging_triples += 1;
        }
    }
}

impl fmt::Display for CorpusStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "corpus: {} triples, {} mutator ops, {} violating, {} diverging",
            self.triples, self.ops, self.violating_triples, self.diverging_triples
        )?;
        writeln!(
            f,
            "{:<18} {:>6} {:>10} {:>9} {:>9} {:>11}",
            "collector", "runs", "reclaimed", "residual", "verdicts", "violations"
        )?;
        for (name, t) in &self.collectors {
            writeln!(
                f,
                "{:<18} {:>6} {:>10} {:>9} {:>9} {:>11}",
                name, t.runs, t.reclaimed, t.residual, t.verdicts, t.violations
            )?;
        }
        write!(f, "fault plans:")?;
        for (name, count) in &self.plans {
            write!(f, " {name}={count}")?;
        }
        writeln!(f)?;
        write!(f, "segments:")?;
        for (kind, count) in &self.segments {
            write!(f, " {kind}={count}")?;
        }
        writeln!(f)?;
        if self.failures.is_empty() {
            write!(f, "failures: none")?;
        } else {
            write!(f, "failures:")?;
            for (kind, count) in &self.failures {
                write!(f, " {kind}={count}")?;
            }
        }
        Ok(())
    }
}

/// One failing triple, shrunk, with its printable reproducer.
#[derive(Debug, Clone)]
pub struct FailedTriple {
    /// Index of the triple within the corpus.
    pub index: u32,
    /// The failures the original triple produced.
    pub failures: Vec<CheckFailure>,
    /// The kind that was shrunk against.
    pub kind: &'static str,
    /// The minimized triple.
    pub shrunk: Triple,
    /// A paste-ready Rust test snippet reproducing the failure.
    pub reproducer: String,
}

/// The result of one exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Aggregate corpus statistics.
    pub stats: CorpusStats,
    /// Shrunk failures (violations always; divergences only under
    /// [`ExplorerConfig::strict`]).
    pub failures: Vec<FailedTriple>,
}

/// SplitMix64 — the per-triple seed stream derived from the master seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the `index`-th triple of the corpus identified by `seed` and
/// `weights`. Exposed so tests and the property suite can re-create the
/// exact triples the explorer runs.
pub fn corpus_triple(seed: u64, index: u32, weights: &SegmentWeights) -> (ScenarioSpec, Triple) {
    let triple_seed = mix(seed, u64::from(index));
    let spec = ScenarioSpec::generate(triple_seed, weights);
    let built = spec.build(triple_seed);
    let matrix = FaultPlan::matrix(spec.sites);
    let fault = matrix[index as usize % matrix.len()].clone();
    let triple = Triple {
        scenario: built.scenario,
        fault,
        jitter: triple_seed % 3,
        seed: triple_seed >> 8,
        durability: DurabilityConfig::off(),
        cyclic: built.cyclic,
    };
    (spec, triple)
}

/// Builds the `index`-th triple of the *crash* corpus: the same generated
/// scenarios as [`corpus_triple`], but paired with entries of the crash
/// fault matrix and run on the in-memory durable medium, so every scheduled
/// crash exercises the full checkpoint-load + WAL-replay recovery path
/// under differential cross-checks.
pub fn crash_corpus_triple(
    seed: u64,
    index: u32,
    weights: &SegmentWeights,
) -> (ScenarioSpec, Triple) {
    let (spec, mut triple) = corpus_triple(seed, index, weights);
    let matrix = FaultPlan::crash_matrix(spec.sites);
    triple.fault = matrix[index as usize % matrix.len()].clone();
    // A small cadence makes checkpoints (and the DkLog compaction they run)
    // fire even on short generated scenarios.
    triple.durability = DurabilityConfig::memory().with_checkpoint_every(16);
    (spec, triple)
}

/// Builds the `index`-th triple of the *membership* corpus: the generated
/// scenarios of [`corpus_triple`] with generation biased toward the
/// zipf-skewed hot-churn segment, a deterministic membership schedule
/// spliced in, fault plans drawn from the partition matrix
/// (split-and-heal windows), and the in-memory durable medium so a
/// mid-run joiner WAL-logs from its first input. The full matrix —
/// join/leave/evict × partition windows × seeds — runs differentially
/// across all three collectors with the zero-references-to-departed-sites
/// oracle armed.
pub fn membership_corpus_triple(
    seed: u64,
    index: u32,
    weights: &SegmentWeights,
) -> (ScenarioSpec, Triple) {
    let weights = SegmentWeights {
        hot_churn: weights.hot_churn.max(2),
        ..*weights
    };
    let (spec, mut triple) = corpus_triple(seed, index, &weights);
    let triple_seed = mix(seed, u64::from(index));
    triple.scenario = ggd_mutator::generator::splice_membership(&triple.scenario, triple_seed);
    let matrix = FaultPlan::partition_matrix(spec.sites);
    triple.fault = matrix[index as usize % matrix.len()].clone();
    triple.durability = DurabilityConfig::memory().with_checkpoint_every(16);
    (spec, triple)
}

/// Runs the whole exploration described by `config`.
pub fn explore(config: &ExplorerConfig) -> Exploration {
    let mut stats = CorpusStats::default();
    let mut failures = Vec::new();
    for index in 0..config.corpus {
        let build = match config.family {
            CorpusFamily::Classic => corpus_triple,
            CorpusFamily::Crashes => crash_corpus_triple,
            CorpusFamily::Membership => membership_corpus_triple,
        };
        let (spec, triple) = build(config.seed, index, &config.weights);
        for segment in &spec.segments {
            *stats.segments.entry(segment.kind()).or_default() += 1;
        }
        let outcome = run_triple(&triple, config.mode);
        stats.absorb(&triple, &outcome);
        let shrink_worthy =
            outcome.has_violation() || (config.strict && !outcome.failures.is_empty());
        if shrink_worthy {
            let kind = outcome
                .failures
                .iter()
                .find(|f| f.is_violation())
                .or_else(|| outcome.failures.first())
                .map(CheckFailure::kind)
                .expect("failures nonempty");
            let shrunk = shrink(&triple, config.mode, kind);
            let reproducer = repro::reproducer(&shrunk, kind);
            failures.push(FailedTriple {
                index,
                failures: outcome.failures.clone(),
                kind,
                shrunk,
                reproducer,
            });
        }
    }
    Exploration { stats, failures }
}
