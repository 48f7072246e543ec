//! The stepping loop every pass shares, the output checks, and the timed
//! (tracing-off) session that yields the end-to-end metrics.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use ggd_causal::CausalMessage;
use ggd_mutator::{MutatorOp, Scenario, Step};
use ggd_net::{SimNetwork, Transport};
use ggd_sim::{CausalCollector, Cluster, ClusterConfig, Collector, RunReport, SimPayload};
use ggd_store::StoreStats;
use ggd_types::SiteId;

use crate::alloc::ALLOC;
use crate::host::{self, Calibration, Calibrator};
use crate::spans::{Name, Tracer};
use crate::stats::{median, percentile_is_reportable, quantile_sorted, relative_iqr, sorted};
use crate::traced::{Capture, Captured, TracedTransport, TransportReading};
use crate::workloads::{base_config, durable, op_count, settle_count, Workload};

/// The payload every benchmark cluster puts on the wire.
pub type Wire = SimPayload<CausalMessage>;
/// The simulated network under every benchmark cluster.
pub type Net = SimNetwork<Wire>;

/// The six `RunReport` counts every pass of one workload must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Objects allocated.
    pub allocated: u64,
    /// Objects reclaimed.
    pub reclaimed: u64,
    /// Unreachable objects still present at quiescence.
    pub residual_garbage: u64,
    /// GGD verdicts applied.
    pub verdicts: u64,
    /// Control messages sent.
    pub control_messages: u64,
    /// Mutator messages sent.
    pub mutator_messages: u64,
}

impl From<&RunReport> for Outcome {
    fn from(r: &RunReport) -> Self {
        Outcome {
            allocated: r.allocated,
            reclaimed: r.reclaimed,
            residual_garbage: r.residual_garbage,
            verdicts: r.verdicts,
            control_messages: r.control_messages(),
            mutator_messages: r.mutator_messages(),
        }
    }
}

/// Outcome checks of one command. Every checked pass submits its op count;
/// a pass whose check fails has all its ops counted as failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Ops submitted across all checked passes.
    pub attempted_ops: u64,
    /// Ops of the passes whose check failed.
    pub failed_ops: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Books a pass of `ops` ops whose check came out `ok`.
    pub fn record(&mut self, what: &str, ops: u64, ok: bool) {
        self.attempted_ops += ops;
        if !ok {
            self.failed_ops += ops;
            self.failures.push(what.to_owned());
        }
    }

    /// Books a pass whose `got` outcome must equal `want`.
    pub fn record_outcome(&mut self, what: &str, ops: u64, got: &Outcome, want: &Outcome) {
        let ok = got == want;
        let what = if ok {
            what.to_owned()
        } else {
            format!("{what}: got {got:?}, want {want:?}")
        };
        self.record(&what, ops, ok);
    }

    /// True while no check has failed.
    pub fn correct(&self) -> bool {
        self.failed_ops == 0 && self.failures.is_empty()
    }

    /// The process exit code: non-zero as soon as any check failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted_ops += other.attempted_ops;
        self.failed_ops += other.failed_ops;
        self.failures.extend(other.failures);
    }
}

fn exec_name(op: &MutatorOp) -> Name {
    match op {
        MutatorOp::Alloc { .. } => Name::ExecAlloc,
        MutatorOp::LinkLocal { .. } => Name::ExecLinkLocal,
        MutatorOp::SendRef { .. } => Name::ExecSendRef,
        MutatorOp::Unlink { .. } => Name::ExecUnlink,
        MutatorOp::ClearRefs { .. } => Name::ExecClearRefs,
        _ => Name::ExecOther,
    }
}

/// Runs `scenario` on `cluster` step by step, exactly as `Cluster::run`
/// does (each scripted step, a final settle, the report), taking an
/// `Instant` only around settles. One loop serves the timed reps (tracer and
/// capture off: one untaken branch each per step) and the traced and
/// capture passes, so all of them measure the same driver code.
pub fn step_through<C, T>(
    cluster: &mut Cluster<C, T>,
    scenario: &Scenario,
    tracer: &Tracer,
    capture: &Capture<SimPayload<C::Msg>>,
    settle_ms: &mut Vec<f64>,
) -> RunReport
where
    C: Collector,
    T: Transport<SimPayload<C::Msg>>,
{
    let mut settle = |cluster: &mut Cluster<C, T>| {
        let start = Instant::now();
        tracer.span(Name::Settle, || cluster.settle());
        settle_ms.push(start.elapsed().as_secs_f64() * 1e3);
    };
    let run = tracer.enter(Name::Run);
    for (index, step) in scenario.steps().iter().enumerate() {
        capture.push(|| Captured::Step(index));
        match step {
            Step::Op(op) => tracer.span(exec_name(op), || cluster.execute(*op)),
            Step::Settle => settle(cluster),
            Step::Membership(ev) => cluster.execute_membership(*ev),
        }
    }
    capture.push(|| Captured::Step(scenario.len()));
    settle(cluster);
    let report = tracer.span(Name::Report, || cluster.report());
    tracer.exit(run);
    report
}

/// The simulated network `config` describes, as `Cluster::new` builds it.
pub fn sim_net(config: &ClusterConfig) -> Net {
    SimNetwork::with_faults(config.net, config.faults.clone(), config.seed)
}

/// A cluster on the plain simulated network, as the timed reps use it.
pub fn plain_cluster(scenario: &Scenario, config: ClusterConfig) -> Cluster<CausalCollector> {
    let net = sim_net(&config);
    Cluster::with_transport(scenario.site_count(), config, net, CausalCollector::new)
}

/// What the reference pass leaves behind.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// The six counts every later pass must reproduce.
    pub outcome: Outcome,
    /// Encoded wire volume of the whole run.
    pub transport: TransportReading,
    /// High-water mark of queued payload bytes, from the network's metrics.
    pub peak_queued_bytes: u64,
    /// WAL and checkpoint counters (zeros for a volatile workload).
    pub store: StoreStats,
}

/// The reference pass: one warm-up rep through `Cluster::run` under the
/// workload's own `config`, over a frame-counting transport. It yields the
/// reference outcome and the encoded byte counts (the truth, not
/// `size_hint`). The wire round trip changes no count of a correct program,
/// so the stepped reps on the plain network must reproduce the outcome.
pub fn reference_pass(scenario: &Scenario, config: ClusterConfig) -> Reference {
    let reading = Rc::new(RefCell::new(TransportReading::default()));
    let net = TracedTransport::new(
        sim_net(&config),
        Tracer::off(),
        true,
        Rc::clone(&reading),
        Capture::off(),
    );
    let mut cluster =
        Cluster::with_transport(scenario.site_count(), config, net, CausalCollector::new);
    let report = cluster.run(scenario);
    let transport = *reading.borrow();
    Reference {
        outcome: Outcome::from(&report),
        transport,
        peak_queued_bytes: report.net.peak_queued_bytes(),
        store: cluster.store_stats(),
    }
}

/// The seed of the count pass. The exact metrics (`ctl_bytes_per_reclaimed`,
/// `ctl_msgs_per_reclaimed`, `reclaim_completeness`, `wal_bytes_per_op`) are
/// properties of one input: across seeds they differ by what the generator
/// drew, not by what the program did (14 to 54 control bytes per reclaimed
/// object over 80 seeds of `remote_churn`). Measured on one pinned input they
/// repeat exactly, so a change that moves them shows at any bound.
pub const COUNT_SEED: u64 = 17;

/// The count pass: the workload at [`COUNT_SEED`] through `Cluster::run` with
/// the durable medium on (so the WAL volume is observable) over the
/// frame-counting transport. Yields the four exact metrics' counts.
pub fn count_pass(workload: &Workload, scale_div: u32) -> (Reference, u64) {
    let scenario = workload.scenario(COUNT_SEED, scale_div);
    let config = ClusterConfig {
        durability: durable(),
        ..base_config()
    };
    (reference_pass(&scenario, config), op_count(&scenario))
}

/// Recoveries one pass of the [`RecoverySampler`] aims to time.
pub const RECOVERY_SAMPLES: u64 = 1024;
/// Slices one pass is stepped in, one slice after each timed rep.
pub const RECOVERY_SLICES: u64 = 8;

/// Times site recoveries, spread over the whole timed session and over every
/// phase of the WAL.
///
/// It steps the scenario on a durable cluster of its own, one slice after
/// each timed rep. After every settle a few sites, taken in rotation, are
/// crashed and recovered on the spot (`Cluster::crash_and_recover`:
/// checkpoint load + WAL tail replay) and each recovery is timed; a slice's
/// samples form one chunk, bracketed by the calibration kernel. The tails of
/// evenly loaded sites grow in lockstep between checkpoints, so recoveries
/// timed at the end of a run only would make the median a sawtooth of the
/// seed (0.44 to 0.90 ms on `ring_reclaim`), and recoveries timed in one
/// two-second window would make the tail whatever the host did in that
/// window. When a pass ends, its outcome is kept for checking and the next
/// slice starts a new pass.
///
/// A volatile workload cannot lend its timed reps for this: checkpoint-time
/// log compaction makes a durable run's counts differ slightly from a
/// volatile run's (4 of 50k reclaimed objects on `remote_churn`).
pub struct RecoverySampler {
    scenario: Scenario,
    cluster: Cluster<CausalCollector>,
    /// Next scripted step; one past the end once the final settle is due.
    cursor: usize,
    settles_per_slice: u64,
    per_settle: u32,
    next_site: u32,
    /// Median and 95th percentile of each chunk, in ms at nominal host speed.
    pub chunks: Vec<(f64, f64)>,
    /// Recoveries timed so far.
    pub samples: usize,
    /// Outcome of the last pass that ran to its end, until taken.
    pub completed: Option<Outcome>,
}

impl RecoverySampler {
    /// A sampler for `scenario`, at the start of its first pass.
    pub fn new(scenario: Scenario) -> Self {
        let settles = settle_count(&scenario) + 1;
        let sites = scenario.site_count();
        RecoverySampler {
            cluster: Self::fresh_cluster(&scenario),
            cursor: 0,
            settles_per_slice: settles.div_ceil(RECOVERY_SLICES),
            per_settle: RECOVERY_SAMPLES.div_ceil(settles).min(u64::from(sites)) as u32,
            next_site: 0,
            chunks: Vec::new(),
            samples: 0,
            completed: None,
            scenario,
        }
    }

    fn fresh_cluster(scenario: &Scenario) -> Cluster<CausalCollector> {
        let config = ClusterConfig {
            durability: durable(),
            ..base_config()
        };
        plain_cluster(scenario, config)
    }

    fn settle_and_recover(&mut self, chunk: &mut Vec<f64>) {
        self.cluster.settle();
        for _ in 0..self.per_settle {
            let start = Instant::now();
            self.cluster.crash_and_recover(SiteId::new(self.next_site));
            chunk.push(start.elapsed().as_secs_f64() * 1e3);
            self.next_site = (self.next_site + 1) % self.scenario.site_count();
        }
    }

    /// Steps the next slice. `before` is the calibration taken just before
    /// this call; the one taken after the slice is returned.
    pub fn advance(&mut self, before: Calibration, calibrator: &mut Calibrator) -> Calibration {
        let mut chunk = Vec::new();
        let mut settles = 0;
        while settles < self.settles_per_slice {
            match self.scenario.steps().get(self.cursor).copied() {
                Some(Step::Op(op)) => self.cluster.execute(op),
                Some(Step::Membership(ev)) => self.cluster.execute_membership(ev),
                Some(Step::Settle) => {
                    self.settle_and_recover(&mut chunk);
                    settles += 1;
                }
                None => {
                    // The final settle ends the pass.
                    self.settle_and_recover(&mut chunk);
                    self.completed = Some(Outcome::from(&self.cluster.report()));
                    self.cluster = Self::fresh_cluster(&self.scenario);
                    self.cursor = 0;
                    break;
                }
            }
            self.cursor += 1;
        }
        let after = calibrator.sample();
        if !chunk.is_empty() {
            let slowdown = (before.slowdown + after.slowdown) / 2.0;
            let (p50, p95) = p50_p95(&chunk);
            self.chunks.push((p50 / slowdown, p95 / slowdown));
            self.samples += chunk.len();
        }
        after
    }
}

/// The reduced-scale oracle pass: the same generator at `1/scale_div` of
/// the objects and ops with `safety_oracle: true`, so every local collection
/// is judged against global reachability. Returns the report.
pub fn oracle_pass(workload: &Workload, seed: u64, scale_div: u32) -> (Scenario, RunReport) {
    let scenario = workload.scenario(seed, scale_div);
    let mut cluster =
        Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
    let report = cluster.run(&scenario);
    (scenario, report)
}

/// Measurements of one stepped rep.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Scenario generation + cluster construction.
    pub setup_s: f64,
    /// Scenario generation alone.
    pub gen_s: f64,
    /// First `execute` to `report()` returned.
    pub wall_s: f64,
    /// High-water mark of live bytes above the level before construction.
    pub peak_live_bytes: usize,
    /// Allocator calls during the rep.
    pub alloc_calls: u64,
    /// Bytes requested during the rep.
    pub alloc_bytes: u64,
    /// The thread's on-CPU share of `wall_s`, where the host reports it.
    pub oncpu_share: Option<f64>,
    /// The rep's six counts.
    pub outcome: Outcome,
}

/// One stepped rep on the plain network with plain collectors: generates
/// the scenario, builds the cluster, steps it. Settle timings go to
/// `settle_ms`; the finished cluster comes back with the measurements.
pub fn plain_rep(
    workload: &Workload,
    seed: u64,
    scale_div: u32,
    config: ClusterConfig,
    settle_ms: &mut Vec<f64>,
) -> (Rep, Cluster<CausalCollector>) {
    let t0 = Instant::now();
    let scenario = workload.scenario(seed, scale_div);
    let gen_s = t0.elapsed().as_secs_f64();
    let baseline = ALLOC.reset_peak();
    let alloc_before = ALLOC.reading();
    let mut cluster = plain_cluster(&scenario, config);
    let setup_s = t0.elapsed().as_secs_f64();

    let oncpu_before = host::oncpu_ns();
    let start = Instant::now();
    let report = step_through(
        &mut cluster,
        &scenario,
        &Tracer::off(),
        &Capture::off(),
        settle_ms,
    );
    let wall_s = start.elapsed().as_secs_f64();
    let oncpu_share = host::oncpu_share(oncpu_before, host::oncpu_ns(), wall_s);
    let alloc_after = ALLOC.reading();
    let rep = Rep {
        setup_s,
        gen_s,
        wall_s,
        peak_live_bytes: ALLOC.peak_bytes().saturating_sub(baseline),
        alloc_calls: alloc_after.calls - alloc_before.calls,
        alloc_bytes: alloc_after.bytes - alloc_before.bytes,
        oncpu_share,
        outcome: Outcome::from(&report),
    };
    (rep, cluster)
}

/// The host readings of a set of reps.
#[derive(Debug, Default)]
pub struct Noise {
    /// The calibration kernel's readings, one per rep.
    pub calib: Vec<Calibration>,
    /// One on-CPU share per rep, where the host reports it.
    pub oncpu_share: Vec<f64>,
}

impl Noise {
    /// Books the calibration taken after `rep` and the rep's on-CPU share.
    pub fn after_rep(&mut self, rep: &Rep, calibration: Calibration) {
        self.calib.push(calibration);
        self.oncpu_share.extend(rep.oncpu_share);
    }

    /// Median wall-clock of the calibration kernel.
    pub fn calib_s(&self) -> f64 {
        median(&self.calib.iter().map(|c| c.seconds).collect::<Vec<_>>())
    }

    /// `(q3 - q1) / median` of the calibration kernel's wall-clock.
    pub fn calib_spread(&self) -> f64 {
        relative_iqr(&self.calib.iter().map(|c| c.seconds).collect::<Vec<_>>())
    }

    /// Median slowdown of the host against the nominal kernel time.
    pub fn slowdown(&self) -> f64 {
        median(&self.calib.iter().map(|c| c.slowdown).collect::<Vec<_>>())
    }

    /// The lowest on-CPU share of any rep (1 where the host reports none).
    pub fn min_oncpu_share(&self) -> f64 {
        self.oncpu_share.iter().copied().fold(1.0, f64::min)
    }

    /// True when the set should carry the `DISTURBED` banner.
    pub fn disturbed(&self) -> bool {
        self.calib_spread() > host::MAX_CALIB_SPREAD
            || self.min_oncpu_share() < host::MIN_ONCPU_SHARE
    }
}

/// Samples a percentile metric needs before it is reported (p95 with ten
/// samples beyond it).
pub const MIN_TAIL_SAMPLES: usize = 200;

/// One rep's wall-clock figures, each divided by the host's slowdown around
/// the rep (the mean of the calibrations on both sides of it).
#[derive(Debug, Clone, Copy)]
struct RepFigures {
    setup_s: f64,
    wall_s: f64,
    /// Median and 95th percentile of the rep's settle steps.
    gc_cycle_ms: (f64, f64),
}

/// Median and nearest-rank 95th percentile of one rep's samples.
fn p50_p95(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    (quantile_sorted(&v, 500), quantile_sorted(&v, 950))
}

/// The timed session of one workload: reference, count and oracle passes up
/// front, then stepped reps with tracing off, each followed by a run of the
/// calibration kernel and a slice of the [`RecoverySampler`]. Every
/// wall-clock figure of a rep is divided by the host's slowdown around that
/// rep (see [`crate::host`]), and a metric is the median over reps (over
/// recovery chunks, for `recover_*`) of the rep's figure. Percentiles are taken per rep for that reason: pooled over reps,
/// the tail would be whichever reps a noisy neighbour slowed down.
pub struct TimedSession {
    /// The workload under measurement.
    pub workload: Workload,
    seed: u64,
    scale_div: u32,
    ops: u64,
    sites: u32,
    reference: Reference,
    /// The count pass's counts and op count, at [`COUNT_SEED`].
    counts: (Reference, u64),
    recovery: RecoverySampler,
    reps: Vec<Rep>,
    /// Each rep's wall-clock figures at nominal host speed.
    figures: Vec<RepFigures>,
    settle_samples: usize,
    /// Host readings, one per rep.
    pub noise: Noise,
    /// Outcome checks so far.
    pub checks: Checks,
}

impl TimedSession {
    /// Generates the workload and runs the reference pass, the count pass
    /// and, given `oracle_div`, the oracle pass at `1/oracle_div` of the
    /// session's scale.
    pub fn start(workload: Workload, seed: u64, scale_div: u32, oracle_div: Option<u32>) -> Self {
        let scenario = workload.scenario(seed, scale_div);
        let ops = op_count(&scenario);
        let mut checks = Checks::default();

        let reference = reference_pass(&scenario, workload.config());
        checks.record(
            "reference pass: a frame failed to decode",
            ops,
            reference.transport.frames.decode_failures == 0,
        );
        let counts = count_pass(&workload, scale_div);
        checks.record(
            "count pass: a frame failed to decode",
            counts.1,
            counts.0.transport.frames.decode_failures == 0,
        );

        if let Some(div) = oracle_div {
            let (small, report) = oracle_pass(&workload, seed, scale_div * div);
            checks.record(
                &format!(
                    "oracle pass: {} safety violations",
                    report.safety_violations
                ),
                op_count(&small),
                report.safety_violations == 0,
            );
        }

        TimedSession {
            workload,
            seed,
            scale_div,
            ops,
            sites: scenario.site_count(),
            reference,
            counts,
            recovery: RecoverySampler::new(scenario),
            reps: Vec::new(),
            figures: Vec::new(),
            settle_samples: 0,
            noise: Noise::default(),
            checks,
        }
    }

    /// Timed reps run so far.
    pub fn reps(&self) -> usize {
        self.reps.len()
    }

    /// True once every percentile metric has its samples over all reps.
    pub fn has_tail_samples(&self) -> bool {
        self.settle_samples >= MIN_TAIL_SAMPLES && self.recovery.samples >= MIN_TAIL_SAMPLES
    }

    /// One timed rep with its outcome check, a calibration, a slice of
    /// recoveries, a calibration. `before` is the calibration taken just
    /// before this call; the last one taken is returned for the next rep.
    pub fn timed_rep(&mut self, before: Calibration, calibrator: &mut Calibrator) -> Calibration {
        let mut settle_ms = Vec::with_capacity(self.settle_samples / self.reps.len().max(1));
        let (rep, _) = plain_rep(
            &self.workload,
            self.seed,
            self.scale_div,
            self.workload.config(),
            &mut settle_ms,
        );
        self.checks.record_outcome(
            &format!("{} rep {}", self.workload.name, self.reps.len()),
            self.ops,
            &rep.outcome,
            &self.reference.outcome,
        );
        let after = calibrator.sample();
        let slowdown = (before.slowdown + after.slowdown) / 2.0;
        let at_nominal = |(p50, p95): (f64, f64)| (p50 / slowdown, p95 / slowdown);
        self.figures.push(RepFigures {
            setup_s: rep.setup_s / slowdown,
            wall_s: rep.wall_s / slowdown,
            gc_cycle_ms: at_nominal(p50_p95(&settle_ms)),
        });
        self.settle_samples += settle_ms.len();
        self.noise.after_rep(&rep, after);
        self.reps.push(rep);

        let after = self.recovery.advance(after, calibrator);
        if let Some(got) = self.recovery.completed.take() {
            let want = &self.reference.outcome;
            if self.workload.durable {
                self.checks
                    .record_outcome("recovery pass", self.ops, &got, want);
            } else {
                // Compaction may move the collector's counts; the mutator's
                // own must not.
                self.checks.record(
                    "recovery pass: the mutator's own counts changed",
                    self.ops,
                    (got.allocated, got.mutator_messages)
                        == (want.allocated, want.mutator_messages),
                );
            }
        }
        after
    }

    /// The end-to-end metrics, by name. Percentile metrics are left out
    /// while they lack the samples to be reported.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        let over_reps = |f: fn(&RepFigures) -> f64| -> f64 {
            median(&self.figures.iter().map(f).collect::<Vec<_>>())
        };
        let (counted, counted_ops) = &self.counts;
        let outcome = &counted.outcome;
        let reclaimed = outcome.reclaimed.max(1) as f64;

        if !self.reps.is_empty() {
            let peaks: Vec<f64> = self.reps.iter().map(|r| r.peak_live_bytes as f64).collect();
            m.insert("setup_s", over_reps(|f| f.setup_s));
            m.insert("ops_per_s", self.ops as f64 / over_reps(|f| f.wall_s));
            m.insert("peak_live_mb", median(&peaks) / (1024.0 * 1024.0));
            m.insert("gc_cycle_p50_ms", over_reps(|f| f.gc_cycle_ms.0));
            if percentile_is_reportable(self.settle_samples, 950) {
                m.insert("gc_cycle_p95_ms", over_reps(|f| f.gc_cycle_ms.1));
            }
        }
        let chunks = &self.recovery.chunks;
        if !chunks.is_empty() {
            m.insert(
                "recover_p50_ms",
                median(&chunks.iter().map(|c| c.0).collect::<Vec<_>>()),
            );
            if percentile_is_reportable(self.recovery.samples, 950) {
                m.insert(
                    "recover_p95_ms",
                    median(&chunks.iter().map(|c| c.1).collect::<Vec<_>>()),
                );
            }
        }
        m.insert(
            "ctl_bytes_per_reclaimed",
            counted.transport.frames.ctl_bytes as f64 / reclaimed,
        );
        m.insert(
            "ctl_msgs_per_reclaimed",
            outcome.control_messages as f64 / reclaimed,
        );
        m.insert(
            "reclaim_completeness",
            outcome.reclaimed as f64 / (outcome.reclaimed + outcome.residual_garbage).max(1) as f64,
        );
        m.insert(
            "wal_bytes_per_op",
            counted.store.wal_bytes_appended as f64 / (*counted_ops).max(1) as f64,
        );
        m
    }

    /// Human-readable context lines: the counts behind the ratios and the
    /// spread of the timed reps.
    pub fn describe(&self) -> Vec<String> {
        let o = &self.reference.outcome;
        let walls = sorted(&self.reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let mut lines = vec![format!(
            "this seed: ops={} sites={} allocated={} reclaimed={} residual={} verdicts={} ctl_msgs={} mut_msgs={} ctl_bytes={}",
            self.ops,
            self.sites,
            o.allocated,
            o.reclaimed,
            o.residual_garbage,
            o.verdicts,
            o.control_messages,
            o.mutator_messages,
            self.reference.transport.frames.ctl_bytes,
        )];
        let c = &self.counts.0;
        lines.push(format!(
            "count pass (seed {COUNT_SEED}, WAL on): ops={} reclaimed={} residual={} ctl_msgs={} ctl_bytes={} wal_bytes={}",
            self.counts.1,
            c.outcome.reclaimed,
            c.outcome.residual_garbage,
            c.outcome.control_messages,
            c.transport.frames.ctl_bytes,
            c.store.wal_bytes_appended,
        ));
        if !walls.is_empty() {
            lines.push(format!(
                "raw rep wall-clock: n={} q1={:.4}s median={:.4}s q3={:.4}s; host slowdown median={:.3}; settle samples={} recovery samples={}",
                walls.len(),
                quantile_sorted(&walls, 250),
                median(&walls),
                quantile_sorted(&walls, 750),
                self.noise.slowdown(),
                self.settle_samples,
                self.recovery.samples,
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn outcome(reclaimed: u64) -> Outcome {
        Outcome {
            allocated: 10,
            reclaimed,
            residual_garbage: 0,
            verdicts: 3,
            control_messages: 12,
            mutator_messages: 6,
        }
    }

    #[test]
    fn a_mismatching_report_fails_the_command() {
        let mut checks = Checks::default();
        checks.record_outcome("rep 0", 100, &outcome(3), &outcome(3));
        assert!(checks.correct());
        assert_eq!(checks.exit_code(), 0);
        assert_eq!((checks.attempted_ops, checks.failed_ops), (100, 0));

        checks.record_outcome("rep 1", 100, &outcome(2), &outcome(3));
        assert!(!checks.correct());
        assert_eq!(checks.exit_code(), 1, "any failure exits non-zero");
        assert_eq!((checks.attempted_ops, checks.failed_ops), (200, 100));
        assert!(checks.failures[0].starts_with("rep 1: got"));
    }

    #[test]
    fn stepping_equals_cluster_run_at_quick_scale() {
        for w in WORKLOADS {
            let scenario = w.scenario(23, 10);
            let mut whole = plain_cluster(&scenario, w.config());
            let want = whole.run(&scenario);
            let mut stepped = plain_cluster(&scenario, w.config());
            let mut settle_ms = Vec::new();
            let got = step_through(
                &mut stepped,
                &scenario,
                &Tracer::off(),
                &Capture::off(),
                &mut settle_ms,
            );
            // Only `Cluster::run` advances the logical step clock.
            let want = RunReport {
                triggered_step: got.triggered_step,
                last_verdict_step: got.last_verdict_step,
                ..want
            };
            assert_eq!(got, want, "{}: stepped run diverged", w.name);
            assert_eq!(
                settle_ms.len() as u64,
                crate::workloads::settle_count(&scenario) + 1
            );
        }
    }

    #[test]
    fn the_reference_pass_is_transparent_at_quick_scale() {
        // Every payload through encode + decode: the six counts still equal
        // the plain run's.
        for w in WORKLOADS {
            let scenario = w.scenario(23, 10);
            let mut plain = plain_cluster(&scenario, base_config());
            let want = Outcome::from(&plain.run(&scenario));
            let reference = reference_pass(&scenario, base_config());
            assert_eq!(reference.outcome, want, "{}", w.name);
            assert_eq!(reference.transport.frames.decode_failures, 0);
            assert!(reference.transport.frames.ctl_bytes > 0);
        }
    }

    /// Recovering sites at settle points changes nothing: a sampler's pass
    /// ends with the outcome of an undisturbed durable run, after exactly
    /// `RECOVERY_SLICES` slices, and starts over.
    #[test]
    fn recovery_slices_complete_a_pass_without_changing_its_outcome() {
        let w = Workload::by_name("wide_durable").unwrap();
        let scenario = w.scenario(23, 10);
        let want = Outcome::from(&plain_cluster(&scenario, w.config()).run(&scenario));
        let mut calibrator = Calibrator::new();
        let mut sampler = RecoverySampler::new(scenario);
        let mut calibration = calibrator.sample();
        for slice in 1..=RECOVERY_SLICES {
            assert_eq!(
                sampler.completed, None,
                "the pass ended before slice {slice}"
            );
            calibration = sampler.advance(calibration, &mut calibrator);
        }
        assert_eq!(sampler.completed.take(), Some(want));
        assert_eq!(sampler.chunks.len() as u64, RECOVERY_SLICES);
        assert!(sampler.samples as u64 >= RECOVERY_SAMPLES);
        assert!(sampler
            .chunks
            .iter()
            .all(|&(p50, p95)| 0.0 < p50 && p50 <= p95));
        sampler.advance(calibration, &mut calibrator);
        assert_eq!(sampler.completed, None, "a new pass has begun");
    }
}
