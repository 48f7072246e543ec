//! The parallel driver: the same execution core, scheduled across worker
//! threads and fed through mailboxes carrying shard commands and encoded
//! wire frames.
//!
//! [`ParallelCluster`] differs from the sequential [`Cluster`](crate::Cluster)
//! only in who runs what where:
//!
//! * **Workers** each own one shard (`shard.rs`) hosting a share of the sites
//!   (round robin by site id; with as many workers as sites this
//!   degenerates to one site per worker) and consume a mailbox: shard
//!   commands from the coordinator and inter-site wire frames from each
//!   other. Inter-site traffic is exchanged worker-to-worker as
//!   length-prefixed encoded [`Frame`]s (the `ggd-store`-backed codec), so
//!   byte metrics measure real serialized cost and no payload value ever
//!   crosses a thread boundary.
//! * **The coordinator** (the calling thread) owns the planner (`plan.rs`):
//!   it plans each scenario step, routes the resulting commands to the
//!   worker hosting the site (or to all of them), and detects quiescence.
//!   Planning needs no round-trip — allocation addresses are predicted, and
//!   the shard asserts the prediction.
//!
//! Quiescence replaces the sequential settle loop's "poll until the
//! transport is empty" with a **termination barrier**: a global in-flight
//! credit counter. A worker increments it *before* handing a frame to a
//! mailbox and decrements it only after the receiving worker has fully
//! processed the frame — including enqueuing any frames that processing
//! produced — so `in_flight == 0` is a stable property: once observed
//! during a drain phase, no worker can reintroduce traffic. Each settle is
//! an op barrier (every worker has consumed its command backlog) followed
//! by rounds of drain-then-collect — deliver everything, collect
//! everywhere — until a round processes and emits nothing.
//!
//! What stays deterministic and what does not: everything the planner
//! decides is a pure function of the scenario and config, and every site
//! executes its commands in planning order, but frame arrival order across
//! workers is scheduler-dependent, so runs are not bit-reproducible. This
//! driver is opt-in via [`ClusterConfig::workers`].
//!
//! It is the workspace's one concurrent backend, and its role is an
//! asynchrony/correctness harness — the same planner and shard code under
//! real threads, encoded frames and the termination barrier — not a scaling
//! path: measured at two workers it is slower than the sequential driver on
//! every benchmark workload (DESIGN.md §8).

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

use ggd_heap::SiteHeap;
use ggd_mutator::{MembershipEvent, MutatorOp, Scenario, Step};
use ggd_net::{Frame, NetMetrics};
use ggd_obs::{ObsReport, SiteObs};
use ggd_store::StoreStats;
use ggd_types::{GlobalAddr, SiteId};

use crate::cluster::{ClusterConfig, SETTLE_ROUNDS};
use crate::collector::{Collector, SimPayload};
use crate::oracle::Oracle;
use crate::plan::{Phase, Planner, ShardCommand, SiteOp};
use crate::report::{record_net, record_store, RunReport};
use crate::shard::{Outbox, Shard};

/// How long a worker spins on the termination barrier, or the coordinator
/// on a phase acknowledgement, before declaring the run wedged. Only a bug
/// (a lost credit, a dead worker) can exhaust it; panicking beats hanging.
const PHASE_DEADLINE: Duration = Duration::from_secs(60);

/// A collector factory that can move to a worker thread.
type SendFactory<C> = Box<dyn Fn(SiteId) -> C + Send>;

/// A shard whose collector factory can move to a worker thread.
type WorkerShard<C> = Shard<C, SendFactory<C>>;

/// Counters shared by the coordinator and every worker. `in_flight` is the
/// termination barrier's credit count; the rest feed the run report.
#[derive(Debug, Default)]
struct SharedState {
    /// Frames enqueued but not yet fully processed (credit scheme: raised
    /// before the mailbox send, lowered after the handler *and its
    /// descendant sends* complete).
    in_flight: AtomicU64,
    /// High-water mark of `in_flight` — how deep the termination barrier's
    /// credit pool ever got. Reported on the settle trace event.
    credit_hwm: AtomicU64,
    /// Total frames ever enqueued — settle rounds diff this to detect
    /// collect phases that emitted traffic.
    frames_sent: AtomicU64,
    /// The logical clock: frames processed so far (the transports'
    /// delivered-messages clock, for mailboxes).
    deliveries: AtomicU64,
    /// Wire bytes currently sitting in worker mailboxes.
    queued_bytes: AtomicU64,
    /// High-water mark of `queued_bytes`, in real encoded frame bytes.
    peak_queued_bytes: AtomicU64,
}

/// One item in a worker's mailbox. Items that reach runtime entry points
/// carry the coordinator's logical scenario step, so worker-side probes
/// stamp driver-independent timestamps (frames are only processed during
/// globally synchronized drain phases, so the drain-carried step is
/// race-free).
enum Command {
    /// A planner command for this worker's shard, with its scenario step.
    Exec(ShardCommand, u64),
    /// An encoded inter-site frame. Stashed outside drain phases so frames
    /// never overtake the command stream: delivery happens only inside a
    /// settle, under every driver.
    Frame {
        from: SiteId,
        to: SiteId,
        frame: Frame,
    },
    /// Acknowledge that every earlier command has been consumed.
    Barrier,
    /// Drain phase: process stashed and incoming frames until the global
    /// in-flight count reaches zero, then acknowledge.
    Drain(u64),
    /// Hand the shard, the wire metrics and the stale exports back to the
    /// coordinator and exit.
    Shutdown,
}

/// A worker's acknowledgement or final state.
enum Reply<C: Collector> {
    AtBarrier,
    DrainDone { processed: u64 },
    Finished(Box<(WorkerShard<C>, NetMetrics, BTreeSet<GlobalAddr>)>),
}

impl<C: Collector> Reply<C> {
    fn kind(&self) -> &'static str {
        match self {
            Reply::AtBarrier => "barrier",
            Reply::DrainDone { .. } => "drain",
            Reply::Finished(_) => "finished",
        }
    }
}

/// A worker's sending side: encodes payloads into frames, mails them to the
/// worker hosting the destination and keeps the credit and byte ledgers.
struct Wire {
    /// Every worker's mailbox (index = worker).
    mailboxes: Vec<Sender<Command>>,
    shared: Arc<SharedState>,
    metrics: NetMetrics,
}

fn worker_of(site: SiteId, workers: usize) -> usize {
    site.index() as usize % workers
}

impl<M> Outbox<M> for Wire
where
    SimPayload<M>: ggd_net::WireCodec,
{
    /// Encodes `payload` into a wire frame and mails it to the worker
    /// hosting `to`. The in-flight credit is raised *before* the send so
    /// the termination barrier can never observe a frame-shaped gap.
    fn post(&mut self, from: SiteId, to: SiteId, payload: SimPayload<M>) {
        let frame = Frame::encode(&payload);
        let len = self.metrics.record_frame_sent(&frame) as u64;
        let shared = &self.shared;
        let queued = shared.queued_bytes.fetch_add(len, Ordering::SeqCst) + len;
        shared.peak_queued_bytes.fetch_max(queued, Ordering::SeqCst);
        let credited = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        shared.credit_hwm.fetch_max(credited, Ordering::SeqCst);
        shared.frames_sent.fetch_add(1, Ordering::SeqCst);
        let dest = worker_of(to, self.mailboxes.len());
        if self.mailboxes[dest]
            .send(Command::Frame { from, to, frame })
            .is_err()
        {
            // Teardown race (coordinator gone): release the credit so any
            // worker still draining can terminate.
            shared.queued_bytes.fetch_sub(len, Ordering::SeqCst);
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn now(&self) -> u64 {
        self.shared.deliveries.load(Ordering::SeqCst)
    }
}

/// One worker thread: a shard plus its mailbox plumbing.
struct Worker<C: Collector> {
    index: usize,
    shard: WorkerShard<C>,
    wire: Wire,
    /// Frames received outside a drain phase, still holding their credit.
    pending: VecDeque<(SiteId, SiteId, Frame)>,
    /// Objects a hosted site exported after it had already freed them.
    stale_exports: BTreeSet<GlobalAddr>,
    replies: Sender<Reply<C>>,
}

impl<C> Worker<C>
where
    C: Collector,
    C::Msg: Send + 'static,
{
    fn run(mut self, rx: Receiver<Command>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Command::Exec(command, step) => {
                    self.note_stale_export(&command);
                    self.shard.step = step;
                    self.shard.execute(command, &mut self.wire);
                }
                Command::Frame { from, to, frame } => self.pending.push_back((from, to, frame)),
                Command::Barrier => {
                    let _ = self.replies.send(Reply::AtBarrier);
                }
                Command::Drain(step) => {
                    self.shard.step = step;
                    let processed = self.drain(&rx);
                    let _ = self.replies.send(Reply::DrainDone { processed });
                }
                Command::Shutdown => {
                    let state = Box::new((self.shard, self.wire.metrics, self.stale_exports));
                    let _ = self.replies.send(Reply::Finished(state));
                    return;
                }
            }
        }
    }

    /// Records a `SendRef` whose target its own site has already freed. The
    /// scenario names objects by handle, so it can export an object after
    /// its death; the reference that lands then dangles through no fault
    /// of the collector (see [`ParallelCluster::dangling_refs`]).
    fn note_stale_export(&mut self, command: &ShardCommand) {
        if let ShardCommand::Op(site, SiteOp::SendRef { target, .. }) = *command {
            let shard = &self.shard;
            if target.site() == site
                && shard.is_up(site)
                && !shard.site(site).heap().contains(target.object())
            {
                self.stale_exports.insert(target);
            }
        }
    }

    /// Processes frames — the stash first, then live arrivals — until the
    /// global in-flight credit reaches zero. Zero is stable inside a drain
    /// phase: every worker is draining, and only frame processing (which
    /// holds a credit) can enqueue new frames.
    fn drain(&mut self, rx: &Receiver<Command>) -> u64 {
        let mut processed = 0;
        let deadline = Instant::now() + PHASE_DEADLINE;
        loop {
            while let Some((from, to, frame)) = self.pending.pop_front() {
                self.process_frame(from, to, frame);
                processed += 1;
            }
            match rx.try_recv() {
                Ok(Command::Frame { from, to, frame }) => {
                    self.process_frame(from, to, frame);
                    processed += 1;
                }
                Ok(_) => unreachable!("only frames are in flight during a drain phase"),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    let credited = self.wire.shared.in_flight.load(Ordering::SeqCst);
                    if credited == 0 {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "worker {} drain stalled with {credited} frames credited — termination barrier bug",
                        self.index,
                    );
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(Command::Frame { from, to, frame }) => {
                            self.process_frame(from, to, frame);
                            processed += 1;
                        }
                        Ok(_) => unreachable!("only frames are in flight during a drain phase"),
                        Err(_) => {}
                    }
                }
            }
        }
        processed
    }

    /// Consumes one frame: decode at the mailbox, deliver to the hosted
    /// runtime (or drop as loss if the site is down or a partition window
    /// separates the link), then release the credit — strictly after
    /// any descendant sends were enqueued.
    fn process_frame(&mut self, from: SiteId, to: SiteId, frame: Frame) {
        let wire = &mut self.wire;
        let shared = &wire.shared;
        shared
            .queued_bytes
            .fetch_sub(frame.wire_len() as u64, Ordering::SeqCst);
        let now = shared.deliveries.load(Ordering::SeqCst);
        if self.shard.is_up(to) && !self.shard.config.faults.partition_drops(from, to, now) {
            let payload: SimPayload<C::Msg> = frame
                .decode()
                .expect("wire frame decodes back to the payload that was sent");
            wire.metrics.record_frame_delivered(&frame);
            shared.deliveries.fetch_add(1, Ordering::SeqCst);
            self.shard.deliver(from, to, payload, wire);
        } else {
            // The site is down (or between crash and recover), or the link
            // is cut at the delivery clock: the frame dies, counted as loss
            // — the simulated network's semantics.
            wire.metrics.record_frame_dropped(&frame);
        }
        wire.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The coordinator side of a parallel run, while workers are live.
struct Coordinator<C: Collector> {
    config: ClusterConfig,
    planner: Planner,
    mailboxes: Vec<Sender<Command>>,
    replies: Receiver<Reply<C>>,
    shared: Arc<SharedState>,
    /// The logical step clock — counts scenario steps (first step = 1,
    /// end-of-run completion = one more) and rides on every mailed command.
    step: u64,
    /// Cluster-scope observability handle.
    obs: SiteObs,
}

impl<C: Collector> Coordinator<C> {
    fn advance_step(&mut self) {
        self.step += 1;
        self.obs.set_step(self.step);
    }

    fn broadcast(&self, make: impl Fn() -> Command) {
        for mailbox in &self.mailboxes {
            let _ = mailbox.send(make());
        }
    }

    /// Mails one planner command to the worker hosting its site, or to
    /// every worker. FIFO mailboxes keep each site's commands in planning
    /// order.
    fn issue(&self, command: ShardCommand) {
        match command.site() {
            Some(site) => {
                let owner = worker_of(site, self.mailboxes.len());
                let _ = self.mailboxes[owner].send(Command::Exec(command, self.step));
            }
            None => self.broadcast(|| Command::Exec(command.clone(), self.step)),
        }
    }

    /// Waits for one acknowledgement of `expected` kind from every worker,
    /// returning the summed drain counts. Panics (rather than hangs) when a
    /// worker goes silent — the stress suite asserts the termination
    /// barrier cannot deadlock.
    fn await_acks(&self, expected: &'static str) -> u64 {
        let mut processed = 0;
        for _ in &self.mailboxes {
            match self.replies.recv_timeout(PHASE_DEADLINE) {
                Ok(Reply::DrainDone { processed: p }) if expected == "drain" => processed += p,
                Ok(Reply::AtBarrier) if expected == "barrier" => {}
                Ok(other) => panic!(
                    "parallel protocol violation: got {} while awaiting {expected} acks",
                    other.kind()
                ),
                Err(_) => panic!("parallel {expected} phase stalled — a worker went silent"),
            }
        }
        processed
    }

    fn barrier(&self) {
        self.broadcast(|| Command::Barrier);
        self.await_acks("barrier");
    }

    /// The parallel settle: an op barrier, then rounds of drain-then-
    /// collect until a round neither processed nor emitted a frame. The
    /// round counter survives only as the safety valve; progress itself is
    /// judged by the termination barrier.
    fn settle(&mut self) {
        let step = self.step;
        let mut rounds: u64 = 0;
        let mut delivered: u64 = 0;
        self.barrier();
        for _ in 0..SETTLE_ROUNDS {
            rounds += 1;
            self.lifecycle();
            self.broadcast(|| Command::Drain(step));
            let processed = self.await_acks("drain");
            delivered += processed;
            self.lifecycle();
            let before = self.shared.frames_sent.load(Ordering::SeqCst);
            self.issue(ShardCommand::CollectAll);
            self.barrier();
            let emitted = self.shared.frames_sent.load(Ordering::SeqCst) - before;
            if processed == 0 && emitted == 0 && self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
        }
        // Round/delivery counts are schedule-shaped (drain waves, not a
        // per-delivery loop) — a non-deterministic event. The credit
        // high-water mark is the run-so-far peak of the termination
        // barrier's in-flight pool.
        self.obs.event(
            "settle",
            false,
            &[
                ("rounds", rounds),
                ("delivered", delivered),
                ("credit_hwm", self.shared.credit_hwm.load(Ordering::SeqCst)),
            ],
        );
    }

    /// Applies the crash schedule against the shared delivery clock,
    /// sampled at op dispatch and settle-round boundaries (crash windows
    /// opening mid-drain take effect at the next boundary).
    fn lifecycle(&mut self) {
        let now = self.shared.deliveries.load(Ordering::SeqCst);
        for command in self.planner.lifecycle(now) {
            self.issue(command);
        }
    }

    fn dispatch(&mut self, op: MutatorOp) {
        self.lifecycle();
        if let Some(command) = self.planner.plan_op(op) {
            self.issue(command);
        }
    }

    /// Runs the planner's script for one membership event, the settle
    /// barriers serving as its quiesce points.
    fn execute_membership(&mut self, ev: MembershipEvent) {
        self.lifecycle();
        for phase in self.planner.plan_membership(ev) {
            match phase {
                Phase::Settle => self.settle(),
                Phase::Run(command) => self.issue(command),
                Phase::Event(kind, fields) => self.obs.event(kind, true, &fields),
            }
        }
    }
}

/// The end state of a parallel run: every worker's shard merged back into
/// one on the calling thread, ready for oracle inspection.
pub struct ParallelCluster<C: Collector> {
    shard: WorkerShard<C>,
    planner: Planner,
    /// Cluster-scope observability handle (network aggregates already
    /// absorbed as auxiliary gauges at end of run).
    obs: SiteObs,
    /// Objects exported by their own site after it had freed them.
    stale_exports: BTreeSet<GlobalAddr>,
}

impl<C> ParallelCluster<C>
where
    C: Collector + Send + 'static,
    C::Msg: Send + 'static,
{
    /// Runs `scenario` on [`ClusterConfig::workers`] worker threads and
    /// returns the report together with the reassembled cluster state.
    ///
    /// Takes the inputs of [`Cluster::run_seeded`](crate::Cluster::run_seeded)
    /// and plans the same commands from them, but the run is *not*
    /// deterministic: frame interleaving across workers is
    /// scheduler-dependent. [`ClusterConfig::safety_oracle`] is ignored (no
    /// consistent global heap view exists mid-run); safety is checked by the
    /// sequential-equivalence suite and, at end of run, by
    /// [`ParallelCluster::dangling_refs`] instead. Of [`ClusterConfig::faults`], only the
    /// crash schedule and partition windows apply, both against the
    /// delivered-frame clock.
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` is zero, or when crash faults are
    /// scheduled without durability.
    pub fn run_seeded(
        scenario: &Scenario,
        config: ClusterConfig,
        factory: impl Fn(SiteId) -> C + Clone + Send + 'static,
    ) -> (RunReport, Self) {
        assert!(
            config.workers >= 1,
            "the parallel driver requires ClusterConfig::workers >= 1"
        );
        let site_count = scenario.site_count();
        let mut planner = config.planner(site_count);
        if scenario.has_membership() {
            planner.track_legality();
        }
        let workers = (config.workers as usize).min(site_count.max(1) as usize);
        let shared = Arc::new(SharedState::default());

        // Build the shards and the mailbox mesh.
        let (reply_tx, replies) = unbounded::<Reply<C>>();
        let (mailboxes, receivers): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| unbounded::<Command>()).unzip();
        let mut handles = Vec::with_capacity(workers);
        for (index, rx) in receivers.into_iter().enumerate() {
            let hosted = (0..site_count)
                .map(SiteId::new)
                .filter(|&site| worker_of(site, workers) == index);
            let factory: SendFactory<C> = Box::new(factory.clone());
            let worker = Worker {
                index,
                shard: Shard::new(hosted, config.clone(), factory),
                wire: Wire {
                    mailboxes: mailboxes.clone(),
                    shared: Arc::clone(&shared),
                    metrics: NetMetrics::new(),
                },
                pending: VecDeque::new(),
                stale_exports: BTreeSet::new(),
                replies: reply_tx.clone(),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ggd-worker-{index}"))
                    .spawn(move || worker.run(rx))
                    .expect("spawn worker thread"),
            );
        }
        drop(reply_tx);

        let obs = SiteObs::new(None, &config.obs);
        let mut coordinator = Coordinator::<C> {
            config,
            planner,
            mailboxes,
            replies,
            shared: Arc::clone(&shared),
            step: 0,
            obs,
        };

        // Drive the scenario: ops stream to the shards, settles synchronize.
        for step in scenario.steps() {
            coordinator.advance_step();
            match step {
                Step::Op(op) => coordinator.dispatch(*op),
                Step::Settle => coordinator.settle(),
                Step::Membership(ev) => coordinator.execute_membership(*ev),
            }
        }
        coordinator.advance_step();
        coordinator.settle();
        let stragglers = coordinator.planner.recover_all();
        if !stragglers.is_empty() {
            for command in stragglers {
                coordinator.issue(command);
            }
            coordinator.settle();
        }

        // Shut down and reassemble.
        coordinator.broadcast(|| Command::Shutdown);
        let factory: SendFactory<C> = Box::new(factory);
        let mut shard = Shard::new(std::iter::empty(), coordinator.config, factory);
        let mut net = NetMetrics::new();
        let mut stale_exports = BTreeSet::new();
        for _ in 0..workers {
            match coordinator.replies.recv_timeout(PHASE_DEADLINE) {
                Ok(Reply::Finished(state)) => {
                    let (hosted, metrics, stale) = *state;
                    shard.merge(hosted);
                    net.absorb(&metrics);
                    stale_exports.extend(stale);
                }
                Ok(other) => panic!(
                    "parallel protocol violation: got {} while awaiting shutdown",
                    other.kind()
                ),
                Err(_) => panic!("parallel shutdown stalled — a worker went silent"),
            }
        }
        for handle in handles {
            handle.join().expect("worker thread exited cleanly");
        }
        net.note_peak_queued(shared.peak_queued_bytes.load(Ordering::SeqCst));

        assert_eq!(
            shard.up_sites().len(),
            coordinator.planner.membership().len(),
            "every member site must be up and returned at end of run"
        );
        let mut cluster_obs = coordinator.obs.take();
        if cluster_obs.is_enabled() {
            // The network aggregates live in the report's metrics snapshot;
            // record them as auxiliary gauges before `net` moves out.
            record_net(&mut cluster_obs, &net);
        }
        let report = shard.report(shared.deliveries.load(Ordering::SeqCst), net);
        let cluster = ParallelCluster {
            shard,
            planner: coordinator.planner,
            obs: cluster_obs,
            stale_exports,
        };
        (report, cluster)
    }
}

impl<C: Collector> ParallelCluster<C> {
    /// Read access to a site's heap.
    pub fn heap(&self, site: SiteId) -> &SiteHeap {
        self.shard.site(site).heap()
    }

    /// Iterates over every site's heap — member sites plus evicted heaps
    /// (the latter conservatively still exist for the oracle).
    pub fn heaps(&self) -> impl Iterator<Item = &SiteHeap> {
        self.shard.heaps()
    }

    /// The sites whose collector state or heap still references `departed`.
    /// Empty after a planned leave, on any worker count.
    pub fn sites_mentioning(&self, departed: SiteId) -> Vec<SiteId> {
        self.shard.sites_mentioning(departed)
    }

    /// Sites gone through a planned leave over the run.
    pub fn departed_sites(&self) -> &BTreeSet<SiteId> {
        self.planner.departed()
    }

    /// Sites evicted over the run.
    pub fn evicted_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.shard.evicted_sites()
    }

    /// The addresses of every object reclaimed by local collections.
    pub fn reclaimed_addrs(&self) -> &BTreeSet<GlobalAddr> {
        self.shard.reclaimed_addrs()
    }

    /// The residual-garbage set at end of run, per the oracle.
    pub fn garbage_addrs(&self) -> BTreeSet<GlobalAddr> {
        Oracle::garbage(self.heaps())
    }

    /// The run's end-of-run safety judgment: the [`Oracle::dangling`]
    /// references, less those naming an object the scenario exported after
    /// its own site had freed it (a reference born dangling, not one a
    /// collector broke). Empty unless a collector freed a referenced object.
    pub fn dangling_refs(&self) -> Vec<(GlobalAddr, GlobalAddr)> {
        let mut dangling = Oracle::dangling(self.heaps());
        dangling.retain(|(_, target)| !self.stale_exports.contains(target));
        dangling
    }

    /// Number of site recoveries performed over the run.
    pub fn recoveries(&self) -> u64 {
        self.shard.recoveries()
    }

    /// True when the site's runtime came back up (always, for a completed
    /// run — the driver recovers every downed site before reporting).
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.shard.is_up(site)
    }

    /// Aggregated durable-store counters across every site. All zeros with
    /// durability off.
    pub fn store_stats(&self) -> StoreStats {
        self.shard.store_stats()
    }

    /// Assembles the observability report: the cluster scope, then every
    /// site scope, with the scope structure and auxiliary gauges of
    /// [`Cluster::obs_report`](crate::Cluster::obs_report). Empty/disabled
    /// when [`ClusterConfig::obs`] is off.
    pub fn obs_report(&self) -> ObsReport {
        let mut cluster_obs = self.obs.clone();
        if cluster_obs.is_enabled() {
            record_store(&mut cluster_obs, &self.store_stats(), self.recoveries());
        }
        ObsReport::assemble(&cluster_obs, self.shard.obs_scopes().iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CausalCollector, RefListingCollector, TracingCollector};
    use crate::Cluster;
    use ggd_mutator::{workloads, ObjName};
    use ggd_types::ObjectId;

    fn parallel_config(workers: u32) -> ClusterConfig {
        ClusterConfig {
            workers,
            safety_oracle: false,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn paper_example_on_workers_matches_the_sequential_outcome() {
        let scenario = workloads::paper_example();
        let (seq_report, seq) =
            Cluster::run_seeded(&scenario, ClusterConfig::default(), CausalCollector::new);
        for workers in [1, 2, 4] {
            let (report, cluster) = ParallelCluster::run_seeded(
                &scenario,
                parallel_config(workers),
                CausalCollector::new,
            );
            assert_eq!(report.reclaimed, 3, "workers={workers}");
            assert_eq!(report.residual_garbage, 0, "workers={workers}");
            assert_eq!(report.allocated, seq_report.allocated);
            assert_eq!(report.mutator_messages(), seq_report.mutator_messages());
            assert_eq!(cluster.reclaimed_addrs(), seq.reclaimed_addrs());
            assert_eq!(cluster.garbage_addrs(), seq.garbage_addrs());
            assert!(report.net.bytes_sent_total() > 0, "frames carry real bytes");
        }
    }

    #[test]
    fn worker_count_is_clamped_to_the_site_count() {
        let scenario = workloads::ring(3);
        let (report, _) =
            ParallelCluster::run_seeded(&scenario, parallel_config(64), CausalCollector::new);
        assert_eq!(report.reclaimed, 3);
        assert_eq!(report.residual_garbage, 0);
    }

    #[test]
    fn baseline_collectors_run_on_the_parallel_driver() {
        let scenario = workloads::ring(4);
        let (tracing, _) = ParallelCluster::run_seeded(
            &scenario,
            parallel_config(2),
            TracingCollector::factory(scenario.site_count()),
        );
        assert_eq!(tracing.residual_garbage, 0);
        let (reflisting, _) =
            ParallelCluster::run_seeded(&scenario, parallel_config(2), RefListingCollector::new);
        // Reference listing cannot collect the ring's cycle; it must still
        // terminate and stay safe.
        assert_eq!(reflisting.safety_violations, 0);
    }

    #[test]
    #[should_panic(expected = "workers >= 1")]
    fn zero_workers_is_rejected() {
        let scenario = workloads::paper_example();
        let _ =
            ParallelCluster::run_seeded(&scenario, ClusterConfig::default(), CausalCollector::new);
    }

    #[test]
    fn planned_leave_on_workers_leaves_no_trace() {
        let departed = SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(SiteId::new(0), true);
        let c = s.alloc(departed, true);
        s.send_ref(departed, a, c);
        s.settle();
        s.planned_leave(departed);
        s.settle();

        for workers in [1, 2, 3] {
            let (report, cluster) =
                ParallelCluster::run_seeded(&s, parallel_config(workers), CausalCollector::new);
            assert_eq!(report.safety_violations, 0, "workers={workers}");
            assert_eq!(report.residual_garbage, 0, "workers={workers}");
            assert_eq!(report.sites, 2, "workers={workers}");
            assert!(cluster.departed_sites().contains(&departed));
            assert_eq!(
                cluster.sites_mentioning(departed),
                Vec::new(),
                "workers={workers}: a survivor still references the departed site"
            );
        }
    }

    #[test]
    fn join_and_evict_run_on_workers() {
        let joiner = SiteId::new(3);
        let victim = SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(SiteId::new(0), true);
        let c = s.alloc(victim, true);
        s.send_ref(victim, a, c);
        s.settle();
        s.join(joiner);
        let d = s.alloc(joiner, true);
        s.send_ref(joiner, a, d);
        s.settle();
        s.evict(victim);
        s.settle();

        for workers in [1, 2] {
            let (report, cluster) =
                ParallelCluster::run_seeded(&s, parallel_config(workers), CausalCollector::new);
            assert_eq!(report.safety_violations, 0, "workers={workers}");
            // 3 founding members - 1 evicted + 1 joined.
            assert_eq!(report.sites, 3, "workers={workers}");
            assert!(cluster.site_is_up(joiner));
            assert!(!cluster.site_is_up(victim));
            assert_eq!(cluster.evicted_sites().collect::<Vec<_>>(), vec![victim]);
            // No handoff on evict: the survivor still references the
            // evicted heap, which conservatively still exists.
            assert!(!cluster.sites_mentioning(victim).is_empty());
        }
    }

    #[test]
    fn queued_byte_accounting_returns_to_zero() {
        let scenario = workloads::random_churn(4, 60, 5);
        let (report, _) =
            ParallelCluster::run_seeded(&scenario, parallel_config(2), CausalCollector::new);
        assert_eq!(report.net.queued_bytes(), 0, "every frame was consumed");
        assert!(report.net.peak_queued_bytes() > 0, "frames were queued");
        assert!(report.net.control_bytes_sent() > 0);
    }

    const S: [SiteId; 3] = [SiteId::new(0), SiteId::new(1), SiteId::new(2)];

    /// Three sites with one rooted object each (object 1 on every site).
    fn three_roots() -> (Scenario, [ObjName; 3]) {
        let mut s = Scenario::new(3);
        let roots = S.map(|site| s.alloc(site, true));
        (s, roots)
    }

    /// The remote sites whose objects `site`'s heap references.
    fn referenced_sites<C: Collector>(cluster: &ParallelCluster<C>, site: SiteId) -> Vec<SiteId> {
        let heap = cluster.heap(site);
        heap.iter()
            .flat_map(|obj| obj.remote_refs().map(|addr| addr.site()))
            .collect()
    }

    #[test]
    fn queued_bytes_measure_real_encoded_frames() {
        // Byte counters are encoded frame lengths, not size hints.
        use ggd_net::Payload;
        let (mut s, [a, b, _]) = three_roots();
        s.send_ref(S[1], a, b);
        s.settle();
        let [recipient, target] =
            [S[0], S[1]].map(|site| GlobalAddr::from_parts(site, ObjectId::new(1)));
        let transfer: SimPayload<<CausalCollector as Collector>::Msg> =
            SimPayload::Reference { recipient, target };
        let encoded = Frame::encode(&transfer).wire_len() as u64;
        assert_ne!(
            encoded,
            transfer.size_hint() as u64,
            "hint and encoding must differ"
        );

        let (report, _) = ParallelCluster::run_seeded(&s, parallel_config(1), CausalCollector::new);
        assert_eq!(report.mutator_messages(), 1);
        assert_eq!(report.net.mutator_bytes_sent(), encoded);
        assert!(report.net.peak_queued_bytes() > 0);
        assert_eq!(report.net.queued_bytes(), 0);
    }

    #[test]
    fn partition_window_drops_cross_traffic_as_loss() {
        // A window cuts sites 0 and 1 for the whole run; site 2's link to
        // site 0 stays open.
        let (mut s, [a, b, c]) = three_roots();
        s.send_ref(S[1], a, b);
        s.send_ref(S[2], a, c);
        s.settle();
        for workers in [1, 3] {
            let config = ClusterConfig {
                faults: ggd_net::FaultPlan::new().with_partition_window(S[0], S[1], 0, 1_000_000),
                ..parallel_config(workers)
            };
            let (report, cluster) = ParallelCluster::run_seeded(&s, config, CausalCollector::new);
            assert_eq!(
                referenced_sites(&cluster, S[0]),
                [S[2]],
                "workers={workers}"
            );
            assert!(report.net.dropped_total() > 0, "workers={workers}");
            assert_eq!(report.net.queued_bytes(), 0, "workers={workers}");
        }
    }

    #[test]
    fn messages_to_a_crashed_site_are_dropped_as_loss() {
        // Site 1 is down from the first delivery until the end-of-run
        // recovery: the reference mailed to it dies with its inbox.
        let (mut s, [a, b, c]) = three_roots();
        s.send_ref(S[2], a, c);
        s.settle();
        s.send_ref(S[2], b, c);
        s.settle();
        for workers in [1, 3] {
            let config = ClusterConfig {
                faults: ggd_net::FaultPlan::new().with_crash(S[1], 1, u64::MAX),
                durability: crate::DurabilityConfig::memory(),
                ..parallel_config(workers)
            };
            let (report, cluster) = ParallelCluster::run_seeded(&s, config, CausalCollector::new);
            assert_eq!(cluster.recoveries(), 1, "workers={workers}");
            assert!(
                referenced_sites(&cluster, S[1]).is_empty(),
                "workers={workers}"
            );
            assert!(report.net.dropped_total() > 0, "workers={workers}");
            assert_eq!(report.net.queued_bytes(), 0, "workers={workers}");
        }
    }
}
