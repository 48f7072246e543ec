//! The parallel driver: the same execution core, with the sites sharded
//! over workers that exchange encoded wire frames through mailboxes and
//! drain them on threads of their own.
//!
//! [`ParallelCluster`] differs from the sequential [`Cluster`](crate::Cluster)
//! only in how messages move:
//!
//! * **Workers** are shards (`shard.rs`), each hosting a share of the sites
//!   (round robin by site id; with as many workers as sites this
//!   degenerates to one site per worker), plus a mailbox of the wire frames
//!   addressed to those sites. Inter-site traffic is exchanged
//!   worker-to-worker as length-prefixed encoded [`Frame`]s (the
//!   `ggd-store`-backed codec), so byte metrics measure real serialized cost
//!   and no payload value ever crosses a thread boundary.
//! * **The coordinator** (the calling thread) owns the planner (`plan.rs`)
//!   and every worker. It plans each scenario step and executes the
//!   resulting commands itself, at once, on the worker hosting the site (or
//!   on every worker). Planning needs no round-trip — allocation addresses
//!   are predicted, and the shard asserts the prediction. Frames the
//!   commands emit wait in the mailboxes: delivery happens only inside a
//!   settle, under every driver.
//! * **Drains** are the only concurrency. A settle round gives each worker
//!   a scoped thread that processes its mailbox until the termination
//!   barrier reports quiescence, then joins them all.
//!
//! The **termination barrier** is a global in-flight credit counter. A
//! frame's credit is raised *before* the frame enters a mailbox and lowered
//! only after the receiving worker has fully processed it — including
//! enqueuing any frames that processing produced — so while every worker
//! drains, `in_flight == 0` is a stable property: no worker can reintroduce
//! traffic. Each settle is rounds of drain-then-collect — deliver
//! everything, collect everywhere — until a round's drain processed nothing
//! and its collections emitted nothing.
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

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

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

/// How long a drain thread waits on the termination barrier with credits
/// outstanding before declaring the run wedged. Only a bug (a lost credit)
/// can exhaust it; panicking beats hanging.
const PHASE_DEADLINE: Duration = Duration::from_secs(60);

/// A collector factory that can move to a drain thread.
type SendFactory<C> = Box<dyn Fn(SiteId) -> C + Send>;

/// A shard whose collector factory can move to a drain thread.
type WorkerShard<C> = Shard<C, SendFactory<C>>;

/// One mailbox item: an encoded frame from one site to another.
type Mail = (SiteId, SiteId, Frame);

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
    /// Raised by a drain thread that panics, so the others stop waiting for
    /// credits it will never release.
    abandoned: AtomicBool,
    /// The logical clock: frames processed so far (the transports'
    /// delivered-messages clock, for mailboxes).
    deliveries: AtomicU64,
    /// Wire bytes currently sitting in worker mailboxes.
    queued_bytes: AtomicU64,
    /// High-water mark of `queued_bytes`, in real encoded frame bytes.
    peak_queued_bytes: AtomicU64,
}

/// A worker's sending side: encodes payloads into frames, mails them to the
/// worker hosting the destination and keeps the credit and byte ledgers.
struct Wire {
    /// Every worker's mailbox (index = worker).
    mailboxes: Vec<Sender<Mail>>,
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
        let dest = worker_of(to, self.mailboxes.len());
        self.mailboxes[dest]
            .send((from, to, frame))
            .expect("every mailbox lives as long as the run");
    }

    fn now(&self) -> u64 {
        self.shared.deliveries.load(Ordering::SeqCst)
    }
}

/// One worker: a shard, its sending side and its mailbox.
struct Worker<C: Collector> {
    index: usize,
    shard: WorkerShard<C>,
    wire: Wire,
    /// Frames addressed to this worker's sites, each still holding its
    /// credit. Read only in a drain.
    mailbox: Receiver<Mail>,
    /// Objects a hosted site exported after it had already freed them.
    stale_exports: BTreeSet<GlobalAddr>,
}

/// Marks the run abandoned if the drain thread holding it unwinds.
struct AbandonOnPanic<'a>(&'a AtomicBool);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

impl<C: Collector> Worker<C> {
    /// Executes one planner command, stamped with its scenario step so
    /// probes read driver-independent time.
    fn execute(&mut self, command: ShardCommand, step: u64) {
        self.note_stale_export(&command);
        self.shard.step = step;
        self.shard.execute(command, &mut self.wire);
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

    /// Processes mailed frames until the global in-flight credit reaches
    /// zero, and returns how many it processed. Zero is stable: every
    /// worker is draining, only frame processing (which holds a credit) can
    /// enqueue new frames, and the coordinator issues nothing until every
    /// drain has returned. No rendezvous sits in here — a worker that
    /// panics raises `abandoned` instead of leaving the others waiting.
    fn drain(&mut self, step: u64) -> u64 {
        let shared = Arc::clone(&self.wire.shared);
        let _guard = AbandonOnPanic(&shared.abandoned);
        self.shard.step = step;
        let mut processed = 0;
        let deadline = Instant::now() + PHASE_DEADLINE;
        loop {
            while let Ok((from, to, frame)) = self.mailbox.try_recv() {
                self.process_frame(from, to, frame);
                processed += 1;
            }
            let credited = shared.in_flight.load(Ordering::SeqCst);
            if credited == 0 || shared.abandoned.load(Ordering::SeqCst) {
                return processed;
            }
            assert!(
                Instant::now() < deadline,
                "worker {} drain stalled with {credited} frames credited — termination barrier bug",
                self.index,
            );
            if let Ok((from, to, frame)) = self.mailbox.recv_timeout(Duration::from_millis(1)) {
                self.process_frame(from, to, frame);
                processed += 1;
            }
        }
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

/// The coordinator side of a parallel run: the planner and every worker.
struct Coordinator<C: Collector> {
    planner: Planner,
    workers: Vec<Worker<C>>,
    shared: Arc<SharedState>,
    /// The logical step clock — counts scenario steps (first step = 1,
    /// end-of-run completion = one more) and stamps every command.
    step: u64,
    /// Cluster-scope observability handle.
    obs: SiteObs,
}

impl<C: Collector + Send> Coordinator<C> {
    fn advance_step(&mut self) {
        self.step += 1;
        self.obs.set_step(self.step);
    }

    /// Executes one planner command on the worker hosting its site, or on
    /// every worker.
    fn issue(&mut self, command: ShardCommand) {
        let step = self.step;
        match command.site() {
            Some(site) => {
                let owner = worker_of(site, self.workers.len());
                self.workers[owner].execute(command, step);
            }
            None => {
                for worker in &mut self.workers {
                    worker.execute(command.clone(), step);
                }
            }
        }
    }

    /// Drains every mailbox, one scoped thread per worker, and returns the
    /// frames processed. A drain thread's panic is re-raised here with its
    /// own payload.
    fn drain(&mut self) -> u64 {
        let step = self.step;
        std::thread::scope(|scope| {
            let drains: Vec<_> = self
                .workers
                .iter_mut()
                .map(|worker| scope.spawn(move || worker.drain(step)))
                .collect();
            drains
                .into_iter()
                .map(|drain| {
                    drain
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .sum()
        })
    }

    /// The parallel settle: rounds of drain-then-collect until a round's
    /// drain processed nothing and its collections emitted nothing. No
    /// mailbox is read outside a drain, so every frame emitted since still
    /// holds its credit: the round was quiescent iff `in_flight` is zero
    /// after the collections. The round counter survives only as the
    /// safety valve.
    fn settle(&mut self) {
        let mut rounds: u64 = 0;
        let mut delivered: u64 = 0;
        for _ in 0..SETTLE_ROUNDS {
            rounds += 1;
            self.lifecycle();
            let processed = self.drain();
            delivered += processed;
            self.lifecycle();
            self.issue(ShardCommand::CollectAll);
            if processed == 0 && self.shared.in_flight.load(Ordering::SeqCst) == 0 {
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

    /// Runs the planner's script for one membership event, the settles
    /// serving as its quiesce points.
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
/// one, ready for oracle inspection.
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
    /// Runs `scenario` on [`ClusterConfig::workers`] shards, each draining
    /// its frames on a thread of its own, and returns the report together
    /// with the reassembled cluster state.
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
    /// scheduled without durability. A panic in a collector or a factory
    /// surfaces here with its own message.
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
        let (senders, mailboxes): (Vec<_>, Vec<_>) =
            (0..workers).map(|_| unbounded::<Mail>()).unzip();
        let workers = mailboxes
            .into_iter()
            .enumerate()
            .map(|(index, mailbox)| {
                let hosted = (0..site_count)
                    .map(SiteId::new)
                    .filter(|&site| worker_of(site, workers) == index);
                let factory: SendFactory<C> = Box::new(factory.clone());
                Worker {
                    index,
                    shard: Shard::new(hosted, config.clone(), factory),
                    wire: Wire {
                        mailboxes: senders.clone(),
                        shared: Arc::clone(&shared),
                        metrics: NetMetrics::new(),
                    },
                    mailbox,
                    stale_exports: BTreeSet::new(),
                }
            })
            .collect();
        let mut coordinator = Coordinator::<C> {
            planner,
            workers,
            shared: Arc::clone(&shared),
            step: 0,
            obs: SiteObs::new(None, &config.obs),
        };

        // Drive the scenario: commands run at once, settles drain.
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

        // Reassemble.
        let factory: SendFactory<C> = Box::new(factory);
        let mut shard = Shard::new(std::iter::empty(), config, factory);
        let mut net = NetMetrics::new();
        let mut stale_exports = BTreeSet::new();
        for worker in coordinator.workers {
            shard.merge(worker.shard);
            net.absorb(&worker.wire.metrics);
            stale_exports.extend(worker.stale_exports);
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

    /// The addresses of every object reclaimed by local collections, built
    /// when called.
    pub fn reclaimed_addrs(&self) -> BTreeSet<GlobalAddr> {
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

    #[test]
    #[should_panic(expected = "factory refused s1")]
    fn a_worker_panic_surfaces_with_its_own_message() {
        // Site 1 is down from the first delivery on, so its end-of-run
        // recovery asks the factory for a fourth collector.
        let (mut s, [a, b, _]) = three_roots();
        s.send_ref(S[1], a, b);
        s.settle();
        let config = ClusterConfig {
            faults: ggd_net::FaultPlan::new().with_crash(S[1], 1, u64::MAX),
            durability: crate::DurabilityConfig::memory(),
            ..parallel_config(2)
        };
        let built = Arc::new(AtomicU64::new(0));
        let factory = move |site: SiteId| {
            let count = built.fetch_add(1, Ordering::SeqCst);
            assert!(count < 3, "factory refused {site}");
            CausalCollector::new(site)
        };
        let _ = ParallelCluster::run_seeded(&s, config, factory);
    }

    /// A collector that panics on the first reference its site receives.
    struct RefusesReferences;

    impl Collector for RefusesReferences {
        type Msg = <CausalCollector as Collector>::Msg;

        fn name(&self) -> &'static str {
            "refuses-references"
        }
        fn on_export(&mut self, _: GlobalAddr, _: GlobalAddr) {}
        fn on_third_party_send(&mut self, _: GlobalAddr, _: GlobalAddr) {}
        fn on_receive_ref(&mut self, recipient: GlobalAddr, _: GlobalAddr) {
            panic!("{recipient} refused a reference");
        }
        fn apply_snapshot(&mut self, _: &ggd_heap::ReachabilitySnapshot) {}
        fn on_message(&mut self, _: SiteId, _: Self::Msg) {}
        fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
            Vec::new()
        }
        fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
            Vec::new()
        }
    }

    #[test]
    #[should_panic(expected = "refused a reference")]
    fn a_drain_panic_surfaces_with_its_own_message() {
        // The reference lands on site 1, drained by worker 1. Worker 0,
        // joined first, must stop waiting for the credit worker 1 never
        // releases rather than stall and raise a message of its own.
        let (mut s, [a, b, _]) = three_roots();
        s.send_ref(S[0], b, a);
        s.settle();
        let _ = ParallelCluster::run_seeded(&s, parallel_config(2), |_| RefusesReferences);
    }
}
