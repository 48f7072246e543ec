//! The parallel driver: the drive loop of the sequential driver, with a
//! mailbox mesh in place of the transport, drained on threads of its own.
//!
//! [`ParallelCluster`] is a [`Cluster`] whose [`Network`] is a mailbox mesh:
//! the crate's one drive loop over one shard holding every site, on the
//! calling thread, exactly as under the sequential driver — every op,
//! crash, recovery and membership step runs there, at once, and
//! collections are judged by the same oracle. It differs only in how a
//! settle round delivers what is in flight:
//!
//! * **The mesh** is one mailbox per worker, each receiving the wire frames
//!   addressed to the sites `worker_of` assigns it (round robin by site id;
//!   with as many workers as sites this degenerates to one site per
//!   worker). Inter-site traffic is posted as length-prefixed encoded
//!   [`Frame`]s (the `ggd-store`-backed codec), so byte metrics measure real
//!   serialized cost and no payload value ever crosses a thread boundary.
//!   Frames wait in the mailboxes until the next drain.
//! * **A drain** is the only concurrency. The shard lends each worker's
//!   site runtimes to a scoped thread of its own, which processes its
//!   mailbox until the termination barrier reports quiescence; the shard
//!   takes the sites back when the threads join.
//!
//! The **termination barrier** is a global in-flight credit counter. A
//! frame's credit is raised *before* the frame enters a mailbox and lowered
//! only after the receiving thread has fully processed it — including
//! enqueuing any frames that processing produced — so while every thread
//! drains, `in_flight == 0` is a stable property: no thread can reintroduce
//! traffic.
//!
//! What stays deterministic and what does not: everything the drive loop
//! decides is a pure function of the scenario, the config and the clock
//! readings, and every site runs its operations in scenario order, but
//! frame arrival order across workers is scheduler-dependent, so runs are
//! not bit-reproducible. This driver is opt-in via
//! [`ClusterConfig::workers`].
//!
//! It is the workspace's one concurrent backend, and its role is an
//! asynchrony/correctness harness — the same drive loop and shard code
//! under real threads, encoded frames and the termination barrier — not a
//! scaling path: measured at two workers it is slower than the sequential
//! driver on every benchmark workload (DESIGN.md §8).

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use ggd_mutator::Scenario;
use ggd_net::{Frame, NetMetrics};
use ggd_types::SiteId;

use crate::cluster::{Cluster, ClusterConfig, Network};
use crate::collector::{Collector, SimPayload};
use crate::report::RunReport;
use crate::shard::{Outbox, Shard};

/// How long a drain thread waits on the termination barrier with credits
/// outstanding before declaring the run wedged. Only a bug (a lost credit)
/// can exhaust it; panicking beats hanging.
const PHASE_DEADLINE: Duration = Duration::from_secs(60);

/// One mailbox item: an encoded frame from one site to another.
type Mail = (SiteId, SiteId, Frame);

/// Counters shared by the calling thread and every drain thread.
/// `in_flight` is the termination barrier's credit count; the rest feed the
/// run report.
#[derive(Debug, Default)]
struct SharedState {
    /// Frames enqueued but not yet fully processed (credit scheme: raised
    /// before the mailbox send, lowered after the handler *and its
    /// descendant sends* complete).
    in_flight: AtomicU64,
    /// Raised by a drain thread that panics, so the others stop waiting for
    /// credits it will never release.
    abandoned: AtomicBool,
    /// The logical clock: frames processed so far (the transports'
    /// delivered-messages clock, for mailboxes).
    deliveries: AtomicU64,
    /// Wire bytes currently sitting in mailboxes.
    queued_bytes: AtomicU64,
    /// High-water mark of `queued_bytes`, in real encoded frame bytes.
    peak_queued_bytes: AtomicU64,
}

fn worker_of(site: SiteId, workers: usize) -> usize {
    site.index() as usize % workers
}

/// The mailbox mesh: the parallel driver's [`Network`]. Public only as the
/// network type of the [`Cluster`] a [`ParallelCluster`] derefs to.
pub struct Mesh {
    /// Every worker's mailbox (index = worker).
    mailboxes: Vec<Sender<Mail>>,
    /// The receiving ends, read only in a drain.
    inboxes: Vec<Receiver<Mail>>,
    shared: SharedState,
    /// Frame counters, one table per drain thread. The calling thread, which
    /// posts only between drains, counts in worker 0's.
    metrics: Vec<NetMetrics>,
}

impl Mesh {
    fn new(workers: usize) -> Self {
        let (mailboxes, inboxes) = (0..workers).map(|_| unbounded()).unzip();
        Mesh {
            mailboxes,
            inboxes,
            shared: SharedState::default(),
            metrics: vec![NetMetrics::new(); workers],
        }
    }
}

/// A sending side of the mesh: encodes payloads into frames, mails them to
/// the worker hosting the destination and keeps the credit and byte
/// ledgers.
struct Wire<'a> {
    mailboxes: &'a [Sender<Mail>],
    shared: &'a SharedState,
    metrics: &'a mut NetMetrics,
}

impl<M> Outbox<M> for Wire<'_>
where
    SimPayload<M>: ggd_net::WireCodec,
{
    /// Encodes `payload` into a wire frame and mails it to the worker
    /// hosting `to`. The in-flight credit is raised *before* the send so
    /// the termination barrier can never observe a frame-shaped gap.
    fn post(&mut self, from: SiteId, to: SiteId, payload: SimPayload<M>) {
        let frame = Frame::encode(&payload);
        let len = self.metrics.record_frame_sent(&frame) as u64;
        let shared = self.shared;
        let queued = shared.queued_bytes.fetch_add(len, Ordering::SeqCst) + len;
        shared.peak_queued_bytes.fetch_max(queued, Ordering::SeqCst);
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let dest = worker_of(to, self.mailboxes.len());
        self.mailboxes[dest]
            .send((from, to, frame))
            .expect("every mailbox lives as long as the run");
    }

    fn now(&self) -> u64 {
        self.shared.deliveries.load(Ordering::SeqCst)
    }
}

impl<M> Outbox<M> for Mesh
where
    SimPayload<M>: ggd_net::WireCodec,
{
    fn post(&mut self, from: SiteId, to: SiteId, payload: SimPayload<M>) {
        let mut wire = Wire {
            mailboxes: &self.mailboxes,
            shared: &self.shared,
            metrics: &mut self.metrics[0],
        };
        wire.post(from, to, payload);
    }

    fn now(&self) -> u64 {
        self.shared.deliveries.load(Ordering::SeqCst)
    }
}

impl<C> Network<C> for Mesh
where
    C: Collector + Send,
    C::Msg: Send,
{
    /// Drains every mailbox, one scoped thread per worker holding that
    /// worker's sites, then applies the crash schedule at the advanced
    /// delivery clock (crash windows opening mid-drain take effect there).
    /// A drain thread's panic is re-raised here with its own payload. With
    /// nothing in flight there is nothing to drain and no clock to apply.
    fn deliver(cluster: &mut Cluster<C, Self>) -> u64 {
        if cluster.net.shared.in_flight.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        let Mesh {
            mailboxes,
            inboxes,
            shared,
            metrics,
        } = &mut cluster.net;
        let (mailboxes, shared) = (&mailboxes[..], &*shared);
        let workers = inboxes.len();
        let mut lent = cluster.shard.lend(workers, |site| worker_of(site, workers));
        let processed: u64 = std::thread::scope(|scope| {
            let drains: Vec<_> = lent
                .iter_mut()
                .zip(inboxes.iter_mut().zip(metrics.iter_mut()))
                .enumerate()
                .map(|(index, (shard, (inbox, metrics)))| {
                    let wire = Wire {
                        mailboxes,
                        shared,
                        metrics,
                    };
                    scope.spawn(move || drain(index, shard, inbox, wire))
                })
                .collect();
            drains
                .into_iter()
                .map(|drain| {
                    drain
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .sum()
        });
        for shard in lent {
            cluster.shard.merge(shard);
        }
        cluster.lifecycle();
        processed
    }

    fn idle(&self) -> bool {
        self.shared.in_flight.load(Ordering::SeqCst) == 0
    }

    /// Every thread's frame counters, with the mesh's queue depth, which
    /// lives in the shared ledger rather than in any one table.
    fn metrics(&self) -> NetMetrics {
        let mut net = NetMetrics::new();
        for metrics in &self.metrics {
            net.absorb(metrics);
        }
        let shared = &self.shared;
        net.note_enqueued(shared.queued_bytes.load(Ordering::SeqCst) as usize);
        net.note_peak_queued(shared.peak_queued_bytes.load(Ordering::SeqCst));
        net
    }
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

/// Processes worker `index`'s mailed frames on its lent `shard` until the
/// global in-flight credit reaches zero, and returns how many it processed.
/// Zero is stable: every worker is draining, only frame processing (which
/// holds a credit) can enqueue new frames, and the calling thread issues
/// nothing until every drain has returned. No rendezvous sits in here — a
/// thread that panics raises `abandoned` instead of leaving the others
/// waiting.
fn drain<C: Collector>(
    index: usize,
    shard: &mut Shard<C, ()>,
    inbox: &mut Receiver<Mail>,
    mut wire: Wire<'_>,
) -> u64 {
    let shared = wire.shared;
    let _guard = AbandonOnPanic(&shared.abandoned);
    let mut processed = 0;
    let deadline = Instant::now() + PHASE_DEADLINE;
    loop {
        while let Ok(mail) = inbox.try_recv() {
            process_frame(shard, mail, &mut wire);
            processed += 1;
        }
        let credited = shared.in_flight.load(Ordering::SeqCst);
        if credited == 0 || shared.abandoned.load(Ordering::SeqCst) {
            return processed;
        }
        assert!(
            Instant::now() < deadline,
            "worker {index} drain stalled with {credited} frames credited — termination barrier bug",
        );
        if let Ok(mail) = inbox.recv_timeout(Duration::from_millis(1)) {
            process_frame(shard, mail, &mut wire);
            processed += 1;
        }
    }
}

/// Consumes one frame: decode at the mailbox, deliver to the hosted
/// runtime (or drop as loss if the site is down or a partition window
/// separates the link), then release the credit — strictly after any
/// descendant sends were enqueued.
fn process_frame<C: Collector>(
    shard: &mut Shard<C, ()>,
    (from, to, frame): Mail,
    wire: &mut Wire<'_>,
) {
    let shared = wire.shared;
    shared
        .queued_bytes
        .fetch_sub(frame.wire_len() as u64, Ordering::SeqCst);
    let now = shared.deliveries.load(Ordering::SeqCst);
    if shard.is_up(to) && !shard.config.faults.partition_drops(from, to, now) {
        let payload: SimPayload<C::Msg> = frame
            .decode()
            .expect("wire frame decodes back to the payload that was sent");
        wire.metrics.record_frame_delivered(&frame);
        shared.deliveries.fetch_add(1, Ordering::SeqCst);
        shard.deliver(from, to, payload, wire);
    } else {
        // The site is down (or between crash and recover), or the link is
        // cut at the delivery clock: the frame dies, counted as loss — the
        // simulated network's semantics.
        wire.metrics.record_frame_dropped(&frame);
    }
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
}

/// A finished parallel run: a [`Cluster`] over the mailbox mesh, whose
/// read-only accessors ([`Cluster::heaps`], [`Cluster::reclaimed_addrs`],
/// [`Cluster::obs_report`], …) it derefs to.
pub struct ParallelCluster<C: Collector> {
    cluster: Cluster<C, Mesh>,
}

impl<C: Collector> Deref for ParallelCluster<C> {
    type Target = Cluster<C, Mesh>;

    fn deref(&self) -> &Cluster<C, Mesh> {
        &self.cluster
    }
}

impl<C> ParallelCluster<C>
where
    C: Collector + Send + 'static,
    C::Msg: Send + 'static,
{
    /// Runs `scenario` with every site on the calling thread and each
    /// settle round's frames drained on [`ClusterConfig::workers`] threads,
    /// and returns the report together with the finished cluster.
    ///
    /// Takes the inputs of [`Cluster::run_seeded`] and runs the same drive
    /// loop on them, but the run is *not* deterministic: frame interleaving
    /// across workers is scheduler-dependent.
    /// [`ClusterConfig::safety_oracle`] means what it means there: every
    /// local collection is judged against the global reachability oracle.
    /// [`Cluster::dangling_refs`] checks safety once more at end of run. Of
    /// [`ClusterConfig::faults`], only the crash schedule and partition
    /// windows apply, both against the delivered-frame clock.
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
        let sites = scenario.site_count();
        let mesh = Mesh::new((config.workers as usize).min(sites.max(1) as usize));
        let mut cluster = Cluster::with_transport(sites, config, mesh, factory);
        let report = cluster.run(scenario);
        (report, ParallelCluster { cluster })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CausalCollector, RefListingCollector, TracingCollector};
    use crate::Cluster;
    use ggd_mutator::{workloads, ObjName};
    use ggd_types::{GlobalAddr, ObjectId};
    use std::sync::Arc;

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
