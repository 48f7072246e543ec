//! The parallel drive loop: site runtimes sharded across worker threads,
//! fed through mailboxes carrying resolved mutator ops and encoded wire
//! frames.
//!
//! The sequential [`Cluster`](crate::Cluster) steps every site from one
//! coordinator thread. [`ParallelCluster`] splits that loop in two:
//!
//! * **Workers** own the [`SiteRuntime`]s. Each of the
//!   [`ClusterConfig::workers`] threads hosts a shard of the sites (round
//!   robin by site id; with as many workers as sites this degenerates to
//!   one site per worker) and consumes a mailbox of commands: resolved
//!   mutator ops, inter-site wire frames, collection requests and
//!   crash/recover orders. Inter-site traffic is exchanged worker-to-worker
//!   as length-prefixed encoded [`Frame`]s — the same `ggd-store`-backed
//!   codec the framed [`ThreadedNetwork`](ggd_net::ThreadedNetwork) uses —
//!   so byte metrics measure real serialized cost and no payload value ever
//!   crosses a thread boundary.
//! * **The coordinator** (the calling thread) only injects scenario steps
//!   and aggregates. It resolves symbolic object names to [`GlobalAddr`]s
//!   up front (allocation addresses are a pure function of per-site
//!   allocation order, so the coordinator predicts them without a
//!   round-trip — workers assert the prediction), applies the same
//!   crash-window skip analysis as the sequential driver, and detects
//!   quiescence.
//!
//! Quiescence replaces the sequential settle loop's "poll until the
//! transport is empty" with a **termination barrier**: a global in-flight
//! credit counter. A worker increments it *before* handing a frame to a
//! mailbox and decrements it only after the receiving worker has fully
//! processed the frame — including enqueuing any frames that processing
//! produced — so `in_flight == 0` is a stable property: once observed
//! during a drain phase, no worker can reintroduce traffic. Each settle is
//! an op barrier (every worker has consumed its op backlog) followed by
//! rounds of drain-then-collect, exactly mirroring the sequential
//! deliver-all/collect-all rounds, until a round processes and emits
//! nothing.
//!
//! What stays deterministic and what does not: op dispatch, name
//! resolution and the skip pattern are pure functions of the scenario and
//! config, but frame arrival order across workers is scheduler-dependent —
//! like [`ThreadedNetwork`](ggd_net::ThreadedNetwork), runs are not
//! bit-reproducible. The deterministic sequential path is untouched; this
//! driver is opt-in via [`ClusterConfig::workers`].
//!
//! Its role is an asynchrony/correctness harness — real threads, encoded
//! frames, the termination barrier — not a scaling path: measured at two
//! workers it is slower than the sequential driver on every benchmark
//! workload (DESIGN.md §8).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

use ggd_heap::SiteHeap;
use ggd_mutator::{MembershipEvent, MembershipKind, MutatorOp, ObjName, Scenario, Step};
use ggd_net::{Frame, NetMetrics};
use ggd_obs::{ObsConfig, ObsReport, SiteObs};
use ggd_store::{
    DurabilityConfig, MembershipAnnouncement, MembershipChange, SiteStore, StoreStats,
};
use ggd_types::{GlobalAddr, ObjectId, SiteId};

use crate::cluster::{membership_kind_code, Catchup, ClusterConfig, Legality};
use crate::collector::{Collector, SimPayload};
use crate::oracle::Oracle;
use crate::report::{record_net, record_store, sum_store_stats, RunReport};
use crate::runtime::{sites_mentioning, SiteRuntime, SiteTick, SyncMode};

/// How long a worker spins on the termination barrier, or the coordinator
/// on a phase acknowledgement, before declaring the run wedged. Only a bug
/// (a lost credit, a dead worker) can exhaust it; panicking beats hanging.
const PHASE_DEADLINE: Duration = Duration::from_secs(60);

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
    /// The logical clock: frames processed so far (the parallel analogue of
    /// the transports' delivered-messages clock).
    deliveries: AtomicU64,
    /// Wire bytes currently sitting in worker mailboxes.
    queued_bytes: AtomicU64,
    /// High-water mark of `queued_bytes`, in real encoded frame bytes.
    peak_queued_bytes: AtomicU64,
    /// Clock value of the first control-message send; `u64::MAX` = never.
    triggered_at: AtomicU64,
    /// Clock value of the latest verdict application.
    last_verdict_at: AtomicU64,
    /// Logical *scenario step* of the first control-message send;
    /// `u64::MAX` = never. Steps execute in dispatch order, so the minimum
    /// over all sends is the step of the first-triggering op — the same
    /// value the sequential driver records.
    triggered_step: AtomicU64,
    /// Logical scenario step of the latest verdict application.
    last_verdict_step: AtomicU64,
}

/// One command in a worker's mailbox. Commands that trigger runtime entry
/// points carry the coordinator's logical scenario step, so worker-side
/// probes stamp the same driver-independent timestamps the sequential
/// driver records (frames are only processed during globally synchronized
/// drain phases, so the drain-carried step is race-free).
enum Command {
    /// A resolved mutator op for a hosted site, with its scenario step.
    Op(SiteId, SiteOp, u64),
    /// An encoded inter-site frame. Stashed outside drain phases so frames
    /// never overtake the op stream, mirroring the sequential driver where
    /// delivery happens only inside `settle`.
    Frame {
        from: SiteId,
        to: SiteId,
        frame: Frame,
    },
    /// Op barrier: acknowledge that every earlier op has been consumed.
    Barrier,
    /// Drain phase: process stashed and incoming frames until the global
    /// in-flight count reaches zero, then acknowledge.
    Drain(u64),
    /// Run a local collection on every hosted site.
    Collect { ack: bool, step: u64 },
    /// Tear the site's volatile runtime down, keeping its durable store.
    Crash(SiteId),
    /// Rebuild the site from its durable store.
    Recover(SiteId, u64),
    /// Bring a fresh site up mid-run, caught up on membership history.
    Join {
        site: SiteId,
        history: Vec<MembershipAnnouncement>,
        step: u64,
    },
    /// Every hosted survivor severs its references towards `departing`
    /// (the reference-handoff half of a planned leave).
    Handoff {
        departing: SiteId,
        epoch: u64,
        step: u64,
    },
    /// Dissolve a site that completed its planned leave.
    Remove(SiteId),
    /// Evict a site without ceremony, keeping its heap for the oracle.
    Evict(SiteId),
    /// Apply one membership announcement to every hosted runtime (queued
    /// for hosted sites currently down, applied at recovery).
    Membership(MembershipAnnouncement, u64),
    /// Hand every runtime and counter back to the coordinator and exit.
    Shutdown,
}

/// A mutator op with every name already resolved by the coordinator.
enum SiteOp {
    Alloc {
        local_root: bool,
        /// The address the coordinator predicted; the worker's heap must
        /// agree or name resolution has diverged.
        expect: GlobalAddr,
    },
    LinkLocal {
        from: GlobalAddr,
        to: GlobalAddr,
    },
    Unlink {
        from: GlobalAddr,
        to: GlobalAddr,
    },
    ClearRefs {
        addr: GlobalAddr,
    },
    DropLocalRoot {
        addr: GlobalAddr,
    },
    /// Export + wire send (or the immediate local receive for a same-site
    /// recipient).
    SendRef {
        target: GlobalAddr,
        recipient: GlobalAddr,
    },
    Collect,
}

/// A worker's acknowledgement or final state.
enum Reply<C: Collector> {
    AtBarrier,
    DrainDone { processed: u64 },
    CollectDone,
    Finished(Box<WorkerFinal<C>>),
}

impl<C: Collector> Reply<C> {
    fn kind(&self) -> &'static str {
        match self {
            Reply::AtBarrier => "barrier",
            Reply::DrainDone { .. } => "drain",
            Reply::CollectDone => "collect",
            Reply::Finished(_) => "finished",
        }
    }
}

/// Everything a worker hands back at shutdown.
struct WorkerFinal<C: Collector> {
    runtimes: BTreeMap<SiteId, SiteRuntime<C>>,
    metrics: NetMetrics,
    reclaimed: u64,
    reclaimed_addrs: BTreeSet<GlobalAddr>,
    verdicts: u64,
    recoveries: u64,
    /// Heaps of evicted hosted sites (oracle ground truth).
    evicted: BTreeMap<SiteId, SiteHeap>,
}

/// One worker thread: a shard of site runtimes plus its mailbox plumbing.
struct Worker<C: Collector, F> {
    index: usize,
    runtimes: BTreeMap<SiteId, SiteRuntime<C>>,
    /// Durable stores of hosted sites that are currently down.
    downed: BTreeMap<SiteId, SiteStore<C::Msg>>,
    /// Observability handles of hosted downed sites — detached at crash
    /// (the measurement layer sits outside the failure model) and
    /// re-attached after recovery, so WAL replay never double-counts.
    downed_obs: BTreeMap<SiteId, SiteObs>,
    /// Membership steps hosted downed sites missed, applied at recovery.
    pending_catchup: BTreeMap<SiteId, Vec<Catchup>>,
    /// Heaps of evicted hosted sites.
    evicted: BTreeMap<SiteId, SiteHeap>,
    /// Durability config, for sites joining mid-run.
    durability: DurabilityConfig,
    /// Frames received outside a drain phase, still holding their credit.
    pending: VecDeque<(SiteId, SiteId, Frame)>,
    /// Every worker's mailbox, for inter-site sends (index = worker).
    mailboxes: Vec<Sender<Command>>,
    replies: Sender<Reply<C>>,
    shared: Arc<SharedState>,
    metrics: NetMetrics,
    reclaimed: u64,
    reclaimed_addrs: BTreeSet<GlobalAddr>,
    verdicts: u64,
    recoveries: u64,
    factory: F,
    sync_mode: SyncMode,
    workers: usize,
    /// Observability config, for sites joining mid-run.
    obs_config: ObsConfig,
    /// The scenario step carried by the command currently being handled —
    /// pushed into each runtime's obs handle so probes stamp logical time.
    current_step: u64,
}

fn worker_of(site: SiteId, workers: usize) -> usize {
    site.index() as usize % workers
}

impl<C, F> Worker<C, F>
where
    C: Collector,
    C::Msg: Send + 'static,
    F: Fn(SiteId) -> C,
{
    fn run(mut self, rx: Receiver<Command>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Command::Op(site, op, step) => {
                    self.current_step = step;
                    self.apply_op(site, op);
                }
                Command::Frame { from, to, frame } => self.pending.push_back((from, to, frame)),
                Command::Barrier => {
                    let _ = self.replies.send(Reply::AtBarrier);
                }
                Command::Drain(step) => {
                    self.current_step = step;
                    let processed = self.drain(&rx);
                    let _ = self.replies.send(Reply::DrainDone { processed });
                }
                Command::Collect { ack, step } => {
                    self.current_step = step;
                    let sites: Vec<SiteId> = self.runtimes.keys().copied().collect();
                    for site in sites {
                        self.collect_site(site);
                    }
                    if ack {
                        let _ = self.replies.send(Reply::CollectDone);
                    }
                }
                Command::Crash(site) => {
                    if let Some(mut runtime) = self.runtimes.remove(&site) {
                        let store = runtime
                            .take_store()
                            .expect("crash orders require durability (checked at construction)");
                        self.downed.insert(site, store);
                        self.downed_obs.insert(site, runtime.take_obs());
                    }
                }
                Command::Recover(site, step) => {
                    self.current_step = step;
                    if let Some(store) = self.downed.remove(&site) {
                        let mut runtime =
                            SiteRuntime::recover(store, (self.factory)(site), self.sync_mode);
                        let replayed = runtime
                            .store()
                            .map_or(0, |store| store.stats().records_replayed);
                        // Replay ran with a disabled handle; re-attach the
                        // crash-time measurements now.
                        if let Some(obs) = self.downed_obs.remove(&site) {
                            runtime.set_obs(obs);
                        }
                        {
                            let obs = runtime.obs_mut();
                            obs.set_step(step);
                            obs.add_aux("recoveries", 1);
                            obs.event("wal-replay", false, &[("records_replayed", replayed)]);
                        }
                        self.runtimes.insert(site, runtime);
                        self.recoveries += 1;
                        // Catch up on membership steps missed while down, in
                        // order (WAL-logged, so a second crash replays them).
                        for action in self.pending_catchup.remove(&site).unwrap_or_default() {
                            let tick = match action {
                                Catchup::Handoff { departing, epoch } => {
                                    self.runtime(site).perform_handoff(departing, epoch)
                                }
                                Catchup::Announce(ann) => self.runtime(site).apply_membership(ann),
                            };
                            self.absorb(site, tick);
                        }
                    }
                }
                Command::Join {
                    site,
                    history,
                    step,
                } => {
                    self.current_step = step;
                    let mut runtime =
                        SiteRuntime::with_mode(site, (self.factory)(site), self.sync_mode)
                            .with_obs(SiteObs::new(Some(site), &self.obs_config));
                    if let Some(store) = SiteStore::open(site, &self.durability) {
                        runtime = runtime.with_store(store);
                    }
                    self.runtimes.insert(site, runtime);
                    for ann in history {
                        let tick = self.runtime(site).apply_membership(ann);
                        self.absorb(site, tick);
                    }
                }
                Command::Handoff {
                    departing,
                    epoch,
                    step,
                } => {
                    self.current_step = step;
                    let sites: Vec<SiteId> = self
                        .runtimes
                        .keys()
                        .copied()
                        .filter(|&s| s != departing)
                        .collect();
                    for site in sites {
                        let tick = self.runtime(site).perform_handoff(departing, epoch);
                        self.absorb(site, tick);
                    }
                    let downed: Vec<SiteId> = self
                        .downed
                        .keys()
                        .copied()
                        .filter(|&s| s != departing)
                        .collect();
                    for site in downed {
                        self.pending_catchup
                            .entry(site)
                            .or_default()
                            .push(Catchup::Handoff { departing, epoch });
                    }
                }
                Command::Remove(site) => {
                    self.runtimes.remove(&site);
                    self.downed.remove(&site);
                    self.downed_obs.remove(&site);
                    self.pending_catchup.remove(&site);
                }
                Command::Evict(site) => {
                    if let Some(runtime) = self.runtimes.remove(&site) {
                        self.evicted.insert(site, runtime.heap().clone());
                    }
                    self.downed.remove(&site);
                    self.downed_obs.remove(&site);
                    self.pending_catchup.remove(&site);
                }
                Command::Membership(ann, step) => {
                    self.current_step = step;
                    let sites: Vec<SiteId> = self.runtimes.keys().copied().collect();
                    for site in sites {
                        let tick = self.runtime(site).apply_membership(ann);
                        self.absorb(site, tick);
                    }
                    for &site in self.downed.keys() {
                        self.pending_catchup
                            .entry(site)
                            .or_default()
                            .push(Catchup::Announce(ann));
                    }
                }
                Command::Shutdown => {
                    let _ = self.replies.send(Reply::Finished(Box::new(WorkerFinal {
                        runtimes: std::mem::take(&mut self.runtimes),
                        metrics: std::mem::take(&mut self.metrics),
                        reclaimed: self.reclaimed,
                        reclaimed_addrs: std::mem::take(&mut self.reclaimed_addrs),
                        verdicts: self.verdicts,
                        recoveries: self.recoveries,
                        evicted: std::mem::take(&mut self.evicted),
                    })));
                    return;
                }
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
                    if self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "worker {} drain stalled with {} frames credited — termination barrier bug",
                        self.index,
                        self.shared.in_flight.load(Ordering::SeqCst)
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

    fn apply_op(&mut self, site: SiteId, op: SiteOp) {
        let step = self.current_step;
        let Some(runtime) = self.runtimes.get_mut(&site) else {
            // The coordinator skips ops to downed sites; a straggler here
            // would mean the skip analysis and the crash orders disagree.
            unreachable!(
                "op dispatched to a site that is not up on worker {}",
                self.index
            );
        };
        runtime.obs_mut().set_step(step);
        match op {
            SiteOp::Alloc { local_root, expect } => {
                let addr = runtime.alloc(local_root);
                assert_eq!(
                    addr, expect,
                    "coordinator-predicted allocation address diverged"
                );
                runtime.maybe_checkpoint();
            }
            SiteOp::LinkLocal { from, to } => {
                let tick = runtime.link_local(from, to);
                self.absorb(site, tick);
            }
            SiteOp::Unlink { from, to } => {
                let tick = runtime.unlink(from, to);
                self.absorb(site, tick);
            }
            SiteOp::ClearRefs { addr } => {
                let tick = runtime.clear_refs(addr);
                self.absorb(site, tick);
            }
            SiteOp::DropLocalRoot { addr } => {
                let tick = runtime.drop_local_root(addr);
                self.absorb(site, tick);
            }
            SiteOp::SendRef { target, recipient } => {
                let tick = runtime.export_reference(target, recipient);
                self.absorb(site, tick);
                if recipient.site() == site {
                    // A same-site transfer is a local mutation, never a
                    // wire frame (see `SiteRuntime::export_reference`).
                    let tick = self
                        .runtime(site)
                        .receive_reference(site, recipient, target);
                    self.absorb(site, tick);
                } else {
                    self.send_payload(
                        site,
                        recipient.site(),
                        &SimPayload::Reference { recipient, target },
                    );
                }
            }
            SiteOp::Collect => self.collect_site(site),
        }
    }

    fn runtime(&mut self, site: SiteId) -> &mut SiteRuntime<C> {
        let step = self.current_step;
        let runtime = self.runtimes.get_mut(&site).expect("site is up");
        runtime.obs_mut().set_step(step);
        runtime
    }

    /// Mirrors `Cluster::collect_site`, minus the mid-run oracle (the
    /// coordinator no longer has a consistent global heap view while
    /// workers run; safety is judged at the end of the run and by the
    /// equivalence suite).
    fn collect_site(&mut self, site: SiteId) {
        let step = self.current_step;
        let Some(runtime) = self.runtimes.get_mut(&site) else {
            return;
        };
        runtime.obs_mut().set_step(step);
        let outcome = runtime.collect();
        let tick = if outcome.is_noop() {
            None
        } else {
            Some(runtime.sync())
        };
        for freed in &outcome.freed {
            self.reclaimed_addrs
                .insert(GlobalAddr::from_parts(site, *freed));
        }
        self.reclaimed += outcome.freed.len() as u64;
        if let Some(tick) = tick {
            self.absorb(site, tick);
        }
    }

    /// Books a runtime step's results: verdict counters and control-message
    /// sends, followed by the checkpoint-cadence check — the worker-side
    /// mirror of `Cluster::absorb_tick` + `after_step`.
    fn absorb(&mut self, site: SiteId, tick: SiteTick<C::Msg>) {
        if tick.verdicts_applied > 0 {
            self.verdicts += tick.verdicts_applied;
            let now = self.shared.deliveries.load(Ordering::SeqCst);
            self.shared.last_verdict_at.fetch_max(now, Ordering::SeqCst);
            self.shared
                .last_verdict_step
                .fetch_max(self.current_step, Ordering::SeqCst);
        }
        for (dest, msg) in tick.outgoing {
            let now = self.shared.deliveries.load(Ordering::SeqCst);
            self.shared.triggered_at.fetch_min(now, Ordering::SeqCst);
            self.shared
                .triggered_step
                .fetch_min(self.current_step, Ordering::SeqCst);
            self.send_payload(site, dest, &SimPayload::Control(msg));
        }
        if let Some(runtime) = self.runtimes.get_mut(&site) {
            runtime.maybe_checkpoint();
        }
    }

    /// Encodes `payload` into a wire frame and mails it to the worker
    /// hosting `to`. The in-flight credit is raised *before* the send so
    /// the termination barrier can never observe a frame-shaped gap.
    fn send_payload(&mut self, from: SiteId, to: SiteId, payload: &SimPayload<C::Msg>) {
        let frame = Frame::encode(payload);
        // The shared frame-layer hook keeps byte accounting identical with
        // the threaded transport's encode path.
        let len = self.metrics.record_frame_sent(&frame);
        let queued = self
            .shared
            .queued_bytes
            .fetch_add(len as u64, Ordering::SeqCst)
            + len as u64;
        self.shared
            .peak_queued_bytes
            .fetch_max(queued, Ordering::SeqCst);
        let credited = self.shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.shared.credit_hwm.fetch_max(credited, Ordering::SeqCst);
        self.shared.frames_sent.fetch_add(1, Ordering::SeqCst);
        let dest = worker_of(to, self.workers);
        if self.mailboxes[dest]
            .send(Command::Frame { from, to, frame })
            .is_err()
        {
            // Teardown race (coordinator gone): release the credit so any
            // worker still draining can terminate.
            self.shared
                .queued_bytes
                .fetch_sub(len as u64, Ordering::SeqCst);
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Consumes one frame: decode at the mailbox, deliver to the hosted
    /// runtime (or drop as loss if the site is down), then release the
    /// credit — strictly after any descendant sends were enqueued.
    fn process_frame(&mut self, from: SiteId, to: SiteId, frame: Frame) {
        self.shared
            .queued_bytes
            .fetch_sub(frame.wire_len() as u64, Ordering::SeqCst);
        if self.runtimes.contains_key(&to) {
            let payload: SimPayload<C::Msg> = frame
                .decode()
                .expect("wire frame decodes back to the payload that was sent");
            self.metrics.record_frame_delivered(&frame);
            self.shared.deliveries.fetch_add(1, Ordering::SeqCst);
            let runtime = self.runtime(to);
            let tick = match payload {
                SimPayload::Reference { recipient, target } => {
                    runtime.receive_reference(from, recipient, target)
                }
                SimPayload::Control(msg) => runtime.on_control(from, msg),
            };
            self.absorb(to, tick);
        } else {
            // The site is down (or between crash and recover): the frame
            // dies with the inbox, counted as loss — the same semantics as
            // both transports.
            self.metrics.record_frame_dropped(&frame);
        }
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The coordinator side of a parallel run, while workers are live.
struct Coordinator<C: Collector> {
    config: ClusterConfig,
    mailboxes: Vec<Sender<Command>>,
    replies: Receiver<Reply<C>>,
    shared: Arc<SharedState>,
    names: BTreeMap<ObjName, GlobalAddr>,
    /// Predicted next allocation id per site (`SiteHeap` allocates ids
    /// 1, 2, … in order; recovery replays preserve the counter).
    next_object: BTreeMap<SiteId, u64>,
    legality: Option<Legality>,
    /// Sites currently down, with their scheduled restart time.
    downed: BTreeMap<SiteId, u64>,
    crashes_applied: Vec<bool>,
    workers: usize,
    /// Current expected membership (up or temporarily crashed).
    membership: BTreeSet<SiteId>,
    /// Sites gone through a planned leave.
    departed: BTreeSet<SiteId>,
    /// Sites evicted (heaps retained worker-side for the oracle).
    evicted: BTreeSet<SiteId>,
    /// Every announcement so far, replayed to joiners as catch-up history.
    membership_log: Vec<MembershipAnnouncement>,
    /// The logical step clock — counts scenario steps exactly like the
    /// sequential driver's, and is carried on every dispatched command.
    step: u64,
    /// Cluster-scope observability handle.
    obs: SiteObs,
}

impl<C: Collector> Coordinator<C> {
    fn site_is_up(&self, site: SiteId) -> bool {
        self.membership.contains(&site) && !self.downed.contains_key(&site)
    }

    /// True when `addr` is hosted by a site that permanently left: ops
    /// naming it are skipped, exactly like ops lost to a crash window.
    fn addr_is_gone(&self, addr: GlobalAddr) -> bool {
        self.departed.contains(&addr.site()) || self.evicted.contains(&addr.site())
    }

    fn send_to_site(&self, site: SiteId, op: SiteOp) {
        let _ =
            self.mailboxes[worker_of(site, self.workers)].send(Command::Op(site, op, self.step));
    }

    fn broadcast(&self, make: impl Fn() -> Command) {
        for mailbox in &self.mailboxes {
            let _ = mailbox.send(make());
        }
    }

    /// Waits for one acknowledgement of `expected` kind from every worker,
    /// returning the summed drain counts. Panics (rather than hangs) when a
    /// worker goes silent — the stress suite asserts the termination
    /// barrier cannot deadlock.
    fn await_acks(&self, expected: &'static str) -> u64 {
        let mut processed = 0;
        for _ in 0..self.workers {
            match self.replies.recv_timeout(PHASE_DEADLINE) {
                Ok(Reply::DrainDone { processed: p }) if expected == "drain" => processed += p,
                Ok(Reply::AtBarrier) if expected == "barrier" => {}
                Ok(Reply::CollectDone) if expected == "collect" => {}
                Ok(other) => panic!(
                    "parallel protocol violation: got {} while awaiting {expected} acks",
                    other.kind()
                ),
                Err(_) => panic!("parallel {expected} phase stalled — a worker went silent"),
            }
        }
        processed
    }

    /// The parallel settle: an op barrier, then rounds of drain-then-
    /// collect until a round neither processed nor emitted a frame. The
    /// sequential settle's global round counter survives only as the
    /// safety valve; progress itself is judged by the termination barrier.
    fn settle(&mut self) {
        let step = self.step;
        let mut rounds: u64 = 0;
        let mut delivered: u64 = 0;
        self.broadcast(|| Command::Barrier);
        self.await_acks("barrier");
        for _ in 0..self.config.settle_rounds() {
            rounds += 1;
            self.lifecycle();
            self.broadcast(|| Command::Drain(step));
            let processed = self.await_acks("drain");
            delivered += processed;
            self.lifecycle();
            let before = self.shared.frames_sent.load(Ordering::SeqCst);
            self.broadcast(|| Command::Collect { ack: true, step });
            self.await_acks("collect");
            let emitted = self.shared.frames_sent.load(Ordering::SeqCst) - before;
            if processed == 0 && emitted == 0 && self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
        }
        // Round/delivery counts are schedule-shaped (drain waves vs the
        // sequential per-delivery loop) — a non-deterministic event. The
        // credit high-water mark is the run-so-far peak of the termination
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

    /// Applies the fault plan's crash schedule against the shared delivery
    /// clock — the parallel mirror of `Cluster::process_crash_lifecycle`,
    /// sampled at op dispatch and settle-round boundaries (crash windows
    /// opening mid-drain take effect at the next boundary).
    fn lifecycle(&mut self) {
        if self.crashes_applied.is_empty() && self.downed.is_empty() {
            return;
        }
        let now = self.shared.deliveries.load(Ordering::SeqCst);
        for index in 0..self.crashes_applied.len() {
            let crash = self.config.faults.crashes()[index];
            if self.crashes_applied[index] || now < crash.at_round {
                continue;
            }
            self.crashes_applied[index] = true;
            self.crash_site(crash.site, crash.restart_after);
        }
        let due: Vec<SiteId> = self
            .downed
            .iter()
            .filter(|(_, &restart)| restart <= now)
            .map(|(&site, _)| site)
            .collect();
        for site in due {
            self.recover_site(site);
        }
    }

    fn crash_site(&mut self, site: SiteId, restart_after: u64) {
        if let Some(restart) = self.downed.get_mut(&site) {
            // Overlapping windows merely extend the outage.
            *restart = (*restart).max(restart_after);
            return;
        }
        self.downed.insert(site, restart_after);
        let _ = self.mailboxes[worker_of(site, self.workers)].send(Command::Crash(site));
    }

    fn recover_site(&mut self, site: SiteId) {
        if self.downed.remove(&site).is_some() {
            let _ = self.mailboxes[worker_of(site, self.workers)]
                .send(Command::Recover(site, self.step));
        }
    }

    /// Resolves and dispatches one mutator op — the coordinator half of
    /// `Cluster::execute`, with identical skip semantics.
    fn dispatch(&mut self, op: MutatorOp) {
        self.lifecycle();
        match op {
            MutatorOp::Alloc {
                site,
                name,
                local_root,
            } => {
                if !self.site_is_up(site) {
                    return;
                }
                let next = self.next_object.entry(site).or_insert(1);
                let addr = GlobalAddr::from_parts(site, ObjectId::new(*next));
                *next += 1;
                self.names.insert(name, addr);
                if let Some(legality) = &mut self.legality {
                    legality.note_alloc(name, site, local_root);
                }
                self.send_to_site(
                    site,
                    SiteOp::Alloc {
                        local_root,
                        expect: addr,
                    },
                );
            }
            MutatorOp::LinkLocal { site, from, to } => {
                let (Some(&from_addr), Some(&to_addr)) =
                    (self.names.get(&from), self.names.get(&to))
                else {
                    return;
                };
                if !self.site_is_up(site)
                    || self.addr_is_gone(from_addr)
                    || self.addr_is_gone(to_addr)
                {
                    return;
                }
                self.send_to_site(
                    site,
                    SiteOp::LinkLocal {
                        from: from_addr,
                        to: to_addr,
                    },
                );
            }
            MutatorOp::Unlink { site, from, to } => {
                let (Some(&from_addr), Some(&to_addr)) =
                    (self.names.get(&from), self.names.get(&to))
                else {
                    return;
                };
                if !self.site_is_up(site)
                    || self.addr_is_gone(from_addr)
                    || self.addr_is_gone(to_addr)
                {
                    return;
                }
                self.send_to_site(
                    site,
                    SiteOp::Unlink {
                        from: from_addr,
                        to: to_addr,
                    },
                );
            }
            MutatorOp::SendRef {
                from_site,
                recipient,
                target,
            } => {
                let (Some(&recipient_addr), Some(&target_addr)) =
                    (self.names.get(&recipient), self.names.get(&target))
                else {
                    return;
                };
                if !self.site_is_up(from_site)
                    || self.addr_is_gone(recipient_addr)
                    || self.addr_is_gone(target_addr)
                {
                    return;
                }
                if let Some(legality) = &mut self.legality {
                    if !legality.approve_send(target, from_site, recipient, recipient_addr.site()) {
                        return;
                    }
                }
                self.send_to_site(
                    from_site,
                    SiteOp::SendRef {
                        target: target_addr,
                        recipient: recipient_addr,
                    },
                );
            }
            MutatorOp::DropLocalRoot { site, name } => {
                let Some(&addr) = self.names.get(&name) else {
                    return;
                };
                if !self.site_is_up(site) || self.addr_is_gone(addr) {
                    return;
                }
                self.send_to_site(site, SiteOp::DropLocalRoot { addr });
            }
            MutatorOp::ClearRefs { site, name } => {
                let Some(&addr) = self.names.get(&name) else {
                    return;
                };
                if !self.site_is_up(site) || self.addr_is_gone(addr) {
                    return;
                }
                self.send_to_site(site, SiteOp::ClearRefs { addr });
            }
            MutatorOp::CollectSite { site } => {
                if self.site_is_up(site) {
                    self.send_to_site(site, SiteOp::Collect);
                }
            }
            MutatorOp::CollectAll => {
                let step = self.step;
                self.broadcast(|| Command::Collect { ack: false, step });
            }
        }
    }

    /// Records `ann` in the history and mails it to every worker. FIFO
    /// mailbox order guarantees a preceding `Join`/`Remove`/`Evict` command
    /// on the owning worker lands before the announcement does.
    fn announce(&mut self, ann: MembershipAnnouncement) {
        self.obs.event(
            "membership",
            true,
            &[
                ("epoch", ann.epoch),
                ("site", u64::from(ann.site.index())),
                ("kind", membership_kind_code(ann.kind)),
            ],
        );
        self.membership_log.push(ann);
        let step = self.step;
        self.broadcast(|| Command::Membership(ann, step));
    }

    /// The parallel half of the elastic-membership protocol — same
    /// join / planned-leave / evict sequencing as
    /// [`Cluster::execute_membership`](crate::Cluster), with the settle
    /// barriers standing in for the sequential quiesce points.
    fn execute_membership(&mut self, ev: MembershipEvent) {
        self.lifecycle();
        let site = ev.site;
        match ev.kind {
            MembershipKind::Join => {
                if self.membership.contains(&site)
                    || self.departed.contains(&site)
                    || self.evicted.contains(&site)
                {
                    return;
                }
                self.membership.insert(site);
                let history = self.membership_log.clone();
                let _ = self.mailboxes[worker_of(site, self.workers)].send(Command::Join {
                    site,
                    history,
                    step: self.step,
                });
                self.announce(MembershipAnnouncement {
                    epoch: ev.epoch,
                    kind: MembershipChange::Join,
                    site,
                });
                self.settle();
            }
            MembershipKind::PlannedLeave => {
                if !self.membership.contains(&site) {
                    return;
                }
                if self.downed.contains_key(&site) {
                    // A crashed site can still leave in an orderly fashion:
                    // recover its durable state first, then hand off.
                    self.recover_site(site);
                }
                // Quiesce so the departing site's DkLog drains, hand off on
                // every survivor, quiesce again, then dissolve + announce.
                self.settle();
                self.obs.event(
                    "handoff",
                    true,
                    &[("epoch", ev.epoch), ("departing", u64::from(site.index()))],
                );
                let step = self.step;
                self.broadcast(|| Command::Handoff {
                    departing: site,
                    epoch: ev.epoch,
                    step,
                });
                self.settle();
                let _ = self.mailboxes[worker_of(site, self.workers)].send(Command::Remove(site));
                self.membership.remove(&site);
                self.departed.insert(site);
                self.announce(MembershipAnnouncement {
                    epoch: ev.epoch,
                    kind: MembershipChange::PlannedLeave,
                    site,
                });
                self.settle();
            }
            MembershipKind::Evict => {
                if !self.membership.contains(&site) {
                    return;
                }
                if self.downed.contains_key(&site) {
                    // Recover first so the eviction can keep a heap for the
                    // oracle (replay reconstructs the crash-time heap).
                    self.recover_site(site);
                }
                let _ = self.mailboxes[worker_of(site, self.workers)].send(Command::Evict(site));
                self.membership.remove(&site);
                self.evicted.insert(site);
                self.announce(MembershipAnnouncement {
                    epoch: ev.epoch,
                    kind: MembershipChange::Evict,
                    site,
                });
                self.settle();
            }
        }
    }
}

/// The end state of a parallel run: every site runtime reassembled on the
/// coordinator, ready for oracle inspection — the parallel counterpart of a
/// finished [`Cluster`](crate::Cluster).
pub struct ParallelCluster<C: Collector> {
    sites: BTreeMap<SiteId, SiteRuntime<C>>,
    reclaimed_addrs: BTreeSet<GlobalAddr>,
    recoveries: u64,
    /// Heaps of evicted sites — their objects conservatively still exist.
    evicted: BTreeMap<SiteId, SiteHeap>,
    /// Sites gone through a planned leave over the run.
    departed: BTreeSet<SiteId>,
    /// Cluster-scope observability handle (network aggregates already
    /// absorbed as auxiliary gauges at end of run).
    obs: SiteObs,
}

impl<C> ParallelCluster<C>
where
    C: Collector + Send + 'static,
    C::Msg: Send + 'static,
{
    /// Runs `scenario` on [`ClusterConfig::workers`] worker threads and
    /// returns the report together with the reassembled cluster state.
    ///
    /// Mirrors [`Cluster::run_seeded`](crate::Cluster::run_seeded) in
    /// inputs and skip semantics, but the run is *not* deterministic:
    /// frame interleaving across workers is scheduler-dependent, exactly
    /// like the threaded transport. [`ClusterConfig::safety_oracle`] is
    /// ignored (no consistent global heap view exists mid-run); safety is
    /// checked by the sequential-equivalence suite instead. Of
    /// [`ClusterConfig::faults`], only the crash schedule applies.
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
        assert!(
            config.faults.crashes().is_empty() || config.durability.is_on(),
            "crash faults require durability (ClusterConfig::durability)"
        );
        let site_count = scenario.site_count();
        let workers = (config.workers as usize).min(site_count.max(1) as usize);
        let shared = Arc::new(SharedState {
            triggered_at: AtomicU64::new(u64::MAX),
            triggered_step: AtomicU64::new(u64::MAX),
            ..SharedState::default()
        });
        let collector_name = factory(SiteId::new(0)).name().to_owned();

        // Build the shards and the mailbox mesh.
        let (reply_tx, replies) = unbounded::<Reply<C>>();
        let mut mailboxes = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = unbounded::<Command>();
            mailboxes.push(tx);
            receivers.push(rx);
        }
        let mut handles = Vec::with_capacity(workers);
        for (index, rx) in receivers.into_iter().enumerate() {
            let mut runtimes = BTreeMap::new();
            for i in 0..site_count {
                let site = SiteId::new(i);
                if worker_of(site, workers) != index {
                    continue;
                }
                let mut runtime = SiteRuntime::with_mode(site, factory(site), config.sync_mode)
                    .with_obs(SiteObs::new(Some(site), &config.obs));
                if let Some(store) = SiteStore::open(site, &config.durability) {
                    runtime = runtime.with_store(store);
                }
                runtimes.insert(site, runtime);
            }
            let worker = Worker {
                index,
                runtimes,
                downed: BTreeMap::new(),
                downed_obs: BTreeMap::new(),
                pending_catchup: BTreeMap::new(),
                evicted: BTreeMap::new(),
                durability: config.durability.clone(),
                pending: VecDeque::new(),
                mailboxes: mailboxes.clone(),
                replies: reply_tx.clone(),
                shared: Arc::clone(&shared),
                metrics: NetMetrics::new(),
                reclaimed: 0,
                reclaimed_addrs: BTreeSet::new(),
                verdicts: 0,
                recoveries: 0,
                factory: factory.clone(),
                sync_mode: config.sync_mode,
                workers,
                obs_config: config.obs,
                current_step: 0,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ggd-worker-{index}"))
                    .spawn(move || worker.run(rx))
                    .expect("spawn worker thread"),
            );
        }
        drop(reply_tx);

        let crashes_applied = vec![false; config.faults.crashes().len()];
        let legality = if config.faults.crashes().is_empty() && !scenario.has_membership() {
            None
        } else {
            Some(Legality::default())
        };
        let obs = SiteObs::new(None, &config.obs);
        let mut coordinator = Coordinator::<C> {
            config,
            mailboxes,
            replies,
            shared: Arc::clone(&shared),
            names: BTreeMap::new(),
            next_object: BTreeMap::new(),
            legality,
            downed: BTreeMap::new(),
            crashes_applied,
            workers,
            membership: (0..site_count).map(SiteId::new).collect(),
            departed: BTreeSet::new(),
            evicted: BTreeSet::new(),
            membership_log: Vec::new(),
            step: 0,
            obs,
        };

        // Drive the scenario: ops stream to the shards, settles synchronize.
        // The step clock counts scenario steps exactly like the sequential
        // driver's (first step = 1, end-of-run completion = one more).
        for step in scenario.steps() {
            coordinator.step += 1;
            let current = coordinator.step;
            coordinator.obs.set_step(current);
            match step {
                Step::Op(op) => coordinator.dispatch(*op),
                Step::Settle => coordinator.settle(),
                Step::Membership(ev) => coordinator.execute_membership(*ev),
            }
        }
        coordinator.step += 1;
        let final_step = coordinator.step;
        coordinator.obs.set_step(final_step);
        coordinator.settle();
        if !coordinator.downed.is_empty() {
            let sites: Vec<SiteId> = coordinator.downed.keys().copied().collect();
            for site in sites {
                coordinator.recover_site(site);
            }
            coordinator.settle();
        }

        // Shut down and reassemble.
        coordinator.broadcast(|| Command::Shutdown);
        let mut sites = BTreeMap::new();
        let mut net = NetMetrics::new();
        let mut reclaimed = 0;
        let mut reclaimed_addrs = BTreeSet::new();
        let mut verdicts = 0;
        let mut recoveries = 0;
        let mut evicted = BTreeMap::new();
        for _ in 0..workers {
            match coordinator.replies.recv_timeout(PHASE_DEADLINE) {
                Ok(Reply::Finished(state)) => {
                    sites.extend(state.runtimes);
                    net.absorb(&state.metrics);
                    reclaimed += state.reclaimed;
                    reclaimed_addrs.extend(state.reclaimed_addrs);
                    verdicts += state.verdicts;
                    recoveries += state.recoveries;
                    evicted.extend(state.evicted);
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
            sites.len(),
            coordinator.membership.len(),
            "every member site must be up and returned at end of run"
        );
        let residual = Oracle::garbage(
            sites
                .values()
                .map(SiteRuntime::heap)
                .chain(evicted.values()),
        )
        .len() as u64;
        let allocated = sites.values().map(|rt| rt.heap().stats().allocated).sum();
        let triggered = shared.triggered_at.load(Ordering::SeqCst);
        let triggered_step = shared.triggered_step.load(Ordering::SeqCst);
        let mut cluster_obs = coordinator.obs.take();
        if cluster_obs.is_enabled() {
            // The network aggregates live in the report's metrics snapshot;
            // mirror them as auxiliary gauges before `net` moves out.
            record_net(&mut cluster_obs, &net);
        }
        let report = RunReport {
            collector: collector_name,
            sites: sites.len() as u32,
            allocated,
            reclaimed,
            safety_violations: 0,
            residual_garbage: residual,
            verdicts,
            finished_at: shared.deliveries.load(Ordering::SeqCst),
            last_verdict_at: (verdicts > 0).then(|| shared.last_verdict_at.load(Ordering::SeqCst)),
            triggered_at: (triggered != u64::MAX).then_some(triggered),
            triggered_step: (triggered_step != u64::MAX).then_some(triggered_step),
            last_verdict_step: (verdicts > 0)
                .then(|| shared.last_verdict_step.load(Ordering::SeqCst)),
            net,
        };
        let cluster = ParallelCluster {
            sites,
            reclaimed_addrs,
            recoveries,
            evicted,
            departed: coordinator.departed.clone(),
            obs: cluster_obs,
        };
        (report, cluster)
    }
}

impl<C: Collector> ParallelCluster<C> {
    /// Read access to a site's heap.
    pub fn heap(&self, site: SiteId) -> &SiteHeap {
        self.sites[&site].heap()
    }

    /// Iterates over every site's heap — member sites plus evicted heaps
    /// (the latter conservatively still exist for the oracle).
    pub fn heaps(&self) -> impl Iterator<Item = &SiteHeap> {
        self.sites
            .values()
            .map(SiteRuntime::heap)
            .chain(self.evicted.values())
    }

    /// The sites whose collector state or heap still references `departed`.
    /// Empty after a planned leave, on any worker count.
    pub fn sites_mentioning(&self, departed: SiteId) -> Vec<SiteId> {
        sites_mentioning(&self.sites, departed)
    }

    /// Sites gone through a planned leave over the run.
    pub fn departed_sites(&self) -> &BTreeSet<SiteId> {
        &self.departed
    }

    /// Sites evicted over the run.
    pub fn evicted_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.evicted.keys().copied()
    }

    /// The addresses of every object reclaimed by local collections.
    pub fn reclaimed_addrs(&self) -> &BTreeSet<GlobalAddr> {
        &self.reclaimed_addrs
    }

    /// The residual-garbage set at end of run, per the oracle.
    pub fn garbage_addrs(&self) -> BTreeSet<GlobalAddr> {
        Oracle::garbage(self.heaps())
    }

    /// Number of site recoveries performed over the run.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// True when the site's runtime came back up (always, for a completed
    /// run — the driver recovers every downed site before reporting).
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.sites.contains_key(&site)
    }

    /// Aggregated durable-store counters across every site. All zeros with
    /// durability off.
    pub fn store_stats(&self) -> StoreStats {
        let stores = self.sites.values().filter_map(SiteRuntime::store);
        sum_store_stats(stores.map(SiteStore::stats))
    }

    /// Assembles the observability report — the parallel counterpart of
    /// [`Cluster::obs_report`](crate::Cluster::obs_report), with identical
    /// scope structure and auxiliary gauges. Empty/disabled when
    /// [`ClusterConfig::obs`] is off.
    pub fn obs_report(&self) -> ObsReport {
        let mut cluster_obs = self.obs.clone();
        if cluster_obs.is_enabled() {
            record_store(&mut cluster_obs, &self.store_stats(), self.recoveries);
        }
        let site_obs: Vec<SiteObs> = self.sites.values().map(SiteRuntime::obs_scope).collect();
        ObsReport::assemble(&cluster_obs, site_obs.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CausalCollector, RefListingCollector, TracingCollector};
    use crate::Cluster;
    use ggd_mutator::workloads;

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
}
