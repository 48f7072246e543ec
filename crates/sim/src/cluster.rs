//! The drive loop, written once: a [`Cluster`] runs a scenario over a
//! [`Network`].
//!
//! The loop decides what each scenario step does — it resolves object
//! names, skips ops that can no longer run, applies the crash schedule and
//! runs each membership protocol's steps in order — and calls the one shard
//! (`shard.rs`) holding every site to do it, at once, on the calling
//! thread. The shard's site table is the only record of which sites are
//! members and which are up, and the shard judges each local collection
//! against the global reachability [`Oracle`]. The loop runs ops, settles
//! and membership events, then the end-of-run completion with its
//! straggler recovery, applying the crash schedule before every op,
//! membership event and delivery round. The two drivers differ only in their [`Network`]:
//! how a settle round delivers what is in flight. Any [`Transport`] is
//! polled to empty, with the crash schedule applied before each delivery;
//! its default, the deterministic [`SimNetwork`], makes every run
//! bit-for-bit reproducible. The [`ParallelCluster`](crate::ParallelCluster)
//! is this loop over a mailbox mesh drained on scoped threads.

use std::collections::BTreeSet;
use std::fmt;

use ggd_heap::SiteHeap;
use ggd_mutator::{Legality, MembershipEvent, MembershipKind, MutatorOp, ObjName, Scenario, Step};
use ggd_net::{FaultPlan, NetMetrics, SimNetwork, SimNetworkConfig, Transport};
use ggd_obs::{ObsConfig, ObsReport, SiteObs};
use ggd_store::{DurabilityConfig, MembershipAnnouncement, MembershipChange, StoreStats};
use ggd_types::{GlobalAddr, SiteId};

use crate::collector::{Collector, SimPayload};
use crate::oracle::Oracle;
use crate::report::{record_net, record_store, RunReport};
use crate::shard::{slot, Garbage, Outbox, Shard};

/// Safety valve of the settle loop: the most rounds of deliver-then-collect
/// one settle runs before giving up on quiescence.
const SETTLE_ROUNDS: u32 = 64;

/// Configuration of a cluster run.
///
/// The `net` and `seed` fields parameterize the [`SimNetwork`] that
/// [`Cluster::new`] / [`Cluster::from_scenario`] build, which applies all of
/// `faults`. Whatever the network, every cluster takes its crash schedule
/// from `faults` ([`FaultPlan::crashes`]), [`Cluster::with_transport`]
/// included. A network supplied there ignores `net` and `seed` and
/// injects only the faults it was built with. Of the rest of `faults`,
/// only the partition windows apply there, and only on the parallel
/// driver's mesh, which drops frames across them.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Network latency/jitter configuration (simulated network only).
    pub net: SimNetworkConfig,
    /// Fault injection plan, fixed for the run. The simulated network
    /// applies all of it; [`ParallelCluster`](crate::ParallelCluster)
    /// applies its crash schedule and partition windows.
    pub faults: FaultPlan,
    /// RNG seed for the network (simulated network only).
    pub seed: u64,
    /// When true (the default), every local collection is cross-checked
    /// against the global reachability oracle, on either driver: one
    /// O(cluster) pass per collection round (a settle round's collections,
    /// or one scheduled collection), plus one after any unsafe collection.
    /// The repo benchmark's timed reps disable it to measure the
    /// collectors, not the oracle. Off or on, [`Cluster::report`] runs one
    /// flat oracle pass ([`Oracle::reachable`]) to count the residual
    /// garbage.
    pub safety_oracle: bool,
    /// Site durability: off (volatile sites, the default), the in-memory
    /// durable medium, or on-disk stores. Crash faults in
    /// [`ClusterConfig::faults`] require durability — a crashed volatile
    /// site could not come back.
    pub durability: DurabilityConfig,
    /// The number of drain threads of the parallel driver
    /// ([`ParallelCluster`](crate::ParallelCluster)). `0` — the default —
    /// means the sequential single-threaded driver; the sequential
    /// [`Cluster`] ignores this field entirely, so every deterministic path
    /// is bit-for-bit unaffected. `ParallelCluster` requires ≥ 1: each
    /// settle round then drains the mailboxes on that many scoped threads
    /// (capped at the site count), each lent the sites assigned to it round
    /// robin by site id.
    pub workers: u32,
    /// Observability (`ggd-obs`): per-site metrics, structured trace events
    /// and the object-lifecycle ledger. Off by default — every probe is a
    /// no-op then, so the measured paths are unchanged.
    pub obs: ObsConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            net: SimNetworkConfig::default(),
            faults: FaultPlan::default(),
            seed: 0,
            safety_oracle: true,
            durability: DurabilityConfig::off(),
            workers: 0,
            obs: ObsConfig::default(),
        }
    }
}

/// How a settle round moves what is in flight — the one thing the two
/// drivers do differently. Implemented for every [`Transport`] and for the
/// parallel driver's mailbox mesh. Public only so [`Cluster`]'s methods can
/// name it in their bounds: its module is private, so nothing outside this
/// crate can name or implement it.
pub trait Network<C: Collector>: Outbox<C::Msg> + Sized {
    /// Delivers everything in flight, and whatever that delivery sends in
    /// turn, and returns how many payloads were delivered.
    fn deliver(cluster: &mut Cluster<C, Self>) -> u64;

    /// True when nothing is in flight.
    fn idle(&self) -> bool;

    /// The network counters as of now.
    fn metrics(&self) -> NetMetrics;
}

impl<C: Collector, T: Transport<SimPayload<C::Msg>>> Network<C> for T {
    /// Polls the transport to empty. Each delivery advances the transport
    /// clock, so the crash schedule is applied before each one.
    fn deliver(cluster: &mut Cluster<C, T>) -> u64 {
        let mut delivered = 0;
        while let Some(delivery) = cluster.net.poll() {
            delivered += 1;
            cluster.lifecycle();
            // The transport filters deliveries to crashed sites by its own
            // clock; a message can still slip through in the instant before
            // the cluster observes the crash. It dies with the site's inbox.
            let (from, to, payload) = (delivery.from, delivery.to, delivery.payload);
            cluster.shard.deliver(from, to, payload, &mut cluster.net);
        }
        delivered
    }

    fn idle(&self) -> bool {
        self.pending() == 0
    }

    fn metrics(&self) -> NetMetrics {
        self.metrics_snapshot()
    }
}

/// An entry of the name table: the address a name is bound to, in 8 bytes
/// where a [`GlobalAddr`] takes 16. Object 0, which no heap allocates,
/// means unbound, so the default entry resolves to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Binding {
    site: u32,
    object: u32,
}

impl Binding {
    /// The entry binding a name to `addr`.
    ///
    /// # Panics
    ///
    /// Panics when `addr`'s object identity is 2^32 or more: the entry
    /// cannot hold it, and truncating it would alias another object.
    fn to(addr: GlobalAddr) -> Self {
        let object = addr.object().index();
        let Ok(object) = u32::try_from(object) else {
            panic!("object identity {object} of {addr} is past the name table's limit of 2^32 - 1");
        };
        Binding {
            site: addr.site().index(),
            object,
        }
    }

    /// The bound address, or `None` for an unbound entry.
    fn addr(self) -> Option<GlobalAddr> {
        (self.object != 0).then(|| GlobalAddr::new(self.site, u64::from(self.object)))
    }
}

/// A cluster of sites, each a [`SiteRuntime`](crate::SiteRuntime) pairing a
/// heap with a garbage-detection engine, connected by a network: any
/// [`Transport`], or the mailbox mesh of a
/// [`ParallelCluster`](crate::ParallelCluster).
///
/// The network defaults to the deterministic [`SimNetwork`], so
/// experiment code reads exactly as before the transport abstraction:
/// `Cluster::from_scenario(&scenario, config, CausalCollector::new)`.
pub struct Cluster<C: Collector, N = SimNetwork<SimPayload<<C as Collector>::Msg>>> {
    /// The address each object name was allocated at, indexed by
    /// `ObjName.0`: names are dense by construction (`Scenario::fresh_name`
    /// counts up from 0), so resolving one is an index, not a search. A
    /// name whose `Alloc` has not run or was skipped holds the default
    /// entry, whose object 0 no heap allocates: it resolves to nothing,
    /// like an index past the end.
    names: Vec<Binding>,
    /// Mutator-legality tracking, maintained only under crash plans and
    /// membership schedules: which sites hold (a copy of) each named
    /// object's reference, and which objects are addressable (local roots,
    /// or targets of an executed send). When an op is skipped, later ops
    /// that causally depended on it are skipped too — otherwise a `SendRef`
    /// could forward a reference its sender never held, an illegal
    /// computation outside every collector's safety contract.
    legality: Option<Legality>,
    /// Crash windows that have not opened yet, as `(site, at, restart)` in
    /// transport time and schedule order.
    crashes: Vec<(SiteId, u64, u64)>,
    /// Every membership announcement so far, in epoch order — late joiners
    /// catch up on it before applying their own join.
    membership_log: Vec<MembershipAnnouncement>,
    /// Every site of the cluster, up, down or gone, and the configuration they
    /// were built under. Its logical step clock counts scenario steps during
    /// [`Cluster::run`]; both drivers count the same steps, so timestamps
    /// derived from it (unlike network-clock ones) compare across drivers.
    pub(crate) shard: Shard<C>,
    pub(crate) net: N,
    /// Cluster-scope observability handle (disabled unless
    /// [`ClusterConfig::obs`] turns it on).
    obs: SiteObs,
}

impl<C, N> fmt::Debug for Cluster<C, N>
where
    C: Collector + fmt::Debug,
    N: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.shard.config)
            .field("crashes", &self.crashes)
            .field("membership_log", &self.membership_log)
            .field("recoveries", &self.shard.recoveries())
            .field("net", &self.net)
            .finish_non_exhaustive()
    }
}

impl<C: Collector> Cluster<C> {
    /// Creates a cluster of `sites` sites over a deterministic
    /// [`SimNetwork`] built from `config`, constructing each site's
    /// collector with `factory`.
    pub fn new(sites: u32, config: ClusterConfig, factory: impl Fn(SiteId) -> C + 'static) -> Self {
        let net = SimNetwork::with_faults(config.net, config.faults.clone(), config.seed);
        Cluster::with_transport(sites, config, net, factory)
    }

    /// Creates a simulated cluster sized for `scenario`.
    pub fn from_scenario(
        scenario: &Scenario,
        config: ClusterConfig,
        factory: impl Fn(SiteId) -> C + 'static,
    ) -> Self {
        Cluster::new(scenario.site_count(), config, factory)
    }

    /// Builds a simulated cluster for `scenario`, runs it to completion and
    /// returns the report together with the finished cluster, ready for
    /// oracle inspection ([`Cluster::garbage_addrs`],
    /// [`Cluster::reclaimed_addrs`]). Everything is derived from
    /// `(scenario, config)`, so calling this twice with the same inputs
    /// produces identical reports — the replay-determinism contract the
    /// differential explorer cross-checks.
    pub fn run_seeded(
        scenario: &Scenario,
        config: ClusterConfig,
        factory: impl Fn(SiteId) -> C + 'static,
    ) -> (RunReport, Self) {
        let mut cluster = Cluster::from_scenario(scenario, config, factory);
        let report = cluster.run(scenario);
        (report, cluster)
    }
}

impl<C: Collector, N: Network<C>> Cluster<C, N> {
    /// Creates a cluster of `sites` sites over an explicit `transport`.
    ///
    /// # Panics
    ///
    /// Panics when the fault plan schedules site crashes but
    /// [`ClusterConfig::durability`] is off: a crashed volatile site loses
    /// its heap with no way back, so crash faults require a durable
    /// backend.
    pub fn with_transport(
        sites: u32,
        config: ClusterConfig,
        transport: N,
        factory: impl Fn(SiteId) -> C + 'static,
    ) -> Self {
        let crashes = config.faults.crashes();
        assert!(
            crashes.is_empty() || config.durability.is_on(),
            "crash faults require durability (ClusterConfig::durability)"
        );
        let crashes: Vec<_> = crashes
            .iter()
            .map(|c| (c.site, c.at_round, c.restart_after))
            .collect();
        Cluster {
            names: Vec::new(),
            legality: (!crashes.is_empty()).then(Legality::default),
            crashes,
            membership_log: Vec::new(),
            obs: SiteObs::new(None, &config.obs),
            shard: Shard::new((0..sites).map(SiteId::new), config, Box::new(factory)),
            net: transport,
        }
    }

    /// Runs a whole scenario and returns the end-of-run report. Sites whose
    /// crash window extends past the scenario's end are recovered before
    /// the final settle, so the report always covers the whole cluster.
    pub fn run(&mut self, scenario: &Scenario) -> RunReport {
        if scenario.has_membership() {
            // Departures skip ops exactly like crash windows do, and the
            // skips can break causal send chains.
            self.legality.get_or_insert_with(Legality::default);
        }
        for step in scenario.steps() {
            // Advance the logical step clock *before* executing: the first
            // scenario step is step 1.
            self.advance_step();
            let garbage = self.run_step(step);
            self.shard.mark_garbage_unreachable(garbage);
        }
        self.complete();
        self.report()
    }

    /// Runs one scenario step, returning what it can have made unreachable.
    fn run_step(&mut self, step: &Step) -> Garbage {
        match step {
            Step::Op(op) => self.execute_op(*op),
            Step::Settle => {
                self.settle();
                Garbage::Any
            }
            Step::Membership(ev) => {
                self.execute_membership(*ev);
                Garbage::Any
            }
        }
    }

    /// The end-of-run completion, counted as one more step: a final settle,
    /// then every site still down is recovered, whatever its restart time,
    /// and the cluster settles once more.
    fn complete(&mut self) {
        self.advance_step();
        self.settle();
        self.shard.mark_garbage_unreachable(Garbage::Any);
        if self.shard.recover_due(u64::MAX, &mut self.net) > 0 {
            self.settle();
        }
    }

    fn advance_step(&mut self) {
        self.shard.step += 1;
        self.obs.set_step(self.shard.step);
    }

    /// Executes a single mutator operation.
    ///
    /// Under a crash plan, operations on a site that is currently down are
    /// skipped — the mutator process died with its site — and so are
    /// operations using a name whose `Alloc` was itself skipped. The skip
    /// pattern is a pure function of `(scenario, fault plan, seed)`, so
    /// replay determinism is preserved.
    pub fn execute(&mut self, op: MutatorOp) {
        self.execute_op(op);
    }

    /// [`Cluster::execute`], returning what the step can have made
    /// unreachable. An op that only adds a reference (`LinkLocal`,
    /// `SendRef`: the oracle counts no global root and no reference in
    /// flight) or allocates cuts nothing off, unless the crash schedule
    /// ran in the same step.
    fn execute_op(&mut self, op: MutatorOp) -> Garbage {
        let quiet = self.lifecycle() == 0;
        match self.apply_op(op) {
            Some(garbage) if quiet => garbage,
            None if quiet => Garbage::None,
            _ => Garbage::Any,
        }
    }

    /// Runs one op on its site and returns what it can have made
    /// unreachable, or skips it (`None`): an op on a site that is down,
    /// naming an object that was never allocated or whose site has
    /// permanently left, or a `SendRef` that is no longer a legal
    /// computation after earlier skips.
    fn apply_op(&mut self, op: MutatorOp) -> Option<Garbage> {
        let garbage = match op {
            MutatorOp::Alloc {
                site,
                name,
                local_root,
            } => {
                if !self.shard.is_up(site) {
                    return None;
                }
                let addr = self.shard.alloc(site, local_root);
                // A repeated Alloc of a name rebinds it.
                *slot(&mut self.names, name.0 as usize) = Binding::to(addr);
                if let Some(legality) = &mut self.legality {
                    legality.note_alloc(name, site, local_root);
                }
                if local_root {
                    Garbage::None
                } else {
                    Garbage::Fresh(addr)
                }
            }
            MutatorOp::LinkLocal { site, from, to } => {
                let (from, to) = (self.resolve(site, from)?, self.resolve(site, to)?);
                self.shard
                    .mutate(site, &mut self.net, |rt| rt.link_local(from, to));
                Garbage::None
            }
            MutatorOp::Unlink { site, from, to } => {
                let (from, to) = (self.resolve(site, from)?, self.resolve(site, to)?);
                self.shard
                    .mutate(site, &mut self.net, |rt| rt.unlink(from, to));
                Garbage::Any
            }
            MutatorOp::SendRef {
                from_site,
                recipient,
                target,
            } => {
                let recipient_addr = self.resolve(from_site, recipient)?;
                let target_addr = self.resolve(from_site, target)?;
                if let Some(legality) = &mut self.legality {
                    if !legality.approve_send(target, from_site, recipient, recipient_addr.site()) {
                        return None;
                    }
                }
                self.shard
                    .send_ref(from_site, target_addr, recipient_addr, &mut self.net);
                Garbage::None
            }
            MutatorOp::DropLocalRoot { site, name } => {
                let addr = self.resolve(site, name)?;
                self.shard
                    .mutate(site, &mut self.net, |rt| rt.drop_local_root(addr));
                Garbage::Any
            }
            MutatorOp::ClearRefs { site, name } => {
                let addr = self.resolve(site, name)?;
                self.shard
                    .mutate(site, &mut self.net, |rt| rt.clear_refs(addr));
                Garbage::Any
            }
            MutatorOp::CollectSite { site } => {
                if !self.shard.is_up(site) {
                    return None;
                }
                self.shard.collect_round(Some(site), &mut self.net);
                Garbage::Any
            }
            MutatorOp::CollectAll => {
                self.shard.collect_round(None, &mut self.net);
                Garbage::Any
            }
        };
        Some(garbage)
    }

    /// Resolves `name` for an op running on `site`. `None` — skip the op —
    /// when the name's `Alloc` was itself skipped, when `site` is down (the
    /// mutator process died with its site), or when the object is hosted by
    /// a site that has permanently left the fleet.
    fn resolve(&self, site: SiteId, name: ObjName) -> Option<GlobalAddr> {
        let addr = self.addr_of(name)?;
        (self.shard.is_up(site) && !self.shard.is_gone(addr.site())).then_some(addr)
    }

    /// Executes one epoch-stamped membership event — a join, a planned leave
    /// or an eviction (DESIGN.md §9 describes the three protocols). An event
    /// that no longer describes a fleet change — a join of a site that is
    /// or ever was a member, a departure of a non-member — does nothing.
    ///
    /// *Join*: a fresh site comes up (durably, when the cluster runs with
    /// durability: it WAL-logs from its very first input) and catches up on
    /// the membership history. *Planned leave*: see `Cluster::leave`.
    /// *Evict*: unplanned and permanent — no quiesce, no handoff, and a
    /// site that is down is evicted as it lies, without recovery. The
    /// evicted site's heap is kept for the oracle (its objects
    /// conservatively still exist); collectors stay conservative, so
    /// whatever it pinned becomes residual garbage, never a wrong verdict.
    ///
    /// Each change is then recorded in the history, announced to every
    /// site (deferred to recovery for sites that are down) and settled.
    pub fn execute_membership(&mut self, ev: MembershipEvent) {
        self.lifecycle();
        let site = ev.site;
        let kind = match ev.kind {
            MembershipKind::Join if self.shard.is_absent(site) => {
                let history = &self.membership_log;
                self.shard.join(site, history, &mut self.net);
                MembershipChange::Join
            }
            MembershipKind::PlannedLeave if self.shard.is_member(site) => {
                self.leave(site, ev.epoch);
                MembershipChange::PlannedLeave
            }
            MembershipKind::Evict if self.shard.is_member(site) => {
                self.shard.evict(site);
                MembershipChange::Evict
            }
            _ => return,
        };
        let ann = MembershipAnnouncement {
            epoch: ev.epoch,
            kind,
            site,
        };
        self.membership_log.push(ann);
        let kind = match kind {
            MembershipChange::Join => 0,
            MembershipChange::PlannedLeave => 1,
            MembershipChange::Evict => 2,
        };
        let fields = [
            ("epoch", ann.epoch),
            ("site", u64::from(site.index())),
            ("kind", kind),
        ];
        self.obs.event("membership", true, &fields);
        self.shard.announce(ann, &mut self.net);
        self.settle();
    }

    /// A planned leave, up to its announcement: quiesce, so the departing
    /// site's DkLog drains; every survivor performs the reference handoff
    /// (severing its references towards the departing site, durably
    /// recorded); quiesce again; the departing site dissolves. After the
    /// announcement every survivor retires the departed site's
    /// `DependencyVector`/`RootedVector` entries, and no reference to it
    /// survives anywhere ([`Cluster::sites_mentioning`]).
    ///
    /// A leave commits when it starts: the site leaves the crash schedule
    /// there, so a window that would open on it during the leave is
    /// ignored.
    fn leave(&mut self, site: SiteId, epoch: u64) {
        self.crashes.retain(|&(crashing, ..)| crashing != site);
        // A crashed site can still leave in an orderly fashion: recover its
        // durable state first, then hand off.
        self.shard.recover(site, &mut self.net);
        self.settle();
        let fields = [("epoch", epoch), ("departing", u64::from(site.index()))];
        self.obs.event("handoff", true, &fields);
        self.shard.handoff(site, epoch, &mut self.net);
        self.settle();
        self.shard.remove(site);
    }

    /// Applies the fault plan's crash schedule against the network clock:
    /// opens every due crash window (tearing the volatile runtime down) and
    /// restarts every site whose window has closed (recovering it from its
    /// durable store). Returns how many sites it crashed or recovered.
    #[inline] // per op and per delivery: the nothing-scheduled case must cost a branch
    pub(crate) fn lifecycle(&mut self) -> usize {
        if self.crashes.is_empty() && !self.shard.any_down() {
            return 0;
        }
        let now = self.net.now();
        let opening = |&(_, at, _): &(SiteId, u64, u64)| at <= now;
        let opened: Vec<_> = self.crashes.iter().copied().filter(opening).collect();
        self.crashes.retain(|window| !opening(window));
        let mut changed = 0;
        for (site, _, restart) in opened {
            changed += usize::from(self.shard.crash(site, restart));
        }
        changed + self.shard.recover_due(now, &mut self.net)
    }

    /// Delivers every in-flight message, running local collections between
    /// rounds, until the whole system is quiescent (or the settle-round
    /// safety valve trips): rounds of deliver-then-collect, until a round
    /// delivered nothing and its collections left nothing in flight.
    pub fn settle(&mut self) {
        let mut rounds: u64 = 0;
        let mut delivered: u64 = 0;
        for _ in 0..SETTLE_ROUNDS {
            rounds += 1;
            self.lifecycle();
            let round = N::deliver(self);
            delivered += round;
            self.shard.collect_round(None, &mut self.net);
            if round == 0 && self.net.idle() {
                break;
            }
        }
        // Round/delivery counts are schedule-shaped (the parallel driver
        // settles in drain waves), hence a non-deterministic event.
        self.obs.event(
            "settle",
            false,
            &[("rounds", rounds), ("delivered", delivered)],
        );
    }

    /// Builds the end-of-run report.
    pub fn report(&self) -> RunReport {
        self.shard.report(self.net.now(), self.net.metrics())
    }

    /// Assembles the observability report: the cluster scope (network and
    /// durable-store aggregates as auxiliary gauges), then every site scope
    /// (collector and heap counters as auxiliary gauges on top of whatever
    /// the probes recorded). Empty/disabled when [`ClusterConfig::obs`] is
    /// off.
    pub fn obs_report(&self) -> ObsReport {
        let mut cluster_obs = self.obs.clone();
        if cluster_obs.is_enabled() {
            record_net(&mut cluster_obs, &self.net.metrics());
            record_store(&mut cluster_obs, &self.store_stats(), self.recoveries());
        }
        ObsReport::assemble(&cluster_obs, self.shard.obs_scopes().iter())
    }

    /// Crashes `site` and recovers it from its durable store on the spot —
    /// the recovery-equivalence tests and the repo benchmark's recovery
    /// reps use this to exercise the full checkpoint-load + log-replay path
    /// at a point of their choosing. A site that is already down is just
    /// recovered.
    ///
    /// # Panics
    ///
    /// Panics when durability is off (the site could not come back) or the
    /// site is not a member.
    pub fn crash_and_recover(&mut self, site: SiteId) {
        assert!(
            self.shard.config.durability.is_on(),
            "crash_and_recover requires durability"
        );
        assert!(self.shard.is_member(site), "unknown site {site}");
        self.shard.crash(site, 0);
        self.shard.recover(site, &mut self.net);
    }
}

impl<C: Collector, N> Cluster<C, N> {
    /// The address allocated for a symbolic object name, if it exists yet.
    pub fn addr_of(&self, name: ObjName) -> Option<GlobalAddr> {
        self.names
            .get(name.0 as usize)
            .and_then(|entry| entry.addr())
    }

    /// Read access to a site's heap.
    pub fn heap(&self, site: SiteId) -> &SiteHeap {
        self.shard.site(site).heap()
    }

    /// Read access to a site's collector.
    pub fn collector(&self, site: SiteId) -> &C {
        self.shard.site(site).collector()
    }

    /// Iterates over every site's heap — the inputs the [`Oracle`] judges
    /// the cluster by. Downed sites contribute their crash-time heap: the
    /// durable store restores exactly it on recovery, so those objects
    /// still exist in the ground-truth object graph. Evicted sites
    /// contribute their last heap, which conservatively still exists.
    pub fn heaps(&self) -> impl Iterator<Item = &SiteHeap> {
        self.shard.heaps()
    }

    /// The addresses of every object reclaimed by local collections so far.
    /// Differential checks compare these sets across collectors (e.g.
    /// reference listing must never reclaim a cycle member). Built when
    /// called: the run only appends freed addresses.
    pub fn reclaimed_addrs(&self) -> BTreeSet<GlobalAddr> {
        self.shard.reclaimed_addrs()
    }

    /// The current residual-garbage set: objects that exist but are
    /// globally unreachable, per the oracle.
    pub fn garbage_addrs(&self) -> BTreeSet<GlobalAddr> {
        Oracle::garbage(self.heaps())
    }

    /// The end-of-run safety judgment of either driver: the
    /// [`Oracle::dangling`] references, less those naming an object the
    /// scenario exported after its own site had freed it. Empty unless a
    /// collector freed a referenced object.
    pub fn dangling_refs(&self) -> Vec<(GlobalAddr, GlobalAddr)> {
        let mut dangling = Oracle::dangling(self.heaps());
        let stale = self.shard.stale_exports();
        dangling.retain(|(_, target)| stale.binary_search(target).is_err());
        dangling
    }

    /// The sites whose collector state or heap still references `departed`.
    /// Empty after a planned leave — the membership oracle of the explorer
    /// corpus asserts exactly this, cluster-wide, for all three collectors.
    pub fn sites_mentioning(&self, departed: SiteId) -> Vec<SiteId> {
        self.shard.sites_mentioning(departed)
    }

    /// Sites gone through a planned leave so far.
    pub fn departed_sites(&self) -> BTreeSet<SiteId> {
        self.shard.departed()
    }

    /// Sites evicted so far.
    pub fn evicted_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.shard.evicted_sites()
    }

    /// Current expected membership (up or temporarily crashed).
    pub fn membership(&self) -> BTreeSet<SiteId> {
        self.shard.membership()
    }

    /// True when the site's runtime is currently up.
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.shard.is_up(site)
    }

    /// Number of site recoveries performed so far.
    pub fn recoveries(&self) -> u64 {
        self.shard.recoveries()
    }

    /// Aggregated durable-store counters across every site (up or down).
    /// All zeros with durability off.
    pub fn store_stats(&self) -> StoreStats {
        self.shard.store_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CausalCollector;
    use ggd_mutator::{workloads, MembershipKind};

    fn run_causal(scenario: &Scenario) -> RunReport {
        let mut cluster =
            Cluster::from_scenario(scenario, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(scenario);
        eprintln!("{report}");
        report
    }

    #[test]
    fn stale_exports_read_back_as_the_set_of_stale_addresses() {
        // Site 0 frees 198 unrooted objects, then exports some of them to a
        // root on site 1 — out of order, repeated and across word
        // boundaries — beside a live one, which is not stale.
        let (s0, s1) = (SiteId::new(0), SiteId::new(1));
        let mut cluster = Cluster::new(2, ClusterConfig::default(), CausalCollector::new);
        let alloc = |site, n, local_root| MutatorOp::Alloc {
            site,
            name: ObjName(n),
            local_root,
        };
        cluster.execute(alloc(s1, 0, true));
        cluster.execute(alloc(s0, 1, true));
        for n in 2..200 {
            cluster.execute(alloc(s0, n, false));
        }
        cluster.execute(MutatorOp::CollectSite { site: s0 });
        let mut stale = BTreeSet::new();
        for n in [150, 3, 64, 65, 3, 199, 1, 150, 127, 128] {
            let target = cluster.addr_of(ObjName(n)).unwrap();
            if n != 1 {
                assert!(cluster.reclaimed_addrs().contains(&target));
                stale.insert(target);
            }
            cluster.execute(MutatorOp::SendRef {
                from_site: s0,
                recipient: ObjName(0),
                target: ObjName(n),
            });
        }
        cluster.settle();
        assert_eq!(
            cluster.shard.stale_exports(),
            stale.into_iter().collect::<Vec<_>>()
        );
        // The references that landed dangle, and are all set aside.
        assert_eq!(Oracle::dangling(cluster.heaps()).len(), 9);
        assert_eq!(cluster.dangling_refs(), Vec::new());
    }

    #[test]
    fn paper_example_collects_the_disconnected_cycle() {
        let scenario = workloads::paper_example();
        let report = run_causal(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert_eq!(report.allocated, 4);
        // Objects 2, 3 and 4 are reclaimed; the root survives.
        assert_eq!(report.reclaimed, 3);
        assert!(report.verdicts >= 3);
        assert!(report.detection_latency().is_some());
    }

    #[test]
    fn paper_example_message_counts_are_stable() {
        // Determinism guard for the transport refactor: the paper example on
        // the default SimNetwork must produce exactly the message counts the
        // pre-refactor cluster produced (BENCH_baseline.json tracks the same
        // numbers across future PRs).
        let report = run_causal(&workloads::paper_example());
        assert_eq!(report.mutator_messages(), 6);
        assert_eq!(report.control_messages(), 12);
        assert_eq!(report.detection_latency(), Some(5));
    }

    #[test]
    fn debug_paper_example_state() {
        let scenario = workloads::paper_example();
        let mut cluster =
            Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&scenario);
        eprintln!("{report}");
        for site in 0..4u32 {
            let s = ggd_types::SiteId::new(site);
            let heap = cluster.heap(s);
            for obj in heap.iter() {
                eprintln!(
                    "site {site} still has {} (global_root={})",
                    obj.id(),
                    heap.is_global_root(obj.id())
                );
            }
            eprintln!(
                "--- site {site} engine log:\n{}",
                cluster.collector(s).engine().log()
            );
        }
    }

    #[test]
    fn debug_list_state() {
        let scenario = workloads::doubly_linked_list(6);
        let mut cluster =
            Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&scenario);
        eprintln!("{report}");
        for site in 0..7u32 {
            let s = ggd_types::SiteId::new(site);
            let heap = cluster.heap(s);
            for obj in heap.iter() {
                eprintln!(
                    "site {site} still has {} (gr={})",
                    obj.id(),
                    heap.is_global_root(obj.id())
                );
            }
            eprintln!(
                "--- site {site} log:\n{}",
                cluster.collector(s).engine().log()
            );
        }
    }

    #[test]
    fn ring_garbage_is_collected_comprehensively() {
        let scenario = workloads::ring(5);
        let report = run_causal(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert_eq!(report.reclaimed, 5);
    }

    #[test]
    fn doubly_linked_list_collapse() {
        let scenario = workloads::doubly_linked_list(6);
        let report = run_causal(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert_eq!(report.reclaimed, 6);
    }

    #[test]
    fn live_data_survives_random_churn() {
        // Rare interleavings of concurrent re-exports under churn can leave
        // an object undetected (residual garbage, never a safety risk) — see
        // "Known limitations" in DESIGN.md. A scan of seeds 0..12 shows
        // streams 2, 6 and 9 hit that case (1–2 objects); the assertions
        // below pin the exact residual per seed so that any *different* or
        // *larger* detection gap still fails loudly.
        for (seed, expected_residual) in [(0, 0), (1, 0), (2, 1), (3, 0), (4, 0), (5, 0)] {
            let scenario = workloads::random_churn(4, 80, seed);
            let report = run_causal(&scenario);
            assert_eq!(report.safety_violations, 0, "seed {seed} violated safety");
            assert_eq!(
                report.residual_garbage, expected_residual,
                "seed {seed}: unexpected residual garbage"
            );
        }
    }

    #[test]
    fn message_loss_never_compromises_safety() {
        let scenario = workloads::random_churn(4, 60, 7);
        let config = ClusterConfig {
            faults: FaultPlan::new().with_drop_probability(0.3),
            seed: 3,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        // Residual garbage is allowed (and expected) under loss.
    }

    #[test]
    fn duplication_changes_nothing_but_counts() {
        let scenario = workloads::ring(4);
        let config = ClusterConfig {
            faults: FaultPlan::new().with_duplicate_probability(0.5),
            seed: 9,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
    }

    #[test]
    fn crash_and_recover_at_quiescence_changes_nothing() {
        // Crash+recover every site (one at a time) at a quiescent point in
        // the middle of the paper example: the final report must equal the
        // uncrashed run's bit for bit (same ClusterConfig, so the same
        // checkpoint cadence).
        use ggd_store::DurabilityConfig;
        let scenario = workloads::paper_example();
        let durable = || ClusterConfig {
            durability: DurabilityConfig::memory().with_checkpoint_every(4),
            ..ClusterConfig::default()
        };
        // Both runs follow the identical schedule (including the mid-run
        // settle that establishes quiescence); they differ only in the
        // crash+recover step.
        let drive = |victim: Option<u32>| {
            let mut cluster = Cluster::from_scenario(&scenario, durable(), CausalCollector::new);
            let half = scenario.steps().len() / 2;
            drive(&mut cluster, &scenario.steps()[..half]);
            cluster.settle(); // quiescence: nothing in flight
            if let Some(victim) = victim {
                cluster.crash_and_recover(ggd_types::SiteId::new(victim));
            }
            drive(&mut cluster, &scenario.steps()[half..]);
            cluster.settle();
            let report = cluster.report();
            (report, cluster.recoveries(), cluster.store_stats())
        };

        let (baseline_report, _, _) = drive(None);
        assert_eq!(baseline_report.safety_violations, 0);
        assert_eq!(baseline_report.residual_garbage, 0);

        for victim in 0..scenario.site_count() {
            let (report, recoveries, stats) = drive(Some(victim));
            assert_eq!(
                report, baseline_report,
                "crash+recover of site {victim} at quiescence changed the outcome"
            );
            assert_eq!(recoveries, 1);
            assert!(stats.records_appended > 0);
        }
    }

    #[test]
    fn scheduled_crash_is_survived_safely() {
        // A crash window under load: safety must hold; with durability the
        // site comes back and the cluster finishes the scenario.
        use ggd_store::DurabilityConfig;
        let scenario = workloads::random_churn(4, 60, 3);
        let config = ClusterConfig {
            faults: FaultPlan::new().with_crash(ggd_types::SiteId::new(3), 5, 40),
            durability: DurabilityConfig::memory(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert!(cluster.site_is_up(ggd_types::SiteId::new(3)));
        assert!(
            cluster.recoveries() >= 1,
            "the crash window must have fired"
        );
        // Residual garbage is allowed: in-flight messages died with the
        // site, which the fault model counts as loss.
    }

    #[test]
    #[should_panic(expected = "crash faults require durability")]
    fn crash_faults_without_durability_are_rejected() {
        let config = ClusterConfig {
            faults: FaultPlan::new().with_crash(ggd_types::SiteId::new(0), 1, 2),
            ..ClusterConfig::default()
        };
        let _ = Cluster::new(2, config, CausalCollector::new);
    }

    #[test]
    fn garbage_island_only_involves_its_sites() {
        let scenario = workloads::garbage_island(8, 3, 2);
        let report = run_causal(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        // Only the island (3 objects) is garbage; the live chains survive.
        assert_eq!(report.reclaimed, 3);
    }

    /// Three sites; site 0's root holds a reference to site 2's exported
    /// object; site 2 then leaves in an orderly fashion.
    fn leave_scenario() -> Scenario {
        let mut s = Scenario::new(3);
        let a = s.alloc(ggd_types::SiteId::new(0), true);
        let c = s.alloc(ggd_types::SiteId::new(2), true);
        s.send_ref(ggd_types::SiteId::new(2), a, c);
        s.settle();
        s.planned_leave(ggd_types::SiteId::new(2));
        s.settle();
        s
    }

    #[test]
    fn planned_leave_leaves_no_trace_of_the_departed_site() {
        let scenario = leave_scenario();
        let departed = ggd_types::SiteId::new(2);
        let mut cluster =
            Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert!(!cluster.site_is_up(departed));
        assert!(cluster.departed_sites().contains(&departed));
        assert_eq!(
            cluster.sites_mentioning(departed),
            Vec::new(),
            "no heap reference or collector entry may survive a planned leave"
        );
        assert_eq!(cluster.membership().len(), 2);
        assert_eq!(report.sites, 2);
    }

    #[test]
    fn baseline_collectors_also_forget_a_departed_site() {
        use crate::collector::{RefListingCollector, TracingCollector};
        let scenario = leave_scenario();
        let departed = ggd_types::SiteId::new(2);

        let mut tracing = Cluster::from_scenario(
            &scenario,
            ClusterConfig::default(),
            TracingCollector::factory(scenario.site_count()),
        );
        let report = tracing.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(tracing.sites_mentioning(departed), Vec::new());

        let mut reflisting = Cluster::from_scenario(
            &scenario,
            ClusterConfig::default(),
            RefListingCollector::new,
        );
        let report = reflisting.run(&scenario);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(reflisting.sites_mentioning(departed), Vec::new());
    }

    #[test]
    fn a_joined_site_participates_and_collects() {
        let s0 = ggd_types::SiteId::new(0);
        let joiner = ggd_types::SiteId::new(2);
        let mut s = Scenario::new(2);
        let a = s.alloc(s0, true);
        s.settle();
        s.join(joiner);
        let d = s.alloc(joiner, true);
        s.send_ref(joiner, a, d);
        s.settle();
        s.op(MutatorOp::ClearRefs { site: s0, name: a });
        s.op(MutatorOp::DropLocalRoot {
            site: joiner,
            name: d,
        });
        s.settle();

        let mut cluster =
            Cluster::from_scenario(&s, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.residual_garbage, 0);
        assert!(cluster.site_is_up(joiner));
        assert_eq!(report.sites, 3);
        assert!(
            report.reclaimed >= 1,
            "the joiner's dropped export must be detected and reclaimed"
        );
    }

    #[test]
    fn a_joined_site_is_durable_from_its_first_input() {
        use ggd_store::DurabilityConfig;
        let s0 = ggd_types::SiteId::new(0);
        let joiner = ggd_types::SiteId::new(2);
        let mut s = Scenario::new(2);
        let a = s.alloc(s0, true);
        s.settle();
        s.join(joiner);
        let d = s.alloc(joiner, true);
        s.send_ref(joiner, a, d);
        s.settle();

        let config = ClusterConfig {
            durability: DurabilityConfig::memory(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::from_scenario(&s, config, CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(report.safety_violations, 0);
        let before = cluster.heap(joiner).snapshot();
        cluster.crash_and_recover(joiner);
        assert_eq!(
            cluster.heap(joiner).snapshot().edges(),
            before.edges(),
            "a mid-run joiner recovers its full state from its own WAL"
        );
        assert_eq!(cluster.recoveries(), 1);
    }

    #[test]
    fn evicted_site_stays_residual_only() {
        let departed = ggd_types::SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(ggd_types::SiteId::new(0), true);
        let c = s.alloc(departed, true);
        s.send_ref(departed, a, c);
        s.settle();
        s.evict(departed);
        s.settle();

        let mut cluster =
            Cluster::from_scenario(&s, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(
            report.safety_violations, 0,
            "eviction must never cause an unsafe sweep"
        );
        assert!(!cluster.site_is_up(departed));
        assert_eq!(cluster.evicted_sites().collect::<Vec<_>>(), vec![departed]);
        // No handoff happened: the survivor still references the evicted
        // site's heap, which conservatively still exists — residual only.
        assert!(!cluster.sites_mentioning(departed).is_empty());
    }

    #[test]
    fn a_survivor_down_across_a_leave_hands_off_at_recovery() {
        use ggd_store::DurabilityConfig;
        let s0 = ggd_types::SiteId::new(0);
        let s1 = ggd_types::SiteId::new(1);
        let s2 = ggd_types::SiteId::new(2);
        let mut s = Scenario::new(3);
        let a = s.alloc(s0, true);
        let b = s.alloc(s1, true);
        let c = s.alloc(s2, true);
        s.send_ref(s2, a, c);
        s.send_ref(s2, b, c);
        s.settle();
        s.planned_leave(s2);
        s.settle();

        // Probe the prefix (everything before the leave) for the quiescent
        // clock value, so the crash window opens exactly there: site 1 goes
        // down holding its reference to site 2 and sleeps through the leave.
        let durable = || ClusterConfig {
            durability: DurabilityConfig::memory(),
            ..ClusterConfig::default()
        };
        let prefix = s.steps().len() - 2;
        let mut probe = Cluster::from_scenario(&s, durable(), CausalCollector::new);
        drive(&mut probe, &s.steps()[..prefix]);
        let crash_at = probe.net.now();

        let config = ClusterConfig {
            faults: FaultPlan::new().with_crash(s1, crash_at, u64::MAX),
            ..durable()
        };
        let mut cluster = Cluster::from_scenario(&s, config, CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(cluster.recoveries(), 1, "site 1 crashed and came back");
        assert!(cluster.site_is_up(s1));
        assert_eq!(
            cluster.sites_mentioning(s2),
            Vec::new(),
            "the recovered survivor must have caught up on the handoff"
        );
    }

    #[test]
    fn split_and_heal_is_safe_for_every_collector_on_both_transports() {
        use crate::collector::{RefListingCollector, TracingCollector};
        use crate::ParallelCluster;
        /// One collector through both drivers, each judged by the live
        /// oracle and by the end-of-run dangling check. On worker mailboxes
        /// the window must really cut traffic, and every cut frame must
        /// release its queued bytes.
        fn check<C>(factory: impl Fn(SiteId) -> C + Clone + Send + 'static)
        where
            C: Collector + Send + 'static,
            C::Msg: Send + 'static,
        {
            let scenario = workloads::random_churn(4, 60, 5);
            let config = ClusterConfig {
                faults: FaultPlan::new().with_split(4, 5, 40),
                ..ClusterConfig::default()
            };
            let (report, cluster) = Cluster::run_seeded(&scenario, config.clone(), factory.clone());
            let name = report.collector;
            assert_eq!(report.safety_violations, 0, "{name} unsafe under a split");
            let dangling = cluster.dangling_refs();
            assert!(dangling.is_empty(), "{name}: {dangling:?}");
            for workers in [2, 4] {
                let config = ClusterConfig {
                    workers,
                    ..config.clone()
                };
                let (report, cluster) =
                    ParallelCluster::run_seeded(&scenario, config, factory.clone());
                let name = format!("{name} (workers={workers})");
                assert_eq!(report.safety_violations, 0, "{name} unsafe under a split");
                assert!(report.net.dropped_total() > 0, "{name}: nothing cut");
                assert_eq!(report.net.queued_bytes(), 0, "{name}");
                let dangling = cluster.dangling_refs();
                assert!(dangling.is_empty(), "{name}: {dangling:?}");
            }
        }
        check(CausalCollector::new);
        check(TracingCollector::factory(4));
        check(RefListingCollector::new);
    }

    /// [`Cluster::run`] with one whole-cluster oracle pass after every
    /// step, whatever the step did: the reference for the ledger's stamps.
    fn run_stamping_every_step<C: Collector>(cluster: &mut Cluster<C>, scenario: &Scenario) {
        if scenario.has_membership() {
            cluster.legality.get_or_insert_with(Legality::default);
        }
        for step in scenario.steps() {
            cluster.advance_step();
            cluster.run_step(step);
            cluster.shard.mark_garbage_unreachable(Garbage::Any);
        }
        cluster.complete();
    }

    #[test]
    fn steps_that_skip_the_oracle_pass_move_no_ledger_stamp() {
        use ggd_mutator::generator::{build_perf_scenario, PerfSpec};
        use ggd_obs::{ObsConfig, TraceView};
        use ggd_store::DurabilityConfig;
        let plain = ClusterConfig {
            obs: ObsConfig::enabled(),
            ..ClusterConfig::default()
        };
        // A crash window makes some steps run the crash schedule too.
        let crashing = ClusterConfig {
            faults: FaultPlan::new().with_crash(SiteId::new(2), 5, 40),
            durability: DurabilityConfig::memory(),
            ..plain.clone()
        };
        // An object allocated unrooted is unreachable, and stamped, at
        // birth. Objects born rooted that lose their root first and their
        // last reference later are stamped by the step that cuts them off:
        // `y` by the `ClearRefs`, `x` by a local `Unlink`, `z` by a remote
        // one.
        let (s0, s1) = (SiteId::new(0), SiteId::new(1));
        let mut cut = Scenario::new(2);
        let [r, x, y, z] = [true; 4].map(|root| cut.alloc(s0, root));
        let holder = cut.alloc(s1, true);
        let link = |from, to| MutatorOp::LinkLocal { site: s0, from, to };
        cut.op(link(r, x)).op(link(x, y)).op(link(x, z));
        cut.send_ref(s0, holder, z);
        cut.settle();
        for name in [x, y, z] {
            cut.op(MutatorOp::DropLocalRoot { site: s0, name });
        }
        cut.op(MutatorOp::Unlink {
            site: s0,
            from: x,
            to: z,
        });
        cut.op(MutatorOp::ClearRefs { site: s0, name: x });
        cut.op(MutatorOp::Unlink {
            site: s0,
            from: r,
            to: x,
        });
        cut.op(MutatorOp::Unlink {
            site: s1,
            from: holder,
            to: z,
        });
        cut.settle();
        let mut cases = vec![("cut", cut, &plain)];
        for seed in 1..=2 {
            let scenario = build_perf_scenario(&PerfSpec::mix(6, 100, 800), seed);
            cases.push(("perf", scenario.clone(), &plain));
            cases.push(("perf, crashing", scenario, &crashing));
        }
        for (label, scenario, config) in cases {
            let mut skipping =
                Cluster::from_scenario(&scenario, config.clone(), CausalCollector::new);
            skipping.run(&scenario);
            let crashed = skipping.recoveries() > 0;
            assert_eq!(crashed, !config.faults.crashes().is_empty(), "{label}");
            let mut every = Cluster::from_scenario(&scenario, config.clone(), CausalCollector::new);
            run_stamping_every_step(&mut every, &scenario);
            let trace = skipping.obs_report().trace_jsonl(TraceView::Full);
            let stamped = trace.matches("\"unreachable\":").count();
            let unstamped = trace.matches("\"unreachable\":null").count();
            assert!(stamped > unstamped, "{label}: no stamp to compare");
            let expected = every.obs_report().trace_jsonl(TraceView::Full);
            assert!(trace == expected, "{label}: the ledger's stamps moved");
        }
    }

    const S0: SiteId = SiteId::new(0);
    const S1: SiteId = SiteId::new(1);
    const S2: SiteId = SiteId::new(2);

    /// The `n`th object allocated on `site`.
    fn id(site: SiteId, n: u64) -> GlobalAddr {
        GlobalAddr::from_parts(site, ggd_types::ObjectId::new(n))
    }

    fn alloc(site: SiteId, name: u32) -> MutatorOp {
        MutatorOp::Alloc {
            site,
            name: ObjName(name),
            local_root: true,
        }
    }

    fn send(from_site: SiteId, recipient: u32, target: u32) -> MutatorOp {
        MutatorOp::SendRef {
            from_site,
            recipient: ObjName(recipient),
            target: ObjName(target),
        }
    }

    fn membership(kind: MembershipKind, site: SiteId, epoch: u64) -> Step {
        Step::Membership(MembershipEvent { epoch, kind, site })
    }

    /// Runs `steps` one at a time, as [`Cluster::run`] does, without its
    /// end-of-run completion.
    fn drive<C: Collector>(cluster: &mut Cluster<C>, steps: &[Step]) {
        for step in steps {
            match step {
                Step::Op(op) => cluster.execute(*op),
                Step::Settle => cluster.settle(),
                Step::Membership(ev) => cluster.execute_membership(*ev),
            }
        }
    }

    /// A durable causal cluster of `sites` sites under `faults`.
    fn durable(sites: u32, faults: FaultPlan) -> Cluster<CausalCollector> {
        let config = ClusterConfig {
            faults,
            durability: DurabilityConfig::memory(),
            ..ClusterConfig::default()
        };
        Cluster::new(sites, config, CausalCollector::new)
    }

    /// Moves the transport clock on, and the crash schedule with it, until
    /// `done` holds: site 2 hands its root `n{pump}` to site 0's root `n0`
    /// and the cluster settles, once per round. Returns the clock after
    /// every round, with whether site 1 was up then.
    fn pump(
        cluster: &mut Cluster<CausalCollector>,
        pump: u32,
        done: impl Fn(&Cluster<CausalCollector>) -> bool,
    ) -> Vec<(u64, bool)> {
        let mut rounds = Vec::new();
        while !done(cluster) {
            assert!(rounds.len() < 64, "the clock never got there: {rounds:?}");
            cluster.execute(send(S2, 0, pump));
            cluster.settle();
            rounds.push((cluster.net.now(), cluster.site_is_up(S1)));
        }
        rounds
    }

    /// True when some object of `holder`'s heap references `target`.
    fn references<C: Collector>(cluster: &Cluster<C>, holder: SiteId, target: GlobalAddr) -> bool {
        let heap = cluster.heap(holder);
        heap.iter()
            .any(|obj| obj.remote_refs().any(|addr| addr == target))
    }

    #[test]
    fn an_op_on_a_downed_site_is_skipped_and_breaks_the_send_chain_behind_it() {
        let mut cluster = durable(3, FaultPlan::new().with_crash(S1, 1, 4));
        drive(
            &mut cluster,
            &[alloc(S0, 0), alloc(S1, 1), alloc(S2, 2)].map(Step::Op),
        );
        pump(&mut cluster, 2, |c| !c.site_is_up(S1));
        // Site 1 would have handed `b` to `a`, but it is down: the send and
        // an Alloc are skipped.
        drive(&mut cluster, &[send(S1, 0, 1), alloc(S1, 3)].map(Step::Op));
        assert_eq!(cluster.addr_of(ObjName(3)), None);
        pump(&mut cluster, 2, |c| c.site_is_up(S1));
        // Every site is up again, yet site 0 may not forward `b`: it never
        // received it. The skipped name never resolves either.
        let link = MutatorOp::LinkLocal {
            site: S1,
            from: ObjName(1),
            to: ObjName(3),
        };
        drive(&mut cluster, &[send(S0, 2, 1), link].map(Step::Op));
        cluster.settle();
        assert!(!references(&cluster, S2, id(S1, 1)));
        // Once the hand-over does happen, the forward is legal.
        drive(&mut cluster, &[Step::Op(send(S1, 0, 1)), Step::Settle]);
        assert!(references(&cluster, S0, id(S1, 1)));
        drive(&mut cluster, &[Step::Op(send(S0, 2, 1)), Step::Settle]);
        assert!(references(&cluster, S2, id(S1, 1)));
        assert_eq!(cluster.recoveries(), 1);
    }

    #[test]
    fn ops_naming_objects_of_departed_or_evicted_sites_are_skipped() {
        let mut s = Scenario::new(3);
        let [a, b, c] = [S0, S1, S2].map(|site| s.alloc(site, true));
        s.send_ref(S1, a, b).send_ref(S2, a, c).settle();
        s.planned_leave(S1).evict(S2);
        for gone in [b, c] {
            s.send_ref(S0, a, gone);
            s.op(MutatorOp::Unlink {
                site: S0,
                from: a,
                to: gone,
            });
        }
        // Ops on the sites themselves are skipped too: run, they would find
        // no runtime.
        let late = s.alloc(S1, true);
        s.op(MutatorOp::CollectSite { site: S2 }).settle();
        let mut cluster =
            Cluster::from_scenario(&s, ClusterConfig::default(), CausalCollector::new);
        let report = cluster.run(&s);
        assert_eq!(report.safety_violations, 0);
        assert_eq!(report.mutator_messages(), 2, "only the first two sends ran");
        assert!(
            references(&cluster, S0, id(S2, 1)),
            "the unlink of the evicted site's object was skipped"
        );
        assert_eq!(cluster.addr_of(late), None);
        assert_eq!(cluster.departed_sites(), BTreeSet::from([S1]));
        assert_eq!(cluster.evicted_sites().collect::<Vec<_>>(), [S2]);
        assert_eq!(cluster.membership(), BTreeSet::from([S0]));
    }

    #[test]
    fn a_join_of_a_current_departed_or_evicted_site_changes_nothing() {
        use ggd_obs::ObsConfig;
        use MembershipKind::{Evict, Join, PlannedLeave};
        let mut s = Scenario::new(3);
        s.push(membership(PlannedLeave, S1, 1));
        s.push(membership(Evict, S2, 2));
        for (epoch, site) in [(3, S0), (4, S1), (5, S2)] {
            s.push(membership(Join, site, epoch));
        }
        // Departures of non-members change nothing either.
        s.push(membership(PlannedLeave, S1, 6));
        s.push(membership(Evict, S1, 6));
        // A genuine join is caught up on both earlier announcements.
        let joiner = SiteId::new(3);
        s.push(membership(Join, joiner, 7));
        let config = ClusterConfig {
            obs: ObsConfig::enabled(),
            ..ClusterConfig::default()
        };
        let factory = crate::collector::TracingCollector::factory(3);
        let mut cluster = Cluster::from_scenario(&s, config, factory);
        let report = cluster.run(&s);
        assert_eq!(report.sites, 2);
        assert_eq!(cluster.membership(), BTreeSet::from([S0, joiner]));
        assert_eq!(cluster.departed_sites(), BTreeSet::from([S1]));
        assert_eq!(cluster.evicted_sites().collect::<Vec<_>>(), [S2]);
        let announced: Vec<_> = (cluster.obs_report().events().iter())
            .filter(|event| event.kind == "membership")
            .map(|event| event.fields.clone())
            .collect();
        let field = |epoch, site: SiteId, kind| {
            vec![
                ("epoch", epoch),
                ("site", u64::from(site.index())),
                ("kind", kind),
            ]
        };
        assert_eq!(
            announced,
            [field(1, S1, 1), field(2, S2, 2), field(7, joiner, 0)]
        );
        let view: Vec<_> = cluster.collector(joiner).engine().members().collect();
        assert_eq!(view, [S0, joiner], "the joiner knows of both departures");
    }

    #[test]
    fn overlapping_crash_windows_extend_the_outage() {
        let faults = FaultPlan::new()
            .with_crash(S1, 2, 6)
            .with_crash(S1, 4, 10)
            .with_crash(S1, 5, 7);
        let mut cluster = durable(3, faults);
        drive(&mut cluster, &[alloc(S0, 0), alloc(S2, 2)].map(Step::Op));
        let rounds = pump(&mut cluster, 2, |c| c.net.now() >= 11);
        // The second and third windows open while the site is down: no
        // second crash, and the latest restart time wins. Every round ends
        // with the site down exactly when its clock lies in [2, 10).
        for &(now, up) in &rounds {
            assert_eq!(up, !(2..10).contains(&now), "{rounds:?}");
        }
        assert!(
            rounds.iter().any(|&(now, _)| (7..10).contains(&now)),
            "{rounds:?}"
        );
        assert_eq!(cluster.recoveries(), 1, "{rounds:?}");
    }

    #[test]
    fn a_planned_leave_of_a_downed_site_recovers_it_before_the_first_settle() {
        // Site 2 goes down on the first delivery and would stay down.
        let scenario = |kind| {
            let mut s = Scenario::new(3);
            let [a, b, c] = [S0, S1, S2].map(|site| s.alloc(site, true));
            s.send_ref(S2, a, c).send_ref(S2, b, c).settle();
            s.push(membership(kind, S2, 1)).settle();
            s
        };
        let faults = FaultPlan::new().with_crash(S2, 1, u64::MAX);
        let s = scenario(MembershipKind::PlannedLeave);
        let mut cluster = durable(3, faults.clone());
        drive(&mut cluster, &s.steps()[..6]);
        assert!(!cluster.site_is_up(S2));
        cluster.run(&Scenario::from_steps(3, s.steps()[6..].iter().copied()));
        assert_eq!(cluster.recoveries(), 1, "recovered to leave");
        assert_eq!(cluster.departed_sites(), BTreeSet::from([S2]));
        assert!(!cluster.site_is_up(S2));
        assert_eq!(cluster.sites_mentioning(S2), Vec::new(), "it handed off");
        // An eviction, by contrast, takes a downed site as it lies.
        let s = scenario(MembershipKind::Evict);
        let mut cluster = durable(3, faults);
        cluster.run(&s);
        assert_eq!(cluster.recoveries(), 0);
        assert_eq!(cluster.evicted_sites().collect::<Vec<_>>(), [S2]);
        assert_eq!(cluster.membership(), BTreeSet::from([S0, S1]));
    }

    #[test]
    fn names_resolve_by_index_whatever_order_they_are_allocated_in() {
        // Out of order, with gaps — as hand-built tests and shrunk
        // reproducers name their objects.
        let mut s = Scenario::new(2);
        for (site, name) in [(S1, 5), (S0, 2), (S1, 0)] {
            s.op(alloc(site, name));
        }
        // Ops naming a hole are skipped: run, they would fail to resolve.
        for hole in [1, 7, u32::MAX] {
            s.op(MutatorOp::LinkLocal {
                site: S1,
                from: ObjName(5),
                to: ObjName(hole),
            });
            s.op(MutatorOp::ClearRefs {
                site: S0,
                name: ObjName(hole),
            });
        }
        s.op(MutatorOp::LinkLocal {
            site: S1,
            from: ObjName(5),
            to: ObjName(0),
        });
        let mut cluster =
            Cluster::from_scenario(&s, ClusterConfig::default(), CausalCollector::new);
        cluster.run(&s);
        let resolved: Vec<_> = (0..8).map(|n| cluster.addr_of(ObjName(n))).collect();
        let (a, b, c) = (Some(id(S1, 2)), Some(id(S0, 1)), Some(id(S1, 1)));
        assert_eq!(resolved, [a, None, b, None, None, c, None, None]);
        // Far past the end of the table: nothing, and no growth.
        assert_eq!(cluster.addr_of(ObjName(u32::MAX)), None);
        assert_eq!(cluster.names.len(), 6);
        let heap = cluster.heap(S1);
        let links: Vec<Vec<_>> = heap.iter().map(|obj| obj.local_refs().collect()).collect();
        assert_eq!(links, [vec![id(S1, 2).object()], vec![]]);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_name_table_entry_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Binding>(), 8);
    }

    #[test]
    fn name_entries_round_trip_up_to_the_limit() {
        for addr in [
            GlobalAddr::new(0, 1),
            GlobalAddr::new(u32::MAX, 1),
            GlobalAddr::new(3, u64::from(u32::MAX)),
        ] {
            assert_eq!(Binding::to(addr).addr(), Some(addr));
        }
        assert_eq!(Binding::default().addr(), None);
    }

    #[test]
    #[should_panic(
        expected = "4294967296 of s2/o4294967296 is past the name table's limit of 2^32 - 1"
    )]
    fn a_name_entry_rejects_an_identity_of_2_to_the_32() {
        Binding::to(GlobalAddr::new(2, 1 << 32));
    }

    #[test]
    fn a_name_whose_alloc_was_skipped_resolves_once_a_later_alloc_runs() {
        let mut cluster = durable(3, FaultPlan::new().with_crash(S1, 1, 4));
        drive(&mut cluster, &[alloc(S0, 0), alloc(S2, 9)].map(Step::Op));
        assert_eq!(cluster.addr_of(ObjName(0)), Some(id(S0, 1)));
        pump(&mut cluster, 9, |c| !c.site_is_up(S1));
        cluster.execute(alloc(S1, 3));
        assert_eq!(cluster.addr_of(ObjName(3)), None, "site 1 is down");
        pump(&mut cluster, 9, |c| c.site_is_up(S1));
        // A later Alloc of the same name binds it, and a repeated one
        // rebinds it, as a map insert would.
        cluster.execute(alloc(S1, 3));
        assert_eq!(cluster.addr_of(ObjName(3)), Some(id(S1, 1)));
        cluster.execute(alloc(S0, 3));
        assert_eq!(cluster.addr_of(ObjName(3)), Some(id(S0, 2)));
        // Ops naming it now act on the rebound object.
        cluster.execute(MutatorOp::LinkLocal {
            site: S0,
            from: ObjName(0),
            to: ObjName(3),
        });
        let heap = cluster.heap(S0);
        assert!(heap
            .iter()
            .any(|obj| obj.local_refs().any(|to| to == id(S0, 2).object())));
    }

    #[test]
    fn a_recovered_site_continues_its_identities_and_a_joiner_starts_at_o1() {
        let joiner = SiteId::new(5);
        let mut cluster = durable(3, FaultPlan::new().with_crash(S1, 1, 3));
        let allocs = [alloc(S1, 0), alloc(S1, 1), alloc(S0, 2), alloc(S2, 9)];
        drive(&mut cluster, &allocs.map(Step::Op));
        pump(&mut cluster, 9, |c| !c.site_is_up(S1));
        // A skipped Alloc consumes no id: recovery replays only what ran.
        cluster.execute(alloc(S1, 3));
        pump(&mut cluster, 9, |c| c.site_is_up(S1));
        cluster.execute(alloc(S1, 4));
        cluster.execute(alloc(joiner, 5));
        assert_eq!(cluster.addr_of(ObjName(5)), None, "not a member yet");
        cluster.execute_membership(MembershipEvent {
            epoch: 1,
            kind: MembershipKind::Join,
            site: joiner,
        });
        cluster.execute(alloc(joiner, 6));
        let resolved: Vec<_> = (0..7).map(|n| cluster.addr_of(ObjName(n))).collect();
        let ids = [id(S1, 1), id(S1, 2), id(S0, 1)].map(Some);
        let expected = [
            &ids[..],
            &[None, Some(id(S1, 3)), None, Some(id(joiner, 1))],
        ]
        .concat();
        assert_eq!(resolved, expected);
        assert_eq!(cluster.recoveries(), 1);
    }
}
