//! Execution: a set of site runtimes and everything that happens *to* them.
//!
//! A [`Shard`] hosts every site of the cluster, under both drivers, and
//! executes the [`ShardCommand`]s a [`Planner`](crate::plan::Planner)
//! emits: resolved mutator ops, deliveries, local collections, the
//! crash/recover lifecycle and the site-side halves of the membership
//! protocols. Every runtime step ends in [`Shard::absorb`], which books
//! verdicts, posts the step's control messages to the driver's [`Outbox`]
//! and runs the checkpoint cadence. The shard never decides *whether*
//! something happens — that is the planner's job — and never moves a
//! message itself. For a parallel drain it lends its up sites to one shard
//! per drain thread ([`Shard::lend`]) and takes them back when the threads
//! join ([`Shard::merge`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ggd_heap::SiteHeap;
use ggd_net::{NetMetrics, Transport};
use ggd_obs::SiteObs;
use ggd_store::{MembershipAnnouncement, SiteStore, StoreStats};
use ggd_types::{GlobalAddr, SiteId};

use crate::cluster::ClusterConfig;
use crate::collector::{Collector, SimPayload};
use crate::oracle::{LiveSet, Oracle};
use crate::plan::{slot, ShardCommand, SiteOp};
use crate::report::{sum_store_stats, RunReport};
use crate::runtime::{sites_mentioning, SiteRuntime, SiteTick};

/// Where a shard's outgoing payloads go, and the clock its latency stamps
/// read: the transport itself under the sequential driver, the encoded-frame
/// mailboxes under the parallel one. Public only as the supertrait of
/// [`Network`](crate::cluster::Network); not nameable outside this crate.
pub trait Outbox<M> {
    fn post(&mut self, from: SiteId, to: SiteId, payload: SimPayload<M>);
    fn now(&self) -> u64;
}

impl<M, T: Transport<SimPayload<M>>> Outbox<M> for T
where
    SimPayload<M>: ggd_net::Payload,
{
    fn post(&mut self, from: SiteId, to: SiteId, payload: SimPayload<M>) {
        self.send(from, to, payload);
    }

    fn now(&self) -> u64 {
        Transport::now(self)
    }
}

/// A site that is currently crashed: its durable medium and its heap as of
/// the crash — kept for the *oracle only*. The durable store provably
/// restores exactly this heap on recovery, so the site's objects still exist
/// in the ground-truth object graph while it is down; excluding them would
/// let an unsafe sweep of an object reachable only through the downed site
/// go undetected.
#[derive(Debug)]
struct DownedSite<M> {
    store: SiteStore<M>,
    heap: SiteHeap,
    /// Membership protocol steps the site missed while down: applied (and
    /// thereby WAL-logged) in order right after recovery, so a recovered
    /// site never runs with a stale view of the fleet — and a survivor that
    /// was down across a planned leave still performs its reference
    /// handoff before anyone can observe it.
    pending_catchup: Vec<Catchup>,
    /// The site's observability handle, carried across the crash: the
    /// measurement layer sits outside the failure model, so measurements
    /// survive and are re-attached after recovery (replay does not
    /// double-count — the recovered runtime replays with a disabled handle).
    obs: SiteObs,
}

/// One membership protocol step as a single site applies it — live when the
/// site is up, replayed in order at recovery when it was down.
#[derive(Debug, Clone, Copy)]
enum Catchup {
    /// Sever this site's references towards `departing` (the handoff half
    /// of a planned leave).
    Handoff { departing: SiteId, epoch: u64 },
    /// Apply a membership announcement.
    Announce(MembershipAnnouncement),
}

/// What one scenario step can have made unreachable, for the ledger's
/// first sightings of garbage. Every object that was unreachable before the
/// step was stamped then, and a stamp is never moved, so only what the step
/// itself can have cut off needs looking at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Garbage {
    /// Nothing: the step ran nothing, or only added references and global
    /// roots, so the oracle's live set cannot have shrunk.
    None,
    /// Only the object just allocated, unrooted, at this address.
    Fresh(GlobalAddr),
    /// Anything: the whole cluster is judged.
    Any,
}

/// A (transport time, scenario step) pair.
type Stamp = (u64, u64);

/// Per-site entries indexed by `SiteId::index()`. Sites are `0..n` plus
/// joiners, so a lookup on the per-op path is an index rather than a tree
/// walk. Iteration runs in ascending `SiteId`: `up_sites`, `CollectAll`,
/// report assembly, `sites_mentioning` and so every control stream depend
/// on that order. The table grows when a site beyond its end is inserted.
#[derive(Debug)]
struct SiteTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> SiteTable<T> {
    fn new() -> Self {
        SiteTable { slots: Vec::new() }
    }

    fn get(&self, site: SiteId) -> Option<&T> {
        self.slots.get(site.index() as usize)?.as_ref()
    }

    fn get_mut(&mut self, site: SiteId) -> Option<&mut T> {
        self.slots.get_mut(site.index() as usize)?.as_mut()
    }

    fn insert(&mut self, site: SiteId, value: T) {
        *slot(&mut self.slots, site.index() as usize) = Some(value);
    }

    fn remove(&mut self, site: SiteId) -> Option<T> {
        self.slots.get_mut(site.index() as usize)?.take()
    }

    /// Takes every entry out, in ascending `SiteId`.
    fn drain(&mut self) -> impl Iterator<Item = (SiteId, T)> + '_ {
        let entries = self.slots.iter_mut().enumerate();
        entries.filter_map(|(index, slot)| Some((SiteId::new(index as u32), slot.take()?)))
    }

    /// Occupied entries in ascending `SiteId`.
    fn iter(&self) -> impl Iterator<Item = (SiteId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| Some((SiteId::new(index as u32), slot.as_ref()?)))
    }

    fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

/// The executing half of a drive loop — see the module docs. `F` builds
/// collectors for joined and recovered sites; a lent shard has none (`()`).
pub(crate) struct Shard<C: Collector, F = Box<dyn Fn(SiteId) -> C>> {
    /// The hosted sites that are up.
    sites: SiteTable<SiteRuntime<C>>,
    /// Hosted sites currently down, held until their restart.
    downed: BTreeMap<SiteId, DownedSite<C::Msg>>,
    /// Hosted sites evicted without warning, with their last heap: the
    /// oracle conservatively keeps treating their objects as existing
    /// (exactly like a crashed site's), so an unsafe sweep of an object
    /// reachable only through the evicted site is still caught.
    evicted: BTreeMap<SiteId, SiteHeap>,
    /// Collector factory, retained so joined and crashed sites can be built.
    factory: F,
    /// The configuration every hosted site is built under, shared with the
    /// shards it lends.
    pub(crate) config: Arc<ClusterConfig>,
    /// The logical scenario step of whatever is being executed — pushed
    /// into a runtime's obs handle before each entry point, so probes stamp
    /// driver-independent logical time. Set by the driver.
    pub(crate) step: u64,
    reclaimed: u64,
    /// Every freed address, in free order; only tests read it, so it is
    /// appended to here and sorted when read.
    reclaimed_addrs: Vec<GlobalAddr>,
    /// Objects a site exported after it had already freed them, set aside
    /// by [`Cluster::dangling_refs`](crate::Cluster::dangling_refs): the
    /// scenario names objects by handle, so the reference that lands then
    /// dangles through no fault of the collector. Appended to, duplicates
    /// and all, and sorted when read ([`Shard::stale_exports`]).
    stale_exports: Vec<GlobalAddr>,
    safety_violations: u64,
    verdicts: u64,
    recoveries: u64,
    /// When the first control message left this shard (the GGD trigger).
    /// Both clocks are monotone, so first is also least.
    triggered: Option<Stamp>,
    /// When a verdict was last applied on this shard.
    last_verdict: Option<Stamp>,
}

impl<C: Collector, F: Fn(SiteId) -> C> Shard<C, F> {
    /// A shard hosting a fresh runtime for each of `sites`.
    pub(crate) fn new(
        sites: impl Iterator<Item = SiteId>,
        config: ClusterConfig,
        factory: F,
    ) -> Self {
        let mut shard = Shard::empty(Arc::new(config), factory, 0);
        for site in sites {
            shard.start(site);
        }
        shard
    }

    /// Brings a fresh runtime up for `site` — durable from its very first
    /// input when the cluster runs with durability.
    fn start(&mut self, site: SiteId) {
        let config = &self.config;
        let mut runtime = SiteRuntime::new(site, (self.factory)(site))
            .with_obs(SiteObs::new(Some(site), &config.obs));
        if let Some(store) = SiteStore::open(site, &config.durability) {
            runtime = runtime.with_store(store);
        }
        self.sites.insert(site, runtime);
    }

    /// Executes one planner command against the hosted sites. Commands
    /// naming a site this shard does not host (or that is not in the state
    /// the command presumes) are no-ops, except `Op`: the planner never
    /// plans an op for a site that is not up.
    pub(crate) fn execute(&mut self, command: ShardCommand, out: &mut impl Outbox<C::Msg>) {
        match command {
            ShardCommand::Op(site, op) => self.apply_op(site, op, out),
            ShardCommand::CollectAll => self.collect_round(None, out),
            ShardCommand::Crash(site) => self.crash(site),
            ShardCommand::Recover(site) => self.recover(site, out),
            ShardCommand::Join { site, history } => {
                self.start(site);
                for ann in history {
                    self.apply_step(site, Catchup::Announce(ann), out);
                }
            }
            ShardCommand::Handoff { departing, epoch } => {
                self.fan_out(Catchup::Handoff { departing, epoch }, Some(departing), out);
            }
            ShardCommand::Remove(site) => drop(self.sites.remove(site)),
            ShardCommand::Evict(site) => {
                if let Some(runtime) = self.sites.remove(site) {
                    self.evicted.insert(site, runtime.heap().clone());
                } else if let Some(downed) = self.downed.remove(&site) {
                    self.evicted.insert(site, downed.heap);
                }
            }
            ShardCommand::Announce(ann) => self.fan_out(Catchup::Announce(ann), None, out),
        }
    }

    /// Applies one membership protocol step on every up site but `skip`,
    /// and queues it for every downed one: a survivor that crashed
    /// mid-protocol catches up at recovery, before anyone can observe its
    /// revived heap.
    fn fan_out(&mut self, step: Catchup, skip: Option<SiteId>, out: &mut impl Outbox<C::Msg>) {
        for site in self.up_sites() {
            if Some(site) != skip {
                self.apply_step(site, step, out);
            }
        }
        for downed in self.downed.values_mut() {
            downed.pending_catchup.push(step);
        }
    }

    fn apply_op(&mut self, site: SiteId, op: SiteOp, out: &mut impl Outbox<C::Msg>) {
        if let SiteOp::SendRef { target, .. } = op {
            if target.site() == site && !self.site(site).heap().contains(target.object()) {
                self.stale_exports.push(target);
            }
        }
        let runtime = self.runtime(site);
        let tick = match op {
            SiteOp::Alloc { local_root, expect } => {
                let addr = runtime.alloc(local_root);
                assert_eq!(
                    addr, expect,
                    "planner-predicted allocation address diverged"
                );
                runtime.maybe_checkpoint();
                return;
            }
            SiteOp::LinkLocal { from, to } => runtime.link_local(from, to),
            SiteOp::Unlink { from, to } => runtime.unlink(from, to),
            SiteOp::ClearRefs { addr } => runtime.clear_refs(addr),
            SiteOp::DropLocalRoot { addr } => runtime.drop_local_root(addr),
            SiteOp::SendRef { target, recipient } => {
                let tick = runtime.export_reference(target, recipient);
                self.absorb(site, tick, out);
                if recipient.site() != site {
                    let payload = SimPayload::Reference { recipient, target };
                    out.post(site, recipient.site(), payload);
                    return;
                }
                // A same-site transfer is a local mutation, not a network
                // message (see `SiteRuntime::export_reference`): the
                // reference is stored immediately and must not be droppable,
                // duplicable or stallable by a fault plan.
                self.runtime(site)
                    .receive_reference(site, recipient, target)
            }
            SiteOp::Collect => return self.collect_round(Some(site), out),
        };
        self.absorb(site, tick, out);
    }

    /// Runs a local collection on `only`, or on every up site in ascending
    /// `SiteId`. With [`ClusterConfig::safety_oracle`] on, one global
    /// [`LiveSet`] judges them all. It stays exact: a clean collection frees
    /// only garbage, and a sync only demotes global roots and posts
    /// messages, which the oracle does not read. After a violation it is
    /// rebuilt. With observability on it is built before the first site,
    /// since it also stamps the ledger; with it off, right before the first
    /// site that has suspects: a site without any frees nothing, so a round
    /// with none builds no set at all.
    fn collect_round(&mut self, only: Option<SiteId>, out: &mut impl Outbox<C::Msg>) {
        let sites = match only {
            Some(site) => site.index() as usize..site.index() as usize + 1,
            None => 0..self.sites.slots.len(),
        };
        let mut live = None;
        for site in sites.map(|index| SiteId::new(index as u32)) {
            let Some(runtime) = self.sites.get(site) else {
                continue;
            };
            let judge = self.config.obs.enabled || runtime.heap().has_suspects();
            if self.config.safety_oracle && live.is_none() && judge {
                live = Some(self.live_set());
            }
            if self.collect_site(site, live.as_ref(), out) > 0 {
                live = None;
            }
        }
    }

    /// Collects one up site; returns how many freed objects `live` holds.
    fn collect_site(
        &mut self,
        site: SiteId,
        live: Option<&LiveSet>,
        out: &mut impl Outbox<C::Msg>,
    ) -> u64 {
        let runtime = self.runtime(site);
        let outcome = runtime.collect();
        // A no-op collection does not sync.
        let tick = (!outcome.is_noop()).then(|| runtime.sync());
        let mut violations = 0;
        for freed in &outcome.freed {
            let addr = GlobalAddr::from_parts(site, *freed);
            violations += u64::from(live.is_some_and(|live| live.contains(addr)));
            self.reclaimed_addrs.push(addr);
        }
        self.safety_violations += violations;
        self.reclaimed += outcome.freed.len() as u64;
        if let Some(tick) = tick {
            self.absorb(site, tick, out);
        }
        violations
    }

    /// Tears a site's volatile state down, keeping its durable store, its
    /// crash-time heap and its measurements for the restart.
    fn crash(&mut self, site: SiteId) {
        let Some(mut runtime) = self.sites.remove(site) else {
            return;
        };
        let store = runtime
            .take_store()
            .expect("crash faults require durability (checked at construction)");
        let downed = DownedSite {
            store,
            heap: runtime.heap().clone(),
            pending_catchup: Vec::new(),
            obs: runtime.take_obs(),
        };
        self.downed.insert(site, downed);
    }

    /// Recovers one downed site from its durable store.
    fn recover(&mut self, site: SiteId, out: &mut impl Outbox<C::Msg>) {
        let Some(downed) = self.downed.remove(&site) else {
            return;
        };
        let mut runtime = SiteRuntime::recover(downed.store, (self.factory)(site));
        let replayed = runtime
            .store()
            .map_or(0, |store| store.stats().records_replayed);
        // Recovery replays with a disabled handle (no double-counting);
        // re-attach the crash-time measurements now.
        runtime.set_obs(downed.obs);
        self.sites.insert(site, runtime);
        self.recoveries += 1;
        let obs = self.runtime(site).obs_mut();
        obs.add_aux("recoveries", 1);
        obs.event("wal-replay", false, &[("records_replayed", replayed)]);
        // Membership changed while this site was down: catch up in order
        // (WAL-logged, so a second crash replays the same steps).
        for step in downed.pending_catchup {
            self.apply_step(site, step, out);
        }
    }

    /// Applies one membership protocol step on one up site.
    fn apply_step(&mut self, site: SiteId, step: Catchup, out: &mut impl Outbox<C::Msg>) {
        let runtime = self.runtime(site);
        let tick = match step {
            Catchup::Handoff { departing, epoch } => runtime.perform_handoff(departing, epoch),
            Catchup::Announce(ann) => runtime.apply_membership(ann),
        };
        self.absorb(site, tick, out);
    }
}

impl<C: Collector, F> Shard<C, F> {
    fn empty(config: Arc<ClusterConfig>, factory: F, step: u64) -> Self {
        Shard {
            sites: SiteTable::new(),
            downed: BTreeMap::new(),
            evicted: BTreeMap::new(),
            factory,
            config,
            step,
            reclaimed: 0,
            reclaimed_addrs: Vec::new(),
            stale_exports: Vec::new(),
            safety_violations: 0,
            verdicts: 0,
            recoveries: 0,
            triggered: None,
            last_verdict: None,
        }
    }

    /// Hands a delivered payload to its destination site. A payload for a
    /// site that is not up here dies with the site's inbox.
    pub(crate) fn deliver(
        &mut self,
        from: SiteId,
        to: SiteId,
        payload: SimPayload<C::Msg>,
        out: &mut impl Outbox<C::Msg>,
    ) {
        if !self.is_up(to) {
            return;
        }
        let runtime = self.runtime(to);
        let tick = match payload {
            SimPayload::Reference { recipient, target } => {
                runtime.receive_reference(from, recipient, target)
            }
            SimPayload::Control(msg) => runtime.on_control(from, msg),
        };
        self.absorb(to, tick, out);
    }

    fn runtime(&mut self, site: SiteId) -> &mut SiteRuntime<C> {
        let runtime = self.sites.get_mut(site).expect("site is up on this shard");
        // Keep the runtime's logical clock current so every probe inside
        // the entry point stamps the right step — no signature changes.
        runtime.obs_mut().set_step(self.step);
        runtime
    }

    /// Books a runtime step's results: verdict counters, then the control
    /// messages (the first one timestamps the GGD trigger), then — with the
    /// tick absorbed, i.e. outgoing messages and verdicts drained — the
    /// checkpoint the site's WAL cadence may ask for.
    fn absorb(&mut self, site: SiteId, tick: SiteTick<C::Msg>, out: &mut impl Outbox<C::Msg>) {
        if tick.verdicts_applied > 0 {
            self.verdicts += tick.verdicts_applied;
            self.last_verdict = Some((out.now(), self.step));
        }
        for (dest, msg) in tick.outgoing {
            if self.triggered.is_none() {
                self.triggered = Some((out.now(), self.step));
            }
            out.post(site, dest, SimPayload::Control(msg));
        }
        if let Some(runtime) = self.sites.get_mut(site) {
            runtime.maybe_checkpoint();
        }
    }

    /// True when the site's runtime is currently up on this shard.
    pub(crate) fn is_up(&self, site: SiteId) -> bool {
        self.sites.get(site).is_some()
    }

    pub(crate) fn up_sites(&self) -> Vec<SiteId> {
        self.sites.iter().map(|(site, _)| site).collect()
    }

    pub(crate) fn site(&self, site: SiteId) -> &SiteRuntime<C> {
        self.sites.get(site).expect("site is up on this shard")
    }

    /// Every heap the oracle judges by: up sites, downed sites as of their
    /// crash, evicted sites as of their eviction.
    pub(crate) fn heaps(&self) -> impl Iterator<Item = &SiteHeap> {
        self.sites
            .values()
            .map(SiteRuntime::heap)
            .chain(self.downed.values().map(|d| &d.heap))
            .chain(self.evicted.values())
    }

    pub(crate) fn evicted_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.evicted.keys().copied()
    }

    pub(crate) fn reclaimed_addrs(&self) -> BTreeSet<GlobalAddr> {
        self.reclaimed_addrs.iter().copied().collect()
    }

    /// The objects exported after their own site had freed them, sorted
    /// and free of duplicates.
    pub(crate) fn stale_exports(&self) -> Vec<GlobalAddr> {
        let mut stale = self.stale_exports.clone();
        stale.sort_unstable();
        stale.dedup();
        stale
    }

    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries
    }

    pub(crate) fn sites_mentioning(&self, departed: SiteId) -> Vec<SiteId> {
        sites_mentioning(self.sites.iter(), departed)
    }

    /// Aggregated durable-store counters across every hosted site, up or
    /// down. All zeros with durability off.
    pub(crate) fn store_stats(&self) -> StoreStats {
        let up = self.sites.values().filter_map(SiteRuntime::store);
        let down = self.downed.values().map(|downed| &downed.store);
        sum_store_stats(up.chain(down).map(SiteStore::stats))
    }

    /// Every hosted site's scope of an observability report.
    pub(crate) fn obs_scopes(&self) -> Vec<SiteObs> {
        self.sites
            .values()
            .map(SiteRuntime::obs_scope)
            .chain(self.downed.values().map(|d| d.obs.clone()))
            .collect()
    }

    /// Stamps the current step as the first sighting (which wins in the
    /// ledger) of each object the step can have left unreachable: every
    /// object a flat [`LiveSet`] leaves out, only the fresh object, or
    /// nothing (see [`Garbage`]). Runs after every scenario step with
    /// observability *and* the safety oracle on; a collection round stamps
    /// from the live set it is judged by.
    pub(crate) fn mark_garbage_unreachable(&mut self, garbage: Garbage) {
        if !(self.config.obs.enabled && self.config.safety_oracle) {
            return;
        }
        match garbage {
            Garbage::None => {}
            Garbage::Fresh(addr) => self.runtime(addr.site()).obs_mut().mark_unreachable(addr),
            Garbage::Any => drop(self.live_set()),
        }
    }

    /// The global live set. With observability on, the lifecycle ledger
    /// learns from it when objects *became* unreachable.
    fn live_set(&mut self) -> LiveSet {
        let live = Oracle::reachable(self.heaps());
        if self.config.obs.enabled {
            for runtime in self.sites.slots.iter_mut().flatten() {
                let heap = runtime.heap();
                let addrs = heap.iter().map(|obj| heap.addr_of(obj.id()));
                let garbage: Vec<_> = addrs.filter(|addr| !live.contains(*addr)).collect();
                let obs = runtime.obs_mut();
                obs.set_step(self.step);
                for addr in garbage {
                    obs.mark_unreachable(addr);
                }
            }
        }
        live
    }

    /// Lends every up site to one of `parts` shards, picked by `part_of`,
    /// for a parallel drain. Lent shards carry no factory and start with
    /// zeroed counters; [`Shard::merge`] takes the sites back.
    pub(crate) fn lend(
        &mut self,
        parts: usize,
        part_of: impl Fn(SiteId) -> usize,
    ) -> Vec<Shard<C, ()>> {
        let mut lent: Vec<_> = (0..parts)
            .map(|_| Shard::empty(Arc::clone(&self.config), (), self.step))
            .collect();
        for (site, runtime) in self.sites.drain() {
            lent[part_of(site)].sites.insert(site, runtime);
        }
        lent
    }

    /// Takes back the sites lent to `other`, with the verdict and trigger
    /// counters it kept. A lent shard only delivers, so nothing else of it
    /// can have changed.
    pub(crate) fn merge<G>(&mut self, mut other: Shard<C, G>) {
        for (site, runtime) in other.sites.drain() {
            self.sites.insert(site, runtime);
        }
        self.verdicts += other.verdicts;
        let merge = |a: Option<Stamp>, b: Option<Stamp>, pick: fn(u64, u64) -> u64| match (a, b) {
            (Some(a), Some(b)) => Some((pick(a.0, b.0), pick(a.1, b.1))),
            (a, b) => a.or(b),
        };
        self.triggered = merge(self.triggered, other.triggered, u64::min);
        self.last_verdict = merge(self.last_verdict, other.last_verdict, u64::max);
    }

    /// Builds the run report; the residual is the heaps' sizes less the live set's.
    pub(crate) fn report(&self, finished_at: u64, net: NetMetrics) -> RunReport {
        let objects: usize = self.heaps().map(SiteHeap::len).sum();
        RunReport {
            collector: self
                .sites
                .values()
                .next()
                .map(|rt| rt.collector().name().to_owned())
                .unwrap_or_default(),
            sites: self.sites.values().count() as u32,
            allocated: self
                .sites
                .values()
                .map(|rt| rt.heap().stats().allocated)
                .sum(),
            reclaimed: self.reclaimed,
            safety_violations: self.safety_violations,
            residual_garbage: (objects - Oracle::reachable(self.heaps()).len()) as u64,
            verdicts: self.verdicts,
            finished_at,
            last_verdict_at: self.last_verdict.map(|(at, _)| at),
            triggered_at: self.triggered.map(|(at, _)| at),
            triggered_step: self.triggered.map(|(_, step)| step),
            last_verdict_step: self.last_verdict.map(|(_, step)| step),
            net,
        }
    }
}
