//! The sites: every site of the cluster and everything that happens to it.
//!
//! A [`Shard`] holds one entry per site, under both drivers: the runtime of
//! a site that is up, the durable store, crash-time heap and restart time
//! of one that is down, the last heap of an evicted one, or a mark for one
//! that departed or never joined. That table is the crate's only record of
//! membership and liveness. The drive loop ([`Cluster`](crate::Cluster))
//! decides *whether* something happens — name resolution, skip analysis,
//! the crash schedule, the order of each membership protocol's steps — and
//! calls the shard's site operations directly: mutator ops, deliveries,
//! local collections, crash and recovery, and the site-side halves of the
//! membership protocols. Every runtime step ends in [`Shard::absorb`],
//! which books verdicts, posts the step's control messages to the driver's
//! [`Outbox`] and runs the checkpoint cadence; the shard never moves a
//! message itself. For a parallel drain it lends its up sites to one shard
//! per drain thread ([`Shard::lend`]) and takes them back when the threads
//! join ([`Shard::merge`]).

use std::collections::BTreeSet;
use std::sync::Arc;

use ggd_heap::SiteHeap;
use ggd_net::{NetMetrics, Transport};
use ggd_obs::SiteObs;
use ggd_store::{MembershipAnnouncement, SiteStore, StoreStats};
use ggd_types::{GlobalAddr, ObjectId, SiteId};

use crate::cluster::ClusterConfig;
use crate::collector::{Collector, SimPayload};
use crate::oracle::{LiveSet, Oracle};
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

/// The slot for `index` in a dense table, growing the table (with default
/// entries) to reach it.
pub(crate) fn slot<T: Default>(table: &mut Vec<T>, index: usize) -> &mut T {
    if index >= table.len() {
        table.resize_with(index + 1, T::default);
    }
    &mut table[index]
}

/// A set of addresses, one bit apiece: a word vector per
/// `SiteId::index()`, bit `ObjectId::index()`. Identities are dense per
/// site and never reused, so one bit records each for good, and a repeat
/// costs nothing.
#[derive(Debug, Default)]
struct AddrBits(Vec<Vec<u64>>);

impl AddrBits {
    fn insert(&mut self, site: SiteId, id: ObjectId) {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        let words = slot(&mut self.0, site.index() as usize);
        *slot(words, word as usize) |= 1 << bit;
    }

    /// The addresses, in address order.
    fn addrs(&self) -> BTreeSet<GlobalAddr> {
        let mut addrs = BTreeSet::new();
        for (site, words) in self.0.iter().enumerate() {
            for (w, &word) in words.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let object = w as u64 * 64 + u64::from(rest.trailing_zeros());
                    addrs.insert(GlobalAddr::new(site as u32, object));
                    rest &= rest - 1;
                }
            }
        }
        addrs
    }
}

/// One site as the shard holds it.
#[derive(Debug, Default)]
enum Site<C: Collector> {
    /// Not a member: a site beyond the founding ones that has not joined.
    #[default]
    Absent,
    /// A member that is up.
    Up(SiteRuntime<C>),
    /// A member that crashed. It is still a member: it comes back.
    Down(DownedSite<C::Msg>),
    /// Gone through a planned leave: its objects and references dissolved
    /// with it, and no trace of it may survive anywhere.
    Departed,
    /// Evicted without warning, with its last heap: the oracle
    /// conservatively keeps treating its objects as existing (exactly like
    /// a crashed site's), so an unsafe sweep of an object reachable only
    /// through the evicted site is still caught.
    Evicted(SiteHeap),
}

impl<C: Collector> Site<C> {
    fn is_member(&self) -> bool {
        matches!(self, Site::Up(_) | Site::Down(_))
    }
}

/// The runtime of the up `site` in `sites`, its logical clock set to `step`
/// so every probe inside the next entry point stamps the right step.
fn up_runtime<C: Collector>(sites: &mut [Site<C>], site: SiteId, step: u64) -> &mut SiteRuntime<C> {
    let Some(Site::Up(runtime)) = sites.get_mut(site.index() as usize) else {
        panic!("site {site} is up on this shard");
    };
    runtime.obs_mut().set_step(step);
    runtime
}

/// A site that is currently crashed: its durable medium and its heap as of
/// the crash — kept for the *oracle only*. The durable store provably
/// restores exactly this heap on recovery, so the site's objects still exist
/// in the ground-truth object graph while it is down; excluding them would
/// let an unsafe sweep of an object reachable only through the downed site
/// go undetected.
#[derive(Debug)]
struct DownedSite<M> {
    /// The transport time at which the site restarts.
    restart: u64,
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

/// The sites of a drive loop — see the module docs. `F` builds collectors
/// for joined and recovered sites; a lent shard has none (`()`).
pub(crate) struct Shard<C: Collector, F = Box<dyn Fn(SiteId) -> C>> {
    /// Every site, indexed by `SiteId::index()`; a site past the end is
    /// absent. Sites are `0..n` plus joiners, so a lookup on the per-op path
    /// is an index rather than a tree walk. Iteration runs in ascending
    /// `SiteId`: collection rounds, fan-outs, report assembly,
    /// `sites_mentioning` and so every control stream depend on that order.
    sites: Vec<Site<C>>,
    /// How many entries of `sites` are down, so that the crash schedule
    /// with nothing scheduled reads one number instead of the table.
    down: usize,
    /// Collector factory, retained so joined and crashed sites can be built.
    factory: F,
    /// The configuration every site is built under, shared with the shards
    /// it lends.
    pub(crate) config: Arc<ClusterConfig>,
    /// The logical scenario step of whatever is being executed — pushed
    /// into a runtime's obs handle before each entry point, so probes stamp
    /// driver-independent logical time. Set by the driver.
    pub(crate) step: u64,
    reclaimed: u64,
    /// Every freed identity, kept here rather than by the sites so that
    /// frees on sites that later depart stay recorded; only tests read it.
    freed: AddrBits,
    /// Objects a site exported after it had already freed them, set aside
    /// by [`Cluster::dangling_refs`](crate::Cluster::dangling_refs): the
    /// scenario names objects by handle, so the reference that lands then
    /// dangles through no fault of the collector.
    stale_exports: AddrBits,
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
    /// A shard whose founding `sites` are up, each with a fresh runtime.
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
        *slot(&mut self.sites, site.index() as usize) = Site::Up(runtime);
    }

    /// Brings a fresh site up mid-run, caught up on the membership
    /// `history` so far.
    pub(crate) fn join(
        &mut self,
        site: SiteId,
        history: &[MembershipAnnouncement],
        out: &mut impl Outbox<C::Msg>,
    ) {
        self.start(site);
        for &ann in history {
            self.apply_step(site, Catchup::Announce(ann), out);
        }
    }

    /// Every survivor severs its references towards `departing`: the
    /// reference-handoff half of a planned leave.
    pub(crate) fn handoff(&mut self, departing: SiteId, epoch: u64, out: &mut impl Outbox<C::Msg>) {
        self.fan_out(Catchup::Handoff { departing, epoch }, Some(departing), out);
    }

    /// Applies one membership announcement on every site.
    pub(crate) fn announce(&mut self, ann: MembershipAnnouncement, out: &mut impl Outbox<C::Msg>) {
        self.fan_out(Catchup::Announce(ann), None, out);
    }

    /// Applies one membership protocol step on every up site but `skip`,
    /// and queues it for every downed one: a survivor that crashed
    /// mid-protocol catches up at recovery, before anyone can observe its
    /// revived heap.
    fn fan_out(&mut self, step: Catchup, skip: Option<SiteId>, out: &mut impl Outbox<C::Msg>) {
        for index in 0..self.sites.len() {
            let site = SiteId::new(index as u32);
            match &mut self.sites[index] {
                Site::Up(_) if Some(site) != skip => self.apply_step(site, step, out),
                Site::Down(downed) => downed.pending_catchup.push(step),
                _ => {}
            }
        }
    }

    /// Allocates an object on an up site, returning its address.
    pub(crate) fn alloc(&mut self, site: SiteId, local_root: bool) -> GlobalAddr {
        let runtime = self.runtime(site);
        let addr = runtime.alloc(local_root);
        runtime.maybe_checkpoint();
        addr
    }

    /// Runs one local mutation on an up site and books its step.
    pub(crate) fn mutate(
        &mut self,
        site: SiteId,
        out: &mut impl Outbox<C::Msg>,
        op: impl FnOnce(&mut SiteRuntime<C>) -> SiteTick<C::Msg>,
    ) {
        let tick = op(self.runtime(site));
        self.absorb(site, tick, out);
    }

    /// Exports `target` from `site` to `recipient`: the export, then the
    /// wire send, or the immediate local receive for a same-site recipient.
    pub(crate) fn send_ref(
        &mut self,
        site: SiteId,
        target: GlobalAddr,
        recipient: GlobalAddr,
        out: &mut impl Outbox<C::Msg>,
    ) {
        if target.site() == site && !self.site(site).heap().contains(target.object()) {
            self.stale_exports.insert(site, target.object());
        }
        self.mutate(site, out, |runtime| {
            runtime.export_reference(target, recipient)
        });
        if recipient.site() != site {
            let payload = SimPayload::Reference { recipient, target };
            out.post(site, recipient.site(), payload);
            return;
        }
        // A same-site transfer is a local mutation, not a network message
        // (see `SiteRuntime::export_reference`): the reference is stored
        // immediately and must not be droppable, duplicable or stallable by
        // a fault plan.
        self.mutate(site, out, |runtime| {
            runtime.receive_reference(site, recipient, target)
        });
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
    pub(crate) fn collect_round(&mut self, only: Option<SiteId>, out: &mut impl Outbox<C::Msg>) {
        let sites = match only {
            Some(site) => site.index() as usize..site.index() as usize + 1,
            None => 0..self.sites.len(),
        };
        let mut live = None;
        for site in sites.map(|index| SiteId::new(index as u32)) {
            let Some(runtime) = self.up(site) else {
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
        let runtime = up_runtime(&mut self.sites, site, self.step);
        let freed = runtime.collect();
        let mut violations = 0;
        for &id in freed {
            let addr = GlobalAddr::from_parts(site, id);
            violations += u64::from(live.is_some_and(|live| live.contains(addr)));
            self.freed.insert(site, id);
        }
        self.safety_violations += violations;
        self.reclaimed += freed.len() as u64;
        // A collection that freed nothing does not sync.
        if !freed.is_empty() {
            let tick = runtime.sync();
            self.absorb(site, tick, out);
        }
        violations
    }

    /// Takes `site` down until `restart`, keeping its durable store, its
    /// crash-time heap and its measurements. A site already down merely has
    /// its restart time extended (overlapping windows); a site that is not
    /// a member has nothing to crash. True when the site went down.
    pub(crate) fn crash(&mut self, site: SiteId, restart: u64) -> bool {
        let Some(entry) = self.sites.get_mut(site.index() as usize) else {
            return false;
        };
        let mut runtime = match std::mem::take(entry) {
            Site::Up(runtime) => runtime,
            Site::Down(mut downed) => {
                downed.restart = downed.restart.max(restart);
                *entry = Site::Down(downed);
                return false;
            }
            other => {
                *entry = other;
                return false;
            }
        };
        let store = runtime
            .take_store()
            .expect("crash faults require durability (checked at construction)");
        let obs = runtime.take_obs();
        *entry = Site::Down(DownedSite {
            restart,
            store,
            heap: runtime.into_heap(),
            pending_catchup: Vec::new(),
            obs,
        });
        self.down += 1;
        true
    }

    /// Recovers every downed site whose restart time is at most `now`, in
    /// ascending `SiteId`, and returns how many it recovered.
    pub(crate) fn recover_due(&mut self, now: u64, out: &mut impl Outbox<C::Msg>) -> usize {
        let due: Vec<SiteId> = self
            .sites_where(|entry| matches!(entry, Site::Down(downed) if downed.restart <= now))
            .collect();
        for &site in &due {
            self.recover(site, out);
        }
        due.len()
    }

    /// Recovers `site` from its durable store if it is down.
    pub(crate) fn recover(&mut self, site: SiteId, out: &mut impl Outbox<C::Msg>) {
        let Some(entry) = self.sites.get_mut(site.index() as usize) else {
            return;
        };
        let downed = match std::mem::take(entry) {
            Site::Down(downed) => downed,
            other => {
                *entry = other;
                return;
            }
        };
        let mut runtime = SiteRuntime::recover(downed.store, (self.factory)(site));
        // Replay logs nothing, so the records since the checkpoint are the
        // tail this recovery just replayed.
        let replayed = runtime
            .store()
            .map_or(0, |store| u64::from(store.records_since_checkpoint()));
        // Recovery replays with a disabled handle (no double-counting);
        // re-attach the crash-time measurements now.
        runtime.set_obs(downed.obs);
        *entry = Site::Up(runtime);
        self.down -= 1;
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
            sites: Vec::new(),
            down: 0,
            factory,
            config,
            step,
            reclaimed: 0,
            freed: AddrBits::default(),
            stale_exports: AddrBits::default(),
            safety_violations: 0,
            verdicts: 0,
            recoveries: 0,
            triggered: None,
            last_verdict: None,
        }
    }

    /// Dissolves a site that completed its planned leave.
    pub(crate) fn remove(&mut self, site: SiteId) {
        *slot(&mut self.sites, site.index() as usize) = Site::Departed;
    }

    /// Evicts a member as it lies, up or down, keeping its heap for the
    /// oracle.
    pub(crate) fn evict(&mut self, site: SiteId) {
        let Some(entry) = self.sites.get_mut(site.index() as usize) else {
            return;
        };
        let heap = match std::mem::take(entry) {
            Site::Up(runtime) => runtime.into_heap(),
            Site::Down(downed) => {
                self.down -= 1;
                downed.heap
            }
            other => {
                *entry = other;
                return;
            }
        };
        *entry = Site::Evicted(heap);
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

    fn up(&self, site: SiteId) -> Option<&SiteRuntime<C>> {
        match self.sites.get(site.index() as usize)? {
            Site::Up(runtime) => Some(runtime),
            _ => None,
        }
    }

    fn runtime(&mut self, site: SiteId) -> &mut SiteRuntime<C> {
        up_runtime(&mut self.sites, site, self.step)
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
        if let Some(Site::Up(runtime)) = self.sites.get_mut(site.index() as usize) {
            runtime.maybe_checkpoint();
        }
    }

    /// The entries `pick` maps to something, with their sites, in
    /// ascending `SiteId`.
    fn each<'a, T: 'a>(
        &'a self,
        pick: impl Fn(&'a Site<C>) -> Option<T> + 'a,
    ) -> impl Iterator<Item = (SiteId, T)> + 'a {
        let entries = self.sites.iter().enumerate();
        entries.filter_map(move |(index, entry)| Some((SiteId::new(index as u32), pick(entry)?)))
    }

    /// The sites whose entry matches, in ascending `SiteId`.
    fn sites_where<'a>(
        &'a self,
        pick: impl Fn(&Site<C>) -> bool + 'a,
    ) -> impl Iterator<Item = SiteId> + 'a {
        self.each(move |entry| pick(entry).then_some(()))
            .map(|(site, ())| site)
    }

    /// The sites that are up, with their runtimes, in ascending `SiteId`.
    fn up_sites(&self) -> impl Iterator<Item = (SiteId, &SiteRuntime<C>)> {
        self.each(|entry| match entry {
            Site::Up(runtime) => Some(runtime),
            _ => None,
        })
    }

    /// The sites that are down, in ascending `SiteId`.
    fn downed(&self) -> impl Iterator<Item = &DownedSite<C::Msg>> {
        let downed = self.each(|entry| match entry {
            Site::Down(downed) => Some(downed),
            _ => None,
        });
        downed.map(|(_, downed)| downed)
    }

    /// True when the site's runtime is currently up on this shard.
    pub(crate) fn is_up(&self, site: SiteId) -> bool {
        self.up(site).is_some()
    }

    /// True when `site` is a member of the fleet, up or down.
    pub(crate) fn is_member(&self, site: SiteId) -> bool {
        self.sites
            .get(site.index() as usize)
            .is_some_and(Site::is_member)
    }

    /// True when `site` never was a member: a join may bring it up.
    pub(crate) fn is_absent(&self, site: SiteId) -> bool {
        matches!(
            self.sites.get(site.index() as usize),
            None | Some(Site::Absent)
        )
    }

    /// True when `site` permanently left the fleet, departed or evicted.
    pub(crate) fn is_gone(&self, site: SiteId) -> bool {
        let entry = self.sites.get(site.index() as usize);
        matches!(entry, Some(Site::Departed | Site::Evicted(_)))
    }

    /// True when some site is down.
    pub(crate) fn any_down(&self) -> bool {
        self.down > 0
    }

    /// Current membership: founding sites, plus joins, minus departures.
    /// Crashed sites stay members (they come back).
    pub(crate) fn membership(&self) -> BTreeSet<SiteId> {
        self.sites_where(Site::is_member).collect()
    }

    /// Sites gone through a planned leave.
    pub(crate) fn departed(&self) -> BTreeSet<SiteId> {
        self.sites_where(|entry| matches!(entry, Site::Departed))
            .collect()
    }

    pub(crate) fn evicted_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.sites_where(|entry| matches!(entry, Site::Evicted(_)))
    }

    pub(crate) fn site(&self, site: SiteId) -> &SiteRuntime<C> {
        self.up(site).expect("site is up on this shard")
    }

    /// Every heap the oracle judges by: up sites, downed sites as of their
    /// crash, evicted sites as of their eviction.
    pub(crate) fn heaps(&self) -> impl Iterator<Item = &SiteHeap> {
        let up = self.up_sites().map(|(_, runtime)| runtime.heap());
        let downed = self.downed().map(|downed| &downed.heap);
        let evicted = self.each(|entry| match entry {
            Site::Evicted(heap) => Some(heap),
            _ => None,
        });
        up.chain(downed).chain(evicted.map(|(_, heap)| heap))
    }

    pub(crate) fn reclaimed_addrs(&self) -> BTreeSet<GlobalAddr> {
        self.freed.addrs()
    }

    /// The objects exported after their own site had freed them, sorted
    /// and free of duplicates.
    pub(crate) fn stale_exports(&self) -> Vec<GlobalAddr> {
        self.stale_exports.addrs().into_iter().collect()
    }

    pub(crate) fn recoveries(&self) -> u64 {
        self.recoveries
    }

    pub(crate) fn sites_mentioning(&self, departed: SiteId) -> Vec<SiteId> {
        sites_mentioning(self.up_sites(), departed)
    }

    /// Aggregated durable-store counters across every site, up or down.
    /// All zeros with durability off.
    pub(crate) fn store_stats(&self) -> StoreStats {
        let up = self.up_sites().filter_map(|(_, runtime)| runtime.store());
        let down = self.downed().map(|downed| &downed.store);
        sum_store_stats(up.chain(down).map(SiteStore::stats))
    }

    /// Every site's scope of an observability report.
    pub(crate) fn obs_scopes(&self) -> Vec<SiteObs> {
        let up = self.up_sites().map(|(_, runtime)| runtime.obs_scope());
        up.chain(self.downed().map(|downed| downed.obs.clone()))
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
            for entry in &mut self.sites {
                let Site::Up(runtime) = entry else {
                    continue;
                };
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
        for (index, entry) in self.sites.iter_mut().enumerate() {
            if let Site::Up(_) = entry {
                let site = SiteId::new(index as u32);
                *slot(&mut lent[part_of(site)].sites, index) = std::mem::take(entry);
            }
        }
        lent
    }

    /// Takes back the sites lent to `other`, with the verdict and trigger
    /// counters it kept. A lent shard only delivers, so nothing else of it
    /// can have changed.
    pub(crate) fn merge<G>(&mut self, other: Shard<C, G>) {
        for (index, entry) in other.sites.into_iter().enumerate() {
            if let Site::Up(_) = entry {
                self.sites[index] = entry;
            }
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
        let up = || self.up_sites().map(|(_, runtime)| runtime);
        RunReport {
            collector: up()
                .next()
                .map(|rt| rt.collector().name().to_owned())
                .unwrap_or_default(),
            sites: up().count() as u32,
            allocated: up().map(|rt| rt.heap().stats().allocated).sum(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_ids_read_back_as_the_set_of_freed_addresses() {
        let mut freed = AddrBits::default();
        let mut model = BTreeSet::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Out of order, repeated, across word boundaries and sites with
            // gaps between them.
            let addr = GlobalAddr::new((state % 5 * 3) as u32, state >> 54 | 1);
            freed.insert(addr.site(), addr.object());
            model.insert(addr);
        }
        for addr in [
            GlobalAddr::new(0, 1),
            GlobalAddr::new(9, 63),
            GlobalAddr::new(9, 64),
        ] {
            freed.insert(addr.site(), addr.object());
            model.insert(addr);
        }
        assert_eq!(freed.addrs(), model);
        assert_eq!(AddrBits::default().addrs(), BTreeSet::new());
    }
}
