//! The per-site causal GGD engine: lazy log-keeping plus the `Receive` /
//! `ComputeV` reconstruction of vector-times (Fig. 6 of the paper).
//!
//! Every relevant event touches the event counter, the `DK` row, the
//! closure memo or the out-edges of one *local* vertex — the site's anchor
//! or one of its own objects. The engine keeps that state in one record per
//! vertex: the anchor's in a field of its own, each object's in a table
//! indexed by `ObjectId::index()` (the shape of the heap arena's
//! `id_index`), and the log keeps the objects' rows the same way. State
//! keyed by *remote* vertices is found by one hashed lookup: the rows kept
//! on their behalf, and one `RemoteTarget` record per remote object
//! holding its edge count and its receive-rule holders. The table grows
//! only from local events — export, receive, delta or snapshot, restore —
//! never from a control message. Checkpoints and every iteration the engine
//! exposes are in ascending vertex order, exactly as if everything were
//! ordered maps (DESIGN.md §6 "Engine state").

use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ggd_heap::{EdgeDelta, ReachabilitySnapshot};
use ggd_types::{
    CompactVector, DependencyVector, GlobalAddr, IdMap, ObjectId, SiteId, Timestamp, VertexId,
};

use crate::checkpoint::{EngineCheckpoint, EngineImageSink, EngineImageSource};
use crate::log::{DkLog, RootedVector};
use crate::message::CausalMessage;
use crate::table::LocalTable;

/// A control message queued by the engine, together with its destination
/// site. The caller (normally `ggd-sim`) moves these onto the transport.
#[derive(Debug, Clone, PartialEq)]
pub struct Outgoing {
    /// Site hosting the destination vertex.
    pub to_site: SiteId,
    /// The control message itself.
    pub message: CausalMessage,
}

/// Counters describing what the engine has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Edge-creation log-keeping events recorded (lazily, no messages).
    pub edge_creations: u64,
    /// Edge-destruction log-keeping events recorded.
    pub edge_destructions: u64,
    /// Reference exports / third-party sends recorded by the lazy rules.
    pub lazy_records: u64,
    /// Edge-destruction control messages queued.
    pub destructions_sent: u64,
    /// Vector-propagation control messages queued.
    pub propagations_sent: u64,
    /// Control messages received.
    pub messages_received: u64,
    /// Garbage verdicts produced.
    pub verdicts: u64,
    /// DkLog compaction passes run (the checkpoint path runs one per
    /// checkpoint).
    pub compaction_runs: u64,
    /// DkLog rows dropped by compaction, cumulative.
    pub compaction_rows_dropped: u64,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "creations={} destructions={} sent={}+{} recv={} verdicts={}",
            self.edge_creations,
            self.edge_destructions,
            self.destructions_sent,
            self.propagations_sent,
            self.messages_received,
            self.verdicts
        )
    }
}

/// How many of each per-vertex record an engine holds: the counts that
/// attribute its memory, each record's size being fixed by its shape
/// (DESIGN.md §6 "Engine state").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineFootprint {
    /// Log rows of the site's own objects (three entries inline).
    pub local_rows: usize,
    /// Log rows of anchors and of other sites' vertices (one entry inline).
    pub remote_rows: usize,
    /// Edge-count and holder records of remote objects.
    pub remote_records: usize,
    /// Entries held by the closure memos of the site's vertices.
    pub memo_entries: usize,
}

/// What the engine keeps about one of its own site's vertices: the anchor
/// or a local object (DESIGN.md §6 "Engine state").
#[derive(Debug, Clone, Default)]
struct VertexState {
    /// Log-keeping event counter; 0 until the vertex's first event.
    counter: u64,
    /// The closure last circulated from the vertex (suppresses
    /// re-propagation of unchanged knowledge, and is what a propagation
    /// ships). Boxed: most local vertices never circulate one. In the
    /// compact shape: a closure averages four and a half entries, so it
    /// spills whatever its inline room.
    last_closure: Option<Box<CompactVector>>,
    /// The vertex's out-going inter-site edges, sorted and without
    /// duplicates (a checkpoint writes them as a set).
    edges_out: Vec<GlobalAddr>,
    /// A global root currently reachable from the site's local root set.
    locally_rooted: bool,
    /// A garbage verdict was produced for the vertex (blocks re-detection).
    detected: bool,
}

impl VertexState {
    /// Remembers `closure` as the last one circulated.
    fn remember(&mut self, closure: CompactVector) {
        self.last_closure = Some(Box::new(closure));
    }

    /// Remembers the closure `entries` (a `DependencyVector`'s entry
    /// layout) unless the memo already holds exactly them, copying into the
    /// memo's allocation. Returns whether the memo changed: whether the
    /// closure improved on the one last circulated.
    fn remember_entries(&mut self, entries: &[(VertexId, Timestamp)]) -> bool {
        match &mut self.last_closure {
            Some(memo) if memo.as_slice() == entries => false,
            Some(memo) => {
                let copied = memo.assign_sorted_slice(entries);
                debug_assert!(copied, "a closure is sorted and holds no NEVER");
                true
            }
            None => {
                let memo = CompactVector::from_sorted_slice(entries)
                    .expect("a closure is sorted and holds no NEVER");
                self.remember(memo);
                true
            }
        }
    }
}

/// What the engine keeps about one remote object: how many local vertices
/// hold an out-edge to it, and which local objects the receive rule
/// recorded as holders of a reference to it. A record exists only while
/// one of the two is non-empty.
#[derive(Debug, Clone, Default)]
struct RemoteTarget {
    /// Local vertices holding an out-edge to the target — the O(1) answer
    /// to "does this site still reach it?" on the delta path. Kept in
    /// lockstep with the vertices' out-edges.
    refs: u32,
    /// Receive-rule holders.
    holders: Holders,
}

impl RemoteTarget {
    fn is_empty(&self) -> bool {
        self.refs == 0 && self.holders.is_empty()
    }
}

/// The receive-rule holders of one remote object, sorted and without
/// duplicates: the one holder nearly every record has (99.6% of them in a
/// churning 64-site run) inline, more in a boxed slice.
#[derive(Debug, Clone, Default)]
enum Holders {
    #[default]
    Empty,
    One(VertexId),
    Many(Box<[VertexId]>),
}

impl Holders {
    /// The holders of `sorted`, which ascends without duplicates.
    fn from_sorted(sorted: Vec<VertexId>) -> Self {
        match *sorted {
            [] => Holders::Empty,
            [holder] => Holders::One(holder),
            _ => Holders::Many(sorted.into_boxed_slice()),
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, Holders::Empty)
    }

    fn insert(&mut self, holder: VertexId) {
        match self.binary_search(&holder) {
            Ok(_) => {}
            Err(_) if self.is_empty() => *self = Holders::One(holder),
            Err(at) => {
                let mut held = Vec::with_capacity(self.len() + 1);
                held.extend_from_slice(&self[..at]);
                held.push(holder);
                held.extend_from_slice(&self[at..]);
                *self = Holders::Many(held.into_boxed_slice());
            }
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(VertexId) -> bool) {
        match self {
            Holders::Empty => {}
            Holders::One(held) => {
                if !keep(*held) {
                    *self = Holders::Empty;
                }
            }
            Holders::Many(held) => {
                let kept: Vec<VertexId> = held.iter().copied().filter(|&h| keep(h)).collect();
                if kept.len() < held.len() {
                    *self = Holders::from_sorted(kept);
                }
            }
        }
    }
}

/// The holders as a sorted slice.
impl std::ops::Deref for Holders {
    type Target = [VertexId];

    fn deref(&self) -> &[VertexId] {
        match self {
            Holders::Empty => &[],
            Holders::One(holder) => std::slice::from_ref(holder),
            Holders::Many(holders) => holders,
        }
    }
}

/// The state of every local vertex the engine has heard of: the anchor's in
/// a field of its own, each object's in a table indexed by its identity.
#[derive(Debug, Clone)]
struct LocalVertices {
    anchor_site: SiteId,
    anchor: VertexState,
    objects: LocalTable<VertexState>,
}

impl LocalVertices {
    fn new(site: SiteId) -> Self {
        LocalVertices {
            anchor_site: site,
            anchor: VertexState::default(),
            objects: LocalTable::new(site),
        }
    }

    fn is_anchor(&self, vertex: VertexId) -> bool {
        vertex == VertexId::site_root(self.anchor_site.index())
    }

    /// True when `vertex` is the anchor or one of the site's objects.
    fn holds(&self, vertex: VertexId) -> bool {
        self.is_anchor(vertex) || self.objects.holds(vertex)
    }

    /// The state of `vertex`, if it is local and has any.
    fn get(&self, vertex: VertexId) -> Option<&VertexState> {
        if self.is_anchor(vertex) {
            Some(&self.anchor)
        } else {
            self.objects.get(vertex)
        }
    }

    fn get_mut(&mut self, vertex: VertexId) -> Option<&mut VertexState> {
        if self.is_anchor(vertex) {
            Some(&mut self.anchor)
        } else {
            self.objects.get_mut(vertex)
        }
    }

    /// The state of the local `vertex`, created if needed. Only the local
    /// events (export, receive, delta or snapshot, restore) reach here with
    /// a vertex that has no state yet; any other vertex panics.
    fn entry(&mut self, vertex: VertexId) -> &mut VertexState {
        if self.is_anchor(vertex) {
            &mut self.anchor
        } else {
            self.objects.get_or_default(vertex)
        }
    }

    /// Every vertex with state, in ascending order (the anchor first).
    fn iter(&self) -> impl Iterator<Item = (VertexId, &VertexState)> + Clone {
        std::iter::once((VertexId::site_root(self.anchor_site.index()), &self.anchor))
            .chain(self.objects.iter())
    }

    /// Every state, mutably, in no particular order.
    fn values_mut(&mut self) -> impl Iterator<Item = &mut VertexState> {
        std::iter::once(&mut self.anchor).chain(self.objects.values_mut())
    }
}

/// The causal GGD engine of one site.
///
/// See the crate-level documentation for the full protocol and a worked
/// example; in short the engine consumes mutator-side lazy log-keeping
/// events ([`CausalEngine::on_export`], [`CausalEngine::on_third_party_send`]),
/// reachability deltas ([`CausalEngine::apply_delta`]) and incoming
/// control messages ([`CausalEngine::on_message`]), and produces outgoing
/// control messages and garbage verdicts.
#[derive(Debug, Clone)]
pub struct CausalEngine {
    site: SiteId,
    log: DkLog,
    /// Counter, closure memo, out-edges and root and verdict flags of every
    /// local vertex, found by index.
    vertices: LocalVertices,
    /// Edge count and receive-rule holders of every remote object this
    /// site reaches or received a reference to.
    remote: IdMap<GlobalAddr, RemoteTarget>,
    pending_verdicts: Vec<GlobalAddr>,
    outgoing: Vec<Outgoing>,
    stats: EngineStats,
    /// `apply_delta`'s edge events, `(vertex, target, created)` in replay
    /// order: a buffer reused across calls, empty between them.
    events: Vec<(VertexId, GlobalAddr, bool)>,
    /// `apply_delta`'s vertices whose local rootedness changed, in delta
    /// order: a buffer reused across calls, empty between them.
    rootedness_changed: Vec<VertexId>,
    /// The payload of the message last received, emptied: the next
    /// outgoing payload is built in its storage, so a chain of control
    /// messages reuses the allocations it arrives with.
    spare: RootedVector,
}

impl CausalEngine {
    /// Creates the engine for `site`.
    pub fn new(site: SiteId) -> Self {
        CausalEngine {
            site,
            log: DkLog::new(site),
            vertices: LocalVertices::new(site),
            remote: IdMap::default(),
            pending_verdicts: Vec::new(),
            outgoing: Vec::new(),
            stats: EngineStats::default(),
            events: Vec::new(),
            rootedness_changed: Vec::new(),
            spare: RootedVector::new(),
        }
    }

    /// The site this engine runs on.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The vertex standing for this site's local root set.
    pub fn anchor(&self) -> VertexId {
        VertexId::site_root(self.site.index())
    }

    /// Read access to the engine's log `DK` (used to reproduce Figure 8 of
    /// the paper and by tests).
    pub fn log(&self) -> &DkLog {
        &self.log
    }

    /// Current per-vertex event counters.
    pub fn counter(&self, vertex: VertexId) -> u64 {
        self.vertices.get(vertex).map_or(0, |state| state.counter)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// How many of each per-vertex record the engine holds now.
    pub fn footprint(&self) -> EngineFootprint {
        EngineFootprint {
            local_rows: self.log.local_len(),
            remote_rows: self.log.len() - self.log.local_len(),
            remote_records: self.remote.len(),
            memo_entries: self
                .vertices
                .iter()
                .filter_map(|(_, state)| state.last_closure.as_ref())
                .map(|memo| memo.len())
                .sum(),
        }
    }

    /// Drains the control messages queued since the last call.
    pub fn take_outgoing(&mut self) -> Vec<Outgoing> {
        std::mem::take(&mut self.outgoing)
    }

    /// True when the engine has queued control messages.
    pub fn has_outgoing(&self) -> bool {
        !self.outgoing.is_empty()
    }

    /// Drains the garbage verdicts produced since the last call. Each entry
    /// is a local object that is provably no longer remotely reachable and
    /// may be removed from the heap's global root set.
    pub fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        std::mem::take(&mut self.pending_verdicts)
    }

    /// All verdicts ever produced by this engine, in ascending order.
    pub fn detected(&self) -> impl Iterator<Item = GlobalAddr> + Clone + '_ {
        self.vertices
            .iter()
            .filter(|(_, state)| state.detected)
            .filter_map(|(vertex, _)| vertex.as_object())
    }

    // ------------------------------------------------------------------
    // Durability: checkpoint, restore, compaction
    // ------------------------------------------------------------------

    /// Captures the engine's complete durable state as an owned, ordered
    /// image. The derived out-edge counts are not included;
    /// [`CausalEngine::restore`] rebuilds them. The checkpoint path does not
    /// build one: it writes the same parts from the engine's borrowed state
    /// ([`EngineImageSource`]).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let mut checkpoint = EngineCheckpoint {
            site: self.site,
            counters: BTreeMap::new(),
            log: self.log.clone(),
            last_closure: BTreeMap::new(),
            edges_out: BTreeMap::new(),
            locally_rooted: BTreeSet::new(),
            inbound_holders: self
                .remote
                .iter()
                .filter(|(_, record)| !record.holders.is_empty())
                .map(|(&target, record)| (target, record.holders.iter().copied().collect()))
                .collect(),
            detected: self.detected().collect(),
            pending_verdicts: self.pending_verdicts.clone(),
            outgoing: self.outgoing.clone(),
            stats: self.stats,
        };
        for (vertex, state) in self.vertices.iter() {
            if state.counter > 0 {
                checkpoint.counters.insert(vertex, state.counter);
            }
            if let Some(closure) = &state.last_closure {
                checkpoint.last_closure.insert(vertex, (**closure).clone());
            }
            if !state.edges_out.is_empty() {
                checkpoint
                    .edges_out
                    .insert(vertex, state.edges_out.iter().copied().collect());
            }
            if state.locally_rooted {
                checkpoint.locally_rooted.insert(vertex);
            }
        }
        checkpoint
    }

    /// Rebuilds an engine from a checkpoint, such that
    /// `CausalEngine::restore(e.checkpoint())` is indistinguishable from
    /// `e` under every public operation. State a checkpoint holds for
    /// another site's vertices is ignored: the engine keeps state for its
    /// own vertices only. Recovery builds no checkpoint: it reads the image
    /// straight into an engine ([`EngineImageSink`]), which must equal this
    /// rebuild.
    pub fn restore(checkpoint: EngineCheckpoint) -> Self {
        let site = checkpoint.site;
        let mut vertices = LocalVertices::new(site);
        for (vertex, counter) in checkpoint.counters {
            if vertices.holds(vertex) {
                vertices.entry(vertex).counter = counter;
            }
        }
        for (vertex, closure) in checkpoint.last_closure {
            if vertices.holds(vertex) {
                vertices.entry(vertex).remember(closure);
            }
        }
        for (vertex, targets) in checkpoint.edges_out {
            if vertices.holds(vertex) {
                vertices.entry(vertex).edges_out = targets.into_iter().collect();
            }
        }
        for vertex in checkpoint.locally_rooted {
            if vertices.holds(vertex) {
                vertices.entry(vertex).locally_rooted = true;
            }
        }
        for addr in checkpoint.detected {
            if vertices.objects.holds(VertexId::from(addr)) {
                vertices.entry(VertexId::from(addr)).detected = true;
            }
        }
        // Holders are local objects the receive rule bumps; keep no other.
        let mut remote = IdMap::default();
        for (target, holders) in checkpoint.inbound_holders {
            let holders: Vec<VertexId> = holders
                .into_iter()
                .filter(|&holder| vertices.objects.holds(holder))
                .collect();
            if !holders.is_empty() {
                remote.insert(
                    target,
                    RemoteTarget {
                        refs: 0,
                        holders: Holders::from_sorted(holders),
                    },
                );
            }
        }
        let mut engine = CausalEngine {
            site,
            log: checkpoint.log,
            vertices,
            remote,
            pending_verdicts: checkpoint.pending_verdicts,
            outgoing: checkpoint.outgoing,
            stats: checkpoint.stats,
            events: Vec::new(),
            rootedness_changed: Vec::new(),
            spare: RootedVector::new(),
        };
        engine.rebuild_edge_refcounts();
        engine
    }

    /// Compacts the log against the engine's *stable cutoff*, by four rules:
    ///
    /// 1. **Local detected vertices.** A detected vertex is provably
    ///    unreachable from every actual root and its verdict is final
    ///    ([`CausalEngine::detected`] blocks re-detection forever), so the
    ///    row kept on its behalf, the entries keyed by it in other rows, its
    ///    receive-rule holder bookkeeping and its root-status stamps can only
    ///    ever contribute stale conservatism.
    /// 2. **Dead remote rows.** A row held on a remote vertex's behalf
    ///    whose entries are all tombstones, while this site holds no edge
    ///    to the vertex and no receive-rule holder bookkeeping for it, is
    ///    pure destruction history. Dropping it can only lose tombstones
    ///    and resolution knowledge, both of which push the garbage test
    ///    towards *keeping* objects (an absent row blocks
    ///    `direct_live_entries_resolved`, and a lost tombstone leaves a
    ///    stale live entry standing) — never towards an unsafe verdict.
    /// 3. **Inert local self-rows.** The receive rule's `bump` creates a
    ///    row for every local *holder* object (its own counter entry,
    ///    nothing else). Once the holder is out of every inbound-holder
    ///    set, holds no tracked out-edges and is not locally rooted, that
    ///    row carries no cross-vertex knowledge — its single self entry
    ///    only freshens the holder's own counter in closures passing
    ///    through stale entries keyed by it. Exported objects' rows always
    ///    carry their recipient placeholders, so no global root's row can
    ///    match this shape.
    /// 4. **Stale root-status stamps.** A stamp is only consulted for
    ///    vertices carrying a *live* entry in a closure, and every closure
    ///    entry originates in a row's vector entry — so once no kept row
    ///    mentions a vertex (and no edge, holder or local-root bookkeeping
    ///    still tracks it), its stamp can never influence a garbage test
    ///    here, and no outgoing payload of this engine can carry a live
    ///    entry that would need it bundled.
    ///
    /// Together they bound log growth under churn: the log tracks the
    /// *live* cross-site graph, not the history of every object that ever
    /// crossed a site boundary. The checkpoint path calls this.
    ///
    /// The cost is a few passes over the rows, linear in their entries:
    /// "dead" is the vertex's own `detected` flag, rows are filtered in
    /// place, and only the few stamped vertices are marked while the
    /// entries are walked.
    ///
    /// Returns the number of rows dropped.
    pub fn compact_detected(&mut self) -> usize {
        let site = self.site;
        let vertices = &self.vertices;
        let dead = |vertex: VertexId| vertices.get(vertex).is_some_and(|state| state.detected);

        // 1. Local detected vertices.
        self.remote.retain(|_, record| {
            record.holders.retain(|holder| !dead(holder));
            !record.is_empty()
        });
        let mut dropped = self.log.prune_vertices(dead);

        // 2. Dead remote rows, dropped in place; 3. the rows shaped like
        // inert local self-rows, kept for the holder test below.
        let remote = &self.remote;
        let mut inert: Vec<(VertexId, bool)> = Vec::new();
        dropped += self.log.retain_rows(|vertex, row| {
            let Some(addr) = vertex.as_object() else {
                return true;
            };
            if addr.site() != site {
                return row.entries().iter().any(|(_, ts)| ts.is_live())
                    || remote.contains_key(&addr);
            }
            if row.entries().len() == 1
                && row.get(vertex).is_live()
                && row.root_flags().is_empty()
                && vertices.get(vertex).map_or(true, |state| {
                    !state.locally_rooted && state.edges_out.is_empty()
                })
            {
                inert.push((vertex, false));
            }
            true
        });
        if !inert.is_empty() {
            // A receive-rule holder keeps its row.
            inert.sort_unstable();
            for holder in self
                .remote
                .values()
                .flat_map(|record| record.holders.iter())
            {
                if let Ok(i) = inert.binary_search_by_key(holder, |&(vertex, _)| vertex) {
                    inert[i].1 = true;
                }
            }
            inert.retain(|&(_, held)| !held);
            dropped += self
                .log
                .retain_rows(|vertex, _| inert.binary_search(&(vertex, false)).is_err());
        }

        // 4. Stale root-status stamps: mark the stamped vertices something
        // still mentions, and drop the rest.
        let stamped = self.log.stamped_vertices();
        if !stamped.is_empty() {
            let mut kept = vec![false; stamped.len()];
            let mut mark = |vertex: VertexId| {
                if let Ok(i) = stamped.binary_search(&vertex) {
                    kept[i] = true;
                }
            };
            for (vertex, row) in self.log.rows_unordered() {
                mark(vertex);
                row.entries().iter().for_each(|&(q, _)| mark(q));
            }
            for (&target, record) in &self.remote {
                mark(VertexId::from(target));
                record.holders.iter().for_each(|&holder| mark(holder));
            }
            for (vertex, state) in self.vertices.iter() {
                if state.locally_rooted {
                    mark(vertex);
                }
            }
            self.log
                .retain_stamps(|vertex| stamped.binary_search(&vertex).is_ok_and(|i| kept[i]));
        }

        // The circulated-closure memos of every dropped subject are equally
        // final.
        for state in self.vertices.values_mut() {
            if state.detected {
                state.last_closure = None;
            }
        }
        for &(vertex, _) in &inert {
            if let Some(state) = self.vertices.get_mut(vertex) {
                state.last_closure = None;
            }
        }
        self.stats.compaction_runs += 1;
        self.stats.compaction_rows_dropped += dropped as u64;
        dropped
    }

    /// Retires every trace of a site that left the fleet through a
    /// *planned departure* — the vector-retirement step of elastic
    /// membership (DESIGN.md §9, "Elastic membership and partitions").
    ///
    /// By the time this runs, the departure protocol has already (a)
    /// quiesced the cluster, so no message from the departed site is in
    /// flight, and (b) severed this site's heap references towards the
    /// departed site via the reference handoff, so no real edge in either
    /// direction survives. What remains is pure bookkeeping: rows held on
    /// behalf of departed-hosted vertices, entries keyed by them
    /// (placeholders recorded at export time, holder entries, tombstones),
    /// root-status stamps, and queued messages that can no longer be
    /// delivered. All of it is dropped, exactly as
    /// [`CausalEngine::compact_detected`] drops finally-dead vertices: an
    /// entry keyed by a departed vertex can never again witness a real live
    /// root path, because the departed site's objects no longer exist.
    ///
    /// Removing live entries can only shrink closures, so local subjects
    /// are re-evaluated for newly exposed garbage afterwards — objects kept
    /// alive solely by the departed site's (now re-homed or dissolved)
    /// references fall out here instead of lingering as residual.
    ///
    /// Returns the number of log rows dropped.
    pub fn retire_site(&mut self, departed: SiteId) -> usize {
        debug_assert_ne!(departed, self.site, "a site cannot retire itself");

        // 1. Every departed-hosted vertex this engine has ever heard of.
        let mut dead: BTreeSet<VertexId> = BTreeSet::new();
        dead.insert(VertexId::site_root(departed.index()));
        for (vertex, row) in self.log.rows() {
            if vertex.site() == departed {
                dead.insert(vertex);
            }
            for &(q, _) in row.entries() {
                if q.site() == departed {
                    dead.insert(q);
                }
            }
        }
        for vertex in self.log.root_flags().keys() {
            if vertex.site() == departed {
                dead.insert(vertex);
            }
        }

        // 2. Drop their rows, erase entries keyed by them everywhere, and
        // forget their root stamps.
        let dropped = self.log.prune_vertices(|vertex| dead.contains(&vertex));

        // 3. Auxiliary state: dead entries inside the closure memos, edges
        // and holder bookkeeping towards departed-hosted targets, and queued
        // messages addressed to the departed site. (Counters and memos are
        // kept for local vertices only, so none belongs to a departed one.)
        for state in self.vertices.values_mut() {
            if let Some(closure) = &mut state.last_closure {
                for &vertex in &dead {
                    closure.set(vertex, Timestamp::NEVER);
                }
            }
            state.edges_out.retain(|addr| addr.site() != departed);
        }
        self.rebuild_edge_refcounts();
        self.remote.retain(|target, _| target.site() != departed);
        self.outgoing.retain(|out| out.to_site != departed);

        // 4. Shrunken closures may expose garbage that only the departed
        // site's references kept alive.
        let subjects: Vec<VertexId> = self
            .log
            .rows()
            .map(|(vertex, _)| vertex)
            .filter(|vertex| !vertex.is_site_root() && vertex.site() == self.site)
            .collect();
        for vertex in subjects {
            let closure = self.log.closure(vertex);
            if self.is_garbage(vertex, closure.as_slice()) {
                self.declare_garbage(vertex);
            }
        }
        dropped
    }

    /// True when this engine still mentions `site` anywhere — log rows or
    /// entries, root stamps, closure memos, edges, holder bookkeeping or
    /// queued messages. After [`CausalEngine::retire_site`] this must be
    /// `false` for the departed site; the membership equivalence oracle
    /// pins that.
    pub fn mentions_site(&self, site: SiteId) -> bool {
        self.log.rows().any(|(vertex, row)| {
            vertex.site() == site || row.entries().iter().any(|(q, _)| q.site() == site)
        }) || self.log.root_flags().keys().any(|v| v.site() == site)
            || self.vertices.iter().any(|(vertex, state)| {
                state.last_closure.as_ref().is_some_and(|closure| {
                    vertex.site() == site || closure.iter().any(|(q, _)| q.site() == site)
                }) || state.edges_out.iter().any(|a| a.site() == site)
            })
            || self.remote.keys().any(|a| a.site() == site)
            || self.outgoing.iter().any(|out| out.to_site == site)
    }

    // ------------------------------------------------------------------
    // Lazy log-keeping (§3.4)
    // ------------------------------------------------------------------

    /// Lazy rule for exporting a *local* object's reference to a remote
    /// vertex: the paper's "object i sends a copy of its own reference to
    /// object j". The engine records, in the exported object's own row, a
    /// placeholder live entry keyed by the recipient, so that the object
    /// knows it has (at least) that inbound edge. No message is sent. An
    /// export of another site's object is ignored.
    pub fn on_export(&mut self, exported: GlobalAddr, recipient: VertexId) {
        debug_assert_eq!(exported.site(), self.site, "exported object must be local");
        if exported.site() != self.site {
            return;
        }
        let vertex = VertexId::from(exported);
        self.bump(vertex);
        self.log
            .row_mut(vertex)
            .merge_entry(recipient, Timestamp::created(1));
        self.stats.lazy_records += 1;
    }

    /// Lazy rule for a third-party exchange: this site sends to `recipient`
    /// a reference denoting the *remote* object `target` (the paper's
    /// "object i sends to an object j a copy of a reference denoting an
    /// object k"). The engine records the would-be edge `recipient → target`
    /// in the row it keeps on the target's behalf; the knowledge is shipped
    /// to the target later, bundled with an edge-destruction message. No
    /// message is sent now.
    pub fn on_third_party_send(&mut self, target: GlobalAddr, recipient: VertexId) {
        if target.site() == self.site {
            self.on_export(target, recipient);
            return;
        }
        self.log
            .row_mut(VertexId::from(target))
            .merge_entry(recipient, Timestamp::created(1));
        self.stats.lazy_records += 1;
    }

    /// Lazy rule for the *receiving* side of a reference transfer: local
    /// object `recipient` has just received (and stored) a reference to the
    /// remote object `target`. The engine records, in the row it keeps on
    /// the target's behalf, a live entry keyed by the recipient object, and
    /// remembers the holder so that the entry can be marked destroyed — and
    /// shipped, bundled with the edge-destruction message — once this site
    /// as a whole loses its last path to the target. No message is sent now.
    pub fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        if target.site() == self.site {
            return; // purely local reference, no inter-site edge involved
        }
        debug_assert_eq!(recipient.site(), self.site, "recipient must be local");
        if recipient.site() != self.site {
            return;
        }
        let holder = VertexId::from(recipient);
        // The hosting site is the authority for this holder's entry: use the
        // holder's own (monotone) event counter so that later destructions
        // and re-acquisitions always supersede older knowledge, wherever it
        // was recorded.
        let n = self.bump(holder);
        self.log
            .row_mut(VertexId::from(target))
            .merge_entry(holder, Timestamp::created(n));
        self.remote
            .entry(target)
            .or_default()
            .holders
            .insert(holder);
        self.stats.lazy_records += 1;
    }

    // ------------------------------------------------------------------
    // Snapshots: edge creations / destructions (§3.1)
    // ------------------------------------------------------------------

    /// Applies a reachability snapshot of this site's heap: the engine
    /// states its own out-edges and rootedness as a snapshot, diffs it to
    /// `snapshot` and applies the result as a delta
    /// ([`CausalEngine::apply_delta`]).
    pub fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        debug_assert_eq!(snapshot.site(), self.site, "snapshot must be local");
        if snapshot.site() != self.site {
            return;
        }
        self.apply_delta(&self.own_snapshot().diff(snapshot));
    }

    /// This engine's view of its site's part of the global root graph: the
    /// anchor's out-edges, and those of every object that has out-edges or
    /// is locally rooted.
    fn own_snapshot(&self) -> ReachabilitySnapshot {
        let mut per_global_root = BTreeMap::new();
        let mut locally_rooted = BTreeSet::new();
        for (vertex, state) in self.vertices.objects.iter() {
            let Some(addr) = vertex.as_object() else {
                continue;
            };
            let id = addr.object();
            if !state.edges_out.is_empty() || state.locally_rooted {
                per_global_root.insert(id, state.edges_out.iter().copied().collect());
            }
            if state.locally_rooted {
                locally_rooted.insert(id);
            }
        }
        let anchor_edges = self.vertices.anchor.edges_out.iter().copied().collect();
        ReachabilitySnapshot::from_parts(self.site, anchor_edges, per_global_root, locally_rooted)
    }

    /// Applies a snapshot delta, turning it into log-keeping events in
    /// O(delta): creations are recorded lazily (an actual root's creation
    /// is also announced to the target), destructions additionally queue
    /// edge-destruction control messages, and a global root whose
    /// local-rootedness changed propagates its fresh vector along its
    /// out-going edges. Events follow the delta's replay order:
    /// rootedness transitions, then per-vertex creations before
    /// destructions in vertex order, then rootedness propagation.
    pub fn apply_delta(&mut self, delta: &EdgeDelta) {
        debug_assert_eq!(delta.site(), self.site, "delta must be local");
        if delta.site() != self.site {
            return;
        }
        let site = self.site;
        let local = |id: ObjectId| VertexId::from(GlobalAddr::from_parts(site, id));

        // 0. Vertices that left the graph stop being locally rooted without
        // a transition event.
        for &id in &delta.removed {
            if let Some(state) = self.vertices.get_mut(local(id)) {
                state.locally_rooted = false;
            }
        }

        // 1. Local-rootedness transitions of current global roots.
        let mut rootedness_changed = std::mem::take(&mut self.rootedness_changed);
        for &(id, is) in &delta.rootedness {
            let vertex = local(id);
            if self.is_locally_rooted(vertex) != is {
                let n = self.bump(vertex);
                self.log.stamp_root(vertex, n, is);
                rootedness_changed.push(vertex);
                self.vertices.entry(vertex).locally_rooted = is;
            }
        }

        // 2. Edge events. The out-edges are brought to their final state
        // first, so the lost-holder check ("does any local vertex still
        // reach the target *after* this change?") sees the post-state of
        // the whole delta. Only changes that actually alter a vertex's
        // out-edges become events: the engine's own edges differ from the
        // heap's exactly when garbage finalisation already destroyed a
        // detected vertex's edges ahead of the heap — replaying those would
        // duplicate the finalisation messages.
        let mut events = std::mem::take(&mut self.events);
        for part in &delta.edges {
            // Only a creation can give a vertex its first out-edge.
            let targets = if part.created.is_empty() {
                match self.vertices.get_mut(part.vertex) {
                    Some(state) => &mut state.edges_out,
                    None => continue,
                }
            } else {
                &mut self.vertices.entry(part.vertex).edges_out
            };
            let first = events.len();
            for &target in &part.created {
                if let Err(at) = targets.binary_search(&target) {
                    targets.insert(at, target);
                    events.push((part.vertex, target, true));
                }
            }
            for &target in &part.destroyed {
                if let Ok(at) = targets.binary_search(&target) {
                    targets.remove(at);
                    events.push((part.vertex, target, false));
                }
            }
            for &(_, target, created) in &events[first..] {
                if created {
                    self.remote.entry(target).or_default().refs += 1;
                } else {
                    self.drop_edge_refcount(target);
                }
            }
        }
        for &(vertex, target, created) in &events {
            if created {
                let n = self.bump(vertex);
                self.log
                    .row_mut(VertexId::from(target))
                    .merge_entry(vertex, Timestamp::created(n));
                self.stats.edge_creations += 1;
                // Deliberate deviation from pure laziness (see DESIGN.md):
                // edges whose source is an actual root are announced to the
                // target right away, so that a concurrent garbage evaluation
                // elsewhere can never miss the newly created root path.
                // Third-party and non-root edge creations stay message-free.
                if vertex.is_site_root() || self.is_locally_rooted(vertex) {
                    self.queue_root_announcement(vertex, target, n);
                }
            } else {
                let n = self.bump(vertex);
                self.log
                    .row_mut(VertexId::from(target))
                    .set(vertex, Timestamp::destroyed(n));
                self.stats.edge_destructions += 1;
                debug_assert_eq!(
                    self.remote
                        .get(&target)
                        .is_some_and(|record| record.refs > 0),
                    self.vertices
                        .iter()
                        .any(|(_, state)| state.edges_out.binary_search(&target).is_ok()),
                    "edge refcounts diverged from the out-edges"
                );
                self.mark_lost_holders(target);
                self.queue_destruction(vertex, target);
            }
        }
        events.clear();
        self.events = events;

        // 3. Fresh rootedness propagates along the (final) out-edges:
        // losing it lazily restores comprehensiveness, gaining it promptly
        // preserves safety.
        for &vertex in &rootedness_changed {
            let closure = self.log.closure_entries(vertex);
            self.vertices.entry(vertex).remember_entries(closure);
            self.propagate(vertex);
        }
        rootedness_changed.clear();
        self.rootedness_changed = rootedness_changed;
    }

    // ------------------------------------------------------------------
    // Receive (Fig. 6)
    // ------------------------------------------------------------------

    /// Processes one incoming GGD control message: the paper's `Receive`
    /// procedure, followed by `ComputeV` and either further propagation or a
    /// garbage verdict.
    ///
    /// A message is dropped, like a misrouted one, when it names one of this
    /// site's objects — as recipient or as sender — that the engine holds no
    /// state for. Every object another site can legitimately address was
    /// exported by this site first, which gave it state, so only a stale or
    /// corrupt message is dropped; and losing a control message can only
    /// leave residual garbage, never free a reachable object. The rule keeps
    /// the engine's tables growing from local events only.
    ///
    /// Once merged, the payload is emptied and becomes the engine's spare:
    /// the payloads the receipt goes on to queue are built in its storage.
    pub fn on_message(&mut self, message: CausalMessage) {
        self.stats.messages_received += 1;
        let CausalMessage {
            from,
            to,
            mut payload,
        } = message;
        let accepted = self.merge_payload(from, to, &payload);
        payload.clear();
        self.spare = payload;
        if accepted {
            self.recompute(to);
        }
    }

    /// The merge half of [`CausalEngine::on_message`]: absorbs `payload`,
    /// sent from `from` to `to`, into the log. Returns `false`, having
    /// changed nothing, when the message is dropped.
    fn merge_payload(&mut self, from: VertexId, to: VertexId, payload: &RootedVector) -> bool {
        if to.site() != self.site {
            // Misrouted message: ignore (robustness over panicking).
            return false;
        }
        match self.vertices.get(to) {
            None => return false,
            Some(state) if state.detected => {
                // News for a vertex already declared garbage: the object is
                // as good as deleted, so there is nothing to improve and
                // nobody downstream to tell — its out-edges were finalised
                // with explicit destruction messages at detection time.
                // Processing it anyway would re-create the compacted row
                // *without* the vertex's own entry, and re-propagating that
                // row reads as edge-destruction news to every receiver
                // (the sender entry is absent, hence not live), bumping
                // their counters and re-improving their closures — a
                // message livelock that keeps `settle` spinning forever.
                return false;
            }
            Some(_) => {}
        }
        if from.site() == self.site && self.vertices.get(from).is_none() {
            return false;
        }
        self.log.absorb_root_flags(payload);

        let news = payload.vector.get(from);
        let mut changed = false;
        if news.is_live() {
            // Propagation: `payload` is the sender's own latest vector.
            changed |= self.log.row_mut(from).merge(payload);
        } else {
            // Edge destruction: `payload` is the vector the sender kept on
            // the recipient's behalf (bundled lazy edge-creation news).
            changed |= self.log.row_mut(to).merge(payload);
        }
        changed |= self.log.row_mut(to).merge_entry(from, news);

        if changed && !news.is_live() {
            // A (new) edge-destruction event at the recipient vertex.
            self.bump(to);
        }
        true
    }

    /// The rest of [`CausalEngine::on_message`], once the payload is
    /// merged: `ComputeV` for `to`, then propagation or a garbage verdict.
    fn recompute(&mut self, to: VertexId) {
        // `ComputeV` into the log's buffer; the memo takes a copy only when
        // the closure improved on the one last circulated.
        let closure = self.log.closure_entries(to);
        if self.vertices.entry(to).remember_entries(closure) {
            // New knowledge: circulate the improved approximation of the
            // vector-time along the out-going edges (step 3, §3.3).
            self.propagate(to);
        }
        // Evaluate the garbage test on every receipt, against the closure
        // just computed — the memo holds exactly it now. The paper gates
        // the test on a no-change receipt as a convergence proxy; here the
        // explicit safety conditions (placeholder resolution and root flags,
        // see DESIGN.md) make the test safe to run eagerly, which removes
        // the dependence on a further message arriving.
        let closure = self
            .vertices
            .get(to)
            .and_then(|state| state.last_closure.as_deref());
        if closure.is_some_and(|closure| self.is_garbage(to, closure.as_slice())) {
            self.declare_garbage(to);
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// When this site as a whole no longer reaches `target` from any of its
    /// vertices (the edge counts hold the post-state of the whole delta),
    /// the placeholder entries recorded for the local objects that once
    /// held the reference are marked destroyed, in ascending holder order,
    /// so that the bundled edge-destruction message supersedes the matching
    /// placeholders held at the target's site.
    fn mark_lost_holders(&mut self, target: GlobalAddr) {
        let holders = match self.remote.entry(target) {
            Entry::Occupied(record) if record.get().refs == 0 => record.remove().holders,
            _ => return,
        };
        for &holder in holders.iter() {
            let index = self.bump(holder);
            self.log
                .row_mut(VertexId::from(target))
                .set(holder, Timestamp::destroyed(index));
        }
    }

    /// Recomputes the edge counts from the vertices' out-edges — used by
    /// restore and site retirement, which replace edge sets wholesale.
    fn rebuild_edge_refcounts(&mut self) {
        for record in self.remote.values_mut() {
            record.refs = 0;
        }
        for (_, state) in self.vertices.iter() {
            for &target in &state.edges_out {
                self.remote.entry(target).or_default().refs += 1;
            }
        }
        self.remote.retain(|_, record| !record.is_empty());
    }

    fn drop_edge_refcount(&mut self, target: GlobalAddr) {
        if let Entry::Occupied(mut record) = self.remote.entry(target) {
            let refs = &mut record.get_mut().refs;
            *refs = refs.checked_sub(1).expect("every out-edge is counted");
            if record.get().is_empty() {
                record.remove();
            }
        }
    }

    fn bump(&mut self, vertex: VertexId) -> u64 {
        let state = self.vertices.entry(vertex);
        state.counter += 1;
        let n = state.counter;
        self.log
            .row_mut(vertex)
            .merge_entry(vertex, Timestamp::created(n));
        n
    }

    fn is_locally_rooted(&self, vertex: VertexId) -> bool {
        self.vertices
            .get(vertex)
            .is_some_and(|state| state.locally_rooted)
    }

    fn is_root(&self, vertex: VertexId) -> bool {
        vertex.is_site_root() || self.log.is_root(vertex)
    }

    fn queue_root_announcement(&mut self, from: VertexId, target: GlobalAddr, index: u64) {
        let to = VertexId::from(target);
        let mut payload = std::mem::take(&mut self.spare);
        fill_payload(
            &self.log,
            &self.vertices,
            &mut payload,
            &[(from, Timestamp::created(index))],
        );
        self.stats.propagations_sent += 1;
        self.outgoing.push(Outgoing {
            to_site: target.site(),
            message: CausalMessage { from, to, payload },
        });
    }

    fn queue_destruction(&mut self, from: VertexId, target: GlobalAddr) {
        let to = VertexId::from(target);
        let mut payload = std::mem::take(&mut self.spare);
        match self.log.row(to) {
            Some(row) => {
                fill_payload(&self.log, &self.vertices, &mut payload, row.entries());
                payload.root_flags.absorb(row.root_flags());
            }
            None => fill_payload(&self.log, &self.vertices, &mut payload, &[]),
        }
        self.stats.destructions_sent += 1;
        self.outgoing.push(Outgoing {
            to_site: target.site(),
            message: CausalMessage { from, to, payload },
        });
    }

    /// Circulates the vertex's remembered closure (its freshly
    /// reconstructed vector-time) along the vertex's out-going edges. The
    /// payload and its stamps are built once, in the spare, and cloned per
    /// further target.
    fn propagate(&mut self, vertex: VertexId) {
        let Some(state) = self.vertices.get(vertex) else {
            return;
        };
        let Some((&last, rest)) = state.edges_out.split_last() else {
            return;
        };
        let closure = state
            .last_closure
            .as_deref()
            .expect("a propagation ships the remembered closure");
        // The propagated vector carries the live transitive closure *plus*
        // the destroyed entries of the vertex's own row: receivers merge
        // monotonically (for idempotence), so destruction news must travel
        // with the propagation or stale live entries could never be revoked
        // downstream. The closure already holds every entry of the row at
        // least as new (`DkLog::closure_entries`), so it is that knowledge
        // as is.
        debug_assert!(
            self.log
                .row(vertex)
                .map_or(true, |row| !closure.clone().merge(&row.to_rooted().vector)),
            "the closure of {vertex} must absorb its own row"
        );
        let mut payload = std::mem::take(&mut self.spare);
        fill_payload(&self.log, &self.vertices, &mut payload, closure.as_slice());
        let message = |target: GlobalAddr, payload: RootedVector| Outgoing {
            to_site: target.site(),
            message: CausalMessage {
                from: vertex,
                to: VertexId::from(target),
                payload,
            },
        };
        for &target in rest {
            self.outgoing.push(message(target, payload.clone()));
        }
        self.outgoing.push(message(last, payload));
        self.stats.propagations_sent += 1 + rest.len() as u64;
    }

    /// The garbage test of Fig. 6 for a local object, against its closure
    /// `closure` (a `DependencyVector`'s entries): no live entry keyed by
    /// an actual root other than itself, and every direct inbound entry
    /// resolved. Anchors and vertices already detected are never garbage.
    fn is_garbage(&self, vertex: VertexId, closure: &[(VertexId, Timestamp)]) -> bool {
        if vertex.is_site_root()
            || self
                .vertices
                .get(vertex)
                .is_some_and(|state| state.detected)
        {
            return false;
        }
        let has_live_root = closure
            .iter()
            .any(|&(q, ts)| ts.is_live() && q != vertex && self.is_root(q));
        // An unresolved direct entry means some inbound path is only known
        // as a placeholder: wait for the owning site's vector before
        // concluding (safety first).
        !has_live_root && self.log.direct_live_entries_resolved(vertex)
    }

    /// Records the verdict for `vertex`, which [`CausalEngine::is_garbage`]
    /// accepted, and finalises it.
    fn declare_garbage(&mut self, vertex: VertexId) {
        let addr = vertex.as_object().expect("only objects are garbage");
        // Garbage detected: the vertex is no longer reachable from any
        // actual root of the global root graph.
        self.vertices.entry(vertex).detected = true;
        self.pending_verdicts.push(addr);
        self.stats.verdicts += 1;

        // Finalisation (§3.2): the GGD algorithm itself sends additional
        // edge-destruction messages for the out-going edges of the detected
        // garbage, so that whole disconnected subgraphs collapse without
        // waiting for local collections.
        let n = self.bump(vertex);
        let targets = std::mem::take(&mut self.vertices.entry(vertex).edges_out);
        for target in targets {
            self.drop_edge_refcount(target);
            let to = VertexId::from(target);
            self.log.row_mut(to).set(vertex, Timestamp::destroyed(n));
            self.stats.edge_destructions += 1;
            self.queue_destruction(vertex, target);
        }
    }
}

/// Fills the emptied `payload` with the vector `entries` (a
/// `DependencyVector`'s entry layout) and exactly the root stamps they
/// depend on, reusing the payload's storage.
///
/// The receiver only ever consults root status for vertices carrying a live
/// entry in one of its closures, and every such entry arrives inside some
/// payload vector — so stamping the mentioned vertices keeps the "knowledge
/// arrives no later than the entries that depend on it" invariant while
/// bounding the message by the vector's width. Shipping the whole stamp map
/// instead would make every message (and so every WAL record) grow with the
/// number of global roots that ever existed, and would re-teach peers stamps
/// they already compacted away (the soak test pins both).
fn fill_payload(
    log: &DkLog,
    vertices: &LocalVertices,
    payload: &mut RootedVector,
    entries: &[(VertexId, Timestamp)],
) {
    debug_assert!(payload.root_flags.is_empty(), "the spare is emptied");
    if payload.vector.is_inline() && entries.len() > <DependencyVector>::INLINE_CAPACITY {
        // Spill with room to spare: relayed along a chain, the payload
        // meets closures a few entries wider than the one it carries.
        let mut spilled = Vec::with_capacity(2 * entries.len());
        spilled.extend_from_slice(entries);
        payload.vector = DependencyVector::from_sorted(spilled)
            .expect("a payload vector is sorted and holds no NEVER");
    } else {
        let copied = payload.vector.assign_sorted_slice(entries);
        debug_assert!(copied, "a payload vector is sorted and holds no NEVER");
    }
    let RootedVector { vector, root_flags } = payload;
    for (vertex, _) in vector.iter() {
        if let Some((as_of, is_root)) = log.root_stamp(vertex) {
            root_flags.stamp(vertex, as_of, is_root);
        }
        if let Some(state) = vertices.get(vertex).filter(|s| s.locally_rooted) {
            root_flags.stamp(vertex, state.counter.max(1), true);
        }
    }
}

/// The live engine's parts, in image order: local vertices ascend through
/// the identity-indexed table, and the hashed holder records are sorted
/// once per image.
/// Restores straight into the engine's tables, keeping state for the
/// site's own vertices only and rebuilding the out-edge counts at the end:
/// the engine [`CausalEngine::restore`] builds from the same image.
impl EngineImageSink for CausalEngine {
    fn begin(site: SiteId) -> Self {
        CausalEngine::new(site)
    }

    fn counter(&mut self, vertex: VertexId, counter: u64) {
        if self.vertices.holds(vertex) {
            self.vertices.entry(vertex).counter = counter;
        }
    }

    fn last_closure(&mut self, vertex: VertexId, closure: CompactVector) {
        if self.vertices.holds(vertex) {
            self.vertices.entry(vertex).remember(closure);
        }
    }

    fn edges_out(&mut self, vertex: VertexId, targets: &[GlobalAddr]) {
        if self.vertices.holds(vertex) {
            self.vertices.entry(vertex).edges_out = targets.to_vec();
        }
    }

    fn locally_rooted(&mut self, vertex: VertexId) {
        if self.vertices.holds(vertex) {
            self.vertices.entry(vertex).locally_rooted = true;
        }
    }

    fn holders(&mut self, target: GlobalAddr, holders: &[VertexId]) {
        // Holders are local objects the receive rule bumps; keep no other.
        let holders: Vec<VertexId> = holders
            .iter()
            .copied()
            .filter(|&holder| self.vertices.objects.holds(holder))
            .collect();
        if !holders.is_empty() {
            self.remote.insert(
                target,
                RemoteTarget {
                    refs: 0,
                    holders: Holders::from_sorted(holders),
                },
            );
        }
    }

    fn detected(&mut self, addr: GlobalAddr) {
        let vertex = VertexId::from(addr);
        if self.vertices.objects.holds(vertex) {
            self.vertices.entry(vertex).detected = true;
        }
    }

    fn finish(
        &mut self,
        log: DkLog,
        pending_verdicts: Vec<GlobalAddr>,
        outgoing: Vec<Outgoing>,
        stats: EngineStats,
    ) {
        self.log = log;
        self.pending_verdicts = pending_verdicts;
        self.outgoing = outgoing;
        self.stats = stats;
        self.rebuild_edge_refcounts();
    }
}

impl EngineImageSource for CausalEngine {
    fn site(&self) -> SiteId {
        self.site
    }

    fn counters(&self) -> impl Iterator<Item = (VertexId, u64)> + Clone {
        self.vertices
            .iter()
            .filter(|(_, state)| state.counter > 0)
            .map(|(vertex, state)| (vertex, state.counter))
    }

    fn log(&self) -> &DkLog {
        &self.log
    }

    fn last_closures(&self) -> impl Iterator<Item = (VertexId, &CompactVector)> + Clone {
        self.vertices
            .iter()
            .filter_map(|(vertex, state)| Some((vertex, &**state.last_closure.as_ref()?)))
    }

    fn edges_out(
        &self,
    ) -> impl Iterator<Item = (VertexId, impl ExactSizeIterator<Item = GlobalAddr>)> + Clone {
        self.vertices
            .iter()
            .filter(|(_, state)| !state.edges_out.is_empty())
            .map(|(vertex, state)| (vertex, state.edges_out.iter().copied()))
    }

    fn locally_rooted(&self) -> impl Iterator<Item = VertexId> + Clone {
        self.vertices
            .iter()
            .filter(|(_, state)| state.locally_rooted)
            .map(|(vertex, _)| vertex)
    }

    fn inbound_holders(
        &self,
    ) -> impl ExactSizeIterator<Item = (GlobalAddr, impl ExactSizeIterator<Item = VertexId>)> {
        let mut held: Vec<(GlobalAddr, &[VertexId])> = self
            .remote
            .iter()
            .filter(|(_, record)| !record.holders.is_empty())
            .map(|(&target, record)| (target, &*record.holders))
            .collect();
        held.sort_unstable_by_key(|&(target, _)| target);
        held.into_iter()
            .map(|(target, holders)| (target, holders.iter().copied()))
    }

    fn detected(&self) -> impl Iterator<Item = GlobalAddr> + Clone {
        CausalEngine::detected(self)
    }

    fn pending_verdicts(&self) -> &[GlobalAddr] {
        &self.pending_verdicts
    }

    fn outgoing(&self) -> &[Outgoing] {
        &self.outgoing
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_heap::{ObjRef, SiteHeap};

    fn addr(site: u32, obj: u64) -> GlobalAddr {
        GlobalAddr::new(site, obj)
    }

    /// Delivers every queued message between two engines until quiescence.
    fn run_to_quiescence(engines: &mut BTreeMap<SiteId, CausalEngine>) {
        loop {
            let mut queued: Vec<Outgoing> = Vec::new();
            for engine in engines.values_mut() {
                queued.extend(engine.take_outgoing());
            }
            if queued.is_empty() {
                break;
            }
            for out in queued {
                if let Some(engine) = engines.get_mut(&out.to_site) {
                    engine.on_message(out.message);
                }
            }
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn per_vertex_records_are_sized_to_their_common_case() {
        use std::mem::size_of;
        assert_eq!(size_of::<VertexState>(), 48);
        assert_eq!(size_of::<Holders>(), 24);
        assert_eq!(size_of::<RemoteTarget>(), 32);
    }

    #[test]
    fn holders_stay_sorted_and_shrink_back_inline() {
        let h = |obj: u64| VertexId::object(1, obj);
        let mut holders = Holders::default();
        for obj in [5, 2, 5, 9, 2] {
            holders.insert(h(obj));
        }
        assert_eq!(*holders, [h(2), h(5), h(9)]);
        holders.retain(|holder| holder == h(5));
        assert!(matches!(holders, Holders::One(held) if held == h(5)));
        holders.retain(|_| false);
        assert!(holders.is_empty());
        assert!(matches!(
            Holders::from_sorted(vec![h(1), h(3)]),
            Holders::Many(held) if *held == [h(1), h(3)]
        ));
        assert!(matches!(Holders::from_sorted(vec![h(4)]), Holders::One(held) if held == h(4)));
    }

    #[test]
    fn export_records_placeholder_inbound_edge() {
        let mut engine = CausalEngine::new(SiteId::new(1));
        engine.on_export(addr(1, 5), VertexId::site_root(0));
        let row = engine.log().row(VertexId::object(1, 5)).unwrap();
        assert!(row.get(VertexId::site_root(0)).is_live());
        assert!(row.get(VertexId::object(1, 5)).is_live());
        assert_eq!(engine.stats().lazy_records, 1);
    }

    #[test]
    fn third_party_send_records_on_behalf_of_target() {
        let mut engine = CausalEngine::new(SiteId::new(0));
        engine.on_third_party_send(addr(3, 1), VertexId::object(4, 1));
        let row = engine.log().row(VertexId::object(3, 1)).unwrap();
        assert!(row.get(VertexId::object(4, 1)).is_live());
        // Local targets are handled by the export rule instead.
        let mut local = CausalEngine::new(SiteId::new(3));
        local.on_third_party_send(addr(3, 1), VertexId::object(4, 1));
        assert!(local
            .log()
            .row(VertexId::object(3, 1))
            .unwrap()
            .get(VertexId::object(3, 1))
            .is_live());
    }

    #[test]
    fn snapshot_diff_creates_and_destroys_edges() {
        let site = SiteId::new(0);
        let mut heap = SiteHeap::new(site);
        let mut engine = CausalEngine::new(site);
        let root = heap.alloc_local_root();
        heap.add_ref(root, ObjRef::Remote(addr(1, 1))).unwrap();
        engine.apply_snapshot(&heap.snapshot());
        assert_eq!(engine.stats().edge_creations, 1);
        assert_eq!(engine.counter(engine.anchor()), 1);
        // The edge source is an actual root, so its creation is announced.
        let out = engine.take_outgoing();
        assert_eq!(out.len(), 1);
        assert!(!out[0].message.is_destruction());

        heap.remove_ref(root, ObjRef::Remote(addr(1, 1))).unwrap();
        engine.apply_snapshot(&heap.snapshot());
        assert_eq!(engine.stats().edge_destructions, 1);
        let out = engine.take_outgoing();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_site, SiteId::new(1));
        assert!(out[0].message.is_destruction());
        assert_eq!(out[0].message.from, engine.anchor());
    }

    #[test]
    fn simple_remote_garbage_is_detected() {
        // Site 0: root -> remote object on site 1. Dropping the reference
        // must lead site 1 to a garbage verdict for the object.
        let s0 = SiteId::new(0);
        let s1 = SiteId::new(1);
        let mut heap0 = SiteHeap::new(s0);
        let mut heap1 = SiteHeap::new(s1);
        let mut engines = BTreeMap::new();
        engines.insert(s0, CausalEngine::new(s0));
        engines.insert(s1, CausalEngine::new(s1));

        let obj = heap1.alloc();
        heap1.register_global_root(obj).unwrap();
        let obj_addr = heap1.addr_of(obj);
        engines
            .get_mut(&s1)
            .unwrap()
            .on_export(obj_addr, VertexId::site_root(s0.index()));
        engines
            .get_mut(&s1)
            .unwrap()
            .apply_snapshot(&heap1.snapshot());

        let root = heap0.alloc_local_root();
        heap0.add_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        engines
            .get_mut(&s0)
            .unwrap()
            .apply_snapshot(&heap0.snapshot());
        run_to_quiescence(&mut engines);
        assert!(engines.get_mut(&s1).unwrap().take_verdicts().is_empty());

        heap0.remove_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        engines
            .get_mut(&s0)
            .unwrap()
            .apply_snapshot(&heap0.snapshot());
        run_to_quiescence(&mut engines);
        let verdicts = engines.get_mut(&s1).unwrap().take_verdicts();
        assert_eq!(verdicts, vec![obj_addr]);
        assert_eq!(engines[&s1].stats().verdicts, 1);
    }

    #[test]
    fn live_object_is_not_declared_garbage_when_another_root_holds_it() {
        // Two roots (sites 0 and 2) both reference the object on site 1.
        // Dropping only one of them must not produce a verdict.
        let s0 = SiteId::new(0);
        let s1 = SiteId::new(1);
        let s2 = SiteId::new(2);
        let mut heap0 = SiteHeap::new(s0);
        let mut heap1 = SiteHeap::new(s1);
        let mut heap2 = SiteHeap::new(s2);
        let mut engines = BTreeMap::new();
        for s in [s0, s1, s2] {
            engines.insert(s, CausalEngine::new(s));
        }

        let obj = heap1.alloc();
        heap1.register_global_root(obj).unwrap();
        let obj_addr = heap1.addr_of(obj);
        let e1 = engines.get_mut(&s1).unwrap();
        e1.on_export(obj_addr, VertexId::site_root(s0.index()));
        e1.on_export(obj_addr, VertexId::site_root(s2.index()));
        e1.apply_snapshot(&heap1.snapshot());

        let root0 = heap0.alloc_local_root();
        heap0.add_ref(root0, ObjRef::Remote(obj_addr)).unwrap();
        engines
            .get_mut(&s0)
            .unwrap()
            .apply_snapshot(&heap0.snapshot());
        let root2 = heap2.alloc_local_root();
        heap2.add_ref(root2, ObjRef::Remote(obj_addr)).unwrap();
        engines
            .get_mut(&s2)
            .unwrap()
            .apply_snapshot(&heap2.snapshot());
        run_to_quiescence(&mut engines);

        heap0.remove_ref(root0, ObjRef::Remote(obj_addr)).unwrap();
        engines
            .get_mut(&s0)
            .unwrap()
            .apply_snapshot(&heap0.snapshot());
        run_to_quiescence(&mut engines);
        assert!(engines.get_mut(&s1).unwrap().take_verdicts().is_empty());

        // Dropping the second root finally makes it garbage.
        heap2.remove_ref(root2, ObjRef::Remote(obj_addr)).unwrap();
        engines
            .get_mut(&s2)
            .unwrap()
            .apply_snapshot(&heap2.snapshot());
        run_to_quiescence(&mut engines);
        assert_eq!(
            engines.get_mut(&s1).unwrap().take_verdicts(),
            vec![obj_addr]
        );
    }

    #[test]
    fn duplicate_messages_are_idempotent() {
        let s0 = SiteId::new(0);
        let s1 = SiteId::new(1);
        let mut heap0 = SiteHeap::new(s0);
        let mut heap1 = SiteHeap::new(s1);
        let mut e0 = CausalEngine::new(s0);
        let mut e1 = CausalEngine::new(s1);

        let obj = heap1.alloc();
        heap1.register_global_root(obj).unwrap();
        let obj_addr = heap1.addr_of(obj);
        e1.on_export(obj_addr, VertexId::site_root(s0.index()));
        e1.apply_snapshot(&heap1.snapshot());

        let root = heap0.alloc_local_root();
        heap0.add_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        e0.apply_snapshot(&heap0.snapshot());
        heap0.remove_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        e0.apply_snapshot(&heap0.snapshot());

        let out = e0.take_outgoing();
        assert_eq!(out.len(), 2, "one creation announcement, one destruction");
        assert!(out.last().unwrap().message.is_destruction());
        // Deliver every message three times, in order.
        for _ in 0..3 {
            for o in &out {
                e1.on_message(o.message.clone());
            }
        }
        let verdicts = e1.take_verdicts();
        assert_eq!(verdicts, vec![obj_addr]);
        assert_eq!(e1.stats().verdicts, 1, "verdict must be produced once");
    }

    #[test]
    fn unresolved_placeholder_blocks_verdict() {
        // Site 1's object was exported to a third party whose vector has
        // never been seen: even if every known edge is destroyed, the engine
        // must not conclude garbage while the placeholder is unresolved.
        let s0 = SiteId::new(0);
        let s1 = SiteId::new(1);
        let mut heap0 = SiteHeap::new(s0);
        let mut heap1 = SiteHeap::new(s1);
        let mut e0 = CausalEngine::new(s0);
        let mut e1 = CausalEngine::new(s1);

        let obj = heap1.alloc();
        heap1.register_global_root(obj).unwrap();
        let obj_addr = heap1.addr_of(obj);
        e1.on_export(obj_addr, VertexId::site_root(s0.index()));
        // The object's reference was also exported to site 9, whose vector
        // never arrives (e.g. it is slow or partitioned away).
        e1.on_export(obj_addr, VertexId::object(9, 1));
        e1.apply_snapshot(&heap1.snapshot());

        let root = heap0.alloc_local_root();
        heap0.add_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        e0.apply_snapshot(&heap0.snapshot());
        heap0.remove_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        e0.apply_snapshot(&heap0.snapshot());
        for out in e0.take_outgoing() {
            e1.on_message(out.message);
        }
        // Deliver a duplicate as well so the "no change" path is exercised.
        assert!(e1.take_verdicts().is_empty());
    }

    #[test]
    fn retire_site_erases_every_trace_and_unblocks_verdicts() {
        // Same setup as `unresolved_placeholder_blocks_verdict`: the object
        // was exported to site 9 whose vector never arrives, so the verdict
        // is vetoed. When site 9 departs through a planned leave, its
        // placeholder entry is retired and the verdict must fall out.
        let s0 = SiteId::new(0);
        let s1 = SiteId::new(1);
        let s9 = SiteId::new(9);
        let mut heap0 = SiteHeap::new(s0);
        let mut heap1 = SiteHeap::new(s1);
        let mut e0 = CausalEngine::new(s0);
        let mut e1 = CausalEngine::new(s1);

        let obj = heap1.alloc();
        heap1.register_global_root(obj).unwrap();
        let obj_addr = heap1.addr_of(obj);
        e1.on_export(obj_addr, VertexId::site_root(s0.index()));
        e1.on_export(obj_addr, VertexId::object(9, 1));
        e1.apply_snapshot(&heap1.snapshot());

        let root = heap0.alloc_local_root();
        heap0.add_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        e0.apply_snapshot(&heap0.snapshot());
        heap0.remove_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        e0.apply_snapshot(&heap0.snapshot());
        for out in e0.take_outgoing() {
            e1.on_message(out.message);
        }
        assert!(e1.take_verdicts().is_empty(), "placeholder vetoes");
        assert!(e1.mentions_site(s9));

        e1.retire_site(s9);
        assert!(!e1.mentions_site(s9), "no trace of the departed site");
        assert_eq!(
            e1.take_verdicts(),
            vec![obj_addr],
            "retiring the departed placeholder unblocks the verdict"
        );
    }

    #[test]
    fn misrouted_message_is_ignored() {
        let mut engine = CausalEngine::new(SiteId::new(0));
        engine.on_message(CausalMessage {
            from: VertexId::site_root(1),
            to: VertexId::object(5, 1),
            payload: RootedVector::new(),
        });
        assert!(engine.take_verdicts().is_empty());
        assert!(!engine.has_outgoing());
        assert_eq!(engine.stats().messages_received, 1);
    }

    #[test]
    fn control_messages_never_grow_the_vertex_table() {
        let site = SiteId::new(2);
        let mut engine = CausalEngine::new(site);
        engine.on_export(addr(2, 3), VertexId::object(1, 1));
        let index_len = engine.vertices.objects.index_len();
        let records = engine.vertices.objects.len();
        let rows = engine.log().len();
        assert_eq!((index_len, records), (4, 1));

        // A recipient with no state, at the far end of the id space and one
        // past the table, and a local sender with no state: each message is
        // counted and dropped, as a misrouted one is.
        let destruction = |from: VertexId, to: VertexId| CausalMessage {
            from,
            to,
            payload: RootedVector::from_vector(DependencyVector::singleton(
                from,
                Timestamp::destroyed(1),
            )),
        };
        for message in [
            destruction(VertexId::object(1, 1), VertexId::object(2, u64::MAX)),
            destruction(
                VertexId::object(1, 1),
                VertexId::object(2, index_len as u64),
            ),
            destruction(VertexId::object(2, u64::MAX), VertexId::object(2, 3)),
        ] {
            let before = *engine.stats();
            engine.on_message(message);
            assert_eq!(engine.vertices.objects.index_len(), index_len);
            assert_eq!(engine.vertices.objects.len(), records);
            assert_eq!(engine.log().len(), rows);
            assert!(!engine.has_outgoing());
            assert!(engine.take_verdicts().is_empty());
            assert_eq!(
                *engine.stats(),
                EngineStats {
                    messages_received: before.messages_received + 1,
                    ..before
                }
            );
        }

        // The exported object itself is addressable.
        engine.on_message(destruction(VertexId::object(1, 1), VertexId::object(2, 3)));
        assert_eq!(engine.stats().verdicts, 1);
    }

    #[test]
    fn restore_keeps_state_for_local_vertices_only() {
        let mut engine = CausalEngine::new(SiteId::new(2));
        engine.on_receive_ref(addr(2, 3), addr(1, 1));
        // Another site's object with the local holder's identity, as a
        // holder, with a counter and with a verdict.
        let foreign = VertexId::object(5, 3);
        let mut checkpoint = engine.checkpoint();
        checkpoint
            .inbound_holders
            .get_mut(&addr(1, 1))
            .unwrap()
            .insert(foreign);
        checkpoint
            .inbound_holders
            .insert(addr(1, 2), BTreeSet::from([foreign]));
        checkpoint.counters.insert(foreign, 99);
        checkpoint.detected.insert(addr(5, 3));
        // Read part by part into an engine, as recovery reads an image.
        assert_eq!(
            through_sink::<CausalEngine>(&checkpoint).checkpoint(),
            engine.checkpoint()
        );
        assert_eq!(through_sink::<EngineCheckpoint>(&checkpoint), checkpoint);
        assert_eq!(
            CausalEngine::restore(checkpoint).checkpoint(),
            engine.checkpoint()
        );
    }

    /// Feeds `checkpoint` to a sink part by part, as the image reader does.
    fn through_sink<S: EngineImageSink>(checkpoint: &EngineCheckpoint) -> S {
        let mut sink = S::begin(checkpoint.site);
        for (&vertex, &counter) in &checkpoint.counters {
            sink.counter(vertex, counter);
        }
        for (&vertex, closure) in &checkpoint.last_closure {
            sink.last_closure(vertex, closure.clone());
        }
        for (&vertex, targets) in &checkpoint.edges_out {
            sink.edges_out(vertex, &targets.iter().copied().collect::<Vec<_>>());
        }
        for &vertex in &checkpoint.locally_rooted {
            sink.locally_rooted(vertex);
        }
        for (&target, holders) in &checkpoint.inbound_holders {
            sink.holders(target, &holders.iter().copied().collect::<Vec<_>>());
        }
        for &addr in &checkpoint.detected {
            sink.detected(addr);
        }
        sink.finish(
            checkpoint.log.clone(),
            checkpoint.pending_verdicts.clone(),
            checkpoint.outgoing.clone(),
            checkpoint.stats,
        );
        sink
    }

    #[test]
    fn hashed_remote_state_shows_no_order() {
        // Two engines of one site take the same history: receives and
        // third-party sends that each name their own holder and remote
        // target, then one control message per holder whose payload stamps
        // two vertices of its own (so they all commute), then one delta
        // that drops every other edge, then compaction. The first takes the
        // commuting events in target order, the second in reverse, so their
        // hashed remote state and log-wide root stamps are built in
        // opposite orders. Nothing they expose may show it.
        let site = SiteId::new(2);
        let mut heap = SiteHeap::new(site);
        let mut events = Vec::new();
        for i in 0..200u64 {
            // Targets on sites below and above `site`, so rows fall on
            // both sides of the local table.
            let target = addr([0, 1, 3, 4][(i % 4) as usize], i / 4 + 1);
            let holder = heap.alloc();
            heap.register_global_root(holder).unwrap();
            heap.receive_ref(holder, target).unwrap();
            events.push((heap.addr_of(holder), target, VertexId::object(5, i % 7 + 1)));
        }
        let mut twins = [CausalEngine::new(site), CausalEngine::new(site)];
        for &(holder, target, recipient) in &events {
            twins[0].on_receive_ref(holder, target);
            twins[0].on_third_party_send(target, recipient);
        }
        for &(holder, target, recipient) in events.iter().rev() {
            twins[1].on_receive_ref(holder, target);
            twins[1].on_third_party_send(target, recipient);
        }
        // Each sender is a root stamped on a site below or above `site`, and
        // its vector names a second vertex, stamped on the other side, that
        // is a root or not; both stay in the sender's row, so compaction
        // keeps their stamps.
        let messages: Vec<CausalMessage> = (0..events.len() as u64)
            .map(|i| {
                let (holder, _, _) = events[i as usize];
                let from = VertexId::object([0, 1, 3, 4][(i % 4) as usize], 1_000 + i);
                let stamped = VertexId::object([4, 3, 1, 0][(i % 4) as usize], 2_000 + i);
                let mut payload = RootedVector::new();
                payload.vector.set(from, Timestamp::created(1));
                payload.vector.set(stamped, Timestamp::created(1));
                payload.stamp_root(from, 1, true);
                payload.stamp_root(stamped, i + 1, i % 3 != 0);
                CausalMessage {
                    from,
                    to: VertexId::from(holder),
                    payload,
                }
            })
            .collect();
        for message in &messages {
            twins[0].on_message(message.clone());
        }
        for message in messages.iter().rev() {
            twins[1].on_message(message.clone());
        }
        let delta = heap.take_delta();
        for twin in &mut twins {
            twin.apply_delta(&delta);
        }
        for &(holder, target, _) in events.iter().step_by(2) {
            heap.remove_ref(holder.object(), ObjRef::Remote(target))
                .unwrap();
        }
        let delta = heap.take_delta();
        for twin in &mut twins {
            twin.apply_delta(&delta);
            twin.compact_detected();
        }
        let [mut first, mut second] = twins;
        assert!(first.stats().edge_destructions > 0 && first.stats().lazy_records > 0);
        assert_eq!(first.take_outgoing(), second.take_outgoing());
        assert_eq!(first.checkpoint(), second.checkpoint());
        assert_eq!(first.log().to_string(), second.log().to_string());
        // The codec writes the rows and the sorted stamps, so equal
        // sequences are equal checkpoint bytes.
        assert!(first.log().rows().eq(second.log().rows()));
        let stamps = first.log().root_flags();
        assert_eq!(stamps, second.log().root_flags());
        assert_eq!(stamps.len(), 2 * events.len());
        assert!(stamps.keys().any(|vertex| vertex.site() < site));
        assert!(stamps.keys().any(|vertex| vertex.site() > site));
        assert_eq!(
            first.log().stamped_vertices(),
            second.log().stamped_vertices()
        );
        assert_eq!(first.stats().verdicts, 0);
        // A target whose edge is gone lost its holders with it; the others
        // keep theirs, and restore rebuilds the same records.
        let holders = first.checkpoint().inbound_holders;
        assert_eq!(holders.len(), 100);
        assert!(holders.values().all(|set| set.len() == 1));
        let restored = CausalEngine::restore(first.checkpoint());
        assert_eq!(restored.checkpoint(), second.checkpoint());
        assert_eq!(restored.remote.len(), first.remote.len());
    }

    #[test]
    fn stats_display_is_nonempty() {
        assert!(!EngineStats::default().to_string().is_empty());
    }

    #[test]
    fn snapshot_and_delta_twins_agree_on_a_seeded_history() {
        // Two engines follow one heap through a seeded mix of links,
        // unlinks, clears, exports, third-party sends, receives, local-root
        // drops, collections and control messages. One is fed full
        // snapshots, the other the heap's deltas; after every step both
        // must have queued the same messages, reached the same verdicts
        // and hold the same state. Verdicts are applied to the heap right
        // away, as the runtime does.
        let mut state = 0x7e11_5eed_0bad_cafeu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let site = SiteId::new(0);
        let mut heap = SiteHeap::new(site);
        let mut twins = [CausalEngine::new(site), CausalEngine::new(site)];
        let mut objects = vec![heap.alloc_local_root(), heap.alloc_local_root()];
        let mut index = 0u64;
        let mut verdicts = 0;
        for step in 0..2_500 {
            let pick = |r: u64| objects[(r % objects.len() as u64) as usize];
            let (a, b) = (pick(next()), pick(next()));
            let from = heap.addr_of(a);
            // Three remote sites of five objects each: recipients repeat.
            let remote = addr((next() % 3 + 1) as u32, next() % 5 + 1);
            let present = heap.contains(a);
            match next() % 13 {
                0 => objects.push(heap.alloc()),
                1 => objects.push(heap.alloc_local_root()),
                2 | 3 if present && heap.contains(b) => {
                    heap.add_ref(a, ObjRef::Local(b)).unwrap();
                }
                4 if present => {
                    let held: Vec<ObjRef> = heap.object(a).unwrap().refs().collect();
                    if !held.is_empty() {
                        let r = held[(next() % held.len() as u64) as usize];
                        heap.remove_ref(a, r).unwrap();
                    }
                }
                5 if present => heap.clear_refs(a).unwrap(),
                6 if present => {
                    heap.register_global_root(a).unwrap();
                    for twin in &mut twins {
                        twin.on_export(from, VertexId::from(remote));
                    }
                }
                7 => {
                    let recipient = VertexId::from(addr(remote.site().index() % 3 + 1, 9));
                    for twin in &mut twins {
                        twin.on_third_party_send(remote, recipient);
                    }
                }
                8 if present => {
                    heap.receive_ref(a, remote).unwrap();
                    for twin in &mut twins {
                        twin.on_receive_ref(from, remote);
                    }
                }
                9 => {
                    heap.remove_local_root(a);
                }
                10 => {
                    heap.collect();
                }
                11 | 12 if heap.is_global_root(a) => {
                    index += 1;
                    let sender = VertexId::from(remote);
                    let news = if next() % 2 == 0 {
                        Timestamp::destroyed(index)
                    } else {
                        Timestamp::created(index)
                    };
                    let mut payload = RootedVector::new();
                    payload.vector.set(sender, news);
                    let message = CausalMessage {
                        from: sender,
                        to: VertexId::from(from),
                        payload,
                    };
                    for twin in &mut twins {
                        twin.on_message(message.clone());
                    }
                    let [by_snapshot, by_delta] = &mut twins;
                    let found = by_snapshot.take_verdicts();
                    assert_eq!(found, by_delta.take_verdicts(), "step {step}");
                    for verdict in &found {
                        heap.unregister_global_root(verdict.object());
                    }
                    verdicts += found.len();
                }
                _ => {}
            }
            let [by_snapshot, by_delta] = &mut twins;
            by_snapshot.apply_snapshot(&heap.snapshot());
            by_delta.apply_delta(&heap.take_delta());
            assert_eq!(
                by_snapshot.take_outgoing(),
                by_delta.take_outgoing(),
                "step {step}: outgoing messages"
            );
            assert_eq!(
                by_snapshot.take_verdicts(),
                by_delta.take_verdicts(),
                "step {step}: verdicts"
            );
            assert_eq!(by_snapshot.log(), by_delta.log(), "step {step}: log");
            assert_eq!(
                by_snapshot.checkpoint(),
                by_delta.checkpoint(),
                "step {step}: counters, edges and rootedness"
            );
        }
        let stats = twins[1].stats();
        assert!(
            stats.edge_creations > 0 && stats.edge_destructions > 0 && verdicts > 0,
            "the history must create and destroy edges and reach verdicts: \
             {stats}, {verdicts} verdicts"
        );
    }
}
