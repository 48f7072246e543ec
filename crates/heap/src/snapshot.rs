//! Reachability snapshots: the site-local view of the global root graph.
//!
//! The vertices a site contributes to the global root graph are its
//! actual-root anchor (standing for the local root set, §2.2) and each of
//! its global roots. The out-going edges of those vertices are the remote
//! objects reachable from them through the local object graph ("every
//! outgoing path from a global root which crosses its site boundary becomes
//! a single edge in the global root graph"). A [`ReachabilitySnapshot`]
//! captures those edges at one instant; diffing two successive snapshots
//! ([`ReachabilitySnapshot::diff`], the one function that turns two views
//! into an [`EdgeDelta`]) yields the *edge-creation* and *edge-destruction*
//! log-keeping events that drive the GGD algorithm.
//!
//! # Incremental deltas
//!
//! Taking a full snapshot after every mutation costs O(heap); at production
//! scale that dominates everything else. [`SiteHeap`] therefore also
//! maintains the snapshot *incrementally*: every mutation records, in O(1),
//! which objects' out-edges changed, and [`SiteHeap::take_delta`] turns the
//! accumulated dirt into an [`EdgeDelta`] by recomputing reachability only
//! for the vertices whose reachable set can actually have changed (found via
//! a reverse-edge closure of the dirty objects). Since the arena rebuild the
//! tracker's hot-path structures are all slot-indexed: dirt lives in a
//! word-packed bitset, the reverse-edge multiset keeps each slot's first
//! predecessor inline and spills only further ones to pooled lists
//! (`preds.rs`), and local rootedness is a second bitset refreshed from the
//! marker's visit list — so a mutation costs a couple of bit operations,
//! not a set insertion or an allocation. A window that only *added*
//! references (no removal, no local-root or global-root loss, no slot freed
//! under a recorded addition) skips the per-source recomputation
//! altogether: reach is monotone then, so the cache is extended along each
//! added edge instead. A window that only *removed* references re-marks
//! only the sources whose cached targets meet the remotes the window can
//! have cut off: the removed remote targets and whatever the removed local
//! targets reach now. The tracker also counts the references each remote
//! address has on the heap, so a source that meets only candidates no slot
//! holds any more drops them from its list without any mark (DESIGN.md §6
//! carries all three arguments).
//!
//! No step of a delta touches an ordered map: the window's registered and
//! unregistered roots are short sorted `Vec`s, and the cache finds a global
//! root's list and rootedness by hash ([`IdMap`], [`IdSet`]). Order is
//! restored only where the public snapshot API iterates. Every cached
//! target list is sorted and free of duplicates, so a re-marked source is
//! compared with its cache first and diffed by a merge walk only when it
//! changed. [`SiteHeap::take_delta_into`] refills a caller's [`EdgeDelta`]
//! and recycles its per-vertex entries, lists and all, so a steady stream
//! of deltas allocates nothing once warm. The running snapshot is available
//! through [`SiteHeap::cached_snapshot`] and always equals what a fresh
//! [`SiteHeap::snapshot`] rescan would produce. Debug builds check that on
//! every delta with one rescan, together with the delta itself: it must
//! equal the diff from the previous cache to the rescan.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ggd_types::{GlobalAddr, IdMap, IdSet, ObjectId, SiteId, VertexId};

use crate::arena::{Arena, Scratch, FLAG_GLOBAL_ROOT, FLAG_LOCAL_ROOT};
use crate::object::ObjRef;
use crate::preds::Preds;
use crate::site_heap::SiteHeap;

/// A point-in-time view of the edges this site contributes to the global
/// root graph, plus the local-rootedness of its global roots.
///
/// Every target list is sorted and free of duplicates, so two snapshots of
/// the same reachability compare equal. The global roots are hashed, for
/// the delta path's one lookup per source;
/// [`ReachabilitySnapshot::global_roots`], [`ReachabilitySnapshot::edges`],
/// `Display` and [`ReachabilitySnapshot::diff`] list them in order.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReachabilitySnapshot {
    site: SiteId,
    from_local_roots: Vec<GlobalAddr>,
    per_global_root: IdMap<ObjectId, Vec<GlobalAddr>>,
    locally_rooted_global_roots: IdSet<ObjectId>,
}

impl ReachabilitySnapshot {
    /// The site the snapshot was taken on.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// True when the site's local root set reaches `addr` (an edge from the
    /// actual-root anchor vertex).
    pub fn root_reaches(&self, addr: GlobalAddr) -> bool {
        self.from_local_roots.binary_search(&addr).is_ok()
    }

    /// True when global root `id` reaches `addr`.
    pub fn global_root_reaches(&self, id: ObjectId, addr: GlobalAddr) -> bool {
        self.per_global_root
            .get(&id)
            .map(|targets| targets.binary_search(&addr).is_ok())
            .unwrap_or(false)
    }

    /// The global roots present in this snapshot, ascending.
    pub fn global_roots(&self) -> impl Iterator<Item = ObjectId> + '_ {
        let mut ids: Vec<ObjectId> = self.per_global_root.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// True when the global root is also reachable from the site's local
    /// roots — i.e. it belongs to the site's *actual* root set regardless of
    /// remote reachability.
    pub fn is_locally_rooted(&self, id: ObjectId) -> bool {
        self.locally_rooted_global_roots.contains(&id)
    }

    /// Every edge of the global root graph contributed by this site, as
    /// `(source vertex, target object)` pairs.
    pub fn edges(&self) -> BTreeSet<(VertexId, GlobalAddr)> {
        let mut edges = BTreeSet::new();
        for &target in &self.from_local_roots {
            edges.insert((VertexId::site_root(self.site.index()), target));
        }
        for (&id, targets) in &self.per_global_root {
            let source = VertexId::from(GlobalAddr::from_parts(self.site, id));
            for &target in targets {
                edges.insert((source, target));
            }
        }
        edges
    }

    /// The out-going edges of one vertex hosted by this site.
    pub fn edges_of(&self, vertex: VertexId) -> BTreeSet<GlobalAddr> {
        if vertex.site() != self.site {
            return BTreeSet::new();
        }
        match vertex.as_object() {
            None => self.from_local_roots.iter().copied().collect(),
            Some(addr) => self
                .per_global_root
                .get(&addr.object())
                .map(|targets| targets.iter().copied().collect())
                .unwrap_or_default(),
        }
    }

    /// Builds a snapshot from its parts: the remotes the local root set
    /// reaches, the remotes each global root reaches, and the global roots
    /// the local root set reaches.
    pub fn from_parts(
        site: SiteId,
        from_local_roots: BTreeSet<GlobalAddr>,
        per_global_root: BTreeMap<ObjectId, BTreeSet<GlobalAddr>>,
        locally_rooted_global_roots: BTreeSet<ObjectId>,
    ) -> ReachabilitySnapshot {
        ReachabilitySnapshot {
            site,
            from_local_roots: from_local_roots.into_iter().collect(),
            per_global_root: per_global_root
                .into_iter()
                .map(|(id, targets)| (id, targets.into_iter().collect()))
                .collect(),
            locally_rooted_global_roots: locally_rooted_global_roots.into_iter().collect(),
        }
    }

    /// The log-keeping events that take this view of the site to `newer`:
    /// the local-rootedness transitions of `newer`'s global roots, the
    /// global roots `newer` no longer has, and every edge created or
    /// destroyed, in replay order. This is the one place two views become
    /// events; [`SiteHeap::take_delta`] is checked against it in debug
    /// builds.
    pub fn diff(&self, newer: &ReachabilitySnapshot) -> EdgeDelta {
        debug_assert_eq!(self.site, newer.site, "views of two sites");
        let site = newer.site;
        let mut delta = EdgeDelta::empty(site);
        delta.rootedness = newer
            .per_global_root
            .keys()
            .filter_map(|&id| {
                let is = newer.is_locally_rooted(id);
                (self.is_locally_rooted(id) != is).then_some((id, is))
            })
            .collect();
        delta.removed = self
            .per_global_root
            .keys()
            .copied()
            .filter(|id| !newer.per_global_root.contains_key(id))
            .collect();
        let anchor = VertexId::site_root(site.index());
        let (old, new) = (&self.from_local_roots, &newer.from_local_roots);
        delta
            .edges
            .extend(VertexEdgeDelta::between(anchor, old, new));
        let gone = delta.removed.iter().map(|&id| (id, &[][..]));
        let roots = newer
            .per_global_root
            .iter()
            .map(|(&id, t)| (id, t.as_slice()));
        for (id, new) in roots.chain(gone) {
            let vertex = VertexId::from(GlobalAddr::from_parts(site, id));
            let change = VertexEdgeDelta::between(vertex, self.targets_of(id), new);
            delta.edges.extend(change);
        }
        delta.sort_for_replay();
        delta
    }

    /// The sorted remotes global root `id` reaches; none when it is not one.
    fn targets_of(&self, id: ObjectId) -> &[GlobalAddr] {
        self.per_global_root.get(&id).map_or(&[], Vec::as_slice)
    }
}

impl fmt::Display for ReachabilitySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "snapshot of {}:", self.site)?;
        for (source, target) in self.edges() {
            writeln!(f, "  {source} -> {target}")?;
        }
        Ok(())
    }
}

impl SiteHeap {
    /// Takes a reachability snapshot of this site: which remote objects are
    /// reachable from the local root set and from each global root.
    ///
    /// This is the full O(heap) rescan. The incremental pipeline
    /// ([`SiteHeap::take_delta`]) maintains the same information in
    /// O(changed) per mutation; this method remains the reference
    /// implementation every delta is checked against in debug builds.
    pub fn snapshot(&self) -> ReachabilitySnapshot {
        self.rescan().0
    }

    /// The full rescan behind [`SiteHeap::snapshot`], together with the
    /// objects the local root set reaches, found by the same traversal.
    fn rescan(&self) -> (ReachabilitySnapshot, BTreeSet<ObjectId>) {
        let (locally_reachable, from_local_roots) =
            self.reach_with_remotes(self.local_roots.iter().copied());
        let mut snapshot = ReachabilitySnapshot {
            site: self.site(),
            from_local_roots: from_local_roots.into_iter().collect(),
            ..ReachabilitySnapshot::default()
        };
        for id in &self.global_roots {
            let targets = self.remote_reachable_from([*id]).into_iter().collect();
            snapshot.per_global_root.insert(*id, targets);
            if locally_reachable.contains(id) {
                snapshot.locally_rooted_global_roots.insert(*id);
            }
        }
        (snapshot, locally_reachable)
    }
}

// ----------------------------------------------------------------------
// Incremental deltas
// ----------------------------------------------------------------------

/// The edge changes of one vertex of the site's portion of the global root
/// graph, as produced by [`SiteHeap::take_delta`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexEdgeDelta {
    /// The source vertex whose out-edges changed.
    pub vertex: VertexId,
    /// Edges gained since the previous delta, in target order.
    pub created: Vec<GlobalAddr>,
    /// Edges lost since the previous delta, in target order.
    pub destroyed: Vec<GlobalAddr>,
}

impl VertexEdgeDelta {
    /// An entry for `vertex` with no change yet.
    fn unchanged(vertex: VertexId) -> VertexEdgeDelta {
        VertexEdgeDelta {
            vertex,
            created: Vec::new(),
            destroyed: Vec::new(),
        }
    }

    /// The changes of `source` when its reachable set goes from `old` to
    /// `new` (both sorted and free of duplicates), or `None` when nothing
    /// changed.
    fn between(
        source: VertexId,
        old: &[GlobalAddr],
        new: &[GlobalAddr],
    ) -> Option<VertexEdgeDelta> {
        let mut change = VertexEdgeDelta::unchanged(source);
        change.record_between(old, new);
        change.is_change().then_some(change)
    }

    /// Appends what the sorted, duplicate-free `new` gained and lost
    /// against `old`: one merge walk over the two lists.
    fn record_between(&mut self, old: &[GlobalAddr], new: &[GlobalAddr]) {
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                Ordering::Less => {
                    self.destroyed.push(old[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    self.created.push(new[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        self.destroyed.extend_from_slice(&old[i..]);
        self.created.extend_from_slice(&new[j..]);
    }

    fn is_change(&self) -> bool {
        !self.created.is_empty() || !self.destroyed.is_empty()
    }
}

/// Emptied [`VertexEdgeDelta`] entries, recycled from the deltas handed
/// back to [`SiteHeap::take_delta_into`] with their lists' capacity kept.
#[derive(Debug, Clone, Default)]
struct EntryPool(Vec<VertexEdgeDelta>);

impl EntryPool {
    /// An unchanged entry for `vertex`, recycled when one is spare.
    fn take(&mut self, vertex: VertexId) -> VertexEdgeDelta {
        match self.0.pop() {
            Some(mut entry) => {
                entry.vertex = vertex;
                entry
            }
            None => VertexEdgeDelta::unchanged(vertex),
        }
    }

    fn give(&mut self, mut entry: VertexEdgeDelta) {
        entry.created.clear();
        entry.destroyed.clear();
        self.0.push(entry);
    }

    /// Pushes onto `edges` the change of `vertex` from `old` to `new` (see
    /// [`VertexEdgeDelta::between`]), when there is one.
    fn push_between(
        &mut self,
        vertex: VertexId,
        old: &[GlobalAddr],
        new: &[GlobalAddr],
        edges: &mut Vec<VertexEdgeDelta>,
    ) {
        let mut entry = self.take(vertex);
        entry.record_between(old, new);
        if entry.is_change() {
            edges.push(entry);
        } else {
            self.0.push(entry);
        }
    }

    /// Groups creation-only `(vertex, target)` pairs, in any order and free
    /// of duplicates, into one entry per vertex with its targets sorted,
    /// appended to the empty `edges`.
    fn group_created(
        &mut self,
        pairs: &mut [(VertexId, GlobalAddr)],
        edges: &mut Vec<VertexEdgeDelta>,
    ) {
        pairs.sort_unstable();
        for &(vertex, target) in pairs.iter() {
            match edges.last_mut() {
                Some(last) if last.vertex == vertex => last.created.push(target),
                _ => {
                    let mut entry = self.take(vertex);
                    entry.created.push(target);
                    edges.push(entry);
                }
            }
        }
    }
}

/// True when the sorted lists `a` and `b` have an element in common: each
/// element of the shorter is looked up in the longer by binary search.
fn shares_any(a: &[GlobalAddr], b: &[GlobalAddr]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short.iter().any(|addr| long.binary_search(addr).is_ok())
}

/// Moves every address of the sorted list `targets` that the sorted list
/// `gone` also holds onto `destroyed`, in order.
fn drop_shared(
    targets: &mut Vec<GlobalAddr>,
    gone: &[GlobalAddr],
    destroyed: &mut Vec<GlobalAddr>,
) {
    targets.retain(|addr| {
        let shared = gone.binary_search(addr).is_ok();
        if shared {
            destroyed.push(*addr);
        }
        !shared
    });
}

/// Inserts every address of `reach` that the sorted list `targets` lacks,
/// by binary search, and records each as an edge `vertex` gained.
fn extend_sorted(
    vertex: VertexId,
    reach: &[GlobalAddr],
    targets: &mut Vec<GlobalAddr>,
    created: &mut Vec<(VertexId, GlobalAddr)>,
) {
    for &addr in reach {
        if let Err(pos) = targets.binary_search(&addr) {
            targets.insert(pos, addr);
            created.push((vertex, addr));
        }
    }
}

/// Sorts and de-duplicates `fresh`, the remotes `vertex` reaches now. Only
/// when that differs from the sorted list `cached` does it push the change
/// onto `edges` and copy `fresh` over `cached`.
fn refresh_list(
    vertex: VertexId,
    cached: &mut Vec<GlobalAddr>,
    fresh: &mut Vec<GlobalAddr>,
    edges: &mut Vec<VertexEdgeDelta>,
    entries: &mut EntryPool,
) {
    fresh.sort_unstable();
    fresh.dedup();
    if cached != fresh {
        entries.push_between(vertex, cached, fresh, edges);
        cached.clear();
        cached.extend_from_slice(fresh);
    }
}

/// Inserts `id` into the sorted list `ids` unless it is there.
fn sorted_insert(ids: &mut Vec<ObjectId>, id: ObjectId) {
    if let Err(pos) = ids.binary_search(&id) {
        ids.insert(pos, id);
    }
}

/// Removes `id` from the sorted list `ids` if it is there.
fn sorted_remove(ids: &mut Vec<ObjectId>, id: ObjectId) {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
    }
}

fn sorted_contains(ids: &[ObjectId], id: ObjectId) -> bool {
    ids.binary_search(&id).is_ok()
}

/// The difference between two successive reachability snapshots: what
/// [`ReachabilitySnapshot::diff`] computes from two views, and what
/// [`SiteHeap::take_delta`] produces incrementally (O(changed), not
/// O(heap)) — the same value, checked on every delta in debug builds.
///
/// Consumers replay the parts in a fixed order: local-rootedness
/// transitions first, then per-vertex edge changes in vertex order
/// (creations before destructions).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EdgeDelta {
    site: SiteId,
    /// Local-rootedness transitions of current global roots, in object
    /// order: `(object, is_now_locally_rooted)`.
    pub rootedness: Vec<(ObjectId, bool)>,
    /// Global-root vertices that left the graph entirely (demoted by a GGD
    /// verdict, then possibly collected), in object order. Their remaining
    /// out-edges appear in [`EdgeDelta::edges`] as destroyed.
    pub removed: Vec<ObjectId>,
    /// Per-vertex edge changes, sorted by vertex (the anchor sorts first).
    pub edges: Vec<VertexEdgeDelta>,
}

impl EdgeDelta {
    /// Creates an empty delta for `site`.
    pub fn empty(site: SiteId) -> Self {
        EdgeDelta {
            site,
            ..EdgeDelta::default()
        }
    }

    /// The site the delta belongs to.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// True when nothing changed since the previous delta.
    pub fn is_empty(&self) -> bool {
        self.rootedness.is_empty() && self.removed.is_empty() && self.edges.is_empty()
    }

    /// Puts a delta assembled in any order into the order consumers replay:
    /// rootedness transitions and removed roots by object, vertex entries by
    /// vertex. No object or vertex appears twice, so unstable sorts
    /// suffice. Shared by the snapshot diff and both incremental paths so
    /// they can never drift apart.
    fn sort_for_replay(&mut self) {
        self.rootedness.sort_unstable();
        self.removed.sort_unstable();
        self.edges.sort_unstable_by_key(|v| v.vertex);
    }

    /// Every created edge, flattened as `(source vertex, target)` pairs.
    pub fn created(&self) -> impl Iterator<Item = (VertexId, GlobalAddr)> + '_ {
        self.edges
            .iter()
            .flat_map(|v| v.created.iter().map(move |&t| (v.vertex, t)))
    }

    /// Every destroyed edge, flattened as `(source vertex, target)` pairs.
    pub fn destroyed(&self) -> impl Iterator<Item = (VertexId, GlobalAddr)> + '_ {
        self.edges
            .iter()
            .flat_map(|v| v.destroyed.iter().map(move |&t| (v.vertex, t)))
    }
}

impl fmt::Display for EdgeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "delta of {}:", self.site)?;
        for (id, is) in &self.rootedness {
            writeln!(f, "  rooted({id}) = {is}")?;
        }
        for id in &self.removed {
            writeln!(f, "  removed {id}")?;
        }
        for (source, target) in self.created() {
            writeln!(f, "  + {source} -> {target}")?;
        }
        for (source, target) in self.destroyed() {
            writeln!(f, "  - {source} -> {target}")?;
        }
        Ok(())
    }
}

/// The parts of a heap the delta paths read, borrowed beside its tracker
/// and its scratch buffers.
struct HeapParts<'a> {
    site: SiteId,
    arena: &'a Arena,
    local_roots: &'a BTreeSet<ObjectId>,
    global_roots: &'a BTreeSet<ObjectId>,
}

/// The per-heap bookkeeping behind [`SiteHeap::take_delta`]: a slot-indexed
/// reverse-edge multiset, word-packed dirty/rootedness bitsets, a count of
/// the references to each remote address, the references added and removed
/// since the last delta, and the running snapshot cache.
///
/// A fresh heap's tracker starts from the empty snapshot of its site and
/// notes every mutation from then on, so its first delta is the heap's
/// entire contribution so far — exactly what a collector that has seen
/// nothing yet needs — and comes out of the ordinary incremental paths. A
/// heap restored from an image primes the tracker once instead
/// ([`SiteHeap::prime_tracker`]). In debug builds every delta, the first
/// included, is checked against a full rescan and its
/// [`ReachabilitySnapshot::diff`].
///
/// The same reverse edges bound the local collector's trace, so the tracker
/// also keeps the *suspects* of [`SiteHeap::collect`] (see
/// [`DeltaTracker::unheld_suspects`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaTracker {
    /// Reverse local-edge multiset, slot-indexed:
    /// `target slot → [(pred slot, occurrence count)]`, the first entry
    /// inline.
    preds: Preds,
    /// Live references to each remote address, one per occurrence, over
    /// every live slot (garbage included); an address no slot holds has no
    /// entry.
    remote_counts: IdMap<GlobalAddr, u32>,
    /// Dirty bitset: slots whose out-edges changed since the last delta.
    dirty_words: Vec<u64>,
    /// Insertion-ordered list of dirtied slots (may hold entries whose bit
    /// was since cleared by a free — those are skipped at closure time).
    dirty_list: Vec<u32>,
    /// References added since the last delta, as `(from slot, target)`.
    added: Vec<(u32, ObjRef)>,
    /// Targets of the references removed since the last delta, one entry
    /// per removed occurrence.
    removed: Vec<ObjRef>,
    /// A reachable set may have shrunk since the last delta: a reference
    /// was removed, or a slot was freed while `added` named slots (its
    /// reuse would make a recorded `from` stale).
    shrunk: bool,
    /// The local root set changed in a reachability-relevant way.
    anchor_dirty: bool,
    /// Global roots registered since the last delta, sorted.
    roots_added: Vec<ObjectId>,
    /// Global roots unregistered since the last delta (and present in the
    /// cache, i.e. they existed at the previous delta), sorted.
    roots_removed: Vec<ObjectId>,
    /// The running snapshot; equals `SiteHeap::snapshot()` after every
    /// `take_delta`.
    cache: ReachabilitySnapshot,
    /// Bitset of slots reachable from the local root set, cached alongside.
    rooted_words: Vec<u64>,
    /// Epoch-stamped marks for the reverse closure (no clearing per run).
    mark: Vec<u32>,
    epoch: u32,
    /// Reusable closure work stack and result list.
    stack: Vec<u32>,
    affected: Vec<u32>,
    /// Reusable list of the remotes one traversal reached.
    reach: Vec<GlobalAddr>,
    /// In a window that only removed references: the sorted candidates a
    /// source can have lost (see `DeltaTracker::gather_lost`) that no slot
    /// holds any more, and those some slot still holds.
    lost: Vec<GlobalAddr>,
    held: Vec<GlobalAddr>,
    /// Reusable list of the sources a window re-marks.
    sources: Vec<ObjectId>,
    /// Reusable list of a grow-only window's `(vertex, target)` creations.
    created: Vec<(VertexId, GlobalAddr)>,
    /// Spare delta entries.
    entries: EntryPool,
    /// Slots that may have become garbage since the last collection: fresh
    /// allocations, local targets of removed references, demoted roots.
    /// Every survivor of the last collection was reachable then, so these
    /// are the only ways anything can have died since. Duplicates are
    /// allowed; no slot is freed between collections, so the indices stay
    /// valid until the next one drains the list.
    suspects: Vec<u32>,
    /// The slots the last collection's trace doomed, ascending: a buffer
    /// reused across collections (see [`DeltaTracker::unheld_suspects`]).
    pub(crate) doomed: Vec<u32>,
}

impl DeltaTracker {
    /// The tracker of a fresh heap of `site`: nothing recorded yet, and the
    /// empty snapshot as its cache.
    pub(crate) fn new(site: SiteId) -> Self {
        DeltaTracker {
            cache: ReachabilitySnapshot {
                site,
                ..ReachabilitySnapshot::default()
            },
            ..DeltaTracker::default()
        }
    }

    /// Sizes every slot-indexed side table for a slab of `slots` slots.
    pub(crate) fn ensure_capacity(&mut self, slots: usize) {
        self.preds.ensure_capacity(slots);
        if self.mark.len() < slots {
            self.mark.resize(slots, 0);
        }
        let words = slots.div_ceil(64);
        if self.dirty_words.len() < words {
            self.dirty_words.resize(words, 0);
            self.rooted_words.resize(words, 0);
        }
    }

    fn set_dirty(&mut self, slot: u32) {
        let word = &mut self.dirty_words[(slot >> 6) as usize];
        let bit = 1u64 << (slot & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.dirty_list.push(slot);
        }
    }

    fn is_dirty(&self, slot: u32) -> bool {
        self.dirty_words[(slot >> 6) as usize] & (1u64 << (slot & 63)) != 0
    }

    /// Counts one more reference to `addr`.
    fn count_remote(&mut self, addr: GlobalAddr) {
        *self.remote_counts.entry(addr).or_insert(0) += 1;
    }

    /// Counts one reference to `addr` fewer; the last one drops its entry.
    pub(crate) fn uncount_remote(&mut self, addr: GlobalAddr) {
        if let Some(count) = self.remote_counts.get_mut(&addr) {
            *count -= 1;
            if *count == 0 {
                self.remote_counts.remove(&addr);
            }
        } else {
            debug_assert!(false, "uncounted reference to {addr}");
        }
    }

    /// `from` gained the reference `to`; `target` is its slot when `to` is
    /// local.
    pub(crate) fn note_ref_added(&mut self, from: u32, to: ObjRef, target: Option<u32>) {
        match (to, target) {
            (ObjRef::Remote(addr), _) => self.count_remote(addr),
            (ObjRef::Local(_), Some(target)) => self.preds.add(target, from),
            (ObjRef::Local(_), None) => {}
        }
        self.set_dirty(from);
        self.added.push((from, to));
    }

    /// `from` lost one occurrence of the reference `to`; `target` is its
    /// slot when `to` is local and still resident.
    pub(crate) fn note_ref_removed(&mut self, from: u32, to: ObjRef, target: Option<u32>) {
        self.shrunk = true;
        self.removed.push(to);
        match (to, target) {
            (ObjRef::Remote(addr), _) => self.uncount_remote(addr),
            (ObjRef::Local(_), Some(target)) => {
                self.preds.remove_one(target, from);
                self.note_suspect(target);
            }
            // The target may already be gone when dangling slots to
            // collected objects are dropped — its pred list was torn down
            // at free time.
            (ObjRef::Local(_), None) => {}
        }
        self.set_dirty(from);
    }

    pub(crate) fn has_suspects(&self) -> bool {
        !self.suspects.is_empty()
    }

    /// `slot` may have just become garbage: it is fresh, or it lost an
    /// incoming reference or its root status.
    pub(crate) fn note_suspect(&mut self, slot: u32) {
        self.suspects.push(slot);
    }

    pub(crate) fn note_anchor_dirty(&mut self) {
        self.anchor_dirty = true;
    }

    /// A fresh object became a local root; it reaches nothing yet, so the
    /// rootedness bitset can be extended in place instead of marking the
    /// whole anchor dirty.
    pub(crate) fn note_fresh_local_root(&mut self, slot: u32) {
        self.set_rooted(slot);
    }

    fn set_rooted(&mut self, slot: u32) {
        self.rooted_words[(slot >> 6) as usize] |= 1u64 << (slot & 63);
    }

    pub(crate) fn note_root_added(&mut self, id: ObjectId) {
        sorted_remove(&mut self.roots_removed, id);
        sorted_insert(&mut self.roots_added, id);
    }

    pub(crate) fn note_root_removed(&mut self, id: ObjectId) {
        sorted_remove(&mut self.roots_added, id);
        // A removal only needs announcing when the vertex existed at the
        // previous delta; a register/unregister pair inside one window
        // cancels out (a snapshot diff never sees it either).
        if self.cache.per_global_root.contains_key(&id) {
            sorted_insert(&mut self.roots_removed, id);
        }
    }

    /// Drops one predecessor entry entirely (the predecessor is being
    /// collected; its occurrence count no longer matters).
    pub(crate) fn remove_pred(&mut self, target: u32, pred: u32) {
        self.preds.remove_all(target, pred);
    }

    /// Forgets everything keyed to a slot being freed: its own predecessor
    /// list, its dirty bit (the `dirty_list` entry goes stale and is skipped
    /// at closure time) and its rootedness bit. Recorded additions may name
    /// the slot, so they can no longer be replayed.
    pub(crate) fn note_freed_slot(&mut self, slot: u32) {
        if !self.added.is_empty() {
            self.shrunk = true;
        }
        self.preds.clear(slot);
        let word = (slot >> 6) as usize;
        let bit = 1u64 << (slot & 63);
        self.dirty_words[word] &= !bit;
        self.rooted_words[word] &= !bit;
    }

    /// True when the slot was reachable from the local root set as of the
    /// last delta.
    fn is_rooted_slot(&self, slot: u32) -> bool {
        self.rooted_words
            .get((slot >> 6) as usize)
            .is_some_and(|w| w & (1u64 << (slot & 63)) != 0)
    }

    /// Replaces the rootedness bitset with the given visit list.
    fn set_rooted_from(&mut self, visited: &[u32]) {
        for word in &mut self.rooted_words {
            *word = 0;
        }
        for &slot in visited {
            self.set_rooted(slot);
        }
    }

    fn rooted_bits(&self) -> usize {
        self.rooted_words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Starts a fresh mark epoch, so old marks lapse without clearing.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// The change-proportional trace: leaves in `self.doomed`, in ascending
    /// slot order, exactly the slots a full mark-sweep would free, and
    /// drains the suspect list.
    ///
    /// All garbage lies in the *region* — the forward closure of the
    /// suspects through non-root slots — so everything outside it is live.
    /// A region member with a predecessor outside the region is therefore
    /// live, and so is whatever it reaches inside the region; the rest of
    /// the region is garbage. DESIGN.md §6 carries the full argument.
    pub(crate) fn unheld_suspects(&mut self, arena: &Arena, scratch: &mut Scratch) {
        self.doomed.clear();
        if self.suspects.is_empty() {
            return;
        }
        arena.mark_region(scratch, self.suspects.drain(..));
        let epoch = self.next_epoch();
        self.stack.clear();
        for &slot in scratch.visited() {
            let held = self
                .preds
                .entries(slot)
                .any(|(pred, _count)| !scratch.is_marked(pred));
            if held {
                self.mark[slot as usize] = epoch;
                self.stack.push(slot);
            }
        }
        while let Some(slot) = self.stack.pop() {
            for target in arena.local_targets(slot) {
                if scratch.is_marked(target) && self.mark[target as usize] != epoch {
                    self.mark[target as usize] = epoch;
                    self.stack.push(target);
                }
            }
        }
        let region = scratch.visited().iter().copied();
        self.doomed
            .extend(region.filter(|&slot| self.mark[slot as usize] != epoch));
        self.doomed.sort_unstable();
    }

    /// Computes the reverse-edge closure of the dirty slots into
    /// `self.affected`: every slot that can currently reach a dirty slot —
    /// the only candidates whose forward-reachable sets can have changed.
    fn compute_affected(&mut self) {
        self.stack.clear();
        for i in 0..self.dirty_list.len() {
            let slot = self.dirty_list[i];
            if self.is_dirty(slot) {
                self.stack.push(slot);
            }
        }
        self.close_backward();
    }

    /// Computes into `self.affected` every slot that can currently reach
    /// `slot` (itself included).
    fn compute_reaching(&mut self, slot: u32) {
        self.stack.clear();
        self.stack.push(slot);
        self.close_backward();
    }

    /// Closes the seeds on `self.stack` under `preds` into `self.affected`.
    fn close_backward(&mut self) {
        self.next_epoch();
        self.affected.clear();
        while let Some(slot) = self.stack.pop() {
            let s = slot as usize;
            if self.mark[s] == self.epoch {
                continue;
            }
            self.mark[s] = self.epoch;
            self.affected.push(slot);
            for (pred, _count) in self.preds.entries(slot) {
                if self.mark[pred as usize] != self.epoch {
                    self.stack.push(pred);
                }
            }
        }
    }

    fn has_dirt(&self) -> bool {
        self.anchor_dirty
            || !self.dirty_list.is_empty()
            || !self.roots_added.is_empty()
            || !self.roots_removed.is_empty()
    }

    /// True when nothing since the last delta can have shrunk a reachable
    /// set or the local root set, so the cache only needs extending along
    /// `added` (plus the roots registered since).
    fn is_grow_only(&self) -> bool {
        !self.shrunk && !self.anchor_dirty && self.roots_removed.is_empty()
    }

    fn clear_dirt(&mut self) {
        for i in 0..self.dirty_list.len() {
            let slot = self.dirty_list[i];
            self.dirty_words[(slot >> 6) as usize] &= !(1u64 << (slot & 63));
        }
        self.dirty_list.clear();
        self.added.clear();
        self.removed.clear();
        self.shrunk = false;
        self.anchor_dirty = false;
        self.roots_added.clear();
        self.roots_removed.clear();
    }

    /// Empties `delta` for a new window of `site`, keeping its entries as
    /// spares.
    fn recycle(&mut self, delta: &mut EdgeDelta, site: SiteId) {
        delta.site = site;
        delta.rootedness.clear();
        delta.removed.clear();
        for entry in delta.edges.drain(..) {
            self.entries.give(entry);
        }
    }

    /// Fills the emptied `delta` with the window's changes and clears the
    /// window.
    fn fill(&mut self, heap: &HeapParts<'_>, scratch: &mut Scratch, delta: &mut EdgeDelta) {
        if !self.has_dirt() {
            return;
        }
        if self.is_grow_only() {
            self.extend_along_additions(heap, scratch, delta);
        } else {
            self.recompute_affected(heap, scratch, delta);
        }
        self.clear_dirt();
        delta.sort_for_replay();
    }

    /// The grow-only window. With nothing removed, reach is monotone: a
    /// source's new target is reached through a last added edge `a → r`
    /// whose source it reaches now, so extending every source that reaches
    /// `a` by what `r` reaches is exact, in any edge order (DESIGN.md §6).
    /// Roots registered in the window are recomputed whole instead.
    fn extend_along_additions(
        &mut self,
        heap: &HeapParts<'_>,
        scratch: &mut Scratch,
        delta: &mut EdgeDelta,
    ) {
        let (site, arena) = (heap.site, heap.arena);
        self.created.clear();
        for i in 0..self.added.len() {
            let (from, to) = self.added[i];
            let from_rooted = self.is_rooted_slot(from);
            self.reach.clear();
            match to {
                ObjRef::Remote(addr) => self.reach.push(addr),
                ObjRef::Local(target) => {
                    let seed = std::iter::once(target);
                    arena.mark_reachable(scratch, seed, Some(&mut self.reach));
                    // The first added edge on any path from a local root
                    // starts at a slot that was already rooted.
                    if from_rooted {
                        for &slot in scratch.visited() {
                            self.set_rooted(slot);
                            if arena.has_flag(slot, FLAG_GLOBAL_ROOT) {
                                let root = arena.id_at(slot);
                                if self.cache.locally_rooted_global_roots.insert(root) {
                                    delta.rootedness.push((root, true));
                                }
                            }
                        }
                    }
                }
            }
            if self.reach.is_empty() {
                continue;
            }
            if from_rooted {
                extend_sorted(
                    VertexId::site_root(site.index()),
                    &self.reach,
                    &mut self.cache.from_local_roots,
                    &mut self.created,
                );
            }
            self.compute_reaching(from);
            for &slot in &self.affected {
                if !arena.has_flag(slot, FLAG_GLOBAL_ROOT) {
                    continue;
                }
                // Registered roots get one whole entry from `refresh_source`
                // below; every other global root was one at the last delta.
                let root = arena.id_at(slot);
                if sorted_contains(&self.roots_added, root) {
                    continue;
                }
                if let Some(targets) = self.cache.per_global_root.get_mut(&root) {
                    extend_sorted(
                        VertexId::from(GlobalAddr::from_parts(site, root)),
                        &self.reach,
                        targets,
                        &mut self.created,
                    );
                }
            }
        }
        self.entries
            .group_created(&mut self.created, &mut delta.edges);

        // A registered root reports rootedness off the now-extended bitset.
        for i in 0..self.roots_added.len() {
            let root = self.roots_added[i];
            let is = arena.slot_of(root).is_some_and(|s| self.is_rooted_slot(s));
            if is && self.cache.locally_rooted_global_roots.insert(root) {
                delta.rootedness.push((root, true));
            }
            self.refresh_source(heap, scratch, root, &mut delta.edges);
        }
    }

    /// Any other window: recompute every source that can reach a dirty slot
    /// and, when nothing was added, can have lost a remote that some slot
    /// still holds. A source that can have lost only remotes no slot holds
    /// any more loses exactly those, without a mark.
    fn recompute_affected(
        &mut self,
        heap: &HeapParts<'_>,
        scratch: &mut Scratch,
        delta: &mut EdgeDelta,
    ) {
        let (site, arena) = (heap.site, heap.arena);
        self.compute_affected();
        // With nothing added a source can only lose remotes, and only ones
        // in `lost` or `held` (DESIGN.md §6 "Removal windows").
        let bounded = self.added.is_empty() && self.gather_lost(arena, scratch);

        let mut anchor_affected = self.anchor_dirty;
        self.sources.clear();
        for &slot in &self.affected {
            if arena.has_flag(slot, FLAG_LOCAL_ROOT) {
                anchor_affected = true;
            }
            if !arena.has_flag(slot, FLAG_GLOBAL_ROOT) {
                continue;
            }
            let root = arena.id_at(slot);
            if sorted_contains(&self.roots_added, root)
                || sorted_contains(&self.roots_removed, root)
            {
                continue;
            }
            let cached = self.cache.per_global_root.get_mut(&root);
            match cached {
                Some(cached) if bounded && !shares_any(cached, &self.held) => {
                    if shares_any(cached, &self.lost) {
                        // No slot holds these any more, so nothing reaches
                        // them: the source loses exactly them.
                        let vertex = VertexId::from(GlobalAddr::from_parts(site, root));
                        let mut entry = self.entries.take(vertex);
                        drop_shared(cached, &self.lost, &mut entry.destroyed);
                        delta.edges.push(entry);
                    }
                }
                _ => self.sources.push(root),
            }
        }
        self.sources.extend_from_slice(&self.roots_added);

        // Vertices that left the graph: every cached edge is destroyed.
        for i in 0..self.roots_removed.len() {
            let id = self.roots_removed[i];
            delta.removed.push(id);
            let old = self.cache.per_global_root.remove(&id).unwrap_or_default();
            self.cache.locally_rooted_global_roots.remove(&id);
            let vertex = VertexId::from(GlobalAddr::from_parts(site, id));
            self.entries
                .push_between(vertex, &old, &[], &mut delta.edges);
        }

        // Anchor and rootedness: only recomputed when a local root reaches
        // the affected region (otherwise nothing reachable from the local
        // root set changed, so neither can any global root's rootedness).
        if anchor_affected {
            self.reach.clear();
            let seeds = heap.local_roots.iter().copied();
            arena.mark_reachable(scratch, seeds, Some(&mut self.reach));
            refresh_list(
                VertexId::site_root(site.index()),
                &mut self.cache.from_local_roots,
                &mut self.reach,
                &mut delta.edges,
                &mut self.entries,
            );

            // After the removed-roots pass above, every cached rootedness
            // entry names a current global root, so one in-place sweep over
            // the root set finds every transition.
            let rooted = &mut self.cache.locally_rooted_global_roots;
            for &root in heap.global_roots {
                let is = arena.slot_of(root).is_some_and(|s| scratch.is_marked(s));
                if rooted.contains(&root) != is {
                    delta.rootedness.push((root, is));
                    if is {
                        rooted.insert(root);
                    } else {
                        rooted.remove(&root);
                    }
                }
            }
            self.set_rooted_from(scratch.visited());
        } else {
            // No anchor-affecting dirt, so no object's rootedness changed;
            // the only possible transitions are roots *new to the graph*
            // that happen to sit in the (still-valid) rooted bitset. A root
            // re-added in this window is already in the cache and reports
            // nothing — exactly what a snapshot diff would say.
            for i in 0..self.roots_added.len() {
                let root = self.roots_added[i];
                let is = arena.slot_of(root).is_some_and(|s| self.is_rooted_slot(s));
                if is && self.cache.locally_rooted_global_roots.insert(root) {
                    delta.rootedness.push((root, true));
                }
            }
        }

        for i in 0..self.sources.len() {
            let root = self.sources[i];
            self.refresh_source(heap, scratch, root, &mut delta.edges);
        }
    }

    /// Gathers, sorted, every remote a source can have lost in a window that
    /// removed references and added none: the removed remote targets, plus
    /// what the removed local targets reach now (one traversal from all of
    /// them). Those some slot still holds go to `self.held`, the rest to
    /// `self.lost`. Returns false, leaving the loss unbounded, when a
    /// removed local target no longer resolves — a collection in the window
    /// freed it, or it was gone already.
    fn gather_lost(&mut self, arena: &Arena, scratch: &mut Scratch) -> bool {
        self.lost.clear();
        let mut any_local = false;
        for &target in &self.removed {
            match target {
                ObjRef::Remote(addr) => self.lost.push(addr),
                ObjRef::Local(id) if arena.slot_of(id).is_some() => any_local = true,
                ObjRef::Local(_) => return false,
            }
        }
        if any_local {
            let seeds = self.removed.iter().filter_map(|target| target.as_local());
            arena.mark_reachable(scratch, seeds, Some(&mut self.lost));
        }
        self.lost.sort_unstable();
        self.lost.dedup();
        let (counts, held) = (&self.remote_counts, &mut self.held);
        held.clear();
        self.lost.retain(|addr| {
            let still_held = counts.contains_key(addr);
            if still_held {
                held.push(*addr);
            }
            !still_held
        });
        true
    }

    /// Re-marks global root `root` and, when its remote set changed, pushes
    /// the difference against the cache onto `edges` and updates the cache
    /// in place.
    fn refresh_source(
        &mut self,
        heap: &HeapParts<'_>,
        scratch: &mut Scratch,
        root: ObjectId,
        edges: &mut Vec<VertexEdgeDelta>,
    ) {
        self.reach.clear();
        let seed = std::iter::once(root);
        heap.arena
            .mark_reachable(scratch, seed, Some(&mut self.reach));
        let vertex = VertexId::from(GlobalAddr::from_parts(heap.site, root));
        let cached = self.cache.per_global_root.entry(root).or_default();
        refresh_list(vertex, cached, &mut self.reach, edges, &mut self.entries);
    }
}

impl SiteHeap {
    /// The incrementally maintained snapshot, as of the latest
    /// [`SiteHeap::take_delta`] (the empty snapshot before the first one on
    /// a fresh heap, the restored state on a heap rebuilt from an image).
    pub fn cached_snapshot(&self) -> &ReachabilitySnapshot {
        &self.tracker.cache
    }

    /// True when the incrementally maintained snapshot agrees with a fresh
    /// full rescan.
    pub fn tracker_is_consistent(&self) -> bool {
        let (snapshot, rooted) = self.rescan();
        self.matches_rescan(&snapshot, &rooted)
    }

    /// True when the cache equals the rescanned snapshot, the rootedness
    /// bitset agrees with the rescanned local-root reach on every live
    /// slot, carrying no stray bits on dead ones, and the per-remote counts
    /// equal a count over the arena.
    fn matches_rescan(&self, snapshot: &ReachabilitySnapshot, rooted: &BTreeSet<ObjectId>) -> bool {
        let tracker = &self.tracker;
        if tracker.cache != *snapshot {
            return false;
        }
        let arena = &self.arena;
        let mut live_rooted = 0usize;
        let mut counts: IdMap<GlobalAddr, u32> = IdMap::default();
        for slot in arena.live_slots() {
            let bit = tracker.is_rooted_slot(slot);
            if bit != rooted.contains(&arena.id_at(slot)) {
                return false;
            }
            if bit {
                live_rooted += 1;
            }
            for addr in arena.refs(slot).filter_map(|r| r.as_remote()) {
                *counts.entry(addr).or_insert(0) += 1;
            }
        }
        tracker.rooted_bits() == live_rooted && counts == tracker.remote_counts
    }

    /// Produces the edge/rootedness difference accumulated since the last
    /// call, updating the cached snapshot along the way. The allocating
    /// form of [`SiteHeap::take_delta_into`].
    ///
    /// A window that only added references extends the cache along each
    /// added edge: work is the forward closure of the edge's target plus,
    /// when that reaches a remote, the reverse closure of its source —
    /// O(1) for a fresh object linked under anything. Any other window pays
    /// for the *affected* region — the reverse-edge closure of the slots
    /// whose edge lists changed — plus one reachability recomputation per
    /// source in that region that can have changed. When the window added
    /// nothing, that excludes every source whose cached targets miss the
    /// remotes the window can have cut off, and a source that meets only
    /// remotes no slot holds any more drops them without a recomputation;
    /// a removal under which no remote hangs therefore re-marks no source
    /// at all. None of this is proportional to the heap, and a mutation
    /// that touched nothing relevant returns an empty delta without
    /// traversing anything.
    ///
    /// Debug builds check every delta, a fresh heap's first included,
    /// against one full rescan: the cache must equal it, and the delta must
    /// equal the [`ReachabilitySnapshot::diff`] from the previous cache to
    /// it.
    pub fn take_delta(&mut self) -> EdgeDelta {
        let mut delta = EdgeDelta::empty(self.site());
        self.take_delta_into(&mut delta);
        delta
    }

    /// [`SiteHeap::take_delta`] into a caller's buffer: `delta` is emptied
    /// and refilled with this window's changes. The per-vertex entries it
    /// held are recycled, lists and all, so a caller that hands the same
    /// delta back every time allocates nothing once it is warm.
    pub fn take_delta_into(&mut self, delta: &mut EdgeDelta) {
        if cfg!(debug_assertions) {
            let before = self
                .tracker
                .has_dirt()
                .then(|| self.cached_snapshot().clone());
            self.next_delta(delta);
            self.assert_matches_rescan(before.as_ref().unwrap_or(self.cached_snapshot()), delta);
            return;
        }
        self.next_delta(delta);
    }

    /// [`SiteHeap::take_delta_into`] without the debug-build check. The
    /// tracker is borrowed beside the heap parts it reads.
    fn next_delta(&mut self, delta: &mut EdgeDelta) {
        let site = self.site();
        let SiteHeap {
            arena,
            local_roots,
            global_roots,
            tracker,
            scratch,
            ..
        } = self;
        tracker.recycle(delta, site);
        let heap = HeapParts {
            site,
            arena,
            local_roots,
            global_roots,
        };
        tracker.fill(&heap, scratch, delta);
    }

    /// The debug-build reference check of one delta: a single full rescan
    /// must equal the cache, and its diff from `before`, the cache as the
    /// previous delta left it, must equal `delta`.
    fn assert_matches_rescan(&self, before: &ReachabilitySnapshot, delta: &EdgeDelta) {
        let (snapshot, rooted) = self.rescan();
        let site = self.site();
        assert!(
            self.matches_rescan(&snapshot, &rooted),
            "incremental snapshot of {site} diverged from a full rescan"
        );
        assert_eq!(
            *delta,
            before.diff(&snapshot),
            "delta of {site} differs from the rescan diff"
        );
    }

    /// Primes the tracker of a heap whose history is unknown — one just
    /// rebuilt from an image — so that its next delta reports only what
    /// changes from here on, and its next collection is exact. One pass
    /// over the slab gives the reverse edges and the per-remote counts. One
    /// mark from the local roots gives the rootedness bitset and the
    /// anchor's list, and one mark per global root gives that root's list;
    /// these are the rescan's traversals on the reusable scratch, so the
    /// cache equals [`SiteHeap::snapshot`]. One mark from both root sets
    /// finds the garbage the image carried, and every slot it leaves
    /// unreached becomes a suspect (DESIGN.md §6).
    pub(crate) fn prime_tracker(&mut self) {
        let (arena, scratch, tracker) = (&self.arena, &mut self.scratch, &mut self.tracker);
        tracker.ensure_capacity(arena.slot_count());
        for slot in arena.live_slots() {
            for r in arena.refs(slot) {
                match r {
                    ObjRef::Remote(addr) => tracker.count_remote(addr),
                    ObjRef::Local(id) => {
                        if let Some(target) = arena.slot_of(id) {
                            tracker.preds.add(target, slot);
                        }
                    }
                }
            }
        }
        let sorted = |mut list: Vec<GlobalAddr>| {
            list.sort_unstable();
            list.dedup();
            list
        };
        let mut reach = Vec::new();
        arena.mark_reachable(scratch, self.local_roots.iter().copied(), Some(&mut reach));
        tracker.set_rooted_from(scratch.visited());
        tracker.cache.from_local_roots = sorted(reach);
        for &root in &self.global_roots {
            let mut reach = Vec::new();
            arena.mark_reachable(scratch, std::iter::once(root), Some(&mut reach));
            tracker.cache.per_global_root.insert(root, sorted(reach));
            if arena
                .slot_of(root)
                .is_some_and(|s| tracker.is_rooted_slot(s))
            {
                tracker.cache.locally_rooted_global_roots.insert(root);
            }
        }
        let roots = self.local_roots.iter().chain(&self.global_roots).copied();
        arena.mark_reachable(scratch, roots, None);
        for slot in arena.live_slots() {
            if !scratch.is_marked(slot) {
                tracker.note_suspect(slot);
            }
        }
        debug_assert!(
            self.tracker_is_consistent(),
            "primed tracker diverged from a rescan"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_captures_root_and_global_root_edges() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        let mid = h.alloc();
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        let remote_a = GlobalAddr::new(1, 1);
        let remote_b = GlobalAddr::new(2, 1);
        h.add_ref(root, ObjRef::Local(mid)).unwrap();
        h.add_ref(mid, ObjRef::Remote(remote_a)).unwrap();
        h.add_ref(exported, ObjRef::Remote(remote_b)).unwrap();

        let snap = h.snapshot();
        assert_eq!(snap.site(), SiteId::new(0));
        assert!(snap.root_reaches(remote_a));
        assert!(!snap.root_reaches(remote_b));
        assert!(snap.global_root_reaches(exported, remote_b));
        assert!(!snap.global_root_reaches(exported, remote_a));
        assert!(!snap.is_locally_rooted(exported));
        assert_eq!(snap.edges().len(), 2);

        let edges = snap.edges();
        assert!(edges.contains(&(VertexId::site_root(0), remote_a)));
        assert!(edges.contains(&(
            VertexId::from(GlobalAddr::from_parts(SiteId::new(0), exported)),
            remote_b
        )));
        assert_eq!(
            snap.edges_of(VertexId::site_root(0)),
            BTreeSet::from([remote_a])
        );
        assert!(snap.edges_of(VertexId::site_root(9)).is_empty());
    }

    #[test]
    fn locally_rooted_global_roots_are_flagged() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        h.add_ref(root, ObjRef::Local(exported)).unwrap();
        let snap = h.snapshot();
        assert!(snap.is_locally_rooted(exported));
    }

    #[test]
    fn diff_reports_created_and_destroyed_edges() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        let remote_a = GlobalAddr::new(1, 1);
        let remote_b = GlobalAddr::new(1, 2);
        h.add_ref(root, ObjRef::Remote(remote_a)).unwrap();
        let before = h.snapshot();

        h.remove_ref(root, ObjRef::Remote(remote_a)).unwrap();
        h.add_ref(root, ObjRef::Remote(remote_b)).unwrap();
        let after = h.snapshot();

        let diff = before.diff(&after);
        assert_eq!(
            diff.created().collect::<Vec<_>>(),
            vec![(VertexId::site_root(0), remote_b)]
        );
        assert_eq!(
            diff.destroyed().collect::<Vec<_>>(),
            vec![(VertexId::site_root(0), remote_a)]
        );
        assert!(!diff.is_empty());
        assert!(after.diff(&after).is_empty());
    }

    #[test]
    fn diff_covers_collected_global_roots() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        let remote = GlobalAddr::new(3, 3);
        h.add_ref(exported, ObjRef::Remote(remote)).unwrap();
        let before = h.snapshot();

        // GGD decides the global root is unreachable; local GC frees it.
        h.unregister_global_root(exported);
        h.collect();
        let after = h.snapshot();

        let diff = before.diff(&after);
        assert_eq!(diff.created().count(), 0);
        assert_eq!(diff.removed, vec![exported]);
        assert_eq!(
            diff.destroyed().collect::<Vec<_>>(),
            vec![(
                VertexId::from(GlobalAddr::from_parts(SiteId::new(0), exported)),
                remote
            )]
        );
    }

    #[test]
    fn first_delta_reports_everything_then_goes_incremental() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        h.add_ref(root, ObjRef::Remote(GlobalAddr::new(1, 1)))
            .unwrap();
        h.add_ref(exported, ObjRef::Remote(GlobalAddr::new(2, 1)))
            .unwrap();

        let delta = h.take_delta();
        assert!(!delta.is_empty());
        assert_eq!(delta.created().count(), 2);
        assert_eq!(delta.destroyed().count(), 0);
        assert!(h.tracker_is_consistent());
        assert_eq!(h.cached_snapshot(), &h.snapshot());

        // Nothing changed: the next delta is empty and costs nothing.
        assert!(h.take_delta().is_empty());

        // A mutation irrelevant to the root graph (an unreachable object
        // gaining a remote ref) produces an empty delta too.
        let loner = h.alloc();
        h.add_ref(loner, ObjRef::Remote(GlobalAddr::new(3, 1)))
            .unwrap();
        assert!(h.take_delta().is_empty());
        assert!(h.tracker_is_consistent());
    }

    #[test]
    fn fresh_heaps_first_delta_is_the_diff_from_the_empty_snapshot() {
        let site = SiteId::new(0);
        let mut h = SiteHeap::new(site);
        let root = h.alloc_local_root();
        let (mid, exported, garbage) = (h.alloc(), h.alloc(), h.alloc());
        h.add_ref(root, ObjRef::Local(mid)).unwrap();
        h.add_ref(mid, ObjRef::Remote(GlobalAddr::new(1, 1)))
            .unwrap();
        h.add_ref(mid, ObjRef::Local(exported)).unwrap();
        h.add_ref(exported, ObjRef::Remote(GlobalAddr::new(2, 1)))
            .unwrap();
        h.add_ref(garbage, ObjRef::Remote(GlobalAddr::new(3, 1)))
            .unwrap();
        h.register_global_root(exported).unwrap();
        assert_eq!(h.collect().freed, BTreeSet::from([garbage]));
        let empty = ReachabilitySnapshot::from_parts(
            site,
            BTreeSet::new(),
            BTreeMap::new(),
            BTreeSet::new(),
        );
        let delta = h.take_delta();
        assert_eq!(delta, empty.diff(&h.snapshot()));
        assert_eq!(delta.rootedness, vec![(exported, true)]);
        assert_eq!(delta.created().count(), 3);
        assert!(h.tracker_is_consistent());
    }

    #[test]
    fn unregistering_a_root_is_reported_as_removal() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        h.add_ref(exported, ObjRef::Remote(GlobalAddr::new(4, 4)))
            .unwrap();
        let _ = h.take_delta();

        h.unregister_global_root(exported);
        let delta = h.take_delta();
        assert_eq!(delta.removed, vec![exported]);
        assert_eq!(delta.destroyed().count(), 1);
        assert!(h.tracker_is_consistent());

        // Register/unregister inside one window cancels out entirely.
        h.register_global_root(exported).unwrap();
        h.unregister_global_root(exported);
        assert!(h.take_delta().is_empty());
        assert!(h.tracker_is_consistent());
    }

    #[test]
    fn rootedness_transitions_are_reported() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        let _ = h.take_delta();

        h.add_ref(root, ObjRef::Local(exported)).unwrap();
        let delta = h.take_delta();
        assert_eq!(delta.rootedness, vec![(exported, true)]);

        h.remove_ref(root, ObjRef::Local(exported)).unwrap();
        let delta = h.take_delta();
        assert_eq!(delta.rootedness, vec![(exported, false)]);
        assert!(h.tracker_is_consistent());
    }

    /// Takes a delta and checks it against a full rescan, as debug builds
    /// do inside `take_delta`, so release test runs check it too: the cache
    /// must equal a fresh snapshot, and the delta must be exactly the
    /// snapshot diff since `before`. Returns the delta and whether it took
    /// the grow-only path.
    fn take_checked(h: &mut SiteHeap, before: &ReachabilitySnapshot) -> (EdgeDelta, bool) {
        let tracker = &h.tracker;
        let grow_only = tracker.has_dirt() && tracker.is_grow_only();
        let delta = h.take_delta();
        assert!(h.tracker_is_consistent(), "cache diverged from rescan");
        assert_eq!(delta, before.diff(&h.snapshot()));
        (delta, grow_only)
    }

    /// Runs `window` as one delta window on a heap whose tracker is active
    /// and checks the resulting delta (see [`take_checked`]).
    fn checked_window(h: &mut SiteHeap, window: impl FnOnce(&mut SiteHeap)) -> (EdgeDelta, bool) {
        let _ = h.take_delta();
        let before = h.cached_snapshot().clone();
        window(h);
        take_checked(h, &before)
    }

    fn object_vertex(id: ObjectId) -> VertexId {
        VertexId::from(GlobalAddr::from_parts(SiteId::new(0), id))
    }

    /// True when the pending window removed references and added none, so
    /// `take_delta` bounds the sources it re-marks by what was cut off.
    fn is_removal_only(h: &SiteHeap) -> bool {
        let tracker = &h.tracker;
        tracker.added.is_empty() && !tracker.removed.is_empty()
    }

    /// A heap with global root `g` holding the chain `g → a → b → c`, every
    /// link local, and `remote` held by `c`.
    fn root_over_chain(remote: GlobalAddr) -> (SiteHeap, [ObjectId; 4]) {
        let mut h = SiteHeap::new(SiteId::new(0));
        let chain = [h.alloc(), h.alloc(), h.alloc(), h.alloc()];
        for pair in chain.windows(2) {
            h.add_ref(pair[0], ObjRef::Local(pair[1])).unwrap();
        }
        h.add_ref(chain[3], ObjRef::Remote(remote)).unwrap();
        h.register_global_root(chain[0]).unwrap();
        (h, chain)
    }

    #[test]
    fn removal_of_one_of_two_copies_of_a_remote_changes_nothing() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, _, _, c]) = root_over_chain(remote);
        h.add_ref(c, ObjRef::Remote(remote)).unwrap();
        let root = h.alloc_local_root();
        h.add_ref(root, ObjRef::Local(c)).unwrap();
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(c, ObjRef::Remote(remote)).unwrap());
            assert!(is_removal_only(h));
        });
        assert!(delta.is_empty());
        assert!(h.cached_snapshot().global_root_reaches(g, remote));
        assert!(h.cached_snapshot().root_reaches(remote));
    }

    #[test]
    fn removal_of_a_local_child_that_reaches_no_remote_changes_nothing() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [_, a, _, _]) = root_over_chain(remote);
        let (leaf, below) = (h.alloc(), h.alloc());
        h.add_ref(a, ObjRef::Local(leaf)).unwrap();
        h.add_ref(leaf, ObjRef::Local(below)).unwrap();
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(a, ObjRef::Local(leaf)).unwrap());
        });
        assert!(delta.is_empty());
    }

    #[test]
    fn removal_of_two_links_of_one_path_destroys_the_remote_below_the_last() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, a, b, c]) = root_over_chain(remote);
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(a, ObjRef::Local(b)).unwrap());
            assert!(h.remove_ref(b, ObjRef::Local(c)).unwrap());
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(g), remote)]
        );
        assert_eq!(delta.created().count(), 0);
    }

    #[test]
    fn removal_whose_local_target_is_freed_in_the_window_refreshes_every_source() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, a, b, c]) = root_over_chain(remote);
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(a, ObjRef::Local(b)).unwrap());
            assert_eq!(h.collect().freed, BTreeSet::from([b, c]));
            assert!(is_removal_only(h));
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(g), remote)]
        );
    }

    #[test]
    fn removal_leaves_a_remote_reached_through_a_second_path() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, a, _, c]) = root_over_chain(remote);
        let side = h.alloc();
        h.add_ref(g, ObjRef::Local(side)).unwrap();
        h.add_ref(side, ObjRef::Local(c)).unwrap();
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(g, ObjRef::Local(a)).unwrap());
        });
        assert!(delta.is_empty());
        assert!(h.cached_snapshot().global_root_reaches(g, remote));
    }

    #[test]
    fn root_registered_in_a_removal_window_is_refreshed_whole() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, _, _, c]) = root_over_chain(remote);
        let (k, x) = (h.alloc(), h.alloc());
        let other = GlobalAddr::new(2, 1);
        h.add_ref(k, ObjRef::Local(x)).unwrap();
        h.add_ref(x, ObjRef::Remote(other)).unwrap();
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(c, ObjRef::Remote(remote)).unwrap());
            h.register_global_root(k).unwrap();
            assert!(is_removal_only(h));
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(g), remote)]
        );
        assert_eq!(
            delta.created().collect::<Vec<_>>(),
            vec![(object_vertex(k), other)]
        );
    }

    #[test]
    fn remote_held_twice_by_one_slot_is_lost_with_its_last_copy() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, _, _, c]) = root_over_chain(remote);
        h.add_ref(c, ObjRef::Remote(remote)).unwrap();
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(c, ObjRef::Remote(remote)).unwrap());
            assert!(is_removal_only(h));
        });
        assert!(delta.is_empty(), "the other copy still holds {remote}");
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(c, ObjRef::Remote(remote)).unwrap());
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(g), remote)]
        );
    }

    #[test]
    fn remote_held_under_two_sources_survives_a_cut_of_one_path() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, a, b, c]) = root_over_chain(remote);
        let (k, d) = (h.alloc(), h.alloc());
        h.add_ref(k, ObjRef::Local(d)).unwrap();
        h.add_ref(d, ObjRef::Remote(remote)).unwrap();
        h.register_global_root(k).unwrap();
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(g, ObjRef::Local(a)).unwrap());
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(g), remote)]
        );
        assert!(h.cached_snapshot().global_root_reaches(k, remote));
        // The cut-off `c` still holds the remote until it is collected, so
        // `k` losing its own copy is re-marked, not trimmed.
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(d, ObjRef::Remote(remote)).unwrap());
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(k), remote)]
        );
        let (delta, _) = checked_window(&mut h, |h| {
            assert_eq!(h.collect().freed, BTreeSet::from([a, b, c]));
        });
        assert!(delta.is_empty());
    }

    #[test]
    fn clear_refs_dropping_the_last_copies_of_two_remotes() {
        let (r1, r2, kept) = (
            GlobalAddr::new(1, 1),
            GlobalAddr::new(2, 1),
            GlobalAddr::new(3, 1),
        );
        let (mut h, [g, a, _, c]) = root_over_chain(r1);
        h.add_ref(c, ObjRef::Remote(r2)).unwrap();
        h.add_ref(c, ObjRef::Remote(r1)).unwrap();
        h.add_ref(a, ObjRef::Remote(kept)).unwrap();
        let root = h.alloc_local_root();
        h.add_ref(root, ObjRef::Local(c)).unwrap();
        let (delta, _) = checked_window(&mut h, |h| {
            h.clear_refs(c).unwrap();
            assert!(is_removal_only(h));
        });
        let anchor = VertexId::site_root(0);
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![
                (anchor, r1),
                (anchor, r2),
                (object_vertex(g), r1),
                (object_vertex(g), r2)
            ]
        );
        assert!(h.cached_snapshot().global_root_reaches(g, kept));
    }

    #[test]
    fn holder_of_a_remote_freed_inside_the_window() {
        // The freed slot is a removed local target: the loss is unbounded,
        // and every affected source is re-marked.
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, a, b, c]) = root_over_chain(remote);
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(a, ObjRef::Local(b)).unwrap());
            assert_eq!(h.collect().freed, BTreeSet::from([b, c]));
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(g), remote)]
        );

        // A garbage holder freed beside a bounded removal: the sweep takes
        // the last count, so the source drops the remote without a mark.
        let other = GlobalAddr::new(2, 1);
        h.add_ref(a, ObjRef::Remote(other)).unwrap();
        let garbage = h.alloc();
        h.add_ref(garbage, ObjRef::Remote(other)).unwrap();
        let (delta, _) = checked_window(&mut h, |h| {
            assert!(h.remove_ref(a, ObjRef::Remote(other)).unwrap());
            assert_eq!(h.collect().freed, BTreeSet::from([garbage]));
            assert!(is_removal_only(h));
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(g), other)]
        );
    }

    #[test]
    fn receive_and_unlink_of_the_same_remote_in_one_window() {
        let remote = GlobalAddr::new(1, 1);
        let (mut h, [g, a, _, c]) = root_over_chain(remote);
        let (delta, grow_only) = checked_window(&mut h, |h| {
            h.receive_ref(a, remote).unwrap();
            assert!(h.remove_ref(c, ObjRef::Remote(remote)).unwrap());
        });
        assert!(!grow_only && delta.is_empty());
        assert!(h.cached_snapshot().global_root_reaches(g, remote));
        // The copy moves to a slot no source reaches: the edge goes.
        let loner = h.alloc();
        let (delta, _) = checked_window(&mut h, |h| {
            h.receive_ref(loner, remote).unwrap();
            assert!(h.remove_ref(a, ObjRef::Remote(remote)).unwrap());
        });
        assert_eq!(
            delta.destroyed().collect::<Vec<_>>(),
            vec![(object_vertex(g), remote)]
        );
    }

    #[test]
    fn heap_rebuilt_from_an_image_counts_what_a_fresh_scan_counts() {
        let (r1, r2) = (GlobalAddr::new(1, 1), GlobalAddr::new(2, 1));
        let (mut h, [g, _, _, c]) = root_over_chain(r1);
        h.add_ref(c, ObjRef::Remote(r1)).unwrap();
        h.add_ref(c, ObjRef::Remote(r2)).unwrap();
        let garbage = h.alloc();
        h.add_ref(garbage, ObjRef::Remote(r2)).unwrap();
        let _ = h.take_delta();
        let mut restored = SiteHeap::from_image(&h.image());
        assert!(restored.tracker_is_consistent());
        assert_eq!(restored.tracker.remote_counts, h.tracker.remote_counts);
        assert_eq!(restored.tracker.remote_counts.get(&r1), Some(&2));
        assert_eq!(restored.tracker.remote_counts.get(&r2), Some(&2));
        for h in [&mut h, &mut restored] {
            let (delta, _) = checked_window(h, |h| {
                assert!(h.remove_ref(c, ObjRef::Remote(r2)).unwrap());
                assert_eq!(h.collect().freed, BTreeSet::from([garbage]));
            });
            assert_eq!(
                delta.destroyed().collect::<Vec<_>>(),
                vec![(object_vertex(g), r2)]
            );
        }
    }

    #[test]
    fn sorted_list_helpers_agree_with_btreeset() {
        let mut state = 0x0bad_5eed_1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let vertex = object_vertex(ObjectId::new(1));
        for _ in 0..2_000 {
            // Up to nine addresses from a pool of 12, so pairs overlap often.
            let [old_set, new_set]: [BTreeSet<GlobalAddr>; 2] = [(); 2].map(|()| {
                (0..next() % 10)
                    .map(|_| GlobalAddr::new((next() % 3 + 1) as u32, next() % 4 + 1))
                    .collect()
            });
            let old: Vec<GlobalAddr> = old_set.iter().copied().collect();
            let new: Vec<GlobalAddr> = new_set.iter().copied().collect();
            let created: Vec<GlobalAddr> = new_set.difference(&old_set).copied().collect();
            let destroyed: Vec<GlobalAddr> = old_set.difference(&new_set).copied().collect();
            match VertexEdgeDelta::between(vertex, &old, &new) {
                Some(change) => {
                    assert_eq!(change.created, created);
                    assert_eq!(change.destroyed, destroyed);
                }
                None => assert_eq!(old_set, new_set),
            }
            assert_eq!(shares_any(&old, &new), !old_set.is_disjoint(&new_set));

            let mut kept = old.clone();
            let mut dropped = Vec::new();
            drop_shared(&mut kept, &new, &mut dropped);
            let shared: Vec<GlobalAddr> = old_set.intersection(&new_set).copied().collect();
            assert_eq!(dropped, shared);
            assert_eq!(
                kept,
                old_set.difference(&new_set).copied().collect::<Vec<_>>()
            );

            let mut grown = old.clone();
            let mut gained = Vec::new();
            extend_sorted(vertex, &new, &mut grown, &mut gained);
            let union: Vec<GlobalAddr> = old_set.union(&new_set).copied().collect();
            assert_eq!(grown, union);
            assert_eq!(
                gained,
                created.iter().map(|&t| (vertex, t)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn grow_only_window_whose_later_edge_roots_an_earlier_source() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        let (x, y) = (h.alloc(), h.alloc());
        let remote = GlobalAddr::new(1, 1);
        h.add_ref(y, ObjRef::Remote(remote)).unwrap();
        h.register_global_root(y).unwrap();
        let (delta, grow_only) = checked_window(&mut h, |h| {
            h.add_ref(x, ObjRef::Local(y)).unwrap();
            h.add_ref(root, ObjRef::Local(x)).unwrap();
        });
        assert!(grow_only);
        assert_eq!(delta.rootedness, vec![(y, true)]);
        assert_eq!(
            delta.created().collect::<Vec<_>>(),
            vec![(VertexId::site_root(0), remote)]
        );
        // `x` and `y` are rooted now: the next window's addition under `y`
        // must reach the anchor.
        let later = GlobalAddr::new(1, 2);
        let (delta, grow_only) = checked_window(&mut h, |h| {
            h.add_ref(y, ObjRef::Remote(later)).unwrap();
        });
        assert!(grow_only);
        assert_eq!(delta.created().count(), 2, "anchor and `y` gain {later}");
    }

    #[test]
    fn grow_only_edges_closing_a_cycle_extend_every_root_on_it() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let (g, a, k, b) = (h.alloc(), h.alloc(), h.alloc(), h.alloc());
        let (ra, rb) = (GlobalAddr::new(1, 1), GlobalAddr::new(2, 1));
        h.add_ref(g, ObjRef::Local(a)).unwrap();
        h.add_ref(a, ObjRef::Remote(ra)).unwrap();
        h.add_ref(k, ObjRef::Local(b)).unwrap();
        h.add_ref(b, ObjRef::Remote(rb)).unwrap();
        h.register_global_root(g).unwrap();
        h.register_global_root(k).unwrap();
        // g → a → k → b → g: neither root is `from` of an added edge.
        let (delta, grow_only) = checked_window(&mut h, |h| {
            h.add_ref(a, ObjRef::Local(k)).unwrap();
            h.add_ref(b, ObjRef::Local(g)).unwrap();
        });
        assert!(grow_only);
        assert_eq!(
            delta.created().collect::<Vec<_>>(),
            vec![(object_vertex(g), rb), (object_vertex(k), ra)]
        );
        // An edge inside the closed cycle changes nothing.
        let (delta, grow_only) = checked_window(&mut h, |h| {
            h.add_ref(k, ObjRef::Local(a)).unwrap();
        });
        assert!(grow_only && delta.is_empty());
    }

    #[test]
    fn grow_only_remote_under_a_slot_shared_with_a_root_registered_in_the_window() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let (old, new, shared) = (h.alloc(), h.alloc(), h.alloc());
        h.add_ref(old, ObjRef::Local(shared)).unwrap();
        h.add_ref(new, ObjRef::Local(shared)).unwrap();
        h.register_global_root(old).unwrap();
        let remote = GlobalAddr::new(3, 1);
        let (delta, grow_only) = checked_window(&mut h, |h| {
            h.register_global_root(new).unwrap();
            h.add_ref(shared, ObjRef::Remote(remote)).unwrap();
        });
        assert!(grow_only);
        assert_eq!(
            delta.created().collect::<Vec<_>>(),
            vec![(object_vertex(old), remote), (object_vertex(new), remote)]
        );
    }

    #[test]
    fn unregister_and_reregister_inside_a_grow_only_window() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        let (g, a) = (h.alloc(), h.alloc());
        h.add_ref(g, ObjRef::Local(a)).unwrap();
        h.add_ref(a, ObjRef::Remote(GlobalAddr::new(1, 1))).unwrap();
        h.register_global_root(g).unwrap();
        let remote = GlobalAddr::new(1, 2);
        let (delta, grow_only) = checked_window(&mut h, |h| {
            h.unregister_global_root(g);
            h.register_global_root(g).unwrap();
            h.add_ref(a, ObjRef::Remote(remote)).unwrap();
            h.add_ref(root, ObjRef::Local(g)).unwrap();
        });
        assert!(grow_only, "a re-registered root was never removed");
        assert!(delta.removed.is_empty());
        assert_eq!(delta.rootedness, vec![(g, true)]);
        assert_eq!(delta.created().count(), 3, "anchor gains both, g one");
    }

    #[test]
    fn global_root_becomes_locally_rooted_through_an_addition() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        let (mid, g) = (h.alloc(), h.alloc());
        h.add_ref(root, ObjRef::Local(mid)).unwrap();
        let remote = GlobalAddr::new(2, 2);
        h.add_ref(g, ObjRef::Remote(remote)).unwrap();
        h.register_global_root(g).unwrap();
        let (delta, grow_only) = checked_window(&mut h, |h| {
            h.add_ref(mid, ObjRef::Local(g)).unwrap();
        });
        assert!(grow_only);
        assert_eq!(delta.rootedness, vec![(g, true)]);
        assert_eq!(
            delta.created().collect::<Vec<_>>(),
            vec![(VertexId::site_root(0), remote)]
        );
    }

    #[test]
    fn slot_freed_and_reused_under_a_recorded_addition_takes_the_general_path() {
        let mut h = SiteHeap::new(SiteId::new(0));
        h.alloc_local_root();
        let (delta, grow_only) = checked_window(&mut h, |h| {
            let garbage = h.alloc();
            let slot = h.arena.slot_of(garbage).unwrap();
            h.add_ref(garbage, ObjRef::Remote(GlobalAddr::new(4, 1)))
                .unwrap();
            assert_eq!(h.collect().freed, BTreeSet::from([garbage]));
            // The recorded `from` slot now holds a local root.
            let tenant = h.alloc_local_root();
            assert_eq!(h.arena.slot_of(tenant).unwrap(), slot);
        });
        assert!(
            !grow_only,
            "a free under a pending addition must not replay it"
        );
        assert!(delta.is_empty());
    }

    #[test]
    fn incremental_cache_matches_rescan_under_random_mutations() {
        // Pseudo-random single-heap workload in three phases: mixed
        // mutations (single unlinks of a local or remote reference among
        // them), then growth only (allocations, added references,
        // registrations, the odd collection), then removals only (unlinks,
        // cleared objects, collections). Remotes come from a pool of 24
        // addresses, so an object often holds one twice. Deltas are taken
        // after windows of 1–8 mutations (the cluster syncs per mutation, but
        // the tracker must not depend on that); each must equal the snapshot
        // diff, and replaying them all must reconstruct the final edge set.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut h = SiteHeap::new(SiteId::new(0));
        let mut edges_model: BTreeSet<(VertexId, GlobalAddr)> = BTreeSet::new();
        let mut objects: Vec<ObjectId> = Vec::new();
        for _ in 0..4 {
            objects.push(h.alloc_local_root());
        }
        let mut before = ReachabilitySnapshot::default();
        let mut window = 1;
        let mut grow_only_windows = [0usize; 2];
        let mut removal_only_windows = [0usize; 2];
        for step in 0..1100u64 {
            let growing = (400..800).contains(&step);
            let shrinking = step >= 800;
            let pick = |r: u64| objects[(r % objects.len() as u64) as usize];
            let (a, b) = (pick(next()), pick(next()));
            let remote = GlobalAddr::new((next() % 4 + 1) as u32, next() % 6 + 1);
            let op = if shrinking {
                [5, 9, 10, 10, 11, 11][(next() % 6) as usize]
            } else {
                next() % 12
            };
            // One of the references `a` holds now, local or remote.
            let mut held = |remote: bool| {
                let view = h.object(a)?;
                let refs: Vec<ObjRef> = view.refs().filter(|r| r.is_remote() == remote).collect();
                (!refs.is_empty()).then(|| refs[(next() % refs.len() as u64) as usize])
            };
            match (growing, op) {
                (_, 0) => objects.push(h.alloc()),
                (_, 1) => objects.push(h.alloc_local_root()),
                (_, 2 | 3) if h.contains(a) && h.contains(b) => {
                    h.add_ref(a, ObjRef::Local(b)).unwrap();
                }
                (_, 4) if h.contains(a) => h.add_ref(a, ObjRef::Remote(remote)).unwrap(),
                (_, 6) if h.contains(a) => {
                    let _ = h.register_global_root(a);
                }
                (false, 5) if h.contains(a) => h.clear_refs(a).unwrap(),
                (false, 7) => {
                    h.unregister_global_root(a);
                }
                (false, 8) => {
                    h.remove_local_root(a);
                }
                (true, 5 | 7) if h.contains(a) => {
                    let child = h.alloc();
                    h.add_ref(a, ObjRef::Local(child)).unwrap();
                    objects.push(child);
                }
                (true, 8) if h.contains(a) => h.receive_ref(a, remote).unwrap(),
                (false, 10 | 11) => {
                    if let Some(r) = held(op == 11) {
                        assert!(h.remove_ref(a, r).unwrap());
                    }
                }
                (_, 9) => {
                    h.collect();
                }
                _ => {}
            }
            window -= 1;
            if window > 0 {
                continue;
            }
            window = 1 + next() % 8;
            if !growing {
                removal_only_windows[usize::from(shrinking)] += usize::from(is_removal_only(&h));
            }
            let (delta, grow_only) = take_checked(&mut h, &before);
            grow_only_windows[usize::from(growing)] += usize::from(grow_only);
            for pair in delta.created() {
                assert!(edges_model.insert(pair), "duplicate creation {pair:?}");
            }
            for pair in delta.destroyed() {
                assert!(edges_model.remove(&pair), "destroying unknown {pair:?}");
            }
            before = h.cached_snapshot().clone();
        }
        let (delta, _) = take_checked(&mut h, &before);
        for pair in delta.created() {
            edges_model.insert(pair);
        }
        for pair in delta.destroyed() {
            edges_model.remove(&pair);
        }
        assert_eq!(edges_model, h.snapshot().edges());
        assert!(
            grow_only_windows[0] > 0 && grow_only_windows[1] > grow_only_windows[0],
            "both phases must exercise the grow-only path: {grow_only_windows:?}"
        );
        assert!(
            removal_only_windows[0] > 0 && removal_only_windows[1] > removal_only_windows[0],
            "the mixed and removal phases must exercise removal-only windows: \
             {removal_only_windows:?}"
        );
    }

    #[test]
    fn display_lists_edges() {
        let mut h = SiteHeap::new(SiteId::new(0));
        let root = h.alloc_local_root();
        h.add_ref(root, ObjRef::Remote(GlobalAddr::new(1, 1)))
            .unwrap();
        let text = h.snapshot().to_string();
        assert!(text.contains("root(s0) -> s1/o1"));
    }
}
