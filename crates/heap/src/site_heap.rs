//! The per-site heap: allocation, mutation, root management and the
//! bookkeeping needed by both local GC and global garbage detection.
//!
//! Since the arena rebuild, the heap is a thin policy layer over the slab in
//! the `arena` module: identities ([`ObjectId`]) map to dense slots through
//! a flat index, reference lists live in pooled chunks, and root membership
//! is mirrored into per-slot flags so the delta hot path never touches the
//! ordered root sets (which are kept for deterministic iteration).
//!
//! The `snapshot`, `collect` and `image` modules are further `impl
//! SiteHeap` blocks, split by topic; they use the crate-visible fields
//! below directly.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

use ggd_types::{GlobalAddr, ObjectId, SiteId};

use crate::arena::{Arena, ObjectView, Scratch, FLAG_GLOBAL_ROOT, FLAG_LOCAL_ROOT};
use crate::collect::HeapStats;
use crate::object::ObjRef;
use crate::snapshot::DeltaTracker;

/// Errors returned by heap mutation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HeapError {
    /// The named object does not exist (never allocated, or already collected).
    UnknownObject(ObjectId),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::UnknownObject(id) => write!(f, "unknown object {id}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// The heap of one site of the distributed system.
///
/// The heap tracks three root-related sets, mirroring §2.1 of the paper:
///
/// * the **local root set** — objects designated as roots by the
///   application (`alloc_local_root`, `add_local_root`);
/// * the **global root set** — objects whose references have crossed the
///   site boundary and that must conservatively be treated as roots until
///   global garbage detection proves otherwise (`register_global_root`,
///   `unregister_global_root`);
/// * implicitly, the **actual root set** — local roots plus the global
///   roots that really are still remotely referenced; only GGD can compute
///   it, which is precisely the paper's point.
///
/// See the crate-level documentation for a usage example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteHeap {
    site: SiteId,
    pub(crate) arena: Arena,
    pub(crate) local_roots: BTreeSet<ObjectId>,
    pub(crate) global_roots: BTreeSet<ObjectId>,
    pub(crate) next_object: u64,
    pub(crate) stats: HeapStats,
    /// Incremental-delta bookkeeping (see [`SiteHeap::take_delta`]) and the
    /// collector's suspect list (see [`SiteHeap::collect`]). It records
    /// every mutation from the heap's birth; a heap restored from an image
    /// primes it once instead. Not part of the heap's logical identity, so
    /// it is excluded from equality.
    pub(crate) tracker: DeltaTracker,
    /// Reusable traversal buffers (marks, stack, visit list).
    pub(crate) scratch: Scratch,
}

impl PartialEq for SiteHeap {
    fn eq(&self, other: &Self) -> bool {
        // Logical identity only: slab layout and caches are
        // representation details (a recovered heap compares equal to the
        // heap it checkpointed even though its slots were re-packed).
        self.site == other.site
            && self.next_object == other.next_object
            && self.stats == other.stats
            && self.local_roots == other.local_roots
            && self.global_roots == other.global_roots
            && self.arena.live_count() == other.arena.live_count()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.id() == b.id() && a.refs().eq(b.refs()))
    }
}

impl SiteHeap {
    /// Creates an empty heap for `site`.
    pub fn new(site: SiteId) -> Self {
        SiteHeap {
            site,
            arena: Arena::default(),
            local_roots: BTreeSet::new(),
            global_roots: BTreeSet::new(),
            next_object: 1,
            stats: HeapStats::default(),
            tracker: DeltaTracker::new(site),
            scratch: Scratch::default(),
        }
    }

    /// The site this heap belongs to.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Allocates a fresh, unrooted, empty object.
    pub fn alloc(&mut self) -> ObjectId {
        let id = ObjectId::new(self.next_object);
        self.next_object += 1;
        let slot = self.arena.insert(id);
        self.tracker.ensure_capacity(self.arena.slot_count());
        // Unrooted and unreferenced: garbage until something links it.
        self.tracker.note_suspect(slot);
        self.stats.allocated += 1;
        id
    }

    /// Allocates a fresh object and designates it a local root.
    pub fn alloc_local_root(&mut self) -> ObjectId {
        let id = self.alloc();
        self.local_roots.insert(id);
        if let Some(slot) = self.arena.slot_of(id) {
            self.arena.set_flag(slot, FLAG_LOCAL_ROOT);
            // A fresh root reaches nothing, so the tracker's locally-rooted
            // cache extends in place — no anchor recomputation needed.
            self.tracker.note_fresh_local_root(slot);
        }
        id
    }

    /// The global address of a local object.
    pub fn addr_of(&self, id: ObjectId) -> GlobalAddr {
        GlobalAddr::from_parts(self.site, id)
    }

    /// True when the object currently exists on this heap.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.arena.contains_id(id)
    }

    /// Read access to an object.
    pub fn object(&self, id: ObjectId) -> Option<ObjectView<'_>> {
        self.arena.slot_of(id).map(|slot| self.arena.view(slot))
    }

    /// Number of live (not yet collected) objects.
    pub fn len(&self) -> usize {
        self.arena.live_count()
    }

    /// True when the heap holds no objects at all.
    pub fn is_empty(&self) -> bool {
        self.arena.live_count() == 0
    }

    /// Iterates over all objects in identity order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectView<'_>> {
        self.arena.iter_id_order()
    }

    /// Allocation and collection statistics.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Roots
    // ------------------------------------------------------------------

    /// The designated local roots.
    pub fn local_roots(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.local_roots.iter().copied()
    }

    /// The current (conservative) global root set.
    pub fn global_roots(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.global_roots.iter().copied()
    }

    /// Designates an existing object as a local root.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when the object does not exist.
    pub fn add_local_root(&mut self, id: ObjectId) -> Result<(), HeapError> {
        let slot = self.arena.slot_of(id).ok_or(HeapError::UnknownObject(id))?;
        if self.local_roots.insert(id) {
            self.arena.set_flag(slot, FLAG_LOCAL_ROOT);
            self.tracker.note_anchor_dirty();
        }
        Ok(())
    }

    /// Removes an object from the local root set. The object itself is not
    /// touched; the next collection may reclaim it if nothing else keeps it.
    pub fn remove_local_root(&mut self, id: ObjectId) -> bool {
        let removed = self.local_roots.remove(&id);
        if removed {
            if let Some(slot) = self.arena.slot_of(id) {
                self.arena.clear_flag(slot, FLAG_LOCAL_ROOT);
                self.tracker.note_suspect(slot);
            }
            self.tracker.note_anchor_dirty();
        }
        removed
    }

    /// True when the object is currently a designated local root.
    pub fn is_local_root(&self, id: ObjectId) -> bool {
        self.local_roots.contains(&id)
    }

    /// Registers an object in the global root set: some reference to it has
    /// crossed the site boundary, so local GC must treat it as a root until
    /// GGD proves it is no longer remotely reachable.
    ///
    /// Registration is idempotent; the return value says whether the object
    /// was newly registered.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when the object does not exist.
    pub fn register_global_root(&mut self, id: ObjectId) -> Result<bool, HeapError> {
        let slot = self.arena.slot_of(id).ok_or(HeapError::UnknownObject(id))?;
        let added = self.global_roots.insert(id);
        if added {
            self.arena.set_flag(slot, FLAG_GLOBAL_ROOT);
            self.tracker.note_root_added(id);
        }
        Ok(added)
    }

    /// Removes an object from the global root set — the outcome of a GGD
    /// verdict ("no longer remotely reachable"). The object may well survive
    /// the next local collection through local roots; that is the expected
    /// division of labour (§2.2).
    pub fn unregister_global_root(&mut self, id: ObjectId) -> bool {
        let removed = self.global_roots.remove(&id);
        if removed {
            if let Some(slot) = self.arena.slot_of(id) {
                self.arena.clear_flag(slot, FLAG_GLOBAL_ROOT);
                self.tracker.note_suspect(slot);
            }
            self.tracker.note_root_removed(id);
        }
        removed
    }

    /// True when the object is currently in the global root set.
    pub fn is_global_root(&self, id: ObjectId) -> bool {
        self.global_roots.contains(&id)
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Adds a reference from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when `from` does not exist, or
    /// when `to` is a local reference to an object that does not exist.
    pub fn add_ref(&mut self, from: ObjectId, to: ObjRef) -> Result<(), HeapError> {
        let target_slot = match to {
            ObjRef::Local(target) => Some(
                self.arena
                    .slot_of(target)
                    .ok_or(HeapError::UnknownObject(target))?,
            ),
            ObjRef::Remote(_) => None,
        };
        let from_slot = self
            .arena
            .slot_of(from)
            .ok_or(HeapError::UnknownObject(from))?;
        self.arena.push_ref(from_slot, to);
        self.tracker.note_ref_added(from_slot, to, target_slot);
        Ok(())
    }

    /// Removes one occurrence of the reference `to` from `from`.
    ///
    /// Returns whether a matching slot was found.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when `from` does not exist.
    pub fn remove_ref(&mut self, from: ObjectId, to: ObjRef) -> Result<bool, HeapError> {
        let from_slot = self
            .arena
            .slot_of(from)
            .ok_or(HeapError::UnknownObject(from))?;
        let removed = self.arena.remove_first_ref(from_slot, to);
        if removed {
            // The target may already be gone when dangling slots to collected
            // objects are dropped; the tracker then only records the dirt.
            let target_slot = to.as_local().and_then(|t| self.arena.slot_of(t));
            self.tracker.note_ref_removed(from_slot, to, target_slot);
        }
        Ok(removed)
    }

    /// Clears every reference held by `from`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when `from` does not exist.
    pub fn clear_refs(&mut self, from: ObjectId) -> Result<(), HeapError> {
        let from_slot = self
            .arena
            .slot_of(from)
            .ok_or(HeapError::UnknownObject(from))?;
        for r in self.arena.refs(from_slot) {
            let target_slot = r.as_local().and_then(|t| self.arena.slot_of(t));
            self.tracker.note_ref_removed(from_slot, r, target_slot);
        }
        self.arena.clear_refs(from_slot);
        Ok(())
    }

    /// Stores an incoming reference (delivered by a mutator message) into a
    /// slot of the receiving object. References to objects of this site are
    /// stored as local references; references to other sites become proxies.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when the recipient does not
    /// exist (e.g. it was collected while the message was in flight).
    pub fn receive_ref(&mut self, recipient: ObjectId, addr: GlobalAddr) -> Result<(), HeapError> {
        let reference = if addr.site() == self.site {
            ObjRef::Local(addr.object())
        } else {
            ObjRef::Remote(addr)
        };
        // An incoming local reference may name an object that has already
        // been collected; surface that as UnknownObject so the caller can
        // decide (the simulator treats it as a safety violation).
        if let ObjRef::Local(target) = reference {
            self.ensure_exists(target)?;
        }
        self.add_ref(recipient, reference)
    }

    // ------------------------------------------------------------------
    // Queries used by GGD
    // ------------------------------------------------------------------

    /// Every remote address referenced from anywhere on this heap (live or
    /// not): the site's outbound proxies.
    pub fn remote_targets(&self) -> BTreeSet<GlobalAddr> {
        let arena = &self.arena;
        arena
            .live_slots()
            .flat_map(|slot| arena.refs(slot).filter_map(|r| r.as_remote()))
            .collect()
    }

    /// The set of objects reachable from the given seed objects by following
    /// local references only.
    pub fn reachable_from<I>(&self, seeds: I) -> BTreeSet<ObjectId>
    where
        I: IntoIterator<Item = ObjectId>,
    {
        self.reach_with_remotes(seeds).0
    }

    /// The remote addresses reachable from the given seed objects by
    /// following local references (the outbound edges those seeds contribute
    /// to the global root graph).
    pub fn remote_reachable_from<I>(&self, seeds: I) -> BTreeSet<GlobalAddr>
    where
        I: IntoIterator<Item = ObjectId>,
    {
        self.reach_with_remotes(seeds).1
    }

    /// Computes, in one traversal, the objects reachable from the seeds and
    /// the remote addresses they hold — the two halves of a snapshot source.
    ///
    /// This is the allocating `&self` variant used by full rescans and
    /// one-off queries; the delta hot path uses the arena's scratch-based
    /// marking instead.
    pub(crate) fn reach_with_remotes<I>(
        &self,
        seeds: I,
    ) -> (BTreeSet<ObjectId>, BTreeSet<GlobalAddr>)
    where
        I: IntoIterator<Item = ObjectId>,
    {
        let arena = &self.arena;
        let mut visited = BTreeSet::new();
        let mut remotes = BTreeSet::new();
        let mut stack: Vec<u32> = seeds
            .into_iter()
            .filter_map(|id| arena.slot_of(id))
            .collect();
        while let Some(slot) = stack.pop() {
            if !visited.insert(arena.id_at(slot)) {
                continue;
            }
            for r in arena.refs(slot) {
                match r {
                    ObjRef::Local(next) => {
                        if let Some(t) = arena.slot_of(next) {
                            if !visited.contains(&next) {
                                stack.push(t);
                            }
                        }
                    }
                    ObjRef::Remote(addr) => {
                        remotes.insert(addr);
                    }
                }
            }
        }
        (visited, remotes)
    }

    // ------------------------------------------------------------------
    // Crate-internal helpers
    // ------------------------------------------------------------------

    /// Frees the traced-dead `slots`, in the order given. The tracker first
    /// unhooks every doomed slot from its targets' predecessor lists and
    /// uncounts its remote references, while all of them are still
    /// readable. Freed objects were unreachable from every snapshot source,
    /// so no surviving vertex's reachable set changes — no dirt is recorded
    /// for survivors.
    pub(crate) fn sweep(&mut self, slots: &[u32]) {
        for &slot in slots {
            for r in self.arena.refs(slot) {
                match r {
                    ObjRef::Local(id) => {
                        if let Some(target) = self.arena.slot_of(id) {
                            self.tracker.remove_pred(target, slot);
                        }
                    }
                    ObjRef::Remote(addr) => self.tracker.uncount_remote(addr),
                }
            }
            self.tracker.note_freed_slot(slot);
        }
        for &slot in slots {
            self.arena.free(slot);
        }
    }

    /// Mirrors both root sets into the resident objects' slot flags, for a
    /// heap whose root sets and objects were rebuilt from an image.
    pub(crate) fn flag_roots(&mut self) {
        for &id in &self.local_roots {
            if let Some(slot) = self.arena.slot_of(id) {
                self.arena.set_flag(slot, FLAG_LOCAL_ROOT);
            }
        }
        for &id in &self.global_roots {
            if let Some(slot) = self.arena.slot_of(id) {
                self.arena.set_flag(slot, FLAG_GLOBAL_ROOT);
            }
        }
    }

    pub(crate) fn ensure_exists(&self, id: ObjectId) -> Result<(), HeapError> {
        if self.arena.contains_id(id) {
            Ok(())
        } else {
            Err(HeapError::UnknownObject(id))
        }
    }

    pub(crate) fn roots_for_local_gc(&self) -> BTreeSet<ObjectId> {
        self.local_roots
            .union(&self.global_roots)
            .copied()
            .collect()
    }

    pub(crate) fn drop_roots_of_collected(&mut self, freed: &[ObjectId]) {
        // Roots are themselves part of the local-GC root set, so a correct
        // collection never frees one; the tracker notes are defensive. The
        // slots are already gone, so only the ordered sets need cleaning.
        for id in freed {
            if self.local_roots.remove(id) {
                self.tracker.note_anchor_dirty();
            }
            if self.global_roots.remove(id) {
                self.tracker.note_root_removed(*id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> SiteHeap {
        SiteHeap::new(SiteId::new(0))
    }

    #[test]
    fn alloc_assigns_fresh_ids() {
        let mut h = heap();
        let a = h.alloc();
        let b = h.alloc();
        assert_ne!(a, b);
        assert!(h.contains(a) && h.contains(b));
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        assert_eq!(h.stats().allocated, 2);
        assert_eq!(h.site(), SiteId::new(0));
    }

    #[test]
    fn addresses_round_trip() {
        let mut h = heap();
        let a = h.alloc();
        let addr = h.addr_of(a);
        assert_eq!(addr.site(), SiteId::new(0));
        assert_eq!(addr.object(), a);
    }

    #[test]
    fn root_management() {
        let mut h = heap();
        let r = h.alloc_local_root();
        let g = h.alloc();
        assert!(h.is_local_root(r));
        assert!(!h.is_local_root(g));
        assert!(h.register_global_root(g).unwrap());
        assert!(!h.register_global_root(g).unwrap());
        assert!(h.is_global_root(g));
        assert!(h.unregister_global_root(g));
        assert!(!h.is_global_root(g));
        assert!(h.remove_local_root(r));
        assert!(!h.remove_local_root(r));
        assert_eq!(
            h.add_local_root(ObjectId::new(99)).unwrap_err(),
            HeapError::UnknownObject(ObjectId::new(99))
        );
    }

    #[test]
    fn add_and_remove_refs() {
        let mut h = heap();
        let a = h.alloc();
        let b = h.alloc();
        h.add_ref(a, ObjRef::Local(b)).unwrap();
        h.add_ref(a, ObjRef::Remote(GlobalAddr::new(2, 1))).unwrap();
        assert_eq!(h.object(a).unwrap().slot_count(), 2);
        assert!(h.remove_ref(a, ObjRef::Local(b)).unwrap());
        assert!(!h.remove_ref(a, ObjRef::Local(b)).unwrap());
        h.clear_refs(a).unwrap();
        assert_eq!(h.object(a).unwrap().slot_count(), 0);
        assert!(matches!(
            h.add_ref(a, ObjRef::Local(ObjectId::new(77))),
            Err(HeapError::UnknownObject(_))
        ));
        assert!(matches!(
            h.add_ref(ObjectId::new(77), ObjRef::Local(b)),
            Err(HeapError::UnknownObject(_))
        ));
    }

    #[test]
    fn receive_ref_localises_same_site_addresses() {
        let mut h = heap();
        let a = h.alloc();
        let b = h.alloc();
        h.receive_ref(a, h.addr_of(b)).unwrap();
        h.receive_ref(a, GlobalAddr::new(7, 3)).unwrap();
        let obj = h.object(a).unwrap();
        assert!(obj.holds(ObjRef::Local(b)));
        assert!(obj.holds(ObjRef::Remote(GlobalAddr::new(7, 3))));
        let dangling = GlobalAddr::from_parts(h.site(), ObjectId::new(99));
        assert!(h.receive_ref(a, dangling).is_err());
    }

    #[test]
    fn reachability_queries() {
        let mut h = heap();
        let a = h.alloc_local_root();
        let b = h.alloc();
        let c = h.alloc();
        let d = h.alloc(); // unreachable
        h.add_ref(a, ObjRef::Local(b)).unwrap();
        h.add_ref(b, ObjRef::Local(c)).unwrap();
        h.add_ref(c, ObjRef::Remote(GlobalAddr::new(1, 1))).unwrap();
        h.add_ref(d, ObjRef::Remote(GlobalAddr::new(2, 2))).unwrap();

        let reach = h.reachable_from([a]);
        assert!(reach.contains(&a) && reach.contains(&b) && reach.contains(&c));
        assert!(!reach.contains(&d));

        let remote = h.remote_reachable_from([a]);
        assert_eq!(remote.len(), 1);
        assert!(remote.contains(&GlobalAddr::new(1, 1)));

        let all_remote = h.remote_targets();
        assert_eq!(all_remote.len(), 2);
    }

    #[test]
    fn reachability_handles_cycles() {
        let mut h = heap();
        let a = h.alloc_local_root();
        let b = h.alloc();
        h.add_ref(a, ObjRef::Local(b)).unwrap();
        h.add_ref(b, ObjRef::Local(a)).unwrap();
        let reach = h.reachable_from([a]);
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn slot_handles_go_stale_after_reclaim_and_reuse() {
        // The heap's only handle on an object is its identity: a stale
        // ObjectId must not resolve once its slot has been reclaimed and
        // reused.
        let mut h = heap();
        let root = h.alloc_local_root();
        let doomed = h.alloc();
        let doomed_slot = h.arena.slot_of(doomed).unwrap();
        h.collect(); // frees `doomed`
        assert!(!h.contains(doomed));
        assert!(h.object(doomed).is_none());

        // The freed slot is reused by the next allocation...
        let reuser = h.alloc();
        assert_eq!(h.arena.slot_of(reuser), Some(doomed_slot));

        // ...and the stale id cannot reach it.
        assert!(h.object(doomed).is_none());
        assert_eq!(h.object(reuser).unwrap().id(), reuser);
        assert!(h.contains(root));
    }

    #[test]
    fn stale_ids_error_not_alias_after_reuse() {
        let mut h = heap();
        let root = h.alloc_local_root();
        let doomed = h.alloc();
        h.collect();
        let reuser = h.alloc();
        assert_ne!(doomed, reuser, "identities are never reused");
        // Mutations through the stale id must fail, not hit the new tenant.
        assert_eq!(
            h.add_ref(doomed, ObjRef::Local(root)).unwrap_err(),
            HeapError::UnknownObject(doomed)
        );
        assert_eq!(
            h.add_ref(root, ObjRef::Local(doomed)).unwrap_err(),
            HeapError::UnknownObject(doomed)
        );
        assert_eq!(h.object(reuser).unwrap().slot_count(), 0);
    }

    #[test]
    fn error_display() {
        assert!(!HeapError::UnknownObject(ObjectId::new(1))
            .to_string()
            .is_empty());
    }
}
