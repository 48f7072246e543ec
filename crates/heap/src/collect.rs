//! The local mark-sweep collector and its statistics.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

use ggd_types::ObjectId;

use crate::site_heap::SiteHeap;

/// Cumulative per-heap statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HeapStats {
    /// Objects allocated over the heap's lifetime.
    pub allocated: u64,
    /// Objects freed by local collections.
    pub collected: u64,
    /// `collect` calls, including the O(1) ones that had nothing to trace.
    pub collections: u64,
}

impl fmt::Display for HeapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocated={} collected={} collections={}",
            self.allocated, self.collected, self.collections
        )
    }
}

/// Result of one local collection.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CollectionOutcome {
    /// Objects freed by this collection.
    pub freed: BTreeSet<ObjectId>,
    /// Number of objects that survived the collection.
    pub live: usize,
}

impl CollectionOutcome {
    /// True when the collection freed nothing.
    pub fn is_noop(&self) -> bool {
        self.freed.is_empty()
    }
}

impl fmt::Display for CollectionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "freed={} live={}", self.freed.len(), self.live)
    }
}

impl SiteHeap {
    /// True when the heap holds suspects, objects that may have died since
    /// the last collection. Without any, [`SiteHeap::collect`] frees
    /// nothing.
    pub fn has_suspects(&self) -> bool {
        self.tracker.has_suspects()
    }

    /// Runs a local collection: frees every object not reachable from the
    /// union of the designated local roots and the current global root set,
    /// exactly as prescribed by §2.1 of the paper. The GGD layer learns
    /// which remote references died with them from the next
    /// [`SiteHeap::take_delta`]. The allocating form of
    /// [`SiteHeap::collect_into`].
    pub fn collect(&mut self) -> CollectionOutcome {
        let mut freed = Vec::new();
        self.collect_into(&mut freed);
        CollectionOutcome {
            freed: freed.into_iter().collect(),
            live: self.len(),
        }
    }

    /// [`SiteHeap::collect`] into a caller's buffer: `freed` is overwritten
    /// with the freed objects, in ascending order.
    ///
    /// The outcome is always that of a stop-the-world mark-sweep over the
    /// whole site, but the cost is proportional to what changed since the
    /// previous collection: the heap records *suspects* (fresh objects,
    /// local targets of removed references, demoted roots, and on a heap
    /// restored from an image the garbage it carried) and a collection
    /// examines only their forward closure — returning in O(1) when there
    /// are none. Once `freed` and the heap's traversal buffers have grown,
    /// a collection allocates nothing. Freed slots go back to the arena in
    /// ascending slot order, so slot reuse follows the freed set alone.
    /// Debug builds check every collection against
    /// [`SiteHeap::would_collect`].
    pub fn collect_into(&mut self, freed: &mut Vec<ObjectId>) {
        freed.clear();
        self.stats.collections += 1;
        if !self.tracker.has_suspects() {
            debug_assert!(
                self.would_collect().is_empty(),
                "{} has garbage but no suspects",
                self.site()
            );
            return;
        }
        #[cfg(debug_assertions)]
        let expected = self.would_collect();

        self.tracker.unheld_suspects(&self.arena, &mut self.scratch);
        let doomed = std::mem::take(&mut self.tracker.doomed);
        freed.extend(doomed.iter().map(|&slot| self.arena.id_at(slot)));
        freed.sort_unstable();
        #[cfg(debug_assertions)]
        assert!(
            freed.iter().eq(&expected),
            "collection on {} diverged from the full trace",
            self.site()
        );

        self.sweep(&doomed);
        self.tracker.doomed = doomed;
        self.drop_roots_of_collected(freed);
        self.stats.collected += freed.len() as u64;
    }

    /// Computes, without mutating the heap, the set of objects a collection
    /// run right now would free, by a full trace from every root. This is
    /// the oracle: debug builds assert every [`SiteHeap::collect`] against
    /// it, and tests and the simulator use it as a dry run.
    pub fn would_collect(&self) -> BTreeSet<ObjectId> {
        let marked = self.reachable_from(self.roots_for_local_gc());
        self.iter()
            .map(|obj| obj.id())
            .filter(|id| !marked.contains(id))
            .collect()
    }

    /// The identities of objects currently reachable from the local root set
    /// alone (ignoring global roots). Global roots in this set belong to the
    /// site's *actual* root set no matter what GGD decides.
    pub fn locally_rooted(&self) -> BTreeSet<ObjectId> {
        self.reachable_from(self.local_roots.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjRef;
    use ggd_types::{GlobalAddr, SiteId};

    fn heap() -> SiteHeap {
        SiteHeap::new(SiteId::new(0))
    }

    #[test]
    fn collects_unreachable_objects() {
        let mut h = heap();
        let root = h.alloc_local_root();
        let kept = h.alloc();
        let garbage = h.alloc();
        h.add_ref(root, ObjRef::Local(kept)).unwrap();
        h.add_ref(garbage, ObjRef::Local(kept)).unwrap();

        let outcome = h.collect();
        assert_eq!(outcome.freed, BTreeSet::from([garbage]));
        assert_eq!(outcome.live, 2);
        assert!(!outcome.is_noop());
        assert!(h.contains(kept));
        assert!(!h.contains(garbage));
        assert_eq!(h.stats().collected, 1);
        assert_eq!(h.stats().collections, 1);
    }

    #[test]
    fn global_roots_keep_objects_alive() {
        let mut h = heap();
        let exported = h.alloc();
        let child = h.alloc();
        h.add_ref(exported, ObjRef::Local(child)).unwrap();
        h.register_global_root(exported).unwrap();

        let outcome = h.collect();
        assert!(outcome.is_noop());

        // Once GGD removes it from the global root set it becomes garbage.
        h.unregister_global_root(exported);
        let outcome = h.collect();
        assert_eq!(outcome.freed.len(), 2);
        assert_eq!(outcome.live, 0);
    }

    #[test]
    fn local_cycles_are_collected() {
        let mut h = heap();
        let root = h.alloc_local_root();
        let a = h.alloc();
        let b = h.alloc();
        h.add_ref(a, ObjRef::Local(b)).unwrap();
        h.add_ref(b, ObjRef::Local(a)).unwrap();
        h.add_ref(root, ObjRef::Local(a)).unwrap();

        assert!(h.collect().is_noop());
        h.remove_ref(root, ObjRef::Local(a)).unwrap();
        let outcome = h.collect();
        assert_eq!(outcome.freed, BTreeSet::from([a, b]));
    }

    #[test]
    fn would_collect_is_a_dry_run() {
        let mut h = heap();
        let _root = h.alloc_local_root();
        let garbage = h.alloc();
        assert_eq!(h.would_collect(), BTreeSet::from([garbage]));
        assert!(h.contains(garbage));
    }

    #[test]
    fn locally_rooted_ignores_global_roots() {
        let mut h = heap();
        let root = h.alloc_local_root();
        let via_root = h.alloc();
        let via_global = h.alloc();
        h.add_ref(root, ObjRef::Local(via_root)).unwrap();
        h.register_global_root(via_global).unwrap();
        let rooted = h.locally_rooted();
        assert!(rooted.contains(&root));
        assert!(rooted.contains(&via_root));
        assert!(!rooted.contains(&via_global));
    }

    #[test]
    fn stats_display_is_nonempty() {
        assert!(!HeapStats::default().to_string().is_empty());
        assert!(!CollectionOutcome::default().to_string().is_empty());
    }

    #[test]
    fn collecting_empty_heap_is_noop() {
        let mut h = heap();
        let outcome = h.collect();
        assert!(outcome.is_noop());
        assert_eq!(outcome.live, 0);
    }

    // ------------------------------------------------------------------
    // Change-proportional collection. Debug builds already assert every
    // `collect` against `would_collect`; these pin the expected sets by
    // hand, so they also mean something in a release build.
    // ------------------------------------------------------------------

    /// A fresh heap with one local root.
    fn rooted_heap() -> (SiteHeap, ObjectId) {
        let mut h = heap();
        let root = h.alloc_local_root();
        (h, root)
    }

    fn link(h: &mut SiteHeap, from: ObjectId, to: ObjectId) {
        h.add_ref(from, ObjRef::Local(to)).unwrap();
    }

    #[test]
    fn fresh_object_never_linked_is_freed() {
        let (mut h, root) = rooted_heap();
        let kept = h.alloc();
        link(&mut h, root, kept);
        let orphan = h.alloc();
        assert_eq!(h.collect().freed, BTreeSet::from([orphan]));
        assert!(h.collect().is_noop(), "nothing changed since");
        assert_eq!(h.stats().collections, 2, "no-op calls still count");
    }

    #[test]
    fn cycle_cut_by_one_unlink_is_freed_whole() {
        let (mut h, root) = rooted_heap();
        let (a, b, c) = (h.alloc(), h.alloc(), h.alloc());
        link(&mut h, root, a);
        link(&mut h, a, b);
        link(&mut h, b, c);
        link(&mut h, c, a);
        assert!(h.collect().is_noop());
        h.remove_ref(root, ObjRef::Local(a)).unwrap();
        assert_eq!(h.collect().freed, BTreeSet::from([a, b, c]));
    }

    #[test]
    fn suspect_held_from_outside_the_region_survives_with_its_subtree() {
        let (mut h, root) = rooted_heap();
        let (holder, shared, leaf) = (h.alloc(), h.alloc(), h.alloc());
        link(&mut h, root, holder);
        link(&mut h, root, shared);
        link(&mut h, holder, shared);
        link(&mut h, shared, leaf);
        assert!(h.collect().is_noop());
        // `shared` becomes a suspect; `holder` is outside its region.
        h.remove_ref(root, ObjRef::Local(shared)).unwrap();
        assert!(h.collect().is_noop());
        h.remove_ref(holder, ObjRef::Local(shared)).unwrap();
        assert_eq!(h.collect().freed, BTreeSet::from([shared, leaf]));
    }

    #[test]
    fn garbage_pointing_into_a_live_structure_neither_keeps_nor_frees_it() {
        let (mut h, root) = rooted_heap();
        let (live, leaf) = (h.alloc(), h.alloc());
        link(&mut h, root, live);
        link(&mut h, live, leaf);
        assert!(h.collect().is_noop());
        // `live` and `leaf` fall inside the orphan's region; only the
        // predecessor outside it (`root`) may keep them.
        let orphan = h.alloc();
        link(&mut h, orphan, live);
        assert_eq!(h.collect().freed, BTreeSet::from([orphan]));
        // The orphan's reverse edge went with it: the next unlink must not
        // find a phantom holder.
        h.remove_ref(root, ObjRef::Local(live)).unwrap();
        assert_eq!(h.collect().freed, BTreeSet::from([live, leaf]));
    }

    #[test]
    fn demoted_global_root_reachable_from_a_local_root_survives() {
        let (mut h, root) = rooted_heap();
        let (exported, child, lone) = (h.alloc(), h.alloc(), h.alloc());
        link(&mut h, root, exported);
        link(&mut h, exported, child);
        h.register_global_root(exported).unwrap();
        h.register_global_root(lone).unwrap();
        assert!(h.collect().is_noop());
        h.unregister_global_root(exported);
        h.unregister_global_root(lone);
        assert_eq!(h.collect().freed, BTreeSet::from([lone]));
        h.remove_local_root(root);
        assert_eq!(h.collect().freed, BTreeSet::from([root, exported, child]));
    }

    #[test]
    fn slot_reused_between_collections_carries_no_stale_state() {
        let (mut h, root) = rooted_heap();
        let doomed = h.alloc();
        let doomed_slot = h.arena.slot_of(doomed).unwrap();
        link(&mut h, root, doomed);
        h.remove_ref(root, ObjRef::Local(doomed)).unwrap();
        assert_eq!(h.collect().freed, BTreeSet::from([doomed]));
        // The new tenant of the slot is held; the old tenant's suspect entry
        // and reverse edges must not leak onto it.
        let tenant = h.alloc();
        assert_eq!(h.arena.slot_of(tenant).unwrap(), doomed_slot);
        link(&mut h, root, tenant);
        assert!(h.collect().is_noop());
        h.remove_ref(root, ObjRef::Local(tenant)).unwrap();
        assert_eq!(h.collect().freed, BTreeSet::from([tenant]));
    }

    #[test]
    fn bounded_sweep_leaves_the_free_list_of_a_full_sweep() {
        // Suspects arrive in descending slot order; slot reuse must still
        // match the heap's image twin, whose suspects come from one mark in
        // ascending slot order.
        let (mut h, root) = rooted_heap();
        let objs: Vec<ObjectId> = (0..4).map(|_| h.alloc()).collect();
        for &obj in &objs {
            link(&mut h, root, obj);
        }
        for &obj in objs.iter().rev() {
            h.remove_ref(root, ObjRef::Local(obj)).unwrap();
        }
        let mut twin = SiteHeap::from_image(&h.image());
        let mut tenants = Vec::new();
        for h in [&mut h, &mut twin] {
            assert_eq!(h.collect().freed, objs.iter().copied().collect());
            let slots: Vec<u32> = (0..4)
                .map(|_| {
                    let id = h.alloc();
                    h.arena.slot_of(id).unwrap()
                })
                .collect();
            tenants.push(slots);
        }
        assert_eq!(tenants[0], tenants[1]);
    }

    #[test]
    fn a_reused_buffer_leaves_the_free_list_of_a_full_sweep() {
        // `bounded_sweep_leaves_the_free_list_of_a_full_sweep` through one
        // `collect_into` buffer, which starts out holding stale entries.
        let (mut h, root) = rooted_heap();
        let objs: Vec<ObjectId> = (0..4).map(|_| h.alloc()).collect();
        for &obj in &objs {
            link(&mut h, root, obj);
        }
        for &obj in objs.iter().rev() {
            h.remove_ref(root, ObjRef::Local(obj)).unwrap();
        }
        let mut twin = SiteHeap::from_image(&h.image());
        let mut freed = vec![root; 9];
        let mut tenants = Vec::new();
        for h in [&mut h, &mut twin] {
            h.collect_into(&mut freed);
            assert_eq!(freed, objs);
            let slots: Vec<u32> = (0..4)
                .map(|_| {
                    let id = h.alloc();
                    h.arena.slot_of(id).unwrap()
                })
                .collect();
            tenants.push(slots);
            h.collect_into(&mut freed);
            assert_eq!(freed.len(), 4, "the tenants are garbage too");
        }
        assert_eq!(tenants[0], tenants[1]);
        // A collection with no suspects empties the buffer and still counts.
        let collections = h.stats().collections;
        h.collect_into(&mut freed);
        assert!(freed.is_empty());
        assert_eq!(h.stats().collections, collections + 1);
    }

    #[test]
    fn first_collection_after_from_image_frees_the_garbage_it_carried() {
        let (mut h, root) = rooted_heap();
        let kept = h.alloc();
        link(&mut h, root, kept);
        let remote = GlobalAddr::new(1, 1);
        h.add_ref(kept, ObjRef::Remote(remote)).unwrap();
        let orphan = h.alloc();
        link(&mut h, orphan, kept);
        // The image carries no suspects: the restore finds the orphan by
        // one mark from the roots, with no delta taken first.
        let mut restored = SiteHeap::from_image(&h.image());
        assert_eq!(restored.collect().freed, BTreeSet::from([orphan]));
        assert_eq!(h.collect().freed, BTreeSet::from([orphan]));
        assert_eq!(restored, h);
        // The restored cache is the restored state, so the first delta
        // reports nothing the image already held.
        assert!(restored.take_delta().is_empty());
        assert!(restored.cached_snapshot().root_reaches(remote));
    }

    /// Drives `steps` pseudo-random mutator steps through two heaps: `lazy`
    /// collects at an irregular cadence and goes through an image round
    /// trip mid-stream; `eager` collects after every step. Remote
    /// references are added, received and removed, and collections free
    /// their holders, so the tracker's per-remote counts see every kind of
    /// update between `lazy`'s checked deltas. Every collection
    /// of either must free exactly what `would_collect` names just before
    /// it, so the full trace stays the reference in release builds too.
    /// `eager` collects through [`SiteHeap::collect`], `lazy` through one
    /// [`SiteHeap::collect_into`] buffer reused for the whole run, each of
    /// its collections checked against the allocating form on a clone.
    /// Operands are drawn from the objects `eager` still holds — what a
    /// mutator can reach — so both heaps accept the same stream.
    fn lazy_and_eager_twins_agree(seed: u64, steps: u64, deltas: bool) {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut lazy = heap();
        let mut eager = heap();
        let mut freed = Vec::new();
        for step in 0..steps {
            let live: Vec<ObjectId> = eager.iter().map(|obj| obj.id()).collect();
            let mut pick = || live.get((next() % live.len().max(1) as u64) as usize);
            let (a, b) = (pick().copied(), pick().copied());
            let remote = GlobalAddr::new((next() % 3 + 1) as u32, next() % 5 + 1);
            let op = next() % 14;
            for h in [&mut lazy, &mut eager] {
                match (op, a, b) {
                    (0, ..) => {
                        h.alloc();
                    }
                    (1, ..) | (_, None, _) | (_, _, None) => {
                        h.alloc_local_root();
                    }
                    (2 | 3, Some(parent), _) => {
                        let child = h.alloc();
                        h.add_ref(parent, ObjRef::Local(child)).unwrap();
                    }
                    (4, Some(from), Some(to)) => h.add_ref(from, ObjRef::Local(to)).unwrap(),
                    (5, Some(from), _) => h.add_ref(from, ObjRef::Remote(remote)).unwrap(),
                    (6, Some(recipient), Some(target)) => {
                        let local = h.addr_of(target);
                        let addr = if step % 2 == 0 { local } else { remote };
                        h.receive_ref(recipient, addr).unwrap();
                    }
                    (7, Some(from), Some(to)) => {
                        h.remove_ref(from, ObjRef::Local(to)).unwrap();
                    }
                    (8, Some(from), _) => {
                        // The first remote `from` holds: both heaps list
                        // their references in the same order.
                        let held = h.object(from).and_then(|obj| obj.remote_refs().next());
                        if let Some(addr) = held {
                            assert!(h.remove_ref(from, ObjRef::Remote(addr)).unwrap());
                        }
                    }
                    (9, Some(from), _) => h.clear_refs(from).unwrap(),
                    (10, Some(id), _) => h.add_local_root(id).unwrap(),
                    (11, Some(id), _) => {
                        h.remove_local_root(id);
                    }
                    (12, Some(id), _) => {
                        h.register_global_root(id).unwrap();
                    }
                    (_, Some(id), _) => {
                        h.unregister_global_root(id);
                    }
                }
            }
            if step == steps / 2 {
                // Garbage the image below carries: only the restore's root
                // mark can make it a suspect.
                lazy.alloc();
                eager.alloc();
            }
            collect_checked(&mut eager);
            if deltas && next() % 3 == 0 {
                let _ = lazy.take_delta();
                assert!(lazy.tracker_is_consistent(), "step {step}: tracker");
            }
            if step == steps / 2 {
                lazy = SiteHeap::from_image(&lazy.image());
            }
            if next() % 5 == 0 {
                collect_into_checked(&mut lazy, &mut freed);
                assert_eq!(lazy.image().objects, eager.image().objects, "step {step}");
            }
        }
        collect_into_checked(&mut lazy, &mut freed);
        assert_eq!(lazy.image().objects, eager.image().objects);
        assert_eq!(lazy.local_roots, eager.local_roots);
        assert_eq!(lazy.global_roots, eager.global_roots);
        assert_eq!(lazy.stats().collected, eager.stats().collected);
    }

    /// Collects, checking the freed set against the full trace.
    fn collect_checked(h: &mut SiteHeap) {
        let expected = h.would_collect();
        assert_eq!(h.collect().freed, expected);
    }

    /// Collects into `freed`, checking it against the full trace and
    /// against [`SiteHeap::collect`] on a clone: the same objects, in
    /// ascending order, and the same slots handed to the next allocations.
    fn collect_into_checked(h: &mut SiteHeap, freed: &mut Vec<ObjectId>) {
        let expected = h.would_collect();
        let mut allocating = h.clone();
        let outcome = allocating.collect();
        h.collect_into(freed);
        assert!(freed.iter().eq(&expected), "{freed:?} != {expected:?}");
        assert!(freed.iter().eq(&outcome.freed));
        assert_eq!(h.stats(), allocating.stats());
        let mut reused = h.clone();
        for _ in 0..freed.len() + 1 {
            let (a, b) = (reused.alloc(), allocating.alloc());
            assert_eq!(reused.arena.slot_of(a), allocating.arena.slot_of(b));
        }
    }

    #[test]
    fn bounded_collection_matches_an_eager_full_trace_twin() {
        for seed in [0x1234_5678_9abc_def0, 0xfeed_f00d_dead_beef] {
            lazy_and_eager_twins_agree(seed, 2_500, true);
        }
    }

    #[test]
    fn collection_cadence_is_invisible_without_deltas() {
        lazy_and_eager_twins_agree(0x9e37_79b9_7f4a_7c15, 2_000, false);
    }
}
