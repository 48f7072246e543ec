//! The map-based reference heap: the pre-arena `BTreeMap<ObjectId,
//! HeapObject>` implementation, kept as an executable specification.
//!
//! [`RefHeap`] implements [`ObjectModel`] with the simplest data structures
//! that can be right — owned objects in an ordered map, reference lists as
//! plain `Vec`s, snapshots recomputed from scratch and deltas obtained by
//! *diffing* successive snapshots rather than by incremental bookkeeping.
//! The differential tests replay identical op streams through a [`RefHeap`]
//! and a production [`SiteHeap`](crate::SiteHeap) and require every
//! observable — reference lists, collection outcomes, snapshots, deltas —
//! to match op-for-op, which pins the arena implementation to this model.
//!
//! Compiled only for tests and under the `reference-model` feature; the
//! production build carries none of it.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ggd_types::{GlobalAddr, ObjectId, SiteId, VertexId};

use crate::collect::{CollectionOutcome, HeapStats};
use crate::model::ObjectModel;
use crate::object::ObjRef;
use crate::site_heap::HeapError;
use crate::snapshot::{EdgeDelta, ReachabilitySnapshot, VertexEdgeDelta};

/// One object of the reference heap: an identity plus the multiset of
/// references it currently holds.
///
/// Slots are a multiset rather than a set: an object may legitimately hold
/// the same reference twice (e.g. both `prev` and `next` of a one-element
/// doubly-linked list), and dropping one copy must not drop the other.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapObject {
    id: ObjectId,
    slots: Vec<ObjRef>,
}

impl HeapObject {
    /// Creates an empty object.
    pub fn new(id: ObjectId) -> Self {
        HeapObject {
            id,
            slots: Vec::new(),
        }
    }

    /// The object's identity within its site.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The references currently held, in insertion order.
    pub fn slots(&self) -> &[ObjRef] {
        &self.slots
    }

    /// Number of references held.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Adds a reference.
    pub fn push_ref(&mut self, r: ObjRef) {
        self.slots.push(r);
    }

    /// Removes one occurrence of a reference; returns whether one was found.
    pub fn remove_ref(&mut self, r: ObjRef) -> bool {
        if let Some(pos) = self.slots.iter().position(|&s| s == r) {
            self.slots.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes every reference held by the object.
    pub fn clear_refs(&mut self) {
        self.slots.clear();
    }

    /// True when the object holds at least one occurrence of `r`.
    pub fn holds(&self, r: ObjRef) -> bool {
        self.slots.contains(&r)
    }

    /// Iterates over the local (same-site) references held.
    pub fn local_refs(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots.iter().filter_map(|r| r.as_local())
    }

    /// Iterates over the remote references (proxies) held.
    pub fn remote_refs(&self) -> impl Iterator<Item = GlobalAddr> + '_ {
        self.slots.iter().filter_map(|r| r.as_remote())
    }
}

impl fmt::Display for HeapObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.id)?;
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{slot}")?;
        }
        write!(f, "]")
    }
}

/// The map-of-objects heap, kept as the reference model for differential
/// testing of the arena implementation.
#[derive(Debug, Clone)]
pub struct RefHeap {
    site: SiteId,
    objects: BTreeMap<ObjectId, HeapObject>,
    local_roots: BTreeSet<ObjectId>,
    global_roots: BTreeSet<ObjectId>,
    next_object: u64,
    stats: HeapStats,
    /// The snapshot as of the previous `take_delta`; `None` until the first
    /// call (whose delta then reports the heap's entire contribution).
    baseline: Option<ReachabilitySnapshot>,
}

impl RefHeap {
    /// Creates an empty reference heap for `site`.
    pub fn new(site: SiteId) -> Self {
        RefHeap {
            site,
            objects: BTreeMap::new(),
            local_roots: BTreeSet::new(),
            global_roots: BTreeSet::new(),
            next_object: 1,
            stats: HeapStats::default(),
            baseline: None,
        }
    }

    fn reach_with_remotes<I>(&self, seeds: I) -> (BTreeSet<ObjectId>, BTreeSet<GlobalAddr>)
    where
        I: IntoIterator<Item = ObjectId>,
    {
        let mut visited = BTreeSet::new();
        let mut remotes = BTreeSet::new();
        let mut stack: Vec<ObjectId> = seeds
            .into_iter()
            .filter(|id| self.objects.contains_key(id))
            .collect();
        while let Some(id) = stack.pop() {
            if !visited.insert(id) {
                continue;
            }
            if let Some(obj) = self.objects.get(&id) {
                for r in obj.slots() {
                    match *r {
                        ObjRef::Local(next) => {
                            if self.objects.contains_key(&next) && !visited.contains(&next) {
                                stack.push(next);
                            }
                        }
                        ObjRef::Remote(addr) => {
                            remotes.insert(addr);
                        }
                    }
                }
            }
        }
        (visited, remotes)
    }
}

impl ObjectModel for RefHeap {
    fn site(&self) -> SiteId {
        self.site
    }

    fn alloc(&mut self) -> ObjectId {
        let id = ObjectId::new(self.next_object);
        self.next_object += 1;
        self.objects.insert(id, HeapObject::new(id));
        self.stats.allocated += 1;
        id
    }

    fn alloc_local_root(&mut self) -> ObjectId {
        let id = self.alloc();
        self.local_roots.insert(id);
        id
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn refs_of(&self, id: ObjectId) -> Option<Vec<ObjRef>> {
        self.objects.get(&id).map(|obj| obj.slots().to_vec())
    }

    fn add_ref(&mut self, from: ObjectId, to: ObjRef) -> Result<(), HeapError> {
        if let ObjRef::Local(target) = to {
            if !self.objects.contains_key(&target) {
                return Err(HeapError::UnknownObject(target));
            }
        }
        let obj = self
            .objects
            .get_mut(&from)
            .ok_or(HeapError::UnknownObject(from))?;
        obj.push_ref(to);
        Ok(())
    }

    fn remove_ref(&mut self, from: ObjectId, to: ObjRef) -> Result<bool, HeapError> {
        let obj = self
            .objects
            .get_mut(&from)
            .ok_or(HeapError::UnknownObject(from))?;
        Ok(obj.remove_ref(to))
    }

    fn clear_refs(&mut self, from: ObjectId) -> Result<(), HeapError> {
        let obj = self
            .objects
            .get_mut(&from)
            .ok_or(HeapError::UnknownObject(from))?;
        obj.clear_refs();
        Ok(())
    }

    fn receive_ref(&mut self, recipient: ObjectId, addr: GlobalAddr) -> Result<(), HeapError> {
        let reference = if addr.site() == self.site {
            ObjRef::Local(addr.object())
        } else {
            ObjRef::Remote(addr)
        };
        if let ObjRef::Local(target) = reference {
            if !self.objects.contains_key(&target) {
                return Err(HeapError::UnknownObject(target));
            }
        }
        if !self.objects.contains_key(&recipient) {
            return Err(HeapError::UnknownObject(recipient));
        }
        self.add_ref(recipient, reference)
    }

    fn add_local_root(&mut self, id: ObjectId) -> Result<(), HeapError> {
        if !self.objects.contains_key(&id) {
            return Err(HeapError::UnknownObject(id));
        }
        self.local_roots.insert(id);
        Ok(())
    }

    fn remove_local_root(&mut self, id: ObjectId) -> bool {
        self.local_roots.remove(&id)
    }

    fn is_local_root(&self, id: ObjectId) -> bool {
        self.local_roots.contains(&id)
    }

    fn register_global_root(&mut self, id: ObjectId) -> Result<bool, HeapError> {
        if !self.objects.contains_key(&id) {
            return Err(HeapError::UnknownObject(id));
        }
        Ok(self.global_roots.insert(id))
    }

    fn unregister_global_root(&mut self, id: ObjectId) -> bool {
        self.global_roots.remove(&id)
    }

    fn is_global_root(&self, id: ObjectId) -> bool {
        self.global_roots.contains(&id)
    }

    fn collect(&mut self) -> CollectionOutcome {
        let freed = self.would_collect();
        for id in &freed {
            self.objects.remove(id);
            self.local_roots.remove(id);
            self.global_roots.remove(id);
        }

        let live = self.objects.len();
        self.stats.collections += 1;
        self.stats.collected += freed.len() as u64;

        CollectionOutcome { freed, live }
    }

    fn would_collect(&self) -> BTreeSet<ObjectId> {
        let roots: BTreeSet<ObjectId> = self
            .local_roots
            .union(&self.global_roots)
            .copied()
            .collect();
        let (marked, _) = self.reach_with_remotes(roots);
        self.objects
            .keys()
            .copied()
            .filter(|id| !marked.contains(id))
            .collect()
    }

    fn snapshot(&self) -> ReachabilitySnapshot {
        let (locally_reachable, from_local_roots) =
            self.reach_with_remotes(self.local_roots.iter().copied());
        let mut per_global_root = BTreeMap::new();
        let mut locally_rooted_global_roots = BTreeSet::new();
        for id in &self.global_roots {
            let (_, remotes) = self.reach_with_remotes([*id]);
            per_global_root.insert(*id, remotes);
            if locally_reachable.contains(id) {
                locally_rooted_global_roots.insert(*id);
            }
        }
        ReachabilitySnapshot::from_parts(
            self.site,
            from_local_roots,
            per_global_root,
            locally_rooted_global_roots,
        )
    }

    /// The reference delta: a full rescan diffed against the previous one.
    /// No incremental state at all — which is exactly what makes it a
    /// trustworthy oracle for the tracker's output.
    fn take_delta(&mut self) -> EdgeDelta {
        let new = self.snapshot();
        let old = self.baseline.take().unwrap_or_default();

        let new_roots: BTreeSet<ObjectId> = new.global_roots().collect();
        let removed: Vec<ObjectId> = old
            .global_roots()
            .filter(|id| !new_roots.contains(id))
            .collect();

        let mut rootedness: Vec<(ObjectId, bool)> = Vec::new();
        for &id in &new_roots {
            let was = old.is_locally_rooted(id);
            let is = new.is_locally_rooted(id);
            if was != is {
                rootedness.push((id, is));
            }
        }

        let mut edges: Vec<VertexEdgeDelta> = Vec::new();
        let mut vertices: BTreeSet<VertexId> = BTreeSet::new();
        vertices.insert(VertexId::site_root(self.site.index()));
        for &id in &new_roots {
            vertices.insert(VertexId::from(GlobalAddr::from_parts(self.site, id)));
        }
        for &id in &removed {
            vertices.insert(VertexId::from(GlobalAddr::from_parts(self.site, id)));
        }
        for vertex in vertices {
            let old_set = old.edges_of(vertex);
            let new_set = new.edges_of(vertex);
            let created: Vec<GlobalAddr> = new_set.difference(&old_set).copied().collect();
            let destroyed: Vec<GlobalAddr> = old_set.difference(&new_set).copied().collect();
            if !created.is_empty() || !destroyed.is_empty() {
                edges.push(VertexEdgeDelta {
                    vertex,
                    created,
                    destroyed,
                });
            }
        }

        self.baseline = Some(new);
        let mut delta = EdgeDelta::empty(self.site);
        delta.rootedness = rootedness;
        delta.removed = removed;
        delta.edges = edges;
        delta
    }

    fn stats(&self) -> HeapStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site_heap::SiteHeap;

    #[test]
    fn slots_are_a_multiset() {
        let mut obj = HeapObject::new(ObjectId::new(1));
        let r = ObjRef::Local(ObjectId::new(2));
        obj.push_ref(r);
        obj.push_ref(r);
        assert_eq!(obj.slot_count(), 2);
        assert!(obj.remove_ref(r));
        assert!(obj.holds(r));
        assert!(obj.remove_ref(r));
        assert!(!obj.holds(r));
        assert!(!obj.remove_ref(r));
    }

    #[test]
    fn local_and_remote_iterators() {
        let mut obj = HeapObject::new(ObjectId::new(1));
        obj.push_ref(ObjRef::Local(ObjectId::new(2)));
        obj.push_ref(ObjRef::Remote(GlobalAddr::new(3, 4)));
        obj.push_ref(ObjRef::Local(ObjectId::new(5)));
        let locals: Vec<_> = obj.local_refs().collect();
        let remotes: Vec<_> = obj.remote_refs().collect();
        assert_eq!(locals, vec![ObjectId::new(2), ObjectId::new(5)]);
        assert_eq!(remotes, vec![GlobalAddr::new(3, 4)]);
        assert_eq!(obj.id(), ObjectId::new(1));
        assert_eq!(obj.slots().len(), 3);
    }

    #[test]
    fn clear_refs_empties_object() {
        let mut obj = HeapObject::new(ObjectId::new(1));
        obj.push_ref(ObjRef::Local(ObjectId::new(2)));
        obj.clear_refs();
        assert_eq!(obj.slot_count(), 0);
        assert_eq!(obj.to_string(), "o1[]");
    }

    /// Checks that every observable of the two heaps agrees right now.
    fn assert_equivalent(arena: &SiteHeap, reference: &RefHeap, context: &str) {
        assert_eq!(
            arena.len(),
            reference.object_count(),
            "{context}: live count"
        );
        for obj in arena.iter() {
            assert_eq!(
                Some(obj.refs_vec()),
                reference.refs_of(obj.id()),
                "{context}: refs of {}",
                obj.id()
            );
        }
        assert_eq!(
            arena.snapshot(),
            ObjectModel::snapshot(reference),
            "{context}: snapshot"
        );
        assert_eq!(
            *arena.stats(),
            ObjectModel::stats(reference),
            "{context}: stats"
        );
    }

    #[test]
    fn arena_and_reference_heap_agree_under_random_workload() {
        // The in-crate differential test: one pseudo-random op stream driven
        // through both implementations, with every outcome — results,
        // errors, collection reports, snapshots, deltas — compared at each
        // step. The explorer-corpus proptest in `ggd-explore` extends this
        // to the pinned multi-site corpus streams.
        let mut state = 0xfeed_f00d_dead_beefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut arena = SiteHeap::new(SiteId::new(2));
        let mut reference = RefHeap::new(SiteId::new(2));
        let mut ids: Vec<ObjectId> = Vec::new();
        for step in 0..600u64 {
            let pick = |ids: &Vec<ObjectId>, n: u64| ids[(n % ids.len() as u64) as usize];
            match next() % 12 {
                0 => {
                    let (a, b) = (arena.alloc(), reference.alloc());
                    assert_eq!(a, b, "step {step}: alloc");
                    ids.push(a);
                }
                1 => {
                    let (a, b) = (arena.alloc_local_root(), reference.alloc_local_root());
                    assert_eq!(a, b, "step {step}: alloc_local_root");
                    ids.push(a);
                }
                2 | 3 if !ids.is_empty() => {
                    let from = pick(&ids, next());
                    let to = ObjRef::Local(pick(&ids, next()));
                    assert_eq!(
                        arena.add_ref(from, to),
                        reference.add_ref(from, to),
                        "step {step}: add_ref"
                    );
                }
                4 if !ids.is_empty() => {
                    let from = pick(&ids, next());
                    let to =
                        ObjRef::Remote(GlobalAddr::new((next() % 3 + 3) as u32, next() % 5 + 1));
                    assert_eq!(
                        arena.add_ref(from, to),
                        reference.add_ref(from, to),
                        "step {step}: add remote"
                    );
                }
                5 if !ids.is_empty() => {
                    let from = pick(&ids, next());
                    let to = ObjRef::Local(pick(&ids, next()));
                    assert_eq!(
                        arena.remove_ref(from, to),
                        reference.remove_ref(from, to),
                        "step {step}: remove_ref"
                    );
                }
                6 if !ids.is_empty() => {
                    let from = pick(&ids, next());
                    assert_eq!(
                        arena.clear_refs(from),
                        reference.clear_refs(from),
                        "step {step}: clear_refs"
                    );
                }
                7 if !ids.is_empty() => {
                    let id = pick(&ids, next());
                    assert_eq!(
                        arena.register_global_root(id),
                        reference.register_global_root(id),
                        "step {step}: register"
                    );
                }
                8 if !ids.is_empty() => {
                    let id = pick(&ids, next());
                    assert_eq!(
                        arena.unregister_global_root(id),
                        reference.unregister_global_root(id),
                        "step {step}: unregister"
                    );
                }
                9 if !ids.is_empty() => {
                    let id = pick(&ids, next());
                    assert_eq!(
                        arena.remove_local_root(id),
                        reference.remove_local_root(id),
                        "step {step}: remove_local_root"
                    );
                }
                10 => {
                    assert_eq!(arena.collect(), reference.collect(), "step {step}: collect");
                }
                _ => {
                    assert_eq!(
                        arena.take_delta(),
                        reference.take_delta(),
                        "step {step}: delta"
                    );
                    assert!(arena.tracker_is_consistent(), "step {step}: tracker");
                }
            }
            if step % 7 == 0 {
                assert_equivalent(&arena, &reference, &format!("step {step}"));
            }
        }
        assert_equivalent(&arena, &reference, "final");
        assert_eq!(arena.take_delta(), reference.take_delta(), "final delta");
    }
}
