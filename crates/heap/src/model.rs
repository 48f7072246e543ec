//! The pluggable object model: the heap operations every implementation of
//! the per-site mutator/GC substrate must provide.
//!
//! Modeled on motoko-rts's `Memory` trait: the rest of the stack programs
//! against this narrow surface, so the storage policy behind it — the
//! production slab arena, or the map-based reference model used by the
//! differential tests — is swappable without touching callers. The trait
//! deliberately excludes representation-revealing operations (borrowed
//! object views, checkpoint images): those belong to the concrete heap.

use std::collections::BTreeSet;

use ggd_types::{GlobalAddr, ObjectId, SiteId};

use crate::collect::{CollectionOutcome, HeapStats};
use crate::object::ObjRef;
use crate::site_heap::{HeapError, SiteHeap};
use crate::snapshot::{EdgeDelta, ReachabilitySnapshot};

/// The operations a per-site object heap exposes to mutators, the local
/// collector driver and the GGD layer.
pub trait ObjectModel {
    /// The site this heap belongs to.
    fn site(&self) -> SiteId;

    /// Allocates a fresh, unrooted, empty object.
    fn alloc(&mut self) -> ObjectId;

    /// Allocates a fresh object and designates it a local root.
    fn alloc_local_root(&mut self) -> ObjectId;

    /// True when the object currently exists on this heap.
    fn contains(&self, id: ObjectId) -> bool;

    /// Number of live (not yet collected) objects.
    fn object_count(&self) -> usize;

    /// The references held by an object, in list order.
    fn refs_of(&self, id: ObjectId) -> Option<Vec<ObjRef>>;

    /// Adds a reference from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when `from` does not exist, or
    /// when `to` is a local reference to an object that does not exist.
    fn add_ref(&mut self, from: ObjectId, to: ObjRef) -> Result<(), HeapError>;

    /// Removes one occurrence of the reference `to` from `from`, swapping
    /// the last reference into its place.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when `from` does not exist.
    fn remove_ref(&mut self, from: ObjectId, to: ObjRef) -> Result<bool, HeapError>;

    /// Clears every reference held by `from`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when `from` does not exist.
    fn clear_refs(&mut self, from: ObjectId) -> Result<(), HeapError>;

    /// Stores an incoming reference (delivered by a mutator message) into a
    /// slot of the receiving object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when the recipient — or a
    /// same-site target — does not exist.
    fn receive_ref(&mut self, recipient: ObjectId, addr: GlobalAddr) -> Result<(), HeapError>;

    /// Designates an existing object as a local root.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when the object does not exist.
    fn add_local_root(&mut self, id: ObjectId) -> Result<(), HeapError>;

    /// Removes an object from the local root set.
    fn remove_local_root(&mut self, id: ObjectId) -> bool;

    /// True when the object is currently a designated local root.
    fn is_local_root(&self, id: ObjectId) -> bool;

    /// Registers an object in the conservative global root set.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownObject`] when the object does not exist.
    fn register_global_root(&mut self, id: ObjectId) -> Result<bool, HeapError>;

    /// Removes an object from the global root set.
    fn unregister_global_root(&mut self, id: ObjectId) -> bool;

    /// True when the object is currently in the global root set.
    fn is_global_root(&self, id: ObjectId) -> bool;

    /// Runs a local collection: frees exactly what a stop-the-world
    /// mark-sweep from the local and global roots would free.
    fn collect(&mut self) -> CollectionOutcome;

    /// The set of objects a collection run right now would free.
    fn would_collect(&self) -> BTreeSet<ObjectId>;

    /// Takes a full reachability snapshot (the O(heap) rescan).
    fn snapshot(&self) -> ReachabilitySnapshot;

    /// Produces the edge/rootedness difference accumulated since the last
    /// call (the incremental pipeline).
    fn take_delta(&mut self) -> EdgeDelta;

    /// Allocation and collection statistics.
    fn stats(&self) -> HeapStats;
}

impl ObjectModel for SiteHeap {
    fn site(&self) -> SiteId {
        SiteHeap::site(self)
    }

    fn alloc(&mut self) -> ObjectId {
        SiteHeap::alloc(self)
    }

    fn alloc_local_root(&mut self) -> ObjectId {
        SiteHeap::alloc_local_root(self)
    }

    fn contains(&self, id: ObjectId) -> bool {
        SiteHeap::contains(self, id)
    }

    fn object_count(&self) -> usize {
        self.len()
    }

    fn refs_of(&self, id: ObjectId) -> Option<Vec<ObjRef>> {
        self.object(id).map(|obj| obj.refs_vec())
    }

    fn add_ref(&mut self, from: ObjectId, to: ObjRef) -> Result<(), HeapError> {
        SiteHeap::add_ref(self, from, to)
    }

    fn remove_ref(&mut self, from: ObjectId, to: ObjRef) -> Result<bool, HeapError> {
        SiteHeap::remove_ref(self, from, to)
    }

    fn clear_refs(&mut self, from: ObjectId) -> Result<(), HeapError> {
        SiteHeap::clear_refs(self, from)
    }

    fn receive_ref(&mut self, recipient: ObjectId, addr: GlobalAddr) -> Result<(), HeapError> {
        SiteHeap::receive_ref(self, recipient, addr)
    }

    fn add_local_root(&mut self, id: ObjectId) -> Result<(), HeapError> {
        SiteHeap::add_local_root(self, id)
    }

    fn remove_local_root(&mut self, id: ObjectId) -> bool {
        SiteHeap::remove_local_root(self, id)
    }

    fn is_local_root(&self, id: ObjectId) -> bool {
        SiteHeap::is_local_root(self, id)
    }

    fn register_global_root(&mut self, id: ObjectId) -> Result<bool, HeapError> {
        SiteHeap::register_global_root(self, id)
    }

    fn unregister_global_root(&mut self, id: ObjectId) -> bool {
        SiteHeap::unregister_global_root(self, id)
    }

    fn is_global_root(&self, id: ObjectId) -> bool {
        SiteHeap::is_global_root(self, id)
    }

    fn collect(&mut self) -> CollectionOutcome {
        SiteHeap::collect(self)
    }

    fn would_collect(&self) -> BTreeSet<ObjectId> {
        SiteHeap::would_collect(self)
    }

    fn snapshot(&self) -> ReachabilitySnapshot {
        SiteHeap::snapshot(self)
    }

    fn take_delta(&mut self) -> EdgeDelta {
        SiteHeap::take_delta(self)
    }

    fn stats(&self) -> HeapStats {
        *SiteHeap::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Exercise SiteHeap through the trait surface, as generic code would.
    fn drive<M: ObjectModel>(heap: &mut M) -> (usize, EdgeDelta) {
        let root = heap.alloc_local_root();
        let child = heap.alloc();
        heap.add_ref(root, ObjRef::Local(child)).unwrap();
        heap.add_ref(child, ObjRef::Remote(GlobalAddr::new(9, 1)))
            .unwrap();
        let garbage = heap.alloc();
        heap.add_ref(garbage, ObjRef::Remote(GlobalAddr::new(9, 2)))
            .unwrap();
        heap.collect();
        (heap.object_count(), heap.take_delta())
    }

    #[test]
    fn site_heap_works_through_the_trait() {
        let mut heap = SiteHeap::new(SiteId::new(4));
        let (live, delta) = drive(&mut heap);
        assert_eq!(live, 2);
        assert_eq!(delta.created().count(), 1);
        assert_eq!(ObjectModel::site(&heap), SiteId::new(4));
        assert_eq!(ObjectModel::stats(&heap).allocated, 3);
    }
}
