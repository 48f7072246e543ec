//! Checkpoint images: the durable representation of a [`SiteHeap`].
//!
//! A [`HeapImage`] captures everything a heap needs to come back after a
//! crash with *identical observable behaviour*: the objects with their
//! reference lists in original order (list order matters — `remove_ref`
//! drops the first matching slot, so a reordered image would make replayed
//! unlinks diverge), both root sets, the allocation counter (so replayed
//! `alloc`s reassign the very same [`ObjectId`]s) and the lifetime
//! statistics. Slot placement is not part of it: objects are named by
//! identity alone, so a restored heap packs them into fresh slots in
//! identity order.
//!
//! The image's byte layout is written in one place, `ggd-store`'s
//! `write_heap_image`, from any [`HeapImageSource`]: the live [`SiteHeap`]
//! (the checkpoint path writes it straight into the sealed frame, building
//! no [`HeapImage`]) or a decoded [`HeapImage`]. It is read in one place,
//! `ggd-store`'s `read_heap_image`, into any [`HeapImageSink`]: a restored
//! [`SiteHeap`] (recovery decodes each object straight into the arena,
//! building no [`HeapImage`]) or an owned [`HeapImage`].
//!
//! The incremental-delta tracker is deliberately *not* part of the image:
//! it is a cache, which a restored heap rebuilds once its objects are in
//! ([`HeapImageSink::finish`], [`SiteHeap::from_image`]). The first
//! [`SiteHeap::take_delta`] after a restore therefore reports only what
//! changed since, and the first [`SiteHeap::collect`] frees exactly the
//! garbage the image carried plus whatever died since.

use std::collections::BTreeSet;

use ggd_types::{ObjectId, SiteId};

use crate::collect::HeapStats;
use crate::object::ObjRef;
use crate::site_heap::SiteHeap;

/// A heap's durable state as the image writer reads it, borrowed: every
/// sequence in the order the image lists it. A live [`SiteHeap`] and the
/// [`HeapImage`] it would produce yield the same parts.
pub trait HeapImageSource {
    /// The site the heap belongs to.
    fn site(&self) -> SiteId;
    /// The next object identity the heap will allocate.
    fn next_object(&self) -> u64;
    /// Lifetime allocation/collection statistics.
    fn stats(&self) -> HeapStats;
    /// The designated local roots, ascending.
    fn local_roots(&self) -> impl ExactSizeIterator<Item = ObjectId>;
    /// The conservative global root set, ascending.
    fn global_roots(&self) -> impl ExactSizeIterator<Item = ObjectId>;
    /// Number of live objects: the length of [`HeapImageSource::objects`].
    fn object_count(&self) -> usize;
    /// Every live object with its references in list order, ascending by
    /// identity.
    fn objects(&self) -> impl Iterator<Item = (ObjectId, impl ExactSizeIterator<Item = ObjRef>)>;
}

impl HeapImageSource for SiteHeap {
    fn site(&self) -> SiteId {
        SiteHeap::site(self)
    }

    fn next_object(&self) -> u64 {
        self.next_object
    }

    fn stats(&self) -> HeapStats {
        *SiteHeap::stats(self)
    }

    fn local_roots(&self) -> impl ExactSizeIterator<Item = ObjectId> {
        self.local_roots.iter().copied()
    }

    fn global_roots(&self) -> impl ExactSizeIterator<Item = ObjectId> {
        self.global_roots.iter().copied()
    }

    fn object_count(&self) -> usize {
        self.len()
    }

    fn objects(&self) -> impl Iterator<Item = (ObjectId, impl ExactSizeIterator<Item = ObjRef>)> {
        self.iter().map(|obj| (obj.id(), obj.refs()))
    }
}

impl HeapImageSource for HeapImage {
    fn site(&self) -> SiteId {
        self.site
    }

    fn next_object(&self) -> u64 {
        self.next_object
    }

    fn stats(&self) -> HeapStats {
        self.stats
    }

    fn local_roots(&self) -> impl ExactSizeIterator<Item = ObjectId> {
        self.local_roots.iter().copied()
    }

    fn global_roots(&self) -> impl ExactSizeIterator<Item = ObjectId> {
        self.global_roots.iter().copied()
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn objects(&self) -> impl Iterator<Item = (ObjectId, impl ExactSizeIterator<Item = ObjRef>)> {
        self.objects
            .iter()
            .map(|(id, refs)| (*id, refs.iter().copied()))
    }
}

/// A heap being rebuilt from its image, fed part by part in layout order by
/// the image reader: the read-side twin of [`HeapImageSource`]. The reader
/// checks every part before handing it over — object identities strictly
/// ascend within `1..next_object` — and a malformed image fails the read,
/// dropping the half-built sink. A restored [`SiteHeap`] and an owned
/// [`HeapImage`] are the two sinks.
pub trait HeapImageSink: Sized {
    /// Starts the heap of `site` from the image's header, its two root sets
    /// and the number of objects that follow.
    fn begin(
        site: SiteId,
        next_object: u64,
        stats: HeapStats,
        local_roots: BTreeSet<ObjectId>,
        global_roots: BTreeSet<ObjectId>,
        objects: usize,
    ) -> Self;
    /// Adds the next object, with its references in list order.
    fn object(&mut self, id: ObjectId, refs: &[ObjRef]);
    /// Ends the image once its last object is in.
    fn finish(&mut self);
}

/// Each object goes into the arena as it is read, its references onto its
/// chunk chain; the root sets are moved in. Once the last object is in, the
/// roots are flagged and the delta tracker is primed — the heap
/// [`SiteHeap::from_image`] would build from the same image.
impl HeapImageSink for SiteHeap {
    fn begin(
        site: SiteId,
        next_object: u64,
        stats: HeapStats,
        local_roots: BTreeSet<ObjectId>,
        global_roots: BTreeSet<ObjectId>,
        objects: usize,
    ) -> Self {
        let mut heap = SiteHeap::new(site);
        heap.next_object = next_object;
        heap.stats = stats;
        heap.local_roots = local_roots;
        heap.global_roots = global_roots;
        heap.arena.reserve(objects);
        heap
    }

    fn object(&mut self, id: ObjectId, refs: &[ObjRef]) {
        let slot = self.arena.insert(id);
        for &r in refs {
            self.arena.push_ref(slot, r);
        }
    }

    fn finish(&mut self) {
        self.flag_roots();
        self.prime_tracker();
    }
}

impl HeapImageSink for HeapImage {
    fn begin(
        site: SiteId,
        next_object: u64,
        stats: HeapStats,
        local_roots: BTreeSet<ObjectId>,
        global_roots: BTreeSet<ObjectId>,
        objects: usize,
    ) -> Self {
        HeapImage {
            site,
            next_object,
            stats,
            local_roots,
            global_roots,
            objects: Vec::with_capacity(objects),
        }
    }

    fn object(&mut self, id: ObjectId, refs: &[ObjRef]) {
        self.objects.push((id, refs.to_vec()));
    }

    fn finish(&mut self) {}
}

/// The durable state of one [`SiteHeap`], as written into checkpoints by
/// `ggd-store`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapImage {
    /// The site the heap belongs to.
    pub site: SiteId,
    /// The next object identity the heap will allocate.
    pub next_object: u64,
    /// Lifetime allocation/collection statistics.
    pub stats: HeapStats,
    /// The designated local roots.
    pub local_roots: BTreeSet<ObjectId>,
    /// The conservative global root set.
    pub global_roots: BTreeSet<ObjectId>,
    /// Every live object with its references in list order, sorted by id.
    pub objects: Vec<(ObjectId, Vec<ObjRef>)>,
}

impl SiteHeap {
    /// Captures the heap's durable state as an owned image. The checkpoint
    /// path does not build one: it writes the same parts straight from the
    /// heap ([`HeapImageSource`]).
    pub fn image(&self) -> HeapImage {
        HeapImage {
            site: self.site(),
            next_object: self.next_object,
            stats: *self.stats(),
            local_roots: self.local_roots().collect(),
            global_roots: self.global_roots().collect(),
            objects: self.iter().map(|obj| (obj.id(), obj.refs_vec())).collect(),
        }
    }

    /// Rebuilds a heap from an owned checkpoint image, its objects packed
    /// into fresh slots in identity order. The image holds no history, so
    /// the delta tracker is primed once from the rebuilt heap: its cache is
    /// the restored snapshot, and the objects no root reaches are the next
    /// collection's suspects. Recovery builds no
    /// image: it reads the checkpoint straight into a heap
    /// ([`HeapImageSink`]), which must equal this rebuild.
    pub fn from_image(image: &HeapImage) -> SiteHeap {
        let mut heap = SiteHeap::new(image.site);
        heap.next_object = image.next_object;
        heap.stats = image.stats;
        for (id, refs) in &image.objects {
            let slot = heap.arena.insert(*id);
            for &r in refs {
                heap.arena.push_ref(slot, r);
            }
        }
        heap.local_roots = image.local_roots.clone();
        heap.global_roots = image.global_roots.clone();
        heap.flag_roots();
        heap.prime_tracker();
        heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_types::GlobalAddr;

    #[test]
    fn image_round_trips_a_mutated_heap() {
        let mut h = SiteHeap::new(SiteId::new(3));
        let root = h.alloc_local_root();
        let mid = h.alloc();
        let exported = h.alloc();
        h.register_global_root(exported).unwrap();
        h.add_ref(root, ObjRef::Local(mid)).unwrap();
        h.add_ref(mid, ObjRef::Remote(GlobalAddr::new(1, 7)))
            .unwrap();
        // Duplicate slots must survive the round trip in order.
        h.add_ref(mid, ObjRef::Remote(GlobalAddr::new(1, 7)))
            .unwrap();
        h.add_ref(exported, ObjRef::Local(root)).unwrap();
        let garbage = h.alloc();
        h.collect();
        assert!(!h.contains(garbage));

        let image = h.image();
        let back = SiteHeap::from_image(&image);
        assert_eq!(back, h, "restored heap equals the original");

        assert_eq!(back.image(), image, "image round trip is exact");

        // The allocation counter continues where it left off.
        let mut h2 = SiteHeap::from_image(&image);
        let fresh_a = h.alloc();
        let fresh_b = h2.alloc();
        assert_eq!(fresh_a, fresh_b);
    }

    /// Feeds `image` to a sink part by part, as the image reader does.
    fn through_sink<S: HeapImageSink>(image: &HeapImage) -> S {
        let mut sink = S::begin(
            image.site,
            image.next_object,
            image.stats,
            image.local_roots.clone(),
            image.global_roots.clone(),
            image.objects.len(),
        );
        for (id, refs) in &image.objects {
            sink.object(*id, refs);
        }
        sink.finish();
        sink
    }

    #[test]
    fn a_heap_read_from_an_image_equals_its_rebuild() {
        let mut h = SiteHeap::new(SiteId::new(1));
        let root = h.alloc_local_root();
        let held = h.alloc();
        let loose = h.alloc();
        h.register_global_root(held).unwrap();
        h.register_global_root(loose).unwrap();
        h.add_ref(root, ObjRef::Local(held)).unwrap();
        for obj in 0..9 {
            // Long enough to span several chunks, duplicates in order.
            h.add_ref(held, ObjRef::Remote(GlobalAddr::new(2, obj % 4)))
                .unwrap();
        }
        h.add_ref(loose, ObjRef::Local(root)).unwrap();
        let garbage = h.alloc();
        h.add_ref(garbage, ObjRef::Remote(GlobalAddr::new(3, 1)))
            .unwrap();

        let image = h.image();
        assert_eq!(through_sink::<HeapImage>(&image), image);
        let read: SiteHeap = through_sink(&image);
        let rebuilt = SiteHeap::from_image(&image);
        assert_eq!(read, rebuilt);
        assert_eq!(read, h);
        assert!(read.tracker_is_consistent());
        assert_eq!(read.cached_snapshot(), rebuilt.cached_snapshot());
        assert_eq!(
            read.object(root).unwrap().refs_vec(),
            h.object(root).unwrap().refs_vec()
        );
        let (mut read, mut rebuilt) = (read, rebuilt);
        assert_eq!(read.collect().freed, rebuilt.collect().freed);
        assert_eq!(read.alloc(), rebuilt.alloc());
    }

    #[test]
    fn restored_tracker_equals_a_rescan() {
        // Checked here in release builds too: from_image primes the cache
        // and rootedness bitset by its own marks, not by a rescan.
        let mut h = SiteHeap::new(SiteId::new(2));
        let root = h.alloc_local_root();
        let held = h.alloc();
        let loose = h.alloc();
        h.register_global_root(held).unwrap();
        h.register_global_root(loose).unwrap();
        h.add_ref(root, ObjRef::Local(held)).unwrap();
        h.add_ref(root, ObjRef::Remote(GlobalAddr::new(1, 4)))
            .unwrap();
        h.add_ref(held, ObjRef::Remote(GlobalAddr::new(3, 9)))
            .unwrap();
        h.add_ref(loose, ObjRef::Remote(GlobalAddr::new(3, 9)))
            .unwrap();
        h.add_ref(loose, ObjRef::Remote(GlobalAddr::new(0, 2)))
            .unwrap();
        h.alloc();

        let back = SiteHeap::from_image(&h.image());
        assert!(back.tracker_is_consistent());
        assert_eq!(back.cached_snapshot(), &h.snapshot());
        assert!(back.cached_snapshot().is_locally_rooted(held));
        assert!(!back.cached_snapshot().is_locally_rooted(loose));
    }

    #[test]
    fn restored_heap_behaves_identically_under_unlink() {
        // Slot order matters: remove_ref swaps out the first match.
        let mut h = SiteHeap::new(SiteId::new(0));
        let a = h.alloc_local_root();
        let b = h.alloc();
        let c = h.alloc();
        h.add_ref(a, ObjRef::Local(b)).unwrap();
        h.add_ref(a, ObjRef::Local(c)).unwrap();
        h.add_ref(a, ObjRef::Local(b)).unwrap();

        let mut restored = SiteHeap::from_image(&h.image());
        h.remove_ref(a, ObjRef::Local(b)).unwrap();
        restored.remove_ref(a, ObjRef::Local(b)).unwrap();
        assert_eq!(
            h.object(a).unwrap().refs_vec(),
            restored.object(a).unwrap().refs_vec()
        );
    }
}
