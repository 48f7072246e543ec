//! The slab arena behind [`SiteHeap`](crate::SiteHeap): objects live in
//! slots addressed by dense `u32` indices, and their outbound reference
//! lists live in fixed-size chunks drawn from a pool the arena owns — so
//! the mutation hot path performs no per-object collection allocations at
//! all.
//!
//! An object's only name is its identity: [`ObjectId`]s stay monotone and
//! are never reused (they are the unit of cross-site addressing and of the
//! durable image), and a flat index maps each resident identity to its
//! slot. Slots are placement only, private to the crate, and recycled
//! freely: a freed slot drops out of the index, so a stale identity finds
//! nothing even after the slot is reused.
//!
//! Reference lists preserve `Vec` semantics exactly: [`Arena::push_ref`]
//! appends, [`Arena::remove_first_ref`] swaps the last element into the
//! first match (the `swap_remove` idiom the rest of the stack depends on —
//! checkpoint images and replayed unlinks are slot-order sensitive), and
//! [`Arena::clear_refs`] returns the whole chain to the pool.
//!
//! A chunk stores each reference packed into 16 bytes rather than as the
//! 24-byte [`ObjRef`] enum: the object's `u64`, the site's `u32` (0 for a
//! local reference) and the local/remote tag in a field of its own, so no
//! valid site or object number doubles as a sentinel and every value of
//! both stays representable; a chunk of four references is 72 bytes.
//! Packing is canonical, so packed references compare as the `ObjRef`s
//! they pack; the enum is rebuilt only when a reference is read.

use std::fmt;

use ggd_types::{GlobalAddr, ObjectId};

use crate::object::ObjRef;

/// References per edge chunk. Most objects hold a handful of references, so
/// one chunk usually suffices; longer lists chain chunks through `next`.
const CHUNK: u32 = 4;
const CHUNK_USIZE: usize = CHUNK as usize;

/// Filler for slots of a chunk beyond the owner's length — never observable,
/// iteration stops at the recorded length.
const VACANT: PackedRef = PackedRef::pack(ObjRef::Local(ObjectId::new(0)));

/// Slot flag: the object is a designated local root.
pub(crate) const FLAG_LOCAL_ROOT: u8 = 1;
/// Slot flag: the object is in the conservative global root set.
pub(crate) const FLAG_GLOBAL_ROOT: u8 = 2;
/// Either root flag: the object is in the local collector's root set.
const FLAG_ANY_ROOT: u8 = FLAG_LOCAL_ROOT | FLAG_GLOBAL_ROOT;

#[derive(Debug, Clone, Copy)]
struct Slot {
    id: ObjectId,
    /// First edge chunk, as chunk index + 1 (0 = none).
    head: u32,
    /// Last edge chunk, same encoding.
    tail: u32,
    /// Number of references held.
    len: u32,
    flags: u8,
    live: bool,
}

/// An [`ObjRef`] as an edge chunk stores it: 16 bytes where the enum takes
/// 24 (its discriminant pads the 12-byte address to 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedRef {
    object: u64,
    /// The target's site; 0 for a local reference.
    site: u32,
    /// The tag: true for a remote reference (a proxy).
    remote: bool,
}

impl PackedRef {
    const fn pack(r: ObjRef) -> Self {
        match r {
            ObjRef::Local(id) => PackedRef {
                object: id.index(),
                site: 0,
                remote: false,
            },
            ObjRef::Remote(addr) => PackedRef {
                object: addr.object().index(),
                site: addr.site().index(),
                remote: true,
            },
        }
    }

    fn unpack(self) -> ObjRef {
        if self.remote {
            ObjRef::Remote(GlobalAddr::new(self.site, self.object))
        } else {
            ObjRef::Local(ObjectId::new(self.object))
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct EdgeChunk {
    refs: [PackedRef; CHUNK_USIZE],
    /// Next chunk in the owner's chain, as chunk index + 1 (0 = none).
    next: u32,
}

/// The slab: object slots, the shared edge-chunk pool, and the dense
/// id-to-slot index.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    chunks: Vec<EdgeChunk>,
    free_chunks: Vec<u32>,
    /// `id.index() - 1` → slot index + 1; 0 = the id is not resident.
    /// Identities are allocated densely per site, so this is a flat vector,
    /// not a map — and iterating it yields objects in identity order.
    id_index: Vec<u32>,
    live: usize,
}

impl Arena {
    // ------------------------------------------------------------------
    // Slots
    // ------------------------------------------------------------------

    /// Places a fresh object, reusing a freed slot when one is available.
    pub(crate) fn insert(&mut self, id: ObjectId) -> u32 {
        let slot = match self.free_slots.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                entry.id = id;
                entry.head = 0;
                entry.tail = 0;
                entry.len = 0;
                entry.flags = 0;
                entry.live = true;
                s
            }
            None => {
                self.slots.push(Slot {
                    id,
                    head: 0,
                    tail: 0,
                    len: 0,
                    flags: 0,
                    live: true,
                });
                (self.slots.len() - 1) as u32
            }
        };
        debug_assert!(id.index() >= 1, "object identities start at 1");
        let pos = (id.index() - 1) as usize;
        if self.id_index.len() <= pos {
            self.id_index.resize(pos + 1, 0);
        }
        debug_assert_eq!(self.id_index[pos], 0, "identity already resident");
        self.id_index[pos] = slot + 1;
        self.live += 1;
        slot
    }

    /// Reclaims a slot: edges go back to the pool, the identity leaves the
    /// index, and the slot joins the free list for reuse.
    pub(crate) fn free(&mut self, slot: u32) {
        self.clear_refs(slot);
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.live, "double free of slot {slot}");
        s.live = false;
        s.flags = 0;
        let pos = (s.id.index() - 1) as usize;
        self.id_index[pos] = 0;
        self.free_slots.push(slot);
        self.live -= 1;
    }

    /// The slot currently holding `id`, if it is resident.
    pub(crate) fn slot_of(&self, id: ObjectId) -> Option<u32> {
        let pos = id.index().checked_sub(1)?;
        match self.id_index.get(pos as usize) {
            Some(&entry) if entry != 0 => Some(entry - 1),
            _ => None,
        }
    }

    /// True when `id` is resident.
    pub(crate) fn contains_id(&self, id: ObjectId) -> bool {
        self.slot_of(id).is_some()
    }

    /// The identity of the object in `slot`.
    pub(crate) fn id_at(&self, slot: u32) -> ObjectId {
        self.slots[slot as usize].id
    }

    /// Number of live objects.
    pub(crate) fn live_count(&self) -> usize {
        self.live
    }

    /// Total slots ever created (live + free); the bound for slot-indexed
    /// side tables like the delta tracker's bitsets.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn set_flag(&mut self, slot: u32, flag: u8) {
        self.slots[slot as usize].flags |= flag;
    }

    pub(crate) fn clear_flag(&mut self, slot: u32, flag: u8) {
        self.slots[slot as usize].flags &= !flag;
    }

    pub(crate) fn has_flag(&self, slot: u32, flag: u8) -> bool {
        self.slots[slot as usize].flags & flag != 0
    }

    /// Iterates live slot indices in slab order (cheap, order-free callers).
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.live.then_some(i as u32))
    }

    /// Iterates live objects in identity order (the order images, oracles
    /// and external iteration observe — identical to the old map's).
    pub(crate) fn iter_id_order(&self) -> impl Iterator<Item = ObjectView<'_>> {
        self.id_index
            .iter()
            .filter(|&&entry| entry != 0)
            .map(move |&entry| ObjectView {
                arena: self,
                slot: entry - 1,
            })
    }

    /// A read view of the object in `slot`.
    pub(crate) fn view(&self, slot: u32) -> ObjectView<'_> {
        ObjectView { arena: self, slot }
    }

    // ------------------------------------------------------------------
    // Edges
    // ------------------------------------------------------------------

    fn alloc_chunk(&mut self) -> u32 {
        match self.free_chunks.pop() {
            Some(c) => {
                self.chunks[c as usize].next = 0;
                c + 1
            }
            None => {
                self.chunks.push(EdgeChunk {
                    refs: [VACANT; CHUNK_USIZE],
                    next: 0,
                });
                self.chunks.len() as u32
            }
        }
    }

    /// Appends a reference (the `Vec::push` of the chunk chain).
    pub(crate) fn push_ref(&mut self, slot: u32, r: ObjRef) {
        let r = PackedRef::pack(r);
        let (len, tail) = {
            let s = &self.slots[slot as usize];
            (s.len, s.tail)
        };
        let off = (len % CHUNK) as usize;
        if off == 0 {
            let c = self.alloc_chunk();
            if self.slots[slot as usize].head == 0 {
                self.slots[slot as usize].head = c;
            } else {
                self.chunks[(tail - 1) as usize].next = c;
            }
            self.slots[slot as usize].tail = c;
            self.chunks[(c - 1) as usize].refs[0] = r;
        } else {
            self.chunks[(tail - 1) as usize].refs[off] = r;
        }
        self.slots[slot as usize].len += 1;
    }

    /// Removes the first occurrence of `r`, swapping the last reference into
    /// its place (the `Vec::swap_remove` of the chunk chain). Returns whether
    /// a match was found; an emptied tail chunk returns to the pool.
    pub(crate) fn remove_first_ref(&mut self, slot: u32, r: ObjRef) -> bool {
        let (len, head, tail) = {
            let s = &self.slots[slot as usize];
            (s.len, s.head, s.tail)
        };
        if len == 0 {
            return false;
        }
        let r = PackedRef::pack(r);
        let mut found = None;
        let mut chunk = head;
        let mut remaining = len;
        'search: while chunk != 0 && remaining > 0 {
            let c = &self.chunks[(chunk - 1) as usize];
            let in_this = remaining.min(CHUNK) as usize;
            for off in 0..in_this {
                if c.refs[off] == r {
                    found = Some((chunk, off));
                    break 'search;
                }
            }
            remaining -= in_this as u32;
            chunk = c.next;
        }
        let Some((mc, moff)) = found else {
            return false;
        };
        let last_off = ((len - 1) % CHUNK) as usize;
        let last = self.chunks[(tail - 1) as usize].refs[last_off];
        self.chunks[(mc - 1) as usize].refs[moff] = last;
        let new_len = len - 1;
        self.slots[slot as usize].len = new_len;
        if new_len % CHUNK == 0 {
            // The tail chunk emptied; unlink it and recycle it.
            self.free_chunks.push(tail - 1);
            if new_len == 0 {
                let s = &mut self.slots[slot as usize];
                s.head = 0;
                s.tail = 0;
            } else {
                let mut c = head;
                while self.chunks[(c - 1) as usize].next != tail {
                    c = self.chunks[(c - 1) as usize].next;
                }
                self.chunks[(c - 1) as usize].next = 0;
                self.slots[slot as usize].tail = c;
            }
        }
        true
    }

    /// Drops every reference of `slot`, returning its chunks to the pool.
    pub(crate) fn clear_refs(&mut self, slot: u32) {
        let mut chunk = self.slots[slot as usize].head;
        while chunk != 0 {
            let next = self.chunks[(chunk - 1) as usize].next;
            self.free_chunks.push(chunk - 1);
            chunk = next;
        }
        let s = &mut self.slots[slot as usize];
        s.head = 0;
        s.tail = 0;
        s.len = 0;
    }

    /// Number of references held by `slot`.
    pub(crate) fn ref_count(&self, slot: u32) -> u32 {
        self.slots[slot as usize].len
    }

    /// Iterates the references of `slot` in list order.
    pub(crate) fn refs(&self, slot: u32) -> Refs<'_> {
        let s = &self.slots[slot as usize];
        Refs {
            chunks: &self.chunks,
            chunk: s.head,
            offset: 0,
            remaining: s.len,
        }
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Marks everything reachable from `seeds` through local references,
    /// recording visited slots in `scratch` (marks + visit list) and, when
    /// `remotes` is given, pushing every remote reference encountered onto
    /// it (unsorted, one entry per occurrence). No per-call allocation once
    /// the scratch buffers and `remotes` are warm.
    pub(crate) fn mark_reachable<I>(
        &self,
        scratch: &mut Scratch,
        seeds: I,
        mut remotes: Option<&mut Vec<GlobalAddr>>,
    ) where
        I: IntoIterator<Item = ObjectId>,
    {
        scratch.begin(self.slots.len());
        for id in seeds {
            if let Some(s) = self.slot_of(id) {
                if scratch.mark(s) {
                    scratch.stack.push(s);
                }
            }
        }
        while let Some(s) = scratch.stack.pop() {
            scratch.visited.push(s);
            for r in self.refs(s) {
                match r {
                    ObjRef::Local(id) => {
                        if let Some(t) = self.slot_of(id) {
                            if scratch.mark(t) {
                                scratch.stack.push(t);
                            }
                        }
                    }
                    ObjRef::Remote(addr) => {
                        if let Some(list) = remotes.as_deref_mut() {
                            list.push(addr);
                        }
                    }
                }
            }
        }
    }

    /// Marks the forward closure of `suspects` through non-root slots — the
    /// *region* a change-proportional collection examines. Roots are live by
    /// definition, so the walk neither enters nor expands them; the region's
    /// members end up in `scratch` (marks + visit list).
    pub(crate) fn mark_region<I>(&self, scratch: &mut Scratch, suspects: I)
    where
        I: IntoIterator<Item = u32>,
    {
        scratch.begin(self.slots.len());
        for s in suspects {
            if !self.has_flag(s, FLAG_ANY_ROOT) && scratch.mark(s) {
                scratch.stack.push(s);
            }
        }
        while let Some(s) = scratch.stack.pop() {
            scratch.visited.push(s);
            for t in self.local_targets(s) {
                if !self.has_flag(t, FLAG_ANY_ROOT) && scratch.mark(t) {
                    scratch.stack.push(t);
                }
            }
        }
    }

    /// The slots of the resident objects `slot` references locally (one
    /// entry per reference, so duplicates are possible).
    pub(crate) fn local_targets(&self, slot: u32) -> impl Iterator<Item = u32> + '_ {
        self.refs(slot)
            .filter_map(|r| r.as_local().and_then(|id| self.slot_of(id)))
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Makes room for `objects` more slots, and as many identities, in a
    /// slab being rebuilt.
    pub(crate) fn reserve(&mut self, objects: usize) {
        self.slots.reserve(objects);
        self.id_index.reserve(objects);
    }
}

/// Iterator over the references of one object, in list order.
#[derive(Debug, Clone)]
pub struct Refs<'a> {
    chunks: &'a [EdgeChunk],
    chunk: u32,
    offset: u32,
    remaining: u32,
}

impl Iterator for Refs<'_> {
    type Item = ObjRef;

    fn next(&mut self) -> Option<ObjRef> {
        if self.remaining == 0 {
            return None;
        }
        let c = &self.chunks[(self.chunk - 1) as usize];
        let r = c.refs[self.offset as usize].unpack();
        self.remaining -= 1;
        self.offset += 1;
        if self.offset == CHUNK {
            self.chunk = c.next;
            self.offset = 0;
        }
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for Refs<'_> {}

/// A borrowed read view of one live object: its identity and references.
/// This is what [`SiteHeap::object`](crate::SiteHeap::object) and heap
/// iteration hand out — the arena swap is invisible to callers.
#[derive(Debug, Clone, Copy)]
pub struct ObjectView<'a> {
    arena: &'a Arena,
    slot: u32,
}

impl<'a> ObjectView<'a> {
    /// The object's identity within its site.
    pub fn id(&self) -> ObjectId {
        self.arena.id_at(self.slot)
    }

    /// Number of references held.
    pub fn slot_count(&self) -> usize {
        self.arena.ref_count(self.slot) as usize
    }

    /// The references held, in list order.
    pub fn refs(&self) -> Refs<'a> {
        self.arena.refs(self.slot)
    }

    /// The references held, collected into a vector (list order).
    pub fn refs_vec(&self) -> Vec<ObjRef> {
        self.refs().collect()
    }

    /// True when the object holds at least one occurrence of `r`.
    pub fn holds(&self, r: ObjRef) -> bool {
        self.refs().any(|held| held == r)
    }

    /// Iterates the local (same-site) references held.
    pub fn local_refs(&self) -> impl Iterator<Item = ObjectId> + 'a {
        self.refs().filter_map(|r| r.as_local())
    }

    /// Iterates the remote references (proxies) held.
    pub fn remote_refs(&self) -> impl Iterator<Item = GlobalAddr> + 'a {
        self.refs().filter_map(|r| r.as_remote())
    }
}

impl fmt::Display for ObjectView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.id())?;
        for (i, r) in self.refs().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

/// Reusable traversal buffers: epoch-stamped visit marks, a work stack and
/// the visit list. One per heap; traversals on the delta hot path allocate
/// nothing once these are warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    visited: Vec<u32>,
}

impl Scratch {
    /// Starts a fresh traversal over `slots` slots: bumps the epoch (so old
    /// marks lapse without clearing) and resets the stack and visit list.
    fn begin(&mut self, slots: usize) {
        if self.mark.len() < slots {
            self.mark.resize(slots, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.visited.clear();
    }

    /// Marks `slot`; returns true when it was not yet marked this epoch.
    fn mark(&mut self, slot: u32) -> bool {
        let entry = &mut self.mark[slot as usize];
        if *entry == self.epoch {
            false
        } else {
            *entry = self.epoch;
            true
        }
    }

    /// True when `slot` was marked during the current traversal.
    pub(crate) fn is_marked(&self, slot: u32) -> bool {
        self.mark
            .get(slot as usize)
            .is_some_and(|&m| m == self.epoch && self.epoch != 0)
    }

    /// The slots visited by the last traversal, in visit order.
    pub(crate) fn visited(&self) -> &[u32] {
        &self.visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_with(id: u64) -> (Arena, u32) {
        let mut a = Arena::default();
        let slot = a.insert(ObjectId::new(id));
        (a, slot)
    }

    #[test]
    fn push_and_iterate_across_chunk_boundaries() {
        let (mut a, s) = arena_with(1);
        let refs: Vec<ObjRef> = (10..10 + CHUNK as u64 * 3 + 1)
            .map(|i| ObjRef::Remote(GlobalAddr::new(1, i)))
            .collect();
        for &r in &refs {
            a.push_ref(s, r);
        }
        assert_eq!(a.refs(s).collect::<Vec<_>>(), refs);
        assert_eq!(a.ref_count(s), refs.len() as u32);
    }

    #[test]
    fn remove_first_ref_matches_vec_swap_remove() {
        // Drive the chunk chain and a Vec through the same op sequence; the
        // observable list must stay identical (slot order is load-bearing).
        let (mut a, s) = arena_with(1);
        let mut model: Vec<ObjRef> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let r = ObjRef::Remote(GlobalAddr::new(1, next() % 7 + 1));
            if next() % 3 == 0 {
                let removed = a.remove_first_ref(s, r);
                let model_removed = match model.iter().position(|&m| m == r) {
                    Some(p) => {
                        model.swap_remove(p);
                        true
                    }
                    None => false,
                };
                assert_eq!(removed, model_removed);
            } else {
                a.push_ref(s, r);
                model.push(r);
            }
            assert_eq!(a.refs(s).collect::<Vec<_>>(), model);
        }
    }

    #[test]
    fn clear_refs_recycles_chunks() {
        let (mut a, s) = arena_with(1);
        for i in 0..CHUNK as u64 * 4 {
            a.push_ref(s, ObjRef::Remote(GlobalAddr::new(1, i + 1)));
        }
        let chunks_before = a.chunks.len();
        a.clear_refs(s);
        assert_eq!(a.ref_count(s), 0);
        assert_eq!(a.free_chunks.len(), chunks_before);
        // Reuse draws from the pool instead of growing it.
        for i in 0..CHUNK as u64 * 4 {
            a.push_ref(s, ObjRef::Remote(GlobalAddr::new(2, i + 1)));
        }
        assert_eq!(a.chunks.len(), chunks_before);
    }

    #[test]
    fn freed_slots_are_reused_under_a_new_identity() {
        let mut a = Arena::default();
        let s1 = a.insert(ObjectId::new(1));
        a.free(s1);
        assert_eq!(
            a.slot_of(ObjectId::new(1)),
            None,
            "freed id must not resolve"
        );
        let s2 = a.insert(ObjectId::new(2));
        assert_eq!(s1, s2, "slot is recycled");
        assert_eq!(a.slot_of(ObjectId::new(1)), None, "stale id must not alias");
        assert_eq!(a.slot_of(ObjectId::new(2)), Some(s2));
    }

    #[test]
    fn slot_records_are_three_words() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_packed_reference_is_16_bytes_and_a_chunk_of_four_72() {
        assert_eq!(std::mem::size_of::<PackedRef>(), 16);
        assert_eq!(std::mem::size_of::<EdgeChunk>(), 72);
    }

    #[test]
    fn packed_references_round_trip_and_compare_as_obj_refs_at_the_boundaries() {
        let mut refs = Vec::new();
        for object in [0, 1, u64::MAX] {
            refs.push(ObjRef::Local(ObjectId::new(object)));
            for site in [0, 1, u32::MAX] {
                refs.push(ObjRef::Remote(GlobalAddr::new(site, object)));
            }
        }
        for &a in &refs {
            assert_eq!(PackedRef::pack(a).unpack(), a);
            for &b in &refs {
                assert_eq!(
                    PackedRef::pack(a) == PackedRef::pack(b),
                    a == b,
                    "{a} vs {b}"
                );
            }
        }
        // A local and a remote reference with the same numbers stay apart,
        // in a chunk as in the enum.
        let (local, remote) = (
            ObjRef::Local(ObjectId::new(7)),
            ObjRef::Remote(GlobalAddr::new(0, 7)),
        );
        let (mut a, s) = arena_with(1);
        a.push_ref(s, local);
        a.push_ref(s, remote);
        assert!(a.remove_first_ref(s, remote));
        assert_eq!(a.refs(s).collect::<Vec<_>>(), [local]);
        assert!(!a.remove_first_ref(s, remote));
    }

    #[test]
    fn mark_reachable_follows_local_edges_and_collects_remotes() {
        let mut a = Arena::default();
        let s1 = a.insert(ObjectId::new(1));
        let s2 = a.insert(ObjectId::new(2));
        let s3 = a.insert(ObjectId::new(3));
        a.push_ref(s1, ObjRef::Local(ObjectId::new(2)));
        a.push_ref(s2, ObjRef::Remote(GlobalAddr::new(7, 7)));
        a.push_ref(s2, ObjRef::Remote(GlobalAddr::new(7, 7)));
        a.push_ref(s3, ObjRef::Remote(GlobalAddr::new(8, 8)));
        let mut scratch = Scratch::default();
        let mut remotes = vec![GlobalAddr::new(9, 9)];
        a.mark_reachable(&mut scratch, [ObjectId::new(1)], Some(&mut remotes));
        assert!(scratch.is_marked(s1) && scratch.is_marked(s2));
        assert!(!scratch.is_marked(s3));
        // Appended after what the caller left there, once per occurrence.
        assert_eq!(
            remotes,
            vec![
                GlobalAddr::new(9, 9),
                GlobalAddr::new(7, 7),
                GlobalAddr::new(7, 7)
            ]
        );
    }
}
