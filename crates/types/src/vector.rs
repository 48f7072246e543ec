//! Sparse dependency vectors and their point-wise merge.
//!
//! The GGD algorithm manipulates two flavours of the same structure (§3.2 of
//! the paper): the *direct dependency vector* (DDV) maintained by lazy
//! log-keeping, and the *full vector-time* obtained by transitively merging
//! DDVs along the edges of the global root graph. Both are represented by
//! [`DependencyVector`]: a sparse map from global-root identity to
//! [`Timestamp`].
//!
//! Sparseness matters: the vertex set of the global root graph is dynamic, so
//! fixed-dimension arrays (as used in the paper's 4-object illustration) do
//! not generalise. A missing key is equivalent to an explicit
//! [`Timestamp::NEVER`] entry, and every operation honours that
//! equivalence.
//!
//! # Representation
//!
//! Vectors are stored as a key-sorted small vector: up to `N` entries live
//! inline (no heap allocation at all), larger vectors spill to a contiguous
//! `Vec`. `N` is a const parameter with two values in use, chosen by what
//! a vector holds in the common case:
//!
//! * three (the default, 80 bytes): control payloads, and the log rows of a
//!   site's own objects, most of which hold two or three entries;
//! * one ([`CompactVector`], 32 bytes): the log rows kept for remote
//!   vertices, most of which hold one entry, and closure memos, which
//!   average four and a half and so spill whatever their inline room.
//!
//! The shape is a footprint, not a behaviour: every operation gives the
//! same result in either, and a merge takes a vector of any shape. Merges
//! walk both entry slices with two pointers and mutate in place, growing
//! the storage when new keys arrive.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::{Timestamp, VertexId};

/// One stored entry: a vertex and the freshest knowledge about it.
type Entry = (VertexId, Timestamp);

/// Placeholder for unused inline slots; never observable through the API.
const EMPTY_ENTRY: Entry = (VertexId::site_root(0), Timestamp::NEVER);

/// The sorted small-vector backing store of a [`DependencyVector`] with
/// `N` entries inline.
///
/// Invariants: entries are strictly sorted by key and never hold
/// [`Timestamp::NEVER`] (an absent key *is* `NEVER`).
#[derive(Debug, Clone)]
enum Entries<const N: usize> {
    /// At most `N` entries stored inline; `len` are valid.
    Inline {
        /// Number of valid entries in `buf`.
        len: u8,
        /// Entry storage; slots at `len..` hold `EMPTY_ENTRY`.
        buf: [Entry; N],
    },
    /// Spilled storage for larger vectors.
    Spilled(Vec<Entry>),
}

impl<const N: usize> Default for Entries<N> {
    fn default() -> Self {
        Entries::Inline {
            len: 0,
            buf: [EMPTY_ENTRY; N],
        }
    }
}

impl<const N: usize> Entries<N> {
    fn as_slice(&self) -> &[Entry] {
        match self {
            Entries::Inline { len, buf } => &buf[..usize::from(*len)],
            Entries::Spilled(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Entry] {
        match self {
            Entries::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Entries::Spilled(v) => v,
        }
    }

    fn from_vec(v: Vec<Entry>) -> Self {
        if v.len() <= N {
            Entries::inline(&v)
        } else {
            Entries::Spilled(v)
        }
    }

    fn from_slice(v: &[Entry]) -> Self {
        if v.len() <= N {
            Entries::inline(v)
        } else {
            Entries::Spilled(v.to_vec())
        }
    }

    /// `v`, of at most `N` entries, stored inline.
    fn inline(v: &[Entry]) -> Self {
        let mut buf = [EMPTY_ENTRY; N];
        buf[..v.len()].copy_from_slice(v);
        Entries::Inline {
            len: v.len() as u8,
            buf,
        }
    }

    fn insert(&mut self, index: usize, entry: Entry) {
        match self {
            Entries::Inline { len, buf } => {
                let n = usize::from(*len);
                if n < N {
                    buf.copy_within(index..n, index + 1);
                    buf[index] = entry;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(n * 2);
                    v.extend_from_slice(&buf[..index]);
                    v.push(entry);
                    v.extend_from_slice(&buf[index..n]);
                    *self = Entries::Spilled(v);
                }
            }
            Entries::Spilled(v) => v.insert(index, entry),
        }
    }

    fn remove(&mut self, index: usize) {
        match self {
            Entries::Inline { len, buf } => {
                let n = usize::from(*len);
                buf.copy_within(index + 1..n, index);
                buf[n - 1] = EMPTY_ENTRY;
                *len -= 1;
            }
            Entries::Spilled(v) => {
                v.remove(index);
            }
        }
    }

    fn clear(&mut self) {
        match self {
            Entries::Inline { len, buf } => {
                buf[..usize::from(*len)].fill(EMPTY_ENTRY);
                *len = 0;
            }
            Entries::Spilled(v) => v.clear(),
        }
    }
}

/// A sparse dependency vector: the best known timestamp of the latest
/// log-keeping event of each global root.
///
/// The same type represents both the paper's DDV and its full vector-time;
/// what differs is how much transitive knowledge has been merged in.
///
/// # Example
///
/// ```
/// use ggd_types::{DependencyVector, VertexId, Timestamp};
/// let a = VertexId::object(1, 1);
/// let b = VertexId::object(2, 1);
///
/// let mut v = DependencyVector::new();
/// v.set(a, Timestamp::created(1));
/// v.set(b, Timestamp::destroyed(2));
///
/// assert_eq!(v.get(a), Timestamp::created(1));
/// assert_eq!(v.get(VertexId::object(9, 9)), Timestamp::NEVER);
/// assert!(v.get(b).is_absent());
/// ```
///
/// # Shapes
///
/// `N` is the number of entries held inline before the vector spills; it
/// changes the footprint, never the behaviour. The default, three, is the
/// shape of a control payload and of a site's own object's log row; the
/// [`CompactVector`], one, is the shape of a remote vertex's log row and of
/// a closure memo. Constructors named after their result ([`new`],
/// [`singleton`]) build the default shape; every shape starts from
/// [`Default`] or [`DependencyVector::from_sorted`], and
/// [`DependencyVector::into_shape`] moves a vector between shapes.
///
/// [`new`]: DependencyVector::new
/// [`singleton`]: DependencyVector::singleton
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(
    from = "Vec<(VertexId, Timestamp)>",
    into = "Vec<(VertexId, Timestamp)>"
)]
pub struct DependencyVector<const N: usize = 3> {
    entries: Entries<N>,
}

/// A [`DependencyVector`] with one entry inline: 32 bytes where the default
/// shape takes 80. Most remote vertices' log rows hold one entry, and
/// closure memos spill whatever their inline room.
pub type CompactVector = DependencyVector<1>;

impl<const N: usize> PartialEq for DependencyVector<N> {
    fn eq(&self, other: &Self) -> bool {
        self.entries.as_slice() == other.entries.as_slice()
    }
}

impl<const N: usize> Eq for DependencyVector<N> {}

impl<const N: usize> Hash for DependencyVector<N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries.as_slice().hash(state);
    }
}

impl<const N: usize> From<Vec<(VertexId, Timestamp)>> for DependencyVector<N> {
    fn from(entries: Vec<(VertexId, Timestamp)>) -> Self {
        entries.into_iter().collect()
    }
}

impl<const N: usize> From<DependencyVector<N>> for Vec<(VertexId, Timestamp)> {
    fn from(v: DependencyVector<N>) -> Self {
        v.entries.as_slice().to_vec()
    }
}

impl DependencyVector {
    /// Creates an empty vector (every entry implicitly [`Timestamp::NEVER`]).
    pub fn new() -> Self {
        DependencyVector::default()
    }

    /// Creates a vector holding a single entry.
    pub fn singleton(addr: VertexId, ts: Timestamp) -> Self {
        let mut v = DependencyVector::new();
        v.set(addr, ts);
        v
    }
}

impl<const N: usize> DependencyVector<N> {
    /// Number of entries stored inline before the vector spills to the heap.
    pub const INLINE_CAPACITY: usize = N;

    /// Builds a vector from `entries`, which must be strictly ascending by
    /// key and hold no [`Timestamp::NEVER`]; `None` otherwise. Keeps the
    /// `Vec`'s allocation when the vector spills, so a decoder that reads
    /// into an exactly sized `Vec` allocates once.
    pub fn from_sorted(entries: Vec<(VertexId, Timestamp)>) -> Option<Self> {
        is_canonical(&entries).then(|| DependencyVector {
            entries: Entries::from_vec(entries),
        })
    }

    /// [`DependencyVector::from_sorted`] from a borrowed buffer: copies the
    /// entries inline, or into one exactly sized allocation.
    pub fn from_sorted_slice(entries: &[(VertexId, Timestamp)]) -> Option<Self> {
        is_canonical(entries).then(|| DependencyVector {
            entries: Entries::from_slice(entries),
        })
    }

    /// Overwrites the vector with `entries`, which must be strictly
    /// ascending by key and hold no [`Timestamp::NEVER`]. Reuses the
    /// vector's allocation, if it has one. Returns `false`, and leaves the
    /// vector as it was, when `entries` is not canonical.
    pub fn assign_sorted_slice(&mut self, entries: &[(VertexId, Timestamp)]) -> bool {
        if !is_canonical(entries) {
            return false;
        }
        match &mut self.entries {
            Entries::Spilled(v) => {
                v.clear();
                v.extend_from_slice(entries);
            }
            Entries::Inline { .. } => self.entries = Entries::from_slice(entries),
        }
        true
    }

    /// The same vector in the shape with `M` entries inline. A spilled
    /// vector too wide for `M` keeps its allocation; any other is copied.
    pub fn into_shape<const M: usize>(self) -> DependencyVector<M> {
        let entries = match self.entries {
            Entries::Spilled(v) if v.len() > M => Entries::Spilled(v),
            entries => Entries::from_slice(entries.as_slice()),
        };
        DependencyVector { entries }
    }

    /// The explicit entries, in key order.
    pub fn as_slice(&self) -> &[(VertexId, Timestamp)] {
        self.entries.as_slice()
    }

    fn find(&self, addr: VertexId) -> Result<usize, usize> {
        self.entries.as_slice().binary_search_by_key(&addr, |e| e.0)
    }

    /// Returns the timestamp recorded for `addr`, defaulting to
    /// [`Timestamp::NEVER`] for unknown roots.
    pub fn get(&self, addr: VertexId) -> Timestamp {
        match self.find(addr) {
            Ok(i) => self.entries.as_slice()[i].1,
            Err(_) => Timestamp::NEVER,
        }
    }

    /// Sets the entry for `addr`, returning the previous value.
    ///
    /// Setting an entry to [`Timestamp::NEVER`] removes it from the sparse
    /// representation so that logically equal vectors compare equal.
    pub fn set(&mut self, addr: VertexId, ts: Timestamp) -> Timestamp {
        match self.find(addr) {
            Ok(i) => {
                let prev = self.entries.as_slice()[i].1;
                if ts == Timestamp::NEVER {
                    self.entries.remove(i);
                } else {
                    self.entries.as_mut_slice()[i].1 = ts;
                }
                prev
            }
            Err(i) => {
                if ts != Timestamp::NEVER {
                    self.entries.insert(i, (addr, ts));
                }
                Timestamp::NEVER
            }
        }
    }

    /// Merges newer knowledge about a single root into this vector, keeping
    /// whichever entry is fresher. Returns `true` when the entry changed.
    pub fn merge_entry(&mut self, addr: VertexId, ts: Timestamp) -> bool {
        match self.find(addr) {
            Ok(i) => {
                let current = self.entries.as_slice()[i].1;
                let merged = current.merged(ts);
                if merged != current {
                    self.entries.as_mut_slice()[i].1 = merged;
                    true
                } else {
                    false
                }
            }
            Err(i) => {
                if ts == Timestamp::NEVER {
                    false
                } else {
                    self.entries.insert(i, (addr, ts));
                    true
                }
            }
        }
    }

    /// Point-wise merge (lattice join) of another vector into this one,
    /// walking both sorted entry lists with two pointers. When no new key is
    /// introduced the merge mutates entries in place without moving or
    /// allocating anything; new keys grow the vector in place — inline while
    /// it fits, else by one amortised `resize` of the spilled entries — and
    /// are merged in from the back. Returns `true` when any entry changed.
    pub fn merge<const M: usize>(&mut self, other: &DependencyVector<M>) -> bool {
        let b = other.entries.as_slice();
        if b.is_empty() {
            return false;
        }
        // Pass 1: find out whether anything changes and how many keys of
        // `other` are new to `self`.
        let a = self.entries.as_slice();
        let mut i = 0;
        let mut inserts = 0usize;
        let mut changed = false;
        for &(key, ts) in b {
            while i < a.len() && a[i].0 < key {
                i += 1;
            }
            if i < a.len() && a[i].0 == key {
                if a[i].1.merged(ts) != a[i].1 {
                    changed = true;
                }
            } else {
                // Entries never store `Never`, so a new key always changes.
                inserts += 1;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if inserts == 0 {
            let a = self.entries.as_mut_slice();
            let mut i = 0;
            for &(key, ts) in b {
                while a[i].0 < key {
                    i += 1;
                }
                a[i].1 = a[i].1.merged(ts);
            }
            return true;
        }
        // Pass 2: grow in place by the new keys, then merge from the back,
        // so every entry moves once and nothing is read after it is
        // overwritten.
        let old_len = self.len();
        let new_len = old_len + inserts;
        let merged = match &mut self.entries {
            Entries::Inline { len, buf } if new_len <= N => {
                *len = new_len as u8;
                &mut buf[..new_len]
            }
            Entries::Inline { buf, .. } => {
                let mut spilled = Vec::with_capacity(new_len);
                spilled.extend_from_slice(&buf[..old_len]);
                spilled.resize(new_len, EMPTY_ENTRY);
                self.entries = Entries::Spilled(spilled);
                self.entries.as_mut_slice()
            }
            Entries::Spilled(v) => {
                v.resize(new_len, EMPTY_ENTRY);
                v.as_mut_slice()
            }
        };
        let (mut i, mut j, mut k) = (old_len, b.len(), new_len);
        while j > 0 {
            k -= 1;
            if i > 0 && merged[i - 1].0 > b[j - 1].0 {
                merged[k] = merged[i - 1];
                i -= 1;
            } else if i > 0 && merged[i - 1].0 == b[j - 1].0 {
                merged[k] = (b[j - 1].0, merged[i - 1].1.merged(b[j - 1].1));
                i -= 1;
                j -= 1;
            } else {
                merged[k] = b[j - 1];
                j -= 1;
            }
        }
        // What is left of `self` below `k` is already in place.
        debug_assert_eq!(i, k);
        true
    }

    /// Number of explicit (non-`Never`) entries.
    pub fn len(&self) -> usize {
        self.entries.as_slice().len()
    }

    /// True when the vector has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.entries.as_slice().is_empty()
    }

    /// True when every entry fits in the inline buffer (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.entries, Entries::Inline { .. })
    }

    /// Removes every explicit entry. A spilled vector keeps its allocation,
    /// so refilling it up to its old width allocates nothing.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keeps only the entries `keep` accepts, in place: the vector equals
    /// the one a [`DependencyVector::set`] to `Never` of every rejected key
    /// would leave, in one pass.
    pub fn retain(&mut self, mut keep: impl FnMut(VertexId, Timestamp) -> bool) {
        match &mut self.entries {
            Entries::Inline { len, buf } => {
                let n = usize::from(*len);
                let mut kept = 0;
                for i in 0..n {
                    if keep(buf[i].0, buf[i].1) {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                buf[kept..n].fill(EMPTY_ENTRY);
                *len = kept as u8;
            }
            Entries::Spilled(v) => v.retain(|&(vertex, ts)| keep(vertex, ts)),
        }
    }

    /// Iterates over the explicit entries in key order.
    pub fn iter(&self) -> VectorEntries<'_> {
        VectorEntries {
            inner: self.entries.as_slice().iter(),
        }
    }
}

/// True when `entries` is strictly ascending by key and holds no `Never`:
/// the invariant of [`Entries`].
fn is_canonical(entries: &[Entry]) -> bool {
    entries.windows(2).all(|pair| pair[0].0 < pair[1].0)
        && entries.iter().all(|&(_, ts)| ts != Timestamp::NEVER)
}

impl<const N: usize> fmt::Display for DependencyVector<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (addr, ts)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{addr}:{ts}")?;
        }
        write!(f, "}}")
    }
}

impl<const N: usize> FromIterator<(VertexId, Timestamp)> for DependencyVector<N> {
    fn from_iter<T: IntoIterator<Item = (VertexId, Timestamp)>>(iter: T) -> Self {
        let mut v = DependencyVector::default();
        for (addr, ts) in iter {
            v.merge_entry(addr, ts);
        }
        v
    }
}

impl<const N: usize> Extend<(VertexId, Timestamp)> for DependencyVector<N> {
    fn extend<T: IntoIterator<Item = (VertexId, Timestamp)>>(&mut self, iter: T) {
        for (addr, ts) in iter {
            self.merge_entry(addr, ts);
        }
    }
}

impl<'a, const N: usize> IntoIterator for &'a DependencyVector<N> {
    type Item = (VertexId, Timestamp);
    type IntoIter = VectorEntries<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the explicit entries of a [`DependencyVector`], in key
/// order. Produced by [`DependencyVector::iter`].
#[derive(Debug, Clone)]
pub struct VectorEntries<'a> {
    inner: std::slice::Iter<'a, Entry>,
}

impl<'a> Iterator for VectorEntries<'a> {
    type Item = (VertexId, Timestamp);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a> ExactSizeIterator for VectorEntries<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> VertexId {
        VertexId::object(1, 1)
    }
    fn b() -> VertexId {
        VertexId::object(2, 1)
    }
    fn c() -> VertexId {
        VertexId::object(3, 1)
    }

    #[test]
    fn get_defaults_to_never() {
        let v = DependencyVector::new();
        assert_eq!(v.get(a()), Timestamp::NEVER);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn set_never_removes_entry() {
        let mut v = DependencyVector::singleton(a(), Timestamp::created(1));
        assert_eq!(v.len(), 1);
        let prev = v.set(a(), Timestamp::NEVER);
        assert_eq!(prev, Timestamp::created(1));
        assert!(v.is_empty());
        assert_eq!(v, DependencyVector::new());
    }

    #[test]
    fn retain_equals_setting_the_rejected_keys_to_never() {
        // Inline and spilled vectors, every subset of their keys rejected.
        for n in [0u32, 1, 3, 4, 7] {
            let key = |i: u32| VertexId::object(i, 1);
            let full: DependencyVector = (0..n)
                .map(|i| (key(i), Timestamp::created(u64::from(i) + 1)))
                .collect::<Vec<_>>()
                .into();
            for mask in 0u32..1 << n {
                let rejected = |k: VertexId| (0..n).any(|i| mask >> i & 1 == 1 && key(i) == k);
                let mut expected = full.clone();
                for i in (0..n).filter(|&i| rejected(key(i))) {
                    expected.set(key(i), Timestamp::NEVER);
                }
                let mut kept = full.clone();
                kept.retain(|k, ts| {
                    assert_eq!(full.get(k), ts);
                    !rejected(k)
                });
                assert_eq!(kept, expected, "n {n} mask {mask:b}");
            }
        }
    }

    #[test]
    fn merge_entry_keeps_freshest() {
        let mut v = DependencyVector::new();
        assert!(v.merge_entry(a(), Timestamp::created(2)));
        assert!(!v.merge_entry(a(), Timestamp::created(1)));
        assert!(v.merge_entry(a(), Timestamp::destroyed(2)));
        assert!(!v.merge_entry(a(), Timestamp::created(2)));
        assert!(!v.merge_entry(b(), Timestamp::NEVER));
        assert_eq!(v.get(a()), Timestamp::destroyed(2));
    }

    #[test]
    fn merge_is_pointwise_join() {
        let mut left = DependencyVector::new();
        left.set(a(), Timestamp::created(3));
        left.set(b(), Timestamp::created(1));

        let mut right = DependencyVector::new();
        right.set(b(), Timestamp::destroyed(1));
        right.set(c(), Timestamp::created(4));

        let mut joined = left.clone();
        assert!(joined.merge(&right));
        assert_eq!(joined.get(a()), Timestamp::created(3));
        assert_eq!(joined.get(b()), Timestamp::destroyed(1));
        assert_eq!(joined.get(c()), Timestamp::created(4));
        assert!(!joined.merge(&right));
    }

    #[test]
    fn in_place_merge_without_new_keys() {
        let mut left = DependencyVector::new();
        left.set(a(), Timestamp::created(1));
        left.set(b(), Timestamp::created(5));

        let mut right = DependencyVector::new();
        right.set(a(), Timestamp::created(4));
        right.set(b(), Timestamp::created(2));

        assert!(left.merge(&right));
        assert_eq!(left.get(a()), Timestamp::created(4));
        assert_eq!(left.get(b()), Timestamp::created(5));
        assert_eq!(left.len(), 2);
    }

    #[test]
    fn spill_and_stay_sorted_beyond_inline_capacity() {
        let n = <DependencyVector>::INLINE_CAPACITY * 4;
        let mut v = DependencyVector::new();
        // Insert in reverse order to exercise front insertion.
        for i in (0..n).rev() {
            v.set(
                VertexId::object(i as u32, 1),
                Timestamp::created(i as u64 + 1),
            );
        }
        assert_eq!(v.len(), n);
        assert!(!v.is_inline());
        let keys: Vec<VertexId> = v.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        for i in 0..n {
            assert_eq!(
                v.get(VertexId::object(i as u32, 1)),
                Timestamp::created(i as u64 + 1)
            );
        }
        // Small vectors stay inline.
        let small = DependencyVector::singleton(a(), Timestamp::created(1));
        assert!(small.is_inline());
    }

    #[test]
    fn equality_ignores_representation() {
        // One vector grown past the spill point and shrunk back, one built
        // small: logically equal, so they must compare (and hash) equal.
        let mut grown = DependencyVector::new();
        let n = <DependencyVector>::INLINE_CAPACITY * 2;
        for i in 0..n {
            grown.set(VertexId::object(i as u32, 1), Timestamp::created(1));
        }
        for i in 1..n {
            grown.set(VertexId::object(i as u32, 1), Timestamp::NEVER);
        }
        let small = DependencyVector::singleton(VertexId::object(0, 1), Timestamp::created(1));
        assert!(!grown.is_inline());
        assert!(small.is_inline());
        assert_eq!(grown, small);

        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        grown.hash(&mut h1);
        small.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn iteration_and_collect() {
        let v: DependencyVector = vec![
            (a(), Timestamp::created(1)),
            (b(), Timestamp::created(2)),
            (a(), Timestamp::created(3)),
        ]
        .into_iter()
        .collect();
        assert_eq!(v.get(a()), Timestamp::created(3));
        assert_eq!(v.iter().len(), 2);
        let entries: Vec<_> = (&v).into_iter().collect();
        assert_eq!(entries[0], (a(), Timestamp::created(3)));

        let mut w = DependencyVector::new();
        w.extend(entries);
        assert_eq!(w, v);
    }

    #[test]
    fn from_sorted_accepts_only_canonical_entries() {
        let entries = vec![(a(), Timestamp::created(1)), (b(), Timestamp::destroyed(2))];
        let v = <DependencyVector>::from_sorted(entries.clone()).unwrap();
        assert_eq!(v.iter().collect::<Vec<_>>(), entries);
        assert_eq!(DependencyVector::from_sorted_slice(&entries), Some(v));
        let wide: Vec<Entry> = (0..8u32)
            .map(|i| (VertexId::object(i, 1), Timestamp::created(1)))
            .collect();
        assert!(!<DependencyVector>::from_sorted(wide).unwrap().is_inline());
        for bad in [
            vec![(b(), Timestamp::created(1)), (a(), Timestamp::created(1))],
            vec![(a(), Timestamp::created(1)), (a(), Timestamp::created(2))],
            vec![(a(), Timestamp::NEVER)],
        ] {
            assert_eq!(<DependencyVector>::from_sorted_slice(&bad), None);
            assert_eq!(<DependencyVector>::from_sorted(bad), None);
        }
    }

    #[test]
    fn clear_empties_the_vector() {
        let mut v = DependencyVector::new();
        for i in 0..8u32 {
            v.set(VertexId::object(i, 1), Timestamp::created(1));
        }
        let spilled = v.clone();
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v, DependencyVector::new());
        // The allocation stays: the spilled storage is refilled in place.
        assert!(!v.is_inline());
        assert!(v.assign_sorted_slice(spilled.as_slice()));
        assert_eq!(v, spilled);
        let mut small = DependencyVector::singleton(a(), Timestamp::created(1));
        small.clear();
        assert!(small.is_empty() && small.is_inline());
    }

    #[test]
    fn into_shape_keeps_the_entries() {
        for n in 0..6u32 {
            let v: DependencyVector = (0..n)
                .map(|i| (VertexId::object(i, 1), Timestamp::created(1)))
                .collect();
            let compact: CompactVector = v.clone().into_shape();
            assert!(compact.iter().eq(v.iter()), "{n} entries");
            assert_eq!(compact.is_inline(), n <= 1);
            let back: DependencyVector = compact.into_shape();
            assert_eq!(back, v);
            assert_eq!(back.is_inline(), n <= 3);
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_two_shapes_take_80_and_32_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Entry>(), 24);
        assert_eq!(size_of::<DependencyVector>(), 80);
        assert_eq!(size_of::<CompactVector>(), 32);
        assert_eq!(size_of::<Option<CompactVector>>(), 32);
    }

    #[test]
    fn display_is_never_empty() {
        assert_eq!(DependencyVector::new().to_string(), "{}");
        let v = DependencyVector::singleton(a(), Timestamp::created(1));
        assert_eq!(v.to_string(), "{s1/o1:1}");
    }

    #[test]
    fn entry_list_round_trip() {
        // The serde wire format goes through `Vec<(VertexId, Timestamp)>`
        // (see the `#[serde(from, into)]` attributes); exercise that
        // conversion pair directly since no JSON library is available
        // offline (see vendor/README.md).
        let mut v = DependencyVector::new();
        v.set(a(), Timestamp::created(1));
        v.set(b(), Timestamp::destroyed(7));
        let entries: Vec<(VertexId, Timestamp)> = v.clone().into();
        let back = DependencyVector::from(entries);
        assert_eq!(v, back);
    }

    #[test]
    fn in_place_merge_grows_vectors_like_an_ordered_map() {
        grows_like_an_ordered_map::<3>();
        grows_like_an_ordered_map::<1>();
    }

    /// Seeded merges of default-shape vectors into one vector of shape `N`
    /// that starts empty and grows past the spill point, against a
    /// BTreeMap model. Each incoming vector mixes keys below, between and
    /// above the current ones with keys already present, at older, equal
    /// and newer timestamps; the first rounds cross the inline boundary
    /// (`N` to `N + 1` entries) one key at a time.
    fn grows_like_an_ordered_map<const N: usize>() {
        use std::collections::BTreeMap;
        let mut state = 0x1a9e_d0e5_3e7e_4a11u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let ts = |index: u64, destroyed: bool| {
            if destroyed {
                Timestamp::destroyed(index)
            } else {
                Timestamp::created(index)
            }
        };
        let mut crossings = 0;
        for run in 0..60 {
            let mut v = DependencyVector::<N>::default();
            let mut model: BTreeMap<VertexId, Timestamp> = BTreeMap::new();
            for round in 0..40u64 {
                let mut incoming = DependencyVector::new();
                let keys: Vec<VertexId> = model.keys().copied().collect();
                let width = if round < 6 { 1 } else { next(6) + 1 };
                for _ in 0..width {
                    let key = match (next(4), keys.is_empty()) {
                        // A key already present: equal, older or newer.
                        (0, false) => keys[next(keys.len() as u64) as usize],
                        // Anywhere in a wide key space: below, between or
                        // above the present keys, anchors included.
                        (1, _) => VertexId::site_root(next(8) as u32),
                        _ => VertexId::object(next(8) as u32 * 2, next(64) * 2),
                    };
                    let stamp = match model.get(&key) {
                        Some(&current) if next(3) == 0 => current,
                        _ => ts(next(6) + 1, next(2) == 0),
                    };
                    incoming.merge_entry(key, stamp);
                }
                let mut expected = model.clone();
                for (key, stamp) in incoming.iter() {
                    let entry = expected.entry(key).or_insert(stamp);
                    *entry = entry.merged(stamp);
                }
                let changed = v.merge(&incoming);
                assert_eq!(changed, expected != model, "run {run} round {round}");
                if model.len() == N && expected.len() > model.len() {
                    crossings += 1;
                }
                model = expected;
                assert!(
                    v.iter().eq(model.iter().map(|(&k, &t)| (k, t))),
                    "run {run} round {round}: {v} differs from the model"
                );
                if model.len() <= N && round < 6 {
                    assert!(v.is_inline(), "run {run} round {round}: spilled early");
                }
            }
            assert!(!v.is_inline(), "run {run} never spilled");
        }
        assert!(
            crossings > 30,
            "only {crossings} merges spilled a full inline vector"
        );
    }

    #[test]
    fn merge_against_btreemap_model() {
        merge_matches_an_ordered_map::<3>();
        merge_matches_an_ordered_map::<1>();
    }

    /// Pseudo-random differential check of the small-vector merge of a
    /// default-shape vector into one of shape `N`, against a BTreeMap model
    /// (the previous representation).
    fn merge_matches_an_ordered_map<const N: usize>() {
        use std::collections::BTreeMap;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let mut model: BTreeMap<VertexId, Timestamp> = BTreeMap::new();
            let mut left = DependencyVector::<N>::default();
            let mut right = DependencyVector::new();
            let mut right_model: BTreeMap<VertexId, Timestamp> = BTreeMap::new();
            for _ in 0..(next() % 12) {
                let key = VertexId::object((next() % 6) as u32, 1);
                let idx = next() % 4 + 1;
                let ts = if next() % 2 == 0 {
                    Timestamp::created(idx)
                } else {
                    Timestamp::destroyed(idx)
                };
                left.merge_entry(key, ts);
                let cur = model.get(&key).copied().unwrap_or(Timestamp::NEVER);
                let merged = cur.merged(ts);
                if merged != Timestamp::NEVER {
                    model.insert(key, merged);
                }
            }
            for _ in 0..(next() % 12) {
                let key = VertexId::object((next() % 6) as u32, 1);
                let idx = next() % 4 + 1;
                let ts = if next() % 2 == 0 {
                    Timestamp::created(idx)
                } else {
                    Timestamp::destroyed(idx)
                };
                right.merge_entry(key, ts);
                let cur = right_model.get(&key).copied().unwrap_or(Timestamp::NEVER);
                let merged = cur.merged(ts);
                if merged != Timestamp::NEVER {
                    right_model.insert(key, merged);
                }
            }
            left.merge(&right);
            for (&k, &ts) in &right_model {
                let cur = model.get(&k).copied().unwrap_or(Timestamp::NEVER);
                model.insert(k, cur.merged(ts));
            }
            let expect: Vec<(VertexId, Timestamp)> = model
                .into_iter()
                .filter(|(_, t)| *t != Timestamp::NEVER)
                .collect();
            let got: Vec<(VertexId, Timestamp)> = left.iter().collect();
            assert_eq!(got, expect);
        }
    }
}
