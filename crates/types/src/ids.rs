//! Identifiers for sites, objects and global-root-graph vertices.
//!
//! A distributed object system partitions its object graph over a number of
//! independent address spaces, called *sites* in the paper (§2). An object is
//! identified globally by the pair ([`SiteId`], [`ObjectId`]) — a
//! [`GlobalAddr`]. Vertices of the *global root graph* are identified by the
//! `GlobalAddr` of the corresponding global root, or by the site whose local
//! roots they stand for.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A hash map keyed by ids, for state found by one lookup rather than
/// iterated in order. Its hasher is [`IdHasher`], a fixed multiply-rotate
/// hash with no random seed, so a map built by the same history has the
/// same layout in every run. Code that exposes an order sorts the keys.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of ids, hashed like [`IdMap`]: for membership found by one
/// lookup rather than iterated in order.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The hasher of [`IdMap`]: FxHash's multiply-rotate step over each word
/// the key writes. Ids are a few small integers, written word by word, so
/// one multiply per word mixes them well enough for a hash table, at a
/// fraction of SipHash's cost. Like the fixed-key SipHash it replaced, it
/// offers no defence against keys crafted to collide: the ids it hashes
/// are assigned by the sites of one cluster, never by an outside client.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifier of a site, i.e. one independent address space of the
/// partitioned object graph (§2 of the paper).
///
/// # Example
///
/// ```
/// use ggd_types::SiteId;
/// let s = SiteId::new(3);
/// assert_eq!(s.index(), 3);
/// assert_eq!(s.to_string(), "s3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SiteId(u32);

impl SiteId {
    /// Creates a new site identifier from its numeric index.
    pub const fn new(index: u32) -> Self {
        SiteId(index)
    }

    /// Returns the numeric index of this site.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(index: u32) -> Self {
        SiteId(index)
    }
}

/// Identifier of an object within a single site.
///
/// Object identifiers are only meaningful relative to their site; the
/// globally unique name of an object is its [`GlobalAddr`].
///
/// # Example
///
/// ```
/// use ggd_types::ObjectId;
/// let o = ObjectId::new(42);
/// assert_eq!(o.index(), 42);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Creates a new object identifier from its numeric index.
    pub const fn new(index: u64) -> Self {
        ObjectId(index)
    }

    /// Returns the numeric index of this object within its site.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(index: u64) -> Self {
        ObjectId(index)
    }
}

/// Globally unique address of an object: the pair (site, object).
///
/// `GlobalAddr` is the identity used for vertices of the global root graph
/// and as the key space of [`DependencyVector`](crate::DependencyVector)s.
/// It orders by site, then object, compared as one 128-bit key.
///
/// # Example
///
/// ```
/// use ggd_types::{GlobalAddr, ObjectId, SiteId};
/// let a = GlobalAddr::new(1, 7);
/// assert_eq!(a.site(), SiteId::new(1));
/// assert_eq!(a.object(), ObjectId::new(7));
/// assert_eq!(a.to_string(), "s1/o7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct GlobalAddr {
    site: SiteId,
    object: ObjectId,
}

impl GlobalAddr {
    /// Creates a global address from raw site and object indices.
    pub const fn new(site: u32, object: u64) -> Self {
        GlobalAddr {
            site: SiteId::new(site),
            object: ObjectId::new(object),
        }
    }

    /// Creates a global address from already-typed identifiers.
    pub const fn from_parts(site: SiteId, object: ObjectId) -> Self {
        GlobalAddr { site, object }
    }

    /// Returns the site component of the address.
    pub const fn site(self) -> SiteId {
        self.site
    }

    /// Returns the object component of the address.
    pub const fn object(self) -> ObjectId {
        self.object
    }

    /// The order key: site above object.
    const fn key(self) -> u128 {
        (self.site.0 as u128) << 64 | self.object.0 as u128
    }
}

impl PartialOrd for GlobalAddr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GlobalAddr {
    /// By site, then by object: the order of the pair.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.site, self.object)
    }
}

impl From<(SiteId, ObjectId)> for GlobalAddr {
    fn from((site, object): (SiteId, ObjectId)) -> Self {
        GlobalAddr { site, object }
    }
}

/// Identity of a vertex of the *global root graph* (§2.2 of the paper).
///
/// The global root graph has two kinds of vertices:
///
/// * a *global root* ([`VertexId::object`]): an object that has been
///   referenced from another site at least once;
/// * the *actual-root anchor* of a site ([`VertexId::site_root`]): it
///   stands for the site's local root set (the paper's designated root
///   objects, e.g. object 1 of Figure 3) and is always an actual root of the
///   global root graph while it holds outgoing inter-site paths.
///
/// Dependency vectors are keyed by `VertexId`, so a vector entry keyed by a
/// site-root anchor that is still live is exactly the paper's "path from an
/// actual root" evidence used by the garbage test of Figure 6.
///
/// A vertex is two machine words: `hi` holds the kind in bit 32 (0 for an
/// anchor, 1 for an object) above the site, `lo` the object (0 for an
/// anchor). The order is that of the two words read as one 128-bit key:
/// every anchor first, by site, then every object, by site and object.
/// `Debug` prints `SiteRoot(..)` or `Object(..)`.
///
/// # Example
///
/// ```
/// use ggd_types::{GlobalAddr, SiteId, VertexId};
/// let g = VertexId::object(2, 7);
/// let r = VertexId::site_root(1);
/// assert!(g.as_object().is_some());
/// assert!(r.is_site_root());
/// assert_eq!(r.as_site_root(), Some(SiteId::new(1)));
/// assert!(r < g);
/// assert_eq!(g.to_string(), "s2/o7");
/// assert_eq!(r.to_string(), "root(s1)");
/// assert_eq!(VertexId::from(GlobalAddr::new(2, 7)), g);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexId {
    /// `OBJECT_KIND` for a global root, plus the site.
    hi: u64,
    /// The object; 0 for an anchor.
    lo: u64,
}

/// The kind bit of [`VertexId::hi`], set for a global-root object.
const OBJECT_KIND: u64 = 1 << 32;

impl VertexId {
    /// Creates the vertex for a global-root object from raw indices.
    pub const fn object(site: u32, object: u64) -> Self {
        VertexId {
            hi: OBJECT_KIND | site as u64,
            lo: object,
        }
    }

    /// Creates the actual-root anchor vertex of a site.
    pub const fn site_root(site: u32) -> Self {
        VertexId {
            hi: site as u64,
            lo: 0,
        }
    }

    /// The site hosting this vertex.
    pub const fn site(self) -> SiteId {
        SiteId::new(self.hi as u32)
    }

    /// The object address, when the vertex is a global root.
    pub const fn as_object(self) -> Option<GlobalAddr> {
        if self.is_site_root() {
            None
        } else {
            Some(GlobalAddr::from_parts(self.site(), ObjectId::new(self.lo)))
        }
    }

    /// The site whose local roots the vertex stands for, when it is an
    /// anchor.
    pub const fn as_site_root(self) -> Option<SiteId> {
        if self.is_site_root() {
            Some(self.site())
        } else {
            None
        }
    }

    /// True when the vertex is a site's actual-root anchor.
    pub const fn is_site_root(self) -> bool {
        self.hi & OBJECT_KIND == 0
    }

    /// The order key: `hi` above `lo`.
    const fn key(self) -> u128 {
        (self.hi as u128) << 64 | self.lo as u128
    }
}

impl PartialOrd for VertexId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VertexId {
    /// Every anchor first, by site; then every object, by site and object.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl Hash for VertexId {
    /// Writes the kind as a `usize`, the site and, for an object, the
    /// object; `tests/packed.rs` pins the `IdHasher` values, and so the
    /// layout of every map keyed by vertices.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(usize::from(!self.is_site_root()));
        state.write_u32(self.site().index());
        if !self.is_site_root() {
            state.write_u64(self.lo);
        }
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_object() {
            None => f.debug_tuple("SiteRoot").field(&self.site()).finish(),
            Some(addr) => f.debug_tuple("Object").field(&addr).finish(),
        }
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_object() {
            None => write!(f, "root({})", self.site()),
            Some(addr) => write!(f, "{addr}"),
        }
    }
}

impl From<GlobalAddr> for VertexId {
    fn from(addr: GlobalAddr) -> Self {
        VertexId::object(addr.site().index(), addr.object().index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_hasher_is_fixed_and_separates_nearby_ids() {
        use std::hash::BuildHasher;
        let hash = |vertex: VertexId| BuildHasherDefault::<IdHasher>::default().hash_one(vertex);
        assert_eq!(hash(VertexId::object(3, 7)), hash(VertexId::object(3, 7)));
        let mut seen = std::collections::BTreeSet::new();
        for site in 0..16 {
            seen.insert(hash(VertexId::site_root(site)));
            for obj in 0..64 {
                seen.insert(hash(VertexId::object(site, obj)));
            }
        }
        assert_eq!(seen.len(), 16 * 65, "nearby ids must not collide");
    }

    #[test]
    fn site_and_object_round_trip() {
        let s = SiteId::new(9);
        assert_eq!(SiteId::from(9), s);
        assert_eq!(s.index(), 9);
        let o = ObjectId::new(123);
        assert_eq!(ObjectId::from(123), o);
        assert_eq!(o.index(), 123);
    }

    #[test]
    fn global_addr_accessors_and_display() {
        let a = GlobalAddr::new(2, 5);
        assert_eq!(a.site(), SiteId::new(2));
        assert_eq!(a.object(), ObjectId::new(5));
        assert_eq!(a.to_string(), "s2/o5");
        let b: GlobalAddr = (SiteId::new(2), ObjectId::new(5)).into();
        assert_eq!(a, b);
    }

    #[test]
    fn global_addr_orders_by_site_then_object() {
        let a = GlobalAddr::new(1, 99);
        let b = GlobalAddr::new(2, 0);
        let c = GlobalAddr::new(2, 1);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn parts_round_trip() {
        // No JSON library is available offline (see vendor/README.md), so
        // exercise the decomposition round trip the wire format relies on.
        let a = GlobalAddr::new(1, 2);
        let back = GlobalAddr::from_parts(a.site(), a.object());
        assert_eq!(a, back);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SiteId::new(0).to_string(), "s0");
        assert_eq!(ObjectId::new(0).to_string(), "o0");
    }
}
