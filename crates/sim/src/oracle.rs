//! Ground-truth global reachability, used to check safety and completeness.

use std::collections::BTreeSet;

use ggd_heap::SiteHeap;
use ggd_types::GlobalAddr;

/// The globally reachable objects, as one [`Oracle`] traversal found them:
/// a bitmap per site indexed by object identity, the sites in a vector by
/// site index. Identity, not arena slot: collections are judged after their
/// freed objects left the heap, and identities are never reused.
#[derive(Debug, Default)]
pub struct LiveSet {
    sites: Vec<Vec<u64>>,
    len: usize,
}

impl LiveSet {
    /// True when `addr` was reachable when the set was built.
    pub fn contains(&self, addr: GlobalAddr) -> bool {
        let (site, word, bit) = Self::position(addr);
        let words = self.sites.get(site).and_then(|words| words.get(word));
        words.is_some_and(|w| w & bit != 0)
    }

    /// The number of reachable objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is reachable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `addr` of a site inside the vector; false when already present.
    fn insert(&mut self, addr: GlobalAddr) -> bool {
        let (site, word, bit) = Self::position(addr);
        let words = &mut self.sites[site];
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        let fresh = words[word] & bit == 0;
        words[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    fn position(addr: GlobalAddr) -> (usize, usize, u64) {
        let index = addr.object().index();
        let site = addr.site().index() as usize;
        (site, (index / 64) as usize, 1 << (index % 64))
    }
}

/// An omniscient observer that computes, from the union of all site heaps,
/// which objects are really reachable from the union of all local root sets.
///
/// The oracle is what the paper's GGD cannot have — a consistent, complete
/// view of the whole object graph — and is used only to *judge* the
/// collectors: an object freed while the oracle says it is reachable is a
/// safety violation; an unreachable object still present once the system is
/// quiescent is residual garbage. Every question it answers reads one
/// traversal's [`LiveSet`].
#[derive(Debug, Default)]
pub struct Oracle;

impl Oracle {
    /// Computes the globally reachable objects in one traversal of `heaps`,
    /// any iterator over the cluster's site heaps (their hosting sites are
    /// read off the heaps; of two heaps of one site, the later counts).
    pub fn reachable<'a>(heaps: impl IntoIterator<Item = &'a SiteHeap>) -> LiveSet {
        let heaps = by_site(heaps);
        let mut live = LiveSet::default();
        live.sites.resize(heaps.len(), Vec::new());
        let roots = heaps.iter().flatten();
        let mut stack: Vec<GlobalAddr> = roots
            .flat_map(|heap| heap.local_roots().map(|root| heap.addr_of(root)))
            .collect();
        while let Some(addr) = stack.pop() {
            let heap = heaps.get(addr.site().index() as usize).copied().flatten();
            let Some(obj) = heap.and_then(|heap| heap.object(addr.object())) else {
                continue;
            };
            if live.insert(addr) {
                let site = addr.site();
                stack.extend(obj.local_refs().map(|id| GlobalAddr::from_parts(site, id)));
                stack.extend(obj.remote_refs());
            }
        }
        live
    }

    /// Computes the set of objects that exist but are globally unreachable.
    /// Only tests and the explorer ask: the run counts them as heap sizes
    /// less [`LiveSet::len`].
    pub fn garbage<'a>(heaps: impl IntoIterator<Item = &'a SiteHeap>) -> BTreeSet<GlobalAddr> {
        let heaps: Vec<&SiteHeap> = heaps.into_iter().collect();
        let live = Self::reachable(heaps.iter().copied());
        heaps
            .iter()
            .flat_map(|heap| heap.iter().map(|o| heap.addr_of(o.id())))
            .filter(|addr| !live.contains(*addr))
            .collect()
    }

    /// The references held by globally reachable objects that name an
    /// object its (existing) site heap no longer contains, as `(holder,
    /// target)` pairs, holders ascending by site, then by identity. Object
    /// ids are never reused, so a dangling reference means either an object
    /// was freed while still referenced, or the mutator sent a reference to
    /// an object that was already dead — the scenario generators name
    /// objects by handle and can do that. With the second kind set aside,
    /// it is both drivers' end-of-run safety check
    /// ([`Cluster::dangling_refs`](crate::Cluster::dangling_refs)), beside
    /// or in place of the live oracle. References into a site with no heap
    /// are not judged.
    pub fn dangling<'a>(
        heaps: impl IntoIterator<Item = &'a SiteHeap>,
    ) -> Vec<(GlobalAddr, GlobalAddr)> {
        let heaps = by_site(heaps);
        let live = Self::reachable(heaps.iter().flatten().copied());
        let missing = |target: &GlobalAddr| {
            let heap = heaps.get(target.site().index() as usize).copied().flatten();
            heap.is_some_and(|heap| !heap.contains(target.object()))
        };
        let mut dangling = Vec::new();
        for heap in heaps.iter().flatten() {
            for obj in heap.iter().filter(|o| live.contains(heap.addr_of(o.id()))) {
                let holder = heap.addr_of(obj.id());
                let local = obj.local_refs().map(|id| heap.addr_of(id));
                let targets = local.chain(obj.remote_refs()).filter(missing);
                dangling.extend(targets.map(|target| (holder, target)));
            }
        }
        dangling
    }
}

/// The heaps in a vector indexed by site; the later of two heaps wins.
fn by_site<'a>(heaps: impl IntoIterator<Item = &'a SiteHeap>) -> Vec<Option<&'a SiteHeap>> {
    let mut by_site = Vec::new();
    for heap in heaps {
        let site = heap.site().index() as usize;
        if by_site.len() <= site {
            by_site.resize(site + 1, None);
        }
        by_site[site] = Some(heap);
    }
    by_site
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_heap::ObjRef;
    use ggd_types::SiteId;

    #[test]
    fn oracle_follows_remote_references() {
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let root = h0.alloc_local_root();
        let remote = h1.alloc();
        let orphan = h1.alloc();
        h0.add_ref(root, ObjRef::Remote(h1.addr_of(remote)))
            .unwrap();
        let remote_addr = h1.addr_of(remote);
        let orphan_addr = h1.addr_of(orphan);

        let live = Oracle::reachable([&h0, &h1]);
        assert!(live.contains(remote_addr));
        assert!(!live.contains(orphan_addr));
        let garbage = Oracle::garbage([&h0, &h1]);
        assert_eq!(garbage, BTreeSet::from([orphan_addr]));
    }

    #[test]
    fn oracle_handles_cross_site_cycles() {
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let a = h0.alloc();
        let b = h1.alloc();
        h0.add_ref(a, ObjRef::Remote(h1.addr_of(b))).unwrap();
        h1.add_ref(b, ObjRef::Remote(h0.addr_of(a))).unwrap();
        let a_addr = h0.addr_of(a);
        let b_addr = h1.addr_of(b);

        assert!(Oracle::reachable([&h0, &h1]).is_empty());
        assert_eq!(
            Oracle::garbage([&h0, &h1]),
            BTreeSet::from([a_addr, b_addr])
        );
    }

    #[test]
    fn references_into_absent_sites_are_not_followed() {
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let h2 = SiteHeap::new(SiteId::new(2));
        let root = h0.alloc_local_root();
        // Site 1 has no heap but sits inside the site vector; site 9 lies
        // past its end.
        let inside = GlobalAddr::new(1, 1);
        let past = GlobalAddr::new(9, 1);
        h0.add_ref(root, ObjRef::Remote(inside)).unwrap();
        h0.add_ref(root, ObjRef::Remote(past)).unwrap();

        let live = Oracle::reachable([&h0, &h2]);
        assert_eq!(live.len(), 1);
        assert!(live.contains(h0.addr_of(root)));
        assert!(!live.contains(inside));
        assert!(!live.contains(past));
        assert!(Oracle::garbage([&h0, &h2]).is_empty());
        assert!(Oracle::dangling([&h0, &h2]).is_empty());
    }

    #[test]
    fn identities_past_a_sites_bitmap_are_not_live() {
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let root = h0.alloc_local_root();
        let live = Oracle::reachable([&h0]);
        assert!(live.contains(h0.addr_of(root)));
        assert!(!live.contains(GlobalAddr::new(0, root.index() + 1)));
        assert!(!live.contains(GlobalAddr::new(0, 64 * 1_000)));
        assert!(!live.contains(GlobalAddr::new(0, 0)));
    }

    #[test]
    fn a_rooted_cross_site_cycle_with_duplicate_references_counts_once() {
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let root = h0.alloc_local_root();
        let b = h0.alloc();
        let a = h1.alloc();
        let a_addr = h1.addr_of(a);
        for _ in 0..2 {
            h0.add_ref(root, ObjRef::Remote(a_addr)).unwrap();
            h0.add_ref(root, ObjRef::Local(b)).unwrap();
        }
        h1.add_ref(a, ObjRef::Remote(h0.addr_of(b))).unwrap();
        h0.add_ref(b, ObjRef::Remote(a_addr)).unwrap();
        h0.add_ref(b, ObjRef::Local(b)).unwrap();

        let live = Oracle::reachable([&h0, &h1]);
        assert_eq!(live.len(), 3);
        for addr in [h0.addr_of(root), h0.addr_of(b), a_addr] {
            assert!(live.contains(addr), "{addr}");
        }
        assert!(Oracle::garbage([&h0, &h1]).is_empty());
    }

    #[test]
    fn a_freed_object_stays_live_in_a_set_built_before_the_free() {
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let holder = h0.alloc_local_root();
        let target = h1.alloc();
        let target_addr = h1.addr_of(target);
        h0.add_ref(holder, ObjRef::Remote(target_addr)).unwrap();
        let live = Oracle::reachable([&h0, &h1]);

        // The violation path: site 1 frees the object the set holds, and
        // a fresh object takes over its slot under a new identity.
        assert_eq!(h1.collect().freed, BTreeSet::from([target]));
        let successor = h1.alloc();
        assert!(live.contains(target_addr));
        assert!(!live.contains(h1.addr_of(successor)));
    }

    #[test]
    fn dangling_names_a_target_freed_under_a_rooted_remote_holder() {
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let holder = h0.alloc_local_root();
        let target = h1.alloc();
        let target_addr = h1.addr_of(target);
        h0.add_ref(holder, ObjRef::Remote(target_addr)).unwrap();
        assert!(Oracle::dangling([&h0, &h1]).is_empty());

        // Site 1 was never told its object is exported, so its local
        // collection frees the object site 0's root still references.
        assert_eq!(h1.collect().freed, BTreeSet::from([target]));
        assert_eq!(
            Oracle::dangling([&h0, &h1]),
            vec![(h0.addr_of(holder), target_addr)]
        );
        // A site with no heap is not judged.
        assert!(Oracle::dangling([&h0]).is_empty());
    }
}
