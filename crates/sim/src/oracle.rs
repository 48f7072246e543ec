//! Ground-truth global reachability, used to check safety and completeness.

use std::collections::{BTreeMap, BTreeSet};

use ggd_heap::SiteHeap;
use ggd_types::{GlobalAddr, SiteId};

/// An omniscient observer that computes, from the union of all site heaps,
/// which objects are really reachable from the union of all local root sets.
///
/// The oracle is what the paper's GGD cannot have — a consistent, complete
/// view of the whole object graph — and is used only to *judge* the
/// collectors: an object freed while the oracle says it is reachable is a
/// safety violation; an unreachable object still present once the system is
/// quiescent is residual garbage.
#[derive(Debug, Default)]
pub struct Oracle;

impl Oracle {
    /// Computes the set of globally reachable objects. `heaps` is any
    /// iterator over the cluster's site heaps (their hosting sites are read
    /// off the heaps themselves).
    pub fn reachable<'a>(heaps: impl IntoIterator<Item = &'a SiteHeap>) -> BTreeSet<GlobalAddr> {
        let heaps: BTreeMap<SiteId, &SiteHeap> = heaps.into_iter().map(|h| (h.site(), h)).collect();
        let mut reachable = BTreeSet::new();
        let mut stack: Vec<GlobalAddr> = Vec::new();
        for heap in heaps.values() {
            for root in heap.local_roots() {
                stack.push(heap.addr_of(root));
            }
        }
        while let Some(addr) = stack.pop() {
            let Some(heap) = heaps.get(&addr.site()) else {
                continue;
            };
            if !heap.contains(addr.object()) || !reachable.insert(addr) {
                continue;
            }
            if let Some(obj) = heap.object(addr.object()) {
                for local in obj.local_refs() {
                    stack.push(GlobalAddr::from_parts(addr.site(), local));
                }
                for remote in obj.remote_refs() {
                    stack.push(remote);
                }
            }
        }
        reachable
    }

    /// Computes the set of objects that exist but are globally unreachable.
    pub fn garbage<'a>(heaps: impl IntoIterator<Item = &'a SiteHeap>) -> BTreeSet<GlobalAddr> {
        let heaps: Vec<&SiteHeap> = heaps.into_iter().collect();
        let live = Self::reachable(heaps.iter().copied());
        heaps
            .iter()
            .flat_map(|heap| heap.iter().map(|o| heap.addr_of(o.id())))
            .filter(|addr| !live.contains(addr))
            .collect()
    }

    /// The references held by globally reachable objects that name an
    /// object its (existing) site heap no longer contains, as `(holder,
    /// target)` pairs. Object ids are never reused, so a dangling reference
    /// means either an object was freed while still referenced, or the
    /// mutator sent a reference to an object that was already dead — the
    /// scenario generators name objects by handle and can do that. With
    /// the second kind set aside, it is both drivers' end-of-run safety
    /// check ([`Cluster::dangling_refs`](crate::Cluster::dangling_refs)),
    /// beside or in place of the live oracle.
    /// References into a site with no heap are not judged.
    pub fn dangling<'a>(
        heaps: impl IntoIterator<Item = &'a SiteHeap>,
    ) -> Vec<(GlobalAddr, GlobalAddr)> {
        let heaps: BTreeMap<SiteId, &SiteHeap> = heaps.into_iter().map(|h| (h.site(), h)).collect();
        let mut dangling = Vec::new();
        for holder in Self::reachable(heaps.values().copied()) {
            let Some(obj) = heaps[&holder.site()].object(holder.object()) else {
                continue;
            };
            let local = obj
                .local_refs()
                .map(|id| GlobalAddr::from_parts(holder.site(), id));
            for target in local.chain(obj.remote_refs()) {
                if heaps
                    .get(&target.site())
                    .is_some_and(|heap| !heap.contains(target.object()))
                {
                    dangling.push((holder, target));
                }
            }
        }
        dangling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_heap::ObjRef;

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
        assert!(live.contains(&remote_addr));
        assert!(!live.contains(&orphan_addr));
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
