//! Workload generators for the experiments.
//!
//! Every generator returns a [`Scenario`] that can be replayed against any
//! collector. Generators that use randomness take an explicit seed and use
//! `ChaCha8`, so a `(generator, parameters, seed)` triple always produces
//! the same scenario. The lists, rings, hubs and garbage islands are
//! fixed-site parameterizations of the shape builders shared with the
//! explorer's [`generator`](crate::generator).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ggd_types::SiteId;

use crate::generator::{chain, cut_list, cut_ring, emit_churn, exchange_hub};
use crate::{MutatorOp, ObjName, Scenario};

/// The running example of the paper (Figures 3, 4, 5, 7 and 8): four
/// objects, each on its own site; object 1 is the actual root.
///
/// The scenario reproduces the exact sequence of relevant mutator events of
/// §3.1 and ends with the destruction of the root's edge to object 2, which
/// is what triggers GGD in Figure 8. After settling, objects 2, 3 and 4 are
/// garbage (they form a disconnected cycle) and object 1 survives.
pub fn paper_example() -> Scenario {
    let mut s = Scenario::new(4);
    let s1 = SiteId::new(0);
    let s2 = SiteId::new(1);
    let s3 = SiteId::new(2);
    let s4 = SiteId::new(3);

    // Object 1: the root, on site 1.
    let o1 = s.alloc(s1, true);
    // Root 1 creates object 2 (event e2,1): allocate remotely and export.
    let o2 = s.alloc(s2, false);
    s.send_ref(s2, o1, o2);
    s.settle();
    // Object 2 creates object 3 (e3,1) and object 4 (e4,1).
    let o3 = s.alloc(s3, false);
    s.send_ref(s3, o2, o3);
    let o4 = s.alloc(s4, false);
    s.send_ref(s4, o2, o4);
    s.settle();
    // Object 2 sends 4 a reference to 3 (e3,2) and 3 a reference to 4 (e4,2).
    s.send_ref(s2, o4, o3);
    s.send_ref(s2, o3, o4);
    // Object 2 sends its own reference to 4 (e2,2).
    s.send_ref(s2, o4, o2);
    s.settle();
    // The root drops its edge to object 2 (e2,3): GGD is triggered.
    s.op(MutatorOp::Unlink {
        site: s1,
        from: o1,
        to: o2,
    });
    s.settle();
    s
}

/// The symbolic names of the paper example's objects 1–4, in order, matching
/// what [`paper_example`] allocates. Useful for assertions and for printing
/// Figure-5-style vectors.
pub fn paper_example_names() -> [ObjName; 4] {
    [ObjName(0), ObjName(1), ObjName(2), ObjName(3)]
}

/// A doubly-linked list of `k` elements, each on its own site, reachable
/// from a root on site 0 through a head reference. The final steps drop the
/// head reference, turning the entire list (with its `2(k-1)` internal
/// edges and back-links) into distributed cyclic garbage.
///
/// This is the workload of the §4 comparison with Schelvis' algorithm:
/// collecting the disconnected list costs O(k) messages with the causal
/// algorithm and O(k²) with depth-first timestamp packets.
pub fn doubly_linked_list(k: u32) -> Scenario {
    assert!(k >= 1, "list needs at least one element");
    let mut s = Scenario::new(k + 1);
    let root = s.alloc(SiteId::new(0), true);
    let sites: Vec<SiteId> = (1..=k).map(SiteId::new).collect();
    cut_list(&mut s, SiteId::new(0), root, &sites);
    s.settle();
    s
}

/// A ring of `k` objects, one per site, reachable from a root on site 0;
/// the last steps disconnect the ring so that it becomes a distributed cycle
/// of garbage — the structure acyclic reference-counting collectors cannot
/// reclaim.
pub fn ring(k: u32) -> Scenario {
    assert!(k >= 2, "a ring needs at least two elements");
    let mut s = Scenario::new(k + 1);
    let root = s.alloc(SiteId::new(0), true);
    let sites: Vec<SiteId> = (1..=k).map(SiteId::new).collect();
    cut_ring(&mut s, SiteId::new(0), root, &sites);
    s.settle();
    s
}

/// A third-party exchange pattern: a hub site repeatedly sends references to
/// `spokes` other sites, each reference denoting an object of yet another
/// site. Used by experiment E5 to count the control-message overhead of
/// eager versus lazy log-keeping (the lazy mechanism sends none).
pub fn third_party_exchanges(spokes: u32) -> Scenario {
    assert!(spokes >= 1);
    let mut s = Scenario::new(spokes + 2);
    let spoke_sites = (2..spokes + 2).map(SiteId::new);
    exchange_hub(&mut s, SiteId::new(0), SiteId::new(1), spoke_sites);
    s.settle();
    s
}

/// A garbage island spanning `island_sites` sites inside a system of
/// `total_sites` sites whose remaining sites hold purely live data. Used by
/// experiments E7 and E8: the causal algorithm only involves the island's
/// sites in collecting it, and its message count is independent of the
/// amount of live data elsewhere.
pub fn garbage_island(total_sites: u32, island_sites: u32, live_per_site: u32) -> Scenario {
    assert!(island_sites >= 1 && island_sites < total_sites);
    let mut s = Scenario::new(total_sites);
    // Live population: per site, a root with a chain of local objects plus a
    // remote reference to the next live site (never dropped).
    let live_roots: Vec<ObjName> = (0..total_sites)
        .map(|i| s.alloc(SiteId::new(i), true))
        .collect();
    let live_exports: Vec<ObjName> = (0..total_sites)
        .zip(&live_roots)
        .map(|(i, &root)| chain(&mut s, SiteId::new(i), root, live_per_site))
        .collect();
    for i in 0..total_sites {
        let next = (i + 1) % total_sites;
        s.send_ref(
            SiteId::new(next),
            live_roots[i as usize],
            live_exports[next as usize],
        );
    }
    s.settle();

    // The garbage island: a ring over the first `island_sites` sites hanging
    // off site 0's root, then disconnected.
    let island: Vec<SiteId> = (0..island_sites).map(SiteId::new).collect();
    cut_ring(&mut s, SiteId::new(0), live_roots[0], &island);
    s.settle();
    s
}

/// Export churn: every round allocates a fresh object, exports its
/// reference to a (rooted) holder on another site, settles, then severs the
/// remote edge and settles again — so each round ends with one inter-site
/// garbage object that only a GGD *verdict* can demote. This is the
/// verdict-heavy workload the durability layer's log-compaction bound is
/// measured against: without compaction the per-site logs grow with the
/// number of rounds (one row per object that ever crossed a site
/// boundary); with checkpoint-time compaction they track the live graph.
///
/// Objects rotate over `sites - 1` owner sites (site 0 hosts the holders),
/// so every site's engine both issues verdicts (for its own exports) and
/// accumulates remote-row history (for the holders' acknowledgements).
pub fn export_churn(sites: u32, rounds: u32) -> Scenario {
    assert!(sites >= 2);
    let mut s = Scenario::new(sites);
    let holder_site = SiteId::new(0);
    for round in 0..rounds {
        let owner = SiteId::new(1 + round % (sites - 1));
        let exported = s.alloc(owner, false);
        let holder = s.alloc(holder_site, true);
        s.send_ref(owner, holder, exported);
        s.settle();
        s.op(MutatorOp::Unlink {
            site: holder_site,
            from: holder,
            to: exported,
        });
        s.op(MutatorOp::DropLocalRoot {
            site: holder_site,
            name: holder,
        });
        s.settle();
    }
    s
}

/// A seeded random mutator: objects are allocated over `sites` sites, linked
/// locally and remotely at random, references are dropped at random, and the
/// scenario settles periodically. It is the explorer's churn segment with
/// any object as a reference recipient. Used by the robustness experiments
/// (E4) and the safety property tests.
pub fn random_churn(sites: u32, operations: u32, seed: u64) -> Scenario {
    assert!(sites >= 2);
    let mut s = Scenario::new(sites);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    emit_churn(&mut s, &mut rng, sites, operations, true);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Step;

    #[test]
    fn paper_example_shape() {
        let s = paper_example();
        assert_eq!(s.site_count(), 4);
        assert!(s.len() > 10);
        let sends = s
            .steps()
            .iter()
            .filter(|step| matches!(step, Step::Op(MutatorOp::SendRef { .. })))
            .count();
        assert_eq!(sends, 6, "six reference-carrying messages in Fig. 3");
        assert_eq!(paper_example_names()[0], ObjName(0));
    }

    #[test]
    fn list_and_ring_scale_with_k() {
        let small = doubly_linked_list(2);
        let large = doubly_linked_list(8);
        assert!(large.len() > small.len());
        assert_eq!(large.site_count(), 9);
        let ring5 = ring(5);
        assert_eq!(ring5.site_count(), 6);
        assert!(ring5
            .steps()
            .iter()
            .any(|s| matches!(s, Step::Op(MutatorOp::Unlink { .. }))));
    }

    #[test]
    fn third_party_scenario_counts_spokes() {
        let s = third_party_exchanges(3);
        assert_eq!(s.site_count(), 5);
    }

    #[test]
    fn garbage_island_requires_valid_sizes() {
        let s = garbage_island(6, 3, 2);
        assert_eq!(s.site_count(), 6);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic]
    fn garbage_island_rejects_oversized_island() {
        let _ = garbage_island(3, 3, 1);
    }

    #[test]
    fn random_churn_is_deterministic_per_seed() {
        let a = random_churn(4, 60, 11);
        let b = random_churn(4, 60, 11);
        let c = random_churn(4, 60, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
