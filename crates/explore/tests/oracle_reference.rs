//! The oracle's flat live set against the traversal it replaced: a
//! `BTreeSet` of global addresses over a map of heaps, kept here as the
//! reference. On every checked cluster state the live set must hold exactly
//! the reference's objects, the report's residual must be the reference's
//! garbage count, and the dangling references must match in content and
//! order.
//!
//! States come from the seed-7 explorer corpus (classic, crash and
//! membership plans, so downed and evicted heaps are judged too), checked
//! after every scripted settle where the scenario can be stepped from
//! outside, and from the three `PerfSpec::mix` shapes of the benchmark at
//! 1/10 scale, seeds 17 and 23, checked at the end of the run.

use std::collections::{BTreeMap, BTreeSet};

use ggd_explore::{corpus_triple, crash_corpus_triple, membership_corpus_triple, Triple};
use ggd_heap::SiteHeap;
use ggd_mutator::generator::{build_perf_scenario, PerfSpec, SegmentWeights};
use ggd_mutator::{Scenario, Step};
use ggd_sim::{CausalCollector, Cluster, ClusterConfig, Collector, Oracle, TracingCollector};
use ggd_types::{GlobalAddr, SiteId};

/// Triples per corpus family.
const TRIPLES: u32 = 24;

/// The reference traversal: every address reachable from a local root.
fn reference_reachable(heaps: &BTreeMap<SiteId, &SiteHeap>) -> BTreeSet<GlobalAddr> {
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
            stack.extend(obj.remote_refs());
        }
    }
    reachable
}

/// The reference's dangling references, in its set's order.
fn reference_dangling(
    heaps: &BTreeMap<SiteId, &SiteHeap>,
    live: &BTreeSet<GlobalAddr>,
) -> Vec<(GlobalAddr, GlobalAddr)> {
    let mut dangling = Vec::new();
    for &holder in live {
        let obj = heaps[&holder.site()].object(holder.object()).unwrap();
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

/// What the checks saw, for the coverage assertions.
#[derive(Default)]
struct Coverage {
    with_downed: u32,
    with_evicted: u32,
    with_garbage: u32,
}

fn assert_matches_reference<C: Collector>(
    label: &str,
    cluster: &Cluster<C>,
    coverage: &mut Coverage,
) {
    let heaps: BTreeMap<SiteId, &SiteHeap> = cluster.heaps().map(|h| (h.site(), h)).collect();
    assert_eq!(
        heaps.len(),
        cluster.heaps().count(),
        "{label}: a site's heap is listed twice"
    );
    let reference = reference_reachable(&heaps);
    let live = Oracle::reachable(heaps.values().copied());
    assert_eq!(live.len(), reference.len(), "{label}: live count");
    let mut garbage = BTreeSet::new();
    for heap in heaps.values() {
        for obj in heap.iter() {
            let addr = heap.addr_of(obj.id());
            assert_eq!(
                live.contains(addr),
                reference.contains(&addr),
                "{label}: {addr}"
            );
            if !reference.contains(&addr) {
                garbage.insert(addr);
            }
        }
    }
    assert_eq!(cluster.garbage_addrs(), garbage, "{label}: garbage set");
    assert_eq!(
        cluster.report().residual_garbage,
        garbage.len() as u64,
        "{label}: residual"
    );
    let dangling = reference_dangling(&heaps, &reference);
    assert_eq!(
        Oracle::dangling(heaps.values().copied()),
        dangling,
        "{label}: dangling"
    );
    // `dangling_refs` only sets stale exports aside, keeping the order.
    let mut rest = dangling.iter();
    for pair in cluster.dangling_refs() {
        assert!(rest.any(|p| *p == pair), "{label}: dangling_refs order");
    }

    let down = cluster.membership().iter().any(|&s| !cluster.site_is_up(s));
    coverage.with_downed += u32::from(down);
    coverage.with_evicted += u32::from(cluster.evicted_sites().next().is_some());
    coverage.with_garbage += u32::from(!garbage.is_empty());
}

/// Steps `scenario` from outside, checking after every scripted settle and
/// after a closing one. Only for scenarios without a membership schedule.
fn check_stepwise<C: Collector>(
    label: &str,
    scenario: &Scenario,
    config: ClusterConfig,
    factory: impl Fn(SiteId) -> C + 'static,
    coverage: &mut Coverage,
) {
    let mut cluster = Cluster::from_scenario(scenario, config, factory);
    for step in scenario.steps() {
        match step {
            Step::Op(op) => cluster.execute(*op),
            Step::Settle => {
                cluster.settle();
                assert_matches_reference(label, &cluster, coverage);
            }
            Step::Membership(_) => unreachable!("stepped scenarios have no membership schedule"),
        }
    }
    cluster.settle();
    assert_matches_reference(label, &cluster, coverage);
}

fn check_triple(label: &str, triple: &Triple, coverage: &mut Coverage) {
    let sites = triple.scenario.site_count();
    if triple.scenario.has_membership() {
        let (_, causal) =
            Cluster::run_seeded(&triple.scenario, triple.config(), CausalCollector::new);
        assert_matches_reference(label, &causal, coverage);
        let (_, tracing) = Cluster::run_seeded(
            &triple.scenario,
            triple.config(),
            TracingCollector::factory(sites),
        );
        assert_matches_reference(label, &tracing, coverage);
    } else {
        let config = triple.config();
        check_stepwise(
            label,
            &triple.scenario,
            config.clone(),
            CausalCollector::new,
            coverage,
        );
        check_stepwise(
            label,
            &triple.scenario,
            config,
            TracingCollector::factory(sites),
            coverage,
        );
    }
}

#[test]
fn live_set_matches_the_reference_on_the_explorer_corpus() {
    let weights = SegmentWeights::default();
    let mut coverage = Coverage::default();
    for index in 0..TRIPLES {
        let families = [
            ("classic", corpus_triple(7, index, &weights)),
            ("crash", crash_corpus_triple(7, index, &weights)),
            ("membership", membership_corpus_triple(7, index, &weights)),
        ];
        for (family, (_, triple)) in families {
            check_triple(&format!("{family} #{index}"), &triple, &mut coverage);
        }
    }
    assert!(coverage.with_downed > 0, "no state had a downed site");
    assert!(coverage.with_evicted > 0, "no state had an evicted site");
    assert!(coverage.with_garbage > 0, "no state had garbage");
}

#[test]
fn live_set_matches_the_reference_on_the_perf_shapes() {
    let shapes = [
        ("bulk_build", PerfSpec::mix(64, 10_000, 2_000)),
        ("remote_churn", PerfSpec::mix(64, 800, 15_000)),
        ("wide_durable", PerfSpec::mix(256, 5_000, 6_000)),
    ];
    let mut coverage = Coverage::default();
    for (name, spec) in &shapes {
        for seed in [17u64, 23] {
            let scenario = build_perf_scenario(spec, seed);
            let (_, cluster) =
                Cluster::run_seeded(&scenario, ClusterConfig::default(), CausalCollector::new);
            assert_matches_reference(&format!("{name}/{seed}"), &cluster, &mut coverage);
        }
    }
    assert!(
        coverage.with_garbage > 0,
        "no perf shape left residual garbage"
    );
}
