//! Recovery equivalence — the durability subsystem's acceptance pin.
//!
//! For every pinned loss-free explorer triple, a run that crashes and
//! recovers each site in turn at a quiescent mid-run point (checkpoint
//! load plus WAL replay through `SiteRuntime::recover`) must produce the
//! same reclaimed set and the same residual-garbage set as the uncrashed
//! run — for the causal collector and both baselines. Quiescence matters:
//! with nothing in flight, the durable log covers every event the site ever
//! consumed, so recovery loses nothing; mid-flight crashes (exercised by
//! the crash fault matrix elsewhere) may lose queued messages, which the
//! fault model counts as loss.

use std::collections::BTreeSet;

use ggd_explore::corpus_triple;
use ggd_mutator::generator::SegmentWeights;
use ggd_mutator::Step;
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, Collector, DurabilityConfig, RefListingCollector,
    TracingCollector,
};
use ggd_types::{GlobalAddr, SiteId};

/// The pinned corpus: indices into the explorer's default (seed 7) corpus
/// whose fault-matrix entry is loss-free. Drawn from the same generator the
/// explorer runs, so these are real explorer triples, not hand-picked toys.
const PINNED_SEED: u64 = 7;
const PINNED_INDICES: &[u32] = &[0, 3, 5, 8, 11, 16, 19, 24];

fn durable_config(base: ClusterConfig) -> ClusterConfig {
    ClusterConfig {
        // A small cadence so checkpoints (and the compaction they trigger)
        // actually fire inside these short generated scenarios.
        durability: DurabilityConfig::memory().with_checkpoint_every(8),
        ..base
    }
}

/// Runs the triple's scenario, optionally crash+recovering `victim` at the
/// mid-run quiescent point, and returns the (reclaimed, residual) sets.
fn outcome_sets<C: Collector>(
    triple: &ggd_explore::Triple,
    factory: impl Fn(SiteId) -> C + Clone + 'static,
    victim: Option<SiteId>,
) -> (BTreeSet<GlobalAddr>, BTreeSet<GlobalAddr>) {
    let scenario = &triple.scenario;
    let mut cluster =
        Cluster::from_scenario(scenario, durable_config(triple.config()), factory.clone());
    let half = scenario.steps().len() / 2;
    for step in &scenario.steps()[..half] {
        match step {
            Step::Op(op) => cluster.execute(*op),
            Step::Settle => cluster.settle(),
            Step::Membership(ev) => cluster.execute_membership(*ev),
        }
    }
    cluster.settle(); // quiescent: nothing in flight, the log covers it all
    if let Some(site) = victim {
        cluster.crash_and_recover(site);
    }
    for step in &scenario.steps()[half..] {
        match step {
            Step::Op(op) => cluster.execute(*op),
            Step::Settle => cluster.settle(),
            Step::Membership(ev) => cluster.execute_membership(*ev),
        }
    }
    cluster.settle();
    (cluster.reclaimed_addrs(), cluster.garbage_addrs())
}

fn assert_equivalence<C: Collector>(
    name: &str,
    triple: &ggd_explore::Triple,
    index: u32,
    factory: impl Fn(SiteId) -> C + Clone + 'static,
) {
    let baseline = outcome_sets(triple, factory.clone(), None);
    for site in 0..triple.scenario.site_count() {
        let crashed = outcome_sets(triple, factory.clone(), Some(SiteId::new(site)));
        assert_eq!(
            crashed, baseline,
            "[{name}] triple #{index}: crash+recover of site {site} changed \
             the reclaimed/residual sets"
        );
    }
}

#[test]
fn recovery_is_equivalent_on_every_pinned_loss_free_triple() {
    let weights = SegmentWeights::default();
    let mut checked = 0;
    for &index in PINNED_INDICES {
        let (_, triple) = corpus_triple(PINNED_SEED, index, &weights);
        if !triple.fault.plan.is_loss_free() {
            continue;
        }
        checked += 1;
        assert_equivalence("causal", &triple, index, CausalCollector::new);
        assert_equivalence(
            "tracing",
            &triple,
            index,
            TracingCollector::factory(triple.scenario.site_count()),
        );
        assert_equivalence("reflisting", &triple, index, RefListingCollector::new);
    }
    assert!(
        checked >= 3,
        "the pinned index set must cover at least 3 loss-free triples, got {checked}"
    );
}

#[test]
fn recovery_equivalence_holds_with_on_disk_stores() {
    // Same property through the disk backend for one pinned triple: the
    // bytes written to real files must recover just as exactly.
    let weights = SegmentWeights::default();
    let (_, triple) = corpus_triple(PINNED_SEED, 0, &weights);
    assert!(
        triple.fault.plan.is_loss_free(),
        "index 0 is the reliable plan"
    );
    let scenario = &triple.scenario;

    let run = |dir: Option<std::path::PathBuf>| {
        let durability = match &dir {
            Some(dir) => DurabilityConfig::disk(dir).with_checkpoint_every(8),
            None => DurabilityConfig::memory().with_checkpoint_every(8),
        };
        let config = ClusterConfig {
            durability,
            ..triple.config()
        };
        let mut cluster = Cluster::from_scenario(scenario, config, CausalCollector::new);
        let half = scenario.steps().len() / 2;
        for step in &scenario.steps()[..half] {
            match step {
                Step::Op(op) => cluster.execute(*op),
                Step::Settle => cluster.settle(),
                Step::Membership(ev) => cluster.execute_membership(*ev),
            }
        }
        cluster.settle();
        if dir.is_some() {
            for site in 0..scenario.site_count() {
                cluster.crash_and_recover(SiteId::new(site));
            }
        }
        for step in &scenario.steps()[half..] {
            match step {
                Step::Op(op) => cluster.execute(*op),
                Step::Settle => cluster.settle(),
                Step::Membership(ev) => cluster.execute_membership(*ev),
            }
        }
        cluster.settle();
        (cluster.reclaimed_addrs(), cluster.garbage_addrs())
    };

    let dir = std::env::temp_dir().join(format!("ggd-recovery-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let baseline = run(None);
    let disk = run(Some(dir.clone()));
    assert_eq!(disk, baseline, "on-disk recovery diverged from memory");
    let _ = std::fs::remove_dir_all(&dir);
}
