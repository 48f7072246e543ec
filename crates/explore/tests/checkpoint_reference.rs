//! The checkpoint path against the code it replaced, kept here as the
//! reference, at every checkpoint of durable runs:
//!
//! * **Compaction.** `CausalEngine::compact_detected` tests "dead" by each
//!   vertex's own verdict flag and filters rows in place. The reference is
//!   the ordered-set compaction it replaced, run on the engine's checkpoint
//!   taken just before: after the real compaction the engine's checkpoint
//!   (every field, and its bytes), its `DkLog` and its
//!   `compaction_rows_dropped` must equal the reference's.
//! * **Engine writer.** The bytes `checkpoint_state` writes from the live
//!   engine must equal `encode_to_vec(&engine.checkpoint())`.
//! * **Sealed blob.** At the step boundary after each checkpoint, the blob
//!   `write_checkpoint` seals straight from the site's heap must equal
//!   `seal_checkpoint(&encode_to_vec(&CheckpointImage { heap:
//!   heap.image(), collector }), epoch)`, and a memory store that installs
//!   it over its own previous checkpoints must load the same image back,
//!   from which the same heap is rebuilt. The byte pins fold only the
//!   collector bytes, so this pins the heap half.
//! * **Readers.** Recovery reads the same blob straight into a heap and an
//!   engine (`SiteStore::load_with` into a `SiteHeap`, `read_engine_image`
//!   into a `CausalEngine`). The reference is the owned rebuild it
//!   replaced: `load()` then `SiteHeap::from_image`, and
//!   `decode_engine_checkpoint` then `CausalEngine::restore`. The heaps
//!   must be equal, with a primed tracker equal to a rescan; the engines'
//!   checkpoint bytes and logs must be equal.
//!
//! The runs: the `wide_durable` and `remote_churn` shapes of the repo
//! benchmark at 1/10 scale, `workloads::export_churn`,
//! `workloads::random_churn` and the first 30 triples of the explorer's
//! seed-7 crash corpus, all checkpointing often.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use ggd_causal::{CausalEngine, CausalMessage, DkLog, EngineCheckpoint, RootedVector};
use ggd_explore::crash_corpus_triple;
use ggd_heap::{EdgeDelta, HeapImageSource, ReachabilitySnapshot, SiteHeap};
use ggd_mutator::generator::{build_perf_scenario, PerfSpec, SegmentWeights};
use ggd_mutator::{workloads, Scenario, Step};
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, Collector, DurabilityConfig, MembershipAnnouncement,
};
use ggd_store::store::write_checkpoint;
use ggd_store::wal::seal_checkpoint;
use ggd_store::wire::{decode_engine_checkpoint, read_engine_image};
use ggd_store::{encode_to_vec, CheckpointImage, SiteStore};
use ggd_types::{GlobalAddr, SiteId, Timestamp, VertexId};

/// What the reference's four rules removed, summed over every compaction.
#[derive(Debug, Default)]
struct Rules {
    dead_rows: u64,
    dead_entries: u64,
    dead_remote_rows: u64,
    inert_rows: u64,
    stamps: u64,
}

/// A copy of `log` keeping the rows `keep_row` accepts, each edited by
/// `edit`, and the log-level stamps `keep_stamp` accepts.
fn rebuilt(
    log: &DkLog,
    site: SiteId,
    keep_row: impl Fn(VertexId) -> bool,
    mut edit: impl FnMut(&mut RootedVector),
    keep_stamp: impl Fn(VertexId) -> bool,
) -> DkLog {
    let mut out = DkLog::new(site);
    for (vertex, row) in log.rows() {
        if keep_row(vertex) {
            let mut row = row.to_rooted();
            edit(&mut row);
            out.row_mut(vertex).assign(row);
        }
    }
    for &(vertex, (as_of, is_root)) in log.root_flags().iter() {
        if keep_stamp(vertex) {
            out.stamp_root(vertex, as_of, is_root);
        }
    }
    out
}

fn stamp_count(log: &DkLog) -> usize {
    log.root_flags().len()
        + log
            .rows()
            .map(|(_, row)| row.root_flags().len())
            .sum::<usize>()
}

/// The reference compaction: the ordered-set algorithm
/// `CausalEngine::compact_detected` used to run, on a checkpoint. A remote
/// object has a record in the engine exactly when a local vertex holds an
/// edge to it or a receive-rule holder is recorded for it. Returns the
/// number of rows dropped.
fn reference_compact(c: &mut EngineCheckpoint, rules: &mut Rules) -> usize {
    let site = c.site;
    let dead: BTreeSet<VertexId> = c.detected.iter().map(|&a| VertexId::from(a)).collect();

    // 1. Local detected vertices: rows, entries keyed by them, holders and
    // stamps.
    let mut dropped = 0;
    if !dead.is_empty() {
        for holders in c.inbound_holders.values_mut() {
            holders.retain(|holder| !dead.contains(holder));
        }
        c.inbound_holders.retain(|_, holders| !holders.is_empty());
        let before = c.log.len();
        c.log = rebuilt(
            &c.log,
            site,
            |vertex| !dead.contains(&vertex),
            |row| {
                for &vertex in &dead {
                    if row.vector.set(vertex, Timestamp::NEVER) != Timestamp::NEVER {
                        rules.dead_entries += 1;
                    }
                }
                row.root_flags.retain(|vertex| !dead.contains(&vertex));
            },
            |vertex| !dead.contains(&vertex),
        );
        dropped += before - c.log.len();
        rules.dead_rows += (before - c.log.len()) as u64;
    }

    // 2. Dead remote rows.
    let remote: BTreeSet<GlobalAddr> = c
        .edges_out
        .values()
        .flatten()
        .chain(c.inbound_holders.keys())
        .copied()
        .collect();
    let dead_remote: BTreeSet<VertexId> = c
        .log
        .rows()
        .filter(|(vertex, row)| {
            let Some(addr) = vertex.as_object() else {
                return false;
            };
            addr.site() != site
                && row.entries().iter().all(|(_, ts)| !ts.is_live())
                && !remote.contains(&addr)
        })
        .map(|(vertex, _)| vertex)
        .collect();

    // 3. Inert local self-rows.
    let holders: BTreeSet<VertexId> = c.inbound_holders.values().flatten().copied().collect();
    let inert: BTreeSet<VertexId> = c
        .log
        .rows()
        .filter(|(vertex, row)| {
            let Some(addr) = vertex.as_object() else {
                return false;
            };
            addr.site() == site
                && row.entries().len() == 1
                && row.get(*vertex).is_live()
                && row.root_flags().is_empty()
                && !c.locally_rooted.contains(vertex)
                && !c.edges_out.contains_key(vertex)
                && !holders.contains(vertex)
        })
        .map(|(vertex, _)| vertex)
        .collect();
    let before = c.log.len();
    c.log = rebuilt(
        &c.log,
        site,
        |vertex| !dead_remote.contains(&vertex) && !inert.contains(&vertex),
        |_| {},
        |_| true,
    );
    dropped += before - c.log.len();
    rules.dead_remote_rows += dead_remote.len() as u64;
    rules.inert_rows += inert.len() as u64;

    // 4. Stale root-status stamps.
    let mut keep = holders;
    for (vertex, row) in c.log.rows() {
        keep.insert(vertex);
        keep.extend(row.entries().iter().map(|&(q, _)| q));
    }
    keep.extend(remote.iter().map(|&addr| VertexId::from(addr)));
    keep.extend(c.locally_rooted.iter().copied());
    let before = stamp_count(&c.log);
    c.log = rebuilt(
        &c.log,
        site,
        |_| true,
        |row| row.root_flags.retain(|vertex| keep.contains(&vertex)),
        |vertex| keep.contains(&vertex),
    );
    rules.stamps += (before - stamp_count(&c.log)) as u64;

    for vertex in dead.iter().chain(&dead_remote).chain(&inert) {
        c.last_closure.remove(vertex);
    }
    c.stats.compaction_runs += 1;
    c.stats.compaction_rows_dropped += dropped as u64;
    dropped
}

/// What the audit saw over a run family.
#[derive(Debug, Default)]
struct Audit {
    rules: Rules,
    checkpoints: u64,
    rows_dropped: u64,
    /// Sites checkpointed since the last step boundary, with the collector
    /// bytes of their latest checkpoint.
    pending: BTreeMap<SiteId, Vec<u8>>,
    blobs: u64,
    /// One memory store per site, installing every checked blob in turn.
    stores: BTreeMap<SiteId, SiteStore<CausalMessage>>,
}

type Shared = Rc<RefCell<Audit>>;

/// Delegates to the causal collector, checking every checkpoint against
/// the reference compaction and the owned-image engine writer.
struct AuditCollector {
    inner: CausalCollector,
    site: SiteId,
    audit: Shared,
}

impl Collector for AuditCollector {
    type Msg = CausalMessage;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        self.inner.on_export(exported, recipient);
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        self.inner.on_third_party_send(target, recipient);
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        self.inner.on_receive_ref(recipient, target);
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        self.inner.apply_snapshot(snapshot);
    }

    fn apply_delta(&mut self, delta: &EdgeDelta, snapshot: &ReachabilitySnapshot) {
        self.inner.apply_delta(delta, snapshot);
    }

    fn needs_every_sync(&self) -> bool {
        self.inner.needs_every_sync()
    }

    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        let mut audit = self.audit.borrow_mut();
        let mut expected = self.inner.engine().checkpoint();
        let dropped = reference_compact(&mut expected, &mut audit.rules);
        let state = self.inner.checkpoint_state()?;
        let engine = self.inner.engine();
        let n = audit.checkpoints;
        assert_eq!(engine.log(), &expected.log, "checkpoint {n}: compacted log");
        assert_eq!(engine.stats(), &expected.stats, "checkpoint {n}: stats");
        let actual = engine.checkpoint();
        assert_eq!(actual, expected, "checkpoint {n}: engine state");
        let owned = encode_to_vec(&actual);
        assert_eq!(state, owned, "checkpoint {n}: engine writer");
        assert_eq!(owned, encode_to_vec(&expected), "checkpoint {n}: bytes");
        audit.checkpoints += 1;
        audit.rows_dropped += dropped as u64;
        audit.pending.insert(self.site, state.clone());
        Some(state)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_state(bytes)
    }

    fn restore_state_below(&mut self, bytes: &[u8], next_object: u64) -> bool {
        self.inner.restore_state_below(bytes, next_object)
    }

    fn on_membership(&mut self, ann: &MembershipAnnouncement) {
        self.inner.on_membership(ann);
    }

    fn mentions_site(&self, site: SiteId) -> bool {
        self.inner.mentions_site(site)
    }

    fn obs_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.obs_counters()
    }

    fn on_message(&mut self, from: SiteId, message: Self::Msg) {
        self.inner.on_message(from, message);
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
        self.inner.take_outgoing()
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        self.inner.take_verdicts()
    }
}

/// Checks the sealed blob of every site checkpointed since the last step
/// boundary and still up, over its heap as it is now.
fn check_blobs(cluster: &Cluster<AuditCollector>, audit: &Shared) {
    let pending = std::mem::take(&mut audit.borrow_mut().pending);
    for (site, state) in pending {
        if !cluster.site_is_up(site) {
            continue;
        }
        let heap = cluster.heap(site);
        let epoch = audit.borrow().blobs + 1;
        let image = CheckpointImage {
            heap: heap.image(),
            collector: state,
        };
        let old = seal_checkpoint(&encode_to_vec(&image), epoch);
        let mut blob = Vec::new();
        write_checkpoint(&mut blob, heap, &image.collector, epoch);
        assert_eq!(blob, old, "{site}: sealed blob");

        let mut audit = audit.borrow_mut();
        let store = audit.stores.entry(site).or_insert_with(|| {
            SiteStore::open(site, &DurabilityConfig::memory()).expect("a memory store")
        });
        store.install_checkpoint(heap, &image.collector);
        let (loaded, records) = store.load().expect("a sealed blob loads");
        assert!(records.is_empty());
        let loaded = loaded.expect("the store holds a checkpoint");
        assert_eq!(loaded, image, "{site}: loaded image");
        let rebuilt = SiteHeap::from_image(&loaded.heap);
        assert_eq!(&rebuilt, heap, "{site}: heap");

        let (read, _) = store
            .load_with(|heap: SiteHeap, state| {
                let engine: CausalEngine =
                    read_engine_image(state, heap.next_object()).expect("the engine image reads");
                (heap, engine)
            })
            .expect("a sealed blob reads");
        let (read_heap, read_engine) = read.expect("the store holds a checkpoint");
        assert_eq!(read_heap, rebuilt, "{site}: heap read");
        assert!(
            read_heap.tracker_is_consistent(),
            "{site}: heap read tracker"
        );
        let restored = CausalEngine::restore(
            decode_engine_checkpoint(&loaded.collector, loaded.heap.next_object)
                .expect("the engine image decodes"),
        );
        assert_eq!(
            encode_to_vec(&read_engine.checkpoint()),
            encode_to_vec(&restored.checkpoint()),
            "{site}: engine read"
        );
        assert_eq!(
            read_engine.log().to_string(),
            restored.log().to_string(),
            "{site}: engine read log"
        );
        audit.blobs += 1;
    }
}

/// Steps `scenario` from outside under `config`, auditing every checkpoint
/// and, at every step boundary, the blobs of the sites that checkpointed.
fn audit_run(scenario: &Scenario, config: ClusterConfig, audit: &Shared) {
    let shared = audit.clone();
    let mut cluster = Cluster::from_scenario(scenario, config, move |site| AuditCollector {
        inner: CausalCollector::new(site),
        site,
        audit: shared.clone(),
    });
    for step in scenario.steps() {
        match step {
            Step::Op(op) => cluster.execute(*op),
            Step::Settle => cluster.settle(),
            Step::Membership(ev) => cluster.execute_membership(*ev),
        }
        check_blobs(&cluster, audit);
    }
    cluster.settle();
    check_blobs(&cluster, audit);
    assert_eq!(cluster.report().safety_violations, 0);
}

/// Asserts the audit checked checkpoints and sealed blobs, that the rows
/// dropped add up by rule, and that each of `rules` removed something.
fn assert_covered(label: &str, audit: &Shared, rules: &[&str]) {
    let audit = audit.borrow();
    let seen = &audit.rules;
    assert!(audit.checkpoints > 0, "{label}: no checkpoint");
    assert!(audit.blobs > 0, "{label}: no sealed blob checked");
    assert_eq!(
        audit.rows_dropped,
        seen.dead_rows + seen.dead_remote_rows + seen.inert_rows,
        "{label}: rows by rule"
    );
    for &rule in rules {
        let count = match rule {
            "dead rows" => seen.dead_rows,
            "dead entries" => seen.dead_entries,
            "dead remote rows" => seen.dead_remote_rows,
            "inert rows" => seen.inert_rows,
            "stamps" => seen.stamps,
            _ => unreachable!("unknown rule {rule}"),
        };
        assert!(
            count > 0,
            "{label}: no compaction exercised {rule}: {seen:?}"
        );
    }
}

fn durable(every: u32) -> ClusterConfig {
    ClusterConfig {
        durability: DurabilityConfig::memory().with_checkpoint_every(every),
        ..ClusterConfig::default()
    }
}

#[test]
fn checkpoints_match_the_reference_on_the_durable_perf_shapes() {
    let shapes = [
        ("wide_durable", PerfSpec::mix(256, 5_000, 6_000)),
        ("remote_churn", PerfSpec::mix(64, 800, 15_000)),
    ];
    for (name, spec) in &shapes {
        let audit = Shared::default();
        for seed in [17u64, 23] {
            audit_run(&build_perf_scenario(spec, seed), durable(64), &audit);
        }
        let rules = ["dead rows", "dead entries", "dead remote rows"];
        assert_covered(name, &audit, &rules);
    }
}

#[test]
fn checkpoints_match_the_reference_under_export_churn() {
    let audit = Shared::default();
    for every in [4, 8, 64] {
        audit_run(&workloads::export_churn(4, 120), durable(every), &audit);
    }
    let rules = ["dead rows", "dead remote rows", "inert rows"];
    assert_covered("export churn", &audit, &rules);
}

#[test]
fn checkpoints_match_the_reference_under_random_churn() {
    // The one family here that leaves root-status stamps no row mentions.
    let audit = Shared::default();
    for seed in 1..=4 {
        for sites in [3, 4] {
            audit_run(
                &workloads::random_churn(sites, 1_000, seed),
                durable(8),
                &audit,
            );
        }
    }
    let rules = [
        "dead rows",
        "dead entries",
        "dead remote rows",
        "inert rows",
        "stamps",
    ];
    assert_covered("random churn", &audit, &rules);
}

#[test]
fn checkpoints_match_the_reference_on_the_crash_corpus() {
    let weights = SegmentWeights::default();
    let audit = Shared::default();
    for index in 0..30 {
        let (_, triple) = crash_corpus_triple(7, index, &weights);
        audit_run(&triple.scenario, triple.config(), &audit);
    }
    assert_covered("crash corpus", &audit, &["dead rows", "dead remote rows"]);
}
