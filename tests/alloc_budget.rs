//! Allocation budget of the steady-state control and collection path.
//!
//! A warm cluster should allocate only for state that grows: new log rows,
//! closure memos and holders. What it receives and collects it builds in
//! storage it already owns. The one allocation a step may make by design is
//! the `Vec` each non-empty `take_outgoing` or `take_verdicts` of the
//! `Collector` trait hands out. And what it holds should cost what it
//! holds: a warm cluster's live bytes per log row are bounded too, and a
//! grow-only cluster's heap bytes per held reference. What a durable
//! cluster writes should cost what it records: its WAL bytes per op are
//! bounded as well.
//!
//! A thread-local counting allocator measures one test thread at a time, so
//! the tests can run in parallel. Release only: debug builds clone snapshots
//! in the heap's delta self-check and run a full trace beside every
//! collection.
//!
//! ```sh
//! cargo test --release --test alloc_budget
//! ```
#![cfg(not(debug_assertions))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ggd::heap::{EdgeDelta, ReachabilitySnapshot};
use ggd::mutator::generator::{build_perf_scenario, PerfSpec};
use ggd::prelude::*;
use ggd::store::MembershipAnnouncement;

/// Counts the allocation calls (`alloc` and `realloc`) and the live bytes
/// of the current thread and forwards everything to the system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static NONEMPTY_TAKES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread, wrapping: a
    /// thread may free what another allocated, so only differences are
    /// read.
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the thread may be tearing its locals down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

/// Adds `grown` bytes to the live count and takes `freed` off it.
fn track(grown: usize, freed: usize) {
    let _ = LIVE.try_with(|n| {
        n.set(
            n.get()
                .wrapping_add(grown as u64)
                .wrapping_sub(freed as u64),
        )
    });
}

// The one unsafe item of the workspace: a `GlobalAlloc` that only counts
// and forwards every call unchanged to the system allocator.
//
// SAFETY: every method passes its arguments unchanged to `System`, so the
// caller's guarantees are the ones `System` requires and `System` upholds
// the contract of `GlobalAlloc`. The counters are `const`-initialised
// thread-local `Cell`s without a destructor, reached through `try_with`:
// counting neither allocates nor panics.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        track(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        track(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        track(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn read(counter: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
    counter.with(Cell::get)
}

/// The causal collector, counting the takes that hand out a non-empty
/// `Vec`: the allocations the `Collector` trait itself requires.
struct Counted(CausalCollector);

impl Counted {
    fn new(site: SiteId) -> Self {
        Counted(CausalCollector::new(site))
    }
}

impl Collector for Counted {
    type Msg = CausalMessage;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        self.0.on_export(exported, recipient);
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        self.0.on_third_party_send(target, recipient);
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        self.0.on_receive_ref(recipient, target);
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        self.0.apply_snapshot(snapshot);
    }

    fn apply_delta(&mut self, delta: &EdgeDelta, snapshot: &ReachabilitySnapshot) {
        self.0.apply_delta(delta, snapshot);
    }

    fn needs_every_sync(&self) -> bool {
        self.0.needs_every_sync()
    }

    fn on_membership(&mut self, ann: &MembershipAnnouncement) {
        self.0.on_membership(ann);
    }

    fn mentions_site(&self, site: SiteId) -> bool {
        self.0.mentions_site(site)
    }

    fn on_message(&mut self, from: SiteId, message: CausalMessage) {
        self.0.on_message(from, message);
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, CausalMessage)> {
        let out = self.0.take_outgoing();
        if !out.is_empty() {
            bump(&NONEMPTY_TAKES);
        }
        out
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        let verdicts = self.0.take_verdicts();
        if !verdicts.is_empty() {
            bump(&NONEMPTY_TAKES);
        }
        verdicts
    }
}

const SITES: u32 = 16;
const SPAN: u32 = 8;
/// Rings built and cut before the measured one.
const WARM_RINGS: u32 = 24;

/// Ballast in the shape of the benchmark's `ring_reclaim` (no islands,
/// hubs or churn), then `rings` times: a rooted anchor holding an
/// `SPAN`-site ring built by `send_ref`, a settle, the anchor cut, a
/// settle. Ring placement is a fixed function of the ring's number.
fn ring_scenario(rings: u32) -> Scenario {
    let ballast = PerfSpec {
        islands: 0,
        hubs: 0,
        churn_ops: 0,
        ..PerfSpec::mix(SITES, 2_000, 0)
    };
    let mut s = build_perf_scenario(&ballast, 17);
    for ring in 0..rings {
        let base = ring * 5 % SITES;
        let stride = 1 + ring % 2;
        let sites: Vec<SiteId> = (0..SPAN)
            .map(|k| SiteId::new((base + k * stride) % SITES))
            .collect();
        let anchor = s.alloc(sites[0], true);
        let members: Vec<ObjName> = sites.iter().map(|&site| s.alloc(site, false)).collect();
        s.send_ref(sites[0], anchor, members[0]);
        for k in 0..members.len() {
            let next = (k + 1) % members.len();
            s.send_ref(sites[next], members[k], members[next]);
        }
        s.settle();
        s.op(MutatorOp::Unlink {
            site: sites[0],
            from: anchor,
            to: members[0],
        });
        s.settle();
    }
    s
}

/// A cluster that has run every step of `scenario` but its last, which is
/// the settle after the last ring cut.
fn warm_cluster(scenario: &Scenario) -> Cluster<Counted> {
    let config = ClusterConfig {
        safety_oracle: false,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::from_scenario(scenario, config, Counted::new);
    let (last, warm) = scenario.steps().split_last().expect("a non-empty scenario");
    assert_eq!(*last, Step::Settle);
    for step in warm {
        match step {
            Step::Op(op) => cluster.execute(*op),
            Step::Settle => cluster.settle(),
            Step::Membership(_) => unreachable!("no membership events"),
        }
    }
    cluster
}

/// Allocation calls and non-empty takes while `f` runs.
fn count(f: impl FnOnce()) -> (u64, u64) {
    let (allocs, takes) = (read(&ALLOCS), read(&NONEMPTY_TAKES));
    f();
    (read(&ALLOCS) - allocs, read(&NONEMPTY_TAKES) - takes)
}

#[test]
fn a_ring_cut_settles_with_one_allocation_per_nonempty_take() {
    let scenario = ring_scenario(WARM_RINGS + 1);
    let mut cluster = warm_cluster(&scenario);
    let reclaimed = cluster.report().reclaimed;
    let (allocs, takes) = count(|| cluster.settle());
    let report = cluster.report();
    assert_eq!(
        report.reclaimed - reclaimed,
        u64::from(SPAN),
        "the ring is freed"
    );
    assert_eq!(report.residual_garbage, 0);
    // The slack covers state that may grow: a log row or closure memo
    // outgrowing its storage as the ring collapses, and the cluster's
    // record of freed identities gaining a word.
    let slack = 4;
    assert!(
        allocs <= takes + slack,
        "{allocs} allocations for {takes} non-empty takes (slack {slack})"
    );
}

#[test]
fn a_quiet_warm_cluster_collects_without_allocating() {
    let scenario = ring_scenario(WARM_RINGS);
    let mut cluster = warm_cluster(&scenario);
    cluster.settle();
    let (allocs, takes) = count(|| cluster.settle());
    assert_eq!(
        (allocs, takes),
        (0, 0),
        "a quiet settle is one collection round"
    );
}

#[test]
fn a_warm_ring_clusters_log_rows_cost_what_they_hold() {
    let scenario = ring_scenario(WARM_RINGS);
    let cluster = warm_cluster(&scenario);
    let logs = || (0..SITES).map(|site| cluster.collector(SiteId::new(site)).0.engine().log());
    let rows: usize = logs().map(|log| log.len()).sum();
    assert!(rows > 800, "only {rows} log rows");
    // The live bytes of a copy of every site's log: its rows and tables,
    // without the heaps and network beside them, whose bytes would hide a
    // regrown row (one remote row shape regrown to three entries inline
    // moves the whole cluster's live bytes per row by 3.5%, the logs' by
    // 19%).
    let before = read(&LIVE);
    let copies: Vec<_> = logs().cloned().collect();
    let live = read(&LIVE).wrapping_sub(before);
    drop(copies);
    // Measured on this cluster's 896 rows: 176 bytes a row with rows sized
    // by role, 209 with remote rows regrown to three entries inline, and
    // 231 with every row holding three entries and a stamp inline. The
    // bound is the first plus a tenth.
    let per_row = live / rows as u64;
    let bound = 176 * 11 / 10;
    assert!(
        per_row <= bound,
        "{per_row} live bytes per log row ({live} bytes, {rows} rows), bound {bound}"
    );
}

#[test]
fn a_grow_only_clusters_heaps_cost_what_their_references_hold() {
    let scenario = build_perf_scenario(&PerfSpec::mix(SITES, 4_000, 0), 17);
    let config = ClusterConfig {
        safety_oracle: false,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
    cluster.run(&scenario);
    let heaps = || cluster.heaps();
    let refs: usize = heaps()
        .flat_map(SiteHeap::iter)
        .map(|obj| obj.slot_count())
        .sum();
    let objects: usize = heaps().map(SiteHeap::len).sum();
    assert!(refs > 3_000, "only {refs} references on {objects} objects");
    // The live bytes of a copy of every site's heap: its slots, edge
    // chunks, identity index and delta tracker, without the engines and
    // network beside them.
    let before = read(&LIVE);
    let copies: Vec<SiteHeap> = heaps().cloned().collect();
    let live = read(&LIVE).wrapping_sub(before);
    drop(copies);
    // Measured on this cluster's 3,997 references: 99 bytes a reference
    // with references packed into 16 bytes (a chunk of four in 72), and
    // 116 with the 24-byte `ObjRef` enum in a 104-byte chunk. The bound is
    // the first plus a tenth.
    let per_ref = live / refs as u64;
    let bound = 99 * 11 / 10;
    assert!(
        per_ref <= bound,
        "{per_ref} live heap bytes per reference ({live} bytes, {refs} references, \
         {objects} objects), bound {bound}"
    );
}

#[test]
fn a_durable_clusters_wal_costs_what_its_records_carry() {
    let scenario = build_perf_scenario(&PerfSpec::mix(256, 5_000, 6_000), 17);
    let config = ClusterConfig {
        safety_oracle: false,
        durability: DurabilityConfig::memory().with_checkpoint_every(512),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::from_scenario(&scenario, config, CausalCollector::new);
    cluster.run(&scenario);
    let ops = scenario
        .steps()
        .iter()
        .filter(|step| matches!(step, Step::Op(_)))
        .count() as u64;
    let stats = cluster.store_stats();
    assert!(stats.records_appended > ops, "{stats:?} over {ops} ops");
    // Measured on this run's 49,944 records over 18,543 ops: 21.96 WAL
    // bytes an op with a 5-byte frame and site-relative addresses. The
    // bound is that plus a twentieth.
    let per_op = stats.wal_bytes_appended as f64 / ops as f64;
    let bound = 21.96 * 1.05;
    assert!(
        per_op <= bound,
        "{per_op:.3} WAL bytes per op ({} bytes, {} records, {ops} ops), bound {bound:.3}",
        stats.wal_bytes_appended,
        stats.records_appended
    );
}
