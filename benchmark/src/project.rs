//! Isolation passes for the two layers the public traits do not expose:
//! `heap` (inside `SiteRuntime`) and `store` (inside `SiteRuntime` too).
//!
//! The **heap projection** replays the capture rep's program-order log onto
//! bare [`SiteHeap`]s, mirroring `SiteRuntime`: the same heap call per
//! mutator op and per delivery, `take_delta` after every mutating entry
//! point, verdicts demoting global roots, and `collect` (+ `take_delta` when
//! something was freed) on every site at the end of each settle round. Only
//! the heap calls are timed, each by its own `Instant` pair, so the figures
//! carry that overhead (two clock reads per call) and are upper bounds.
//!
//! While it walks, the projection also synthesizes the per-site
//! [`WalRecord`] stream the runtimes would have logged; the **store pass**
//! appends those to fresh stores and loads them back.

use std::path::Path;
use std::time::{Duration, Instant};

use ggd_causal::CausalMessage;
use ggd_heap::{ObjRef, SiteHeap};
use ggd_mutator::{MutatorOp, ObjName, Scenario, Step};
use ggd_sim::SimPayload;
use ggd_store::{DurabilityConfig, SiteStore, WalRecord};
use ggd_types::{GlobalAddr, SiteId};

use crate::run::Wire;
use crate::traced::Captured;

/// Time and call count of one kind of heap call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Summed wall-clock of the calls.
    pub time: Duration,
    /// Number of calls.
    pub calls: u64,
}

impl Timed {
    #[inline]
    fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.time += start.elapsed();
        self.calls += 1;
        out
    }
}

/// What the heap projection measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapTimes {
    /// `alloc`, `add_ref`, `remove_ref`, `clear_refs`, `receive_ref`,
    /// `register_global_root`, `unregister_global_root`.
    pub mutate: Timed,
    /// `take_delta`.
    pub take_delta: Timed,
    /// `take_delta` calls that returned a non-empty delta.
    pub nonempty_deltas: u64,
    /// `collect`.
    pub collect: Timed,
    /// `collect` calls that freed nothing.
    pub noop_collects: u64,
    /// Objects freed by all collections.
    pub freed: u64,
    /// Objects alive on all sites at the end.
    pub live_objects_end: u64,
}

/// The per-site WAL record streams the projection synthesized.
pub type WalStreams = Vec<Vec<WalRecord<CausalMessage>>>;

struct Projection {
    heaps: Vec<SiteHeap>,
    names: Vec<Option<GlobalAddr>>,
    wal: WalStreams,
    times: HeapTimes,
}

impl Projection {
    fn sync(&mut self, site: usize) {
        let heap = &mut self.heaps[site];
        let delta = self.times.take_delta.call(|| heap.take_delta());
        if !delta.is_empty() {
            self.times.nonempty_deltas += 1;
        }
    }

    fn addr(&self, name: ObjName) -> Option<GlobalAddr> {
        self.names.get(name.0 as usize).copied().flatten()
    }

    fn op(&mut self, op: &MutatorOp) {
        match *op {
            MutatorOp::Alloc {
                site,
                name,
                local_root,
            } => {
                let s = site.index() as usize;
                self.wal[s].push(WalRecord::Alloc { local_root });
                let heap = &mut self.heaps[s];
                let id = self.times.mutate.call(|| {
                    if local_root {
                        heap.alloc_local_root()
                    } else {
                        heap.alloc()
                    }
                });
                let index = name.0 as usize;
                if self.names.len() <= index {
                    self.names.resize(index + 1, None);
                }
                self.names[index] = Some(heap.addr_of(id));
            }
            MutatorOp::LinkLocal { site, from, to } => {
                let (Some(from), Some(to)) = (self.addr(from), self.addr(to)) else {
                    return;
                };
                let s = site.index() as usize;
                self.wal[s].push(WalRecord::LinkLocal { from, to });
                let heap = &mut self.heaps[s];
                if heap.contains(from.object()) && heap.contains(to.object()) {
                    let _ = self
                        .times
                        .mutate
                        .call(|| heap.add_ref(from.object(), ObjRef::Local(to.object())));
                }
                self.sync(s);
            }
            MutatorOp::Unlink { site, from, to } => {
                let (Some(from), Some(to)) = (self.addr(from), self.addr(to)) else {
                    return;
                };
                let s = site.index() as usize;
                self.wal[s].push(WalRecord::Unlink { from, to });
                let reference = if to.site() == site {
                    ObjRef::Local(to.object())
                } else {
                    ObjRef::Remote(to)
                };
                let heap = &mut self.heaps[s];
                if heap.contains(from.object()) {
                    let _ = self
                        .times
                        .mutate
                        .call(|| heap.remove_ref(from.object(), reference));
                }
                self.sync(s);
            }
            MutatorOp::ClearRefs { site, name } => {
                let Some(addr) = self.addr(name) else { return };
                let s = site.index() as usize;
                self.wal[s].push(WalRecord::ClearRefs { addr });
                let heap = &mut self.heaps[s];
                if heap.contains(addr.object()) {
                    let _ = self.times.mutate.call(|| heap.clear_refs(addr.object()));
                }
                self.sync(s);
            }
            MutatorOp::SendRef {
                from_site,
                recipient,
                target,
            } => {
                let (Some(recipient), Some(target)) = (self.addr(recipient), self.addr(target))
                else {
                    return;
                };
                let s = from_site.index() as usize;
                self.wal[s].push(WalRecord::Export { target, recipient });
                let same_site = recipient.site() == from_site;
                if !same_site && target.site() == from_site {
                    let heap = &mut self.heaps[s];
                    if heap.contains(target.object()) {
                        let _ = self
                            .times
                            .mutate
                            .call(|| heap.register_global_root(target.object()));
                    }
                }
                self.sync(s);
                if same_site {
                    // The cluster stores a same-site transfer at once; a
                    // cross-site one arrives as a captured delivery.
                    self.receive(from_site, from_site, recipient, target);
                }
            }
            // The benchmark's generators emit none of the remaining kinds.
            MutatorOp::DropLocalRoot { .. }
            | MutatorOp::CollectSite { .. }
            | MutatorOp::CollectAll => {}
        }
    }

    fn receive(&mut self, to: SiteId, from: SiteId, recipient: GlobalAddr, target: GlobalAddr) {
        let s = to.index() as usize;
        self.wal[s].push(WalRecord::ReceiveRef {
            from,
            recipient,
            target,
        });
        let heap = &mut self.heaps[s];
        if heap.contains(recipient.object()) {
            let _ = self
                .times
                .mutate
                .call(|| heap.receive_ref(recipient.object(), target));
        }
        self.sync(s);
    }

    fn collect_all(&mut self) {
        for s in 0..self.heaps.len() {
            self.wal[s].push(WalRecord::Collect);
            let heap = &mut self.heaps[s];
            let outcome = self.times.collect.call(|| heap.collect());
            if outcome.is_noop() {
                self.times.noop_collects += 1;
            } else {
                self.times.freed += outcome.freed.len() as u64;
                self.sync(s);
            }
        }
    }
}

/// Replays `log` (the capture rep's events) over `scenario` onto bare heaps.
/// Returns the heap timings and the synthesized per-site WAL streams.
pub fn heap_projection(scenario: &Scenario, log: &[Captured<Wire>]) -> (HeapTimes, WalStreams) {
    let sites = scenario.site_count() as usize;
    let mut p = Projection {
        heaps: (0..sites as u32)
            .map(|s| SiteHeap::new(SiteId::new(s)))
            .collect(),
        names: Vec::new(),
        wal: vec![Vec::new(); sites],
        times: HeapTimes::default(),
    };
    for event in log {
        match event {
            Captured::Step(index) => {
                if let Some(Step::Op(op)) = scenario.steps().get(*index) {
                    p.op(op);
                }
            }
            Captured::Delivery { to, from, payload } => match payload {
                SimPayload::Reference { recipient, target } => {
                    p.receive(*to, *from, *recipient, *target);
                }
                SimPayload::Control(msg) => {
                    let s = to.index() as usize;
                    p.wal[s].push(WalRecord::Control {
                        from: *from,
                        msg: msg.clone(),
                    });
                    p.sync(s);
                }
            },
            Captured::Verdict(addr) => {
                let heap = &mut p.heaps[addr.site().index() as usize];
                p.times
                    .mutate
                    .call(|| heap.unregister_global_root(addr.object()));
            }
            Captured::RoundEnd => p.collect_all(),
        }
    }
    p.times.live_objects_end = p.heaps.iter().map(|h| h.len() as u64).sum();
    (p.times, p.wal)
}

/// What the store pass measured on one medium.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTimes {
    /// All `append` calls, every site.
    pub append: Timed,
    /// Bytes the appends wrote (payload + framing).
    pub wal_bytes: u64,
    /// All `load` calls, one per site.
    pub load: Duration,
    /// Records the loads read back.
    pub records_loaded: u64,
}

/// Appends every site's stream to a fresh store under `config` (one timer
/// per site, not per record: an append is too short to time alone), then
/// loads each store back. Checkpoints never fire: an image needs a runtime.
pub fn store_pass(wal: &WalStreams, config: &DurabilityConfig) -> StoreTimes {
    let config = config.clone().with_checkpoint_every(u32::MAX);
    let mut out = StoreTimes::default();
    let mut stores = Vec::with_capacity(wal.len());
    for (site, records) in wal.iter().enumerate() {
        let mut store: SiteStore<CausalMessage> =
            SiteStore::open(SiteId::new(site as u32), &config).expect("durability is on");
        let start = Instant::now();
        for record in records {
            store.append(record);
        }
        out.append.time += start.elapsed();
        out.append.calls += records.len() as u64;
        out.wal_bytes += store.stats().wal_bytes_appended;
        stores.push(store);
    }
    for store in &mut stores {
        let start = Instant::now();
        let loaded = store.load();
        out.load += start.elapsed();
        out.records_loaded += loaded.map_or(0, |(_, records)| records.len() as u64);
    }
    out
}

/// The store pass on real files under `dir` (created, then removed). The
/// sandbox's disk is whatever backs the checkout, so the figure is labelled
/// sandbox-disk and gates nothing.
pub fn disk_store_pass(wal: &WalStreams, dir: &Path) -> std::io::Result<StoreTimes> {
    std::fs::create_dir_all(dir)?;
    let times = store_pass(wal, &DurabilityConfig::disk(dir));
    std::fs::remove_dir_all(dir)?;
    Ok(times)
}
