//! The per-site runtime: one heap paired with one garbage-detection engine.
//!
//! [`SiteRuntime`] contains everything about a site that is independent of
//! how messages reach it: mutator operations against the local heap, the
//! lazy-rule collector hooks, snapshot plumbing after every mutation, local
//! collections and verdict application. Runtimes are hosted by the
//! crate's shard executor, on whichever thread a driver puts it.
//!
//! Every mutating entry point returns a [`SiteTick`]: the control messages
//! the site wants sent and the number of GGD verdicts it applied to its own
//! heap. The shard books the counters and hands the messages to its driver.

use ggd_heap::{EdgeDelta, HeapImageSource, ObjRef, SiteHeap};
use ggd_obs::SiteObs;
use ggd_store::{HandoffRecord, MembershipAnnouncement, SiteStore, WalRecord};
use ggd_types::{GlobalAddr, ObjectId, SiteId};

use std::collections::BTreeSet;

use crate::collector::Collector;

/// Control messages and verdicts produced by one runtime step.
#[derive(Debug)]
pub struct SiteTick<M> {
    /// Control messages to hand to the transport, as (destination, message),
    /// in the order the collector produced them.
    pub outgoing: Vec<(SiteId, M)>,
    /// GGD verdicts applied to this site's heap during the step (global
    /// roots demoted).
    pub verdicts_applied: u64,
}

/// One site of the cluster: a [`SiteHeap`] plus a [`Collector`], wired
/// together exactly as the paper prescribes (§3.1's relevant events feed the
/// engine; snapshots are diffed after every local mutation).
#[derive(Debug)]
pub struct SiteRuntime<C: Collector> {
    site: SiteId,
    heap: SiteHeap,
    collector: C,
    /// The durable store, when the cluster runs with durability on. Every
    /// mutating entry point appends its event *before* applying it
    /// (write-ahead); [`SiteRuntime::recover`] replays the log through the
    /// same entry points. `None` during recovery replay itself, so replayed
    /// events are not re-logged.
    store: Option<SiteStore<C::Msg>>,
    /// Observability handle (`ggd-obs`). Disabled by default — every probe
    /// below is a no-op then. The measurement layer sits *outside* the
    /// failure model: the driver detaches it before a crash and re-attaches
    /// it after [`SiteRuntime::recover`] (which always builds the runtime
    /// with a disabled handle), so WAL replay through the entry points never
    /// double-counts.
    obs: SiteObs,
    /// The heap's latest delta, handed back to it on every sync so its
    /// buffers are reused.
    delta: EdgeDelta,
    /// The objects the latest collection freed, ascending: handed back to
    /// the heap on every collection so the buffer is reused.
    freed: Vec<ObjectId>,
}

/// The sites among `sites` whose collector state or heap still references
/// `departed`.
pub(crate) fn sites_mentioning<'a, C: Collector + 'a>(
    sites: impl Iterator<Item = (SiteId, &'a SiteRuntime<C>)>,
    departed: SiteId,
) -> Vec<SiteId> {
    sites
        .filter(|(_, rt)| {
            rt.collector.mentions_site(departed)
                || rt
                    .heap
                    .remote_targets()
                    .iter()
                    .any(|addr| addr.site() == departed)
        })
        .map(|(s, _)| s)
        .collect()
}

impl<C: Collector> SiteRuntime<C> {
    /// Creates the runtime for `site` around `collector`.
    pub fn new(site: SiteId, collector: C) -> Self {
        SiteRuntime {
            site,
            heap: SiteHeap::new(site),
            collector,
            store: None,
            obs: SiteObs::disabled(),
            delta: EdgeDelta::empty(site),
            freed: Vec::new(),
        }
    }

    /// Attaches an observability handle. Meant for a fresh runtime, before
    /// any event.
    pub fn with_obs(mut self, obs: SiteObs) -> Self {
        self.obs = obs;
        self
    }

    /// Read access to the observability handle.
    pub fn obs(&self) -> &SiteObs {
        &self.obs
    }

    /// This site's scope of an observability report: the probes' recordings
    /// plus the collector and heap counters as auxiliary gauges.
    pub(crate) fn obs_scope(&self) -> SiteObs {
        let mut obs = self.obs.clone();
        if obs.is_enabled() {
            for (name, value) in self.collector.obs_counters() {
                obs.set_gauge_aux(name, value);
            }
            let heap = self.heap.stats();
            obs.set_gauge_aux("heap_allocated", heap.allocated);
            obs.set_gauge_aux("heap_collected", heap.collected);
            obs.set_gauge_aux("heap_collections", heap.collections);
        }
        obs
    }

    /// Mutable access to the observability handle (the driver uses this to
    /// keep the logical step clock current).
    pub fn obs_mut(&mut self) -> &mut SiteObs {
        &mut self.obs
    }

    /// Detaches the observability handle, leaving a disabled one — the crash
    /// path: measurements survive the crash outside the failure model.
    pub fn take_obs(&mut self) -> SiteObs {
        self.obs.take()
    }

    /// Re-attaches an observability handle after recovery.
    pub fn set_obs(&mut self, obs: SiteObs) {
        self.obs = obs;
    }

    /// Attaches a durable store (durability on). Meant for a fresh runtime,
    /// before any event.
    pub fn with_store(mut self, store: SiteStore<C::Msg>) -> Self {
        self.store = Some(store);
        self
    }

    /// Read access to the durable store, when one is attached.
    pub fn store(&self) -> Option<&SiteStore<C::Msg>> {
        self.store.as_ref()
    }

    /// Detaches and returns the durable store — the crash path: the caller
    /// keeps the store (the durable medium) and drops the runtime (the
    /// volatile state).
    pub fn take_store(&mut self) -> Option<SiteStore<C::Msg>> {
        self.store.take()
    }

    /// Rebuilds a site runtime from its durable store: loads the latest
    /// checkpoint (heap image + collector state), then replays every WAL
    /// record appended after it through the ordinary entry points. Replay
    /// is deterministic, so the rebuilt heap and collector are bit-for-bit
    /// the pre-crash state, and the control messages regenerated during
    /// replay (discarded here — they were already on the wire before the
    /// crash) equal the originally sent stream.
    ///
    /// `collector` must be a *fresh* collector of the same kind the store
    /// was written under.
    ///
    /// # Panics
    ///
    /// Panics when the durable state is unreadable (corrupt checksum,
    /// undecodable record) or when the collector refuses its checkpoint —
    /// recovery must fail loudly, never run with half a state.
    pub fn recover(mut store: SiteStore<C::Msg>, mut collector: C) -> Self {
        let site = store.site();
        // The checkpoint's heap image is read straight into the heap, and
        // the collector restores from its state borrowed from the store.
        let (checkpoint, records) = store
            .load_with(|heap: SiteHeap, state| {
                let accepted = collector.restore_state_below(state, heap.next_object());
                (heap, accepted)
            })
            .expect("durable site state must be readable for recovery");
        let mut runtime = match checkpoint {
            Some((heap, accepted)) => {
                assert!(
                    accepted,
                    "collector rejected its own checkpoint during recovery of {site}"
                );
                // The restored heap's delta cache is its restored state, the
                // knowledge the collector was checkpointed with, so the
                // replayed events below produce exactly the deltas of the
                // original run.
                SiteRuntime {
                    site,
                    heap,
                    collector,
                    store: None,
                    obs: SiteObs::disabled(),
                    delta: EdgeDelta::empty(site),
                    freed: Vec::new(),
                }
            }
            // No checkpoint yet: replay from genesis (also the only path
            // for collectors that cannot checkpoint).
            None => SiteRuntime::new(site, collector),
        };
        for record in records {
            runtime.replay(record);
        }
        runtime.store = Some(store);
        runtime
    }

    /// Applies one WAL record through the ordinary entry points, repeating
    /// exactly what the shard did when the event first happened. Ticks
    /// are discarded: the outgoing messages were already sent and the
    /// verdicts already applied (to this heap — which the replay re-applies
    /// identically) before the crash.
    fn replay(&mut self, record: WalRecord<C::Msg>) {
        match record {
            WalRecord::Alloc { local_root } => {
                let _ = self.alloc(local_root);
            }
            WalRecord::LinkLocal { from, to } => {
                let _ = self.link_local(from, to);
            }
            WalRecord::Unlink { from, to } => {
                let _ = self.unlink(from, to);
            }
            WalRecord::ClearRefs { addr } => {
                let _ = self.clear_refs(addr);
            }
            WalRecord::DropLocalRoot { addr } => {
                let _ = self.drop_local_root(addr);
            }
            WalRecord::Export { target, recipient } => {
                let _ = self.export_reference(target, recipient);
            }
            WalRecord::ReceiveRef {
                from,
                recipient,
                target,
            } => {
                let _ = self.receive_reference(from, recipient, target);
            }
            WalRecord::Control { from, msg } => {
                let _ = self.on_control(from, msg);
            }
            WalRecord::Collect => {
                // As when the record was written: a collection that
                // freed nothing does not sync.
                if !self.collect().is_empty() {
                    let _ = self.sync();
                }
            }
            WalRecord::Membership { ann } => {
                let _ = self.apply_membership(ann);
            }
            WalRecord::Handoff { record } => {
                // Replay applies the *recorded* drops, never a fresh heap
                // scan: the severing is identical regardless of what the
                // surrounding replay has reconstructed so far.
                let _ = self.apply_handoff(&record);
            }
        }
    }

    /// Write-ahead: appends `record` before the caller applies the event.
    fn log(&mut self, record: WalRecord<C::Msg>) {
        if let Some(store) = &mut self.store {
            store.append(&record);
        }
    }

    /// Installs a checkpoint when the store's cadence asks for one and the
    /// collector can produce its state. Called by the shard after it has
    /// absorbed a tick, i.e. with outgoing messages and verdicts drained.
    pub fn maybe_checkpoint(&mut self) {
        let Some(store) = &mut self.store else {
            return;
        };
        if !store.wants_checkpoint() {
            return;
        }
        let before = if self.obs.is_enabled() {
            self.collector.obs_counters()
        } else {
            Vec::new()
        };
        let Some(state) = self.collector.checkpoint_state() else {
            return;
        };
        store.install_checkpoint(&self.heap, &state);
        if self.obs.is_enabled() {
            // Checkpointing is where DkLog compaction runs: surface the
            // rows it dropped as a trace event.
            let compacted = self
                .collector
                .obs_counters()
                .iter()
                .find(|(name, _)| *name == "dk_rows_compacted")
                .map(|&(_, v)| v)
                .map(|after| {
                    before
                        .iter()
                        .find(|(name, _)| *name == "dk_rows_compacted")
                        .map_or(after, |&(_, v)| after.saturating_sub(v))
                })
                .unwrap_or(0);
            self.obs.add_aux("checkpoints", 1);
            self.obs
                .event("checkpoint", false, &[("dk_rows_compacted", compacted)]);
        }
    }

    /// The site this runtime hosts.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Read access to the site's heap.
    pub fn heap(&self) -> &SiteHeap {
        &self.heap
    }

    /// Drops the runtime, keeping only its heap — the crash path, once the
    /// store and the measurements are detached: the crash-time heap is
    /// moved out of the volatile state, not copied.
    pub(crate) fn into_heap(self) -> SiteHeap {
        self.heap
    }

    /// Read access to the site's collector.
    pub fn collector(&self) -> &C {
        &self.collector
    }

    /// Allocates a fresh object, optionally as a designated local root.
    pub fn alloc(&mut self, local_root: bool) -> GlobalAddr {
        self.log(WalRecord::Alloc { local_root });
        let id = if local_root {
            self.heap.alloc_local_root()
        } else {
            self.heap.alloc()
        };
        let addr = self.heap.addr_of(id);
        self.obs.on_alloc(addr);
        addr
    }

    /// Adds a local reference `from → to`. Either endpoint may already have
    /// been collected under a churning workload; such a link is a no-op.
    pub fn link_local(&mut self, from: GlobalAddr, to: GlobalAddr) -> SiteTick<C::Msg> {
        self.log(WalRecord::LinkLocal { from, to });
        if self.heap.contains(from.object()) && self.heap.contains(to.object()) {
            self.heap
                .add_ref(from.object(), ObjRef::Local(to.object()))
                .expect("link endpoints exist");
        }
        self.sync()
    }

    /// Removes one reference `from → to` (local or remote).
    pub fn unlink(&mut self, from: GlobalAddr, to: GlobalAddr) -> SiteTick<C::Msg> {
        self.log(WalRecord::Unlink { from, to });
        let reference = if to.site() == self.site {
            ObjRef::Local(to.object())
        } else {
            ObjRef::Remote(to)
        };
        if self.heap.contains(from.object()) {
            let _ = self.heap.remove_ref(from.object(), reference);
        }
        self.sync()
    }

    /// Drops every reference held by the object at `addr`.
    pub fn clear_refs(&mut self, addr: GlobalAddr) -> SiteTick<C::Msg> {
        self.log(WalRecord::ClearRefs { addr });
        if self.heap.contains(addr.object()) {
            self.heap.clear_refs(addr.object()).expect("object exists");
        }
        self.sync()
    }

    /// Removes the object at `addr` from the designated local roots.
    pub fn drop_local_root(&mut self, addr: GlobalAddr) -> SiteTick<C::Msg> {
        self.log(WalRecord::DropLocalRoot { addr });
        self.heap.remove_local_root(addr.object());
        self.sync()
    }

    /// The sending half of a reference transfer (`SendRef`): registers the
    /// export with the heap and fires the matching lazy-rule collector hook.
    /// The caller puts the reference-carrying mutator message on the wire
    /// *after* absorbing the returned tick, mirroring the paper's ordering
    /// (log-keeping happens at the send event).
    ///
    /// A transfer whose recipient lives on this very site is *not* a
    /// relevant event in the paper's sense (§3.1): no reference crosses a
    /// site boundary, so no global root is registered and no lazy-rule hook
    /// fires — the stored reference surfaces through the next reachability
    /// snapshot like any local mutation.
    pub fn export_reference(
        &mut self,
        target: GlobalAddr,
        recipient: GlobalAddr,
    ) -> SiteTick<C::Msg> {
        self.log(WalRecord::Export { target, recipient });
        if recipient.site() == self.site {
            return self.sync();
        }
        if target.site() == self.site {
            if self.heap.contains(target.object()) {
                self.heap
                    .register_global_root(target.object())
                    .expect("target exists");
            }
            self.collector.on_export(target, recipient);
        } else {
            self.collector.on_third_party_send(target, recipient);
        }
        self.sync()
    }

    /// The receiving half of a reference transfer: stores the reference if
    /// the recipient still exists and fires the receive hook. Mirroring
    /// [`SiteRuntime::export_reference`], a same-site transfer (`from` is
    /// this site) fires no hook — it was never a relevant event.
    pub fn receive_reference(
        &mut self,
        from: SiteId,
        recipient: GlobalAddr,
        target: GlobalAddr,
    ) -> SiteTick<C::Msg> {
        self.log(WalRecord::ReceiveRef {
            from,
            recipient,
            target,
        });
        if self.heap.contains(recipient.object())
            && self.heap.receive_ref(recipient.object(), target).is_ok()
            && from != self.site
        {
            self.collector.on_receive_ref(recipient, target);
        }
        self.sync()
    }

    /// Handles an incoming GGD control message from `from`.
    pub fn on_control(&mut self, from: SiteId, message: C::Msg) -> SiteTick<C::Msg> {
        if let Some(store) = &mut self.store {
            store.append_control(from, &message);
        }
        self.collector.on_message(from, message);
        let applied = self.apply_verdicts();
        let mut tick = self.sync();
        tick.verdicts_applied += applied;
        tick
    }

    /// Applies one epoch-stamped membership announcement: WAL-logs it, then
    /// lets the collector adjust (retire a departed site's vectors, grow or
    /// shrink the tracing consensus barrier). Retirement can unblock
    /// verdicts, so the tick carries any newly proven garbage.
    pub fn apply_membership(&mut self, ann: MembershipAnnouncement) -> SiteTick<C::Msg> {
        self.log(WalRecord::Membership { ann });
        self.collector.on_membership(&ann);
        let applied = self.apply_verdicts();
        let mut tick = self.sync();
        tick.verdicts_applied += applied;
        tick
    }

    /// The surviving half of a planned leave's reference handoff: scans this
    /// site's heap for references towards objects hosted by `departing`,
    /// records them as an explicit [`HandoffRecord`] (WAL-logged so replay
    /// re-severs the same edges independent of surrounding state), then
    /// severs every copy of each edge. The severing flows through the
    /// ordinary snapshot pipeline, so the collector observes it exactly like
    /// any mutator unlink.
    pub fn perform_handoff(&mut self, departing: SiteId, epoch: u64) -> SiteTick<C::Msg> {
        let mut drops: BTreeSet<(GlobalAddr, GlobalAddr)> = BTreeSet::new();
        for obj in self.heap.iter() {
            let holder = self.heap.addr_of(obj.id());
            for target in obj.remote_refs() {
                if target.site() == departing {
                    drops.insert((holder, target));
                }
            }
        }
        let record = HandoffRecord {
            departing,
            epoch,
            drops: drops.into_iter().collect(),
        };
        self.log(WalRecord::Handoff {
            record: record.clone(),
        });
        self.apply_handoff(&record)
    }

    /// Severs the recorded handoff edges (all copies of each) and syncs.
    /// Shared by [`SiteRuntime::perform_handoff`] and WAL replay.
    fn apply_handoff(&mut self, record: &HandoffRecord) -> SiteTick<C::Msg> {
        for &(holder, target) in &record.drops {
            if self.heap.contains(holder.object()) {
                while matches!(
                    self.heap
                        .remove_ref(holder.object(), ObjRef::Remote(target)),
                    Ok(true)
                ) {}
            }
        }
        self.sync()
    }

    /// Runs a local mark-sweep collection and returns the objects it
    /// freed, in ascending order, from a buffer the runtime reuses. The
    /// caller decides whether they warrant a [`SiteRuntime::sync`] (a
    /// collection that freed nothing does not) and judges them against the
    /// oracle.
    pub fn collect(&mut self) -> &[ObjectId] {
        self.log(WalRecord::Collect);
        self.heap.collect_into(&mut self.freed);
        if self.obs.is_enabled() {
            for &id in &self.freed {
                self.obs.on_reclaimed(GlobalAddr::from_parts(self.site, id));
            }
        }
        &self.freed
    }

    /// Snapshot plumbing after local mutation: feeds the collector the
    /// heap's reachability delta, drains its outgoing control messages and
    /// applies any verdicts to the heap.
    ///
    /// A mutation that produced an empty delta skips the collector entirely
    /// (unless it opted into every sync), so no-op mutations cost O(1).
    pub fn sync(&mut self) -> SiteTick<C::Msg> {
        self.heap.take_delta_into(&mut self.delta);
        if !self.delta.is_empty() || self.collector.needs_every_sync() {
            self.collector
                .apply_delta(&self.delta, self.heap.cached_snapshot());
        }
        let outgoing = self.collector.take_outgoing();
        let verdicts_applied = self.apply_verdicts();
        SiteTick {
            outgoing,
            verdicts_applied,
        }
    }

    fn apply_verdicts(&mut self) -> u64 {
        let mut applied = 0;
        for addr in self.collector.take_verdicts() {
            if addr.site() == self.site {
                self.heap.unregister_global_root(addr.object());
                self.obs.on_detected(addr);
                applied += 1;
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CausalCollector;

    #[test]
    fn alloc_and_local_links_flow_through_the_runtime() {
        let site = SiteId::new(0);
        let mut rt = SiteRuntime::new(site, CausalCollector::new(site));
        let root = rt.alloc(true);
        let child = rt.alloc(false);
        let tick = rt.link_local(root, child);
        assert!(tick.outgoing.is_empty(), "local links send nothing");
        assert_eq!(tick.verdicts_applied, 0);
        assert_eq!(rt.heap().len(), 2);

        assert!(rt.collect().is_empty(), "everything is rooted");
    }

    #[test]
    fn export_registers_a_global_root() {
        let site = SiteId::new(1);
        let mut rt = SiteRuntime::new(site, CausalCollector::new(site));
        let obj = rt.alloc(false);
        let remote_recipient = GlobalAddr::new(0, 1);
        let _ = rt.export_reference(obj, remote_recipient);
        assert!(rt.heap().is_global_root(obj.object()));
    }

    mod recovery {
        use super::*;
        use ggd_causal::CausalMessage;
        use ggd_store::{DurabilityConfig, SiteStore};
        use ggd_types::VertexId;

        /// Drives a runtime through a representative event sequence,
        /// returning every control message it emitted. `crash_at` crashes
        /// and recovers the runtime (via its store) after that many events.
        fn drive(mut rt: SiteRuntime<CausalCollector>, crash_at: &[usize]) -> Vec<String> {
            let site = rt.site();
            let remote = GlobalAddr::new(9, 1);
            let mut stream = Vec::new();
            let absorb = |tick: SiteTick<CausalMessage>, stream: &mut Vec<String>| {
                for (dest, msg) in tick.outgoing {
                    stream.push(format!("{dest}: {msg}"));
                }
            };
            type Event =
                Box<dyn FnMut(&mut SiteRuntime<CausalCollector>) -> SiteTick<CausalMessage>>;
            let mut events: Vec<Event> = Vec::new();
            // alloc root + child, link, export child, receive a ref, drop
            // the link, collect, receive a control message.
            let root = GlobalAddr::from_parts(site, ggd_types::ObjectId::new(1));
            let child = GlobalAddr::from_parts(site, ggd_types::ObjectId::new(2));
            events.push(Box::new(move |rt| {
                rt.alloc(true);
                rt.alloc(false);
                rt.link_local(root, child)
            }));
            events.push(Box::new(move |rt| rt.export_reference(child, remote)));
            events.push(Box::new(move |rt| {
                rt.receive_reference(remote.site(), child, remote)
            }));
            events.push(Box::new(move |rt| rt.unlink(root, child)));
            events.push(Box::new(move |rt| {
                if rt.collect().is_empty() {
                    SiteTick {
                        outgoing: Vec::new(),
                        verdicts_applied: 0,
                    }
                } else {
                    rt.sync()
                }
            }));
            events.push(Box::new(move |rt| {
                let mut payload = ggd_causal::RootedVector::new();
                payload
                    .vector
                    .set(VertexId::from(remote), ggd_types::Timestamp::created(1));
                rt.on_control(
                    remote.site(),
                    CausalMessage {
                        from: VertexId::from(remote),
                        to: VertexId::from(child),
                        payload,
                    },
                )
            }));

            for (i, event) in events.iter_mut().enumerate() {
                if crash_at.contains(&i) {
                    let store = rt.take_store().expect("durable runtime");
                    drop(rt);
                    rt = SiteRuntime::recover(store, CausalCollector::new(site));
                }
                let tick = event(&mut rt);
                absorb(tick, &mut stream);
            }
            stream
        }

        fn durable_runtime(site: SiteId, checkpoint_every: u32) -> SiteRuntime<CausalCollector> {
            let config = DurabilityConfig::memory().with_checkpoint_every(checkpoint_every);
            SiteRuntime::new(site, CausalCollector::new(site))
                .with_store(SiteStore::open(site, &config).expect("memory store"))
        }

        #[test]
        fn recovered_control_stream_is_bit_identical() {
            let site = SiteId::new(0);
            let baseline = drive(durable_runtime(site, 3), &[]);
            assert!(!baseline.is_empty(), "the sequence must emit messages");
            // Crash+recover at every single event boundary, and at several
            // at once: the emitted stream never changes.
            for crash_at in [
                vec![1],
                vec![2],
                vec![3],
                vec![4],
                vec![5],
                vec![1, 3, 5],
                vec![2, 3, 4, 5],
            ] {
                let stream = drive(durable_runtime(site, 3), &crash_at);
                assert_eq!(
                    stream, baseline,
                    "crash at {crash_at:?} changed the control stream"
                );
            }
        }

        #[test]
        fn recovery_restores_heap_and_engine_state_exactly() {
            let site = SiteId::new(2);
            let mut rt = durable_runtime(site, 2);
            let root = rt.alloc(true);
            let child = rt.alloc(false);
            let _ = rt.link_local(root, child);
            let _ = rt.export_reference(child, GlobalAddr::new(5, 1));
            rt.maybe_checkpoint(); // cadence reached: checkpoint installs
            let _ = rt.unlink(root, child);

            let heap_before = rt.heap().clone();
            let log_before = rt.collector().engine().log().to_string();
            let store = rt.take_store().unwrap();
            let recovered = SiteRuntime::recover(store, CausalCollector::new(site));
            assert_eq!(recovered.heap(), &heap_before);
            assert_eq!(recovered.collector().engine().log().to_string(), log_before);
            assert!(
                recovered.store().unwrap().stats().records_replayed > 0,
                "replay happened"
            );
        }

        #[test]
        fn recovery_from_genesis_works_without_checkpoints() {
            // A collector that cannot checkpoint (or one that has not yet
            // reached its cadence) replays the full log from an empty heap.
            let site = SiteId::new(3);
            let mut rt = durable_runtime(site, u32::MAX);
            let root = rt.alloc(true);
            let child = rt.alloc(false);
            let _ = rt.link_local(root, child);
            let heap_before = rt.heap().clone();
            let store = rt.take_store().unwrap();
            let recovered = SiteRuntime::recover(store, CausalCollector::new(site));
            assert_eq!(recovered.heap(), &heap_before);
        }
    }
}
