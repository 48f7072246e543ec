//! The collector abstraction the simulator drives, and its adapter for the
//! paper's causal engine.

use ggd_causal::{CausalEngine, CausalMessage};
use ggd_heap::{EdgeDelta, ReachabilitySnapshot};
use ggd_net::{MessageClass, Payload};
use ggd_store::{Decode, Encode, MembershipAnnouncement, MembershipChange};
use ggd_types::{GlobalAddr, SiteId, VertexId};

/// What one site's garbage-detection engine must provide so the simulator
/// can drive it. Every engine in this workspace (the causal engine and the
/// baselines) is wrapped in an adapter implementing this trait, so the same
/// workloads and experiments run unchanged against each of them.
pub trait Collector {
    /// The GGD control-message type exchanged between engines of this kind.
    /// Messages must be durable ([`ggd_store::Encode`]/[`Decode`]) — the
    /// write-ahead log records every control message a site consumes so
    /// crash recovery can replay it.
    ///
    /// [`Decode`]: ggd_store::Decode
    type Msg: Payload + Clone + std::fmt::Debug + ggd_store::Encode + ggd_store::Decode;

    /// Short, stable name used in experiment tables (e.g. `"causal"`).
    fn name(&self) -> &'static str;

    /// Lazy-rule hook: this site exported a reference to its local object
    /// `exported` to the remote object `recipient`.
    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr);

    /// Lazy-rule hook: this site sent a reference denoting the remote object
    /// `target` to the (also remote) object `recipient`.
    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr);

    /// Lazy-rule hook: the local object `recipient` received (and stored) a
    /// reference to `target`.
    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr);

    /// A reachability snapshot of this site's heap. The runtime never calls
    /// this directly; it reaches a collector through
    /// [`Collector::apply_delta`], whose default forwards here.
    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot);

    /// The heap's reachability delta together with the up-to-date cached
    /// snapshot it produced — what the runtime calls after every mutation.
    /// Collectors that can consume the delta directly (the causal engine)
    /// override this and never touch the snapshot; the default falls back
    /// to [`Collector::apply_snapshot`], which is free of rescans — the
    /// heap maintains the cached snapshot incrementally.
    fn apply_delta(&mut self, delta: &EdgeDelta, snapshot: &ReachabilitySnapshot) {
        let _ = delta;
        self.apply_snapshot(snapshot);
    }

    /// True when the collector must observe *every* sync, including those
    /// whose heap delta is empty — needed by engines whose snapshot
    /// processing also flushes state changed by the lazy hooks (the tracing
    /// baseline's report body counts reference transfers). The runtime
    /// skips empty-delta syncs for everyone else.
    fn needs_every_sync(&self) -> bool {
        false
    }

    /// Encodes the collector's complete state for a checkpoint, or `None`
    /// when this collector cannot checkpoint — its site's WAL is then never
    /// truncated and crash recovery replays the full log from genesis
    /// (correct for any deterministic collector, merely slower). The method
    /// takes `&mut self` so checkpoint-time maintenance (the causal
    /// engine's [`DkLog`](ggd_causal::DkLog) compaction against its stable
    /// cutoff) can run as part of producing the image.
    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Restores the collector from bytes produced by
    /// [`Collector::checkpoint_state`]. Returns `false` when the bytes are
    /// not restorable (wrong collector kind or corrupt) — recovery then
    /// fails loudly rather than running with half a state.
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let _ = bytes;
        false
    }

    /// [`Collector::restore_state`] for a checkpoint whose heap image had
    /// allocated only identities below `next_object` — the form recovery
    /// calls. A collector that indexes its site's objects by identity
    /// rejects an image naming one at or past the bound instead of sizing a
    /// table for it. The default ignores the bound; a wrapping collector
    /// forwards both methods.
    fn restore_state_below(&mut self, bytes: &[u8], next_object: u64) -> bool {
        let _ = next_object;
        self.restore_state(bytes)
    }

    /// Membership hook: the fleet gained or lost a site. A planned leave
    /// arrives *after* the cluster has quiesced and every survivor severed
    /// its references towards the departed site (the reference handoff), so
    /// collectors may — and the causal engine and reference listing do —
    /// retire every trace of it. An eviction is the permanent-crash variant:
    /// collectors stay conservative and keep whatever the evicted site
    /// pinned. The default ignores membership entirely, which is correct for
    /// any engine whose state never names peer sites.
    fn on_membership(&mut self, ann: &MembershipAnnouncement) {
        let _ = ann;
    }

    /// True when the collector's state still references `site` anywhere.
    /// The membership oracle asserts this is `false` cluster-wide for every
    /// planned-leave departure. The default `false` is for collectors whose
    /// state never names sites.
    fn mentions_site(&self, site: SiteId) -> bool {
        let _ = site;
        false
    }

    /// Observability counters this collector exports, as `(name, value)`
    /// pairs — absorbed into the per-site metrics registry at report time
    /// (`ggd-obs`). Names must be static and values cumulative. The default
    /// exports nothing; engines with internal bookkeeping (the causal
    /// engine's [`EngineStats`](ggd_causal::EngineStats), its DkLog
    /// compaction counters) surface it here.
    fn obs_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// An incoming control message from another site's engine.
    fn on_message(&mut self, from: SiteId, message: Self::Msg);

    /// Control messages to hand to the transport, as (destination, message).
    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)>;

    /// Local objects newly proven to be unreachable from every remote site;
    /// the cluster removes them from the heap's global root set.
    fn take_verdicts(&mut self) -> Vec<GlobalAddr>;
}

/// Adapter running the paper's [`CausalEngine`] under the [`Collector`]
/// interface.
#[derive(Debug, Clone)]
pub struct CausalCollector {
    engine: CausalEngine,
}

impl CausalCollector {
    /// Creates the causal collector for `site`.
    pub fn new(site: SiteId) -> Self {
        CausalCollector {
            engine: CausalEngine::new(site),
        }
    }

    /// Access to the wrapped engine (used by the harness to print the
    /// Figure 5 / Figure 8 log contents).
    pub fn engine(&self) -> &CausalEngine {
        &self.engine
    }
}

impl Collector for CausalCollector {
    type Msg = CausalMessage;

    fn name(&self) -> &'static str {
        "causal"
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        self.engine.on_export(exported, VertexId::from(recipient));
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        self.engine
            .on_third_party_send(target, VertexId::from(recipient));
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        self.engine.on_receive_ref(recipient, target);
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        self.engine.apply_snapshot(snapshot);
    }

    fn apply_delta(&mut self, delta: &EdgeDelta, _snapshot: &ReachabilitySnapshot) {
        self.engine.apply_delta(delta);
    }

    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        // Checkpoint-time maintenance: compact the log against the stable
        // cutoff (vertices whose garbage verdict is final) so long-running
        // sites do not accumulate one DK row per object that ever crossed
        // a site boundary.
        self.engine.compact_detected();
        let mut state = Vec::new();
        ggd_store::wire::write_engine_image(&mut state, &self.engine);
        Some(state)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.restore_state_below(bytes, u64::MAX)
    }

    fn restore_state_below(&mut self, bytes: &[u8], next_object: u64) -> bool {
        match ggd_store::wire::read_engine_image(bytes, next_object) {
            Ok(engine) => {
                self.engine = engine;
                true
            }
            Err(_) => false,
        }
    }

    fn on_membership(&mut self, ann: &MembershipAnnouncement) {
        match ann.kind {
            // The causal engine's state is entirely per-vertex; a join needs
            // nothing until the newcomer's vertices appear through the
            // ordinary lazy rules.
            MembershipChange::Join => {}
            MembershipChange::PlannedLeave => {
                if ann.site != self.engine.site() {
                    self.engine.retire_site(ann.site);
                }
            }
            // Eviction: entries keyed by the evicted site's vertices stay —
            // conservatively, as if the site were merely slow. Residual
            // garbage, never a wrong verdict.
            MembershipChange::Evict => {}
        }
    }

    fn mentions_site(&self, site: SiteId) -> bool {
        self.engine.mentions_site(site)
    }

    fn on_message(&mut self, _from: SiteId, message: Self::Msg) {
        self.engine.on_message(message);
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
        self.engine
            .take_outgoing()
            .into_iter()
            .map(|out| (out.to_site, out.message))
            .collect()
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        self.engine.take_verdicts()
    }

    fn obs_counters(&self) -> Vec<(&'static str, u64)> {
        let stats = self.engine.stats();
        vec![
            ("engine_edge_creations", stats.edge_creations),
            ("engine_edge_destructions", stats.edge_destructions),
            ("engine_lazy_records", stats.lazy_records),
            ("engine_destructions_sent", stats.destructions_sent),
            ("engine_propagations_sent", stats.propagations_sent),
            ("engine_messages_received", stats.messages_received),
            ("engine_verdicts", stats.verdicts),
            ("dk_compaction_runs", stats.compaction_runs),
            ("dk_rows_compacted", stats.compaction_rows_dropped),
        ]
    }
}

/// The payload the cluster puts on the wire: either an application message
/// carrying an object reference, or a collector control message.
#[derive(Debug, Clone)]
pub enum SimPayload<M> {
    /// A mutator message: `recipient` receives a reference to `target`.
    Reference {
        /// The object that receives the reference.
        recipient: GlobalAddr,
        /// The object whose reference is carried.
        target: GlobalAddr,
    },
    /// A collector control message.
    Control(M),
}

/// Wire framing for the cluster payload: the `ggd-store` codec encodes the
/// body (collector messages are already `Encode`/`Decode` for the WAL; the
/// reference transfer packs two [`GlobalAddr`]s), and `ggd-net`'s [`Frame`]
/// adds the length prefix. The parallel driver's worker mailboxes move
/// `SimPayload`s through this codec, so its byte metrics measure real
/// serialized cost.
///
/// [`Frame`]: ggd_net::Frame
impl<M> ggd_net::WireCodec for SimPayload<M>
where
    M: Payload + Clone + std::fmt::Debug + ggd_store::Encode + ggd_store::Decode,
{
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            SimPayload::Reference { recipient, target } => {
                out.push(0);
                recipient.encode(out);
                target.encode(out);
            }
            SimPayload::Control(msg) => {
                out.push(1);
                msg.encode(out);
            }
        }
    }

    fn decode_body(bytes: &[u8]) -> Result<Self, ggd_net::FrameError> {
        use ggd_net::FrameError;
        let mut r = ggd_store::Reader::new(bytes);
        let payload = match r.u8().map_err(|_| FrameError::Malformed)? {
            0 => {
                let recipient = GlobalAddr::decode(&mut r).map_err(|_| FrameError::Malformed)?;
                let target = GlobalAddr::decode(&mut r).map_err(|_| FrameError::Malformed)?;
                SimPayload::Reference { recipient, target }
            }
            1 => SimPayload::Control(M::decode(&mut r).map_err(|_| FrameError::Malformed)?),
            _ => return Err(FrameError::Malformed),
        };
        if !r.is_empty() {
            return Err(FrameError::TrailingBytes);
        }
        Ok(payload)
    }
}

impl<M: Payload + Clone> Payload for SimPayload<M> {
    fn class(&self) -> MessageClass {
        match self {
            SimPayload::Reference { .. } => MessageClass::Mutator,
            SimPayload::Control(m) => m.class(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            SimPayload::Reference { .. } => "reference-transfer",
            SimPayload::Control(m) => m.label(),
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            SimPayload::Reference { .. } => 48,
            SimPayload::Control(m) => m.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_collector_adapts_engine_calls() {
        let mut c = CausalCollector::new(SiteId::new(1));
        assert_eq!(c.name(), "causal");
        c.on_export(GlobalAddr::new(1, 5), GlobalAddr::new(0, 1));
        c.on_third_party_send(GlobalAddr::new(3, 1), GlobalAddr::new(4, 1));
        assert!(c.take_outgoing().is_empty(), "lazy rules send nothing");
        assert!(c.take_verdicts().is_empty());
        assert!(c.engine().stats().lazy_records >= 2);
    }

    #[test]
    fn sim_payload_classifies_traffic() {
        let reference: SimPayload<CausalMessage> = SimPayload::Reference {
            recipient: GlobalAddr::new(0, 1),
            target: GlobalAddr::new(1, 1),
        };
        assert_eq!(reference.class(), MessageClass::Mutator);
        assert_eq!(reference.label(), "reference-transfer");
        assert!(reference.size_hint() > 0);
    }

    #[test]
    fn sim_payload_frames_round_trip() {
        use ggd_net::Frame;
        use ggd_types::{Timestamp, VertexId};

        let reference: SimPayload<CausalMessage> = SimPayload::Reference {
            recipient: GlobalAddr::new(0, 7),
            target: GlobalAddr::new(3, 1),
        };
        let frame = Frame::encode(&reference);
        assert_eq!(frame.class(), MessageClass::Mutator);
        match frame.decode().expect("reference decodes") {
            SimPayload::<CausalMessage>::Reference { recipient, target } => {
                assert_eq!(recipient, GlobalAddr::new(0, 7));
                assert_eq!(target, GlobalAddr::new(3, 1));
            }
            other => panic!("wrong payload decoded: {other:?}"),
        }

        let mut payload = ggd_causal::RootedVector::new();
        payload
            .vector
            .set(VertexId::from(GlobalAddr::new(2, 4)), Timestamp::created(9));
        let control: SimPayload<CausalMessage> = SimPayload::Control(CausalMessage {
            from: VertexId::from(GlobalAddr::new(2, 4)),
            to: VertexId::from(GlobalAddr::new(0, 7)),
            payload,
        });
        let frame = Frame::encode(&control);
        assert_eq!(frame.class(), MessageClass::Control);
        let back: SimPayload<CausalMessage> = frame.decode().expect("control decodes");
        match (&control, &back) {
            (SimPayload::Control(sent), SimPayload::Control(got)) => {
                assert_eq!(format!("{sent:?}"), format!("{got:?}"));
            }
            _ => panic!("control frame decoded to a reference"),
        }
        // The frame's wire length is the real encoded size, not the 48-byte
        // in-memory size hint.
        assert_eq!(frame.wire_len(), frame.wire_bytes().len());
    }
}

/// Adapter running the reference-listing baseline under the [`Collector`]
/// interface.
#[derive(Debug, Clone)]
pub struct RefListingCollector {
    engine: ggd_baselines::RefListingEngine,
}

impl RefListingCollector {
    /// Creates the reference-listing collector for `site`.
    pub fn new(site: SiteId) -> Self {
        RefListingCollector {
            engine: ggd_baselines::RefListingEngine::new(site),
        }
    }

    /// Access to the wrapped engine.
    pub fn engine(&self) -> &ggd_baselines::RefListingEngine {
        &self.engine
    }
}

impl Collector for RefListingCollector {
    type Msg = ggd_baselines::RefListingMessage;

    fn name(&self) -> &'static str {
        "reflisting"
    }

    fn needs_every_sync(&self) -> bool {
        // `on_receive_ref` extends the engine's held-set eagerly; the next
        // snapshot application reconciles it even when the heap delta is
        // empty (e.g. the recipient is unreachable from every source), so
        // no sync may be skipped.
        true
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        self.engine.on_export(exported, recipient);
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        self.engine.on_third_party_send(target, recipient);
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        self.engine.on_receive_ref(recipient, target);
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        self.engine.apply_snapshot(snapshot);
    }

    fn on_membership(&mut self, ann: &MembershipAnnouncement) {
        match ann.kind {
            MembershipChange::Join => {}
            MembershipChange::PlannedLeave => {
                if ann.site != self.engine.site() {
                    self.engine.retire_site(ann.site);
                }
            }
            // Reference listing never runs under eviction (it is gated to
            // loss-free plans), but staying conservative costs nothing.
            MembershipChange::Evict => {}
        }
    }

    fn mentions_site(&self, site: SiteId) -> bool {
        self.engine.mentions_site(site)
    }

    fn on_message(&mut self, _from: SiteId, message: Self::Msg) {
        self.engine.on_message(message);
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
        self.engine.take_outgoing()
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        self.engine.take_verdicts()
    }
}

/// Adapter running the graph-tracing baseline under the [`Collector`]
/// interface. Construct it with [`TracingCollector::factory`] so every site
/// knows the total number of sites (the consensus requirement).
#[derive(Debug, Clone)]
pub struct TracingCollector {
    engine: ggd_baselines::TracingEngine,
}

impl TracingCollector {
    /// Creates the tracing collector for `site` in a system of `total_sites`.
    pub fn new(site: SiteId, total_sites: u32) -> Self {
        TracingCollector {
            engine: ggd_baselines::TracingEngine::new(site, total_sites),
        }
    }

    /// Returns a factory closure suitable for `Cluster::new` /
    /// `Cluster::from_scenario`.
    pub fn factory(total_sites: u32) -> impl Fn(SiteId) -> TracingCollector + Clone {
        move |site| TracingCollector::new(site, total_sites)
    }

    /// Access to the wrapped engine.
    pub fn engine(&self) -> &ggd_baselines::TracingEngine {
        &self.engine
    }
}

impl Collector for TracingCollector {
    type Msg = ggd_baselines::TracingMessage;

    fn name(&self) -> &'static str {
        "tracing"
    }

    fn needs_every_sync(&self) -> bool {
        // The tracing report body includes transfer counters bumped by the
        // lazy hooks, so a sync with an unchanged heap can still have to
        // send a report.
        true
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        self.engine.on_export(exported, recipient);
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        self.engine.on_third_party_send(target, recipient);
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        self.engine.on_receive_ref(recipient, target);
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        self.engine.apply_snapshot(snapshot);
    }

    fn on_membership(&mut self, ann: &MembershipAnnouncement) {
        match ann.kind {
            MembershipChange::Join => self.engine.add_member(ann.site),
            MembershipChange::PlannedLeave => self.engine.remove_member(ann.site, true),
            MembershipChange::Evict => self.engine.remove_member(ann.site, false),
        }
    }

    fn mentions_site(&self, site: SiteId) -> bool {
        self.engine.mentions_site(site)
    }

    fn on_message(&mut self, _from: SiteId, message: Self::Msg) {
        self.engine.on_message(message);
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
        self.engine.take_outgoing()
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        self.engine.take_verdicts()
    }
}
