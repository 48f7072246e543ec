//! Wrappers that see the `core` and `net` layers from outside: a
//! [`TracedCollector`] implementing the public `ggd_sim::Collector` trait and
//! a [`TracedTransport`] implementing `ggd_net::Transport`. Each can record
//! spans, count, and capture inputs for the isolation passes; with all three
//! off they only delegate, and the cluster behaves exactly as unwrapped.

use std::cell::RefCell;
use std::rc::Rc;

use ggd_heap::{EdgeDelta, ReachabilitySnapshot};
use ggd_net::{Delivery, Frame, MessageClass, NetMetrics, Payload, Transport, WireCodec};
use ggd_sim::Collector;
use ggd_store::MembershipAnnouncement;
use ggd_types::{GlobalAddr, SiteId};

use crate::spans::{Name, Tracer};

/// What the capture rep records, in program order, for the heap-projection
/// and store passes to replay.
#[derive(Debug, Clone)]
pub enum Captured<P> {
    /// The stepping loop is about to run scenario step `index` (the final
    /// settle is one past the last scripted step).
    Step(usize),
    /// The transport handed this delivery to the cluster.
    Delivery {
        /// Destination site.
        to: SiteId,
        /// Sending site.
        from: SiteId,
        /// The payload as delivered.
        payload: P,
    },
    /// A poll found nothing: one settle round's deliveries are over and the
    /// cluster collects every site next.
    RoundEnd,
    /// A collector produced this verdict about one of its own objects.
    Verdict(GlobalAddr),
}

/// A shared, append-only capture log, or none.
#[derive(Debug)]
pub struct Capture<P>(Option<Rc<RefCell<Vec<Captured<P>>>>>);

impl<P> Clone for Capture<P> {
    fn clone(&self) -> Self {
        Capture(self.0.clone())
    }
}

impl<P> Capture<P> {
    /// A handle that captures nothing.
    pub fn off() -> Self {
        Capture(None)
    }

    /// A fresh, empty log.
    pub fn on() -> Self {
        Capture(Some(Rc::new(RefCell::new(Vec::new()))))
    }

    /// Appends the event `make` builds, if a log is attached.
    #[inline]
    pub fn push(&self, make: impl FnOnce() -> Captured<P>) {
        if let Some(log) = &self.0 {
            log.borrow_mut().push(make());
        }
    }

    /// Takes the log's contents.
    pub fn take(&self) -> Vec<Captured<P>> {
        match &self.0 {
            Some(log) => std::mem::take(&mut log.borrow_mut()),
            None => Vec::new(),
        }
    }
}

/// Counts a [`TracedCollector`] fleet accumulates (shared by all sites).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorCounts {
    /// Control messages handed out by `take_outgoing`.
    pub outgoing_msgs: u64,
    /// Verdicts handed out by `take_verdicts`.
    pub verdicts: u64,
    /// Vertices with edge changes, summed over every applied delta.
    pub delta_vertices: u64,
}

/// A collector that delegates to `C`, optionally inside spans.
#[derive(Debug)]
pub struct TracedCollector<C: Collector> {
    inner: C,
    tracer: Tracer,
    counts: Rc<RefCell<CollectorCounts>>,
    capture: Capture<ggd_sim::SimPayload<C::Msg>>,
}

impl<C: Collector> TracedCollector<C> {
    /// A factory for `Cluster::with_transport`: wraps whatever `make` builds,
    /// for the founding sites and for every recovered runtime alike.
    pub fn factory(
        make: impl Fn(SiteId) -> C + 'static,
        tracer: Tracer,
        counts: Rc<RefCell<CollectorCounts>>,
        capture: Capture<ggd_sim::SimPayload<C::Msg>>,
    ) -> impl Fn(SiteId) -> TracedCollector<C> + 'static
    where
        C::Msg: 'static,
    {
        move |site| TracedCollector {
            inner: make(site),
            tracer: tracer.clone(),
            counts: Rc::clone(&counts),
            capture: capture.clone(),
        }
    }

    /// The wrapped collector.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Collector> Collector for TracedCollector<C> {
    type Msg = C::Msg;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        let inner = &mut self.inner;
        self.tracer
            .span(Name::CoreRefEvent, || inner.on_export(exported, recipient));
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        let inner = &mut self.inner;
        self.tracer.span(Name::CoreRefEvent, || {
            inner.on_third_party_send(target, recipient)
        });
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        let inner = &mut self.inner;
        self.tracer.span(Name::CoreRefEvent, || {
            inner.on_receive_ref(recipient, target)
        });
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        let inner = &mut self.inner;
        self.tracer
            .span(Name::CoreApplyDelta, || inner.apply_snapshot(snapshot));
    }

    fn apply_delta(&mut self, delta: &EdgeDelta, snapshot: &ReachabilitySnapshot) {
        self.counts.borrow_mut().delta_vertices += delta.edges.len() as u64;
        let inner = &mut self.inner;
        self.tracer
            .span(Name::CoreApplyDelta, || inner.apply_delta(delta, snapshot));
    }

    fn needs_every_sync(&self) -> bool {
        self.inner.needs_every_sync()
    }

    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        let inner = &mut self.inner;
        self.tracer
            .span(Name::CoreCheckpoint, || inner.checkpoint_state())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let inner = &mut self.inner;
        self.tracer
            .span(Name::CoreRestore, || inner.restore_state(bytes))
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
        let inner = &mut self.inner;
        self.tracer
            .span(Name::CoreOnMessage, || inner.on_message(from, message));
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
        let inner = &mut self.inner;
        let out = self
            .tracer
            .span(Name::CoreTakeOutgoing, || inner.take_outgoing());
        self.counts.borrow_mut().outgoing_msgs += out.len() as u64;
        out
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        let inner = &mut self.inner;
        let out = self
            .tracer
            .span(Name::CoreTakeVerdicts, || inner.take_verdicts());
        self.counts.borrow_mut().verdicts += out.len() as u64;
        for &addr in &out {
            self.capture.push(|| Captured::Verdict(addr));
        }
        out
    }
}

/// Wire-volume counts of a [`TracedTransport`] with frame counting on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCounts {
    /// Encoded bytes of control frames (length prefix + body).
    pub ctl_bytes: u64,
    /// Encoded bytes of mutator frames.
    pub mut_bytes: u64,
    /// `Payload::size_hint` bytes of control payloads (the estimate the
    /// simulated transport's own metrics use).
    pub ctl_hint_bytes: u64,
    /// Frames whose decode failed.
    pub decode_failures: u64,
}

/// Call counts of a [`TracedTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounts {
    /// `send` calls.
    pub sends: u64,
    /// `poll` calls.
    pub polls: u64,
    /// `poll` calls that returned nothing.
    pub empty_polls: u64,
}

/// The counters of a [`TracedTransport`]. The cluster owns its transport and
/// exposes no accessor, so the transport writes them through a shared cell
/// the benchmark keeps a handle on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportReading {
    /// Wire-volume counts.
    pub frames: FrameCounts,
    /// Call counts.
    pub calls: TransportCounts,
}

/// A transport that delegates to `T`. With frame counting on, every sent
/// payload is encoded into a [`Frame`] and decoded back, and the *decoded*
/// payload is what travels on: a lossy codec therefore changes the run's
/// outcome, which the report comparison catches.
#[derive(Debug)]
pub struct TracedTransport<T, P> {
    inner: T,
    tracer: Tracer,
    count_frames: bool,
    reading: Rc<RefCell<TransportReading>>,
    capture: Capture<P>,
}

impl<T, P> TracedTransport<T, P> {
    /// Wraps `inner`; counters go to `reading`.
    pub fn new(
        inner: T,
        tracer: Tracer,
        count_frames: bool,
        reading: Rc<RefCell<TransportReading>>,
        capture: Capture<P>,
    ) -> Self {
        TracedTransport {
            inner,
            tracer,
            count_frames,
            reading,
            capture,
        }
    }
}

impl<T, P> Transport<P> for TracedTransport<T, P>
where
    T: Transport<P>,
    P: Payload + WireCodec,
{
    fn send(&mut self, from: SiteId, to: SiteId, payload: P) {
        let id = self.tracer.enter(Name::NetSend);
        let payload = if self.count_frames {
            let frame = self
                .tracer
                .span(Name::FrameEncode, || Frame::encode(&payload));
            let decoded = self.tracer.span(Name::FrameDecode, || frame.decode::<P>());
            let frames = &mut self.reading.borrow_mut().frames;
            match payload.class() {
                MessageClass::Control => {
                    frames.ctl_bytes += frame.wire_len() as u64;
                    frames.ctl_hint_bytes += payload.size_hint() as u64;
                }
                MessageClass::Mutator => frames.mut_bytes += frame.wire_len() as u64,
            }
            decoded.unwrap_or_else(|_| {
                frames.decode_failures += 1;
                payload
            })
        } else {
            payload
        };
        self.inner.send(from, to, payload);
        self.tracer.exit(id);
        self.reading.borrow_mut().calls.sends += 1;
    }

    fn poll(&mut self) -> Option<Delivery<P>> {
        let inner = &mut self.inner;
        let delivery = self.tracer.span(Name::NetPoll, || inner.poll());
        let calls = &mut self.reading.borrow_mut().calls;
        calls.polls += 1;
        match &delivery {
            Some(d) => self.capture.push(|| Captured::Delivery {
                to: d.to,
                from: d.from,
                payload: d.payload.clone(),
            }),
            None => {
                calls.empty_polls += 1;
                self.capture.push(|| Captured::RoundEnd);
            }
        }
        delivery
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.inner.metrics_snapshot()
    }
}
