//! Deterministic discrete-event network simulator.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use ggd_types::SiteId;

use crate::fault::FaultPlan;
use crate::message::{Delivery, MessageClass, MessageId, Payload};
use crate::metrics::NetMetrics;

/// Static configuration of a [`SimNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimNetworkConfig {
    /// Base latency, in ticks, of every message.
    pub base_latency: u64,
    /// Maximum random extra latency added on top of `base_latency`.
    /// A value of `0` keeps per-link FIFO ordering; larger values allow
    /// reordering, which the GGD algorithm must tolerate.
    pub jitter: u64,
}

impl Default for SimNetworkConfig {
    fn default() -> Self {
        SimNetworkConfig {
            base_latency: 1,
            jitter: 0,
        }
    }
}

impl SimNetworkConfig {
    /// A configuration that reorders messages aggressively (large jitter),
    /// used by the robustness property tests.
    pub fn reordering(jitter: u64) -> Self {
        SimNetworkConfig {
            base_latency: 1,
            jitter,
        }
    }
}

#[derive(Debug, Clone)]
struct Queued<P> {
    deliver_at: u64,
    seq: u64,
    id: MessageId,
    from: SiteId,
    to: SiteId,
    duplicate: bool,
    class: MessageClass,
    label: &'static str,
    payload: P,
}

impl<P> PartialEq for Queued<P> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<P> Eq for Queued<P> {}
impl<P> PartialOrd for Queued<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Queued<P> {
    // Reverse ordering so that the `BinaryHeap` (a max-heap) pops the
    // earliest deliverable message first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// A seeded, deterministic discrete-event network.
///
/// Messages are delivered one at a time via [`SimNetwork::deliver_next`]; the
/// caller (normally `ggd-sim`) processes the delivery, possibly sending new
/// messages, and loops until the network is quiescent. Faults (drop,
/// duplicate, delay, partition, stalled site) are decided with the seeded RNG
/// so that every run is reproducible from `(config, fault plan, seed)`.
///
/// See the crate-level documentation for a usage example.
#[derive(Debug)]
pub struct SimNetwork<P> {
    config: SimNetworkConfig,
    faults: FaultPlan,
    metrics: NetMetrics,
    rng: ChaCha8Rng,
    now: u64,
    next_seq: u64,
    queue: BinaryHeap<Queued<P>>,
    parked: Vec<Queued<P>>,
}

impl<P: Payload> SimNetwork<P> {
    /// Creates a fault-free network with the given configuration and RNG seed.
    pub fn new(config: SimNetworkConfig, seed: u64) -> Self {
        SimNetwork {
            config,
            faults: FaultPlan::new(),
            metrics: NetMetrics::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            now: 0,
            next_seq: 0,
            queue: BinaryHeap::new(),
            parked: Vec::new(),
        }
    }

    /// Creates a network with an explicit fault plan.
    pub fn with_faults(config: SimNetworkConfig, faults: FaultPlan, seed: u64) -> Self {
        let mut net = SimNetwork::new(config, seed);
        net.faults = faults;
        net
    }

    /// Current simulated time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of messages currently in flight (excluding parked ones).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of messages parked behind a partition or a stalled site.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// True when no message can currently be delivered.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.parked.is_empty()
    }

    /// Read access to the accumulated metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Resets the metrics counters (the in-flight messages are untouched).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Read access to the fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable access to the fault plan, e.g. to heal a partition or resume a
    /// stalled site mid-run.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Replaces the entire fault plan.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Sends `payload` from `from` to `to`.
    ///
    /// The message may be dropped or duplicated according to the fault plan;
    /// either way it is accounted for in the metrics and a [`MessageId`] is
    /// returned. Messages addressed to the sending site itself are delivered
    /// through the same queue (with the same latency) for uniformity.
    pub fn send(&mut self, from: SiteId, to: SiteId, payload: P) -> MessageId {
        let id = MessageId::new(self.next_seq);
        let class = payload.class();
        let label = payload.label();
        self.metrics.record_sent(class, label, payload.size_hint());

        let dropped = {
            let p = self.faults.drop_probability(from, to);
            p > 0.0 && self.rng.gen_bool(p)
        };
        if dropped {
            self.metrics.record_dropped(class, label);
            self.next_seq += 1;
            return id;
        }

        let duplicated = {
            let p = self.faults.duplicate_probability(from, to);
            p > 0.0 && self.rng.gen_bool(p)
        };

        // The RNG draws stay drop, duplicate, first delay, second delay, so
        // a seed replays identically; only a duplicate pays for a clone.
        let first_delay = self.delay(from, to);
        if duplicated {
            let second_delay = self.delay(from, to);
            let copy = payload.clone();
            self.enqueue(id, from, to, false, class, label, copy, first_delay);
            self.enqueue(id, from, to, true, class, label, payload, second_delay);
        } else {
            self.enqueue(id, from, to, false, class, label, payload, first_delay);
        }
        self.next_seq += 1;
        id
    }

    fn delay(&mut self, from: SiteId, to: SiteId) -> u64 {
        let jitter = if self.config.jitter == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.config.jitter)
        };
        self.config.base_latency + jitter + self.faults.extra_delay(from, to)
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &mut self,
        id: MessageId,
        from: SiteId,
        to: SiteId,
        duplicate: bool,
        class: MessageClass,
        label: &'static str,
        payload: P,
        delay: u64,
    ) {
        let seq = self.next_seq * 2 + u64::from(duplicate);
        self.metrics.note_enqueued(payload.size_hint());
        self.queue.push(Queued {
            deliver_at: self.now + delay,
            seq,
            id,
            from,
            to,
            duplicate,
            class,
            label,
            payload,
        });
    }

    fn blocked(&self, msg: &Queued<P>) -> bool {
        self.faults.is_stalled(msg.to) || self.faults.is_partitioned(msg.from, msg.to)
    }

    /// Moves parked messages whose blocking condition has cleared back into
    /// the delivery queue.
    fn unpark(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let mut still_parked = Vec::new();
        let parked = std::mem::take(&mut self.parked);
        for mut msg in parked {
            if self.blocked(&msg) {
                still_parked.push(msg);
            } else {
                msg.deliver_at = self.now.max(msg.deliver_at);
                self.queue.push(msg);
            }
        }
        self.parked = still_parked;
    }

    /// Delivers the next message in simulated-time order, advancing the
    /// clock. Returns `None` when nothing can currently be delivered (the
    /// queue is empty, or every remaining message is parked behind a
    /// partition or stalled site).
    pub fn deliver_next(&mut self) -> Option<Delivery<P>> {
        self.unpark();
        while let Some(msg) = self.queue.pop() {
            // A message arriving while its destination is crashed dies with
            // the destination's volatile inbox: dropped, counted as loss
            // (unlike stalls/partitions, which only park). The clock still
            // advances — simulated time passed while the site was down.
            let arrives_at = self.now.max(msg.deliver_at);
            if self.faults.is_crashed(msg.to, arrives_at) {
                self.now = arrives_at;
                self.metrics.note_dequeued(msg.payload.size_hint());
                self.metrics.record_dropped(msg.class, msg.label);
                continue;
            }
            // A bounded partition window drops arrivals inside it, as loss;
            // only the legacy unbounded partitions park (handled below).
            if self.faults.partition_drops(msg.from, msg.to, arrives_at) {
                self.now = arrives_at;
                self.metrics.note_dequeued(msg.payload.size_hint());
                self.metrics.record_dropped(msg.class, msg.label);
                continue;
            }
            if self.blocked(&msg) {
                self.parked.push(msg);
                continue;
            }
            self.now = self.now.max(msg.deliver_at);
            self.metrics.note_dequeued(msg.payload.size_hint());
            if msg.duplicate {
                self.metrics.record_duplicated(msg.class, msg.label);
            } else {
                self.metrics.record_delivered(msg.class, msg.label);
            }
            return Some(Delivery {
                id: msg.id,
                from: msg.from,
                to: msg.to,
                at: self.now,
                duplicate: msg.duplicate,
                payload: msg.payload,
            });
        }
        None
    }

    /// Delivers every message currently deliverable, invoking `handler` for
    /// each. The handler cannot send new messages; use the `ggd-sim` cluster
    /// loop when deliveries must trigger further sends.
    pub fn drain<F: FnMut(Delivery<P>)>(&mut self, mut handler: F) -> usize {
        let mut count = 0;
        while let Some(delivery) = self.deliver_next() {
            handler(delivery);
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TestPayload;

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn net(seed: u64) -> SimNetwork<TestPayload> {
        SimNetwork::new(SimNetworkConfig::default(), seed)
    }

    #[test]
    fn delivers_in_send_order_without_jitter() {
        let mut n = net(1);
        n.send(site(0), site(1), TestPayload::control("a"));
        n.send(site(0), site(1), TestPayload::control("b"));
        n.send(site(1), site(0), TestPayload::mutator("c"));
        let labels: Vec<_> = std::iter::from_fn(|| n.deliver_next())
            .map(|d| d.payload.label)
            .collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        assert!(n.is_idle());
        assert_eq!(n.metrics().delivered_total(), 3);
    }

    #[test]
    fn clock_advances_with_latency() {
        let mut n: SimNetwork<TestPayload> = SimNetwork::new(
            SimNetworkConfig {
                base_latency: 5,
                jitter: 0,
            },
            7,
        );
        n.send(site(0), site(1), TestPayload::control("a"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.at, 5);
        assert_eq!(n.now(), 5);
        n.send(site(1), site(0), TestPayload::control("b"));
        let d2 = n.deliver_next().unwrap();
        assert_eq!(d2.at, 10);
    }

    #[test]
    fn dropping_everything_delivers_nothing() {
        let faults = FaultPlan::new().with_drop_probability(1.0);
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 3);
        for _ in 0..10 {
            n.send(site(0), site(1), TestPayload::control("x"));
        }
        assert!(n.deliver_next().is_none());
        assert_eq!(n.metrics().sent_total(), 10);
        assert_eq!(n.metrics().dropped_total(), 10);
        assert_eq!(n.metrics().delivered_total(), 0);
    }

    #[test]
    fn duplication_delivers_twice_with_same_id() {
        let faults = FaultPlan::new().with_duplicate_probability(1.0);
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 3);
        n.send(site(0), site(1), TestPayload::control("x"));
        let first = n.deliver_next().unwrap();
        let second = n.deliver_next().unwrap();
        assert_eq!(first.id, second.id);
        assert!(first.duplicate != second.duplicate);
        assert_eq!(n.metrics().duplicated_total(), 1);
        assert_eq!(n.metrics().delivered_total(), 2);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let faults = FaultPlan::new()
                .with_drop_probability(0.3)
                .with_duplicate_probability(0.3);
            let mut n: SimNetwork<TestPayload> =
                SimNetwork::with_faults(SimNetworkConfig::reordering(4), faults, seed);
            for i in 0..20u32 {
                n.send(site(i % 3), site((i + 1) % 3), TestPayload::control("x"));
            }
            let mut order = Vec::new();
            while let Some(d) = n.deliver_next() {
                order.push((d.id, d.at, d.duplicate));
            }
            order
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn stalled_site_parks_messages_until_resumed() {
        let faults = FaultPlan::new().with_stalled_site(site(1));
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 5);
        n.send(site(0), site(1), TestPayload::control("blocked"));
        n.send(site(0), site(2), TestPayload::control("free"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.to, site(2));
        assert!(n.deliver_next().is_none());
        assert_eq!(n.parked(), 1);
        assert!(!n.is_idle());

        n.faults_mut().resume_site(site(1));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.to, site(1));
        assert!(n.is_idle());
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let faults = FaultPlan::new().with_partition(site(0), site(1));
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 5);
        n.send(site(0), site(1), TestPayload::control("a"));
        n.send(site(1), site(0), TestPayload::control("b"));
        assert!(n.deliver_next().is_none());
        assert_eq!(n.parked(), 2);
        n.faults_mut().heal_partition(site(0), site(1));
        assert_eq!(n.drain(|_| {}), 2);
    }

    #[test]
    fn crashed_site_drops_arrivals_inside_the_window_only() {
        // Window [2, 10): the first message (arrives at t=1) lands, the
        // next two (t=2, t=3) die with the site, one sent to arrive at
        // t=11 lands after the restart.
        let faults = FaultPlan::new().with_crash(site(1), 2, 10);
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 5);
        n.send(site(0), site(1), TestPayload::control("early"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "early");
        assert_eq!(n.now(), 1);

        n.send(site(0), site(1), TestPayload::control("dead-1"));
        n.send(site(0), site(1), TestPayload::control("dead-2"));
        assert!(n.deliver_next().is_none(), "both arrivals are dropped");
        assert_eq!(n.metrics().dropped_total(), 2);
        assert_eq!(n.now(), 2, "simulated time passed while the site was down");
        assert_eq!(n.parked(), 0, "crash drops, it does not park");

        // A message delayed past the restart is delivered normally.
        let late = crate::fault::LinkFault {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            extra_delay: 9,
        };
        let with_delay = n.faults().clone().with_link_fault(site(0), site(1), late);
        n.set_faults(with_delay);
        n.send(site(0), site(1), TestPayload::control("after-restart"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "after-restart");
        assert!(d.at >= 10);
    }

    #[test]
    fn partition_window_drops_inside_the_window_only() {
        // Window [2, 10) between sites 0 and 1: the first message (arrives
        // at t=1) lands, the next two (t=2, t=3) are dropped as loss, and a
        // message delayed past the heal lands again. Mirrors the crash test
        // above — bounded windows drop, they never park.
        let faults = FaultPlan::new().with_partition_window(site(0), site(1), 2, 10);
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 5);
        n.send(site(0), site(1), TestPayload::control("early"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "early");

        n.send(site(0), site(1), TestPayload::control("cut-1"));
        n.send(site(1), site(0), TestPayload::control("cut-2"));
        assert!(n.deliver_next().is_none(), "both arrivals are dropped");
        assert_eq!(n.metrics().dropped_total(), 2);
        assert_eq!(n.parked(), 0, "a bounded window drops, it does not park");
        assert_eq!(n.now(), 2, "time passed while the link was severed");

        let late = crate::fault::LinkFault {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            extra_delay: 9,
        };
        let with_delay = n.faults().clone().with_link_fault(site(0), site(1), late);
        n.set_faults(with_delay);
        n.send(site(0), site(1), TestPayload::control("after-heal"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "after-heal");
        assert!(d.at >= 10);
    }

    #[test]
    fn split_window_severs_halves_then_heals() {
        let faults = FaultPlan::new().with_split(4, 0, 5);
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 5);
        n.send(site(0), site(2), TestPayload::control("cross"));
        n.send(site(0), site(1), TestPayload::control("intra"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "intra", "intra-half traffic flows");
        assert!(n.deliver_next().is_none());
        assert_eq!(n.metrics().dropped_total(), 1);

        // After the heal round the same link works again.
        let late = crate::fault::LinkFault {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            extra_delay: 9,
        };
        let with_delay = n.faults().clone().with_link_fault(site(0), site(2), late);
        n.set_faults(with_delay);
        n.send(site(0), site(2), TestPayload::control("healed"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "healed");
        assert!(d.at >= 5);
    }

    #[test]
    fn drain_counts_deliveries() {
        let mut n = net(9);
        for _ in 0..5 {
            n.send(site(0), site(1), TestPayload::mutator("m"));
        }
        let mut seen = 0;
        assert_eq!(
            n.drain(|d| {
                assert_eq!(d.payload.label, "m");
                seen += 1;
            }),
            5
        );
        assert_eq!(seen, 5);
    }

    #[test]
    fn reset_metrics_keeps_messages_in_flight() {
        let mut n = net(2);
        n.send(site(0), site(1), TestPayload::control("x"));
        n.reset_metrics();
        assert_eq!(n.metrics().sent_total(), 0);
        assert!(n.deliver_next().is_some());
        assert_eq!(n.metrics().delivered_total(), 1);
    }
}
