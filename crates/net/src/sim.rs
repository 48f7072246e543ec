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

/// Latency, in ticks, of every message before jitter and any per-link
/// [`LinkFault::extra_delay`](crate::LinkFault::extra_delay).
const BASE_LATENCY: u64 = 1;

/// Static configuration of a [`SimNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimNetworkConfig {
    /// Maximum random extra latency added on top of the one-tick base.
    /// A value of `0` keeps per-link FIFO ordering; larger values allow
    /// reordering, which the GGD algorithm must tolerate.
    pub jitter: u64,
}

impl SimNetworkConfig {
    /// A configuration that reorders messages aggressively (large jitter),
    /// used by the robustness property tests.
    pub fn reordering(jitter: u64) -> Self {
        SimNetworkConfig { jitter }
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
/// duplicate, delay, partition window, crash, stalled site) come from a
/// [`FaultPlan`] fixed at construction and are decided with the seeded RNG,
/// so every run is reproducible from `(config, fault plan, seed)`.
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

    /// Number of messages currently in flight (excluding those held for a
    /// stalled site).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Read access to the accumulated metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Read access to the fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
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
        BASE_LATENCY + jitter + self.faults.extra_delay(from, to)
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

    /// Delivers the next message in simulated-time order, advancing the
    /// clock. Returns `None` when nothing can currently be delivered (the
    /// queue is empty, or every remaining message is addressed to a stalled
    /// site).
    pub fn deliver_next(&mut self) -> Option<Delivery<P>> {
        while let Some(msg) = self.queue.pop() {
            // A message arriving while its destination is crashed dies with
            // the destination's volatile inbox, and one arriving while a
            // partition window cuts its link is lost on the wire: either way
            // it is dropped, counted as loss. The clock still advances —
            // simulated time passed while the site was down or cut off.
            let arrives_at = self.now.max(msg.deliver_at);
            if self.faults.is_crashed(msg.to, arrives_at)
                || self.faults.partition_drops(msg.from, msg.to, arrives_at)
            {
                self.now = arrives_at;
                self.metrics.note_dequeued(msg.payload.size_hint());
                self.metrics.record_dropped(msg.class, msg.label);
                continue;
            }
            // A stalled site never resumes: its messages stay counted as
            // queued and are never delivered.
            if self.faults.is_stalled(msg.to) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFault;
    use crate::message::TestPayload;

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn net(seed: u64) -> SimNetwork<TestPayload> {
        SimNetwork::new(SimNetworkConfig::default(), seed)
    }

    /// Delivers filler traffic on the `from → to` link until the clock
    /// reaches `t`.
    fn advance_to(n: &mut SimNetwork<TestPayload>, from: u32, to: u32, t: u64) {
        while n.now() < t {
            n.send(site(from), site(to), TestPayload::control("tick"));
            assert_eq!(n.deliver_next().unwrap().payload.label, "tick");
        }
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
        assert_eq!(n.pending(), 0);
        assert_eq!(n.metrics().delivered_total(), 3);
    }

    #[test]
    fn clock_advances_with_latency() {
        let slow = LinkFault {
            extra_delay: 4,
            ..LinkFault::default()
        };
        let faults = FaultPlan::new().with_link_fault(site(0), site(1), slow);
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 7);
        n.send(site(0), site(1), TestPayload::control("a"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.at, 5);
        assert_eq!(n.now(), 5);
        // The reverse link has no override: the base latency alone.
        n.send(site(1), site(0), TestPayload::control("b"));
        let d2 = n.deliver_next().unwrap();
        assert_eq!(d2.at, 6);
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
    fn stalled_site_holds_its_messages_for_the_whole_run() {
        let faults = FaultPlan::new().with_stalled_site(site(1));
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 5);
        n.send(site(0), site(1), TestPayload::control("held"));
        n.send(site(0), site(2), TestPayload::control("free"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.to, site(2));
        assert!(n.deliver_next().is_none());
        assert_eq!(n.pending(), 0, "a held message is not in flight");
        // Held, not lost: it is neither delivered nor dropped, and its bytes
        // stay queued however far the clock runs.
        advance_to(&mut n, 0, 2, 50);
        assert!(n.deliver_next().is_none());
        assert_eq!(n.metrics().dropped_total(), 0);
        assert_eq!(n.metrics().queued_bytes(), 16);
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        // Window [0, 5) between sites 0 and 1: traffic in either direction
        // is dropped, site 2's links are untouched, and the link carries
        // traffic again once the clock reaches the heal round.
        let faults = FaultPlan::new().with_partition_window(site(0), site(1), 0, 5);
        let mut n: SimNetwork<TestPayload> =
            SimNetwork::with_faults(SimNetworkConfig::default(), faults, 5);
        n.send(site(0), site(1), TestPayload::control("a"));
        n.send(site(1), site(0), TestPayload::control("b"));
        n.send(site(2), site(0), TestPayload::control("c"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "c");
        assert!(n.deliver_next().is_none());
        assert_eq!(n.metrics().dropped_total(), 2);
        advance_to(&mut n, 2, 0, 5);
        n.send(site(1), site(0), TestPayload::control("healed"));
        assert_eq!(n.deliver_next().unwrap().payload.label, "healed");
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

        // A message arriving after the restart is delivered normally.
        advance_to(&mut n, 0, 2, 9);
        n.send(site(0), site(1), TestPayload::control("after-restart"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "after-restart");
        assert_eq!(d.at, 10);
    }

    #[test]
    fn partition_window_drops_inside_the_window_only() {
        // Window [2, 10) between sites 0 and 1: the first message (arrives
        // at t=1) lands, the next two (t=2, t=3) are dropped as loss, and a
        // message arriving after the heal lands again. Mirrors the crash
        // test above.
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
        assert_eq!(n.now(), 2, "time passed while the link was severed");

        advance_to(&mut n, 0, 2, 9);
        n.send(site(0), site(1), TestPayload::control("after-heal"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "after-heal");
        assert_eq!(d.at, 10);
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
        advance_to(&mut n, 0, 1, 4);
        n.send(site(0), site(2), TestPayload::control("healed"));
        let d = n.deliver_next().unwrap();
        assert_eq!(d.payload.label, "healed");
        assert_eq!(d.at, 5);
    }
}
