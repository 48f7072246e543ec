//! The transport abstraction shared by every network in this crate.
//!
//! The paper's GGD engines are transport-agnostic: they consume deliveries
//! and produce `(destination, payload)` pairs, nothing more. [`Transport`]
//! captures the contract the sequential drive loop needs from a network. The
//! crate's implementation is [`SimNetwork`](crate::SimNetwork):
//! deterministic discrete-event delivery with fault injection (the
//! experiments). Real-thread asynchrony lives in the `ggd-sim` parallel
//! driver, which moves encoded [`Frame`](crate::Frame)s between worker
//! mailboxes instead of implementing this trait.
//!
//! # Time
//!
//! `now()` is transport-defined: simulated ticks for the discrete-event
//! network. The parallel driver's clock counts delivered frames instead, so
//! latency figures in run reports are only comparable within one driver.

use ggd_types::SiteId;

use crate::message::{Delivery, Payload};
use crate::metrics::NetMetrics;
use crate::sim::SimNetwork;

/// A message-passing substrate connecting the sites of a cluster.
///
/// Implementations must eventually deliver every accepted message unless
/// they deliberately drop it (fault injection); [`Transport::poll`] returning
/// `None` while [`Transport::pending`] is zero is the quiescence signal the
/// settle loop relies on.
pub trait Transport<P: Payload> {
    /// Accepts `payload` for delivery from `from` to `to`.
    ///
    /// The message may still be dropped or duplicated by the transport's
    /// fault model; either way it is accounted for in the metrics.
    fn send(&mut self, from: SiteId, to: SiteId, payload: P);

    /// Hands over the next deliverable message, advancing the transport
    /// clock. Returns `None` when nothing can currently be delivered.
    fn poll(&mut self) -> Option<Delivery<P>>;

    /// Number of messages known to be in flight (messages held for a
    /// stalled site excluded). Zero together with a `None` poll means
    /// quiescent.
    fn pending(&self) -> usize;

    /// The transport's current clock value (see the module docs).
    fn now(&self) -> u64;

    /// A snapshot of the accumulated metrics.
    fn metrics_snapshot(&self) -> NetMetrics;
}

impl<P: Payload> Transport<P> for SimNetwork<P> {
    fn send(&mut self, from: SiteId, to: SiteId, payload: P) {
        SimNetwork::send(self, from, to, payload);
    }

    fn poll(&mut self) -> Option<Delivery<P>> {
        self.deliver_next()
    }

    fn pending(&self) -> usize {
        SimNetwork::pending(self)
    }

    fn now(&self) -> u64 {
        SimNetwork::now(self)
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.metrics().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TestPayload;
    use crate::sim::SimNetworkConfig;

    fn drive<P: Payload, T: Transport<P>>(net: &mut T) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        while let Some(d) = net.poll() {
            out.push(d);
        }
        out
    }

    #[test]
    fn sim_network_satisfies_the_trait_contract() {
        let mut net: SimNetwork<TestPayload> = SimNetwork::new(SimNetworkConfig::default(), 1);
        Transport::send(
            &mut net,
            SiteId::new(0),
            SiteId::new(1),
            TestPayload::control("a"),
        );
        assert_eq!(Transport::pending(&net), 1);
        let deliveries = drive(&mut net);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].to, SiteId::new(1));
        assert_eq!(Transport::pending(&net), 0);
        assert_eq!(net.metrics_snapshot().delivered_total(), 1);
        assert!(Transport::now(&net) > 0);
    }
}
