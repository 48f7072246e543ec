//! Deterministic message-passing substrate for the causal GGD workspace.
//!
//! The paper's algorithm is asynchronous and message driven: mutator messages
//! carry object references across site boundaries, and GGD control messages
//! (edge-destruction notifications and dependency-vector propagation) travel
//! along the edges of the global root graph. This crate provides the network
//! those messages travel on:
//!
//! * [`Transport`] — the trait every network implements: accept a send,
//!   hand over the next delivery, report in-flight count, clock and metrics.
//!   The `ggd-sim` sequential cluster is generic over it.
//! * [`SimNetwork`] — a seeded, deterministic discrete-event network with
//!   configurable latency and reordering. Experiments E3–E8 run on it so
//!   that message complexity can be counted exactly and fault scenarios are
//!   reproducible.
//! * [`FaultPlan`] — the faults a run injects, as one declarative value
//!   fixed at construction: loss, duplication, per-link delay, stalled
//!   sites, crash windows and partition windows. A partition window drops
//!   every message that arrives while it is in force, on both drivers, and
//!   heals by itself; a stalled site holds its messages for the whole run.
//!   [`FaultPlan::code`] renders the Rust expression that rebuilds a plan.
//! * [`Frame`] / [`WireCodec`] — length-prefixed encoded messages. The
//!   `ggd-sim` parallel driver, the one concurrent backend, moves these
//!   between the mailboxes its drain threads read, so its byte metrics
//!   report real serialized sizes.
//! * [`NetMetrics`] — per-class and per-label counters (messages and bytes)
//!   from which every experiment table derives its "messages" columns.
//!
//! The network is generic over the payload type: the simulator defines one
//! payload enum per collector family and implements [`Payload`] for it.
//!
//! # Example
//!
//! ```
//! use ggd_net::{MessageClass, Payload, SimNetwork, SimNetworkConfig};
//! use ggd_types::SiteId;
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Payload for Ping {
//!     fn class(&self) -> MessageClass { MessageClass::Control }
//!     fn label(&self) -> &'static str { "ping" }
//!     fn size_hint(&self) -> usize { 4 }
//! }
//!
//! let mut net: SimNetwork<Ping> = SimNetwork::new(SimNetworkConfig::default(), 42);
//! net.send(SiteId::new(0), SiteId::new(1), Ping(7));
//! let delivery = net.deliver_next().expect("one message in flight");
//! assert_eq!(delivery.to, SiteId::new(1));
//! assert_eq!(delivery.payload.0, 7);
//! assert_eq!(net.metrics().delivered_total(), 1);
//! ```

mod fault;
mod frame;
mod message;
mod metrics;
mod sim;
mod transport;

pub use fault::{FaultPlan, LinkFault, NamedFaultPlan, PartitionWindow, SiteCrash};
pub use frame::{Frame, FrameError, WireCodec};
pub use message::{Delivery, MessageClass, MessageId, Payload};
pub use metrics::{BucketRow, MetricKey, NetMetrics};
pub use sim::{SimNetwork, SimNetworkConfig};
pub use transport::Transport;
