//! Deliveries and the payload classification used for metrics.

use serde::{Deserialize, Serialize};
use std::fmt;

use ggd_types::SiteId;

/// Broad classification of a message, used to separate application traffic
/// from garbage-collection overhead in every experiment.
///
/// The paper's central scalability argument is about how many *control*
/// messages each GGD scheme adds on top of the mutator's own traffic
/// (§2.3–§2.4), so the distinction is load-bearing for the benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MessageClass {
    /// A message the application (mutator) would send anyway, possibly
    /// carrying object references across a site boundary.
    Mutator,
    /// A message added by a garbage-collection scheme: edge destruction
    /// notices, dependency-vector propagation, eager log-keeping updates,
    /// trace marks, termination-detection rounds, …
    Control,
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageClass::Mutator => write!(f, "mutator"),
            MessageClass::Control => write!(f, "control"),
        }
    }
}

/// Trait implemented by every payload type carried by a
/// [`Transport`](crate::Transport) or encoded into a [`Frame`](crate::Frame).
pub trait Payload: Clone {
    /// Whether the message is mutator traffic or collector overhead.
    fn class(&self) -> MessageClass;
    /// A short stable label used to bucket metrics (e.g. `"edge-destruction"`).
    fn label(&self) -> &'static str;
    /// Approximate wire size in bytes, used for byte-volume metrics.
    fn size_hint(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// Unique identifier assigned to every message accepted by a network.
///
/// Duplicated deliveries (fault injection) share the id of the original
/// message, which is how tests assert the idempotence claims of §5.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MessageId(u64);

impl MessageId {
    /// Creates a message id from its raw sequence number.
    pub const fn new(seq: u64) -> Self {
        MessageId(seq)
    }

    /// The raw sequence number.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A message handed to the destination site by the network.
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// Identifier of the underlying message (duplicates share it).
    pub id: MessageId,
    /// Sending site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Simulated time at which the delivery happens.
    pub at: u64,
    /// True when this delivery is a fault-injected duplicate of an earlier one.
    pub duplicate: bool,
    /// The payload.
    pub payload: P,
}

#[cfg(test)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TestPayload {
    pub class: MessageClass,
    pub label: &'static str,
    pub bytes: usize,
}

#[cfg(test)]
impl TestPayload {
    pub(crate) fn control(label: &'static str) -> Self {
        TestPayload {
            class: MessageClass::Control,
            label,
            bytes: 16,
        }
    }

    pub(crate) fn mutator(label: &'static str) -> Self {
        TestPayload {
            class: MessageClass::Mutator,
            label,
            bytes: 64,
        }
    }
}

#[cfg(test)]
impl Payload for TestPayload {
    fn class(&self) -> MessageClass {
        self.class
    }
    fn label(&self) -> &'static str {
        self.label
    }
    fn size_hint(&self) -> usize {
        self.bytes
    }
}

/// Labels the `TestPayload` wire codec can round-trip: decode has to map an
/// index back to a `&'static str`, so the tests register theirs here.
#[cfg(test)]
const TEST_LABELS: &[&str] = &["m", "ping"];

#[cfg(test)]
impl crate::frame::WireCodec for TestPayload {
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(match self.class {
            MessageClass::Mutator => 0,
            MessageClass::Control => 1,
        });
        let index = TEST_LABELS
            .iter()
            .position(|l| *l == self.label)
            .expect("test label registered in TEST_LABELS") as u8;
        out.push(index);
        ggd_types::write_varint(out, self.bytes as u64);
    }

    fn decode_body(bytes: &[u8]) -> Result<Self, crate::frame::FrameError> {
        use crate::frame::FrameError;
        let (&class, rest) = bytes.split_first().ok_or(FrameError::Malformed)?;
        let (&index, rest) = rest.split_first().ok_or(FrameError::Malformed)?;
        let class = match class {
            0 => MessageClass::Mutator,
            1 => MessageClass::Control,
            _ => return Err(FrameError::Malformed),
        };
        let label = *TEST_LABELS
            .get(index as usize)
            .ok_or(FrameError::Malformed)?;
        let (size, used) = ggd_types::read_varint(rest).map_err(|_| FrameError::Malformed)?;
        if used != rest.len() {
            return Err(FrameError::TrailingBytes);
        }
        Ok(TestPayload {
            class,
            label,
            bytes: size as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_class_display() {
        assert_eq!(MessageClass::Mutator.to_string(), "mutator");
        assert_eq!(MessageClass::Control.to_string(), "control");
        assert!(MessageClass::Mutator < MessageClass::Control);
    }

    #[test]
    fn message_id_round_trip() {
        let id = MessageId::new(17);
        assert_eq!(id.get(), 17);
        assert_eq!(id.to_string(), "m17");
    }

    #[test]
    fn default_size_hint_is_struct_size() {
        #[derive(Clone)]
        struct Tiny(#[allow(dead_code)] u8);
        impl Payload for Tiny {
            fn class(&self) -> MessageClass {
                MessageClass::Control
            }
            fn label(&self) -> &'static str {
                "tiny"
            }
        }
        assert_eq!(Tiny(0).size_hint(), 1);
    }
}
