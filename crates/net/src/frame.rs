//! Length-prefixed wire framing for byte-level transports.
//!
//! The simulated network moves payloads as in-memory values (determinism
//! wants zero serialization noise), but transports that cross thread — or,
//! eventually, machine — boundaries should move *bytes*: a message's cost is
//! its encoded size, not the size of a cloned enum. [`Frame`] is that unit:
//! a varint length prefix followed by the payload body, produced and
//! consumed through [`WireCodec`]. The `ggd-sim` parallel driver encodes
//! every inter-site payload into a frame when it is posted and decodes it at
//! the receiving worker's mailbox, so its queue-depth and byte metrics
//! report real serialized sizes.
//!
//! The body encoding itself belongs to the payload (the simulator encodes
//! its payloads with the `ggd-store` codec); this module only contributes
//! the self-delimiting envelope. The length prefix is the LEB128 varint of
//! `ggd-types`, the one that codec uses too.

use std::fmt;

use ggd_types::{read_varint, write_varint};

use crate::message::{MessageClass, Payload};

/// Error raised when a wire frame cannot be decoded back into a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The frame ended before its declared body length.
    Truncated,
    /// The length prefix is not a valid varint (overlong or cut short).
    BadLength,
    /// The body bytes did not decode to a payload of the expected type.
    Malformed,
    /// The body decoded but left unconsumed trailing bytes.
    TrailingBytes,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame body shorter than its length prefix"),
            FrameError::BadLength => write!(f, "frame length prefix is not a valid varint"),
            FrameError::Malformed => write!(f, "frame body does not decode to the payload type"),
            FrameError::TrailingBytes => write!(f, "frame body has trailing bytes after decode"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Payloads that can cross a byte-level transport: encode to a body and
/// decode back from exactly those bytes.
///
/// Implementations must round-trip: `decode_body` of `encode_body`'s output
/// yields an equivalent payload and consumes every byte.
pub trait WireCodec: Payload + Sized {
    /// Appends the payload's body encoding to `out`.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Decodes a payload from exactly `bytes` (the body, without the frame's
    /// length prefix).
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] when the bytes are not a valid body.
    fn decode_body(bytes: &[u8]) -> Result<Self, FrameError>;
}

/// One encoded message: a varint length prefix followed by the payload body.
///
/// The payload's [`MessageClass`] and label ride along out-of-band — they are
/// metrics metadata, needed where a frame is dropped without its body ever
/// being decoded; the body bytes alone reconstruct the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    class: MessageClass,
    label: &'static str,
    bytes: Vec<u8>,
}

impl Frame {
    /// Encodes `payload` into a frame.
    pub fn encode<P: WireCodec>(payload: &P) -> Frame {
        let mut body = Vec::new();
        payload.encode_body(&mut body);
        let mut bytes = Vec::with_capacity(body.len() + 2);
        write_varint(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(&body);
        Frame {
            class: payload.class(),
            label: payload.label(),
            bytes,
        }
    }

    /// Decodes the framed payload back out of the wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] when the prefix or body is invalid — which
    /// on an in-process transport means the sender and receiver disagree on
    /// the payload type, a bug rather than an I/O condition.
    pub fn decode<P: WireCodec>(&self) -> Result<P, FrameError> {
        let (len, prefix) = read_varint(&self.bytes).map_err(|_| FrameError::BadLength)?;
        let body = &self.bytes[prefix..];
        if (body.len() as u64) < len {
            return Err(FrameError::Truncated);
        }
        if (body.len() as u64) > len {
            return Err(FrameError::TrailingBytes);
        }
        P::decode_body(body)
    }

    /// Total size of the frame on the wire (prefix + body), in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// The framed payload's message class (metrics metadata).
    pub fn class(&self) -> MessageClass {
        self.class
    }

    /// The framed payload's stable label (metrics metadata).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The raw wire bytes (length prefix followed by the body).
    pub fn wire_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TestPayload;

    #[test]
    fn varint_round_trips() {
        // The test body carries its size as a varint: values across the
        // one-, two- and ten-byte encodings survive a frame round trip.
        for bytes in [0, 1, 127, 128, 300, 16_383, 16_384, usize::MAX] {
            let payload = TestPayload {
                bytes,
                ..TestPayload::control("ping")
            };
            let back: TestPayload = Frame::encode(&payload).decode().unwrap();
            assert_eq!(back.bytes, bytes);
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // A length prefix that is empty, cut short or longer than ten bytes
        // is a bad length, whatever follows it.
        let frame = |bytes: Vec<u8>| Frame {
            class: MessageClass::Control,
            label: "ping",
            bytes,
        };
        for prefix in [vec![], vec![0x80], vec![0x80; 11]] {
            assert_eq!(
                frame(prefix).decode::<TestPayload>(),
                Err(FrameError::BadLength)
            );
        }
    }

    #[test]
    fn frame_round_trips_test_payloads() {
        for payload in [TestPayload::control("ping"), TestPayload::mutator("m")] {
            let frame = Frame::encode(&payload);
            assert_eq!(frame.class(), payload.class());
            assert_eq!(frame.label(), payload.label());
            assert!(frame.wire_len() > 1, "prefix plus a non-empty body");
            let back: TestPayload = frame.decode().unwrap();
            assert_eq!(back.class, payload.class);
            assert_eq!(back.label, payload.label);
            assert_eq!(back.bytes, payload.bytes);
        }
    }

    #[test]
    fn frame_length_prefix_matches_body() {
        let frame = Frame::encode(&TestPayload::control("ping"));
        let (len, prefix) = read_varint(frame.wire_bytes()).unwrap();
        assert_eq!(frame.wire_len(), prefix + len as usize);
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misread() {
        let frame = Frame::encode(&TestPayload::control("ping"));
        // Truncated body.
        let mut short = frame.clone();
        short.bytes.pop();
        assert_eq!(short.decode::<TestPayload>(), Err(FrameError::Truncated));
        // Trailing junk.
        let mut long = frame.clone();
        long.bytes.push(0);
        assert_eq!(long.decode::<TestPayload>(), Err(FrameError::TrailingBytes));
        // Garbage prefix.
        let garbage = Frame {
            class: frame.class(),
            label: frame.label(),
            bytes: vec![0x80, 0x80],
        };
        assert_eq!(garbage.decode::<TestPayload>(), Err(FrameError::BadLength));
    }
}
