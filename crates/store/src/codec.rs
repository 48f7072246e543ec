//! The versioned binary codec every durable byte in this workspace goes
//! through.
//!
//! The vendored `serde` stand-in provides marker derives only (see
//! `vendor/README.md`), so serialization is implemented here as a pair of
//! explicit traits: [`Encode`] appends a canonical byte representation to a
//! buffer, [`Decode`] reads it back. The encoding is deliberately simple
//! and fully deterministic:
//!
//! * integers are `ggd-types` LEB128 varints (WAL records are dominated by
//!   small vertex indices and event counters, so varints roughly halve the
//!   log);
//! * enums are a one-byte tag followed by the variant's fields;
//! * sequences and maps are a length varint followed by the elements in
//!   iteration order — every in-memory container used on the wire is
//!   ordered (`BTreeMap`/`BTreeSet`/sorted vectors), so encoding the same
//!   value twice yields identical bytes (`encode ∘ decode ∘ encode` is the
//!   identity on bytes, which the codec proptests pin).
//!
//! Framing, checksums and format versioning live in [`crate::wal`]; this
//! module is only about turning values into bytes and back.

use std::fmt;

use ggd_types::{read_varint, write_varint, VarintError};

/// Errors surfaced while decoding durable bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended in the middle of a value.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Name of the type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A varint ran longer than the 10 bytes a `u64` can need.
    VarintOverflow,
    /// A value violated an invariant of its type (e.g. a zero event index).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::Invalid(what) => write!(f, "invalid value for {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over a byte slice being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] on a truncated varint and
    /// [`CodecError::VarintOverflow`] on an overlong one.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let (value, used) = read_varint(&self.bytes[self.pos..]).map_err(|e| match e {
            VarintError::Truncated => CodecError::UnexpectedEof,
            VarintError::Overflow => CodecError::VarintOverflow,
        })?;
        self.pos += used;
        Ok(value)
    }

    /// Reads the next `n` bytes, borrowed from the input.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] when fewer than `n` remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a length prefix, bounded by the remaining input so corrupt
    /// lengths fail fast instead of attempting huge allocations.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] when the announced length
    /// exceeds the remaining bytes (every element costs at least one byte).
    pub fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(n as usize)
    }
}

/// A value with a canonical binary representation.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value decodable from its canonical binary representation.
pub trait Decode: Sized {
    /// Reads one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the bytes are not a valid encoding.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh buffer.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from a slice, requiring every byte to be consumed.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input or trailing bytes.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Invalid("trailing bytes after value"));
    }
    Ok(value)
}

// ----------------------------------------------------------------------
// Primitives and containers
// ----------------------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}
impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u8()
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(*self));
    }
}
impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        u32::try_from(r.varint()?).map_err(|_| CodecError::Invalid("u32 out of range"))
    }
}

impl Encode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self);
    }
}
impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.varint()
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}
impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}
impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Encode, V: Encode> Encode for std::collections::BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}
impl<K: Decode + Ord, V: Decode> Decode for std::collections::BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for std::collections::BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}
impl<T: Decode + Ord> Decode for std::collections::BTreeSet<T> {
    /// Collects the items rather than inserting them one by one: the
    /// ascending order the encoder writes builds the set in one pass.
    /// Items out of order or repeated are sorted and merged, as inserts
    /// would.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Vec::<T>::decode(r)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        for value in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), value);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn truncated_varint_is_eof() {
        let mut r = Reader::new(&[0x80]);
        assert_eq!(r.varint(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0x80u8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint(), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn containers_round_trip() {
        let map: std::collections::BTreeMap<u32, Vec<u64>> =
            [(1, vec![9, 8]), (5, vec![])].into_iter().collect();
        let bytes = encode_to_vec(&map);
        let back: std::collections::BTreeMap<u32, Vec<u64>> = decode_from_slice(&bytes).unwrap();
        assert_eq!(map, back);
        assert_eq!(encode_to_vec(&back), bytes, "re-encode is bit-identical");
    }

    #[test]
    fn absurd_length_fails_fast() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        assert!(matches!(
            decode_from_slice::<Vec<u8>>(&buf),
            Err(CodecError::UnexpectedEof)
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = vec![0u8, 7];
        assert!(matches!(
            decode_from_slice::<u8>(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn error_display_is_nonempty() {
        for e in [
            CodecError::UnexpectedEof,
            CodecError::BadTag { what: "x", tag: 9 },
            CodecError::VarintOverflow,
            CodecError::Invalid("y"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
