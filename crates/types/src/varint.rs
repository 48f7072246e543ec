//! LEB128 varints: the one integer encoding behind the durable codec and
//! the wire frame's length prefix.
//!
//! Seven value bits per byte, low group first, the high bit set on every
//! byte but the last. A `u64` needs at most ten bytes. Callers map
//! [`VarintError`] onto their own error type.

/// Why a varint could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended before the varint's last byte.
    Truncated,
    /// The varint runs past the ten bytes a `u64` can need.
    Overflow,
}

/// Appends `value` to `out` as a LEB128 varint.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint off the front of `bytes`, returning the value and
/// the number of bytes it took.
///
/// # Errors
///
/// [`VarintError::Truncated`] when `bytes` ends mid-varint,
/// [`VarintError::Overflow`] when an eleventh byte follows.
#[inline]
pub fn read_varint(bytes: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in bytes.iter().enumerate() {
        if shift >= 64 {
            return Err(VarintError::Overflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(VarintError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The longest encoding a `u64` can need.
    const MAX_VARINT_LEN: usize = 10;

    #[test]
    fn varint_round_trips() {
        for value in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, value);
            let (back, used) = read_varint(&out).unwrap();
            assert_eq!(back, value);
            assert_eq!(used, out.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(read_varint(&[]), Err(VarintError::Truncated));
        assert_eq!(read_varint(&[0x80]), Err(VarintError::Truncated));
        // u64::MAX takes exactly the maximum, and reads back from it.
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), MAX_VARINT_LEN);
        assert_eq!(read_varint(&max), Ok((u64::MAX, MAX_VARINT_LEN)));
        // Ten continuation bytes: cut short. An eleventh byte: too long.
        let continued = [0x80u8; MAX_VARINT_LEN + 1];
        assert_eq!(
            read_varint(&continued[..MAX_VARINT_LEN]),
            Err(VarintError::Truncated)
        );
        assert_eq!(read_varint(&continued), Err(VarintError::Overflow));
    }
}
