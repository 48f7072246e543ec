//! WAL framing: length-prefixed, checksummed, versioned append-only records.
//!
//! The byte layout is independent of the record payload:
//!
//! ```text
//! log   := header frame*
//! header:= magic "GGDW" version:u8 epoch:u64le
//! frame := len:LEB128 checksum:u32le payload[len]
//! ```
//!
//! A payload below 128 bytes — every WAL record but the rare wide control
//! message — costs one length byte and four checksum bytes.
//!
//! `version` is [`FORMAT_VERSION`]: a log or checkpoint of any other
//! version fails with [`StoreError::VersionMismatch`] before any payload is
//! decoded, so no image is read in a layout it was not written in.
//!
//! `checksum` is FNV-1a over the payload. A frame whose checksum does not
//! match is *corruption* and fails the whole load (the durable medium lied);
//! a frame that runs past the end of the log is a *torn tail* — the normal
//! signature of a crash mid-append — and is dropped, with the prefix before
//! it recovered intact. A length varint cut off by the end of the log is
//! torn too; an overlong one, or a length no address space can hold, is
//! corruption. The distinction is pinned by the corrupted-record tests.
//!
//! Checkpoint blobs reuse the same frame (magic "GGDC"), so a checkpoint is
//! verified by the same checksum machinery before anything is decoded.

use ggd_types::{read_varint, write_varint, VarintError};

use crate::codec::CodecError;

/// Version byte of the durable format (WAL header and checkpoint header).
/// Bump on any incompatible change to the framing or the record encodings
/// in [`crate::wire`]/[`crate::record`].
///
/// v2: `HeapImage` carries the arena's generation watermark, so restored
/// slabs invalidate every pre-checkpoint `ObjectSlot` handle.
/// v3: the heap image drops the watermark (objects are named by identity
/// alone) and the engine image drops the always-empty designated-root set.
/// v4: a frame's length is a varint instead of a `u32`, and WAL records
/// name the log's own site implicitly ([`crate::record`]).
pub const FORMAT_VERSION: u8 = 4;

/// Magic prefix of a WAL.
pub const WAL_MAGIC: &[u8; 4] = b"GGDW";

/// Magic prefix of a checkpoint blob.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"GGDC";

/// Errors surfaced while reading durable state.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The log or checkpoint did not start with the expected magic bytes.
    BadMagic,
    /// The durable format version is not the one this build writes.
    VersionMismatch {
        /// Version found in the header.
        found: u8,
    },
    /// A frame's checksum did not match its payload.
    ChecksumMismatch {
        /// Byte offset of the offending frame.
        offset: usize,
    },
    /// A frame payload failed to decode.
    Codec(CodecError),
    /// An I/O error from the on-disk backend.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "bad magic bytes"),
            StoreError::VersionMismatch { found } => {
                write!(f, "format version {found} (expected {FORMAT_VERSION})")
            }
            StoreError::ChecksumMismatch { offset } => {
                write!(f, "checksum mismatch at offset {offset}")
            }
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// FNV-1a over `bytes`, the frame checksum.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Returns a fresh WAL header carrying `epoch` — the checkpoint generation
/// this log belongs to. Epochs make checkpoint installation crash-safe on
/// the disk backend: the checkpoint is renamed into place *before* the WAL
/// is truncated, so a crash between the two leaves a checkpoint of epoch
/// `n+1` next to a WAL still stamped `n`; the loader sees the stale stamp
/// and knows every record in that log is already covered by the
/// checkpoint, instead of replaying it a second time on top of it.
pub fn wal_header(epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    write_header(&mut out, WAL_MAGIC, epoch);
    out
}

/// Length of a WAL or checkpoint header: magic, version and epoch.
const HEADER_LEN: usize = 13;

/// Appends a header — `magic`, the format version and `epoch` — to `out`:
/// the layout of both the WAL's and the checkpoint blob's.
fn write_header(out: &mut Vec<u8>, magic: &[u8; 4], epoch: u64) {
    out.extend_from_slice(magic);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&epoch.to_le_bytes());
}

/// Appends one checksummed frame carrying `payload` to `out`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    append_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one checksummed frame to `out` whose payload `encode` writes
/// straight into `out`: a one-byte length and the checksum are reserved
/// first and filled in afterwards, so no payload buffer of its own is
/// needed. The bytes are those of [`append_frame`].
pub fn append_frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; 5]);
    encode(out);
    let len = out.len() - header - 5;
    let sum = checksum(&out[header + 5..]).to_le_bytes();
    out[header + 1..header + 5].copy_from_slice(&sum);
    if len < 0x80 {
        out[header] = len as u8;
    } else {
        // A longer length (a checkpoint, a wide message): write its varint
        // past the payload, rotate it in after the one-byte slot and drop
        // the slot.
        let end = out.len();
        write_varint(out, len as u64);
        let varint = out.len() - end;
        out[header + 1..].rotate_right(varint);
        out.remove(header);
    }
}

/// Wraps a checkpoint payload in magic, version, its epoch and a
/// checksummed frame.
pub fn seal_checkpoint(payload: &[u8], epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN + 14);
    seal_checkpoint_with(&mut out, epoch, |out| out.extend_from_slice(payload));
    out
}

/// Appends a sealed checkpoint blob to `out` whose payload `encode` writes
/// straight into the frame, as [`append_frame_with`] does. The bytes are
/// those of [`seal_checkpoint`] over the same payload.
pub fn seal_checkpoint_with(out: &mut Vec<u8>, epoch: u64, encode: impl FnOnce(&mut Vec<u8>)) {
    write_header(out, CHECKPOINT_MAGIC, epoch);
    append_frame_with(out, encode);
}

/// Verifies and unwraps a checkpoint blob, returning its epoch and
/// payload.
///
/// # Errors
///
/// Returns a [`StoreError`] on bad magic, version or checksum, or when the
/// blob is truncated.
pub fn open_checkpoint(blob: &[u8]) -> Result<(u64, &[u8]), StoreError> {
    let (epoch, rest) = expect_header(blob, CHECKPOINT_MAGIC)?;
    let offset = blob.len() - rest.len();
    match read_frame(rest, offset)? {
        Some((payload, tail)) => {
            if !tail.is_empty() {
                return Err(StoreError::Codec(CodecError::Invalid(
                    "trailing bytes after checkpoint frame",
                )));
            }
            Ok((epoch, payload))
        }
        None => Err(StoreError::Codec(CodecError::UnexpectedEof)),
    }
}

/// How a WAL scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The log ended exactly on a frame boundary.
    Clean,
    /// The log ended mid-frame (a crash interrupted an append); the torn
    /// bytes start at this offset and were not replayed.
    Torn {
        /// Byte offset of the torn frame.
        at: usize,
    },
}

fn expect_header<'a>(bytes: &'a [u8], magic: &[u8; 4]) -> Result<(u64, &'a [u8]), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::BadMagic);
    }
    if &bytes[..4] != magic {
        return Err(StoreError::BadMagic);
    }
    if bytes[4] != FORMAT_VERSION {
        return Err(StoreError::VersionMismatch { found: bytes[4] });
    }
    let epoch = u64::from_le_bytes(bytes[5..HEADER_LEN].try_into().expect("8 bytes"));
    Ok((epoch, &bytes[HEADER_LEN..]))
}

/// A parsed frame: its payload and the bytes following it.
type Frame<'a> = (&'a [u8], &'a [u8]);

/// Reads one frame. `Ok(None)` means a torn (incomplete) frame.
///
/// # Errors
///
/// [`StoreError::ChecksumMismatch`] on a payload that does not match its
/// checksum; [`CodecError::VarintOverflow`] on an overlong length varint
/// and [`CodecError::Invalid`] on a length past the end of any address
/// space — corruption, not a tear, since no append writes either.
fn read_frame(bytes: &[u8], offset: usize) -> Result<Option<Frame<'_>>, StoreError> {
    let (len, used) = match read_varint(bytes) {
        Ok(read) => read,
        Err(VarintError::Truncated) => return Ok(None),
        Err(VarintError::Overflow) => return Err(CodecError::VarintOverflow.into()),
    };
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| used.checked_add(4)?.checked_add(len))
        .ok_or(CodecError::Invalid("frame length"))?;
    let Some(frame) = bytes.get(..end) else {
        return Ok(None);
    };
    let stored = u32::from_le_bytes(frame[used..used + 4].try_into().expect("4 bytes"));
    let payload = &frame[used + 4..];
    if checksum(payload) != stored {
        return Err(StoreError::ChecksumMismatch { offset });
    }
    Ok(Some((payload, &bytes[end..])))
}

/// Scans a whole WAL, yielding each frame payload to `visit`; returns the
/// log's epoch and how the scan ended.
///
/// # Errors
///
/// Returns a [`StoreError`] on bad header or a checksum mismatch. A torn
/// final frame is reported through the returned [`WalTail`], not an error.
pub fn scan_wal<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(&'a [u8]) -> Result<(), StoreError>,
) -> Result<(u64, WalTail), StoreError> {
    let (epoch, mut rest) = expect_header(bytes, WAL_MAGIC)?;
    loop {
        let offset = bytes.len() - rest.len();
        if rest.is_empty() {
            return Ok((epoch, WalTail::Clean));
        }
        match read_frame(rest, offset)? {
            None => return Ok((epoch, WalTail::Torn { at: offset })),
            Some((payload, tail)) => {
                visit(payload)?;
                rest = tail;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut wal = wal_header(3);
        for p in payloads {
            append_frame(&mut wal, p);
        }
        wal
    }

    fn collect(wal: &[u8]) -> (Vec<Vec<u8>>, WalTail) {
        let mut seen = Vec::new();
        let (epoch, tail) = scan_wal(wal, |p| {
            seen.push(p.to_vec());
            Ok(())
        })
        .expect("scan succeeds");
        assert_eq!(epoch, 3, "header epoch round-trips");
        (seen, tail)
    }

    #[test]
    fn frames_round_trip_cleanly() {
        let wal = wal_with(&[b"alpha", b"", b"gamma"]);
        let (seen, tail) = collect(&wal);
        assert_eq!(
            seen,
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma".to_vec()]
        );
        assert_eq!(tail, WalTail::Clean);
    }

    #[test]
    fn frame_is_varint_length_checksum_then_payload() {
        // Encoded in place after earlier bytes, as the memory WAL does: a
        // payload below 128 bytes costs 5 bytes of framing.
        let mut out = b"head".to_vec();
        append_frame_with(&mut out, |out| out.extend_from_slice(b"abc"));
        let mut expected = b"head".to_vec();
        expected.push(3);
        expected.extend_from_slice(&checksum(b"abc").to_le_bytes());
        expected.extend_from_slice(b"abc");
        assert_eq!(out, expected);
        for len in [0, 1, 127] {
            let mut out = Vec::new();
            append_frame(&mut out, &vec![7; len]);
            assert_eq!(out.len(), len + 5, "{len}-byte payload");
        }
    }

    #[test]
    fn longer_payloads_take_a_longer_length_varint() {
        for len in [128usize, 300, 16_383, 16_384, 70_000] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut out = b"head".to_vec();
            append_frame_with(&mut out, |out| out.extend_from_slice(&payload));
            let mut expected = b"head".to_vec();
            write_varint(&mut expected, len as u64);
            expected.extend_from_slice(&checksum(&payload).to_le_bytes());
            expected.extend_from_slice(&payload);
            assert_eq!(out, expected, "{len}-byte payload");
            let mut wal = wal_header(3);
            wal.extend_from_slice(&out[4..]);
            assert_eq!(collect(&wal), (vec![payload], WalTail::Clean));
        }
    }

    #[test]
    fn a_length_cut_off_by_the_end_of_the_log_is_torn() {
        let mut wal = wal_with(&[b"kept"]);
        let torn_at = wal.len();
        wal.extend_from_slice(&[0x80, 0x80]); // a varint still continuing
        let (seen, tail) = collect(&wal);
        assert_eq!(seen, vec![b"kept".to_vec()]);
        assert_eq!(tail, WalTail::Torn { at: torn_at });
    }

    #[test]
    fn an_overlong_length_varint_is_an_error() {
        let mut wal = wal_with(&[b"kept"]);
        wal.extend_from_slice(&[0x80; 11]);
        wal.extend_from_slice(&[0; 8]);
        assert!(matches!(
            scan_wal(&wal, |_| Ok(())),
            Err(StoreError::Codec(CodecError::VarintOverflow))
        ));
    }

    #[test]
    fn a_length_past_the_address_space_is_an_error() {
        // `used + 4 + len` overflows `usize` (on 32-bit targets the length
        // does not even fit one): corruption, not a tear.
        let mut wal = wal_with(&[b"kept"]);
        write_varint(&mut wal, u64::MAX - 3);
        wal.extend_from_slice(&[0; 8]);
        assert!(matches!(
            scan_wal(&wal, |_| Ok(())),
            Err(StoreError::Codec(CodecError::Invalid(_)))
        ));
        let mut blob = seal_checkpoint(b"", 1);
        blob.truncate(HEADER_LEN);
        write_varint(&mut blob, u64::MAX);
        blob.extend_from_slice(&[0; 4]);
        assert!(matches!(
            open_checkpoint(&blob),
            Err(StoreError::Codec(CodecError::Invalid(_)))
        ));
    }

    #[test]
    fn torn_tail_is_dropped_not_replayed() {
        let mut wal = wal_with(&[b"kept"]);
        let torn_at = wal.len();
        let mut torn = Vec::new();
        append_frame(&mut torn, b"interrupted append");
        wal.extend_from_slice(&torn[..torn.len() - 7]); // crash mid-payload
        let (seen, tail) = collect(&wal);
        assert_eq!(seen, vec![b"kept".to_vec()]);
        assert_eq!(tail, WalTail::Torn { at: torn_at });
    }

    #[test]
    fn flipped_bit_is_a_checksum_error() {
        let mut wal = wal_with(&[b"payload"]);
        let last = wal.len() - 1;
        wal[last] ^= 0x40;
        let err = scan_wal(&wal, |_| Ok(())).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert!(matches!(
            scan_wal(b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00", |_| Ok(())),
            Err(StoreError::BadMagic)
        ));
        let mut wal = wal_header(0);
        wal[4] = 99;
        assert!(matches!(
            scan_wal(&wal, |_| Ok(())),
            Err(StoreError::VersionMismatch { found: 99 })
        ));
        assert!(matches!(
            scan_wal(b"GG", |_| Ok(())),
            Err(StoreError::BadMagic)
        ));
    }

    /// `payload` as a v3 log or checkpoint lays it out: the header, then a
    /// frame of a `u32` length and the checksum.
    fn v3_image(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut out = magic.to_vec();
        out.push(3);
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn previous_format_version_is_rejected() {
        // A v3 frame's length is a fixed `u32` that v4 would read as a
        // varint; the header must stop it before any frame is read.
        assert!(matches!(
            scan_wal(&v3_image(WAL_MAGIC, b"record"), |_| Ok(())),
            Err(StoreError::VersionMismatch { found: 3 })
        ));
        assert!(matches!(
            open_checkpoint(&v3_image(CHECKPOINT_MAGIC, b"engine+heap")),
            Err(StoreError::VersionMismatch { found: 3 })
        ));
    }

    #[test]
    fn checkpoint_seal_round_trips_and_rejects_corruption() {
        let blob = seal_checkpoint(b"engine+heap", 7);
        assert_eq!(
            open_checkpoint(&blob).unwrap(),
            (7, b"engine+heap".as_slice())
        );

        let mut flipped = blob.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(
            open_checkpoint(&flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        let truncated = &blob[..blob.len() - 3];
        assert!(open_checkpoint(truncated).is_err());
    }
}
