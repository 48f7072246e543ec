//! WAL framing: length-prefixed, checksummed, versioned append-only records.
//!
//! The byte layout is independent of the record payload:
//!
//! ```text
//! log   := header frame*
//! header:= magic "GGDW" version:u8 epoch:u64le
//! frame := len:u32le checksum:u32le payload[len]
//! ```
//!
//! `version` is [`FORMAT_VERSION`]: a log or checkpoint of any other
//! version fails with [`StoreError::VersionMismatch`] before any payload is
//! decoded, so no image is read in a layout it was not written in.
//!
//! `checksum` is FNV-1a over the payload. A frame whose checksum does not
//! match is *corruption* and fails the whole load (the durable medium lied);
//! a frame that runs past the end of the log is a *torn tail* — the normal
//! signature of a crash mid-append — and is dropped, with the prefix before
//! it recovered intact. The distinction is pinned by the corrupted-record
//! tests.
//!
//! Checkpoint blobs reuse the same frame (magic "GGDC"), so a checkpoint is
//! verified by the same checksum machinery before anything is decoded.

use crate::codec::CodecError;

/// Version byte of the durable format (WAL header and checkpoint header).
/// Bump on any incompatible change to the framing or the record encodings
/// in [`crate::wire`]/[`crate::record`].
///
/// v2: `HeapImage` carries the arena's generation watermark, so restored
/// slabs invalidate every pre-checkpoint `ObjectSlot` handle.
/// v3: the heap image drops the watermark (objects are named by identity
/// alone) and the engine image drops the always-empty designated-root set.
pub const FORMAT_VERSION: u8 = 3;

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
/// straight into `out`: the 8-byte header is reserved first and filled in
/// with the payload's length and checksum afterwards, so no payload buffer
/// of its own is needed. The bytes are those of [`append_frame`].
pub fn append_frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; 8]);
    encode(out);
    let payload = &out[header + 8..];
    let len = (payload.len() as u32).to_le_bytes();
    let sum = checksum(payload).to_le_bytes();
    out[header..header + 4].copy_from_slice(&len);
    out[header + 4..header + 8].copy_from_slice(&sum);
}

/// Wraps a checkpoint payload in magic, version, its epoch and a
/// checksummed frame.
pub fn seal_checkpoint(payload: &[u8], epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN + 8);
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
fn read_frame(bytes: &[u8], offset: usize) -> Result<Option<Frame<'_>>, StoreError> {
    if bytes.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let Some(payload) = bytes.get(8..8 + len) else {
        return Ok(None);
    };
    if checksum(payload) != stored {
        return Err(StoreError::ChecksumMismatch { offset });
    }
    Ok(Some((payload, &bytes[8 + len..])))
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
    fn frame_is_length_checksum_then_payload() {
        // Encoded in place after earlier bytes, as the memory WAL does.
        let mut out = b"head".to_vec();
        append_frame_with(&mut out, |out| out.extend_from_slice(b"abc"));
        let mut expected = b"head".to_vec();
        expected.extend_from_slice(&3u32.to_le_bytes());
        expected.extend_from_slice(&checksum(b"abc").to_le_bytes());
        expected.extend_from_slice(b"abc");
        assert_eq!(out, expected);
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

    #[test]
    fn previous_format_version_is_rejected() {
        // A v2 heap image ends in a generation watermark that v3 does not
        // write; the header must stop it before any payload is decoded.
        let mut wal = wal_header(0);
        append_frame(&mut wal, b"record");
        wal[4] = 2;
        assert!(matches!(
            scan_wal(&wal, |_| Ok(())),
            Err(StoreError::VersionMismatch { found: 2 })
        ));
        let mut blob = seal_checkpoint(b"engine+heap", 1);
        blob[4] = 2;
        assert!(matches!(
            open_checkpoint(&blob),
            Err(StoreError::VersionMismatch { found: 2 })
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
