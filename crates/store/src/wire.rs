//! [`Encode`]/[`Decode`] implementations for every domain type that crosses
//! the wire or lands in the WAL: identifiers, timestamps, dependency
//! vectors, the causal log and message, both baseline message families, and
//! the heap/engine checkpoint images.
//!
//! The encodings mirror the in-memory invariants: dependency vectors and
//! root stamps are written in strictly ascending key order, and their
//! decoders reject any other order, a duplicate key or a `Never` entry
//! with [`CodecError::Invalid`] and build the value in one allocation; the
//! log decodes through `row_mut`/`stamp_root`, each row written and read as
//! the [`RootedVector`] it equals whatever shape the log keeps it in, and
//! enum tags are stable —
//! they are part of the durable format guarded by
//! [`crate::wal::FORMAT_VERSION`].

use std::collections::BTreeSet;

use ggd_baselines::{RefListingMessage, TracingMessage};
use ggd_causal::{
    CausalMessage, DkLog, EngineCheckpoint, EngineImageSink, EngineImageSource, EngineStats,
    Outgoing, RootStamps, RootedVector, Row,
};
use ggd_heap::{HeapImage, HeapImageSink, HeapImageSource, HeapStats, ObjRef};
use ggd_types::{
    write_varint, CompactVector, DependencyVector, GlobalAddr, ObjectId, SiteId, Timestamp,
    VertexId,
};

use crate::codec::{CodecError, Decode, Encode, Reader};

impl Encode for SiteId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index().encode(out);
    }
}
impl Decode for SiteId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SiteId::new(u32::decode(r)?))
    }
}

impl Encode for ObjectId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index().encode(out);
    }
}
impl Decode for ObjectId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ObjectId::new(u64::decode(r)?))
    }
}

impl Encode for GlobalAddr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.site().encode(out);
        self.object().encode(out);
    }
}
impl Decode for GlobalAddr {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GlobalAddr::from_parts(
            SiteId::decode(r)?,
            ObjectId::decode(r)?,
        ))
    }
}

impl Encode for VertexId {
    fn encode(&self, out: &mut Vec<u8>) {
        match self.as_object() {
            None => {
                out.push(0);
                self.site().encode(out);
            }
            Some(addr) => {
                out.push(1);
                addr.encode(out);
            }
        }
    }
}
impl Decode for VertexId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(VertexId::site_root(SiteId::decode(r)?.index())),
            1 => Ok(VertexId::from(GlobalAddr::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "VertexId",
                tag,
            }),
        }
    }
}

impl Encode for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        // One varint of the wire form: 0 for Never, 2n for Created(n),
        // 2n+1 for Destroyed(n). Event indices are small in practice, so
        // the common stamps cost a single byte.
        write_varint(out, self.wire());
    }
}
impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Timestamp::from_wire(r.varint()?).map_err(|_| CodecError::Invalid("zero event index"))
    }
}

impl Encode for ObjRef {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ObjRef::Local(id) => {
                out.push(0);
                id.encode(out);
            }
            ObjRef::Remote(addr) => {
                out.push(1);
                addr.encode(out);
            }
        }
    }
}
impl Decode for ObjRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(ObjRef::Local(ObjectId::decode(r)?)),
            1 => Ok(ObjRef::Remote(GlobalAddr::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "ObjRef",
                tag,
            }),
        }
    }
}

/// The count, then each entry in ascending key order, whatever the
/// vector's shape.
impl<const N: usize> Encode for DependencyVector<N> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}
impl<const N: usize> Decode for DependencyVector<N> {
    /// Decodes a vector that fits inline without allocating, and a larger
    /// one into a single exactly sized allocation.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let mut inline = [(VertexId::site_root(0), Timestamp::NEVER); N];
        let vector = if n <= inline.len() {
            for entry in &mut inline[..n] {
                *entry = Decode::decode(r)?;
            }
            DependencyVector::from_sorted_slice(&inline[..n])
        } else {
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(Decode::decode(r)?);
            }
            DependencyVector::from_sorted(entries)
        };
        vector.ok_or(CodecError::Invalid(
            "dependency vector keys out of order, repeated or Never",
        ))
    }
}

/// Written exactly as the ordered map the stamps used to be kept in: the
/// count, then each vertex and its `(as_of, is_root)` in ascending order.
impl Encode for RootStamps {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}
impl Decode for RootStamps {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        RootStamps::from_sorted(Vec::decode(r)?)
            .ok_or(CodecError::Invalid("root stamps out of order"))
    }
}

impl Encode for RootedVector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_row().encode(out);
    }
}
impl Decode for RootedVector {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RootedVector {
            vector: DependencyVector::decode(r)?,
            root_flags: RootStamps::decode(r)?,
        })
    }
}

/// A log row is written as the [`RootedVector`] it equals, whatever shape
/// the log stores it in.
impl Encode for Row<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries().encode(out);
        self.root_flags().encode(out);
    }
}

impl Encode for DkLog {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for (vertex, row) in self.rows() {
            vertex.encode(out);
            row.encode(out);
        }
        self.root_flags().encode(out);
    }
}
/// Decodes the log of `site`, its rows in strictly ascending vertex order.
/// A row for one of the site's own objects at or past `next_object` is
/// rejected before the log indexes it by identity.
fn decode_log(r: &mut Reader<'_>, site: SiteId, next_object: u64) -> Result<DkLog, CodecError> {
    let mut log = DkLog::new(site);
    read_ascending(r, |r, vertex| {
        log.row_mut(allocated(vertex, site, next_object)?)
            .assign(RootedVector::decode(r)?);
        Ok(())
    })?;
    for &(vertex, (as_of, is_root)) in RootStamps::decode(r)?.iter() {
        log.stamp_root(vertex, as_of, is_root);
    }
    Ok(log)
}

/// Reads a counted sequence whose keys strictly ascend — the layout of an
/// ordered map or set — handing each key to `item`, which reads the rest
/// of its entry. A key out of order or repeated fails the read.
fn read_ascending<K: Decode + Ord + Copy>(
    r: &mut Reader<'_>,
    mut item: impl FnMut(&mut Reader<'_>, K) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let mut last = None;
    for _ in 0..r.len()? {
        let key = K::decode(r)?;
        if last.is_some_and(|last| last >= key) {
            return Err(CodecError::Invalid("keys out of order or repeated"));
        }
        last = Some(key);
        item(r, key)?;
    }
    Ok(())
}

/// Reads a strictly ascending set into `out`, replacing its contents.
fn read_ascending_into<K: Decode + Ord + Copy>(
    r: &mut Reader<'_>,
    out: &mut Vec<K>,
) -> Result<(), CodecError> {
    out.clear();
    read_ascending(r, |_, key| {
        out.push(key);
        Ok(())
    })
}

/// Passes `vertex` through unless it is one of `site`'s objects with an
/// identity at or past `next_object`, which the site never allocated. The
/// engine and its log find their own objects' state in tables indexed by
/// identity, so such an identity must fail the decode, not size a table.
fn allocated(vertex: VertexId, site: SiteId, next_object: u64) -> Result<VertexId, CodecError> {
    match vertex.as_object() {
        Some(addr) if addr.site() == site && addr.object().index() >= next_object => Err(
            CodecError::Invalid("object identity the site never allocated"),
        ),
        _ => Ok(vertex),
    }
}

impl Encode for CausalMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
        self.payload.encode(out);
    }
}
impl Decode for CausalMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CausalMessage {
            from: VertexId::decode(r)?,
            to: VertexId::decode(r)?,
            payload: RootedVector::decode(r)?,
        })
    }
}

impl Encode for Outgoing {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_site.encode(out);
        self.message.encode(out);
    }
}
impl Decode for Outgoing {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Outgoing {
            to_site: SiteId::decode(r)?,
            message: CausalMessage::decode(r)?,
        })
    }
}

impl Encode for RefListingMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RefListingMessage::AddEntry { target, holder } => {
                out.push(0);
                target.encode(out);
                holder.encode(out);
            }
            RefListingMessage::RemoveEntry { target, holder } => {
                out.push(1);
                target.encode(out);
                holder.encode(out);
            }
        }
    }
}
impl Decode for RefListingMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        let target = GlobalAddr::decode(r)?;
        let holder = SiteId::decode(r)?;
        match tag {
            0 => Ok(RefListingMessage::AddEntry { target, holder }),
            1 => Ok(RefListingMessage::RemoveEntry { target, holder }),
            tag => Err(CodecError::BadTag {
                what: "RefListingMessage",
                tag,
            }),
        }
    }
}

impl Encode for TracingMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TracingMessage::Report {
                site,
                epoch,
                ack_round,
                vertices,
                transfers_sent,
                transfers_received,
            } => {
                out.push(0);
                site.encode(out);
                epoch.encode(out);
                ack_round.encode(out);
                vertices.encode(out);
                transfers_sent.encode(out);
                transfers_received.encode(out);
            }
            TracingMessage::RoundPoll { round } => {
                out.push(1);
                round.encode(out);
            }
            TracingMessage::Sweep { garbage } => {
                out.push(2);
                garbage.encode(out);
            }
        }
    }
}
impl Decode for TracingMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(TracingMessage::Report {
                site: SiteId::decode(r)?,
                epoch: u64::decode(r)?,
                ack_round: Option::decode(r)?,
                vertices: Vec::decode(r)?,
                transfers_sent: Vec::decode(r)?,
                transfers_received: Vec::decode(r)?,
            }),
            1 => Ok(TracingMessage::RoundPoll {
                round: u64::decode(r)?,
            }),
            2 => Ok(TracingMessage::Sweep {
                garbage: Vec::decode(r)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "TracingMessage",
                tag,
            }),
        }
    }
}

impl Encode for HeapStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.allocated.encode(out);
        self.collected.encode(out);
        self.collections.encode(out);
    }
}
impl Decode for HeapStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(HeapStats {
            allocated: u64::decode(r)?,
            collected: u64::decode(r)?,
            collections: u64::decode(r)?,
        })
    }
}

/// Writes the heap image of `heap`: the one place its layout is spelled
/// out. A live [`ggd_heap::SiteHeap`] and the [`HeapImage`] it would
/// produce write the same bytes.
pub fn write_heap_image(out: &mut Vec<u8>, heap: &impl HeapImageSource) {
    heap.site().encode(out);
    heap.next_object().encode(out);
    heap.stats().encode(out);
    write_exact(out, heap.local_roots());
    write_exact(out, heap.global_roots());
    write_varint(out, heap.object_count() as u64);
    for (id, refs) in heap.objects() {
        id.encode(out);
        write_exact(out, refs);
    }
}

/// Writes a sequence as the codec writes a `Vec` or an ordered set: the
/// count, then each item.
fn write_exact<T: Encode>(out: &mut Vec<u8>, items: impl ExactSizeIterator<Item = T>) {
    write_varint(out, items.len() as u64);
    for item in items {
        item.encode(out);
    }
}

/// Writes a sequence whose length is not known up front: counted on a
/// clone first, then written as [`write_exact`] writes it.
fn write_counted<T>(
    out: &mut Vec<u8>,
    items: impl Iterator<Item = T> + Clone,
    mut write: impl FnMut(&mut Vec<u8>, T),
) {
    write_varint(out, items.clone().count() as u64);
    for item in items {
        write(out, item);
    }
}

/// Reads a heap image into `S`: the one place its layout is read, each
/// part checked before the sink gets it. An object identity outside
/// `1..next_object` fails the read (the arena indexes its objects by
/// identity, and the heap never allocated one), and so do identities that
/// do not strictly ascend (the writer emits them ascending; a repeat would
/// put one identity in two slots). A restored [`ggd_heap::SiteHeap`] and
/// the [`HeapImage`] it would be rebuilt from read the same bytes.
pub(crate) fn read_heap_image<S: HeapImageSink>(r: &mut Reader<'_>) -> Result<S, CodecError> {
    let site = SiteId::decode(r)?;
    let next_object = u64::decode(r)?;
    let stats = HeapStats::decode(r)?;
    let local_roots = BTreeSet::decode(r)?;
    let global_roots = BTreeSet::decode(r)?;
    let count = r.len()?;
    let mut sink = S::begin(site, next_object, stats, local_roots, global_roots, count);
    let mut refs = Vec::new();
    let mut last = 0;
    for _ in 0..count {
        let id = ObjectId::decode(r)?;
        if id.index() == 0 || id.index() >= next_object {
            return Err(CodecError::Invalid(
                "object identity the heap never allocated",
            ));
        }
        if id.index() <= last {
            return Err(CodecError::Invalid(
                "object identities out of order or repeated",
            ));
        }
        last = id.index();
        refs.clear();
        for _ in 0..r.len()? {
            refs.push(ObjRef::decode(r)?);
        }
        sink.object(id, &refs);
    }
    sink.finish();
    Ok(sink)
}

impl Encode for HeapImage {
    fn encode(&self, out: &mut Vec<u8>) {
        write_heap_image(out, self);
    }
}
impl Decode for HeapImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_heap_image(r)
    }
}

impl Encode for EngineStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.edge_creations.encode(out);
        self.edge_destructions.encode(out);
        self.lazy_records.encode(out);
        self.destructions_sent.encode(out);
        self.propagations_sent.encode(out);
        self.messages_received.encode(out);
        self.verdicts.encode(out);
        self.compaction_runs.encode(out);
        self.compaction_rows_dropped.encode(out);
    }
}
impl Decode for EngineStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EngineStats {
            edge_creations: u64::decode(r)?,
            edge_destructions: u64::decode(r)?,
            lazy_records: u64::decode(r)?,
            destructions_sent: u64::decode(r)?,
            propagations_sent: u64::decode(r)?,
            messages_received: u64::decode(r)?,
            verdicts: u64::decode(r)?,
            compaction_runs: u64::decode(r)?,
            compaction_rows_dropped: u64::decode(r)?,
        })
    }
}

/// Writes the engine image of `engine`: the one place its layout is
/// spelled out, as the ordered maps and sets of an [`EngineCheckpoint`]
/// encode. A live [`ggd_causal::CausalEngine`] and its checkpoint write the
/// same bytes.
pub fn write_engine_image(out: &mut Vec<u8>, engine: &impl EngineImageSource) {
    engine.site().encode(out);
    write_counted(out, engine.counters(), |out, (vertex, counter)| {
        vertex.encode(out);
        counter.encode(out);
    });
    engine.log().encode(out);
    write_counted(out, engine.last_closures(), |out, (vertex, closure)| {
        vertex.encode(out);
        closure.encode(out);
    });
    write_counted(out, engine.edges_out(), |out, (vertex, targets)| {
        vertex.encode(out);
        write_exact(out, targets);
    });
    write_counted(out, engine.locally_rooted(), |out, vertex| {
        vertex.encode(out)
    });
    let holders = engine.inbound_holders();
    write_varint(out, holders.len() as u64);
    for (target, holders) in holders {
        target.encode(out);
        write_exact(out, holders);
    }
    write_counted(out, engine.detected(), |out, addr| addr.encode(out));
    engine.pending_verdicts().encode(out);
    engine.outgoing().encode(out);
    engine.stats().encode(out);
}

impl Encode for EngineCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        write_engine_image(out, self);
    }
}
impl Decode for EngineCheckpoint {
    /// Decodes an image without knowing its heap: only the one identity no
    /// site allocates, `u64::MAX`, is rejected. Recovery reads through
    /// [`read_engine_image`] instead.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_engine(r, u64::MAX)
    }
}

/// Reads an engine image into `S`, taken beside a heap image whose next
/// object identity is `next_object`, requiring every byte to be consumed:
/// the one place the layout is read, each part checked before the sink
/// gets it. A restored [`ggd_causal::CausalEngine`] and the
/// [`EngineCheckpoint`] it would be restored from read the same bytes.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input, on trailing bytes, on the
/// keys of a map or set out of order or repeated, and when the image names
/// one of its own site's objects at or past `next_object` as a vertex with
/// engine state or a log row.
pub fn read_engine_image<S: EngineImageSink>(
    bytes: &[u8],
    next_object: u64,
) -> Result<S, CodecError> {
    let mut r = Reader::new(bytes);
    let sink = read_engine(&mut r, next_object)?;
    if !r.is_empty() {
        return Err(CodecError::Invalid("trailing bytes after value"));
    }
    Ok(sink)
}

/// [`read_engine_image`] into an owned checkpoint: the form the reference
/// rebuild, `CausalEngine::restore`, takes.
///
/// # Errors
///
/// As [`read_engine_image`].
pub fn decode_engine_checkpoint(
    bytes: &[u8],
    next_object: u64,
) -> Result<EngineCheckpoint, CodecError> {
    read_engine_image(bytes, next_object)
}

fn read_engine<S: EngineImageSink>(r: &mut Reader<'_>, next_object: u64) -> Result<S, CodecError> {
    let site = SiteId::decode(r)?;
    // Every vertex the engine keeps state for.
    let with_state = |vertex| allocated(vertex, site, next_object);
    let mut sink = S::begin(site);
    read_ascending(r, |r, vertex| {
        sink.counter(with_state(vertex)?, u64::decode(r)?);
        Ok(())
    })?;
    let log = decode_log(r, site, next_object)?;
    read_ascending(r, |r, vertex| {
        sink.last_closure(with_state(vertex)?, CompactVector::decode(r)?);
        Ok(())
    })?;
    let mut targets = Vec::new();
    read_ascending(r, |r, vertex| {
        let vertex = with_state(vertex)?;
        read_ascending_into(r, &mut targets)?;
        sink.edges_out(vertex, &targets);
        Ok(())
    })?;
    read_ascending(r, |_, vertex| {
        sink.locally_rooted(with_state(vertex)?);
        Ok(())
    })?;
    let mut holders = Vec::new();
    read_ascending(r, |r, target| {
        read_ascending_into(r, &mut holders)?;
        for &holder in &holders {
            with_state(holder)?;
        }
        sink.holders(target, &holders);
        Ok(())
    })?;
    read_ascending(r, |_, addr: GlobalAddr| {
        with_state(VertexId::from(addr))?;
        sink.detected(addr);
        Ok(())
    })?;
    let pending_verdicts = Vec::decode(r)?;
    let outgoing = Vec::decode(r)?;
    let stats = EngineStats::decode(r)?;
    sink.finish(log, pending_verdicts, outgoing, stats);
    Ok(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};
    use std::collections::BTreeMap;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, value);
        assert_eq!(encode_to_vec(&back), bytes, "re-encode is bit-identical");
    }

    #[test]
    fn identifiers_round_trip() {
        round_trip(SiteId::new(42));
        round_trip(ObjectId::new(u64::MAX));
        round_trip(GlobalAddr::new(7, 9));
        round_trip(VertexId::site_root(3));
        round_trip(VertexId::object(1, 2));
        round_trip(ObjRef::Local(ObjectId::new(5)));
        round_trip(ObjRef::Remote(GlobalAddr::new(2, 8)));
    }

    #[test]
    fn timestamps_round_trip() {
        round_trip(Timestamp::NEVER);
        round_trip(Timestamp::created(1));
        round_trip(Timestamp::destroyed(1));
        round_trip(Timestamp::created(1 << 40));
        round_trip(Timestamp::destroyed(u64::MAX >> 1));
    }

    #[test]
    fn packed_identities_and_timestamps_write_the_enum_codec_bytes() {
        // The bytes the enum forms of `VertexId` and `Timestamp` encoded
        // to, and `GlobalAddr`'s, at the edges of their ranges.
        let m = u32::MAX;
        let max = u64::MAX >> 1;
        let vertices: [(VertexId, &[u8]); 7] = [
            (VertexId::site_root(0), &[0, 0]),
            (VertexId::site_root(3), &[0, 3]),
            (VertexId::site_root(m), &[0, 255, 255, 255, 255, 15]),
            (VertexId::object(0, 0), &[1, 0, 0]),
            (VertexId::object(2, 7), &[1, 2, 7]),
            (VertexId::object(1, 300), &[1, 1, 172, 2]),
            (
                VertexId::object(m, u64::MAX),
                &[
                    1, 255, 255, 255, 255, 15, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1,
                ],
            ),
        ];
        for (vertex, bytes) in vertices {
            assert_eq!(encode_to_vec(&vertex), bytes, "{vertex}");
            round_trip(vertex);
        }
        let addrs: [(GlobalAddr, &[u8]); 3] = [
            (GlobalAddr::new(0, 0), &[0, 0]),
            (GlobalAddr::new(1, 7), &[1, 7]),
            (
                GlobalAddr::new(m, u64::MAX),
                &[
                    255, 255, 255, 255, 15, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1,
                ],
            ),
        ];
        for (addr, bytes) in addrs {
            assert_eq!(encode_to_vec(&addr), bytes, "{addr}");
            round_trip(addr);
        }
        let timestamps: [(Timestamp, &[u8]); 7] = [
            (Timestamp::NEVER, &[0]),
            (Timestamp::created(1), &[2]),
            (Timestamp::destroyed(1), &[3]),
            (Timestamp::created(64), &[128, 1]),
            (Timestamp::destroyed(300), &[217, 4]),
            (
                Timestamp::created(max),
                &[254, 255, 255, 255, 255, 255, 255, 255, 255, 1],
            ),
            (
                Timestamp::destroyed(max),
                &[255, 255, 255, 255, 255, 255, 255, 255, 255, 1],
            ),
        ];
        for (ts, bytes) in timestamps {
            assert_eq!(encode_to_vec(&ts), bytes, "{ts:?}");
            round_trip(ts);
        }
        // A destruction at index zero is the one wire value no timestamp has.
        assert!(decode_from_slice::<Timestamp>(&[1]).is_err());
    }

    #[test]
    fn vectors_and_logs_round_trip() {
        let mut v = DependencyVector::new();
        v.set(VertexId::site_root(0), Timestamp::created(3));
        v.set(VertexId::object(4, 4), Timestamp::destroyed(9));
        round_trip(v.clone());

        let mut rooted = RootedVector::from_vector(v);
        rooted.stamp_root(VertexId::object(4, 4), 9, true);
        round_trip(rooted.clone());

        let mut log = DkLog::new(SiteId::new(1));
        log.row_mut(VertexId::object(1, 1)).assign(rooted.clone());
        log.row_mut(VertexId::object(3, 1)).assign(rooted);
        log.stamp_root(VertexId::object(2, 2), 5, false);
        log_round_trip(&log, SiteId::new(1));

        // Log-wide stamps are hashed: stamped in opposite orders, on sites
        // below and above the log's own, they encode to the same bytes.
        let stamps: Vec<(VertexId, u64)> = (0..64u64)
            .map(|i| (VertexId::object([0, 2, 3][(i % 3) as usize], i), i + 1))
            .chain([(VertexId::site_root(3), 1), (VertexId::site_root(0), 2)])
            .collect();
        let mut twins = [DkLog::new(SiteId::new(1)), DkLog::new(SiteId::new(1))];
        for &(vertex, as_of) in &stamps {
            twins[0].stamp_root(vertex, as_of, as_of % 2 == 0);
        }
        for &(vertex, as_of) in stamps.iter().rev() {
            twins[1].stamp_root(vertex, as_of, as_of % 2 == 0);
        }
        assert_eq!(encode_to_vec(&twins[0]), encode_to_vec(&twins[1]));
        log_round_trip(&twins[1], SiteId::new(1));
    }

    /// A log's encode → decode → encode, decoded into its site's layout.
    fn log_round_trip(log: &DkLog, site: SiteId) {
        let bytes = encode_to_vec(log);
        let mut r = Reader::new(&bytes);
        let decoded = decode_log(&mut r, site, u64::MAX).unwrap();
        assert!(r.is_empty());
        assert_eq!(&decoded, log);
        assert_eq!(encode_to_vec(&decoded), bytes, "re-encode is bit-identical");
    }

    #[test]
    fn messages_round_trip() {
        let mut payload = RootedVector::new();
        payload
            .vector
            .set(VertexId::object(0, 1), Timestamp::created(2));
        round_trip(CausalMessage {
            from: VertexId::object(0, 1),
            to: VertexId::object(1, 1),
            payload,
        });
        round_trip(RefListingMessage::AddEntry {
            target: GlobalAddr::new(1, 1),
            holder: SiteId::new(2),
        });
        round_trip(RefListingMessage::RemoveEntry {
            target: GlobalAddr::new(1, 1),
            holder: SiteId::new(2),
        });
        round_trip(TracingMessage::RoundPoll { round: 9 });
        round_trip(TracingMessage::Sweep {
            garbage: vec![GlobalAddr::new(1, 2), GlobalAddr::new(3, 4)],
        });
        round_trip(TracingMessage::Report {
            site: SiteId::new(1),
            epoch: 3,
            ack_round: Some(2),
            vertices: vec![(VertexId::site_root(1), true, vec![GlobalAddr::new(0, 1)])],
            transfers_sent: vec![((GlobalAddr::new(0, 1), GlobalAddr::new(1, 1)), 2)],
            transfers_received: vec![],
        });
    }

    /// Drives a site-3 engine through a seeded mix of local events (exports,
    /// receives, third-party sends, edge and rootedness changes,
    /// compactions) and control messages over sparse local ids (1, 2 and
    /// 1,000), vertices of sites below and above it, and its anchor.
    fn seeded_engine(seed: u64) -> ggd_causal::CausalEngine {
        use ggd_heap::{EdgeDelta, VertexEdgeDelta};
        let site = SiteId::new(3);
        let mut engine = ggd_causal::CausalEngine::new(site);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let local = [1u64, 2, 1_000];
        let remote = [
            GlobalAddr::new(1, 4),
            GlobalAddr::new(1, 9),
            GlobalAddr::new(7, 2),
            GlobalAddr::new(7, 5),
        ];
        for _ in 0..300 {
            let own = GlobalAddr::new(3, local[next(3) as usize]);
            let other = remote[next(4) as usize];
            match next(7) {
                0 => engine.on_export(own, VertexId::from(other)),
                1 => engine.on_receive_ref(own, other),
                2 => engine.on_third_party_send(other, VertexId::from(remote[next(4) as usize])),
                3 => {
                    let vertex = if next(2) == 0 {
                        engine.anchor()
                    } else {
                        VertexId::from(own)
                    };
                    let (created, destroyed) = if next(2) == 0 {
                        (vec![other], vec![])
                    } else {
                        (vec![], vec![other])
                    };
                    let mut delta = EdgeDelta::empty(site);
                    delta.edges.push(VertexEdgeDelta {
                        vertex,
                        created,
                        destroyed,
                    });
                    engine.apply_delta(&delta);
                }
                4 => {
                    let from = VertexId::from(other);
                    let index = next(5) + 1;
                    let news = if next(2) == 0 {
                        Timestamp::created(index)
                    } else {
                        Timestamp::destroyed(index)
                    };
                    engine.on_message(CausalMessage {
                        from,
                        to: VertexId::from(own),
                        payload: RootedVector::from_vector(DependencyVector::singleton(from, news)),
                    });
                }
                5 => {
                    let mut delta = EdgeDelta::empty(site);
                    delta.rootedness.push((own.object(), next(2) == 0));
                    engine.apply_delta(&delta);
                }
                _ => {
                    engine.compact_detected();
                }
            }
            engine.take_outgoing();
            engine.take_verdicts();
        }
        engine
    }

    #[test]
    fn engine_state_keeps_row_order_and_round_trips() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 1..=8 {
            let engine = seeded_engine(seed);
            let log = engine.log();
            let vertices: Vec<VertexId> = log.rows().map(|(vertex, _)| vertex).collect();
            assert!(
                vertices.windows(2).all(|pair| pair[0] < pair[1]),
                "seed {seed}: rows must be strictly ascending: {vertices:?}"
            );
            seen.extend(vertices);

            log_round_trip(log, engine.site());

            let checkpoint = engine.checkpoint();
            assert_eq!(
                ggd_causal::CausalEngine::restore(checkpoint.clone()).checkpoint(),
                checkpoint,
                "seed {seed}: restore(checkpoint) must checkpoint identically"
            );
            round_trip(checkpoint);
        }
        // The seeds cover every kind of row: the anchor, remote rows below
        // and above the site, and the dense local rows, sparse ids included.
        for vertex in [
            VertexId::site_root(3),
            VertexId::object(1, 4),
            VertexId::object(3, 1),
            VertexId::object(3, 1_000),
            VertexId::object(7, 2),
        ] {
            assert!(
                seen.contains(&vertex),
                "no seed produced a row for {vertex}"
            );
        }
    }

    #[test]
    fn remote_state_built_in_opposite_orders_encodes_identically() {
        // Receives and third-party sends that each name their own holder
        // and remote target commute. Taken in opposite orders, they fill
        // the engines' hashed remote state in opposite orders; edges to
        // every target, half of them dropped again, and a compaction
        // follow. The checkpoint bytes must not show the order.
        use ggd_heap::{EdgeDelta, VertexEdgeDelta};
        let site = SiteId::new(3);
        let events: Vec<(GlobalAddr, GlobalAddr)> = (0..200u64)
            .map(|i| {
                let target = GlobalAddr::new([1, 2, 5, 7][(i % 4) as usize], i / 4 + 1);
                (GlobalAddr::new(3, i + 1), target)
            })
            .collect();
        // Every `step`-th event's edge, created or destroyed.
        let edges = |step: usize, create: bool| {
            let mut delta = EdgeDelta::empty(site);
            for &(holder, target) in events.iter().step_by(step) {
                let (created, destroyed) = if create {
                    (vec![target], vec![])
                } else {
                    (vec![], vec![target])
                };
                delta.edges.push(VertexEdgeDelta {
                    vertex: VertexId::from(holder),
                    created,
                    destroyed,
                });
            }
            delta
        };
        let build = |order: Vec<&(GlobalAddr, GlobalAddr)>| {
            let mut engine = ggd_causal::CausalEngine::new(site);
            for &&(holder, target) in &order {
                engine.on_receive_ref(holder, target);
                engine.on_third_party_send(target, VertexId::object(9, 1));
            }
            engine.apply_delta(&edges(1, true));
            engine.apply_delta(&edges(2, false));
            engine.compact_detected();
            engine
        };
        let first = build(events.iter().collect());
        let second = build(events.iter().rev().collect());
        let bytes = encode_to_vec(&first.checkpoint());
        assert_eq!(bytes, encode_to_vec(&second.checkpoint()));
        assert_eq!(first.log().to_string(), second.log().to_string());
        assert_eq!(first.checkpoint().inbound_holders.len(), 100);
    }

    #[test]
    fn identities_the_site_never_allocated_fail_the_decode() {
        let site = SiteId::new(3);
        let empty = || EngineCheckpoint {
            site,
            counters: BTreeMap::new(),
            log: DkLog::new(site),
            last_closure: BTreeMap::new(),
            edges_out: BTreeMap::new(),
            locally_rooted: std::collections::BTreeSet::new(),
            inbound_holders: BTreeMap::new(),
            detected: std::collections::BTreeSet::new(),
            pending_verdicts: Vec::new(),
            outgoing: Vec::new(),
            stats: EngineStats::default(),
        };
        // The same image decodes below a bound past its highest identity.
        let mut fine = empty();
        fine.counters.insert(VertexId::object(3, 9), 1);
        fine.counters.insert(VertexId::object(4, u64::MAX), 1);
        let bytes = encode_to_vec(&fine);
        assert_eq!(decode_engine_checkpoint(&bytes, 10), Ok(fine.clone()));
        assert!(decode_engine_checkpoint(&bytes, 9).is_err());

        let huge = [u64::MAX, 1 << 40];
        for id in huge {
            let vertex = VertexId::object(3, id);
            let mut images = Vec::new();
            let mut image = empty();
            image.counters.insert(vertex, 1);
            images.push(encode_to_vec(&image));
            let mut image = empty();
            image.locally_rooted.insert(vertex);
            images.push(encode_to_vec(&image));
            let mut image = empty();
            image
                .inbound_holders
                .insert(GlobalAddr::new(1, 1), std::iter::once(vertex).collect());
            images.push(encode_to_vec(&image));
            let mut image = empty();
            image.detected.insert(GlobalAddr::new(3, id));
            images.push(encode_to_vec(&image));
            // A log row: spliced in by hand, since a log cannot hold it.
            let mut log_row = Vec::new();
            site.encode(&mut log_row);
            BTreeMap::<VertexId, u64>::new().encode(&mut log_row);
            write_varint(&mut log_row, 1);
            vertex.encode(&mut log_row);
            RootedVector::new().encode(&mut log_row);
            let tail = encode_to_vec(&empty());
            // The empty image is the site, an empty counter map, then an
            // empty log (no rows, no stamps) and the rest.
            let mut head = Vec::new();
            site.encode(&mut head);
            BTreeMap::<VertexId, u64>::new().encode(&mut head);
            write_varint(&mut head, 0);
            log_row.extend_from_slice(&tail[head.len()..]);
            images.push(log_row);

            for bytes in &images {
                assert!(
                    matches!(
                        decode_engine_checkpoint(bytes, 1_000),
                        Err(CodecError::Invalid(_))
                    ),
                    "object {id} must fail the decode"
                );
            }
            if id == u64::MAX {
                // No site allocates `u64::MAX`, even with no heap to ask.
                for bytes in &images {
                    assert!(decode_from_slice::<EngineCheckpoint>(bytes).is_err());
                }
            }
        }
    }

    #[test]
    fn heap_images_name_only_allocated_identities() {
        let image = |ids: &[u64]| HeapImage {
            site: SiteId::new(1),
            next_object: 5,
            stats: HeapStats::default(),
            local_roots: std::collections::BTreeSet::new(),
            global_roots: std::collections::BTreeSet::new(),
            objects: ids
                .iter()
                .map(|&id| (ObjectId::new(id), Vec::new()))
                .collect(),
        };
        round_trip(image(&[1, 4]));
        let bytes = encode_to_vec(&image(&[1, 4]));
        let heap: ggd_heap::SiteHeap = read_heap_image(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(heap, ggd_heap::SiteHeap::from_image(&image(&[1, 4])));
        // Out of range, repeated (which would put one identity in two
        // slots) and descending identities fail both sinks' read alike.
        for ids in [
            &[0u64][..],
            &[1, 5],
            &[1 << 40],
            &[2, 2],
            &[3, 2],
            &[1, 4, 4],
        ] {
            let bytes = encode_to_vec(&image(ids));
            assert!(
                matches!(
                    decode_from_slice::<HeapImage>(&bytes),
                    Err(CodecError::Invalid(_))
                ),
                "{ids:?} must fail the decode"
            );
            assert!(
                matches!(
                    read_heap_image::<ggd_heap::SiteHeap>(&mut Reader::new(&bytes)),
                    Err(CodecError::Invalid(_))
                ),
                "{ids:?} must fail the read into a heap"
            );
        }
    }

    #[test]
    fn engine_image_keys_out_of_order_or_repeated_fail_the_decode() {
        let site = SiteId::new(3);
        let (a, b) = (VertexId::object(3, 1), VertexId::object(3, 2));
        let (x, y) = (GlobalAddr::new(4, 1), GlobalAddr::new(4, 2));
        let empty = || <EngineCheckpoint as EngineImageSink>::begin(site);
        // An image with two keys in one map or set, and the bytes those
        // keys (with their values) are written as.
        let mut counters = empty();
        counters.counters.insert(a, 5);
        counters.counters.insert(b, 6);
        let mut edges = empty();
        edges.edges_out.insert(a, [x, y].into_iter().collect());
        let mut holders = empty();
        holders
            .inbound_holders
            .insert(x, [a, b].into_iter().collect());
        let mut detected = empty();
        detected.detected.insert(GlobalAddr::new(3, 1));
        detected.detected.insert(GlobalAddr::new(3, 2));
        let entry = |key: VertexId, value: u64| {
            let mut out = encode_to_vec(&key);
            value.encode(&mut out);
            out
        };
        let cases = [
            (counters, entry(a, 5), entry(b, 6)),
            (edges, encode_to_vec(&x), encode_to_vec(&y)),
            (holders, encode_to_vec(&a), encode_to_vec(&b)),
            (
                detected,
                encode_to_vec(&GlobalAddr::new(3, 1)),
                encode_to_vec(&GlobalAddr::new(3, 2)),
            ),
        ];
        for (image, first, second) in cases {
            let bytes = encode_to_vec(&image);
            assert_eq!(decode_engine_checkpoint(&bytes, 10), Ok(image.clone()));
            let pair = [first.clone(), second.clone()].concat();
            let at = bytes
                .windows(pair.len())
                .position(|window| window == pair.as_slice())
                .expect("the image holds both keys");
            for bad in [[&second[..], &first], [&first, &first]] {
                let mut spliced = bytes[..at].to_vec();
                spliced.extend(bad.concat());
                spliced.extend_from_slice(&bytes[at + pair.len()..]);
                assert!(matches!(
                    decode_engine_checkpoint(&spliced, 10),
                    Err(CodecError::Invalid(_))
                ));
                assert!(matches!(
                    read_engine_image::<ggd_causal::CausalEngine>(&spliced, 10),
                    Err(CodecError::Invalid(_))
                ));
            }
        }
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        assert!(matches!(
            decode_from_slice::<VertexId>(&[9, 0]),
            Err(CodecError::BadTag { .. })
        ));
        assert!(matches!(
            decode_from_slice::<ObjRef>(&[7, 0]),
            Err(CodecError::BadTag { .. })
        ));
    }
}
