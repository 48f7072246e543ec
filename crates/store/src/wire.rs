//! [`Encode`]/[`Decode`] implementations for every domain type that crosses
//! the wire or lands in the WAL: identifiers, timestamps, dependency
//! vectors, the causal log and message, both baseline message families, and
//! the heap/engine checkpoint images.
//!
//! The encodings mirror the in-memory invariants: dependency vectors decode
//! through [`DependencyVector::set`] (which maintains key order and drops
//! `Never`), the log decodes through `row_mut`/`stamp_root`, and enum tags
//! are stable — they are part of the durable format guarded by
//! [`crate::wal::FORMAT_VERSION`].

use std::collections::BTreeMap;

use ggd_baselines::{RefListingMessage, TracingMessage};
use ggd_causal::EngineStats;
use ggd_causal::{CausalMessage, DkLog, EngineCheckpoint, Outgoing, RootedVector};
use ggd_heap::{HeapImage, HeapStats, ObjRef};
use ggd_types::{
    write_varint, DependencyVector, EventIndex, GlobalAddr, ObjectId, SiteId, Timestamp, VertexId,
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
        match self {
            VertexId::SiteRoot(site) => {
                out.push(0);
                site.encode(out);
            }
            VertexId::Object(addr) => {
                out.push(1);
                addr.encode(out);
            }
        }
    }
}
impl Decode for VertexId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(VertexId::SiteRoot(SiteId::decode(r)?)),
            1 => Ok(VertexId::Object(GlobalAddr::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "VertexId",
                tag,
            }),
        }
    }
}

impl Encode for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        // One varint: 0 for Never, 2n for Created(n), 2n+1 for Destroyed(n).
        // Event indices are small in practice, so the common stamps cost a
        // single byte.
        let packed = match self {
            Timestamp::Never => 0,
            Timestamp::Created(n) => n.get() << 1,
            Timestamp::Destroyed(n) => (n.get() << 1) | 1,
        };
        write_varint(out, packed);
    }
}
impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let packed = r.varint()?;
        if packed == 0 {
            return Ok(Timestamp::Never);
        }
        let index =
            EventIndex::new(packed >> 1).map_err(|_| CodecError::Invalid("zero event index"))?;
        Ok(if packed & 1 == 0 {
            Timestamp::Created(index)
        } else {
            Timestamp::Destroyed(index)
        })
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

impl Encode for DependencyVector {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for (vertex, ts) in self.iter() {
            vertex.encode(out);
            ts.encode(out);
        }
    }
}
impl Decode for DependencyVector {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let mut v = DependencyVector::new();
        for _ in 0..n {
            let vertex = VertexId::decode(r)?;
            let ts = Timestamp::decode(r)?;
            if ts == Timestamp::Never {
                return Err(CodecError::Invalid("Never entry in dependency vector"));
            }
            v.set(vertex, ts);
        }
        Ok(v)
    }
}

impl Encode for RootedVector {
    fn encode(&self, out: &mut Vec<u8>) {
        self.vector.encode(out);
        self.root_flags.encode(out);
    }
}
impl Decode for RootedVector {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RootedVector {
            vector: DependencyVector::decode(r)?,
            root_flags: BTreeMap::decode(r)?,
        })
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
impl Decode for DkLog {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let rows = r.len()?;
        let mut log = DkLog::new();
        for _ in 0..rows {
            let vertex = VertexId::decode(r)?;
            *log.row_mut(vertex) = RootedVector::decode(r)?;
        }
        let flags: BTreeMap<VertexId, (u64, bool)> = BTreeMap::decode(r)?;
        for (vertex, (as_of, is_root)) in flags {
            log.stamp_root(vertex, as_of, is_root);
        }
        Ok(log)
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

impl Encode for HeapImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.site.encode(out);
        self.next_object.encode(out);
        self.stats.encode(out);
        self.local_roots.encode(out);
        self.global_roots.encode(out);
        self.objects.encode(out);
        self.generation.encode(out);
    }
}
impl Decode for HeapImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(HeapImage {
            site: SiteId::decode(r)?,
            next_object: u64::decode(r)?,
            stats: HeapStats::decode(r)?,
            local_roots: std::collections::BTreeSet::decode(r)?,
            global_roots: std::collections::BTreeSet::decode(r)?,
            objects: Vec::decode(r)?,
            generation: u32::decode(r)?,
        })
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

impl Encode for EngineCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.site.encode(out);
        self.counters.encode(out);
        self.log.encode(out);
        self.last_closure.encode(out);
        self.edges_out.encode(out);
        self.locally_rooted.encode(out);
        self.inbound_holders.encode(out);
        self.static_roots.encode(out);
        self.detected.encode(out);
        self.pending_verdicts.encode(out);
        self.outgoing.encode(out);
        self.stats.encode(out);
    }
}
impl Decode for EngineCheckpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EngineCheckpoint {
            site: SiteId::decode(r)?,
            counters: BTreeMap::decode(r)?,
            log: DkLog::decode(r)?,
            last_closure: BTreeMap::decode(r)?,
            edges_out: BTreeMap::decode(r)?,
            locally_rooted: std::collections::BTreeSet::decode(r)?,
            inbound_holders: BTreeMap::decode(r)?,
            static_roots: std::collections::BTreeSet::decode(r)?,
            detected: std::collections::BTreeSet::decode(r)?,
            pending_verdicts: Vec::decode(r)?,
            outgoing: Vec::decode(r)?,
            stats: EngineStats::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};

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
        round_trip(Timestamp::Never);
        round_trip(Timestamp::created(1));
        round_trip(Timestamp::destroyed(1));
        round_trip(Timestamp::created(1 << 40));
        round_trip(Timestamp::destroyed(u64::MAX >> 1));
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

        let mut log = DkLog::new();
        *log.row_mut(VertexId::object(1, 1)) = rooted;
        log.stamp_root(VertexId::object(2, 2), 5, false);
        round_trip(log);
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
