//! WAL record types: one entry per state-changing event of a site runtime.
//!
//! A site's durable log is the sequence of *inputs* its runtime consumed —
//! mutator operations, incoming reference transfers, incoming control
//! messages and local collections. Replaying them through the identical
//! (deterministic) runtime code paths reconstructs heap and collector state
//! bit-for-bit; the control messages regenerated during replay equal the
//! ones originally sent, which is the recovery-equivalence property the
//! `ggd-explore` tests pin.

use ggd_types::{GlobalAddr, SiteId};

use crate::codec::{CodecError, Decode, Encode, Reader};
use crate::membership::{HandoffRecord, MembershipAnnouncement};

/// One durable event of a site runtime, generic over the collector's
/// control-message type `M`.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<M> {
    /// The site allocated an object (the id is reassigned deterministically
    /// on replay from the checkpointed allocation counter).
    Alloc {
        /// Whether the object was designated a local root.
        local_root: bool,
    },
    /// A local reference `from → to` was added.
    LinkLocal {
        /// Referring object.
        from: GlobalAddr,
        /// Referred-to object.
        to: GlobalAddr,
    },
    /// One reference `from → to` was removed.
    Unlink {
        /// Referring object.
        from: GlobalAddr,
        /// Referred-to object.
        to: GlobalAddr,
    },
    /// Every reference held by `addr` was dropped.
    ClearRefs {
        /// The cleared object.
        addr: GlobalAddr,
    },
    /// `addr` was removed from the designated local roots.
    DropLocalRoot {
        /// The un-rooted object.
        addr: GlobalAddr,
    },
    /// The site exported a reference to `target` towards `recipient`
    /// (the sending half of a reference transfer).
    Export {
        /// Object whose reference was sent.
        target: GlobalAddr,
        /// Object that will receive it.
        recipient: GlobalAddr,
    },
    /// The site received (and stored) a reference transfer.
    ReceiveRef {
        /// Site the transfer came from.
        from: SiteId,
        /// Receiving object.
        recipient: GlobalAddr,
        /// Object whose reference arrived.
        target: GlobalAddr,
    },
    /// An incoming collector control message.
    Control {
        /// Sending site.
        from: SiteId,
        /// The message.
        msg: M,
    },
    /// A local mark-sweep collection ran.
    Collect,
    /// A membership announcement was applied: the fleet gained or lost a
    /// site. For a joining site this is typically its very first record.
    Membership {
        /// The epoch-stamped announcement.
        ann: MembershipAnnouncement,
    },
    /// This site severed its references towards a departing site as part of
    /// a planned leave (the drops are recorded explicitly so replay applies
    /// the same severing regardless of surrounding heap state).
    Handoff {
        /// The severed `(holder, target)` edges.
        record: HandoffRecord,
    },
}

impl<M: Encode> Encode for WalRecord<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Alloc { local_root } => {
                out.push(0);
                local_root.encode(out);
            }
            WalRecord::LinkLocal { from, to } => {
                out.push(1);
                from.encode(out);
                to.encode(out);
            }
            WalRecord::Unlink { from, to } => {
                out.push(2);
                from.encode(out);
                to.encode(out);
            }
            WalRecord::ClearRefs { addr } => {
                out.push(3);
                addr.encode(out);
            }
            WalRecord::DropLocalRoot { addr } => {
                out.push(4);
                addr.encode(out);
            }
            WalRecord::Export { target, recipient } => {
                out.push(5);
                target.encode(out);
                recipient.encode(out);
            }
            WalRecord::ReceiveRef {
                from,
                recipient,
                target,
            } => {
                out.push(6);
                from.encode(out);
                recipient.encode(out);
                target.encode(out);
            }
            WalRecord::Control { from, msg } => encode_control(out, *from, msg),
            WalRecord::Collect => out.push(8),
            WalRecord::Membership { ann } => {
                out.push(9);
                ann.encode(out);
            }
            WalRecord::Handoff { record } => {
                out.push(10);
                record.encode(out);
            }
        }
    }
}

/// Writes a [`WalRecord::Control`] record from borrowed parts: the bytes of
/// `WalRecord::Control { from, msg }`, without owning the message.
pub(crate) fn encode_control<M: Encode>(out: &mut Vec<u8>, from: SiteId, msg: &M) {
    out.push(7);
    from.encode(out);
    msg.encode(out);
}

impl<M: Decode> Decode for WalRecord<M> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(WalRecord::Alloc {
                local_root: bool::decode(r)?,
            }),
            1 => Ok(WalRecord::LinkLocal {
                from: GlobalAddr::decode(r)?,
                to: GlobalAddr::decode(r)?,
            }),
            2 => Ok(WalRecord::Unlink {
                from: GlobalAddr::decode(r)?,
                to: GlobalAddr::decode(r)?,
            }),
            3 => Ok(WalRecord::ClearRefs {
                addr: GlobalAddr::decode(r)?,
            }),
            4 => Ok(WalRecord::DropLocalRoot {
                addr: GlobalAddr::decode(r)?,
            }),
            5 => Ok(WalRecord::Export {
                target: GlobalAddr::decode(r)?,
                recipient: GlobalAddr::decode(r)?,
            }),
            6 => Ok(WalRecord::ReceiveRef {
                from: SiteId::decode(r)?,
                recipient: GlobalAddr::decode(r)?,
                target: GlobalAddr::decode(r)?,
            }),
            7 => Ok(WalRecord::Control {
                from: SiteId::decode(r)?,
                msg: M::decode(r)?,
            }),
            8 => Ok(WalRecord::Collect),
            9 => Ok(WalRecord::Membership {
                ann: MembershipAnnouncement::decode(r)?,
            }),
            10 => Ok(WalRecord::Handoff {
                record: HandoffRecord::decode(r)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "WalRecord",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};

    #[test]
    fn every_record_kind_round_trips() {
        let records: Vec<WalRecord<u64>> = vec![
            WalRecord::Alloc { local_root: true },
            WalRecord::Alloc { local_root: false },
            WalRecord::LinkLocal {
                from: GlobalAddr::new(0, 1),
                to: GlobalAddr::new(0, 2),
            },
            WalRecord::Unlink {
                from: GlobalAddr::new(0, 1),
                to: GlobalAddr::new(1, 2),
            },
            WalRecord::ClearRefs {
                addr: GlobalAddr::new(0, 3),
            },
            WalRecord::DropLocalRoot {
                addr: GlobalAddr::new(0, 4),
            },
            WalRecord::Export {
                target: GlobalAddr::new(0, 5),
                recipient: GlobalAddr::new(2, 1),
            },
            WalRecord::ReceiveRef {
                from: SiteId::new(2),
                recipient: GlobalAddr::new(0, 5),
                target: GlobalAddr::new(2, 9),
            },
            WalRecord::Control {
                from: SiteId::new(1),
                msg: 77,
            },
            WalRecord::Collect,
            WalRecord::Membership {
                ann: crate::membership::MembershipAnnouncement {
                    epoch: 3,
                    kind: crate::membership::MembershipChange::Join,
                    site: SiteId::new(4),
                },
            },
            WalRecord::Handoff {
                record: crate::membership::HandoffRecord {
                    departing: SiteId::new(2),
                    epoch: 5,
                    drops: vec![(GlobalAddr::new(0, 1), GlobalAddr::new(2, 3))],
                },
            },
        ];
        for record in records {
            let bytes = encode_to_vec(&record);
            let back: WalRecord<u64> = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, record);
            assert_eq!(encode_to_vec(&back), bytes);
        }
    }
}
