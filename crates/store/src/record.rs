//! WAL record types: one entry per state-changing event of a site runtime.
//!
//! A site's durable log is the sequence of *inputs* its runtime consumed —
//! mutator operations, incoming reference transfers, incoming control
//! messages and local collections. Replaying them through the identical
//! (deterministic) runtime code paths reconstructs heap and collector state
//! bit-for-bit; the control messages regenerated during replay equal the
//! ones originally sent, which is the recovery-equivalence property the
//! `ggd-explore` tests pin.
//!
//! A record is encoded relative to the site whose log holds it
//! ([`WalRecord::encode_at`] / [`WalRecord::decode_at`]): an address on that
//! site is written as its object alone, so the common record — a local
//! mutation — costs a tag byte and its object ids.

use ggd_types::{GlobalAddr, ObjectId, SiteId};

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

// A record is a tag byte and its fields. The tag's low four bits are the
// kind; the two flag bits above them mark which address fields live on the
// log's own site (written as their `ObjectId` alone) and carry `Alloc`'s
// `local_root`. Every other address is written whole, so a record naming
// any site round-trips; a whole address of the log's own site is refused,
// which keeps one encoding per record.

/// The record kind: the tag's low four bits.
const KIND: u8 = 0x0f;
/// Tag flag: the first address field is local (on `Alloc`: `local_root`).
const FIRST: u8 = 0x10;
/// Tag flag: the second address field is local.
const SECOND: u8 = 0x20;

const ALLOC: u8 = 0;
const LINK_LOCAL: u8 = 1;
const UNLINK: u8 = 2;
const CLEAR_REFS: u8 = 3;
const DROP_LOCAL_ROOT: u8 = 4;
const EXPORT: u8 = 5;
const RECEIVE_REF: u8 = 6;
const CONTROL: u8 = 7;
const COLLECT: u8 = 8;
const MEMBERSHIP: u8 = 9;
const HANDOFF: u8 = 10;

/// Writes `addr` as the WAL of `site` names it — its object alone when it
/// lives on `site`, whole otherwise — and returns `flag` for a local one,
/// else 0.
fn put_addr(out: &mut Vec<u8>, site: SiteId, addr: GlobalAddr, flag: u8) -> u8 {
    if addr.site() == site {
        addr.object().encode(out);
        flag
    } else {
        addr.encode(out);
        0
    }
}

/// Reads an address [`put_addr`] wrote: an object of `site` when `local`,
/// a whole address of another site otherwise.
fn get_addr(r: &mut Reader<'_>, site: SiteId, local: bool) -> Result<GlobalAddr, CodecError> {
    if local {
        return Ok(GlobalAddr::from_parts(site, ObjectId::decode(r)?));
    }
    let addr = GlobalAddr::decode(r)?;
    if addr.site() == site {
        return Err(CodecError::Invalid("whole address of the log's own site"));
    }
    Ok(addr)
}

impl<M: Encode> WalRecord<M> {
    /// Appends the record as the WAL of `site` stores it: addresses on
    /// `site` are written as their object alone.
    pub fn encode_at(&self, site: SiteId, out: &mut Vec<u8>) {
        let at = out.len();
        out.push(0);
        let tag = match self {
            WalRecord::Alloc { local_root } => ALLOC | if *local_root { FIRST } else { 0 },
            WalRecord::LinkLocal { from, to } => {
                LINK_LOCAL | put_addr(out, site, *from, FIRST) | put_addr(out, site, *to, SECOND)
            }
            WalRecord::Unlink { from, to } => {
                UNLINK | put_addr(out, site, *from, FIRST) | put_addr(out, site, *to, SECOND)
            }
            WalRecord::ClearRefs { addr } => CLEAR_REFS | put_addr(out, site, *addr, FIRST),
            WalRecord::DropLocalRoot { addr } => {
                DROP_LOCAL_ROOT | put_addr(out, site, *addr, FIRST)
            }
            WalRecord::Export { target, recipient } => {
                EXPORT
                    | put_addr(out, site, *target, FIRST)
                    | put_addr(out, site, *recipient, SECOND)
            }
            WalRecord::ReceiveRef {
                from,
                recipient,
                target,
            } => {
                from.encode(out);
                RECEIVE_REF
                    | put_addr(out, site, *recipient, FIRST)
                    | put_addr(out, site, *target, SECOND)
            }
            WalRecord::Control { from, msg } => {
                from.encode(out);
                msg.encode(out);
                CONTROL
            }
            WalRecord::Collect => COLLECT,
            WalRecord::Membership { ann } => {
                ann.encode(out);
                MEMBERSHIP
            }
            WalRecord::Handoff { record } => {
                record.encode(out);
                HANDOFF
            }
        };
        out[at] = tag;
    }
}

/// Writes a [`WalRecord::Control`] record from borrowed parts: the bytes of
/// `WalRecord::Control { from, msg }` in any site's WAL, without owning the
/// message.
pub(crate) fn encode_control<M: Encode>(out: &mut Vec<u8>, from: SiteId, msg: &M) {
    out.push(CONTROL);
    from.encode(out);
    msg.encode(out);
}

impl<M: Decode> WalRecord<M> {
    /// Reads one record from the whole of `bytes`, as the WAL of `site`
    /// stores it ([`WalRecord::encode_at`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the bytes are not a record's encoding
    /// in that WAL, or when bytes follow it.
    pub fn decode_at(site: SiteId, bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let record = Self::read_at(site, &mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Invalid("trailing bytes after value"));
        }
        Ok(record)
    }

    fn read_at(site: SiteId, r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        let kind = tag & KIND;
        let flags = match kind {
            ALLOC | CLEAR_REFS | DROP_LOCAL_ROOT => FIRST,
            LINK_LOCAL | UNLINK | EXPORT | RECEIVE_REF => FIRST | SECOND,
            _ => 0,
        };
        if tag & !KIND & !flags != 0 {
            return Err(CodecError::BadTag {
                what: "WalRecord",
                tag,
            });
        }
        let (first, second) = (tag & FIRST != 0, tag & SECOND != 0);
        match kind {
            ALLOC => Ok(WalRecord::Alloc { local_root: first }),
            LINK_LOCAL => Ok(WalRecord::LinkLocal {
                from: get_addr(r, site, first)?,
                to: get_addr(r, site, second)?,
            }),
            UNLINK => Ok(WalRecord::Unlink {
                from: get_addr(r, site, first)?,
                to: get_addr(r, site, second)?,
            }),
            CLEAR_REFS => Ok(WalRecord::ClearRefs {
                addr: get_addr(r, site, first)?,
            }),
            DROP_LOCAL_ROOT => Ok(WalRecord::DropLocalRoot {
                addr: get_addr(r, site, first)?,
            }),
            EXPORT => Ok(WalRecord::Export {
                target: get_addr(r, site, first)?,
                recipient: get_addr(r, site, second)?,
            }),
            RECEIVE_REF => Ok(WalRecord::ReceiveRef {
                from: SiteId::decode(r)?,
                recipient: get_addr(r, site, first)?,
                target: get_addr(r, site, second)?,
            }),
            CONTROL => Ok(WalRecord::Control {
                from: SiteId::decode(r)?,
                msg: M::decode(r)?,
            }),
            COLLECT => Ok(WalRecord::Collect),
            MEMBERSHIP => Ok(WalRecord::Membership {
                ann: MembershipAnnouncement::decode(r)?,
            }),
            HANDOFF => Ok(WalRecord::Handoff {
                record: HandoffRecord::decode(r)?,
            }),
            _ => Err(CodecError::BadTag {
                what: "WalRecord",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITE: SiteId = SiteId::new(0);

    fn encode(record: &WalRecord<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        record.encode_at(SITE, &mut out);
        out
    }

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
        // In the WAL of site 0, where most addresses are local, and of
        // sites where none or other ones are.
        for site in [0, 1, 2, 300, u32::MAX].map(SiteId::new) {
            for record in &records {
                let mut bytes = Vec::new();
                record.encode_at(site, &mut bytes);
                let back = WalRecord::<u64>::decode_at(site, &bytes).unwrap();
                assert_eq!(&back, record, "{site}");
                let mut again = Vec::new();
                back.encode_at(site, &mut again);
                assert_eq!(again, bytes, "{site}");
            }
        }
    }

    #[test]
    fn local_addresses_cost_their_object_alone() {
        assert_eq!(encode(&WalRecord::Alloc { local_root: false }), [ALLOC]);
        assert_eq!(
            encode(&WalRecord::Alloc { local_root: true }),
            [ALLOC | FIRST]
        );
        let link = WalRecord::LinkLocal {
            from: GlobalAddr::new(0, 5),
            to: GlobalAddr::new(0, 127),
        };
        assert_eq!(encode(&link), [LINK_LOCAL | FIRST | SECOND, 5, 127]);
        // A remote address is written whole: site, then object.
        let unlink = WalRecord::Unlink {
            from: GlobalAddr::new(0, 5),
            to: GlobalAddr::new(200, 9),
        };
        assert_eq!(encode(&unlink), [UNLINK | FIRST, 5, 0xc8, 0x01, 9]);
    }

    #[test]
    fn a_whole_address_of_the_logs_own_site_is_refused() {
        // `LinkLocal` with an explicit `to` naming site 0, in site 0's WAL.
        let bytes = [LINK_LOCAL | FIRST, 5, 0, 7];
        assert_eq!(
            WalRecord::<u64>::decode_at(SITE, &bytes),
            Err(CodecError::Invalid("whole address of the log's own site"))
        );
        // The same bytes are a remote address in any other site's WAL.
        assert!(WalRecord::<u64>::decode_at(SiteId::new(1), &bytes).is_ok());
    }

    #[test]
    fn flags_a_kind_does_not_carry_are_bad_tags() {
        for tag in [
            COLLECT | FIRST,
            CONTROL | SECOND,
            ALLOC | SECOND,
            CLEAR_REFS | SECOND,
            LINK_LOCAL | 0x40,
            0x80,
            11,
            KIND,
        ] {
            assert_eq!(
                WalRecord::<u64>::decode_at(SITE, &[tag]).err(),
                Some(CodecError::BadTag {
                    what: "WalRecord",
                    tag
                }),
                "{tag:#x}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        assert!(matches!(
            WalRecord::<u64>::decode_at(SITE, &[COLLECT, 0]),
            Err(CodecError::Invalid(_))
        ));
    }
}
