//! Durable site storage for the ggd workspace: a versioned binary codec, a
//! checksummed write-ahead log and a checkpoint store.
//!
//! The paper's GGD algorithm tolerates an unreliable *network*; this crate
//! supplies the missing half of the fault model — unreliable *sites*. Every
//! state-changing input of a site runtime (mutator operations, incoming
//! reference transfers, incoming control messages, local collections) is
//! framed, checksummed and appended to a per-site WAL
//! ([`WalRecord`]/[`SiteStore::append`]); periodically the runtime installs
//! a checkpoint (heap image + encoded collector state,
//! [`CheckpointImage`]), truncating the log. After a crash,
//! `ggd-sim::SiteRuntime::recover` loads the checkpoint and replays the log
//! suffix through the ordinary (deterministic) runtime code paths,
//! reconstructing heap and causal engine bit-for-bit — the recovered
//! control-message stream is identical to the uncrashed run's, which
//! `ggd-explore`'s recovery-equivalence tests pin.
//!
//! # Layout
//!
//! * [`codec`] — the [`Encode`]/[`Decode`] traits and primitive encodings
//!   (the vendored serde stand-in has no serialization, see
//!   `vendor/README.md`);
//! * [`wire`] — encodings for every domain type on the wire or in the WAL;
//! * [`record`] — the WAL record vocabulary and its site-relative codec;
//! * [`wal`] — framing, checksums, torn-tail handling, format versioning;
//! * [`store`] — the per-site store over in-memory or on-disk backends.
//!
//! # Example
//!
//! ```
//! use ggd_store::{DurabilityConfig, SiteStore, WalRecord};
//! use ggd_types::{GlobalAddr, SiteId};
//!
//! let mut store: SiteStore<ggd_causal::CausalMessage> =
//!     SiteStore::open(SiteId::new(0), &DurabilityConfig::memory()).unwrap();
//! store.append(&WalRecord::Alloc { local_root: true });
//! store.append(&WalRecord::LinkLocal {
//!     from: GlobalAddr::new(0, 1),
//!     to: GlobalAddr::new(0, 2),
//! });
//! let (checkpoint, records) = store.load().unwrap();
//! assert!(checkpoint.is_none());
//! assert_eq!(records.len(), 2);
//! ```

pub mod codec;
pub mod membership;
pub mod record;
pub mod store;
pub mod wal;
pub mod wire;

pub use codec::{decode_from_slice, encode_to_vec, CodecError, Decode, Encode, Reader};
pub use membership::{HandoffRecord, MembershipAnnouncement, MembershipChange};
pub use record::WalRecord;
pub use store::{CheckpointImage, DurabilityConfig, DurabilityMode, SiteStore, StoreStats};
pub use wal::{StoreError, WalTail, FORMAT_VERSION};
