//! Core identifier, timestamp and dependency-vector types shared by every
//! crate of the causal GGD (Global Garbage Detection) workspace.
//!
//! This crate reproduces the data model of Louboutin & Cahill,
//! *Comprehensive Distributed Garbage Collection by Tracking Causal
//! Dependencies of Relevant Mutator Events* (ICDCS 1997):
//!
//! * [`SiteId`], [`ObjectId`] and [`GlobalAddr`] identify objects scattered
//!   over a partitioned address space (§2 of the paper);
//! * [`EventIndex`] and [`Timestamp`] model the per-vertex, monotonically
//!   increasing numbering of *log-keeping events* (§3.1), including the
//!   paper's `Ē` destruction marker;
//! * [`DependencyVector`] is the sparse direct-dependency / vector-time
//!   representation used by the lazy log-keeping mechanism and by the GGD
//!   engine (§3.2–§3.3), together with the Schwarz & Mattern partial order,
//!   in two footprints: three entries inline, or one ([`CompactVector`]);
//! * [`IdMap`] (and its set, [`IdSet`]) is the one hashed map of the
//!   workspace, with a fixed, deterministic multiply-rotate hasher,
//!   [`IdHasher`];
//! * [`CausalOrder`] classifies two vectors as causally related, equal or
//!   concurrent;
//! * [`write_varint`] / [`read_varint`] are the LEB128 integer encoding the
//!   durable codec and the wire frames share.
//!
//! # Example
//!
//! ```
//! use ggd_types::{DependencyVector, Timestamp, VertexId};
//!
//! let a = VertexId::object(1, 1);
//! let b = VertexId::object(2, 1);
//!
//! let mut earlier = DependencyVector::new();
//! earlier.set(a, Timestamp::created(1));
//!
//! let mut later = earlier.clone();
//! later.set(b, Timestamp::created(1));
//!
//! assert!(earlier.causally_precedes(&later));
//! assert!(!later.causally_precedes(&earlier));
//! ```

mod ids;
mod timestamp;
mod varint;
mod vector;

pub use ids::{GlobalAddr, IdHasher, IdMap, IdSet, ObjectId, SiteId, VertexId};
pub use timestamp::{EventIndex, Timestamp};
pub use varint::{read_varint, write_varint, VarintError};
pub use vector::{CausalOrder, CompactVector, DependencyVector, VectorEntries};

/// Convenience result alias used by fallible constructors in this crate.
pub type Result<T> = std::result::Result<T, TypeError>;

/// Errors raised by the type layer.
///
/// These are deliberately few: most invariants are enforced statically by
/// the new-types in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TypeError {
    /// An event index of zero was supplied where a strictly positive index
    /// is required (indices start at 1; zero is reserved for "never").
    ZeroEventIndex,
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::ZeroEventIndex => write!(f, "event index must be strictly positive"),
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        assert!(!TypeError::ZeroEventIndex.to_string().is_empty());
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SiteId>();
        assert_send_sync::<ObjectId>();
        assert_send_sync::<GlobalAddr>();
        assert_send_sync::<Timestamp>();
        assert_send_sync::<DependencyVector>();
        assert_send_sync::<TypeError>();
    }
}
