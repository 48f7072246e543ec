//! Event indices and log-keeping timestamps.
//!
//! Log-keeping events are numbered sequentially at each vertex of the global
//! root graph with a monotonically increasing counter (§3.1 of the paper).
//! An entry of a dependency vector is one of three things:
//!
//! * `0` — no log-keeping message has ever been received from the
//!   corresponding global root ([`Timestamp::NEVER`]);
//! * a plain index — the timestamp of the latest *edge-creation* event known
//!   from that root ([`Timestamp::created`]);
//! * `Ē` — the timestamp of the direct remote predecessor of an
//!   *edge-destruction* event, meaning the last log-keeping message received
//!   from that root announced that the edge no longer exists
//!   ([`Timestamp::destroyed`]).
//!
//! The paper's predicate `A(x)` — "the entry denotes the absence of a live
//! edge" — holds for `0` and `Ē`; it is exposed here as
//! [`Timestamp::is_absent`]. When vector-times are compared for reachability
//! purposes a destroyed entry is treated "as if no edge creation event had
//! ever been sent from this global root" (§3.2), which is what
//! [`Timestamp::live_index`] encodes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroU64;

use crate::TypeError;

/// A strictly positive, per-vertex log-keeping event sequence number.
///
/// Index `0` is reserved to mean "no event"; the first event of every vertex
/// has index `1`, matching the paper's `e_{i,1}` notation. A [`Timestamp`]
/// holds indices up to [`EventIndex::MAX`], the range of its wire form.
///
/// # Example
///
/// ```
/// use ggd_types::EventIndex;
/// let first = EventIndex::new(1).unwrap();
/// assert_eq!(first.get(), 1);
/// assert_eq!(first.next().get(), 2);
/// assert!(EventIndex::new(0).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventIndex(NonZeroU64);

impl EventIndex {
    /// The first event index assigned at any vertex.
    pub const FIRST: EventIndex = EventIndex(match NonZeroU64::new(1) {
        Some(n) => n,
        None => unreachable!(),
    });

    /// The largest index a [`Timestamp`] holds: 2^63 − 1, so that the index
    /// and the destruction bit share one `u64`.
    pub const MAX: u64 = u64::MAX >> 1;

    /// Creates an event index.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::ZeroEventIndex`] when `index` is zero.
    pub fn new(index: u64) -> crate::Result<Self> {
        NonZeroU64::new(index)
            .map(EventIndex)
            .ok_or(TypeError::ZeroEventIndex)
    }

    /// Returns the numeric value of the index.
    pub const fn get(self) -> u64 {
        self.0.get()
    }

    /// Returns the next index in the per-vertex sequence.
    ///
    /// # Panics
    ///
    /// Panics if the next index would exceed [`EventIndex::MAX`], which
    /// cannot happen in any realistic execution.
    pub fn next(self) -> Self {
        match self.0.checked_add(1) {
            Some(next) if next.get() <= Self::MAX => EventIndex(next),
            _ => panic!("event index overflow"),
        }
    }
}

impl fmt::Display for EventIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One entry of a dependency vector: what is known about the latest
/// log-keeping event of a given global root.
///
/// The ordering of timestamps follows the information lattice used by the
/// GGD algorithm: entries are compared by event index first (newer indices
/// supersede older ones), and at equal index a destruction marker supersedes
/// a creation, because `Ē` carries strictly more recent knowledge about the
/// same event counter ("the last message received from this root was an
/// edge-destruction message", §3.1).
///
/// A timestamp is one `u64`, its wire form: 0 for [`Timestamp::NEVER`],
/// `2n` for a creation at index `n` and `2n + 1` for a destruction. That
/// number orders exactly as the lattice does, so comparing or merging two
/// timestamps is one integer comparison. `Debug` prints the three-variant
/// form (`Never`, `Created(..)`, `Destroyed(..)`).
///
/// # Example
///
/// ```
/// use ggd_types::Timestamp;
/// let never = Timestamp::NEVER;
/// let created = Timestamp::created(3);
/// let destroyed = Timestamp::destroyed(3);
/// assert!(never < created);
/// assert!(created < destroyed);
/// assert!(destroyed < Timestamp::created(4));
/// assert!(never.is_absent() && destroyed.is_absent() && !created.is_absent());
/// assert_eq!(destroyed.wire(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Timestamp(u64);

impl Timestamp {
    /// No log-keeping message has ever been received from this root (the
    /// paper's `0`).
    pub const NEVER: Timestamp = Timestamp(0);

    /// The latest known log-keeping event of this root is `index`, with a
    /// live edge created towards the vector's owner.
    ///
    /// # Panics
    ///
    /// Panics when `index` is zero (use [`Timestamp::NEVER`] for "no
    /// event") or above [`EventIndex::MAX`].
    pub fn created(index: u64) -> Self {
        assert!(index != 0, "creation timestamp must be positive");
        assert!(index <= EventIndex::MAX, "creation timestamp out of range");
        Timestamp(index << 1)
    }

    /// The paper's `Ē`: the latest known log-keeping event index of this
    /// root is `index`, and the corresponding edge has since been destroyed.
    ///
    /// # Panics
    ///
    /// Panics when `index` is zero (use [`Timestamp::NEVER`] for "no
    /// event") or above [`EventIndex::MAX`].
    pub fn destroyed(index: u64) -> Self {
        assert!(index != 0, "destruction timestamp must be positive");
        assert!(
            index <= EventIndex::MAX,
            "destruction timestamp out of range"
        );
        Timestamp(index << 1 | 1)
    }

    /// The wire form: 0 for [`Timestamp::NEVER`], `2n` for a creation at
    /// index `n`, `2n + 1` for a destruction.
    pub const fn wire(self) -> u64 {
        self.0
    }

    /// The timestamp whose wire form is `wire`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::ZeroEventIndex`] for 1, a destruction at index
    /// zero.
    pub const fn from_wire(wire: u64) -> crate::Result<Self> {
        if wire == 1 {
            Err(TypeError::ZeroEventIndex)
        } else {
            Ok(Timestamp(wire))
        }
    }

    /// The paper's predicate `A(x)`: true when the entry denotes the absence
    /// of a live inbound edge — either no event was ever received (`0`) or
    /// the last news was an edge destruction (`Ē`).
    pub const fn is_absent(self) -> bool {
        !self.is_live()
    }

    /// True when the entry denotes a live edge-creation event.
    pub const fn is_live(self) -> bool {
        self.0 != 0 && self.0 & 1 == 0
    }

    /// True when the entry is an edge-destruction marker `Ē`.
    const fn is_destroyed(self) -> bool {
        self.0 & 1 == 1
    }

    /// The raw event index carried by this entry (`0` for [`Timestamp::NEVER`]).
    pub const fn index(self) -> u64 {
        self.0 >> 1
    }

    /// The event index counted as contributing a live path: destroyed and
    /// absent entries both report `0`, as mandated by §3.2 ("treated as if no
    /// edge creation event had ever been sent from this global root").
    pub const fn live_index(self) -> u64 {
        if self.is_destroyed() {
            0
        } else {
            self.index()
        }
    }

    /// Turns this entry into its destroyed counterpart, preserving the index.
    ///
    /// [`Timestamp::NEVER`] stays `NEVER` (there is nothing to destroy).
    pub const fn into_destroyed(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Timestamp(self.0 | 1)
        }
    }

    /// Merges two pieces of knowledge about the same root, keeping the most
    /// recent one (the lattice join used when merging dependency vectors).
    pub fn merged(self, other: Timestamp) -> Timestamp {
        self.max(other)
    }

    /// True when `self` carries strictly newer information than `other`.
    pub fn is_newer_than(self, other: Timestamp) -> bool {
        self > other
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(index) = NonZeroU64::new(self.index()).map(EventIndex) else {
            return f.write_str("Never");
        };
        let variant = if self.is_destroyed() {
            "Destroyed"
        } else {
            "Created"
        };
        f.debug_tuple(variant).field(&index).finish()
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.index(), self.is_destroyed()) {
            (0, _) => write!(f, "0"),
            (i, false) => write!(f, "{i}"),
            (i, true) => write!(f, "Ē{i}"),
        }
    }
}

impl From<EventIndex> for Timestamp {
    /// A creation at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is above [`EventIndex::MAX`].
    fn from(index: EventIndex) -> Self {
        Timestamp::created(index.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_index_basics() {
        assert_eq!(EventIndex::FIRST.get(), 1);
        assert_eq!(EventIndex::new(5).unwrap().get(), 5);
        assert_eq!(EventIndex::new(5).unwrap().next().get(), 6);
        assert_eq!(EventIndex::new(0).unwrap_err(), TypeError::ZeroEventIndex);
        assert_eq!(EventIndex::new(3).unwrap().to_string(), "3");
    }

    #[test]
    fn timestamp_predicates() {
        assert!(Timestamp::NEVER.is_absent());
        assert!(Timestamp::destroyed(4).is_absent());
        assert!(!Timestamp::created(4).is_absent());
        assert!(Timestamp::created(4).is_live());
        assert!(!Timestamp::destroyed(4).is_live());
        assert!(!Timestamp::NEVER.is_live());
    }

    #[test]
    fn timestamp_indices() {
        assert_eq!(Timestamp::NEVER.index(), 0);
        assert_eq!(Timestamp::created(7).index(), 7);
        assert_eq!(Timestamp::destroyed(7).index(), 7);
        assert_eq!(Timestamp::NEVER.live_index(), 0);
        assert_eq!(Timestamp::created(7).live_index(), 7);
        assert_eq!(Timestamp::destroyed(7).live_index(), 0);
    }

    #[test]
    fn timestamp_ordering_is_by_index_then_destruction() {
        assert!(Timestamp::NEVER < Timestamp::created(1));
        assert!(Timestamp::created(1) < Timestamp::destroyed(1));
        assert!(Timestamp::destroyed(1) < Timestamp::created(2));
        assert!(Timestamp::created(2) < Timestamp::destroyed(3));
    }

    #[test]
    fn merge_keeps_newest() {
        let a = Timestamp::created(2);
        let b = Timestamp::destroyed(2);
        assert_eq!(a.merged(b), b);
        assert_eq!(b.merged(a), b);
        assert_eq!(Timestamp::NEVER.merged(a), a);
        assert_eq!(a.merged(Timestamp::created(5)), Timestamp::created(5));
        assert!(b.is_newer_than(a));
        assert!(!a.is_newer_than(b));
    }

    #[test]
    fn into_destroyed_preserves_index() {
        assert_eq!(
            Timestamp::created(9).into_destroyed(),
            Timestamp::destroyed(9)
        );
        assert_eq!(
            Timestamp::destroyed(9).into_destroyed(),
            Timestamp::destroyed(9)
        );
        assert_eq!(Timestamp::NEVER.into_destroyed(), Timestamp::NEVER);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Timestamp::NEVER.to_string(), "0");
        assert_eq!(Timestamp::created(3).to_string(), "3");
        assert_eq!(Timestamp::destroyed(3).to_string(), "Ē3");
    }

    #[test]
    #[should_panic]
    fn created_zero_panics() {
        let _ = Timestamp::created(0);
    }

    #[test]
    fn indices_stop_at_the_wire_range() {
        let max = EventIndex::new(EventIndex::MAX).unwrap();
        assert_eq!(EventIndex::new(EventIndex::MAX - 1).unwrap().next(), max);
        assert_eq!(Timestamp::created(EventIndex::MAX).index(), EventIndex::MAX);
        assert_eq!(Timestamp::destroyed(EventIndex::MAX).wire(), u64::MAX);
        assert!(Timestamp::created(EventIndex::MAX) < Timestamp::destroyed(EventIndex::MAX));
        assert_eq!(Timestamp::from(max), Timestamp::created(EventIndex::MAX));
    }

    #[test]
    #[should_panic(expected = "creation timestamp out of range")]
    fn created_past_the_wire_range_panics() {
        let _ = Timestamp::created(EventIndex::MAX + 1);
    }

    #[test]
    #[should_panic(expected = "destruction timestamp out of range")]
    fn destroyed_past_the_wire_range_panics() {
        let _ = Timestamp::destroyed(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "event index overflow")]
    fn next_past_the_wire_range_panics() {
        let _ = EventIndex::new(EventIndex::MAX).unwrap().next();
    }

    #[test]
    #[should_panic(expected = "event index overflow")]
    fn next_of_the_largest_u64_panics() {
        let _ = EventIndex::new(u64::MAX).unwrap().next();
    }

    #[test]
    fn wire_form_round_trips_and_rejects_a_destroyed_zero() {
        for ts in [
            Timestamp::NEVER,
            Timestamp::created(1),
            Timestamp::destroyed(1),
            Timestamp::created(EventIndex::MAX),
            Timestamp::destroyed(EventIndex::MAX),
        ] {
            assert_eq!(Timestamp::from_wire(ts.wire()), Ok(ts));
        }
        assert_eq!(Timestamp::from_wire(1), Err(TypeError::ZeroEventIndex));
        assert_eq!(Timestamp::from_wire(2), Ok(Timestamp::created(1)));
        assert_eq!(Timestamp::from_wire(3), Ok(Timestamp::destroyed(1)));
    }

    #[test]
    fn debug_prints_the_variant_form() {
        assert_eq!(format!("{:?}", Timestamp::NEVER), "Never");
        assert_eq!(
            format!("{:?}", Timestamp::created(3)),
            "Created(EventIndex(3))"
        );
        assert_eq!(
            format!("{:?}", Timestamp::destroyed(4)),
            "Destroyed(EventIndex(4))"
        );
    }

    #[test]
    fn from_event_index_is_created() {
        let idx = EventIndex::new(2).unwrap();
        assert_eq!(Timestamp::from(idx), Timestamp::created(2));
    }
}
