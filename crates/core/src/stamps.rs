//! Root-status stamps: for each vertex, the freshest known answer to "was
//! it an actual root as of its own event index `as_of`?".
//!
//! A stamp map is tiny — a payload carries at most one stamp per entry of
//! its vector, and a log row almost never holds any — and is read and
//! merged on every control message, so it is a vector sorted by vertex
//! rather than an ordered map: a lookup is one binary search, a merge of
//! ascending stamps appends, and a map of at most one stamp allocates
//! nothing. Iteration is in ascending vertex order, exactly as an ordered
//! map would give, so the codec writes it the same.
//!
//! The stamps come in two footprints. A payload's, [`RootStamps`], holds
//! one stamp inline (32 bytes). A log row's, [`RowStamps`], is one word
//! while empty and boxes a [`RootStamps`] with its first stamp: 99.9% of
//! the rows of a churning log hold none.

use serde::{Deserialize, Serialize};

use ggd_types::VertexId;

/// One stamp: the vertex, the event index it holds as of, and whether the
/// vertex was an actual root then.
pub type Stamp = (VertexId, (u64, bool));

/// Root-status stamps sorted by vertex, at most one per vertex.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<Stamp>", into = "Vec<Stamp>")]
pub struct RootStamps {
    entries: Entries,
}

/// The stamps, strictly ascending by vertex: one held inline — most rows
/// and payloads hold none or one — and more in a `Vec`, which keeps its
/// allocation once spilled, also when emptied.
#[derive(Debug, Clone)]
enum Entries {
    Inline(Option<Stamp>),
    Spilled(Vec<Stamp>),
}

impl Default for Entries {
    fn default() -> Self {
        Entries::Inline(None)
    }
}

impl PartialEq for RootStamps {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RootStamps {}

impl From<Vec<Stamp>> for RootStamps {
    fn from(entries: Vec<Stamp>) -> Self {
        let mut stamps = RootStamps::new();
        for (vertex, (as_of, is_root)) in entries {
            stamps.stamp(vertex, as_of, is_root);
        }
        stamps
    }
}

impl From<RootStamps> for Vec<Stamp> {
    fn from(stamps: RootStamps) -> Self {
        stamps.as_slice().to_vec()
    }
}

impl RootStamps {
    /// Creates an empty stamp map; allocates nothing.
    pub const fn new() -> Self {
        RootStamps {
            entries: Entries::Inline(None),
        }
    }

    /// Builds a stamp map from `entries`, which must be strictly ascending
    /// by vertex; `None` otherwise. Keeps the `Vec`'s allocation when it
    /// holds more than one stamp.
    pub fn from_sorted(mut entries: Vec<Stamp>) -> Option<Self> {
        if !entries.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            return None;
        }
        let entries = if entries.len() > 1 {
            Entries::Spilled(entries)
        } else {
            Entries::Inline(entries.pop())
        };
        Some(RootStamps { entries })
    }

    /// Every stamp, in ascending vertex order.
    pub fn as_slice(&self) -> &[Stamp] {
        match &self.entries {
            Entries::Inline(one) => one.as_slice(),
            Entries::Spilled(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Stamp] {
        match &mut self.entries {
            Entries::Inline(one) => one.as_mut_slice(),
            Entries::Spilled(v) => v,
        }
    }

    /// The stamp held for `vertex`, if any.
    pub fn get(&self, vertex: VertexId) -> Option<(u64, bool)> {
        self.find(vertex).ok().map(|i| self.as_slice()[i].1)
    }

    /// Records a stamp unless an equally fresh or fresher one is already
    /// there. Returns whether it was recorded.
    pub fn stamp(&mut self, vertex: VertexId, as_of: u64, is_root: bool) -> bool {
        let stamp = (vertex, (as_of, is_root));
        match self.find(vertex) {
            Ok(i) if self.as_slice()[i].1 .0 >= as_of => return false,
            Ok(i) => self.as_mut_slice()[i] = stamp,
            Err(i) => match &mut self.entries {
                Entries::Inline(None) => self.entries = Entries::Inline(Some(stamp)),
                Entries::Inline(Some(held)) => {
                    let mut spilled = Vec::with_capacity(4);
                    spilled.push(*held);
                    spilled.insert(i, stamp);
                    self.entries = Entries::Spilled(spilled);
                }
                Entries::Spilled(v) => v.insert(i, stamp),
            },
        }
        true
    }

    /// Stamps every entry of `incoming`, freshest stamp winning. Returns
    /// whether anything was recorded.
    pub fn absorb(&mut self, incoming: &[Stamp]) -> bool {
        incoming
            .iter()
            .fold(false, |changed, &(vertex, (as_of, is_root))| {
                self.stamp(vertex, as_of, is_root) | changed
            })
    }

    /// Keeps only the stamps whose vertex `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(VertexId) -> bool) {
        match &mut self.entries {
            Entries::Inline(one) => {
                if one.is_some_and(|(vertex, _)| !keep(vertex)) {
                    *one = None;
                }
            }
            Entries::Spilled(v) => v.retain(|&(vertex, _)| keep(vertex)),
        }
    }

    /// Drops every stamp, keeping the allocation.
    pub fn clear(&mut self) {
        match &mut self.entries {
            Entries::Inline(one) => *one = None,
            Entries::Spilled(v) => v.clear(),
        }
    }

    /// Every stamp, in ascending vertex order.
    pub fn iter(&self) -> std::slice::Iter<'_, Stamp> {
        self.as_slice().iter()
    }

    /// Every stamped vertex, in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.iter().map(|&(vertex, _)| vertex)
    }

    /// Number of stamps held.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when no stamp is held.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn find(&self, vertex: VertexId) -> Result<usize, usize> {
        self.as_slice().binary_search_by_key(&vertex, |&(v, _)| v)
    }
}

/// A log row's root stamps: one word while there are none, a boxed
/// [`RootStamps`] from the first stamp until the last is dropped.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowStamps(Option<Box<RootStamps>>);

impl RowStamps {
    /// Every stamp, in ascending vertex order.
    pub(crate) fn as_slice(&self) -> &[Stamp] {
        self.0.as_deref().map_or(&[], RootStamps::as_slice)
    }

    /// As [`RootStamps::stamp`].
    pub(crate) fn stamp(&mut self, vertex: VertexId, as_of: u64, is_root: bool) -> bool {
        self.0
            .get_or_insert_with(Box::default)
            .stamp(vertex, as_of, is_root)
    }

    /// As [`RootStamps::absorb`]; allocates nothing when `incoming` is
    /// empty.
    pub(crate) fn absorb(&mut self, incoming: &[Stamp]) -> bool {
        !incoming.is_empty() && self.0.get_or_insert_with(Box::default).absorb(incoming)
    }

    /// As [`RootStamps::retain`]; frees the box once no stamp is left.
    pub(crate) fn retain(&mut self, keep: impl FnMut(VertexId) -> bool) {
        if let Some(stamps) = &mut self.0 {
            stamps.retain(keep);
            if stamps.is_empty() {
                self.0 = None;
            }
        }
    }
}

impl From<RootStamps> for RowStamps {
    fn from(stamps: RootStamps) -> Self {
        RowStamps((!stamps.is_empty()).then(|| Box::new(stamps)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn follows_an_ordered_map_through_seeded_stamps() {
        // Seeded stamps, absorbs and retains, each mirrored in the ordered
        // map the stamps used to be kept in and in a row's boxed stamps.
        let mut state = 0x57a3_95ee_d0c5_a11fu64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let stamp_model =
            |model: &mut BTreeMap<VertexId, (u64, bool)>, v, as_of, r| match model.get(&v) {
                Some(&(existing, _)) if existing >= as_of => false,
                _ => {
                    model.insert(v, (as_of, r));
                    true
                }
            };
        let mut stamps = RootStamps::new();
        let mut row = RowStamps::default();
        let mut model = BTreeMap::new();
        for step in 0..4_000u64 {
            let vertex = VertexId::object(next(4) as u32, next(6));
            match next(7) {
                0..=3 => {
                    let (as_of, is_root) = (next(9), next(2) == 0);
                    let expected = stamp_model(&mut model, vertex, as_of, is_root);
                    assert_eq!(stamps.stamp(vertex, as_of, is_root), expected);
                    assert_eq!(row.stamp(vertex, as_of, is_root), expected);
                }
                4 => {
                    let mut incoming = RootStamps::new();
                    for _ in 0..next(5) {
                        incoming.stamp(VertexId::object(next(4) as u32, next(6)), next(9), true);
                    }
                    let expected = incoming.iter().fold(false, |changed, &(v, (a, r))| {
                        stamp_model(&mut model, v, a, r) | changed
                    });
                    assert_eq!(stamps.absorb(incoming.as_slice()), expected);
                    assert_eq!(row.absorb(incoming.as_slice()), expected);
                }
                5 => {
                    let site = next(4) as u32;
                    stamps.retain(|v| v.site().index() != site);
                    row.retain(|v| v.site().index() != site);
                    model.retain(|v, _| v.site().index() != site);
                }
                _ => assert_eq!(stamps.get(vertex), model.get(&vertex).copied()),
            }
            assert!(
                stamps
                    .iter()
                    .copied()
                    .eq(model.iter().map(|(&v, &s)| (v, s))),
                "step {step}: stamps differ from the ordered map"
            );
            assert_eq!(stamps.len(), model.len());
            assert_eq!(stamps.keys().count(), model.len());
            assert_eq!(row.as_slice(), stamps.as_slice(), "step {step}");
            assert_eq!(row.0.is_none(), model.is_empty(), "step {step}: the box");
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_payload_holds_one_stamp_inline_and_a_row_one_word() {
        use std::mem::size_of;
        assert_eq!(size_of::<Stamp>(), 32);
        assert_eq!(size_of::<RootStamps>(), 32);
        assert_eq!(size_of::<RowStamps>(), 8);
    }

    #[test]
    fn equality_ignores_where_the_stamps_are_held() {
        let (a, b) = (VertexId::object(1, 1), VertexId::object(2, 1));
        let mut one = RootStamps::new();
        one.stamp(a, 3, true);
        // Two stamps spill; dropping one leaves a spilled single stamp.
        let mut spilled = RootStamps::new();
        spilled.stamp(b, 1, false);
        spilled.stamp(a, 3, true);
        assert_eq!(spilled.keys().collect::<Vec<_>>(), [a, b]);
        spilled.retain(|vertex| vertex == a);
        assert_eq!(spilled, one);
        assert_eq!(
            RootStamps::from_sorted(vec![(a, (3, true))]),
            Some(one.clone())
        );
        assert_eq!(spilled.get(a), Some((3, true)));
        // Cleared, either form equals the empty map and restamps the same.
        spilled.clear();
        one.clear();
        assert_eq!(spilled, RootStamps::new());
        assert_eq!(one, RootStamps::new());
        spilled.stamp(b, 2, true);
        one.stamp(b, 2, true);
        assert_eq!(spilled, one);
        assert_eq!(Vec::from(spilled), vec![(b, (2, true))]);
    }

    #[test]
    fn from_sorted_rejects_disorder_and_duplicates() {
        let (a, b) = (VertexId::object(1, 1), VertexId::object(2, 1));
        let ok = RootStamps::from_sorted(vec![(a, (1, true)), (b, (2, false))]).unwrap();
        assert_eq!(ok.get(b), Some((2, false)));
        assert_eq!(
            RootStamps::from_sorted(vec![(b, (1, true)), (a, (1, true))]),
            None
        );
        assert_eq!(
            RootStamps::from_sorted(vec![(a, (1, true)), (a, (2, true))]),
            None
        );
        assert!(RootStamps::from_sorted(Vec::new()).unwrap().is_empty());
    }
}
