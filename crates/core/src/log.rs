//! The per-site log `DK` of dependency vectors and the root knowledge that
//! travels with them.
//!
//! A site's log finds the rows of its own objects by index and the rest by
//! one hashed lookup; [`DkLog::rows`] still yields one strictly ascending
//! sequence. Its log-wide root stamps are hashed too, and sorted only where
//! an order is exposed (DESIGN.md §6 "Engine state").

use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::fmt;

use ggd_types::{DependencyVector, IdMap, SiteId, Timestamp, VertexId};

use crate::stamps::RootStamps;
use crate::table::LocalTable;

/// A dependency vector bundled with *root knowledge*: for each vertex it
/// mentions, whether that vertex was an actual root of the global root graph
/// as of the vertex's own event counter.
///
/// The paper's garbage test (Fig. 6) needs the predicate `root(k)` to be
/// evaluable wherever the test runs. Site-root anchors are roots by
/// construction; for global roots that are (dynamically) reachable from
/// their own site's local root set, the status is stamped by the hosting
/// site and carried with every vector so that the knowledge arrives no later
/// than the entries that depend on it. Newer stamps (higher `as_of` event
/// index) supersede older ones, so losing local-rootedness eventually
/// propagates too.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RootedVector {
    /// The dependency vector itself.
    pub vector: DependencyVector,
    /// Root-status stamps: vertex → (as-of event index, is-actual-root).
    pub root_flags: RootStamps,
}

impl RootedVector {
    /// Creates an empty vector with no root knowledge.
    pub fn new() -> Self {
        RootedVector::default()
    }

    /// Creates a rooted vector from its parts.
    pub fn from_vector(vector: DependencyVector) -> Self {
        RootedVector {
            vector,
            root_flags: RootStamps::new(),
        }
    }

    /// Records a root-status stamp, keeping the most recent one.
    pub fn stamp_root(&mut self, vertex: VertexId, as_of: u64, is_root: bool) -> bool {
        self.root_flags.stamp(vertex, as_of, is_root)
    }

    /// Empties the vector and its stamps, keeping both allocations.
    pub fn clear(&mut self) {
        self.vector.clear();
        self.root_flags.clear();
    }

    /// Merges another rooted vector into this one (vector join plus
    /// freshest-stamp-wins root knowledge). Returns whether anything changed.
    pub fn merge(&mut self, other: &RootedVector) -> bool {
        let changed = self.vector.merge(&other.vector);
        self.root_flags.absorb(&other.root_flags) | changed
    }
}

impl fmt::Display for RootedVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.vector)?;
        let roots: Vec<String> = self
            .root_flags
            .iter()
            .filter(|(_, (_, r))| *r)
            .map(|(v, _)| v.to_string())
            .collect();
        if !roots.is_empty() {
            write!(f, " roots[{}]", roots.join(","))?;
        }
        Ok(())
    }
}

/// The paper's per-vertex log `DK`: for every vertex of the global root
/// graph this site has heard of, the best locally-held approximation of the
/// dependency vector of that vertex's latest log-keeping event (§3.3, item 1
/// of the algorithm summary).
///
/// A log belongs to a site. It keeps the rows of the site's own objects —
/// the rows every relevant event touches — in a table indexed by
/// object identity, and the rows of anchors and remote vertices in a hash
/// map, so every row is found by one lookup. [`DkLog::rows`] sorts the
/// hashed rows and merges them around the table into one strictly
/// ascending sequence, so everything that iterates the log in order (the
/// `Display` form, the checkpoint codec, retirement) sees exactly the order
/// a single ordered map would give; compaction filters the rows in place.
/// The log-wide root stamps are one hashed map, read in one lookup by the
/// garbage test and by every outgoing payload; [`DkLog::root_flags`] sorts
/// them for the codec. Equality is by content.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DkLog {
    /// Rows of the site's own objects, by object identity.
    local: LocalTable<RootedVector>,
    /// Rows of anchors and of other sites' vertices, in no order.
    rows: IdMap<VertexId, RootedVector>,
    /// Log-wide root stamps, vertex → (as-of event index, is-actual-root),
    /// in no order.
    root_flags: IdMap<VertexId, (u64, bool)>,
    /// Reused buffers of `ComputeV`: its traversal, and the last closure
    /// [`DkLog::closure_entries`] computed.
    scratch: ClosureScratch,
}

/// The work list, expanded set and result entries of one `ComputeV`
/// traversal, kept across calls so a closure allocates nothing once the
/// buffers have grown to the widest closure seen.
#[derive(Debug, Clone, Default)]
struct ClosureScratch {
    stack: Vec<VertexId>,
    /// Sorted: searched and extended by binary search.
    expanded: Vec<VertexId>,
    /// The closure last built, sorted by vertex and never `NEVER`: the
    /// entry layout of a `DependencyVector`.
    result: Vec<(VertexId, Timestamp)>,
}

impl PartialEq for DkLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.rows().eq(other.rows())
            && self.root_flags == other.root_flags
    }
}

impl Eq for DkLog {}

impl DkLog {
    /// Creates the empty log of `site`; allocates nothing.
    pub fn new(site: SiteId) -> Self {
        DkLog {
            local: LocalTable::new(site),
            rows: IdMap::default(),
            root_flags: IdMap::default(),
            scratch: ClosureScratch::default(),
        }
    }

    /// Read access to the row held for `vertex` (empty if never touched).
    pub fn row(&self, vertex: VertexId) -> Option<&RootedVector> {
        if self.local.holds(vertex) {
            self.local.get(vertex)
        } else {
            self.rows.get(&vertex)
        }
    }

    /// Mutable access to the row held for `vertex`, creating it if needed.
    pub fn row_mut(&mut self, vertex: VertexId) -> &mut RootedVector {
        if self.local.holds(vertex) {
            self.local.get_or_default(vertex)
        } else {
            self.rows.entry(vertex).or_default()
        }
    }

    /// Iterates over all rows in ascending vertex order: rows below the
    /// site's first object (anchors, lower sites), the site's own objects
    /// by identity, then the rest. Sorts the hashed rows first, so it is
    /// for the cold paths only: codec, `Display`, equality and retirement.
    pub fn rows(&self) -> impl Iterator<Item = (VertexId, &RootedVector)> {
        let mut below: Vec<(VertexId, &RootedVector)> = self
            .rows
            .iter()
            .map(|(&vertex, row)| (vertex, row))
            .collect();
        below.sort_unstable_by_key(|&(vertex, _)| vertex);
        let first_local = self.local.first_vertex();
        let above = below.split_off(below.partition_point(|&(vertex, _)| vertex < first_local));
        below.into_iter().chain(self.local.iter()).chain(above)
    }

    /// Every row, in no particular order and without sorting: for walks
    /// whose result does not depend on the order.
    pub fn rows_unordered(&self) -> impl Iterator<Item = (VertexId, &RootedVector)> {
        self.local
            .iter_unordered()
            .chain(self.rows.iter().map(|(&vertex, row)| (vertex, row)))
    }

    /// Every row, mutably, in no particular order.
    fn rows_mut(&mut self) -> impl Iterator<Item = &mut RootedVector> {
        self.local.values_mut().chain(self.rows.values_mut())
    }

    /// Keeps only the rows `keep` accepts, in place, without touching
    /// entries keyed by the dropped subjects in other rows. Returns the
    /// number of rows dropped.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(VertexId, &RootedVector) -> bool) -> usize {
        let before = self.len();
        self.local.retain(|vertex, row| keep(vertex, row));
        self.rows.retain(|&vertex, row| keep(vertex, row));
        before - self.len()
    }

    /// Number of rows currently held.
    pub fn len(&self) -> usize {
        self.local.len() + self.rows.len()
    }

    /// True when the log holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a root-status stamp in the log-wide root knowledge unless an
    /// equally fresh or fresher one is already there. Returns whether it was
    /// recorded.
    pub fn stamp_root(&mut self, vertex: VertexId, as_of: u64, is_root: bool) -> bool {
        match self.root_flags.entry(vertex) {
            Entry::Occupied(stamp) if stamp.get().0 >= as_of => false,
            Entry::Occupied(mut stamp) => {
                stamp.insert((as_of, is_root));
                true
            }
            Entry::Vacant(slot) => {
                slot.insert((as_of, is_root));
                true
            }
        }
    }

    /// Merges the root knowledge carried by an incoming vector.
    pub fn absorb_root_flags(&mut self, incoming: &RootedVector) -> bool {
        incoming
            .root_flags
            .iter()
            .fold(false, |changed, &(vertex, (as_of, is_root))| {
                self.stamp_root(vertex, as_of, is_root) | changed
            })
    }

    /// True when `vertex` is, per the freshest knowledge in this log, an
    /// actual root of the global root graph.
    pub fn is_root(&self, vertex: VertexId) -> bool {
        vertex.is_site_root() || self.root_stamp(vertex).is_some_and(|(_, is_root)| is_root)
    }

    /// The log-wide stamp held for `vertex`, if any: one hashed lookup.
    pub fn root_stamp(&self, vertex: VertexId) -> Option<(u64, bool)> {
        self.root_flags.get(&vertex).copied()
    }

    /// The log-wide root-status stamps, sorted into a fresh [`RootStamps`]:
    /// for the codec and the other cold paths that need them in order.
    pub fn root_flags(&self) -> RootStamps {
        let mut stamps: Vec<_> = self
            .root_flags
            .iter()
            .map(|(&vertex, &stamp)| (vertex, stamp))
            .collect();
        stamps.sort_unstable_by_key(|&(vertex, _)| vertex);
        RootStamps::from_sorted(stamps).expect("a map holds each vertex once")
    }

    /// Compacts the log against the *dead* vertices `dead` accepts (local
    /// vertices whose garbage verdict is final): their rows are dropped,
    /// entries keyed by them are removed from every remaining row, and
    /// their root-status stamps are forgotten, all in one pass over the
    /// rows. Soundness rests on what a verdict means — a detected vertex is
    /// provably unreachable from every actual root, so an entry keyed by it
    /// can never witness a *real* live root path; it can only be stale
    /// conservatism (a placeholder or root stamp that destruction news
    /// would eventually revoke anyway). Dropping it anticipates that
    /// revocation. Returns the number of rows dropped.
    pub fn prune_vertices(&mut self, dead: impl Fn(VertexId) -> bool) -> usize {
        let prune = |vertex: VertexId, row: &mut RootedVector| {
            if dead(vertex) {
                return false;
            }
            row.vector.retain(|q, _| !dead(q));
            row.root_flags.retain(|q| !dead(q));
            true
        };
        let before = self.len();
        self.local.retain(&prune);
        self.rows.retain(|&vertex, row| prune(vertex, row));
        self.root_flags.retain(|&vertex, _| !dead(vertex));
        before - self.len()
    }

    /// Drops every root-status stamp — log-level and per-row — for
    /// vertices `keep` rejects.
    ///
    /// Root stamps are only ever consulted for vertices carrying a *live*
    /// entry in some closure, and every closure entry originates in a
    /// row's vector entry, so a stamp for a vertex no row mentions is pure
    /// dead weight — yet, left alone, the stamp map grows by one entry for
    /// every global root that ever existed (it rides on every outgoing
    /// payload, so the creep multiplies into message and WAL bytes; the
    /// soak test pins this). The caller decides, so engine bookkeeping
    /// (edges, holders, local roots) can be kept conservatively.
    pub fn retain_stamps(&mut self, mut keep: impl FnMut(VertexId) -> bool) {
        self.root_flags.retain(|&vertex, _| keep(vertex));
        for row in self.rows_mut() {
            row.root_flags.retain(&mut keep);
        }
    }

    /// Every vertex stamped in the log-level root knowledge or in a row's,
    /// ascending and without duplicates.
    pub fn stamped_vertices(&self) -> Vec<VertexId> {
        let mut stamped: Vec<VertexId> = self.root_flags.keys().copied().collect();
        for (_, row) in self.rows_unordered() {
            stamped.extend(row.root_flags.keys());
        }
        stamped.sort_unstable();
        stamped.dedup();
        stamped
    }

    /// The paper's `ComputeV` (Fig. 6): reconstructs the best currently
    /// reconstructible approximation of the full vector-time of `vertex`'s
    /// latest log-keeping event by transitively expanding the locally held
    /// rows. The expansion only recurses through *live* entries (destroyed
    /// entries stop the recursion, exactly as the `¬A(α)` guard does in the
    /// paper), but the destroyed entries encountered along the way are kept
    /// in the result as tombstones: propagated vectors must carry
    /// destruction news, otherwise stale live entries held by other sites
    /// could never be revoked (the receiving side merges monotonically).
    ///
    /// The subject's row is expanded first, so the closure holds every
    /// entry of that row at least as new — the subject's own entry exactly
    /// as the row has it. Merging the row into its closure therefore never
    /// changes the closure, which is why a propagation ships the closure
    /// alone.
    ///
    /// It writes the closure into the log's buffer and returns it there, in
    /// the entry layout of a [`DependencyVector`]: sorted by vertex and
    /// never [`Timestamp::NEVER`]. It takes `&mut self` only to reuse that
    /// buffer and the traversal's, so once they have grown to the widest
    /// closure seen, a closure allocates nothing.
    pub fn closure_entries(&mut self, vertex: VertexId) -> &[(VertexId, Timestamp)] {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = &mut scratch.result;
        result.clear();
        scratch.stack.push(vertex);
        while let Some(p) = scratch.stack.pop() {
            let Err(at) = scratch.expanded.binary_search(&p) else {
                continue;
            };
            scratch.expanded.insert(at, p);
            let Some(row) = self.row(p) else {
                continue;
            };
            for (q, ts) in row.vector.iter() {
                let merged = match result.binary_search_by_key(&q, |&(k, _)| k) {
                    Ok(i) => {
                        result[i].1 = result[i].1.merged(ts);
                        result[i].1
                    }
                    Err(i) => {
                        result.insert(i, (q, ts));
                        ts
                    }
                };
                if merged.is_live() && scratch.expanded.binary_search(&q).is_err() {
                    scratch.stack.push(q);
                }
            }
        }
        // The subject's own entry reflects its own latest event, never a
        // second-hand one.
        if let Some(own) = self.row(vertex).map(|row| row.vector.get(vertex)) {
            match result.binary_search_by_key(&vertex, |&(k, _)| k) {
                Ok(i) if own == Timestamp::NEVER => {
                    result.remove(i);
                }
                Ok(i) => result[i].1 = own,
                // The row was expanded first: a recorded own entry is in.
                Err(_) => debug_assert_eq!(own, Timestamp::NEVER),
            }
        }
        scratch.expanded.clear();
        self.scratch = scratch;
        &self.scratch.result
    }

    /// [`DkLog::closure_entries`] as an owned vector.
    pub fn closure(&mut self, vertex: VertexId) -> DependencyVector {
        DependencyVector::from_sorted_slice(self.closure_entries(vertex))
            .expect("the closure buffer is sorted and holds no NEVER")
    }

    /// True when every live, non-root *direct* in-edge entry recorded in the
    /// subject's own row is *resolved*: the log holds at least some shipped
    /// knowledge of that neighbour's dependency vector, rather than only a
    /// bare lazy placeholder created at export time. Unresolved direct
    /// entries veto a garbage verdict (safety first: wait until the holder
    /// of the inbound path has been heard from at least once). Transitive
    /// entries need no separate resolution — they were, by construction,
    /// taken from a neighbour's shipped vector.
    pub fn direct_live_entries_resolved(&self, subject: VertexId) -> bool {
        let Some(row) = self.row(subject) else {
            return true;
        };
        row.vector
            .iter()
            .filter(|(q, ts)| *q != subject && ts.is_live() && !self.is_root(*q))
            .all(|(q, _)| self.row(q).is_some_and(|r| !r.vector.is_empty()))
    }
}

impl fmt::Display for DkLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (vertex, row) in self.rows() {
            writeln!(f, "DK[{vertex}] = {row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_types::Timestamp;
    use std::collections::{BTreeMap, BTreeSet};

    fn v(site: u32, obj: u64) -> VertexId {
        VertexId::object(site, obj)
    }

    #[test]
    fn rooted_vector_merges_and_stamps() {
        // Root knowledge is read through a log that absorbed the vector's.
        let knows_root = |rv: &RootedVector, vertex| {
            let mut log = DkLog::new(SiteId::new(0));
            log.absorb_root_flags(rv);
            log.is_root(vertex)
        };
        let mut a = RootedVector::new();
        a.vector.set(v(1, 1), Timestamp::created(1));
        assert!(a.stamp_root(v(1, 1), 1, true));
        assert!(!a.stamp_root(v(1, 1), 1, false)); // stale stamp ignored
        assert!(knows_root(&a, v(1, 1)));
        assert!(knows_root(&a, VertexId::site_root(7)));
        assert!(!knows_root(&a, v(2, 2)));

        let mut b = RootedVector::new();
        b.vector.set(v(2, 2), Timestamp::created(3));
        b.stamp_root(v(1, 1), 5, false);
        assert!(a.merge(&b));
        assert!(!knows_root(&a, v(1, 1))); // newer stamp wins
        assert_eq!(a.vector.get(v(2, 2)), Timestamp::created(3));
        assert!(!a.merge(&b));
        assert!(!a.to_string().is_empty());
    }

    #[test]
    fn closure_expands_transitively_through_live_entries() {
        let mut log = DkLog::new(SiteId::new(2));
        // c's row: b reaches c.
        log.row_mut(v(3, 1))
            .vector
            .set(v(2, 1), Timestamp::created(1));
        log.row_mut(v(3, 1))
            .vector
            .set(v(3, 1), Timestamp::created(2));
        // b's row: a reaches b.
        log.row_mut(v(2, 1))
            .vector
            .set(v(1, 1), Timestamp::created(4));
        log.row_mut(v(2, 1))
            .vector
            .set(v(2, 1), Timestamp::created(1));

        let closure = log.closure(v(3, 1));
        assert_eq!(closure.get(v(3, 1)), Timestamp::created(2));
        assert_eq!(closure.get(v(2, 1)), Timestamp::created(1));
        assert_eq!(closure.get(v(1, 1)), Timestamp::created(4));
    }

    #[test]
    fn closure_stops_at_destroyed_entries() {
        let mut log = DkLog::new(SiteId::new(2));
        log.row_mut(v(3, 1))
            .vector
            .set(v(2, 1), Timestamp::destroyed(5));
        log.row_mut(v(2, 1))
            .vector
            .set(v(1, 1), Timestamp::created(1));
        let closure = log.closure(v(3, 1));
        // The destroyed entry is kept as a tombstone but not expanded, so
        // nothing reachable only through it contributes a live path.
        assert_eq!(closure.get(v(2, 1)), Timestamp::destroyed(5));
        assert_eq!(closure.get(v(1, 1)), Timestamp::NEVER);
        assert!(closure.live_support().count() == 0);
    }

    #[test]
    fn closure_terminates_on_cycles() {
        let mut log = DkLog::new(SiteId::new(2));
        log.row_mut(v(1, 1))
            .vector
            .set(v(2, 1), Timestamp::created(1));
        log.row_mut(v(2, 1))
            .vector
            .set(v(1, 1), Timestamp::created(1));
        let closure = log.closure(v(1, 1));
        assert!(closure.get(v(2, 1)).is_live());
        assert!(closure.get(v(1, 1)).is_live() || closure.get(v(1, 1)) == Timestamp::NEVER);
    }

    #[test]
    fn resolution_requires_knowledge_of_direct_neighbours() {
        let mut log = DkLog::new(SiteId::new(2));
        // Subject t has a live placeholder for q but q's row is unknown.
        let t = v(2, 1);
        let q = v(3, 1);
        log.row_mut(t).vector.set(q, Timestamp::created(1));
        log.row_mut(t).vector.set(t, Timestamp::created(1));
        assert!(!log.direct_live_entries_resolved(t));
        // Once anything of q's vector is known the entry is resolved.
        log.row_mut(q).vector.set(v(1, 1), Timestamp::created(1));
        assert!(log.direct_live_entries_resolved(t));
        // Destroyed or root-keyed entries never block resolution.
        log.row_mut(t).vector.set(v(4, 1), Timestamp::destroyed(2));
        log.row_mut(t)
            .vector
            .set(VertexId::site_root(0), Timestamp::created(1));
        assert!(log.direct_live_entries_resolved(t));
        // A vertex with no row at all is trivially resolved.
        assert!(log.direct_live_entries_resolved(v(9, 9)));
    }

    #[test]
    fn log_level_root_knowledge() {
        let mut log = DkLog::new(SiteId::new(2));
        assert!(log.is_root(VertexId::site_root(0)));
        assert!(!log.is_root(v(1, 1)));
        assert!(log.stamp_root(v(1, 1), 3, true));
        assert!(log.is_root(v(1, 1)));
        assert!(!log.stamp_root(v(1, 1), 2, false));
        assert!(log.is_root(v(1, 1)));
        assert!(log.stamp_root(v(1, 1), 4, false));
        assert!(!log.is_root(v(1, 1)));

        let mut incoming = RootedVector::new();
        incoming.stamp_root(v(1, 1), 9, true);
        assert!(log.absorb_root_flags(&incoming));
        assert!(log.is_root(v(1, 1)));
        assert_eq!(log.root_flags().len(), 1);
    }

    #[test]
    fn rows_follow_an_ordered_model_through_seeded_edits() {
        // Seeded edits of a site-2 log over anchors, remote objects below
        // and above the site, and the site's own objects, each mirrored in
        // one ordered map of rows plus the log-wide stamps. After every
        // step `rows()` must be strictly ascending and equal the model.
        let mut state = 0x5eed_0fd0_c51e_57aau64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pool: Vec<VertexId> = (0..4).map(VertexId::site_root).collect();
        for site in [0, 1, 2, 3] {
            pool.extend((0..6).map(|obj| v(site, obj)));
        }
        let mut pick = |n: usize| -> Vec<VertexId> {
            (0..n)
                .map(|_| pool[(next() % pool.len() as u64) as usize])
                .collect()
        };
        let mut log = DkLog::new(SiteId::new(2));
        let mut model: BTreeMap<VertexId, RootedVector> = BTreeMap::new();
        let mut flags = RootStamps::new();
        for step in 0..3_000u64 {
            let drawn = pick(2);
            let (subject, entry) = (drawn[0], drawn[1]);
            let ts = Timestamp::created(step % 5 + 1);
            match step % 11 {
                0..=5 => {
                    log.row_mut(subject).vector.set(entry, ts);
                    model.entry(subject).or_default().vector.set(entry, ts);
                }
                6 => {
                    log.row_mut(subject).stamp_root(entry, step, step % 2 == 0);
                    model
                        .entry(subject)
                        .or_default()
                        .stamp_root(entry, step, step % 2 == 0);
                    log.stamp_root(entry, step, true);
                    flags.stamp(entry, step, true);
                }
                7 => {
                    let subjects: BTreeSet<VertexId> = pick(3).into_iter().collect();
                    let before = model.len();
                    model.retain(|vertex, _| !subjects.contains(vertex));
                    assert_eq!(
                        log.retain_rows(|vertex, _| !subjects.contains(&vertex)),
                        before - model.len()
                    );
                }
                8 => {
                    let dead: BTreeSet<VertexId> = pick(2).into_iter().collect();
                    let before = model.len();
                    model.retain(|vertex, _| !dead.contains(vertex));
                    for row in model.values_mut() {
                        for &vertex in &dead {
                            row.vector.set(vertex, Timestamp::NEVER);
                        }
                        row.root_flags.retain(|vertex| !dead.contains(&vertex));
                    }
                    flags.retain(|vertex| !dead.contains(&vertex));
                    assert_eq!(
                        log.prune_vertices(|vertex| dead.contains(&vertex)),
                        before - model.len()
                    );
                }
                9 => {
                    let keep: BTreeSet<VertexId> = pick(12).into_iter().collect();
                    for row in model.values_mut() {
                        row.root_flags.retain(|vertex| keep.contains(&vertex));
                    }
                    flags.retain(|vertex| keep.contains(&vertex));
                    log.retain_stamps(|vertex| keep.contains(&vertex));
                }
                _ => {
                    assert_eq!(log.row(subject), model.get(&subject), "step {step}");
                }
            }
            let rows: Vec<(VertexId, &RootedVector)> = log.rows().collect();
            assert!(
                rows.windows(2).all(|pair| pair[0].0 < pair[1].0),
                "step {step}: rows must be strictly ascending"
            );
            assert!(
                rows.iter()
                    .copied()
                    .eq(model.iter().map(|(&vertex, row)| (vertex, row))),
                "step {step}: rows differ from the model"
            );
            assert_eq!(log.len(), model.len());
            assert_eq!(log.root_flags(), flags, "step {step}: the sorted view");
            assert_eq!(log.root_stamp(entry), flags.get(entry), "step {step}");
        }
    }

    #[test]
    fn closure_absorbs_the_subjects_own_row() {
        // Seeded logs over a small vertex pool, live and destroyed entries
        // mixed, cycles allowed: for every subject, merging its row into
        // its closure must change nothing. A propagation ships the closure
        // on the strength of this (the engine's `debug_assert` checks it
        // in debug builds only).
        let mut state = 0xc105_0be5_0f0e_7a11u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut pool: Vec<VertexId> = (0..3).map(VertexId::site_root).collect();
        for site in 0..4 {
            pool.extend((1..5).map(|obj| v(site, obj)));
        }
        let mut checked = 0;
        for _ in 0..200 {
            let mut log = DkLog::new(SiteId::new(next(4) as u32));
            for _ in 0..next(40) {
                let subject = pool[next(pool.len() as u64) as usize];
                let entry = pool[next(pool.len() as u64) as usize];
                let index = next(6) + 1;
                let ts = match next(3) {
                    0 => Timestamp::destroyed(index),
                    _ => Timestamp::created(index),
                };
                log.row_mut(subject).vector.merge_entry(entry, ts);
            }
            for &subject in &pool {
                let closure = log.closure(subject);
                let Some(row) = log.row(subject) else {
                    assert!(closure.is_empty());
                    continue;
                };
                assert_eq!(row.vector.merged_with(&closure), closure, "{subject}");
                checked += 1;
            }
        }
        assert!(checked > 1_000, "only {checked} subjects had rows");
    }

    #[test]
    fn display_and_size() {
        let mut log = DkLog::new(SiteId::new(2));
        assert!(log.is_empty());
        log.row_mut(v(1, 1))
            .vector
            .set(v(1, 1), Timestamp::created(1));
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
        assert!(log.to_string().contains("DK[s1/o1]"));
        assert!(log.row(v(1, 1)).is_some());
        assert!(log.row(v(9, 9)).is_none());
        assert_eq!(log.rows().count(), 1);
    }
}
