//! Per-object records of one site, found by index: the shape of the heap
//! arena's `id_index`, shared by the engine's vertex state and the log's
//! local rows.

use ggd_types::{GlobalAddr, ObjectId, SiteId, VertexId};

/// Records keyed by the vertices of one site's objects, found through a
/// flat `id → position` index instead of an ordered search. Object
/// identities are allocated densely per site, so the index is a plain
/// vector, and walking it yields the records in ascending vertex order.
///
/// The table owns the routing decision "a vertex is one of the site's
/// objects": [`LocalTable::holds`] answers it, lookups of any other vertex
/// find nothing, and creating a record for one panics.
#[derive(Debug, Clone)]
pub(crate) struct LocalTable<T> {
    site: SiteId,
    /// `ObjectId::index()` → position in `records` + 1; 0 = no record.
    index: Vec<u32>,
    /// The records, in insertion order, each with its identity.
    records: Vec<(ObjectId, T)>,
}

impl<T> LocalTable<T> {
    /// An empty table for `site`'s objects; allocates nothing.
    pub(crate) fn new(site: SiteId) -> Self {
        LocalTable {
            site,
            index: Vec::new(),
            records: Vec::new(),
        }
    }

    /// True when `vertex` is one of the site's objects.
    pub(crate) fn holds(&self, vertex: VertexId) -> bool {
        !vertex.is_site_root() && vertex.site() == self.site
    }

    /// The least vertex the table can hold: every vertex below it sorts
    /// before every record, every vertex of a higher site after them.
    pub(crate) fn first_vertex(&self) -> VertexId {
        self.vertex(ObjectId::new(0))
    }

    fn vertex(&self, id: ObjectId) -> VertexId {
        VertexId::from(GlobalAddr::from_parts(self.site, id))
    }

    fn position(&self, vertex: VertexId) -> Option<usize> {
        let addr = vertex.as_object()?;
        if addr.site() != self.site {
            return None;
        }
        let slot = usize::try_from(addr.object().index()).ok()?;
        match self.index.get(slot) {
            Some(&entry) if entry != 0 => Some(entry as usize - 1),
            _ => None,
        }
    }

    /// The record of `vertex`, if it is one of the site's objects and has
    /// one.
    pub(crate) fn get(&self, vertex: VertexId) -> Option<&T> {
        let pos = self.position(vertex)?;
        Some(&self.records[pos].1)
    }

    /// Mutable access to the record of `vertex`, if there is one.
    pub(crate) fn get_mut(&mut self, vertex: VertexId) -> Option<&mut T> {
        let pos = self.position(vertex)?;
        Some(&mut self.records[pos].1)
    }

    /// The record of `vertex`, created empty if needed. This is the only
    /// way the table grows; the index grows to `id.index() + 1` slots.
    ///
    /// # Panics
    ///
    /// Panics when `vertex` is not one of the site's objects, or when its
    /// identity is `u64::MAX` (no site allocates it).
    pub(crate) fn get_or_default(&mut self, vertex: VertexId) -> &mut T
    where
        T: Default,
    {
        let pos = match self.position(vertex) {
            Some(pos) => pos,
            None => {
                let id = match vertex.as_object() {
                    Some(addr) if addr.site() == self.site => addr.object(),
                    _ => panic!("{vertex} is not an object of {}", self.site),
                };
                let slot = usize::try_from(id.index()).expect("object identity fits a usize");
                if self.index.len() <= slot {
                    let len = slot
                        .checked_add(1)
                        .expect("object identity below usize::MAX");
                    self.index.resize(len, 0);
                }
                self.records.push((id, T::default()));
                self.index[slot] =
                    u32::try_from(self.records.len()).expect("fewer than 2^32 records");
                self.records.len() - 1
            }
        };
        &mut self.records[pos].1
    }

    /// Keeps only the records `keep` accepts.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(VertexId, &mut T) -> bool) {
        let site = self.site;
        let before = self.records.len();
        self.records.retain_mut(|(id, record)| {
            keep(VertexId::from(GlobalAddr::from_parts(site, *id)), record)
        });
        if self.records.len() != before {
            self.index.fill(0);
            // Every identity here was indexed when its record was created,
            // and positions only shrink, so neither conversion can fail.
            for (pos, (id, _)) in self.records.iter().enumerate() {
                self.index[id.index() as usize] = pos as u32 + 1;
            }
        }
    }

    /// Iterates the records in ascending vertex order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VertexId, &T)> + Clone + '_ {
        self.index
            .iter()
            .filter(|&&entry| entry != 0)
            .map(move |&entry| {
                let (id, record) = &self.records[entry as usize - 1];
                (self.vertex(*id), record)
            })
    }

    /// Iterates the records in no particular order, without walking the
    /// index.
    pub(crate) fn iter_unordered(&self) -> impl Iterator<Item = (VertexId, &T)> + '_ {
        self.records
            .iter()
            .map(move |(id, record)| (self.vertex(*id), record))
    }

    /// Iterates the records mutably, in no particular order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.records.iter_mut().map(|(_, record)| record)
    }

    /// Number of records held.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Number of index slots: one past the highest identity ever recorded.
    #[cfg(test)]
    pub(crate) fn index_len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_found_by_index_and_iterate_in_vertex_order() {
        let mut table: LocalTable<u32> = LocalTable::new(SiteId::new(4));
        let v = |id: u64| VertexId::object(4, id);
        for id in [1000u64, 1, 2] {
            *table.get_or_default(v(id)) = id as u32;
        }
        assert_eq!(table.len(), 3);
        assert_eq!(table.index_len(), 1001);
        assert_eq!(table.get(v(2)), Some(&2));
        assert_eq!(table.get(v(3)), None);
        assert_eq!(table.get(v(u64::MAX)), None);
        // Other sites' objects and anchors are never found here.
        assert!(table.holds(v(7)));
        for other in [VertexId::object(3, 2), VertexId::site_root(4)] {
            assert!(!table.holds(other));
            assert_eq!(table.get(other), None);
        }
        assert!(VertexId::site_root(9) < table.first_vertex());
        assert!(VertexId::object(3, u64::MAX) < table.first_vertex());
        assert!(table.first_vertex() < v(1));
        let ids: Vec<VertexId> = table.iter().map(|(vertex, _)| vertex).collect();
        assert_eq!(ids, vec![v(1), v(2), v(1000)]);

        table.retain(|vertex, _| vertex != v(1));
        assert_eq!(table.get(v(1)), None);
        assert_eq!(table.get(v(1000)), Some(&1000));
        assert_eq!(table.get_mut(v(2)), Some(&mut 2));
        let ids: Vec<VertexId> = table.iter().map(|(vertex, _)| vertex).collect();
        assert_eq!(ids, vec![v(2), v(1000)]);
    }

    #[test]
    #[should_panic(expected = "is not an object of")]
    fn creating_a_record_for_another_site_panics() {
        let mut table: LocalTable<u32> = LocalTable::new(SiteId::new(4));
        table.get_or_default(VertexId::object(5, 1));
    }
}
