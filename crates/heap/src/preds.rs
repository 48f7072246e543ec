//! The delta tracker's reverse-edge multiset: for each slot, the slots that
//! hold a local reference to it, each with its occurrence count.
//!
//! Most objects have one distinct holder at most, so a slot keeps its first
//! `(pred, count)` entry inline, and only a slot with two or more distinct
//! holders spills the others to a list. Spilled lists are pooled: a slot that
//! drops back to one holder, or is freed, hands its list back, capacity and
//! all, to the next slot that spills. Once the pool is warm, the mutation
//! path allocates nothing here.
//!
//! A slot's entries read as one sequence, the inline entry first. Every
//! operation changes that sequence exactly as `push` and `swap_remove` change
//! a `Vec`, so the order in which the tracker's closures visit predecessors
//! depends on the slot's add/remove history alone, never on whether an entry
//! happens to sit inline.

/// A slot's inline entry and where its spilled entries live.
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    pred: u32,
    /// Occurrences of `pred`; 0 when the slot has no predecessor at all, and
    /// then `spill` is 0 too.
    count: u32,
    /// The slot's spilled list, as index + 1 into `Preds::lists` (0 = none).
    /// A slot never keeps an empty list.
    spill: u32,
}

/// Slot-indexed reverse local edges: `target slot → [(pred slot, count)]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Preds {
    heads: Vec<Head>,
    /// Spilled lists, in use or pooled; a pooled list is empty.
    lists: Vec<Vec<(u32, u32)>>,
    /// Indices of the pooled lists.
    pool: Vec<u32>,
}

impl Preds {
    /// Sizes the table for a slab of `slots` slots.
    pub(crate) fn ensure_capacity(&mut self, slots: usize) {
        if self.heads.len() < slots {
            self.heads.resize(slots, Head::default());
        }
    }

    /// The `(pred, count)` entries of `target`, inline entry first.
    pub(crate) fn entries(&self, target: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let head = self.heads[target as usize];
        let first = (head.count > 0).then_some((head.pred, head.count));
        let spilled: &[(u32, u32)] = match head.spill {
            0 => &[],
            spill => &self.lists[spill as usize - 1],
        };
        first.into_iter().chain(spilled.iter().copied())
    }

    /// `pred` gained one reference to `target`.
    pub(crate) fn add(&mut self, target: u32, pred: u32) {
        let head = &mut self.heads[target as usize];
        if head.count == 0 {
            *head = Head {
                pred,
                count: 1,
                spill: 0,
            };
            return;
        }
        if head.pred == pred {
            head.count += 1;
            return;
        }
        if head.spill == 0 {
            head.spill = match self.pool.pop() {
                Some(index) => index + 1,
                None => {
                    self.lists.push(Vec::new());
                    self.lists.len() as u32
                }
            };
        }
        let list = &mut self.lists[head.spill as usize - 1];
        match list.iter_mut().find(|(p, _)| *p == pred) {
            Some(entry) => entry.1 += 1,
            None => list.push((pred, 1)),
        }
    }

    /// `pred` lost one reference to `target` (nothing when it held none).
    pub(crate) fn remove_one(&mut self, target: u32, pred: u32) {
        self.remove(target, pred, false);
    }

    /// Drops `pred`'s entry from `target` whatever its count (the
    /// predecessor is being collected).
    pub(crate) fn remove_all(&mut self, target: u32, pred: u32) {
        self.remove(target, pred, true);
    }

    fn remove(&mut self, target: u32, pred: u32, all: bool) {
        let mut head = self.heads[target as usize];
        if head.count == 0 {
            return;
        }
        if head.pred == pred {
            if all || head.count == 1 {
                // The sequence's last entry takes the first one's place.
                (head.pred, head.count) = self.pop_spilled(&mut head.spill).unwrap_or((0, 0));
            } else {
                head.count -= 1;
            }
            self.heads[target as usize] = head;
            return;
        }
        if head.spill == 0 {
            return;
        }
        let list = &mut self.lists[head.spill as usize - 1];
        let Some(pos) = list.iter().position(|&(p, _)| p == pred) else {
            return;
        };
        if all || list[pos].1 == 1 {
            list.swap_remove(pos);
            if list.is_empty() {
                self.pool.push(head.spill - 1);
                self.heads[target as usize].spill = 0;
            }
        } else {
            list[pos].1 -= 1;
        }
    }

    /// Pops the last spilled entry, pooling the list once it is empty.
    fn pop_spilled(&mut self, spill: &mut u32) -> Option<(u32, u32)> {
        let index = spill.checked_sub(1)?;
        let list = &mut self.lists[index as usize];
        let last = list.pop();
        if list.is_empty() {
            self.pool.push(index);
            *spill = 0;
        }
        last
    }

    /// Forgets every predecessor of a slot being freed, pooling its list.
    pub(crate) fn clear(&mut self, slot: u32) {
        let head = std::mem::take(&mut self.heads[slot as usize]);
        if let Some(index) = head.spill.checked_sub(1) {
            self.lists[index as usize].clear();
            self.pool.push(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A small seeded generator (xorshift64*), so the run is reproducible
    /// without a dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u32) -> u32 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as u32 % n
        }
    }

    /// The order model: one `Vec` per slot under `push`/`swap_remove`.
    fn vec_remove(list: &mut Vec<(u32, u32)>, pred: u32, all: bool) {
        if let Some(pos) = list.iter().position(|&(p, _)| p == pred) {
            list[pos].1 -= 1;
            if all || list[pos].1 == 0 {
                list.swap_remove(pos);
            }
        }
    }

    /// Every spilled list is either held by exactly one slot or pooled and
    /// empty.
    fn assert_lists_accounted(preds: &Preds) {
        let mut owners = vec![0u32; preds.lists.len()];
        for head in &preds.heads {
            if let Some(index) = head.spill.checked_sub(1) {
                owners[index as usize] += 1;
                assert!(head.count > 0, "a slot with no inline entry spills nothing");
                assert!(!preds.lists[index as usize].is_empty());
            }
        }
        for &index in &preds.pool {
            owners[index as usize] += 1;
            assert!(
                preds.lists[index as usize].is_empty(),
                "pooled lists are empty"
            );
        }
        assert!(
            owners.iter().all(|&n| n == 1),
            "lists leaked or shared: {owners:?}"
        );
    }

    #[test]
    fn the_inline_first_multiset_matches_a_counted_map_and_the_vec_order() {
        const SLOTS: u32 = 24;
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut preds = Preds::default();
            preds.ensure_capacity(SLOTS as usize);
            let mut counted: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            let mut vecs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); SLOTS as usize];
            for _ in 0..2_000 {
                // Few distinct predecessors, so slots spill and shrink back
                // often.
                let (target, pred) = (rng.below(SLOTS), rng.below(6));
                match rng.below(10) {
                    0..=4 => {
                        preds.add(target, pred);
                        *counted.entry((target, pred)).or_default() += 1;
                        let list = &mut vecs[target as usize];
                        match list.iter_mut().find(|(p, _)| *p == pred) {
                            Some(entry) => entry.1 += 1,
                            None => list.push((pred, 1)),
                        }
                    }
                    5..=7 => {
                        preds.remove_one(target, pred);
                        if let Some(count) = counted.get_mut(&(target, pred)) {
                            *count -= 1;
                            if *count == 0 {
                                counted.remove(&(target, pred));
                            }
                        }
                        vec_remove(&mut vecs[target as usize], pred, false);
                    }
                    8 => {
                        preds.remove_all(target, pred);
                        counted.remove(&(target, pred));
                        vec_remove(&mut vecs[target as usize], pred, true);
                    }
                    _ => {
                        // The slot is freed, and later reused from empty.
                        preds.clear(target);
                        counted.retain(|&(t, _), _| t != target);
                        vecs[target as usize].clear();
                        let head = preds.heads[target as usize];
                        assert_eq!((head.count, head.spill), (0, 0), "seed {seed}");
                    }
                }
                for slot in 0..SLOTS {
                    let entries: Vec<_> = preds.entries(slot).collect();
                    assert_eq!(entries, vecs[slot as usize], "seed {seed}, slot {slot}");
                    let model: Vec<_> = counted
                        .range((slot, 0)..=(slot, u32::MAX))
                        .map(|(&(_, p), &count)| (p, count))
                        .collect();
                    let mut sorted = entries;
                    sorted.sort_unstable();
                    assert_eq!(sorted, model, "seed {seed}, slot {slot}");
                }
                assert_lists_accounted(&preds);
            }
            // At most one list per slot is ever live, so the pool bounds the
            // lists however long the churn runs.
            assert!(preds.lists.len() <= SLOTS as usize);
            for slot in 0..SLOTS {
                preds.clear(slot);
            }
            assert_eq!(preds.pool.len(), preds.lists.len(), "seed {seed}");
            assert_lists_accounted(&preds);
        }
    }
}
