//! The object-lifecycle ledger: per-object
//! allocation → unreachable → detected → reclaimed timestamps, recorded for
//! every object and folded into detection-latency histograms.
//!
//! This is the paper's metric — how long garbage survives between becoming
//! unreachable and being detected/reclaimed — measured per object instead of
//! once per run. All four timestamps are logical steps:
//!
//! * `allocated` — the step of the `Alloc` scenario op (always known).
//! * `unreachable` — the first step at which the safety oracle observed the
//!   object globally unreachable. Only recorded when the oracle runs
//!   (either driver, with `safety_oracle` on); `None` otherwise, because
//!   computing it without the oracle would require a global scan per step.
//! * `detected` — the step the object's *global-root* verdict was applied
//!   (the collector proved it unreachable from every remote site). `None`
//!   for objects that were never global roots.
//! * `reclaimed` — the step a local collection actually freed it.
//!
//! The ledger is keyed by [`GlobalAddr`], so merging per-site ledgers and
//! rendering are canonical.

use crate::registry::Histogram;
use ggd_types::GlobalAddr;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Dense lifecycle slots for one site's objects. Slot `i` holds the object
/// with index `i`.
type Page = Vec<Option<Lifecycle>>;

/// Lifecycle timestamps of one object, in logical steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lifecycle {
    /// Step of allocation.
    pub allocated: u64,
    /// First step the safety oracle saw the object unreachable, when known.
    pub unreachable: Option<u64>,
    /// Step the collector's garbage verdict was applied, when one was.
    pub detected: Option<u64>,
    /// Step a local collection freed the object, when one did.
    pub reclaimed: Option<u64>,
}

/// Per-site lifecycle ledger (merged across sites at report time).
///
/// Storage is a dense page per site rather than a map keyed by address:
/// object indices are allocation-sequential, so the record calls on the
/// mutation hot path are O(1) vector writes. The address order the
/// renderers need falls out of iterating sites ascending, slots ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ledger {
    pages: BTreeMap<u32, Page>,
    /// Count of occupied slots across all pages.
    len: usize,
}

/// Slot of an address within its site's page.
fn slot(addr: GlobalAddr) -> usize {
    usize::try_from(addr.object().index()).unwrap_or(usize::MAX)
}

impl Ledger {
    fn entry_mut(&mut self, addr: GlobalAddr) -> Option<&mut Lifecycle> {
        self.pages
            .get_mut(&addr.site().index())?
            .get_mut(slot(addr))?
            .as_mut()
    }

    /// Records an allocation at `step`.
    pub fn on_alloc(&mut self, addr: GlobalAddr, step: u64) {
        let slot = slot(addr);
        let page = self.pages.entry(addr.site().index()).or_default();
        if page.len() <= slot {
            page.resize(slot + 1, None);
        }
        if page[slot].is_none() {
            page[slot] = Some(Lifecycle {
                allocated: step,
                ..Lifecycle::default()
            });
            self.len += 1;
        }
    }

    /// Records the first oracle sighting of `addr` as unreachable.
    pub fn mark_unreachable(&mut self, addr: GlobalAddr, step: u64) {
        if let Some(entry) = self.entry_mut(addr) {
            entry.unreachable.get_or_insert(step);
        }
    }

    /// Records the application of a garbage verdict for `addr`.
    pub fn on_detected(&mut self, addr: GlobalAddr, step: u64) {
        if let Some(entry) = self.entry_mut(addr) {
            entry.detected.get_or_insert(step);
        }
    }

    /// Records the local collection that freed `addr`.
    pub fn on_reclaimed(&mut self, addr: GlobalAddr, step: u64) {
        if let Some(entry) = self.entry_mut(addr) {
            entry.reclaimed.get_or_insert(step);
        }
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates entries in address order.
    pub fn iter(&self) -> impl Iterator<Item = (GlobalAddr, &Lifecycle)> {
        self.pages.iter().flat_map(|(&site, page)| {
            page.iter().enumerate().filter_map(move |(slot, entry)| {
                entry
                    .as_ref()
                    .map(|lifecycle| (GlobalAddr::new(site, slot as u64), lifecycle))
            })
        })
    }

    /// Merges another ledger (disjoint address spaces: each site ledgers its
    /// own objects, so collisions keep the earliest timestamps defensively).
    pub fn absorb(&mut self, other: &Ledger) {
        for (addr, &lifecycle) in other.iter() {
            let slot = slot(addr);
            let page = self.pages.entry(addr.site().index()).or_default();
            if page.len() <= slot {
                page.resize(slot + 1, None);
            }
            if page[slot].is_none() {
                page[slot] = Some(lifecycle);
                self.len += 1;
            }
        }
    }

    /// Folds the ledger into the three latency histograms:
    /// `(detection, reclaim_lag, lifetime)` where detection is
    /// unreachable→detected (oracle runs only), reclaim lag is
    /// detected→reclaimed, and lifetime is allocated→reclaimed.
    pub fn latency_histograms(&self) -> (Histogram, Histogram, Histogram) {
        let mut detection = Histogram::default();
        let mut reclaim_lag = Histogram::default();
        let mut lifetime = Histogram::default();
        for entry in self.pages.values().flatten().flatten() {
            if let (Some(unreachable), Some(detected)) = (entry.unreachable, entry.detected) {
                detection.observe(detected.saturating_sub(unreachable));
            }
            if let (Some(detected), Some(reclaimed)) = (entry.detected, entry.reclaimed) {
                reclaim_lag.observe(reclaimed.saturating_sub(detected));
            }
            if let Some(reclaimed) = entry.reclaimed {
                lifetime.observe(reclaimed.saturating_sub(entry.allocated));
            }
        }
        (detection, reclaim_lag, lifetime)
    }

    /// Renders each entry as one JSONL object line (no header), in address
    /// order. Unknown timestamps render as `null`. The `unreachable`
    /// timestamp exists only when the safety oracle ran (sequential driver),
    /// so the deterministic trace view omits the field entirely
    /// (`include_unreachable: false`).
    pub fn render_jsonl_into(&self, include_unreachable: bool, out: &mut String) {
        fn opt(out: &mut String, name: &str, value: Option<u64>) {
            match value {
                Some(v) => {
                    let _ = write!(out, ",\"{name}\":{v}");
                }
                None => {
                    let _ = write!(out, ",\"{name}\":null");
                }
            }
        }
        for (addr, entry) in self.iter() {
            let _ = write!(
                out,
                "{{\"t\":\"object\",\"addr\":\"{addr}\",\"alloc\":{}",
                entry.allocated
            );
            if include_unreachable {
                opt(out, "unreachable", entry.unreachable);
            }
            opt(out, "detected", entry.detected);
            opt(out, "reclaimed", entry.reclaimed);
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_full_lifecycle() {
        let mut ledger = Ledger::default();
        let addr = GlobalAddr::new(1, 4);
        ledger.on_alloc(addr, 2);
        ledger.mark_unreachable(addr, 5);
        ledger.on_detected(addr, 7);
        ledger.on_reclaimed(addr, 9);
        let entry = *ledger.iter().next().unwrap().1;
        assert_eq!(entry.allocated, 2);
        assert_eq!(entry.unreachable, Some(5));
        assert_eq!(entry.detected, Some(7));
        assert_eq!(entry.reclaimed, Some(9));
        let (detection, reclaim_lag, lifetime) = ledger.latency_histograms();
        assert_eq!(detection.sum, 2);
        assert_eq!(reclaim_lag.sum, 2);
        assert_eq!(lifetime.sum, 7);
    }

    #[test]
    fn first_timestamp_wins() {
        let mut ledger = Ledger::default();
        let addr = GlobalAddr::new(0, 0);
        ledger.on_alloc(addr, 1);
        ledger.mark_unreachable(addr, 3);
        ledger.mark_unreachable(addr, 8);
        assert_eq!(ledger.iter().next().unwrap().1.unreachable, Some(3));
    }

    #[test]
    fn untracked_objects_are_ignored() {
        let mut ledger = Ledger::default();
        ledger.mark_unreachable(GlobalAddr::new(0, 2), 1);
        ledger.on_detected(GlobalAddr::new(0, 2), 1);
        ledger.on_reclaimed(GlobalAddr::new(0, 2), 1);
        assert!(ledger.is_empty()); // never allocated through the ledger
    }

    #[test]
    fn jsonl_rendering_is_canonical() {
        let mut ledger = Ledger::default();
        ledger.on_alloc(GlobalAddr::new(1, 1), 2);
        ledger.on_reclaimed(GlobalAddr::new(1, 1), 4);
        let mut out = String::new();
        ledger.render_jsonl_into(true, &mut out);
        assert_eq!(
            out,
            "{\"t\":\"object\",\"addr\":\"s1/o1\",\"alloc\":2,\"unreachable\":null,\"detected\":null,\"reclaimed\":4}\n"
        );
        let mut det = String::new();
        ledger.render_jsonl_into(false, &mut det);
        assert_eq!(
            det,
            "{\"t\":\"object\",\"addr\":\"s1/o1\",\"alloc\":2,\"detected\":null,\"reclaimed\":4}\n"
        );
    }
}
