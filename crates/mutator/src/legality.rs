//! The one mutator-legality rule: which `SendRef`s a real mutator could
//! perform.
//!
//! A scenario is a legal computation only if every send forwards a
//! reference its sender actually holds, to an object a message can be
//! addressed to. Generated scenarios are legal as built, but skipping ops —
//! a driver skipping those of a crashed or departed site, the explorer's
//! shrinker removing steps — can break the causal chain that made a later
//! send legal. The drive loop of `ggd-sim` and the explorer's `sanitize`
//! pass both judge sends with [`Legality`], so a shrunk scenario replays
//! exactly the sends the drivers would execute.

use std::collections::{BTreeMap, BTreeSet};

use ggd_types::SiteId;

use crate::ObjName;

/// Monotone legality state: `holders[name]` is the set of sites that have
/// legally held `name`'s reference, `anchored` the set of objects a mutator
/// message can legally be addressed to (local roots, and targets of an
/// approved send). Both only grow.
#[derive(Debug, Default)]
pub struct Legality {
    holders: BTreeMap<ObjName, BTreeSet<SiteId>>,
    anchored: BTreeSet<ObjName>,
}

impl Legality {
    /// Records an `Alloc` that ran: `site` holds `name`, and a local root
    /// makes it addressable.
    pub fn note_alloc(&mut self, name: ObjName, site: SiteId, local_root: bool) {
        self.holders.entry(name).or_default().insert(site);
        if local_root {
            self.anchored.insert(name);
        }
    }

    /// Judges a `SendRef` from `from_site` of `target` to `recipient`
    /// (hosted by `recipient_site`) and, when legal, records its effects:
    /// the sender must hold the target's reference, and the recipient must
    /// be addressable.
    ///
    /// Holding is recorded at *send* time, as the generator's own
    /// forwarders model does: a transfer lost en route — to a drop plan or
    /// to a crashed inbox — still legalizes later forwards, because the
    /// sender legitimately performed the send and message loss is squarely
    /// inside the collectors' fault contract (the export registered the
    /// target as a global root, so a forwarded-but-never-received reference
    /// can only add conservatism, never an unsafe free).
    pub fn approve_send(
        &mut self,
        target: ObjName,
        from_site: SiteId,
        recipient: ObjName,
        recipient_site: SiteId,
    ) -> bool {
        let sender_holds = self
            .holders
            .get(&target)
            .is_some_and(|sites| sites.contains(&from_site));
        if !sender_holds || !self.anchored.contains(&recipient) {
            return false;
        }
        self.anchored.insert(target);
        self.holders
            .entry(target)
            .or_default()
            .insert(recipient_site);
        true
    }
}
