//! A deliberately broken collector that validates the oracle end-to-end.

use std::collections::BTreeSet;

use ggd_causal::CausalMessage;
use ggd_heap::{EdgeDelta, ReachabilitySnapshot};
use ggd_sim::{CausalCollector, Collector};
use ggd_types::{GlobalAddr, SiteId};

/// Wraps the causal collector and, once armed, forges verdicts demoting
/// global roots that are *not* proven unreachable — the "unsafe sweep" a
/// buggy collector could commit. The differential oracle must flag every
/// resulting premature free as a safety violation, and the shrinker must
/// reduce the triple to a minimal reproducer; the explorer's self-test mode
/// (`explore --self-test`) and the crate's tests assert both.
///
/// The sabotage is deterministic: after `arm_after` snapshot applications,
/// every [`Collector::take_verdicts`] call additionally forges a verdict
/// for the first not-locally-rooted global root of the latest snapshot that
/// has not been forged before.
#[derive(Debug, Clone)]
pub struct SaboteurCollector {
    site: SiteId,
    inner: CausalCollector,
    arm_after: u32,
    snapshots_seen: u32,
    candidate: Option<GlobalAddr>,
    forged: BTreeSet<GlobalAddr>,
}

impl SaboteurCollector {
    /// Creates the sabotaged collector for `site`, arming after
    /// `arm_after` snapshots.
    pub fn new(site: SiteId, arm_after: u32) -> Self {
        SaboteurCollector {
            site,
            inner: CausalCollector::new(site),
            arm_after,
            snapshots_seen: 0,
            candidate: None,
            forged: BTreeSet::new(),
        }
    }

    /// A global root that is not locally rooted stays alive only through
    /// remote references — demoting it without proof is exactly the unsafe
    /// sweep the oracle exists to catch.
    fn observe(&mut self, snapshot: &ReachabilitySnapshot) {
        self.snapshots_seen += 1;
        self.candidate = snapshot
            .global_roots()
            .filter(|&id| !snapshot.is_locally_rooted(id))
            .map(|id| GlobalAddr::from_parts(self.site, id))
            .find(|addr| !self.forged.contains(addr));
    }
}

impl Collector for SaboteurCollector {
    type Msg = CausalMessage;

    fn name(&self) -> &'static str {
        "sabotaged-causal"
    }

    fn on_export(&mut self, exported: GlobalAddr, recipient: GlobalAddr) {
        self.inner.on_export(exported, recipient);
    }

    fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        self.inner.on_third_party_send(target, recipient);
    }

    fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        self.inner.on_receive_ref(recipient, target);
    }

    fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        self.observe(snapshot);
        self.inner.apply_snapshot(snapshot);
    }

    fn apply_delta(&mut self, delta: &EdgeDelta, snapshot: &ReachabilitySnapshot) {
        self.observe(snapshot);
        self.inner.apply_delta(delta, snapshot);
    }

    fn needs_every_sync(&self) -> bool {
        // Arming is keyed to the number of syncs observed, empty-delta ones
        // included; skipping those would move the sabotage schedule, and
        // with it the shrunk reproducers the self-test goldens pin.
        true
    }

    fn on_message(&mut self, from: SiteId, message: Self::Msg) {
        self.inner.on_message(from, message);
    }

    fn on_membership(&mut self, ann: &ggd_sim::MembershipAnnouncement) {
        self.inner.on_membership(ann);
    }

    fn mentions_site(&self, site: SiteId) -> bool {
        self.inner.mentions_site(site)
    }

    fn take_outgoing(&mut self) -> Vec<(SiteId, Self::Msg)> {
        self.inner.take_outgoing()
    }

    fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        let mut verdicts = self.inner.take_verdicts();
        if self.snapshots_seen >= self.arm_after {
            if let Some(addr) = self.candidate.take() {
                if self.forged.insert(addr) {
                    verdicts.push(addr);
                }
            }
        }
        verdicts
    }
}
