//! Mutator operations, scripted scenarios and synthetic workload generators.
//!
//! The GGD algorithm only observes the mutator through the *relevant events*
//! of its computation: operations that create or destroy inter-site paths in
//! the global root graph (§3.1 of the paper). This crate describes mutator
//! computations abstractly — as sequences of [`MutatorOp`]s over symbolically
//! named objects — so that the same workload can be replayed against every
//! collector implemented in this workspace.
//!
//! The [`workloads`] module provides the generators used by the experiments:
//! the paper's running example (Figures 3–5), doubly-linked lists and rings
//! spread over many sites (the §4 Schelvis comparison), inter-site garbage
//! cycles, third-party exchange patterns and seeded random graphs.
//! [`Legality`] is the rule deciding which reference sends a real mutator
//! could perform once some ops of a scenario are skipped or removed.
//!
//! # Example
//!
//! ```
//! use ggd_mutator::{workloads, Step};
//!
//! let scenario = workloads::paper_example();
//! assert!(scenario.steps().iter().any(|s| matches!(s, Step::Settle)));
//! assert_eq!(scenario.site_count(), 4);
//! ```

pub mod generator;
mod legality;
pub mod workloads;

use serde::{Deserialize, Serialize};
use std::fmt;

use ggd_types::SiteId;

pub use legality::Legality;

/// A symbolic object name used by scenarios; the simulator maps names to the
/// concrete [`ggd_types::GlobalAddr`]s chosen at allocation time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ObjName(pub u32);

impl fmt::Display for ObjName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One mutator operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MutatorOp {
    /// Allocate a fresh object `name` on `site`; optionally designate it a
    /// local root.
    Alloc {
        /// Hosting site.
        site: SiteId,
        /// Symbolic name of the new object.
        name: ObjName,
        /// Whether the object is a designated local root.
        local_root: bool,
    },
    /// Add a reference from one local object to another object of the same
    /// site.
    LinkLocal {
        /// Site both objects live on.
        site: SiteId,
        /// Referring object.
        from: ObjName,
        /// Referred-to object.
        to: ObjName,
    },
    /// Remove one reference from `from` to `to` (local or remote).
    Unlink {
        /// Site of the referring object.
        site: SiteId,
        /// Referring object.
        from: ObjName,
        /// Referred-to object.
        to: ObjName,
    },
    /// Send, from `from_site`, a mutator message to `recipient` carrying a
    /// reference to `target`. This is the operation that creates inter-site
    /// edges; when `target` is not local to `from_site` it is a third-party
    /// exchange (§3.4).
    SendRef {
        /// Site performing the send.
        from_site: SiteId,
        /// Object receiving the reference (it will hold it in a slot).
        recipient: ObjName,
        /// Object whose reference is being sent.
        target: ObjName,
    },
    /// Remove `name` from its site's designated local roots.
    DropLocalRoot {
        /// Hosting site.
        site: SiteId,
        /// Object to un-root.
        name: ObjName,
    },
    /// Drop every reference held by `name`.
    ClearRefs {
        /// Hosting site.
        site: SiteId,
        /// Object whose slots are cleared.
        name: ObjName,
    },
    /// Run a local collection on one site.
    CollectSite {
        /// Site to collect.
        site: SiteId,
    },
    /// Run a local collection on every site.
    CollectAll,
}

impl MutatorOp {
    /// The symbolic name this operation defines (only [`MutatorOp::Alloc`]
    /// defines one).
    pub fn defined_name(&self) -> Option<ObjName> {
        match self {
            MutatorOp::Alloc { name, .. } => Some(*name),
            _ => None,
        }
    }

    /// The symbolic names this operation uses; they must all have been
    /// defined by an earlier `Alloc` for the operation to be replayable.
    pub fn used_names(&self) -> Vec<ObjName> {
        match self {
            MutatorOp::Alloc { .. } | MutatorOp::CollectSite { .. } | MutatorOp::CollectAll => {
                Vec::new()
            }
            MutatorOp::LinkLocal { from, to, .. } | MutatorOp::Unlink { from, to, .. } => {
                vec![*from, *to]
            }
            MutatorOp::SendRef {
                recipient, target, ..
            } => vec![*recipient, *target],
            MutatorOp::DropLocalRoot { name, .. } | MutatorOp::ClearRefs { name, .. } => {
                vec![*name]
            }
        }
    }

    /// The sites this operation names explicitly (the hosting sites of the
    /// objects it touches by name are bound at their `Alloc`).
    pub fn sites(&self) -> Vec<SiteId> {
        match self {
            MutatorOp::Alloc { site, .. }
            | MutatorOp::LinkLocal { site, .. }
            | MutatorOp::Unlink { site, .. }
            | MutatorOp::DropLocalRoot { site, .. }
            | MutatorOp::ClearRefs { site, .. }
            | MutatorOp::CollectSite { site } => vec![*site],
            MutatorOp::SendRef { from_site, .. } => vec![*from_site],
            MutatorOp::CollectAll => Vec::new(),
        }
    }
}

/// The kind of fleet change a [`MembershipEvent`] describes. Mirrors the
/// durable `MembershipChange` wire type in `ggd-store`; the simulator maps
/// between the two so this crate stays dependency-light.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MembershipKind {
    /// A fresh site joins the fleet mid-run. Its index must lie at or above
    /// the scenario's founding `site_count`.
    Join,
    /// A site leaves after quiescing: its exported references are re-homed,
    /// its DkLog drained, and survivors retire its vector entries.
    PlannedLeave,
    /// A site is evicted without warning — permanent crash semantics.
    Evict,
}

/// One epoch-stamped membership change in a scenario. Epochs are assigned
/// monotonically by the [`Scenario`] builder helpers, so a scenario's
/// membership schedule is totally ordered even across shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipEvent {
    /// Strictly increasing membership epoch within the scenario.
    pub epoch: u64,
    /// What happens.
    pub kind: MembershipKind,
    /// The site joining, leaving or being evicted.
    pub site: SiteId,
}

/// One step of a scenario: either a mutator operation or a settling point at
/// which the simulator delivers all in-flight messages, runs local
/// collections and lets GGD reach quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Step {
    /// Perform a mutator operation.
    Op(MutatorOp),
    /// Deliver messages, run collections and GGD until quiescent.
    Settle,
    /// Execute an elastic-membership change.
    Membership(MembershipEvent),
}

/// A scripted mutator computation over a fixed number of sites.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Scenario {
    site_count: u32,
    steps: Vec<Step>,
    next_name: u32,
    #[serde(default)]
    next_epoch: u64,
}

impl Scenario {
    /// Creates an empty scenario over `site_count` sites.
    pub fn new(site_count: u32) -> Self {
        Scenario {
            site_count,
            steps: Vec::new(),
            next_name: 0,
            next_epoch: 0,
        }
    }

    /// Rebuilds a scenario from raw steps — the explorer's shrinker uses
    /// this to replay candidate subsets of a failing scenario. The
    /// fresh-name counter resumes above every name the steps define, and
    /// the membership-epoch counter above every epoch they carry.
    pub fn from_steps(site_count: u32, steps: impl IntoIterator<Item = Step>) -> Scenario {
        let steps: Vec<Step> = steps.into_iter().collect();
        let next_name = steps
            .iter()
            .filter_map(|step| match step {
                Step::Op(op) => op.defined_name().map(|n| n.0 + 1),
                Step::Settle | Step::Membership(_) => None,
            })
            .max()
            .unwrap_or(0);
        let next_epoch = steps
            .iter()
            .filter_map(|step| match step {
                Step::Membership(ev) => Some(ev.epoch),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Scenario {
            site_count,
            steps,
            next_name,
            next_epoch,
        }
    }

    /// Number of founding sites the scenario starts with.
    pub fn site_count(&self) -> u32 {
        self.site_count
    }

    /// Number of site slots the scenario can ever use: the founding
    /// `site_count` plus any site indices introduced by `Join` events.
    /// Anything that sizes per-site state up front must be built for this
    /// count.
    pub fn max_site_count(&self) -> u32 {
        self.steps
            .iter()
            .filter_map(|step| match step {
                Step::Membership(ev) if ev.kind == MembershipKind::Join => {
                    Some(ev.site.index() + 1)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
            .max(self.site_count)
    }

    /// True when the scenario contains any membership event.
    pub fn has_membership(&self) -> bool {
        self.steps
            .iter()
            .any(|step| matches!(step, Step::Membership(_)))
    }

    /// True when the scenario evicts a site. Evictions lose in-flight
    /// messages (permanent-crash semantics), so loss-free-only baselines
    /// and cross-checks must be skipped for such scenarios.
    pub fn has_evict(&self) -> bool {
        self.steps.iter().any(|step| {
            matches!(
                step,
                Step::Membership(MembershipEvent {
                    kind: MembershipKind::Evict,
                    ..
                })
            )
        })
    }

    /// The scenario's membership events, in schedule order.
    pub fn membership_events(&self) -> impl Iterator<Item = MembershipEvent> + '_ {
        self.steps.iter().filter_map(|step| match step {
            Step::Membership(ev) => Some(*ev),
            _ => None,
        })
    }

    /// The scripted steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the scenario has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Reserves a fresh symbolic object name.
    pub fn fresh_name(&mut self) -> ObjName {
        let name = ObjName(self.next_name);
        self.next_name += 1;
        name
    }

    /// Appends a raw step.
    pub fn push(&mut self, step: Step) -> &mut Self {
        self.steps.push(step);
        self
    }

    /// Appends an operation step.
    pub fn op(&mut self, op: MutatorOp) -> &mut Self {
        self.push(Step::Op(op))
    }

    /// Appends a settling point.
    pub fn settle(&mut self) -> &mut Self {
        self.push(Step::Settle)
    }

    /// Convenience: allocate a named object.
    pub fn alloc(&mut self, site: SiteId, local_root: bool) -> ObjName {
        let name = self.fresh_name();
        self.op(MutatorOp::Alloc {
            site,
            name,
            local_root,
        });
        name
    }

    fn membership(&mut self, kind: MembershipKind, site: SiteId) -> &mut Self {
        let epoch = self.next_epoch + 1;
        self.next_epoch = epoch;
        self.push(Step::Membership(MembershipEvent { epoch, kind, site }))
    }

    /// Appends a `Join` event: `site` joins the fleet mid-run with a fresh
    /// runtime (and, under a durability config, an empty WAL it logs to
    /// from its first input).
    ///
    /// # Panics
    ///
    /// Panics when `site` is a founding member (`index < site_count`).
    pub fn join(&mut self, site: SiteId) -> &mut Self {
        assert!(
            site.index() >= self.site_count,
            "joining site {site} is already a founding member"
        );
        self.membership(MembershipKind::Join, site)
    }

    /// Appends a `PlannedLeave` event: the cluster quiesces, `site` hands
    /// its references off to the surviving holders and departs; survivors
    /// retire its dependency-vector entries.
    pub fn planned_leave(&mut self, site: SiteId) -> &mut Self {
        self.membership(MembershipKind::PlannedLeave, site)
    }

    /// Appends an `Evict` event: `site` is removed without warning, as a
    /// permanent crash. In-flight messages to it are lost.
    pub fn evict(&mut self, site: SiteId) -> &mut Self {
        self.membership(MembershipKind::Evict, site)
    }

    /// Convenience: send a reference from `from_site` to `recipient`.
    pub fn send_ref(
        &mut self,
        from_site: SiteId,
        recipient: ObjName,
        target: ObjName,
    ) -> &mut Self {
        self.op(MutatorOp::SendRef {
            from_site,
            recipient,
            target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builder_appends_steps() {
        let mut s = Scenario::new(2);
        assert!(s.is_empty());
        let a = s.alloc(SiteId::new(0), true);
        let b = s.alloc(SiteId::new(1), false);
        assert_ne!(a, b);
        s.send_ref(SiteId::new(1), a, b).settle();
        assert_eq!(s.len(), 4);
        assert_eq!(s.site_count(), 2);
        assert!(matches!(s.steps()[3], Step::Settle));
        assert_eq!(a.to_string(), "n0");
    }

    #[test]
    fn membership_builders_stamp_monotonic_epochs() {
        let mut s = Scenario::new(3);
        s.join(SiteId::new(3));
        s.planned_leave(SiteId::new(1));
        s.evict(SiteId::new(0));
        let events: Vec<MembershipEvent> = s.membership_events().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].epoch, 1);
        assert_eq!(events[1].epoch, 2);
        assert_eq!(events[2].epoch, 3);
        assert_eq!(events[0].kind, MembershipKind::Join);
        assert!(s.has_membership());
        assert!(s.has_evict());
        assert_eq!(s.max_site_count(), 4, "join of site 3 widens the fleet");

        // from_steps resumes the epoch counter above the kept events.
        let mut rebuilt = Scenario::from_steps(3, s.steps().to_vec());
        rebuilt.planned_leave(SiteId::new(2));
        let last = rebuilt.membership_events().last().unwrap();
        assert_eq!(last.epoch, 4);
    }

    #[test]
    #[should_panic]
    fn joining_a_founding_member_panics() {
        let mut s = Scenario::new(3);
        s.join(SiteId::new(2));
    }

    #[test]
    fn plain_scenarios_have_no_membership() {
        let mut s = Scenario::new(2);
        s.alloc(SiteId::new(0), true);
        assert!(!s.has_membership());
        assert!(!s.has_evict());
        assert_eq!(s.max_site_count(), 2);
        assert_eq!(s.membership_events().count(), 0);
    }

    #[test]
    fn fresh_names_are_unique() {
        let mut s = Scenario::new(1);
        let names: Vec<ObjName> = (0..10).map(|_| s.fresh_name()).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped);
    }
}
