//! Planning: scenario steps in, shard commands out.
//!
//! The [`Planner`] holds every decision a driver makes *about* the sites
//! without touching one: which address a symbolic name resolves to, whether
//! an op can run at all (its site is down, or it names an object of a site
//! that left), whether a `SendRef` is still a legal computation after
//! earlier skips, when the crash schedule takes a site down or brings it
//! back, and which steps each membership protocol consists of. It is pure
//! state — no runtime, no transport, no thread — so its output is a
//! function of `(scenario, crash schedule)` alone and the same under every
//! scheduler. What it emits, a [`Shard`](crate::shard::Shard) executes.

use std::collections::BTreeSet;

use ggd_mutator::{Legality, MembershipEvent, MembershipKind, MutatorOp, ObjName};
use ggd_store::{MembershipAnnouncement, MembershipChange};
use ggd_types::{GlobalAddr, ObjectId, SiteId};

/// A mutator op with every name resolved to an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteOp {
    /// `expect` is the address the planner predicted; the site's heap must
    /// agree or name resolution has diverged.
    Alloc {
        local_root: bool,
        expect: GlobalAddr,
    },
    LinkLocal {
        from: GlobalAddr,
        to: GlobalAddr,
    },
    Unlink {
        from: GlobalAddr,
        to: GlobalAddr,
    },
    ClearRefs {
        addr: GlobalAddr,
    },
    DropLocalRoot {
        addr: GlobalAddr,
    },
    /// Export + wire send (or the immediate local receive for a same-site
    /// recipient).
    SendRef {
        target: GlobalAddr,
        recipient: GlobalAddr,
    },
    Collect,
}

/// One instruction to the shard.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ShardCommand {
    /// A resolved mutator op on a site that is up.
    Op(SiteId, SiteOp),
    /// Run a local collection on every site that is up.
    CollectAll,
    /// Tear the site's volatile runtime down, keeping its durable store.
    Crash(SiteId),
    /// Rebuild the site from its durable store.
    Recover(SiteId),
    /// Bring a fresh site up mid-run, caught up on the membership history.
    Join {
        site: SiteId,
        history: Vec<MembershipAnnouncement>,
    },
    /// Every survivor severs its references towards `departing` (the
    /// reference-handoff half of a planned leave).
    Handoff { departing: SiteId, epoch: u64 },
    /// Dissolve a site that completed its planned leave.
    Remove(SiteId),
    /// Evict a site without ceremony, keeping its heap for the oracle.
    Evict(SiteId),
    /// Apply one membership announcement on every site (deferred to
    /// recovery for sites currently down).
    Announce(MembershipAnnouncement),
}

/// One phase of a membership protocol's script.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Quiesce: deliver everything in flight, collecting between rounds.
    Settle,
    /// Hand the command to the shard.
    Run(ShardCommand),
    /// Record a deterministic cluster-scope trace event.
    Event(&'static str, Vec<(&'static str, u64)>),
}

/// Stable numeric code for a membership change in trace-event fields
/// (events carry `u64` fields only).
fn membership_kind_code(kind: MembershipChange) -> u64 {
    match kind {
        MembershipChange::Join => 0,
        MembershipChange::PlannedLeave => 1,
        MembershipChange::Evict => 2,
    }
}

/// The slot for `index` in a dense table, growing the table (with default
/// entries) to reach it.
pub(crate) fn slot<T: Default>(table: &mut Vec<T>, index: usize) -> &mut T {
    if index >= table.len() {
        table.resize_with(index + 1, T::default);
    }
    &mut table[index]
}

/// What the planner knows of one site: whether it is a member of the fleet,
/// and whether it is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum SiteStatus {
    /// Not a member: a site beyond the founding ones that has not joined.
    #[default]
    Absent,
    /// A member that is up.
    Up,
    /// A member that crashed; it restarts once the transport clock reaches
    /// the time given. It is still a member: it comes back.
    Down(u64),
    /// Gone through a planned leave: its objects and references dissolved
    /// with it, and no trace of it may survive anywhere.
    Departed,
    /// Evicted without warning (the shard keeps its last heap).
    Evicted,
}

impl SiteStatus {
    fn is_member(self) -> bool {
        matches!(self, SiteStatus::Up | SiteStatus::Down(_))
    }

    /// True when the site permanently left the fleet.
    fn is_gone(self) -> bool {
        matches!(self, SiteStatus::Departed | SiteStatus::Evicted)
    }
}

/// The pure half of a drive loop — see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Planner {
    /// The address each object name was allocated at, indexed by
    /// `ObjName.0`: names are dense by construction (`Scenario::fresh_name`
    /// counts up from 0), so resolving one is an index, not a search. `None`
    /// — like an index past the end — for a name whose `Alloc` has not run
    /// or was skipped.
    names: Vec<Option<GlobalAddr>>,
    /// Objects allocated so far per site, indexed by `SiteId::index()`.
    /// `SiteHeap` hands out ids 1, 2, … in allocation order and recovery
    /// replay preserves the counter, so the next `Alloc`'s address is known
    /// without asking the site (the shard asserts the prediction).
    allocated: Vec<u64>,
    /// Mutator-legality tracking, maintained only under crash plans and
    /// membership schedules: which sites hold (a copy of) each named
    /// object's reference, and which objects are addressable (local roots,
    /// or targets of an executed send). When an op is skipped, later ops
    /// that causally depended on it are skipped too — otherwise a `SendRef`
    /// could forward a reference its sender never held, an illegal
    /// computation outside every collector's safety contract.
    legality: Option<Legality>,
    /// Every site's status, indexed by `SiteId::index()`; a site past the
    /// end is `Absent`. The planner's only record of membership and
    /// liveness: the founding sites start `Up`, and joins, crashes,
    /// recoveries and departures move them.
    sites: Vec<SiteStatus>,
    /// How many entries of `sites` are `Down`, so that `lifecycle` with
    /// nothing scheduled reads one number instead of the table.
    down: usize,
    /// Crash windows that have not opened yet, as `(site, at, restart_after)`
    /// in transport time and schedule order.
    crashes: Vec<(SiteId, u64, u64)>,
    /// Every membership announcement so far, in epoch order — late joiners
    /// catch up on it before applying their own join.
    membership_log: Vec<MembershipAnnouncement>,
}

impl Planner {
    /// A planner for `sites` founding sites under a crash schedule of
    /// `(site, at, restart_after)` windows in transport time.
    pub(crate) fn new(sites: u32, crashes: Vec<(SiteId, u64, u64)>) -> Self {
        Planner {
            legality: (!crashes.is_empty()).then(Legality::default),
            sites: vec![SiteStatus::Up; sites as usize],
            crashes,
            ..Planner::default()
        }
    }

    /// Turns legality tracking on. Departures skip ops exactly like crash
    /// windows do, and the skips can break causal send chains, so scenarios
    /// with a membership schedule need it too.
    pub(crate) fn track_legality(&mut self) {
        self.legality.get_or_insert_with(Legality::default);
    }

    /// The address allocated for a symbolic object name, if it exists yet.
    pub(crate) fn addr_of(&self, name: ObjName) -> Option<GlobalAddr> {
        self.names.get(name.0 as usize).copied().flatten()
    }

    fn status(&self, site: SiteId) -> SiteStatus {
        let entry = self.sites.get(site.index() as usize);
        entry.copied().unwrap_or_default()
    }

    /// Moves `site` to `status`, keeping the count of downed sites.
    fn set_status(&mut self, site: SiteId, status: SiteStatus) {
        let entry = slot(&mut self.sites, site.index() as usize);
        self.down -= usize::from(matches!(*entry, SiteStatus::Down(_)));
        self.down += usize::from(matches!(status, SiteStatus::Down(_)));
        *entry = status;
    }

    /// The sites whose status matches, in ascending `SiteId`.
    fn sites_where(&self, pick: impl Fn(SiteStatus) -> bool) -> BTreeSet<SiteId> {
        let entries = self.sites.iter().enumerate();
        entries
            .filter(|&(_, &status)| pick(status))
            .map(|(index, _)| SiteId::new(index as u32))
            .collect()
    }

    /// True when `site` is a member of the fleet, up or down.
    pub(crate) fn is_member(&self, site: SiteId) -> bool {
        self.status(site).is_member()
    }

    /// Current expected membership: founding sites, plus joins, minus
    /// departures. Crashed sites stay members (they come back).
    pub(crate) fn membership(&self) -> BTreeSet<SiteId> {
        self.sites_where(SiteStatus::is_member)
    }

    /// Sites gone through a planned leave.
    pub(crate) fn departed(&self) -> BTreeSet<SiteId> {
        self.sites_where(|status| status == SiteStatus::Departed)
    }

    fn site_is_up(&self, site: SiteId) -> bool {
        self.status(site) == SiteStatus::Up
    }

    /// Resolves `name` for an op running on `site`. `None` — skip the op —
    /// when the name's `Alloc` was itself skipped, when `site` is down (the
    /// mutator process died with its site), or when the object is hosted by
    /// a site that has permanently left the fleet.
    fn resolve(&self, site: SiteId, name: ObjName) -> Option<GlobalAddr> {
        let addr = self.addr_of(name)?;
        (self.site_is_up(site) && !self.status(addr.site()).is_gone()).then_some(addr)
    }

    /// Resolves one mutator op into the command that executes it, or `None`
    /// when the op is skipped. The skip pattern is a pure function of
    /// `(scenario, crash schedule)`, so replay determinism is preserved.
    pub(crate) fn plan_op(&mut self, op: MutatorOp) -> Option<ShardCommand> {
        let (site, op) = match op {
            MutatorOp::Alloc {
                site,
                name,
                local_root,
            } => {
                if !self.site_is_up(site) {
                    return None;
                }
                let count = slot(&mut self.allocated, site.index() as usize);
                *count += 1;
                let expect = GlobalAddr::from_parts(site, ObjectId::new(*count));
                // A repeated Alloc of a name rebinds it.
                *slot(&mut self.names, name.0 as usize) = Some(expect);
                if let Some(legality) = &mut self.legality {
                    legality.note_alloc(name, site, local_root);
                }
                (site, SiteOp::Alloc { local_root, expect })
            }
            MutatorOp::LinkLocal { site, from, to } => {
                let (from, to) = (self.resolve(site, from)?, self.resolve(site, to)?);
                (site, SiteOp::LinkLocal { from, to })
            }
            MutatorOp::Unlink { site, from, to } => {
                let (from, to) = (self.resolve(site, from)?, self.resolve(site, to)?);
                (site, SiteOp::Unlink { from, to })
            }
            MutatorOp::SendRef {
                from_site,
                recipient,
                target,
            } => {
                let recipient_addr = self.resolve(from_site, recipient)?;
                let target_addr = self.resolve(from_site, target)?;
                if let Some(legality) = &mut self.legality {
                    if !legality.approve_send(target, from_site, recipient, recipient_addr.site()) {
                        return None;
                    }
                }
                let op = SiteOp::SendRef {
                    target: target_addr,
                    recipient: recipient_addr,
                };
                (from_site, op)
            }
            MutatorOp::DropLocalRoot { site, name } => {
                let addr = self.resolve(site, name)?;
                (site, SiteOp::DropLocalRoot { addr })
            }
            MutatorOp::ClearRefs { site, name } => {
                let addr = self.resolve(site, name)?;
                (site, SiteOp::ClearRefs { addr })
            }
            MutatorOp::CollectSite { site } => {
                if !self.site_is_up(site) {
                    return None;
                }
                (site, SiteOp::Collect)
            }
            MutatorOp::CollectAll => return Some(ShardCommand::CollectAll),
        };
        Some(ShardCommand::Op(site, op))
    }

    /// Applies the crash schedule against a reading of the transport clock:
    /// a `Crash` for every window now due, a `Recover` for every site whose
    /// window has closed.
    #[inline] // per op and per delivery: the nothing-scheduled case must cost a branch
    pub(crate) fn lifecycle(&mut self, now: u64) -> Vec<ShardCommand> {
        let mut commands = Vec::new();
        if self.crashes.is_empty() && self.down == 0 {
            return commands;
        }
        let opening = |&(_, at, _): &(SiteId, u64, u64)| at <= now;
        let opened: Vec<_> = self.crashes.iter().copied().filter(opening).collect();
        self.crashes.retain(|window| !opening(window));
        for (site, _, restart_after) in opened {
            commands.extend(self.crash(site, restart_after));
        }
        let due = self.sites_where(|status| matches!(status, SiteStatus::Down(at) if at <= now));
        commands.extend(due.into_iter().filter_map(|site| self.recover(site)));
        commands
    }

    /// Takes `site` down until `restart_after`. A site already down merely
    /// has its restart time extended (overlapping windows); a site that is
    /// not a member has nothing to crash.
    pub(crate) fn crash(&mut self, site: SiteId, restart_after: u64) -> Option<ShardCommand> {
        match self.status(site) {
            SiteStatus::Down(restart) => {
                self.set_status(site, SiteStatus::Down(restart.max(restart_after)));
                None
            }
            SiteStatus::Up => {
                self.set_status(site, SiteStatus::Down(restart_after));
                Some(ShardCommand::Crash(site))
            }
            _ => None,
        }
    }

    /// Brings `site` back if it is down.
    pub(crate) fn recover(&mut self, site: SiteId) -> Option<ShardCommand> {
        let SiteStatus::Down(_) = self.status(site) else {
            return None;
        };
        self.set_status(site, SiteStatus::Up);
        Some(ShardCommand::Recover(site))
    }

    /// Brings every downed site back immediately, regardless of its
    /// scheduled restart time (end-of-run completion).
    pub(crate) fn recover_all(&mut self) -> Vec<ShardCommand> {
        let downed = self.sites_where(|status| matches!(status, SiteStatus::Down(_)));
        downed
            .into_iter()
            .filter_map(|site| self.recover(site))
            .collect()
    }

    /// The script of one epoch-stamped membership event — empty when the
    /// event no longer describes a fleet change (a join of a site that is
    /// or ever was a member, a departure of a non-member).
    ///
    /// *Join*: a fresh site comes up (durably, when the cluster runs with
    /// durability: it WAL-logs from its very first input), catches up on
    /// the membership history, and the fleet is told.
    ///
    /// *Planned leave*: quiesce, so the departing site's DkLog drains; every
    /// survivor performs the reference handoff (severing its references
    /// towards the departing site, durably recorded); quiesce again; the
    /// departing site dissolves; the announcement lets every survivor retire
    /// the departed site's `DependencyVector`/`RootedVector` entries. After
    /// this, no reference to the departed site survives anywhere — the
    /// membership oracle (`sites_mentioning`) pins that. Once its leave has
    /// begun the site is out of the crash schedule.
    ///
    /// *Evict*: unplanned and permanent — no quiesce, no handoff, and a
    /// site that is down is evicted as it lies, without recovery. The
    /// evicted site's heap is kept for the oracle (its objects
    /// conservatively still exist); collectors stay conservative, so
    /// whatever it pinned becomes residual garbage, never a wrong verdict.
    pub(crate) fn plan_membership(&mut self, ev: MembershipEvent) -> Vec<Phase> {
        let site = ev.site;
        let mut script = Vec::new();
        let kind = match ev.kind {
            MembershipKind::Join => {
                if self.status(site) != SiteStatus::Absent {
                    return script;
                }
                self.set_status(site, SiteStatus::Up);
                let history = self.membership_log.clone();
                script.push(Phase::Run(ShardCommand::Join { site, history }));
                MembershipChange::Join
            }
            MembershipKind::PlannedLeave => {
                if !self.is_member(site) {
                    return script;
                }
                // A crashed site can still leave in an orderly fashion:
                // recover its durable state first, then hand off.
                script.extend(self.recover(site).map(Phase::Run));
                script.push(Phase::Settle);
                script.push(Phase::Event(
                    "handoff",
                    vec![("epoch", ev.epoch), ("departing", u64::from(site.index()))],
                ));
                script.push(Phase::Run(ShardCommand::Handoff {
                    departing: site,
                    epoch: ev.epoch,
                }));
                script.push(Phase::Settle);
                self.set_status(site, SiteStatus::Departed);
                script.push(Phase::Run(ShardCommand::Remove(site)));
                MembershipChange::PlannedLeave
            }
            MembershipKind::Evict => {
                if !self.is_member(site) {
                    return script;
                }
                self.set_status(site, SiteStatus::Evicted);
                script.push(Phase::Run(ShardCommand::Evict(site)));
                MembershipChange::Evict
            }
        };
        // Record the announcement in the history and tell the fleet.
        let ann = MembershipAnnouncement {
            epoch: ev.epoch,
            kind,
            site,
        };
        self.membership_log.push(ann);
        script.push(Phase::Event(
            "membership",
            vec![
                ("epoch", ann.epoch),
                ("site", u64::from(ann.site.index())),
                ("kind", membership_kind_code(ann.kind)),
            ],
        ));
        script.push(Phase::Run(ShardCommand::Announce(ann)));
        script.push(Phase::Settle);
        script
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S0: SiteId = SiteId::new(0);
    const S1: SiteId = SiteId::new(1);
    const S2: SiteId = SiteId::new(2);

    fn alloc(planner: &mut Planner, site: SiteId, name: u32) -> Option<GlobalAddr> {
        let op = MutatorOp::Alloc {
            site,
            name: ObjName(name),
            local_root: true,
        };
        match planner.plan_op(op)? {
            ShardCommand::Op(on, SiteOp::Alloc { expect, .. }) => {
                assert_eq!(on, site);
                Some(expect)
            }
            other => panic!("an Alloc plans an Alloc, got {other:?}"),
        }
    }

    /// The `n`th object allocated on `site`.
    fn id(site: SiteId, n: u64) -> GlobalAddr {
        GlobalAddr::from_parts(site, ObjectId::new(n))
    }

    fn send(from_site: SiteId, recipient: u32, target: u32) -> MutatorOp {
        MutatorOp::SendRef {
            from_site,
            recipient: ObjName(recipient),
            target: ObjName(target),
        }
    }

    fn event(kind: MembershipKind, site: SiteId, epoch: u64) -> MembershipEvent {
        MembershipEvent { epoch, kind, site }
    }

    /// The commands of a script, in order, with the settles between them
    /// shown as `None`.
    fn outline(script: &[Phase]) -> Vec<Option<&ShardCommand>> {
        script
            .iter()
            .filter_map(|phase| match phase {
                Phase::Settle => Some(None),
                Phase::Run(command) => Some(Some(command)),
                Phase::Event(..) => None,
            })
            .collect()
    }

    #[test]
    fn an_op_on_a_downed_site_is_skipped_and_breaks_the_send_chain_behind_it() {
        let mut planner = Planner::new(3, vec![(S1, 5, 9)]);
        let a = alloc(&mut planner, S0, 0).expect("site 0 is up");
        let b = alloc(&mut planner, S1, 1).expect("site 1 is up");
        let c = alloc(&mut planner, S2, 2).expect("site 2 is up");
        assert_eq!(planner.lifecycle(5), vec![ShardCommand::Crash(S1)]);
        // Site 1 would have handed `b` to `a`, but it is down: the send and
        // an Alloc are skipped.
        assert_eq!(planner.plan_op(send(S1, 0, 1)), None);
        assert_eq!(alloc(&mut planner, S1, 3), None);
        assert_eq!(planner.lifecycle(9), vec![ShardCommand::Recover(S1)]);
        // Every site is up again, yet site 0 may not forward `b`: it never
        // received it. The skipped name never resolves either.
        assert_eq!(planner.plan_op(send(S0, 2, 1)), None);
        let link = MutatorOp::LinkLocal {
            site: S1,
            from: ObjName(1),
            to: ObjName(3),
        };
        assert_eq!(planner.plan_op(link), None);
        // Once the hand-over does happen, the forward is legal.
        let hand_over = SiteOp::SendRef {
            target: b,
            recipient: a,
        };
        assert_eq!(
            planner.plan_op(send(S1, 0, 1)),
            Some(ShardCommand::Op(S1, hand_over))
        );
        let forward = SiteOp::SendRef {
            target: b,
            recipient: c,
        };
        assert_eq!(
            planner.plan_op(send(S0, 2, 1)),
            Some(ShardCommand::Op(S0, forward))
        );
    }

    #[test]
    fn ops_naming_objects_of_departed_or_evicted_sites_are_skipped() {
        let mut planner = Planner::new(3, Vec::new());
        planner.track_legality();
        alloc(&mut planner, S0, 0);
        alloc(&mut planner, S1, 1);
        alloc(&mut planner, S2, 2);
        assert!(planner.plan_op(send(S1, 0, 1)).is_some());
        assert!(planner.plan_op(send(S2, 0, 2)).is_some());
        assert!(!planner
            .plan_membership(event(MembershipKind::PlannedLeave, S1, 1))
            .is_empty());
        assert!(!planner
            .plan_membership(event(MembershipKind::Evict, S2, 2))
            .is_empty());
        for gone in [1, 2] {
            let unlink = MutatorOp::Unlink {
                site: S0,
                from: ObjName(0),
                to: ObjName(gone),
            };
            assert_eq!(planner.plan_op(unlink), None);
            assert_eq!(planner.plan_op(send(S0, 0, gone)), None);
        }
        // Ops on the sites themselves are skipped too.
        assert_eq!(alloc(&mut planner, S1, 3), None);
        assert_eq!(planner.plan_op(MutatorOp::CollectSite { site: S2 }), None);
        assert_eq!(planner.departed(), BTreeSet::from([S1]));
        assert_eq!(planner.membership(), BTreeSet::from([S0]));
    }

    #[test]
    fn a_join_of_a_current_departed_or_evicted_site_plans_nothing() {
        let mut planner = Planner::new(3, Vec::new());
        planner.plan_membership(event(MembershipKind::PlannedLeave, S1, 1));
        planner.plan_membership(event(MembershipKind::Evict, S2, 2));
        for (epoch, site) in [(3, S0), (4, S1), (5, S2)] {
            let script = planner.plan_membership(event(MembershipKind::Join, site, epoch));
            assert_eq!(script, Vec::new(), "join of {site}");
        }
        // Departures of non-members plan nothing either.
        for kind in [MembershipKind::PlannedLeave, MembershipKind::Evict] {
            assert_eq!(planner.plan_membership(event(kind, S1, 6)), Vec::new());
        }
        // A genuine join is caught up on both earlier announcements.
        let joiner = SiteId::new(3);
        let script = planner.plan_membership(event(MembershipKind::Join, joiner, 7));
        match outline(&script)[..] {
            [Some(ShardCommand::Join { site, history }), Some(ShardCommand::Announce(ann)), None] =>
            {
                assert_eq!(*site, joiner);
                assert_eq!(history.iter().map(|a| a.epoch).collect::<Vec<_>>(), [1, 2]);
                assert_eq!((ann.epoch, ann.kind), (7, MembershipChange::Join));
            }
            ref other => panic!("unexpected join script {other:?}"),
        }
    }

    #[test]
    fn overlapping_crash_windows_extend_the_outage() {
        let mut planner = Planner::new(2, vec![(S1, 2, 6), (S1, 4, 10), (S1, 5, 7)]);
        assert_eq!(planner.lifecycle(1), Vec::new());
        assert_eq!(planner.lifecycle(2), vec![ShardCommand::Crash(S1)]);
        // The second and third windows open while the site is down: no
        // second crash, and the latest restart time wins.
        assert_eq!(planner.lifecycle(5), Vec::new());
        assert_eq!(planner.lifecycle(9), Vec::new());
        assert_eq!(planner.down, 1);
        assert_eq!(planner.lifecycle(10), vec![ShardCommand::Recover(S1)]);
        assert_eq!(planner.down, 0);
        assert_eq!(planner.lifecycle(11), Vec::new());
    }

    #[test]
    fn a_planned_leave_of_a_downed_site_recovers_it_before_the_first_settle() {
        let mut planner = Planner::new(3, vec![(S2, 1, u64::MAX)]);
        assert_eq!(planner.lifecycle(1), vec![ShardCommand::Crash(S2)]);
        let script = planner.plan_membership(event(MembershipKind::PlannedLeave, S2, 1));
        let handoff = ShardCommand::Handoff {
            departing: S2,
            epoch: 1,
        };
        let ann = ShardCommand::Announce(MembershipAnnouncement {
            epoch: 1,
            kind: MembershipChange::PlannedLeave,
            site: S2,
        });
        assert_eq!(
            outline(&script),
            [
                Some(&ShardCommand::Recover(S2)),
                None,
                Some(&handoff),
                None,
                Some(&ShardCommand::Remove(S2)),
                Some(&ann),
                None,
            ]
        );
        assert_eq!(planner.down, 0, "the leave consumed the outage");
        // An eviction, by contrast, takes a downed site as it lies.
        let mut planner = Planner::new(3, vec![(S2, 1, u64::MAX)]);
        planner.lifecycle(1);
        let script = planner.plan_membership(event(MembershipKind::Evict, S2, 1));
        assert_eq!(outline(&script)[0], Some(&ShardCommand::Evict(S2)));
        assert_eq!(planner.down, 0);
        assert_eq!(planner.recover_all(), Vec::new());
    }

    /// The planner's site state as the sets and the map it used to be
    /// kept in.
    #[derive(Default)]
    struct SetModel {
        membership: BTreeSet<SiteId>,
        departed: BTreeSet<SiteId>,
        evicted: BTreeSet<SiteId>,
        downed: std::collections::BTreeMap<SiteId, u64>,
    }

    impl SetModel {
        fn up(&self, site: SiteId) -> bool {
            self.membership.contains(&site) && !self.downed.contains_key(&site)
        }

        /// Every view of the status table agrees with the sets, on every
        /// site and every allocated name.
        fn check(&self, planner: &Planner, names: &[(u32, GlobalAddr)], when: &str) {
            assert_eq!(planner.membership(), self.membership, "{when}");
            assert_eq!(planner.departed(), self.departed, "{when}");
            assert_eq!(planner.down, self.downed.len(), "{when}");
            for site in (0..8).map(SiteId::new) {
                assert_eq!(planner.site_is_up(site), self.up(site), "{when}: {site}");
                assert_eq!(
                    planner.is_member(site),
                    self.membership.contains(&site),
                    "{when}: {site}"
                );
                for &(name, addr) in names {
                    let gone = [&self.departed, &self.evicted]
                        .iter()
                        .any(|set| set.contains(&addr.site()));
                    let expect = (self.up(site) && !gone).then_some(addr);
                    let got = planner.resolve(site, ObjName(name));
                    assert_eq!(got, expect, "{when}: n{name} on {site}");
                }
            }
        }
    }

    #[test]
    fn the_status_table_agrees_with_the_set_model_through_crashes_and_membership() {
        let [s1, s2, s3, s4, s5] = [1, 2, 3, 4, 5].map(SiteId::new);
        let windows = vec![
            (s1, 2, 8),
            (s1, 4, 12),
            (s2, 3, 20),
            (s3, 3, 30),
            (s4, 5, 50),
        ];
        let mut planner = Planner::new(5, windows);
        let mut model = SetModel {
            membership: (0..5).map(SiteId::new).collect(),
            ..SetModel::default()
        };
        let mut names: Vec<(u32, GlobalAddr)> = (0..5)
            .map(|n| (n, alloc(&mut planner, SiteId::new(n), n).expect("up")))
            .collect();
        model.check(&planner, &names, "start");

        assert_eq!(planner.lifecycle(2), vec![ShardCommand::Crash(s1)]);
        model.downed.insert(s1, 8);
        model.check(&planner, &names, "t2");
        let crashes = vec![ShardCommand::Crash(s2), ShardCommand::Crash(s3)];
        assert_eq!(planner.lifecycle(3), crashes);
        model.downed.extend([(s2, 20), (s3, 30)]);
        model.check(&planner, &names, "t3");
        // The second window of site 1 opens while it is down: the outage
        // only grows.
        assert_eq!(planner.lifecycle(4), Vec::new());
        model.downed.insert(s1, 12);
        assert_eq!(planner.lifecycle(5), vec![ShardCommand::Crash(s4)]);
        model.downed.insert(s4, 50);
        assert_eq!(planner.lifecycle(8), Vec::new(), "site 1 restarts at 12");
        model.check(&planner, &names, "t8");

        // A planned leave of a downed site recovers it first.
        let script = planner.plan_membership(event(MembershipKind::PlannedLeave, s2, 1));
        assert_eq!(outline(&script)[0], Some(&ShardCommand::Recover(s2)));
        model.membership.remove(&s2);
        model.downed.remove(&s2);
        model.departed.insert(s2);
        model.check(&planner, &names, "leave");
        // An evict takes a downed site as it lies.
        let script = planner.plan_membership(event(MembershipKind::Evict, s3, 2));
        assert_eq!(outline(&script)[0], Some(&ShardCommand::Evict(s3)));
        model.membership.remove(&s3);
        model.downed.remove(&s3);
        model.evicted.insert(s3);
        model.check(&planner, &names, "evict");
        // Neither can crash again, and neither comes back.
        assert_eq!(planner.crash(s2, 99), None);
        assert_eq!(planner.crash(s3, 99), None);
        assert_eq!(planner.recover(s3), None);
        model.check(&planner, &names, "after the departures");

        let script = planner.plan_membership(event(MembershipKind::Join, s5, 3));
        assert!(
            matches!(outline(&script)[0], Some(ShardCommand::Join { site, .. }) if *site == s5)
        );
        model.membership.insert(s5);
        names.push((5, alloc(&mut planner, s5, 5).expect("the joiner is up")));
        model.check(&planner, &names, "join");

        assert_eq!(planner.lifecycle(12), vec![ShardCommand::Recover(s1)]);
        model.downed.remove(&s1);
        model.check(&planner, &names, "t12");
        assert_eq!(planner.recover_all(), vec![ShardCommand::Recover(s4)]);
        model.downed.clear();
        model.check(&planner, &names, "recover_all");
        assert_eq!(planner.lifecycle(u64::MAX), Vec::new());
        model.check(&planner, &names, "end");
    }

    #[test]
    fn names_resolve_by_index_whatever_order_they_are_allocated_in() {
        let mut planner = Planner::new(2, Vec::new());
        // Out of order, with gaps — as hand-built tests and shrunk
        // reproducers name their objects.
        assert_eq!(alloc(&mut planner, S1, 5), Some(id(S1, 1)));
        assert_eq!(alloc(&mut planner, S0, 2), Some(id(S0, 1)));
        assert_eq!(alloc(&mut planner, S1, 0), Some(id(S1, 2)));
        let resolved: Vec<_> = (0..8).map(|n| planner.addr_of(ObjName(n))).collect();
        let (a, b, c) = (Some(id(S1, 2)), Some(id(S0, 1)), Some(id(S1, 1)));
        assert_eq!(resolved, [a, None, b, None, None, c, None, None]);
        // Far past the end of the table: nothing, and no growth.
        assert_eq!(planner.addr_of(ObjName(u32::MAX)), None);
        assert_eq!(planner.names.len(), 6);
        // `resolve` agrees with `addr_of` on every name while the sites are
        // up, and ops naming a hole are skipped.
        for n in (0..8).chain([u32::MAX]) {
            assert_eq!(planner.resolve(S0, ObjName(n)), planner.addr_of(ObjName(n)));
        }
        for hole in [1, 7, u32::MAX] {
            let link = MutatorOp::LinkLocal {
                site: S1,
                from: ObjName(5),
                to: ObjName(hole),
            };
            assert_eq!(planner.plan_op(link), None, "n{hole} was never allocated");
            let clear = MutatorOp::ClearRefs {
                site: S0,
                name: ObjName(hole),
            };
            assert_eq!(planner.plan_op(clear), None);
        }
        let link = MutatorOp::LinkLocal {
            site: S1,
            from: ObjName(5),
            to: ObjName(0),
        };
        let (from, to) = (c.unwrap(), a.unwrap());
        let planned = ShardCommand::Op(S1, SiteOp::LinkLocal { from, to });
        assert_eq!(planner.plan_op(link), Some(planned));
    }

    #[test]
    fn a_name_whose_alloc_was_skipped_resolves_once_a_later_alloc_runs() {
        let mut planner = Planner::new(2, vec![(S1, 1, 2)]);
        assert_eq!(alloc(&mut planner, S0, 0), Some(id(S0, 1)));
        planner.lifecycle(1);
        assert_eq!(alloc(&mut planner, S1, 3), None, "site 1 is down");
        assert_eq!(planner.addr_of(ObjName(3)), None);
        assert_eq!(planner.resolve(S0, ObjName(3)), None);
        // While a site is down nothing resolves on it, though the name
        // exists.
        assert_eq!(planner.resolve(S1, ObjName(0)), None);
        assert_eq!(planner.addr_of(ObjName(0)), Some(id(S0, 1)));
        planner.lifecycle(2);
        // A later Alloc of the same name binds it, and a repeated one
        // rebinds it, as a map insert would.
        assert_eq!(alloc(&mut planner, S1, 3), Some(id(S1, 1)));
        assert_eq!(planner.resolve(S0, ObjName(3)), Some(id(S1, 1)));
        assert_eq!(alloc(&mut planner, S0, 3), Some(id(S0, 2)));
        assert_eq!(planner.resolve(S1, ObjName(3)), Some(id(S0, 2)));
        assert_eq!(planner.addr_of(ObjName(3)), Some(id(S0, 2)));
    }

    #[test]
    fn alloc_prediction_survives_a_crash_and_starts_at_one_for_a_joiner() {
        let mut planner = Planner::new(2, vec![(S1, 3, 4)]);
        assert_eq!(alloc(&mut planner, S1, 0), Some(id(S1, 1)));
        assert_eq!(alloc(&mut planner, S1, 1), Some(id(S1, 2)));
        assert_eq!(alloc(&mut planner, S0, 2), Some(id(S0, 1)));
        planner.lifecycle(3);
        // A skipped Alloc consumes no id: recovery replays only what ran.
        assert_eq!(alloc(&mut planner, S1, 3), None);
        planner.lifecycle(4);
        assert_eq!(alloc(&mut planner, S1, 4), Some(id(S1, 3)));
        let joiner = SiteId::new(5);
        assert_eq!(alloc(&mut planner, joiner, 5), None, "not a member yet");
        planner.plan_membership(event(MembershipKind::Join, joiner, 1));
        assert_eq!(alloc(&mut planner, joiner, 6), Some(id(joiner, 1)));
    }
}
