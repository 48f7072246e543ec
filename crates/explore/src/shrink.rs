//! Greedy minimization of a failing triple.
//!
//! The shrinker repeatedly proposes a simpler triple — fewer faults, fewer
//! ops (delta-debugging style chunk removal), fewer sites — and keeps every
//! proposal under which a failure of the *same kind* still reproduces.
//! Because every run is deterministic, "still fails" is a pure predicate
//! and the loop terminates at a local minimum.

use std::collections::BTreeSet;

use ggd_mutator::{ObjName, Scenario, Step};
use ggd_net::NamedFaultPlan;

use crate::runner::{run_triple, RunMode, Triple};

/// Removes steps that can no longer replay or that no legal mutator could
/// perform after the removals so far:
///
/// * ops referencing a name whose `Alloc` is not among the kept steps;
/// * `SendRef`s whose sender site does not hold the target's reference
///   (it is neither the target's host nor a site a kept send delivered the
///   reference to);
/// * `SendRef`s whose recipient is not *anchored* — neither a local root
///   nor an object a kept send previously exported. A real mutator cannot
///   address a message to such an object, and the causal engine's
///   comprehensiveness claim only covers legal computations. These two
///   rules are [`Legality`](ggd_mutator::Legality), the same judge the
///   drivers apply to the sends they run.
/// * membership events that no longer describe a fleet change: a `Join`
///   of a site that is already a member (or below the `founding` count),
///   or a departure of a site that is not currently a member. Kept
///   departures mark their site *departed*; later `Alloc`s on it are
///   dropped (the drivers would skip them anyway, but a scenario that
///   never replays them shrinks further).
///
/// One forward pass suffices: every tracked set only grows (sites move
/// monotonically founding → active → departed).
pub fn sanitize(founding: u32, steps: &[Step]) -> Vec<Step> {
    use ggd_mutator::{Legality, MembershipKind, MutatorOp};
    use std::collections::BTreeMap;

    let mut host: BTreeMap<ObjName, ggd_types::SiteId> = BTreeMap::new();
    let mut legality = Legality::default();
    let mut active: BTreeSet<ggd_types::SiteId> =
        (0..founding).map(ggd_types::SiteId::new).collect();
    let mut departed: BTreeSet<ggd_types::SiteId> = BTreeSet::new();
    let mut kept = Vec::with_capacity(steps.len());
    for step in steps {
        match step {
            Step::Op(op) => {
                if let Some(name) = op.defined_name() {
                    if let MutatorOp::Alloc {
                        site, local_root, ..
                    } = op
                    {
                        if !active.contains(site) {
                            continue;
                        }
                        host.insert(name, *site);
                        legality.note_alloc(name, *site, *local_root);
                    }
                    kept.push(*step);
                    continue;
                }
                if !op.used_names().iter().all(|n| host.contains_key(n)) {
                    continue;
                }
                if let MutatorOp::SendRef {
                    from_site,
                    recipient,
                    target,
                } = op
                {
                    if !legality.approve_send(*target, *from_site, *recipient, host[recipient]) {
                        continue;
                    }
                }
                kept.push(*step);
            }
            Step::Settle => kept.push(*step),
            Step::Membership(ev) => {
                let legal = match ev.kind {
                    MembershipKind::Join => {
                        ev.site.index() >= founding
                            && !active.contains(&ev.site)
                            && !departed.contains(&ev.site)
                    }
                    MembershipKind::PlannedLeave | MembershipKind::Evict => {
                        active.contains(&ev.site)
                    }
                };
                if !legal {
                    continue;
                }
                match ev.kind {
                    MembershipKind::Join => {
                        active.insert(ev.site);
                    }
                    MembershipKind::PlannedLeave | MembershipKind::Evict => {
                        active.remove(&ev.site);
                        departed.insert(ev.site);
                    }
                }
                kept.push(*step);
            }
        }
    }
    kept
}

/// The smallest *founding* site count that can host the steps: every site
/// an op or a departure references must be in range unless a kept `Join`
/// introduces it mid-run. At least 2 — a cluster needs a peer.
pub(crate) fn founding_site_count(steps: &[Step]) -> u32 {
    use ggd_mutator::MembershipKind;
    let joined: BTreeSet<u32> = steps
        .iter()
        .filter_map(|step| match step {
            Step::Membership(ev) if ev.kind == MembershipKind::Join => Some(ev.site.index()),
            _ => None,
        })
        .collect();
    steps
        .iter()
        .filter_map(|step| match step {
            Step::Op(op) => op
                .sites()
                .iter()
                .map(|s| s.index())
                .filter(|i| !joined.contains(i))
                .map(|i| i + 1)
                .max(),
            Step::Membership(ev)
                if ev.kind != MembershipKind::Join && !joined.contains(&ev.site.index()) =>
            {
                Some(ev.site.index() + 1)
            }
            _ => None,
        })
        .max()
        .unwrap_or(0)
        .max(2)
}

fn rebuild(triple: &Triple, steps: Vec<Step>) -> Triple {
    // The founding count and the sanitize pass are interdependent (a Join
    // is only legal at or above the founding count), so the count is fixed
    // before the pass and re-tightened after: kept Joins sit at or above
    // the pre-pass count, and the post-pass count can only be lower, so
    // the re-tightening never invalidates a kept Join.
    let founding = founding_site_count(&steps);
    let steps = sanitize(founding, &steps);
    let site_count = founding_site_count(&steps);
    Triple {
        scenario: Scenario::from_steps(site_count, steps),
        ..triple.clone()
    }
}

fn still_fails(triple: &Triple, mode: RunMode, kind: &str) -> bool {
    run_triple(triple, mode).has_kind(kind)
}

/// Greedily minimizes `triple` while a failure of kind `kind` (as returned
/// by [`CheckFailure::kind`](crate::CheckFailure::kind)) keeps reproducing
/// under `mode`. Returns the smallest triple found.
///
/// The `reflisting-cycle-reclaim` kind only simplifies the faults and the
/// jitter: its check consults the triple's generation-time `cyclic`
/// metadata, and removing ops could turn a listed member into ordinary
/// acyclic garbage — a *correct* reference-listing collector would then
/// reclaim it and the "failure" would keep reproducing for the wrong
/// reason, steering the shrinker toward a non-reproducer.
pub fn shrink(triple: &Triple, mode: RunMode, kind: &str) -> Triple {
    let mut best = triple.clone();
    debug_assert!(
        still_fails(&best, mode, kind),
        "shrink needs a failing seed"
    );
    let ops_shrinkable = kind != "reflisting-cycle-reclaim";

    // Phase 1: drop the faults — a reproducer on the reliable plan is
    // strictly more convincing.
    if best.fault.plan != ggd_net::FaultPlan::new() {
        let candidate = Triple {
            fault: NamedFaultPlan::new("reliable", ggd_net::FaultPlan::new()),
            ..best.clone()
        };
        if still_fails(&candidate, mode, kind) {
            best = candidate;
        }
    }
    // …and the jitter.
    if best.jitter != 0 {
        let candidate = Triple {
            jitter: 0,
            ..best.clone()
        };
        if still_fails(&candidate, mode, kind) {
            best = candidate;
        }
    }

    // Phase 1b: minimize the crash schedule — first drop whole crash
    // windows, then narrow the survivors (later start, earlier restart).
    // Every candidate keeps the triple's durability: a plan that still has
    // crashes still needs its durable backend.
    if best.fault.plan.has_crashes() {
        let with_plan = |base: &Triple, plan: ggd_net::FaultPlan| Triple {
            fault: NamedFaultPlan::new("crash_shrunk", plan),
            ..base.clone()
        };
        let mut index = 0;
        while index < best.fault.plan.crashes().len() {
            let candidate = with_plan(&best, best.fault.plan.without_crash(index));
            if still_fails(&candidate, mode, kind) {
                best = candidate;
            } else {
                index += 1;
            }
        }
        for index in 0..best.fault.plan.crashes().len() {
            loop {
                let crash = best.fault.plan.crashes()[index];
                let span = crash.restart_after - crash.at_round;
                if span <= 1 {
                    break;
                }
                let narrowed = best.fault.plan.with_crash_window(
                    index,
                    crash.at_round,
                    crash.at_round + span / 2,
                );
                let candidate = with_plan(&best, narrowed);
                if still_fails(&candidate, mode, kind) {
                    best = candidate;
                } else {
                    break;
                }
            }
        }
    }

    if !ops_shrinkable {
        return best;
    }

    // Phase 2: chunked step removal (ddmin-lite), halving the chunk size
    // down to single steps.
    let mut chunk = (best.scenario.steps().len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < best.scenario.steps().len() {
            let steps: Vec<Step> = best
                .scenario
                .steps()
                .iter()
                .enumerate()
                .filter(|(idx, _)| *idx < i || *idx >= i + chunk)
                .map(|(_, s)| *s)
                .collect();
            let candidate = rebuild(&best, steps);
            if candidate.scenario.len() < best.scenario.len() && still_fails(&candidate, mode, kind)
            {
                best = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    // Phase 3: drop whole sites (every op or membership event naming the
    // site; ops that used its objects fall to sanitize). Joined sites are
    // candidates too — `max_site_count` covers them.
    let sites: Vec<u32> = (0..best.scenario.max_site_count()).rev().collect();
    for site in sites {
        let touches: bool = best.scenario.steps().iter().any(|step| match step {
            Step::Op(op) => op.sites().iter().any(|s| s.index() == site),
            Step::Settle => false,
            Step::Membership(ev) => ev.site.index() == site,
        });
        if !touches {
            continue;
        }
        let steps: Vec<Step> = best
            .scenario
            .steps()
            .iter()
            .filter(|step| match step {
                Step::Op(op) => op.sites().iter().all(|s| s.index() != site),
                Step::Settle => true,
                Step::Membership(ev) => ev.site.index() != site,
            })
            .copied()
            .collect();
        let candidate = rebuild(&best, steps);
        if still_fails(&candidate, mode, kind) {
            best = candidate;
        }
    }

    // Phase 4: one final single-step pass after the site drops.
    let mut i = 0;
    while i < best.scenario.steps().len() {
        let steps: Vec<Step> = best
            .scenario
            .steps()
            .iter()
            .enumerate()
            .filter(|(idx, _)| *idx != i)
            .map(|(_, s)| *s)
            .collect();
        let candidate = rebuild(&best, steps);
        if candidate.scenario.len() < best.scenario.len() && still_fails(&candidate, mode, kind) {
            best = candidate;
        } else {
            i += 1;
        }
    }

    best
}
