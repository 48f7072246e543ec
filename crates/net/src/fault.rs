//! Fault injection plans for the simulated network.
//!
//! The paper claims (§1, §5) that the algorithm's safety is insensitive to
//! message loss and duplication: lost messages can only leave residual
//! garbage, never cause a live object to be reclaimed, and GGD messages are
//! idempotent. [`FaultPlan`] is how experiments E4 and the failure-injection
//! property tests exercise those claims.
//!
//! A plan is one declarative value, fixed when a run is built: loss and
//! duplication probabilities, per-link overrides, stalled sites, crash
//! windows and partition windows. Nothing changes it mid-run, so a
//! `(plan, seed)` pair always replays identically, and
//! [`FaultPlan::code`] renders the Rust expression that rebuilds it.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use ggd_types::SiteId;

/// One scheduled site crash: the site is down for transport times in
/// `[at_round, restart_after)`. Messages addressed to it during the window
/// are *dropped* (its volatile inbox dies with it), counting as loss; the
/// cluster layer tears the site's volatile runtime down at `at_round` and
/// recovers it from its durable store once `restart_after` is reached.
///
/// "Round" is driver time: simulated ticks on the
/// [`SimNetwork`](crate::SimNetwork), the delivered-frame logical clock
/// under the `ggd-sim` parallel driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteCrash {
    /// The crashing site.
    pub site: SiteId,
    /// Transport time at which the site goes down.
    pub at_round: u64,
    /// Transport time at which the site comes back (exclusive end of the
    /// down window).
    pub restart_after: u64,
}

/// One scheduled bidirectional partition: no message between `a` and `b`
/// is delivered while the transport clock is in `[from_round, heal_round)`.
///
/// Both drivers **drop** a message arriving inside the window, counting it
/// as loss, so [`FaultPlan::is_loss_free`] and [`FaultPlan::is_reliable`]
/// stay accurate. The window heals by itself at `heal_round`. Built by
/// [`FaultPlan::with_partition_window`] and [`FaultPlan::with_split`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// Lower site of the (normalized) pair.
    pub a: SiteId,
    /// Higher site of the (normalized) pair.
    pub b: SiteId,
    /// Transport time at which the partition starts.
    pub from_round: u64,
    /// Transport time at which the partition heals (exclusive).
    pub heal_round: u64,
}

impl PartitionWindow {
    /// True when the window separates `x` and `y` (in either order).
    pub fn covers(&self, x: SiteId, y: SiteId) -> bool {
        (self.a, self.b) == FaultPlan::norm(x, y)
    }

    /// True when the window is in force at transport time `now`.
    pub fn active_at(&self, now: u64) -> bool {
        self.from_round <= now && now < self.heal_round
    }
}

/// Per-link fault overrides.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkFault {
    /// Probability in `[0, 1]` that a message on this link is silently dropped.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a message on this link is delivered twice.
    pub duplicate_probability: f64,
    /// Extra latency (in ticks) added to every message on this link.
    pub extra_delay: u64,
}

/// A declarative description of the faults the network should inject.
///
/// All probabilities are evaluated with the network's seeded RNG, so a given
/// `(FaultPlan, seed)` pair always produces the same behaviour. The plan is
/// built once, with the `with_*` builders, and never changes during a run.
///
/// # Example
///
/// ```
/// use ggd_net::FaultPlan;
/// use ggd_types::SiteId;
///
/// let plan = FaultPlan::new()
///     .with_drop_probability(0.1)
///     .with_duplicate_probability(0.05)
///     .with_partition_window(SiteId::new(3), SiteId::new(0), 5, 20)
///     .with_stalled_site(SiteId::new(2));
/// assert!(plan.partition_drops(SiteId::new(0), SiteId::new(3), 5));
/// assert!(!plan.partition_drops(SiteId::new(0), SiteId::new(3), 20), "healed");
/// assert!(plan.is_stalled(SiteId::new(2)));
/// assert_eq!(
///     plan.code(),
///     "FaultPlan::new().with_drop_probability(0.1).with_duplicate_probability(0.05)\
///      .with_stalled_site(SiteId::new(2))\
///      .with_partition_window(SiteId::new(0), SiteId::new(3), 5, 20)"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    drop_probability: f64,
    duplicate_probability: f64,
    link_overrides: BTreeMap<(SiteId, SiteId), LinkFault>,
    #[serde(default)]
    partition_windows: Vec<PartitionWindow>,
    stalled: BTreeSet<SiteId>,
    #[serde(default)]
    crashes: Vec<SiteCrash>,
}

impl FaultPlan {
    /// A plan injecting no faults at all.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the global drop probability applied to every link.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `[0, 1]`.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.drop_probability = p;
        self
    }

    /// Sets the global duplication probability applied to every link.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not within `[0, 1]`.
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.duplicate_probability = p;
        self
    }

    /// Overrides the fault behaviour of one directed link.
    pub fn with_link_fault(mut self, from: SiteId, to: SiteId, fault: LinkFault) -> Self {
        self.link_overrides.insert((from, to), fault);
        self
    }

    /// Schedules a bidirectional partition between two sites for transport
    /// times in `[from_round, heal_round)`. Messages arriving inside the
    /// window are *dropped as loss*; see [`PartitionWindow`].
    ///
    /// # Panics
    ///
    /// Panics when the window is empty (`heal_round <= from_round`).
    pub fn with_partition_window(
        mut self,
        a: SiteId,
        b: SiteId,
        from_round: u64,
        heal_round: u64,
    ) -> Self {
        assert!(
            heal_round > from_round,
            "partition window must be non-empty (from {from_round} >= heal {heal_round})"
        );
        let (a, b) = Self::norm(a, b);
        let window = PartitionWindow {
            a,
            b,
            from_round,
            heal_round,
        };
        if !self.partition_windows.contains(&window) {
            self.partition_windows.push(window);
            self.partition_windows.sort();
        }
        self
    }

    /// Severs a fleet of `sites` sites into two halves — `[0, sites/2)` and
    /// `[sites/2, sites)` — for transport times in `[from_round,
    /// heal_round)`, then heals. Installs one scheduled window per cross
    /// pair; messages arriving inside the split are dropped as loss.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty, as for
    /// [`FaultPlan::with_partition_window`].
    pub fn with_split(mut self, sites: u32, from_round: u64, heal_round: u64) -> Self {
        let half = sites / 2;
        for low in 0..half {
            for high in half..sites {
                self = self.with_partition_window(
                    SiteId::new(low),
                    SiteId::new(high),
                    from_round,
                    heal_round,
                );
            }
        }
        self
    }

    /// The scheduled partition windows, sorted.
    pub fn partition_windows(&self) -> &[PartitionWindow] {
        &self.partition_windows
    }

    /// True when the plan schedules at least one partition window.
    pub fn has_partitions(&self) -> bool {
        !self.partition_windows.is_empty()
    }

    /// Declares a site as stalled for the whole run: the simulated network
    /// holds every message addressed to it, never delivering it and never
    /// counting it as lost. Experiment E7 uses this to show that the causal
    /// GGD makes progress while graph tracing blocks on consensus. The
    /// parallel driver ignores stalls.
    pub fn with_stalled_site(mut self, site: SiteId) -> Self {
        self.stalled.insert(site);
        self
    }

    /// Schedules a site crash: `site` is down for transport times in
    /// `[at_round, restart_after)`. See [`SiteCrash`] for the semantics.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty (`restart_after <= at_round`).
    pub fn with_crash(mut self, site: SiteId, at_round: u64, restart_after: u64) -> Self {
        assert!(
            restart_after > at_round,
            "crash window must be non-empty (at_round {at_round} >= restart_after {restart_after})"
        );
        self.crashes.push(SiteCrash {
            site,
            at_round,
            restart_after,
        });
        self.crashes.sort();
        self
    }

    /// The scheduled site crashes, sorted by `(site, at_round)`.
    pub fn crashes(&self) -> &[SiteCrash] {
        &self.crashes
    }

    /// True when the plan schedules at least one site crash.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// True when `site` is down at transport time `now`.
    pub fn is_crashed(&self, site: SiteId, now: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.site == site && c.at_round <= now && now < c.restart_after)
    }

    /// Returns the plan with the `index`-th crash (in [`FaultPlan::crashes`]
    /// order) removed — the shrinker's crash-schedule minimization step.
    pub fn without_crash(&self, index: usize) -> FaultPlan {
        let mut plan = self.clone();
        if index < plan.crashes.len() {
            plan.crashes.remove(index);
        }
        plan
    }

    /// Returns the plan with the `index`-th crash window replaced.
    pub fn with_crash_window(&self, index: usize, at_round: u64, restart_after: u64) -> FaultPlan {
        let mut plan = self.clone();
        if let Some(crash) = plan.crashes.get_mut(index) {
            crash.at_round = at_round;
            crash.restart_after = restart_after;
        }
        plan.crashes.sort();
        plan
    }

    /// Drop probability effective on the given directed link.
    pub fn drop_probability(&self, from: SiteId, to: SiteId) -> f64 {
        self.link_overrides
            .get(&(from, to))
            .map(|f| f.drop_probability)
            .unwrap_or(self.drop_probability)
    }

    /// Duplication probability effective on the given directed link.
    pub fn duplicate_probability(&self, from: SiteId, to: SiteId) -> f64 {
        self.link_overrides
            .get(&(from, to))
            .map(|f| f.duplicate_probability)
            .unwrap_or(self.duplicate_probability)
    }

    /// Extra latency effective on the given directed link.
    pub fn extra_delay(&self, from: SiteId, to: SiteId) -> u64 {
        self.link_overrides
            .get(&(from, to))
            .map(|f| f.extra_delay)
            .unwrap_or(0)
    }

    /// True when a partition window separates the two sites at transport
    /// time `now`: a message arriving then must be dropped, counting as
    /// loss.
    pub fn partition_drops(&self, a: SiteId, b: SiteId, now: u64) -> bool {
        self.partition_windows
            .iter()
            .any(|w| w.covers(a, b) && w.active_at(now))
    }

    /// True when the site is currently stalled.
    pub fn is_stalled(&self, site: SiteId) -> bool {
        self.stalled.contains(&site)
    }

    /// True when the plan can never *lose* a message: no drop probability
    /// anywhere and no partitions. Duplication, delay and stalled sites are
    /// allowed — they reorder or postpone delivery but lose nothing, so the
    /// comprehensiveness cross-checks of the differential explorer still
    /// apply.
    pub fn is_loss_free(&self) -> bool {
        self.drop_probability == 0.0
            && self
                .link_overrides
                .values()
                .all(|f| f.drop_probability == 0.0)
            && self.partition_windows.is_empty()
            && self.crashes.is_empty()
    }

    /// The differential explorer's fault matrix for a system of `sites`
    /// sites: loss, duplication, delay and stall combinations.
    ///
    /// Every entry is deterministic under a seeded [`SimNetwork`]
    /// (probabilities are evaluated with the network's RNG), so a
    /// `(scenario, matrix entry, seed)` triple always replays identically.
    ///
    /// [`SimNetwork`]: crate::SimNetwork
    pub fn matrix(sites: u32) -> Vec<NamedFaultPlan> {
        let last = SiteId::new(sites.saturating_sub(1));
        let (s0, s1) = (SiteId::new(0), SiteId::new(1));
        let delayed = LinkFault {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            extra_delay: 4,
        };
        let mut entries = vec![
            ("reliable", FaultPlan::new()),
            ("drop10", FaultPlan::new().with_drop_probability(0.1)),
            ("drop30", FaultPlan::new().with_drop_probability(0.3)),
            ("dup30", FaultPlan::new().with_duplicate_probability(0.3)),
            (
                "drop20_dup20",
                FaultPlan::new()
                    .with_drop_probability(0.2)
                    .with_duplicate_probability(0.2),
            ),
            (
                "delay_0_1",
                FaultPlan::new()
                    .with_link_fault(s0, s1, delayed)
                    .with_link_fault(s1, s0, delayed),
            ),
        ];
        if sites >= 2 {
            entries.push(("stall_last", FaultPlan::new().with_stalled_site(last)));
            entries.push((
                "stall_last_drop10",
                FaultPlan::new()
                    .with_drop_probability(0.1)
                    .with_stalled_site(last),
            ));
        }
        NamedFaultPlan::all(entries)
    }

    /// True when the plan can never drop nor duplicate a message.
    pub fn is_reliable(&self) -> bool {
        self.drop_probability == 0.0
            && self.duplicate_probability == 0.0
            && self
                .link_overrides
                .values()
                .all(|f| f.drop_probability == 0.0 && f.duplicate_probability == 0.0)
            && self.partition_windows.is_empty()
            && self.crashes.is_empty()
    }

    /// The scheduled-partition matrix for a system of `sites` sites: group
    /// splits that heal early or late, a single-pair window, and a split
    /// combined with background message loss. The companion of
    /// [`FaultPlan::matrix`] for the explorer's membership corpus — every
    /// window drops arrivals as loss, so none of these plans are loss-free
    /// and the reflisting baseline is exempted exactly as for lossy plans.
    pub fn partition_matrix(sites: u32) -> Vec<NamedFaultPlan> {
        let last = SiteId::new(sites.saturating_sub(1));
        NamedFaultPlan::all(vec![
            ("reliable", FaultPlan::new()),
            (
                "split_early_heal",
                FaultPlan::new().with_split(sites, 2, 10),
            ),
            ("split_late_heal", FaultPlan::new().with_split(sites, 6, 26)),
            (
                "pair_window",
                FaultPlan::new().with_partition_window(SiteId::new(0), last, 4, 14),
            ),
            (
                "split_drop10",
                FaultPlan::new()
                    .with_split(sites, 3, 12)
                    .with_drop_probability(0.1),
            ),
        ])
    }

    /// The crash-fault matrix for a system of `sites` sites: single and
    /// repeated crashes, a coordinator crash (site 0 hosts the tracing
    /// baseline's coordinator), overlapping two-site crashes, and a crash
    /// combined with message loss. The companion of [`FaultPlan::matrix`]
    /// for the explorer's `(scenario, crash-plan, seed)` family; every
    /// entry schedules at least one crash, so runs under it require a
    /// durability backend.
    pub fn crash_matrix(sites: u32) -> Vec<NamedFaultPlan> {
        let last = SiteId::new(sites.saturating_sub(1));
        let s0 = SiteId::new(0);
        let mut entries = vec![
            ("crash_last_early", FaultPlan::new().with_crash(last, 2, 9)),
            ("crash_last_late", FaultPlan::new().with_crash(last, 12, 30)),
            ("crash_coordinator", FaultPlan::new().with_crash(s0, 4, 16)),
            (
                "crash_last_twice",
                FaultPlan::new()
                    .with_crash(last, 3, 8)
                    .with_crash(last, 20, 28),
            ),
            (
                "crash_last_drop10",
                FaultPlan::new()
                    .with_drop_probability(0.1)
                    .with_crash(last, 5, 14),
            ),
        ];
        if sites >= 3 {
            let second = SiteId::new(1);
            entries.push((
                "crash_two_overlap",
                FaultPlan::new()
                    .with_crash(second, 3, 12)
                    .with_crash(last, 8, 18),
            ));
        }
        NamedFaultPlan::all(entries)
    }

    /// The Rust expression that rebuilds this plan, for shrunk-failure
    /// reproducers (it assumes `ggd::prelude::*` is in scope). One builder
    /// call per setting that differs from [`FaultPlan::new`]: the drop and
    /// duplicate probabilities, then link overrides, stalled sites, crashes
    /// and partition windows, each in the plan's sorted order. A split
    /// renders as the windows it installed.
    pub fn code(&self) -> String {
        let site = |s: SiteId| format!("SiteId::new({})", s.index());
        let mut code = String::from("FaultPlan::new()");
        let (drop, duplicate) = (self.drop_probability, self.duplicate_probability);
        if drop > 0.0 {
            let _ = write!(code, ".with_drop_probability({drop:?})");
        }
        if duplicate > 0.0 {
            let _ = write!(code, ".with_duplicate_probability({duplicate:?})");
        }
        for (&(from, to), fault) in &self.link_overrides {
            let _ = write!(
                code,
                ".with_link_fault({}, {}, LinkFault {{ drop_probability: {:?}, \
                 duplicate_probability: {:?}, extra_delay: {} }})",
                site(from),
                site(to),
                fault.drop_probability,
                fault.duplicate_probability,
                fault.extra_delay
            );
        }
        for &stalled in &self.stalled {
            let _ = write!(code, ".with_stalled_site({})", site(stalled));
        }
        for crash in &self.crashes {
            let _ = write!(
                code,
                ".with_crash({}, {}, {})",
                site(crash.site),
                crash.at_round,
                crash.restart_after
            );
        }
        for window in &self.partition_windows {
            let _ = write!(
                code,
                ".with_partition_window({}, {}, {}, {})",
                site(window.a),
                site(window.b),
                window.from_round,
                window.heal_round
            );
        }
        code
    }

    fn norm(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// One entry of a fault matrix: a plan and the stable name corpus
/// statistics report it under. Reproducers print the plan's
/// [`FaultPlan::code`].
#[derive(Debug, Clone, PartialEq)]
pub struct NamedFaultPlan {
    /// Stable name used in statistics tables.
    pub name: String,
    /// The plan itself.
    pub plan: FaultPlan,
}

impl NamedFaultPlan {
    /// Creates a matrix entry.
    pub fn new(name: &str, plan: FaultPlan) -> Self {
        NamedFaultPlan {
            name: name.to_owned(),
            plan,
        }
    }

    fn all(entries: Vec<(&str, FaultPlan)>) -> Vec<NamedFaultPlan> {
        entries
            .into_iter()
            .map(|(name, plan)| NamedFaultPlan::new(name, plan))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_reliable() {
        let plan = FaultPlan::new();
        assert!(plan.is_reliable());
        assert_eq!(plan.drop_probability(SiteId::new(0), SiteId::new(1)), 0.0);
        assert_eq!(plan.extra_delay(SiteId::new(0), SiteId::new(1)), 0);
        assert!(!plan.is_stalled(SiteId::new(0)));
    }

    #[test]
    fn global_probabilities_apply_to_all_links() {
        let plan = FaultPlan::new()
            .with_drop_probability(0.25)
            .with_duplicate_probability(0.5);
        assert_eq!(plan.drop_probability(SiteId::new(3), SiteId::new(9)), 0.25);
        assert_eq!(
            plan.duplicate_probability(SiteId::new(3), SiteId::new(9)),
            0.5
        );
        assert!(!plan.is_reliable());
    }

    #[test]
    fn link_override_takes_precedence() {
        let plan = FaultPlan::new().with_drop_probability(0.5).with_link_fault(
            SiteId::new(0),
            SiteId::new(1),
            LinkFault {
                drop_probability: 0.0,
                duplicate_probability: 0.0,
                extra_delay: 7,
            },
        );
        assert_eq!(plan.drop_probability(SiteId::new(0), SiteId::new(1)), 0.0);
        assert_eq!(plan.drop_probability(SiteId::new(1), SiteId::new(0)), 0.5);
        assert_eq!(plan.extra_delay(SiteId::new(0), SiteId::new(1)), 7);
    }

    #[test]
    fn partitions_are_symmetric_and_healable() {
        // A window covers an unordered pair: the reversed call adds nothing,
        // and the window cuts both directions until it heals by itself.
        let plan = FaultPlan::new()
            .with_partition_window(SiteId::new(1), SiteId::new(2), 0, 6)
            .with_partition_window(SiteId::new(2), SiteId::new(1), 0, 6);
        assert_eq!(plan.partition_windows().len(), 1);
        assert!(plan.partition_drops(SiteId::new(1), SiteId::new(2), 3));
        assert!(plan.partition_drops(SiteId::new(2), SiteId::new(1), 3));
        assert!(!plan.partition_drops(SiteId::new(1), SiteId::new(3), 3));
        assert!(!plan.partition_drops(SiteId::new(2), SiteId::new(1), 6));
        assert!(!plan.is_reliable());
    }

    #[test]
    #[should_panic]
    fn invalid_probability_panics() {
        let _ = FaultPlan::new().with_drop_probability(1.5);
    }

    #[test]
    fn crash_windows_are_half_open_and_per_site() {
        let plan = FaultPlan::new()
            .with_crash(SiteId::new(1), 5, 10)
            .with_crash(SiteId::new(1), 20, 25);
        assert!(plan.has_crashes());
        assert_eq!(plan.crashes().len(), 2);
        assert!(!plan.is_crashed(SiteId::new(1), 4));
        assert!(plan.is_crashed(SiteId::new(1), 5));
        assert!(plan.is_crashed(SiteId::new(1), 9));
        assert!(!plan.is_crashed(SiteId::new(1), 10));
        assert!(plan.is_crashed(SiteId::new(1), 22));
        assert!(!plan.is_crashed(SiteId::new(2), 7));
        assert!(!plan.is_loss_free(), "a crash can lose queued messages");
        assert!(!plan.is_reliable());

        let shrunk = plan.without_crash(1);
        assert_eq!(shrunk.crashes().len(), 1);
        assert!(!shrunk.is_crashed(SiteId::new(1), 22));
        let narrowed = plan.with_crash_window(0, 6, 7);
        assert!(!narrowed.is_crashed(SiteId::new(1), 5));
        assert!(narrowed.is_crashed(SiteId::new(1), 6));
    }

    #[test]
    #[should_panic]
    fn empty_crash_window_panics() {
        let _ = FaultPlan::new().with_crash(SiteId::new(0), 5, 5);
    }

    #[test]
    fn crash_matrix_entries_all_crash_and_rebuild() {
        let matrix = FaultPlan::crash_matrix(4);
        assert!(matrix.len() >= 5);
        for entry in &matrix {
            assert!(
                entry.plan.has_crashes(),
                "{} schedules no crash",
                entry.name
            );
            assert!(!entry.plan.is_loss_free());
            assert!(
                entry.plan.code().contains("with_crash"),
                "{} has no crash reproducer code",
                entry.name
            );
        }
        let names: Vec<&str> = matrix.iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "crash_last_early",
            "crash_coordinator",
            "crash_last_twice",
            "crash_last_drop10",
            "crash_two_overlap",
        ] {
            assert!(names.contains(&expected), "matrix misses {expected}");
        }
        let plan = FaultPlan::new()
            .with_crash(SiteId::new(2), 1, 4)
            .with_drop_probability(0.25);
        assert_eq!(
            plan.code(),
            "FaultPlan::new().with_drop_probability(0.25).with_crash(SiteId::new(2), 1, 4)"
        );
    }

    #[test]
    fn loss_freedom_tracks_drops_and_partitions_only() {
        assert!(FaultPlan::new().is_loss_free());
        assert!(FaultPlan::new()
            .with_duplicate_probability(0.5)
            .is_loss_free());
        assert!(FaultPlan::new()
            .with_stalled_site(SiteId::new(1))
            .is_loss_free());
        assert!(!FaultPlan::new().with_drop_probability(0.1).is_loss_free());
        assert!(!FaultPlan::new()
            .with_partition_window(SiteId::new(0), SiteId::new(1), 0, 5)
            .is_loss_free());
        assert!(!FaultPlan::new()
            .with_link_fault(
                SiteId::new(0),
                SiteId::new(1),
                LinkFault {
                    drop_probability: 0.2,
                    duplicate_probability: 0.0,
                    extra_delay: 0,
                },
            )
            .is_loss_free());
    }

    #[test]
    fn partition_windows_are_scheduled_and_half_open() {
        let plan = FaultPlan::new().with_partition_window(SiteId::new(2), SiteId::new(0), 5, 10);
        assert!(plan.has_partitions());
        assert!(!plan.partition_drops(SiteId::new(0), SiteId::new(2), 4));
        assert!(plan.partition_drops(SiteId::new(0), SiteId::new(2), 5));
        assert!(plan.partition_drops(SiteId::new(2), SiteId::new(0), 9));
        assert!(!plan.partition_drops(SiteId::new(0), SiteId::new(2), 10));
        assert!(!plan.partition_drops(SiteId::new(0), SiteId::new(1), 7));
        assert!(!plan.is_loss_free());
        assert!(!plan.is_reliable());
    }

    #[test]
    fn legacy_partition_is_an_unbounded_window() {
        // A link cut for the whole run is just the widest window, and it
        // drops like any other.
        let plan =
            FaultPlan::new().with_partition_window(SiteId::new(3), SiteId::new(1), 0, u64::MAX);
        let windows = plan.partition_windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(
            (windows[0].a, windows[0].b),
            (SiteId::new(1), SiteId::new(3))
        );
        for now in [0, u64::MAX - 1] {
            assert!(plan.partition_drops(SiteId::new(1), SiteId::new(3), now));
        }
    }

    #[test]
    fn split_severs_the_two_halves_only() {
        let plan = FaultPlan::new().with_split(4, 2, 8);
        assert_eq!(plan.partition_windows().len(), 4, "2x2 cross pairs");
        for (low, high) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            assert!(plan.partition_drops(SiteId::new(low), SiteId::new(high), 5));
            assert!(!plan.partition_drops(SiteId::new(low), SiteId::new(high), 8));
        }
        // Intra-half links are unaffected.
        assert!(!plan.partition_drops(SiteId::new(0), SiteId::new(1), 5));
        assert!(!plan.partition_drops(SiteId::new(2), SiteId::new(3), 5));
    }

    #[test]
    #[should_panic]
    fn empty_partition_window_panics() {
        let _ = FaultPlan::new().with_partition_window(SiteId::new(0), SiteId::new(1), 5, 5);
    }

    #[test]
    fn partition_matrix_rebuilds_and_stays_lossy() {
        let matrix = FaultPlan::partition_matrix(4);
        let names: Vec<&str> = matrix.iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "reliable",
            "split_early_heal",
            "split_late_heal",
            "pair_window",
            "split_drop10",
        ] {
            assert!(names.contains(&expected), "matrix misses {expected}");
        }
        for entry in &matrix {
            if entry.name == "reliable" {
                assert!(entry.plan.is_reliable());
                continue;
            }
            assert!(
                !entry.plan.is_loss_free(),
                "{} must count as lossy",
                entry.name
            );
            assert!(
                entry.plan.code().contains("with_partition_window"),
                "{} has no window reproducer code",
                entry.name
            );
        }
        // A split renders as the windows it installed.
        let windows = (0..2).flat_map(|low| (2..4).map(move |high| (low, high)));
        let one_by_one = windows.fold(FaultPlan::new(), |plan, (low, high)| {
            plan.with_partition_window(SiteId::new(low), SiteId::new(high), 4, 9)
        });
        let split = FaultPlan::new().with_split(4, 4, 9);
        assert_eq!(split, one_by_one);
        assert!(split
            .code()
            .ends_with(".with_partition_window(SiteId::new(1), SiteId::new(3), 4, 9)"));
    }

    #[test]
    fn matrix_covers_loss_dup_delay_and_stall() {
        let matrix = FaultPlan::matrix(4);
        assert!(matrix.len() >= 8);
        let names: Vec<&str> = matrix.iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "reliable",
            "drop30",
            "dup30",
            "delay_0_1",
            "stall_last",
            "stall_last_drop10",
        ] {
            assert!(names.contains(&expected), "matrix misses {expected}");
        }
        let reliable = matrix.iter().find(|e| e.name == "reliable").unwrap();
        assert!(reliable.plan.is_reliable());
        let stall = matrix.iter().find(|e| e.name == "stall_last").unwrap();
        assert!(stall.plan.is_stalled(SiteId::new(3)));
        assert!(stall.plan.is_loss_free());
        assert_eq!(
            stall.plan.code(),
            "FaultPlan::new().with_stalled_site(SiteId::new(3))"
        );
        let delay = matrix.iter().find(|e| e.name == "delay_0_1").unwrap();
        let link =
            "LinkFault { drop_probability: 0.0, duplicate_probability: 0.0, extra_delay: 4 }";
        assert_eq!(
            delay.plan.code(),
            format!(
                "FaultPlan::new()\
                 .with_link_fault(SiteId::new(0), SiteId::new(1), {link})\
                 .with_link_fault(SiteId::new(1), SiteId::new(0), {link})"
            )
        );
    }
}
