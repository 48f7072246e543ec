//! [`SiteObs`]: the per-scope observability handle threaded through the
//! stack.
//!
//! One `SiteObs` lives inside every site runtime (and one more, cluster
//! scoped, inside each driver). Disabled observability is a `None` behind
//! one pointer: every recording method is a single branch and no memory is
//! allocated — the off-path is free. Enabled, the handle owns two metric
//! registries (deterministic and auxiliary — see [`crate::trace`] for the
//! determinism contract), an event buffer and a lifecycle ledger.

use crate::ledger::Ledger;
use crate::registry::Registry;
use crate::trace::TraceEvent;
use ggd_types::{GlobalAddr, SiteId};

/// Configuration of the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Master switch. Off (the default) compiles every probe down to a
    /// branch on a `None`. On, every object is ledgered.
    pub enabled: bool,
}

impl ObsConfig {
    /// Observability on.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true }
    }
}

/// Everything one scope records; boxed so the disabled case is pointer-thin.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SiteObsInner {
    pub(crate) scope: Option<SiteId>,
    pub(crate) step: u64,
    pub(crate) det: Registry,
    pub(crate) aux: Registry,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) ledger: Ledger,
}

/// Observability handle for one scope (a site, or the whole cluster).
///
/// All recording methods are no-ops when disabled. The current *logical
/// step* is pushed in by the driver ([`SiteObs::set_step`]) so that every
/// probe stamps logical time without threading a step argument through the
/// runtime's entry points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SiteObs {
    inner: Option<Box<SiteObsInner>>,
}

impl SiteObs {
    /// A disabled handle (every method is a no-op).
    pub fn disabled() -> Self {
        SiteObs { inner: None }
    }

    /// Creates the handle for `scope` (`None` = cluster scope) under
    /// `config`; disabled configs yield a disabled handle.
    pub fn new(scope: Option<SiteId>, config: &ObsConfig) -> Self {
        if !config.enabled {
            return SiteObs::disabled();
        }
        SiteObs {
            inner: Some(Box::new(SiteObsInner {
                scope,
                step: 0,
                det: Registry::default(),
                aux: Registry::default(),
                events: Vec::new(),
                ledger: Ledger::default(),
            })),
        }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Takes the handle out, leaving a disabled one behind (used to carry
    /// observability across a simulated crash: the measurement layer sits
    /// outside the failure model).
    pub fn take(&mut self) -> SiteObs {
        std::mem::take(self)
    }

    /// Updates the logical step stamped on subsequent recordings.
    pub fn set_step(&mut self, step: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.step = step;
        }
    }

    /// The current logical step (0 when disabled).
    pub fn step(&self) -> u64 {
        self.inner.as_deref().map_or(0, |inner| inner.step)
    }

    /// Adds to a *deterministic* counter (schedule-independent value).
    pub fn add(&mut self, counter: &'static str, n: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.det.add(counter, n);
        }
    }

    /// Adds to an *auxiliary* counter (driver-shaped; full view only).
    pub fn add_aux(&mut self, counter: &'static str, n: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.aux.add(counter, n);
        }
    }

    /// Sets an auxiliary gauge.
    pub fn set_gauge_aux(&mut self, gauge: &'static str, value: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.aux.set_gauge(gauge, value);
        }
    }

    /// Records a structured trace event at the current step. `det` declares
    /// the determinism class (see [`crate::trace`]).
    pub fn event(&mut self, kind: &'static str, det: bool, fields: &[(&'static str, u64)]) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let event = TraceEvent {
                step: inner.step,
                site: inner.scope,
                kind,
                label: None,
                det,
                fields: fields.to_vec(),
            };
            inner.events.push(event);
        }
    }

    /// Like [`SiteObs::event`] but with a dynamic label qualifying the kind
    /// (e.g. the `class/payload-label` key of a `"msg-class"` bucket).
    pub fn event_labeled(
        &mut self,
        kind: &'static str,
        label: String,
        det: bool,
        fields: &[(&'static str, u64)],
    ) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let event = TraceEvent {
                step: inner.step,
                site: inner.scope,
                kind,
                label: Some(label),
                det,
                fields: fields.to_vec(),
            };
            inner.events.push(event);
        }
    }

    /// Ledger probe: `addr` was allocated now.
    pub fn on_alloc(&mut self, addr: GlobalAddr) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.det.add("allocs", 1);
            let step = inner.step;
            inner.ledger.on_alloc(addr, step);
        }
    }

    /// Ledger probe: a garbage verdict for `addr` was applied now.
    pub fn on_detected(&mut self, addr: GlobalAddr) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.det.add("verdicts_applied", 1);
            let step = inner.step;
            inner.ledger.on_detected(addr, step);
        }
    }

    /// Ledger probe: a local collection freed `addr` now.
    pub fn on_reclaimed(&mut self, addr: GlobalAddr) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.det.add("reclaims", 1);
            let step = inner.step;
            inner.ledger.on_reclaimed(addr, step);
        }
    }

    /// Ledger probe: the safety oracle saw `addr` unreachable now.
    pub fn mark_unreachable(&mut self, addr: GlobalAddr) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let step = inner.step;
            inner.ledger.mark_unreachable(addr, step);
        }
    }

    /// Deterministic-counter accessor (0 when disabled or never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |inner| inner.det.counter(name))
    }

    pub(crate) fn inner(&self) -> Option<&SiteObsInner> {
        self.inner.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let mut obs = SiteObs::disabled();
        obs.set_step(9);
        obs.add("x", 1);
        obs.event("e", true, &[]);
        obs.on_alloc(GlobalAddr::new(0, 0));
        assert!(!obs.is_enabled());
        assert_eq!(obs.step(), 0);
        assert_eq!(obs.counter("x"), 0);
    }

    #[test]
    fn config_gates_construction() {
        assert!(!SiteObs::new(None, &ObsConfig::default()).is_enabled());
        assert!(SiteObs::new(None, &ObsConfig::enabled()).is_enabled());
    }

    #[test]
    fn probes_stamp_the_current_step() {
        let mut obs = SiteObs::new(Some(SiteId::new(1)), &ObsConfig::enabled());
        obs.set_step(3);
        obs.on_alloc(GlobalAddr::new(1, 0));
        obs.set_step(5);
        obs.on_reclaimed(GlobalAddr::new(1, 0));
        obs.event("tick", false, &[("n", 1)]);
        let inner = obs.inner().unwrap();
        let entry = inner.ledger.iter().next().unwrap().1;
        assert_eq!(entry.allocated, 3);
        assert_eq!(entry.reclaimed, Some(5));
        assert_eq!(inner.events[0].step, 5);
        assert_eq!(obs.counter("allocs"), 1);
        assert_eq!(obs.counter("reclaims"), 1);
    }

    #[test]
    fn take_leaves_a_disabled_handle() {
        let mut obs = SiteObs::new(None, &ObsConfig::enabled());
        obs.add("x", 2);
        let taken = obs.take();
        assert!(!obs.is_enabled());
        assert_eq!(taken.counter("x"), 2);
    }
}
