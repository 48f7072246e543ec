//! [`ObsReport`]: the end-of-run assembly of every scope's recordings into
//! canonical, byte-stable artifacts.
//!
//! The drivers hand the report their cluster-scope handle plus each site's
//! handle; assembly merges ledgers, derives the latency histograms, orders
//! events by `(step, scope, per-scope sequence)` and renders:
//!
//! * [`ObsReport::metrics_text`] — the metrics snapshot, one instrument per
//!   line, sorted; the [`TraceView::Deterministic`] view contains only the
//!   schedule-independent registries and is byte-identical between the
//!   sequential and parallel drivers on the equivalence corpus.
//! * [`ObsReport::trace_jsonl`] — the versioned JSONL event timeline,
//!   followed by one `{"t":"object",...}` line per ledgered object. The
//!   deterministic view omits driver-shaped events and the oracle-only
//!   `unreachable` timestamp.

use crate::ledger::Ledger;
use crate::registry::{Histogram, Registry};
use crate::site::SiteObs;
use crate::trace::{render_jsonl, TraceEvent, TraceView};
use ggd_types::SiteId;
use std::fmt::Write as _;

/// The assembled observability report of one run.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// False when the run had observability off (all artifacts empty).
    pub enabled: bool,
    scopes: Vec<(Option<SiteId>, Registry, Registry)>,
    events: Vec<TraceEvent>,
    ledger: Ledger,
    detection: Histogram,
    reclaim_lag: Histogram,
    lifetime: Histogram,
}

fn scope_key(site: Option<SiteId>) -> i64 {
    site.map_or(-1, |s| i64::from(s.index()))
}

fn scope_name(site: Option<SiteId>) -> String {
    site.map_or_else(|| "cluster".to_string(), |s| s.to_string())
}

impl ObsReport {
    /// Assembles the report from the cluster-scope handle and every site's
    /// handle. Disabled handles contribute nothing; a fully disabled run
    /// yields `enabled: false`.
    pub fn assemble<'a>(
        cluster: &'a SiteObs,
        sites: impl IntoIterator<Item = &'a SiteObs>,
    ) -> ObsReport {
        let mut report = ObsReport::default();
        let mut staged: Vec<(i64, usize, TraceEvent)> = Vec::new();
        for obs in std::iter::once(cluster).chain(sites) {
            let Some(inner) = obs.inner() else { continue };
            report.enabled = true;
            report
                .scopes
                .push((inner.scope, inner.det.clone(), inner.aux.clone()));
            let key = scope_key(inner.scope);
            for (seq, event) in inner.events.iter().enumerate() {
                staged.push((key, seq, event.clone()));
            }
            report.ledger.absorb(&inner.ledger);
        }
        report.scopes.sort_by_key(|(scope, _, _)| scope_key(*scope));
        staged.sort_by_key(|(key, seq, event)| (event.step, *key, *seq));
        report.events = staged.into_iter().map(|(_, _, event)| event).collect();
        let (detection, reclaim_lag, lifetime) = report.ledger.latency_histograms();
        report.detection = detection;
        report.reclaim_lag = reclaim_lag;
        report.lifetime = lifetime;
        report
    }

    /// The canonical metrics snapshot. The deterministic view renders only
    /// the schedule-independent registries plus the ledger-derived
    /// `reclaim_lag` / `lifetime` histograms; the full view adds the
    /// auxiliary registries and the oracle-only `detection` histogram.
    pub fn metrics_text(&self, view: TraceView) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# ggd-obs metrics ({})",
            match view {
                TraceView::Full => "full",
                TraceView::Deterministic => "deterministic",
            }
        );
        let mut totals = Registry::default();
        for (scope, det, aux) in &self.scopes {
            let name = scope_name(*scope);
            det.render_into(&name, &mut out);
            totals.absorb(det);
            if matches!(view, TraceView::Full) {
                aux.render_into(&name, &mut out);
            }
        }
        totals.render_into("total", &mut out);
        if self.reclaim_lag.count > 0 {
            let _ = writeln!(
                out,
                "total histogram reclaim_lag {}",
                self.reclaim_lag.render()
            );
        }
        if self.lifetime.count > 0 {
            let _ = writeln!(out, "total histogram lifetime {}", self.lifetime.render());
        }
        if matches!(view, TraceView::Full) && self.detection.count > 0 {
            let _ = writeln!(out, "total histogram detection {}", self.detection.render());
        }
        out
    }

    /// The versioned JSONL trace: header, events (filtered per `view`),
    /// then one object line per ledger entry.
    pub fn trace_jsonl(&self, view: TraceView) -> String {
        let mut out = render_jsonl(&self.events, view);
        self.ledger
            .render_jsonl_into(matches!(view, TraceView::Full), &mut out);
        out
    }

    /// Events in canonical order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The merged lifecycle ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The unreachable→detected histogram (populated only when the safety
    /// oracle ran).
    pub fn detection_histogram(&self) -> &Histogram {
        &self.detection
    }

    /// The detected→reclaimed histogram.
    pub fn reclaim_lag_histogram(&self) -> &Histogram {
        &self.reclaim_lag
    }

    /// The allocated→reclaimed histogram.
    pub fn lifetime_histogram(&self) -> &Histogram {
        &self.lifetime
    }

    /// Sum of a deterministic counter across every scope.
    pub fn total(&self, counter: &str) -> u64 {
        self.scopes
            .iter()
            .map(|(_, det, _)| det.counter(counter))
            .sum()
    }

    /// An auxiliary counter summed across every scope.
    pub fn total_aux(&self, counter: &str) -> u64 {
        self.scopes
            .iter()
            .map(|(_, _, aux)| aux.counter(counter))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::ObsConfig;
    use crate::trace::validate_jsonl;
    use ggd_types::GlobalAddr;

    fn sample() -> ObsReport {
        let config = ObsConfig::enabled();
        let mut cluster = SiteObs::new(None, &config);
        let mut s0 = SiteObs::new(Some(SiteId::new(0)), &config);
        let mut s1 = SiteObs::new(Some(SiteId::new(1)), &config);
        cluster.set_step(2);
        cluster.event("settle", false, &[("rounds", 3)]);
        s0.set_step(1);
        s0.on_alloc(GlobalAddr::new(0, 0));
        s0.event("membership", true, &[("epoch", 1)]);
        s1.set_step(1);
        s1.on_alloc(GlobalAddr::new(1, 0));
        s1.set_step(3);
        s1.on_detected(GlobalAddr::new(1, 0));
        s1.on_reclaimed(GlobalAddr::new(1, 0));
        s1.add_aux("wal_records", 7);
        ObsReport::assemble(&cluster, [&s0, &s1])
    }

    #[test]
    fn disabled_everywhere_assembles_empty() {
        let report = ObsReport::assemble(&SiteObs::disabled(), [&SiteObs::disabled()]);
        assert!(!report.enabled);
        assert!(report.events().is_empty());
    }

    #[test]
    fn events_sort_by_step_then_scope() {
        let report = sample();
        let kinds: Vec<&str> = report.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["membership", "settle"]);
    }

    #[test]
    fn views_filter_consistently() {
        let report = sample();
        let full = report.metrics_text(TraceView::Full);
        let det = report.metrics_text(TraceView::Deterministic);
        assert!(full.contains("s1 counter wal_records 7"));
        assert!(!det.contains("wal_records"));
        assert!(det.contains("total counter allocs 2"));
        assert!(det.contains("total histogram reclaim_lag"));
        let trace = report.trace_jsonl(TraceView::Deterministic);
        assert!(!trace.contains("settle"));
        assert!(!trace.contains("unreachable"));
        let full_trace = report.trace_jsonl(TraceView::Full);
        assert!(full_trace.contains("settle"));
        assert!(full_trace.contains("\"unreachable\":null"));
    }

    #[test]
    fn traces_validate_in_both_views() {
        let report = sample();
        assert!(validate_jsonl(&report.trace_jsonl(TraceView::Full)).is_ok());
        assert!(validate_jsonl(&report.trace_jsonl(TraceView::Deterministic)).is_ok());
    }

    #[test]
    fn latency_histograms_derive_from_the_ledger() {
        let report = sample();
        assert_eq!(report.reclaim_lag_histogram().count, 1);
        assert_eq!(report.lifetime_histogram().count, 1);
        assert_eq!(report.lifetime_histogram().sum, 2);
        assert_eq!(report.detection_histogram().count, 0);
        assert_eq!(report.total("allocs"), 2);
        assert_eq!(report.total_aux("wal_records"), 7);
    }
}
