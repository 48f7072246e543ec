//! The record produced by one simulated run.

use serde::{Deserialize, Serialize};
use std::fmt;

use ggd_net::NetMetrics;
use ggd_obs::SiteObs;
use ggd_store::StoreStats;

/// Everything an experiment needs to know about one run of a scenario under
/// one collector.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the collector that ran.
    pub collector: String,
    /// Number of sites in the cluster.
    pub sites: u32,
    /// Objects allocated over the run.
    pub allocated: u64,
    /// Objects reclaimed by local collections over the run.
    pub reclaimed: u64,
    /// Objects that were freed while the oracle still considered them
    /// reachable. Must be zero for a safe collector.
    pub safety_violations: u64,
    /// Objects that are unreachable at the end of the run but still present.
    pub residual_garbage: u64,
    /// GGD verdicts produced (global roots demoted).
    pub verdicts: u64,
    /// Simulated time at which the run finished.
    pub finished_at: u64,
    /// Simulated time at which the last GGD verdict was produced, if any —
    /// together with `triggered_at` this gives the detection latency.
    pub last_verdict_at: Option<u64>,
    /// Simulated time of the first edge destruction that triggered GGD.
    pub triggered_at: Option<u64>,
    /// Scenario step of the first edge destruction that triggered GGD.
    /// Unlike `triggered_at` (whose clock is transport-specific: sim ticks
    /// sequentially, delivery counts in the parallel driver), the step clock
    /// counts scenario steps and is reported identically by the sequential
    /// and parallel drivers on the equivalence corpus.
    pub triggered_step: Option<u64>,
    /// Scenario step at which the last GGD verdict was applied, if any —
    /// together with `triggered_step` this gives the driver-independent
    /// detection latency ([`RunReport::detection_latency_steps`]).
    pub last_verdict_step: Option<u64>,
    /// Network metrics (messages and bytes per class and label).
    pub net: NetMetrics,
}

impl RunReport {
    /// Control (collector overhead) messages sent during the run.
    pub fn control_messages(&self) -> u64 {
        self.net.control_messages_sent()
    }

    /// Mutator (application) messages sent during the run.
    pub fn mutator_messages(&self) -> u64 {
        self.net.mutator_messages_sent()
    }

    /// Detection latency in simulated ticks: from the triggering destruction
    /// to the last verdict. `None` when no verdict was produced.
    pub fn detection_latency(&self) -> Option<u64> {
        match (self.triggered_at, self.last_verdict_at) {
            (Some(t), Some(v)) if v >= t => Some(v - t),
            _ => None,
        }
    }

    /// Detection latency in scenario steps: the driver-independent variant
    /// of [`RunReport::detection_latency`], identical between the sequential
    /// and parallel drivers on the equivalence corpus.
    pub fn detection_latency_steps(&self) -> Option<u64> {
        match (self.triggered_step, self.last_verdict_step) {
            (Some(t), Some(v)) if v >= t => Some(v - t),
            _ => None,
        }
    }
}

/// Mirrors the network aggregates into the cluster scope as auxiliary
/// gauges, plus one `msg-class` event per (class, payload-label) bucket —
/// the per-collector message-class breakdown. Aux: volumes are
/// transport-shaped (the parallel driver only frames cross-worker traffic).
pub(crate) fn record_net(obs: &mut SiteObs, net: &NetMetrics) {
    obs.set_gauge_aux("net_control_messages_sent", net.control_messages_sent());
    obs.set_gauge_aux("net_mutator_messages_sent", net.mutator_messages_sent());
    obs.set_gauge_aux("net_control_bytes_sent", net.control_bytes_sent());
    obs.set_gauge_aux("net_mutator_bytes_sent", net.mutator_bytes_sent());
    for row in net.bucket_rows() {
        obs.event_labeled(
            "msg-class",
            row.key.to_string(),
            false,
            &[
                ("sent", row.sent),
                ("delivered", row.delivered),
                ("dropped", row.dropped),
                ("bytes", row.bytes_sent),
            ],
        );
    }
}

/// Mirrors the durable-store aggregates and the recovery count into the
/// cluster scope as auxiliary gauges.
pub(crate) fn record_store(obs: &mut SiteObs, stats: &StoreStats, recoveries: u64) {
    obs.set_gauge_aux("store_records_appended", stats.records_appended);
    obs.set_gauge_aux("store_wal_bytes_appended", stats.wal_bytes_appended);
    obs.set_gauge_aux("store_checkpoints_installed", stats.checkpoints_installed);
    obs.set_gauge_aux("store_records_replayed", stats.records_replayed);
    obs.set_gauge_aux("recoveries", recoveries);
}

/// Sums per-site store counters into the cluster-wide aggregate.
pub(crate) fn sum_store_stats<'a>(stores: impl Iterator<Item = &'a StoreStats>) -> StoreStats {
    let mut total = StoreStats::default();
    for stats in stores {
        total.records_appended += stats.records_appended;
        total.wal_bytes_appended += stats.wal_bytes_appended;
        total.checkpoints_installed += stats.checkpoints_installed;
        total.records_replayed += stats.records_replayed;
    }
    total
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] sites={} allocated={} reclaimed={} residual={} violations={} verdicts={}",
            self.collector,
            self.sites,
            self.allocated,
            self.reclaimed,
            self.residual_garbage,
            self.safety_violations,
            self.verdicts
        )?;
        write!(
            f,
            "  messages: mutator={} control={} (latency={:?})",
            self.mutator_messages(),
            self.control_messages(),
            self.detection_latency()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_net::MessageClass;

    #[test]
    fn derived_quantities() {
        let mut report = RunReport {
            collector: "causal".into(),
            sites: 3,
            triggered_at: Some(10),
            last_verdict_at: Some(25),
            ..RunReport::default()
        };
        report.net.record_sent(MessageClass::Control, "x", 8);
        report.net.record_sent(MessageClass::Mutator, "y", 8);
        assert_eq!(report.control_messages(), 1);
        assert_eq!(report.mutator_messages(), 1);
        assert_eq!(report.detection_latency(), Some(15));
        assert!(report.to_string().contains("causal"));

        report.last_verdict_at = None;
        assert_eq!(report.detection_latency(), None);
    }
}
