//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a test keeps the two in
//! step); what each per-layer metric should move lives here and in the
//! README, because `BENCHMARK.json` holds only name, unit and direction.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric, with the end-to-end metric it should move and the
/// workloads it should move it on.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the stem before the first dot is the layer (crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric(s) a change here should move.
    pub moves: &'static str,
    /// The workloads on which it should move them.
    pub on: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in reporting order. Every workload reports every
/// one. The driver compares runs made with different seeds on a noisy host,
/// so every metric that varies with either gets 0.25, the most the driver
/// allows (README, "Noise protocol"); the four exact metrics come from the
/// count pass on a pinned input, repeat exactly, and get tight bounds.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("gc_cycle_p50_ms", "ms", Lower, 0.25),
    e2e("gc_cycle_p95_ms", "ms", Lower, 0.25),
    e2e("ctl_bytes_per_reclaimed", "B/object", Lower, 0.01),
    e2e("ctl_msgs_per_reclaimed", "msgs/object", Lower, 0.01),
    e2e("reclaim_completeness", "ratio", Higher, 0.002),
    e2e("peak_live_mb", "MiB", Lower, 0.25),
    e2e("recover_p50_ms", "ms", Lower, 0.25),
    e2e("recover_p95_ms", "ms", Lower, 0.25),
    e2e("wal_bytes_per_op", "B/op", Lower, 0.01),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const OPS: &str = "ops_per_s";
const GC: &str = "gc_cycle_p50_ms, gc_cycle_p95_ms, ops_per_s";
const NONE: &str = "none";
const ALL: &str = "all";
const EXEC_ON: &str = "bulk_build, wide_durable; none on ring_reclaim";
const SETTLE_ON: &str = "ring_reclaim, remote_churn, wide_durable";
const HEAP_ON: &str = "bulk_build (grow), remote_churn (reuse)";
const COLLECT_ON: &str = "ring_reclaim, wide_durable";
const CORE_ON: &str = "remote_churn; none on bulk_build";
const CHAIN_ON: &str = "ring_reclaim, remote_churn";
const WIRE: &str = "ctl_bytes_per_reclaimed";
const STORE_W: &str = "ops_per_s (wide_durable), wal_bytes_per_op";
const STORE_R: &str = "recover_p50_ms, recover_p95_ms";
const DURABLE: &str = "wide_durable; nothing elsewhere";

/// The per-layer metrics, in reporting order. Every workload reports every
/// one; a layer a workload does not touch reads 0 there.
pub const PER_LAYER: [PerLayer; 79] = [
    layer("mutator.gen_s", "s", Lower, "setup_s", ALL),
    layer("mutator.ops", "count", Lower, "setup_s", ALL),
    layer("mutator.settles", "count", Lower, "setup_s", ALL),
    layer("sim.construct_s", "s", Lower, "setup_s", ALL),
    layer("sim.execute.alloc.s", "s", Lower, OPS, EXEC_ON),
    layer("sim.execute.link_local.s", "s", Lower, OPS, EXEC_ON),
    layer("sim.execute.send_ref.s", "s", Lower, OPS, EXEC_ON),
    layer("sim.execute.unlink.s", "s", Lower, OPS, EXEC_ON),
    layer("sim.execute.clear_refs.s", "s", Lower, OPS, EXEC_ON),
    layer("sim.execute.calls", "count", Lower, OPS, EXEC_ON),
    layer("sim.execute.self_s", "s", Lower, OPS, EXEC_ON),
    layer("sim.settle.s", "s", Lower, GC, SETTLE_ON),
    layer("sim.settle.self_s", "s", Lower, GC, SETTLE_ON),
    layer("sim.settle.calls", "count", Lower, GC, SETTLE_ON),
    layer("sim.report_s", "s", Lower, OPS, ALL),
    layer("sim.recover.self_s", "s", Lower, STORE_R, DURABLE),
    layer(
        "sim.residual_objects",
        "count",
        Lower,
        "reclaim_completeness",
        "remote_churn, wide_durable",
    ),
    layer(
        "sim.span_coverage",
        "ratio",
        Higher,
        NONE,
        "instrument health",
    ),
    layer(
        "sim.trace_overhead_ratio",
        "ratio",
        Lower,
        NONE,
        "instrument health",
    ),
    layer(
        "sim.parallel_w2.ops_per_s",
        "ops/s",
        Higher,
        NONE,
        "reported, not gated",
    ),
    layer(
        "sim.parallel_w2.spread",
        "ratio",
        Lower,
        NONE,
        "reported, not gated",
    ),
    layer(
        "sim.parallel_w2.outcome_match",
        "ratio",
        Higher,
        NONE,
        "reported, not gated",
    ),
    layer("heap.mutate.s", "s", Lower, OPS, HEAP_ON),
    layer("heap.mutate.calls", "count", Lower, OPS, HEAP_ON),
    layer("heap.take_delta.s", "s", Lower, OPS, HEAP_ON),
    layer("heap.take_delta.calls", "count", Lower, OPS, HEAP_ON),
    layer("heap.take_delta.nonempty", "count", Lower, OPS, HEAP_ON),
    layer("heap.delta.vertices", "count", Lower, OPS, HEAP_ON),
    layer(
        "heap.collect.s",
        "s",
        Lower,
        "gc_cycle_p50_ms, peak_live_mb",
        COLLECT_ON,
    ),
    layer(
        "heap.collect.calls",
        "count",
        Lower,
        "gc_cycle_p50_ms",
        COLLECT_ON,
    ),
    layer(
        "heap.collect.noop_calls",
        "count",
        Lower,
        "gc_cycle_p50_ms",
        COLLECT_ON,
    ),
    layer(
        "heap.collect.freed",
        "count",
        Higher,
        "gc_cycle_p50_ms",
        COLLECT_ON,
    ),
    layer(
        "heap.live_objects_end",
        "count",
        Lower,
        "peak_live_mb",
        COLLECT_ON,
    ),
    layer("core.apply_delta.s", "s", Lower, OPS, CORE_ON),
    layer("core.apply_delta.calls", "count", Lower, OPS, CORE_ON),
    layer("core.ref_event.s", "s", Lower, OPS, CORE_ON),
    layer("core.ref_event.calls", "count", Lower, OPS, CORE_ON),
    layer("core.take_outgoing.s", "s", Lower, OPS, CORE_ON),
    layer("core.take_outgoing.calls", "count", Lower, OPS, CORE_ON),
    layer("core.take_verdicts.s", "s", Lower, OPS, CORE_ON),
    layer("core.take_verdicts.calls", "count", Lower, OPS, CORE_ON),
    layer("core.on_message.s", "s", Lower, "gc_cycle_p50_ms", CHAIN_ON),
    layer(
        "core.on_message.calls",
        "count",
        Lower,
        "gc_cycle_p50_ms",
        CHAIN_ON,
    ),
    layer(
        "core.outgoing_msgs",
        "count",
        Lower,
        "ctl_msgs_per_reclaimed",
        CHAIN_ON,
    ),
    layer(
        "core.verdicts",
        "count",
        Lower,
        "ctl_msgs_per_reclaimed",
        CHAIN_ON,
    ),
    layer(
        "core.msgs_per_verdict",
        "ratio",
        Lower,
        "ctl_msgs_per_reclaimed",
        CHAIN_ON,
    ),
    layer(
        "core.dklog_rows_end",
        "count",
        Lower,
        "peak_live_mb",
        CHAIN_ON,
    ),
    layer("core.checkpoint.s", "s", Lower, OPS, DURABLE),
    layer("core.restore.s", "s", Lower, "recover_p50_ms", DURABLE),
    layer("net.send.s", "s", Lower, "gc_cycle_p50_ms", CHAIN_ON),
    layer(
        "net.send.calls",
        "count",
        Lower,
        "gc_cycle_p50_ms",
        CHAIN_ON,
    ),
    layer("net.poll.s", "s", Lower, "gc_cycle_p50_ms", CHAIN_ON),
    layer(
        "net.poll.calls",
        "count",
        Lower,
        "gc_cycle_p50_ms",
        CHAIN_ON,
    ),
    layer(
        "net.poll.empty_calls",
        "count",
        Lower,
        "gc_cycle_p50_ms",
        CHAIN_ON,
    ),
    layer(
        "net.peak_queued_bytes",
        "B",
        Lower,
        "peak_live_mb",
        CHAIN_ON,
    ),
    layer("net.frame.encode_s", "s", Lower, WIRE, CHAIN_ON),
    layer("net.frame.decode_s", "s", Lower, WIRE, CHAIN_ON),
    layer("net.frame.ctl_bytes", "B", Lower, WIRE, CHAIN_ON),
    layer("net.frame.mut_bytes", "B", Lower, WIRE, CHAIN_ON),
    layer("net.size_hint_ratio", "ratio", Lower, WIRE, CHAIN_ON),
    layer("store.records_appended", "count", Lower, STORE_W, DURABLE),
    layer("store.wal_bytes", "B", Lower, STORE_W, DURABLE),
    layer(
        "store.checkpoints_installed",
        "count",
        Lower,
        STORE_W,
        DURABLE,
    ),
    layer("store.append.s", "s", Lower, STORE_W, DURABLE),
    layer("store.append.calls", "count", Lower, STORE_W, DURABLE),
    layer("store.wal_overhead_ratio", "ratio", Lower, STORE_W, DURABLE),
    layer(
        "store.disk.append_s",
        "s",
        Lower,
        STORE_W,
        "sandbox disk; reported, not gated",
    ),
    layer("store.records_replayed", "count", Lower, STORE_R, DURABLE),
    layer("store.load_s", "s", Lower, STORE_R, DURABLE),
    layer(
        "obs.overhead_ratio",
        "ratio",
        Lower,
        NONE,
        "obs is off in timed reps",
    ),
    layer("obs.report_s", "s", Lower, NONE, "obs is off in timed reps"),
    layer(
        "obs.trace_bytes",
        "B",
        Lower,
        NONE,
        "obs is off in timed reps",
    ),
    layer(
        "obs.events",
        "count",
        Lower,
        NONE,
        "obs is off in timed reps",
    ),
    layer("host.calib_s", "s", Lower, NONE, "flags a disturbed set"),
    layer(
        "host.calib_spread",
        "ratio",
        Lower,
        NONE,
        "flags a disturbed set",
    ),
    layer(
        "host.slowdown",
        "ratio",
        Lower,
        NONE,
        "the divisor of the wall-clock end-to-end metrics",
    ),
    layer(
        "host.oncpu_share",
        "ratio",
        Higher,
        NONE,
        "flags a disturbed set",
    ),
    layer(
        "alloc.calls_per_op",
        "1/op",
        Lower,
        "peak_live_mb, ops_per_s",
        ALL,
    ),
    layer(
        "alloc.bytes_per_op",
        "B/op",
        Lower,
        "peak_live_mb, ops_per_s",
        ALL,
    ),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The result object the driver reads off the last line of standard output:
/// exactly `correct`, `attempted`, `failed` and `metrics`, the latter in
/// catalogue order.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: impl Iterator<Item = &'static str>,
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for name in names {
        let Some(&value) = values.get(name) else {
            continue;
        };
        if !first {
            out.push_str(", ");
        }
        first = false;
        let value = if value.is_finite() { value } else { 0.0 };
        let unit = unit_of(name).unwrap_or("");
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn unit_ok(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(well_formed(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(well_formed(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_lists_the_same_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // The file is flat enough to check by substring: every catalogue
        // entry appears exactly as the contract's key order writes it.
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
            "BENCHMARK.json lists an entry the catalogue lacks"
        );
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let mut values = BTreeMap::new();
        values.insert("ops_per_s", 1234.5);
        values.insert("setup_s", 0.0125);
        let line = result_json(true, 10, 0, END_TO_END.iter().map(|m| m.name), &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.0125, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}}}"
        );
    }
}
