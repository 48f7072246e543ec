//! Span-style structured event tracing, exported as JSONL with a versioned
//! schema.
//!
//! Every event carries the *logical step* at which it happened (the scenario
//! step counter shared by the sequential and parallel drivers — never a wall
//! clock), the scope that recorded it, a static `kind`, and a small list of
//! named numeric fields. Events also carry a determinism class:
//!
//! * `det: true` — *schedule-independent*: the event is emitted at the same
//!   step with the same fields by every driver executing the same
//!   (scenario, fault-plan, seed) triple on the equivalence corpus
//!   (membership changes, handoffs, per-object lifecycle transitions).
//! * `det: false` — *driver-shaped*: honest about scheduling (settle-round
//!   progress, termination-barrier credit high-water marks, WAL replay
//!   batch sizes under racing checkpoints). Byte-stable when the same
//!   driver re-runs the same triple, but not across drivers.
//!
//! The deterministic view of a trace filters to `det: true` lines; the
//! cross-driver byte-identity tests compare exactly that view.

use ggd_types::SiteId;
use std::fmt::Write as _;

/// Version tag stamped into the header line of every exported trace.
pub const TRACE_SCHEMA: &str = "ggd-obs-trace/v1";

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical step at which the event was recorded.
    pub step: u64,
    /// Recording scope: a site, or `None` for the cluster/driver itself.
    pub site: Option<SiteId>,
    /// Static event kind, e.g. `"membership"` or `"settle"`.
    pub kind: &'static str,
    /// Optional dynamic qualifier for kinds whose identity is not static —
    /// e.g. `"msg-class"` events carry the `class/payload-label` bucket key
    /// here. Omitted from the rendered line when `None`.
    pub label: Option<String>,
    /// Determinism class; see the module docs.
    pub det: bool,
    /// Named numeric payload, rendered in the order given.
    pub fields: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"t\":\"event\",\"step\":{}", self.step);
        match self.site {
            Some(site) => {
                let _ = write!(out, ",\"site\":{}", site.index());
            }
            None => out.push_str(",\"site\":null"),
        }
        let _ = write!(out, ",\"kind\":\"{}\"", self.kind);
        if let Some(label) = &self.label {
            let _ = write!(out, ",\"label\":\"{label}\"");
        }
        let _ = write!(out, ",\"det\":{},\"f\":{{", self.det);
        for (slot, (name, value)) in self.fields.iter().enumerate() {
            if slot > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("}}");
        out
    }
}

/// Which events a trace export includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceView {
    /// Every event, including driver-shaped ones.
    Full,
    /// Only `det: true` events — the cross-driver-stable subset.
    Deterministic,
}

/// Renders a trace: a schema header line followed by one line per event.
///
/// Events must already be in canonical order (the report layer sorts by
/// `(step, site, per-site sequence)` before calling this).
pub fn render_jsonl(events: &[TraceEvent], view: TraceView) -> String {
    let view_name = match view {
        TraceView::Full => "full",
        TraceView::Deterministic => "deterministic",
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"view\":\"{view_name}\"}}"
    );
    for event in events {
        if matches!(view, TraceView::Deterministic) && !event.det {
            continue;
        }
        out.push_str(&event.render());
        out.push('\n');
    }
    out
}

/// Structural validation of an exported trace.
///
/// Checks the versioned header and, per line: the record's framing and
/// type tag, that the type's required keys are present (`step`, `site`,
/// `kind`, `det` and `f` for events; `addr`, `alloc`, `detected` and
/// `reclaimed` for ledger objects), and a numeric event step. It matches
/// substrings and does not parse JSON; it is the one trace check the
/// explorer's `--trace` and `--validate-traces` modes run.
pub fn validate_jsonl(trace: &str) -> Result<usize, String> {
    let mut lines = trace.lines();
    let header = lines.next().ok_or_else(|| "empty trace".to_string())?;
    if !header.contains(&format!("\"schema\":\"{TRACE_SCHEMA}\"")) {
        return Err(format!("bad schema header: {header}"));
    }
    let mut records = 0usize;
    for (index, line) in lines.enumerate() {
        let slot = index + 2; // 1-based, after the header
        if line.starts_with("{\"t\":\"event\",") && line.ends_with('}') {
            for key in [
                "\"step\":",
                "\"site\":",
                "\"kind\":\"",
                "\"det\":",
                "\"f\":{",
            ] {
                if !line.contains(key) {
                    return Err(format!("line {slot}: missing {key}"));
                }
            }
            let after = &line[line.find("\"step\":").unwrap() + 7..];
            let digits: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
            if digits.is_empty() {
                return Err(format!("line {slot}: non-numeric step"));
            }
        } else if line.starts_with("{\"t\":\"object\",") && line.ends_with('}') {
            for key in [
                "\"addr\":\"",
                "\"alloc\":",
                "\"detected\":",
                "\"reclaimed\":",
            ] {
                if !line.contains(key) {
                    return Err(format!("line {slot}: missing {key}"));
                }
            }
        } else {
            return Err(format!("line {slot}: not a trace record"));
        }
        records += 1;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                step: 1,
                site: Some(SiteId::new(0)),
                kind: "membership",
                label: None,
                det: true,
                fields: vec![("epoch", 1), ("site", 2)],
            },
            TraceEvent {
                step: 2,
                site: None,
                kind: "settle",
                label: None,
                det: false,
                fields: vec![("rounds", 3)],
            },
        ]
    }

    #[test]
    fn renders_versioned_header_and_events() {
        let text = render_jsonl(&sample(), TraceView::Full);
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"schema\":\"ggd-obs-trace/v1\",\"view\":\"full\"}"
        );
        assert_eq!(
            lines.next().unwrap(),
            "{\"t\":\"event\",\"step\":1,\"site\":0,\"kind\":\"membership\",\"det\":true,\"f\":{\"epoch\":1,\"site\":2}}"
        );
        assert_eq!(
            lines.next().unwrap(),
            "{\"t\":\"event\",\"step\":2,\"site\":null,\"kind\":\"settle\",\"det\":false,\"f\":{\"rounds\":3}}"
        );
    }

    #[test]
    fn labeled_events_render_and_validate() {
        let event = TraceEvent {
            step: 4,
            site: None,
            kind: "msg-class",
            label: Some("control/edge-destruction".to_owned()),
            det: false,
            fields: vec![("sent", 7), ("bytes", 224)],
        };
        assert_eq!(
            event.render(),
            "{\"t\":\"event\",\"step\":4,\"site\":null,\"kind\":\"msg-class\",\
             \"label\":\"control/edge-destruction\",\"det\":false,\"f\":{\"sent\":7,\"bytes\":224}}"
        );
        let text = render_jsonl(&[event], TraceView::Full);
        assert_eq!(validate_jsonl(&text), Ok(1));
    }

    #[test]
    fn deterministic_view_filters_driver_shaped_events() {
        let text = render_jsonl(&sample(), TraceView::Deterministic);
        assert_eq!(text.lines().count(), 2); // header + 1 det event
        assert!(!text.contains("settle"));
    }

    #[test]
    fn validation_accepts_rendered_traces() {
        let text = render_jsonl(&sample(), TraceView::Full);
        assert_eq!(validate_jsonl(&text), Ok(2));
    }

    #[test]
    fn validation_rejects_corruption() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"schema\":\"other/v9\"}").is_err());
        let text = render_jsonl(&sample(), TraceView::Full);
        let broken = text.replace("\"det\":", "\"dot\":");
        assert!(validate_jsonl(&broken).is_err());
    }
}
