//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer. A span is `{id, parent, name, start_ns, end_ns}`; its id
//! is its index in the recorder. Aggregates (and, with `--spans`, the raw
//! JSONL) are written after the run, never during it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// The span names, one per layer boundary the benchmark can see from
/// outside. The string forms are the per-layer metric stems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// One whole stepped rep.
    Run,
    /// `Cluster::execute` of an `Alloc`.
    ExecAlloc,
    /// `Cluster::execute` of a `LinkLocal`.
    ExecLinkLocal,
    /// `Cluster::execute` of a `SendRef`.
    ExecSendRef,
    /// `Cluster::execute` of an `Unlink`.
    ExecUnlink,
    /// `Cluster::execute` of a `ClearRefs`.
    ExecClearRefs,
    /// `Cluster::execute` of any other op kind.
    ExecOther,
    /// `Cluster::settle`.
    Settle,
    /// `Cluster::report`.
    Report,
    /// `Cluster::crash_and_recover`.
    Recover,
    /// `Collector::apply_delta` / `apply_snapshot`.
    CoreApplyDelta,
    /// The lazy-rule hooks `on_export`, `on_third_party_send`, `on_receive_ref`.
    CoreRefEvent,
    /// `Collector::on_message`.
    CoreOnMessage,
    /// `Collector::take_outgoing`.
    CoreTakeOutgoing,
    /// `Collector::take_verdicts`.
    CoreTakeVerdicts,
    /// `Collector::checkpoint_state`.
    CoreCheckpoint,
    /// `Collector::restore_state`.
    CoreRestore,
    /// `Transport::send`.
    NetSend,
    /// `Transport::poll`.
    NetPoll,
    /// `Frame::encode` inside the traced transport.
    FrameEncode,
    /// `Frame::decode` inside the traced transport.
    FrameDecode,
}

impl Name {
    /// The name as written to span files and used in metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Run => "run",
            Name::ExecAlloc => "sim.execute.alloc",
            Name::ExecLinkLocal => "sim.execute.link_local",
            Name::ExecSendRef => "sim.execute.send_ref",
            Name::ExecUnlink => "sim.execute.unlink",
            Name::ExecClearRefs => "sim.execute.clear_refs",
            Name::ExecOther => "sim.execute.other",
            Name::Settle => "sim.settle",
            Name::Report => "sim.report",
            Name::Recover => "sim.recover",
            Name::CoreApplyDelta => "core.apply_delta",
            Name::CoreRefEvent => "core.ref_event",
            Name::CoreOnMessage => "core.on_message",
            Name::CoreTakeOutgoing => "core.take_outgoing",
            Name::CoreTakeVerdicts => "core.take_verdicts",
            Name::CoreCheckpoint => "core.checkpoint",
            Name::CoreRestore => "core.restore",
            Name::NetSend => "net.send",
            Name::NetPoll => "net.poll",
            Name::FrameEncode => "net.frame.encode",
            Name::FrameDecode => "net.frame.decode",
        }
    }

    /// True for the `sim.execute.*` family.
    pub fn is_execute(self) -> bool {
        matches!(
            self,
            Name::ExecAlloc
                | Name::ExecLinkLocal
                | Name::ExecSendRef
                | Name::ExecUnlink
                | Name::ExecClearRefs
                | Name::ExecOther
        )
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Id (index) of the span that was open when this one started, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// What was called.
    pub name: Name,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// A cloneable handle on one recorder, or on none. Every layer wrapper
/// holds one; with no recorder behind it, `enter`/`exit` do nothing, so the
/// same wrappers serve the passes that only count or capture.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<Recorder>>>);

impl Tracer {
    /// A handle that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A recorder pre-sized for `capacity` spans, so recording never
    /// reallocates mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer(Some(Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }))))
    }

    /// Opens a span under the innermost open one. Returns its id for
    /// [`Tracer::exit`].
    #[inline]
    pub fn enter(&self, name: Name) -> u32 {
        let Some(rec) = &self.0 else { return 0 };
        let mut rec = rec.borrow_mut();
        let id = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        rec.open.push(id);
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the span `id` (which must be the innermost open one).
    #[inline]
    pub fn exit(&self, id: u32) {
        let Some(rec) = &self.0 else { return };
        let mut rec = rec.borrow_mut();
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let popped = rec.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        rec.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Takes the recorded spans out, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        match &self.0 {
            Some(rec) => std::mem::take(&mut rec.borrow_mut().spans),
            None => Vec::new(),
        }
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the time covered by direct
    /// child spans.
    pub self_ns: u64,
}

/// Folds spans into per-name totals. Children of one thread nest inside
/// their parent and do not overlap each other, so the time they cover is
/// the sum of their durations.
pub fn aggregate(spans: &[Span]) -> BTreeMap<Name, Aggregate> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            covered[span.parent as usize] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<Name, Aggregate> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let agg = out.entry(span.name).or_default();
        agg.calls += 1;
        agg.total_ns += span.duration_ns();
        agg.self_ns += span.duration_ns().saturating_sub(covered);
    }
    out
}

/// Renders spans as JSONL, one `{id, parent, name, start_ns, end_ns}` per
/// line (`parent` is `null` at top level).
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for (id, span) in spans.iter().enumerate() {
        let _ = write!(out, "{{\"id\":{id},\"parent\":");
        if span.parent == NO_PARENT {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", span.parent);
        }
        let _ = writeln!(
            out,
            ",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.name.as_str(),
            span.start_ns,
            span.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100]
        //   settle [10,70]
        //     on_message [20,40]
        //       take_outgoing [25,30]
        //     on_message [50,60]
        //   report [80,95]
        let spans = [
            span(NO_PARENT, Name::Run, 0, 100),
            span(0, Name::Settle, 10, 70),
            span(1, Name::CoreOnMessage, 20, 40),
            span(2, Name::CoreTakeOutgoing, 25, 30),
            span(1, Name::CoreOnMessage, 50, 60),
            span(0, Name::Report, 80, 95),
        ];
        let agg = aggregate(&spans);
        assert_eq!(
            agg[&Name::Run],
            Aggregate {
                calls: 1,
                total_ns: 100,
                self_ns: 100 - 60 - 15
            }
        );
        assert_eq!(
            agg[&Name::Settle],
            Aggregate {
                calls: 1,
                total_ns: 60,
                self_ns: 60 - 20 - 10
            }
        );
        assert_eq!(
            agg[&Name::CoreOnMessage],
            Aggregate {
                calls: 2,
                total_ns: 30,
                self_ns: 30 - 5
            }
        );
        assert_eq!(agg[&Name::CoreTakeOutgoing].self_ns, 5);
        // Self times partition the root span exactly.
        let total_self: u64 = agg.values().map(|a| a.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let t = Tracer::with_capacity(8);
        let run = t.enter(Name::Run);
        t.span(Name::Settle, || t.span(Name::NetPoll, || ()));
        t.span(Name::Report, || ());
        t.exit(run);
        let spans = t.take();
        let shape: Vec<(u32, Name)> = spans.iter().map(|s| (s.parent, s.name)).collect();
        assert_eq!(
            shape,
            vec![
                (NO_PARENT, Name::Run),
                (0, Name::Settle),
                (1, Name::NetPoll),
                (0, Name::Report)
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[0].end_ns >= spans[3].end_ns, "the root closes last");
        assert!(t.take().is_empty());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span(Name::Run, || 7), 7);
        assert!(t.take().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let text = render_jsonl(&[
            span(NO_PARENT, Name::Run, 0, 9),
            span(0, Name::NetSend, 1, 2),
        ]);
        assert_eq!(
            text,
            "{\"id\":0,\"parent\":null,\"name\":\"run\",\"start_ns\":0,\"end_ns\":9}\n\
             {\"id\":1,\"parent\":0,\"name\":\"net.send\",\"start_ns\":1,\"end_ns\":2}\n"
        );
    }
}
