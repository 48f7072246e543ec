//! The traced session of one workload: the per-layer numbers. Never mixed
//! into the timed reps. Rounds of five reps (plain, traced, obs on,
//! durability toggled, parallel driver), then one capture rep whose log
//! feeds the heap-projection and store passes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use ggd_mutator::Scenario;
use ggd_obs::{ObsConfig, TraceView};
use ggd_sim::{
    CausalCollector, Cluster, ClusterConfig, DurabilityConfig, ParallelCluster, RunReport,
};

use ggd_types::SiteId;

use crate::host::Calibrator;
use crate::project::{disk_store_pass, heap_projection, store_pass};
use crate::run::{
    plain_rep, reference_pass, sim_net, step_through, Checks, Net, Noise, Outcome, Reference, Rep,
    Wire,
};
use crate::spans::{aggregate, render_jsonl, Aggregate, Name, Span, Tracer};
use crate::stats::{median, relative_range};
use crate::traced::{
    Capture, Captured, CollectorCounts, TracedCollector, TracedTransport, TransportReading,
};
use crate::workloads::{durable, op_count, settle_count, Workload};

/// Rounds of paired reps a traced session runs at most.
pub const MAX_ROUNDS: usize = 3;

type TracedCluster = Cluster<TracedCollector<CausalCollector>, TracedTransport<Net, Wire>>;

/// What one rep through the traced wrappers leaves behind.
struct Wrapped {
    wall_s: f64,
    report: RunReport,
    spans: Vec<Span>,
    counts: CollectorCounts,
    transport: TransportReading,
    cluster: TracedCluster,
}

/// One stepped rep through [`TracedCollector`] and [`TracedTransport`].
/// With `tracer` on and `count_frames` it is the traced rep; with `capture`
/// on (and the rest off) it is the capture rep.
fn wrapped_rep(
    scenario: &Scenario,
    config: ClusterConfig,
    tracer: Tracer,
    count_frames: bool,
    capture: Capture<Wire>,
) -> Wrapped {
    let counts = Rc::new(RefCell::new(CollectorCounts::default()));
    let reading = Rc::new(RefCell::new(TransportReading::default()));
    let net = TracedTransport::new(
        sim_net(&config),
        tracer.clone(),
        count_frames,
        Rc::clone(&reading),
        capture.clone(),
    );
    let factory = TracedCollector::factory(
        CausalCollector::new,
        tracer.clone(),
        Rc::clone(&counts),
        capture.clone(),
    );
    let durable = config.durability.is_on();
    let mut cluster = Cluster::with_transport(scenario.site_count(), config, net, factory);
    let mut settle_ms = Vec::with_capacity(settle_count(scenario) as usize + 1);
    let start = Instant::now();
    let report = step_through(&mut cluster, scenario, &tracer, &capture, &mut settle_ms);
    let wall_s = start.elapsed().as_secs_f64();
    // Read the counters before recovery: WAL replay drives the collectors
    // through the same calls again.
    let counts = *counts.borrow();
    let transport = *reading.borrow();
    if durable {
        for site in 0..scenario.site_count() {
            tracer.span(Name::Recover, || {
                cluster.crash_and_recover(SiteId::new(site))
            });
        }
    }
    Wrapped {
        wall_s,
        report,
        spans: tracer.take(),
        counts,
        transport,
        cluster,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Share of the `run` span covered by its direct children.
fn span_coverage(spans: &[Span]) -> f64 {
    let Some(run) = spans.iter().position(|s| s.name == Name::Run) else {
        return 0.0;
    };
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == run as u32)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let whole = spans[run].end_ns - spans[run].start_ns;
    if whole == 0 {
        0.0
    } else {
        covered as f64 / whole as f64
    }
}

/// The result of a traced session.
pub struct TraceResult {
    /// Every per-layer metric, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Outcome checks of the session's passes.
    pub checks: Checks,
    /// Host readings: a calibration after every rep of every round, the
    /// on-CPU share of the plain reps.
    pub noise: Noise,
    /// Human-readable context: layer shares and pass notes.
    pub notes: Vec<String>,
}

/// Runs the traced session of `workload`. Rounds repeat until `budget_s`
/// has passed (at least one, at most [`MAX_ROUNDS`]; all of them without a
/// budget). Scratch files of the disk store pass go under `out_dir` and are
/// removed; with `write_spans`, the fastest traced rep's raw spans stay there
/// as JSONL.
pub fn traced_session(
    workload: Workload,
    seed: u64,
    scale_div: u32,
    budget_s: Option<f64>,
    out_dir: &Path,
    write_spans: bool,
    calibrator: &mut Calibrator,
) -> TraceResult {
    let started = Instant::now();
    let scenario = workload.scenario(seed, scale_div);
    let ops = op_count(&scenario);
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let mut noise = Noise::default();

    let reference: Reference = reference_pass(&scenario, workload.config());
    checks.record(
        "reference pass: a frame failed to decode",
        ops,
        reference.transport.frames.decode_failures == 0,
    );

    let mut plain: Vec<Rep> = Vec::new();
    // The fastest traced rep is the least disturbed one: all span figures
    // come from it, so they stay mutually consistent.
    let mut best: Option<Wrapped> = None;
    let mut traced_wall = Vec::new();
    let mut obs_wall = Vec::new();
    let mut toggled_wall = Vec::new();
    let mut parallel_wall = Vec::new();
    let mut parallel_matches = 0usize;
    let (mut obs_report_s, mut obs_trace_bytes, mut obs_events) = (0.0, 0.0, 0.0);
    let mut unused_settles = Vec::new();

    let mut round_s = 0.0;
    for round in 0..MAX_ROUNDS {
        // Another round must fit the budget, judged by the last one's time.
        let elapsed = started.elapsed().as_secs_f64();
        if round > 0 && budget_s.is_some_and(|b| elapsed + round_s > b) {
            break;
        }

        let (rep, _) = plain_rep(
            &workload,
            seed,
            scale_div,
            workload.config(),
            &mut unused_settles,
        );
        checks.record_outcome("plain rep", ops, &rep.outcome, &reference.outcome);
        noise.after_rep(&rep, calibrator.sample());
        plain.push(rep);

        // About 7 spans per op plus a chain per control message.
        let capacity = 8 * scenario.len() + 24 * reference.outcome.control_messages as usize;
        let rep = wrapped_rep(
            &scenario,
            workload.config(),
            Tracer::with_capacity(capacity),
            true,
            Capture::off(),
        );
        checks.record_outcome(
            "traced rep",
            ops,
            &Outcome::from(&rep.report),
            &reference.outcome,
        );
        checks.record(
            "traced rep: a frame failed to decode",
            ops,
            rep.transport.frames.decode_failures == 0,
        );
        noise.calib.push(calibrator.sample());
        traced_wall.push(rep.wall_s);
        if best.as_ref().map_or(true, |b| rep.wall_s < b.wall_s) {
            best = Some(rep);
        }

        let obs_config = ClusterConfig {
            obs: ObsConfig::enabled(),
            ..workload.config()
        };
        let (rep, cluster) = plain_rep(&workload, seed, scale_div, obs_config, &mut unused_settles);
        checks.record_outcome("obs-on rep", ops, &rep.outcome, &reference.outcome);
        noise.calib.push(calibrator.sample());
        obs_wall.push(rep.wall_s);
        let start = Instant::now();
        let report = cluster.obs_report();
        let text = std::hint::black_box(report.metrics_text(TraceView::Full));
        let trace = report.trace_jsonl(TraceView::Full);
        obs_report_s = start.elapsed().as_secs_f64();
        drop(text);
        obs_trace_bytes = trace.len() as f64;
        obs_events = report.events().len() as f64;
        drop(cluster);

        // The other side of the WAL pair: durable for a volatile workload,
        // volatile for the durable one. Durability may move the collector's
        // counts (checkpoint-time compaction), so only its time is used.
        let toggled = ClusterConfig {
            durability: if workload.durable {
                DurabilityConfig::off()
            } else {
                durable()
            },
            ..workload.config()
        };
        let (rep, _) = plain_rep(&workload, seed, scale_div, toggled, &mut unused_settles);
        noise.calib.push(calibrator.sample());
        toggled_wall.push(rep.wall_s);

        let config = ClusterConfig {
            workers: 2,
            ..workload.config()
        };
        let start = Instant::now();
        let (report, cluster) =
            ParallelCluster::run_seeded(&scenario, config, CausalCollector::new);
        parallel_wall.push(start.elapsed().as_secs_f64());
        noise.calib.push(calibrator.sample());
        drop(cluster);
        // Worker interleaving moves the control-message count by a few
        // messages; every other count must match the sequential run.
        let got = Outcome {
            control_messages: reference.outcome.control_messages,
            ..Outcome::from(&report)
        };
        if got == reference.outcome {
            parallel_matches += 1;
        }
        round_s = started.elapsed().as_secs_f64() - elapsed;
    }

    // Capture rep, then the two isolation passes on what it logged.
    let capture = Capture::on();
    let rep = wrapped_rep(
        &scenario,
        workload.config(),
        Tracer::off(),
        false,
        capture.clone(),
    );
    checks.record_outcome(
        "capture rep",
        ops,
        &Outcome::from(&rep.report),
        &reference.outcome,
    );
    drop(rep);
    let log: Vec<Captured<Wire>> = capture.take();
    let (heap, wal) = heap_projection(&scenario, &log);
    drop(log);
    let mem = store_pass(&wal, &DurabilityConfig::memory());
    let disk_dir = out_dir.join(format!("store-{}-{}", workload.name, std::process::id()));
    let disk = match disk_store_pass(&wal, &disk_dir) {
        Ok(times) => times,
        Err(e) => {
            notes.push(format!("disk store pass skipped: {e}"));
            Default::default()
        }
    };
    checks.record(
        "store pass: records loaded differ from records appended",
        ops,
        mem.records_loaded == mem.append.calls,
    );
    if heap.freed != reference.outcome.reclaimed {
        notes.push(format!(
            "heap projection freed {} objects, the cluster reclaimed {}",
            heap.freed, reference.outcome.reclaimed
        ));
    }
    if workload.durable && mem.append.calls != reference.store.records_appended {
        notes.push(format!(
            "store pass synthesized {} records, the cluster appended {}",
            mem.append.calls, reference.store.records_appended
        ));
    }

    let best = best.expect("at least one round ran");
    if write_spans {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", workload.name, seed));
        let written = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, render_jsonl(&best.spans)));
        match written {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
    }
    // Recovery spans follow the run span. WAL replay calls the collectors
    // again, so everything but the recovery figures is folded from the run's
    // own spans only.
    let run_len = best
        .spans
        .iter()
        .position(|s| s.name == Name::Recover)
        .unwrap_or(best.spans.len());
    let agg = aggregate(&best.spans[..run_len]);
    let agg_all = aggregate(&best.spans);
    let get = |name: Name| agg.get(&name).copied().unwrap_or_default();
    let get_all = |name: Name| agg_all.get(&name).copied().unwrap_or_default();
    let exec: Aggregate = agg.iter().filter(|(name, _)| name.is_execute()).fold(
        Aggregate::default(),
        |acc, (_, a)| Aggregate {
            calls: acc.calls + a.calls,
            total_ns: acc.total_ns + a.total_ns,
            self_ns: acc.self_ns + a.self_ns,
        },
    );
    let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let of = |f: fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let dklog_rows: usize = (0..scenario.site_count())
        .map(|s| {
            best.cluster
                .collector(SiteId::new(s))
                .inner()
                .engine()
                .log()
                .len()
        })
        .sum();
    // On a durable workload the plain reps are the WAL-on side.
    let wal_ratio = if workload.durable {
        plain_wall / median(&toggled_wall)
    } else {
        median(&toggled_wall) / plain_wall
    };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("mutator.gen_s", of(|r| r.gen_s));
    m.insert("mutator.ops", ops as f64);
    m.insert("mutator.settles", (settle_count(&scenario) + 1) as f64);
    m.insert("sim.construct_s", of(|r| r.setup_s - r.gen_s));
    for (metric, name) in [
        ("sim.execute.alloc.s", Name::ExecAlloc),
        ("sim.execute.link_local.s", Name::ExecLinkLocal),
        ("sim.execute.send_ref.s", Name::ExecSendRef),
        ("sim.execute.unlink.s", Name::ExecUnlink),
        ("sim.execute.clear_refs.s", Name::ExecClearRefs),
        ("sim.settle.s", Name::Settle),
        ("sim.report_s", Name::Report),
        ("core.apply_delta.s", Name::CoreApplyDelta),
        ("core.ref_event.s", Name::CoreRefEvent),
        ("core.take_outgoing.s", Name::CoreTakeOutgoing),
        ("core.take_verdicts.s", Name::CoreTakeVerdicts),
        ("core.on_message.s", Name::CoreOnMessage),
        ("core.checkpoint.s", Name::CoreCheckpoint),
        ("net.send.s", Name::NetSend),
        ("net.poll.s", Name::NetPoll),
        ("net.frame.encode_s", Name::FrameEncode),
        ("net.frame.decode_s", Name::FrameDecode),
    ] {
        m.insert(metric, secs(get(name).total_ns));
    }
    for (metric, name) in [
        ("sim.settle.calls", Name::Settle),
        ("core.apply_delta.calls", Name::CoreApplyDelta),
        ("core.ref_event.calls", Name::CoreRefEvent),
        ("core.take_outgoing.calls", Name::CoreTakeOutgoing),
        ("core.take_verdicts.calls", Name::CoreTakeVerdicts),
        ("core.on_message.calls", Name::CoreOnMessage),
        ("net.send.calls", Name::NetSend),
        ("net.poll.calls", Name::NetPoll),
    ] {
        m.insert(metric, get(name).calls as f64);
    }
    m.insert("sim.execute.calls", exec.calls as f64);
    m.insert("sim.execute.self_s", secs(exec.self_ns));
    m.insert("sim.settle.self_s", secs(get(Name::Settle).self_ns));
    m.insert("sim.recover.self_s", secs(get_all(Name::Recover).self_ns));
    m.insert("core.restore.s", secs(get_all(Name::CoreRestore).total_ns));
    m.insert(
        "sim.residual_objects",
        reference.outcome.residual_garbage as f64,
    );
    m.insert("sim.span_coverage", span_coverage(&best.spans));
    m.insert(
        "sim.trace_overhead_ratio",
        median(&traced_wall) / plain_wall,
    );
    m.insert(
        "sim.parallel_w2.ops_per_s",
        ops as f64 / median(&parallel_wall),
    );
    m.insert("sim.parallel_w2.spread", relative_range(&parallel_wall));
    m.insert(
        "sim.parallel_w2.outcome_match",
        parallel_matches as f64 / parallel_wall.len() as f64,
    );
    m.insert("heap.mutate.s", heap.mutate.time.as_secs_f64());
    m.insert("heap.mutate.calls", heap.mutate.calls as f64);
    m.insert("heap.take_delta.s", heap.take_delta.time.as_secs_f64());
    m.insert("heap.take_delta.calls", heap.take_delta.calls as f64);
    m.insert("heap.take_delta.nonempty", heap.nonempty_deltas as f64);
    m.insert("heap.delta.vertices", best.counts.delta_vertices as f64);
    m.insert("heap.collect.s", heap.collect.time.as_secs_f64());
    m.insert("heap.collect.calls", heap.collect.calls as f64);
    m.insert("heap.collect.noop_calls", heap.noop_collects as f64);
    m.insert("heap.collect.freed", heap.freed as f64);
    m.insert("heap.live_objects_end", heap.live_objects_end as f64);
    m.insert("core.outgoing_msgs", best.counts.outgoing_msgs as f64);
    m.insert("core.verdicts", best.counts.verdicts as f64);
    m.insert(
        "core.msgs_per_verdict",
        best.counts.outgoing_msgs as f64 / best.counts.verdicts.max(1) as f64,
    );
    m.insert("core.dklog_rows_end", dklog_rows as f64);
    m.insert(
        "net.poll.empty_calls",
        best.transport.calls.empty_polls as f64,
    );
    m.insert("net.peak_queued_bytes", reference.peak_queued_bytes as f64);
    let frames = reference.transport.frames;
    m.insert("net.frame.ctl_bytes", frames.ctl_bytes as f64);
    m.insert("net.frame.mut_bytes", frames.mut_bytes as f64);
    m.insert(
        "net.size_hint_ratio",
        frames.ctl_hint_bytes as f64 / frames.ctl_bytes.max(1) as f64,
    );
    let store = reference.store;
    m.insert("store.records_appended", store.records_appended as f64);
    m.insert("store.wal_bytes", store.wal_bytes_appended as f64);
    m.insert(
        "store.checkpoints_installed",
        store.checkpoints_installed as f64,
    );
    m.insert("store.append.s", mem.append.time.as_secs_f64());
    m.insert("store.append.calls", mem.append.calls as f64);
    m.insert("store.wal_overhead_ratio", wal_ratio);
    m.insert("store.disk.append_s", disk.append.time.as_secs_f64());
    m.insert(
        "store.records_replayed",
        best.cluster.store_stats().records_replayed as f64,
    );
    m.insert("store.load_s", mem.load.as_secs_f64());
    m.insert("obs.overhead_ratio", median(&obs_wall) / plain_wall);
    m.insert("obs.report_s", obs_report_s);
    m.insert("obs.trace_bytes", obs_trace_bytes);
    m.insert("obs.events", obs_events);
    m.insert("host.calib_s", noise.calib_s());
    m.insert("host.calib_spread", noise.calib_spread());
    m.insert("host.slowdown", noise.slowdown());
    m.insert("host.oncpu_share", noise.min_oncpu_share());
    m.insert(
        "alloc.calls_per_op",
        of(|r| r.alloc_calls as f64) / ops as f64,
    );
    m.insert(
        "alloc.bytes_per_op",
        of(|r| r.alloc_bytes as f64) / ops as f64,
    );

    // Layer shares of the traced rep's wall-clock, for the README's table.
    let run = get(Name::Run).total_ns.max(1) as f64;
    let share = |ns: u64| 100.0 * ns as f64 / run;
    let core_ns: u64 = [
        Name::CoreApplyDelta,
        Name::CoreRefEvent,
        Name::CoreOnMessage,
        Name::CoreTakeOutgoing,
        Name::CoreTakeVerdicts,
        Name::CoreCheckpoint,
    ]
    .iter()
    .map(|n| get(*n).self_ns)
    .sum();
    let net_ns = get(Name::NetSend).self_ns + get(Name::NetPoll).self_ns;
    let codec_ns = get(Name::FrameEncode).self_ns + get(Name::FrameDecode).self_ns;
    notes.push(format!(
        "traced rep self-time shares of run: sim.execute {:.1}% sim.settle {:.1}% sim.report {:.1}% core {:.1}% net {:.1}% codec {:.1}% (rounds={}, spans={})",
        share(exec.self_ns),
        share(get(Name::Settle).self_ns),
        share(get(Name::Report).self_ns),
        share(core_ns),
        share(net_ns),
        share(codec_ns),
        traced_wall.len(),
        best.spans.len(),
    ));
    notes.push(format!(
        "settle totals: sim.settle {:.1}% of run; wasted collections {:.1}% of {} (heap projection)",
        share(get(Name::Settle).total_ns),
        100.0 * heap.noop_collects as f64 / heap.collect.calls.max(1) as f64,
        heap.collect.calls,
    ));

    TraceResult {
        metrics: m,
        checks,
        noise,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::plain_cluster;
    use crate::workloads::WORKLOADS;

    /// The wrappers must be transparent: whatever they record, count or
    /// capture, the cluster's whole `RunReport` equals the unwrapped run's.
    #[test]
    fn traced_wrappers_are_transparent_at_quick_scale() {
        for w in WORKLOADS {
            let scenario = w.scenario(23, 10);
            let mut unused = Vec::new();
            let want = step_through(
                &mut plain_cluster(&scenario, w.config()),
                &scenario,
                &Tracer::off(),
                &Capture::off(),
                &mut unused,
            );
            let modes = [
                ("delegating", Tracer::off(), false, Capture::off()),
                (
                    "tracing",
                    Tracer::with_capacity(1 << 16),
                    true,
                    Capture::off(),
                ),
                ("capturing", Tracer::off(), false, Capture::on()),
            ];
            for (mode, tracer, count_frames, capture) in modes {
                let rep = wrapped_rep(&scenario, w.config(), tracer, count_frames, capture);
                assert_eq!(rep.report, want, "{} changed under {mode} wrappers", w.name);
                assert_eq!(rep.transport.frames.decode_failures, 0);
                assert_eq!(rep.counts.verdicts, want.verdicts, "{} {mode}", w.name);
                assert_eq!(
                    rep.counts.outgoing_msgs,
                    want.control_messages(),
                    "{} {mode}",
                    w.name
                );
                if mode == "tracing" {
                    assert!(span_coverage(&rep.spans) > 0.5);
                    assert_eq!(
                        rep.transport.frames.ctl_bytes > 0,
                        want.control_messages() > 0
                    );
                }
            }
        }
    }

    /// The isolation passes replay the capture log exactly: the bare heaps
    /// free what the cluster reclaimed, and the synthesized WAL stream has
    /// the records the durable cluster appended.
    #[test]
    fn the_projection_mirrors_the_runtime_at_quick_scale() {
        for w in WORKLOADS {
            let scenario = w.scenario(23, 10);
            let config = ClusterConfig {
                durability: durable(),
                ..w.config()
            };
            let capture = Capture::on();
            let rep = wrapped_rep(&scenario, config, Tracer::off(), false, capture.clone());
            let (heap, wal) = heap_projection(&scenario, &capture.take());
            assert_eq!(heap.freed, rep.report.reclaimed, "{}", w.name);
            assert_eq!(
                heap.live_objects_end,
                rep.report.allocated - rep.report.reclaimed,
                "{}",
                w.name
            );
            let appended = rep.cluster.store_stats().records_appended;
            let mem = store_pass(&wal, &DurabilityConfig::memory());
            assert_eq!(mem.append.calls, appended, "{}", w.name);
            assert_eq!(mem.records_loaded, appended, "{}", w.name);
        }
    }
}
