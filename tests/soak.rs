//! Soak-grade membership churn: many phases of zipf-style hot/cold churn
//! with sites joining and leaving at every phase boundary, sampling the
//! causal engine's footprint at each boundary and asserting **bounded
//! growth** — DkLog rows, dependency-vector width and WAL bytes must reach
//! a steady state instead of creeping with uptime.
//!
//! Ignored by default so `cargo test` stays fast; opt in with:
//!
//! ```sh
//! cargo test --test soak -- --ignored
//! ```

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use ggd::prelude::*;

/// Wall-clock budget for the whole soak. Generous: the run takes seconds
/// in release; only a genuine hang should exhaust it.
const HARD_TIMEOUT: Duration = Duration::from_secs(120);

/// Founding fleet size; one transient joiner per phase on top.
const FOUNDING: u32 = 4;
/// Phase boundaries are where the fleet changes and metrics are sampled.
const PHASES: usize = 10;
/// Hot/cold churn rounds per phase.
const ROUNDS_PER_PHASE: usize = 24;
/// Cold allocations per round, hung under the round's hot anchor and
/// cleared at its next turn — a rolling window of short-lived garbage.
const COLD_PER_ROUND: usize = 12;

/// One phase-boundary sample of the causal engine's footprint.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Max DkLog row count over the live fleet.
    dk_rows: usize,
    /// Max dependency-vector width over every DkLog row of the fleet.
    vector_width: usize,
    /// Cumulative WAL bytes appended cluster-wide.
    wal_bytes: u64,
    /// Cumulative WAL records appended cluster-wide.
    wal_records: u64,
    /// Cumulative mutator ops executed.
    ops: u64,
    /// Max DkLog-level root-stamp count over the live fleet.
    log_flags: usize,
    /// Max per-row root-stamp count over the live fleet.
    row_flags: usize,
}

/// Drives the churn cluster round by round so the footprint can be sampled
/// *mid-run* at every phase boundary — `Cluster::run` would only expose the
/// final state.
struct Soak {
    cluster: Cluster<CausalCollector>,
    next_name: u32,
    next_epoch: u64,
    ops: u64,
    /// Rooted per-founding-site anchors the churn hangs everything off.
    hot: Vec<ObjName>,
}

impl Soak {
    fn new() -> Self {
        let config = ClusterConfig {
            durability: DurabilityConfig::memory(),
            seed: 0x50AC,
            ..ClusterConfig::default()
        };
        let mut soak = Soak {
            cluster: Cluster::new(FOUNDING, config, CausalCollector::new),
            next_name: 0,
            next_epoch: 0,
            ops: 0,
            hot: Vec::new(),
        };
        for site in 0..FOUNDING {
            let anchor = soak.alloc(SiteId::new(site), true);
            soak.hot.push(anchor);
        }
        soak.cluster.settle();
        soak
    }

    fn fresh_name(&mut self) -> ObjName {
        let name = ObjName(self.next_name);
        self.next_name += 1;
        name
    }

    fn execute(&mut self, op: MutatorOp) {
        self.ops += 1;
        self.cluster.execute(op);
    }

    fn alloc(&mut self, site: SiteId, local_root: bool) -> ObjName {
        let name = self.fresh_name();
        self.execute(MutatorOp::Alloc {
            site,
            name,
            local_root,
        });
        name
    }

    fn membership(&mut self, kind: MembershipKind, site: SiteId) {
        self.next_epoch += 1;
        self.cluster.execute_membership(MembershipEvent {
            epoch: self.next_epoch,
            kind,
            site,
        });
    }

    /// One churn round on founding site `round % FOUNDING`: clear last
    /// turn's cold window off the hot anchor, hang a fresh batch under it,
    /// export the head of the batch to the next site's anchor, collect.
    fn round(&mut self, round: usize) {
        let site = SiteId::new(round as u32 % FOUNDING);
        let hot = self.hot[site.index() as usize];
        self.execute(MutatorOp::ClearRefs { site, name: hot });
        let mut head = None;
        for _ in 0..COLD_PER_ROUND {
            let cold = self.alloc(site, false);
            self.execute(MutatorOp::LinkLocal {
                site,
                from: hot,
                to: cold,
            });
            head.get_or_insert(cold);
        }
        if let Some(head) = head {
            let other = SiteId::new((site.index() + 1) % FOUNDING);
            let recipient = self.hot[other.index() as usize];
            self.execute(MutatorOp::SendRef {
                from_site: site,
                recipient,
                target: head,
            });
        }
        self.cluster.settle();
        self.execute(MutatorOp::CollectAll);
    }

    fn sample(&self) -> Sample {
        let mut dk_rows = 0;
        let mut vector_width = 0;
        let mut log_flags = 0;
        let mut row_flags = 0;
        for site in self.cluster.membership() {
            let log = self.cluster.collector(site).engine().log();
            dk_rows = dk_rows.max(log.len());
            log_flags = log_flags.max(log.root_flags().len());
            for (_, row) in log.rows() {
                vector_width = vector_width.max(row.entries().len());
                row_flags = row_flags.max(row.root_flags().len());
            }
        }
        Sample {
            dk_rows,
            vector_width,
            wal_bytes: self.cluster.store_stats().wal_bytes_appended,
            wal_records: self.cluster.store_stats().records_appended,
            ops: self.ops,
            log_flags,
            row_flags,
        }
    }
}

#[test]
#[ignore = "soak run; opt in with `cargo test --test soak -- --ignored`"]
fn footprint_stays_bounded_under_membership_churn() {
    let (tx, rx) = mpsc::channel();
    // The soak executes on a worker thread so the test thread can enforce
    // the hard timeout (idiom shared with `stress.rs`).
    thread::spawn(move || {
        let mut soak = Soak::new();
        let mut samples: Vec<Sample> = Vec::new();
        for phase in 0..PHASES {
            // A transient joiner comes up, takes a reference, and leaves
            // in an orderly fashion at the end of the phase — every phase
            // exercises the join catch-up and the reference handoff.
            let joiner = SiteId::new(FOUNDING + phase as u32);
            soak.membership(MembershipKind::Join, joiner);
            let landing = soak.alloc(joiner, true);
            let lent = soak.hot[0];
            soak.execute(MutatorOp::SendRef {
                from_site: SiteId::new(0),
                recipient: landing,
                target: lent,
            });
            for round in 0..ROUNDS_PER_PHASE {
                soak.round(phase * ROUNDS_PER_PHASE + round);
            }
            soak.membership(MembershipKind::PlannedLeave, joiner);
            soak.cluster.settle();
            soak.execute(MutatorOp::CollectAll);
            samples.push(soak.sample());
        }
        let report = soak.cluster.report();
        let departed: Vec<SiteId> = soak.cluster.departed_sites().iter().copied().collect();
        let mentioned: Vec<SiteId> = departed
            .iter()
            .flat_map(|&d| soak.cluster.sites_mentioning(d))
            .collect();
        let _ = tx.send((samples, report, departed, mentioned));
    });

    let (samples, report, departed, mentioned) = match rx.recv_timeout(HARD_TIMEOUT) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("soak run did not finish within {HARD_TIMEOUT:?}");
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("soak worker died before reporting");
        }
    };
    for sample in &samples {
        println!(
            "soak: ops={:6}  dk_rows={:4}  vector_width={:3}  log_flags={:5}  row_flags={:5}  wal_records={:6}  wal_bytes={:9}",
            sample.ops,
            sample.dk_rows,
            sample.vector_width,
            sample.log_flags,
            sample.row_flags,
            sample.wal_records,
            sample.wal_bytes
        );
    }

    assert_eq!(report.safety_violations, 0);
    assert_eq!(departed.len(), PHASES, "every joiner left in order");
    assert!(
        mentioned.is_empty(),
        "departed sites still referenced: {mentioned:?}"
    );

    // Bounded growth, the point of the soak: the footprint after the last
    // phase must sit within a small constant of the steady state reached
    // in the first half of the run. The churn touches the same number of
    // live objects every phase, so rows or width growing with phase count
    // would mean state for dead vertices or departed sites is never
    // retired.
    let half = samples.len() / 2;
    let rows_baseline = samples[..half].iter().map(|s| s.dk_rows).max().unwrap();
    let width_baseline = samples[..half]
        .iter()
        .map(|s| s.vector_width)
        .max()
        .unwrap();
    let last = samples.last().expect("at least one phase");
    assert!(
        last.dk_rows <= rows_baseline * 2,
        "DkLog rows creep: first-half max {} rows, last phase {} rows",
        rows_baseline,
        last.dk_rows
    );
    assert!(
        last.vector_width <= width_baseline * 2,
        "dependency-vector width creep: first-half max {}, last phase {}",
        width_baseline,
        last.vector_width
    );
    let flags_baseline = samples[..half]
        .iter()
        .map(|s| s.log_flags.max(s.row_flags))
        .max()
        .unwrap();
    assert!(
        last.log_flags.max(last.row_flags) <= flags_baseline * 2,
        "root-stamp creep: first-half max {} stamps, last phase {} — stamps \
         for dead global roots are not being compacted",
        flags_baseline,
        last.log_flags.max(last.row_flags)
    );
    // WAL appending is legitimately cumulative; what must stay bounded is
    // the per-phase rate. The join catch-up replays the membership history
    // (an O(phase) term in each phase's delta), so the churn volume above
    // is sized to dominate it; the rate over the second half must stay
    // within 1.5× of the first half's.
    let deltas: Vec<u64> = samples
        .windows(2)
        .map(|w| w[1].wal_bytes - w[0].wal_bytes)
        .collect();
    let split = deltas.len() / 2;
    let first_half = deltas[..split].iter().sum::<u64>() / split as u64;
    let second_half = deltas[split..].iter().sum::<u64>() / (deltas.len() - split) as u64;
    assert!(
        second_half * 2 <= first_half * 3,
        "WAL append rate creep: first half averaged {first_half} bytes per \
         phase, second half {second_half}"
    );
}
