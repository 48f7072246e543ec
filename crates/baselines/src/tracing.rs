//! A conceptually centralised graph-tracing GGD with a consensus phase.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

use ggd_heap::ReachabilitySnapshot;
use ggd_net::{MessageClass, Payload};
use ggd_types::{GlobalAddr, SiteId, VertexId};

/// Control messages of the tracing baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TracingMessage {
    /// A site reports its whole contribution to the global root graph to
    /// the coordinator (one entry per vertex it hosts, with that vertex's
    /// out-going inter-site edges and whether it is an actual root), plus
    /// its reference-transfer ledgers (see [`TracingEngine`]).
    Report {
        /// Reporting site.
        site: SiteId,
        /// Monotonically increasing epoch of the report.
        epoch: u64,
        /// When set, this report answers the coordinator's poll for the
        /// given collection round; when `None` it is a spontaneous
        /// change-notification.
        ack_round: Option<u64>,
        /// The site's vertices, their rootedness and their out-edges.
        vertices: Vec<(VertexId, bool, Vec<GlobalAddr>)>,
        /// Per `(target, recipient)` pair: how many reference transfers this
        /// site has *sent* (as exporter or third-party forwarder).
        transfers_sent: Vec<((GlobalAddr, GlobalAddr), u64)>,
        /// Per `(target, recipient)` pair: how many reference transfers this
        /// site has *received and stored*.
        transfers_received: Vec<((GlobalAddr, GlobalAddr), u64)>,
    },
    /// The coordinator asks every site for a fresh report: a collection
    /// round may only conclude once **every** site has answered — the
    /// consensus requirement the paper's E7 experiment measures.
    RoundPoll {
        /// The round being polled.
        round: u64,
    },
    /// The coordinator's verdicts for one site: these global roots are no
    /// longer reachable from any actual root.
    Sweep {
        /// Unreachable global roots hosted by the destination site.
        garbage: Vec<GlobalAddr>,
    },
}

impl Payload for TracingMessage {
    fn class(&self) -> MessageClass {
        MessageClass::Control
    }

    fn label(&self) -> &'static str {
        match self {
            TracingMessage::Report {
                ack_round: None, ..
            } => "trace-report",
            TracingMessage::Report {
                ack_round: Some(_), ..
            } => "trace-ack",
            TracingMessage::RoundPoll { .. } => "trace-poll",
            TracingMessage::Sweep { .. } => "trace-sweep",
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            TracingMessage::Report {
                vertices,
                transfers_sent,
                transfers_received,
                ..
            } => {
                24 + vertices
                    .iter()
                    .map(|(_, _, edges)| 24 + 16 * edges.len())
                    .sum::<usize>()
                    + 40 * (transfers_sent.len() + transfers_received.len())
            }
            TracingMessage::RoundPoll { .. } => 16,
            TracingMessage::Sweep { garbage } => 16 + 16 * garbage.len(),
        }
    }
}

/// One `(target, recipient) → count` ledger entry as carried on the wire.
type LedgerEntries = Vec<((GlobalAddr, GlobalAddr), u64)>;

/// Everything a site tells the coordinator (message payload minus identity).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct ReportBody {
    vertices: Vec<(VertexId, bool, Vec<GlobalAddr>)>,
    transfers_sent: LedgerEntries,
    transfers_received: LedgerEntries,
}

/// Strips every mention of a departed site from a report body: its hosted
/// vertices, edges towards its objects, and ledger entries whose target or
/// recipient it hosted. Used by the planned-leave path only — after the
/// reference handoff none of these can correspond to real state.
fn purge_site_from_body(body: &mut ReportBody, departed: SiteId) {
    body.vertices
        .retain(|(vertex, _, _)| vertex.site() != departed);
    for (_, _, edges) in body.vertices.iter_mut() {
        edges.retain(|addr| addr.site() != departed);
    }
    body.transfers_sent
        .retain(|((t, r), _)| t.site() != departed && r.site() != departed);
    body.transfers_received
        .retain(|((t, r), _)| t.site() != departed && r.site() != departed);
}

/// The graph-tracing baseline engine.
///
/// Site 0 doubles as the coordinator. Every site eagerly reports its portion
/// of the global root graph whenever it changes. Whenever the coordinator
/// learns of a change it opens a *collection round*: it polls every other
/// site and may assemble, trace and sweep the global graph only once every
/// site has acknowledged the round — and this is the consensus bottleneck
/// the paper attacks: one stalled or unreachable site blocks every
/// reclamation in the system, no matter how unrelated.
///
/// # In-transit reference accounting
///
/// Acknowledged reports are still not a perfectly consistent cut: a
/// reference transfer can be on the wire while the round closes. To stay
/// safe the engine keeps two monotonic ledgers, included in every report:
/// transfers *sent* per `(target, recipient)` pair (recorded by the export /
/// third-party-send hooks) and transfers *received and stored* (recorded by
/// the receive hook). During a trace the coordinator conservatively treats
/// every target with more sends than receipts as a root — the reference
/// could still be stored at any moment. A receipt is recorded in the same
/// report as the heap edge it created, so once the ledgers match, the edge
/// (or its legitimate destruction) is already visible.
///
/// Known limitation: a transfer whose reference message is dropped by fault
/// injection, or whose recipient object died before delivery, stays
/// unmatched forever and pins the target (residual garbage, never a safety
/// violation) — one more reason the paper prefers causal dependency
/// tracking over eager global views.
#[derive(Debug, Clone)]
pub struct TracingEngine {
    site: SiteId,
    coordinator: SiteId,
    /// Current fleet membership. The consensus barrier waits for exactly
    /// these sites, so elastic membership flows through here: a joined site
    /// is added (and polled into any open round), a departed one removed
    /// (possibly closing a round that was blocked on it).
    members: BTreeSet<SiteId>,
    epoch: u64,
    last_report: Option<ReportBody>,
    /// This site's ledger of reference transfers it performed.
    transfers_sent: BTreeMap<(GlobalAddr, GlobalAddr), u64>,
    /// This site's ledger of reference transfers it received and stored.
    transfers_received: BTreeMap<(GlobalAddr, GlobalAddr), u64>,
    /// Coordinator state: the latest report from every site.
    reports: BTreeMap<SiteId, ReportBody>,
    /// Coordinator state: something changed since the last completed round.
    dirty: bool,
    /// Coordinator state: the current round number.
    round: u64,
    /// Coordinator state: the sites that have acknowledged the open round
    /// (`None` when no round is open). Purely a consensus barrier — the
    /// trace itself reads the freshest reports.
    round_acks: Option<BTreeSet<SiteId>>,
    already_swept: BTreeSet<GlobalAddr>,
    outgoing: Vec<(SiteId, TracingMessage)>,
    verdicts: Vec<GlobalAddr>,
}

impl TracingEngine {
    /// Creates the engine for `site` in a system of `total_sites` founding
    /// sites (sites `0..total_sites`); later joins and departures are fed in
    /// through [`TracingEngine::add_member`] / [`TracingEngine::remove_member`].
    pub fn new(site: SiteId, total_sites: u32) -> Self {
        TracingEngine {
            site,
            coordinator: SiteId::new(0),
            members: (0..total_sites).map(SiteId::new).collect(),
            epoch: 0,
            last_report: None,
            transfers_sent: BTreeMap::new(),
            transfers_received: BTreeMap::new(),
            reports: BTreeMap::new(),
            dirty: false,
            round: 0,
            round_acks: None,
            already_swept: BTreeSet::new(),
            outgoing: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// The site this engine runs on.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// True when this engine is the coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.site == self.coordinator
    }

    /// Number of collection rounds the coordinator has opened so far.
    pub fn rounds_started(&self) -> u64 {
        self.round
    }

    /// True while the coordinator is waiting for round acknowledgements.
    pub fn round_open(&self) -> bool {
        self.round_acks.is_some()
    }

    /// The sites the consensus barrier currently waits for.
    pub fn members(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.members.iter().copied()
    }

    /// A site joined the fleet: the consensus barrier must include it from
    /// now on. If a round is already open the newcomer is polled into it —
    /// otherwise the round would close over a site it never heard from.
    pub fn add_member(&mut self, site: SiteId) {
        if !self.members.insert(site) {
            return;
        }
        if self.is_coordinator() && self.round_acks.is_some() && site != self.site {
            self.outgoing
                .push((site, TracingMessage::RoundPoll { round: self.round }));
        }
    }

    /// A site left the fleet. With `purge` (planned leave, references handed
    /// off) every trace of it is dropped: its report, its entries in other
    /// stored reports, and this site's own ledger entries touching it — the
    /// departed site's objects no longer exist, so an unmatched transfer
    /// towards it can never be stored and must stop pinning its target.
    /// Without `purge` (eviction) its last report and every ledger entry are
    /// kept: whatever the evicted site reached stays conservatively pinned —
    /// residual garbage, never a safety violation.
    ///
    /// Either way the site stops counting towards the consensus barrier, so
    /// a round blocked solely on the departed site completes.
    pub fn remove_member(&mut self, departed: SiteId, purge: bool) {
        if !self.members.remove(&departed) {
            return;
        }
        if let Some(acks) = self.round_acks.as_mut() {
            acks.remove(&departed);
        }
        if purge {
            self.transfers_sent
                .retain(|&(t, r), _| t.site() != departed && r.site() != departed);
            self.transfers_received
                .retain(|&(t, r), _| t.site() != departed && r.site() != departed);
            if let Some(last) = self.last_report.as_mut() {
                purge_site_from_body(last, departed);
            }
            self.reports.remove(&departed);
            for body in self.reports.values_mut() {
                purge_site_from_body(body, departed);
            }
            self.already_swept.retain(|addr| addr.site() != departed);
            self.outgoing.retain(|(to, _)| *to != departed);
            self.dirty = true;
        }
        if self.is_coordinator() {
            self.finish_round_if_complete();
            self.open_round_if_needed();
        }
    }

    /// True when this engine's state still mentions `site` anywhere —
    /// membership, stored or own reports (vertices, edges, ledgers), local
    /// transfer ledgers, swept-set or queued messages. After a purging
    /// [`TracingEngine::remove_member`] this must be `false` for the
    /// departed site; the membership oracle pins that.
    pub fn mentions_site(&self, site: SiteId) -> bool {
        let body_mentions = |body: &ReportBody| {
            body.vertices.iter().any(|(vertex, _, edges)| {
                vertex.site() == site || edges.iter().any(|addr| addr.site() == site)
            }) || body
                .transfers_sent
                .iter()
                .chain(&body.transfers_received)
                .any(|((t, r), _)| t.site() == site || r.site() == site)
        };
        self.members.contains(&site)
            || self.reports.contains_key(&site)
            || self.reports.values().any(body_mentions)
            || self.last_report.as_ref().is_some_and(body_mentions)
            || self
                .transfers_sent
                .keys()
                .chain(self.transfers_received.keys())
                .any(|&(t, r)| t.site() == site || r.site() == site)
            || self.already_swept.iter().any(|addr| addr.site() == site)
            || self.outgoing.iter().any(|(to, _)| *to == site)
    }

    /// Export hook: this site sent a reference to its local object `target`
    /// to the remote object `recipient`. The transfer ledger entry makes the
    /// in-flight reference visible to the coordinator.
    pub fn on_export(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        *self.transfers_sent.entry((target, recipient)).or_default() += 1;
    }

    /// Third-party-send hook: this site forwarded a reference denoting the
    /// remote object `target` to the (also remote) object `recipient`.
    pub fn on_third_party_send(&mut self, target: GlobalAddr, recipient: GlobalAddr) {
        *self.transfers_sent.entry((target, recipient)).or_default() += 1;
    }

    /// Receive hook: the local object `recipient` received (and stored) a
    /// reference to `target`, matching one sent transfer.
    pub fn on_receive_ref(&mut self, recipient: GlobalAddr, target: GlobalAddr) {
        *self
            .transfers_received
            .entry((target, recipient))
            .or_default() += 1;
    }

    fn ledgers(&self) -> (LedgerEntries, LedgerEntries) {
        (
            self.transfers_sent.iter().map(|(&k, &v)| (k, v)).collect(),
            self.transfers_received
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect(),
        )
    }

    fn current_body(&self, snapshot: &ReachabilitySnapshot) -> ReportBody {
        let anchor = VertexId::site_root(self.site.index());
        let mut vertices = vec![(
            anchor,
            true,
            snapshot.edges_of(anchor).into_iter().collect::<Vec<_>>(),
        )];
        for id in snapshot.global_roots() {
            let vertex = VertexId::from(GlobalAddr::from_parts(self.site, id));
            vertices.push((
                vertex,
                snapshot.is_locally_rooted(id),
                snapshot.edges_of(vertex).into_iter().collect(),
            ));
        }
        let (transfers_sent, transfers_received) = self.ledgers();
        ReportBody {
            vertices,
            transfers_sent,
            transfers_received,
        }
    }

    /// The body answering a round poll: vertices from the last snapshot
    /// (bare anchor before the first one), ledgers always *live* — a hook
    /// may have fired since the last sync, and an ack missing that
    /// sent-entry would let the coordinator sweep a target whose reference
    /// is in flight.
    fn polled_body(&self) -> ReportBody {
        let vertices = match &self.last_report {
            Some(last) => last.vertices.clone(),
            None => vec![(VertexId::site_root(self.site.index()), true, Vec::new())],
        };
        let (transfers_sent, transfers_received) = self.ledgers();
        ReportBody {
            vertices,
            transfers_sent,
            transfers_received,
        }
    }

    fn report_message(&mut self, body: ReportBody, ack_round: Option<u64>) -> TracingMessage {
        self.epoch += 1;
        TracingMessage::Report {
            site: self.site,
            epoch: self.epoch,
            ack_round,
            vertices: body.vertices,
            transfers_sent: body.transfers_sent,
            transfers_received: body.transfers_received,
        }
    }

    /// A fresh reachability snapshot: (re)build this site's report and send
    /// it to the coordinator if it changed.
    pub fn apply_snapshot(&mut self, snapshot: &ReachabilitySnapshot) {
        let body = self.current_body(snapshot);
        if Some(&body) == self.last_report.as_ref() {
            return;
        }
        self.last_report = Some(body.clone());
        if self.is_coordinator() {
            self.note_report(self.site, body);
        } else {
            let report = self.report_message(body, None);
            self.outgoing.push((self.coordinator, report));
        }
    }

    /// Processes one incoming control message.
    pub fn on_message(&mut self, message: TracingMessage) {
        match message {
            TracingMessage::Report {
                site,
                ack_round,
                vertices,
                transfers_sent,
                transfers_received,
                ..
            } => {
                if self.is_coordinator() {
                    if !self.members.contains(&site) {
                        // A straggler report from a departed site: its state
                        // was already retired (or frozen), don't resurrect it.
                        return;
                    }
                    let body = ReportBody {
                        vertices,
                        transfers_sent,
                        transfers_received,
                    };
                    if let Some(acked) = ack_round {
                        if acked == self.round {
                            if let Some(acks) = self.round_acks.as_mut() {
                                acks.insert(site);
                            }
                        }
                    }
                    self.note_report(site, body);
                    self.finish_round_if_complete();
                }
            }
            TracingMessage::RoundPoll { round } => {
                let body = self.polled_body();
                self.last_report = Some(body.clone());
                let reply = self.report_message(body, Some(round));
                self.outgoing.push((self.coordinator, reply));
            }
            TracingMessage::Sweep { garbage } => {
                for addr in garbage {
                    if addr.site() == self.site {
                        self.verdicts.push(addr);
                    }
                }
            }
        }
    }

    /// Drains queued control messages.
    pub fn take_outgoing(&mut self) -> Vec<(SiteId, TracingMessage)> {
        std::mem::take(&mut self.outgoing)
    }

    /// Drains verdicts.
    pub fn take_verdicts(&mut self) -> Vec<GlobalAddr> {
        std::mem::take(&mut self.verdicts)
    }

    /// Coordinator: absorbs a (spontaneous or acknowledged) report and opens
    /// a round if the global picture changed.
    fn note_report(&mut self, site: SiteId, body: ReportBody) {
        if self.reports.get(&site) != Some(&body) {
            self.reports.insert(site, body);
            self.dirty = true;
        }
        self.open_round_if_needed();
    }

    fn open_round_if_needed(&mut self) {
        if !self.dirty || self.round_acks.is_some() {
            return;
        }
        self.dirty = false;
        self.round += 1;
        self.round_acks = Some(BTreeSet::new());
        let polled: Vec<SiteId> = self
            .members
            .iter()
            .copied()
            .filter(|&site| site != self.site)
            .collect();
        for site in polled {
            self.outgoing
                .push((site, TracingMessage::RoundPoll { round: self.round }));
        }
        // A single-site system has nobody to poll.
        self.finish_round_if_complete();
    }

    /// The consensus-gated trace: runs only when every site has acknowledged
    /// the open round.
    fn finish_round_if_complete(&mut self) {
        let awaited = self
            .members
            .iter()
            .filter(|&&site| site != self.site)
            .count();
        let complete = match &self.round_acks {
            Some(acks) => acks.len() >= awaited,
            None => false,
        };
        if !complete {
            return;
        }
        self.round_acks = None;

        // The ack set is purely the consensus barrier. The trace itself
        // reads the *freshest* report held for every site (`reports` is at
        // least as new as any ack, since every ack also passes through
        // `note_report`), so a change a site makes after acknowledging —
        // a re-link, a fresh export — is never traced over stale data.
        let mut freshest = self.reports.clone();
        if let Some(own) = &self.last_report {
            freshest.insert(self.site, own.clone());
        }
        let bodies: Vec<&ReportBody> = freshest.values().collect();
        let mut edges: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
        let mut roots: Vec<VertexId> = Vec::new();
        let mut all_objects: BTreeSet<GlobalAddr> = BTreeSet::new();
        let mut in_transit: BTreeMap<(GlobalAddr, GlobalAddr), i64> = BTreeMap::new();
        for body in bodies {
            for (vertex, is_root, targets) in &body.vertices {
                if let Some(addr) = vertex.as_object() {
                    all_objects.insert(addr);
                }
                if *is_root || vertex.is_site_root() {
                    roots.push(*vertex);
                }
                edges
                    .entry(*vertex)
                    .or_default()
                    .extend(targets.iter().map(|&t| VertexId::from(t)));
            }
            for &(pair, count) in &body.transfers_sent {
                *in_transit.entry(pair).or_default() += count as i64;
            }
            for &(pair, count) in &body.transfers_received {
                *in_transit.entry(pair).or_default() -= count as i64;
            }
        }
        // Conservatively root every target with unmatched transfers: the
        // reference is (or may still be) on the wire and could be stored at
        // any moment. Stale ledgers only ever err towards keeping objects.
        for (&(target, _recipient), &unmatched) in &in_transit {
            if unmatched > 0 {
                roots.push(VertexId::from(target));
            }
        }
        let mut marked: BTreeSet<VertexId> = BTreeSet::new();
        let mut stack = roots;
        while let Some(vertex) = stack.pop() {
            if !marked.insert(vertex) {
                continue;
            }
            if let Some(succ) = edges.get(&vertex) {
                stack.extend(succ.iter().copied());
            }
        }
        let mut per_site: BTreeMap<SiteId, Vec<GlobalAddr>> = BTreeMap::new();
        for addr in all_objects {
            if !marked.contains(&VertexId::from(addr)) && self.already_swept.insert(addr) {
                per_site.entry(addr.site()).or_default().push(addr);
            }
        }
        for (site, garbage) in per_site {
            let sweep = TracingMessage::Sweep { garbage };
            if site == self.site {
                self.on_message(sweep);
            } else {
                self.outgoing.push((site, sweep));
            }
        }
        // Changes that arrived while the round was closing trigger the next.
        self.open_round_if_needed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggd_heap::{ObjRef, SiteHeap};

    /// Pumps control messages between engines until quiescent; `withheld`
    /// sites neither receive nor answer (a stalled site).
    fn pump(engines: &mut [TracingEngine], withheld: &[SiteId]) {
        loop {
            let mut in_flight: Vec<(SiteId, TracingMessage)> = Vec::new();
            for engine in engines.iter_mut() {
                in_flight.extend(engine.take_outgoing());
            }
            if in_flight.is_empty() {
                break;
            }
            for (to, message) in in_flight {
                if withheld.contains(&to) {
                    continue;
                }
                engines
                    .iter_mut()
                    .find(|e| e.site() == to)
                    .expect("destination engine exists")
                    .on_message(message);
            }
        }
    }

    #[test]
    fn verdict_requires_acks_from_every_site() {
        // Site 0: root -> remote object on site 1; site 2 stalled.
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let mut engines = vec![
            TracingEngine::new(SiteId::new(0), 3),
            TracingEngine::new(SiteId::new(1), 3),
            TracingEngine::new(SiteId::new(2), 3),
        ];
        assert!(engines[0].is_coordinator());
        assert!(!engines[1].is_coordinator());

        let obj = h1.alloc();
        h1.register_global_root(obj).unwrap();
        let obj_addr = h1.addr_of(obj);
        let root = h0.alloc_local_root();
        h0.add_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        h0.remove_ref(root, ObjRef::Remote(obj_addr)).unwrap();

        engines[0].apply_snapshot(&h0.snapshot());
        engines[1].apply_snapshot(&h1.snapshot());

        // With site 2 stalled the round can never close: no verdict.
        pump(&mut engines, &[SiteId::new(2)]);
        assert!(engines[0].round_open(), "round blocked on the stalled site");
        assert!(engines[1].take_verdicts().is_empty(), "no ack, no sweep");

        // Site 2 resumes: re-deliver the poll by pumping without withholding
        // (the coordinator's poll is still queued towards site 2 in a real
        // network; here we re-open the round by reporting a change).
        let open_round = engines[0].rounds_started();
        engines[2].on_message(TracingMessage::RoundPoll { round: open_round });
        pump(&mut engines, &[]);
        assert_eq!(engines[1].take_verdicts(), vec![obj_addr]);
    }

    #[test]
    fn tracing_collects_cycles_once_everyone_acks() {
        // A two-object cross-site cycle with no root.
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let a = h0.alloc();
        let b = h1.alloc();
        h0.register_global_root(a).unwrap();
        h1.register_global_root(b).unwrap();
        h0.add_ref(a, ObjRef::Remote(h1.addr_of(b))).unwrap();
        h1.add_ref(b, ObjRef::Remote(h0.addr_of(a))).unwrap();

        let mut engines = vec![
            TracingEngine::new(SiteId::new(0), 2),
            TracingEngine::new(SiteId::new(1), 2),
        ];
        engines[0].apply_snapshot(&h0.snapshot());
        engines[1].apply_snapshot(&h1.snapshot());
        pump(&mut engines, &[]);
        assert_eq!(engines[0].take_verdicts(), vec![h0.addr_of(a)]);
        assert_eq!(engines[1].take_verdicts(), vec![h1.addr_of(b)]);
    }

    #[test]
    fn unmatched_transfers_pin_their_target() {
        // Site 1 hosts `obj`, unreferenced from anywhere, but a transfer of
        // its reference is still unmatched (in flight): no sweep.
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let obj = h1.alloc();
        h1.register_global_root(obj).unwrap();
        let obj_addr = h1.addr_of(obj);

        let mut engines = vec![
            TracingEngine::new(SiteId::new(0), 2),
            TracingEngine::new(SiteId::new(1), 2),
        ];
        engines[1].on_export(obj_addr, GlobalAddr::new(0, 1));
        engines[1].apply_snapshot(&h1.snapshot());
        pump(&mut engines, &[]);
        assert!(
            engines[1].take_verdicts().is_empty(),
            "in-transit reference keeps the target alive"
        );

        // Once the receipt is ledgered (and the recipient still does not
        // store the reference anywhere reachable... it was received by a
        // never-reported recipient), the target becomes collectable.
        engines[0].on_receive_ref(GlobalAddr::new(0, 1), obj_addr);
        let h0 = SiteHeap::new(SiteId::new(0));
        engines[0].apply_snapshot(&h0.snapshot());
        pump(&mut engines, &[]);
        assert_eq!(engines[1].take_verdicts(), vec![obj_addr]);
    }

    /// The "tracing under loss" limitation documented in DESIGN.md ("Known
    /// limitations"): a reference transfer whose mutator message is dropped
    /// leaves a permanently unmatched sent-ledger entry. The coordinator
    /// must then conservatively treat the target as rooted in every round —
    /// for ever — so the target is pinned as *residual garbage*, but no
    /// verdict is ever produced for it (never a safety violation).
    #[test]
    fn dropped_transfer_pins_target_forever_without_violation() {
        // Site 1 hosts `obj`, a global root nothing references; site 1
        // exported its reference towards site 0, but the message was lost
        // in flight: the receive hook never fires anywhere.
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let obj = h1.alloc();
        h1.register_global_root(obj).unwrap();
        let obj_addr = h1.addr_of(obj);
        let h0 = SiteHeap::new(SiteId::new(0));

        let mut engines = vec![
            TracingEngine::new(SiteId::new(0), 2),
            TracingEngine::new(SiteId::new(1), 2),
        ];
        engines[1].on_export(obj_addr, GlobalAddr::new(0, 1));
        engines[0].apply_snapshot(&h0.snapshot());
        engines[1].apply_snapshot(&h1.snapshot());
        pump(&mut engines, &[]);
        assert!(
            engines[1].take_verdicts().is_empty(),
            "round 1: the unmatched transfer pins the target"
        );

        // Force several more collection rounds by reporting fresh changes
        // elsewhere: the ledger entry never matches, so the pin is
        // permanent — `obj` stays on the heap as residual garbage.
        let mut h0_churn = h0;
        for round in 0..3 {
            let filler = h0_churn.alloc_local_root();
            engines[0].apply_snapshot(&h0_churn.snapshot());
            pump(&mut engines, &[]);
            assert!(
                engines[1].take_verdicts().is_empty(),
                "round {}: a lost transfer must keep pinning the target",
                round + 2
            );
            let _ = filler;
        }
        assert!(
            h1.contains(obj),
            "the target was never freed: residual garbage, not a violation"
        );
        assert!(engines[0].rounds_started() >= 2, "rounds did run");
    }

    #[test]
    fn removing_a_member_closes_a_round_blocked_on_it() {
        // Same shape as `verdict_requires_acks_from_every_site`, but instead
        // of resuming, the stalled site is removed from the membership: the
        // blocked round must complete with the survivors' acks alone.
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let mut engines = vec![
            TracingEngine::new(SiteId::new(0), 3),
            TracingEngine::new(SiteId::new(1), 3),
            TracingEngine::new(SiteId::new(2), 3),
        ];

        let obj = h1.alloc();
        h1.register_global_root(obj).unwrap();
        let obj_addr = h1.addr_of(obj);
        let root = h0.alloc_local_root();
        h0.add_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        h0.remove_ref(root, ObjRef::Remote(obj_addr)).unwrap();

        engines[0].apply_snapshot(&h0.snapshot());
        engines[1].apply_snapshot(&h1.snapshot());
        pump(&mut engines, &[SiteId::new(2)]);
        assert!(engines[0].round_open(), "round blocked on the stalled site");

        for engine in engines.iter_mut() {
            engine.remove_member(SiteId::new(2), false);
        }
        pump(&mut engines, &[SiteId::new(2)]);
        assert_eq!(engines[1].take_verdicts(), vec![obj_addr]);
    }

    #[test]
    fn purge_unpins_transfers_towards_the_departed_site() {
        // Site 1 exported `obj` towards a recipient on site 2; the receipt
        // never ledgered. The unmatched transfer pins `obj` — until site 2
        // departs in a planned leave and the entry is purged.
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let obj = h1.alloc();
        h1.register_global_root(obj).unwrap();
        let obj_addr = h1.addr_of(obj);
        let h0 = SiteHeap::new(SiteId::new(0));

        let mut engines = vec![
            TracingEngine::new(SiteId::new(0), 3),
            TracingEngine::new(SiteId::new(1), 3),
            TracingEngine::new(SiteId::new(2), 3),
        ];
        engines[1].on_export(obj_addr, GlobalAddr::new(2, 1));
        engines[0].apply_snapshot(&h0.snapshot());
        engines[1].apply_snapshot(&h1.snapshot());
        let h2 = SiteHeap::new(SiteId::new(2));
        engines[2].apply_snapshot(&h2.snapshot());
        pump(&mut engines, &[]);
        assert!(
            engines[1].take_verdicts().is_empty(),
            "unmatched transfer pins the target"
        );

        for engine in engines.iter_mut() {
            engine.remove_member(SiteId::new(2), true);
        }
        // The purge dirtied the coordinator; a fresh report from site 1
        // (ledger now clean) lets the next round sweep the object.
        engines[1].apply_snapshot(&h1.snapshot());
        pump(&mut engines, &[SiteId::new(2)]);
        assert_eq!(engines[1].take_verdicts(), vec![obj_addr]);
    }

    #[test]
    fn joined_member_is_polled_into_an_open_round() {
        let mut h0 = SiteHeap::new(SiteId::new(0));
        let mut h1 = SiteHeap::new(SiteId::new(1));
        let mut engines = vec![
            TracingEngine::new(SiteId::new(0), 2),
            TracingEngine::new(SiteId::new(1), 2),
        ];
        let obj = h1.alloc();
        h1.register_global_root(obj).unwrap();
        let obj_addr = h1.addr_of(obj);
        let root = h0.alloc_local_root();
        h0.add_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        h0.remove_ref(root, ObjRef::Remote(obj_addr)).unwrap();
        engines[0].apply_snapshot(&h0.snapshot());
        engines[1].apply_snapshot(&h1.snapshot());

        // Withhold site 1 so the round stays open, then join site 2: the
        // newcomer must be polled into the open round and the round must not
        // close before it acks.
        pump(&mut engines, &[SiteId::new(1)]);
        assert!(engines[0].round_open());
        engines.push(TracingEngine::new(SiteId::new(2), 2));
        for engine in engines.iter_mut() {
            engine.add_member(SiteId::new(2));
        }
        let polls = engines[0].take_outgoing();
        assert!(
            polls
                .iter()
                .any(|(to, m)| *to == SiteId::new(2)
                    && matches!(m, TracingMessage::RoundPoll { .. })),
            "newcomer polled into the open round"
        );
        for (to, message) in polls {
            engines
                .iter_mut()
                .find(|e| e.site() == to)
                .unwrap()
                .on_message(message);
        }
        // Site 1's original poll was withheld (lost); re-deliver it.
        let open_round = engines[0].rounds_started();
        engines[1].on_message(TracingMessage::RoundPoll { round: open_round });
        pump(&mut engines, &[]);
        assert_eq!(engines[1].take_verdicts(), vec![obj_addr]);
    }

    #[test]
    fn message_sizes_scale_with_report_content() {
        let small = TracingMessage::Sweep { garbage: vec![] };
        let big = TracingMessage::Report {
            site: SiteId::new(1),
            epoch: 1,
            ack_round: None,
            vertices: vec![(VertexId::site_root(1), true, vec![GlobalAddr::new(2, 2); 8])],
            transfers_sent: vec![((GlobalAddr::new(1, 1), GlobalAddr::new(2, 2)), 3)],
            transfers_received: vec![],
        };
        assert!(big.size_hint() > small.size_hint());
        assert_eq!(big.label(), "trace-report");
        assert_eq!(small.label(), "trace-sweep");
        assert_eq!(TracingMessage::RoundPoll { round: 1 }.label(), "trace-poll");
    }
}
