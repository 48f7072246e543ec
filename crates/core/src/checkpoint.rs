//! Durable engine state: what a [`CausalEngine`] writes into a checkpoint
//! and restores after a crash.
//!
//! The checkpoint captures the engine's *logical* state exhaustively — the
//! per-vertex event counters, the log `DK`, the circulated-closure memo, the
//! out-edge view, the lazy-rule holder bookkeeping and the verdict history.
//! The out-edge refcount index is derived data and rebuilt on restore.
//! The checkpoint holds this state in ordered maps, whatever layout the live
//! engine uses, so its encoding is in ascending vertex order.
//!
//! The image's byte layout is written in one place, `ggd-store`'s
//! `write_engine_image`, from any [`EngineImageSource`]: the live
//! [`CausalEngine`] (the checkpoint path writes from its borrowed state,
//! building no [`EngineCheckpoint`]) or a decoded [`EngineCheckpoint`]. It
//! is read in one place, `ggd-store`'s `read_engine_image`, into any
//! [`EngineImageSink`]: a restored [`CausalEngine`] (recovery decodes
//! straight into its tables, building no ordered map) or an owned
//! [`EngineCheckpoint`].
//!
//! [`CausalEngine`]: crate::CausalEngine
//!
//! A checkpoint is meant to be taken at a quiescent point of the site's own
//! processing — after the runtime has drained outgoing messages and applied
//! pending verdicts — but queued items are captured anyway so that
//! `restore(checkpoint(e)) == e` holds unconditionally.

use std::collections::{BTreeMap, BTreeSet};

use ggd_types::{DependencyVector, GlobalAddr, SiteId, VertexId};

use crate::engine::{EngineStats, Outgoing};
use crate::log::DkLog;

/// The complete durable state of one [`CausalEngine`].
///
/// [`CausalEngine`]: crate::CausalEngine
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// The site the engine runs on.
    pub site: SiteId,
    /// Per-vertex log-keeping event counters.
    pub counters: BTreeMap<VertexId, u64>,
    /// The log `DK` of dependency-vector rows plus root knowledge.
    pub log: DkLog,
    /// The last closure circulated per vertex (suppresses re-propagation).
    pub last_closure: BTreeMap<VertexId, DependencyVector>,
    /// The engine's view of its site's out-going inter-site edges.
    pub edges_out: BTreeMap<VertexId, BTreeSet<GlobalAddr>>,
    /// Global roots currently reachable from the site's local root set.
    pub locally_rooted: BTreeSet<VertexId>,
    /// Per remote target: local holder objects recorded by the receive rule.
    pub inbound_holders: BTreeMap<GlobalAddr, BTreeSet<VertexId>>,
    /// Every garbage verdict ever produced (blocks re-detection).
    pub detected: BTreeSet<GlobalAddr>,
    /// Verdicts produced but not yet drained by the runtime.
    pub pending_verdicts: Vec<GlobalAddr>,
    /// Control messages queued but not yet drained by the runtime.
    pub outgoing: Vec<Outgoing>,
    /// Accumulated statistics.
    pub stats: EngineStats,
}

/// An engine's durable state as the image writer reads it, borrowed: every
/// sequence in the order the image lists it, which is ascending by key.
/// The counted sequences are `Clone`, so the writer can count one before
/// writing it. A live [`CausalEngine`] and its [`CausalEngine::checkpoint`]
/// yield the same parts.
///
/// [`CausalEngine`]: crate::CausalEngine
/// [`CausalEngine::checkpoint`]: crate::CausalEngine::checkpoint
pub trait EngineImageSource {
    /// The site the engine runs on.
    fn site(&self) -> SiteId;
    /// The non-zero event counters.
    fn counters(&self) -> impl Iterator<Item = (VertexId, u64)> + Clone;
    /// The log `DK`.
    fn log(&self) -> &DkLog;
    /// The circulated-closure memos.
    fn last_closures(&self) -> impl Iterator<Item = (VertexId, &DependencyVector)> + Clone;
    /// The non-empty out-edge sets, each ascending.
    fn edges_out(
        &self,
    ) -> impl Iterator<Item = (VertexId, impl ExactSizeIterator<Item = GlobalAddr>)> + Clone;
    /// The locally rooted global roots.
    fn locally_rooted(&self) -> impl Iterator<Item = VertexId> + Clone;
    /// The non-empty receive-rule holder sets by target, each ascending.
    fn inbound_holders(
        &self,
    ) -> impl ExactSizeIterator<Item = (GlobalAddr, impl ExactSizeIterator<Item = VertexId>)>;
    /// Every garbage verdict ever produced.
    fn detected(&self) -> impl Iterator<Item = GlobalAddr> + Clone;
    /// Verdicts not yet drained.
    fn pending_verdicts(&self) -> &[GlobalAddr];
    /// Control messages not yet drained.
    fn outgoing(&self) -> &[Outgoing];
    /// Accumulated statistics.
    fn stats(&self) -> &EngineStats;
}

/// An engine being rebuilt from its image, fed part by part in layout
/// order by the image reader: the read-side twin of [`EngineImageSource`].
/// The reader checks every part before handing it over — keys strictly
/// ascend, and no vertex with state is one of the site's objects the heap
/// never allocated — and a malformed image fails the read, dropping the
/// half-built sink. A restored [`CausalEngine`] and an owned
/// [`EngineCheckpoint`] are the two sinks; the first keeps state for its
/// own site's vertices only, as [`CausalEngine::restore`] does.
///
/// [`CausalEngine`]: crate::CausalEngine
/// [`CausalEngine::restore`]: crate::CausalEngine::restore
pub trait EngineImageSink: Sized {
    /// Starts the engine of `site`.
    fn begin(site: SiteId) -> Self;
    /// An event counter.
    fn counter(&mut self, vertex: VertexId, counter: u64);
    /// A circulated-closure memo.
    fn last_closure(&mut self, vertex: VertexId, closure: DependencyVector);
    /// An out-edge set, ascending.
    fn edges_out(&mut self, vertex: VertexId, targets: &[GlobalAddr]);
    /// A locally rooted global root.
    fn locally_rooted(&mut self, vertex: VertexId);
    /// A receive-rule holder set, ascending.
    fn holders(&mut self, target: GlobalAddr, holders: &[VertexId]);
    /// A garbage verdict produced.
    fn detected(&mut self, addr: GlobalAddr);
    /// Ends the image with the parts read whole: the log, the undrained
    /// verdicts and messages, and the statistics.
    fn finish(
        &mut self,
        log: DkLog,
        pending_verdicts: Vec<GlobalAddr>,
        outgoing: Vec<Outgoing>,
        stats: EngineStats,
    );
}

impl EngineImageSink for EngineCheckpoint {
    fn begin(site: SiteId) -> Self {
        EngineCheckpoint {
            site,
            counters: BTreeMap::new(),
            log: DkLog::new(site),
            last_closure: BTreeMap::new(),
            edges_out: BTreeMap::new(),
            locally_rooted: BTreeSet::new(),
            inbound_holders: BTreeMap::new(),
            detected: BTreeSet::new(),
            pending_verdicts: Vec::new(),
            outgoing: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    fn counter(&mut self, vertex: VertexId, counter: u64) {
        self.counters.insert(vertex, counter);
    }

    fn last_closure(&mut self, vertex: VertexId, closure: DependencyVector) {
        self.last_closure.insert(vertex, closure);
    }

    fn edges_out(&mut self, vertex: VertexId, targets: &[GlobalAddr]) {
        self.edges_out
            .insert(vertex, targets.iter().copied().collect());
    }

    fn locally_rooted(&mut self, vertex: VertexId) {
        self.locally_rooted.insert(vertex);
    }

    fn holders(&mut self, target: GlobalAddr, holders: &[VertexId]) {
        self.inbound_holders
            .insert(target, holders.iter().copied().collect());
    }

    fn detected(&mut self, addr: GlobalAddr) {
        self.detected.insert(addr);
    }

    fn finish(
        &mut self,
        log: DkLog,
        pending_verdicts: Vec<GlobalAddr>,
        outgoing: Vec<Outgoing>,
        stats: EngineStats,
    ) {
        self.log = log;
        self.pending_verdicts = pending_verdicts;
        self.outgoing = outgoing;
        self.stats = stats;
    }
}

impl EngineImageSource for EngineCheckpoint {
    fn site(&self) -> SiteId {
        self.site
    }

    fn counters(&self) -> impl Iterator<Item = (VertexId, u64)> + Clone {
        self.counters
            .iter()
            .map(|(&vertex, &counter)| (vertex, counter))
    }

    fn log(&self) -> &DkLog {
        &self.log
    }

    fn last_closures(&self) -> impl Iterator<Item = (VertexId, &DependencyVector)> + Clone {
        self.last_closure
            .iter()
            .map(|(&vertex, closure)| (vertex, closure))
    }

    fn edges_out(
        &self,
    ) -> impl Iterator<Item = (VertexId, impl ExactSizeIterator<Item = GlobalAddr>)> + Clone {
        self.edges_out
            .iter()
            .map(|(&vertex, targets)| (vertex, targets.iter().copied()))
    }

    fn locally_rooted(&self) -> impl Iterator<Item = VertexId> + Clone {
        self.locally_rooted.iter().copied()
    }

    fn inbound_holders(
        &self,
    ) -> impl ExactSizeIterator<Item = (GlobalAddr, impl ExactSizeIterator<Item = VertexId>)> {
        self.inbound_holders
            .iter()
            .map(|(&target, holders)| (target, holders.iter().copied()))
    }

    fn detected(&self) -> impl Iterator<Item = GlobalAddr> + Clone {
        self.detected.iter().copied()
    }

    fn pending_verdicts(&self) -> &[GlobalAddr] {
        &self.pending_verdicts
    }

    fn outgoing(&self) -> &[Outgoing] {
        &self.outgoing
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }
}
