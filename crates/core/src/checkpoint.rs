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
