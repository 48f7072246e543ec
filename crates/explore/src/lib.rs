//! Deterministic scenario explorer: fault-matrix differential testing
//! across every collector in the workspace.
//!
//! The paper's headline claims — safety always, comprehensiveness without
//! consensus, robustness under loss and duplication — are properties a
//! simulation harness can check *mechanically*. This crate multiplies the
//! hand-written experiment coverage by generating whole corpora of
//! `(scenario, fault plan, seed)` triples and running every triple through
//! the causal collector, the graph-tracing baseline and the
//! reference-listing baseline on the deterministic
//! [`SimNetwork`](ggd_net::SimNetwork), cross-checked by the omniscient
//! [`Oracle`](ggd_sim::Oracle):
//!
//! * **Safety** — no collector ever frees an object the oracle still
//!   considers reachable, on any fault plan.
//! * **Comprehensiveness ordering** — on loss-free plans, the causal
//!   engine's residual garbage must be a subset of graph tracing's
//!   (everything tracing reclaims, the causal engine reclaims too).
//! * **Acyclic boundary** — reference listing must never reclaim a member
//!   of a disconnected inter-site cycle.
//! * **Replay determinism** — a failing triple re-runs bit-identically.
//!
//! [`ExplorerConfig::family`] picks one of three corpora
//! ([`CorpusFamily`]): the classic fault matrix; the crash matrix, where
//! every crashed site recovers by checkpoint-load + WAL replay; or
//! elastic-membership schedules over the partition matrix.
//!
//! Failing triples are greedily minimized ([`shrink`]) and printed as
//! paste-ready Rust test snippets ([`reproducer`]). The
//! [`SaboteurCollector`] deliberately forges unsafe verdicts so the whole
//! pipeline — detection, shrinking, reproduction — can be validated
//! end-to-end (`explore --self-test`).
//!
//! # Example
//!
//! ```
//! use ggd_explore::{explore, ExplorerConfig};
//!
//! let config = ExplorerConfig {
//!     corpus: 4,
//!     seed: 7,
//!     ..ExplorerConfig::default()
//! };
//! let exploration = explore(&config);
//! assert_eq!(exploration.stats.triples, 4);
//! assert_eq!(exploration.stats.violating_triples, 0);
//! // Determinism: the same config reproduces identical statistics.
//! assert_eq!(explore(&config).stats, exploration.stats);
//! ```

mod explorer;
mod repro;
mod runner;
mod saboteur;
mod shrink;

pub use explorer::{
    corpus_triple, crash_corpus_triple, explore, membership_corpus_triple, CollectorTally,
    CorpusFamily, CorpusStats, Exploration, ExplorerConfig, FailedTriple,
};
pub use repro::reproducer;
pub use runner::{run_triple, trace_triple, CheckFailure, RunMode, Triple, TripleOutcome};
pub use saboteur::SaboteurCollector;
pub use shrink::{sanitize, shrink};
