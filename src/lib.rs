//! **ggd** — comprehensive distributed garbage collection by tracking causal
//! dependencies of relevant mutator events.
//!
//! This is the facade crate of the workspace reproducing Louboutin & Cahill,
//! *Comprehensive Distributed Garbage Collection by Tracking Causal
//! Dependencies of Relevant Mutator Events* (ICDCS 1997). It re-exports the
//! sub-crates so that applications can depend on a single crate:
//!
//! * [`types`] — identifiers, timestamps and dependency vectors;
//! * [`net`] — the [`Transport`](net::Transport) abstraction, the
//!   deterministic simulated network and the wire frames the parallel
//!   driver moves between threads;
//! * [`heap`] — per-site heaps, local mark-sweep GC and reachability
//!   snapshots;
//! * [`mutator`] — mutator operations and workload generators;
//! * [`causal`] — the paper's causal GGD engine (lazy log-keeping +
//!   vector-time reconstruction);
//! * [`baselines`] — reference-listing and graph-tracing baselines;
//! * [`obs`] — deterministic observability: per-site metric registries,
//!   span-style structured tracing and the object-lifecycle ledger, all
//!   keyed by logical time;
//! * [`sim`] — the transport-generic sequential cluster, the parallel
//!   (worker-thread) driver, per-site runtimes, oracle and experiment
//!   reports;
//! * [`explore`] — the deterministic scenario explorer: generated
//!   `(scenario, fault plan, seed)` corpora differentially tested across
//!   all collectors, with greedy shrinking of failures.
//!
//! # Quickstart
//!
//! ```
//! use ggd::prelude::*;
//!
//! // Replay the paper's running example (Figures 3-5 and 8) against the
//! // causal collector and check that the disconnected cycle {2,3,4} is
//! // reclaimed without ever freeing a reachable object.
//! let scenario = ggd::mutator::workloads::paper_example();
//! let mut cluster =
//!     Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
//! let report = cluster.run(&scenario);
//! assert_eq!(report.safety_violations, 0);
//! assert_eq!(report.residual_garbage, 0);
//! ```

pub use ggd_baselines as baselines;
pub use ggd_causal as causal;
pub use ggd_explore as explore;
pub use ggd_heap as heap;
pub use ggd_mutator as mutator;
pub use ggd_net as net;
pub use ggd_obs as obs;
pub use ggd_sim as sim;
pub use ggd_store as store;
pub use ggd_types as types;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use ggd_causal::{CausalEngine, CausalMessage};
    pub use ggd_explore::{
        explore, membership_corpus_triple, run_triple, CheckFailure, ExplorerConfig, RunMode,
        Triple,
    };
    pub use ggd_heap::{ObjRef, SiteHeap};
    pub use ggd_mutator::generator::{splice_membership, ScenarioSpec, Segment, SegmentWeights};
    pub use ggd_mutator::{
        workloads, MembershipEvent, MembershipKind, MutatorOp, ObjName, Scenario, Step,
    };
    pub use ggd_net::{
        FaultPlan, Frame, LinkFault, NamedFaultPlan, NetMetrics, SimNetwork, SimNetworkConfig,
        Transport, WireCodec,
    };
    pub use ggd_obs::{ObsConfig, ObsReport, TraceView};
    pub use ggd_sim::{
        CausalCollector, Cluster, ClusterConfig, Collector, DurabilityConfig, DurabilityMode,
        Oracle, ParallelCluster, RefListingCollector, RunReport, SiteRuntime, TracingCollector,
    };
    pub use ggd_store::{SiteStore, StoreStats, WalRecord};
    pub use ggd_types::{
        DependencyVector, EventIndex, GlobalAddr, ObjectId, SiteId, Timestamp, VertexId,
    };
}
