//! Whole-system simulator: sites (heap + collector) over a deterministic
//! network, an oracle for ground-truth reachability, and the experiment
//! runner used by the benchmark harness.
//!
//! The simulator replays a [`ggd_mutator::Scenario`] against a cluster of
//! sites. Each site is a [`SiteRuntime`] owning a [`ggd_heap::SiteHeap`] and
//! a garbage-detection engine implementing the [`Collector`] trait;
//! reference-carrying mutator messages and GGD control messages share one
//! [`ggd_net::Transport`], so the per-class message counts reported by every
//! experiment come straight from the network metrics.
//!
//! The paper's collector is per-site and message-driven, so nothing in it
//! depends on who schedules the sites. The crate is built the same way: one
//! drive loop (`cluster.rs`: name resolution, skip analysis, the crash
//! schedule and the membership protocols) calls one shard (`shard.rs`: the
//! table of every site — up, down or gone — and everything that happens to
//! them) directly, with two ways to deliver messages. [`Cluster`] polls any
//! transport on one thread, by default the deterministic
//! [`ggd_net::SimNetwork`]. [`ParallelCluster`], the one concurrent
//! backend, posts encoded frames to mailboxes and drains them on threads of
//! their own, as an asynchrony/correctness harness.
//!
//! # Example
//!
//! ```
//! use ggd_mutator::workloads;
//! use ggd_sim::{CausalCollector, Cluster, ClusterConfig};
//!
//! let scenario = workloads::paper_example();
//! let mut cluster =
//!     Cluster::from_scenario(&scenario, ClusterConfig::default(), CausalCollector::new);
//! let report = cluster.run(&scenario);
//! assert_eq!(report.safety_violations, 0);
//! assert_eq!(report.residual_garbage, 0, "objects 2,3,4 must be reclaimed");
//! ```

mod cluster;
mod collector;
mod oracle;
mod parallel;
mod report;
mod runtime;
mod shard;

pub use cluster::{Cluster, ClusterConfig};
pub use collector::{
    CausalCollector, Collector, RefListingCollector, SimPayload, TracingCollector,
};
pub use oracle::{LiveSet, Oracle};
pub use parallel::ParallelCluster;
pub use report::RunReport;
pub use runtime::{SiteRuntime, SiteTick};
// Durability configuration re-exported so cluster users need not depend on
// ggd-store directly.
pub use ggd_store::{DurabilityConfig, DurabilityMode, MembershipAnnouncement, MembershipChange};
