//! `ggd-obs` — the deterministic observability layer of the causal GGD
//! workspace.
//!
//! The paper's central claims are quantitative (control-message counts,
//! detection latency), and this crate makes them first-class measurements
//! instead of scattered ad-hoc counters. Three pieces:
//!
//! 1. **Per-scope metrics registry** ([`Registry`], held by [`SiteObs`]):
//!    counters and gauges, keyed by *logical time only* — scenario steps,
//!    settle rounds, sim ticks, never a wall clock. Snapshots are bit-reproducible across runs, and the
//!    deterministic subset is identical between the sequential and parallel
//!    drivers on the equivalence corpus.
//! 2. **Structured event tracing** ([`TraceEvent`], exported by
//!    [`ObsReport::trace_jsonl`]): settle rounds, termination-barrier credit
//!    high-water marks, membership handoffs, WAL replay and DkLog compaction
//!    as JSONL with the versioned [`TRACE_SCHEMA`]. Each event declares its
//!    determinism class; see [`trace`] for the exact contract.
//! 3. **Object-lifecycle ledger** ([`Ledger`]): per-object
//!    allocation → unreachable → detected → reclaimed logical timestamps,
//!    folded into fixed-bucket detection-latency [`Histogram`]s — the
//!    paper's metric, measured per object.
//!
//! The off-path is free: with [`ObsConfig::enabled`]` == false` every handle
//! is a `None` behind one pointer and every probe is a single branch.

pub mod ledger;
pub mod registry;
pub mod report;
pub mod site;
pub mod trace;

pub use ledger::{Ledger, Lifecycle};
pub use registry::{Histogram, Registry, HISTOGRAM_BOUNDS};
pub use report::ObsReport;
pub use site::{ObsConfig, SiteObs};
pub use trace::{render_jsonl, validate_jsonl, TraceEvent, TraceView, TRACE_SCHEMA};
