//! The repo benchmark: four workloads, eleven end-to-end metrics measured
//! with tracing off, and a per-layer trace recorded from outside the program
//! through its public `Collector` and `Transport` traits. See `README.md`.

pub mod alloc;
pub mod host;
pub mod metrics;
pub mod project;
pub mod run;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
