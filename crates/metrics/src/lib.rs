//! # bc-metrics — structured metrics & observability
//!
//! The quantitative counterpart to the trace layer: where
//! `bc_gpusim::trace` records every simulated memory access for race
//! detection, this crate records the *aggregates* the paper argues
//! with — per-level frontier sizes (`Q_curr`/`Q_next`), edges
//! inspected, dedup-CAS outcomes, priced atomics, and the direction
//! automaton's push/pull decisions — plus whole-run hardware
//! summaries (warp efficiency, memory transactions, kernel launches)
//! and per-GPU cluster phase timelines.
//!
//! The engine reports levels through its one observation hook,
//! `bc_core::engine::Observer`, which is implemented for
//! [`MetricsRecorder`]: one [`LevelMetrics`] record per kernel launch,
//! grouped per root. A run without a recorder compiles every emission
//! site away. Because the recorder observes values the engine has
//! already computed, enabling it cannot perturb scores or priced
//! timings: it only copies, never reorders.
//!
//! Everything is serializable through the vendored `serde` stub and
//! renders to JSONL via [`jsonl`] — one self-describing `{"kind":
//! ..., "data": ...}` object per line.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod jsonl;
pub mod record;
pub mod serve;
pub mod summary;
pub mod worker;

pub use cluster::{ClusterMetrics, ClusterMetricsSummary, GpuTimeline};
pub use jsonl::{cluster_to_jsonl, run_to_jsonl, serve_to_jsonl};
pub use record::{
    LevelMetrics, MetricPhase, MetricTraversal, MetricsRecorder, RootMetrics, SwitchReason,
};
pub use serve::{RequestLatency, ServeRow};
pub use summary::{HardwareSummary, MetricsSummary, RunMetrics};
pub use worker::WorkerMetrics;
