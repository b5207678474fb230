//! # bc-core — hybrid GPU betweenness centrality
//!
//! Rust reproduction of McLaughlin & Bader, *"Scalable and High
//! Performance Betweenness Centrality on the GPU"* (SC 2014): the
//! work-efficient, hybrid, and sampling BC methods, alongside the
//! prior-work vertex-parallel, edge-parallel (Jia et al.), and
//! GPU-FAN (Shi & Zhang) baselines — all executing functionally on
//! the host while a SIMT timing model ([`bc_gpusim`]) prices their
//! work the way the paper's GPUs would.
//!
//! Quick start:
//!
//! ```
//! use bc_core::{Method, BcOptions};
//! use bc_graph::gen;
//!
//! let g = gen::watts_strogatz(1000, 10, 0.1, 42);
//! let run = Method::Sampling(Default::default())
//!     .run(&g, &BcOptions::default())
//!     .expect("fits in device memory");
//! assert_eq!(run.scores.len(), 1000);
//! println!("simulated exact-BC time: {:.3}s ({:.1} MTEPS)",
//!          run.report.full_seconds, run.report.mteps());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod approx;
pub mod brandes;
pub mod checkpoint;
pub mod cpu_parallel;
pub mod engine;
mod exact_sum;
pub mod frontier;
pub mod kernel_spec;
pub mod methods;
pub mod parallel;
pub mod schedule;
mod solver;
pub mod teps;

pub use checkpoint::{graph_digest, options_fingerprint, CheckpointError, CheckpointStore};
pub use engine::Traversal;
pub use frontier::CompressedFrontier;
pub use methods::models::{
    DirectionOptimizingModel, DirectionParams, HybridParams, SamplingParams, Strategy,
    TraversalMode,
};
pub use parallel::{
    cpu_betweenness_from_roots, effective_threads, merge_contribution_entries, run_roots,
    run_roots_contributions, run_roots_scheduled, run_roots_scheduled_metered, RootContribution,
    RootsRun, ShardableCostModel,
};
pub use schedule::{guided_chunk, lpt_order, lpt_seed, plan_assignment, Schedule};
pub use solver::{
    run_or_degrade, run_with_cost_model, BcOptions, BcRun, Degradation, Method, PartitionMode,
    PartitionPlan, RootSelection, RunReport,
};
