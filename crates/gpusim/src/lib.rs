//! # bc-gpusim — a SIMT GPU execution-model simulator
//!
//! The paper's algorithms run on CUDA GPUs; this workspace has none,
//! so the GPU is *simulated*: algorithms execute functionally on the
//! host (producing exact results) while reporting their work to this
//! crate's timing model, which prices it the way the real hardware
//! would — SIMT lockstep divergence, coalesced vs. scattered DRAM
//! traffic, atomic contention, per-iteration synchronization, and a
//! finite device memory. DESIGN.md §2 and §5 explain why this
//! preserves the paper's comparisons.
//!
//! Components:
//! * [`DeviceConfig`] — architectural parameters; presets for the
//!   paper's GTX Titan and Tesla M2090;
//! * [`warp`] — lockstep step counting for round-robin and balanced
//!   work distributions;
//! * [`IterationWork`] / [`KernelCounters`] — per-iteration work
//!   records and their accumulation;
//! * [`DeviceMemory`] — allocation tracking with faithful
//!   out-of-memory failures;
//! * [`coarse_grained_makespan`] — the strided block-to-root schedule
//!   used by coarse-grained BC kernels;
//! * [`trace`] — the vocabulary of logical per-thread memory-access
//!   events ([`trace::TraceEvent`]) the engine's observer receives,
//!   consumed by the `bc-verify` race detector;
//! * [`fault`] — deterministic fault-injection hooks ([`FaultHook`])
//!   through which a scheduler receives simulated transient faults,
//!   device losses, OOMs, and worker panics, consumed by the
//!   fault-tolerant cluster runner.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod device;
mod error;
pub mod fault;
mod kernel;
mod memory;
mod timing;
pub mod trace;
pub mod warp;

pub use device::DeviceConfig;
pub use error::SimError;
pub use fault::{FaultHook, NoFaults};
pub use kernel::{counter_add, KernelCounters};
pub use memory::{distinct_line_transactions, Allocation, DeviceMemory};
pub use timing::{coarse_grained_makespan, IterationWork};
