//! Structured cluster-level failures.
//!
//! Anything that stops a cluster run from producing the full result
//! surfaces here — never as a process panic. Every variant that can
//! occur *after* work started carries the partial [`ClusterRun`]
//! (completed roots merged in root order, fault counters included),
//! so a 190-of-192-GPUs-survived run still hands back everything it
//! computed.

use crate::runner::ClusterRun;
use bc_gpusim::SimError;
use std::fmt;

/// Required-vs-available device memory for one GPU — the pre-flight
/// diagnostic that rejects a doomed configuration before any worker
/// spawns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GpuMemoryDiagnostic {
    /// Flat GPU index in the cluster.
    pub gpu: usize,
    /// Bytes the method needs resident (graph CSR + local state).
    pub required_bytes: u64,
    /// The device's global memory.
    pub available_bytes: u64,
}

/// Why a cluster run failed.
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration cannot run at all (zero GPUs, invalid fault
    /// plan, …). Detected before any work starts.
    InvalidConfig {
        /// What is wrong.
        what: String,
    },
    /// The method's device footprint exceeds GPU memory — GPU-FAN's
    /// O(n²) fate at scale. Detected pre-flight; carries one
    /// diagnostic per GPU that cannot hold the run.
    InsufficientMemory {
        /// Method that was asked to run.
        method: String,
        /// Per-GPU required-vs-available breakdown.
        diagnostics: Vec<GpuMemoryDiagnostic>,
    },
    /// A worker thread died from a *genuine* (non-injected) panic;
    /// contained, with everything completed so far.
    WorkerPanicked {
        /// Flat GPU index whose worker panicked.
        gpu: usize,
        /// The panic payload, stringified.
        message: String,
        /// Results completed before (and alongside) the panic.
        partial: Box<ClusterRun>,
    },
    /// The engine refused a root for a reason no retry can change
    /// (a path count σ that overflowed `f64`); contained, with
    /// everything completed so far.
    Simulation {
        /// Flat GPU index whose root failed.
        gpu: usize,
        /// The engine's error.
        source: SimError,
        /// Results completed before (and alongside) the failure.
        partial: Box<ClusterRun>,
    },
    /// Every GPU in the cluster died; nobody is left to adopt the
    /// orphaned roots.
    AllGpusLost {
        /// The dead GPU indices.
        dead: Vec<usize>,
        /// Roots completed before the losses.
        completed_roots: usize,
        /// Scores of the completed roots, merged in root order.
        partial: Box<ClusterRun>,
    },
    /// One root exhausted its retry budget on every surviving GPU.
    RootFailed {
        /// The root vertex.
        root: u32,
        /// How many GPUs it was attempted on.
        gpus_tried: usize,
        /// The last injected error, rendered.
        last_error: String,
        /// Everything else that completed.
        partial: Box<ClusterRun>,
    },
    /// The cross-node reduction could not be completed (a tree level
    /// kept dropping/corrupting past the retransmission cap).
    ReduceFailed {
        /// Reduce-tree level that failed.
        depth: usize,
        /// Transmissions attempted at that level.
        attempts: u32,
        /// Node-local results that never reached the root rank.
        partial: Box<ClusterRun>,
    },
    /// The process died mid-run at a seeded kill point
    /// (`FaultPlan::kill_fraction`). Completed roots were streamed to
    /// the checkpoint store (when one is attached); rerunning the same
    /// configuration against the same `--checkpoint` directory resumes
    /// from them.
    ProcessKilled {
        /// Roots completed (and checkpointed) before the death.
        completed_roots: usize,
        /// Roots the full run would have processed.
        planned_roots: usize,
        /// Scores of the completed roots, merged in root order.
        partial: Box<ClusterRun>,
    },
    /// The checkpoint store rejected the run: unwritable directory,
    /// corrupt or stale chunk, or a manifest recorded under a
    /// different graph/options fingerprint.
    Checkpoint {
        /// The underlying store error.
        source: bc_core::CheckpointError,
    },
}

impl ClusterError {
    /// The partial result, when work had started before the failure.
    pub fn partial(&self) -> Option<&ClusterRun> {
        match self {
            ClusterError::InvalidConfig { .. }
            | ClusterError::InsufficientMemory { .. }
            | ClusterError::Checkpoint { .. } => None,
            ClusterError::WorkerPanicked { partial, .. }
            | ClusterError::Simulation { partial, .. }
            | ClusterError::AllGpusLost { partial, .. }
            | ClusterError::RootFailed { partial, .. }
            | ClusterError::ReduceFailed { partial, .. }
            | ClusterError::ProcessKilled { partial, .. } => Some(partial),
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidConfig { what } => {
                write!(f, "invalid cluster configuration: {what}")
            }
            ClusterError::InsufficientMemory {
                method,
                diagnostics,
            } => {
                write!(
                    f,
                    "method '{method}' does not fit device memory on {} GPU(s):",
                    diagnostics.len()
                )?;
                for d in diagnostics {
                    write!(
                        f,
                        " [gpu {} needs {} B, has {} B]",
                        d.gpu, d.required_bytes, d.available_bytes
                    )?;
                }
                Ok(())
            }
            ClusterError::WorkerPanicked { gpu, message, .. } => {
                write!(f, "worker for gpu {gpu} panicked: {message}")
            }
            ClusterError::Simulation { gpu, source, .. } => write!(f, "gpu {gpu}: {source}"),
            ClusterError::AllGpusLost {
                dead,
                completed_roots,
                ..
            } => write!(
                f,
                "all {} GPU(s) lost mid-run ({completed_roots} root(s) completed before the losses)",
                dead.len()
            ),
            ClusterError::RootFailed {
                root,
                gpus_tried,
                last_error,
                ..
            } => write!(
                f,
                "root {root} failed on all {gpus_tried} surviving GPU(s); last error: {last_error}"
            ),
            ClusterError::ReduceFailed {
                depth, attempts, ..
            } => write!(
                f,
                "cross-node reduce failed at tree level {depth} after {attempts} transmission(s)"
            ),
            ClusterError::ProcessKilled {
                completed_roots,
                planned_roots,
                ..
            } => write!(
                f,
                "process killed mid-run: {completed_roots} of {planned_roots} root(s) \
                 completed; rerun with the same --checkpoint directory to resume"
            ),
            ClusterError::Checkpoint { source } => write!(f, "{source}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Checkpoint { source } => Some(source),
            ClusterError::Simulation { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preflight_errors_have_no_partial() {
        let e = ClusterError::InvalidConfig {
            what: "zero GPUs".into(),
        };
        assert!(e.partial().is_none());
        assert!(format!("{e}").contains("zero GPUs"));
    }

    #[test]
    fn memory_diagnostics_render_per_gpu() {
        let e = ClusterError::InsufficientMemory {
            method: "gpu-fan".into(),
            diagnostics: vec![GpuMemoryDiagnostic {
                gpu: 2,
                required_bytes: 100,
                available_bytes: 60,
            }],
        };
        let s = format!("{e}");
        assert!(s.contains("gpu-fan"));
        assert!(s.contains("gpu 2"));
        assert!(s.contains("100 B"));
        assert!(s.contains("60 B"));
    }
}
