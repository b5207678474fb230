//! Simulator errors.

use std::fmt;

/// Failures a simulated kernel launch can hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A device allocation exceeded capacity (the GPU-FAN failure
    /// mode in Figure 5).
    OutOfMemory {
        /// Bytes the failing allocation asked for.
        requested: u64,
        /// Bytes already allocated.
        in_use: u64,
        /// Device capacity.
        capacity: u64,
        /// What the allocation was for.
        what: String,
    },
    /// A free would drive the allocation accounting below zero — a
    /// double free, or an allocation returned to the wrong tracker.
    /// The tracker's accounting is left untouched when this is
    /// reported.
    AccountingUnderflow {
        /// Bytes the failing free tried to release.
        freed: u64,
        /// Bytes the tracker had accounted as allocated.
        in_use: u64,
    },
    /// A transient device fault (an ECC hiccup, a spurious launch
    /// failure, allocator fragmentation). Retryable: re-issuing the
    /// same work is expected to succeed.
    TransientFault {
        /// What the fault hit.
        what: String,
        /// Which attempt of the work unit faulted (1-based).
        attempt: u32,
    },
    /// A device disappeared permanently (XID error, node reboot,
    /// falling off the bus). Work assigned to it must move elsewhere.
    DeviceLost {
        /// Index of the lost device within its worker pool.
        device: usize,
        /// What the device was doing when it was lost.
        what: String,
    },
    /// A host worker thread driving a simulated device panicked; the
    /// panic was contained instead of propagating.
    WorkerPanic {
        /// Index of the panicking worker (GPU index in the cluster
        /// runner, shard index in the multi-root runner).
        worker: usize,
        /// The panic payload, stringified.
        what: String,
    },
    /// A shortest-path count σ overflowed `f64` in the search from
    /// `root`: the first vertex with a non-finite σ lies at `depth`.
    /// The scores would be ∞ or NaN, so none are returned. A property
    /// of the graph, not retryable.
    PathCountOverflow {
        /// The search root.
        root: u32,
        /// BFS depth of the first level holding a non-finite σ.
        depth: u32,
    },
}

impl SimError {
    /// Is retrying the same work expected to succeed?
    ///
    /// Only [`SimError::TransientFault`] qualifies: genuine
    /// out-of-memory is a capacity fact, accounting underflow is a
    /// bug, a lost device stays lost, a contained panic needs a
    /// structural decision by the caller, and a path-count overflow
    /// recurs on every rerun of the same root.
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::TransientFault { .. })
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory {
                requested,
                in_use,
                capacity,
                what,
            } => write!(
                f,
                "simulated device out of memory allocating {requested} B for {what} \
                 ({in_use} B of {capacity} B already in use)"
            ),
            SimError::AccountingUnderflow { freed, in_use } => write!(
                f,
                "simulated device-memory accounting underflow: freeing {freed} B with only \
                 {in_use} B allocated (double free, or an allocation from another tracker)"
            ),
            SimError::TransientFault { what, attempt } => write!(
                f,
                "transient simulated device fault on {what} (attempt {attempt}); retryable"
            ),
            SimError::DeviceLost { device, what } => {
                write!(f, "simulated device {device} lost while {what}")
            }
            SimError::WorkerPanic { worker, what } => {
                write!(f, "worker {worker} panicked: {what}")
            }
            SimError::PathCountOverflow { root, depth } => write!(
                f,
                "shortest-path count overflowed f64 at depth {depth} of the search from \
                 root {root}"
            ),
        }
    }
}

impl std::error::Error for SimError {}
