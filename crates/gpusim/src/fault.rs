//! Fault-injection hooks.
//!
//! The simulator executes functionally on a host that does not fail,
//! so device faults — the dominant operational reality of multi-GPU
//! clusters like the paper's 192-GPU Keeneland runs — have to be
//! *injected*. This module defines the hook the per-root execution
//! layers consult before every attempt at a unit of work; a scheduler
//! that wants fault tolerance implements [`FaultHook`] with a seeded,
//! deterministic plan (see `bc_cluster::fault::FaultPlan`) and reacts
//! to the injected [`SimError`]s exactly as it would react to real
//! ones: retry, reassign, or fail structurally.
//!
//! Hooks are allowed to **panic** as a fault mode: a panicking hook
//! models a worker thread dying mid-kernel, and the calling scheduler
//! is expected to contain it with `std::panic::catch_unwind` rather
//! than letting the process die.

use crate::error::SimError;

/// Decides, deterministically, whether a given attempt at a unit of
/// work faults.
///
/// `worker` identifies the executing device/thread, `unit` the work
/// item (a BC root id in this workspace), and `attempt` is 1-based.
/// Implementations must be pure with respect to these keys: the same
/// `(worker, unit, attempt)` triple must always produce the same
/// outcome, so a run's fault schedule is independent of thread
/// timing and can be replayed or precomputed.
pub trait FaultHook: Send + Sync {
    /// Consulted before attempt `attempt` of `unit` on `worker`.
    ///
    /// Returns `Ok(())` to let the attempt proceed, `Err` to inject a
    /// fault, or panics to inject a worker death (which the caller
    /// must contain).
    fn before_attempt(&self, worker: usize, unit: u32, attempt: u32) -> Result<(), SimError>;

    /// Would `worker` blow a per-unit deadline of `factor` × the
    /// unit's expected time? Watchdog schedulers consult this to
    /// cancel-and-migrate work away from hung or pathologically slow
    /// workers instead of awaiting them. Like
    /// [`FaultHook::before_attempt`], implementations must be pure in
    /// their keys. Defaults to "never" so plain hooks need no
    /// watchdog awareness.
    fn deadline_exceeded(&self, worker: usize, factor: f64) -> bool {
        let _ = (worker, factor);
        false
    }
}

/// The no-op hook: nothing ever faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    fn before_attempt(&self, _worker: usize, _unit: u32, _attempt: u32) -> Result<(), SimError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_always_ok() {
        for attempt in 1..5 {
            assert!(NoFaults.before_attempt(0, 7, attempt).is_ok());
        }
    }

    #[test]
    fn transient_is_retryable_and_others_are_not() {
        let t = SimError::TransientFault {
            what: "kernel launch".into(),
            attempt: 1,
        };
        assert!(t.is_transient());
        let lost = SimError::DeviceLost {
            device: 3,
            what: "root 17".into(),
        };
        assert!(!lost.is_transient());
        let p = SimError::WorkerPanic {
            worker: 1,
            what: "boom".into(),
        };
        assert!(!p.is_transient());
        let overflow = SimError::PathCountOverflow {
            root: 0,
            depth: 516,
        };
        assert!(!overflow.is_transient());
        assert!(format!("{overflow}").contains("depth 516"));
        assert!(format!("{t}").contains("retryable"));
        assert!(format!("{lost}").contains("device 3"));
        assert!(format!("{p}").contains("worker 1"));
    }
}
