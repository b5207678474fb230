//! Traced replay of one root: run the engine once with a recording
//! observer, then cross-check everything it reported.
//!
//! The cost models in `bc_core::methods::cost` price atomics by
//! formula (work-efficient forward: one CAS per inspected edge, one
//! σ `atomicAdd` per update, one queue-tail `atomicAdd` per
//! discovered vertex; backward: zero). The trace records each of
//! those operations individually, and each launch's level record
//! carries what the model priced. [`verify_root`] checks that the two
//! agree level by level — the priced synchronization is exactly the
//! synchronization the kernel performs, no more and no less — and
//! that every other counter of the record equals its traced count
//! (`metrics_check::check_level`), alongside the race detector and
//! the structural invariants.

use crate::invariants::{check_search_state, Violation};
use crate::metrics_check::check_level;
use crate::race::{check_trace, RaceReport};
use crate::trace::record;
use bc_core::engine::{CostModel, Phase};
use bc_core::methods::models::WorkEfficientModel;
use bc_gpusim::DeviceConfig;
use bc_graph::{Csr, VertexId};
use bc_metrics::MetricPhase;

/// Everything [`verify_root`] concluded about one root.
#[derive(Debug)]
pub struct RootVerification {
    /// The verified root.
    pub root: VertexId,
    /// Races found in the recorded trace (must be empty).
    pub races: Vec<RaceReport>,
    /// Invariant and pricing-consistency violations (must be empty).
    pub violations: Vec<Violation>,
    /// Levels recorded (forward + backward).
    pub levels: usize,
    /// Total access events recorded.
    pub events: u64,
}

impl RootVerification {
    /// True when no race and no violation was found.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.violations.is_empty()
    }
}

/// Run one traced work-efficient search from `root` and check it:
/// race-freedom of every level, the structural invariants of the
/// resulting search state, per-level agreement between priced and
/// traced atomics, atomic-free backward levels, and the counter
/// identities of every level record.
pub fn verify_root(g: &Csr, root: VertexId, device: &DeviceConfig) -> RootVerification {
    verify_root_with(g, root, device, WorkEfficientModel::default())
}

/// [`verify_root`] with a caller-chosen cost model — the model also
/// decides the traversal direction of each forward level, so passing
/// a `DirectionOptimizingModel` verifies the bottom-up kernel's
/// traced accesses and pricing, while the default work-efficient
/// model verifies the push path.
pub fn verify_root_with<M: CostModel>(
    g: &Csr,
    root: VertexId,
    device: &DeviceConfig,
    model: M,
) -> RootVerification {
    let (trace, ws) = record(g, root, device, model);
    let races = check_trace(&trace);
    let mut violations = check_search_state(g, root, &ws);

    // --- pricing ↔ trace consistency ---------------------------------------
    for traced in &trace.levels {
        let Some(m) = &traced.metrics else {
            violations.push(Violation {
                check: "pricing.levels",
                detail: format!(
                    "trace level ({:?}, depth {}) was never priced",
                    traced.phase, traced.depth
                ),
            });
            continue;
        };
        let phase = match m.phase {
            MetricPhase::Forward => Phase::Forward,
            MetricPhase::Backward => Phase::Backward,
        };
        if (traced.phase, traced.depth) != (phase, m.depth) {
            violations.push(Violation {
                check: "pricing.schedule",
                detail: format!(
                    "trace level ({:?}, depth {}) priced as ({:?}, depth {})",
                    traced.phase, traced.depth, m.phase, m.depth
                ),
            });
            continue;
        }
        let observed = traced.atomic_events();
        if observed != m.priced_atomics {
            violations.push(Violation {
                check: "pricing.atomics",
                detail: format!(
                    "{:?} depth {}: trace performs {} atomics but the model priced {}",
                    traced.phase, traced.depth, observed, m.priced_atomics
                ),
            });
        }
        if traced.phase == Phase::Backward && (observed, m.priced_atomics) != (0, 0) {
            violations.push(Violation {
                check: "pricing.backward_atomic_free",
                detail: format!(
                    "successor-based accumulation at depth {} performed {} atomics \
                     (priced {})",
                    traced.depth, observed, m.priced_atomics
                ),
            });
        }
        check_level(traced, m, &mut violations);
    }

    RootVerification {
        root,
        races,
        violations,
        levels: trace.levels.len(),
        events: trace.num_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::gen;

    #[test]
    fn real_kernels_verify_clean() {
        let device = DeviceConfig::gtx_titan();
        for g in [
            gen::path(10),
            gen::star(8),
            gen::star(16),
            gen::grid(6, 5),
            gen::erdos_renyi(120, 360, 5),
            gen::erdos_renyi(150, 450, 5),
        ] {
            let v = verify_root(&g, 0, &device);
            assert!(
                v.is_clean(),
                "races: {:?}\nviolations: {:?}",
                v.races,
                v.violations
            );
            assert!(v.levels > 0 && v.events > 0);
        }
    }

    #[test]
    fn pull_and_auto_kernels_verify_clean() {
        use bc_core::{DirectionOptimizingModel, TraversalMode};
        let device = DeviceConfig::gtx_titan();
        for g in [
            gen::star(64),
            gen::erdos_renyi(200, 800, 9),
            gen::watts_strogatz(400, 8, 0.1, 5),
        ] {
            for mode in [TraversalMode::Pull, TraversalMode::Auto] {
                let v = verify_root_with(&g, 0, &device, DirectionOptimizingModel::new(mode));
                assert!(
                    v.is_clean(),
                    "{mode:?}: races {:?}\nviolations {:?}",
                    v.races,
                    v.violations
                );
                assert!(v.levels > 0 && v.events > 0);
            }
        }
    }

    use bc_core::engine::{CostModel, LevelInfo, Phase, PricedIteration};
    use bc_core::methods::models::WorkEfficientModel;
    use bc_gpusim::DeviceConfig;
    use bc_graph::{Csr, VertexId};

    /// Work-efficient pricing plus one extra atomic on every level of
    /// `phase` — a cost model that disagrees with the kernel it prices.
    struct Mispriced {
        inner: WorkEfficientModel,
        phase: Phase,
    }

    impl CostModel for Mispriced {
        fn begin_root(&mut self, g: &Csr, root: VertexId) {
            self.inner.begin_root(g, root);
        }

        fn price(&mut self, g: &Csr, d: &DeviceConfig, level: &LevelInfo<'_>) -> PricedIteration {
            let mut priced = self.inner.price(g, d, level);
            if level.phase == self.phase {
                priced.work.atomics += 1;
            }
            priced
        }
    }

    #[test]
    fn mispriced_atomics_are_flagged() {
        let device = DeviceConfig::gtx_titan();
        let g = gen::grid(5, 4);
        for phase in [Phase::Forward, Phase::Backward] {
            let model = Mispriced {
                inner: WorkEfficientModel::default(),
                phase,
            };
            let v = verify_root_with(&g, 0, &device, model);
            assert!(
                v.violations.iter().any(|v| v.check == "pricing.atomics"),
                "{phase:?}: {:?}",
                v.violations
            );
        }
    }

    #[test]
    fn priced_backward_atomics_break_atomic_freedom() {
        let model = Mispriced {
            inner: WorkEfficientModel::default(),
            phase: Phase::Backward,
        };
        let v = verify_root_with(&gen::grid(5, 4), 0, &DeviceConfig::gtx_titan(), model);
        assert!(
            v.violations
                .iter()
                .any(|v| v.check == "pricing.backward_atomic_free"),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn overflowed_sigma_is_named_by_the_invariants() {
        let device = DeviceConfig::gtx_titan();
        // σ = 2^1000 is finite: the search must verify clean.
        let v = verify_root(&gen::diamond_chain(1000), 0, &device);
        assert!(v.is_clean(), "{:?} {:?}", v.races, v.violations);
        // σ = 2^1100 overflows: 2^1024 at diamond 1024, depth 2048.
        let v = verify_root(&gen::diamond_chain(1100), 0, &device);
        let finite = v.violations.iter().filter(|v| v.check == "sigma.finite");
        let finite: Vec<_> = finite.collect();
        assert_eq!(finite.len(), 1, "{:?}", v.violations);
        assert!(finite[0].detail.contains("at depth 2048"), "{}", finite[0]);
    }

    #[test]
    fn priced_atomics_match_trace_on_every_level() {
        // The consistency check is part of verify_root; this pins the
        // stronger statement that forward levels really do price
        // e + updates + discovered (nonzero on any non-trivial graph).
        let g = gen::grid(4, 4);
        let v = verify_root(&g, 3, &DeviceConfig::gtx_titan());
        assert!(v.is_clean(), "{:?} {:?}", v.races, v.violations);
    }
}
