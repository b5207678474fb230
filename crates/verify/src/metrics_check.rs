//! Metrics cross-checks: each level record the engine reports against
//! the access trace of the same launch, and a metered run's per-worker
//! scheduling records against a replay of the shard assignment.
//!
//! The engine reports one launch two ways in the same observed run:
//! as individual simulated memory accesses emitted inside the kernel
//! loops, and as the per-level aggregates of its [`LevelMetrics`]
//! record, copied after the launch is priced. Agreement between them
//! is a real consistency statement: the counters the observability
//! layer exports are the counts a race detector would reconstruct
//! from the raw access stream, level by level.
//!
//! `check_level` checks, per forward push level: `cas_attempts` =
//! `edges_inspected` = traced `Dist`/`atomicCAS` events (Algorithm 2
//! dedups with one CAS per inspected edge), `cas_wins` = `q_next` =
//! traced `Q_next` writes (each won CAS enqueues exactly once), and
//! `updates` = traced σ `atomicAdd`s. Per pull level:
//! `edges_inspected` = traced frontier-bitmap probes, `q_next` =
//! traced `F_next` `atomicOr`s, `updates` = traced σ parent reads, and
//! no CAS at all. The pull identities tie two separate engine loops
//! together: the traced per-edge scan and the push-order pass that
//! discovers and accumulates σ. Priced atomics and
//! backward atomic-freedom are checked beside it by
//! [`crate::replay::verify_root_with`].
//!
//! The module also holds the harness's schedule transform,
//! [`Schedules`], whose extra checks are the worker-record replay
//! ([`check_worker_metrics`]) and the per-root metrics stream.

use crate::harness::{vertex_keyed, Axis, Keyed, Transform, Transformed};
use crate::invariants::Violation;
use crate::trace::LevelTrace;
use bc_core::{BcOptions, BcRun, Method, Schedule};
use bc_gpusim::trace::{AccessKind, KernelArray, TraceEvent};
use bc_graph::Csr;
use bc_metrics::{
    LevelMetrics, MetricPhase, MetricTraversal, RootMetrics, RunMetrics, WorkerMetrics,
};
use std::collections::BTreeMap;

fn count(events: &[TraceEvent], array: KernelArray, kind: AccessKind) -> u64 {
    events
        .iter()
        .filter(|e| e.array == array && e.kind == kind)
        .count() as u64
}

/// Check the counter identities of one level record `m` against the
/// traced events of the same launch, appending any disagreement to
/// `violations`.
pub(crate) fn check_level(traced: &LevelTrace, m: &LevelMetrics, violations: &mut Vec<Violation>) {
    let mut expect = |check: &'static str, metric: u64, from_trace: u64| {
        if metric != from_trace {
            violations.push(Violation {
                check,
                detail: format!(
                    "{:?} depth {}: metrics report {metric} but the trace performs {from_trace}",
                    traced.phase, traced.depth
                ),
            });
        }
    };
    match (m.phase, m.traversal) {
        (MetricPhase::Forward, MetricTraversal::Push) => {
            let cas = count(&traced.events, KernelArray::Dist, AccessKind::AtomicCas);
            let enq = count(&traced.events, KernelArray::QNext, AccessKind::Write);
            let sigma = count(&traced.events, KernelArray::Sigma, AccessKind::AtomicAdd);
            expect("metrics.cas_attempts", m.cas_attempts, cas);
            expect("metrics.edges_inspected", m.edges_inspected, cas);
            expect("metrics.cas_wins", m.cas_wins, enq);
            expect("metrics.q_next", m.q_next, enq);
            expect("metrics.updates", m.updates, sigma);
        }
        (MetricPhase::Forward, MetricTraversal::Pull) => {
            let probes = count(&traced.events, KernelArray::FrontierBits, AccessKind::Read);
            let discovered = count(&traced.events, KernelArray::NextBits, AccessKind::AtomicOr);
            let parents = count(&traced.events, KernelArray::Sigma, AccessKind::Read);
            expect("metrics.edges_inspected", m.edges_inspected, probes);
            expect("metrics.q_next", m.q_next, discovered);
            expect("metrics.updates", m.updates, parents);
            expect("metrics.cas_attempts", m.cas_attempts, 0);
            expect("metrics.cas_wins", m.cas_wins, 0);
        }
        (MetricPhase::Backward, _) => {}
    }
}

/// Cross-check a metered run's per-worker scheduling records against
/// a replay of the wall assignment.
///
/// The records are grouped by phase (the sampling method runs two).
/// Within a phase every worker must agree on the schedule name, the
/// root count, and the shard size; the shards they claim must
/// partition the phase's shard range exactly once; and each worker's
/// `roots_processed` must re-derive from pure shard geometry
/// (`min(shard_size, phase_roots - shard * shard_size)` summed over
/// its claims). Steal counters may be nonzero only under
/// work-stealing, and the wall-clock observations must be finite and
/// non-negative. A dynamic scheduler that dropped or double-ran a
/// shard — or misattributed work between workers — fails here even
/// though the root-ordered merge would mask it in the scores.
pub fn check_worker_metrics(workers: &[WorkerMetrics]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut phases: BTreeMap<u64, Vec<&WorkerMetrics>> = BTreeMap::new();
    for w in workers {
        phases.entry(w.phase).or_default().push(w);
    }
    for (phase, group) in phases {
        let first = group[0];
        let mut fail = |check: &'static str, detail: String| {
            violations.push(Violation { check, detail });
        };
        for w in &group {
            if (w.phase_roots, w.shard_size, w.schedule.as_str())
                != (first.phase_roots, first.shard_size, first.schedule.as_str())
            {
                fail(
                    "worker.phase_consistency",
                    format!(
                        "phase {phase}: worker {} reports ({}, {}, {}) but worker {} \
                         reports ({}, {}, {})",
                        w.worker,
                        w.phase_roots,
                        w.shard_size,
                        w.schedule,
                        first.worker,
                        first.phase_roots,
                        first.shard_size,
                        first.schedule
                    ),
                );
            }
        }
        if first.shard_size == 0 {
            fail(
                "worker.shard_size",
                format!("phase {phase}: shard size is zero"),
            );
            continue;
        }
        let shards = first.phase_roots.div_ceil(first.shard_size);
        let mut claimed = vec![0u64; shards as usize];
        for w in &group {
            for &s in &w.shards {
                match claimed.get_mut(s as usize) {
                    Some(c) => *c += 1,
                    None => fail(
                        "worker.shard_range",
                        format!(
                            "phase {phase}: worker {} claims shard {s} but only {shards} exist",
                            w.worker
                        ),
                    ),
                }
            }
        }
        for (s, &c) in claimed.iter().enumerate() {
            if c != 1 {
                fail(
                    "worker.shard_partition",
                    format!("phase {phase}: shard {s} claimed {c} times (must be exactly once)"),
                );
            }
        }
        for w in &group {
            let expect: u64 = w
                .shards
                .iter()
                .filter(|&&s| u64::from(s) < shards)
                .map(|&s| {
                    (first.phase_roots - u64::from(s) * first.shard_size).min(first.shard_size)
                })
                .sum();
            if w.roots_processed != expect {
                fail(
                    "worker.roots_replay",
                    format!(
                        "phase {phase}: worker {} processed {} roots but its claimed shards \
                         replay to {expect}",
                        w.worker, w.roots_processed
                    ),
                );
            }
            if w.max_queue_depth > shards {
                fail(
                    "worker.queue_depth",
                    format!(
                        "phase {phase}: worker {} saw queue depth {} with only {shards} shards",
                        w.worker, w.max_queue_depth
                    ),
                );
            }
            if w.schedule != "work-stealing" && (w.steals > 0 || w.failed_steal_attempts > 0) {
                fail(
                    "worker.steals",
                    format!(
                        "phase {phase}: worker {} reports {} steals / {} failed attempts under \
                         the {} schedule",
                        w.worker, w.steals, w.failed_steal_attempts, w.schedule
                    ),
                );
            }
            for (name, v) in [("busy", w.busy_seconds), ("idle", w.idle_seconds)] {
                if !v.is_finite() || v < 0.0 {
                    fail(
                        "worker.wall_clock",
                        format!(
                            "phase {phase}: worker {} reports {name}_seconds = {v} \
                             (must be finite and non-negative)",
                            w.worker
                        ),
                    );
                }
            }
        }
    }
    violations
}

/// The schedule transform: a metered run under a dynamic schedule
/// must reproduce the axis schedule's scores and per-root metrics
/// stream bitwise, and its per-worker records must replay against
/// shard geometry ([`check_worker_metrics`]). The exercised count is
/// the roots that workers report processing under the case's
/// schedule.
pub struct Schedules<'g> {
    g: &'g Csr,
    method: Method,
    opts: BcOptions,
}

impl<'g> Schedules<'g> {
    /// The transform for `method` on `g` under `opts`, whose
    /// schedule, traversal and threads the axis sets.
    pub fn new(g: &'g Csr, method: Method, opts: BcOptions) -> Self {
        Schedules { g, method, opts }
    }

    fn run(&self, at: Axis, schedule: Schedule) -> Result<(BcRun, RunMetrics), String> {
        let opts = Axis { schedule, ..at }.options(&self.opts);
        let run = self.method.run_metered(self.g, &opts);
        run.map_err(|e| format!("{schedule} run failed: {e}"))
    }
}

impl Transform for Schedules<'_> {
    type Case = Schedule;
    type Base = Vec<RootMetrics>;
    const NAME: &'static str = "schedule";
    const EXERCISED: &'static str = "roots run under the case's schedule";

    fn baseline(&self, at: Axis) -> Result<(Keyed, Vec<RootMetrics>), String> {
        let (run, metrics) = self.run(at, at.schedule)?;
        Ok((vertex_keyed(&run.scores), metrics.per_root))
    }

    fn transformed(
        &self,
        at: Axis,
        schedule: &Schedule,
        base: &Vec<RootMetrics>,
    ) -> Result<Transformed, Violation> {
        let run = self.run(at, *schedule);
        let (run, m) = run.map_err(|e| Violation::new("schedule.runs", e))?;
        let mut extra = check_worker_metrics(&m.per_worker);
        if m.per_root != *base {
            let detail = "per-root metrics stream differs from the baseline schedule's";
            extra.push(Violation::new("schedule.per_root_stream", detail));
        }
        let ran = m
            .per_worker
            .iter()
            .filter(|w| w.schedule == schedule.name());
        let exercised = ran.map(|w| w.roots_processed).sum();
        let output = vertex_keyed(&run.scores);
        Ok(Transformed {
            output,
            exercised,
            extra,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RecordingSink;
    use bc_core::engine::{
        process_root_observed, CostModel, RootContext, RootOutcome, SearchWorkspace,
    };
    use bc_core::methods::models::WorkEfficientModel;
    use bc_core::{DirectionOptimizingModel, Schedule, TraversalMode};
    use bc_gpusim::DeviceConfig;
    use bc_graph::{gen, Csr};

    /// Record one observed search from root 0 under `model` and check
    /// every level record against the traced events of its launch.
    /// Returns the number of levels checked and the disagreements.
    fn check_root<M: CostModel>(g: &Csr, mut model: M) -> (usize, Vec<Violation>) {
        let device = DeviceConfig::gtx_titan();
        let mut ws = SearchWorkspace::new(g.num_vertices());
        let mut bc = vec![0.0; g.num_vertices()];
        let mut sink = RecordingSink::default();
        process_root_observed(
            &RootContext {
                g,
                root: 0,
                device: &device,
            },
            &mut ws,
            &mut model,
            &mut bc,
            &mut RootOutcome::default(),
            &mut sink,
        );
        let mut violations = Vec::new();
        for traced in &sink.trace.levels {
            let m = traced.metrics.as_ref().expect("every launch is priced");
            check_level(traced, m, &mut violations);
        }
        (sink.trace.levels.len(), violations)
    }

    #[test]
    fn push_metrics_match_the_trace() {
        for g in [
            gen::path(10),
            gen::star(16),
            gen::grid(6, 5),
            gen::erdos_renyi(150, 450, 5),
        ] {
            let (levels, v) = check_root(&g, WorkEfficientModel::default());
            assert!(v.is_empty(), "violations: {v:?}");
            assert!(levels > 0);
        }
    }

    #[test]
    fn pull_and_auto_metrics_match_the_trace() {
        for g in [
            gen::star(64),
            gen::erdos_renyi(200, 800, 9),
            gen::watts_strogatz(400, 8, 0.1, 5),
        ] {
            for mode in [TraversalMode::Pull, TraversalMode::Auto] {
                let (levels, v) = check_root(&g, DirectionOptimizingModel::new(mode));
                assert!(v.is_empty(), "{mode:?}: {v:?}");
                assert!(levels > 0);
            }
        }
    }

    #[test]
    fn worker_metrics_replay_cleanly_under_every_schedule() {
        let g = gen::watts_strogatz(256, 6, 0.1, 7);
        let roots: Vec<u32> = (0..256).collect();
        let device = DeviceConfig::gtx_titan();
        for schedule in Schedule::ALL {
            let (_, _, workers) = bc_core::run_roots_scheduled_metered(
                &g,
                &device,
                &roots,
                4,
                schedule,
                &mut WorkEfficientModel::default(),
            )
            .unwrap();
            let v = check_worker_metrics(&workers);
            assert!(v.is_empty(), "{schedule}: {v:?}");
        }
    }

    #[test]
    fn dynamic_schedules_reproduce_static_and_a_flip_is_reported() {
        use crate::harness::{check, Axis, Key};
        let g = gen::watts_strogatz(256, 6, 0.1, 7);
        let opts = bc_core::BcOptions {
            roots: bc_core::RootSelection::Strided(64),
            ..Default::default()
        };
        let t = Schedules::new(&g, bc_core::Method::Sampling(Default::default()), opts);
        let at = Axis {
            schedule: Schedule::Static,
            traversal: TraversalMode::Auto,
            width: 4,
        };
        let cases = [("guided", Schedule::Guided), ("ws", Schedule::WorkStealing)];
        let report = check(&t, &[at], &cases);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.exercised > 0);
        let d = report.flip.expect("flip reported");
        assert_eq!((d.key, d.ulps, d.differing), (Key::Vertex(128), Some(1), 1));
    }

    #[test]
    fn tampered_worker_records_are_flagged() {
        let g = gen::watts_strogatz(256, 6, 0.1, 7);
        let roots: Vec<u32> = (0..256).collect();
        let device = DeviceConfig::gtx_titan();
        let (_, _, workers) = bc_core::run_roots_scheduled_metered(
            &g,
            &device,
            &roots,
            4,
            Schedule::Guided,
            &mut WorkEfficientModel::default(),
        )
        .unwrap();

        // Dropping a worker's shard claim breaks the partition.
        let mut dropped = workers.clone();
        dropped[0].shards.pop();
        assert!(check_worker_metrics(&dropped)
            .iter()
            .any(|v| v.check == "worker.shard_partition"));

        // Inflating a processed-root count fails the geometry replay.
        let mut inflated = workers.clone();
        inflated[1].roots_processed += 1;
        assert!(check_worker_metrics(&inflated)
            .iter()
            .any(|v| v.check == "worker.roots_replay"));

        // Steals cannot appear under a non-stealing schedule.
        let mut stolen = workers;
        stolen[2].steals = 3;
        assert!(check_worker_metrics(&stolen)
            .iter()
            .any(|v| v.check == "worker.steals"));
    }
}
