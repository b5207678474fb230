//! The fault transform: a recoverable fault plan must be invisible in
//! the cluster runner's scores.
//!
//! Retries, contained worker deaths, GPU losses with orphan adoption
//! and lossy reductions change which GPU computes which root and when,
//! never the bits of the result, because the merge runs in global
//! root order. [`Faults`] runs the fault-free baseline and each plan
//! at one cluster width; the harness compares scores bitwise and
//! requires the plans to have injected something. The extra checks
//! are the checksum and non-negative added time.

use crate::harness::{vertex_keyed, Axis, Keyed, Transform, Transformed};
use crate::invariants::Violation;
use bc_cluster::{run_cluster_with_faults, ClusterConfig, ClusterReport, FaultPlan};
use bc_graph::Csr;

/// A labelled battery of recoverable fault plans covering every
/// injection mechanism, each seeded from `seed` with its own salt.
/// The specs are `--faults` strings, so any case reruns from the CLI.
pub fn recoverable_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let specs = [
        ("transient-retries", "transient=0.2,oom=0.05"),
        ("contained-panics", "panic=0.15"),
        (
            "gpu-death-adoption",
            "dead=1,death_fraction=0.4,transient=0.1",
        ),
        ("straggler", "straggle=0,slowdown=4"),
        ("lossy-reduce", "drop=0.4,corrupt=0.2"),
        (
            "everything-at-once",
            "transient=0.1,oom=0.05,panic=0.05,dead=2,death_fraction=0.5,\
             straggle=0,slowdown=2,drop=0.2",
        ),
    ];
    let seeded = |(salt, (label, spec)): (u64, (&'static str, &str))| {
        let plan = FaultPlan::parse(&format!("{spec},seed={}", seed ^ salt));
        (label, plan.expect("valid fault spec"))
    };
    (0..).zip(specs).map(seeded).collect()
}

/// Flag a run whose checksum differs from the baseline's.
pub(crate) fn checksum_mismatch(report: &ClusterReport, base: &ClusterReport) -> Option<Violation> {
    let (got, want) = (report.checksum, base.checksum);
    let detail = format!("checksum {got:#018x} != baseline {want:#018x}");
    (got != want).then(|| Violation::new("cluster.checksum_equal", detail))
}

/// Fault plans on the cluster runner: `roots` sampled roots of `g`
/// under `cfg`, whose nodes, schedule and traversal the axis sets.
pub struct Faults<'g> {
    pub(crate) g: &'g Csr,
    cfg: ClusterConfig,
    pub(crate) roots: usize,
}

impl<'g> Faults<'g> {
    /// The transform for `roots` sampled roots of `g` on `cfg`.
    pub fn new(g: &'g Csr, cfg: ClusterConfig, roots: usize) -> Self {
        Faults { g, cfg, roots }
    }

    /// The cluster at `at`: its schedule, traversal, and width in nodes.
    pub(crate) fn config(&self, at: Axis) -> ClusterConfig {
        ClusterConfig {
            nodes: at.width,
            schedule: at.schedule,
            traversal: at.traversal,
            ..self.cfg.clone()
        }
    }

    /// A run under `plan` at `at`, keyed by vertex, with its report.
    pub(crate) fn keyed(
        &self,
        at: Axis,
        plan: &FaultPlan,
    ) -> Result<(Keyed, ClusterReport), String> {
        let run = run_cluster_with_faults(self.g, &self.config(at), self.roots, plan);
        let run = run.map_err(|e| format!("baseline cluster run failed: {e}"))?;
        Ok((vertex_keyed(&run.scores), run.report))
    }
}

impl Transform for Faults<'_> {
    type Case = FaultPlan;
    type Base = ClusterReport;
    const NAME: &'static str = "fault";
    const EXERCISED: &'static str = "faults injected";

    fn baseline(&self, at: Axis) -> Result<(Keyed, ClusterReport), String> {
        self.keyed(at, &FaultPlan::none())
    }

    fn transformed(
        &self,
        at: Axis,
        plan: &FaultPlan,
        base: &ClusterReport,
    ) -> Result<Transformed, Violation> {
        let run = run_cluster_with_faults(self.g, &self.config(at), self.roots, plan);
        let unrecovered =
            |e| Violation::new("fault.plan_recoverable", format!("not recovered: {e}"));
        let run = run.map_err(unrecovered)?;
        let f = &run.report.faults;
        let mut extra: Vec<Violation> = checksum_mismatch(&run.report, base).into_iter().collect();
        if f.added_seconds < 0.0 {
            let detail = format!("claims negative added time ({})", f.added_seconds);
            extra.push(Violation::new("fault.added_time_nonnegative", detail));
        }
        let injected = [
            f.dead_gpus,
            f.straggler_gpus,
            f.reduce_drops,
            f.reduce_corruptions,
        ];
        Ok(Transformed {
            output: vertex_keyed(&run.scores),
            exercised: f.total_faults() + injected.iter().sum::<u64>(),
            extra,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::check;
    use bc_core::{Schedule, TraversalMode};
    use bc_graph::gen;

    const AT: Axis = Axis {
        schedule: Schedule::Static,
        traversal: TraversalMode::Push,
        width: 2,
    };

    #[test]
    fn battery_passes_on_a_healthy_runner() {
        let g = gen::watts_strogatz(150, 6, 0.1, 3);
        let t = Faults::new(&g, ClusterConfig::keeneland(2), 32);
        let report = check(&t, &[AT], &recoverable_plans(42));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.cases, 6);
        assert!(report.exercised > 0);
    }

    #[test]
    fn unrecoverable_plan_is_reported_not_panicked() {
        let g = gen::grid(10, 10);
        let t = Faults::new(&g, ClusterConfig::keeneland(1), 16);
        let all_dead = [(
            "all-dead",
            FaultPlan {
                dead_gpus: vec![0, 1, 2],
                ..FaultPlan::none()
            },
        )];
        let at = Axis { width: 1, ..AT };
        let v = check(&t, &[at], &all_dead).violations;
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].check, "fault.plan_recoverable");
    }

    #[test]
    fn a_plan_that_injects_nothing_is_flagged() {
        let g = gen::grid(10, 10);
        let t = Faults::new(&g, ClusterConfig::keeneland(2), 16);
        let v = check(&t, &[AT], &[("none", FaultPlan::none())]).violations;
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].check, "equiv.exercised");
    }

    #[test]
    fn a_one_ulp_flip_is_reported() {
        let g = gen::watts_strogatz(150, 6, 0.1, 3);
        let t = Faults::new(&g, ClusterConfig::keeneland(2), 32);
        let report = check(&t, &[AT], &recoverable_plans(42)[..1]);
        let d = report.flip.expect("flip reported");
        assert_eq!(
            (d.key, d.ulps, d.differing),
            (crate::harness::Key::Vertex(75), Some(1), 1)
        );
    }
}
