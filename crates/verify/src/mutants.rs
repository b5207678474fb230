//! The one list of seeded bugs: every defect the suite plants to show
//! that a check can fail, and the check that must flag it.
//!
//! A check that cannot flag a planted bug proves nothing when it
//! passes the real code. [`ALL`] names each seeded bug once, with how
//! it is planted ([`Plant`]) and the [`Violation::check`] that must
//! report it. [`Seeded::run`] plants a bug on each of its inputs and
//! returns what the checks reported; `bc-verify` stage 1 runs the
//! whole list, and any run its check does not flag fails the suite.
//!
//! * Three kernel-spec rewrites ([`SpecMutant`]), refuted by the
//!   prover.
//! * Two scheduler-model rewrites ([`SchedulerMutant`]), refuted by
//!   the interleaving explorer at the quick 3×4 bound.
//! * The checkpoint store's corrupt, mismatch and stale cases
//!   ([`ResumeCase`]), each rejected by the resume transform with its
//!   own error.
//! * Serve's [`ServeMutation::SkipEpochBump`], a stale answer on every
//!   dataset analogue.
//! * The race detector's two planted plain traces: atomic-free
//!   predecessor-style accumulation and a pull kernel whose `F_next`
//!   announcement drops its `atomicOr`, on three graphs.

use crate::checkpoint_equiv::{Resume, ResumeCase};
use crate::harness::{check, Axis};
use crate::invariants::Violation;
use crate::model::{explore_all, ModelConfig, ModelError, SchedulerMutant};
use crate::prover::{prove, SpecSet};
use crate::race::check_trace;
use crate::serve_equiv::ServeEdits;
use crate::trace::{predecessor_accumulation_trace, pull_bitmap_trace, record, Trace};
use bc_cluster::{ClusterConfig, FaultPlan};
use bc_core::engine::{FreeModel, SearchWorkspace};
use bc_core::kernel_spec::{IndexExpr, KernelId, SegmentClass};
use bc_core::{Method, Schedule, TraversalMode};
use bc_gpusim::trace::{AccessKind, KernelArray};
use bc_gpusim::DeviceConfig;
use bc_graph::{gen, Csr, DatasetId};
use bc_serve::ServeMutation;

/// A seeded kernel-spec bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecMutant {
    /// Accumulate δ at the *predecessor* side, Brandes-style: the
    /// backward sweep's δ store targets `NeighborOfOwn` instead of the
    /// lane's own vertex. Two lanes sharing a predecessor now
    /// plain-write the same cell — the very race the paper's
    /// successor-based formulation (its Algorithm 3) eliminates.
    PredecessorAccumulation,
    /// Discover frontiers with a plain write instead of `atomicCAS` on
    /// `d`. The direct duplicate-discovery race appears, **and** the
    /// exactly-once property dies, so [`Axiom::DistinctFrontier`] is
    /// no longer discharged and the backward sweep's proof collapses
    /// too — one seeded bug, cascading refutations.
    ///
    /// [`Axiom::DistinctFrontier`]: bc_core::kernel_spec::Axiom
    DedupWithoutCas,
    /// Read successor δ from the *current* level segment instead of
    /// the next one — the off-by-one that breaks the level-segment
    /// partition argument and lets the read collide with another
    /// lane's δ store.
    LevelSegmentOffByOne,
}

impl SpecMutant {
    /// The real spec set with this bug planted.
    pub fn apply(self) -> SpecSet {
        let mut specs = SpecSet::real();
        match self {
            SpecMutant::PredecessorAccumulation => {
                let sweep = specs.get_mut(KernelId::BackwardSweep);
                let store = sweep
                    .accesses
                    .iter_mut()
                    .find(|a| a.array == KernelArray::Delta && a.kind == AccessKind::Write)
                    .expect("the sweep has one delta store");
                store.index = IndexExpr::NeighborOfOwn;
            }
            SpecMutant::DedupWithoutCas => {
                let dedup = specs.get_mut(KernelId::FrontierDedup);
                let cas = dedup
                    .accesses
                    .iter_mut()
                    .find(|a| a.array == KernelArray::Dist && a.kind == AccessKind::AtomicCas)
                    .expect("the dedup kernel has the CAS");
                cas.kind = AccessKind::Write;
            }
            SpecMutant::LevelSegmentOffByOne => {
                let sweep = specs.get_mut(KernelId::BackwardSweep);
                let read = sweep
                    .accesses
                    .iter_mut()
                    .find(|a| a.array == KernelArray::Delta && a.kind == AccessKind::Read)
                    .expect("the sweep reads successor delta");
                read.segment = SegmentClass::Current;
            }
        }
        specs
    }
}

/// Synthesizes a kernel's trace over a finished search; `false`
/// plants the plain variant.
pub type Synth = fn(&Csr, &SearchWorkspace, bool) -> Trace;

/// How a seeded bug is planted.
#[derive(Clone, Copy, Debug)]
pub enum Plant {
    /// A kernel-spec rewrite, proved on the IR.
    Spec(SpecMutant),
    /// A scheduler-model rewrite, explored under every schedule.
    Scheduler(SchedulerMutant),
    /// A checkpoint-store tamper case of the resume transform.
    Store(ResumeCase),
    /// A serving defect, probed on every dataset analogue.
    Serve(ServeMutation),
    /// A synthesized plain trace, race-checked.
    PlainTrace(Synth),
}

/// One seeded bug: its name, how it is planted, and the check whose
/// violation counts as catching it.
#[derive(Clone, Copy, Debug)]
pub struct Seeded {
    /// Name in reports.
    pub name: &'static str,
    /// How the bug is planted.
    pub plant: Plant,
    /// The check that must report it.
    pub flagged_by: &'static str,
}

const fn seeded(name: &'static str, plant: Plant, flagged_by: &'static str) -> Seeded {
    Seeded {
        name,
        plant,
        flagged_by,
    }
}

/// Every seeded bug the suite must flag.
pub const ALL: [Seeded; 11] = {
    use {Plant::*, ResumeCase::*, SchedulerMutant::*, ServeMutation::*, SpecMutant::*};
    [
        seeded(
            "predecessor-accumulation",
            Spec(PredecessorAccumulation),
            "prover.race",
        ),
        seeded("dedup-without-cas", Spec(DedupWithoutCas), "prover.race"),
        seeded(
            "level-off-by-one",
            Spec(LevelSegmentOffByOne),
            "prover.race",
        ),
        seeded(
            "non-atomic-steal",
            Scheduler(NonAtomicSteal),
            "explorer.violation",
        ),
        seeded(
            "completion-order-merge",
            Scheduler(CompletionOrderMerge),
            "explorer.violation",
        ),
        seeded("corrupt-chunk", Store(Corrupt), "ckpt.corrupt"),
        seeded("fingerprint-mismatch", Store(Mismatch), "ckpt.mismatch"),
        seeded("stale-chunk", Store(Stale), "ckpt.stale"),
        seeded("skip-epoch-bump", Serve(SkipEpochBump), "equiv.bitwise"),
        seeded(
            "plain-predecessor-accumulation",
            PlainTrace(predecessor_accumulation_trace),
            "race",
        ),
        seeded(
            "plain-next-bitmap-announcement",
            PlainTrace(pull_bitmap_trace),
            "race",
        ),
    ]
};

/// One planting of a seeded bug: the input it was planted on and
/// every violation the checks reported.
#[derive(Debug)]
pub struct Run {
    /// The input planted on.
    pub input: String,
    /// Everything the checks reported.
    pub found: Vec<Violation>,
}

impl Seeded {
    /// Plant the bug on each of its inputs. Serve's inputs are the
    /// dataset analogues at `reduction` and `seed`; the others are
    /// fixed.
    pub fn run(&self, reduction: u32, seed: u64) -> Vec<Run> {
        let run = |input: &str, found| Run {
            input: input.to_owned(),
            found,
        };
        let at = |width| Axis::new(Schedule::Static, TraversalMode::Push, width);
        match self.plant {
            Plant::Spec(m) => vec![run("kernel IR", prove(&m.apply()).violations())],
            Plant::Scheduler(m) => {
                let found = explore_all(&ModelConfig::quick(), Some(m)).into_iter();
                let found = found.filter_map(|e| {
                    let err = e.result.err()?;
                    let check = match err {
                        ModelError::Violation(_) => "explorer.violation",
                        ModelError::StateBudget { .. } => "explorer.budget",
                    };
                    let costs = if e.skewed { "skewed" } else { "unit" };
                    Some(Violation::new(
                        check,
                        format!("{} ({costs}): {err}", e.schedule),
                    ))
                });
                vec![run("3x4 bound", found.collect())]
            }
            Plant::Store(case) => {
                let g = gen::watts_strogatz(180, 6, 0.1, 19);
                let cfg = ClusterConfig {
                    method: Method::WorkEfficient,
                    ..ClusterConfig::keeneland(2)
                };
                let t = Resume::new(&g, cfg, 12, FaultPlan::none());
                let found = check(&t, &[at(2)], &[(self.name, case)]).violations;
                vec![run("watts_strogatz(180,6)", found)]
            }
            Plant::Serve(m) => DatasetId::ALL
                .iter()
                .map(|id| {
                    let g = id.generate(reduction, seed);
                    let found = match ServeEdits::stale_cache_probe(&g) {
                        Some(t) => check(&t, &[at(1)], &[(self.name, Some(m))]).violations,
                        None => vec![Violation::new("serve.mutant_setup", "no edge to delete")],
                    };
                    run(id.name(), found)
                })
                .collect(),
            Plant::PlainTrace(synth) => trace_graphs()
                .into_iter()
                .map(|(name, g)| {
                    let (_, ws) = record(&g, 0, &DeviceConfig::gtx_titan(), FreeModel);
                    let races = check_trace(&synth(&g, &ws, false)).into_iter();
                    run(
                        name,
                        races
                            .map(|r| Violation::new("race", r.to_string()))
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    /// The first violation in `run` of the check that must flag this
    /// bug, if it was flagged.
    pub fn flag<'r>(&self, run: &'r Run) -> Option<&'r Violation> {
        run.found.iter().find(|v| v.check == self.flagged_by)
    }
}

/// The graphs the planted traces are synthesized on, each searched
/// from root 0.
pub fn trace_graphs() -> [(&'static str, Csr); 3] {
    [
        ("grid(8,8)", gen::grid(8, 8)),
        ("erdos_renyi(200,600)", gen::erdos_renyi(200, 600, 9)),
        ("watts_strogatz(150,6)", gen::watts_strogatz(150, 6, 0.1, 4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::prove;
    use bc_core::kernel_spec::LaunchId;

    #[test]
    fn predecessor_accumulation_races_the_backward_sweep() {
        let report = prove(&SpecMutant::PredecessorAccumulation.apply());
        let backward = report
            .launches
            .iter()
            .find(|l| l.launch == LaunchId::Backward)
            .unwrap();
        assert!(!backward.is_race_free(), "shared-predecessor δ race");
        assert!(!report.is_clean());
    }

    #[test]
    fn dedup_without_cas_cascades_to_the_backward_proof() {
        let specs = SpecMutant::DedupWithoutCas.apply();
        assert!(!specs.discharges_distinct_frontier());
        let report = prove(&specs);
        let racy: Vec<_> = report
            .launches
            .iter()
            .filter(|l| !l.is_race_free())
            .map(|l| l.launch)
            .collect();
        assert!(racy.contains(&LaunchId::ForwardPush), "direct dedup race");
        assert!(
            racy.contains(&LaunchId::Backward),
            "losing DistinctFrontier must sink the sweep's proof too"
        );
    }

    #[test]
    fn level_off_by_one_breaks_the_partition_argument() {
        let report = prove(&SpecMutant::LevelSegmentOffByOne.apply());
        let backward = report
            .launches
            .iter()
            .find(|l| l.launch == LaunchId::Backward)
            .unwrap();
        assert!(!backward.is_race_free(), "read/write δ collision");
    }

    #[test]
    fn mutant_names_round_trip() {
        // Names are the list's keys in every report: non-empty and
        // distinct.
        let mut names: Vec<&str> = ALL.iter().map(|m| m.name).collect();
        assert!(names.iter().all(|n| !n.is_empty()));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "{names:?}");
    }
}
