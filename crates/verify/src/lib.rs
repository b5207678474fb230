//! # bc-verify — the verification layer: race detection, invariants,
//! equivalence, and static analysis
//!
//! The paper's central correctness claims are *concurrency* claims:
//! atomicCAS-deduplicated queue insertion admits each vertex into
//! `Q_next` exactly once (Algorithm 2), and the successor-checking
//! dependency accumulation (Algorithm 3, via Madduri et al. and
//! Green & Bader) is safe **without atomics** — while edge-parallel
//! accumulation is only safe *with* them. The cost models in
//! `bc_core::methods::cost` price exactly those atomics; this crate
//! turns the pricing assumptions into machine-checked facts, on
//! recorded traces and, statically, on the kernel IR for all inputs:
//!
//! * [`trace`] — records the engine's logical per-thread access
//!   events ([`bc_gpusim::trace`]) and its per-launch level records
//!   into a replayable [`Trace`] through one engine observer
//!   ([`trace::record`]), and synthesizes the *predecessor-style*
//!   accumulation and pull-announcement traces (with and without
//!   atomics);
//! * [`race`] — a phase-aware detector flagging write–write and
//!   unsynchronized read–write conflicts between logical threads of
//!   one level (one simulated kernel launch);
//! * [`invariants`] — structural passes: CSR well-formedness, stack
//!   segmentation (`ends` monotonicity, frontier dedup), finite σ,
//!   σ-consistency, the per-root dependency identity
//!   `Σ δ(v) = Σ (d(t) − 1)`, and final-score sanity including the
//!   Brandes pair-sum identity;
//! * [`replay`] — drives one root through the observed engine once
//!   and checks races, search-state invariants, priced against traced
//!   atomics, atomic-free backward levels, and every level record's
//!   counters (edges inspected, CAS attempts/wins, σ-updates) against
//!   the access events of the same launch;
//! * the static analysis ([`analyze`]): [`prover`] proves per-launch
//!   write-disjointness of the kernel IR ([`bc_core::kernel_spec`])
//!   for *all* inputs and derives each kernel's minimal atomic set,
//!   which must equal both the declared and the priced set; [`model`]
//!   explores every interleaving of the shard scheduler up to a bound
//!   and asserts no shard is lost, duplicated, or merged out of
//!   root-index order; [`conformance`] replays recorded traces of the
//!   dataset analogues against the IR, so the specs the prover trusts
//!   cannot drift from the engine that emits the accesses;
//! * [`harness`] — the differential-equivalence harness: an axis
//!   [`matrix`] (schedules × push/pull/auto × threads or cluster
//!   width), the [`Transform`] trait, one bitwise oracle
//!   ([`harness::diverge`]) that reports the first divergence with its
//!   ULP distance after [`check_scores`] has passed the baseline, and
//!   the "did the transform do anything" guard;
//! * the five transforms on top of it, each a feature that must be
//!   invisible in the scores: [`Faults`] (seeded fault plans on the
//!   cluster runner), [`Schedules`] (dynamic schedules against static,
//!   in [`metrics_check`]), [`Relabel`] (degree-ordered relabeling),
//!   [`Resume`] (kill-and-resume from a checkpoint, and the ladder's
//!   partition rung) and [`ServeEdits`] (batched, cached serving with
//!   live edits against cold recomputes);
//! * [`mutants`] — the one list of seeded bugs (kernel specs,
//!   scheduler, checkpoint store, serve cache, plain traces), each
//!   with the check that must flag it;
//! * [`metrics_check`] — the per-level counter identities `replay`
//!   applies, and the replay of a metered run's per-worker scheduling
//!   records against shard geometry;
//! * [`serve_equiv`] also checks the rows a server emits
//!   ([`check_serve_rows`]).
//!
//! The `bc-verify` binary runs the whole suite: the seeded-bug list
//! (every entry **must** be flagged), the dataset analogues, the
//! transforms, and the static analysis. The `hybrid-bc --verify` flag
//! runs the replay checks on a live run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint_equiv;
pub mod conformance;
pub mod fault_equiv;
pub mod harness;
pub mod invariants;
pub mod metrics_check;
pub mod model;
pub mod mutants;
pub mod prover;
pub mod race;
pub mod relabel_equiv;
pub mod replay;
pub mod serve_equiv;
pub mod trace;

pub use checkpoint_equiv::{
    check_sampled_rung, kill_points, recoverable_overlay, Resume, ResumeCase,
};
pub use fault_equiv::{recoverable_plans, Faults};
pub use harness::{check, matrix, Axis, Divergence, Key, Keyed, Report, Transform};
pub use invariants::{
    check_csr, check_csr_parts, check_pair_sum, check_scores, check_search_state, Violation,
};
pub use metrics_check::{check_worker_metrics, Schedules};
pub use race::{check_trace, RaceReport};
pub use relabel_equiv::Relabel;
pub use replay::{verify_root, verify_root_with, RootVerification};
pub use serve_equiv::{answers_keyed, check_serve_rows, cold_references, serve_stream, ServeEdits};
pub use trace::{pull_bitmap_trace, LevelTrace, RecordingSink, Trace};

use conformance::{check_conformance, ConformanceOptions, ConformanceReport};
use model::{explore_all, ExplorationOutcome, ModelConfig};
use prover::{prove, ProverReport, SpecSet};

/// The static analysis's combined verdict.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The prover's launch proofs and atomic audits.
    pub prover: ProverReport,
    /// One exploration per schedule × cost shape.
    pub explorations: Vec<ExplorationOutcome>,
    /// The trace-replay verdict.
    pub conformance: ConformanceReport,
}

impl AnalysisReport {
    /// True when every pass is clean.
    pub fn is_clean(&self) -> bool {
        self.prover.is_clean()
            && self.explorations.iter().all(|e| e.result.is_ok())
            && self.conformance.is_clean()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== kernel IR prover ==\n");
        for l in &self.prover.launches {
            let axioms: Vec<String> = l.axioms_used.iter().map(|a| a.to_string()).collect();
            if l.is_race_free() {
                out.push_str(&format!(
                    "  {:<13} race-free for all inputs (axioms: {})\n",
                    l.launch.to_string(),
                    if axioms.is_empty() {
                        "none".to_string()
                    } else {
                        axioms.join(", ")
                    }
                ));
            } else {
                out.push_str(&format!("  {:<13} RACY:\n", l.launch.to_string()));
                for r in &l.races {
                    out.push_str(&format!("    {r}\n"));
                }
            }
        }
        for a in &self.prover.audits {
            let show = |v: &Vec<_>| format!("{v:?}");
            if a.agrees() {
                out.push_str(&format!(
                    "  {:<15} minimal atomics = declared = priced: {}\n",
                    a.kernel.to_string(),
                    show(&a.required)
                ));
            } else {
                out.push_str(&format!(
                    "  {:<15} ATOMIC DRIFT: declared {} required {} priced {}\n",
                    a.kernel.to_string(),
                    show(&a.declared),
                    show(&a.required),
                    show(&a.priced)
                ));
            }
        }
        out.push_str("== scheduler interleaving explorer ==\n");
        for e in &self.explorations {
            let costs = if e.skewed { "skewed" } else { "unit" };
            match &e.result {
                Ok(x) => out.push_str(&format!(
                    "  {:<13} {costs:<6} exhausted: {} states, {} terminals, 0 violations\n",
                    e.schedule.to_string(),
                    x.states,
                    x.terminals
                )),
                Err(err) => out.push_str(&format!(
                    "  {:<13} {costs:<6} FAILED: {err}\n",
                    e.schedule.to_string()
                )),
            }
        }
        out.push_str("== spec-vs-trace conformance ==\n");
        out.push_str(&format!(
            "  {} datasets, {} runs, {} levels, {} events, {} violations\n",
            self.conformance.datasets,
            self.conformance.runs,
            self.conformance.levels,
            self.conformance.events,
            self.conformance.error_count
        ));
        for e in &self.conformance.errors {
            out.push_str(&format!("    {e}\n"));
        }
        if self.conformance.error_count > self.conformance.errors.len() as u64 {
            out.push_str(&format!(
                "    … and {} more\n",
                self.conformance.error_count - self.conformance.errors.len() as u64
            ));
        }
        for u in &self.conformance.unhit_specs {
            out.push_str(&format!("    UNHIT SPEC: {u}\n"));
        }
        out
    }
}

/// Run the prover over the real kernel specs, the scheduler explorer
/// at `bound`, and conformance as `conformance` configures it.
pub fn analyze(bound: &ModelConfig, conformance: &ConformanceOptions) -> AnalysisReport {
    AnalysisReport {
        prover: prove(&SpecSet::real()),
        explorations: explore_all(bound, None),
        conformance: check_conformance(conformance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_analysis_is_clean() {
        let mut datasets = ConformanceOptions::full(1, 7);
        datasets.datasets.truncate(2);
        let report = analyze(&ModelConfig::quick(), &datasets);
        assert!(report.is_clean(), "{}", report.render());
        let rendered = report.render();
        assert!(rendered.contains("race-free for all inputs"));
        assert!(rendered.contains("0 violations"));
    }

    #[test]
    fn battery_flags_every_mutant_at_smoke_bounds() {
        // The whole seeded-bug list on the smallest analogues.
        for m in &mutants::ALL {
            for run in m.run(12, 7) {
                let (name, input, found) = (m.name, &run.input, &run.found);
                assert!(
                    m.flag(&run).is_some(),
                    "{name} survived on {input}: {found:?}"
                );
            }
        }
    }
}
