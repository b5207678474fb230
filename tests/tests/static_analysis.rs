//! The static analysis, exercised end to end: the real kernels and
//! scheduler must pass all three passes, and every entry of the one
//! seeded-bug list must be flagged. Quick bounds here; the
//! `bc-verify` binary runs the full 4×6 bound (stage 9) and the list
//! on its full inputs (stage 1).

use bc_core::kernel_spec::{KernelId, LaunchId};
use bc_core::Schedule;
use bc_graph::DatasetId;
use bc_verify::analyze;
use bc_verify::conformance::ConformanceOptions;
use bc_verify::model::{explore, ModelConfig, ModelError, SchedulerMutant, Violation};
use bc_verify::mutants::{self, SpecMutant};
use bc_verify::prover::{prove, SpecSet};

/// Conformance on one root of the first three analogues.
fn quick_conformance() -> ConformanceOptions {
    ConformanceOptions {
        datasets: DatasetId::ALL[..3].to_vec(),
        roots: 1,
        seed: 7,
    }
}

#[test]
fn full_analysis_is_clean_at_quick_bounds() {
    let report = analyze(&ModelConfig::quick(), &quick_conformance());
    assert!(report.is_clean(), "{}", report.render());
    // The paper's claims, as named facts of the report: the backward
    // sweep is race-free with an empty minimal atomic set, and the
    // pull kernel needs exactly its declared atomicOr.
    let backward = report
        .prover
        .launches
        .iter()
        .find(|l| l.launch == LaunchId::Backward)
        .unwrap();
    assert!(backward.is_race_free());
    let sweep_audit = report
        .prover
        .audits
        .iter()
        .find(|a| a.kernel == KernelId::BackwardSweep)
        .unwrap();
    assert!(sweep_audit.required.is_empty() && sweep_audit.agrees());
    let pull_audit = report
        .prover
        .audits
        .iter()
        .find(|a| a.kernel == KernelId::PullForward)
        .unwrap();
    assert_eq!(pull_audit.required.len(), 1);
    // Every exploration exhausted its bound (no budget bailouts).
    assert!(report.explorations.iter().all(|e| e.result.is_ok()));
    // Conformance exercised every declared spec.
    assert!(report.conformance.unhit_specs.is_empty());
    // The traced shape of the quick configuration, pinned: an engine
    // change that alters what any kernel traces moves these counts.
    let c = &report.conformance;
    assert_eq!((c.runs, c.levels, c.events), (6, 432, 22_149_843));
}

#[test]
fn every_seeded_mutant_is_flagged() {
    // The whole list, serve's probe on every analogue at the
    // bc-verify defaults (reduction 8, seed 42).
    for m in &mutants::ALL {
        let runs = m.run(8, 42);
        assert!(!runs.is_empty(), "mutant {} ran on no input", m.name);
        for run in &runs {
            let flag = m.flag(run);
            let (name, input, found) = (m.name, &run.input, &run.found);
            assert!(
                flag.is_some(),
                "mutant {name} survived on {input}: {found:?}"
            );
            assert!(
                !flag.unwrap().detail.is_empty(),
                "{name} flagged without evidence"
            );
        }
    }
}

#[test]
fn prover_refutations_name_the_racy_pairs() {
    // The seeded predecessor-style accumulation must be refuted *in
    // the backward launch specifically*, with δ on both sides of the
    // reported pair — the analyzer explains the bug, not just rejects.
    let report = prove(&SpecMutant::PredecessorAccumulation.apply());
    let backward = report
        .launches
        .iter()
        .find(|l| l.launch == LaunchId::Backward)
        .unwrap();
    assert!(!backward.is_race_free());
    assert!(backward
        .races
        .iter()
        .any(|r| r.writer.1.array == bc_gpusim::trace::KernelArray::Delta));
    // And the real specs stay provable in the same process (no global
    // state leaks between spec sets).
    assert!(prove(&SpecSet::real()).is_clean());
}

#[test]
fn explorer_counterexamples_replay() {
    // A mutant violation must come with a concrete interleaving.
    let err = explore(
        Schedule::WorkStealing,
        &ModelConfig::quick(),
        Some(SchedulerMutant::NonAtomicSteal),
    )
    .expect_err("the racy steal must be refuted");
    let ModelError::Violation(v) = err else {
        panic!("expected a violation, got {err}");
    };
    assert!(matches!(
        v.kind,
        Violation::Duplicated(_) | Violation::Lost(_)
    ));
    assert!(
        v.steps.iter().any(|s| s.contains("read-half")),
        "the counterexample must include the torn steal: {:?}",
        v.steps
    );
}

#[test]
fn explorer_is_clean_for_all_schedules_at_quick_bound() {
    for schedule in Schedule::ALL {
        for cfg in [ModelConfig::quick(), ModelConfig::quick().skewed()] {
            let e = explore(schedule, &cfg, None)
                .unwrap_or_else(|err| panic!("{schedule} must be clean: {err}"));
            assert!(e.states > 0, "{schedule}");
        }
    }
}
