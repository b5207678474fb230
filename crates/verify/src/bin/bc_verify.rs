//! `bc-verify` — the full verification suite.
//!
//! Stages:
//! 1. **Seeded bugs** — every entry of the one list
//!    (`bc_verify::mutants`) must be flagged by the check it names, on
//!    each of its inputs: the prover's three kernel-spec mutants, the
//!    explorer's two scheduler mutants at the quick bound, the
//!    checkpoint store's corrupt, mismatch and stale cases, serve's
//!    `SkipEpochBump` on every dataset analogue, and the race
//!    detector's two planted plain traces. A check that cannot find a
//!    planted bug proves nothing by staying silent. As controls, the
//!    atomic variants of the planted traces and the engine's real
//!    kernels must pass on the same graphs.
//! 2. **Dataset sweep** — every Table II analogue: CSR
//!    well-formedness, then one observed replay of each of several
//!    roots under both the push model and the direction-optimizing
//!    model (whose saturated levels run the bottom-up kernel). Each
//!    replay checks race freedom, the structural invariants,
//!    priced-vs-traced atomics, atomic-free backward levels, and every
//!    exported level counter (edges inspected, CAS attempts/wins,
//!    σ-updates, frontier sizes) against the access events of the same
//!    launch.
//! 3. **Exact-score identities** — small all-roots runs checked
//!    against the Brandes pair-sum identity.
//!
//! Stages 4–8 run the differential-equivalence harness
//! (`bc_verify::harness`): each is one transform swept over an axis
//! matrix, held bitwise to its baseline by one oracle that reports the
//! first divergence with its ULP distance, and flagged if it did
//! nothing. Each stage also flips one ULP of its transform's output
//! and requires the oracle to report exactly that entry.
//!
//! 4. **Faults** — the cluster runner under six seeded recoverable
//!    fault plans (retries, contained panics, GPU deaths, stragglers,
//!    lossy reduces) on two graphs at widths 2 and 4; an unrecoverable
//!    plan must fail structurally, never via a process panic.
//! 5. **Schedule** — a metered sampling run under each dynamic
//!    schedule against static: scores and per-root metrics stream
//!    bitwise, per-worker records replayed against shard geometry;
//!    and a serving workload run twice must emit bitwise-equal,
//!    balanced serve rows.
//! 6. **Relabel** — degree-ordered relabeling across push/pull/auto ×
//!    1/2/4 threads × 3 schedules, and for every method.
//! 7. **Kill-and-resume** — the durable cluster runner killed at
//!    early/mid/late points under every schedule × traversal (a
//!    recoverable fault overlay layered on) and resumed from its
//!    checkpoint; the degradation ladder's partition rung runs as a
//!    transform case and its sampled rung as a plain check.
//! 8. **Serve with edits** — seeded query streams with interleaved
//!    edge edits through the batched, epoch-cached `bc-serve` layer,
//!    against cold recomputes on the shadow-edited graph, across 3
//!    schedules × push/pull/auto × 1/2/4 threads on every dataset
//!    analogue.
//! 9. **Static analysis** — the kernel-IR prover (every launch
//!    race-free for all inputs; minimal atomics = declared = priced),
//!    the scheduler interleaving explorer exhausted at the full 4×6
//!    bound, and spec-vs-trace conformance on 2 roots of every dataset
//!    analogue (seed 7, push and forced pull).
//!
//! Each stage prints its wall time after its results. Exit status is
//! non-zero if any stage fails.

#![forbid(unsafe_code)]

use bc_core::engine::{process_root, FreeModel, SearchWorkspace};
use bc_core::{DirectionOptimizingModel, Schedule, TraversalMode};
use bc_gpusim::DeviceConfig;
use bc_graph::{gen, DatasetId};
use bc_verify::conformance::ConformanceOptions;
use bc_verify::model::ModelConfig;
use bc_verify::mutants::{self, Plant};
use bc_verify::trace::record;
use bc_verify::{
    analyze, check, check_csr, check_pair_sum, check_scores, check_trace, matrix, verify_root,
    verify_root_with, Axis, Faults, Relabel, Transform, Violation,
};
use std::process::ExitCode;
use std::time::Instant;

/// The axis point single-point checks run at; stages override its
/// traversal and width where they need another.
const AT: Axis = Axis::new(Schedule::Static, TraversalMode::Push, 1);

struct Options {
    reduction: u32,
    roots: usize,
    seed: u64,
}

const USAGE: &str = "bc-verify: race-detect and invariant-check the simulated BC kernels

USAGE:
    bc-verify [--reduction N] [--roots N] [--seed N]

OPTIONS:
    --reduction N   Dataset size reduction in powers of two [default: 8]
    --roots N       Traced roots per dataset [default: 4]
    --seed N        Generator seed [default: 42]
    -h, --help      Print this help
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        reduction: 8,
        roots: 4,
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reduction" => opts.reduction = value(&arg, args.next())?,
            "--roots" => opts.roots = value(&arg, args.next())?,
            "--seed" => opts.seed = value(&arg, args.next())?,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.roots == 0 {
        return Err("--roots must be at least 1".into());
    }
    Ok(opts)
}

/// Parse the value given after `flag`.
fn value<T: std::str::FromStr>(flag: &str, given: Option<String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let given = given.ok_or_else(|| format!("{flag} requires a value"))?;
    given.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Stage 1: every seeded bug of the one list must be flagged by its
/// check on each of its inputs; the atomic variants of the planted
/// traces and the engine's real kernels must pass on the same graphs.
/// Returns the number of failures.
fn seeded_bugs(opts: &Options, device: &DeviceConfig) -> usize {
    let mut failures = 0;
    for m in &mutants::ALL {
        for run in m.run(opts.reduction, opts.seed) {
            let (name, input, check) = (m.name, &run.input, m.flagged_by);
            if m.flag(&run).is_some() {
                println!("ok   seeded {name} [{input}]: flagged by {check}");
            } else {
                println!(
                    "FAIL seeded {name} [{input}]: escaped {check}; reported {:?}",
                    run.found
                );
                failures += 1;
            }
        }
    }
    for (name, g) in mutants::trace_graphs() {
        let (_, ws) = record(&g, 0, device, FreeModel);
        for m in &mutants::ALL {
            let Plant::PlainTrace(synth) = m.plant else {
                continue;
            };
            if let Some(r) = check_trace(&synth(&g, &ws, true)).first() {
                println!(
                    "FAIL control {name}: atomic variant of {} flagged: {r}",
                    m.name
                );
                failures += 1;
            }
        }
        let real = verify_root(&g, 0, device);
        if !real.is_clean() {
            let (races, violations) = (&real.races, &real.violations);
            println!(
                "FAIL control {name}: successor-based sweep not clean: {races:?} {violations:?}"
            );
            failures += 1;
        }
    }
    failures
}

/// Stage 2: the dataset sweep. Returns the number of failures.
fn dataset_sweep(opts: &Options, device: &DeviceConfig) -> usize {
    let mut failures = 0;
    for d in DatasetId::ALL {
        let g = d.generate(opts.reduction, opts.seed);
        let n = g.num_vertices();
        let csr = check_csr(&g);
        if !csr.is_empty() {
            for v in &csr {
                println!("FAIL {}: {v}", d.name());
            }
            failures += csr.len();
            continue;
        }
        // Deterministic spread of roots across the id space, each
        // replayed under the push model and under the
        // direction-optimizing automaton (which race-checks the
        // bottom-up kernel wherever frontiers saturate).
        let mut races = 0;
        let mut violations = 0;
        let mut events = 0u64;
        let mut levels = 0usize;
        for i in 0..opts.roots {
            let root = ((i * n) / opts.roots) as u32;
            let push = verify_root(&g, root, device);
            let auto = verify_root_with(
                &g,
                root,
                device,
                DirectionOptimizingModel::new(TraversalMode::Auto),
            );
            for v in [&push, &auto] {
                races += v.races.len();
                violations += v.violations.len();
                events += v.events;
                levels += v.levels;
                for r in &v.races {
                    println!("FAIL {} root {root}: {r}", d.name());
                }
                for viol in &v.violations {
                    println!("FAIL {} root {root}: {viol}", d.name());
                }
            }
        }
        if races + violations == 0 {
            println!(
                "ok   {:<18} n={:<7} 2m={:<8} roots={} levels={} events={} \
                 counters == trace (push+auto)",
                d.name(),
                n,
                g.num_directed_edges(),
                opts.roots,
                levels,
                events
            );
        } else {
            failures += races + violations;
        }
    }
    failures
}

/// Stage 3: exact all-roots runs against the pair-sum identity.
fn exact_identity_checks(device: &DeviceConfig) -> usize {
    let mut failures = 0;
    for (name, g) in [
        ("path(32)", gen::path(32)),
        ("grid(8,6)", gen::grid(8, 6)),
        ("erdos_renyi(120,400)", gen::erdos_renyi(120, 400, 17)),
    ] {
        let mut ws = SearchWorkspace::new(g.num_vertices());
        let mut bc = vec![0.0; g.num_vertices()];
        for r in g.vertices() {
            process_root(&g, r, device, &mut ws, &mut FreeModel, &mut bc);
        }
        let half = if g.is_symmetric() { 0.5 } else { 1.0 };
        bc.iter_mut().for_each(|b| *b *= half);
        let mut bad = check_scores(&bc);
        bad.extend(check_pair_sum(&g, &bc));
        failures += report(&format!("exact-scores {name}"), &bad, || {
            "pair-sum identity holds".into()
        });
    }
    failures
}

/// Print `violations` as FAIL lines under `label` (the first eight),
/// or one ok line; return the failure count.
fn report(label: &str, violations: &[Violation], ok: impl FnOnce() -> String) -> usize {
    for v in violations.iter().take(8) {
        println!("FAIL {label}: {v}");
    }
    if violations.is_empty() {
        println!("ok   {label}: {}", ok());
    }
    violations.len()
}

/// Report a harness run of `cases` at `points`.
fn report_check<T: Transform>(
    label: &str,
    t: &T,
    points: &[Axis],
    cases: &[(&str, T::Case)],
) -> usize {
    let r = check(t, points, cases);
    let flip = r.flip.as_ref().map_or("-".into(), |d| d.key.to_string());
    let (n, at, exercised, unit) = (r.cases, r.points, r.exercised, T::EXERCISED);
    report(label, &r.violations, || {
        format!(
            "{n} case(s) at {at} point(s) bitwise equal to baseline, {exercised} {unit}; \
             one-ULP flip caught at {flip}"
        )
    })
}

/// Stage 4: the fault transform on two graphs at widths 2 and 4,
/// plus structured (non-panicking) failure for an unrecoverable plan.
fn fault_tolerance_checks(seed: u64) -> usize {
    use bc_cluster::{run_cluster_with_faults, ClusterConfig, ClusterError, FaultPlan};
    let plans = bc_verify::recoverable_plans(seed);
    let widths = [2, 4].map(|width| Axis { width, ..AT });
    let mut failures = 0;
    for (name, g) in [
        ("watts_strogatz(200,6)", gen::watts_strogatz(200, 6, 0.1, 6)),
        ("grid(16,16)", gen::grid(16, 16)),
    ] {
        let t = Faults::new(&g, ClusterConfig::keeneland(2), 32);
        failures += report_check(&format!("fault-equiv {name}"), &t, &widths, &plans);
    }
    // An unrecoverable plan must come back as a structured error
    // carrying the partial result — not a panic, not a clean exit.
    let (g, cfg) = (gen::grid(12, 12), ClusterConfig::keeneland(2));
    let plan = FaultPlan::parse("dead=0+1+2+3+4+5,death_fraction=0.5").expect("valid fault spec");
    let lost = match run_cluster_with_faults(&g, &cfg, 24, &plan) {
        Err(ClusterError::AllGpusLost {
            completed_roots: 1..,
            ..
        }) => Vec::new(),
        other => {
            let got = other.map(|r| r.report.roots_sampled);
            let detail = format!("expected AllGpusLost with partial progress, got {got:?}");
            vec![Violation::new("fault.unrecoverable", detail)]
        }
    };
    let ok = || "all-GPUs-dead surfaced structurally".to_owned();
    failures + report("fault-unrecoverable", &lost, ok)
}

/// Stage 5: the schedule transform. The metered sampling run at 4
/// threads under each dynamic schedule must reproduce the static
/// run's scores and per-root metrics stream bitwise, and its
/// per-worker records must replay against shard geometry.
fn schedule_replay_checks(device: &DeviceConfig) -> usize {
    use bc_core::{BcOptions, Method, RootSelection};
    let g = gen::watts_strogatz(512, 6, 0.1, 23);
    let opts = BcOptions {
        device: device.clone(),
        roots: RootSelection::Strided(256),
        ..BcOptions::default()
    };
    let t = bc_verify::Schedules::new(&g, Method::Sampling(Default::default()), opts);
    let at = [Axis::new(Schedule::Static, TraversalMode::Auto, 4)];
    let cases = [
        ("guided", Schedule::Guided),
        ("work-stealing", Schedule::WorkStealing),
    ];
    report_check("schedule-replay", &t, &at, &cases)
}

/// Stage 5 (continued): serve rows are replayable observations. Runs
/// an identical serving workload twice and holds the emitted rows to
/// bitwise equality plus the per-row accounting invariants
/// (`hits + misses == requested_roots`, stored latency is exactly
/// `completed - arrival`, dense sequence numbers, monotone batch
/// starts).
fn serve_row_replay_checks(seed: u64) -> usize {
    use bc_serve::{BcServer, ServeConfig};
    let g = gen::watts_strogatz(256, 6, 0.1, seed);
    let events = bc_verify::serve_stream(&g, 12, 3, seed);
    let run = |events: Vec<bc_serve::Event>| {
        let mut server = BcServer::single(g.clone(), ServeConfig::default());
        server.run(events).map(|out| out.rows)
    };
    let (rows, bad) = match (run(events.clone()), run(events)) {
        (Ok(rows), Ok(replay)) => (rows.len(), bc_verify::check_serve_rows(&rows, &replay)),
        (Err(e), _) | (_, Err(e)) => (0, vec![Violation::new("serve.run", e.to_string())]),
    };
    report("serve-rows", &bad, || {
        format!("{rows} rows replay bitwise with balanced cache/latency accounting")
    })
}

/// Stage 6: the relabel transform on a scale-free analogue (where
/// DegreeDesc genuinely permutes): work-efficient over push/pull/auto
/// × 1/2/4 threads × 3 schedules, then every method at one point.
fn relabel_equivalence_checks(seed: u64) -> usize {
    use bc_core::{Method, RootSelection};
    use bc_graph::relabel::Relabeling;
    let g = gen::barabasi_albert(2000, 5, seed);
    let degree = [("degree-desc", Relabeling::DegreeDesc)];
    let t = Relabel::new(&g, Method::WorkEfficient, RootSelection::Strided(32));
    let mut failures = report_check("relabel battery", &t, &matrix(&g, &[1, 2, 4]), &degree);
    for method in Method::all() {
        let t = Relabel::new(&g, method.clone(), RootSelection::Strided(16));
        let label = format!("relabel {}", method.name());
        failures += report_check(&label, &t, &[Axis { width: 0, ..AT }], &degree);
    }
    failures
}

/// Stage 7: the kill-and-resume transform at three kill points × 3
/// schedules × 3 traversals under a recoverable fault overlay, and
/// both rungs of the degradation ladder (partition as a transform
/// case, sampled as a plain check).
fn durability_checks(seed: u64) -> usize {
    use bc_cluster::{ClusterConfig, FaultPlan};
    use bc_core::Method;
    use bc_verify::{Resume, ResumeCase};
    let g = gen::watts_strogatz(180, 6, 0.1, 19);
    let cfg = |nodes| ClusterConfig {
        method: Method::WorkEfficient,
        ..ClusterConfig::keeneland(nodes)
    };
    let t = Resume::new(&g, cfg(2), 24, bc_verify::recoverable_overlay(seed));
    let kills = bc_verify::kill_points();
    let mut failures = report_check("ckpt-equiv", &t, &matrix(&g, &[2]), &kills);

    let g = gen::kronecker(11, 8, 4);
    let t = Resume::new(&g, cfg(1), 16, FaultPlan::none());
    let partition = [("partition", ResumeCase::Partition)];
    failures += report_check("ckpt-ladder partition", &t, &[AT], &partition);
    let sampled = bc_verify::check_sampled_rung(&g, &cfg(1), 16);
    failures
        + report("ckpt-ladder sampled", &sampled, || {
            "bounded and reported".into()
        })
}

/// Stage 8: the serve-with-edits transform. Every dataset analogue
/// gets a seeded query stream with interleaved edge edits, served
/// under 3 schedules × push/pull/auto × 1/2/4 threads; every answer
/// must equal a cold recompute on the shadow-edited graph bitwise.
fn serving_checks(opts: &Options) -> usize {
    let mut failures = 0;
    for id in DatasetId::ALL {
        let g = id.generate(opts.reduction, opts.seed);
        let t = bc_verify::ServeEdits::new(&g, 6, 2, opts.seed);
        let label = format!("serve {}", id.name());
        failures += report_check(&label, &t, &matrix(&g, &[1, 2, 4]), &[("clean", None)]);
    }
    failures
}

/// Stage 9: the static analysis, with the constants of the full gate:
/// the explorer at 4×6, conformance on 2 roots of every analogue at
/// seed 7.
fn static_analysis() -> usize {
    let report = analyze(&ModelConfig::full(), &ConformanceOptions::full(2, 7));
    print!("{}", report.render());
    usize::from(!report.is_clean())
}

/// Run one stage under its banner and print its wall time. Returns
/// the stage's failure count.
fn stage(number: u32, title: &str, run: impl FnOnce() -> usize) -> usize {
    println!("== stage {number}: {title} ==");
    let started = Instant::now();
    let failures = run();
    println!(
        "-- stage {number}: {:.2} s wall",
        started.elapsed().as_secs_f64()
    );
    failures
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let device = DeviceConfig::gtx_titan();
    let (reduction, seed) = (opts.reduction, opts.seed);

    let mut failures = stage(1, "seeded bugs (one list) and controls", || {
        seeded_bugs(&opts, &device)
    });
    failures += stage(
        2,
        &format!("dataset sweep (reduction {reduction}, seed {seed})"),
        || dataset_sweep(&opts, &device),
    );
    failures += stage(3, "exact-score identities", || {
        exact_identity_checks(&device)
    });
    failures += stage(4, "fault-tolerance equivalence", || {
        fault_tolerance_checks(seed)
    });
    failures += stage(5, "metrics replay (scheduled workers, serve rows)", || {
        schedule_replay_checks(&device) + serve_row_replay_checks(seed)
    });
    failures += stage(6, &format!("relabel equivalence (seed {seed})"), || {
        relabel_equivalence_checks(seed)
    });
    failures += stage(
        7,
        &format!("checkpoint/resume durability (seed {seed})"),
        || durability_checks(seed),
    );
    failures += stage(
        8,
        &format!("serving equivalence (reduction {reduction}, seed {seed})"),
        || serving_checks(&opts),
    );
    failures += stage(
        9,
        "static analysis (prover, 4x6 explorer, conformance)",
        static_analysis,
    );

    if failures == 0 {
        println!("bc-verify: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("bc-verify: {failures} check(s) FAILED");
        ExitCode::FAILURE
    }
}
