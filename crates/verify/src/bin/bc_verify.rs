//! `bc-verify` — the full verification suite.
//!
//! Stages:
//! 1. **Seeded-bug self-test** — the race detector must flag the
//!    deliberately broken atomic-free predecessor-style accumulation
//!    *and* the bottom-up pull kernel whose `F_next` announcement
//!    drops its word-granular `atomicOr`, and must pass the atomic
//!    variants plus the engine's real kernels on the same graphs. A
//!    detector that cannot find a planted race proves nothing by
//!    staying silent.
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
//! 4. **Fault-tolerance equivalence** — the cluster runner under a
//!    battery of seeded fault plans (retries, contained panics, GPU
//!    deaths, stragglers, lossy reduces) must return scores bitwise
//!    identical to the fault-free run, and an unrecoverable plan must
//!    fail structurally, never via a process panic.
//! 5. **Metrics replay** — a metered sampling run under each dynamic
//!    schedule must reproduce the static run's scores and per-root
//!    metrics stream bitwise, with per-worker records that replay
//!    against shard geometry; and a serving workload run twice must
//!    emit bitwise-equal, balanced serve rows.
//! 6. **Relabel equivalence** — degree-ordered relabeling must be
//!    bitwise invisible across directions, threads, schedules, and
//!    methods.
//! 7. **Checkpoint/resume equivalence** — the durable cluster runner
//!    killed at seeded early/mid/late points under every schedule ×
//!    traversal combination (a recoverable fault plan layered on) and
//!    resumed from its checkpoint must reproduce the uninterrupted
//!    scores bitwise; corrupted, mismatched, and stale checkpoints
//!    must be rejected structurally; and the graceful-degradation
//!    ladder must partition (bitwise) and sample (bounded error) as
//!    claimed.
//! 8. **Serving equivalence** — seeded random query streams (with
//!    interleaved edge edits) through the batched, epoch-cached
//!    `bc-serve` layer must answer bitwise identically to per-query
//!    cold recomputes on the shadow-edited graph, across 3 schedules
//!    × push/pull/auto × 1/2/4 threads on every dataset analogue; a
//!    server seeded with the `SkipEpochBump` stale-cache mutation
//!    must serve detectably stale scores.
//!
//! Each stage prints its wall time after its results. Exit status is
//! non-zero if any stage fails.

#![forbid(unsafe_code)]

use bc_core::engine::{process_root, FreeModel, SearchWorkspace};
use bc_core::{DirectionOptimizingModel, TraversalMode};
use bc_gpusim::DeviceConfig;
use bc_graph::{gen, Csr, DatasetId};
use bc_verify::trace::{predecessor_accumulation_trace, pull_bitmap_trace};
use bc_verify::{
    check_csr, check_pair_sum, check_scores, check_trace, verify_root, verify_root_with,
};
use std::process::ExitCode;
use std::time::Instant;

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
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--reduction" => {
                opts.reduction = value("--reduction")?
                    .parse()
                    .map_err(|e| format!("--reduction: {e}"))?;
            }
            "--roots" => {
                opts.roots = value("--roots")?
                    .parse()
                    .map_err(|e| format!("--roots: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
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

/// Stage 1: the planted race. Returns the number of failures.
fn seeded_bug_self_test(device: &DeviceConfig) -> usize {
    let mut failures = 0;
    let graphs: Vec<(&str, Csr)> = vec![
        ("grid(8,8)", gen::grid(8, 8)),
        ("erdos_renyi(200,600)", gen::erdos_renyi(200, 600, 9)),
        ("watts_strogatz(150,6)", gen::watts_strogatz(150, 6, 0.1, 4)),
    ];
    for (name, g) in &graphs {
        let mut ws = SearchWorkspace::new(g.num_vertices());
        let mut bc = vec![0.0; g.num_vertices()];
        process_root(g, 0, device, &mut ws, &mut FreeModel, &mut bc);

        let broken = check_trace(&predecessor_accumulation_trace(g, &ws, false));
        if broken.is_empty() {
            println!("FAIL seeded-bug {name}: atomic-free predecessor accumulation NOT flagged");
            failures += 1;
        } else {
            println!(
                "ok   seeded-bug {name}: broken accumulation flagged ({} racy cells, e.g. {})",
                broken.len(),
                broken[0]
            );
        }

        let fixed = check_trace(&predecessor_accumulation_trace(g, &ws, true));
        if !fixed.is_empty() {
            println!(
                "FAIL seeded-bug {name}: atomicAdd accumulation wrongly flagged: {}",
                fixed[0]
            );
            failures += 1;
        }

        let real = verify_root(g, 0, device);
        if !real.is_clean() {
            println!(
                "FAIL seeded-bug {name}: successor-based sweep not clean: {:?} {:?}",
                real.races, real.violations
            );
            failures += 1;
        }

        // The pull kernel's planted bug: dropping the atomicOr on
        // the shared F_next words must be flagged, the real
        // word-granular atomic variant must pass.
        let broken_pull = check_trace(&pull_bitmap_trace(g, &ws, false));
        if broken_pull.is_empty() {
            println!("FAIL seeded-bug {name}: plain F_next bitmap update NOT flagged");
            failures += 1;
        } else {
            println!(
                "ok   seeded-bug {name}: broken pull announcement flagged ({} racy words, e.g. {})",
                broken_pull.len(),
                broken_pull[0]
            );
        }
        let fixed_pull = check_trace(&pull_bitmap_trace(g, &ws, true));
        if !fixed_pull.is_empty() {
            println!(
                "FAIL seeded-bug {name}: atomicOr pull announcement wrongly flagged: {}",
                fixed_pull[0]
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
    let graphs: Vec<(&str, Csr)> = vec![
        ("path(32)", gen::path(32)),
        ("grid(8,6)", gen::grid(8, 6)),
        ("erdos_renyi(120,400)", gen::erdos_renyi(120, 400, 17)),
    ];
    for (name, g) in &graphs {
        let mut ws = SearchWorkspace::new(g.num_vertices());
        let mut bc = vec![0.0; g.num_vertices()];
        for r in g.vertices() {
            process_root(g, r, device, &mut ws, &mut FreeModel, &mut bc);
        }
        if g.is_symmetric() {
            for b in bc.iter_mut() {
                *b *= 0.5;
            }
        }
        let mut bad = check_scores(&bc);
        bad.extend(check_pair_sum(g, &bc));
        if bad.is_empty() {
            println!("ok   exact-scores {name}: pair-sum identity holds");
        } else {
            for v in &bad {
                println!("FAIL exact-scores {name}: {v}");
            }
            failures += bad.len();
        }
    }
    failures
}

/// Stage 4: fault/fault-free bitwise equivalence on the cluster
/// runner, plus structured (non-panicking) failure for an
/// unrecoverable plan. Returns the number of failures.
fn fault_tolerance_checks(seed: u64) -> usize {
    use bc_cluster::{run_cluster_with_faults, ClusterConfig, ClusterError, FaultPlan};
    let mut failures = 0;
    let graphs: Vec<(&str, Csr)> = vec![
        ("watts_strogatz(200,6)", gen::watts_strogatz(200, 6, 0.1, 6)),
        ("grid(16,16)", gen::grid(16, 16)),
    ];
    let plans = bc_verify::recoverable_plans(seed);
    for (name, g) in &graphs {
        for nodes in [2usize, 4] {
            let cfg = ClusterConfig::keeneland(nodes);
            let violations = bc_verify::check_fault_equivalence(g, &cfg, 32, &plans);
            if violations.is_empty() {
                println!(
                    "ok   fault-equiv {name} nodes={nodes}: {} plan(s) bitwise identical",
                    plans.len()
                );
            } else {
                for v in &violations {
                    println!("FAIL fault-equiv {name} nodes={nodes}: {v}");
                }
                failures += violations.len();
            }
        }
    }
    // An unrecoverable plan must come back as a structured error
    // carrying the partial result — not a panic, not a clean exit.
    let g = gen::grid(12, 12);
    let plan = FaultPlan {
        dead_gpus: (0..6).collect(),
        death_fraction: 0.5,
        ..FaultPlan::none()
    };
    match run_cluster_with_faults(&g, &ClusterConfig::keeneland(2), 24, &plan) {
        Err(ClusterError::AllGpusLost {
            completed_roots, ..
        }) if completed_roots > 0 => {
            println!(
                "ok   fault-unrecoverable: all-GPUs-dead surfaced structurally \
                 ({completed_roots} roots completed before the losses)"
            );
        }
        other => {
            println!(
                "FAIL fault-unrecoverable: expected AllGpusLost with partial progress, got {:?}",
                other.map(|r| r.report.roots_sampled)
            );
            failures += 1;
        }
    }
    failures
}

/// Stage 5: scheduled-run replay. Each dynamic schedule
/// runs the metered solver at 4 threads and must reproduce the static
/// run's scores and per-root metrics stream bitwise, and its
/// per-worker records must replay cleanly against shard geometry
/// (partition exact, root counts re-derived, steal counters only
/// where stealing is allowed). Returns the number of failures.
fn schedule_replay_checks(device: &DeviceConfig) -> usize {
    use bc_core::{BcOptions, Method, RootSelection, Schedule};
    let mut failures = 0;
    let g = gen::watts_strogatz(512, 6, 0.1, 23);
    let run = |schedule: Schedule| {
        let opts = BcOptions {
            device: device.clone(),
            roots: RootSelection::Strided(256),
            normalize: false,
            threads: 4,
            traversal: TraversalMode::Auto,
            schedule,
            partition: Default::default(),
        };
        Method::Sampling(Default::default()).run_metered(&g, &opts)
    };
    let (base_run, base_metrics) = match run(Schedule::Static) {
        Ok(out) => out,
        Err(e) => {
            println!("FAIL schedule-replay static: {e}");
            return 1;
        }
    };
    for schedule in [Schedule::Guided, Schedule::WorkStealing] {
        let (r, m) = match run(schedule) {
            Ok(out) => out,
            Err(e) => {
                println!("FAIL schedule-replay {schedule}: {e}");
                failures += 1;
                continue;
            }
        };
        let mut bad = 0;
        if r.scores != base_run.scores {
            println!("FAIL schedule-replay {schedule}: scores differ from the static run");
            bad += 1;
        }
        if m.per_root != base_metrics.per_root {
            println!(
                "FAIL schedule-replay {schedule}: per-root metrics stream differs from static"
            );
            bad += 1;
        }
        let violations = bc_verify::check_worker_metrics(&m.per_worker);
        for v in &violations {
            println!("FAIL schedule-replay {schedule}: {v}");
        }
        bad += violations.len();
        failures += bad;
        if bad == 0 {
            let steals: u64 = m.per_worker.iter().map(|w| w.steals).sum();
            println!(
                "ok   schedule-replay {schedule}: scores + per-root stream bitwise identical \
                 to static; {} worker record(s) replay cleanly ({steals} steal(s))",
                m.per_worker.len()
            );
        }
    }
    failures
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
    let (rows, replay) = match (run(events.clone()), run(events)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            println!("FAIL serve-rows: workload run failed: {e}");
            return 1;
        }
    };
    let violations = bc_verify::check_serve_rows(&rows, &replay);
    for v in &violations {
        println!("FAIL serve-rows: {v}");
    }
    if violations.is_empty() {
        println!(
            "ok   serve-rows: {} rows replay bitwise with balanced cache/latency accounting",
            rows.len()
        );
    }
    violations.len()
}

/// Stage 6: degree-ordered relabeling must be invisible bitwise. Runs
/// the full direction × thread × schedule battery on a scale-free
/// analogue (where DegreeDesc genuinely permutes) plus a single-config
/// sweep over every method.
fn relabel_equivalence_checks(seed: u64) -> usize {
    use bc_core::{BcOptions, Method, RootSelection};
    let mut failures = 0;

    let scale_free = gen::barabasi_albert(2000, 5, seed);
    let bad = bc_verify::relabel_battery(
        &scale_free,
        &Method::WorkEfficient,
        RootSelection::Strided(32),
    );
    for v in bad.iter().take(8) {
        println!("FAIL relabel battery: {v}");
    }
    failures += bad.len();
    if bad.is_empty() {
        println!(
            "ok   relabel battery: work-efficient bitwise identical under DegreeDesc \
             across push/pull/auto x 1/2/4 threads x 3 schedules"
        );
    }

    for method in Method::all() {
        let opts = BcOptions {
            roots: RootSelection::Strided(16),
            ..Default::default()
        };
        let bad = bc_verify::check_relabel_equivalence(&scale_free, &method, &opts);
        for v in bad.iter().take(4) {
            println!("FAIL relabel {}: {v}", method.name());
        }
        failures += bad.len();
        if bad.is_empty() {
            println!("ok   relabel {}: scores bitwise identical", method.name());
        }
    }
    failures
}

/// Stage 7: checkpoint/resume equivalence, checkpoint tamper
/// rejection, and the graceful-degradation ladder. Returns the number
/// of failures.
fn durability_checks(seed: u64) -> usize {
    use bc_cluster::ClusterConfig;
    use bc_core::Method;
    let mut failures = 0;

    let g = gen::watts_strogatz(180, 6, 0.1, 19);
    let cfg = ClusterConfig {
        method: Method::WorkEfficient,
        ..ClusterConfig::keeneland(2)
    };
    let violations = bc_verify::check_checkpoint_equivalence(&g, &cfg, 24, seed);
    if violations.is_empty() {
        println!(
            "ok   ckpt-equiv: {} kill point(s) x 3 schedules x 3 traversals resumed bitwise",
            bc_verify::kill_points().len()
        );
    } else {
        for v in &violations {
            println!("FAIL ckpt-equiv: {v}");
        }
        failures += violations.len();
    }

    let violations = bc_verify::check_checkpoint_rejection(&g, &cfg, 12);
    if violations.is_empty() {
        println!("ok   ckpt-reject: corrupted, mismatched, and stale checkpoints all rejected");
    } else {
        for v in &violations {
            println!("FAIL ckpt-reject: {v}");
        }
        failures += violations.len();
    }

    let ladder_g = gen::kronecker(11, 8, 4);
    let ladder_cfg = ClusterConfig {
        method: Method::WorkEfficient,
        ..ClusterConfig::keeneland(1)
    };
    let violations = bc_verify::check_degradation_ladder(&ladder_g, &ladder_cfg, 16);
    if violations.is_empty() {
        println!("ok   ckpt-ladder: partition rung bitwise, sampled rung bounded and reported");
    } else {
        for v in &violations {
            println!("FAIL ckpt-ladder: {v}");
        }
        failures += violations.len();
    }
    failures
}

/// Stage 8: serving equivalence. Every dataset analogue gets a
/// seeded random query stream (with interleaved edge edits) served
/// through the batched, cached `bc-serve` layer under 3 schedules ×
/// push/pull/auto × 1/2/4 threads; every response must equal a cold
/// per-query recompute on the shadow-edited graph bitwise. A server
/// seeded with the `SkipEpochBump` stale-cache mutation must be
/// flagged on every dataset.
fn serving_checks(opts: &Options) -> usize {
    let mut failures = 0;
    for id in DatasetId::ALL {
        let g = id.generate(opts.reduction, opts.seed);
        let bad = bc_verify::check_serving_equivalence(&g, 6, 2, opts.seed);
        for v in bad.iter().take(8) {
            println!("FAIL serve {}: {v}", id.name());
        }
        failures += bad.len();
        if bad.is_empty() {
            println!(
                "ok   serve {}: batched+cached responses bitwise equal cold recompute \
                 across 3 schedules x push/pull/auto x 1/2/4 threads (edits interleaved)",
                id.name()
            );
        }

        let bad = bc_verify::check_stale_cache_mutant_flagged(&g);
        for v in &bad {
            println!("FAIL serve-mutant {}: {v}", id.name());
        }
        failures += bad.len();
        if bad.is_empty() {
            println!(
                "ok   serve-mutant {}: SkipEpochBump served stale scores and was caught",
                id.name()
            );
        }
    }
    failures
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

    let mut failures = stage(1, "seeded-bug self-test", || seeded_bug_self_test(&device));
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

    if failures == 0 {
        println!("bc-verify: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("bc-verify: {failures} check(s) FAILED");
        ExitCode::FAILURE
    }
}
