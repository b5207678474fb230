//! The extension sweeps: the experiments beyond the paper's evaluation
//! (EXPERIMENTS.md E-trajectory through E-serve), one section each.
//!
//! ```text
//! cargo run -p bc-bench --release --bin sweep -- [--quick] [SECTION ...]
//! ```
//!
//! Sections: `trajectory`, `direction`, `faults`, `metrics`,
//! `schedule`, `scale`, `durability`, `serve`. Each prints its tables;
//! with no section named, every one runs and the rows are written to
//! `results/BENCH_sweep.json` (`results/BENCH_sweep_quick.json` under
//! `--quick`, the smaller CI scale) after the common header. A field
//! whose value depends on the host run (wall clock, worker timing,
//! steals) is named `host_*`; every other field is a function of the
//! code and the seed alone, and `ci.sh` compares the quick file's
//! lines bitwise.
//!
//! The sweeps report; they do not re-check what the test suite and
//! `bc-verify` already check (bitwise equality across threads,
//! traversal modes, metering, schedules, faults, relabeling, resume
//! and serving). The one exception is the ≥ 2M-vertex partitioned
//! run in `scale`, too large for tier-1: it asserts the resident
//! pre-flight fails with `OutOfMemory` and the partitioned scores are
//! bitwise identical under a recoverable fault plan.

use bc_bench::{row, scaled_sampling, write_results, Header, Table, DEFAULT_SEED as SEED};
use bc_cluster::{
    run_cluster, run_cluster_durable, run_cluster_with_faults, ClusterConfig, ClusterError,
    DurabilityOptions, FaultPlan,
};
use bc_core::methods::cost::footprint;
use bc_core::methods::models::WorkEfficientModel;
use bc_core::{
    run_roots_scheduled, run_roots_scheduled_metered, BcOptions, Degradation, HybridParams, Method,
    PartitionMode, PartitionPlan, RootSelection, Schedule, TraversalMode,
};
use bc_gpusim::{distinct_line_transactions, DeviceConfig, SimError};
use bc_graph::relabel::{apply, Relabeling};
use bc_graph::stats::{gather_lines, hub_adjacency_ranges};
use bc_graph::{gen, Csr, CsrIndex, DatasetId};
use bc_metrics::{ServeRow, WorkerMetrics};
use bc_serve::{percentile, BcServer, ClosedLoop, Event, QueryMix, ServeConfig};
use bc_verify::serve_stream;
use std::time::Instant;

type Section = fn(bool) -> Vec<Table>;

const SECTIONS: [(&str, Section); 8] = [
    ("trajectory", trajectory),
    ("direction", direction),
    ("faults", faults),
    ("metrics", metrics),
    ("schedule", schedule),
    ("scale", scale),
    ("durability", durability),
    ("serve", serve),
];

fn main() {
    let mut quick = false;
    let mut chosen = Vec::new();
    for arg in std::env::args().skip(1) {
        match SECTIONS.iter().find(|(name, _)| *name == arg) {
            Some(&section) => chosen.push(section),
            None if arg == "--quick" => quick = true,
            None => {
                let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
                eprintln!("usage: sweep [--quick] [{}]...", names.join("|"));
                std::process::exit(2);
            }
        }
    }
    let every = chosen.is_empty();
    if every {
        chosen = SECTIONS.to_vec();
    }
    let mut tables = Vec::new();
    for (name, run) in chosen {
        let t = Instant::now();
        for table in run(quick) {
            table.print();
            tables.push(table);
        }
        eprintln!("-- {name}: {:.1} s wall", t.elapsed().as_secs_f64());
    }
    if every {
        let stem = if quick {
            "BENCH_sweep_quick"
        } else {
            "BENCH_sweep"
        };
        write_results(stem, &Header::new(SEED, quick), &tables);
    }
}

/// Host threads of the parallel arm in `trajectory`.
const THREADS: usize = 2;

/// Host wall clock of the multi-root runner at 1 and [`THREADS`]
/// threads; the simulated numbers are thread-invariant.
fn trajectory(quick: bool) -> Vec<Table> {
    let roots = if quick { 8 } else { 96 };
    let graphs = [
        ("smallworld", gen::watts_strogatz(50_000, 10, 0.1, SEED)),
        ("mesh", gen::triangulated_grid(200, 250, SEED)),
        ("road", gen::road_network(50_000, SEED)),
        ("kron", gen::kronecker(15, 8, SEED)),
    ];
    let mut rows = Vec::new();
    for (graph, g) in &graphs {
        for method in [
            Method::WorkEfficient,
            Method::Hybrid(HybridParams::default()),
        ] {
            for threads in [1, THREADS] {
                let opts = BcOptions {
                    roots: RootSelection::Strided(roots),
                    threads,
                    ..Default::default()
                };
                let t = Instant::now();
                let run = method.run(g, &opts).expect("fits in device memory");
                rows.push(row! {
                    graph, n: g.num_vertices(), m: g.num_undirected_edges(),
                    method: method.name(), threads,
                    simulated_seconds: run.report.full_seconds,
                    mteps: run.report.mteps(),
                    host_wall_seconds: t.elapsed().as_secs_f64(),
                });
            }
        }
    }
    vec![Table::new("trajectory", rows)]
}

/// Push vs bottom-up pull vs direction-optimizing auto forward sweeps.
/// Full scale straddles the simulated L2 (push's 12n-byte working set
/// spills, pull's 4n fits — DESIGN.md §10); the quick graphs fit in
/// L2, where pull has nothing to win.
fn direction(quick: bool) -> Vec<Table> {
    let (roots, [ws, ba, road, mesh_rows, mesh_cols]) = if quick {
        (4, [16_000, 15_000, 10_000, 100, 100])
    } else {
        (8, [350_000, 300_000, 200_000, 400, 500])
    };
    // Preferential attachment rather than Kronecker for scale-free:
    // its n is freely tunable into the L2 window.
    let graphs = [
        ("smallworld", gen::watts_strogatz(ws, 16, 0.1, SEED)),
        ("scalefree", gen::barabasi_albert(ba, 12, SEED)),
        ("road", gen::road_network(road, SEED)),
        ("mesh", gen::triangulated_grid(mesh_rows, mesh_cols, SEED)),
    ];
    let mut rows = Vec::new();
    for (graph, g) in &graphs {
        let run = |traversal| {
            let opts = BcOptions {
                roots: RootSelection::Strided(roots),
                traversal,
                ..Default::default()
            };
            let run = Method::WorkEfficient.run(g, &opts);
            run.expect("fits in device memory").report
        };
        let push = run(TraversalMode::Push).full_seconds;
        let pull = run(TraversalMode::Pull).full_seconds;
        let auto = run(TraversalMode::Auto);
        rows.push(row! {
            graph, n: g.num_vertices(), m: g.num_undirected_edges(),
            push_seconds: push, pull_seconds: pull, auto_seconds: auto.full_seconds,
            auto_speedup: push / auto.full_seconds,
            pull_speedup: push / pull,
            // (push, bottom-up) forward launches of the auto run.
            auto_launches: auto.traversal_iterations.expect("auto is direction-aware"),
        });
    }
    vec![Table::new("direction", rows)]
}

/// What fault tolerance costs: the cluster under one seeded plan per
/// injection mechanism plus the combined worst case, priced against
/// the fault-free run (the checksum column shows the scores held).
fn faults(quick: bool) -> Vec<Table> {
    let (scale, nodes, k) = if quick { (12, 2, 48) } else { (15, 4, 192) };
    // (name, seed salt, `--faults` spec)
    let plans = [
        ("transient-10pct", 0, "transient=0.1"),
        ("transient-30pct", 0x11, "transient=0.3,oom=0.05"),
        ("panics-10pct", 0x24, "panic=0.1"),
        ("one-gpu-dies", 0x33, "dead=1,death_fraction=0.3"),
        ("straggler-4x", 0x44, "straggle=0,slowdown=4"),
        ("lossy-reduce", 0x56, "drop=0.3,corrupt=0.15"),
        (
            "everything",
            0x66,
            "transient=0.15,oom=0.05,panic=0.05,dead=2,death_fraction=0.5,\
             straggle=0,slowdown=2,drop=0.2,corrupt=0.1",
        ),
    ];
    let graphs = [
        (format!("rmat-2^{scale}"), gen::kronecker(scale, 8, SEED)),
        (
            format!("ws-2^{scale}"),
            gen::watts_strogatz(1usize << scale, 6, 0.1, SEED),
        ),
    ];
    let cfg = ClusterConfig::keeneland(nodes);
    let mut rows = Vec::new();
    for (graph, g) in &graphs {
        let clean = run_cluster_with_faults(g, &cfg, k, &FaultPlan::none());
        let clean = clean.expect("fault-free run").report.total_seconds;
        for (plan, salt, spec) in plans {
            let faults = FaultPlan::parse(&format!("seed={},{spec}", SEED ^ salt));
            let faults = faults.expect("valid fault spec");
            let run = run_cluster_with_faults(g, &cfg, k, &faults).expect("recoverable plan");
            let (f, total) = (&run.report.faults, run.report.total_seconds);
            rows.push(row! {
                plan, graph, nodes, roots: k,
                clean_seconds: clean, faulted_seconds: total,
                overhead_seconds: total - clean,
                overhead_pct: 100.0 * (total - clean) / clean,
                transient_faults: f.transient_faults, oom_faults: f.oom_faults,
                panics_contained: f.panics_contained, retries: f.retries,
                dead_gpus: f.dead_gpus, reassigned_roots: f.reassigned_roots,
                straggler_gpus: f.straggler_gpus, reduce_drops: f.reduce_drops,
                reduce_corruptions: f.reduce_corruptions,
                checksum: format!("{:#018x}", run.report.checksum),
            });
        }
    }
    vec![Table::new("faults", rows)]
}

/// The metrics layer's counters per (dataset, method) over the
/// dataset battery. The raw per-root stream is `hybrid-bc --metrics`.
fn metrics(quick: bool) -> Vec<Table> {
    let (reduction, k, datasets) = if quick {
        (8, 8, &DatasetId::ALL[..3])
    } else {
        (6, 32, &DatasetId::ALL[..])
    };
    let mut rows = Vec::new();
    for d in datasets {
        let g = d.generate(reduction, SEED);
        let n = g.num_vertices();
        for (method, m) in [
            ("work-efficient", Method::WorkEfficient),
            ("hybrid", Method::Hybrid(Default::default())),
            ("sampling", Method::Sampling(scaled_sampling(n, k))),
        ] {
            let opts = BcOptions {
                roots: RootSelection::Strided(k),
                ..BcOptions::default()
            };
            let (run, metrics) = m.run_metered(&g, &opts).expect("fits in memory");
            let (s, hw) = (&metrics.summary, &metrics.summary.hardware);
            let win_rate = if s.cas_attempts > 0 {
                s.cas_wins as f64 / s.cas_attempts as f64
            } else {
                0.0
            };
            rows.push(row! {
                dataset: d.name(), method, roots: run.report.roots_processed,
                levels: s.levels, max_frontier: s.max_frontier,
                edges_inspected: s.edges_inspected,
                cas_attempts: s.cas_attempts, cas_wins: s.cas_wins, cas_win_rate: win_rate,
                priced_atomics: s.priced_atomics,
                push_levels: s.push_levels, pull_levels: s.pull_levels,
                switches_to_pull: s.switches_to_pull, switches_to_push: s.switches_to_push,
                kernel_launches: hw.kernel_launches, warp_efficiency: hw.warp_efficiency,
                memory_transactions: hw.memory_transactions,
                simulated_seconds: run.report.full_seconds,
            });
        }
    }
    vec![Table::new("metrics", rows)]
}

/// Disjoint union: `a` keeps its ids, `b` is shifted past it.
fn union_graph(a: &Csr, b: &Csr) -> Csr {
    let edges = |g: &Csr, shift: u32| -> Vec<(u32, u32)> {
        g.vertices()
            .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
            .map(|(u, v)| (u + shift, v + shift))
            .collect()
    };
    let mut all = edges(a, 0);
    all.extend(edges(b, a.num_vertices() as u32));
    Csr::from_undirected_edges(a.num_vertices() + b.num_vertices(), all)
}

/// The root schedules on a skewed mix: a road component (deep,
/// expensive roots) unioned with a small-world one (cheap roots),
/// road roots first so the static block layout piles the expensive
/// shards onto the first workers. The balance signal that holds on an
/// oversubscribed host is the busiest worker's simulated makespan
/// (its summed per-root seconds over the shards it claimed at run
/// time, so a `host_*` field too).
fn schedule(quick: bool) -> Vec<Table> {
    let (reps, road_n, sw_n, road_k, sw_k, thread_counts): (_, usize, usize, usize, usize, &[_]) =
        if quick {
            (1, 6144, 2048, 16, 48, &[1, 4])
        } else {
            (3, 49152, 16384, 64, 192, &[1, 2, 4, 8])
        };
    let road = gen::road_network(road_n, SEED);
    let blob = gen::watts_strogatz(sw_n, 8, 0.1, SEED);
    let g = union_graph(&road, &blob);
    let (rn, bn) = (road.num_vertices(), blob.num_vertices());
    let roots: Vec<u32> = (0..road_k)
        .map(|i| (i * rn / road_k) as u32)
        .chain((0..sw_k).map(|i| (rn + i * bn / sw_k) as u32))
        .collect();
    let device = BcOptions::default().device;

    let mut rows = Vec::new();
    let mut static_wall = vec![0.0f64; thread_counts.len()];
    for schedule in Schedule::ALL {
        for (ti, &threads) in thread_counts.iter().enumerate() {
            let model = WorkEfficientModel::default;
            let mut wall = f64::INFINITY;
            for _ in 0..reps {
                let t = Instant::now();
                run_roots_scheduled(&g, &device, &roots, threads, schedule, &mut model())
                    .expect("fits in memory");
                wall = wall.min(t.elapsed().as_secs_f64());
            }
            if schedule == Schedule::Static {
                static_wall[ti] = wall;
            }
            // Worker counters come from a separate metered replay so
            // the instrumentation never taints the timed runs.
            let (run, _, workers) =
                run_roots_scheduled_metered(&g, &device, &roots, threads, schedule, &mut model())
                    .expect("fits in memory");
            let size = workers.first().map_or(1, |w| w.shard_size as usize).max(1);
            let shard_seconds = |s: &u32| -> f64 {
                let lo = *s as usize * size;
                run.per_root_seconds[lo..(lo + size).min(roots.len())]
                    .iter()
                    .sum()
            };
            let max = |f: &dyn Fn(&WorkerMetrics) -> f64| workers.iter().map(f).fold(0.0, f64::max);
            let sum = |f: fn(&WorkerMetrics) -> u64| workers.iter().map(f).sum::<u64>();
            rows.push(row! {
                schedule: schedule.name(), threads,
                host_wall_seconds: wall,
                host_speedup_vs_static: static_wall[ti] / wall,
                host_steals: sum(|w| w.steals),
                host_failed_steal_attempts: sum(|w| w.failed_steal_attempts),
                host_max_idle_seconds: max(&|w| w.idle_seconds),
                host_max_busy_seconds: max(&|w| w.busy_seconds),
                host_sim_makespan_seconds: max(&|w| w.shards.iter().map(shard_seconds).sum()),
            });
        }
    }

    // The same cost planning feeds the cluster's per-GPU assignment.
    let mut cluster = Vec::new();
    for schedule in Schedule::ALL {
        let cfg = ClusterConfig {
            method: Method::WorkEfficient,
            schedule,
            ..ClusterConfig::keeneland(2)
        };
        let run = run_cluster(&g, &cfg, roots.len().min(96)).expect("fits in memory");
        let gpu = &run.report.gpu_seconds;
        cluster.push(row! {
            schedule: schedule.name(), nodes: 2, total_seconds: run.report.total_seconds,
            // Busiest minus idlest GPU.
            gpu_seconds_spread: gpu.iter().fold(0.0f64, |a, &b| a.max(b))
                - gpu.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        });
    }
    vec![
        Table::new("schedule", rows),
        Table::new("schedule_cluster", cluster),
    ]
}

/// The scaling layer: degree relabeling's transaction counts, the
/// u32-vs-u64 index traffic, and a ≥ 2M-vertex Kronecker graph that
/// only the partitioned cluster path can run.
fn scale(quick: bool) -> Vec<Table> {
    let (kron_scale, ba_n, roots, part_scale, part_roots) = if quick {
        (15, 40_000, 12, 21, 3)
    } else {
        (18, 200_000, 24, 22, 6)
    };
    let kron_name = format!("kronecker-{kron_scale}");
    let kron = gen::kronecker(kron_scale, 8, SEED);
    let ba = gen::barabasi_albert(ba_n, 8, SEED ^ 1);
    let hubs = |h: &Csr| {
        let ranges = hub_adjacency_ranges(h, 512.min(h.num_vertices()));
        distinct_line_transactions(ranges, 128)
    };
    let relabel = [(kron_name.as_str(), &kron), ("barabasi-albert", &ba)]
        .into_iter()
        .map(|(graph, g)| {
            let r = apply(g, Relabeling::DegreeDesc).graph;
            row! {
                graph, vertices: g.num_vertices(), edges: g.num_undirected_edges(),
                gather_lines_none: gather_lines(g, 32),
                gather_lines_degree: gather_lines(&r, 32),
                hub_transactions_none: hubs(g),
                hub_transactions_degree: hubs(&r),
            }
        })
        .collect();

    let opts = BcOptions {
        roots: RootSelection::Strided(roots),
        ..Default::default()
    };
    let narrow = Method::WorkEfficient
        .run(&kron, &opts)
        .expect("u32 run")
        .report;
    let wide = kron.clone().with_index_width(CsrIndex::U64);
    let wide = Method::WorkEfficient
        .run(&wide, &opts)
        .expect("u64 run")
        .report;
    let width = row! {
        graph: kron_name, vertices: kron.num_vertices(), edges: kron.num_undirected_edges(),
        narrow_coalesced_bytes: narrow.counters.coalesced_bytes,
        wide_coalesced_bytes: wide.counters.coalesced_bytes,
        narrow_seconds: narrow.device_seconds,
        wide_seconds: wide.device_seconds,
    };

    // ≥ 2M vertices in both modes (scale 21 = 2,097,152) on a device
    // sized to the locals plus a quarter of the CSR.
    let g = gen::kronecker(part_scale, 8, SEED);
    assert!(g.num_vertices() >= 2_000_000);
    let method = Method::WorkEfficient;
    let base = DeviceConfig::gtx_titan();
    let graph_bytes = footprint::graph_bytes(&g);
    let local_bytes = method.local_bytes(&g, &base);
    let device = DeviceConfig {
        global_mem_bytes: local_bytes + graph_bytes / 4,
        ..base
    };
    let resident = BcOptions {
        device: device.clone(),
        roots: RootSelection::FirstK(1),
        partition: PartitionMode::Off,
        ..Default::default()
    };
    assert!(
        matches!(method.run(&g, &resident), Err(SimError::OutOfMemory { .. })),
        "the resident pre-flight must reject this graph/device pair"
    );
    let slices = PartitionPlan::plan(&g, graph_bytes / 4).expect("the CSR is sliceable");
    let cfg = ClusterConfig {
        nodes: 1,
        gpus_per_node: 3,
        device,
        method,
        traversal: TraversalMode::Push,
        ..ClusterConfig::keeneland(1)
    };
    let clean = run_cluster(&g, &cfg, part_roots).expect("partitioned cluster run");
    let plan = FaultPlan {
        transient_rate: 0.2,
        oom_rate: 0.05,
        panic_rate: 0.1,
        seed: SEED ^ 0x5ca1e,
        ..FaultPlan::none()
    };
    let faulted = run_cluster_with_faults(&g, &cfg, part_roots, &plan)
        .expect("recoverable faults must not kill the run");
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(&clean.scores) == bits(&faulted.scores),
        "partitioned scores must be bitwise identical under recoverable faults"
    );
    let partition = row! {
        graph: format!("kronecker-{part_scale}-8"),
        vertices: g.num_vertices(), edges: g.num_undirected_edges(),
        device_mem_bytes: cfg.device.global_mem_bytes, graph_bytes, local_bytes,
        slices: slices.num_slices(),
        fault_free_seconds: clean.report.total_seconds,
        faulted_seconds: faulted.report.total_seconds,
    };
    vec![
        Table::new("scale_relabel", relabel),
        Table::new("scale_width", vec![width]),
        Table::new("scale_partition", vec![partition]),
    ]
}

/// The durability layer: a checkpointed cluster run killed at k% of
/// its schedule and resumed, and both rungs of the degradation
/// ladder.
fn durability(quick: bool) -> Vec<Table> {
    let (scale, k, ladder_roots, side) = if quick {
        (11, 32, 4, 256)
    } else {
        (14, 96, 8, 320)
    };
    let g = gen::kronecker(scale, 8, SEED);
    let graph = format!("rmat-2^{scale}");
    let cfg = ClusterConfig::keeneland(2);
    // Recoverable background noise, so checkpointing is priced under
    // realistic conditions.
    let overlay = FaultPlan {
        transient_rate: 0.1,
        seed: SEED ^ 0xd0_0d,
        ..FaultPlan::none()
    };
    let full = run_cluster_durable(&g, &cfg, k, &overlay, &DurabilityOptions::default());
    let full = full.expect("uninterrupted run").report.total_seconds;
    let mut kills = Vec::new();
    for kill_pct in [10u32, 30, 50, 70, 90] {
        let dir = std::env::temp_dir().join(format!(
            "bc-bench-durability-{}-kill{kill_pct}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions {
            checkpoint: Some(dir.clone()),
            ..DurabilityOptions::default()
        };
        let kill_plan = FaultPlan {
            kill_fraction: Some(f64::from(kill_pct) / 100.0),
            ..overlay.clone()
        };
        let completed_at_kill = match run_cluster_durable(&g, &cfg, k, &kill_plan, &opts) {
            Err(ClusterError::ProcessKilled {
                completed_roots, ..
            }) => completed_roots,
            other => panic!("kill at {kill_pct}%: expected ProcessKilled, got {other:?}"),
        };
        // A restart after the kill: same configuration and directory.
        let resumed = run_cluster_durable(&g, &cfg, k, &overlay, &opts).expect("resume completes");
        let _ = std::fs::remove_dir_all(&dir);
        kills.push(row! {
            graph, kill_pct, planned_roots: k, completed_at_kill,
            resumed_roots: resumed.report.roots_sampled,
            full_seconds: full, resume_seconds: resumed.report.total_seconds,
            // Share of root work the checkpoint made unnecessary.
            resume_savings_pct: 100.0 * completed_at_kill as f64 / k as f64,
            checksum: format!("{:#018x}", resumed.report.checksum),
        });
    }

    let degrade = DurabilityOptions {
        degrade: true,
        ..DurabilityOptions::default()
    };
    let none = FaultPlan::none();
    // Rung 1: device memory a quarter of the CSR beside the locals.
    let method = Method::WorkEfficient;
    let base = DeviceConfig::tesla_m2090();
    let squeezed = ClusterConfig {
        method: method.clone(),
        device: DeviceConfig {
            global_mem_bytes: method.local_bytes(&g, &base) + footprint::graph_bytes(&g) / 4,
            ..base
        },
        ..ClusterConfig::keeneland(1)
    };
    let rescued = run_cluster_durable(&g, &squeezed, ladder_roots, &none, &degrade)
        .expect("the ladder completes the squeezed run");
    let Some(Degradation::Partitioned { slices }) = rescued.report.degradation else {
        panic!("expected the partitioned rung");
    };
    // Rung 2: GPU-FAN's O(n²) locals, which no graph partitioning can
    // fit; the sampled fallback completes.
    let fan = ClusterConfig {
        method: Method::GpuFan,
        ..ClusterConfig::keeneland(1)
    };
    let sampled = run_cluster_durable(&gen::grid(side, side), &fan, ladder_roots, &none, &degrade)
        .expect("the sampled rung completes");
    let Some(Degradation::Sampled {
        method: sampled_method,
        sources,
        error_bound,
    }) = sampled.report.degradation
    else {
        panic!("expected the sampled rung");
    };
    let ladder = vec![
        row! {
            graph, method: method.name(), rung: "partitioned", slices,
            sources: 0, error_bound: 0.0, total_seconds: rescued.report.total_seconds,
        },
        row! {
            graph: format!("grid-{side}x{side}"), method: sampled_method, rung: "sampled",
            slices: 0, sources, error_bound, total_seconds: sampled.report.total_seconds,
        },
    ];
    vec![
        Table::new("durability_kill", kills),
        Table::new("durability_ladder", ladder),
    ]
}

/// The batched query server under seeded open- and closed-loop load,
/// and the priced cost of the same open-loop stream with no batching
/// window and no cache. The raw serve rows are `bc-serve --metrics`.
fn serve(quick: bool) -> Vec<Table> {
    use DatasetId::{CaidaRouterLevel, DelaunayN20, Smallworld};
    let (reduction, requests, edits, clients, datasets): (_, usize, _, usize, &[_]) = if quick {
        (9, 10, 2, 2, &[Smallworld])
    } else {
        (7, 40, 4, 4, &[Smallworld, CaidaRouterLevel, DelaunayN20])
    };
    let priced = |rows: &[ServeRow]| -> f64 {
        rows.iter()
            .filter(|r| r.event == "batch")
            .map(|r| r.priced_seconds)
            .sum()
    };
    let batched = ServeConfig {
        window: 0.02,
        ..ServeConfig::default()
    };
    let unbatched = ServeConfig {
        window: 0.0,
        cache_budget_bytes: 0,
        ..ServeConfig::default()
    };
    let mut workloads = Vec::new();
    let mut batching = Vec::new();
    for &id in datasets {
        let g = id.generate(reduction, SEED);
        let dataset = id.name();
        let row = |mode: &str, requests, edits, server: &BcServer, rows: &[ServeRow], lat, wall| {
            let stats = server.cache_stats();
            row! {
                dataset, mode, vertices: g.num_vertices(), requests, edits,
                batches: rows.iter().filter(|r| r.event == "batch").count(),
                window_seconds: batched.window,
                p50_seconds: percentile(lat, 50.0),
                p95_seconds: percentile(lat, 95.0),
                p99_seconds: percentile(lat, 99.0),
                cache_hits: stats.hits, cache_misses: stats.misses,
                cache_evictions: stats.evictions,
                cache_hit_rate: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
                // Roots dropped by edits' delta invalidation, roots
                // carried across epochs (provably untouched by the
                // edit), and edits that fell back to full invalidation.
                invalidated_roots: rows.iter().map(|r| r.invalidated_roots).sum::<u64>(),
                carried_roots: rows.iter().map(|r| r.carried_roots).sum::<u64>(),
                full_invalidations: rows.iter().filter(|r| r.full_invalidation).count(),
                priced_seconds_total: priced(rows),
                host_wall_seconds: wall,
            }
        };

        // Open loop: a Poisson stream with interleaved edge edits.
        let events = serve_stream(&g, requests, edits, SEED);
        let queries = events
            .iter()
            .filter(|e| matches!(e, Event::Query(_)))
            .count();
        let t = Instant::now();
        let mut server = BcServer::single(g.clone(), batched.clone());
        let out = server.run(events.clone()).expect("batched serving run");
        let wall = t.elapsed().as_secs_f64();
        let latencies: Vec<f64> = out.responses.iter().map(|r| r.latency).collect();
        workloads.push(row(
            "open", queries, edits, &server, &out.rows, &latencies, wall,
        ));

        let base = BcServer::single(g.clone(), unbatched.clone()).run(events);
        let (b, u) = (
            priced(&out.rows),
            priced(&base.expect("unbatched run").rows),
        );
        batching.push(row! {
            dataset, requests: queries,
            batched_priced_seconds: b, unbatched_priced_seconds: u,
            // > 1 is a win.
            batching_gain: u / b,
        });

        // Closed loop: think-time throttled clients, no edits.
        let mix = QueryMix::for_graph(g.num_vertices());
        let per_client = requests.div_ceil(clients);
        let mut driver = ClosedLoop::new("default", mix, clients, per_client, 10.0, SEED);
        let t = Instant::now();
        let mut server = BcServer::single(g.clone(), batched.clone());
        let mut latencies = Vec::new();
        while !driver.done() {
            let out = server.run(driver.next_wave()).expect("closed-loop wave");
            latencies.extend(out.responses.iter().map(|r| r.latency));
            let done: Vec<(u64, f64)> = out.responses.iter().map(|r| (r.id, r.completed)).collect();
            driver.record_completions(&done);
        }
        let wall = t.elapsed().as_secs_f64();
        let rows = server.rows();
        workloads.push(row(
            "closed",
            latencies.len(),
            0,
            &server,
            rows,
            &latencies,
            wall,
        ));
    }
    vec![
        Table::new("serve_workloads", workloads),
        Table::new("serve_batching", batching),
    ]
}
