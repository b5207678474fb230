//! The experiment sweeps, one section each: the paper's tables and
//! figures (EXPERIMENTS.md E-tab1 through E-ablate), then the
//! experiments beyond the paper's evaluation (E-trajectory through
//! E-serve).
//!
//! ```text
//! cargo run -p bc-bench --release --bin sweep -- [--quick] [SECTION ...]
//! ```
//!
//! Sections: `table1`, `table2`, `table3`, `table4`, `fig2`, `fig3`,
//! `fig4`, `fig5`, `fig6`, `ablations`, `trajectory`, `direction`,
//! `faults`, `metrics`, `schedule`, `scale`, `durability`, `serve`.
//! Each prints its tables; with no section named, every one runs and
//! the rows are written to `results/BENCH_sweep.json`
//! (`results/BENCH_sweep_quick.json` under `--quick`, the smaller CI
//! scale) after the common header. The paper's published values sit
//! beside the measured ones in `paper_*` fields. A field whose value
//! depends on the host run (wall clock, worker timing, steals) is
//! named `host_*`; every other field is a function of the code and
//! the seed alone, and `ci.sh` compares the quick file's lines
//! bitwise.
//!
//! The sweeps report; they do not re-check what the test suite and
//! `bc-verify` already check (bitwise equality across threads,
//! traversal modes, metering, schedules, faults, relabeling, resume
//! and serving). The one exception is the ≥ 2M-vertex partitioned
//! run in `scale`, too large for tier-1: it asserts the resident
//! pre-flight fails with `OutOfMemory` and the partitioned scores are
//! bitwise identical under a recoverable fault plan.

use bc_bench::{
    row, scaled_sampling, write_results, Header, Serialize, Table, Value, DEFAULT_SEED as SEED,
};
use bc_cluster::{
    run_cluster, run_cluster_durable, run_cluster_with_faults, strong_scaling, ClusterConfig,
    ClusterError, DurabilityOptions, FaultPlan,
};
use bc_core::engine::{process_root, FreeModel, SearchWorkspace};
use bc_core::methods::cost::{footprint, PredecessorStorage, QueueAppend, WorkEfficientConfig};
use bc_core::methods::models::WorkEfficientModel;
use bc_core::{
    frontier, run_roots_scheduled, run_roots_scheduled_metered, run_with_cost_model, teps,
    BcOptions, Degradation, HybridParams, Method, PartitionMode, PartitionPlan, RootSelection,
    SamplingParams, Schedule, TraversalMode,
};
use bc_gpusim::{coarse_grained_makespan, distinct_line_transactions, DeviceConfig, SimError};
use bc_graph::relabel::{apply, Relabeling};
use bc_graph::stats::{gather_lines, hub_adjacency_ranges};
use bc_graph::{gen, Csr, CsrIndex, DatasetId, GraphStats};
use bc_metrics::{ServeRow, WorkerMetrics};
use bc_serve::{percentile, BcServer, ClosedLoop, Event, QueryMix, ServeConfig};
use bc_verify::serve_stream;
use std::time::Instant;

type Section = fn(bool) -> Vec<Table>;

const SECTIONS: [(&str, Section); 18] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("ablations", ablations),
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

/// Table I's and Fig. 3's graph classes.
const FRONTIER_CLASSES: [DatasetId; 5] = [
    DatasetId::RggN2_20,
    DatasetId::DelaunayN20,
    DatasetId::KronG500Logn20,
    DatasetId::LuxembourgOsm,
    DatasetId::Smallworld,
];

/// The paper's Table I and Fig. 3 roots {0, 2121, 6004}, mapped
/// proportionally into the analogue's id range.
fn paper_roots(d: DatasetId, g: &Csr) -> [u32; 3] {
    let (n, paper_n) = (g.num_vertices() as u64, d.paper_row().vertices);
    [0, 2121, 6004].map(|r: u64| ((r * n) / paper_n.max(1)).min(n.saturating_sub(1)) as u32)
}

/// Table I: correlation of the vertex (ρ_vt) and edge (ρ_et)
/// frontier sizes with per-iteration time, three roots per class.
/// The `paper_*` pairs are the published range over the paper's three
/// roots.
fn table1(quick: bool) -> Vec<Table> {
    let reduction = if quick { 5 } else { 3 };
    let device = DeviceConfig::gtx_titan();
    let mut rows = Vec::new();
    for d in FRONTIER_CLASSES {
        let g = d.generate(reduction, SEED);
        let (paper_rho_vt, paper_rho_et) = match d {
            DatasetId::RggN2_20 => ([0.950, 0.981], [0.950, 0.980]),
            DatasetId::DelaunayN20 => ([0.990, 0.995], [0.990, 0.995]),
            DatasetId::KronG500Logn20 => ([0.704, 0.936], [-0.10, 0.20]),
            DatasetId::LuxembourgOsm => ([0.885, 0.910], [0.883, 0.907]),
            DatasetId::Smallworld => ([0.967, 0.995], [0.970, 0.998]),
            d => unreachable!("{} is not a Table I graph", d.name()),
        };
        for root in paper_roots(d, &g) {
            let t = frontier::trace_root(&g, root, &device);
            rows.push(row! {
                dataset: d.name(), root,
                rho_vt: t.rho_vt(), paper_rho_vt, rho_et: t.rho_et(), paper_rho_et,
            });
        }
    }
    vec![Table::new("table1", rows)]
}

/// Table II: the dataset analogues' statistics beside the published
/// full-scale rows (diameters by the 6-sweep BFS estimate).
fn table2(quick: bool) -> Vec<Table> {
    let reduction = if quick { 5 } else { 0 };
    let rows = DatasetId::ALL
        .into_iter()
        .map(|d| {
            let p = d.paper_row();
            let s = GraphStats::compute_with_limit(&d.generate(reduction, SEED), 0);
            row! {
                dataset: d.name(), reduction,
                vertices: s.vertices, paper_vertices: p.vertices,
                edges: s.edges, paper_edges: p.edges,
                max_degree: s.max_degree, paper_max_degree: p.max_degree,
                diameter: s.diameter, paper_diameter: p.diameter,
                avg_degree: s.avg_degree, diameter_exact: s.diameter_exact,
                components: s.components, isolated: s.isolated,
                largest_component_frac: s.largest_component_frac,
                description: p.description,
            }
        })
        .collect();
    vec![Table::new("table2", rows)]
}

/// Table III: MTEPS of the edge-parallel baseline and the sampling
/// method on the eight mid-size graphs, with the geometric-mean
/// speedup (the paper's headline 2.71×) as the last row.
///
/// Both methods run the `k` strided roots whose path counts σ fit in
/// an `f64` (see [`sigma_fitting_roots`]). A row that had to leave
/// roots out names how many in a last `sigma_overflow_roots` field;
/// at full scale that is af_shell9 alone, 18 of its 64 roots.
fn table3(quick: bool) -> Vec<Table> {
    let (reduction, k) = if quick { (4, 16) } else { (0, 64) };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for d in DatasetId::TABLE3 {
        let g = d.generate(reduction, SEED);
        let strided = RootSelection::Strided(k).resolve(g.num_vertices());
        let (roots, left_out) = sigma_fitting_roots(&g, strided);
        let sampling = scaled_sampling(g.num_vertices(), roots.len());
        let opts = BcOptions {
            roots: RootSelection::Explicit(roots),
            ..Default::default()
        };
        let ep = Method::EdgeParallel.run(&g, &opts);
        let ep = ep.expect("edge-parallel fits").report;
        let samp = Method::Sampling(sampling).run(&g, &opts);
        let samp = samp.expect("sampling fits").report;
        let speedup = ep.full_seconds / samp.full_seconds;
        speedups.push(speedup);
        let [paper_edge_parallel_mteps, paper_sampling_mteps, paper_speedup] = match d {
            DatasetId::AfShell9 => [18.00, 239.66, 13.31],
            DatasetId::CaidaRouterLevel => [180.98, 182.21, 1.01],
            DatasetId::Cnr2000 => [141.75, 220.64, 1.56],
            DatasetId::ComAmazon => [109.72, 127.79, 1.16],
            DatasetId::DelaunayN20 => [14.19, 145.09, 10.23],
            DatasetId::LocGowalla => [209.56, 219.31, 1.05],
            DatasetId::LuxembourgOsm => [4.74, 39.42, 8.31],
            DatasetId::Smallworld => [297.48, 398.63, 1.34],
            d => unreachable!("{} is not a Table III graph", d.name()),
        };
        let mut row = row! {
            dataset: d.name(), speedup, paper_speedup,
            edge_parallel_mteps: ep.mteps(), paper_edge_parallel_mteps,
            sampling_mteps: samp.mteps(), paper_sampling_mteps,
            vertices: g.num_vertices(), edges: g.num_undirected_edges(),
            edge_parallel_seconds: ep.full_seconds, sampling_seconds: samp.full_seconds,
        };
        if let (Value::Object(fields), 1..) = (&mut row, left_out) {
            fields.push(("sigma_overflow_roots".to_string(), left_out.to_value()));
        }
        rows.push(row);
    }
    rows.push(row! {
        dataset: "geomean", speedup: teps::geometric_mean(&speedups), paper_speedup: 2.71,
    });
    vec![Table::new("table3", rows)]
}

/// The roots of `roots` whose path counts σ stay finite in an `f64`,
/// and how many were left out. An engine-backed run over a root whose
/// σ overflows returns `SimError::PathCountOverflow`: the count grows
/// exponentially with depth on a wide-stencil mesh, and on af_shell9
/// at full scale a root on the sheet's short edges passes `f64::MAX`
/// near depth 442 of the ~502 to the far edge. One free engine pass
/// per root finds them.
fn sigma_fitting_roots(g: &Csr, roots: Vec<u32>) -> (Vec<u32>, usize) {
    let device = DeviceConfig::gtx_titan();
    let mut ws = SearchWorkspace::new(g.num_vertices());
    let mut bc = vec![0.0; g.num_vertices()];
    let asked = roots.len();
    let fit: Vec<u32> = roots
        .into_iter()
        .filter(|&r| {
            let out = process_root(g, r, &device, &mut ws, &mut FreeModel, &mut bc);
            out.check(r).is_ok()
        })
        .collect();
    let left_out = asked - fit.len();
    (fit, left_out)
}

/// Table IV: 64-node (192-GPU) GTEPS of the three scaling families,
/// the speedup over one node, and the GTEPS with isolated vertices
/// discounted (§V-D: they inflate Kronecker's raw figure).
fn table4(quick: bool) -> Vec<Table> {
    let (reduction, k) = if quick { (6, 24) } else { (2, 96) };
    let paper = [
        (DatasetId::RggN2_20, 8.25, 63.34),
        (DatasetId::DelaunayN20, 9.37, 63.24),
        (DatasetId::KronG500Logn20, 24.13, 63.75),
    ];
    let rows = paper
        .into_iter()
        .map(|(d, paper_gteps, paper_speedup)| {
            let g = d.generate(reduction, SEED);
            let run = |nodes| run_cluster(&g, &ClusterConfig::keeneland(nodes), k);
            let one = run(1).expect("1-node run fits").report;
            let all = run(64).expect("64-node run fits").report;
            let isolated = g.num_isolated();
            let (m, n) = (g.num_undirected_edges(), g.num_vertices() as u64);
            row! {
                dataset: d.name(),
                gteps_64: all.gteps(), paper_gteps,
                speedup_over_1_node: one.total_seconds / all.total_seconds, paper_speedup,
                gteps_adjusted:
                    teps::teps_bc_adjusted(m, n, isolated as u64, all.total_seconds) / 1e9,
                isolated_vertices: isolated,
            }
        })
        .collect();
    vec![Table::new("table4", rows)]
}

/// Fig. 2: useful and wasted work of one search (root 0) under the
/// vertex-parallel, edge-parallel and work-efficient thread-to-work
/// assignments.
fn fig2(quick: bool) -> Vec<Table> {
    use DatasetId::{KronG500Logn20, LuxembourgOsm, Smallworld};
    let reduction = if quick { 7 } else { 5 };
    let opts = BcOptions {
        roots: RootSelection::Explicit(vec![0]),
        ..Default::default()
    };
    let mut rows = Vec::new();
    for d in [LuxembourgOsm, KronG500Logn20, Smallworld] {
        let g = d.generate(reduction, SEED);
        for m in [
            Method::VertexParallel,
            Method::EdgeParallel,
            Method::WorkEfficient,
        ] {
            let c = m.run(&g, &opts).expect("fits").report.counters;
            rows.push(row! {
                dataset: d.name(), method: m.name(),
                useful_edge_inspections: c.useful_edge_inspections,
                wasted_edge_inspections: c.wasted_edge_inspections,
                wasted_vertex_checks: c.wasted_vertex_checks,
                warp_steps: c.warp_steps, work_efficiency: c.work_efficiency(),
            });
        }
    }
    vec![Table::new("fig2", rows)]
}

/// `series` as at most 64 bars of eight heights, each bar the maximum
/// of its share of the series relative to `max`.
fn sparkline(series: &[f64], max: f64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let cols = series.len().min(64);
    (0..cols)
        .map(|c| {
            let lo = c * series.len() / cols;
            let hi = ((c + 1) * series.len() / cols).max(lo + 1);
            let v = series[lo..hi].iter().copied().fold(0.0, f64::max);
            let bar = if max <= 0.0 {
                0
            } else {
                (v / max * 7.0).round() as usize
            };
            BARS[bar.min(7)]
        })
        .collect()
}

/// Fig. 3: the vertex frontier over a search, as a percentage of n,
/// from Table I's roots: its peak, the depth, and the series as a
/// sparkline. High-diameter classes grow gradually and peak near one
/// percent of n; small-world and scale-free ones explode.
fn fig3(quick: bool) -> Vec<Table> {
    let reduction = if quick { 5 } else { 3 };
    let device = DeviceConfig::gtx_titan();
    let mut rows = Vec::new();
    for d in FRONTIER_CLASSES {
        let g = d.generate(reduction, SEED);
        let n = g.num_vertices();
        for root in paper_roots(d, &g) {
            let pct = frontier::trace_root(&g, root, &device).vertex_frontier_percent(n);
            let peak_percent = pct.iter().copied().fold(0.0, f64::max);
            rows.push(row! {
                dataset: d.name(), root, vertices: n, peak_percent, depth: pct.len(),
                frontier: sparkline(&pct, peak_percent),
            });
        }
    }
    vec![Table::new("fig3", rows)]
}

/// Fig. 4: speedup of the work-efficient, hybrid and sampling methods
/// over the edge-parallel baseline, with each method's geometric mean
/// as the last row.
fn fig4(quick: bool) -> Vec<Table> {
    use DatasetId::*;
    let (reduction, k) = if quick { (5, 16) } else { (2, 96) };
    let opts = BcOptions {
        roots: RootSelection::Strided(k),
        ..Default::default()
    };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    // Figure 4's x-axis order.
    for d in [
        AfShell9,
        DelaunayN20,
        LuxembourgOsm,
        CaidaRouterLevel,
        Cnr2000,
        ComAmazon,
        LocGowalla,
        Smallworld,
    ] {
        let g = d.generate(reduction, SEED);
        let seconds = |m: Method| m.run(&g, &opts).expect("method fits").report.full_seconds;
        let base = seconds(Method::EdgeParallel);
        let s = [
            Method::WorkEfficient,
            Method::Hybrid(Default::default()),
            Method::Sampling(scaled_sampling(g.num_vertices(), k)),
        ]
        .map(|m| base / seconds(m));
        rows.push(row! {
            dataset: d.name(), work_efficient_speedup: s[0], hybrid_speedup: s[1],
            sampling_speedup: s[2], edge_parallel_seconds: base,
        });
        speedups.push(s);
    }
    let gm = |i: usize| teps::geometric_mean(&speedups.iter().map(|s| s[i]).collect::<Vec<_>>());
    rows.push(row! {
        dataset: "geomean", work_efficient_speedup: gm(0), hybrid_speedup: gm(1),
        sampling_speedup: gm(2),
    });
    vec![Table::new("fig4", rows)]
}

/// One member of Figs. 5 and 6's scaling families at 2^scale
/// vertices.
fn family_instance(family: &str, scale: u32) -> Csr {
    let n = 1usize << scale;
    match family {
        "rgg" => {
            let row = DatasetId::RggN2_20.paper_row();
            let deg = 2.0 * row.edges as f64 / row.vertices as f64;
            gen::random_geometric(n, gen::rgg_radius_for_degree(n, deg), SEED)
        }
        "delaunay" => {
            let side = (n as f64).sqrt().round() as usize;
            gen::delaunay_like(side, side, SEED)
        }
        "kron" => gen::kronecker(scale, 16, SEED),
        _ => unreachable!("no scaling family {family}"),
    }
}

/// Fig. 5: simulated exact-BC time by problem size for GPU-FAN,
/// edge-parallel and sampling. GPU-FAN's time is `null` where its
/// O(n²) predecessor matrix no longer fits the device, as in the
/// paper; any other error fails the run.
fn fig5(quick: bool) -> Vec<Table> {
    let (scales, k) = if quick { (10..=13, 8) } else { (10..=17, 64) };
    let opts = BcOptions {
        roots: RootSelection::Strided(k),
        ..Default::default()
    };
    let mut rows = Vec::new();
    for family in ["rgg", "delaunay", "kron"] {
        for scale in scales.clone() {
            let g = family_instance(family, scale);
            let gpu_fan_seconds = match Method::GpuFan.run(&g, &opts) {
                Ok(run) => Some(run.report.full_seconds),
                Err(SimError::OutOfMemory { .. }) => None,
                Err(e) => panic!("gpu-fan on {family} 2^{scale}: {e}"),
            };
            let seconds = |m: Method| m.run(&g, &opts).expect("method fits").report.full_seconds;
            rows.push(row! {
                family, scale, vertices: g.num_vertices(), edges: g.num_undirected_edges(),
                gpu_fan_seconds,
                edge_parallel_seconds: seconds(Method::EdgeParallel),
                sampling_seconds:
                    seconds(Method::Sampling(scaled_sampling(g.num_vertices(), k))),
            });
        }
    }
    vec![Table::new("fig5", rows)]
}

/// Fig. 6: multi-GPU strong scaling on 1–64 Keeneland-like nodes
/// (3 GPUs each); speedup is over one node.
fn fig6(quick: bool) -> Vec<Table> {
    let (scales, k): (&[u32], _) = if quick {
        (&[12, 14], 24)
    } else {
        (&[14, 16, 18], 96)
    };
    let base = ClusterConfig::keeneland(1);
    let mut rows = Vec::new();
    for family in ["delaunay", "rgg", "kron"] {
        for &scale in scales {
            let g = family_instance(family, scale);
            let points = strong_scaling(&g, &base, &[1, 2, 4, 8, 16, 32, 64], k);
            for p in points.expect("cluster run fits") {
                rows.push(row! {
                    family, scale, nodes: p.nodes,
                    total_seconds: p.report.total_seconds, speedup: p.speedup,
                });
            }
        }
    }
    vec![Table::new("fig6", rows)]
}

/// The §IV design choices: hybrid α/β and sampling γ/n_samps
/// sensitivity, the wrong-choice asymmetry, strided vs contiguous
/// root blocks, and the work-efficient kernel variants.
fn ablations(quick: bool) -> Vec<Table> {
    use DatasetId::*;
    let (reduction, k) = if quick { (5, 16) } else { (3, 64) };
    let opts = BcOptions {
        roots: RootSelection::Strided(k),
        ..Default::default()
    };
    let high_diam = DelaunayN20.generate(reduction, SEED);
    let small_world = Smallworld.generate(reduction, SEED);
    let seconds = |m: Method, g: &Csr| m.run(g, &opts).expect("fits").report.full_seconds;

    // α sweep, β at 512 (α = u64::MAX never switches).
    let alpha = [64u64, 256, 768, 2048, u64::MAX].map(|alpha| {
        let hybrid = Method::Hybrid(HybridParams { alpha, beta: 512 });
        row! {
            alpha,
            delaunay_seconds: seconds(hybrid.clone(), &high_diam),
            smallworld_seconds: seconds(hybrid, &small_world),
        }
    });
    // β sweep, α at 768.
    let beta = [32u64, 128, 512, 2048, 8192].map(|beta| {
        let hybrid = Method::Hybrid(HybridParams { alpha: 768, beta });
        row! { beta, smallworld_seconds: seconds(hybrid, &small_world) }
    });
    // γ sweep; `*_edge_parallel` is the decision the sampled depths made.
    let n = high_diam.num_vertices().min(small_world.num_vertices());
    let gamma = [0.5f64, 2.0, 4.0, 8.0, 16.0].map(|gamma| {
        let sampling = Method::Sampling(SamplingParams {
            gamma,
            ..scaled_sampling(n, k)
        });
        let run = |g: &Csr| sampling.run(g, &opts).expect("fits").report;
        let (hd, sw) = (run(&high_diam), run(&small_world));
        row! {
            gamma,
            delaunay_seconds: hd.full_seconds,
            delaunay_edge_parallel: hd.sampling_chose_edge_parallel,
            smallworld_seconds: sw.full_seconds,
            smallworld_edge_parallel: sw.sampling_chose_edge_parallel,
        }
    });
    // n_samps in full-run units (512 is the paper's setting), scaled
    // to the k simulated roots.
    let nsamps = [8usize, 32, 128, 512, 2048].map(|n_samps| {
        let sampling = Method::Sampling(SamplingParams {
            n_samps: (n_samps * k).div_ceil(small_world.num_vertices()).max(1),
            ..Default::default()
        });
        row! { n_samps, smallworld_seconds: seconds(sampling, &small_world) }
    });

    // Wrong-choice asymmetry (§IV-B): the worst slowdown over each
    // side's inputs of running the strategy the input does not favour.
    let worst = |graphs: &[DatasetId], ep_preferred: bool| {
        graphs.iter().fold(0.0f64, |worst, d| {
            let g = d.generate(reduction, SEED);
            let we = seconds(Method::WorkEfficient, &g);
            let ep = seconds(Method::EdgeParallel, &g);
            worst.max(if ep_preferred { we / ep } else { ep / we })
        })
    };
    let wrong_choice = vec![
        row! {
            case: "WE-where-EP-preferred",
            slowdown: worst(&[Smallworld, Cnr2000, LocGowalla, CaidaRouterLevel], true),
            paper_slowdown: "<= 2.2",
        },
        row! {
            case: "EP-where-WE-preferred",
            slowdown: worst(&[DelaunayN20, LuxembourgOsm, AfShell9], false),
            paper_slowdown: "> 10",
        },
    ];

    // Root distribution over 14 blocks: makespan of the per-root times.
    let run = Method::WorkEfficient.run(&high_diam, &opts).expect("fits");
    let times = &run.report.per_root_seconds;
    let contiguous = times
        .chunks(times.len().div_ceil(14))
        .map(|c| c.iter().sum::<f64>())
        .fold(0.0f64, f64::max);
    let blocks = vec![
        row! { layout: "strided", makespan_seconds: coarse_grained_makespan(times, 14) },
        row! { layout: "contiguous", makespan_seconds: contiguous },
    ];

    // Work-efficient kernel variants (§IV-A), the paper's first.
    let device = DeviceConfig::gtx_titan();
    let variants = [
        (
            "atomic + neighbor-traversal (paper)",
            WorkEfficientConfig::default(),
        ),
        (
            "prefix-sum queue append",
            WorkEfficientConfig {
                queue_append: QueueAppend::PrefixSum,
                ..Default::default()
            },
        ),
        (
            "O(m) predecessor edge flags",
            WorkEfficientConfig {
                predecessors: PredecessorStorage::EdgeFlags,
                ..Default::default()
            },
        ),
    ]
    .map(|(variant, cfg)| {
        let run = |g: &Csr| {
            let bytes = footprint::work_efficient_bytes_cfg(g, &device, cfg);
            let mut model = WorkEfficientModel::with_config(cfg);
            let run = run_with_cost_model(g, &opts, &mut model, bytes).expect("fits");
            (run.report.full_seconds, bytes)
        };
        let ((delaunay_seconds, delaunay_local_bytes), (smallworld_seconds, _)) =
            (run(&high_diam), run(&small_world));
        row! { variant, delaunay_seconds, smallworld_seconds, delaunay_local_bytes }
    });

    vec![
        Table::new("ablations_alpha", alpha.into()),
        Table::new("ablations_beta", beta.into()),
        Table::new("ablations_gamma", gamma.into()),
        Table::new("ablations_nsamps", nsamps.into()),
        Table::new("ablations_wrong_choice", wrong_choice),
        Table::new("ablations_blocks", blocks),
        Table::new("ablations_variants", variants.into()),
    ]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_leaves_out_the_full_scale_af_shell9_roots_whose_sigma_overflows() {
        // Root 0 is a corner of the 1005 × 502 sheet and 252255 sits on
        // its left edge: the far edge is ~502 levels away and σ passes
        // f64::MAX before it. 126127 is a strided root in the sheet's
        // middle column, where σ peaks near 2^585.
        let g = DatasetId::AfShell9.generate(0, SEED);
        let (fit, left_out) = sigma_fitting_roots(&g, vec![0, 126127, 252255]);
        assert_eq!((fit, left_out), (vec![126127], 2));
        let opts = BcOptions {
            roots: RootSelection::Explicit(vec![0]),
            ..Default::default()
        };
        let err = Method::EdgeParallel.run(&g, &opts).err();
        assert_eq!(
            err,
            Some(SimError::PathCountOverflow {
                root: 0,
                depth: 442
            })
        );
    }
}
