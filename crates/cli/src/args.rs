//! Argument parsing for the `hybrid-bc` binary. Hand-rolled (no CLI
//! dependency): `--flag value` pairs plus `--help`.

use bc_cluster::FaultPlan;
use bc_core::{
    HybridParams, Method, PartitionMode, RootSelection, SamplingParams, Schedule, TraversalMode,
};
use bc_gpusim::DeviceConfig;
use bc_graph::Relabeling;

/// How to execute the computation.
#[derive(Clone, Debug, PartialEq)]
pub enum RunMethod {
    /// Host-side sequential Brandes.
    Sequential,
    /// Host-side multi-threaded Brandes.
    CpuParallel,
    /// One of the six simulated GPU methods.
    Simulated(Method),
}

impl RunMethod {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RunMethod::Sequential => "sequential",
            RunMethod::CpuParallel => "cpu",
            RunMethod::Simulated(m) => m.name(),
        }
    }
}

/// Parsed invocation.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Path to a graph file (format by extension), mutually
    /// exclusive with `dataset`.
    pub graph: Option<String>,
    /// Name of a Table II dataset analogue to generate.
    pub dataset: Option<String>,
    /// Scale reduction for generated datasets.
    pub reduction: u32,
    /// Generator seed.
    pub seed: u64,
    /// Vertex relabeling applied after load (scores are reported in
    /// the original vertex numbering either way).
    pub relabel: Relabeling,
    /// Allow graphs larger than device memory to run by streaming
    /// CSR slices from host memory (single-device and cluster runs).
    pub partition: PartitionMode,
    /// BC method.
    pub method: RunMethod,
    /// Root selection.
    pub roots: RootSelection,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Host threads for the multi-root runner (0 = auto).
    pub threads: usize,
    /// Forward-sweep direction for the frontier-queue methods.
    pub traversal: TraversalMode,
    /// How root shards are assigned to host workers (and roots to
    /// GPUs under `--cluster`).
    pub schedule: Schedule,
    /// Run on a simulated multi-node cluster with this many nodes
    /// (3 GPUs each) instead of a single device.
    pub cluster: Option<usize>,
    /// Deterministic fault-injection plan for `--cluster` runs.
    pub faults: FaultPlan,
    /// Checkpoint directory for `--cluster` runs: completed per-root
    /// contributions stream here, and a rerun of the same
    /// configuration resumes from them.
    pub checkpoint: Option<String>,
    /// Per-root watchdog deadline as a multiple (≥ 1) of the root's
    /// estimated time; hung stragglers are cancelled and migrated.
    pub deadline_factor: Option<f64>,
    /// Engage the graceful-degradation ladder's sampled rung when the
    /// method cannot fit device memory even partitioned.
    pub degrade: bool,
    /// Normalize scores.
    pub normalize: bool,
    /// Serve this many randomized queries through the batched,
    /// epoch-cached `bc-serve` layer instead of one offline run.
    pub serve: Option<usize>,
    /// Batching window (simulated seconds) for `--serve`.
    pub serve_window: f64,
    /// Random edge edits interleaved into the `--serve` workload.
    pub serve_edits: usize,
    /// Run the bc-verify checks (CSR invariants, traced replay of a
    /// few roots, score sanity) on this run.
    pub verify: bool,
    /// Print the top-K vertices.
    pub top: usize,
    /// Write all scores to this path.
    pub out: Option<String>,
    /// Emit the run report as JSON on stdout.
    pub json: bool,
    /// Run metered and write per-root / per-GPU metrics as JSONL to
    /// this path.
    pub metrics: Option<String>,
}

/// Usage text.
pub const USAGE: &str = "\
hybrid-bc — betweenness centrality with the SC'14 hybrid GPU methods

USAGE:
    hybrid-bc [--graph FILE | --dataset NAME] [OPTIONS]

INPUT:
    --graph FILE       read a graph (.graph METIS, .mtx MatrixMarket,
                       .txt/.el edge list, .bin binary CSR)
    --dataset NAME     generate a Table II analogue (af_shell9,
                       caidaRouterLevel, cnr-2000, com-amazon,
                       delaunay_n20, kron_g500-logn20, loc-gowalla,
                       luxembourg.osm, rgg_n_2_20, smallworld)
    --reduction R      halve the dataset size R times      [default: 4]
    --seed S           generator seed               [default: 20140101]

COMPUTATION:
    --method M         sequential | cpu | vertex-parallel |
                       edge-parallel | gpu-fan | work-efficient |
                       hybrid | sampling             [default: sampling]
    --roots R          all | a number K (strided sample)  [default: all]
    --device D         titan | m2090                    [default: titan]
    --threads T        host threads for the multi-root runner; scores
                       are bitwise identical at any count [default: auto]
    --traversal T      push | pull | auto — forward-sweep direction for
                       the frontier-queue methods; auto switches to the
                       bottom-up bitmap kernel on saturated frontiers
                       (scores are bitwise identical)   [default: push]
    --schedule S       static | guided | work-stealing — how root
                       shards are assigned to host workers (and roots
                       to GPUs with --cluster); dynamic schedules seed
                       queues longest-first from a per-root cost
                       estimate, and scores stay bitwise identical
                       under every schedule             [default: static]
    --relabel R        none | degree — renumber vertices by descending
                       degree before the run; hub-adjacent accesses
                       land in fewer cache lines, and scores are
                       restored to the original numbering (bitwise
                       identical to --relabel none); single-device
                       runs only                        [default: none]
    --partition        allow graphs whose CSR exceeds device memory to
                       run anyway by streaming resident slices from
                       host memory (per-root swap time is priced into
                       the simulated report; scores are bitwise
                       identical); without it such runs abort with the
                       out-of-memory pre-flight error
    --normalize        scale scores by (n-1)(n-2)[/2]

CLUSTER:
    --cluster NODES    run on a simulated cluster of NODES nodes
                       (3 GPUs each, Keeneland interconnect); roots are
                       scheduled per-GPU at root granularity and merged
                       in root order (bitwise identical at any shape)
    --faults SPEC      inject a deterministic fault schedule into the
                       cluster run; comma-separated key=value pairs:
                       seed=N transient=P oom=P panic=P attempts=N
                       backoff=S backoff_cap=S dead=I+J death_fraction=F
                       straggle=I+J slowdown=X drop=P corrupt=P
                       e.g. --faults seed=7,transient=0.05,dead=1,drop=0.1
                       (recoverable schedules return scores bitwise
                       identical to the fault-free run); kill=F kills
                       the process after fraction F of the roots —
                       rerun with the same --checkpoint DIR to resume

DURABILITY (--cluster):
    --checkpoint DIR   sync each completed root's contribution to its
                       own checksummed chunk in DIR and resume from
                       whatever an interrupted run left there; chunks
                       and the manifest pin the graph digest and the
                       options fingerprint, and a resumed run is
                       bitwise identical to an uninterrupted one
    --deadline-factor F
                       per-root watchdog budget as a multiple (>= 1)
                       of the root's estimated time; GPUs that would
                       blow every deadline have their roots cancelled
                       and migrated to healthy GPUs
    --degrade          when the method cannot fit device memory even
                       with out-of-core partitioning, fall back to the
                       leanest method that fits and approximate from a
                       bounded root sample (the decision and its error
                       bound are recorded on the report) instead of
                       aborting

SERVING:
    --serve N          instead of one offline run, serve N randomized
                       queries (top-k / per-vertex / subgraph) through
                       the batched query server: concurrent requests
                       coalesce into shared multi-root runs and
                       per-root contributions are cached under
                       (epoch, root, options) keys; every answer is
                       bitwise identical to a cold recompute
    --serve-window W   batching window in simulated seconds; requests
                       arriving within W of the first queued request
                       execute as one batch            [default: 0.001]
    --serve-edits E    interleave E random edge inserts/deletes into
                       the workload; each edit bumps the graph epoch
                       and invalidates only the cached roots whose
                       BFS DAG it can touch             [default: 0]

VERIFICATION:
    --verify           run the bc-verify layer on this run: CSR
                       invariants, race-checked traced replay of a few
                       roots, and final-score sanity (exit 1 on failure)

OUTPUT:
    --top K            print the K most central vertices  [default: 10]
    --out FILE         write one score per line to FILE
    --json             print the simulation report as JSON
    --metrics FILE     run metered and write structured metrics as
                       JSONL to FILE: per-root per-level frontier /
                       edge / atomic / direction counters (single
                       device) or per-GPU phase timelines (--cluster),
                       each followed by an aggregated summary line;
                       scores and simulated timings stay bitwise
                       identical to the unmetered run
    --help             this text
";

/// Parse an argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        graph: None,
        dataset: None,
        reduction: 4,
        seed: 20140101,
        relabel: Relabeling::None,
        partition: PartitionMode::Off,
        method: RunMethod::Simulated(Method::Sampling(SamplingParams::default())),
        roots: RootSelection::All,
        device: DeviceConfig::gtx_titan(),
        threads: 0,
        traversal: TraversalMode::Push,
        schedule: Schedule::Static,
        cluster: None,
        faults: FaultPlan::none(),
        checkpoint: None,
        deadline_factor: None,
        degrade: false,
        normalize: false,
        serve: None,
        serve_window: 1e-3,
        serve_edits: 0,
        verify: false,
        top: 10,
        out: None,
        json: false,
        metrics: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--graph" => cli.graph = Some(value()?),
            "--dataset" => cli.dataset = Some(value()?),
            "--reduction" => {
                cli.reduction = value()?.parse().map_err(|e| format!("--reduction: {e}"))?
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--relabel" => {
                cli.relabel = match value()?.as_str() {
                    "none" => Relabeling::None,
                    "degree" => Relabeling::DegreeDesc,
                    other => return Err(format!("unknown relabeling '{other}' (none | degree)")),
                }
            }
            "--partition" => cli.partition = PartitionMode::Auto,
            "--method" => cli.method = parse_method(&value()?)?,
            "--roots" => {
                let v = value()?;
                cli.roots = if v == "all" {
                    RootSelection::All
                } else {
                    RootSelection::Strided(v.parse().map_err(|e| format!("--roots: {e}"))?)
                };
            }
            "--device" => {
                cli.device = match value()?.as_str() {
                    "titan" => DeviceConfig::gtx_titan(),
                    "m2090" => DeviceConfig::tesla_m2090(),
                    other => return Err(format!("unknown device '{other}'")),
                }
            }
            "--threads" => cli.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--traversal" => {
                cli.traversal = match value()?.as_str() {
                    "push" => TraversalMode::Push,
                    "pull" => TraversalMode::Pull,
                    "auto" => TraversalMode::Auto,
                    other => return Err(format!("unknown traversal '{other}'")),
                }
            }
            "--schedule" => {
                let v = value()?;
                cli.schedule = Schedule::parse(&v).ok_or_else(|| {
                    format!("unknown schedule '{v}' (static | guided | work-stealing)")
                })?;
            }
            "--cluster" => {
                cli.cluster = Some(value()?.parse().map_err(|e| format!("--cluster: {e}"))?)
            }
            "--faults" => cli.faults = FaultPlan::parse(&value()?)?,
            "--checkpoint" => cli.checkpoint = Some(value()?),
            "--deadline-factor" => {
                let f: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--deadline-factor: {e}"))?;
                if !f.is_finite() || f < 1.0 {
                    return Err(format!(
                        "--deadline-factor must be a finite multiple >= 1, got {f}"
                    ));
                }
                cli.deadline_factor = Some(f);
            }
            "--degrade" => cli.degrade = true,
            "--serve" => cli.serve = Some(value()?.parse().map_err(|e| format!("--serve: {e}"))?),
            "--serve-window" => {
                let w: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--serve-window: {e}"))?;
                if !w.is_finite() || w < 0.0 {
                    return Err(format!(
                        "--serve-window must be a finite non-negative duration, got {w}"
                    ));
                }
                cli.serve_window = w;
            }
            "--serve-edits" => {
                cli.serve_edits = value()?
                    .parse()
                    .map_err(|e| format!("--serve-edits: {e}"))?
            }
            "--normalize" => cli.normalize = true,
            "--verify" => cli.verify = true,
            "--top" => cli.top = value()?.parse().map_err(|e| format!("--top: {e}"))?,
            "--out" => cli.out = Some(value()?),
            "--json" => cli.json = true,
            "--metrics" => cli.metrics = Some(value()?),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }
    if cli.graph.is_some() == cli.dataset.is_some() {
        return Err(format!(
            "exactly one of --graph or --dataset is required\n\n{USAGE}"
        ));
    }
    if !cli.faults.is_none() && cli.cluster.is_none() {
        return Err(
            "--faults requires --cluster (faults are injected into the cluster runner)".to_owned(),
        );
    }
    if cli.cluster.is_none() {
        if cli.checkpoint.is_some() {
            return Err(
                "--checkpoint requires --cluster (the durable runner streams per-root chunks)"
                    .to_owned(),
            );
        }
        if cli.deadline_factor.is_some() {
            return Err(
                "--deadline-factor requires --cluster (the watchdog guards GPU workers)".to_owned(),
            );
        }
    }
    if cli.cluster.is_some() && !matches!(cli.method, RunMethod::Simulated(_)) {
        return Err(format!(
            "--cluster runs simulated GPU methods only, not '{}'",
            cli.method.name()
        ));
    }
    if cli.schedule != Schedule::Static && cli.method == RunMethod::Sequential {
        return Err(format!(
            "--schedule {} needs a multi-root runner; the sequential method has none",
            cli.schedule
        ));
    }
    if cli.metrics.is_some() && !matches!(cli.method, RunMethod::Simulated(_)) {
        return Err(format!(
            "--metrics instruments the simulated GPU methods only, not '{}'",
            cli.method.name()
        ));
    }
    if cli.relabel != Relabeling::None && cli.cluster.is_some() {
        return Err(
            "--relabel is a single-device option: the cluster runner samples roots by \
             stride in graph order, so renumbering would change the sampled root set"
                .to_owned(),
        );
    }
    if cli.partition == PartitionMode::Auto && !matches!(cli.method, RunMethod::Simulated(_)) {
        return Err(format!(
            "--partition streams device-resident slices, which only the simulated GPU \
             methods have; '{}' runs in host memory",
            cli.method.name()
        ));
    }
    if cli.degrade && !matches!(cli.method, RunMethod::Simulated(_)) {
        return Err(format!(
            "--degrade steps down device-memory pressure, which only the simulated GPU \
             methods have; '{}' runs in host memory",
            cli.method.name()
        ));
    }
    if cli.serve.is_none() {
        if cli.serve_window != 1e-3 {
            return Err("--serve-window requires --serve".to_owned());
        }
        if cli.serve_edits != 0 {
            return Err("--serve-edits requires --serve".to_owned());
        }
    } else {
        if cli.cluster.is_some() {
            return Err(
                "--serve runs the single-device query server; it cannot combine with --cluster"
                    .to_owned(),
            );
        }
        if cli.relabel != Relabeling::None {
            return Err(
                "--serve answers queries in the graph's own numbering; --relabel is a \
                 single-run layout option"
                    .to_owned(),
            );
        }
        if cli.partition == PartitionMode::Auto || cli.degrade {
            return Err(
                "--serve requires the graph resident on the simulated device; \
                 --partition/--degrade apply to offline runs"
                    .to_owned(),
            );
        }
        if cli.verify {
            return Err(
                "--serve has its own battery (bc-verify stage 8); --verify applies \
                 to offline runs"
                    .to_owned(),
            );
        }
    }
    Ok(cli)
}

fn parse_method(name: &str) -> Result<RunMethod, String> {
    Ok(match name {
        "sequential" => RunMethod::Sequential,
        "cpu" => RunMethod::CpuParallel,
        "vertex-parallel" | "vp" => RunMethod::Simulated(Method::VertexParallel),
        "edge-parallel" | "ep" => RunMethod::Simulated(Method::EdgeParallel),
        "gpu-fan" => RunMethod::Simulated(Method::GpuFan),
        "work-efficient" | "we" => RunMethod::Simulated(Method::WorkEfficient),
        "hybrid" => RunMethod::Simulated(Method::Hybrid(HybridParams::default())),
        "sampling" => RunMethod::Simulated(Method::Sampling(SamplingParams::default())),
        other => return Err(format!("unknown method '{other}'\n\n{USAGE}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn minimal_dataset_invocation() {
        let cli = parse(&s(&["--dataset", "smallworld"])).unwrap();
        assert_eq!(cli.dataset.as_deref(), Some("smallworld"));
        assert!(cli.graph.is_none());
        assert_eq!(cli.reduction, 4);
        assert_eq!(cli.method.name(), "sampling");
    }

    #[test]
    fn full_flag_set() {
        let cli = parse(&s(&[
            "--graph",
            "g.mtx",
            "--method",
            "we",
            "--roots",
            "128",
            "--device",
            "m2090",
            "--threads",
            "4",
            "--traversal",
            "auto",
            "--normalize",
            "--verify",
            "--top",
            "5",
            "--out",
            "scores.txt",
            "--json",
        ]))
        .unwrap();
        assert_eq!(cli.graph.as_deref(), Some("g.mtx"));
        assert_eq!(cli.method.name(), "work-efficient");
        assert_eq!(cli.roots, RootSelection::Strided(128));
        assert_eq!(cli.device.name, "Tesla M2090");
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.traversal, TraversalMode::Auto);
        assert!(cli.normalize && cli.json && cli.verify);
        assert_eq!(cli.top, 5);
        assert_eq!(cli.out.as_deref(), Some("scores.txt"));
    }

    #[test]
    fn host_methods() {
        let cli = parse(&s(&["--dataset", "smallworld", "--method", "cpu"])).unwrap();
        assert_eq!(cli.method, RunMethod::CpuParallel);
        let cli = parse(&s(&["--dataset", "smallworld", "--method", "sequential"])).unwrap();
        assert_eq!(cli.method, RunMethod::Sequential);
    }

    #[test]
    fn rejects_both_or_neither_inputs() {
        assert!(parse(&s(&[])).is_err());
        assert!(parse(&s(&["--graph", "a", "--dataset", "b"])).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_methods() {
        assert!(parse(&s(&["--dataset", "smallworld", "--wat", "1"])).is_err());
        assert!(parse(&s(&["--dataset", "smallworld", "--method", "magic"])).is_err());
        assert!(parse(&s(&["--dataset", "smallworld", "--device", "h100"])).is_err());
        assert!(parse(&s(&["--dataset", "smallworld", "--traversal", "sideways"])).is_err());
    }

    #[test]
    fn traversal_modes_parse() {
        for (name, mode) in [
            ("push", TraversalMode::Push),
            ("pull", TraversalMode::Pull),
            ("auto", TraversalMode::Auto),
        ] {
            let cli = parse(&s(&["--dataset", "smallworld", "--traversal", name])).unwrap();
            assert_eq!(cli.traversal, mode);
        }
    }

    #[test]
    fn schedules_parse_and_validate() {
        assert_eq!(
            parse(&s(&["--dataset", "smallworld"])).unwrap().schedule,
            Schedule::Static
        );
        for (name, schedule) in [
            ("static", Schedule::Static),
            ("guided", Schedule::Guided),
            ("work-stealing", Schedule::WorkStealing),
        ] {
            let cli = parse(&s(&["--dataset", "smallworld", "--schedule", name])).unwrap();
            assert_eq!(cli.schedule, schedule);
        }
        assert!(parse(&s(&["--dataset", "smallworld", "--schedule", "chaotic"])).is_err());
        // The sequential method has no multi-root runner to schedule.
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--method",
            "sequential",
            "--schedule",
            "guided"
        ]))
        .is_err());
        // cpu and simulated methods both accept dynamic schedules.
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--method",
            "cpu",
            "--schedule",
            "work-stealing"
        ]))
        .is_ok());
    }

    #[test]
    fn cluster_and_faults_parse() {
        let cli = parse(&s(&[
            "--dataset",
            "smallworld",
            "--cluster",
            "4",
            "--faults",
            "seed=9,transient=0.1,dead=1+2,drop=0.05",
        ]))
        .unwrap();
        assert_eq!(cli.cluster, Some(4));
        assert_eq!(cli.faults.seed, 9);
        assert_eq!(cli.faults.transient_rate, 0.1);
        assert_eq!(cli.faults.dead_gpus, vec![1, 2]);
        assert_eq!(cli.faults.reduce_drop_rate, 0.05);
    }

    #[test]
    fn faults_require_cluster() {
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--faults",
            "transient=0.1"
        ]))
        .is_err());
    }

    #[test]
    fn cluster_rejects_host_methods_and_bad_specs() {
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--cluster",
            "2",
            "--method",
            "cpu"
        ]))
        .is_err());
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--cluster",
            "2",
            "--faults",
            "transient=lots"
        ]))
        .is_err());
    }

    #[test]
    fn metrics_parses_and_requires_a_simulated_method() {
        let cli = parse(&s(&[
            "--dataset",
            "smallworld",
            "--metrics",
            "metrics.jsonl",
        ]))
        .unwrap();
        assert_eq!(cli.metrics.as_deref(), Some("metrics.jsonl"));
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--method",
            "cpu",
            "--metrics",
            "m.jsonl"
        ]))
        .is_err());
    }

    #[test]
    fn relabel_parses_and_defaults_to_none() {
        assert_eq!(
            parse(&s(&["--dataset", "smallworld"])).unwrap().relabel,
            Relabeling::None
        );
        let cli = parse(&s(&["--dataset", "smallworld", "--relabel", "degree"])).unwrap();
        assert_eq!(cli.relabel, Relabeling::DegreeDesc);
        let cli = parse(&s(&["--dataset", "smallworld", "--relabel", "none"])).unwrap();
        assert_eq!(cli.relabel, Relabeling::None);
        assert!(parse(&s(&["--dataset", "smallworld", "--relabel", "random"])).is_err());
        // The cluster runner samples roots internally in graph order,
        // so relabeling would silently change the sampled root set.
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--relabel",
            "degree",
            "--cluster",
            "2"
        ]))
        .is_err());
        // Relabeling applies to host methods too (it is a graph
        // transform, not a device feature).
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--method",
            "cpu",
            "--relabel",
            "degree"
        ]))
        .is_ok());
    }

    #[test]
    fn partition_is_a_bare_flag_for_simulated_methods() {
        assert_eq!(
            parse(&s(&["--dataset", "smallworld"])).unwrap().partition,
            PartitionMode::Off
        );
        let cli = parse(&s(&["--dataset", "smallworld", "--partition"])).unwrap();
        assert_eq!(cli.partition, PartitionMode::Auto);
        // Composes with --cluster (the runner partitions per-worker).
        let cli = parse(&s(&[
            "--dataset",
            "smallworld",
            "--partition",
            "--cluster",
            "2",
        ]))
        .unwrap();
        assert_eq!(cli.partition, PartitionMode::Auto);
        assert_eq!(cli.cluster, Some(2));
        // Host methods have no device memory to partition.
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--method",
            "sequential",
            "--partition"
        ]))
        .is_err());
    }

    #[test]
    fn durability_flags_parse_and_validate() {
        let cli = parse(&s(&[
            "--dataset",
            "smallworld",
            "--cluster",
            "2",
            "--checkpoint",
            "/tmp/ckpt",
            "--deadline-factor",
            "2.5",
            "--degrade",
        ]))
        .unwrap();
        assert_eq!(cli.checkpoint.as_deref(), Some("/tmp/ckpt"));
        assert_eq!(cli.deadline_factor, Some(2.5));
        assert!(cli.degrade);
        // Both checkpointing and the watchdog are cluster features.
        assert!(parse(&s(&["--dataset", "smallworld", "--checkpoint", "d"])).is_err());
        assert!(parse(&s(&["--dataset", "smallworld", "--deadline-factor", "2"])).is_err());
        // The deadline budget is a multiple of the estimate: < 1 or
        // non-finite makes no sense.
        for bad in ["0.5", "-3", "nan", "inf"] {
            assert!(
                parse(&s(&[
                    "--dataset",
                    "smallworld",
                    "--cluster",
                    "2",
                    "--deadline-factor",
                    bad
                ]))
                .is_err(),
                "deadline factor {bad} must be rejected"
            );
        }
        // --degrade works single-device too (run_or_degrade), but
        // only for simulated methods.
        assert!(parse(&s(&["--dataset", "smallworld", "--degrade"])).is_ok());
        assert!(parse(&s(&[
            "--dataset",
            "smallworld",
            "--method",
            "cpu",
            "--degrade"
        ]))
        .is_err());
        // kill=F parses through the fault spec.
        let cli = parse(&s(&[
            "--dataset",
            "smallworld",
            "--cluster",
            "2",
            "--faults",
            "kill=0.5",
        ]))
        .unwrap();
        assert_eq!(cli.faults.kill_fraction, Some(0.5));
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let cli = parse(&s(&[
            "--dataset",
            "smallworld",
            "--serve",
            "32",
            "--serve-window",
            "0.01",
            "--serve-edits",
            "3",
        ]))
        .unwrap();
        assert_eq!(cli.serve, Some(32));
        assert_eq!(cli.serve_window, 0.01);
        assert_eq!(cli.serve_edits, 3);
        // Serve options without --serve are rejected.
        let err = parse(&s(&["--dataset", "smallworld", "--serve-edits", "2"])).unwrap_err();
        assert!(err.contains("requires --serve"));
        // The server is a single-device layer.
        let err = parse(&s(&[
            "--dataset",
            "smallworld",
            "--serve",
            "8",
            "--cluster",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("--cluster"));
    }

    #[test]
    fn help_prints_usage() {
        let err = parse(&s(&["--help"])).unwrap_err();
        assert!(err.contains("USAGE"));
    }
}
