//! Multi-GPU / multi-node execution with fault tolerance.
//!
//! Mirrors the paper's §V-D setup: the graph is replicated on every
//! GPU, roots are distributed across GPUs, per-GPU scores are
//! accumulated node-locally, and node results are combined with one
//! `MPI_Reduce`. Each simulated GPU is driven by a real host thread
//! (the coarse-grained parallelism is genuinely executed), while the
//! timing comes from the per-GPU simulation plus the network model.
//!
//! # Fault tolerance
//!
//! Work is scheduled at **root granularity**: each root is one unit
//! of work that can be retried (capped exponential backoff), migrated
//! to another GPU after exhausting its retry budget, or adopted by a
//! survivor when its GPU dies mid-run (priced as re-setup plus graph
//! re-upload through the network model). Because the injected fault
//! schedule ([`FaultPlan`]) is a pure function of its seed, the
//! entire schedule — deaths, retries, migrations — is precomputed
//! before any worker spawns, and the executed run replays it exactly.
//!
//! Scores are merged in **global root order** regardless of which GPU
//! computed each root, so any *recoverable* fault schedule produces
//! scores bitwise identical to the fault-free run (and to runs at any
//! other node count). Unrecoverable schedules surface as a structured
//! [`ClusterError`] carrying the partial result — never as a process
//! panic: injected worker deaths and genuine worker panics alike are
//! contained with `catch_unwind`.

use crate::error::{ClusterError, GpuMemoryDiagnostic};
use crate::fault::{score_checksum, FaultCounters, FaultKind, FaultPlan, ReduceFault};
use crate::net::NetworkConfig;
use bc_core::approx::{error_bound, DEGRADED_SAMPLE_SOURCES};
use bc_core::engine::DELTA_DEFINITION;
use bc_core::methods::cost::footprint;
use bc_core::parallel::panic_message;
use bc_core::{
    graph_digest, options_fingerprint, plan_assignment, BcOptions, CheckpointError,
    CheckpointStore, Degradation, Method, PartitionMode, PartitionPlan, RootSelection, Schedule,
    TraversalMode,
};
use bc_gpusim::{DeviceConfig, FaultHook, SimError};
use bc_graph::stats::RootCostEstimator;
use bc_graph::Csr;
use bc_metrics::{ClusterMetrics, ClusterMetricsSummary, GpuTimeline};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread;

/// Transmissions attempted per reduce-tree level before the run is
/// declared unreducible.
const REDUCE_ATTEMPT_CAP: u32 = 64;

/// A cluster of identical nodes, each hosting `gpus_per_node`
/// identical GPUs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// GPUs per node (Keeneland: 3).
    pub gpus_per_node: usize,
    /// Per-GPU device model.
    pub device: DeviceConfig,
    /// Interconnect model.
    pub network: NetworkConfig,
    /// BC method every GPU runs.
    pub method: Method,
    /// Forward-sweep direction every GPU uses (the per-root search
    /// is identical on every GPU, so the cluster result stays
    /// bitwise identical in every mode).
    pub traversal: TraversalMode,
    /// How roots are assigned to GPUs. [`Schedule::Static`] keeps the
    /// historical strided (round-robin) layout; the dynamic schedules
    /// plan the assignment from per-root cost estimates. Assignment is
    /// all that changes — the root-ordered merge keeps the scores
    /// bitwise identical under every schedule, and the [`FaultPlan`]
    /// replay stays exact because planning happens before any worker
    /// spawns.
    pub schedule: Schedule,
}

impl ClusterConfig {
    /// A Keeneland-like cluster of `nodes` nodes (3× Tesla M2090
    /// each) running the sampling method — the paper's multi-node
    /// configuration.
    pub fn keeneland(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            gpus_per_node: 3,
            device: DeviceConfig::tesla_m2090(),
            network: NetworkConfig::keeneland(),
            method: Method::Sampling(Default::default()),
            traversal: TraversalMode::Push,
            schedule: Schedule::Static,
        }
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }
}

/// Result of a cluster run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterRun {
    /// Accumulated BC contributions from all processed roots, merged
    /// in global root order.
    pub scores: Vec<f64>,
    /// Timing and work breakdown.
    pub report: ClusterReport,
}

/// Timing breakdown of a cluster run, extrapolated to the full
/// exact-BC computation (all `n` roots).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Nodes used.
    pub nodes: usize,
    /// Total GPUs used.
    pub gpus: usize,
    /// Graph vertices.
    pub vertices: usize,
    /// Graph undirected edges.
    pub edges: u64,
    /// Sampled roots actually completed.
    pub roots_sampled: usize,
    /// Extrapolated busy time of each GPU (compute plus its share of
    /// fault penalties: backoff, reassignment, straggling).
    pub gpu_seconds: Vec<f64>,
    /// Slowest GPU including setup and result copy-back.
    pub compute_seconds: f64,
    /// The final cross-node reduction, retransmissions included.
    pub reduce_seconds: f64,
    /// End-to-end time for the full exact computation.
    pub total_seconds: f64,
    /// TEPS_BC at cluster scale (Table IV's metric).
    pub teps: f64,
    /// What the fault layer injected and recovered from (all zeros on
    /// a fault-free run).
    pub faults: FaultCounters,
    /// FNV-1a checksum of the final scores — the integrity tag each
    /// rank attaches to its reduce message.
    pub checksum: u64,
    /// Aggregated per-GPU phase metrics when the run was metered
    /// ([`run_cluster_durable_metered`]); `None` — and zero
    /// bookkeeping — on plain runs.
    pub metrics: Option<ClusterMetricsSummary>,
    /// What the graceful-degradation ladder did to keep the run
    /// alive (out-of-core partitioning, or the sampled-approximation
    /// fallback under [`DurabilityOptions::degrade`]); `None` when
    /// the run completed exactly as requested.
    pub degradation: Option<Degradation>,
}

impl ClusterReport {
    /// TEPS in billions.
    pub fn gteps(&self) -> f64 {
        self.teps / 1e9
    }
}

/// Durability knobs for a cluster run: checkpoint/restart, watchdog
/// deadlines, and the graceful-degradation ladder. The default (no
/// checkpoint, no deadline, no degradation) reproduces the historical
/// behavior exactly.
#[derive(Clone, Debug, Default)]
pub struct DurabilityOptions {
    /// Stream completed per-root contributions to this directory and
    /// resume from whatever a previous (interrupted) run left there.
    /// The directory's manifest pins the graph digest and an options
    /// fingerprint; a mismatched resume is rejected with
    /// [`ClusterError::Checkpoint`].
    pub checkpoint: Option<PathBuf>,
    /// Per-root deadline budget as a multiple (≥ 1) of the root's
    /// estimated time. GPUs that would blow every deadline (hung
    /// stragglers) have their roots cancelled and migrated to healthy
    /// GPUs instead of being awaited; each cancelled root still burns
    /// its full deadline budget on the hung GPU's clock.
    pub deadline_factor: Option<f64>,
    /// Engage the sampled-approximation rung of the degradation
    /// ladder: when even out-of-core partitioning cannot fit the
    /// requested method, fall back to the leanest method that fits
    /// and approximate from at most
    /// [`DEGRADED_SAMPLE_SOURCES`] sources instead of
    /// rejecting the run.
    pub degrade: bool,
}

/// One scheduled visit of a root on a GPU: `attempts` hook
/// consultations, the last of which succeeds iff `executes`.
#[derive(Clone, Debug)]
struct Task {
    /// Global index into the resolved root list (the merge key).
    idx: usize,
    root: u32,
    attempts: u32,
    executes: bool,
    /// The process dies before this task runs (seeded kill point);
    /// the worker skips it entirely.
    killed: bool,
}

/// Everything one GPU will do, decided before any worker spawns.
#[derive(Clone, Debug, Default)]
struct GpuSchedule {
    tasks: Vec<Task>,
    /// Reassignment events charged to this GPU (adopting a dead
    /// GPU's orphans, or receiving a migrated root).
    adoptions: u32,
}

/// The fully precomputed, deterministic execution schedule.
struct ExecutionSchedule {
    per_gpu: Vec<GpuSchedule>,
    dead: Vec<usize>,
    /// Per global root index: will this root complete somewhere?
    expected: Vec<bool>,
    /// First root (in scheduling order) that exhausted its budget on
    /// every surviving GPU: `(root, gpus_tried, last_error)`.
    failed: Option<(u32, usize, String)>,
    reassigned_roots: u64,
    /// Roots cut off by the seeded kill point (they never run; the
    /// run surfaces as [`ClusterError::ProcessKilled`]).
    killed_roots: usize,
    /// Roots the watchdog cancelled off deadline-blowing GPUs.
    watchdog_cancelled: u64,
    /// Per GPU: summed estimator-normalized weight of the roots the
    /// watchdog cancelled there — each burned `deadline_factor ×`
    /// its expected time before cancellation.
    cancelled_weight: Vec<f64>,
}

/// The mutable state threaded through schedule construction: the
/// per-GPU task lists plus the round-robin migration cursor and the
/// reassignment counter.
struct Placer<'a> {
    plan: &'a FaultPlan,
    alive: &'a [usize],
    per_gpu: Vec<GpuSchedule>,
    cursor: usize,
    reassigned: u64,
}

impl Placer<'_> {
    /// Simulate one root's attempt/migration trajectory starting on
    /// `start_gpu`; record every visit in the schedule. `Err` means
    /// the root failed on every GPU it could reach.
    fn place_root(
        &mut self,
        start_gpu: usize,
        idx: usize,
        root: u32,
    ) -> Result<(), (usize, String)> {
        let plan = self.plan;
        let mut tried: Vec<usize> = Vec::new();
        let mut current = start_gpu;
        loop {
            let success = (1..=plan.max_attempts)
                .find(|&attempt| plan.attempt_fault(current, root, attempt).is_none());
            if let Some(attempt) = success {
                self.per_gpu[current].tasks.push(Task {
                    idx,
                    root,
                    attempts: attempt,
                    executes: true,
                    killed: false,
                });
                return Ok(());
            }
            self.per_gpu[current].tasks.push(Task {
                idx,
                root,
                attempts: plan.max_attempts,
                executes: false,
                killed: false,
            });
            tried.push(current);
            let next = (0..self.alive.len())
                .map(|k| self.alive[(self.cursor + k) % self.alive.len().max(1)])
                .find(|g| !tried.contains(g));
            match next {
                Some(gpu) => {
                    self.cursor += 1;
                    self.reassigned += 1;
                    self.per_gpu[gpu].adoptions += 1;
                    current = gpu;
                }
                None => {
                    let last = match plan.attempt_fault(current, root, plan.max_attempts) {
                        Some(FaultKind::Panic) => format!("injected worker panic on gpu {current}"),
                        Some(FaultKind::Oom) => {
                            format!("injected allocator fault on gpu {current}")
                        }
                        _ => format!("injected transient fault on gpu {current}"),
                    };
                    return Err((tried.len(), last));
                }
            }
        }
    }
}

/// Decide which GPU initially owns each root, before faults are
/// layered on. [`Schedule::Static`] reproduces the historical strided
/// assignment (`root i → GPU i mod gpus`) byte for byte; the dynamic
/// schedules estimate per-root cost with [`RootCostEstimator`] and
/// plan via [`plan_assignment`], so skewed root mixes spread by work
/// rather than by count. Purely a function of `(g, roots, gpus,
/// schedule)` — the [`FaultPlan`] replay depends on it being
/// deterministic.
fn initial_assignment(
    g: &Csr,
    roots: &[u32],
    gpus: usize,
    schedule: Schedule,
) -> Vec<Vec<(usize, u32)>> {
    let mut initial: Vec<Vec<(usize, u32)>> = vec![Vec::new(); gpus];
    if schedule == Schedule::Static || gpus <= 1 {
        for (i, &r) in roots.iter().enumerate() {
            initial[i % gpus].push((i, r));
        }
        return initial;
    }
    let est = RootCostEstimator::new(g, 2);
    let costs: Vec<f64> = roots.iter().map(|&r| est.estimate(r)).collect();
    for (gpu, idxs) in plan_assignment(&costs, gpus, schedule)
        .into_iter()
        .enumerate()
    {
        for i in idxs {
            initial[gpu].push((i, roots[i]));
        }
    }
    initial
}

/// Precompute the whole run: initial cost-planned assignment,
/// watchdog cancellations, death points, orphan adoption, every
/// retry/migration trajectory, and the kill point. `done` marks roots
/// a checkpoint already holds — they are never placed. Purely a
/// function of its arguments, like everything else in the schedule.
fn build_schedule(
    g: &Csr,
    roots: &[u32],
    gpus: usize,
    plan: &FaultPlan,
    schedule: Schedule,
    done: &[bool],
    deadline_factor: Option<f64>,
) -> ExecutionSchedule {
    let mut dead: Vec<usize> = plan
        .dead_gpus
        .iter()
        .copied()
        .filter(|&g| g < gpus)
        .collect();
    dead.sort_unstable();
    dead.dedup();
    let alive_all: Vec<usize> = (0..gpus).filter(|g| !dead.contains(g)).collect();

    // Watchdog pre-pass: a GPU whose slowdown exceeds the deadline
    // factor would blow the per-root budget on every root it owns, so
    // the watchdog cancels its whole share up front — provided a
    // healthy GPU exists to migrate to (if every survivor is hung,
    // awaiting them is the only option left).
    let blown: Vec<usize> = match deadline_factor {
        Some(f) => alive_all
            .iter()
            .copied()
            .filter(|&gpu| plan.deadline_exceeded(gpu, f))
            .collect(),
        None => Vec::new(),
    };
    let watchdog_active = !blown.is_empty() && blown.len() < alive_all.len();
    let alive: Vec<usize> = if watchdog_active {
        alive_all
            .iter()
            .copied()
            .filter(|g| !blown.contains(g))
            .collect()
    } else {
        alive_all
    };

    let mut initial = initial_assignment(g, roots, gpus, schedule);
    if done.iter().any(|&d| d) {
        for list in &mut initial {
            list.retain(|&(idx, _)| !done.get(idx).copied().unwrap_or(false));
        }
    }

    let mut watchdog_cancelled = 0u64;
    let mut cancelled_weight = vec![0.0f64; gpus];
    if watchdog_active {
        // Each cancelled root burned `factor ×` its expected time on
        // the hung GPU before the watchdog fired; weight that burn by
        // the root's estimated cost relative to the run's mean.
        let est = RootCostEstimator::new(g, 2);
        let mean = if roots.is_empty() {
            1.0
        } else {
            let sum: f64 = roots.iter().map(|&r| est.estimate(r)).sum();
            (sum / roots.len() as f64).max(f64::MIN_POSITIVE)
        };
        let mut cursor = 0usize;
        for &hung in &blown {
            let moved = std::mem::take(&mut initial[hung]);
            for (idx, root) in moved {
                watchdog_cancelled += 1;
                cancelled_weight[hung] += est.estimate(root) / mean;
                let target = alive[cursor % alive.len()];
                cursor += 1;
                initial[target].push((idx, root));
            }
        }
    }

    let mut placer = Placer {
        plan,
        alive: &alive,
        per_gpu: vec![GpuSchedule::default(); gpus],
        cursor: 0,
        reassigned: 0,
    };
    let mut expected = vec![false; roots.len()];
    let mut failed: Option<(u32, usize, String)> = None;
    // Orphans of each dead GPU, gathered in (dead-gpu, local) order.
    let mut orphans: Vec<(usize, Vec<(usize, u32)>)> = Vec::new();

    for (gpu, list) in initial.into_iter().enumerate() {
        let keep = plan.death_point(gpu, list.len()).unwrap_or(list.len());
        for (j, (idx, root)) in list.into_iter().enumerate() {
            if j < keep {
                match placer.place_root(gpu, idx, root) {
                    Ok(()) => expected[idx] = true,
                    Err((tried, last)) => {
                        failed.get_or_insert((root, tried, last));
                    }
                }
            } else {
                match orphans.last_mut() {
                    Some((g, bucket)) if *g == gpu => bucket.push((idx, root)),
                    _ => orphans.push((gpu, vec![(idx, root)])),
                }
            }
        }
    }

    // Round-robin the orphans over the survivors. Re-setup + graph
    // re-upload is charged once per (survivor, dead GPU) adoption,
    // not once per root: the survivor re-establishes a context for
    // the dead GPU's workload a single time.
    let mut adopted = vec![vec![false; orphans.len()]; gpus];
    for (bucket_i, (_, bucket)) in orphans.into_iter().enumerate() {
        for (idx, root) in bucket {
            if alive.is_empty() {
                continue; // nobody left; surfaced as AllGpusLost
            }
            let target = alive[placer.cursor % alive.len()];
            placer.cursor += 1;
            placer.reassigned += 1;
            if !adopted[target][bucket_i] {
                adopted[target][bucket_i] = true;
                placer.per_gpu[target].adoptions += 1;
            }
            match placer.place_root(target, idx, root) {
                Ok(()) => expected[idx] = true,
                Err((tried, last)) => {
                    failed.get_or_insert((root, tried, last));
                }
            }
        }
    }

    // Seeded kill point: the process dies after a fixed fraction of
    // the executing roots (in global root order) complete. Later
    // roots never run; their tasks stay in the schedule flagged
    // `killed` so workers skip them, and `expected` is cleared so the
    // merger does not wait for them.
    let mut killed_roots = 0usize;
    if plan.kill_fraction.is_some() {
        let executing: Vec<usize> = (0..expected.len()).filter(|&i| expected[i]).collect();
        let keep = plan.kill_point(executing.len()).unwrap_or(executing.len());
        for &idx in &executing[keep..] {
            expected[idx] = false;
            killed_roots += 1;
            for gpu_sched in &mut placer.per_gpu {
                for task in &mut gpu_sched.tasks {
                    if task.idx == idx {
                        task.killed = true;
                    }
                }
            }
        }
    }

    ExecutionSchedule {
        per_gpu: placer.per_gpu,
        dead,
        expected,
        failed,
        reassigned_roots: placer.reassigned,
        killed_roots,
        watchdog_cancelled,
        cancelled_weight,
    }
}

/// Merges per-root score contributions into the final vector in
/// **global root order**, regardless of which GPU finished which root
/// when — the invariant that keeps faulted scores bitwise identical
/// to fault-free ones.
struct RootMerger {
    state: Mutex<MergerState>,
}

struct MergerState {
    next: usize,
    expected: Vec<bool>,
    pending: BTreeMap<usize, Vec<f64>>,
    scores: Vec<f64>,
}

impl RootMerger {
    fn new(n: usize, expected: Vec<bool>) -> Self {
        RootMerger {
            state: Mutex::new(MergerState {
                next: 0,
                expected,
                pending: BTreeMap::new(),
                scores: vec![0.0; n],
            }),
        }
    }

    /// Hand in root `idx`'s contribution; drains every contiguously
    /// available root so pending stays O(GPUs) in the steady state.
    fn deposit(&self, idx: usize, contribution: Vec<f64>) {
        let mut s = self.state.lock().expect("root merger poisoned");
        s.pending.insert(idx, contribution);
        loop {
            let next = s.next;
            if next >= s.expected.len() {
                break;
            }
            if !s.expected[next] {
                s.next += 1;
                continue;
            }
            let Some(v) = s.pending.remove(&next) else {
                break;
            };
            for (dst, src) in s.scores.iter_mut().zip(&v) {
                *dst += *src;
            }
            s.next += 1;
        }
    }

    /// Final scores; any stragglers left pending (possible only on
    /// error paths) merge in ascending root order.
    fn finish(self) -> Vec<f64> {
        let mut s = self.state.into_inner().expect("root merger poisoned");
        let pending = std::mem::take(&mut s.pending);
        for (_, v) in pending {
            for (dst, src) in s.scores.iter_mut().zip(&v) {
                *dst += *src;
            }
        }
        s.scores
    }
}

/// What one GPU worker reports back.
#[derive(Default)]
struct WorkerOut {
    done: usize,
    block_seconds: f64,
    backoff_seconds: f64,
    transient: u64,
    oom: u64,
    panics: u64,
    retries: u64,
    /// A *genuine* panic (not an injected one) that aborted this
    /// worker.
    fatal: Option<String>,
    /// An error the engine returned for one of this worker's roots
    /// (a σ overflow, say); it aborted the worker.
    error: Option<SimError>,
}

/// Run exact BC on the cluster without fault injection, simulating
/// `sample_roots` roots per the usual extrapolation (§IV-C: per-root
/// cost is uniform within a component, so `k` roots cost `k×` one
/// root).
pub fn run_cluster(
    g: &Csr,
    cfg: &ClusterConfig,
    sample_roots: usize,
) -> Result<ClusterRun, ClusterError> {
    run_cluster_with_faults(g, cfg, sample_roots, &FaultPlan::none())
}

/// Run exact BC on the cluster under a deterministic fault plan.
///
/// Any *recoverable* plan returns scores bitwise identical to the
/// fault-free run — faults reshuffle which GPU computes which root
/// and stretch the simulated clock, but the root-ordered merge pins
/// the arithmetic. Unrecoverable plans return a structured
/// [`ClusterError`] carrying the partial result; no injected fault
/// ever escapes as a panic.
pub fn run_cluster_with_faults(
    g: &Csr,
    cfg: &ClusterConfig,
    sample_roots: usize,
    plan: &FaultPlan,
) -> Result<ClusterRun, ClusterError> {
    run_cluster_inner(
        g,
        cfg,
        sample_roots,
        plan,
        false,
        &DurabilityOptions::default(),
    )
    .map(|(run, _)| run)
}

/// The description a checkpoint directory's options fingerprint is
/// taken over: everything that decides a stored root's bits. It ends
/// with [`DELTA_DEFINITION`], so a directory written by a build whose
/// backward sweep summed δ differently is refused, not resumed into
/// scores that match neither build.
fn checkpoint_description(
    method: &Method,
    cfg: &ClusterConfig,
    roots: usize,
    partition: PartitionMode,
) -> String {
    format!(
        "method={} traversal={:?} schedule={} nodes={} gpus-per-node={} device={} \
         roots={} partition={:?} {}",
        method.name(),
        cfg.traversal,
        cfg.schedule.name(),
        cfg.nodes,
        cfg.gpus_per_node,
        cfg.device.name,
        roots,
        partition,
        DELTA_DEFINITION,
    )
}

/// [`run_cluster_with_faults`] with the durability layer engaged:
/// checkpoint/restart, watchdog deadlines, and the
/// graceful-degradation ladder per [`DurabilityOptions`].
///
/// With a checkpoint directory attached, completed per-root
/// contributions stream to disk as they finish; a rerun of the same
/// configuration against the same directory validates the manifest's
/// graph digest and options fingerprint, skips the completed roots,
/// and merges stored with fresh contributions through the same
/// root-ordered merge — so an interrupted-then-resumed run is bitwise
/// identical to an uninterrupted one.
pub fn run_cluster_durable(
    g: &Csr,
    cfg: &ClusterConfig,
    sample_roots: usize,
    plan: &FaultPlan,
    durability: &DurabilityOptions,
) -> Result<ClusterRun, ClusterError> {
    run_cluster_inner(g, cfg, sample_roots, plan, false, durability).map(|(run, _)| run)
}

/// [`run_cluster_durable`] with per-GPU phase metrics.
///
/// Every [`GpuTimeline`] field is a duration or count the runner
/// already computes while assembling the timing model, so metering a
/// cluster run cannot change its scores or its clock: the run is
/// bitwise identical to the unmetered one. The aggregated
/// [`ClusterMetricsSummary`] is also embedded in the returned
/// [`ClusterReport`] (`report.metrics`).
pub fn run_cluster_durable_metered(
    g: &Csr,
    cfg: &ClusterConfig,
    sample_roots: usize,
    plan: &FaultPlan,
    durability: &DurabilityOptions,
) -> Result<(ClusterRun, ClusterMetrics), ClusterError> {
    run_cluster_inner(g, cfg, sample_roots, plan, true, durability)
        .map(|(run, m)| (run, m.expect("metered cluster run yields metrics")))
}

/// The structured pre-flight memory rejection: one required-vs-
/// available diagnostic per GPU (the graph is replicated, so every
/// GPU shows the same arithmetic).
fn insufficient_memory(
    method: &Method,
    gpus: usize,
    required: u64,
    available: u64,
) -> ClusterError {
    ClusterError::InsufficientMemory {
        method: method.name().to_owned(),
        diagnostics: (0..gpus)
            .map(|gpu| GpuMemoryDiagnostic {
                gpu,
                required_bytes: required,
                available_bytes: available,
            })
            .collect(),
    }
}

fn run_cluster_inner(
    g: &Csr,
    cfg: &ClusterConfig,
    sample_roots: usize,
    plan: &FaultPlan,
    metered: bool,
    durability: &DurabilityOptions,
) -> Result<(ClusterRun, Option<ClusterMetrics>), ClusterError> {
    let n = g.num_vertices();
    let gpus = cfg.total_gpus();
    if gpus == 0 {
        return Err(ClusterError::InvalidConfig {
            what: format!(
                "cluster must have at least one GPU ({} node(s) x {} GPU(s)/node)",
                cfg.nodes, cfg.gpus_per_node
            ),
        });
    }
    if let Err(what) = plan.validate() {
        return Err(ClusterError::InvalidConfig { what });
    }
    if let Some(f) = durability.deadline_factor {
        if !f.is_finite() || f < 1.0 {
            return Err(ClusterError::InvalidConfig {
                what: format!("deadline factor must be a finite multiple >= 1, got {f}"),
            });
        }
    }

    // Pre-flight device-memory check and the graceful-degradation
    // ladder. The graph is replicated, so a method whose footprint
    // exceeds one GPU exceeds every GPU. Rung 1: an oversized *CSR*
    // is recoverable — every GPU streams vertex-range slices
    // out-of-core ([`PartitionMode::Auto`]) and pays the swap
    // surcharge. Oversized *local* state is not (GPU-FAN's O(n²)
    // predecessor matrix gains nothing from streaming the graph), so
    // rung 2 — only under [`DurabilityOptions::degrade`] — swaps to
    // the leanest method that fits and approximates from a bounded
    // sample instead of rejecting outright.
    let graph_bytes = footprint::graph_bytes(g);
    let available = cfg.device.global_mem_bytes;
    // How a given method fits on the device: resident, partitioned
    // (with slice count), or not at all.
    let try_fit = |method: &Method| -> Option<(PartitionMode, Option<usize>)> {
        let local = method.local_bytes(g, &cfg.device);
        if graph_bytes + local <= available {
            return Some((PartitionMode::Off, None));
        }
        PartitionPlan::plan(g, available.saturating_sub(local))
            .map(|p| (PartitionMode::Auto, Some(p.num_slices())))
    };
    let mut effective_method = cfg.method.clone();
    let mut sampled = false;
    let fit = match try_fit(&cfg.method) {
        Some(fit) => fit,
        None if durability.degrade => {
            let leaner = [
                Method::WorkEfficient,
                Method::EdgeParallel,
                Method::VertexParallel,
            ]
            .into_iter()
            .filter(|m| m.name() != cfg.method.name())
            .find_map(|m| try_fit(&m).map(|fit| (m, fit)));
            match leaner {
                Some((m, fit)) => {
                    effective_method = m;
                    sampled = true;
                    fit
                }
                None => {
                    let required = graph_bytes + cfg.method.local_bytes(g, &cfg.device);
                    return Err(insufficient_memory(&cfg.method, gpus, required, available));
                }
            }
        }
        None => {
            let required = graph_bytes + cfg.method.local_bytes(g, &cfg.device);
            return Err(insufficient_memory(&cfg.method, gpus, required, available));
        }
    };
    let (partition, slices) = fit;
    let mut degradation = slices.map(|slices| Degradation::Partitioned { slices });

    // Rung 2 caps the root sample: approximation from at most
    // `DEGRADED_SAMPLE_SOURCES` sources, scaled back to exact-BC
    // magnitude by n/k (the usual sampling estimator).
    let roots_budget = if sampled {
        sample_roots.min(DEGRADED_SAMPLE_SOURCES)
    } else {
        sample_roots
    };
    let roots = RootSelection::Strided(roots_budget.min(n)).resolve(n);
    if sampled {
        degradation = Some(Degradation::Sampled {
            method: effective_method.name().to_owned(),
            sources: roots.len(),
            error_bound: error_bound(n, roots.len(), 0.1),
        });
    }

    // Checkpoint store: open (or resume) the directory, pinned to
    // this exact graph and configuration.
    let store = match &durability.checkpoint {
        Some(dir) => {
            let desc = checkpoint_description(&effective_method, cfg, roots.len(), partition);
            Some(
                CheckpointStore::open(
                    dir,
                    options_fingerprint(&desc),
                    graph_digest(g),
                    n,
                    roots.len(),
                )
                .map_err(|source| ClusterError::Checkpoint { source })?,
            )
        }
        None => None,
    };
    let done = store
        .as_ref()
        .map(CheckpointStore::completed)
        .unwrap_or_else(|| vec![false; roots.len()]);

    let schedule = build_schedule(
        g,
        &roots,
        gpus,
        plan,
        cfg.schedule,
        &done,
        durability.deadline_factor,
    );
    // The merger expects every root the schedule will compute *plus*
    // every root the checkpoint already holds: stored contributions
    // preload below, and the root-ordered drain interleaves them with
    // fresh ones exactly as an uninterrupted run would.
    let mut expected = schedule.expected.clone();
    for (e, &d) in expected.iter_mut().zip(&done) {
        *e |= d;
    }
    let merger = RootMerger::new(n, expected);
    if let Some(store) = &store {
        for (idx, &d) in done.iter().enumerate() {
            if d {
                let scores = store
                    .load(idx)
                    .map_err(|source| ClusterError::Checkpoint { source })?;
                merger.deposit(idx, scores);
            }
        }
    }

    // Execute the precomputed schedule, one host thread per GPU. The
    // workers re-consult the (pure) plan through the bc_gpusim fault
    // hook so containment genuinely runs, but every outcome matches
    // what the scheduler already decided.
    let ckpt_err: Mutex<Option<CheckpointError>> = Mutex::new(None);
    let mut outs: Vec<WorkerOut> = thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .per_gpu
            .iter()
            .enumerate()
            .map(|(gpu, gpu_sched)| {
                let merger = &merger;
                let store = &store;
                let ckpt_err = &ckpt_err;
                let method = &effective_method;
                scope.spawn(move || -> WorkerOut {
                    let mut out = WorkerOut::default();
                    for task in &gpu_sched.tasks {
                        if task.killed {
                            // The seeded process death lands before
                            // this task; nothing of it runs.
                            continue;
                        }
                        let failed_attempts = if task.executes {
                            task.attempts - 1
                        } else {
                            task.attempts
                        };
                        for attempt in 1..=failed_attempts {
                            let hook = catch_unwind(AssertUnwindSafe(|| {
                                plan.before_attempt(gpu, task.root, attempt)
                            }));
                            match hook {
                                Ok(Ok(())) => {}
                                Ok(Err(SimError::OutOfMemory { .. })) => out.oom += 1,
                                Ok(Err(_)) => out.transient += 1,
                                Err(_) => out.panics += 1,
                            }
                            out.backoff_seconds += plan.backoff_seconds(attempt);
                            if attempt < failed_attempts || task.executes {
                                out.retries += 1;
                            }
                        }
                        if !task.executes {
                            continue;
                        }
                        let hook = catch_unwind(AssertUnwindSafe(|| {
                            plan.before_attempt(gpu, task.root, task.attempts)
                        }));
                        if !matches!(hook, Ok(Ok(()))) {
                            out.fatal = Some(format!(
                                "fault plan is not pure: attempt {} of root {} on gpu {gpu} \
                                 changed outcome between scheduling and execution",
                                task.attempts, task.root
                            ));
                            return out;
                        }
                        let opts = BcOptions {
                            device: cfg.device.clone(),
                            roots: RootSelection::Explicit(vec![task.root]),
                            normalize: false,
                            threads: 1,
                            traversal: cfg.traversal,
                            schedule: Schedule::Static,
                            partition,
                        };
                        match catch_unwind(AssertUnwindSafe(|| method.run(g, &opts))) {
                            Ok(Ok(run)) => {
                                out.block_seconds +=
                                    run.report.per_root_seconds.iter().sum::<f64>();
                                out.done += 1;
                                if let Some(store) = store {
                                    // Stream the contribution to disk
                                    // before merging; a write failure
                                    // is surfaced after the run (the
                                    // in-memory result is still good).
                                    if let Err(e) = store.record(task.idx, &run.scores) {
                                        let mut slot =
                                            ckpt_err.lock().expect("checkpoint error slot");
                                        slot.get_or_insert(e);
                                    }
                                }
                                merger.deposit(task.idx, run.scores);
                            }
                            Ok(Err(e)) => {
                                out.error = Some(e);
                                return out;
                            }
                            Err(payload) => {
                                out.fatal = Some(panic_message(payload));
                                return out;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => WorkerOut {
                    fatal: Some(panic_message(payload)),
                    ..WorkerOut::default()
                },
            })
            .collect()
    });

    // --- Assemble counters and the extrapolated timing model. ---
    let mut counters = FaultCounters {
        dead_gpus: schedule.dead.len() as u64,
        reassigned_roots: schedule.reassigned_roots,
        straggler_gpus: (0..gpus)
            .filter(|&gpu| plan.straggler_factor(gpu) > 1.0)
            .count() as u64,
        ..FaultCounters::default()
    };

    let sms = f64::from(cfg.device.num_sms);
    let total_done: usize = outs.iter().map(|o| o.done).sum();
    counters.watchdog_cancellations = schedule.watchdog_cancelled;
    // One mean sampled root, extrapolated to its share of the full
    // n-root computation — the unit a watchdog-cancelled root burns
    // `deadline_factor ×` of on the hung GPU's clock.
    let total_block: f64 = outs.iter().map(|o| o.block_seconds).sum();
    let unit_extrap = if total_done > 0 && !roots.is_empty() {
        total_block / total_done as f64 / sms * n as f64 / roots.len() as f64
    } else {
        0.0
    };
    let mut gpu_seconds = Vec::with_capacity(gpus);
    let mut timelines: Vec<GpuTimeline> = Vec::new();
    for (gpu, o) in outs.iter().enumerate() {
        counters.transient_faults += o.transient;
        counters.oom_faults += o.oom;
        counters.panics_contained += o.panics;
        counters.retries += o.retries;
        counters.backoff_seconds += o.backoff_seconds;
        // Extrapolation under redistribution: GPU g's share of the
        // full n-root run is proportional to the sampled roots it
        // actually completed, at its sampled mean per-root time.
        let base = if total_done > 0 {
            o.block_seconds * n as f64 / total_done as f64 / sms
        } else {
            0.0
        };
        let slowed = base * plan.straggler_factor(gpu);
        counters.straggler_seconds += slowed - base;
        let reassign =
            f64::from(schedule.per_gpu[gpu].adoptions) * cfg.network.reassign_seconds(graph_bytes);
        counters.reassign_seconds += reassign;
        let watchdog = durability.deadline_factor.unwrap_or(1.0)
            * schedule.cancelled_weight[gpu]
            * unit_extrap;
        counters.watchdog_seconds += watchdog;
        gpu_seconds.push(slowed + o.backoff_seconds + reassign + watchdog);
        if metered {
            // setup_seconds and reduce_seconds are priced below, once
            // the slowest GPU and the reduce tree are known.
            timelines.push(GpuTimeline {
                gpu,
                roots_done: o.done as u64,
                adoptions: u64::from(schedule.per_gpu[gpu].adoptions),
                retries: o.retries,
                setup_seconds: 0.0,
                compute_seconds: base,
                retry_seconds: o.backoff_seconds,
                migration_seconds: reassign,
                straggler_seconds: slowed - base,
                watchdog_seconds: watchdog,
                reduce_seconds: 0.0,
            });
        }
    }

    let score_bytes = n as u64 * 8;
    let per_gpu_overhead = cfg.network.setup_seconds + cfg.network.d2h_seconds(score_bytes);
    let compute_seconds = gpu_seconds.iter().fold(0.0f64, |a, &b| a.max(b)) + per_gpu_overhead;

    // Checksum-verified binomial-tree reduce: each level retransmits
    // until its message survives (a drop is noticed at the ack
    // timeout, a corruption on arrival), or gives up at the cap.
    let mut reduce_extra = 0.0;
    let mut reduce_failure: Option<(usize, u32)> = None;
    let depth_levels = if cfg.nodes <= 1 {
        0
    } else {
        (cfg.nodes as f64).log2().ceil() as usize
    };
    'levels: for depth in 0..depth_levels {
        let mut attempt = 1u32;
        loop {
            match plan.reduce_fault(depth, attempt) {
                None => break,
                Some(ReduceFault::Dropped) => {
                    counters.reduce_drops += 1;
                    reduce_extra += cfg.network.drop_retry_seconds(score_bytes);
                }
                Some(ReduceFault::Corrupted) => {
                    counters.reduce_corruptions += 1;
                    reduce_extra += cfg.network.corrupt_retry_seconds(score_bytes);
                }
            }
            attempt += 1;
            if attempt > REDUCE_ATTEMPT_CAP {
                reduce_failure = Some((depth, attempt - 1));
                break 'levels;
            }
        }
    }
    let reduce_seconds = cfg.network.reduce_seconds(cfg.nodes, score_bytes) + reduce_extra;
    counters.added_seconds = counters.backoff_seconds
        + counters.reassign_seconds
        + counters.straggler_seconds
        + counters.watchdog_seconds
        + reduce_extra;

    let total_seconds = compute_seconds + reduce_seconds;
    let teps = if total_seconds > 0.0 {
        g.num_undirected_edges() as f64 * n as f64 / total_seconds
    } else {
        0.0
    };

    let cluster_metrics = metered.then(|| {
        for t in &mut timelines {
            t.setup_seconds = per_gpu_overhead;
            t.reduce_seconds = reduce_seconds;
        }
        let summary = ClusterMetricsSummary::from_timelines(&timelines, schedule.dead.len() as u64);
        ClusterMetrics {
            per_gpu: std::mem::take(&mut timelines),
            summary,
        }
    });

    let mut scores = merger.finish();
    if sampled {
        // The sampling estimator: k sources stand in for all n, so
        // each accumulated contribution scales by n/k. Checkpoint
        // chunks store *unscaled* contributions, so a resumed run
        // rescales the stored and fresh parts identically.
        let scale = n as f64 / roots.len().max(1) as f64;
        for s in &mut scores {
            *s *= scale;
        }
    }
    let run = ClusterRun {
        report: ClusterReport {
            nodes: cfg.nodes,
            gpus,
            vertices: n,
            edges: g.num_undirected_edges(),
            roots_sampled: total_done,
            gpu_seconds,
            compute_seconds,
            reduce_seconds,
            total_seconds,
            teps,
            faults: counters,
            checksum: score_checksum(&scores),
            metrics: cluster_metrics.as_ref().map(|m| m.summary),
            degradation: degradation.clone(),
        },
        scores,
    };

    // --- Structured failure, most fundamental first. A genuine
    // worker failure outranks everything: it means results are
    // missing for a reason the fault model did not plan. ---
    if let Some((gpu, message)) = outs
        .iter()
        .enumerate()
        .find_map(|(gpu, o)| o.fatal.as_ref().map(|m| (gpu, m.clone())))
    {
        return Err(ClusterError::WorkerPanicked {
            gpu,
            message,
            partial: Box::new(run),
        });
    }
    if let Some((gpu, source)) = outs
        .iter_mut()
        .enumerate()
        .find_map(|(gpu, o)| o.error.take().map(|e| (gpu, e)))
    {
        return Err(ClusterError::Simulation {
            gpu,
            source,
            partial: Box::new(run),
        });
    }
    if let Some(source) = ckpt_err.into_inner().expect("checkpoint error slot") {
        return Err(ClusterError::Checkpoint { source });
    }
    if schedule.killed_roots > 0 {
        return Err(ClusterError::ProcessKilled {
            completed_roots: total_done,
            planned_roots: roots.len(),
            partial: Box::new(run),
        });
    }
    if schedule.dead.len() == gpus {
        return Err(ClusterError::AllGpusLost {
            dead: schedule.dead,
            completed_roots: total_done,
            partial: Box::new(run),
        });
    }
    if let Some((root, gpus_tried, last_error)) = schedule.failed {
        return Err(ClusterError::RootFailed {
            root,
            gpus_tried,
            last_error,
            partial: Box::new(run),
        });
    }
    if let Some((depth, attempts)) = reduce_failure {
        return Err(ClusterError::ReduceFailed {
            depth,
            attempts,
            partial: Box::new(run),
        });
    }
    Ok((run, cluster_metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_core::brandes;
    use bc_graph::gen;

    #[test]
    fn cluster_scores_match_sequential_when_all_roots_sampled() {
        let g = gen::watts_strogatz(300, 6, 0.1, 1);
        let cfg = ClusterConfig {
            method: Method::WorkEfficient,
            ..ClusterConfig::keeneland(2)
        };
        let run = run_cluster(&g, &cfg, 300).unwrap();
        let expect = brandes::betweenness(&g);
        for (i, (e, a)) in expect.iter().zip(&run.scores).enumerate() {
            assert!((e - a).abs() < 1e-7, "vertex {i}: {e} vs {a}");
        }
        assert_eq!(run.report.roots_sampled, 300);
        assert_eq!(run.report.gpus, 6);
        assert_eq!(run.report.faults, FaultCounters::default());
        assert_eq!(run.report.checksum, score_checksum(&run.scores));
    }

    #[test]
    fn sigma_overflow_is_a_typed_cluster_error() {
        // Root 0 of a 1,100-diamond chain overflows σ at depth 2048.
        let g = gen::diamond_chain(1100);
        let cfg = ClusterConfig {
            method: Method::WorkEfficient,
            ..ClusterConfig::keeneland(1)
        };
        match run_cluster(&g, &cfg, 4) {
            Err(ClusterError::Simulation {
                source: SimError::PathCountOverflow { depth: 2048, .. },
                partial,
                ..
            }) => assert!(partial.scores.iter().all(|s| s.is_finite())),
            other => panic!("expected a path-count overflow, got {other:?}"),
        }
    }

    #[test]
    fn more_nodes_scale_down_compute() {
        // Large enough that per-GPU work dwarfs setup (the paper
        // needs ≥ 2^18 vertices for near-linear speedup at 64 nodes;
        // 2^16 suffices at 8).
        let g = gen::triangulated_grid(256, 256, 3);
        let t1 = run_cluster(&g, &ClusterConfig::keeneland(1), 96).unwrap();
        let t8 = run_cluster(&g, &ClusterConfig::keeneland(8), 96).unwrap();
        let speedup = t1.report.total_seconds / t8.report.total_seconds;
        assert!(
            speedup > 5.0,
            "8 nodes should speed up near-linearly at this scale, got {speedup:.2}x"
        );
        assert!(
            speedup <= 8.5,
            "speedup cannot exceed node ratio, got {speedup:.2}x"
        );
    }

    #[test]
    fn tiny_problems_scale_poorly() {
        // Figure 6's other half: with too few roots per GPU, fixed
        // setup and reduction costs flatten the curve.
        let g = gen::triangulated_grid(48, 48, 3);
        let t1 = run_cluster(&g, &ClusterConfig::keeneland(1), 64).unwrap();
        let t8 = run_cluster(&g, &ClusterConfig::keeneland(8), 64).unwrap();
        let speedup = t1.report.total_seconds / t8.report.total_seconds;
        assert!(
            speedup < 4.0,
            "a 2.3k-vertex problem cannot scale to 24 GPUs, got {speedup:.2}x"
        );
    }

    #[test]
    fn reduce_cost_counted_only_for_multi_node() {
        let g = gen::grid(32, 32);
        let r1 = run_cluster(&g, &ClusterConfig::keeneland(1), 32).unwrap();
        let r4 = run_cluster(&g, &ClusterConfig::keeneland(4), 32).unwrap();
        assert_eq!(r1.report.reduce_seconds, 0.0);
        assert!(r4.report.reduce_seconds > 0.0);
    }

    #[test]
    fn more_gpus_than_samples_still_works() {
        let g = gen::grid(16, 16);
        let run = run_cluster(&g, &ClusterConfig::keeneland(8), 4).unwrap();
        assert_eq!(run.report.gpus, 24);
        assert!(run.report.gpu_seconds.iter().all(|t| t.is_finite()));
        assert!(run.report.total_seconds > 0.0);
    }

    #[test]
    fn cluster_runs_are_bitwise_deterministic() {
        // Root-order merge: repeated runs must agree to the last bit
        // even though worker completion order varies.
        let g = gen::watts_strogatz(300, 6, 0.1, 2);
        let cfg = ClusterConfig::keeneland(2);
        let a = run_cluster(&g, &cfg, 96).unwrap();
        let b = run_cluster(&g, &cfg, 96).unwrap();
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.report.total_seconds, b.report.total_seconds);
    }

    #[test]
    fn scores_are_bitwise_identical_across_node_counts() {
        // The merge runs in global root order no matter which GPU
        // computed which root, so even *different cluster shapes*
        // agree to the last bit.
        let g = gen::watts_strogatz(300, 6, 0.1, 5);
        let one = run_cluster(&g, &ClusterConfig::keeneland(1), 96).unwrap();
        for nodes in [2, 4, 8] {
            let r = run_cluster(&g, &ClusterConfig::keeneland(nodes), 96).unwrap();
            assert_eq!(one.scores, r.scores, "{nodes} nodes");
        }
    }

    #[test]
    fn auto_traversal_matches_push_across_node_counts() {
        // Direction optimization is per-root and purely local, so
        // the cluster scores stay bitwise equal to the push baseline
        // at any node count.
        let g = gen::watts_strogatz(300, 8, 0.1, 4);
        for nodes in [1, 2, 4] {
            let push = run_cluster(&g, &ClusterConfig::keeneland(nodes), 96).unwrap();
            let cfg = ClusterConfig {
                traversal: TraversalMode::Auto,
                ..ClusterConfig::keeneland(nodes)
            };
            let auto = run_cluster(&g, &cfg, 96).unwrap();
            assert_eq!(push.scores, auto.scores, "{nodes} nodes");
        }
    }

    #[test]
    fn oom_is_rejected_preflight() {
        // GPU-FAN's O(n^2) matrix exceeds 6 GB at n = 65k even on the
        // cluster (the graph is replicated, not partitioned). The
        // pre-flight check rejects it before any worker spawns, with
        // a per-GPU diagnosis.
        let g = gen::grid(256, 256);
        let cfg = ClusterConfig {
            method: Method::GpuFan,
            ..ClusterConfig::keeneland(2)
        };
        match run_cluster(&g, &cfg, 8) {
            Err(ClusterError::InsufficientMemory {
                method,
                diagnostics,
            }) => {
                assert_eq!(method, "gpu-fan");
                assert_eq!(diagnostics.len(), 6, "one diagnostic per GPU");
                for (i, d) in diagnostics.iter().enumerate() {
                    assert_eq!(d.gpu, i);
                    assert!(d.required_bytes > d.available_bytes);
                }
            }
            other => panic!("expected InsufficientMemory, got {other:?}"),
        }
    }

    #[test]
    fn oversized_csr_streams_through_partitioned_path_bitwise() {
        // A graph whose CSR does not fit beside the locals on the
        // configured device: the historical pre-flight rejected it;
        // now the runner slices the CSR out-of-core. Scores must stay
        // bitwise identical to a big-memory cluster, both fault-free
        // and under a recoverable fault plan.
        let g = gen::kronecker(12, 8, 5);
        let big = ClusterConfig {
            method: Method::WorkEfficient,
            ..ClusterConfig::keeneland(1)
        };
        let local = big.method.local_bytes(&g, &big.device);
        let small = ClusterConfig {
            device: DeviceConfig {
                global_mem_bytes: local + footprint::graph_bytes(&g) / 3,
                ..big.device.clone()
            },
            ..big.clone()
        };
        let reference = run_cluster(&g, &big, 32).unwrap();
        let clean = run_cluster(&g, &small, 32).unwrap();
        assert_eq!(reference.scores, clean.scores);
        assert_eq!(reference.report.checksum, clean.report.checksum);
        assert!(
            clean.report.total_seconds > reference.report.total_seconds,
            "slice swapping must cost simulated time"
        );
        let plan = FaultPlan {
            transient_rate: 0.2,
            panic_rate: 0.1,
            seed: 13,
            ..FaultPlan::none()
        };
        let faulted = run_cluster_with_faults(&g, &small, 32, &plan).unwrap();
        assert_eq!(clean.scores, faulted.scores);
        assert_eq!(clean.report.checksum, faulted.report.checksum);
    }

    #[test]
    fn oversized_locals_still_reject_on_preflight() {
        // Partitioning streams the *graph*; it cannot shrink per-run
        // local state, so a device too small for the locals alone
        // keeps the structured rejection.
        let g = gen::watts_strogatz(4096, 6, 0.1, 3);
        let cfg = ClusterConfig {
            method: Method::WorkEfficient,
            ..ClusterConfig::keeneland(1)
        };
        let local = cfg.method.local_bytes(&g, &cfg.device);
        let cfg = ClusterConfig {
            device: DeviceConfig {
                global_mem_bytes: local / 2,
                ..cfg.device.clone()
            },
            ..cfg
        };
        assert!(matches!(
            run_cluster(&g, &cfg, 8),
            Err(ClusterError::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn zero_gpus_is_a_structured_error() {
        let g = gen::path(8);
        let cfg = ClusterConfig {
            nodes: 0,
            ..ClusterConfig::keeneland(1)
        };
        assert!(matches!(
            run_cluster(&g, &cfg, 4),
            Err(ClusterError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn transient_faults_leave_scores_bitwise_identical() {
        let g = gen::watts_strogatz(200, 6, 0.1, 7);
        let cfg = ClusterConfig::keeneland(2);
        let clean = run_cluster(&g, &cfg, 64).unwrap();
        let plan = FaultPlan {
            transient_rate: 0.2,
            oom_rate: 0.05,
            seed: 11,
            ..FaultPlan::none()
        };
        let faulted = run_cluster_with_faults(&g, &cfg, 64, &plan).unwrap();
        assert_eq!(clean.scores, faulted.scores);
        assert_eq!(clean.report.checksum, faulted.report.checksum);
        assert!(faulted.report.faults.transient_faults > 0);
        assert!(faulted.report.faults.retries > 0);
        assert!(faulted.report.faults.backoff_seconds > 0.0);
        assert!(
            faulted.report.total_seconds > clean.report.total_seconds,
            "recovery must cost simulated time"
        );
    }

    #[test]
    fn dead_gpu_orphans_are_adopted_bitwise() {
        let g = gen::watts_strogatz(200, 6, 0.1, 8);
        let cfg = ClusterConfig::keeneland(2);
        let clean = run_cluster(&g, &cfg, 60).unwrap();
        let plan = FaultPlan {
            dead_gpus: vec![1, 4],
            death_fraction: 0.25,
            ..FaultPlan::none()
        };
        let faulted = run_cluster_with_faults(&g, &cfg, 60, &plan).unwrap();
        assert_eq!(clean.scores, faulted.scores);
        assert_eq!(faulted.report.faults.dead_gpus, 2);
        assert!(faulted.report.faults.reassigned_roots > 0);
        assert!(faulted.report.faults.reassign_seconds > 0.0);
        assert_eq!(faulted.report.roots_sampled, clean.report.roots_sampled);
    }

    #[test]
    fn injected_panics_are_contained_and_recovered() {
        let g = gen::watts_strogatz(200, 6, 0.1, 9);
        let cfg = ClusterConfig::keeneland(2);
        let clean = run_cluster(&g, &cfg, 48).unwrap();
        let plan = FaultPlan {
            panic_rate: 0.2,
            seed: 3,
            ..FaultPlan::none()
        };
        let faulted = run_cluster_with_faults(&g, &cfg, 48, &plan).unwrap();
        assert_eq!(clean.scores, faulted.scores);
        assert!(faulted.report.faults.panics_contained > 0);
    }

    #[test]
    fn stragglers_stretch_the_clock_not_the_scores() {
        let g = gen::watts_strogatz(200, 6, 0.1, 10);
        let cfg = ClusterConfig::keeneland(2);
        let clean = run_cluster(&g, &cfg, 48).unwrap();
        let plan = FaultPlan {
            straggler_gpus: vec![0],
            straggler_slowdown: 3.0,
            ..FaultPlan::none()
        };
        let faulted = run_cluster_with_faults(&g, &cfg, 48, &plan).unwrap();
        assert_eq!(clean.scores, faulted.scores);
        assert_eq!(faulted.report.faults.straggler_gpus, 1);
        assert!(faulted.report.faults.straggler_seconds > 0.0);
        assert!(faulted.report.total_seconds > clean.report.total_seconds);
    }

    #[test]
    fn reduce_faults_are_priced_and_scores_survive() {
        let g = gen::watts_strogatz(200, 6, 0.1, 12);
        let cfg = ClusterConfig::keeneland(4);
        let clean = run_cluster(&g, &cfg, 48).unwrap();
        let plan = FaultPlan {
            reduce_drop_rate: 0.6,
            reduce_corrupt_rate: 0.2,
            seed: 5,
            ..FaultPlan::none()
        };
        let faulted = run_cluster_with_faults(&g, &cfg, 48, &plan).unwrap();
        assert_eq!(clean.scores, faulted.scores);
        let f = &faulted.report.faults;
        assert!(f.reduce_drops + f.reduce_corruptions > 0);
        assert!(faulted.report.reduce_seconds > clean.report.reduce_seconds);
    }

    #[test]
    fn unreducible_plan_returns_partial() {
        let g = gen::grid(12, 12);
        let cfg = ClusterConfig::keeneland(2);
        let plan = FaultPlan {
            reduce_drop_rate: 1.0,
            ..FaultPlan::none()
        };
        match run_cluster_with_faults(&g, &cfg, 16, &plan) {
            Err(ClusterError::ReduceFailed { partial, .. }) => {
                let clean = run_cluster(&g, &cfg, 16).unwrap();
                assert_eq!(partial.scores, clean.scores, "node-local work completed");
            }
            other => panic!("expected ReduceFailed, got {other:?}"),
        }
    }

    #[test]
    fn all_gpus_lost_returns_partial() {
        let g = gen::watts_strogatz(200, 6, 0.1, 13);
        let cfg = ClusterConfig::keeneland(2);
        let plan = FaultPlan {
            dead_gpus: (0..6).collect(),
            death_fraction: 0.5,
            ..FaultPlan::none()
        };
        match run_cluster_with_faults(&g, &cfg, 48, &plan) {
            Err(e @ ClusterError::AllGpusLost { .. }) => {
                let ClusterError::AllGpusLost {
                    ref dead,
                    completed_roots,
                    ref partial,
                } = e
                else {
                    unreachable!()
                };
                assert_eq!(dead.len(), 6);
                assert!(completed_roots > 0, "half of each share completed");
                assert!(completed_roots < 48);
                assert!(partial.scores.iter().any(|&s| s > 0.0));
                assert_eq!(partial.report.roots_sampled, completed_roots);
                assert!(e.partial().is_some());
            }
            other => panic!("expected AllGpusLost, got {other:?}"),
        }
    }

    #[test]
    fn metered_cluster_run_is_bitwise_identical_and_accounted() {
        let g = gen::watts_strogatz(200, 6, 0.1, 15);
        let cfg = ClusterConfig::keeneland(2);
        let plan = FaultPlan {
            transient_rate: 0.15,
            dead_gpus: vec![1],
            death_fraction: 0.5,
            straggler_gpus: vec![0],
            straggler_slowdown: 2.0,
            ..FaultPlan::none()
        };
        let plain = run_cluster_with_faults(&g, &cfg, 48, &plan).unwrap();
        let (metered, metrics) =
            run_cluster_durable_metered(&g, &cfg, 48, &plan, &DurabilityOptions::default())
                .unwrap();

        // Metering is observation only: scores and every priced
        // second agree to the last bit.
        assert_eq!(plain.scores, metered.scores);
        assert_eq!(plain.report.total_seconds, metered.report.total_seconds);
        assert_eq!(plain.report.gpu_seconds, metered.report.gpu_seconds);
        assert_eq!(plain.report.faults, metered.report.faults);
        assert!(plain.report.metrics.is_none());

        // The timelines reconstruct the runner's own accounting.
        assert_eq!(metrics.per_gpu.len(), 6);
        let s = metered.report.metrics.expect("metered run embeds summary");
        assert_eq!(s.gpus, 6);
        assert_eq!(s.dead_gpus, 1);
        assert_eq!(s.roots_done, metered.report.roots_sampled as u64);
        assert_eq!(s.retries, metered.report.faults.retries);
        assert!((s.retry_seconds - metered.report.faults.backoff_seconds).abs() < 1e-12);
        assert!((s.migration_seconds - metered.report.faults.reassign_seconds).abs() < 1e-12);
        assert!((s.straggler_seconds - metered.report.faults.straggler_seconds).abs() < 1e-12);
        for (gpu, t) in metrics.per_gpu.iter().enumerate() {
            assert_eq!(t.gpu, gpu);
            let billed = t.compute_seconds
                + t.straggler_seconds
                + t.retry_seconds
                + t.migration_seconds
                + t.watchdog_seconds;
            assert!(
                (billed - metered.report.gpu_seconds[gpu]).abs() < 1e-12,
                "gpu {gpu}: timeline {billed} vs report {}",
                metered.report.gpu_seconds[gpu]
            );
        }
    }

    #[test]
    fn dynamic_schedules_keep_cluster_scores_bitwise_identical() {
        // Cost-planned assignment moves roots between GPUs, but the
        // root-ordered merge pins the arithmetic: every schedule
        // agrees with the strided baseline to the last bit, faulted
        // or not.
        let g = gen::watts_strogatz(300, 6, 0.1, 6);
        let base = run_cluster(&g, &ClusterConfig::keeneland(2), 96).unwrap();
        let plan = FaultPlan {
            transient_rate: 0.15,
            dead_gpus: vec![1],
            death_fraction: 0.5,
            seed: 17,
            ..FaultPlan::none()
        };
        for schedule in [Schedule::Guided, Schedule::WorkStealing] {
            let cfg = ClusterConfig {
                schedule,
                ..ClusterConfig::keeneland(2)
            };
            let clean = run_cluster(&g, &cfg, 96).unwrap();
            assert_eq!(base.scores, clean.scores, "{schedule} clean");
            assert_eq!(clean.report.roots_sampled, 96);
            let faulted = run_cluster_with_faults(&g, &cfg, 96, &plan).unwrap();
            assert_eq!(base.scores, faulted.scores, "{schedule} faulted");
            assert!(faulted.report.faults.reassigned_roots > 0);
        }
    }

    #[test]
    fn dynamic_schedules_balance_skewed_roots_across_gpus() {
        // Two components of very different depth: a long path (deep,
        // expensive searches) and a small-world blob (shallow, cheap).
        // Static round-robin ignores cost; the planned schedules put
        // roughly equal estimated work on each GPU, so no GPU gets
        // all of the expensive roots.
        let path: Vec<(u32, u32)> = (0..999u32).map(|i| (i, i + 1)).collect();
        let blob = gen::watts_strogatz(1000, 8, 0.1, 3);
        let blob_edges = blob
            .vertices()
            .flat_map(|u| blob.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
            .map(|(u, v)| (u + 1000, v + 1000));
        let edges = path.iter().copied().chain(blob_edges);
        let g = Csr::from_undirected_edges(2000, edges);
        let roots: Vec<u32> = (0..2000).step_by(125).map(|r| r as u32).collect();
        let est = RootCostEstimator::new(&g, 2);
        let costs: Vec<f64> = roots.iter().map(|&r| est.estimate(r)).collect();
        for schedule in [Schedule::Guided, Schedule::WorkStealing] {
            let initial = initial_assignment(&g, &roots, 4, schedule);
            let loads: Vec<f64> = initial
                .iter()
                .map(|list| list.iter().map(|&(i, _)| costs[i]).sum())
                .collect();
            let max = loads.iter().fold(0.0f64, |a, &b| a.max(b));
            let min = loads.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            assert!(
                max / min < 2.0,
                "{schedule}: planned loads should be near-even, got {loads:?}"
            );
            let total: usize = initial.iter().map(Vec::len).sum();
            assert_eq!(total, roots.len(), "{schedule}: every root assigned once");
        }
    }

    /// A fresh per-test checkpoint directory under the system temp
    /// dir, unique across concurrent test processes.
    fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bc-cluster-ckpt-{tag}-{}-{id}", std::process::id()))
    }

    #[test]
    fn killed_run_checkpoints_and_resume_is_bitwise_identical() {
        let g = gen::watts_strogatz(220, 6, 0.1, 23);
        let cfg = ClusterConfig::keeneland(2);
        let uninterrupted = run_cluster(&g, &cfg, 64).unwrap();

        let dir = temp_ckpt_dir("kill-resume");
        let durability = DurabilityOptions {
            checkpoint: Some(dir.clone()),
            ..DurabilityOptions::default()
        };
        let kill_plan = FaultPlan {
            kill_fraction: Some(0.5),
            transient_rate: 0.1,
            seed: 31,
            ..FaultPlan::none()
        };
        let killed = run_cluster_durable(&g, &cfg, 64, &kill_plan, &durability);
        let (completed, planned) = match killed {
            Err(ClusterError::ProcessKilled {
                completed_roots,
                planned_roots,
                ref partial,
            }) => {
                assert!(partial.scores.iter().any(|&s| s > 0.0));
                (completed_roots, planned_roots)
            }
            other => panic!("expected ProcessKilled, got {other:?}"),
        };
        assert_eq!(planned, 64);
        assert!(completed > 0 && completed < 64, "kill landed mid-run");

        // The rerun (the external killer gone, same recoverable
        // faults) resumes from the checkpoint: only the missing roots
        // compute, and the merged scores are bitwise identical to the
        // uninterrupted run.
        let resume_plan = FaultPlan {
            kill_fraction: None,
            ..kill_plan
        };
        let resumed = run_cluster_durable(&g, &cfg, 64, &resume_plan, &durability).unwrap();
        assert_eq!(uninterrupted.scores, resumed.scores);
        assert_eq!(uninterrupted.report.checksum, resumed.report.checksum);
        assert_eq!(
            resumed.report.roots_sampled,
            64 - completed,
            "resume recomputes only the missing roots"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_config_mismatch_is_rejected() {
        let g = gen::watts_strogatz(200, 6, 0.1, 24);
        let cfg = ClusterConfig::keeneland(1);
        let dir = temp_ckpt_dir("mismatch");
        let durability = DurabilityOptions {
            checkpoint: Some(dir.clone()),
            ..DurabilityOptions::default()
        };
        run_cluster_durable(&g, &cfg, 16, &FaultPlan::none(), &durability).unwrap();
        // Same directory, different traversal mode: the options
        // fingerprint pins the configuration, so resume refuses.
        let other = ClusterConfig {
            traversal: TraversalMode::Pull,
            ..cfg.clone()
        };
        match run_cluster_durable(&g, &other, 16, &FaultPlan::none(), &durability) {
            Err(ClusterError::Checkpoint { source }) => {
                assert!(format!("{source}").contains("fingerprint"), "{source}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
        // A different graph is likewise refused.
        let g2 = gen::watts_strogatz(200, 6, 0.1, 25);
        assert!(matches!(
            run_cluster_durable(&g2, &cfg, 16, &FaultPlan::none(), &durability),
            Err(ClusterError::Checkpoint { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory written before δ became an exact sum: same
        // configuration, but its description lacks the δ-definition
        // token. Its stored scores have other last bits, so resume
        // refuses it with the fingerprint error.
        let old = temp_ckpt_dir("old-delta");
        let desc = checkpoint_description(&cfg.method, &cfg, 16, PartitionMode::Off);
        let old_desc = desc
            .strip_suffix(&format!(" {DELTA_DEFINITION}"))
            .expect("the token ends the description");
        CheckpointStore::open(
            &old,
            options_fingerprint(old_desc),
            graph_digest(&g),
            200,
            16,
        )
        .unwrap();
        let durability = DurabilityOptions {
            checkpoint: Some(old.clone()),
            ..DurabilityOptions::default()
        };
        match run_cluster_durable(&g, &cfg, 16, &FaultPlan::none(), &durability) {
            Err(ClusterError::Checkpoint {
                source: CheckpointError::Mismatch { what, .. },
            }) => assert_eq!(what, "fingerprint"),
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
        // The current description resumes the same directory's shape.
        let _ = std::fs::remove_dir_all(&old);
        CheckpointStore::open(&old, options_fingerprint(&desc), graph_digest(&g), 200, 16).unwrap();
        run_cluster_durable(&g, &cfg, 16, &FaultPlan::none(), &durability).unwrap();
        let _ = std::fs::remove_dir_all(&old);
    }

    #[test]
    fn watchdog_cancels_hung_straggler_and_keeps_scores_bitwise() {
        let g = gen::watts_strogatz(220, 6, 0.1, 26);
        let cfg = ClusterConfig::keeneland(2);
        let clean = run_cluster(&g, &cfg, 48).unwrap();
        let plan = FaultPlan {
            straggler_gpus: vec![0],
            straggler_slowdown: 8.0,
            ..FaultPlan::none()
        };
        let durability = DurabilityOptions {
            deadline_factor: Some(3.0),
            ..DurabilityOptions::default()
        };
        let watched = run_cluster_durable(&g, &cfg, 48, &plan, &durability).unwrap();
        assert_eq!(clean.scores, watched.scores, "migration cannot move bits");
        let f = &watched.report.faults;
        assert!(f.watchdog_cancellations > 0, "hung GPU's share cancelled");
        assert!(f.watchdog_seconds > 0.0, "cancelled roots burn deadline");
        // The hung GPU computes nothing, so it cannot straggle.
        assert_eq!(f.straggler_seconds, 0.0);

        // A looser deadline tolerates the straggler: nothing cancels.
        let loose = DurabilityOptions {
            deadline_factor: Some(10.0),
            ..DurabilityOptions::default()
        };
        let tolerated = run_cluster_durable(&g, &cfg, 48, &plan, &loose).unwrap();
        assert_eq!(clean.scores, tolerated.scores);
        assert_eq!(tolerated.report.faults.watchdog_cancellations, 0);
        assert!(tolerated.report.faults.straggler_seconds > 0.0);
    }

    #[test]
    fn invalid_deadline_factor_is_rejected() {
        let g = gen::grid(8, 8);
        let cfg = ClusterConfig::keeneland(1);
        for bad in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let d = DurabilityOptions {
                deadline_factor: Some(bad),
                ..DurabilityOptions::default()
            };
            assert!(
                matches!(
                    run_cluster_durable(&g, &cfg, 4, &FaultPlan::none(), &d),
                    Err(ClusterError::InvalidConfig { .. })
                ),
                "deadline factor {bad} must be rejected"
            );
        }
    }

    #[test]
    fn partitioned_runs_record_the_degradation_decision() {
        let g = gen::kronecker(12, 8, 5);
        let big = ClusterConfig {
            method: Method::WorkEfficient,
            ..ClusterConfig::keeneland(1)
        };
        let local = big.method.local_bytes(&g, &big.device);
        let small = ClusterConfig {
            device: DeviceConfig {
                global_mem_bytes: local + footprint::graph_bytes(&g) / 3,
                ..big.device.clone()
            },
            ..big.clone()
        };
        let fit = run_cluster(&g, &big, 16).unwrap();
        assert_eq!(fit.report.degradation, None);
        let squeezed = run_cluster(&g, &small, 16).unwrap();
        match squeezed.report.degradation {
            Some(Degradation::Partitioned { slices }) => assert!(slices >= 2),
            ref other => panic!("expected Partitioned, got {other:?}"),
        }
        assert_eq!(fit.scores, squeezed.scores);
    }

    #[test]
    fn degradation_ladder_samples_when_partitioning_cannot_help() {
        // GPU-FAN's O(n²) locals cannot fit no matter how the graph
        // is sliced. Without the ladder: structured rejection. With
        // `degrade`: the leanest fitting method approximates from a
        // bounded sample, and the decision is on the report.
        let g = gen::grid(256, 256);
        let cfg = ClusterConfig {
            method: Method::GpuFan,
            ..ClusterConfig::keeneland(2)
        };
        assert!(matches!(
            run_cluster(&g, &cfg, 8),
            Err(ClusterError::InsufficientMemory { .. })
        ));
        let durability = DurabilityOptions {
            degrade: true,
            ..DurabilityOptions::default()
        };
        let run = run_cluster_durable(&g, &cfg, 8, &FaultPlan::none(), &durability).unwrap();
        match &run.report.degradation {
            Some(Degradation::Sampled {
                method,
                sources,
                error_bound,
            }) => {
                assert_eq!(method, "work-efficient");
                assert_eq!(*sources, 8);
                assert!(error_bound.is_finite() && *error_bound > 0.0);
            }
            other => panic!("expected Sampled, got {other:?}"),
        }
        assert!(run.scores.iter().any(|&s| s > 0.0));
    }

    #[test]
    fn faulted_runs_are_bitwise_deterministic() {
        let g = gen::watts_strogatz(200, 6, 0.1, 14);
        let cfg = ClusterConfig::keeneland(2);
        let plan = FaultPlan {
            transient_rate: 0.15,
            panic_rate: 0.05,
            dead_gpus: vec![2],
            death_fraction: 0.5,
            straggler_gpus: vec![0],
            straggler_slowdown: 2.0,
            reduce_drop_rate: 0.3,
            seed: 21,
            ..FaultPlan::none()
        };
        let a = run_cluster_with_faults(&g, &cfg, 48, &plan).unwrap();
        let b = run_cluster_with_faults(&g, &cfg, 48, &plan).unwrap();
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.report.total_seconds, b.report.total_seconds);
        assert_eq!(a.report.faults, b.report.faults);
    }
}
