//! The public entry point: pick a [`Method`], run it on a graph, get
//! exact BC scores plus a full simulation report.

use crate::brandes;
use crate::methods::cost::footprint;
use crate::methods::models::{
    DirectionOptimizingModel, EdgeParallelModel, GpuFanModel, HybridModel, HybridParams,
    SamplingParams, SamplingPhaseModel, TraversalMode, VertexParallelModel, WorkEfficientModel,
};
use crate::parallel::{self, ShardableCostModel};
use crate::schedule::Schedule;
use crate::teps;
use bc_gpusim::{coarse_grained_makespan, DeviceConfig, DeviceMemory, KernelCounters, SimError};
use bc_graph::{Csr, VertexId};
use bc_metrics::{HardwareSummary, MetricsSummary, RootMetrics, RunMetrics, WorkerMetrics};
use serde::{Deserialize, Serialize};

/// Roll the run-wide kernel counters up into the hardware summary a
/// metered report embeds.
fn hardware_summary(counters: &KernelCounters, device: &DeviceConfig) -> HardwareSummary {
    HardwareSummary {
        kernel_launches: counters.kernel_launches(),
        warp_steps: counters.warp_steps,
        warp_efficiency: counters.warp_efficiency(device),
        memory_transactions: counters.memory_transactions(device),
        atomics: counters.atomics,
        seconds: counters.seconds,
    }
}

/// One run's accumulators, filled phase by phase and closed by
/// [`PhaseRun::finish`]: the single skeleton behind [`Method::run`],
/// [`Method::run_metered`] and [`run_with_cost_model`].
///
/// Scores add elementwise across phases (they touch the same vector);
/// the per-root vectors and metric streams concatenate in phase order
/// — exactly the layout a sequential loop over the roots produces.
struct PhaseRun<'a, const METERED: bool> {
    g: &'a Csr,
    opts: &'a BcOptions,
    partition: Option<PartitionPlan>,
    scores: Vec<f64>,
    per_root_seconds: Vec<f64>,
    max_depths: Vec<u32>,
    counters: KernelCounters,
    /// Per-root metric records, in phase order (empty unmetered).
    metrics: Vec<RootMetrics>,
    /// Per-worker scheduling records, stamped with their phase index
    /// so multi-batch methods (Sampling) keep their batches apart.
    workers: Vec<WorkerMetrics>,
    phases: u64,
    strategy_iterations: Option<(u64, u64)>,
    traversal_iterations: Option<(u64, u64)>,
    sampling_chose_edge_parallel: Option<bool>,
}

impl<'a, const METERED: bool> PhaseRun<'a, METERED> {
    /// Memory pre-flight for a run whose local state takes
    /// `local_bytes`. When the CSR does not fit beside the local
    /// arrays and partitioning is enabled, cut the graph into resident
    /// slices instead of failing; only the largest slice occupies
    /// device memory at a time.
    fn new(g: &'a Csr, opts: &'a BcOptions, local_bytes: u64) -> Result<Self, SimError> {
        let capacity = opts.device.global_mem_bytes;
        let mut mem = DeviceMemory::new(capacity);
        let graph_bytes = footprint::graph_bytes(g);
        let partition = (opts.partition == PartitionMode::Auto
            && graph_bytes.saturating_add(local_bytes) > capacity)
            .then(|| PartitionPlan::plan(g, capacity.saturating_sub(local_bytes)))
            .flatten();
        match &partition {
            Some(plan) => {
                let _locals = mem.alloc(local_bytes, "per-run local arrays")?;
                let _resident = mem.alloc(plan.resident_bytes, "resident graph slice")?;
            }
            None => {
                let _graph = mem.alloc(graph_bytes, "graph CSR arrays")?;
                let _locals = mem.alloc(local_bytes, "per-run local arrays")?;
            }
        }
        Ok(PhaseRun {
            g,
            opts,
            partition,
            scores: vec![0.0; g.num_vertices()],
            per_root_seconds: Vec::new(),
            max_depths: Vec::new(),
            counters: KernelCounters::default(),
            metrics: Vec::new(),
            workers: Vec::new(),
            phases: 0,
            strategy_iterations: None,
            traversal_iterations: None,
            sampling_chose_edge_parallel: None,
        })
    }

    /// Run `roots` as the next sharded phase under `model` (the run's
    /// threads and [`Schedule`]) and append its results. The unmetered
    /// instantiation calls the plain runner, whose hooks compile out.
    fn phase<M: ShardableCostModel>(
        &mut self,
        roots: &[VertexId],
        model: &mut M,
    ) -> Result<(), SimError> {
        let (g, o) = (self.g, self.opts);
        let run = if METERED {
            let (run, metrics, mut workers) = parallel::run_roots_scheduled_metered(
                g, &o.device, roots, o.threads, o.schedule, model,
            )?;
            for w in &mut workers {
                w.phase = self.phases;
            }
            self.metrics.extend(metrics);
            self.workers.extend(workers);
            run
        } else {
            parallel::run_roots_scheduled(g, &o.device, roots, o.threads, o.schedule, model)?
        };
        self.phases += 1;
        for (dst, src) in self.scores.iter_mut().zip(&run.scores) {
            *dst += *src;
        }
        self.per_root_seconds
            .extend_from_slice(&run.per_root_seconds);
        self.max_depths.extend_from_slice(&run.max_depths);
        self.counters.merge(&run.counters);
        Ok(())
    }

    /// The shared epilogue: symmetric halving and normalization, the
    /// out-of-core surcharge, the makespan (summed per root when
    /// `fine_grained`), the full-graph extrapolation and TEPS, and the
    /// report — plus the metric streams when metered.
    fn finish(self, method: &str, fine_grained: bool) -> (BcRun, Option<RunMetrics>) {
        let PhaseRun {
            g,
            opts,
            partition,
            mut scores,
            mut per_root_seconds,
            max_depths,
            counters,
            metrics,
            workers,
            strategy_iterations,
            traversal_iterations,
            sampling_chose_edge_parallel,
            ..
        } = self;
        let n = g.num_vertices();
        let device = &opts.device;
        brandes::halve_if_symmetric(g, &mut scores);
        if opts.normalize {
            brandes::normalize(&mut scores, g.is_symmetric());
        }

        // Out-of-core surcharge: each launch of a partitioned root
        // streams the non-resident slices over the host link, so the
        // swap time lands on every root's block time (and through it
        // on the makespan and the full-graph extrapolation).
        if let Some(plan) = &partition {
            for (secs, &depth) in per_root_seconds.iter_mut().zip(&max_depths) {
                *secs += plan.root_swap_seconds(depth);
            }
        }

        let roots_processed = per_root_seconds.len();
        let device_seconds = if fine_grained {
            per_root_seconds.iter().sum()
        } else {
            coarse_grained_makespan(&per_root_seconds, device.num_sms)
        };
        let full_seconds = if roots_processed == 0 {
            0.0
        } else {
            device_seconds * n as f64 / roots_processed as f64
        };
        let teps = teps::teps_bc(g.num_undirected_edges(), n as u64, full_seconds);

        let run_metrics = METERED.then(|| {
            let summary = MetricsSummary::from_roots(&metrics, hardware_summary(&counters, device));
            RunMetrics {
                per_root: metrics,
                per_worker: workers,
                summary,
            }
        });
        let report = RunReport {
            method: method.to_owned(),
            device: device.name.clone(),
            vertices: n,
            edges: g.num_undirected_edges(),
            roots_processed,
            device_seconds,
            full_seconds,
            teps,
            counters,
            per_root_seconds,
            max_depths,
            strategy_iterations,
            traversal_iterations,
            sampling_chose_edge_parallel,
            metrics: run_metrics.as_ref().map(|m| m.summary),
            partition,
            degradation: None,
        };
        (BcRun { scores, report }, run_metrics)
    }
}

/// Effective host↔device link bandwidth used to price out-of-core
/// slice swaps (PCIe 3.0 x16 after protocol overhead): the transfer
/// cost that makes partitioned execution *possible* but visibly
/// slower than a resident graph, as any out-of-core scheme is.
const HOST_LINK_BYTES_PER_SEC: f64 = 12.0e9;

/// How a graph whose CSR plus local state exceeds one simulated
/// device's memory is handled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionMode {
    /// Fail the pre-flight with [`SimError::OutOfMemory`] — the
    /// historical behavior, and the honest answer for methods whose
    /// *local* state is the thing that explodes (GPU-FAN's O(n²)
    /// predecessor matrix gains nothing from streaming the graph).
    #[default]
    Off,
    /// Split the CSR into contiguous vertex-range slices
    /// ([`Csr::vertex_slices`]) that fit beside the local arrays and
    /// stream them through the device, one resident at a time. The
    /// functional search is unchanged — scores stay bitwise identical
    /// to a fully resident run — while every level pays to re-stream
    /// its non-resident slices over the host link.
    Auto,
}

/// The out-of-core execution plan: how the CSR was cut and what one
/// level's slice traffic costs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// Contiguous vertex ranges, one per slice, covering the graph.
    pub slices: Vec<(VertexId, VertexId)>,
    /// Device bytes of the largest slice (the resident set).
    pub resident_bytes: u64,
    /// Bytes re-streamed over the host link per kernel launch — every
    /// non-resident slice once.
    pub swap_bytes_per_level: u64,
}

impl PartitionPlan {
    /// Cut `g` for a device with `budget` graph bytes (capacity minus
    /// local arrays). Returns `None` when `budget` cannot hold even
    /// the largest single adjacency row, or when no cut is needed.
    pub fn plan(g: &Csr, budget: u64) -> Option<PartitionPlan> {
        let slices = g.vertex_slices(budget)?;
        if slices.len() < 2 {
            return None;
        }
        let resident_bytes = slices
            .iter()
            .map(|&(lo, hi)| g.slice_bytes(lo, hi))
            .max()
            .unwrap_or(0);
        let total: u64 = slices.iter().map(|&(lo, hi)| g.slice_bytes(lo, hi)).sum();
        PartitionPlan {
            swap_bytes_per_level: total - total / slices.len() as u64,
            resident_bytes,
            slices,
        }
        .into()
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Host-link seconds one root's search spends swapping slices: a
    /// search of depth `d` launches `d + 1` forward and `d` backward
    /// levels, each re-streaming the non-resident slices.
    pub fn root_swap_seconds(&self, max_depth: u32) -> f64 {
        let launches = 2 * max_depth as u64 + 1;
        launches as f64 * self.swap_bytes_per_level as f64 / HOST_LINK_BYTES_PER_SEC
    }
}

/// A graceful-degradation decision the pre-flight ladder took to keep
/// a memory-starved run alive instead of erroring. Recorded in
/// [`RunReport::degradation`] (and the cluster report) so the caller
/// always sees *how* the answer was obtained.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Degradation {
    /// The run only completed by streaming the CSR out-of-core
    /// ([`PartitionMode::Auto`] engaged on the ladder's first rung).
    Partitioned {
        /// Number of graph slices streamed through the device.
        slices: usize,
    },
    /// The run fell back to adaptive-sampling approximation: `sources`
    /// roots processed with `method`, scores scaled by `n / sources`,
    /// accurate to within `error_bound` (additive, on normalized
    /// scores, at 90% confidence — see [`crate::approx::error_bound`]).
    Sampled {
        /// Method that actually ran the sampled roots.
        method: String,
        /// Number of sampled source vertices.
        sources: usize,
        /// Hoeffding-style additive error bound on normalized scores.
        error_bound: f64,
    },
}

impl Degradation {
    /// Short human-readable label ("partitioned" / "sampled").
    pub fn kind(&self) -> &'static str {
        match self {
            Degradation::Partitioned { .. } => "partitioned",
            Degradation::Sampled { .. } => "sampled",
        }
    }
}

/// Run `method`, degrading along the declared ladder instead of
/// failing when the device cannot hold the requested configuration:
///
/// 1. **As requested.** If it completes (or fails for any reason other
///    than [`SimError::OutOfMemory`]), that result stands.
/// 2. **Partition.** If the request had [`PartitionMode::Off`], retry
///    with [`PartitionMode::Auto`]; success is recorded as
///    [`Degradation::Partitioned`].
/// 3. **Sample.** Approximate with [`crate::approx::approximate_bc`]
///    (512 strided sources, deterministic), trying the requested
///    method first and then progressively leaner ones
///    (work-efficient → edge-parallel → vertex-parallel) until one
///    fits; recorded as [`Degradation::Sampled`] with its error bound.
///
/// Only when every rung fails does the original `OutOfMemory` error
/// surface.
pub fn run_or_degrade(g: &Csr, method: &Method, opts: &BcOptions) -> Result<BcRun, SimError> {
    let first = match method.run(g, opts) {
        Ok(run) => return Ok(run),
        Err(e @ SimError::OutOfMemory { .. }) => e,
        Err(e) => return Err(e),
    };

    // Rung 1: partition the graph if the caller had not already.
    if opts.partition == PartitionMode::Off {
        let partitioned = BcOptions {
            partition: PartitionMode::Auto,
            ..opts.clone()
        };
        match method.run(g, &partitioned) {
            Ok(mut run) => {
                let slices = run
                    .report
                    .partition
                    .as_ref()
                    .map_or(1, PartitionPlan::num_slices);
                run.report.degradation = Some(Degradation::Partitioned { slices });
                return Ok(run);
            }
            Err(SimError::OutOfMemory { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    // Rung 2: adaptive-sampling approximation on the leanest method
    // that fits. Partitioning stays enabled so the CSR itself can
    // still stream.
    let n = g.num_vertices();
    let k = crate::approx::DEGRADED_SAMPLE_SOURCES.min(n.max(1));
    let sample_opts = BcOptions {
        partition: PartitionMode::Auto,
        ..opts.clone()
    };
    let mut fallbacks: Vec<Method> = vec![method.clone()];
    for lean in [
        Method::WorkEfficient,
        Method::EdgeParallel,
        Method::VertexParallel,
    ] {
        if fallbacks.iter().all(|m| m.name() != lean.name()) {
            fallbacks.push(lean);
        }
    }
    for fallback in &fallbacks {
        match crate::approx::approximate_bc(g, fallback, k, 0, &sample_opts) {
            Ok(mut run) => {
                run.report.degradation = Some(Degradation::Sampled {
                    method: fallback.name().to_owned(),
                    sources: k,
                    error_bound: crate::approx::error_bound(n, k, 0.1),
                });
                return Ok(run);
            }
            Err(SimError::OutOfMemory { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    Err(first)
}

/// Which source vertices to process.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RootSelection {
    /// Every vertex — the exact BC computation.
    All,
    /// The first `k` vertices.
    FirstK(usize),
    /// `k` vertices evenly strided across the id range (deterministic
    /// and representative; what the experiment harness uses before
    /// extrapolating, per §IV-C's uniform-cost argument).
    Strided(usize),
    /// An explicit root list.
    Explicit(Vec<VertexId>),
}

impl RootSelection {
    /// Materialize the root list for a graph of `n` vertices.
    pub fn resolve(&self, n: usize) -> Vec<VertexId> {
        match self {
            RootSelection::All => (0..n as u32).collect(),
            RootSelection::FirstK(k) => (0..n.min(*k) as u32).collect(),
            RootSelection::Strided(k) => {
                let k = (*k).min(n).max(1.min(n));
                (0..k).map(|i| (i * n / k) as u32).collect()
            }
            RootSelection::Explicit(v) => v.clone(),
        }
    }
}

/// Options shared by every method.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BcOptions {
    /// The simulated device.
    pub device: DeviceConfig,
    /// Source vertices to process.
    pub roots: RootSelection,
    /// Normalize scores by `(n-1)(n-2)` (halved when undirected).
    pub normalize: bool,
    /// Host threads driving the multi-root runner (0 = auto: the
    /// `RAYON_NUM_THREADS` environment variable, else all available
    /// cores). Results are bitwise identical at any setting.
    pub threads: usize,
    /// Forward-sweep traversal direction for the frontier-queue
    /// methods (work-efficient, hybrid, and sampling's work-efficient
    /// phases). `Auto` engages the Beamer switch; scores are bitwise
    /// identical in every mode. The dense methods (vertex-parallel,
    /// edge-parallel, GPU-FAN) have no frontier to pull from and
    /// ignore this.
    pub traversal: TraversalMode,
    /// How root shards are assigned to host threads (static blocks,
    /// guided shrinking chunks, or work-stealing deques). Scores are
    /// bitwise identical under every schedule — the assignment is
    /// dynamic, the merge order is not.
    pub schedule: Schedule,
    /// Out-of-core handling for graphs that exceed device memory
    /// (default [`PartitionMode::Off`]: fail the pre-flight exactly
    /// as before).
    pub partition: PartitionMode,
}

impl Default for BcOptions {
    fn default() -> Self {
        BcOptions {
            device: DeviceConfig::gtx_titan(),
            roots: RootSelection::All,
            normalize: false,
            threads: 0,
            traversal: TraversalMode::Push,
            schedule: Schedule::Static,
            partition: PartitionMode::Off,
        }
    }
}

/// The parallelization strategies evaluated in the paper.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Method {
    /// Thread per vertex, O(n²+m) traversal (Jia et al.).
    VertexParallel,
    /// Thread per edge, O(diameter·m) traversal (Jia et al.) — the
    /// best prior GPU method and the paper's baseline.
    EdgeParallel,
    /// Fine-grained edge-parallel with O(n²) predecessor storage
    /// (Shi & Zhang).
    GpuFan,
    /// Explicit-queue frontier traversal (this paper, Algorithms
    /// 1–3).
    WorkEfficient,
    /// Per-iteration strategy switching on frontier deltas (this
    /// paper, Algorithm 4).
    Hybrid(HybridParams),
    /// Depth-sampling strategy selection (this paper, Algorithm 5).
    Sampling(SamplingParams),
}

impl Method {
    /// Human-readable method name (matches the paper's terminology).
    pub fn name(&self) -> &'static str {
        match self {
            Method::VertexParallel => "vertex-parallel",
            Method::EdgeParallel => "edge-parallel",
            Method::GpuFan => "gpu-fan",
            Method::WorkEfficient => "work-efficient",
            Method::Hybrid(_) => "hybrid",
            Method::Sampling(_) => "sampling",
        }
    }

    /// All six methods with default parameters.
    pub fn all() -> Vec<Method> {
        vec![
            Method::VertexParallel,
            Method::EdgeParallel,
            Method::GpuFan,
            Method::WorkEfficient,
            Method::Hybrid(HybridParams::default()),
            Method::Sampling(SamplingParams::default()),
        ]
    }

    /// Does this method use fine-grained parallelism (the whole
    /// device cooperating on one root)?
    pub fn is_fine_grained(&self) -> bool {
        matches!(self, Method::GpuFan)
    }

    /// Device bytes needed for the method's local state.
    pub fn local_bytes(&self, g: &Csr, device: &DeviceConfig) -> u64 {
        match self {
            Method::VertexParallel | Method::EdgeParallel => {
                footprint::edge_parallel_bytes(g, device)
            }
            Method::GpuFan => footprint::gpu_fan_bytes(g, device),
            Method::WorkEfficient | Method::Hybrid(_) | Method::Sampling(_) => {
                footprint::work_efficient_bytes(g, device)
            }
        }
    }

    /// Run the method. Fails with [`SimError::OutOfMemory`] when the
    /// graph plus local state exceed device memory (GPU-FAN's fate
    /// at scale), and with [`SimError::PathCountOverflow`] when a
    /// root's shortest-path counts overflow `f64`.
    pub fn run(&self, g: &Csr, opts: &BcOptions) -> Result<BcRun, SimError> {
        self.run_impl::<false>(g, opts).map(|(run, _)| run)
    }

    /// [`Method::run`] with the metrics layer engaged: additionally
    /// returns the per-root level records and embeds their aggregate
    /// (plus the hardware roll-up) in `report.metrics`. Everything
    /// else in the returned [`BcRun`] — scores and every priced
    /// timing — is bitwise identical to [`Method::run`]'s output,
    /// because the metrics recorder only observes values the engine
    /// already computed.
    pub fn run_metered(&self, g: &Csr, opts: &BcOptions) -> Result<(BcRun, RunMetrics), SimError> {
        self.run_impl::<true>(g, opts)
            .map(|(run, metrics)| (run, metrics.expect("metered run collects metrics")))
    }

    fn run_impl<const METERED: bool>(
        &self,
        g: &Csr,
        opts: &BcOptions,
    ) -> Result<(BcRun, Option<RunMetrics>), SimError> {
        let roots = opts.roots.resolve(g.num_vertices());
        let mut run = PhaseRun::<METERED>::new(g, opts, self.local_bytes(g, &opts.device))?;
        match self {
            Method::VertexParallel => run.phase(&roots, &mut VertexParallelModel::default())?,
            Method::EdgeParallel => run.phase(&roots, &mut EdgeParallelModel)?,
            Method::GpuFan => run.phase(&roots, &mut GpuFanModel)?,
            // The historical push path, bitwise-unchanged in both
            // scores and pricing.
            Method::WorkEfficient if opts.traversal == TraversalMode::Push => {
                run.phase(&roots, &mut WorkEfficientModel::default())?
            }
            Method::WorkEfficient => {
                let mut m = DirectionOptimizingModel::new(opts.traversal);
                run.phase(&roots, &mut m)?;
                run.traversal_iterations = Some((m.push_iterations, m.pull_iterations));
            }
            Method::Hybrid(params) => {
                let mut m = HybridModel::new(*params).with_traversal(opts.traversal);
                run.phase(&roots, &mut m)?;
                run.strategy_iterations =
                    Some((m.work_efficient_iterations, m.edge_parallel_iterations));
                if opts.traversal != TraversalMode::Push {
                    // Pushed forward levels = everything the push
                    // strategies priced minus the backward sweeps,
                    // which the report does not split; expose the
                    // launch counts the model does track.
                    run.traversal_iterations = Some((
                        m.work_efficient_iterations + m.edge_parallel_iterations,
                        m.bottom_up_iterations,
                    ));
                }
            }
            Method::Sampling(params) => {
                // Phase 1: sample roots work-efficiently, recording
                // max BFS depths (Algorithm 5's keys). The sampling
                // phases honor the traversal mode; the edge-parallel
                // phase streams all edges and has no frontier to
                // pull from, so it always pushes.
                let (sample_roots, rest_roots) = roots.split_at(params.n_samps.min(roots.len()));
                let mut we = DirectionOptimizingModel::new(opts.traversal);
                run.phase(sample_roots, &mut we)?;
                let mut keys = run.max_depths.clone();
                let use_ep = params.choose_edge_parallel(g.num_vertices(), &mut keys);
                run.sampling_chose_edge_parallel = Some(use_ep);
                // Phase 2: remaining roots with the chosen strategy.
                if use_ep {
                    let mut m = SamplingPhaseModel::new(params.min_frontier);
                    run.phase(rest_roots, &mut m)?;
                    run.strategy_iterations =
                        Some((m.work_efficient_iterations, m.edge_parallel_iterations));
                } else {
                    run.phase(rest_roots, &mut we)?;
                }
                if opts.traversal != TraversalMode::Push {
                    run.traversal_iterations = Some((we.push_iterations, we.pull_iterations));
                }
            }
        }
        Ok(run.finish(self.name(), self.is_fine_grained()))
    }
}

/// Run BC under an arbitrary [`ShardableCostModel`] with
/// coarse-grained scheduling — the extension point for design-variant
/// studies (the §IV-A ablations build
/// `WorkEfficientModel::with_config` variants and price them here).
/// `local_bytes` is the variant's device-memory footprint beyond the
/// graph arrays. The run is [`Method::run`]'s with one phase: the same
/// memory pre-flight (so [`PartitionMode::Auto`] applies), the same
/// sharding across `opts.threads` host threads, and the same report
/// epilogue, under the method name `"custom"`.
pub fn run_with_cost_model<M: ShardableCostModel>(
    g: &Csr,
    opts: &BcOptions,
    model: &mut M,
    local_bytes: u64,
) -> Result<BcRun, SimError> {
    let roots = opts.roots.resolve(g.num_vertices());
    let mut run = PhaseRun::<false>::new(g, opts, local_bytes)?;
    run.phase(&roots, model)?;
    Ok(run.finish("custom", false).0)
}

/// Scores plus simulation report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BcRun {
    /// BC contributions from the processed roots (exact BC when
    /// `RootSelection::All`).
    pub scores: Vec<f64>,
    /// What the simulated device did and how long it took.
    pub report: RunReport,
}

/// Simulation report for one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Method name.
    pub method: String,
    /// Device name.
    pub device: String,
    /// Graph vertices.
    pub vertices: usize,
    /// Graph undirected edges.
    pub edges: u64,
    /// Roots actually processed.
    pub roots_processed: usize,
    /// Simulated device time for the processed roots.
    pub device_seconds: f64,
    /// Extrapolation to all `n` roots (the exact-BC runtime the
    /// paper reports; equals `device_seconds` when all roots ran).
    pub full_seconds: f64,
    /// TEPS_BC = mn / full_seconds (Eq. 4).
    pub teps: f64,
    /// Accumulated work counters.
    pub counters: KernelCounters,
    /// Simulated block-seconds per processed root.
    pub per_root_seconds: Vec<f64>,
    /// Max BFS depth per processed root.
    pub max_depths: Vec<u32>,
    /// (work-efficient, edge-parallel) iteration counts for the
    /// switching methods.
    pub strategy_iterations: Option<(u64, u64)>,
    /// (push-priced, pull-priced) kernel-launch counts when the run
    /// was direction-aware (`traversal != push`); `None` on the
    /// unchanged push-only paths.
    pub traversal_iterations: Option<(u64, u64)>,
    /// The sampling method's Algorithm 5 decision, if it ran.
    pub sampling_chose_edge_parallel: Option<bool>,
    /// Aggregated metrics when the run was metered
    /// ([`Method::run_metered`]); `None` — and zero overhead — on
    /// plain runs.
    pub metrics: Option<MetricsSummary>,
    /// The slice plan when the graph ran out-of-core
    /// ([`PartitionMode::Auto`] and the CSR did not fit); `None` on
    /// fully resident runs.
    pub partition: Option<PartitionPlan>,
    /// What the graceful-degradation ladder did to keep the run
    /// alive, if anything ([`run_or_degrade`]); `None` when the run
    /// completed exactly as requested.
    pub degradation: Option<Degradation>,
}

impl RunReport {
    /// TEPS in millions (the unit of Table III).
    pub fn mteps(&self) -> f64 {
        self.teps / 1e6
    }

    /// TEPS in billions (the unit of Table IV).
    pub fn gteps(&self) -> f64 {
        self.teps / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::gen;

    fn opts_all() -> BcOptions {
        BcOptions::default()
    }

    #[test]
    fn all_methods_agree_with_brandes() {
        let g = gen::erdos_renyi(80, 240, 3);
        let expect = brandes::betweenness(&g);
        for method in Method::all() {
            let run = method.run(&g, &opts_all()).unwrap();
            for (i, (e, a)) in expect.iter().zip(&run.scores).enumerate() {
                assert!(
                    (e - a).abs() < 1e-7,
                    "{} differs at vertex {i}: {e} vs {a}",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn sigma_overflow_is_a_typed_error_under_push_and_auto() {
        // The corner-to-corner path count of grid(w, w) is
        // C(2w − 2, w − 1): past f64::MAX at w = 520, finite at 500.
        let from_corner = |traversal| BcOptions {
            roots: RootSelection::Explicit(vec![0]),
            traversal,
            ..opts_all()
        };
        let big = gen::grid(520, 520);
        let ok = gen::grid(500, 500);
        for traversal in [TraversalMode::Push, TraversalMode::Auto] {
            let opts = from_corner(traversal);
            let err = Method::WorkEfficient.run(&big, &opts).unwrap_err();
            assert!(
                matches!(err, SimError::PathCountOverflow { root: 0, depth } if depth > 1000),
                "{err}"
            );
            assert!(!err.is_transient());
            let metered = Method::WorkEfficient.run_metered(&big, &opts).unwrap_err();
            assert_eq!(metered, err);
            let degraded = run_or_degrade(&big, &Method::WorkEfficient, &opts).unwrap_err();
            assert_eq!(degraded, err);
            let run = Method::WorkEfficient.run(&ok, &opts).unwrap();
            assert!(run.scores.iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn root_selection_variants() {
        assert_eq!(RootSelection::All.resolve(4), vec![0, 1, 2, 3]);
        assert_eq!(RootSelection::FirstK(2).resolve(4), vec![0, 1]);
        assert_eq!(RootSelection::Strided(2).resolve(8), vec![0, 4]);
        assert_eq!(RootSelection::Explicit(vec![3, 1]).resolve(8), vec![3, 1]);
        // Strided never exceeds n.
        assert_eq!(RootSelection::Strided(100).resolve(3).len(), 3);
    }

    #[test]
    fn partial_roots_extrapolate() {
        let g = gen::watts_strogatz(512, 6, 0.1, 1);
        let opts = BcOptions {
            roots: RootSelection::Strided(64),
            ..Default::default()
        };
        let run = Method::WorkEfficient.run(&g, &opts).unwrap();
        assert_eq!(run.report.roots_processed, 64);
        let ratio = run.report.full_seconds / run.report.device_seconds;
        assert!((ratio - 8.0).abs() < 1e-9, "extrapolation ratio {ratio}");
        assert!(run.report.teps > 0.0);
    }

    #[test]
    fn gpu_fan_ooms_at_scale() {
        // n = 65,536 needs a 16 GiB predecessor matrix > 6 GB Titan.
        let g = gen::grid(256, 256);
        let err = Method::GpuFan
            .run(
                &g,
                &BcOptions {
                    roots: RootSelection::FirstK(1),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err}");
        // The work-efficient method handles the same graph fine.
        assert!(Method::WorkEfficient
            .run(
                &g,
                &BcOptions {
                    roots: RootSelection::FirstK(1),
                    ..Default::default()
                }
            )
            .is_ok());
    }

    #[test]
    fn work_efficient_beats_edge_parallel_on_high_diameter_mesh() {
        // A long thin triangulation (diameter ≈ 1000, m ≈ 70k): the
        // paper's headline case, where the all-edges traversal
        // re-inspects the whole edge list at every one of ~1000
        // levels. Longer strips overflow σ from an end root (1,400
        // rows do at depth 1036), which fails the run.
        let g = gen::triangulated_grid(24, 1000, 1);
        let opts = BcOptions {
            roots: RootSelection::Strided(8),
            ..Default::default()
        };
        let we = Method::WorkEfficient.run(&g, &opts).unwrap();
        let ep = Method::EdgeParallel.run(&g, &opts).unwrap();
        assert!(
            we.report.full_seconds * 5.0 < ep.report.full_seconds,
            "work-efficient {} should crush edge-parallel {} on a high-diameter mesh",
            we.report.full_seconds,
            ep.report.full_seconds
        );
    }

    #[test]
    fn edge_parallel_competitive_on_small_world() {
        // The paper's smallworld dataset parameters (n = 100k would
        // also work; 200k pushes the per-vertex state past L2, the
        // regime Fig. 4 measures, where EP's streaming wins back the
        // wasted-work deficit).
        let g = gen::watts_strogatz(200_000, 10, 0.1, 5);
        let opts = BcOptions {
            roots: RootSelection::Strided(12),
            ..Default::default()
        };
        let we = Method::WorkEfficient.run(&g, &opts).unwrap();
        let ep = Method::EdgeParallel.run(&g, &opts).unwrap();
        // Fig. 4: on small-world graphs pure work-efficient is
        // *slower* than (or at best comparable to) edge-parallel.
        assert!(
            ep.report.full_seconds < 1.5 * we.report.full_seconds,
            "EP {} vs WE {}",
            ep.report.full_seconds,
            we.report.full_seconds
        );
    }

    #[test]
    fn sampling_decision_matches_graph_class() {
        let sw = gen::watts_strogatz(4096, 10, 0.1, 5);
        let opts = BcOptions {
            roots: RootSelection::Strided(600),
            ..Default::default()
        };
        let run = Method::Sampling(SamplingParams::default())
            .run(&sw, &opts)
            .unwrap();
        assert_eq!(run.report.sampling_chose_edge_parallel, Some(true));

        let road = gen::road_network(4096, 2);
        let opts = BcOptions {
            roots: RootSelection::Strided(600),
            ..Default::default()
        };
        let run = Method::Sampling(SamplingParams::default())
            .run(&road, &opts)
            .unwrap();
        assert_eq!(run.report.sampling_chose_edge_parallel, Some(false));
    }

    #[test]
    fn metered_run_matches_plain_run_bitwise() {
        let g = gen::watts_strogatz(400, 6, 0.1, 2);
        let opts = BcOptions {
            roots: RootSelection::Strided(64),
            threads: 4,
            ..Default::default()
        };
        for method in [
            Method::WorkEfficient,
            Method::EdgeParallel,
            Method::Hybrid(HybridParams::default()),
            Method::Sampling(SamplingParams {
                n_samps: 16,
                ..Default::default()
            }),
        ] {
            let plain = method.run(&g, &opts).unwrap();
            let (metered, metrics) = method.run_metered(&g, &opts).unwrap();
            assert_eq!(plain.scores, metered.scores, "{}", method.name());
            assert_eq!(
                plain.report.per_root_seconds,
                metered.report.per_root_seconds
            );
            assert_eq!(plain.report.full_seconds, metered.report.full_seconds);
            assert_eq!(plain.report.counters, metered.report.counters);
            assert_eq!(plain.report.metrics, None, "plain runs carry no summary");
            let summary = metered.report.metrics.expect("metered summary");
            assert_eq!(summary, metrics.summary);
            assert_eq!(summary.roots as usize, metrics.per_root.len());
            assert_eq!(summary.roots as usize, plain.report.roots_processed);
            // The summary's hardware roll-up is the report's counters.
            assert_eq!(
                summary.hardware.kernel_launches,
                metered.report.counters.iterations
            );
            assert_eq!(summary.hardware.seconds, metered.report.counters.seconds);
            // Per-root max depths agree with the report's.
            for (m, &d) in metrics.per_root.iter().zip(&metered.report.max_depths) {
                assert_eq!(m.max_depth(), d, "{}", method.name());
            }
        }
    }

    #[test]
    fn reports_invariant_under_thread_count() {
        let g = gen::watts_strogatz(400, 6, 0.1, 2);
        for method in [
            Method::WorkEfficient,
            Method::Hybrid(HybridParams::default()),
            Method::Sampling(SamplingParams {
                n_samps: 32,
                ..Default::default()
            }),
        ] {
            let run_at = |threads: usize| {
                method
                    .run(
                        &g,
                        &BcOptions {
                            roots: RootSelection::Strided(96),
                            threads,
                            ..Default::default()
                        },
                    )
                    .unwrap()
            };
            let one = run_at(1);
            let eight = run_at(8);
            assert_eq!(one.scores, eight.scores, "{}", method.name());
            assert_eq!(one.report.per_root_seconds, eight.report.per_root_seconds);
            assert_eq!(one.report.max_depths, eight.report.max_depths);
            assert_eq!(one.report.full_seconds, eight.report.full_seconds);
            assert_eq!(one.report.teps, eight.report.teps);
            assert_eq!(
                one.report.strategy_iterations,
                eight.report.strategy_iterations
            );
            assert_eq!(
                one.report.sampling_chose_edge_parallel,
                eight.report.sampling_chose_edge_parallel
            );
        }
    }

    #[test]
    fn traversal_modes_are_bitwise_identical() {
        // The direction of the forward sweep is a pricing concern
        // only: push, pull, and auto must produce the same bits for
        // every frontier-queue method.
        let g = gen::watts_strogatz(600, 8, 0.1, 9);
        let opts_mode = |traversal| BcOptions {
            roots: RootSelection::Strided(48),
            traversal,
            ..Default::default()
        };
        for method in [
            Method::WorkEfficient,
            Method::Hybrid(HybridParams::default()),
            Method::Sampling(SamplingParams {
                n_samps: 16,
                ..Default::default()
            }),
        ] {
            let push = method.run(&g, &opts_mode(TraversalMode::Push)).unwrap();
            let pull = method.run(&g, &opts_mode(TraversalMode::Pull)).unwrap();
            let auto = method.run(&g, &opts_mode(TraversalMode::Auto)).unwrap();
            assert_eq!(push.scores, pull.scores, "{} pull", method.name());
            assert_eq!(push.scores, auto.scores, "{} auto", method.name());
            assert_eq!(
                push.report.max_depths,
                auto.report.max_depths,
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn auto_traversal_reports_pull_launches() {
        // Saturated small-world frontiers engage the bottom-up
        // kernel and the report says so; the push run stays `None`.
        let g = gen::watts_strogatz(4000, 8, 0.1, 13);
        let opts = BcOptions {
            roots: RootSelection::Strided(8),
            traversal: TraversalMode::Auto,
            ..Default::default()
        };
        let run = Method::WorkEfficient.run(&g, &opts).unwrap();
        let (push, pull) = run
            .report
            .traversal_iterations
            .expect("direction-aware run");
        assert!(pull > 0, "auto must pull on saturated levels");
        assert!(push > 0, "every root's first level pushes");
        let baseline = Method::WorkEfficient
            .run(
                &g,
                &BcOptions {
                    roots: RootSelection::Strided(8),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(baseline.report.traversal_iterations, None);
        // (No timing claim at n = 4000 — the pull payoff needs a
        // working set that spills L2; see the 60k-vertex model test
        // and the bench trajectory for that.)
    }

    #[test]
    fn traversal_reports_invariant_under_thread_count() {
        let g = gen::watts_strogatz(400, 6, 0.1, 2);
        for mode in [TraversalMode::Pull, TraversalMode::Auto] {
            let run_at = |threads: usize| {
                Method::WorkEfficient
                    .run(
                        &g,
                        &BcOptions {
                            roots: RootSelection::Strided(96),
                            threads,
                            traversal: mode,
                            ..Default::default()
                        },
                    )
                    .unwrap()
            };
            let one = run_at(1);
            let eight = run_at(8);
            assert_eq!(one.scores, eight.scores, "{mode:?}");
            assert_eq!(one.report.per_root_seconds, eight.report.per_root_seconds);
            assert_eq!(
                one.report.traversal_iterations,
                eight.report.traversal_iterations
            );
        }
    }

    #[test]
    fn run_with_cost_model_matches_work_efficient_run_bitwise() {
        let g = gen::watts_strogatz(300, 6, 0.1, 4);
        for threads in [1usize, 3] {
            for normalize in [false, true] {
                let opts = BcOptions {
                    roots: RootSelection::Strided(80),
                    threads,
                    normalize,
                    traversal: TraversalMode::Push,
                    ..Default::default()
                };
                let method = Method::WorkEfficient.run(&g, &opts).unwrap();
                let custom = run_with_cost_model(
                    &g,
                    &opts,
                    &mut WorkEfficientModel::default(),
                    Method::WorkEfficient.local_bytes(&g, &opts.device),
                )
                .unwrap();
                let (a, b) = (&method.report, &custom.report);
                let case = format!("threads {threads}, normalize {normalize}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&method.scores), bits(&custom.scores), "{case}");
                assert_eq!(bits(&a.per_root_seconds), bits(&b.per_root_seconds));
                assert_eq!(a.max_depths, b.max_depths, "{case}");
                assert_eq!(a.counters, b.counters, "{case}");
                assert_eq!(a.device_seconds.to_bits(), b.device_seconds.to_bits());
                assert_eq!(a.full_seconds.to_bits(), b.full_seconds.to_bits());
                assert_eq!(a.teps.to_bits(), b.teps.to_bits(), "{case}");
                assert_eq!(b.method, "custom");
            }
        }
    }

    #[test]
    fn normalization_applies() {
        let g = gen::star(64);
        let opts = BcOptions {
            normalize: true,
            ..Default::default()
        };
        let run = Method::WorkEfficient.run(&g, &opts).unwrap();
        assert!(
            (run.scores[0] - 1.0).abs() < 1e-9,
            "hub normalizes to 1, got {}",
            run.scores[0]
        );
    }

    #[test]
    fn report_units() {
        let r = RunReport {
            method: "x".into(),
            device: "y".into(),
            vertices: 1,
            edges: 1,
            roots_processed: 1,
            device_seconds: 1.0,
            full_seconds: 1.0,
            teps: 2_500_000_000.0,
            counters: KernelCounters::default(),
            per_root_seconds: vec![],
            max_depths: vec![],
            strategy_iterations: None,
            traversal_iterations: None,
            sampling_chose_edge_parallel: None,
            metrics: None,
            partition: None,
            degradation: None,
        };
        assert!((r.mteps() - 2500.0).abs() < 1e-9);
        assert!((r.gteps() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn partitioned_run_matches_resident_run_bitwise() {
        // A graph that cannot fit beside the locals on a tiny device:
        // with partitioning it must still run, and the functional
        // pass is untouched, so scores are bitwise identical to a
        // fully resident run on a big device.
        let g = gen::watts_strogatz(4096, 8, 0.1, 7);
        let small = bc_gpusim::DeviceConfig {
            global_mem_bytes: footprint::graph_bytes(&g) / 2
                + Method::WorkEfficient.local_bytes(&g, &bc_gpusim::DeviceConfig::gtx_titan()),
            ..bc_gpusim::DeviceConfig::gtx_titan()
        };
        let opts_small = BcOptions {
            device: small,
            partition: PartitionMode::Auto,
            roots: RootSelection::FirstK(8),
            ..Default::default()
        };
        let opts_big = BcOptions {
            roots: RootSelection::FirstK(8),
            ..Default::default()
        };
        let part = Method::WorkEfficient.run(&g, &opts_small).unwrap();
        let full = Method::WorkEfficient.run(&g, &opts_big).unwrap();
        let plan = part.report.partition.as_ref().expect("graph was sliced");
        assert!(plan.num_slices() >= 2, "expected >= 2 slices");
        assert!(full.report.partition.is_none());
        for (a, b) in part.scores.iter().zip(&full.scores) {
            assert_eq!(a.to_bits(), b.to_bits(), "scores must be bitwise equal");
        }
        // Swapping slices over the host link is not free: every
        // partitioned root gets slower, never faster.
        for (p, f) in part
            .report
            .per_root_seconds
            .iter()
            .zip(&full.report.per_root_seconds)
        {
            assert!(p > f, "swap surcharge missing: {p} vs {f}");
        }
    }

    #[test]
    fn wide_indices_price_more_traffic_not_more_work() {
        // Forcing u64 CSR indices doubles the priced bytes of every
        // offset and adjacency fetch; the warp work and every score
        // bit stay as they are.
        let g = gen::kronecker(10, 8, 3);
        let wide = g.clone().with_index_width(bc_graph::CsrIndex::U64);
        let opts = BcOptions {
            roots: RootSelection::Strided(8),
            ..Default::default()
        };
        let narrow = Method::WorkEfficient.run(&g, &opts).unwrap();
        let wide = Method::WorkEfficient.run(&wide, &opts).unwrap();
        let (n, w) = (&narrow.report.counters, &wide.report.counters);
        assert!(w.coalesced_bytes > n.coalesced_bytes, "{w:?} vs {n:?}");
        assert_eq!(w.warp_steps, n.warp_steps);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&wide.scores), bits(&narrow.scores));
    }

    #[test]
    fn partition_off_still_ooms() {
        let g = gen::watts_strogatz(4096, 8, 0.1, 7);
        let small = bc_gpusim::DeviceConfig {
            global_mem_bytes: footprint::graph_bytes(&g) / 2,
            ..bc_gpusim::DeviceConfig::gtx_titan()
        };
        let opts = BcOptions {
            device: small,
            roots: RootSelection::FirstK(1),
            ..Default::default()
        };
        let err = Method::WorkEfficient.run(&g, &opts).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn degradation_ladder_partitions_before_failing() {
        // Same starvation as `partition_off_still_ooms`, but through
        // the ladder: instead of erroring, the run completes
        // partitioned, records the decision, and stays bitwise
        // identical to a fully resident run.
        let g = gen::watts_strogatz(4096, 8, 0.1, 7);
        let small = bc_gpusim::DeviceConfig {
            global_mem_bytes: footprint::graph_bytes(&g) / 2
                + Method::WorkEfficient.local_bytes(&g, &bc_gpusim::DeviceConfig::gtx_titan()),
            ..bc_gpusim::DeviceConfig::gtx_titan()
        };
        let opts = BcOptions {
            device: small,
            roots: RootSelection::FirstK(8),
            ..Default::default()
        };
        assert!(Method::WorkEfficient.run(&g, &opts).is_err());
        let run = run_or_degrade(&g, &Method::WorkEfficient, &opts).expect("ladder rescues");
        match run.report.degradation {
            Some(Degradation::Partitioned { slices }) => assert!(slices >= 2),
            ref other => panic!("expected partitioned degradation, got {other:?}"),
        }
        let full = Method::WorkEfficient
            .run(
                &g,
                &BcOptions {
                    roots: RootSelection::FirstK(8),
                    ..Default::default()
                },
            )
            .unwrap();
        for (a, b) in run.scores.iter().zip(&full.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn degradation_ladder_samples_when_partitioning_cannot_help() {
        // GPU-FAN's O(n²) predecessor matrix is local state, so
        // slicing the CSR gains nothing; the ladder must fall through
        // to sampled approximation on a leaner method.
        let g = gen::grid(64, 64);
        let titan = bc_gpusim::DeviceConfig::gtx_titan();
        let small = bc_gpusim::DeviceConfig {
            global_mem_bytes: footprint::graph_bytes(&g)
                + Method::WorkEfficient.local_bytes(&g, &titan)
                + (1 << 20),
            ..titan
        };
        let opts = BcOptions {
            device: small,
            ..Default::default()
        };
        assert!(Method::GpuFan.run(&g, &opts).is_err());
        let run = run_or_degrade(&g, &Method::GpuFan, &opts).expect("ladder rescues");
        match &run.report.degradation {
            Some(Degradation::Sampled {
                method,
                sources,
                error_bound,
            }) => {
                assert_eq!(method, "work-efficient");
                assert_eq!(*sources, crate::approx::DEGRADED_SAMPLE_SOURCES);
                assert!(*error_bound > 0.0 && error_bound.is_finite());
            }
            other => panic!("expected sampled degradation, got {other:?}"),
        }
        // The estimator is exact in expectation; at 512/4096 sources
        // the big scores track the exact answer.
        let exact = brandes::betweenness(&g);
        let err = crate::approx::mean_relative_error(&exact, &run.scores, 1000.0);
        assert!(err < 0.6, "sampled scores should track exact, err = {err}");
    }

    #[test]
    fn run_or_degrade_is_identity_when_nothing_degrades() {
        let g = gen::watts_strogatz(256, 6, 0.1, 3);
        let opts = BcOptions {
            roots: RootSelection::FirstK(8),
            ..Default::default()
        };
        let plain = Method::WorkEfficient.run(&g, &opts).unwrap();
        let laddered = run_or_degrade(&g, &Method::WorkEfficient, &opts).unwrap();
        assert_eq!(plain.scores, laddered.scores);
        assert_eq!(laddered.report.degradation, None);
    }

    #[test]
    fn partition_plan_slices_and_prices() {
        let g = gen::watts_strogatz(2048, 8, 0.1, 3);
        let total = g.storage_bytes();
        let plan = PartitionPlan::plan(&g, total / 3).expect("should slice");
        assert!(plan.num_slices() >= 3);
        assert!(plan.resident_bytes <= total / 3);
        assert!(plan.swap_bytes_per_level > 0);
        // A fitting budget yields no plan: partitioning is only for
        // graphs that genuinely overflow.
        assert!(PartitionPlan::plan(&g, total).is_none());
        // Deeper searches relaunch more levels and swap more.
        assert!(plan.root_swap_seconds(9) > plan.root_swap_seconds(3));
        assert!(plan.root_swap_seconds(0) > 0.0);
    }
}
