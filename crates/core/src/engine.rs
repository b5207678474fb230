//! The rooted search engine shared by all simulated GPU methods.
//!
//! Every method in the paper computes the *same function* per root —
//! Brandes' shortest-path counting followed by dependency
//! accumulation — and differs only in how threads are distributed to
//! work, which changes the *cost* of each search iteration, not its
//! result. The engine therefore executes one faithful functional
//! pass (the paper's Algorithms 1–3: explicit queues, the
//! level-segmented stack `S` with its `ends` array, successor-based
//! accumulation) and asks a method-specific [`CostModel`] to price
//! each iteration. This is the classic functional/timing split used
//! by architecture simulators.
//!
//! The host records the successor DAG as the forward pass finds it:
//! each `σ[w] += σ[v]` edge is appended to `v`'s successor list (one
//! [`VertexId`] per successor edge, plus one `u32` offset per reached
//! vertex), and the backward stage walks those lists instead of
//! re-checking `d[w] == d[v] + 1` on every neighbour. The GPU kernel
//! that is priced and traced still inspects every neighbour: the
//! backward edge frontier is the full degree sum, and under
//! [`Observer::ACCESSES`] a trace-only scan emits the kernel's reads.
//! Each `δ[w]` is the correctly rounded sum of its successor
//! contributions (see [`DELTA_DEFINITION`]), which no order of the
//! successor list can change, so δ is bitwise the same under push or
//! pull levels and any relabeling of the vertices.
//!
//! What the search does is reported through one hook, [`Observer`]:
//! per-access events for the race detector and the conformance gate,
//! and one [`LevelMetrics`] record per kernel launch for the metrics
//! layer. Every memory access the simulated kernels below emit must be
//! admitted by the symbolic access specifications in
//! [`crate::kernel_spec`]; `bc_verify::conformance` replays recorded traces
//! against those specs, so changes to the emission sites here must be
//! mirrored there (the conformance gate fails otherwise).

use crate::exact_sum::ExactSum;
use crate::frontier::{CompressedFrontier, VERTICES_PER_SUMMARY_WORD, VERTICES_PER_WORD};
use bc_gpusim::trace::{AccessKind, KernelArray, TraceEvent};
use bc_gpusim::{DeviceConfig, IterationWork, KernelCounters, SimError};
use bc_graph::{Csr, VertexId};
use bc_metrics::{
    LevelMetrics, MetricPhase, MetricTraversal, MetricsRecorder, RootMetrics, SwitchReason,
};

/// The definition of δ the backward sweep computes, as a token for
/// the fingerprints of stored per-root scores: `δ[w]` is the correctly
/// rounded sum of its successor contributions. Scores stored under
/// another definition differ in their last bits, so a store keyed
/// without this token must not be resumed.
pub const DELTA_DEFINITION: &str = "delta=exact-sum";

/// Distance marker for undiscovered vertices (the paper's `∞`).
pub const INFINITY: u32 = u32::MAX;

/// Which half of Brandes' algorithm an iteration belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Shortest-path calculation (Algorithm 2).
    Forward,
    /// Dependency accumulation (Algorithm 3).
    Backward,
}

/// Direction of one forward BFS level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Traversal {
    /// Top-down: frontier vertices push discoveries to their
    /// neighbors through atomicCAS-deduplicated queues (Algorithm 2).
    Push,
    /// Bottom-up: unvisited vertices pull from parents found in an
    /// O(n)-bit frontier bitmap (Beamer-style direction
    /// optimization), with no per-edge CAS and no σ atomicAdd.
    Pull,
}

/// Pre-level frontier statistics handed to
/// [`CostModel::choose_traversal`] — everything a Beamer-style
/// direction heuristic needs, gathered before the level runs.
#[derive(Clone, Copy, Debug)]
pub struct FrontierSnapshot {
    /// BFS depth about to be processed.
    pub depth: u32,
    /// Vertices in the upcoming frontier (`Q_curr` occupancy).
    pub frontier_vertices: u64,
    /// Directed edges out of the upcoming frontier.
    pub frontier_edges: u64,
    /// Vertices discovered so far, frontier included.
    pub visited_vertices: u64,
    /// Directed edges out of every discovered vertex, frontier
    /// included (so `2m - visited_edges` bounds the unexplored side).
    pub visited_edges: u64,
}

/// Bottom-up statistics of one pull level, for pull-aware pricing.
/// The engine gathers the unvisited counts and degrees in one scan
/// over the vertex ids, before the level discovers anything.
#[derive(Debug)]
pub struct PullLevelInfo<'a> {
    /// Vertices still unvisited when the level began (the vertices
    /// the bottom-up kernel scans adjacency for).
    pub unvisited: u64,
    /// Directed edges out of those unvisited vertices (the level's
    /// worst-case probe count).
    pub unvisited_edges: u64,
    /// Whether this level had to materialize the frontier bitmap
    /// from `Q_curr` (true on a push→pull switch; steady-state pull
    /// levels reuse the previous level's next bitmap by swap).
    pub rebuilt_frontier_bitmap: bool,
    /// Occupied 32-bit leaf words of the level's compressed frontier
    /// (`F_curr`) — the words the compaction kernel materialized, or
    /// that the previous level's discoveries left behind.
    pub frontier_words: u64,
    /// Occupied summary words of the compressed frontier (one bit
    /// covers 32 leaf words = 1024 vertices).
    pub summary_words: u64,
    /// Degree of each unvisited vertex in scan order, for SIMT
    /// divergence pricing of the adjacency scans.
    pub unvisited_degrees: &'a [u32],
}

/// Everything a cost model may inspect about one search iteration.
#[derive(Debug)]
pub struct LevelInfo<'a> {
    /// Forward or backward sweep.
    pub phase: Phase,
    /// BFS depth of the vertices being processed.
    pub depth: u32,
    /// How the level executed ([`Traversal::Push`] for every
    /// backward level — the successor sweep has no pull variant).
    pub traversal: Traversal,
    /// The vertices processed this iteration (the vertex frontier —
    /// `Q_curr` forward, the `S` segment backward).
    pub frontier: &'a [VertexId],
    /// Directed edges out of the frontier (the edge frontier).
    pub frontier_edges: u64,
    /// Vertices discovered into `Q_next` (forward only).
    pub discovered: u64,
    /// σ additions (forward) or δ contributions (backward) performed.
    pub updates: u64,
    /// Bottom-up statistics, present exactly when `traversal` is
    /// [`Traversal::Pull`].
    pub pull: Option<PullLevelInfo<'a>>,
}

/// An iteration's price plus its bookkeeping of wasted work.
#[derive(Clone, Copy, Debug, Default)]
pub struct PricedIteration {
    /// The work record handed to the timing model.
    pub work: IterationWork,
    /// Edge inspections on non-frontier edges.
    pub wasted_edges: u64,
    /// Vertex status checks on non-frontier vertices.
    pub wasted_vertex_checks: u64,
}

/// Method-specific pricing of the engine's iterations.
pub trait CostModel {
    /// Called before each root's search begins.
    fn begin_root(&mut self, _g: &Csr, _root: VertexId) {}

    /// Price the O(n) local-variable initialization of Algorithm 1.
    fn price_init(&mut self, g: &Csr, device: &DeviceConfig) -> PricedIteration {
        // d, σ, δ plus queue bookkeeping: a coalesced streaming write
        // of a few words per vertex.
        let n = g.num_vertices() as u64;
        PricedIteration {
            work: IterationWork {
                warp_steps: bc_gpusim::warp::balanced_warp_steps(
                    n,
                    device.threads_per_block,
                    device.warp_size,
                ),
                coalesced_bytes: n * 12,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Price one search iteration.
    fn price(&mut self, g: &Csr, device: &DeviceConfig, level: &LevelInfo<'_>) -> PricedIteration;

    /// Pick the direction of the upcoming forward level. Consulted
    /// once per level, before it runs, and only on symmetric
    /// adjacency (a bottom-up vertex must see its in-edges in its own
    /// list). The decision must depend only on the snapshot and
    /// per-root state reset in [`CostModel::begin_root`], so every
    /// thread count replays the same per-root schedule bitwise.
    fn choose_traversal(
        &mut self,
        _g: &Csr,
        _device: &DeviceConfig,
        _frontier: &FrontierSnapshot,
    ) -> Traversal {
        Traversal::Push
    }
}

/// Receiver for what the engine observes while it searches one root.
///
/// A level is one simulated kernel launch. With [`Observer::ACCESSES`]
/// the engine announces each launch with [`Observer::begin_level`] and
/// then reports every logical access a GPU thread would perform on the
/// named kernel arrays (`d`, `σ`, `δ`, `Q_curr`/`Q_next`, `S`/`ends`,
/// and the bottom-up sweep's `visited`/`F_curr`/`F_next`/`F_sum`
/// bitmaps) through [`Observer::access`]. Events between two
/// `begin_level` calls execute concurrently across their logical
/// threads: lane positions within the level's frontier (push), or
/// vertex/word ids (pull). With [`Observer::LEVELS`] the engine hands
/// over one [`LevelMetrics`] record per launch, after the launch is
/// priced.
///
/// Both switches are associated constants, `false` by default, and
/// every emission site is guarded by them, so a disabled observer
/// (`()`) compiles the sites out — record construction included. An
/// observer only sees values the engine already computed; it cannot
/// perturb scores or priced timings.
pub trait Observer {
    /// Whether [`Observer::level`] receives per-launch records.
    const LEVELS: bool = false;
    /// Whether [`Observer::begin_level`] and [`Observer::access`]
    /// receive the per-access trace.
    const ACCESSES: bool = false;

    /// A root's search begins (called when either switch is on).
    fn begin_root(&mut self, _root: VertexId) {}

    /// A kernel launch begins; subsequent accesses belong to it.
    fn begin_level(&mut self, _phase: Phase, _depth: u32) {}

    /// One logical access within the current launch.
    fn access(&mut self, _event: TraceEvent) {}

    /// The current launch finished and was priced.
    fn level(&mut self, _level: LevelMetrics) {}
}

/// The disabled observer: every emission site compiles out.
impl Observer for () {}

/// Keeps every level record, grouped per root in emission order.
impl Observer for MetricsRecorder {
    const LEVELS: bool = true;

    fn begin_root(&mut self, root: VertexId) {
        self.roots.push(RootMetrics {
            root,
            levels: Vec::new(),
        });
    }

    fn level(&mut self, level: LevelMetrics) {
        self.roots
            .last_mut()
            .expect("the engine begins a root before recording levels")
            .levels
            .push(level);
    }
}

/// Reusable per-root buffers (Algorithm 1 state).
pub struct SearchWorkspace {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// The stack `S`: vertices in discovery order, level-segmented.
    s: Vec<VertexId>,
    /// `ends[i]..ends[i+1]` is the slice of `S` at depth `i`.
    ends: Vec<u32>,
    /// Scratch: degrees of the unvisited vertices of the most recent
    /// pull level, in scan order (for divergence pricing).
    pull_degrees: Vec<u32>,
    /// `F_curr` — the compressed (hierarchical bitmap) frontier the
    /// bottom-up sweep probes. Materialized by the frontier-compact
    /// kernel on a push→pull switch, thereafter maintained by
    /// swapping with `f_next`.
    f_curr: CompressedFrontier,
    /// `F_next` — discoveries of the running pull level.
    f_next: CompressedFrontier,
    /// The successor DAG, recorded by the forward pass: every edge
    /// `v → w` with `d[w] = d[v] + 1`, in adjacency order, grouped by
    /// the stack position of `v`. The backward sweep walks these lists
    /// instead of re-checking every neighbour; the priced and traced
    /// kernel still inspects them all. One [`VertexId`] per successor
    /// edge (at most `m` on a symmetric graph).
    succ: Vec<VertexId>,
    /// `succ_ends[i]..succ_ends[i + 1]` is the slice of `succ` holding
    /// the successors of `S[i]`: one offset per expanded stack
    /// position, after a leading 0. `u32` like the [`Csr`] offsets,
    /// since `succ` never outgrows the adjacency array.
    succ_ends: Vec<u32>,
    /// Scratch: the exact accumulator that sums one backward vertex's
    /// successor contributions, so δ is their correctly rounded sum.
    exact: ExactSum,
}

impl SearchWorkspace {
    /// Allocate buffers for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        SearchWorkspace {
            dist: vec![INFINITY; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            s: Vec::with_capacity(n),
            ends: Vec::with_capacity(64),
            pull_degrees: Vec::new(),
            f_curr: CompressedFrontier::new(n),
            f_next: CompressedFrontier::new(n),
            succ: Vec::new(),
            succ_ends: Vec::with_capacity(n + 1),
            exact: ExactSum::default(),
        }
    }

    fn reset(&mut self, root: VertexId) {
        // O(reached) reset: every dirty entry of dist/sigma/delta
        // belongs to a vertex the previous search pushed onto `s`
        // (dist and sigma are only written on discovery, delta only
        // for stack members), so sweeping the old stack restores the
        // pristine state without an O(n) fill.
        for &v in &self.s {
            self.dist[v as usize] = INFINITY;
            self.sigma[v as usize] = 0.0;
            self.delta[v as usize] = 0.0;
        }
        self.s.clear();
        self.ends.clear();
        self.succ.clear();
        self.succ_ends.clear();
        self.succ_ends.push(0);
        self.dist[root as usize] = 0;
        self.sigma[root as usize] = 1.0;
        self.s.push(root);
        self.ends.push(0);
        self.ends.push(1);
    }

    /// Distances from the most recent root (valid after
    /// [`process_root`]).
    pub fn dist(&self) -> &[u32] {
        &self.dist
    }

    /// Path counts from the most recent root.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// Dependencies of the most recent root.
    pub fn delta(&self) -> &[f64] {
        &self.delta
    }

    /// The stack `S` of the most recent root: reached vertices in
    /// discovery order, level-segmented by [`Self::ends`].
    pub fn stack(&self) -> &[VertexId] {
        &self.s
    }

    /// Level boundaries of [`Self::stack`]: `ends[i]..ends[i + 1]` is
    /// the slice of `S` at BFS depth `i`.
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// Overwrite one σ entry. Fault-injection hook for the
    /// verification layer's tests (`bc-verify` must prove its
    /// σ-consistency check actually fires); not used by any solver
    /// path.
    pub fn corrupt_sigma_for_tests(&mut self, v: usize, value: f64) {
        self.sigma[v] = value;
    }
}

/// Per-root simulation outcome. Per-level detail (frontier sizes,
/// level seconds, directions) goes to an [`Observer`] instead.
#[derive(Clone, Debug, Default)]
pub struct RootOutcome {
    /// Work and simulated block-seconds for this root.
    pub counters: KernelCounters,
    /// Deepest BFS level reached (the max distance within the root's
    /// component; 0 for an isolated root).
    pub max_depth: u32,
    /// Vertices reached (including the root).
    pub reached: usize,
    /// The depth of the first level whose path counts σ overflowed
    /// `f64`, if one did. The search stops after that level: the
    /// backward stage is skipped and nothing is added to `bc`.
    /// [`RootOutcome::check`] turns it into
    /// [`SimError::PathCountOverflow`].
    pub(crate) sigma_overflow_depth: Option<u32>,
}

impl RootOutcome {
    /// `Err(`[`SimError::PathCountOverflow`]`)` when the search from
    /// `root` that filled this outcome overflowed σ, else `Ok`.
    pub fn check(&self, root: VertexId) -> Result<(), SimError> {
        match self.sigma_overflow_depth {
            Some(depth) => Err(SimError::PathCountOverflow { root, depth }),
            None => Ok(()),
        }
    }
}

/// Immutable parameters naming one root's simulation: the graph, the
/// root, and the device whose timing model prices each iteration.
/// Bundled so the `process_root_*` entry points stay at a signature
/// size that reads as what it is — one search, one set of knobs.
#[derive(Clone, Copy, Debug)]
pub struct RootContext<'a> {
    /// The graph being searched.
    pub g: &'a Csr,
    /// The search root.
    pub root: VertexId,
    /// The simulated device pricing each iteration.
    pub device: &'a DeviceConfig,
}

/// Run one root's shortest-path counting + dependency accumulation,
/// adding δ contributions into `bc`, pricing every iteration with
/// `model` on `device`.
pub fn process_root(
    g: &Csr,
    root: VertexId,
    device: &DeviceConfig,
    ws: &mut SearchWorkspace,
    model: &mut dyn CostModel,
    bc: &mut [f64],
) -> RootOutcome {
    let mut out = RootOutcome::default();
    process_root_into(&RootContext { g, root, device }, ws, model, bc, &mut out);
    out
}

/// [`process_root`] writing into a caller-owned [`RootOutcome`], so a
/// multi-root loop reuses it instead of returning a fresh one per root.
pub fn process_root_into(
    ctx: &RootContext<'_>,
    ws: &mut SearchWorkspace,
    model: &mut dyn CostModel,
    bc: &mut [f64],
    out: &mut RootOutcome,
) {
    process_root_observed(ctx, ws, model, bc, out, &mut ());
}

/// [`process_root_into`] reporting the search to `obs`: the per-access
/// trace when [`Observer::ACCESSES`], and one [`LevelMetrics`] record
/// per kernel launch when [`Observer::LEVELS`] — the aggregate
/// counters the paper argues with (`|Q_curr|`/`|Q_next|`, edges
/// inspected, CAS outcomes, priced atomics, the level's priced
/// seconds, the direction decision and its reason). Scores, counters
/// and priced timings are bitwise identical for every observer.
pub fn process_root_observed<O: Observer>(
    ctx: &RootContext<'_>,
    ws: &mut SearchWorkspace,
    model: &mut dyn CostModel,
    bc: &mut [f64],
    out: &mut RootOutcome,
    obs: &mut O,
) {
    let (g, root, device) = (ctx.g, ctx.root, ctx.device);
    *out = RootOutcome::default();
    ws.reset(root);
    model.begin_root(g, root);
    if O::LEVELS || O::ACCESSES {
        obs.begin_root(root);
    }

    let init = model.price_init(g, device);
    charge(&mut out.counters, device, &init);

    // ---- Stage 1: shortest-path calculation (Algorithm 2) ----
    let mut depth = 0u32;
    let mut visited_edges = 0u64;
    let mut prev_pull = false;
    loop {
        let level_start = ws.ends[depth as usize] as usize;
        let level_end = ws.ends[depth as usize + 1] as usize;
        if level_start == level_end {
            break;
        }
        let frontier_edges: u64 = ws.s[level_start..level_end]
            .iter()
            .map(|&v| g.degree(v) as u64)
            .sum();
        visited_edges += frontier_edges;
        // Direction choice happens before the level runs, from
        // already-known frontier statistics. Pull needs symmetric
        // adjacency (a vertex scanning its own list must see its
        // in-edges), so directed graphs always push.
        let traversal = if g.is_symmetric() {
            model.choose_traversal(
                g,
                device,
                &FrontierSnapshot {
                    depth,
                    frontier_vertices: (level_end - level_start) as u64,
                    frontier_edges,
                    visited_vertices: level_end as u64,
                    visited_edges,
                },
            )
        } else {
            Traversal::Push
        };
        if O::ACCESSES {
            obs.begin_level(Phase::Forward, depth);
        }
        let mut updates = 0u64;
        let mut pull_unvisited = 0u64;
        let mut pull_unvisited_edges = 0u64;
        let mut pull_frontier_words = 0u64;
        let mut pull_summary_words = 0u64;
        match traversal {
            Traversal::Push => {
                // Expand the frontier; `s` grows with Q_next's
                // contents.
                for qi in level_start..level_end {
                    let v = ws.s[qi];
                    let lane = (qi - level_start) as u32;
                    if O::ACCESSES {
                        // The thread dequeues its own Q_curr slot.
                        obs.access(TraceEvent {
                            thread: lane,
                            array: KernelArray::QCurr,
                            index: qi as u32,
                            kind: AccessKind::Read,
                        });
                    }
                    for &w in g.neighbors(v) {
                        if O::ACCESSES {
                            // atomicCAS(d[w], ∞, d[v] + 1) on every
                            // inspected edge (Algorithm 2, line 8).
                            obs.access(TraceEvent {
                                thread: lane,
                                array: KernelArray::Dist,
                                index: w,
                                kind: AccessKind::AtomicCas,
                            });
                        }
                        if ws.dist[w as usize] == INFINITY {
                            // atomicCAS(d[w], ∞, d[v] + 1) winner
                            // enqueues w.
                            ws.dist[w as usize] = depth + 1;
                            if O::ACCESSES {
                                // Queue-tail bump, then the write
                                // into the claimed Q_next slot.
                                obs.access(TraceEvent {
                                    thread: lane,
                                    array: KernelArray::Ends,
                                    index: depth + 1,
                                    kind: AccessKind::AtomicAdd,
                                });
                                obs.access(TraceEvent {
                                    thread: lane,
                                    array: KernelArray::QNext,
                                    index: ws.s.len() as u32,
                                    kind: AccessKind::Write,
                                });
                            }
                            ws.s.push(w);
                        }
                        if O::ACCESSES {
                            // The plain d[w] == d[v] + 1 check (line
                            // 11): a non-atomic read racing only
                            // against atomics.
                            obs.access(TraceEvent {
                                thread: lane,
                                array: KernelArray::Dist,
                                index: w,
                                kind: AccessKind::Read,
                            });
                        }
                        if ws.dist[w as usize] == depth + 1 {
                            if O::ACCESSES {
                                obs.access(TraceEvent {
                                    thread: lane,
                                    array: KernelArray::Sigma,
                                    index: v,
                                    kind: AccessKind::Read,
                                });
                                obs.access(TraceEvent {
                                    thread: lane,
                                    array: KernelArray::Sigma,
                                    index: w,
                                    kind: AccessKind::AtomicAdd,
                                });
                            }
                            // atomicAdd(σ[w], σ[v])
                            ws.sigma[w as usize] += ws.sigma[v as usize];
                            ws.succ.push(w);
                            updates += 1;
                        }
                    }
                    ws.succ_ends.push(ws.succ.len() as u32);
                }
            }
            Traversal::Pull => {
                // Frontier compaction — on a push→pull switch the
                // sparse Q_curr is expanded into the compressed
                // (hierarchical bitmap) frontier: one leaf-word and
                // one summary-word atomicOr per frontier vertex (the
                // frontier-compact kernel, fused ahead of the pull
                // scan behind a grid-wide sync). Steady-state pull
                // levels inherit F_curr from the previous level's
                // F_next by swap and skip the compaction entirely.
                if !prev_pull {
                    ws.f_curr.clear();
                    ws.f_next.clear();
                    for qi in level_start..level_end {
                        let v = ws.s[qi];
                        if O::ACCESSES {
                            let lane = (qi - level_start) as u32;
                            obs.access(TraceEvent {
                                thread: lane,
                                array: KernelArray::QCurr,
                                index: qi as u32,
                                kind: AccessKind::Read,
                            });
                            obs.access(TraceEvent {
                                thread: lane,
                                array: KernelArray::FrontierBits,
                                index: v / VERTICES_PER_WORD,
                                kind: AccessKind::AtomicOr,
                            });
                            obs.access(TraceEvent {
                                thread: lane,
                                array: KernelArray::SummaryBits,
                                index: v / VERTICES_PER_SUMMARY_WORD,
                                kind: AccessKind::AtomicOr,
                            });
                        }
                        ws.f_curr.set(v);
                    }
                }
                // The bottom-up kernel this level prices: every
                // unvisited vertex scans its own adjacency for parents
                // in the compressed frontier, with no early exit (σ
                // needs *every* parent at depth `depth`). One scan
                // over the vertex ids, before anything is discovered,
                // gathers the pricing inputs; the per-edge probes are
                // walked only when traced. The visited bitmap stays
                // logical (the functional code reads `dist`), exactly
                // as the push path compares `dist` while tracing an
                // atomicCAS.
                let n = g.num_vertices();
                ws.pull_degrees.clear();
                if O::ACCESSES {
                    // One lane per visited-bitmap word: the scan that
                    // yields this lane's unvisited vertices.
                    for word in 0..(n as u32).div_ceil(32) {
                        obs.access(TraceEvent {
                            thread: word,
                            array: KernelArray::VisitedBits,
                            index: word,
                            kind: AccessKind::Read,
                        });
                    }
                }
                for w in 0..n as u32 {
                    // The compressed frontier *is* the kernel's
                    // membership oracle; it must agree with the
                    // distance array it compacted.
                    debug_assert_eq!(
                        ws.f_curr.contains(w),
                        ws.dist[w as usize] == depth,
                        "compressed frontier diverged from distances at {w}"
                    );
                    if ws.dist[w as usize] != INFINITY {
                        continue;
                    }
                    pull_unvisited += 1;
                    let deg = g.degree(w);
                    pull_unvisited_edges += deg as u64;
                    ws.pull_degrees.push(deg);
                    if O::ACCESSES {
                        let mut found_parent = false;
                        for &v in g.neighbors(w) {
                            // F_curr membership probe for the neighbor
                            // — a read-only bitmap during the scan
                            // (the compaction's atomicOrs are
                            // sequenced before it), so no
                            // synchronization.
                            obs.access(TraceEvent {
                                thread: w,
                                array: KernelArray::FrontierBits,
                                index: v / VERTICES_PER_WORD,
                                kind: AccessKind::Read,
                            });
                            if ws.f_curr.contains(v) {
                                // Parent σ gather: frontier cells are
                                // never written during a pull level.
                                obs.access(TraceEvent {
                                    thread: w,
                                    array: KernelArray::Sigma,
                                    index: v,
                                    kind: AccessKind::Read,
                                });
                                found_parent = true;
                            }
                        }
                        if found_parent {
                            // The owner alone writes its d and σ —
                            // pull needs no CAS and no σ atomicAdd.
                            // Discovery is announced with one
                            // word-granular atomicOr into F_next.
                            obs.access(TraceEvent {
                                thread: w,
                                array: KernelArray::Dist,
                                index: w,
                                kind: AccessKind::Write,
                            });
                            obs.access(TraceEvent {
                                thread: w,
                                array: KernelArray::Sigma,
                                index: w,
                                kind: AccessKind::Write,
                            });
                            obs.access(TraceEvent {
                                thread: w,
                                array: KernelArray::NextBits,
                                index: w / 32,
                                kind: AccessKind::AtomicOr,
                            });
                        }
                    }
                }
                // Discovery, σ accumulation and the successor lists in
                // push order: the push kernel's functional body, so the
                // stack layout, σ (an order-sensitive f64 sum) and
                // `succ` stay bitwise identical to push mode. It
                // discovers exactly the unvisited vertices with a
                // frontier parent, the ones the kernel above finds; the
                // F_next→`S` compaction it stands for is folded into
                // the level's price (`methods::cost::bottom_up_level`),
                // not traced.
                for qi in level_start..level_end {
                    let v = ws.s[qi];
                    // σ of a frontier vertex is never touched during
                    // its own level, so hoisting the read is exact.
                    let sv = ws.sigma[v as usize];
                    for &w in g.neighbors(v) {
                        if ws.dist[w as usize] == INFINITY {
                            ws.dist[w as usize] = depth + 1;
                            ws.s.push(w);
                            ws.f_next.set(w);
                        }
                        if ws.dist[w as usize] == depth + 1 {
                            ws.sigma[w as usize] += sv;
                            ws.succ.push(w);
                            updates += 1;
                        }
                    }
                    ws.succ_ends.push(ws.succ.len() as u32);
                }
                pull_frontier_words = ws.f_curr.occupied_leaf_words();
                pull_summary_words = ws.f_curr.occupied_summary_words();
                // The discoveries become the next level's frontier:
                // swap the bitmaps and clear the new F_next (a
                // summary-guided clear, folded into the level's
                // bookkeeping price like the F_next→S compaction
                // above).
                std::mem::swap(&mut ws.f_curr, &mut ws.f_next);
                ws.f_next.clear();
            }
        }
        let discovered = ws.s.len() - level_end;
        let pull = (traversal == Traversal::Pull).then_some(PullLevelInfo {
            unvisited: pull_unvisited,
            unvisited_edges: pull_unvisited_edges,
            rebuilt_frontier_bitmap: !prev_pull,
            frontier_words: pull_frontier_words,
            summary_words: pull_summary_words,
            unvisited_degrees: &ws.pull_degrees,
        });
        let info = LevelInfo {
            phase: Phase::Forward,
            depth,
            traversal,
            frontier: &ws.s[level_start..level_end],
            frontier_edges,
            discovered: discovered as u64,
            updates,
            pull,
        };
        let priced = model.price(g, device, &info);
        charge(&mut out.counters, device, &priced);
        // Push inspects the frontier's out-edges; pull's useful
        // probes are the ones that found a frontier parent (the rest
        // are the model's wasted_edges).
        bc_gpusim::counter_add(
            &mut out.counters.useful_edge_inspections,
            match traversal {
                Traversal::Push => frontier_edges,
                Traversal::Pull => updates,
            },
            "useful_edge_inspections",
        );
        if O::LEVELS {
            // Decision provenance: `prev_pull` still holds the
            // previous level's direction here.
            let switch = if depth == 0 {
                SwitchReason::Start
            } else {
                match (prev_pull, traversal == Traversal::Pull) {
                    (false, false) => SwitchReason::StayPush,
                    (false, true) => SwitchReason::SwitchToPull,
                    (true, true) => SwitchReason::StayPull,
                    (true, false) => SwitchReason::SwitchToPush,
                }
            };
            obs.level(LevelMetrics {
                phase: MetricPhase::Forward,
                depth,
                traversal: match traversal {
                    Traversal::Push => MetricTraversal::Push,
                    Traversal::Pull => MetricTraversal::Pull,
                },
                q_curr: (level_end - level_start) as u64,
                q_next: discovered as u64,
                edges_inspected: match traversal {
                    Traversal::Push => frontier_edges,
                    Traversal::Pull => pull_unvisited_edges,
                },
                updates,
                // Push dedups with one atomicCAS per inspected edge;
                // the winners are exactly the discoveries. Pull has
                // no CAS at all.
                cas_attempts: match traversal {
                    Traversal::Push => frontier_edges,
                    Traversal::Pull => 0,
                },
                cas_wins: match traversal {
                    Traversal::Push => discovered as u64,
                    Traversal::Pull => 0,
                },
                priced_atomics: priced.work.atomics,
                frontier_words: pull_frontier_words,
                summary_words: pull_summary_words,
                seconds: device.block_iteration_seconds(&priced.work),
                switch: Some(switch),
            });
        }
        prev_pull = traversal == Traversal::Pull;

        if discovered == 0 {
            break;
        }
        ws.ends.push(ws.s.len() as u32);
        depth += 1;
        // The new level's σ is final once its parents' level is done:
        // one check per level, none per edge. Past f64::MAX a count
        // becomes ∞ and every ratio below it NaN, so stop here.
        if ws.s[level_end..]
            .iter()
            .any(|&w| !ws.sigma[w as usize].is_finite())
        {
            out.sigma_overflow_depth = Some(depth);
            break;
        }
    }
    out.max_depth = depth;
    out.reached = ws.s.len();
    if out.sigma_overflow_depth.is_some() {
        return;
    }

    // ---- Stage 2: dependency accumulation (Algorithm 3) ----
    // Leaves have no successors, so start one level above the
    // deepest (Line 12 of Algorithm 2); depth 0 contributes nothing.
    // Every level was expanded, so every stack position has its
    // successor list.
    debug_assert_eq!(ws.succ_ends.len(), ws.s.len() + 1);
    let mut d = depth.saturating_sub(1);
    while d > 0 {
        let level_start = ws.ends[d as usize] as usize;
        let level_end = ws.ends[d as usize + 1] as usize;
        if O::ACCESSES {
            obs.begin_level(Phase::Backward, d);
        }
        let mut frontier_edges = 0u64;
        let mut updates = 0u64;
        for si in level_start..level_end {
            let w = ws.s[si];
            let lane = (si - level_start) as u32;
            if O::ACCESSES {
                // The thread reads its own stack slot, then σ[w].
                obs.access(TraceEvent {
                    thread: lane,
                    array: KernelArray::Stack,
                    index: si as u32,
                    kind: AccessKind::Read,
                });
                obs.access(TraceEvent {
                    thread: lane,
                    array: KernelArray::Sigma,
                    index: w,
                    kind: AccessKind::Read,
                });
            }
            // The priced kernel inspects every neighbour for the
            // successor check d[v] == d + 1, so the edge frontier is the
            // full degree; the host walks only the successors the
            // forward pass recorded.
            frontier_edges += g.degree(w) as u64;
            if O::ACCESSES {
                // The kernel's scan, traced without its arithmetic: a
                // plain d[v] read per neighbour, then σ[v] and δ[v] for
                // each successor.
                for &v in g.neighbors(w) {
                    obs.access(TraceEvent {
                        thread: lane,
                        array: KernelArray::Dist,
                        index: v,
                        kind: AccessKind::Read,
                    });
                    if ws.dist[v as usize] == d + 1 {
                        obs.access(TraceEvent {
                            thread: lane,
                            array: KernelArray::Sigma,
                            index: v,
                            kind: AccessKind::Read,
                        });
                        obs.access(TraceEvent {
                            thread: lane,
                            array: KernelArray::Delta,
                            index: v,
                            kind: AccessKind::Read,
                        });
                    }
                }
            }
            let sw = ws.sigma[w as usize];
            // δ[w] is the correctly rounded sum of the successor
            // contributions σ[w]/σ[v]·(1 + δ[v]). It depends on their
            // multiset alone, not on the order the successors were
            // recorded in (push or pull, any relabeling). Zero, one
            // and two terms are their own correctly rounded sums;
            // longer lists go through the exact accumulator.
            let succ = &ws.succ[ws.succ_ends[si] as usize..ws.succ_ends[si + 1] as usize];
            let (sigma, delta) = (&ws.sigma, &ws.delta);
            let contribution = |v: VertexId| {
                let c = sw / sigma[v as usize] * (1.0 + delta[v as usize]);
                // σ overflow stops a search before this sweep, so
                // every contribution is positive and finite.
                debug_assert!(c > 0.0 && c.is_finite(), "contribution {c}");
                c
            };
            let dsw = match *succ {
                [] => 0.0,
                [v] => contribution(v),
                [a, b] => contribution(a) + contribution(b),
                _ => {
                    for &v in succ {
                        ws.exact.add(contribution(v));
                    }
                    ws.exact.take()
                }
            };
            updates += succ.len() as u64;
            if O::ACCESSES {
                // δ[w] is written exactly once, by its owner — the
                // atomic-free store Algorithm 3 is safe to make.
                obs.access(TraceEvent {
                    thread: lane,
                    array: KernelArray::Delta,
                    index: w,
                    kind: AccessKind::Write,
                });
            }
            ws.delta[w as usize] = dsw;
        }
        let info = LevelInfo {
            phase: Phase::Backward,
            depth: d,
            traversal: Traversal::Push,
            frontier: &ws.s[level_start..level_end],
            frontier_edges,
            discovered: 0,
            updates,
            pull: None,
        };
        let priced = model.price(g, device, &info);
        charge(&mut out.counters, device, &priced);
        bc_gpusim::counter_add(
            &mut out.counters.useful_edge_inspections,
            frontier_edges,
            "useful_edge_inspections",
        );
        if O::LEVELS {
            obs.level(LevelMetrics {
                phase: MetricPhase::Backward,
                depth: d,
                traversal: MetricTraversal::Push,
                q_curr: (level_end - level_start) as u64,
                q_next: 0,
                edges_inspected: frontier_edges,
                updates,
                cas_attempts: 0,
                cas_wins: 0,
                priced_atomics: priced.work.atomics,
                frontier_words: 0,
                summary_words: 0,
                seconds: device.block_iteration_seconds(&priced.work),
                switch: None,
            });
        }
        d -= 1;
    }

    for &w in &ws.s {
        if w != root {
            bc[w as usize] += ws.delta[w as usize];
        }
    }
}

fn charge(counters: &mut KernelCounters, device: &DeviceConfig, priced: &PricedIteration) {
    counters.charge(device, &priced.work);
    bc_gpusim::counter_add(
        &mut counters.wasted_edge_inspections,
        priced.wasted_edges,
        "wasted_edge_inspections",
    );
    bc_gpusim::counter_add(
        &mut counters.wasted_vertex_checks,
        priced.wasted_vertex_checks,
        "wasted_vertex_checks",
    );
}

/// A cost model that prices nothing — used when only the functional
/// result or the frontier traces matter.
#[derive(Clone, Copy, Debug, Default)]
pub struct FreeModel;

impl CostModel for FreeModel {
    fn price_init(&mut self, _g: &Csr, _d: &DeviceConfig) -> PricedIteration {
        PricedIteration::default()
    }
    fn price(&mut self, _g: &Csr, _d: &DeviceConfig, _l: &LevelInfo<'_>) -> PricedIteration {
        PricedIteration::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes;
    use crate::exact_sum::tests::oracle_sum;
    use bc_graph::gen;

    fn run_all_roots(g: &Csr) -> Vec<f64> {
        let device = DeviceConfig::gtx_titan();
        let mut ws = SearchWorkspace::new(g.num_vertices());
        let mut bc = vec![0.0; g.num_vertices()];
        let mut model = FreeModel;
        for r in g.vertices() {
            process_root(g, r, &device, &mut ws, &mut model, &mut bc);
        }
        if g.is_symmetric() {
            for b in bc.iter_mut() {
                *b *= 0.5;
            }
        }
        bc
    }

    /// One search from `root` under `model` with a [`MetricsRecorder`]
    /// attached: the outcome and the root's level records.
    fn observe(
        g: &Csr,
        root: VertexId,
        ws: &mut SearchWorkspace,
        model: &mut dyn CostModel,
    ) -> (RootOutcome, Vec<LevelMetrics>) {
        observe_into(g, root, ws, model, &mut vec![0.0; g.num_vertices()])
    }

    /// [`observe`], accumulating the root's scores into `bc`.
    fn observe_into(
        g: &Csr,
        root: VertexId,
        ws: &mut SearchWorkspace,
        model: &mut dyn CostModel,
        bc: &mut [f64],
    ) -> (RootOutcome, Vec<LevelMetrics>) {
        let device = DeviceConfig::gtx_titan();
        let mut out = RootOutcome::default();
        let mut rec = MetricsRecorder::default();
        let ctx = RootContext {
            g,
            root,
            device: &device,
        };
        process_root_observed(&ctx, ws, model, bc, &mut out, &mut rec);
        assert_eq!(rec.roots.len(), 1);
        (out, rec.roots.pop().unwrap().levels)
    }

    /// `|Q_curr|` of each forward level — Figure 3's frontier trace.
    fn frontier_sizes(levels: &[LevelMetrics]) -> Vec<u64> {
        levels
            .iter()
            .filter(|l| l.phase == MetricPhase::Forward)
            .map(|l| l.q_curr)
            .collect()
    }

    #[test]
    fn engine_matches_brandes_on_shapes() {
        for g in [gen::path(12), gen::star(9), gen::grid(4, 5), gen::cycle(9)] {
            let expect = brandes::betweenness(&g);
            let got = run_all_roots(&g);
            for (e, a) in expect.iter().zip(&got) {
                assert!((e - a).abs() < 1e-9, "{expect:?} vs {got:?}");
            }
        }
    }

    #[test]
    fn engine_matches_brandes_on_random_graphs() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(60, 150, seed);
            let expect = brandes::betweenness(&g);
            let got = run_all_roots(&g);
            for (e, a) in expect.iter().zip(&got) {
                assert!((e - a).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn outcome_describes_search() {
        let g = gen::path(6);
        let mut ws = SearchWorkspace::new(6);
        let (out, levels) = observe(&g, 0, &mut ws, &mut FreeModel);
        assert_eq!(out.max_depth, 5);
        assert_eq!(out.reached, 6);
        assert_eq!(frontier_sizes(&levels), vec![1, 1, 1, 1, 1, 1]);
        // Path end vertex degrees: 1 then interior 2s.
        assert_eq!(levels[0].edges_inspected, 1);
        assert_eq!(levels[2].edges_inspected, 2);
    }

    #[test]
    fn isolated_root_is_trivial() {
        let g = Csr::from_undirected_edges(4, [(1, 2)]);
        let device = DeviceConfig::gtx_titan();
        let mut ws = SearchWorkspace::new(4);
        let mut bc = vec![0.0; 4];
        let out = process_root(&g, 0, &device, &mut ws, &mut FreeModel, &mut bc);
        assert_eq!(out.max_depth, 0);
        assert_eq!(out.reached, 1);
        assert!(bc.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn workspace_exposes_search_state() {
        let g = gen::path(4);
        let device = DeviceConfig::gtx_titan();
        let mut ws = SearchWorkspace::new(4);
        let mut bc = vec![0.0; 4];
        process_root(&g, 0, &device, &mut ws, &mut FreeModel, &mut bc);
        assert_eq!(ws.dist(), &[0, 1, 2, 3]);
        assert_eq!(ws.sigma(), &[1.0, 1.0, 1.0, 1.0]);
        // δ along a path: δ(1) from successors 2,3...
        assert!(ws.delta()[1] > ws.delta()[2]);
    }

    #[test]
    fn sweep_reset_matches_fresh_workspace() {
        // Two components: searches from the small component must not
        // see stale state left by the big one (and vice versa).
        let g = Csr::from_undirected_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6)]);
        let device = DeviceConfig::gtx_titan();
        let mut reused = SearchWorkspace::new(7);
        for r in [0u32, 5, 4, 1, 6] {
            let mut bc_reused = vec![0.0; 7];
            let mut bc_fresh = vec![0.0; 7];
            let out_reused =
                process_root(&g, r, &device, &mut reused, &mut FreeModel, &mut bc_reused);
            let mut fresh = SearchWorkspace::new(7);
            let out_fresh = process_root(&g, r, &device, &mut fresh, &mut FreeModel, &mut bc_fresh);
            assert_eq!(bc_reused, bc_fresh, "root {r}");
            assert_eq!(out_reused.reached, out_fresh.reached);
            assert_eq!(reused.dist(), fresh.dist());
            assert_eq!(reused.sigma(), fresh.sigma());
        }
    }

    #[test]
    fn root_outcome_reset_clears_traces() {
        let g = gen::path(5);
        let device = DeviceConfig::gtx_titan();
        let mut ws = SearchWorkspace::new(5);
        let mut bc = vec![0.0; 5];
        let mut out = RootOutcome::default();
        let ctx = |root| RootContext {
            g: &g,
            root,
            device: &device,
        };
        process_root_into(&ctx(0), &mut ws, &mut FreeModel, &mut bc, &mut out);
        assert_eq!(out.reached, 5);
        let mut rec = MetricsRecorder::default();
        process_root_observed(
            &ctx(2),
            &mut ws,
            &mut FreeModel,
            &mut bc,
            &mut out,
            &mut rec,
        );
        assert_eq!((out.reached, out.max_depth), (5, 2));
        let levels = &rec.roots[0].levels;
        assert_eq!(frontier_sizes(levels), vec![1, 2, 2]);
        assert!(
            levels.iter().all(|l| l.traversal == MetricTraversal::Push),
            "default models never pull"
        );
    }

    /// Forces every forward level to run bottom-up (prices nothing).
    struct AlwaysPull;

    impl CostModel for AlwaysPull {
        fn price(&mut self, _g: &Csr, _d: &DeviceConfig, _l: &LevelInfo<'_>) -> PricedIteration {
            PricedIteration::default()
        }
        fn choose_traversal(
            &mut self,
            _g: &Csr,
            _d: &DeviceConfig,
            _f: &FrontierSnapshot,
        ) -> Traversal {
            Traversal::Pull
        }
    }

    #[test]
    fn pull_levels_are_bitwise_identical_to_push() {
        let device = DeviceConfig::gtx_titan();
        for g in [
            gen::path(12),
            gen::star(9),
            gen::grid(7, 5),
            gen::cycle(9),
            gen::erdos_renyi(80, 200, 3),
            Csr::from_undirected_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6)]),
        ] {
            for root in [0u32, (g.num_vertices() as u32).saturating_sub(1)] {
                let n = g.num_vertices();
                let (mut push_ws, mut pull_ws) = (SearchWorkspace::new(n), SearchWorkspace::new(n));
                let mut push_bc = vec![0.0; n];
                let mut pull_bc = vec![0.0; n];
                let push_out = process_root(
                    &g,
                    root,
                    &device,
                    &mut push_ws,
                    &mut FreeModel,
                    &mut push_bc,
                );
                let pull_out = process_root(
                    &g,
                    root,
                    &device,
                    &mut pull_ws,
                    &mut AlwaysPull,
                    &mut pull_bc,
                );
                let (_, push_levels) = observe(&g, root, &mut push_ws, &mut FreeModel);
                let (_, pull_levels) = observe(&g, root, &mut pull_ws, &mut AlwaysPull);
                assert_eq!(push_ws.dist(), pull_ws.dist(), "root {root}");
                assert_eq!(push_ws.sigma(), pull_ws.sigma(), "root {root}");
                assert_eq!(push_ws.stack(), pull_ws.stack(), "root {root}");
                assert_eq!(push_ws.ends(), pull_ws.ends(), "root {root}");
                assert_eq!(push_ws.delta(), pull_ws.delta(), "root {root}");
                assert_eq!(push_bc, pull_bc, "root {root}");
                assert_eq!(push_out.max_depth, pull_out.max_depth);
                assert_eq!(frontier_sizes(&push_levels), frontier_sizes(&pull_levels));
                // Every forward level of a reachable search pulled.
                if pull_out.max_depth > 0 {
                    assert!(pull_levels
                        .iter()
                        .any(|l| l.traversal == MetricTraversal::Pull));
                }
            }
        }
    }

    #[test]
    fn metrics_records_mirror_the_search() {
        use bc_graph::traversal;
        let g = gen::erdos_renyi(80, 200, 11);
        let mut ws = SearchWorkspace::new(g.num_vertices());
        let (out, levels) = observe(&g, 0, &mut ws, &mut FreeModel);
        let root = RootMetrics { root: 0, levels };
        assert_eq!(root.max_depth(), out.max_depth);
        let forward: Vec<_> = root
            .levels
            .iter()
            .filter(|l| l.phase == MetricPhase::Forward)
            .collect();
        assert_eq!(forward.len(), out.max_depth as usize + 1);
        // Q_curr per level is the BFS frontier trace; discoveries
        // cover everything reached except the root itself.
        let sizes: Vec<u64> = traversal::frontier_sizes(&g, 0)
            .iter()
            .map(|&s| s as u64)
            .collect();
        assert_eq!(frontier_sizes(&root.levels), sizes);
        let discovered: u64 = forward.iter().map(|l| l.q_next).sum();
        assert_eq!(discovered, out.reached as u64 - 1);
        // Push levels attempt one CAS per inspected edge (the edge
        // frontier) and win one per discovery.
        let edges = traversal::edge_frontier_sizes(&g, 0);
        for (l, &edges) in forward.iter().zip(&edges) {
            assert_eq!(l.edges_inspected, edges);
            assert_eq!(l.cas_attempts, edges);
            assert_eq!(l.cas_wins, l.q_next);
        }
        assert_eq!(forward[0].switch, Some(SwitchReason::Start));
        // Backward levels carry no CAS and no switch.
        for l in root
            .levels
            .iter()
            .filter(|l| l.phase == MetricPhase::Backward)
        {
            assert_eq!(l.cas_attempts, 0);
            assert_eq!(l.q_next, 0);
            assert!(l.switch.is_none());
        }
    }

    #[test]
    fn observer_switches_default_off() {
        // Read through a generic bound (not the literal constants) so
        // the check sees what the engine's emission guards see.
        fn switches<O: Observer>() -> (bool, bool) {
            (O::LEVELS, O::ACCESSES)
        }
        assert_eq!(switches::<()>(), (false, false));
        assert_eq!(switches::<MetricsRecorder>(), (true, false));
    }

    #[test]
    fn recorder_groups_levels_under_roots() {
        let g = Csr::from_undirected_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let device = DeviceConfig::gtx_titan();
        let mut ws = SearchWorkspace::new(5);
        let mut bc = vec![0.0; 5];
        let mut out = RootOutcome::default();
        let mut rec = MetricsRecorder::default();
        for root in [0, 3, 2] {
            let ctx = RootContext {
                g: &g,
                root,
                device: &device,
            };
            process_root_observed(&ctx, &mut ws, &mut FreeModel, &mut bc, &mut out, &mut rec);
        }
        let roots: Vec<u32> = rec.roots.iter().map(|r| r.root).collect();
        assert_eq!(roots, vec![0, 3, 2]);
        // Forward levels 0..=max_depth, then backward levels
        // max_depth-1 down to 1.
        let shape = |r: &RootMetrics| -> Vec<(MetricPhase, u32)> {
            r.levels.iter().map(|l| (l.phase, l.depth)).collect()
        };
        use MetricPhase::{Backward, Forward};
        assert_eq!(
            shape(&rec.roots[0]),
            vec![(Forward, 0), (Forward, 1), (Forward, 2), (Backward, 1)]
        );
        assert_eq!(shape(&rec.roots[1]), vec![(Forward, 0), (Forward, 1)]);
        assert_eq!(
            shape(&rec.roots[2]),
            vec![(Forward, 0), (Forward, 1), (Forward, 2), (Backward, 1)]
        );
    }

    #[test]
    fn ends_segments_match_bfs_levels() {
        let g = gen::star(5);
        let mut ws = SearchWorkspace::new(5);
        let (out, levels) = observe(&g, 0, &mut ws, &mut FreeModel);
        assert_eq!(frontier_sizes(&levels), vec![1, 4]);
        assert_eq!(out.max_depth, 1);
    }

    /// δ of the last search in `ws`, recomputed from its forward state
    /// (distances, σ, stack) by scanning every neighbour of each
    /// non-root vertex for successors and summing their contributions
    /// with the test oracle's exact sum; also the successor edges found
    /// out of each depth.
    fn exact_reference_delta(g: &Csr, ws: &SearchWorkspace) -> (Vec<f64>, Vec<u64>) {
        let (dist, sigma) = (ws.dist(), ws.sigma());
        let mut delta = vec![0.0f64; g.num_vertices()];
        let mut successors = vec![0u64; ws.ends().len()];
        let mut contrib = Vec::new();
        for &w in ws.stack()[1..].iter().rev() {
            contrib.clear();
            for &v in g.neighbors(w) {
                if dist[v as usize] == dist[w as usize] + 1 {
                    let c = sigma[w as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                    contrib.push(c);
                }
            }
            successors[dist[w as usize] as usize] += contrib.len() as u64;
            delta[w as usize] = oracle_sum(&contrib);
        }
        (delta, successors)
    }

    /// Searches `roots` of `g` under `model` in one reused workspace
    /// and checks δ, each backward level's `updates` and the engine's
    /// accumulated scores bitwise against [`exact_reference_delta`].
    fn assert_backward_matches_reference(
        g: &Csr,
        roots: impl IntoIterator<Item = VertexId>,
        ws: &mut SearchWorkspace,
        model: &mut dyn CostModel,
    ) {
        let n = g.num_vertices();
        let mut bc = vec![0.0; n];
        let mut bc_ref = vec![0.0; n];
        for r in roots {
            let (out, levels) = observe_into(g, r, ws, model, &mut bc);
            assert_eq!(out.check(r), Ok(()));
            let (delta, successors) = exact_reference_delta(g, ws);
            for (v, (a, b)) in ws.delta().iter().zip(&delta).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "root {r}, vertex {v}: {a} vs {b}");
            }
            let backward: Vec<_> = levels
                .iter()
                .filter(|l| l.phase == MetricPhase::Backward)
                .collect();
            assert_eq!(backward.len(), out.max_depth.saturating_sub(1) as usize);
            for l in backward {
                assert_eq!(
                    l.updates, successors[l.depth as usize],
                    "root {r}, depth {}",
                    l.depth
                );
            }
            for &w in &ws.stack()[1..] {
                bc_ref[w as usize] += delta[w as usize];
            }
        }
        for (v, (a, b)) in bc.iter().zip(&bc_ref).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn backward_sweep_matches_exact_sum_reference_bitwise() {
        // Kronecker hubs with many distinct contributions, a star whose
        // hub sums n − 1 equal ones, and a complete bipartite graph
        // where every list is all ties; each searched with push levels
        // and with every level pulled, so both forward loops record
        // the successor lists the backward sweep walks.
        let bipartite =
            Csr::from_undirected_edges(48, (0..8u32).flat_map(|a| (8..48u32).map(move |b| (a, b))));
        let kron = gen::kronecker(10, 16, 3);
        let every_7th = |g: &Csr| (0..g.num_vertices() as VertexId).step_by(7);
        for g in [&kron, &gen::star(300), &bipartite] {
            let n = g.num_vertices();
            let (mut push_ws, mut pull_ws) = (SearchWorkspace::new(n), SearchWorkspace::new(n));
            assert_backward_matches_reference(g, every_7th(g), &mut push_ws, &mut FreeModel);
            assert_backward_matches_reference(g, every_7th(g), &mut pull_ws, &mut AlwaysPull);
        }
        // Beamer's automaton switches direction mid-search on kron.
        let mut auto = crate::DirectionOptimizingModel::new(crate::TraversalMode::Auto);
        let mut ws = SearchWorkspace::new(kron.num_vertices());
        assert_backward_matches_reference(&kron, every_7th(&kron), &mut ws, &mut auto);
        assert!(auto.push_iterations > 0 && auto.pull_iterations > 0);
        // A directed graph: only kron's arcs from the lower label
        // survive, so successors are out-neighbours only.
        let mut offsets = vec![0];
        let mut adj = Vec::new();
        for v in kron.vertices() {
            adj.extend(kron.neighbors(v).iter().filter(|&&w| w > v));
            offsets.push(adj.len() as u32);
        }
        let directed = Csr::from_raw_parts(offsets, adj, false);
        assert!(!directed.is_symmetric());
        let mut ws = SearchWorkspace::new(directed.num_vertices());
        assert_backward_matches_reference(&directed, every_7th(&directed), &mut ws, &mut FreeModel);
        // A workspace reused right after a search that stopped on σ
        // overflow, whose last level recorded no successor lists. From
        // diamond i's tip σ peaks at 2^max(i, 1100 − i), finite for
        // 77 ≤ i ≤ 1023.
        let chain = gen::diamond_chain(1100);
        let mut ws = SearchWorkspace::new(chain.num_vertices());
        let (out, _) = observe(&chain, 0, &mut ws, &mut FreeModel);
        assert_eq!(out.sigma_overflow_depth, Some(2048));
        let fitting = (3 * 80..3 * 1020).step_by(97);
        assert_backward_matches_reference(&chain, fitting, &mut ws, &mut FreeModel);
    }

    #[test]
    fn sigma_overflow_stops_the_search_before_bc() {
        let device = DeviceConfig::gtx_titan();
        // σ = 2^1024 first appears at diamond 1024's far vertex,
        // depth 2048; 2^1000 stays finite.
        let g = gen::diamond_chain(1100);
        let mut ws = SearchWorkspace::new(g.num_vertices());
        let mut bc = vec![0.0; g.num_vertices()];
        let out = process_root(&g, 0, &device, &mut ws, &mut FreeModel, &mut bc);
        assert_eq!(out.sigma_overflow_depth, Some(2048));
        assert_eq!(out.max_depth, 2048);
        assert_eq!(
            out.check(0),
            Err(SimError::PathCountOverflow {
                root: 0,
                depth: 2048
            })
        );
        assert!(bc.iter().all(|&b| b == 0.0));
        // The workspace stays reusable: from the middle vertex σ only
        // reaches 2^550, and that search matches a fresh workspace's.
        let mid = 3 * 550;
        let out = process_root(&g, mid, &device, &mut ws, &mut FreeModel, &mut bc);
        assert_eq!(out.check(mid), Ok(()));
        let mut fresh = SearchWorkspace::new(g.num_vertices());
        let mut bc_fresh = vec![0.0; g.num_vertices()];
        process_root(&g, mid, &device, &mut fresh, &mut FreeModel, &mut bc_fresh);
        assert_eq!(ws.delta(), fresh.delta());
        assert_eq!(bc, bc_fresh);
        assert!(bc.iter().all(|b| b.is_finite()));
    }
}
