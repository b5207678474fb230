//! Parallel multi-root execution engine.
//!
//! Brandes' per-root searches are independent — the same
//! coarse-grained parallelism the paper exploits across thread blocks
//! (§III) and the cluster runner exploits across GPUs. This module
//! shards a resolved root set across host threads while keeping the
//! results **bitwise reproducible at any thread count**.
//!
//! One private shard driver owns everything the runners share: the
//! shard partition, LPT cost seeding, the [`Schedule`]'s claim queue,
//! panic containment, the thread scope, and (on metered runs only)
//! the busy/idle clocks. Each public runner supplies just a per-shard
//! body:
//!
//! * [`run_roots_scheduled`] / [`run_roots_scheduled_metered`] (and
//!   [`run_roots`], the static-schedule shorthand) run the engine and
//!   stream each shard's δ accumulator into an ordered merger;
//! * [`cpu_betweenness_from_roots`] runs exact CPU Brandes into the
//!   same merger;
//! * [`run_roots_contributions`] keeps each root's δ contribution
//!   separate, for caches that refold them with
//!   [`merge_contribution_entries`].
//!
//! The reproducibility rules hold for every body:
//!
//! * The shard partition depends only on the root count (never on the
//!   thread count or the schedule): at most [`MAX_SHARDS`] shards of
//!   equal size.
//! * Each worker owns one reused workspace and accumulates each
//!   shard's δ contributions into a zeroed per-shard buffer, so
//!   within-shard floating-point association is fixed.
//! * Shard results are merged **in shard-index order** through an
//!   ordered merger, regardless of completion order. The merger
//!   recycles drained buffers, so memory stays O(workers · n).
//! * Cost models are forked per shard from a shared prototype
//!   ([`ShardableCostModel::fork`]) and merged back in shard order, so
//!   per-root *simulated* timing is identical to a sequential run
//!   while *wall-clock* time drops with cores.
//!
//! Which worker executes which shard — and when — is delegated to a
//! [`Schedule`] ([`crate::schedule`]): static blocks, guided shrinking
//! chunks behind an LPT-sorted cursor, or work-stealing deques seeded
//! by the [`bc_graph::stats::RootCostEstimator`]. Because the merge
//! order is fixed above, the schedule moves wall-clock only: one
//! thread produces exactly the same bytes as eight under any schedule.
//! The only tolerated difference is against the fully sequential
//! single-accumulator path (different f64 association across shards,
//! within 1e-9 on the equivalence tests).

use crate::brandes;
use crate::engine::{
    process_root_into, process_root_observed, CostModel, FreeModel, Observer, RootContext,
    RootOutcome, SearchWorkspace,
};
use crate::schedule::{Schedule, ShardQueue};
use bc_gpusim::{DeviceConfig, KernelCounters, SimError};
use bc_graph::{Csr, VertexId};
use bc_metrics::{MetricsRecorder, RootMetrics, WorkerMetrics};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Stringify a panic payload (the `Box<dyn Any>` a contained panic
/// hands back) for structured error reporting.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// First failure observed across the shard workers: a contained panic
/// (as [`SimError::WorkerPanic`] naming the shard) or an error a shard
/// body returned. Failing workers record here and raise the abort flag
/// instead of unwinding through the thread scope.
struct FailureSlot {
    slot: Mutex<Option<SimError>>,
    abort: AtomicBool,
}

impl FailureSlot {
    fn new() -> Self {
        FailureSlot {
            slot: Mutex::new(None),
            abort: AtomicBool::new(false),
        }
    }

    fn record(&self, err: SimError) {
        let mut slot = self.slot.lock().expect("failure slot poisoned");
        slot.get_or_insert(err);
        self.abort.store(true, Ordering::Release);
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    fn into_error(self) -> Option<SimError> {
        self.slot.into_inner().expect("failure slot poisoned")
    }
}

/// Upper bound on the number of shards a root set is split into.
///
/// Fixing the partition at `ceil(roots / ceil(roots / MAX_SHARDS))`
/// shards makes the floating-point merge order a function of the root
/// count alone — the precondition for bitwise reproducibility across
/// thread counts — while still exposing enough slack for dynamic load
/// balancing on any realistic host.
pub const MAX_SHARDS: usize = 64;

/// A cost model that can be forked to worker shards and merged back.
///
/// The contract mirrors the engine's pricing semantics: pricing must
/// be *root-pure* (a forked model prices any root exactly as the
/// prototype would — all the in-tree models reset per-root state in
/// [`CostModel::begin_root`] and keep only scratch buffers plus
/// additive statistics), and [`merge_worker`] folds a fork's
/// statistics back into the prototype. Merges are applied in
/// shard-index order.
///
/// [`merge_worker`]: ShardableCostModel::merge_worker
pub trait ShardableCostModel: CostModel + Send + Sync {
    /// A fresh model pricing roots identically to `self`, with its
    /// own scratch state.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Fold a finished fork's statistics back into `self`. Models
    /// without accumulated statistics keep the default no-op.
    fn merge_worker(&mut self, _worker: Self)
    where
        Self: Sized,
    {
    }
}

impl ShardableCostModel for FreeModel {
    fn fork(&self) -> Self {
        FreeModel
    }
}

/// Resolve a thread-count request: explicit `requested` wins, then
/// the `RAYON_NUM_THREADS` environment variable (kept for continuity
/// with the former rayon-based CPU path), then the host's available
/// parallelism.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(k) = v.parse::<usize>() {
            if k > 0 {
                return k;
            }
        }
    }
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Roots per shard for a given root count (the last shard may be
/// short). Depends only on the root count — never on the thread count
/// or schedule, so the floating-point merge structure is fixed.
fn shard_size(num_roots: usize) -> usize {
    num_roots.div_ceil(MAX_SHARDS).max(1)
}

/// Per-shard cost estimates for LPT seeding, or `None` when the
/// schedule ignores them. A shard's cost is the sum of its roots'
/// [`bc_graph::stats::RootCostEstimator`] estimates.
fn shard_costs(
    g: &Csr,
    roots: &[VertexId],
    size: usize,
    shards: usize,
    schedule: Schedule,
) -> Option<Vec<f64>> {
    if schedule == Schedule::Static || shards <= 1 {
        return None;
    }
    let est = bc_graph::stats::RootCostEstimator::new(g, 2);
    Some(
        (0..shards)
            .map(|s| {
                let lo = s * size;
                let hi = (lo + size).min(roots.len());
                roots[lo..hi].iter().map(|&r| est.estimate(r)).sum()
            })
            .collect(),
    )
}

/// The shard driver every runner in this module goes through.
///
/// Splits `roots` into the fixed shard partition, seeds `schedule`'s
/// claim queue (LPT costs for the dynamic schedules), and lets up to
/// `threads` workers (0 = auto, see [`effective_threads`]) claim
/// shards until none remain. Each worker builds its private state
/// with `init`, hands every claimed shard to `body` as
/// `(state, shard index, root index range)`, and gives the state to
/// `retire` once the queue is empty.
///
/// A panic inside `body` is contained: that worker stops without
/// retiring its (possibly mid-update) state, the others drain, and the
/// first panic comes back as [`SimError::WorkerPanic`] naming the
/// shard. An error `body` returns stops its worker the same way and
/// comes back as itself. When the run's observer `O` keeps level
/// records (a metered run), claims are timed as idle and bodies as
/// busy, and one [`WorkerMetrics`] per worker comes back in worker
/// order; unmetered runs read no clocks and return no records.
fn drive_shards<W, O: Observer>(
    g: &Csr,
    roots: &[VertexId],
    threads: usize,
    schedule: Schedule,
    init: impl Fn() -> W + Sync,
    body: impl Fn(&mut W, usize, Range<usize>) -> Result<(), SimError> + Sync,
    retire: impl Fn(W) + Sync,
) -> Result<Vec<WorkerMetrics>, SimError> {
    let num_roots = roots.len();
    if num_roots == 0 {
        return Ok(Vec::new());
    }
    let size = shard_size(num_roots);
    let shards = num_roots.div_ceil(size);
    let workers = effective_threads(threads).min(shards).max(1);
    let costs = shard_costs(g, roots, size, shards, schedule);
    let queue = ShardQueue::new(schedule, shards, workers, costs.as_deref());
    let failure = FailureSlot::new();
    let records: Mutex<Vec<WorkerMetrics>> = Mutex::new(Vec::new());

    let worker = |worker_id: usize| {
        let mut state = init();
        let mut claims = queue.worker_state(worker_id);
        // Busy/idle are accumulated as integer nanoseconds with
        // checked adds (u128 holds ~10^22 years of them) and only
        // converted to f64 seconds once at the end: repeated f64 `+=`
        // of tiny elapsed times loses precision as the sum grows, and
        // the utilization metrics divide these numbers.
        let mut busy_nanos = 0u128;
        let mut idle_nanos = 0u128;
        let mut roots_done = 0u64;
        while !failure.aborted() {
            let claim_started = O::LEVELS.then(Instant::now);
            let claimed = queue.claim(&mut claims);
            if let Some(t) = claim_started {
                idle_nanos = idle_nanos
                    .checked_add(t.elapsed().as_nanos())
                    .expect("idle nanos overflow u128");
            }
            let Some(shard) = claimed else {
                break;
            };
            let shard = shard as usize;
            let range = shard * size..((shard + 1) * size).min(num_roots);
            roots_done += range.len() as u64;
            let work_started = O::LEVELS.then(Instant::now);
            // `state` may be mid-update when a panic unwinds, but this
            // worker stops and never touches it again, so
            // AssertUnwindSafe is sound.
            let failed = match catch_unwind(AssertUnwindSafe(|| body(&mut state, shard, range))) {
                Ok(result) => result.err(),
                Err(payload) => Some(SimError::WorkerPanic {
                    worker: shard,
                    what: panic_message(payload),
                }),
            };
            if let Some(err) = failed {
                failure.record(err);
                return;
            }
            if let Some(t) = work_started {
                busy_nanos = busy_nanos
                    .checked_add(t.elapsed().as_nanos())
                    .expect("busy nanos overflow u128");
            }
        }
        retire(state);
        if O::LEVELS {
            let stats = claims.stats;
            records
                .lock()
                .expect("worker metrics poisoned")
                .push(WorkerMetrics {
                    worker: worker_id as u64,
                    phase: 0,
                    schedule: schedule.name().to_owned(),
                    phase_roots: num_roots as u64,
                    shard_size: size as u64,
                    shards: stats.shards,
                    roots_processed: roots_done,
                    steals: stats.steals,
                    failed_steal_attempts: stats.failed_steal_attempts,
                    max_queue_depth: stats.max_queue_depth,
                    busy_seconds: busy_nanos as f64 * 1e-9,
                    idle_seconds: idle_nanos as f64 * 1e-9,
                });
        }
    };

    if workers == 1 {
        worker(0);
    } else {
        std::thread::scope(|scope| {
            let worker = &worker;
            for id in 1..workers {
                scope.spawn(move || worker(id));
            }
            worker(0);
        });
    }

    if let Some(err) = failure.into_error() {
        return Err(err);
    }
    let mut records = records.into_inner().expect("worker metrics poisoned");
    records.sort_by_key(|w| w.worker);
    Ok(records)
}

/// Aggregated outcome of a sharded multi-root run, with per-root
/// vectors in root order (exactly as a sequential loop would have
/// produced them).
#[derive(Clone, Debug)]
pub struct RootsRun {
    /// Summed δ contributions of all processed roots (no symmetry
    /// halving, no normalization — the caller's epilogue applies
    /// those).
    pub scores: Vec<f64>,
    /// Simulated block-seconds of each root, in root order.
    pub per_root_seconds: Vec<f64>,
    /// Max BFS depth of each root, in root order.
    pub max_depths: Vec<u32>,
    /// Work counters summed over all roots (shard-ordered merge).
    pub counters: KernelCounters,
}

/// What one shard hands to the ordered merger besides its score
/// accumulator. Shards are contiguous root ranges drained in shard
/// order, so appending these restores global root order.
struct ShardMeta<M, O> {
    per_root_seconds: Vec<f64>,
    max_depths: Vec<u32>,
    counters: KernelCounters,
    model: M,
    /// The shard's observer, after it saw every root of the shard.
    obs: O,
}

/// Merges per-shard score accumulators into the final vector in
/// shard-index order, regardless of the order workers finish in, and
/// recycles drained buffers so the steady state allocates nothing.
struct OrderedMerger<Meta> {
    n: usize,
    state: Mutex<MergeInner<Meta>>,
}

struct MergeInner<Meta> {
    /// Next shard index the merge is waiting on.
    next: usize,
    /// Finished shards that arrived ahead of `next`.
    pending: BTreeMap<usize, (Vec<f64>, Meta)>,
    scores: Vec<f64>,
    /// Metas of drained shards, in shard order.
    metas: Vec<Meta>,
    /// Zeroed buffers ready for reuse.
    pool: Vec<Vec<f64>>,
}

impl<Meta> OrderedMerger<Meta> {
    fn new(n: usize) -> Self {
        OrderedMerger {
            n,
            state: Mutex::new(MergeInner {
                next: 0,
                pending: BTreeMap::new(),
                scores: vec![0.0; n],
                metas: Vec::new(),
                pool: Vec::new(),
            }),
        }
    }

    /// A zeroed accumulator for a worker starting up.
    fn take_buffer(&self) -> Vec<f64> {
        let recycled = self.state.lock().expect("merger poisoned").pool.pop();
        recycled.unwrap_or_else(|| vec![0.0; self.n])
    }

    /// Hand over a finished shard's accumulator `acc`; drain every
    /// shard that is now contiguous with the merge frontier; leave a
    /// zeroed buffer in `acc` for the worker's next shard.
    fn deposit(&self, shard: usize, acc: &mut Vec<f64>, meta: Meta) {
        debug_assert_eq!(
            acc.len(),
            self.n,
            "shard {shard} accumulator has the wrong length"
        );
        // No finiteness check here. No runner deposits ∞ or NaN from
        // an overflowed σ: a root whose path counts overflow f64 fails
        // the shard with `SimError::PathCountOverflow` before it adds
        // anything to the accumulator, in the engine runners and in
        // `cpu_betweenness_from_roots` alike.
        let mut st = self.state.lock().expect("merger poisoned");
        debug_assert!(
            shard >= st.next,
            "shard {shard} deposited after it was already merged"
        );
        let full = std::mem::take(acc);
        let displaced = st.pending.insert(shard, (full, meta));
        debug_assert!(displaced.is_none(), "shard {shard} deposited twice");
        loop {
            let next = st.next;
            let Some((mut buf, meta)) = st.pending.remove(&next) else {
                break;
            };
            for (dst, src) in st.scores.iter_mut().zip(&buf) {
                *dst += *src;
            }
            st.metas.push(meta);
            buf.fill(0.0);
            st.pool.push(buf);
            st.next += 1;
        }
        *acc = st.pool.pop().unwrap_or_else(|| vec![0.0; self.n]);
    }

    /// Return an unused buffer when a worker runs out of shards.
    fn recycle(&self, acc: Vec<f64>) {
        // Pool buffers are handed out as accumulators without
        // re-zeroing, so anything entering the pool must be pristine.
        debug_assert!(
            acc.iter().all(|&v| v == 0.0),
            "a dirty accumulator must be deposited, not recycled"
        );
        self.state.lock().expect("merger poisoned").pool.push(acc);
    }

    fn finish(self) -> (Vec<f64>, Vec<Meta>) {
        let inner = self.state.into_inner().expect("merger poisoned");
        assert!(
            inner.pending.is_empty(),
            "every shard must have been drained"
        );
        (inner.scores, inner.metas)
    }
}

/// Run every root of `roots` through the engine under forks of
/// `model`, sharded across `threads` host threads (0 = auto, see
/// [`effective_threads`]) in static blocks — [`run_roots_scheduled`]
/// with [`Schedule::Static`].
///
/// Scores, per-root vectors, and counters are bitwise identical at
/// any thread count; the fork's statistics are merged back into
/// `model` in shard order.
///
/// A panic inside a worker (a buggy cost model, a corrupted graph) is
/// contained: the remaining workers drain, and the first panic comes
/// back as [`SimError::WorkerPanic`] naming the shard index instead
/// of unwinding through the calling thread. A root whose path counts
/// overflow `f64` fails the run with [`SimError::PathCountOverflow`].
pub fn run_roots<M: ShardableCostModel>(
    g: &Csr,
    device: &DeviceConfig,
    roots: &[VertexId],
    threads: usize,
    model: &mut M,
) -> Result<RootsRun, SimError> {
    run_roots_scheduled(g, device, roots, threads, Schedule::Static, model)
}

/// [`run_roots`] under an explicit [`Schedule`]. Scores, per-root
/// vectors, and counters are bitwise identical across schedules and
/// thread counts — the schedule changes wall-clock only.
pub fn run_roots_scheduled<M: ShardableCostModel>(
    g: &Csr,
    device: &DeviceConfig,
    roots: &[VertexId],
    threads: usize,
    schedule: Schedule,
    model: &mut M,
) -> Result<RootsRun, SimError> {
    run_roots_inner::<M, ()>(g, device, roots, threads, schedule, model).map(|(run, _, _)| run)
}

/// [`run_roots_scheduled`] with metering: one [`RootMetrics`] record
/// per root (in global root order, via a per-shard
/// [`MetricsRecorder`] merged back through the same ordered merger as
/// the scores) plus one [`WorkerMetrics`] per worker thread (ordered
/// by worker index) describing what that worker claimed, stole, and
/// waited for. The recorders only observe values the engine already
/// computed, so everything in the returned [`RootsRun`] is bitwise
/// identical to the unmetered call's.
pub fn run_roots_scheduled_metered<M: ShardableCostModel>(
    g: &Csr,
    device: &DeviceConfig,
    roots: &[VertexId],
    threads: usize,
    schedule: Schedule,
    model: &mut M,
) -> Result<(RootsRun, Vec<RootMetrics>, Vec<WorkerMetrics>), SimError> {
    let (run, recorders, workers) =
        run_roots_inner::<M, MetricsRecorder>(g, device, roots, threads, schedule, model)?;
    let metrics = recorders.into_iter().flat_map(|r| r.roots).collect();
    Ok((run, metrics, workers))
}

/// The engine score run's shard body: search every root of the shard
/// under a fresh fork of `model` and a fresh observer `O` into the
/// worker's accumulator, then deposit it with the shard's per-root
/// vectors into the ordered merger. Returns one observer per shard, in
/// shard order.
fn run_roots_inner<M: ShardableCostModel, O: Observer + Default + Send>(
    g: &Csr,
    device: &DeviceConfig,
    roots: &[VertexId],
    threads: usize,
    schedule: Schedule,
    model: &mut M,
) -> Result<(RootsRun, Vec<O>, Vec<WorkerMetrics>), SimError> {
    let n = g.num_vertices();
    let merger: OrderedMerger<ShardMeta<M, O>> = OrderedMerger::new(n);
    let proto: &M = model;
    let workers = drive_shards::<_, O>(
        g,
        roots,
        threads,
        schedule,
        || {
            let ws = SearchWorkspace::new(n);
            (ws, RootOutcome::default(), merger.take_buffer())
        },
        |(ws, out, acc), shard, range| {
            let mut m = proto.fork();
            let mut per_root_seconds = Vec::with_capacity(range.len());
            let mut max_depths = Vec::with_capacity(range.len());
            let mut counters = KernelCounters::default();
            let mut obs = O::default();
            for &r in &roots[range] {
                let ctx = RootContext { g, root: r, device };
                process_root_observed(&ctx, ws, &mut m, acc, out, &mut obs);
                out.check(r)?;
                per_root_seconds.push(out.counters.seconds);
                max_depths.push(out.max_depth);
                counters.merge(&out.counters);
            }
            let meta = ShardMeta {
                per_root_seconds,
                max_depths,
                counters,
                model: m,
                obs,
            };
            merger.deposit(shard, acc, meta);
            Ok(())
        },
        |(_, _, acc)| merger.recycle(acc),
    )?;

    let (scores, metas) = merger.finish();
    let mut run = RootsRun {
        scores,
        per_root_seconds: Vec::with_capacity(roots.len()),
        max_depths: Vec::with_capacity(roots.len()),
        counters: KernelCounters::default(),
    };
    let mut observers = Vec::with_capacity(metas.len());
    for meta in metas {
        run.per_root_seconds.extend(meta.per_root_seconds);
        run.max_depths.extend(meta.max_depths);
        run.counters.merge(&meta.counters);
        model.merge_worker(meta.model);
        observers.push(meta.obs);
    }
    Ok((run, observers, workers))
}

/// Exact CPU Brandes over an explicit root set, sharded across
/// `threads` host threads (0 = auto) under `schedule` with the same
/// deterministic merge (and symmetric halving, matching
/// [`brandes::betweenness_from_roots`]). Like the engine runner, the
/// schedule moves wall-clock only — the scores are bitwise identical
/// across schedules and thread counts. Workers reuse one
/// [`brandes::BrandesWorkspace`] each — no per-root allocation.
///
/// Worker panics are contained like [`run_roots`]'s: the first one
/// comes back as [`SimError::WorkerPanic`] naming the shard index. A
/// root whose path counts overflow `f64` fails the run with
/// [`SimError::PathCountOverflow`] at the engine's depth, before its
/// δ reaches the scores.
pub fn cpu_betweenness_from_roots(
    g: &Csr,
    roots: &[VertexId],
    threads: usize,
    schedule: Schedule,
) -> Result<Vec<f64>, SimError> {
    let n = g.num_vertices();
    let merger: OrderedMerger<()> = OrderedMerger::new(n);
    drive_shards::<_, ()>(
        g,
        roots,
        threads,
        schedule,
        || (brandes::BrandesWorkspace::new(n), merger.take_buffer()),
        |(ws, acc), shard, range| {
            for &r in &roots[range] {
                brandes::single_source_into(g, r, ws);
                // `order` runs in non-decreasing distance, so the first
                // non-finite σ is the shallowest.
                let ss = ws.search();
                if let Some(&w) = ss
                    .order
                    .iter()
                    .find(|&&w| !ss.sigma[w as usize].is_finite())
                {
                    return Err(SimError::PathCountOverflow {
                        root: r,
                        depth: ss.dist[w as usize],
                    });
                }
                brandes::accumulate_from_workspace(g, r, ws, acc);
            }
            merger.deposit(shard, acc, ());
            Ok(())
        },
        |(_, acc)| merger.recycle(acc),
    )?;
    let (mut scores, _) = merger.finish();
    brandes::halve_if_symmetric(g, &mut scores);
    Ok(scores)
}

/// One root's dependency contribution, extracted from a zeroed
/// accumulator: exactly the addends [`run_roots_scheduled`] folds
/// into its shard accumulator for this root, plus the BFS level map
/// the serving layer's delta invalidation tests edge edits against.
#[derive(Clone, Debug, PartialEq)]
pub struct RootContribution {
    /// The root this contribution belongs to.
    pub root: VertexId,
    /// Simulated block-seconds of this root's search.
    pub seconds: f64,
    /// Deepest BFS level reached.
    pub max_depth: u32,
    /// Nonzero δ entries `(vertex, value)` in ascending vertex order.
    pub entries: Vec<(VertexId, f64)>,
    /// BFS depth of every vertex from this root (`u32::MAX` where
    /// unreachable) — the checkpointed frontier summary.
    pub levels: Vec<u32>,
}

impl RootContribution {
    /// Heap bytes this contribution occupies (the unit the serving
    /// cache prices against its device-memory budget).
    pub fn heap_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<(VertexId, f64)>()
            + self.levels.len() * std::mem::size_of::<u32>()) as u64
    }
}

/// Run every root of `roots` through the engine like
/// [`run_roots_scheduled`], but return each root's δ contribution
/// *individually* (with its BFS level map) instead of the shard-merged
/// sum. Results arrive in global root order at any thread count and
/// under any schedule, and
/// [`merge_contribution_entries`] folds them back into the exact
/// bitwise score vector `run_roots_scheduled` would have produced for
/// the same root sequence.
pub fn run_roots_contributions<M: ShardableCostModel>(
    g: &Csr,
    device: &DeviceConfig,
    roots: &[VertexId],
    threads: usize,
    schedule: Schedule,
    model: &mut M,
) -> Result<Vec<RootContribution>, SimError> {
    let n = g.num_vertices();
    let done: Mutex<Vec<(usize, Vec<RootContribution>, M)>> = Mutex::new(Vec::new());
    let proto: &M = model;
    drive_shards::<_, ()>(
        g,
        roots,
        threads,
        schedule,
        || {
            (
                SearchWorkspace::new(n),
                RootOutcome::default(),
                vec![0.0f64; n],
            )
        },
        |(ws, out, acc), shard, range| {
            let mut m = proto.fork();
            let mut contribs = Vec::with_capacity(range.len());
            for &r in &roots[range] {
                let ctx = RootContext { g, root: r, device };
                process_root_into(&ctx, ws, &mut m, acc, out);
                out.check(r)?;
                // The engine deposits δ only at reached non-root
                // stack vertices, so counting over the stack sizes the
                // vector exactly: the serving cache keeps it for as
                // long as the root stays valid, so the slack a growing
                // vector leaves would be retained memory. One
                // ascending sweep over the accumulator then extracts
                // the entries already in vertex order and restores it
                // to pristine zero, in O(n) like the `levels` copy
                // below.
                let nonzero = ws
                    .stack()
                    .iter()
                    .filter(|&&v| acc[v as usize] != 0.0)
                    .count();
                let mut entries = Vec::with_capacity(nonzero);
                for (v, slot) in acc.iter_mut().enumerate() {
                    if *slot != 0.0 {
                        entries.push((v as VertexId, std::mem::take(slot)));
                    }
                }
                contribs.push(RootContribution {
                    root: r,
                    seconds: out.counters.seconds,
                    max_depth: out.max_depth,
                    entries,
                    levels: ws.dist().to_vec(),
                });
            }
            let mut done = done.lock().expect("contribution slot poisoned");
            done.push((shard, contribs, m));
            Ok(())
        },
        drop,
    )?;

    let mut finished = done.into_inner().expect("contribution slot poisoned");
    // Shards are contiguous root ranges: draining them in shard order
    // restores global root order, and merges the model forks in the
    // same order the score runners do.
    finished.sort_by_key(|&(shard, _, _)| shard);
    let mut contributions = Vec::with_capacity(roots.len());
    for (_, contribs, m) in finished {
        contributions.extend(contribs);
        model.merge_worker(m);
    }
    Ok(contributions)
}

/// Fold per-root contribution entry lists back into a score vector,
/// reproducing [`run_roots_scheduled`]'s floating-point association
/// over the same root sequence **bitwise**: the same shard partition
/// (a function of the root count alone), per-shard accumulation in
/// root order into a zeroed buffer, and a shard-index-order merge.
/// `parts[i]` must be root `i`'s nonzero entries (any source — a live
/// run or a cache).
pub fn merge_contribution_entries(n: usize, parts: &[&[(VertexId, f64)]]) -> Vec<f64> {
    let mut scores = vec![0.0f64; n];
    if parts.is_empty() {
        return scores;
    }
    let size = shard_size(parts.len());
    let mut shard_acc = vec![0.0f64; n];
    let mut touched: Vec<VertexId> = Vec::new();
    for shard in parts.chunks(size) {
        touched.clear();
        for entries in shard {
            for &(v, d) in *entries {
                debug_assert!(d != 0.0, "contribution entries store nonzero δ only");
                let slot = &mut shard_acc[v as usize];
                if *slot == 0.0 {
                    touched.push(v);
                }
                *slot += d;
            }
        }
        // δ contributions are nonnegative, so a touched slot never
        // returns to zero: `touched` holds each vertex once, and the
        // untouched slots would merge as `x += 0.0` no-ops.
        for &v in &touched {
            scores[v as usize] += shard_acc[v as usize];
            shard_acc[v as usize] = 0.0;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LevelInfo, PricedIteration};
    use bc_graph::gen;

    fn titan() -> DeviceConfig {
        DeviceConfig::gtx_titan()
    }

    #[test]
    fn sigma_overflow_fails_every_engine_runner() {
        // Root 0 overflows σ at depth 2048; from the middle vertex σ
        // only reaches 2^550.
        let g = gen::diamond_chain(1100);
        let device = titan();
        let roots = [3 * 550, 0];
        let expect = SimError::PathCountOverflow {
            root: 0,
            depth: 2048,
        };
        for threads in [1, 2] {
            let sched = Schedule::WorkStealing;
            let m = &mut FreeModel;
            let plain = run_roots(&g, &device, &roots, threads, m).unwrap_err();
            assert_eq!(plain, expect);
            let metered =
                run_roots_scheduled_metered(&g, &device, &roots, threads, sched, m).unwrap_err();
            assert_eq!(metered, expect);
            let contribs =
                run_roots_contributions(&g, &device, &roots, threads, sched, m).unwrap_err();
            assert_eq!(contribs, expect);
        }
        let finite = run_roots(&g, &device, &[3 * 550, 3 * 550 + 1], 2, &mut FreeModel).unwrap();
        assert!(finite.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn sigma_overflow_fails_the_cpu_reference_at_the_engine_depth() {
        let g = gen::diamond_chain(1100);
        let expect = SimError::PathCountOverflow {
            root: 0,
            depth: 2048,
        };
        for threads in [1, 2] {
            for schedule in [Schedule::Static, Schedule::WorkStealing] {
                let err = cpu_betweenness_from_roots(&g, &[3 * 550, 0], threads, schedule);
                assert_eq!(err.unwrap_err(), expect, "{threads} threads, {schedule:?}");
            }
        }
        let finite = cpu_betweenness_from_roots(&g, &[3 * 550], 2, Schedule::Static).unwrap();
        assert!(finite.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        let g = gen::watts_strogatz(600, 8, 0.1, 7);
        let roots: Vec<u32> = (0..600).collect();
        let runs: Vec<RootsRun> = [1usize, 2, 5, 8]
            .iter()
            .map(|&t| run_roots(&g, &titan(), &roots, t, &mut FreeModel).unwrap())
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.scores, runs[0].scores, "scores must be bitwise equal");
            assert_eq!(run.per_root_seconds, runs[0].per_root_seconds);
            assert_eq!(run.max_depths, runs[0].max_depths);
            assert_eq!(run.counters, runs[0].counters);
        }
    }

    #[test]
    fn metered_run_is_bitwise_identical_and_root_ordered() {
        let g = gen::watts_strogatz(300, 6, 0.1, 3);
        let roots: Vec<u32> = (0..300).collect();
        let plain = run_roots(&g, &titan(), &roots, 4, &mut FreeModel).unwrap();
        for threads in [1usize, 2, 8] {
            let (run, metrics, _) = run_roots_scheduled_metered(
                &g,
                &titan(),
                &roots,
                threads,
                Schedule::Static,
                &mut FreeModel,
            )
            .unwrap();
            assert_eq!(run.scores, plain.scores);
            assert_eq!(run.per_root_seconds, plain.per_root_seconds);
            assert_eq!(run.counters, plain.counters);
            let order: Vec<u32> = metrics.iter().map(|m| m.root).collect();
            assert_eq!(order, roots, "metrics arrive in global root order");
            for (m, &d) in metrics.iter().zip(&run.max_depths) {
                assert_eq!(m.max_depth(), d);
            }
        }
    }

    #[test]
    fn matches_sequential_brandes() {
        let g = gen::erdos_renyi(120, 360, 11);
        let roots: Vec<u32> = (0..120).collect();
        let mut run = run_roots(&g, &titan(), &roots, 4, &mut FreeModel).unwrap();
        brandes::halve_if_symmetric(&g, &mut run.scores);
        let expect = brandes::betweenness(&g);
        for (i, (e, a)) in expect.iter().zip(&run.scores).enumerate() {
            assert!((e - a).abs() < 1e-9, "vertex {i}: {e} vs {a}");
        }
    }

    #[test]
    fn cpu_path_matches_sequential() {
        let g = gen::grid(9, 9);
        let roots: Vec<u32> = (0..81).collect();
        let par = cpu_betweenness_from_roots(&g, &roots, 3, Schedule::Static).unwrap();
        let seq = brandes::betweenness(&g);
        for (p, s) in par.iter().zip(&seq) {
            assert!((p - s).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_roots() {
        let g = gen::path(5);
        let run = run_roots(&g, &titan(), &[], 4, &mut FreeModel).unwrap();
        assert!(run.scores.iter().all(|&s| s == 0.0));
        assert!(run.per_root_seconds.is_empty());
        assert!(cpu_betweenness_from_roots(&g, &[], 2, Schedule::Static)
            .unwrap()
            .iter()
            .all(|&s| s == 0.0));
    }

    #[test]
    fn more_threads_than_shards() {
        let g = gen::path(10);
        let run = run_roots(&g, &titan(), &[0, 5], 64, &mut FreeModel).unwrap();
        assert_eq!(run.max_depths.len(), 2);
        assert_eq!(run.max_depths[0], 9);
    }

    /// Prices like [`FreeModel`] but panics when it meets `bad_root`
    /// — a stand-in for a buggy cost model or a corrupted workspace.
    struct PanickyModel {
        bad_root: u32,
    }

    impl CostModel for PanickyModel {
        fn begin_root(&mut self, _g: &Csr, root: VertexId) {
            assert!(root != self.bad_root, "injected model panic on root {root}");
        }
        fn price(&mut self, _g: &Csr, _d: &DeviceConfig, _l: &LevelInfo<'_>) -> PricedIteration {
            PricedIteration::default()
        }
    }

    impl ShardableCostModel for PanickyModel {
        fn fork(&self) -> Self {
            PanickyModel {
                bad_root: self.bad_root,
            }
        }
    }

    #[test]
    fn worker_panic_is_contained_and_names_the_shard() {
        let g = gen::watts_strogatz(200, 6, 0.1, 1);
        let roots: Vec<u32> = (0..200).collect();
        let d = titan();
        let bad = || PanickyModel { bad_root: 77 };
        // Root 77 lives in shard 77 / shard_size(200) = 19.
        let bad_shard = 77 / shard_size(200);
        type Runner<'a> = &'a dyn Fn(usize, Schedule) -> Result<(), SimError>;
        let runners: [(&str, Runner); 3] = [
            ("scheduled", &|t, s| {
                run_roots_scheduled(&g, &d, &roots, t, s, &mut bad()).map(drop)
            }),
            ("scheduled_metered", &|t, s| {
                run_roots_scheduled_metered(&g, &d, &roots, t, s, &mut bad()).map(drop)
            }),
            ("contributions", &|t, s| {
                run_roots_contributions(&g, &d, &roots, t, s, &mut bad()).map(drop)
            }),
        ];
        for (name, run) in runners {
            for schedule in Schedule::ALL {
                for threads in [1usize, 4] {
                    let case = format!("{name}, {schedule} x {threads}");
                    match run(threads, schedule) {
                        Err(SimError::WorkerPanic { worker, what }) => {
                            assert_eq!(worker, bad_shard, "{case}: must name the faulty shard");
                            assert!(what.contains("root 77"), "{case}: payload lost: {what}");
                        }
                        other => panic!("{case}: expected WorkerPanic, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn panic_free_runs_are_unaffected_by_containment() {
        let g = gen::grid(8, 8);
        let roots: Vec<u32> = (0..64).collect();
        let guarded = run_roots(
            &g,
            &titan(),
            &roots,
            4,
            &mut PanickyModel { bad_root: 9999 },
        )
        .unwrap();
        let free = run_roots(&g, &titan(), &roots, 4, &mut FreeModel).unwrap();
        assert_eq!(guarded.scores, free.scores);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn shard_partition_is_thread_independent() {
        assert_eq!(shard_size(1), 1);
        assert_eq!(shard_size(64), 1);
        assert_eq!(shard_size(65), 2);
        assert_eq!(shard_size(1000), 16);
        // 1000 roots -> 63 shards of 16 even though MAX_SHARDS is 64.
        assert_eq!(1000usize.div_ceil(shard_size(1000)), 63);
    }

    /// The partition covers `0..num_roots` exactly once, as
    /// `shards - 1` full shards plus a (possibly short, never empty)
    /// last shard.
    fn assert_partition(num_roots: usize) {
        let size = shard_size(num_roots);
        let shards = num_roots.div_ceil(size);
        assert!(shards <= MAX_SHARDS, "{num_roots} roots -> {shards} shards");
        let mut covered = 0usize;
        for s in 0..shards {
            let lo = s * size;
            let hi = (lo + size).min(num_roots);
            assert_eq!(lo, covered, "shard {s} starts at the previous end");
            assert!(hi > lo, "shard {s} of {num_roots} roots is empty");
            if s + 1 < shards {
                assert_eq!(hi - lo, size, "only the last shard may be short");
            }
            covered = hi;
        }
        assert_eq!(covered, num_roots, "shards cover every root");
    }

    #[test]
    fn shard_size_edge_behavior() {
        // Fewer roots than MAX_SHARDS: one root per shard, one shard
        // per root.
        for n in 1..=MAX_SHARDS {
            assert_eq!(shard_size(n), 1);
            assert_eq!(n.div_ceil(shard_size(n)), n);
        }
        // Exact multiples of MAX_SHARDS: every shard full.
        for mult in [2usize, 3, 10] {
            let n = MAX_SHARDS * mult;
            assert_eq!(shard_size(n), mult);
            assert_eq!(n % shard_size(n), 0);
        }
        // Uneven last shard: 130 roots -> shards of 3, and the 44th
        // shard holds the single leftover root.
        let n = 130;
        let size = shard_size(n);
        assert_eq!(size, 3);
        let shards = n.div_ceil(size);
        assert_eq!(shards, 44);
        assert_eq!(
            n - (shards - 1) * size,
            1,
            "last shard is short but nonempty"
        );
        // The partition is well-formed at every interesting size. The
        // thread count never enters `shard_size`'s signature, so the
        // partition is thread-count-independent by construction.
        for n in [1usize, 5, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097] {
            assert_partition(n);
        }
    }

    #[test]
    fn scheduled_runs_are_bitwise_identical_to_static() {
        // A skewed graph: a deep road-like chain component and a
        // shallow dense one, so the dynamic schedules actually move
        // shards between workers.
        let mut edges: Vec<(u32, u32)> = (0..149u32).map(|v| (v, v + 1)).collect();
        let sw = gen::watts_strogatz(150, 6, 0.1, 3);
        for v in sw.vertices() {
            for &w in sw.neighbors(v) {
                if v < w {
                    edges.push((v + 150, w + 150));
                }
            }
        }
        let g = bc_graph::Csr::from_undirected_edges(300, edges);
        let roots: Vec<u32> = (0..300).collect();
        let baseline = run_roots(&g, &titan(), &roots, 1, &mut FreeModel).unwrap();
        for schedule in Schedule::ALL {
            for threads in [1usize, 3, 8] {
                let run =
                    run_roots_scheduled(&g, &titan(), &roots, threads, schedule, &mut FreeModel)
                        .unwrap();
                assert_eq!(run.scores, baseline.scores, "{schedule} x {threads}");
                assert_eq!(run.per_root_seconds, baseline.per_root_seconds);
                assert_eq!(run.max_depths, baseline.max_depths);
                assert_eq!(run.counters, baseline.counters);
                let cpu = cpu_betweenness_from_roots(&g, &roots, threads, schedule).unwrap();
                let cpu_base = cpu_betweenness_from_roots(&g, &roots, 1, Schedule::Static).unwrap();
                assert_eq!(cpu, cpu_base, "cpu {schedule} x {threads}");
            }
        }
    }

    #[test]
    fn contributions_reassemble_bitwise_and_carry_levels() {
        let g = gen::watts_strogatz(300, 6, 0.1, 5);
        let roots: Vec<u32> = (0..300).step_by(2).collect();
        let baseline =
            run_roots_scheduled(&g, &titan(), &roots, 1, Schedule::Static, &mut FreeModel).unwrap();
        for schedule in Schedule::ALL {
            for threads in [1usize, 2, 4] {
                let contribs = run_roots_contributions(
                    &g,
                    &titan(),
                    &roots,
                    threads,
                    schedule,
                    &mut FreeModel,
                )
                .unwrap();
                // Global root order at any thread count and schedule.
                let order: Vec<u32> = contribs.iter().map(|c| c.root).collect();
                assert_eq!(order, roots, "{schedule} x {threads}");
                let seconds: Vec<f64> = contribs.iter().map(|c| c.seconds).collect();
                assert_eq!(seconds, baseline.per_root_seconds);
                let depths: Vec<u32> = contribs.iter().map(|c| c.max_depth).collect();
                assert_eq!(depths, baseline.max_depths);
                // Reassembly reproduces the shard-merged sum bitwise.
                let parts: Vec<&[(u32, f64)]> =
                    contribs.iter().map(|c| c.entries.as_slice()).collect();
                let scores = merge_contribution_entries(g.num_vertices(), &parts);
                assert_eq!(scores, baseline.scores, "{schedule} x {threads}");
            }
        }
        // Levels are the BFS distance map; entries are sorted nonzero.
        let contribs =
            run_roots_contributions(&g, &titan(), &roots, 2, Schedule::Static, &mut FreeModel)
                .unwrap();
        for c in contribs.iter().take(8) {
            assert_eq!(c.levels, bc_graph::traversal::bfs_distances(&g, c.root));
            assert!(c.entries.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(c.entries.iter().all(|&(_, d)| d != 0.0));
            assert!(c.heap_bytes() > 0);
        }
    }

    #[test]
    fn contribution_entries_are_allocated_exactly() {
        // Serve keeps these vectors in its cache for as long as the
        // root stays valid, so any slack capacity is retained memory.
        let g = gen::watts_strogatz(300, 6, 0.1, 5);
        let roots: Vec<u32> = (0..300).collect();
        let contribs =
            run_roots_contributions(&g, &titan(), &roots, 2, Schedule::Static, &mut FreeModel)
                .unwrap();
        for c in &contribs {
            assert_eq!(c.entries.capacity(), c.entries.len(), "root {}", c.root);
        }
        // Lengths off the doubling sequence, where a vector grown by
        // reallocation would show its slack.
        assert!(contribs.iter().any(|c| !c.entries.len().is_power_of_two()));
    }

    #[test]
    fn contribution_sweep_matches_stack_sort_reference_across_components() {
        // A large component and two small ones. Roots alternate
        // between them, so any slot the sweep failed to zero after a
        // large-component root would leak into the next small one.
        let big = gen::watts_strogatz(200, 6, 0.1, 3);
        let small = bc_graph::builder::disjoint_union(&gen::path(6), &gen::star(5));
        let g = bc_graph::builder::disjoint_union(&big, &small);
        let n = g.num_vertices();
        let roots: Vec<u32> = (0..12u32).flat_map(|i| [i * 16, 200 + i % 11]).collect();
        // Reference: a fresh accumulator per root, swept over the
        // stack, then sorted by vertex.
        let reference: Vec<Vec<(u32, f64)>> = roots
            .iter()
            .map(|&r| {
                let mut ws = SearchWorkspace::new(n);
                let mut acc = vec![0.0f64; n];
                let out =
                    crate::engine::process_root(&g, r, &titan(), &mut ws, &mut FreeModel, &mut acc);
                out.check(r).unwrap();
                let mut entries: Vec<(u32, f64)> = ws
                    .stack()
                    .iter()
                    .map(|&v| (v, acc[v as usize]))
                    .filter(|&(_, d)| d != 0.0)
                    .collect();
                entries.sort_unstable_by_key(|&(v, _)| v);
                entries
            })
            .collect();
        assert!(reference.iter().any(|e| e.len() > 100));
        assert!(reference.iter().any(|e| !e.is_empty() && e.len() < 6));
        for threads in [1usize, 2] {
            let contribs = run_roots_contributions(
                &g,
                &titan(),
                &roots,
                threads,
                Schedule::Static,
                &mut FreeModel,
            )
            .unwrap();
            for (c, want) in contribs.iter().zip(&reference) {
                let bits = |e: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    e.iter().map(|&(v, d)| (v, d.to_bits())).collect()
                };
                assert_eq!(bits(&c.entries), bits(want), "root {} x {threads}", c.root);
                assert_eq!(c.entries.capacity(), c.entries.len(), "root {}", c.root);
            }
        }
    }

    #[test]
    fn merge_contribution_entries_empty_and_single() {
        assert!(merge_contribution_entries(4, &[]).iter().all(|&s| s == 0.0));
        let one: &[(u32, f64)] = &[(1, 2.5), (3, 0.5)];
        let scores = merge_contribution_entries(4, &[one]);
        assert_eq!(scores, vec![0.0, 2.5, 0.0, 0.5]);
    }

    #[test]
    fn scheduled_metered_reports_a_complete_worker_partition() {
        let g = gen::watts_strogatz(256, 6, 0.1, 9);
        let roots: Vec<u32> = (0..256).collect();
        let shards = 256usize.div_ceil(shard_size(256));
        for schedule in Schedule::ALL {
            let (_, _, workers) =
                run_roots_scheduled_metered(&g, &titan(), &roots, 4, schedule, &mut FreeModel)
                    .unwrap();
            assert_eq!(workers.len(), 4, "{schedule}");
            let mut claimed: Vec<u32> = workers.iter().flat_map(|w| w.shards.clone()).collect();
            claimed.sort_unstable();
            assert_eq!(
                claimed,
                (0..shards as u32).collect::<Vec<_>>(),
                "{schedule}: workers partition the shard space"
            );
            let roots_processed: u64 = workers.iter().map(|w| w.roots_processed).sum();
            assert_eq!(roots_processed, 256, "{schedule}");
            for w in &workers {
                assert_eq!(w.schedule, schedule.name());
                assert_eq!(w.phase_roots, 256);
                assert_eq!(w.shard_size, shard_size(256) as u64);
                assert!(w.busy_seconds >= 0.0 && w.idle_seconds >= 0.0);
                if schedule != Schedule::WorkStealing {
                    assert_eq!(w.steals, 0, "only work-stealing steals");
                }
            }
        }
    }
}
