//! Shard scheduling policies for the parallel multi-root runner.
//!
//! The runner in [`crate::parallel`] splits a root set into at most
//! [`crate::parallel::MAX_SHARDS`] fixed shards and merges shard
//! results in shard-index order — that partition and merge order are
//! the determinism contract and never change. What *does* change with
//! the [`Schedule`] is which worker claims which shard, and when:
//!
//! * [`Schedule::Static`] — each worker owns a contiguous block of
//!   shards, fixed up front. The classic OpenMP `schedule(static)`
//!   baseline: zero coordination, maximal skew exposure.
//! * [`Schedule::Guided`] — shards are sorted longest-first (LPT, by
//!   estimated cost) behind a shared atomic cursor; idle workers claim
//!   geometrically shrinking chunks (`remaining / (2·workers)`,
//!   minimum 1), so early claims amortize the cursor contention and
//!   late claims are fine-grained enough to even out stragglers.
//! * [`Schedule::WorkStealing`] — every worker gets a private deque
//!   seeded LPT-greedy (longest shard to the least-loaded worker);
//!   owners pop from the front, and a worker whose deque runs dry
//!   steals the *back* half of the deepest victim's deque — the
//!   cheap tail, leaving the victim its expensive head.
//!
//! Because any claim order feeds the same ordered merge, all three
//! schedules produce bitwise identical scores; they differ only in
//! wall-clock and in the [`WorkerStats`] they leave behind.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How shards (root chunks) are assigned to workers. The reduction
/// order is fixed by the merger regardless of the choice here, so the
/// schedule affects wall-clock only — never the result bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Schedule {
    /// Contiguous pre-partitioned shard blocks per worker.
    #[default]
    Static,
    /// Shared cursor over an LPT-sorted shard list, claimed in
    /// geometrically shrinking chunks.
    Guided,
    /// Per-worker deques seeded LPT-greedy; idle workers steal the
    /// back half of the deepest deque.
    WorkStealing,
}

impl Schedule {
    /// All schedules, in CLI presentation order.
    pub const ALL: [Schedule; 3] = [Schedule::Static, Schedule::Guided, Schedule::WorkStealing];

    /// Stable kebab-case name (CLI flag value, metrics label).
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Static => "static",
            Schedule::Guided => "guided",
            Schedule::WorkStealing => "work-stealing",
        }
    }

    /// Parse a CLI flag value (the kebab-case [`Schedule::name`]).
    pub fn parse(s: &str) -> Option<Schedule> {
        Schedule::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one worker did during a scheduled run, in claim order.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Shard indices this worker processed, in the order it claimed
    /// them.
    pub shards: Vec<u32>,
    /// Successful steals (batches taken from another worker's deque).
    pub steals: u64,
    /// Steal attempts that found the chosen victim already drained.
    pub failed_steal_attempts: u64,
    /// Deepest this worker ever saw its claim source (own deque,
    /// or shards left past the guided cursor) at claim time.
    pub max_queue_depth: u64,
}

/// Per-worker claiming state: the worker's identity, its locally
/// buffered chunk, and its running [`WorkerStats`].
#[derive(Debug)]
pub struct WorkerState {
    worker: usize,
    chunk: VecDeque<u32>,
    /// Counters accumulated across this worker's claims.
    pub stats: WorkerStats,
}

/// Index of the least-loaded worker (ties go to the lowest index —
/// `min_by` keeps the first minimum).
fn least_loaded(loads: &[f64]) -> usize {
    loads
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Shard indices sorted by descending estimated cost (ties ascending
/// by index — `total_cmp` plus the index tiebreak make the order a
/// pure function of the inputs), or plain index order when no costs
/// are given.
///
/// Public so the `bc_verify::model` scheduler model seeds its abstract
/// queues with the *same* order the runner uses.
pub fn lpt_order(shards: usize, costs: Option<&[f64]>) -> Vec<u32> {
    let mut order: Vec<u32> = (0..shards as u32).collect();
    if let Some(c) = costs {
        debug_assert_eq!(c.len(), shards);
        order.sort_by(|&a, &b| c[b as usize].total_cmp(&c[a as usize]).then(a.cmp(&b)));
    }
    order
}

/// The guided schedule's chunk size: claim `remaining / (2·workers)`
/// shards, minimum 1, from the shared cursor. Factored out so the
/// runner (`ShardQueue::claim`), the cluster planner
/// ([`plan_assignment`]), and the `bc_verify::model` interleaving model all
/// compute the identical geometric shrink.
pub fn guided_chunk(remaining: usize, workers: usize) -> usize {
    (remaining / (2 * workers.max(1))).max(1)
}

/// LPT-greedy seeding: deal shards in [`lpt_order`] to the currently
/// least-loaded worker (ties to the lowest index). This is both the
/// work-stealing runner's initial deque fill and the fixed point its
/// steal-based balancing converges to, which is why the cluster
/// planner reuses it verbatim.
pub fn lpt_seed(shards: usize, workers: usize, costs: Option<&[f64]>) -> Vec<Vec<u32>> {
    let workers = workers.max(1);
    let mut queues: Vec<Vec<u32>> = (0..workers).map(|_| Vec::new()).collect();
    let mut loads = vec![0.0f64; workers];
    for &s in &lpt_order(shards, costs) {
        let w = least_loaded(&loads);
        queues[w].push(s);
        loads[w] += costs.map_or(1.0, |c| c[s as usize]);
    }
    queues
}

/// The shared claim source the workers of one run draw shards from.
/// Construction is deterministic; claiming is dynamic (except under
/// [`Schedule::Static`]) but feeds a merge whose order is fixed.
pub(crate) enum ShardQueue {
    Static {
        /// `blocks[w] = (lo, hi)` — worker `w` owns shards `lo..hi`.
        blocks: Vec<(u32, u32)>,
    },
    Guided {
        /// Shards in LPT order.
        order: Vec<u32>,
        /// Next unclaimed position in `order`.
        next: AtomicUsize,
        workers: usize,
    },
    Stealing {
        /// One deque per worker, LPT-greedy seeded (each therefore
        /// descending in estimated cost front to back).
        queues: Vec<Mutex<VecDeque<u32>>>,
    },
}

impl ShardQueue {
    /// Build the claim source for `shards` shards across `workers`
    /// workers. `costs` (one estimate per shard) seeds the LPT order
    /// for the dynamic schedules; [`Schedule::Static`] ignores it.
    pub(crate) fn new(
        schedule: Schedule,
        shards: usize,
        workers: usize,
        costs: Option<&[f64]>,
    ) -> ShardQueue {
        let workers = workers.max(1);
        match schedule {
            Schedule::Static => {
                let per = shards.div_ceil(workers).max(1);
                let blocks = (0..workers)
                    .map(|w| {
                        let lo = (w * per).min(shards) as u32;
                        let hi = ((w + 1) * per).min(shards) as u32;
                        (lo, hi)
                    })
                    .collect();
                ShardQueue::Static { blocks }
            }
            Schedule::Guided => ShardQueue::Guided {
                order: lpt_order(shards, costs),
                next: AtomicUsize::new(0),
                workers,
            },
            Schedule::WorkStealing => ShardQueue::Stealing {
                queues: lpt_seed(shards, workers, costs)
                    .into_iter()
                    .map(|q| Mutex::new(q.into_iter().collect()))
                    .collect(),
            },
        }
    }

    /// Initial claiming state for worker `worker`.
    pub(crate) fn worker_state(&self, worker: usize) -> WorkerState {
        let mut chunk = VecDeque::new();
        if let ShardQueue::Static { blocks } = self {
            let (lo, hi) = blocks[worker];
            chunk.extend(lo..hi);
        }
        WorkerState {
            worker,
            chunk,
            stats: WorkerStats::default(),
        }
    }

    /// Claim the next shard for `st`'s worker, or `None` when no
    /// claimable work remains anywhere this worker may draw from.
    pub(crate) fn claim(&self, st: &mut WorkerState) -> Option<u32> {
        match self {
            ShardQueue::Static { .. } => {
                let depth = st.chunk.len() as u64;
                let shard = st.chunk.pop_front()?;
                st.stats.max_queue_depth = st.stats.max_queue_depth.max(depth);
                st.stats.shards.push(shard);
                Some(shard)
            }
            ShardQueue::Guided {
                order,
                next,
                workers,
            } => {
                if st.chunk.is_empty() {
                    let len = order.len();
                    // The remaining count may be stale by the time the
                    // cursor moves — that only perturbs the chunk size,
                    // never which shards exist or how they merge.
                    let remaining = len.saturating_sub(next.load(Ordering::Relaxed));
                    let take = guided_chunk(remaining, *workers);
                    let lo = next.fetch_add(take, Ordering::Relaxed);
                    if lo >= len {
                        return None;
                    }
                    let hi = (lo + take).min(len);
                    st.stats.max_queue_depth = st.stats.max_queue_depth.max((len - lo) as u64);
                    st.chunk.extend(order[lo..hi].iter().copied());
                }
                let shard = st.chunk.pop_front()?;
                st.stats.shards.push(shard);
                Some(shard)
            }
            ShardQueue::Stealing { queues } => loop {
                {
                    let mut own = queues[st.worker].lock().expect("shard queue poisoned");
                    let depth = own.len() as u64;
                    if let Some(shard) = own.pop_front() {
                        drop(own);
                        st.stats.max_queue_depth = st.stats.max_queue_depth.max(depth);
                        st.stats.shards.push(shard);
                        return Some(shard);
                    }
                }
                // Own deque dry: pick the deepest victim and steal the
                // back half of its deque (its cheapest shards under
                // LPT seeding). The stolen batch lands in *our* shared
                // deque, so it remains stealable in turn.
                let mut victim: Option<(usize, usize)> = None; // (depth, index)
                for (i, q) in queues.iter().enumerate() {
                    if i == st.worker {
                        continue;
                    }
                    let depth = q.lock().expect("shard queue poisoned").len();
                    if depth > 0 && victim.is_none_or(|(d, _)| depth > d) {
                        victim = Some((depth, i));
                    }
                }
                let Some((_, v)) = victim else {
                    // Nothing claimable anywhere. (A batch still in a
                    // thief's hands will be finished by that thief.)
                    return None;
                };
                let stolen: VecDeque<u32> = {
                    let mut vq = queues[v].lock().expect("shard queue poisoned");
                    let keep = vq.len() / 2;
                    vq.split_off(keep)
                };
                if stolen.is_empty() {
                    // The victim drained between the scan and the lock.
                    st.stats.failed_steal_attempts += 1;
                    continue;
                }
                st.stats.steals += 1;
                queues[st.worker]
                    .lock()
                    .expect("shard queue poisoned")
                    .extend(stolen);
            },
        }
    }
}

/// Deterministically pre-plan the assignment of `costs.len()` items
/// across `workers` workers under `schedule`, returning the item
/// indices each worker executes in order.
///
/// This is the schedule the *cluster* runner uses: its fault-injection
/// replay contract requires the whole execution to be a pure function
/// of (plan, graph, config), so per-GPU assignment cannot react to
/// wall-clock. Instead the dynamic schedules are planned from the cost
/// estimates — [`Schedule::WorkStealing`] as LPT-greedy (the
/// fixed point steal-based balancing converges to), [`Schedule::Guided`]
/// as shrinking LPT chunks — while [`Schedule::Static`] reproduces the
/// historical round-robin deal exactly.
pub fn plan_assignment(costs: &[f64], workers: usize, schedule: Schedule) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut out: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
    match schedule {
        Schedule::Static => {
            for i in 0..costs.len() {
                out[i % workers].push(i);
            }
        }
        Schedule::WorkStealing => {
            for (w, q) in lpt_seed(costs.len(), workers, Some(costs))
                .into_iter()
                .enumerate()
            {
                out[w] = q.into_iter().map(|s| s as usize).collect();
            }
        }
        Schedule::Guided => {
            let order = lpt_order(costs.len(), Some(costs));
            let mut loads = vec![0.0f64; workers];
            let mut pos = 0;
            while pos < order.len() {
                let remaining = order.len() - pos;
                let take = guided_chunk(remaining, workers).min(remaining);
                let w = least_loaded(&loads);
                for &s in &order[pos..pos + take] {
                    out[w].push(s as usize);
                    loads[w] += costs[s as usize];
                }
                pos += take;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn drain_all(q: &ShardQueue, workers: usize) -> Vec<Vec<u32>> {
        (0..workers)
            .map(|w| {
                let mut st = q.worker_state(w);
                let mut got = Vec::new();
                while let Some(s) = q.claim(&mut st) {
                    got.push(s);
                }
                assert_eq!(st.stats.shards, got);
                got
            })
            .collect()
    }

    #[test]
    fn schedule_names_round_trip() {
        for s in Schedule::ALL {
            assert_eq!(Schedule::parse(s.name()), Some(s));
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(Schedule::parse("bogus"), None);
        assert_eq!(Schedule::default(), Schedule::Static);
    }

    #[test]
    fn static_blocks_cover_exactly_once() {
        for (shards, workers) in [(64usize, 4usize), (63, 8), (5, 8), (1, 3), (7, 7)] {
            let q = ShardQueue::new(Schedule::Static, shards, workers, None);
            let per_worker = drain_all(&q, workers);
            let all: Vec<u32> = per_worker.concat();
            let set: BTreeSet<u32> = all.iter().copied().collect();
            assert_eq!(set.len(), shards, "{shards} shards / {workers} workers");
            assert_eq!(all.len(), shards, "no shard claimed twice");
            // Blocks are contiguous and ordered by worker index.
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(all, sorted, "static blocks are contiguous in worker order");
        }
    }

    #[test]
    fn guided_single_worker_claims_lpt_order() {
        let costs = [1.0, 9.0, 3.0, 9.0, 2.0];
        let q = ShardQueue::new(Schedule::Guided, 5, 1, Some(&costs));
        let got = drain_all(&q, 1);
        // Descending cost, ties by ascending index.
        assert_eq!(got[0], vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn stealing_seed_balances_lpt_greedy() {
        let costs = [8.0, 1.0, 7.0, 2.0];
        let q = ShardQueue::new(Schedule::WorkStealing, 4, 2, Some(&costs));
        // LPT order 0(8), 2(7), 3(2), 1(1): worker0 <- 0 (load 8),
        // worker1 <- 2 (load 7), worker1 <- 3 (load 9), worker0 <- 1.
        // Claim in lockstep so neither worker runs dry and steals.
        let mut w0 = q.worker_state(0);
        let mut w1 = q.worker_state(1);
        assert_eq!(q.claim(&mut w0), Some(0));
        assert_eq!(q.claim(&mut w1), Some(2));
        assert_eq!(q.claim(&mut w0), Some(1));
        assert_eq!(q.claim(&mut w1), Some(3));
        assert_eq!(w0.stats.steals + w1.stats.steals, 0, "seed needs no steals");
    }

    #[test]
    fn stealing_thief_takes_back_half() {
        let q = ShardQueue::new(Schedule::WorkStealing, 6, 2, None);
        // Without costs the seed deals round-robin by unit load:
        // worker0 = [0, 2, 4], worker1 = [1, 3, 5].
        let mut thief = q.worker_state(0);
        // Drain worker0's own deque first.
        for _ in 0..3 {
            assert!(q.claim(&mut thief).is_some());
        }
        // Next claim must steal from worker1's deque (back half).
        let stolen = q.claim(&mut thief).expect("steal succeeds");
        assert_eq!(stolen, 3, "steals the back half [3, 5], pops 3");
        assert_eq!(thief.stats.steals, 1);
        let mut owner = q.worker_state(1);
        assert_eq!(q.claim(&mut owner), Some(1), "victim keeps its head");
    }

    #[test]
    fn every_schedule_claims_each_shard_exactly_once() {
        let costs: Vec<f64> = (0..23).map(|i| ((i * 7) % 11) as f64 + 1.0).collect();
        for schedule in Schedule::ALL {
            for workers in [1usize, 3, 8] {
                let q = ShardQueue::new(schedule, 23, workers, Some(&costs));
                let all: Vec<u32> = drain_all(&q, workers).concat();
                let mut sorted = all.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..23u32).collect::<Vec<_>>(),
                    "{schedule} x {workers} workers"
                );
            }
        }
    }

    #[test]
    fn plan_assignment_static_is_round_robin() {
        let costs = vec![1.0; 7];
        let plan = plan_assignment(&costs, 3, Schedule::Static);
        assert_eq!(plan, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn plan_assignment_lpt_balances_skew() {
        // One huge item plus six small ones: round-robin puts the big
        // item and two small ones on worker 0; LPT isolates it.
        let costs = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let lpt = plan_assignment(&costs, 3, Schedule::WorkStealing);
        let load = |plan: &[Vec<usize>]| -> f64 {
            plan.iter()
                .map(|w| w.iter().map(|&i| costs[i]).sum::<f64>())
                .fold(0.0, f64::max)
        };
        let rr = plan_assignment(&costs, 3, Schedule::Static);
        assert!(load(&lpt) < load(&rr), "LPT makespan beats round-robin");
        assert_eq!(lpt[0], vec![0], "the huge item runs alone");
        // Every item appears exactly once in every schedule's plan.
        for schedule in Schedule::ALL {
            let plan = plan_assignment(&costs, 3, schedule);
            let mut items: Vec<usize> = plan.concat();
            items.sort_unstable();
            assert_eq!(items, (0..7).collect::<Vec<_>>(), "{schedule}");
        }
    }

    #[test]
    fn zero_shards_yield_no_claims_anywhere() {
        for schedule in Schedule::ALL {
            let q = ShardQueue::new(schedule, 0, 4, None);
            for w in 0..4 {
                let mut st = q.worker_state(w);
                assert_eq!(q.claim(&mut st), None, "{schedule} worker {w}");
                assert!(st.stats.shards.is_empty());
            }
        }
        assert!(lpt_order(0, None).is_empty());
        assert_eq!(lpt_seed(0, 3, None), vec![Vec::new(); 3]);
    }

    #[test]
    fn more_workers_than_shards_leaves_late_workers_empty_handed() {
        let costs = [4.0, 2.0];
        for schedule in Schedule::ALL {
            let q = ShardQueue::new(schedule, 2, 8, Some(&costs));
            let per_worker = drain_all(&q, 8);
            let all: Vec<u32> = per_worker.concat();
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1], "{schedule}: both shards, exactly once");
            let nonempty = per_worker.iter().filter(|w| !w.is_empty()).count();
            assert!(nonempty <= 2, "{schedule}: at most one worker per shard");
        }
    }

    #[test]
    fn single_shard_goes_to_exactly_one_worker() {
        for schedule in Schedule::ALL {
            let q = ShardQueue::new(schedule, 1, 4, Some(&[3.0]));
            let all: Vec<u32> = drain_all(&q, 4).concat();
            assert_eq!(all, vec![0], "{schedule}");
        }
    }

    #[test]
    fn all_equal_costs_keep_lpt_deterministic() {
        // With every estimate tied, the index tiebreak must make LPT
        // the identity order — and therefore a pure function of the
        // shard count, not of sort internals.
        let costs = vec![7.5f64; 9];
        assert_eq!(lpt_order(9, Some(&costs)), (0..9u32).collect::<Vec<_>>());
        // Seeding then deals round-robin (least-loaded tie goes to the
        // lowest worker index every round).
        let seed = lpt_seed(9, 3, Some(&costs));
        assert_eq!(seed, vec![vec![0, 3, 6], vec![1, 4, 7], vec![2, 5, 8]]);
        // And the planned assignments are reproducible run to run.
        for schedule in Schedule::ALL {
            let a = plan_assignment(&costs, 3, schedule);
            let b = plan_assignment(&costs, 3, schedule);
            assert_eq!(a, b, "{schedule}");
        }
    }

    #[test]
    fn guided_chunk_shrinks_geometrically_to_one() {
        assert_eq!(guided_chunk(24, 3), 4);
        assert_eq!(guided_chunk(6, 3), 1);
        assert_eq!(guided_chunk(1, 3), 1);
        assert_eq!(guided_chunk(0, 3), 1, "floor is 1 even when drained");
        assert_eq!(guided_chunk(10, 0), 5, "zero workers clamps to one");
    }

    #[test]
    fn plan_assignment_empty_and_degenerate() {
        assert_eq!(
            plan_assignment(&[], 4, Schedule::Guided),
            vec![Vec::new(); 4]
        );
        let one = plan_assignment(&[5.0], 0, Schedule::WorkStealing);
        assert_eq!(one, vec![vec![0]], "zero workers clamps to one");
    }
}
