//! Bounded exhaustive interleaving exploration of the shard
//! scheduler — a stateless model checker in the DPOR tradition, built
//! from scratch (everything in this workspace is vendored).
//!
//! The model abstracts `bc_core::schedule::ShardQueue` plus the
//! ordered merger of `bc_core::parallel`: each worker is a small
//! state machine over the *shared* state (deques, the guided cursor,
//! the merge frontier), and every shared-memory interaction the real
//! code performs under a lock or atomic is one indivisible model
//! step. Between steps, any worker may run — the explorer enumerates
//! **every** schedule of those steps up to the configured bound via
//! depth-first search with full-state memoization (the state graph is
//! finite; memoization also cuts steal ping-pong cycles), asserting
//! after every transition and at every terminal state that
//!
//! * no shard is **claimed twice** (duplicated work → double-counted
//!   δ contributions),
//! * no shard is **lost** (dropped roots → silently wrong scores),
//! * shards **merge in root-index order** (the determinism contract
//!   every bitwise-reproducibility test assumes).
//!
//! Modeled races the real code must survive: the work-stealing scan
//! whose victim drains between the depth snapshot and the lock
//! (`failed_steal_attempts`), concurrent thieves racing for one
//! victim, and the guided cursor's stale `Relaxed` remaining-count
//! read (TOCTOU between sizing a chunk and `fetch_add`ing it). Two
//! seeded scheduler mutants break exactly the protections under test:
//! [`SchedulerMutant::NonAtomicSteal`] splits the lock-protected
//! steal into a read of the victim's back half and a later blind
//! removal, and [`SchedulerMutant::CompletionOrderMerge`] emits
//! shards as they finish instead of holding them for index order.
//!
//! **Documented coarsening:** the victim scan is modeled as one
//! atomic snapshot choosing the deepest victim (ties to the lowest
//! index, matching the runner's strict `depth > d` comparison),
//! whereas the real scan reads each deque length under its own lock.
//! The per-queue-lock interleavings the snapshot hides can only make
//! the chosen victim *staler* — a case the model already covers,
//! because the victim may drain arbitrarily between the scan step and
//! the steal step.

use bc_core::{guided_chunk, lpt_seed, Schedule};
use std::collections::{HashSet, VecDeque};

/// Seeded scheduler bugs the explorer must catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerMutant {
    /// Steal-back-half without the victim's lock: read the batch,
    /// then blindly truncate the victim by the batch length. A victim
    /// pop (or a second thief) between the two steps duplicates or
    /// loses shards.
    NonAtomicSteal,
    /// Deposit shards into the merged output in completion order
    /// instead of holding them for root-index order.
    CompletionOrderMerge,
}

/// Exploration bound and cost shape.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Concurrent workers in the model.
    pub workers: usize,
    /// Shards to schedule.
    pub shards: usize,
    /// Per-shard cost estimates seeding the LPT order (None = unit).
    pub costs: Option<Vec<f64>>,
    /// Abort with [`ModelError::StateBudget`] beyond this many
    /// distinct states — the bound is honest, never silent.
    pub max_states: usize,
}

impl ModelConfig {
    /// The PR's full verification bound: 4 workers × 6 shards.
    pub fn full() -> ModelConfig {
        ModelConfig {
            workers: 4,
            shards: 6,
            costs: None,
            max_states: 50_000_000,
        }
    }

    /// A quick smoke bound: 3 workers × 4 shards.
    pub fn quick() -> ModelConfig {
        ModelConfig {
            workers: 3,
            shards: 4,
            costs: None,
            max_states: 2_000_000,
        }
    }

    /// The same bound with a skewed cost vector (distinct costs, so
    /// the LPT order differs from index order).
    pub fn skewed(&self) -> ModelConfig {
        let mut cfg = self.clone();
        cfg.costs = Some((0..self.shards).map(|s| ((s * 7) % 5 + 1) as f64).collect());
        cfg
    }
}

/// An invariant the scheduler model violated, with a replayable
/// counterexample.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// Which invariant broke.
    pub kind: Violation,
    /// The worker-step sequence from the initial state to the
    /// violation, e.g. `w0:pop(3)`.
    pub steps: Vec<String>,
}

/// The scheduler invariants under check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A shard was claimed by two processings.
    Duplicated(u32),
    /// A shard was never processed though every worker finished.
    Lost(u32),
    /// A shard entered the merged output out of root-index order.
    OutOfOrder(u32),
    /// Workers all finished with deposits still unmerged.
    MergeIncomplete,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Duplicated(s) => write!(f, "shard {s} claimed twice"),
            Violation::Lost(s) => write!(f, "shard {s} lost"),
            Violation::OutOfOrder(s) => write!(f, "shard {s} merged out of order"),
            Violation::MergeIncomplete => write!(f, "merge incomplete at termination"),
        }
    }
}

/// Why an exploration did not finish clean.
#[derive(Clone, Debug)]
pub enum ModelError {
    /// An invariant broke; the report replays the interleaving.
    Violation(ViolationReport),
    /// The state budget ran out before exhaustion.
    StateBudget {
        /// Distinct states explored before giving up.
        explored: usize,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Violation(v) => {
                write!(f, "{} after steps [{}]", v.kind, v.steps.join(", "))
            }
            ModelError::StateBudget { explored } => {
                write!(f, "state budget exhausted after {explored} states")
            }
        }
    }
}

/// A clean, exhausted exploration.
#[derive(Clone, Copy, Debug)]
pub struct Exploration {
    /// Distinct states visited.
    pub states: usize,
    /// Terminal states checked (all workers done).
    pub terminals: usize,
}

/// Per-worker program counter. Every variant has exactly one enabled
/// step, so the only scheduling choice is *which worker* moves —
/// branching factor ≤ workers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// About to pop local work, scan for a victim, or size a guided
    /// chunk.
    Ready,
    /// Work-stealing: scanned and chose a victim; about to take the
    /// back half under its lock (or, mutated, to read it lock-free).
    Scanned(u8),
    /// `NonAtomicSteal` only: holds a copied batch; about to blindly
    /// truncate the victim and keep the copy.
    HoldStolen(u8, Vec<u8>),
    /// Guided: sized a chunk from a stale remaining-count read; about
    /// to `fetch_add` the cursor by that amount.
    TakeChunk(u8),
    /// Claimed a shard; about to process and deposit it.
    Process(u8),
    /// Out of the claim loop.
    Done,
}

/// One model state. Shards and workers fit in `u8`/`u64` bitmasks at
/// the explored bounds, keeping states small enough to memoize by
/// value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    /// Work-stealing deques / static blocks / guided local chunks.
    queues: Vec<VecDeque<u8>>,
    /// Guided shared cursor (clamped to the order length — the real
    /// `fetch_add` can overshoot, but every overshot value behaves
    /// identically to `len`, so clamping merely folds equivalent
    /// states together).
    cursor: u8,
    pcs: Vec<Pc>,
    /// Bit s set = shard s claimed (a second claim is the violation).
    claimed: u64,
    /// Bit s set = shard s deposited but not yet emitted.
    pending: u64,
    /// Next shard index the ordered merger will emit.
    next_emit: u8,
    /// Shards emitted into the merged output so far.
    emit_count: u8,
}

struct Explorer {
    schedule: Schedule,
    workers: usize,
    shards: usize,
    /// Guided claim order (LPT).
    order: Vec<u8>,
    mutant: Option<SchedulerMutant>,
    max_states: usize,
}

/// The outcome of one worker step.
enum StepResult {
    Ok(State),
    Bad(Violation),
}

impl Explorer {
    fn initial(&self, costs: Option<&[f64]>) -> State {
        let queues: Vec<VecDeque<u8>> = match self.schedule {
            // Mirrors ShardQueue::new(Static): contiguous blocks.
            Schedule::Static => {
                let per = self.shards.div_ceil(self.workers).max(1);
                (0..self.workers)
                    .map(|w| {
                        let lo = (w * per).min(self.shards);
                        let hi = ((w + 1) * per).min(self.shards);
                        (lo..hi).map(|s| s as u8).collect()
                    })
                    .collect()
            }
            // Guided queues start empty (they buffer claimed chunks).
            Schedule::Guided => (0..self.workers).map(|_| VecDeque::new()).collect(),
            // Mirrors ShardQueue::new(WorkStealing): LPT-greedy seed.
            Schedule::WorkStealing => lpt_seed(self.shards, self.workers, costs)
                .into_iter()
                .map(|q| q.into_iter().map(|s| s as u8).collect())
                .collect(),
        };
        State {
            queues,
            cursor: 0,
            pcs: vec![Pc::Ready; self.workers],
            claimed: 0,
            pending: 0,
            next_emit: 0,
            emit_count: 0,
        }
    }

    /// Claim `shard` into `Pc::Process`, flagging double claims.
    fn claim(&self, st: &mut State, w: usize, shard: u8) -> Option<Violation> {
        let bit = 1u64 << shard;
        if st.claimed & bit != 0 {
            return Some(Violation::Duplicated(shard as u32));
        }
        st.claimed |= bit;
        st.pcs[w] = Pc::Process(shard);
        None
    }

    /// Deposit a processed shard into the merger.
    fn deposit(&self, st: &mut State, shard: u8) -> Option<Violation> {
        if self.mutant == Some(SchedulerMutant::CompletionOrderMerge) {
            // Mutant: emit immediately, in completion order.
            if shard != st.emit_count {
                return Some(Violation::OutOfOrder(shard as u32));
            }
            st.emit_count += 1;
            return None;
        }
        // Ordered merger: hold out-of-order deposits, flush the
        // contiguous prefix (parallel.rs's OrderedMerger).
        st.pending |= 1u64 << shard;
        while st.pending & (1u64 << st.next_emit) != 0 {
            st.pending &= !(1u64 << st.next_emit);
            debug_assert_eq!(st.next_emit, st.emit_count, "ordered merger emits in order");
            st.next_emit += 1;
            st.emit_count += 1;
        }
        None
    }

    /// The deepest victim by one-shot snapshot: strict `depth > best`
    /// keeps the lowest index among ties, like the runner's scan.
    fn deepest_victim(&self, st: &State, w: usize) -> Option<u8> {
        let mut victim: Option<(usize, usize)> = None;
        for (i, q) in st.queues.iter().enumerate() {
            if i == w {
                continue;
            }
            let depth = q.len();
            if depth > 0 && victim.is_none_or(|(d, _)| depth > d) {
                victim = Some((depth, i));
            }
        }
        victim.map(|(_, i)| i as u8)
    }

    /// Execute worker `w`'s single enabled step. Returns `None` when
    /// `w` is `Done` (no step). The `label` out-parameter receives a
    /// replay tag.
    fn step(&self, st: &State, w: usize, label: &mut String) -> Option<StepResult> {
        let mut next = st.clone();
        let violation = match st.pcs[w].clone() {
            Pc::Done => return None,
            Pc::Ready => {
                if let Some(shard) = next.queues[w].pop_front() {
                    *label = format!("w{w}:pop({shard})");
                    self.claim(&mut next, w, shard)
                } else {
                    match self.schedule {
                        Schedule::Static => {
                            *label = format!("w{w}:done");
                            next.pcs[w] = Pc::Done;
                            None
                        }
                        Schedule::Guided => {
                            // Stale remaining-count read (Relaxed in
                            // the runner); the chunk size is fixed
                            // here but applied at the next step.
                            let remaining = self.order.len().saturating_sub(st.cursor as usize);
                            let take = guided_chunk(remaining, self.workers);
                            *label = format!("w{w}:size({take})");
                            next.pcs[w] = Pc::TakeChunk(take as u8);
                            None
                        }
                        Schedule::WorkStealing => match self.deepest_victim(st, w) {
                            Some(v) => {
                                *label = format!("w{w}:scan(v{v})");
                                next.pcs[w] = Pc::Scanned(v);
                                None
                            }
                            None => {
                                *label = format!("w{w}:done");
                                next.pcs[w] = Pc::Done;
                                None
                            }
                        },
                    }
                }
            }
            Pc::TakeChunk(take) => {
                // The cursor fetch_add. lo may have raced past the
                // end — then the worker is done.
                let len = self.order.len();
                let lo = st.cursor as usize;
                next.cursor = (lo + take as usize).min(len) as u8;
                if lo >= len {
                    *label = format!("w{w}:done");
                    next.pcs[w] = Pc::Done;
                } else {
                    let hi = (lo + take as usize).min(len);
                    next.queues[w].extend(self.order[lo..hi].iter().copied());
                    *label = format!("w{w}:chunk({lo}..{hi})");
                    next.pcs[w] = Pc::Ready;
                }
                None
            }
            Pc::Scanned(v) => {
                let vq = &mut next.queues[v as usize];
                let keep = vq.len() / 2;
                if self.mutant == Some(SchedulerMutant::NonAtomicSteal) {
                    // Mutant: copy the back half without removing it;
                    // removal happens in a separate, racy step.
                    let batch: Vec<u8> = vq.iter().skip(keep).copied().collect();
                    if batch.is_empty() {
                        *label = format!("w{w}:steal-miss(v{v})");
                        next.pcs[w] = Pc::Ready;
                    } else {
                        *label = format!("w{w}:read-half(v{v})");
                        next.pcs[w] = Pc::HoldStolen(v, batch);
                    }
                } else {
                    // Real semantics: split_off under the victim's
                    // lock — one indivisible step.
                    let stolen: Vec<u8> = vq.drain(keep..).collect();
                    if stolen.is_empty() {
                        *label = format!("w{w}:steal-miss(v{v})");
                    } else {
                        *label = format!("w{w}:steal(v{v},{})", stolen.len());
                        next.queues[w].extend(stolen);
                    }
                    next.pcs[w] = Pc::Ready;
                }
                None
            }
            Pc::HoldStolen(v, batch) => {
                // Mutant second half: blindly truncate the victim by
                // the remembered count, keep the copied batch. If the
                // victim shrank meanwhile, the truncation removes the
                // wrong shards (or nothing) while the copy survives.
                let vq = &mut next.queues[v as usize];
                let remove = batch.len().min(vq.len());
                vq.truncate(vq.len() - remove);
                next.queues[w].extend(batch.iter().copied());
                *label = format!("w{w}:take-half(v{v})");
                next.pcs[w] = Pc::Ready;
                None
            }
            Pc::Process(shard) => {
                *label = format!("w{w}:merge({shard})");
                next.pcs[w] = Pc::Ready;
                self.deposit(&mut next, shard)
            }
        };
        Some(match violation {
            Some(v) => StepResult::Bad(v),
            None => StepResult::Ok(next),
        })
    }

    /// All invariants that must hold once every worker is `Done`.
    fn check_terminal(&self, st: &State) -> Option<Violation> {
        for s in 0..self.shards {
            if st.claimed & (1u64 << s) == 0 {
                return Some(Violation::Lost(s as u32));
            }
        }
        if st.emit_count as usize != self.shards {
            return Some(Violation::MergeIncomplete);
        }
        None
    }
}

/// Outcome of one scheduler exploration.
#[derive(Clone, Debug)]
pub struct ExplorationOutcome {
    /// The schedule explored.
    pub schedule: Schedule,
    /// Whether the cost vector was skewed (vs unit).
    pub skewed: bool,
    /// `Ok` = exhausted clean; `Err` = violation or budget.
    pub result: Result<Exploration, ModelError>,
}

/// Explore every schedule under `cfg` with unit and with skewed
/// costs, optionally with a seeded mutant.
pub fn explore_all(cfg: &ModelConfig, mutant: Option<SchedulerMutant>) -> Vec<ExplorationOutcome> {
    let mut out = Vec::new();
    for schedule in Schedule::ALL {
        for cfg in [cfg.clone(), cfg.skewed()] {
            out.push(ExplorationOutcome {
                schedule,
                skewed: cfg.costs.is_some(),
                result: explore(schedule, &cfg, mutant),
            });
        }
    }
    out
}

/// Exhaustively explore every interleaving of `schedule` under `cfg`,
/// optionally with a seeded mutant. `Ok` means the bound was
/// exhausted with zero invariant violations.
pub fn explore(
    schedule: Schedule,
    cfg: &ModelConfig,
    mutant: Option<SchedulerMutant>,
) -> Result<Exploration, ModelError> {
    assert!(cfg.shards <= 64, "claimed/pending bitmasks hold 64 shards");
    assert!(cfg.workers >= 1);
    let explorer = Explorer {
        schedule,
        workers: cfg.workers,
        shards: cfg.shards,
        order: bc_core::lpt_order(cfg.shards, cfg.costs.as_deref())
            .into_iter()
            .map(|s| s as u8)
            .collect(),
        mutant,
        max_states: cfg.max_states,
    };

    let init = explorer.initial(cfg.costs.as_deref());
    let mut visited: HashSet<State> = HashSet::new();
    visited.insert(init.clone());
    // DFS frames: (state, next worker index to try). `path` mirrors
    // the frame stack with the step labels taken, so a violation
    // reports its full interleaving.
    let mut frames: Vec<(State, usize)> = vec![(init, 0)];
    let mut path: Vec<String> = Vec::new();
    let mut terminals = 0usize;

    while let Some((state, w)) = frames.last().cloned() {
        if w == 0 && state.pcs.iter().all(|pc| *pc == Pc::Done) {
            if let Some(v) = explorer.check_terminal(&state) {
                return Err(ModelError::Violation(ViolationReport {
                    kind: v,
                    steps: path,
                }));
            }
            terminals += 1;
            frames.pop();
            path.pop();
            continue;
        }
        if w >= explorer.workers {
            frames.pop();
            path.pop();
            continue;
        }
        frames.last_mut().expect("frame just read").1 = w + 1;
        let mut label = String::new();
        match explorer.step(&state, w, &mut label) {
            None => continue, // worker Done: no step
            Some(StepResult::Bad(violation)) => {
                let mut steps = path.clone();
                steps.push(label);
                return Err(ModelError::Violation(ViolationReport {
                    kind: violation,
                    steps,
                }));
            }
            Some(StepResult::Ok(next)) => {
                if visited.contains(&next) {
                    continue;
                }
                if visited.len() >= explorer.max_states {
                    return Err(ModelError::StateBudget {
                        explored: visited.len(),
                    });
                }
                visited.insert(next.clone());
                frames.push((next, 0));
                path.push(label);
            }
        }
    }

    Ok(Exploration {
        states: visited.len(),
        terminals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(schedule: Schedule, cfg: &ModelConfig) -> Exploration {
        match explore(schedule, cfg, None) {
            Ok(e) => e,
            Err(e) => panic!("{schedule} must be clean: {e}"),
        }
    }

    #[test]
    fn quick_bound_is_clean_for_every_schedule() {
        for schedule in Schedule::ALL {
            for cfg in [ModelConfig::quick(), ModelConfig::quick().skewed()] {
                let e = assert_clean(schedule, &cfg);
                assert!(e.states > 0 && e.terminals > 0, "{schedule}");
            }
        }
    }

    #[test]
    fn single_worker_is_fully_sequential() {
        let cfg = ModelConfig {
            workers: 1,
            shards: 5,
            costs: None,
            max_states: 100_000,
        };
        for schedule in Schedule::ALL {
            let e = assert_clean(schedule, &cfg);
            // One worker → exactly one schedule of steps.
            assert_eq!(e.terminals, 1, "{schedule}");
        }
    }

    #[test]
    fn non_atomic_steal_duplicates_or_loses_shards() {
        let cfg = ModelConfig::quick();
        let err = explore(
            Schedule::WorkStealing,
            &cfg,
            Some(SchedulerMutant::NonAtomicSteal),
        )
        .expect_err("the racy steal must violate an invariant");
        let ModelError::Violation(v) = err else {
            panic!("expected a violation, got {err}");
        };
        assert!(
            matches!(v.kind, Violation::Duplicated(_) | Violation::Lost(_)),
            "{}",
            v.kind
        );
        assert!(!v.steps.is_empty(), "counterexample must replay");
    }

    #[test]
    fn completion_order_merge_breaks_root_order() {
        // Any schedule with ≥ 2 workers can deposit out of index
        // order; work-stealing with skewed costs does so quickly.
        let cfg = ModelConfig::quick().skewed();
        for schedule in [Schedule::WorkStealing, Schedule::Guided, Schedule::Static] {
            let err = explore(schedule, &cfg, Some(SchedulerMutant::CompletionOrderMerge))
                .expect_err("completion-order merge must break index order");
            let ModelError::Violation(v) = err else {
                panic!("expected a violation, got {err}");
            };
            assert!(
                matches!(v.kind, Violation::OutOfOrder(_)),
                "{schedule}: {}",
                v.kind
            );
        }
    }

    #[test]
    fn zero_shards_terminate_immediately() {
        let cfg = ModelConfig {
            workers: 3,
            shards: 0,
            costs: None,
            max_states: 10_000,
        };
        for schedule in Schedule::ALL {
            assert_clean(schedule, &cfg);
        }
    }

    #[test]
    fn state_budget_is_an_error_not_a_pass() {
        let cfg = ModelConfig {
            workers: 3,
            shards: 5,
            costs: None,
            max_states: 10,
        };
        let err = explore(Schedule::WorkStealing, &cfg, None).expect_err("10 states cannot cover");
        assert!(matches!(err, ModelError::StateBudget { .. }), "{err}");
    }
}
