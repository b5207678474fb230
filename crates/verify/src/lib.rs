//! # bc-verify — kernel-trace race detection and invariant checking
//!
//! The paper's central correctness claims are *concurrency* claims:
//! atomicCAS-deduplicated queue insertion admits each vertex into
//! `Q_next` exactly once (Algorithm 2), and the successor-checking
//! dependency accumulation (Algorithm 3, via Madduri et al. and
//! Green & Bader) is safe **without atomics** — while edge-parallel
//! accumulation is only safe *with* them. The cost models in
//! `bc_core::methods::cost` price exactly those atomics; this crate
//! turns the pricing assumptions into machine-checked facts:
//!
//! * [`trace`] — records the engine's logical per-thread access
//!   events ([`bc_gpusim::trace`]) and its per-launch level records
//!   into a replayable [`Trace`] through one engine observer, and
//!   synthesizes the *predecessor-style* accumulation trace the paper
//!   rejects (with and without atomics);
//! * [`race`] — a phase-aware detector flagging write–write and
//!   unsynchronized read–write conflicts between logical threads of
//!   one level (one simulated kernel launch);
//! * [`invariants`] — structural passes: CSR well-formedness, stack
//!   segmentation (`ends` monotonicity, frontier dedup),
//!   σ-consistency, the per-root dependency identity
//!   `Σ δ(v) = Σ (d(t) − 1)`, and final-score sanity including the
//!   Brandes pair-sum identity;
//! * [`replay`] — drives one root through the observed engine once
//!   and checks races, search-state invariants, priced against traced
//!   atomics, atomic-free backward levels, and every level record's
//!   counters (edges inspected, CAS attempts/wins, σ-updates) against
//!   the access events of the same launch;
//! * [`harness`] — the differential-equivalence harness: an axis
//!   [`matrix`] (schedules × push/pull/auto × threads or cluster
//!   width), the [`Transform`] trait, one bitwise oracle
//!   ([`harness::diverge`]) that reports the first divergence with its
//!   ULP distance after [`check_scores`] has passed the baseline, the
//!   "did the transform do anything" guard, and the [`Mutant`] list;
//! * the five transforms on top of it, each a feature that must be
//!   invisible in the scores: [`Faults`] (seeded fault plans on the
//!   cluster runner), [`Schedules`] (dynamic schedules against static,
//!   in [`metrics_check`]), [`Relabel`] (degree-ordered relabeling),
//!   [`Resume`] (kill-and-resume from a checkpoint, the ladder's
//!   partition rung, and the store's corrupt, mismatch and stale
//!   mutants) and [`ServeEdits`] (batched, cached serving with live
//!   edits against cold recomputes, and the `SkipEpochBump` mutant);
//! * [`metrics_check`] — the per-level counter identities `replay`
//!   applies, and the replay of a metered run's per-worker scheduling
//!   records against shard geometry;
//! * [`serve_equiv`] also checks the rows a server emits
//!   ([`check_serve_rows`]).
//!
//! The `bc-verify` binary runs the whole suite over the bundled
//! dataset analogues plus a seeded-bug self-test (the broken
//! atomic-free predecessor accumulation **must** be flagged); the
//! `hybrid-bc --verify` flag runs the same checks on a live run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint_equiv;
pub mod fault_equiv;
pub mod harness;
pub mod invariants;
pub mod metrics_check;
pub mod race;
pub mod relabel_equiv;
pub mod replay;
pub mod serve_equiv;
pub mod trace;

pub use checkpoint_equiv::{
    check_sampled_rung, kill_points, recoverable_overlay, store_mutants, Resume, ResumeCase,
};
pub use fault_equiv::{recoverable_plans, Faults};
pub use harness::{
    check, check_mutants, matrix, Axis, Divergence, Key, Keyed, Mutant, Report, Transform,
};
pub use invariants::{
    check_csr, check_csr_parts, check_pair_sum, check_scores, check_search_state, Violation,
};
pub use metrics_check::{check_worker_metrics, Schedules};
pub use race::{check_trace, RaceReport};
pub use relabel_equiv::Relabel;
pub use replay::{verify_root, verify_root_with, RootVerification};
pub use serve_equiv::{
    answers_keyed, check_serve_rows, cold_references, serve_stream, ServeEdits, SKIP_EPOCH_BUMP,
};
pub use trace::{pull_bitmap_trace, LevelTrace, RecordingSink, Trace};
