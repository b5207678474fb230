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
//! * [`fault_equiv`] — runs the cluster under a battery of seeded
//!   fault plans and asserts the scores stay bitwise identical to
//!   the fault-free run (the fault-tolerance layer's correctness
//!   claim);
//! * [`checkpoint_equiv`] — kills the durable runner at seeded
//!   early/mid/late points under every schedule × traversal mode,
//!   resumes each from its checkpoint, and asserts bitwise identity
//!   with the uninterrupted run; also proves the store rejects
//!   corrupted, mismatched, and stale checkpoints, and that the
//!   graceful-degradation ladder partitions and samples as claimed;
//! * [`serve_equiv`] — serving-equivalence battery: random query
//!   streams (with interleaved edge edits) through the batched,
//!   cached `bc-serve` layer must answer bitwise identically to
//!   per-query cold recomputes under every schedule × traversal ×
//!   thread combination, a seeded stale-cache mutant must be
//!   flagged, and emitted serve rows must replay bit-for-bit;
//! * [`metrics_check`] — the per-level counter identities `replay`
//!   applies, and the replay of a metered run's per-worker scheduling
//!   records against shard geometry.
//!
//! The `bc-verify` binary runs the whole suite over the bundled
//! dataset analogues plus a seeded-bug self-test (the broken
//! atomic-free predecessor accumulation **must** be flagged); the
//! `hybrid-bc --verify` flag runs the same checks on a live run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint_equiv;
pub mod fault_equiv;
pub mod invariants;
pub mod metrics_check;
pub mod race;
pub mod relabel_equiv;
pub mod replay;
pub mod serve_equiv;
pub mod trace;

pub use checkpoint_equiv::{
    check_checkpoint_equivalence, check_checkpoint_rejection, check_degradation_ladder, kill_points,
};
pub use fault_equiv::{check_fault_equivalence, recoverable_plans};
pub use invariants::{
    check_csr, check_csr_parts, check_pair_sum, check_scores, check_search_state, Violation,
};
pub use metrics_check::check_worker_metrics;
pub use race::{check_trace, RaceReport};
pub use relabel_equiv::{check_relabel_equivalence, relabel_battery};
pub use replay::{verify_root, verify_root_with, RootVerification};
pub use serve_equiv::{
    check_serve_rows, check_serving_equivalence, check_stale_cache_mutant_flagged, cold_references,
    serve_stream,
};
pub use trace::{pull_bitmap_trace, LevelTrace, RecordingSink, Trace};
