//! # bc-serve — BC-as-a-service on the simulated GPU
//!
//! A long-running query layer over the offline solver: resident
//! graphs answer [`Query::TopK`] / [`Query::PerVertex`] /
//! [`Query::SubgraphBc`] requests on a deterministic simulated
//! clock, coalescing concurrent requests into shared multi-root runs
//! and caching per-root δ contributions keyed by `(graph_epoch,
//! root, options_fingerprint)`. Edge edits against a resident graph
//! bump its epoch and invalidate only the cached roots whose
//! recorded BFS DAG the edit can touch — with a full-invalidation
//! fallback past a configurable threshold — so delta-served scores
//! stay **bitwise identical** to a cold recompute on the edited
//! graph.
//!
//! The module map mirrors the serving pipeline:
//!
//! * [`server`] — [`BcServer`]: the batching loop, the simulated
//!   clock, epochs/edits, and [`cold_answer`], the reference the
//!   verification battery holds every response to.
//! * [`cache`] — [`ContributionCache`]: LRU over shared (`Arc`)
//!   per-root contributions, priced in bytes against a
//!   device-memory-derived budget, with in-flight pinning.
//! * [`delta`] — [`edit_touches_root`]: the level/reachability test
//!   deciding which cached roots survive an edit.
//! * [`traffic`] — seeded open-loop (Poisson) and closed-loop
//!   (think-time) load generators and the percentile helper behind
//!   bc-bench's `sweep serve`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod delta;
pub mod server;
pub mod traffic;

pub use cache::{CacheKey, CacheStats, ContributionCache, EvictError, ENTRY_OVERHEAD_BYTES};
pub use delta::{edit_touches_root, EdgeEdit, UNREACHED};
pub use server::{
    cold_answer, Answer, BcServer, Event, Query, Request, Response, ServeConfig, ServeError,
    ServeMutation, ServeOutcome,
};
pub use traffic::{open_loop_events, percentile, random_edits, ClosedLoop, QueryMix, SplitMix64};
