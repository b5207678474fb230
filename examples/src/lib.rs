//! Support crate for the runnable examples; see `src/bin/*.rs`:
//!
//! * `quickstart` — every backend on one graph, scores must agree;
//! * `power_grid` — adaptive contingency analysis;
//! * `road_analysis` — exact vs source-sampled approximate BC.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
