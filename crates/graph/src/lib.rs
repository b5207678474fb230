//! # bc-graph — graph substrate for hybrid betweenness centrality
//!
//! This crate provides everything the BC algorithms need from a graph
//! library:
//!
//! * [`Csr`] — compressed sparse row storage with `u32` indices;
//! * [`builder`] — edge-list accumulation, relabeling, component
//!   extraction;
//! * [`gen`] — deterministic generators covering every structural
//!   class in the paper's evaluation (meshes, roads, random geometric,
//!   Kronecker/R-MAT, small-world, scale-free, web, community);
//! * [`datasets`] — the ten Table II datasets mapped to generator
//!   parameterizations at any scale;
//! * [`io`] — METIS/DIMACS, Matrix Market, SNAP edge-list, and binary
//!   CSR readers/writers;
//! * [`relabel`] — degree-ordered vertex relabeling with inverse maps
//!   (coalesced adjacency layout, bitwise-identical scores);
//! * [`stats`] / [`traversal`] — structural statistics and reference
//!   BFS utilities.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod builder;
mod csr;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod relabel;
pub mod stats;
pub mod traversal;

pub use csr::{Csr, CsrIndex, EdgeId, VertexId};
pub use datasets::{DatasetId, GraphClass};
pub use relabel::{RelabeledCsr, Relabeling};
pub use stats::GraphStats;
