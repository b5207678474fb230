//! Graph generators.
//!
//! The paper evaluates on ten DIMACS / UFL / SNAP datasets (Table II).
//! Those files are not redistributable here, so each dataset is
//! replaced by a generator producing the same *structural class* —
//! the property that actually drives the paper's results (frontier
//! evolution, degree skew, diameter). See DESIGN.md §2 for the
//! mapping and [`crate::datasets`] for parameterizations matched to
//! Table II.
//!
//! All generators are deterministic functions of their explicit
//! `seed`; re-running an experiment reproduces the same graph.

mod community;
mod delaunay;
mod kronecker;
mod mesh;
mod preferential;
mod rgg;
mod road;
mod shapes;
mod small_world;

pub use community::{co_purchase, web_copy_model, CommunityParams};
pub use delaunay::{delaunay_random, delaunay_triangulation};
pub use kronecker::{kronecker, rmat_edges, RmatParams};
pub use mesh::{delaunay_like, sheet_mesh, triangulated_grid};
pub use preferential::{barabasi_albert, geosocial, router_topology};
pub use rgg::{random_geometric, rgg_radius_for_degree};
pub use road::road_network;
pub use shapes::{balanced_tree, complete, cycle, diamond_chain, erdos_renyi, grid, path, star};
pub use small_world::watts_strogatz;
