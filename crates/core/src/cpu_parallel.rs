//! Multi-core CPU baseline: coarse-grained Brandes over roots.
//!
//! Each worker owns a private accumulator and a reused
//! [`crate::brandes::BrandesWorkspace`] (the roots are independent —
//! the same property the paper exploits across thread blocks and
//! across GPUs). Shards are merged **in shard-index order** by the
//! deterministic runner in [`crate::parallel`], so — unlike the old
//! reduction-tree formulation, whose merge association depended on
//! worker scheduling — the result is bitwise identical at any thread
//! count. This is the host-side reference for the examples and a
//! sanity baseline for the simulated numbers.

use crate::parallel;
use crate::schedule::Schedule;
use bc_gpusim::SimError;
use bc_graph::{Csr, VertexId};

/// Exact betweenness centrality using all available CPU cores.
///
/// Errors if a worker thread panics (contained by
/// [`parallel::cpu_betweenness_from_roots`] into
/// [`SimError::WorkerPanic`] naming the shard) or if a root's path
/// counts overflow `f64` ([`SimError::PathCountOverflow`]).
pub fn betweenness(g: &Csr) -> Result<Vec<f64>, SimError> {
    betweenness_from_roots(g, &(0..g.num_vertices() as u32).collect::<Vec<_>>())
}

/// Parallel BC contributions from an explicit root set (symmetric
/// halving applied, matching [`crate::brandes::betweenness_from_roots`]).
/// Thread count resolves per [`parallel::effective_threads`]`(0)`.
pub fn betweenness_from_roots(g: &Csr, roots: &[VertexId]) -> Result<Vec<f64>, SimError> {
    parallel::cpu_betweenness_from_roots(g, roots, 0, Schedule::Static)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes;
    use bc_graph::gen;

    #[test]
    fn parallel_matches_sequential() {
        for seed in 0..2 {
            let g = gen::erdos_renyi(128, 400, seed);
            let seq = brandes::betweenness(&g);
            let par = betweenness(&g).unwrap();
            for (s, p) in seq.iter().zip(&par) {
                assert!((s - p).abs() < 1e-7, "{s} vs {p}");
            }
        }
    }

    #[test]
    fn subset_of_roots() {
        let g = gen::grid(6, 6);
        let roots: Vec<u32> = (0..18).collect();
        let par = betweenness_from_roots(&g, &roots).unwrap();
        let seq = brandes::betweenness_from_roots(&g, roots.iter().copied());
        for (s, p) in seq.iter().zip(&par) {
            assert!((s - p).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_roots_give_zero() {
        let g = gen::path(8);
        let bc = betweenness_from_roots(&g, &[]).unwrap();
        assert!(bc.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let g = gen::watts_strogatz(200, 6, 0.2, 3);
        let roots: Vec<u32> = (0..200).collect();
        let one = parallel::cpu_betweenness_from_roots(&g, &roots, 1, Schedule::Static).unwrap();
        for t in [2usize, 4, 8] {
            assert_eq!(
                parallel::cpu_betweenness_from_roots(&g, &roots, t, Schedule::Static).unwrap(),
                one
            );
        }
    }
}
