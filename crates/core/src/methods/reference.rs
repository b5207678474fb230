//! Literal reference implementations of the prior-work traversals.
//!
//! These execute the *actual* O(n²+m)-style loops — scanning every
//! vertex (or every edge) at every depth — rather than the shared
//! level-synchronous engine. They exist to demonstrate that the
//! wasteful traversal pattern computes the same function (the
//! simulated methods reuse the engine and only differ in pricing)
//! and to serve as independent oracles in tests. Only use them on
//! small graphs; that asymptotic inefficiency is the paper's point.

use bc_graph::Csr;

const INF: u32 = u32::MAX;

/// Betweenness centrality via the literal vertex-parallel traversal:
/// one pass over all vertices per BFS depth.
pub fn vertex_parallel_bc(g: &Csr) -> Vec<f64> {
    bc_with(g, |g, dist, sigma, depth| {
        let mut changed = false;
        for v in g.vertices() {
            if dist[v as usize] != depth {
                continue;
            }
            for &w in g.neighbors(v) {
                if dist[w as usize] == INF {
                    dist[w as usize] = depth + 1;
                    changed = true;
                }
                if dist[w as usize] == depth + 1 {
                    sigma[w as usize] += sigma[v as usize];
                }
            }
        }
        changed
    })
}

/// Betweenness centrality via the literal edge-parallel traversal:
/// one pass over all directed edges per BFS depth.
pub fn edge_parallel_bc(g: &Csr) -> Vec<f64> {
    let sources = g.arc_sources();
    bc_with(g, move |g, dist, sigma, depth| {
        let mut changed = false;
        // First settle distances for the whole depth, then count
        // paths — mirroring the two-kernel structure real
        // edge-parallel implementations use to avoid ordering races.
        for (e, &w) in g.adj_array().iter().enumerate() {
            let u = sources[e];
            if dist[u as usize] == depth && dist[w as usize] == INF {
                dist[w as usize] = depth + 1;
                changed = true;
            }
        }
        for (e, &w) in g.adj_array().iter().enumerate() {
            let u = sources[e];
            if dist[u as usize] == depth && dist[w as usize] == depth + 1 {
                sigma[w as usize] += sigma[u as usize];
            }
        }
        changed
    })
}

/// Shared scaffolding: run `expand(depth)` until fixpoint per root,
/// then accumulate dependencies with a full scan per depth.
fn bc_with(g: &Csr, mut expand: impl FnMut(&Csr, &mut [u32], &mut [f64], u32) -> bool) -> Vec<f64> {
    let n = g.num_vertices();
    let mut bc = vec![0.0f64; n];
    let mut dist = vec![INF; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    for s in g.vertices() {
        dist.fill(INF);
        sigma.fill(0.0);
        delta.fill(0.0);
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        let mut depth = 0u32;
        while expand(g, &mut dist, &mut sigma, depth) {
            depth += 1;
        }
        // Dependency accumulation, scanning all vertices per depth
        // (the successor formulation).
        let mut d = depth;
        while d > 0 {
            for w in g.vertices() {
                if dist[w as usize] != d {
                    continue;
                }
                let mut dsw = 0.0;
                for &v in g.neighbors(w) {
                    if dist[v as usize] == d + 1 {
                        dsw += sigma[w as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                    }
                }
                delta[w as usize] = dsw;
            }
            d -= 1;
        }
        for v in g.vertices() {
            if v != s && dist[v as usize] != INF {
                bc[v as usize] += delta[v as usize];
            }
        }
    }
    if g.is_symmetric() {
        for b in bc.iter_mut() {
            *b *= 0.5;
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes;
    use bc_graph::gen;

    fn assert_close(a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-7, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn vertex_parallel_matches_brandes() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(48, 120, seed);
            assert_close(&brandes::betweenness(&g), &vertex_parallel_bc(&g));
        }
        let g = gen::grid(6, 7);
        assert_close(&brandes::betweenness(&g), &vertex_parallel_bc(&g));
    }

    #[test]
    fn edge_parallel_matches_brandes() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(48, 120, seed + 10);
            assert_close(&brandes::betweenness(&g), &edge_parallel_bc(&g));
        }
        let g = gen::balanced_tree(3, 3);
        assert_close(&brandes::betweenness(&g), &edge_parallel_bc(&g));
    }

    #[test]
    fn references_handle_disconnected_graphs() {
        let g = bc_graph::Csr::from_undirected_edges(7, [(0, 1), (1, 2), (4, 5), (5, 6)]);
        let expect = brandes::betweenness(&g);
        assert_close(&expect, &vertex_parallel_bc(&g));
        assert_close(&expect, &edge_parallel_bc(&g));
    }
}
