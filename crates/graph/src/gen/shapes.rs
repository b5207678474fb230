//! Deterministic elementary graphs with closed-form BC scores, used
//! throughout the test suites, plus the Erdős–Rényi baseline.

use crate::csr::Csr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Path graph `0 - 1 - ... - (n-1)`.
pub fn path(n: usize) -> Csr {
    Csr::from_undirected_edges(n, (1..n as u32).map(|i| (i - 1, i)))
}

/// Cycle graph on `n` vertices (requires `n >= 3` to avoid a
/// degenerate multi-edge; smaller n yields a path).
pub fn cycle(n: usize) -> Csr {
    if n < 3 {
        return path(n);
    }
    Csr::from_undirected_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
}

/// Star graph: vertex 0 is the hub, vertices `1..n` are leaves.
pub fn star(n: usize) -> Csr {
    Csr::from_undirected_edges(n, (1..n as u32).map(|i| (0, i)))
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> Csr {
    let edges = (0..n as u32).flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)));
    Csr::from_undirected_edges(n, edges)
}

/// 2-D grid graph of `w × h` vertices with 4-neighbor connectivity.
pub fn grid(w: usize, h: usize) -> Csr {
    let idx = |x: usize, y: usize| (y * w + x) as u32;
    let mut edges = Vec::with_capacity(2 * w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((idx(x, y), idx(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((idx(x, y), idx(x, y + 1)));
            }
        }
    }
    Csr::from_undirected_edges(w * h, edges)
}

/// A chain of `k` diamonds from vertex 0: diamond `i` joins vertex
/// `3i` to `3i + 3` through `3i + 1` and `3i + 2`, so the shortest-path
/// count from 0 doubles per diamond and reaches 2^k at the far end.
/// σ overflows `f64` once `k` ≥ 1024.
pub fn diamond_chain(k: usize) -> Csr {
    let edges = (0..k as u32).flat_map(|i| {
        let (t, a, b) = (3 * i, 3 * i + 1, 3 * i + 2);
        [(t, a), (t, b), (a, t + 3), (b, t + 3)]
    });
    Csr::from_undirected_edges(3 * k + 1, edges)
}

/// Balanced tree with branching factor `b` and `depth` levels below
/// the root (depth 0 is a single vertex).
pub fn balanced_tree(b: usize, depth: usize) -> Csr {
    assert!(b >= 1);
    // n = 1 + b + b^2 + ... + b^depth
    let mut n = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= b;
        n += level;
    }
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for child in 1..n {
        let parent = (child - 1) / b;
        edges.push((parent as u32, child as u32));
    }
    Csr::from_undirected_edges(n, edges)
}

/// Erdős–Rényi `G(n, m)` graph: `m` edges drawn uniformly without
/// replacement (rejection-sampled).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    assert!(n >= 2 || m == 0, "need at least 2 vertices to place edges");
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_edges,
        "requested more edges than the complete graph holds"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            edges.push(key);
        }
    }
    Csr::from_undirected_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn path_shape() {
        let g = path(6);
        assert_eq!(g.num_undirected_edges(), 5);
        assert_eq!(traversal::exact_diameter(&g), 5);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(7);
        assert_eq!(g.num_undirected_edges(), 7);
        assert!(g.vertices().all(|v| g.degree(v) == 2));
        assert_eq!(traversal::exact_diameter(&g), 3);
    }

    #[test]
    fn tiny_cycle_degenerates_to_path() {
        assert_eq!(cycle(2).num_undirected_edges(), 1);
        assert_eq!(cycle(1).num_undirected_edges(), 0);
    }

    #[test]
    fn star_shape() {
        let g = star(9);
        assert_eq!(g.degree(0), 8);
        assert_eq!(g.num_undirected_edges(), 8);
        assert_eq!(traversal::exact_diameter(&g), 2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.num_undirected_edges(), 15);
        assert!(g.vertices().all(|v| g.degree(v) == 5));
        assert_eq!(traversal::exact_diameter(&g), 1);
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 3);
        assert_eq!(g.num_vertices(), 12);
        // edges: 3*3 horizontal rows? horizontal: (4-1)*3 = 9; vertical: 4*(3-1) = 8.
        assert_eq!(g.num_undirected_edges(), 17);
        assert_eq!(traversal::exact_diameter(&g), 5);
    }

    #[test]
    fn balanced_tree_shape() {
        let g = balanced_tree(2, 3); // 1 + 2 + 4 + 8 = 15
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_undirected_edges(), 14);
        assert!(traversal::is_connected(&g));
        assert_eq!(traversal::exact_diameter(&g), 6);
    }

    #[test]
    fn erdos_renyi_counts_and_determinism() {
        let g1 = erdos_renyi(64, 128, 7);
        let g2 = erdos_renyi(64, 128, 7);
        assert_eq!(g1.num_undirected_edges(), 128);
        assert_eq!(g1, g2, "same seed must reproduce the same graph");
        let g3 = erdos_renyi(64, 128, 8);
        assert_ne!(g1, g3, "different seed should differ");
    }

    #[test]
    fn erdos_renyi_dense_limit() {
        let g = erdos_renyi(5, 10, 1); // complete graph
        assert_eq!(g.num_undirected_edges(), 10);
    }
}
