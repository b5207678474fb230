//! Edge-list accumulation and graph clean-up utilities.
//!
//! Generators and parsers produce raw edge lists; [`GraphBuilder`]
//! turns them into a clean CSR, optionally compacting vertex ids,
//! extracting the largest connected component, or permuting labels
//! (useful to destroy accidental locality that would flatter the
//! coalescing model).

use crate::csr::{Csr, VertexId};
use crate::traversal;

/// Accumulates undirected edges and finishes into a [`Csr`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Create a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices <= u32::MAX as usize,
            "vertex ids must fit in u32"
        );
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Create a builder with pre-reserved edge capacity.
    pub fn with_capacity(num_vertices: usize, edges: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.edges.reserve(edges);
        b
    }

    /// Number of vertices the finished graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Add an undirected edge. Self-loops are silently ignored.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        debug_assert!((u as usize) < self.num_vertices && (v as usize) < self.num_vertices);
        if u != v {
            self.edges.push((u, v));
        }
    }

    /// Extend with many edges at once.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// Finish into an undirected CSR (dedup + symmetrize).
    pub fn build(self) -> Csr {
        Csr::from_undirected_edges(self.num_vertices, self.edges)
    }
}

/// Relabel a graph with an explicit permutation: vertex `v` of the
/// input becomes vertex `perm[v]` of the output.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..n`.
pub fn relabel(g: &Csr, perm: &[VertexId]) -> Csr {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!((p as usize) < n && !seen[p as usize], "not a permutation");
        seen[p as usize] = true;
    }
    let edges = g
        .arcs()
        .filter(|&(u, v)| u < v)
        .map(|(u, v)| (perm[u as usize], perm[v as usize]));
    Csr::from_undirected_edges(n, edges)
}

/// Extract the largest connected component and relabel its vertices
/// densely (by BFS discovery order, which keeps some locality, like
/// most dataset preparation pipelines do).
///
/// Returns the component graph plus the mapping from new vertex id to
/// the original id.
pub fn largest_component(g: &Csr) -> (Csr, Vec<VertexId>) {
    let comps = traversal::connected_components(g);
    let n = g.num_vertices();
    if n == 0 {
        return (Csr::from_undirected_edges(0, []), Vec::new());
    }
    // Count component sizes and find the winner.
    let num_comps = comps.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut sizes = vec![0usize; num_comps];
    for &c in &comps {
        sizes[c as usize] += 1;
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| s)
        .map(|(c, _)| c as u32)
        .unwrap();

    let mut new_id = vec![u32::MAX; n];
    let mut to_old = Vec::with_capacity(sizes[best as usize]);
    for v in 0..n as u32 {
        if comps[v as usize] == best {
            new_id[v as usize] = to_old.len() as u32;
            to_old.push(v);
        }
    }
    let edges = g
        .arcs()
        .filter(|&(u, v)| u < v && comps[u as usize] == best && comps[v as usize] == best)
        .map(|(u, v)| (new_id[u as usize], new_id[v as usize]));
    (Csr::from_undirected_edges(to_old.len(), edges), to_old)
}

/// Compose two graphs into their disjoint union. Vertices of `b` are
/// shifted by `a.num_vertices()`. Useful for multi-component test
/// inputs (the paper's TEPS discussion hinges on isolated vertices and
/// component structure).
pub fn disjoint_union(a: &Csr, b: &Csr) -> Csr {
    let shift = a.num_vertices() as u32;
    let n = a.num_vertices() + b.num_vertices();
    let edges = a.arcs().filter(|&(u, v)| u < v).chain(
        b.arcs()
            .filter(|&(u, v)| u < v)
            .map(|(u, v)| (u + shift, v + shift)),
    );
    Csr::from_undirected_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups_and_symmetrizes() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 2); // dropped self-loop
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.num_undirected_edges(), 2);
        assert!(g.has_arc(1, 0) && g.has_arc(0, 1));
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = Csr::from_undirected_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let perm = vec![3, 2, 1, 0];
        let h = relabel(&g, &perm);
        assert_eq!(h.num_undirected_edges(), 3);
        assert!(h.has_arc(3, 2) && h.has_arc(2, 1) && h.has_arc(1, 0));
        assert!(!h.has_arc(0, 3));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = Csr::from_undirected_edges(3, [(0, 1)]);
        let _ = relabel(&g, &[0, 0, 1]);
    }

    #[test]
    fn largest_component_picks_biggest() {
        // Component A: triangle {0,1,2}; component B: edge {3,4}; isolated 5.
        let g = Csr::from_undirected_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let (cc, to_old) = largest_component(&g);
        assert_eq!(cc.num_vertices(), 3);
        assert_eq!(cc.num_undirected_edges(), 3);
        let mut old: Vec<_> = to_old.to_vec();
        old.sort_unstable();
        assert_eq!(old, vec![0, 1, 2]);
    }

    #[test]
    fn largest_component_of_empty_graph() {
        let g = Csr::from_undirected_edges(0, []);
        let (cc, map) = largest_component(&g);
        assert_eq!(cc.num_vertices(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn disjoint_union_shifts_ids() {
        let a = Csr::from_undirected_edges(2, [(0, 1)]);
        let b = Csr::from_undirected_edges(3, [(0, 2)]);
        let u = disjoint_union(&a, &b);
        assert_eq!(u.num_vertices(), 5);
        assert_eq!(u.num_undirected_edges(), 2);
        assert!(u.has_arc(2, 4));
    }
}
