//! Sequential Brandes' algorithm — the exact reference every GPU
//! method is validated against.
//!
//! Brandes (2001) computes betweenness centrality in O(mn) for
//! unweighted graphs by splitting the computation per source vertex
//! into (1) a BFS that counts shortest paths `σ` and (2) a reverse
//! sweep accumulating dependencies `δ` (Eq. 2 of the paper).

use bc_graph::{Csr, VertexId};

/// Result of a single-source shortest-path phase.
#[derive(Clone, Debug)]
pub struct SingleSource {
    /// BFS distance from the source (`u32::MAX` if unreachable).
    pub dist: Vec<u32>,
    /// Number of shortest paths from the source to each vertex.
    pub sigma: Vec<f64>,
    /// Vertices in non-decreasing distance order (the stack `S`).
    pub order: Vec<VertexId>,
}

/// Reusable buffers for a multi-root sequence of Brandes searches:
/// the single-source state plus the δ scratch of the accumulation
/// phase. Resets cost O(reached), not O(n), so a root touching a
/// small component pays only for that component.
pub struct BrandesWorkspace {
    ss: SingleSource,
    delta: Vec<f64>,
}

impl BrandesWorkspace {
    /// Allocate buffers for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        BrandesWorkspace {
            ss: SingleSource {
                dist: vec![u32::MAX; n],
                sigma: vec![0.0f64; n],
                order: Vec::with_capacity(n),
            },
            delta: vec![0.0f64; n],
        }
    }

    /// The most recent search's state (valid after
    /// [`single_source_into`]).
    pub fn search(&self) -> &SingleSource {
        &self.ss
    }

    /// Consume the workspace, keeping the search state.
    pub fn into_search(self) -> SingleSource {
        self.ss
    }
}

/// Run the shortest-path counting phase from `source`.
pub fn single_source(g: &Csr, source: VertexId) -> SingleSource {
    let mut ws = BrandesWorkspace::new(g.num_vertices());
    single_source_into(g, source, &mut ws);
    ws.into_search()
}

/// [`single_source`] into a reused workspace: only the vertices the
/// *previous* search reached are reset (they are exactly the dirty
/// entries — dist/sigma are written only on discovery), and the
/// `order` vector doubles as the BFS queue via a head cursor, so the
/// whole phase allocates nothing in steady state.
pub fn single_source_into(g: &Csr, source: VertexId, ws: &mut BrandesWorkspace) {
    let ss = &mut ws.ss;
    for &v in &ss.order {
        ss.dist[v as usize] = u32::MAX;
        ss.sigma[v as usize] = 0.0;
    }
    ss.order.clear();
    ss.dist[source as usize] = 0;
    ss.sigma[source as usize] = 1.0;
    ss.order.push(source);
    let mut head = 0;
    while head < ss.order.len() {
        let v = ss.order[head];
        head += 1;
        let dv = ss.dist[v as usize];
        for &w in g.neighbors(v) {
            if ss.dist[w as usize] == u32::MAX {
                ss.dist[w as usize] = dv + 1;
                ss.order.push(w);
            }
            if ss.dist[w as usize] == dv + 1 {
                ss.sigma[w as usize] += ss.sigma[v as usize];
            }
        }
    }
}

/// Accumulate the dependencies of `source` into `bc`
/// (`bc[v] += δ_s(v)` for all `v ≠ s`).
pub fn accumulate(g: &Csr, source: VertexId, ss: &SingleSource, bc: &mut [f64]) {
    let mut scratch = Vec::new();
    accumulate_into(&mut scratch, g, source, ss, bc);
}

/// [`accumulate`] with a caller-owned δ scratch vector, avoiding the
/// per-root `vec![0.0; n]`. `scratch` is grown to `n` as needed; its
/// entries must be zero on entry (an empty or freshly returned vector
/// qualifies), and the function restores them to zero before
/// returning by sweeping the search order.
pub fn accumulate_into(
    scratch: &mut Vec<f64>,
    g: &Csr,
    source: VertexId,
    ss: &SingleSource,
    bc: &mut [f64],
) {
    scratch.resize(g.num_vertices(), 0.0);
    accumulate_core(g, source, ss, scratch, bc);
}

/// [`accumulate`] reading the search state out of a reused
/// [`BrandesWorkspace`] and using its δ scratch.
pub fn accumulate_from_workspace(
    g: &Csr,
    source: VertexId,
    ws: &mut BrandesWorkspace,
    bc: &mut [f64],
) {
    let BrandesWorkspace { ss, delta } = ws;
    accumulate_core(g, source, ss, delta, bc);
}

/// Shared accumulation kernel. `delta` must be zero at every index on
/// entry; it is re-zeroed (O(reached) sweep of `ss.order`) on exit —
/// every read and write lands on a reached vertex, so the sweep
/// restores the invariant exactly.
fn accumulate_core(
    g: &Csr,
    source: VertexId,
    ss: &SingleSource,
    delta: &mut [f64],
    bc: &mut [f64],
) {
    for &w in ss.order.iter().rev() {
        for &v in g.neighbors(w) {
            // v is a successor of w iff dist[v] == dist[w] + 1; the
            // successor formulation (Madduri et al.) needs no
            // predecessor storage and no atomics.
            if ss.dist[w as usize] != u32::MAX && ss.dist[v as usize] == ss.dist[w as usize] + 1 {
                delta[w as usize] +=
                    ss.sigma[w as usize] / ss.sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
        if w != source {
            bc[w as usize] += delta[w as usize];
        }
    }
    for &w in &ss.order {
        delta[w as usize] = 0.0;
    }
}

/// Halve `scores` when `g` is symmetric — undirected runs count each
/// path from both endpoints. The single shared epilogue used by every
/// driver (sequential, CPU-parallel, simulated GPU, cluster).
pub fn halve_if_symmetric(g: &Csr, scores: &mut [f64]) {
    if g.is_symmetric() {
        for s in scores.iter_mut() {
            *s *= 0.5;
        }
    }
}

/// Exact betweenness centrality of every vertex, from all sources.
///
/// For symmetric (undirected) graphs each undirected path is counted
/// once from each endpoint, so scores are halved — matching the
/// convention of the paper's Figure 1.
pub fn betweenness(g: &Csr) -> Vec<f64> {
    betweenness_from_roots(g, g.vertices())
}

/// Betweenness contributions of a subset of source vertices (exact
/// when `roots` covers all vertices; the building block for the
/// approximation and distributed drivers).
pub fn betweenness_from_roots(g: &Csr, roots: impl IntoIterator<Item = VertexId>) -> Vec<f64> {
    let mut bc = vec![0.0f64; g.num_vertices()];
    let mut ws = BrandesWorkspace::new(g.num_vertices());
    for s in roots {
        single_source_into(g, s, &mut ws);
        accumulate_from_workspace(g, s, &mut ws, &mut bc);
    }
    halve_if_symmetric(g, &mut bc);
    bc
}

/// Normalize BC scores by the maximum possible value `(n-1)(n-2)`
/// (undirected scores were already halved, so the undirected
/// normalizer is `(n-1)(n-2)/2`).
pub fn normalize(scores: &mut [f64], symmetric: bool) {
    let n = scores.len() as f64;
    if n < 3.0 {
        for s in scores.iter_mut() {
            *s = 0.0;
        }
        return;
    }
    let denom = if symmetric {
        (n - 1.0) * (n - 2.0) / 2.0
    } else {
        (n - 1.0) * (n - 2.0)
    };
    for s in scores.iter_mut() {
        *s /= denom;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::gen;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "vertex {i}: {x} vs {y}");
        }
    }

    /// The paper's Figure 1 example graph, reconstructed from the
    /// prose (1-indexed vertices 1..=9, stored 0-indexed):
    /// * vertex 4 is the sole bridge between {1,2,3} and {5..9};
    /// * vertex 9 hangs off vertex 7 only;
    /// * vertex 8 connects 5 and 7, so 5→9 has a longer route via 8
    ///   but its *shortest* path goes through 7 — giving 8 a BC of 0.
    fn figure1_graph() -> Csr {
        let edges_1idx = [
            (1u32, 2u32),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 4),
            (4, 5),
            (4, 6),
            (5, 6),
            (5, 7),
            (6, 7),
            (5, 8),
            (7, 8),
            (7, 9),
        ];
        Csr::from_undirected_edges(9, edges_1idx.iter().map(|&(a, b)| (a - 1, b - 1)))
    }

    #[test]
    fn figure1_scores() {
        // E-fig1: the qualitative claims the paper makes about its
        // example.
        let g = figure1_graph();
        let bc = betweenness(&g);
        assert!(
            (bc[8 - 1] - 0.0).abs() < 1e-9,
            "vertex 8 has BC 0, got {}",
            bc[7]
        );
        assert!(
            (bc[9 - 1] - 0.0).abs() < 1e-9,
            "vertex 9 has BC 0, got {}",
            bc[8]
        );
        let max = bc.iter().cloned().fold(0.0, f64::max);
        assert!(
            (bc[4 - 1] - max).abs() < 1e-9,
            "vertex 4 must dominate: {bc:?}"
        );
        // Vertex 4 bridges the 3 right vertices to the 5 left ones
        // plus its share of intra-side traffic; at minimum 15 pairs.
        assert!(
            bc[4 - 1] >= 15.0,
            "vertex 4 carries all cross traffic: {bc:?}"
        );
    }

    #[test]
    fn figure1_matches_brute_force() {
        let g = figure1_graph();
        assert_close(&betweenness(&g), &brute_force_bc(&g));
    }

    /// Independent O(n^3)-ish cross-check: count shortest paths by
    /// BFS from every source and tally pair-by-pair (Eq. 1 applied
    /// literally), with no shared code with Brandes' accumulation.
    fn brute_force_bc(g: &Csr) -> Vec<f64> {
        let n = g.num_vertices();
        let mut bc = vec![0.0f64; n];
        // For each ordered source s: dist + sigma forward; then for
        // each target t and each vertex v, sigma_st(v) =
        // sigma_sv * sigma_vt if d(s,v) + d(v,t) = d(s,t). We get
        // sigma_vt from a BFS rooted at every vertex.
        let all: Vec<SingleSource> = (0..n as u32).map(|s| single_source(g, s)).collect();
        for s in 0..n {
            for t in 0..n {
                if s == t || all[s].dist[t] == u32::MAX {
                    continue;
                }
                let dst = all[s].dist[t];
                let sigma_st = all[s].sigma[t];
                for v in 0..n {
                    if v == s || v == t {
                        continue;
                    }
                    let dsv = all[s].dist[v];
                    let dvt = all[v].dist[t];
                    if dsv != u32::MAX && dvt != u32::MAX && dsv + dvt == dst {
                        bc[v] += all[s].sigma[v] * all[v].sigma[t] / sigma_st;
                    }
                }
            }
        }
        // Ordered pairs double-count undirected paths.
        if g.is_symmetric() {
            for b in bc.iter_mut() {
                *b *= 0.5;
            }
        }
        bc
    }

    #[test]
    fn brute_force_agrees_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::erdos_renyi(24, 40, seed);
            assert_close(&betweenness(&g), &brute_force_bc(&g));
        }
    }

    #[test]
    fn path_graph_closed_form() {
        // On a path 0-1-2-3-4, interior vertex i lies on all pairs
        // (a < i < b): BC(i) = i * (n-1-i).
        let g = gen::path(5);
        let bc = betweenness(&g);
        assert_close(&bc, &[0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_graph_closed_form() {
        // Hub of an n-star lies on all (n-1 choose 2) leaf pairs.
        let g = gen::star(6);
        let bc = betweenness(&g);
        assert_close(&bc, &[10.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn cycle_graph_symmetry() {
        let g = gen::cycle(8);
        let bc = betweenness(&g);
        for w in &bc {
            assert!((w - bc[0]).abs() < 1e-9, "cycle BC must be uniform: {bc:?}");
        }
        // Even cycle n=8, by hand: 3 unique-shortest pairs cross a
        // given vertex plus 3 antipodal pairs at weight 1/2 = 4.5.
        assert!((bc[0] - 4.5).abs() < 1e-9, "got {}", bc[0]);
    }

    #[test]
    fn complete_graph_zero() {
        let g = gen::complete(7);
        let bc = betweenness(&g);
        for w in &bc {
            assert!(w.abs() < 1e-12, "no intermediaries in a clique: {bc:?}");
        }
    }

    #[test]
    fn disconnected_components_independent() {
        // Two paths of 3: middle vertices get BC 1 each.
        let g = Csr::from_undirected_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let bc = betweenness(&g);
        assert_close(&bc, &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn directed_path_counts_each_direction() {
        // Directed path 0 -> 1 -> 2: vertex 1 lies on one ordered pair.
        let g = Csr::from_directed_edges(3, [(0, 1), (1, 2)]);
        let bc = betweenness(&g);
        assert_close(&bc, &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn partial_roots_sum_to_full() {
        let g = gen::grid(4, 4);
        let full = betweenness(&g);
        let mut partial = vec![0.0; 16];
        for chunk in [(0u32..8), (8u32..16)] {
            let part = betweenness_from_roots(&g, chunk);
            for (p, q) in partial.iter_mut().zip(&part) {
                *p += q;
            }
        }
        assert_close(&full, &partial);
    }

    #[test]
    fn normalization() {
        let g = gen::star(5); // hub BC = C(4,2) = 6 = max possible for n=5 undirected
        let mut bc = betweenness(&g);
        normalize(&mut bc, true);
        assert!(
            (bc[0] - 1.0).abs() < 1e-9,
            "normalized hub must be 1.0, got {}",
            bc[0]
        );
    }

    #[test]
    fn normalize_tiny_graphs() {
        let mut s = vec![0.5, 0.5];
        normalize(&mut s, true);
        assert_eq!(s, vec![0.0, 0.0]);
    }

    #[test]
    fn workspace_reuse_matches_fresh_searches() {
        // Disconnected components stress the O(reached) reset: state
        // left by a big-component search must not leak into a search
        // rooted in the small one.
        let g = Csr::from_undirected_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]);
        let mut ws = BrandesWorkspace::new(7);
        for s in [0u32, 4, 3, 6, 0] {
            single_source_into(&g, s, &mut ws);
            let fresh = single_source(&g, s);
            assert_eq!(ws.search().dist, fresh.dist, "root {s}");
            assert_eq!(ws.search().sigma, fresh.sigma, "root {s}");
            assert_eq!(ws.search().order, fresh.order, "root {s}");
        }
    }

    #[test]
    fn accumulate_into_reuses_scratch() {
        let g = gen::grid(3, 4);
        let mut scratch = Vec::new();
        let mut bc_scratch = vec![0.0; 12];
        let mut bc_plain = vec![0.0; 12];
        for s in g.vertices() {
            let ss = single_source(&g, s);
            accumulate_into(&mut scratch, &g, s, &ss, &mut bc_scratch);
            accumulate(&g, s, &ss, &mut bc_plain);
        }
        assert_eq!(bc_scratch, bc_plain);
        assert!(
            scratch.iter().all(|&d| d == 0.0),
            "scratch must leave zeroed"
        );
    }

    #[test]
    fn sigma_counts_paths() {
        // Diamond: 0-1, 0-2, 1-3, 2-3 — two shortest paths 0 to 3.
        let g = Csr::from_undirected_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let ss = single_source(&g, 0);
        assert_eq!(ss.dist, vec![0, 1, 1, 2]);
        assert_eq!(ss.sigma[3], 2.0);
        // And BC: vertices 1 and 2 each carry half the 0-3 traffic.
        let bc = betweenness(&g);
        assert!((bc[1] - 0.5).abs() < 1e-9);
        assert!((bc[2] - 0.5).abs() < 1e-9);
    }
}
