//! Whole-graph statistics: the quantities reported in the paper's
//! Table II (vertices, edges, max degree, diameter) plus structural
//! descriptors (degree distribution, component structure) used to
//! validate that generated graphs land in the right structural class.

use crate::csr::Csr;
use crate::traversal;
use serde::{Deserialize, Serialize};

/// Summary statistics for a graph, in the shape of the paper's
/// Table II rows.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of vertices `n`.
    pub vertices: usize,
    /// Number of undirected edges `m`.
    pub edges: u64,
    /// Maximum vertex degree.
    pub max_degree: u32,
    /// Mean vertex degree (2m/n for undirected graphs).
    pub avg_degree: f64,
    /// Diameter (estimated by multi-sweep BFS for large graphs).
    pub diameter: u32,
    /// Whether the diameter is exact or a lower-bound estimate.
    pub diameter_exact: bool,
    /// Number of connected components.
    pub components: usize,
    /// Number of degree-zero vertices.
    pub isolated: usize,
    /// Fraction of vertices in the largest connected component.
    pub largest_component_frac: f64,
}

impl GraphStats {
    /// Compute statistics. Graphs with at most `exact_diameter_limit`
    /// vertices get an exact diameter; larger ones use a 6-sweep
    /// estimate (standard practice for dataset tables).
    pub fn compute(g: &Csr) -> Self {
        Self::compute_with_limit(g, 2048)
    }

    /// As [`GraphStats::compute`], with an explicit exact-diameter
    /// cutoff.
    pub fn compute_with_limit(g: &Csr, exact_diameter_limit: usize) -> Self {
        let n = g.num_vertices();
        let comps = traversal::connected_components(g);
        let num_comps = comps.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let mut sizes = vec![0usize; num_comps];
        for &c in &comps {
            sizes[c as usize] += 1;
        }
        let largest = sizes.iter().copied().max().unwrap_or(0);
        let exact = n <= exact_diameter_limit;
        let diameter = if exact {
            traversal::exact_diameter(g)
        } else {
            traversal::diameter_estimate(g, 6)
        };
        GraphStats {
            vertices: n,
            edges: g.num_undirected_edges(),
            max_degree: g.max_degree(),
            avg_degree: if n == 0 {
                0.0
            } else {
                2.0 * g.num_undirected_edges() as f64 / n as f64
            },
            diameter,
            diameter_exact: exact,
            components: num_comps,
            isolated: g.num_isolated(),
            largest_component_frac: if n == 0 {
                0.0
            } else {
                largest as f64 / n as f64
            },
        }
    }
}

/// Simulated cost per BFS level: every level of a search pays a fixed
/// launch/synchronization overhead on top of its edge work, so
/// high-diameter roots (road networks) cost far more than their edge
/// count suggests. Expressed in edge-work units.
const LEVEL_COST: f64 = 32.0;

/// Only the largest few components get eccentricity sweeps; smaller
/// ones fall back to the component-weight term, which dominates their
/// cost anyway. Bounds the probe at `ECC_SWEEP_COMPONENTS * sweeps`
/// BFS traversals however fragmented the graph is.
const ECC_SWEEP_COMPONENTS: usize = 8;

/// Deterministic per-root cost estimator for schedule seeding (LPT).
///
/// A Brandes search from root `r` touches exactly `r`'s connected
/// component — `n_c + m_c` units of work — and runs one level per BFS
/// depth, so its cost is estimated as the component weight plus
/// `LEVEL_COST` times a lower bound on `r`'s eccentricity. The
/// bounds come from multi-sweep BFS (the [`traversal::diameter_estimate`]
/// technique): every sweep from `s` gives `d(s, v) <= ecc(v)` for all
/// reached `v`, and restarting from the farthest vertex tightens the
/// bound where it matters (the periphery).
///
/// The estimate only ranks roots for load balancing — schedules merge
/// deterministically regardless — so a cheap lower bound is enough;
/// what matters is that construction is a pure function of the graph.
#[derive(Clone, Debug)]
pub struct RootCostEstimator {
    comp: Vec<u32>,
    comp_weight: Vec<f64>,
    ecc_lb: Vec<u32>,
}

impl RootCostEstimator {
    /// Probe `g` with `sweeps` BFS sweeps per major component.
    pub fn new(g: &Csr, sweeps: usize) -> Self {
        let n = g.num_vertices();
        let comp = traversal::connected_components(g);
        let num_comps = comp.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        // Accumulate component weights in u64 with checked adds and
        // convert to f64 once at the end: f64 `+=` would silently lose
        // units past 2^53, and a wrong weight only *mis-ranks* roots —
        // nothing downstream would ever catch it.
        let mut comp_units = vec![0u64; num_comps];
        let mut comp_min_vertex = vec![u32::MAX; num_comps];
        let mut comp_size = vec![0usize; num_comps];
        for v in g.vertices() {
            let c = comp[v as usize] as usize;
            // Component weight = vertices + degree sum (2m_c): the
            // O(n_c + m_c) work of one search over the component.
            comp_units[c] = comp_units[c]
                .checked_add(1 + g.degree(v) as u64)
                .expect("component weight overflows u64");
            comp_min_vertex[c] = comp_min_vertex[c].min(v);
            comp_size[c] += 1;
        }
        let comp_weight: Vec<f64> = comp_units
            .iter()
            .map(|&w| {
                debug_assert!(w <= 1u64 << 53, "component weight not exact in f64");
                w as f64
            })
            .collect();

        let mut ecc_lb = vec![0u32; n];
        let mut major: Vec<usize> = (0..num_comps).filter(|&c| comp_size[c] >= 2).collect();
        major.sort_by_key(|&c| (std::cmp::Reverse(comp_size[c]), c));
        for &c in major.iter().take(ECC_SWEEP_COMPONENTS) {
            let mut start = comp_min_vertex[c];
            for _ in 0..sweeps.max(1) {
                let dist = traversal::bfs_distances(g, start);
                let mut farthest = start;
                for v in g.vertices() {
                    let d = dist[v as usize];
                    if d == traversal::UNREACHED {
                        continue;
                    }
                    ecc_lb[v as usize] = ecc_lb[v as usize].max(d);
                    if d > dist[farthest as usize] {
                        farthest = v;
                    }
                }
                if farthest == start {
                    break; // the sweep converged (e.g. a clique)
                }
                start = farthest;
            }
        }
        RootCostEstimator {
            comp,
            comp_weight,
            ecc_lb,
        }
    }

    /// Estimated cost of a full search from `root`, in edge-work
    /// units. Deterministic; roots in the same component differ only
    /// by their eccentricity bounds.
    pub fn estimate(&self, root: u32) -> f64 {
        let c = self.comp[root as usize] as usize;
        self.comp_weight[c] + LEVEL_COST * self.ecc_lb[root as usize] as f64
    }
}

/// Degree histogram: `hist[d]` = number of vertices of degree `d`.
pub fn degree_histogram(g: &Csr) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() as usize + 1];
    for v in g.vertices() {
        hist[g.degree(v) as usize] += 1;
    }
    hist
}

/// Gini coefficient of the degree distribution: 0 for perfectly
/// uniform degrees, approaching 1 for extreme skew. Scale-free graphs
/// land well above meshes/roads; the hybrid methods exploit exactly
/// this difference, so tests pin generators to the right side of the
/// divide.
pub fn degree_gini(g: &Csr) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut degs: Vec<u64> = g.vertices().map(|v| g.degree(v) as u64).collect();
    degs.sort_unstable();
    let total: u64 = degs.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Gini = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n   with 1-based i.
    let weighted: u128 = degs
        .iter()
        .enumerate()
        .map(|(i, &d)| (i as u128 + 1) * d as u128)
        .sum();
    (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Total gather transactions implied by one full sweep of every
/// adjacency row: for each vertex, the number of *distinct* memory
/// lines of `ids_per_line` consecutive vertex ids its (sorted)
/// neighbor list touches when a warp gathers a neighbor-indexed array
/// (`d`/`σ` in the forward kernels).
///
/// Unlike raw adjacency bytes, this quantity is **label-sensitive**:
/// degree-descending relabeling packs hub ids into a dense prefix, so
/// neighbor lists concentrate onto fewer lines and the count drops on
/// scale-free graphs (checked in
/// `relabel_equiv::tests::degree_order_lowers_gather_lines_and_hub_transactions`
/// of bc-verify, reported by bc-bench's `sweep scale`).
pub fn gather_lines(g: &Csr, ids_per_line: u32) -> u64 {
    assert!(ids_per_line > 0);
    let mut lines = 0u64;
    for v in g.vertices() {
        let mut last = u32::MAX;
        for &u in g.neighbors(v) {
            let line = u / ids_per_line;
            if line != last {
                lines += 1;
                last = line;
            }
        }
    }
    lines
}

/// Byte ranges of the `count` highest-degree vertices' adjacency rows
/// (ties broken by vertex id) — the hub frontier a scale-free search
/// converges onto within a level or two. Label-sensitive like
/// [`gather_lines`]: degree-descending relabeling packs these rows
/// into a dense prefix of the adjacency array, so fewer 128-byte lines
/// cover them.
pub fn hub_adjacency_ranges(g: &Csr, count: usize) -> Vec<(u64, u64)> {
    let mut by_degree: Vec<u32> = g.vertices().collect();
    by_degree.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let ib = g.index_bytes();
    by_degree
        .iter()
        .take(count)
        .map(|&v| {
            let r = g.edge_range(v);
            (r.start as u64 * ib, r.end as u64 * ib)
        })
        .collect()
}

/// Fit the tail exponent of a power-law degree distribution via the
/// discrete maximum-likelihood estimator (Clauset–Shalizi–Newman's
/// continuous approximation), considering vertices of degree >=
/// `d_min`. Returns `None` when too few vertices qualify.
pub fn power_law_alpha(g: &Csr, d_min: u32) -> Option<f64> {
    let d_min = d_min.max(1);
    let xs: Vec<f64> = g
        .vertices()
        .map(|v| g.degree(v) as f64)
        .filter(|&d| d >= d_min as f64)
        .collect();
    if xs.len() < 16 {
        return None;
    }
    let s: f64 = xs.iter().map(|&x| (x / (d_min as f64 - 0.5)).ln()).sum();
    Some(1.0 + xs.len() as f64 / s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    #[test]
    fn stats_of_path() {
        let g = Csr::from_undirected_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertices, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.diameter, 4);
        assert!(s.diameter_exact);
        assert_eq!(s.components, 1);
        assert_eq!(s.isolated, 0);
        assert!((s.avg_degree - 1.6).abs() < 1e-12);
        assert!((s.largest_component_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_with_isolated_vertices() {
        let g = Csr::from_undirected_edges(5, [(0, 1)]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.components, 4);
        assert_eq!(s.isolated, 3);
        assert!((s.largest_component_frac - 0.4).abs() < 1e-12);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = Csr::from_undirected_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)]);
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 6);
        assert_eq!(h[3], 1); // the hub
        assert_eq!(h[1], 5);
    }

    #[test]
    fn gini_zero_for_regular_graph() {
        let cyc = Csr::from_undirected_edges(8, (0..8u32).map(|i| (i, (i + 1) % 8)));
        assert!(degree_gini(&cyc).abs() < 1e-12);
    }

    #[test]
    fn gini_large_for_star() {
        let star = Csr::from_undirected_edges(32, (1..32u32).map(|i| (0, i)));
        assert!(degree_gini(&star) > 0.4, "star should be highly skewed");
    }

    #[test]
    fn power_law_alpha_requires_samples() {
        let g = Csr::from_undirected_edges(4, [(0, 1), (1, 2)]);
        assert!(power_law_alpha(&g, 1).is_none());
    }

    #[test]
    fn cost_estimator_ranks_deep_roots_above_shallow_ones() {
        // A long path and a star of the same vertex count: path roots
        // pay ~n levels, star roots pay ~2 — the estimator must rank
        // every path root above every star root.
        let mut edges: Vec<(u32, u32)> = (0..63u32).map(|v| (v, v + 1)).collect();
        edges.extend((65..128u32).map(|v| (64, v)));
        let g = Csr::from_undirected_edges(128, edges);
        let est = RootCostEstimator::new(&g, 2);
        let path_min = (0..64u32).map(|r| est.estimate(r)).fold(f64::MAX, f64::min);
        let star_max = (64..128u32).map(|r| est.estimate(r)).fold(0.0, f64::max);
        assert!(
            path_min > star_max,
            "path roots ({path_min}) must outrank star roots ({star_max})"
        );
        // Same component => same weight term; construction is pure.
        let again = RootCostEstimator::new(&g, 2);
        for r in 0..128u32 {
            assert_eq!(est.estimate(r).to_bits(), again.estimate(r).to_bits());
        }
    }

    #[test]
    fn cost_estimator_handles_isolated_and_tiny_components() {
        let g = Csr::from_undirected_edges(6, [(0, 1)]);
        let est = RootCostEstimator::new(&g, 3);
        assert!(
            est.estimate(0) > est.estimate(2),
            "an edge outweighs an isolate"
        );
        assert_eq!(est.estimate(2), 1.0, "an isolated root costs its own visit");
        let empty = RootCostEstimator::new(&Csr::from_undirected_edges(0, []), 2);
        drop(empty);
    }

    #[test]
    fn gather_lines_counts_distinct_lines_per_row() {
        // Star center row = [1..32): with 8 ids per line that spans
        // lines 0..4 → 4 lines (+1 for each leaf's single-entry row).
        let star = Csr::from_undirected_edges(32, (1..32u32).map(|i| (0, i)));
        assert_eq!(gather_lines(&star, 8), 4 + 31);
        // One id per line degenerates to the directed edge count.
        assert_eq!(gather_lines(&star, 1), star.num_directed_edges() as u64);
        // Degree-descending relabeling concentrates a scale-free
        // graph's gathers onto fewer lines.
        let g = crate::gen::barabasi_albert(2000, 4, 9);
        let r = crate::relabel::apply(&g, crate::relabel::Relabeling::DegreeDesc);
        assert!(
            gather_lines(&r.graph, 8) < gather_lines(&g, 8),
            "relabeling must reduce gather lines on scale-free graphs"
        );
    }

    #[test]
    fn empty_graph_stats() {
        let g = Csr::from_undirected_edges(0, []);
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.components, 0);
        assert_eq!(degree_gini(&g), 0.0);
    }
}
