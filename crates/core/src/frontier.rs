//! Frontier instrumentation and representation — the data behind
//! Figure 3 (frontier evolution) and Table I (correlation of frontier
//! sizes with per-iteration execution time), plus the compressed
//! (hierarchical bitmap) frontier the bottom-up sweep consumes.

use crate::engine::{process_root_observed, RootContext, RootOutcome, SearchWorkspace};
use crate::methods::models::WorkEfficientModel;
use bc_gpusim::DeviceConfig;
use bc_graph::{Csr, VertexId};
use bc_metrics::{MetricPhase, MetricsRecorder};
use serde::{Deserialize, Serialize};

/// Vertices covered by one 32-bit leaf word of a
/// [`CompressedFrontier`].
pub const VERTICES_PER_WORD: u32 = 32;

/// Leaf words covered by one bit of the summary level — so one
/// summary *word* covers `32 × 32 = 1024` vertices.
pub const WORDS_PER_SUMMARY_BIT: u32 = 32;

/// Vertices covered by one summary word (`32 × 32`).
pub const VERTICES_PER_SUMMARY_WORD: u32 = VERTICES_PER_WORD * WORDS_PER_SUMMARY_BIT;

/// A two-level (hierarchical) frontier bitmap: one bit per vertex in
/// the leaf level, one bit per leaf word in the summary level.
///
/// This is the dense frontier representation the bottom-up kernels
/// use in place of `Q_curr`'s sparse queue — 32× denser than a vertex
/// list, with the summary level letting whole 1024-vertex regions be
/// skipped (or cleared) in a single probe. The engine materializes it
/// with the `frontier-compact` kernel on a push→pull direction switch
/// and thereafter maintains it by swapping `F_curr`/`F_next`, exactly
/// like the paper's direction-optimizing BFS bookkeeping.
///
/// Invariant: a leaf word is nonzero only if its summary bit is set
/// ([`Self::set`] maintains both), which is what makes the
/// summary-guided [`Self::clear`] O(occupied regions) instead of
/// O(n/32).
#[derive(Clone, Debug, Default)]
pub struct CompressedFrontier {
    leaf: Vec<u32>,
    summary: Vec<u32>,
}

impl CompressedFrontier {
    /// An empty frontier over `n` vertices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(VERTICES_PER_WORD as usize);
        let summaries = words.div_ceil(WORDS_PER_SUMMARY_BIT as usize);
        CompressedFrontier {
            leaf: vec![0; words],
            summary: vec![0; summaries],
        }
    }

    /// Leaf words allocated (`⌈n / 32⌉`).
    pub fn leaf_words(&self) -> usize {
        self.leaf.len()
    }

    /// Summary words allocated (`⌈⌈n / 32⌉ / 32⌉`).
    pub fn summary_words(&self) -> usize {
        self.summary.len()
    }

    /// Set vertex `v`'s bit in both levels.
    pub fn set(&mut self, v: VertexId) {
        let word = (v / VERTICES_PER_WORD) as usize;
        self.leaf[word] |= 1u32 << (v % VERTICES_PER_WORD);
        self.summary[word / WORDS_PER_SUMMARY_BIT as usize] |=
            1u32 << (word as u32 % WORDS_PER_SUMMARY_BIT);
    }

    /// Is vertex `v`'s bit set? One leaf-word probe.
    pub fn contains(&self, v: VertexId) -> bool {
        self.leaf[(v / VERTICES_PER_WORD) as usize] & (1u32 << (v % VERTICES_PER_WORD)) != 0
    }

    /// Does the 1024-vertex region holding `v` contain any frontier
    /// vertex at all? One summary-word probe — the hierarchical
    /// shortcut that lets a scan skip empty regions without touching
    /// their leaf words.
    pub fn region_occupied(&self, v: VertexId) -> bool {
        let word = v / VERTICES_PER_WORD;
        self.summary[(word / WORDS_PER_SUMMARY_BIT) as usize]
            & (1u32 << (word % WORDS_PER_SUMMARY_BIT))
            != 0
    }

    /// Nonzero leaf words — the words the compaction kernel actually
    /// materialized (equals the total population count of the summary
    /// level, by the invariant).
    pub fn occupied_leaf_words(&self) -> u64 {
        self.summary.iter().map(|&w| w.count_ones() as u64).sum()
    }

    /// Nonzero summary words — occupied 1024-vertex regions.
    pub fn occupied_summary_words(&self) -> u64 {
        self.summary.iter().filter(|&&w| w != 0).count() as u64
    }

    /// Clear every set bit, guided by the summary level: only leaf
    /// words whose summary bit is set are touched.
    pub fn clear(&mut self) {
        for (si, sw) in self.summary.iter_mut().enumerate() {
            let mut bits = *sw;
            while bits != 0 {
                let b = bits.trailing_zeros();
                self.leaf[si * WORDS_PER_SUMMARY_BIT as usize + b as usize] = 0;
                bits &= bits - 1;
            }
            *sw = 0;
        }
    }

    /// Clear, then set every vertex of `frontier`.
    pub fn rebuild_from(&mut self, frontier: &[VertexId]) {
        self.clear();
        for &v in frontier {
            self.set(v);
        }
    }
}

/// Per-root frontier trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrontierTrace {
    /// The root this trace describes.
    pub root: VertexId,
    /// Vertex-frontier size at each BFS depth.
    pub vertex_frontier: Vec<usize>,
    /// Edge-frontier size at each BFS depth.
    pub edge_frontier: Vec<u64>,
    /// Simulated work-efficient iteration time at each depth.
    pub level_seconds: Vec<f64>,
}

impl FrontierTrace {
    /// Vertex frontier as a percentage of `n` (Figure 3's y-axis).
    pub fn vertex_frontier_percent(&self, n: usize) -> Vec<f64> {
        self.vertex_frontier
            .iter()
            .map(|&f| 100.0 * f as f64 / n as f64)
            .collect()
    }

    /// ρ(vertex frontier, iteration time) — Table I's `ρ_{v,t}`.
    pub fn rho_vt(&self) -> f64 {
        pearson(
            &self
                .vertex_frontier
                .iter()
                .map(|&x| x as f64)
                .collect::<Vec<_>>(),
            &self.level_seconds,
        )
    }

    /// ρ(edge frontier, iteration time) — Table I's `ρ_{e,t}`.
    pub fn rho_et(&self) -> f64 {
        pearson(
            &self
                .edge_frontier
                .iter()
                .map(|&x| x as f64)
                .collect::<Vec<_>>(),
            &self.level_seconds,
        )
    }

    /// Peak vertex-frontier fraction of `n` — the quantity separating
    /// Figure 3's graph classes (over half for small-world/scale-free,
    /// a few percent for meshes and roads).
    pub fn peak_fraction(&self, n: usize) -> f64 {
        self.vertex_frontier.iter().copied().max().unwrap_or(0) as f64 / n as f64
    }
}

/// Trace the frontier evolution of one root using the work-efficient
/// method (the configuration Table I measures).
pub fn trace_root(g: &Csr, root: VertexId, device: &DeviceConfig) -> FrontierTrace {
    let mut ws = SearchWorkspace::new(g.num_vertices());
    let mut bc = vec![0.0; g.num_vertices()];
    let mut rec = MetricsRecorder::default();
    process_root_observed(
        &RootContext { g, root, device },
        &mut ws,
        &mut WorkEfficientModel::default(),
        &mut bc,
        &mut RootOutcome::default(),
        &mut rec,
    );
    // The work-efficient model only pushes, so every forward level
    // inspects exactly its edge frontier.
    let forward: Vec<_> = rec.roots[0]
        .levels
        .iter()
        .filter(|l| l.phase == MetricPhase::Forward)
        .collect();
    FrontierTrace {
        root,
        vertex_frontier: forward.iter().map(|l| l.q_curr as usize).collect(),
        edge_frontier: forward.iter().map(|l| l.edges_inspected).collect(),
        level_seconds: forward.iter().map(|l| l.seconds).collect(),
    }
}

/// Pearson correlation coefficient of two equal-length samples.
/// Returns 0 when either sample is constant or shorter than 2.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation needs paired samples");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::gen;

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "paired samples")]
    fn pearson_rejects_mismatched_lengths() {
        let _ = pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn trace_shapes_match_graph() {
        let g = gen::path(32);
        let t = trace_root(&g, 0, &DeviceConfig::gtx_titan());
        assert_eq!(t.vertex_frontier.len(), 32);
        assert!(t.vertex_frontier.iter().all(|&f| f == 1));
        assert_eq!(t.level_seconds.len(), 32);
        assert!((t.peak_fraction(32) - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn vertex_frontier_correlates_with_time() {
        // Table I's core claim: ρ_{v,t} is strongly positive for any
        // structure. Use a mesh (high diameter, growing frontiers).
        let g = gen::triangulated_grid(40, 40, 1);
        let t = trace_root(&g, 0, &DeviceConfig::gtx_titan());
        assert!(
            t.rho_vt() > 0.8,
            "vertex frontier should correlate with iteration time, got {}",
            t.rho_vt()
        );
    }

    #[test]
    fn small_world_peak_fraction_is_large() {
        let sw = gen::watts_strogatz(2048, 10, 0.1, 2);
        let t = trace_root(&sw, 0, &DeviceConfig::gtx_titan());
        assert!(
            t.peak_fraction(2048) > 0.4,
            "small-world peak frontier holds over 40% of vertices, got {}",
            t.peak_fraction(2048)
        );
        let road = gen::road_network(2048, 2);
        let tr = trace_root(&road, 0, &DeviceConfig::gtx_titan());
        assert!(
            tr.peak_fraction(road.num_vertices()) < 0.1,
            "road peak frontier stays small, got {}",
            tr.peak_fraction(road.num_vertices())
        );
    }

    #[test]
    fn compressed_frontier_set_contains_and_summary() {
        let mut f = CompressedFrontier::new(5000);
        assert_eq!(f.leaf_words(), 157);
        assert_eq!(f.summary_words(), 5);
        for v in [0u32, 31, 32, 1023, 1024, 4999] {
            assert!(!f.contains(v));
            f.set(v);
            assert!(f.contains(v));
        }
        assert!(!f.contains(1), "neighboring bits stay clear");
        // 0/31 share a word; 32 and 1023 each own one; 1024; 4999.
        assert_eq!(f.occupied_leaf_words(), 5);
        // Regions: [0,1024) holds three words, [1024,2048), [4096,..).
        assert_eq!(f.occupied_summary_words(), 3);
        assert!(f.region_occupied(1) && f.region_occupied(4998));
        assert!(!f.region_occupied(2048), "empty region skips in one probe");
    }

    #[test]
    fn compressed_frontier_clear_restores_empty_state() {
        let mut f = CompressedFrontier::new(4096);
        for v in (0..4096).step_by(7) {
            f.set(v);
        }
        f.clear();
        assert_eq!(f.occupied_leaf_words(), 0);
        assert_eq!(f.occupied_summary_words(), 0);
        assert!((0..4096).all(|v| !f.contains(v)));
        // And the invariant survives reuse.
        f.rebuild_from(&[9, 2048]);
        assert!(f.contains(9) && f.contains(2048) && !f.contains(10));
        assert_eq!(f.occupied_leaf_words(), 2);
    }

    #[test]
    fn compressed_frontier_handles_edge_sizes() {
        // Exactly one word, exactly one summary bit.
        let mut f = CompressedFrontier::new(32);
        assert_eq!((f.leaf_words(), f.summary_words()), (1, 1));
        f.set(31);
        assert!(f.contains(31) && f.region_occupied(0));
        // Empty graph: no words at all.
        let e = CompressedFrontier::new(0);
        assert_eq!((e.leaf_words(), e.summary_words()), (0, 0));
    }

    #[test]
    fn percent_conversion() {
        let t = FrontierTrace {
            root: 0,
            vertex_frontier: vec![1, 50],
            edge_frontier: vec![1, 50],
            level_seconds: vec![0.0, 0.0],
        };
        assert_eq!(t.vertex_frontier_percent(100), vec![1.0, 50.0]);
    }
}
