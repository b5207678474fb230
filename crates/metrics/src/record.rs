//! Per-level and per-root metric records.

use serde::Serialize;

/// Which half of Brandes' algorithm a level belongs to. Mirrors the
/// engine's phase without depending on `bc-core` (this crate is a
/// leaf; the engine converts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum MetricPhase {
    /// BFS / shortest-path counting sweep.
    Forward,
    /// Dependency-accumulation sweep.
    Backward,
}

/// The traversal direction a forward level executed with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum MetricTraversal {
    /// Queue-based top-down kernel.
    Push,
    /// Bitmap-based bottom-up kernel.
    Pull,
}

/// Why the direction automaton chose a forward level's traversal,
/// recorded alongside the decision so switch levels are auditable
/// from the metrics stream alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SwitchReason {
    /// Depth 0: every search starts in push from the root.
    Start,
    /// Stayed top-down; the frontier never crossed the α threshold
    /// (or the graph/mode only supports push).
    StayPush,
    /// Crossed α: the frontier's edges outweigh the unexplored ones,
    /// so the level flipped to the bottom-up kernel.
    SwitchToPull,
    /// Stayed bottom-up; the frontier is still above the β threshold.
    StayPull,
    /// Shrank below β: the level flipped back to top-down.
    SwitchToPush,
}

/// One simulated kernel launch's counters: everything Figures 3–5 of
/// the paper plot per level, captured after the level was priced.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LevelMetrics {
    /// Forward or backward sweep.
    pub phase: MetricPhase,
    /// BFS depth of the processed vertices.
    pub depth: u32,
    /// Direction the level ran in (backward levels report push).
    pub traversal: MetricTraversal,
    /// `|Q_curr|` — vertices dequeued this level.
    pub q_curr: u64,
    /// `|Q_next|` — vertices discovered this level (0 backward).
    pub q_next: u64,
    /// Edges the kernel actually inspected: the frontier's out-edges
    /// in push, the unvisited vertices' probes in pull.
    pub edges_inspected: u64,
    /// σ (forward) or δ (backward) accumulations performed.
    pub updates: u64,
    /// Depth-dedup compare-and-swap attempts (push forward levels:
    /// one per inspected edge; 0 elsewhere).
    pub cas_attempts: u64,
    /// CAS attempts that won and discovered a vertex.
    pub cas_wins: u64,
    /// Atomic operations the cost model priced for this level.
    pub priced_atomics: u64,
    /// Occupied 32-bit leaf words of the compressed frontier bitmap
    /// this level probed (pull levels; 0 elsewhere).
    pub frontier_words: u64,
    /// Occupied summary words of the compressed frontier — one bit
    /// per 32 leaf words, i.e. per 1024 vertices (pull levels; 0
    /// elsewhere).
    pub summary_words: u64,
    /// Simulated seconds the device spent on this launch.
    pub seconds: f64,
    /// Direction decision provenance (forward levels only).
    pub switch: Option<SwitchReason>,
}

/// All levels of one root's search, in execution order: forward
/// levels by increasing depth, then backward levels descending.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RootMetrics {
    /// The source vertex.
    pub root: u32,
    /// Per-kernel-launch counters.
    pub levels: Vec<LevelMetrics>,
}

impl RootMetrics {
    /// Maximum BFS depth this root's search reached.
    pub fn max_depth(&self) -> u32 {
        self.levels
            .iter()
            .filter(|l| l.phase == MetricPhase::Forward)
            .map(|l| l.depth)
            .max()
            .unwrap_or(0)
    }
}

/// Keeps every level record, grouped per root in emission order. The
/// engine fills it through its observer hook (`bc_core::engine`
/// implements `Observer` for it).
#[derive(Clone, Debug, Default)]
pub struct MetricsRecorder {
    /// The recorded roots, in the order their searches ran.
    pub roots: Vec<RootMetrics>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(phase: MetricPhase, depth: u32) -> LevelMetrics {
        LevelMetrics {
            phase,
            depth,
            traversal: MetricTraversal::Push,
            q_curr: 1,
            q_next: 0,
            edges_inspected: 0,
            updates: 0,
            cas_attempts: 0,
            cas_wins: 0,
            priced_atomics: 0,
            frontier_words: 0,
            summary_words: 0,
            seconds: 0.0,
            switch: None,
        }
    }

    #[test]
    fn root_metrics_shape_helpers() {
        let r = RootMetrics {
            root: 7,
            levels: vec![
                level(MetricPhase::Forward, 0),
                level(MetricPhase::Forward, 1),
                level(MetricPhase::Forward, 2),
                level(MetricPhase::Backward, 1),
            ],
        };
        assert_eq!(r.max_depth(), 2);
    }

    #[test]
    fn level_metrics_serialize_to_json() {
        let mut l = level(MetricPhase::Forward, 0);
        l.switch = Some(SwitchReason::Start);
        let s = serde_json::to_string(&l).unwrap();
        assert!(s.contains("\"phase\":\"Forward\""), "{s}");
        assert!(s.contains("\"switch\":\"Start\""), "{s}");
    }
}
