//! Replayable access traces: the recorder for the engine's events and
//! level records ([`record`] runs one root through it), and the
//! synthesized predecessor-style accumulation and pull-announcement
//! traces.

use bc_core::engine::{
    process_root_observed, CostModel, Observer, Phase, RootContext, RootOutcome, SearchWorkspace,
};
use bc_gpusim::trace::{AccessKind, KernelArray, TraceEvent};
use bc_gpusim::DeviceConfig;
use bc_graph::{Csr, VertexId};
use bc_metrics::LevelMetrics;

/// Every event of one simulated kernel launch (one BFS or
/// accumulation level): all events execute concurrently across their
/// logical threads, with a device-wide barrier before the next level.
#[derive(Clone, Debug)]
pub struct LevelTrace {
    /// Which half of the algorithm the launch belongs to.
    pub phase: Phase,
    /// BFS depth of the processed vertices.
    pub depth: u32,
    /// The level's accesses, in emission order.
    pub events: Vec<TraceEvent>,
    /// The engine's record of the launch, priced counters included
    /// (`None` for synthesized traces, and for a recorded launch the
    /// engine never reported).
    pub metrics: Option<LevelMetrics>,
}

impl LevelTrace {
    /// Number of atomic accesses in this level.
    pub fn atomic_events(&self) -> u64 {
        self.events.iter().filter(|e| e.kind.is_atomic()).count() as u64
    }
}

/// A full per-root trace: forward levels in depth order, then
/// backward levels from the deepest processed level down to depth 1.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The recorded kernel launches.
    pub levels: Vec<LevelTrace>,
}

impl Trace {
    /// Total recorded events.
    pub fn num_events(&self) -> u64 {
        self.levels.iter().map(|l| l.events.len() as u64).sum()
    }

    /// The subset of levels in `phase`.
    pub fn phase_levels(&self, phase: Phase) -> impl Iterator<Item = &LevelTrace> {
        self.levels.iter().filter(move |l| l.phase == phase)
    }
}

/// An [`Observer`] that keeps every event and every level record, for
/// offline checking.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    /// The trace accumulated so far.
    pub trace: Trace,
}

impl RecordingSink {
    fn current(&mut self) -> &mut LevelTrace {
        self.trace
            .levels
            .last_mut()
            .expect("the engine begins a level before reporting on it")
    }
}

impl Observer for RecordingSink {
    const LEVELS: bool = true;
    const ACCESSES: bool = true;

    fn begin_level(&mut self, phase: Phase, depth: u32) {
        self.trace.levels.push(LevelTrace {
            phase,
            depth,
            events: Vec::new(),
            metrics: None,
        });
    }

    fn access(&mut self, event: TraceEvent) {
        self.current().events.push(event);
    }

    fn level(&mut self, level: LevelMetrics) {
        let current = self.current();
        assert!(
            current.metrics.is_none(),
            "the engine reported two records for one launch"
        );
        current.metrics = Some(level);
    }
}

/// Run one search from `root` under `model` with a fresh workspace,
/// recording every launch; returns the trace and the finished search
/// state.
pub fn record<M: CostModel>(
    g: &Csr,
    root: VertexId,
    device: &DeviceConfig,
    mut model: M,
) -> (Trace, SearchWorkspace) {
    let mut ws = SearchWorkspace::new(g.num_vertices());
    let mut sink = RecordingSink::default();
    process_root_observed(
        &RootContext { g, root, device },
        &mut ws,
        &mut model,
        &mut vec![0.0; g.num_vertices()],
        &mut RootOutcome::default(),
        &mut sink,
    );
    (sink.trace, ws)
}

/// Synthesize the dependency-accumulation trace of a
/// **predecessor-based, edge-parallel** kernel (Jia et al.) over the
/// search state left in `ws` by a forward pass: one logical thread
/// per tree edge `(v, w)` with `d[w] + 1 = d[v]`, each contributing
/// `σ[w]/σ[v]·(1 + δ[v])` into the *predecessor's* `δ[w]`.
///
/// With `atomic = false` the contribution is a plain read-modify-write
/// of `δ[w]` — the deliberately broken variant §IV-A warns about:
/// sibling edges sharing a predecessor collide, and the race detector
/// must flag it. With `atomic = true` it is an `atomicAdd`, the
/// synchronization edge-parallel accumulation actually requires, and
/// the trace must pass.
pub fn predecessor_accumulation_trace(g: &Csr, ws: &SearchWorkspace, atomic: bool) -> Trace {
    let s = ws.stack();
    let ends = ws.ends();
    let dist = ws.dist();
    let mut trace = Trace::default();
    let num_segments = ends.len() - 1;
    // Mirror the engine's backward schedule: process depth d by
    // pulling contributions out of depth d + 1.
    for d in (1..num_segments.saturating_sub(1)).rev() {
        let mut level = LevelTrace {
            phase: Phase::Backward,
            depth: d as u32,
            events: Vec::new(),
            metrics: None,
        };
        let mut lane = 0u32;
        for &v in &s[ends[d + 1] as usize..ends[d + 2] as usize] {
            for &w in g.neighbors(v) {
                if dist[w as usize] as usize + 1 != dist[v as usize] as usize {
                    continue;
                }
                // This lane owns the tree edge (v, w).
                let mut push = |array, index, kind| {
                    level.events.push(TraceEvent {
                        thread: lane,
                        array,
                        index,
                        kind,
                    });
                };
                push(KernelArray::Dist, w, AccessKind::Read);
                push(KernelArray::Sigma, v, AccessKind::Read);
                push(KernelArray::Sigma, w, AccessKind::Read);
                push(KernelArray::Delta, v, AccessKind::Read);
                if atomic {
                    push(KernelArray::Delta, w, AccessKind::AtomicAdd);
                } else {
                    // Plain load + store of a shared δ cell.
                    push(KernelArray::Delta, w, AccessKind::Read);
                    push(KernelArray::Delta, w, AccessKind::Write);
                }
                lane += 1;
            }
        }
        trace.levels.push(level);
    }
    trace
}

/// Synthesize the forward-sweep trace of a **bottom-up (pull)**
/// kernel over the finished search state in `ws`: at every depth `d`,
/// one logical thread per still-unvisited vertex scans its own
/// adjacency for frontier parents (`F_curr` membership probes against
/// the level's frontier bitmap), gathers their σ, and — on discovery
/// — writes its own `d`/`σ` cells and announces itself in the
/// `F_next` bitmap.
///
/// With `atomic = true` the announcement is the word-granular
/// `atomicOr` the engine's pull kernel performs: the only cells
/// multiple threads write are the shared `F_next` words, and the
/// atomic makes that safe — the detector must pass it. With
/// `atomic = false` the announcement is a plain load–or–store of the
/// shared word, the seeded bug: any two discovered vertices whose ids
/// share a 32-bit word collide, and the detector must flag it.
pub fn pull_bitmap_trace(g: &Csr, ws: &SearchWorkspace, atomic: bool) -> Trace {
    let dist = ws.dist();
    let ends = ws.ends();
    let n = g.num_vertices() as u32;
    let words = n.div_ceil(32);
    let mut trace = Trace::default();
    for d in 0..(ends.len() - 1) as u32 {
        let mut level = LevelTrace {
            phase: Phase::Forward,
            depth: d,
            events: Vec::new(),
            metrics: None,
        };
        let mut push = |thread, array, index, kind| {
            level.events.push(TraceEvent {
                thread,
                array,
                index,
                kind,
            });
        };
        // The visited-bitmap scan that yields each lane's unvisited
        // vertices (one lane per word, read-only).
        for word in 0..words {
            push(word, KernelArray::VisitedBits, word, AccessKind::Read);
        }
        for w in 0..n {
            // `dist` is final but monotone: a vertex discovered at
            // depth e was unvisited at every level before e, so the
            // finished state reconstructs each level's unvisited set
            // (unreached vertices scan at every level, exactly as in
            // the engine).
            if dist[w as usize] <= d {
                continue;
            }
            let mut parents = 0u64;
            for &v in g.neighbors(w) {
                push(w, KernelArray::FrontierBits, v / 32, AccessKind::Read);
                if dist[v as usize] == d {
                    push(w, KernelArray::Sigma, v, AccessKind::Read);
                    parents += 1;
                }
            }
            if parents > 0 {
                push(w, KernelArray::Dist, w, AccessKind::Write);
                push(w, KernelArray::Sigma, w, AccessKind::Write);
                if atomic {
                    push(w, KernelArray::NextBits, w / 32, AccessKind::AtomicOr);
                } else {
                    // Plain read-modify-write of the shared F_next
                    // word — the deliberately broken variant.
                    push(w, KernelArray::NextBits, w / 32, AccessKind::Read);
                    push(w, KernelArray::NextBits, w / 32, AccessKind::Write);
                }
            }
        }
        trace.levels.push(level);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_core::engine::FreeModel;
    use bc_graph::gen;

    fn record(g: &Csr, root: u32) -> (Trace, SearchWorkspace) {
        super::record(g, root, &DeviceConfig::gtx_titan(), FreeModel)
    }

    #[test]
    fn null_sink_is_disabled() {
        // Read through a generic bound (not the literal constants) so
        // the check sees what the engine's emission guards see.
        fn switches<O: Observer>() -> (bool, bool) {
            (O::LEVELS, O::ACCESSES)
        }
        // The disabled observer `()` compiles every emission site out;
        // the recorder keeps both levels and accesses.
        assert_eq!(switches::<()>(), (false, false));
        assert_eq!(switches::<RecordingSink>(), (true, true));
    }

    #[test]
    fn recorded_levels_match_search_shape() {
        let g = gen::path(6);
        let (trace, _) = record(&g, 0);
        // Forward: depths 0..=5; backward: depths 4..=1.
        let forward: Vec<u32> = trace
            .phase_levels(Phase::Forward)
            .map(|l| l.depth)
            .collect();
        let backward: Vec<u32> = trace
            .phase_levels(Phase::Backward)
            .map(|l| l.depth)
            .collect();
        assert_eq!(forward, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(backward, vec![4, 3, 2, 1]);
        assert!(trace.num_events() > 0);
    }

    #[test]
    fn backward_levels_have_no_atomics() {
        let g = gen::grid(5, 5);
        let (trace, _) = record(&g, 0);
        for level in trace.phase_levels(Phase::Backward) {
            assert_eq!(
                level.atomic_events(),
                0,
                "successor sweep must be atomic-free"
            );
        }
        // While the forward phase is full of them.
        assert!(trace
            .phase_levels(Phase::Forward)
            .any(|l| l.atomic_events() > 0));
    }

    #[test]
    fn pull_trace_is_atomic_free_except_discovery() {
        let g = gen::erdos_renyi(100, 300, 7);
        let (_, ws) = record(&g, 0);
        let safe = pull_bitmap_trace(&g, &ws, true);
        let racy = pull_bitmap_trace(&g, &ws, false);
        assert_eq!(safe.levels.len(), racy.levels.len());
        assert!(safe.levels.iter().all(|l| l.phase == Phase::Forward));
        // Exactly one atomic per discovered vertex, none elsewhere.
        let discovered: u64 = {
            let dist = ws.dist();
            (0..g.num_vertices())
                .filter(|&v| dist[v] != u32::MAX && dist[v] > 0)
                .count() as u64
        };
        let atomics: u64 = safe.levels.iter().map(|l| l.atomic_events()).sum();
        assert_eq!(atomics, discovered);
        assert_eq!(
            racy.levels.iter().map(|l| l.atomic_events()).sum::<u64>(),
            0
        );
    }

    #[test]
    fn pull_race_detector_flags_only_the_broken_variant() {
        use crate::race::check_trace;
        // A star's wide level discovers many vertices per F_next
        // word, the worst case for the plain read–or–write bug.
        for g in [gen::star(40), gen::erdos_renyi(120, 400, 3)] {
            let (_, ws) = record(&g, 0);
            assert!(check_trace(&pull_bitmap_trace(&g, &ws, true)).is_empty());
            let races = check_trace(&pull_bitmap_trace(&g, &ws, false));
            assert!(
                races.iter().any(|r| r.array == KernelArray::NextBits),
                "plain F_next update must race: {races:?}"
            );
        }
    }

    #[test]
    fn predecessor_trace_covers_all_tree_edges() {
        let g = gen::grid(4, 4);
        let (_, ws) = record(&g, 0);
        let plain = predecessor_accumulation_trace(&g, &ws, false);
        let atomic = predecessor_accumulation_trace(&g, &ws, true);
        // Same schedule, one extra event per edge in the plain
        // variant (read + write vs one atomic).
        assert_eq!(plain.levels.len(), atomic.levels.len());
        assert!(plain.num_events() > atomic.num_events());
        assert!(atomic.levels.iter().all(|l| l.phase == Phase::Backward));
    }
}
