//! Spec-vs-trace conformance: replay recorded engine traces against
//! the symbolic kernel IR.
//!
//! The prover ([`crate::prover`]) reasons about the declared
//! [`bc_core::kernel_spec`] specs; this pass pins those declarations
//! to reality. For every dataset analogue it records full access
//! traces (push-mode and forced-pull forward passes, plus the
//! backward sweeps) and checks, event by event, that each access the
//! engine emitted is **admitted** by some spec of its launch — same
//! array, same flavor, an index the spec's symbolic expression can
//! produce for that lane, in the segment the spec promises. Aggregate
//! shape checks (CAS-per-edge, reservation coverage of the next queue
//! segment, exactly-one-δ-store-per-lane, zero backward atomics)
//! close the gaps per-event matching cannot see, and per-spec hit
//! counters prove the reverse direction: every declared access is
//! exercised by some recorded event, so the IR holds no dead
//! declarations. Drift in either direction — an emission site the IR
//! does not admit, or a spec no trace ever hits — fails the gate.
//!
//! Validation uses only *final* search state (`dist`, `S`, `ends`),
//! which is sound because the engine writes each of those cells once:
//! a vertex's recorded depth is its depth at every instant after
//! discovery.

use crate::trace::{record, LevelTrace};
use bc_core::engine::{FreeModel, Phase, SearchWorkspace};
use bc_core::kernel_spec::{
    kernel_spec, AccessSpec, IndexExpr, KernelId, KernelSpec, LaunchId, SegmentClass,
};
use bc_core::{DirectionOptimizingModel, TraversalMode};
use bc_gpusim::trace::{AccessKind, KernelArray, TraceEvent};
use bc_gpusim::DeviceConfig;
use bc_graph::{Csr, DatasetId};
use bc_metrics::MetricTraversal;

/// What to record and replay.
#[derive(Clone, Debug)]
pub struct ConformanceOptions {
    /// Datasets to check (the full gate uses [`DatasetId::ALL`]).
    pub datasets: Vec<DatasetId>,
    /// Evenly-spaced roots per dataset.
    pub roots: usize,
    /// Generator seed.
    pub seed: u64,
}

impl ConformanceOptions {
    /// The full gate: every dataset analogue.
    pub fn full(roots: usize, seed: u64) -> ConformanceOptions {
        ConformanceOptions {
            datasets: DatasetId::ALL.to_vec(),
            roots,
            seed,
        }
    }
}

/// Outcome of a conformance run.
#[derive(Clone, Debug, Default)]
pub struct ConformanceReport {
    /// Datasets replayed.
    pub datasets: usize,
    /// Root searches replayed (push and pull runs counted separately).
    pub runs: usize,
    /// Kernel launches (levels) checked.
    pub levels: usize,
    /// Events validated.
    pub events: u64,
    /// Total violations found.
    pub error_count: u64,
    /// The first violations, with context (capped — see
    /// [`ConformanceReport::MAX_REPORTED`]).
    pub errors: Vec<String>,
    /// Declared specs no recorded event exercised.
    pub unhit_specs: Vec<String>,
}

impl ConformanceReport {
    /// How many violations are kept verbatim.
    pub const MAX_REPORTED: usize = 20;

    /// True when every event conformed and every spec was hit.
    pub fn is_clean(&self) -> bool {
        self.error_count == 0 && self.unhit_specs.is_empty()
    }

    fn push_error(&mut self, msg: String) {
        if self.errors.len() < Self::MAX_REPORTED {
            self.errors.push(msg);
        }
        self.error_count += 1;
    }
}

/// Per-spec hit counters, keyed by (kernel, access position).
struct HitTable {
    hits: Vec<(KernelId, AccessSpec, u64)>,
}

impl HitTable {
    fn new() -> HitTable {
        let mut hits = Vec::new();
        for id in KernelId::ALL {
            for &a in &kernel_spec(id).accesses {
                hits.push((id, a, 0));
            }
        }
        HitTable { hits }
    }

    fn hit(&mut self, kernel: KernelId, spec: &AccessSpec) {
        let row = self
            .hits
            .iter_mut()
            .find(|(k, a, _)| *k == kernel && a == spec)
            .expect("hit table covers every declared spec");
        row.2 += 1;
    }

    fn unhit(&self) -> Vec<String> {
        self.hits
            .iter()
            .filter(|(_, _, n)| *n == 0)
            .map(|(k, a, _)| format!("{k}: {a}"))
            .collect()
    }
}

/// Everything needed to validate one level's events against the IR.
struct LevelCtx<'a> {
    g: &'a Csr,
    dist: &'a [u32],
    s: &'a [u32],
    launch: LaunchId,
    depth: u32,
    /// Current stack/queue segment (slot indices).
    seg: std::ops::Range<usize>,
    /// Next segment (empty on the last forward level).
    next_seg: std::ops::Range<usize>,
    /// Pull levels only: does this level rebuild the compressed
    /// frontier (first pull level after a push, or a forced-pull
    /// start)? Only rebuild levels run [`KernelId::FrontierCompact`]
    /// lanes.
    compact: bool,
}

impl<'a> LevelCtx<'a> {
    /// The context of the `launch` at `depth` over the finished search
    /// state in `ws`.
    fn new(
        g: &'a Csr,
        ws: &'a SearchWorkspace,
        launch: LaunchId,
        depth: u32,
        compact: bool,
    ) -> Self {
        let (s, ends) = (ws.stack(), ws.ends());
        let segment = |d: usize| -> std::ops::Range<usize> {
            let lo = ends.get(d).map_or(s.len(), |&e| e as usize);
            let hi = ends.get(d + 1).map_or(s.len(), |&e| e as usize);
            lo..hi
        };
        LevelCtx {
            g,
            dist: ws.dist(),
            s,
            launch,
            depth,
            seg: segment(depth as usize),
            next_seg: segment(depth as usize + 1),
            compact,
        }
    }

    /// Does `v/32 == word` for some neighbor of `own`? Adjacency is
    /// sorted, so the word's vertex range is one binary search.
    fn neighbor_in_word(&self, own: u32, word: u32) -> bool {
        let ns = self.g.neighbors(own);
        let lo = ns.partition_point(|&v| v < word * 32);
        ns.get(lo).is_some_and(|&v| v / 32 == word)
    }

    /// Can `kernel`'s `spec` produce `ev` for this level? Lanes are
    /// resolved per kernel: a fused launch may mix lane spaces
    /// (ForwardPull runs frontier-slot compaction lanes ahead of the
    /// unvisited-vertex scan lanes).
    fn admits(&self, kernel: KernelId, spec: &AccessSpec, ev: &TraceEvent) -> bool {
        // Resolve the lane to its vertex per the kernel's lane space.
        let own: u32 = match self.launch {
            LaunchId::ForwardPush | LaunchId::Backward => {
                let slot = self.seg.start + ev.thread as usize;
                if slot >= self.seg.end {
                    return false; // lane outside the frontier segment
                }
                self.s[slot]
            }
            LaunchId::ForwardPull if kernel == KernelId::FrontierCompact => {
                // Frontier-slot lanes, present only on rebuild levels.
                if !self.compact {
                    return false;
                }
                let slot = self.seg.start + ev.thread as usize;
                if slot >= self.seg.end {
                    return false;
                }
                self.s[slot]
            }
            LaunchId::ForwardPull => {
                if spec.index == IndexExpr::OwnWord {
                    // Word-id lane space: the visited-bitmap scan.
                    let words = (self.g.num_vertices() as u32).div_ceil(32);
                    return ev.thread < words && ev.index == ev.thread;
                }
                // Vertex lane; must have been unvisited when the level
                // began, i.e. its final depth is beyond this level.
                let w = ev.thread;
                if w as usize >= self.g.num_vertices() || self.dist[w as usize] <= self.depth {
                    return false;
                }
                w
            }
        };
        let index_ok = match spec.index {
            IndexExpr::OwnSlot => ev.index as usize == self.seg.start + ev.thread as usize,
            IndexExpr::ReservedSlot => self.next_seg.contains(&(ev.index as usize)),
            IndexExpr::OwnVertex => ev.index == own,
            IndexExpr::NeighborOfOwn => self.g.has_arc(own, ev.index),
            IndexExpr::OwnVertexWord => ev.index == own / bc_core::frontier::VERTICES_PER_WORD,
            IndexExpr::OwnVertexSummaryWord => {
                ev.index == own / bc_core::frontier::VERTICES_PER_SUMMARY_WORD
            }
            IndexExpr::NeighborWord => self.neighbor_in_word(own, ev.index),
            IndexExpr::OwnWord => unreachable!("handled in the pull lane resolution"),
            IndexExpr::QueueTail => ev.index == self.depth + 1,
        };
        index_ok && self.segment_ok(spec, ev, own)
    }

    /// Does the touched cell lie in the segment the spec promises?
    fn segment_ok(&self, spec: &AccessSpec, ev: &TraceEvent, own: u32) -> bool {
        let want_depth = match spec.segment {
            SegmentClass::Any => return true,
            SegmentClass::Current => self.depth,
            SegmentClass::Next => self.depth + 1,
        };
        match ev.array {
            // Vertex-indexed arrays: the cell's BFS depth is its final
            // recorded distance (written once, then stable).
            KernelArray::Dist | KernelArray::Sigma | KernelArray::Delta => {
                self.dist.get(ev.index as usize) == Some(&want_depth)
            }
            // Slot-indexed arrays: segment = slot range.
            KernelArray::QCurr | KernelArray::QNext | KernelArray::Stack => {
                let range = if spec.segment == SegmentClass::Current {
                    &self.seg
                } else {
                    &self.next_seg
                };
                range.contains(&(ev.index as usize))
            }
            // The queue-tail counter cell for depth d+1.
            KernelArray::Ends => ev.index == self.depth + 1,
            // Word-granular bitmaps (leaf and summary): a word spans
            // vertices of mixed depth, so the promise binds the
            // *owning vertex*.
            KernelArray::VisitedBits
            | KernelArray::FrontierBits
            | KernelArray::NextBits
            | KernelArray::SummaryBits => self.dist.get(own as usize) == Some(&want_depth),
        }
    }
}

/// Count events in `level` matching `(array, kind)`.
fn count(level: &LevelTrace, array: KernelArray, kind: AccessKind) -> usize {
    level
        .events
        .iter()
        .filter(|e| e.array == array && e.kind == kind)
        .count()
}

/// Validate one recorded level against its launch's merged specs.
fn check_level(
    ctx: &LevelCtx<'_>,
    level: &LevelTrace,
    hits: &mut HitTable,
    report: &mut ConformanceReport,
    where_: &str,
) {
    let specs: Vec<KernelSpec> = ctx
        .launch
        .kernels()
        .iter()
        .map(|&k| kernel_spec(k))
        .collect();
    for ev in &level.events {
        report.events += 1;
        let mut admitted = false;
        for spec in &specs {
            for a in &spec.accesses {
                if a.array == ev.array && a.kind == ev.kind && ctx.admits(spec.id, a, ev) {
                    hits.hit(spec.id, a);
                    admitted = true;
                }
            }
        }
        if !admitted {
            report.push_error(format!(
                "{where_} depth {} ({}): unadmitted event thread={} {:?} {}[{}]",
                ctx.depth,
                ctx.launch,
                ev.thread,
                ev.kind,
                ev.array.name(),
                ev.index
            ));
        }
    }

    // Aggregate shape checks per launch kind.
    let frontier_edges: usize = ctx.s[ctx.seg.clone()]
        .iter()
        .map(|&v| ctx.g.degree(v) as usize)
        .sum();
    let discovered = ctx.next_seg.len();
    match ctx.launch {
        LaunchId::ForwardPush => {
            let cas = count(level, KernelArray::Dist, AccessKind::AtomicCas);
            if cas != frontier_edges {
                report.push_error(format!(
                    "{where_} depth {}: {} CAS events for {} frontier edges",
                    ctx.depth, cas, frontier_edges
                ));
            }
            let bumps = count(level, KernelArray::Ends, AccessKind::AtomicAdd);
            if bumps != discovered {
                report.push_error(format!(
                    "{where_} depth {}: {} queue-tail bumps for {} discoveries",
                    ctx.depth, bumps, discovered
                ));
            }
            // Reservations must cover the next segment exactly once.
            let mut written: Vec<u32> = level
                .events
                .iter()
                .filter(|e| e.array == KernelArray::QNext && e.kind == AccessKind::Write)
                .map(|e| e.index)
                .collect();
            written.sort_unstable();
            let expect: Vec<u32> = ctx.next_seg.clone().map(|i| i as u32).collect();
            if written != expect {
                report.push_error(format!(
                    "{where_} depth {}: Q_next writes {:?} do not cover segment {:?}",
                    ctx.depth, written, ctx.next_seg
                ));
            }
        }
        LaunchId::ForwardPull => {
            let words = ctx.g.num_vertices().div_ceil(32);
            let scans = count(level, KernelArray::VisitedBits, AccessKind::Read);
            if scans != words {
                report.push_error(format!(
                    "{where_} depth {}: {} visited-word scans for {} words",
                    ctx.depth, scans, words
                ));
            }
            // Frontier compaction: rebuild levels expand Q_curr into
            // the two-level bitmap — one queue read and one atomicOr
            // per bitmap level per frontier vertex. Steady-state pull
            // levels reuse the swapped F_next and run no compact
            // lanes at all.
            let expect_compact = if ctx.compact { ctx.seg.len() } else { 0 };
            for (what, array, kind) in [
                ("Q_curr compact read", KernelArray::QCurr, AccessKind::Read),
                (
                    "F_curr atomicOr",
                    KernelArray::FrontierBits,
                    AccessKind::AtomicOr,
                ),
                (
                    "F_sum atomicOr",
                    KernelArray::SummaryBits,
                    AccessKind::AtomicOr,
                ),
            ] {
                let got = count(level, array, kind);
                if got != expect_compact {
                    report.push_error(format!(
                        "{where_} depth {}: {} {what} events for {} frontier slots",
                        ctx.depth, got, expect_compact
                    ));
                }
            }
            for (what, array, kind) in [
                (
                    "F_next atomicOr",
                    KernelArray::NextBits,
                    AccessKind::AtomicOr,
                ),
                ("d store", KernelArray::Dist, AccessKind::Write),
                ("sigma store", KernelArray::Sigma, AccessKind::Write),
            ] {
                let got = count(level, array, kind);
                if got != discovered {
                    report.push_error(format!(
                        "{where_} depth {}: {} {what} events for {} discoveries",
                        ctx.depth, got, discovered
                    ));
                }
            }
        }
        LaunchId::Backward => {
            // The paper's theorem, checked dynamically once more: the
            // successor sweep emits no atomics at all.
            if level.atomic_events() != 0 {
                report.push_error(format!(
                    "{where_} depth {}: backward level has {} atomic events",
                    ctx.depth,
                    level.atomic_events()
                ));
            }
            // Exactly one δ store per lane, covering the segment.
            let mut stored: Vec<u32> = level
                .events
                .iter()
                .filter(|e| e.array == KernelArray::Delta && e.kind == AccessKind::Write)
                .map(|e| e.index)
                .collect();
            stored.sort_unstable();
            let mut expect: Vec<u32> = ctx.s[ctx.seg.clone()].to_vec();
            expect.sort_unstable();
            if stored != expect {
                report.push_error(format!(
                    "{where_} depth {}: delta stores do not cover the segment exactly once",
                    ctx.depth
                ));
            }
        }
    }
    report.levels += 1;
}

/// Record one root's trace in `mode` and check every level.
fn check_root(
    g: &Csr,
    root: u32,
    mode: TraversalMode,
    hits: &mut HitTable,
    report: &mut ConformanceReport,
    where_: &str,
) {
    let device = DeviceConfig::gtx_titan();
    let (trace, ws) = match mode {
        TraversalMode::Push => record(g, root, &device, FreeModel),
        _ => record(g, root, &device, DirectionOptimizingModel::new(mode)),
    };
    report.runs += 1;

    let mut prev_pull = false;
    for level in &trace.levels {
        let mut compact = false;
        let launch = match level.phase {
            Phase::Backward => LaunchId::Backward,
            Phase::Forward => {
                let metrics = level.metrics.as_ref();
                let metrics = metrics.expect("the engine records every launch");
                let pull = metrics.traversal == MetricTraversal::Pull;
                // The engine rebuilds the compressed frontier exactly
                // when the previous forward level was not pull (or
                // there is no previous level).
                compact = pull && !prev_pull;
                prev_pull = pull;
                if pull {
                    LaunchId::ForwardPull
                } else {
                    LaunchId::ForwardPush
                }
            }
        };
        let ctx = LevelCtx::new(g, &ws, launch, level.depth, compact);
        check_level(&ctx, level, hits, report, where_);
    }
}

/// Record and replay every configured dataset. Each root is traced
/// twice — push-mode and (on symmetric adjacency) forced-pull — so
/// all three launch shapes are exercised.
pub fn check_conformance(opts: &ConformanceOptions) -> ConformanceReport {
    let mut report = ConformanceReport::default();
    let mut hits = HitTable::new();
    for &dataset in &opts.datasets {
        let g = dataset.small_instance(opts.seed);
        let n = g.num_vertices();
        report.datasets += 1;
        for i in 0..opts.roots.max(1) {
            let root = (i * n / opts.roots.max(1)) as u32;
            let where_ = format!("{} root {root} push", dataset.name());
            check_root(
                &g,
                root,
                TraversalMode::Push,
                &mut hits,
                &mut report,
                &where_,
            );
            if g.is_symmetric() {
                let where_ = format!("{} root {root} pull", dataset.name());
                check_root(
                    &g,
                    root,
                    TraversalMode::Pull,
                    &mut hits,
                    &mut report,
                    &where_,
                );
            }
        }
    }
    report.unhit_specs = hits.unhit();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use bc_graph::gen;

    fn one_dataset(d: DatasetId) -> ConformanceOptions {
        ConformanceOptions {
            datasets: vec![d],
            roots: 1,
            seed: 7,
        }
    }

    #[test]
    fn a_dataset_analogue_conforms() {
        let report = check_conformance(&one_dataset(DatasetId::DelaunayN20));
        assert_eq!(report.error_count, 0, "{:?}", report.errors);
        // One dataset can't hit every spec family by itself only if it
        // never pulls; forced-pull runs make coverage total.
        assert!(report.unhit_specs.is_empty(), "{:?}", report.unhit_specs);
        assert!(report.is_clean());
        assert!(report.events > 0 && report.levels > 0);
    }

    #[test]
    fn hand_graphs_conform_too() {
        // Not dataset analogues, but the checker itself is generic.
        let mut report = ConformanceReport::default();
        let mut hits = HitTable::new();
        for g in [gen::path(12), gen::star(9), gen::erdos_renyi(60, 150, 3)] {
            check_root(&g, 0, TraversalMode::Push, &mut hits, &mut report, "hand");
            check_root(&g, 0, TraversalMode::Pull, &mut hits, &mut report, "hand");
        }
        assert_eq!(report.error_count, 0, "{:?}", report.errors);
    }

    #[test]
    fn a_foreign_event_is_rejected() {
        // Inject an access no spec admits into a recorded level and
        // re-check: the checker must flag exactly that event.
        let g = gen::path(8);
        let (mut trace, ws) = record(&g, 0, &DeviceConfig::gtx_titan(), FreeModel);
        // A δ write into another lane's vertex during a backward level
        // — the predecessor-accumulation shape.
        let level = trace
            .levels
            .iter_mut()
            .rev()
            .find(|l| l.phase == Phase::Backward)
            .expect("a path has backward levels");
        let foreign = TraceEvent {
            thread: 0,
            array: KernelArray::Delta,
            index: 0, // the root: never in a backward frontier
            kind: AccessKind::Write,
        };
        level.events.push(foreign);
        let ctx = LevelCtx::new(&g, &ws, LaunchId::Backward, level.depth, false);
        let mut report = ConformanceReport::default();
        let mut hits = HitTable::new();
        check_level(&ctx, level, &mut hits, &mut report, "seeded");
        // The foreign event is unadmitted AND breaks the δ-coverage
        // count.
        assert!(report.error_count >= 2, "{:?}", report.errors);
    }

    /// Check every level of a synthesized trace as a `launch` over the
    /// search state it was synthesized from; returns the violation
    /// count.
    fn check_synthesized(g: &Csr, ws: &SearchWorkspace, trace: &Trace, launch: LaunchId) -> u64 {
        let mut report = ConformanceReport::default();
        let mut hits = HitTable::new();
        for level in &trace.levels {
            let ctx = LevelCtx::new(g, ws, launch, level.depth, false);
            check_level(&ctx, level, &mut hits, &mut report, "planted");
        }
        report.error_count
    }

    #[test]
    fn planted_plain_traces_are_rejected() {
        // The race detector's two planted plain traces, checked against
        // the IR instead: neither conforms. Their atomic variants split.
        // The atomic pull announcement is the engine's own pull kernel
        // and conforms; atomic predecessor-style accumulation (the
        // edge-parallel methods' backward kernel) is not in the IR at
        // all, so conformance rejects it whether or not it races. It
        // tests membership in the IR, not race freedom: only the race
        // detector checks that kernel.
        use crate::trace::{predecessor_accumulation_trace, pull_bitmap_trace};
        for g in [
            gen::grid(8, 8),
            gen::erdos_renyi(200, 600, 9),
            gen::watts_strogatz(150, 6, 0.1, 4),
        ] {
            let (_, ws) = record(&g, 0, &DeviceConfig::gtx_titan(), FreeModel);
            let errors = |synth: crate::mutants::Synth, launch, atomic| {
                check_synthesized(&g, &ws, &synth(&g, &ws, atomic), launch)
            };
            let pred = predecessor_accumulation_trace;
            assert!(errors(pred, LaunchId::Backward, false) > 0);
            assert!(errors(pull_bitmap_trace, LaunchId::ForwardPull, false) > 0);
            assert!(errors(pred, LaunchId::Backward, true) > 0);
            assert_eq!(errors(pull_bitmap_trace, LaunchId::ForwardPull, true), 0);
        }
    }
}
