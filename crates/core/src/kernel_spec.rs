//! Symbolic access specifications for the engine's simulated kernels
//! (the kernel IR).
//!
//! The trace layer ([`bc_gpusim::trace`]) records what one *run* did;
//! this module declares what every run **may** do: each simulated
//! kernel of [`crate::engine`] — frontier dedup, push forward,
//! frontier compaction, pull forward, backward sweep — is described
//! as a set of
//! [`AccessSpec`]s, each naming an array, an access flavor, a
//! symbolic [`IndexExpr`] over the executing lane, and the BFS
//! [`SegmentClass`] the touched cell is guaranteed to lie in.
//!
//! The specs are pure data. `bc-analyze` consumes them twice:
//!
//! * its **prover** abstract-interprets the index expressions to show
//!   that no plain write can collide with any other lane's access on
//!   *any* CSR and *any* frontier — turning the paper's "the
//!   successor-based dependency accumulation needs no atomics" from a
//!   per-run observation (the PR 2 race detector) into a theorem —
//!   and derives the minimal atomic set each kernel needs, which must
//!   equal the set [`priced_atomics`] declares (what the
//!   `bc_core::methods::cost` models actually charge);
//! * its **conformance pass** replays recorded traces against the
//!   specs, so the IR can never silently drift from the engine: every
//!   emitted event must be admitted by some spec, and every spec must
//!   be exercised by some event.
//!
//! The one non-local fact the proofs lean on is also declared here:
//! the dedup kernel's `atomicCAS` admits each vertex into `Q_next` at
//! most once, which is what makes "frontier vertices are pairwise
//! distinct" ([`Axiom::DistinctFrontier`]) available to every later
//! launch.

use crate::engine::Phase;
use bc_gpusim::trace::{AccessKind, KernelArray};

/// The five simulated kernels the engine launches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelId {
    /// Algorithm 2's deduplicating discovery: per inspected edge, an
    /// `atomicCAS` on `d`, then (for the winner) a queue-tail
    /// `atomicAdd` on `ends` and a store into the claimed `Q_next`
    /// slot.
    FrontierDedup,
    /// Algorithm 2's σ accumulation: the plain `d[w] == d[v]+1` check
    /// and the `atomicAdd(σ[w], σ[v])` of the same launch.
    PushForward,
    /// The compressed-frontier compaction that precedes a pull level
    /// after a direction switch: each `Q_curr` slot scatters its
    /// vertex into the hierarchical frontier bitmap — the leaf word
    /// (`F_curr`) and the 1024-vertex summary word (`F_sum`) — with
    /// word-granular `atomicOr`s. Steady-state pull levels skip it
    /// (the previous level's `F_next` is swapped in instead).
    FrontierCompact,
    /// The bottom-up (pull) forward sweep: unvisited vertices scan
    /// their own adjacency against the frontier bitmap; the owner
    /// alone writes its `d`/`σ`, announcing with one `atomicOr`.
    PullForward,
    /// Algorithm 3's successor-based dependency accumulation — the
    /// paper's atomic-free kernel.
    BackwardSweep,
}

impl KernelId {
    /// Every kernel, in launch order within one root.
    pub const ALL: [KernelId; 5] = [
        KernelId::FrontierDedup,
        KernelId::PushForward,
        KernelId::FrontierCompact,
        KernelId::PullForward,
        KernelId::BackwardSweep,
    ];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::FrontierDedup => "frontier-dedup",
            KernelId::PushForward => "push-forward",
            KernelId::FrontierCompact => "frontier-compact",
            KernelId::PullForward => "pull-forward",
            KernelId::BackwardSweep => "backward-sweep",
        }
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a logical lane id means within a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaneKind {
    /// The lane is a position within the level's frontier segment
    /// (push forward, frontier dedup, backward sweep); the lane's
    /// *vertex* is `S[segment_start + lane]`.
    FrontierSlot,
    /// The lane *is* a vertex id — one lane per still-unvisited
    /// vertex (pull forward). [`IndexExpr::OwnWord`] accesses within
    /// such a kernel use a separate word-id lane space (the
    /// visited-bitmap scan); they are read-only by construction.
    UnvisitedVertex,
}

/// Symbolic index of one access, as a function of the executing lane.
///
/// This is the expression language of the IR: every index the engine
/// emits is one of these shapes, and the prover's alias analysis is a
/// pairwise decision procedure over them (see `bc-analyze`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexExpr {
    /// `segment_start + lane` — the lane's own queue/stack slot.
    /// Injective across lanes unconditionally.
    OwnSlot,
    /// A slot in the *next* queue segment claimed by an earlier
    /// queue-tail `atomicAdd`. Injective given
    /// [`Axiom::UniqueReservation`].
    ReservedSlot,
    /// The lane's own vertex. Injective given
    /// [`Axiom::DistinctFrontier`] (trivially injective for
    /// [`LaneKind::UnvisitedVertex`], where the lane *is* the
    /// vertex).
    OwnVertex,
    /// Any CSR neighbor of the lane's vertex. **Not** injective: two
    /// lanes may share a neighbor — this is exactly where atomics
    /// become necessary.
    NeighborOfOwn,
    /// `own_vertex / 32` — the lane's bitmap word. Not injective
    /// (vertices share words).
    OwnVertexWord,
    /// `own_vertex / 1024` — the lane's summary word in the
    /// compressed frontier's upper level (one bit covers 32 leaf
    /// words). Even less injective than [`IndexExpr::OwnVertexWord`]:
    /// 1024 vertices share a summary word.
    OwnVertexSummaryWord,
    /// `neighbor / 32` for any CSR neighbor. Not injective.
    NeighborWord,
    /// The lane *is* a bitmap word id and touches exactly that word
    /// (the pull kernel's visited-bitmap scan). Injective.
    OwnWord,
    /// The single shared queue-tail counter cell (`ends[depth + 1]`).
    /// Every lane targets the *same* cell.
    QueueTail,
}

/// Which BFS segment the touched cell is guaranteed to lie in, at the
/// granularity the array is indexed by.
///
/// For vertex-indexed arrays (`d`, `σ`, `δ`) the class constrains the
/// cell's BFS depth (`Current` = the level being processed, `Next` =
/// one deeper); for slot-indexed arrays (`Q_curr`/`Q_next`/`S`) it
/// constrains the queue segment the slot lies in. Since BFS depth is
/// a function (each vertex has exactly one depth, each slot lies in
/// exactly one segment), `Current` and `Next` cells are disjoint —
/// the [`Axiom::SegmentPartition`] the prover leans on for the
/// backward sweep's atomic-free proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegmentClass {
    /// The cell belongs to the level being processed (depth `d`).
    Current,
    /// The cell belongs to the next level (depth `d + 1`).
    Next,
    /// No segment guarantee (e.g. a CAS probing arbitrary neighbors).
    Any,
}

impl SegmentClass {
    /// Can cells of `self` and `other` coincide?
    pub fn overlaps(self, other: SegmentClass) -> bool {
        self == SegmentClass::Any || other == SegmentClass::Any || self == other
    }
}

/// One declared access: array, flavor, symbolic index, segment class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AccessSpec {
    /// The kernel array touched.
    pub array: KernelArray,
    /// Read, plain write, or one of the atomics.
    pub kind: AccessKind,
    /// Symbolic cell index as a function of the lane.
    pub index: IndexExpr,
    /// Segment guarantee on the touched cell.
    pub segment: SegmentClass,
}

impl AccessSpec {
    const fn new(
        array: KernelArray,
        kind: AccessKind,
        index: IndexExpr,
        segment: SegmentClass,
    ) -> AccessSpec {
        AccessSpec {
            array,
            kind,
            index,
            segment,
        }
    }
}

impl std::fmt::Display for AccessSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} {}[{:?}@{:?}]",
            self.kind,
            self.array.name(),
            self.index,
            self.segment
        )
    }
}

/// The full declaration of one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelSpec {
    /// Which kernel this declares.
    pub id: KernelId,
    /// What a lane id means.
    pub lane: LaneKind,
    /// Every access a lane may perform, in program order.
    pub accesses: Vec<AccessSpec>,
}

impl KernelSpec {
    /// The declared atomic accesses, as `(array, kind)` pairs.
    pub fn declared_atomics(&self) -> Vec<(KernelArray, AccessKind)> {
        self.accesses
            .iter()
            .filter(|a| a.kind.is_atomic())
            .map(|a| (a.array, a.kind))
            .collect()
    }
}

use AccessKind::{AtomicAdd, AtomicCas, AtomicOr, Read, Write};
use IndexExpr::{
    NeighborOfOwn, NeighborWord, OwnSlot, OwnVertex, OwnVertexSummaryWord, OwnVertexWord, OwnWord,
    QueueTail, ReservedSlot,
};
use SegmentClass::{Any, Current, Next};

/// The spec of one kernel — the IR the engine's emission sites are
/// held to (`bc-analyze`'s conformance pass) and proved safe from
/// (its prover).
pub fn kernel_spec(id: KernelId) -> KernelSpec {
    let (lane, accesses) = match id {
        // Lane = frontier slot. Per edge: CAS-dedup on d; winners bump
        // the queue tail and store into the claimed Q_next slot.
        KernelId::FrontierDedup => (
            LaneKind::FrontierSlot,
            vec![
                AccessSpec::new(KernelArray::QCurr, Read, OwnSlot, Current),
                AccessSpec::new(KernelArray::Dist, AtomicCas, NeighborOfOwn, Any),
                AccessSpec::new(KernelArray::Ends, AtomicAdd, QueueTail, Next),
                AccessSpec::new(KernelArray::QNext, Write, ReservedSlot, Next),
            ],
        ),
        // Lane = frontier slot. The plain d check and the σ
        // accumulation of the same launch.
        KernelId::PushForward => (
            LaneKind::FrontierSlot,
            vec![
                AccessSpec::new(KernelArray::Dist, Read, NeighborOfOwn, Any),
                AccessSpec::new(KernelArray::Sigma, Read, OwnVertex, Current),
                AccessSpec::new(KernelArray::Sigma, AtomicAdd, NeighborOfOwn, Next),
            ],
        ),
        // Lane = frontier slot. On a push→pull switch the sparse
        // Q_curr is expanded into the hierarchical frontier bitmap:
        // each lane reads its own queue slot and atomicOrs its
        // vertex's leaf and summary bits. Both targets are
        // word-shared (many frontier vertices per word), which is
        // exactly why both stores are atomic. A grid-wide sync
        // separates this compaction from the pull scan consuming the
        // bitmap within the same fused launch.
        KernelId::FrontierCompact => (
            LaneKind::FrontierSlot,
            vec![
                AccessSpec::new(KernelArray::QCurr, Read, OwnSlot, Current),
                AccessSpec::new(KernelArray::FrontierBits, AtomicOr, OwnVertexWord, Current),
                AccessSpec::new(
                    KernelArray::SummaryBits,
                    AtomicOr,
                    OwnVertexSummaryWord,
                    Current,
                ),
            ],
        ),
        // Lane = unvisited vertex (plus read-only word-id lanes for
        // the visited-bitmap scan). Discovery writes are owner-only;
        // the single shared-cell write is the word-granular atomicOr.
        KernelId::PullForward => (
            LaneKind::UnvisitedVertex,
            vec![
                AccessSpec::new(KernelArray::VisitedBits, Read, OwnWord, Any),
                AccessSpec::new(KernelArray::FrontierBits, Read, NeighborWord, Any),
                AccessSpec::new(KernelArray::Sigma, Read, NeighborOfOwn, Current),
                AccessSpec::new(KernelArray::Dist, Write, OwnVertex, Next),
                AccessSpec::new(KernelArray::Sigma, Write, OwnVertex, Next),
                AccessSpec::new(KernelArray::NextBits, AtomicOr, OwnVertexWord, Next),
            ],
        ),
        // Lane = stack slot of segment d. Successor reads live one
        // segment deeper than the lane's own δ store — the
        // segment-disjointness that makes the sweep atomic-free.
        KernelId::BackwardSweep => (
            LaneKind::FrontierSlot,
            vec![
                AccessSpec::new(KernelArray::Stack, Read, OwnSlot, Current),
                AccessSpec::new(KernelArray::Sigma, Read, OwnVertex, Current),
                AccessSpec::new(KernelArray::Dist, Read, NeighborOfOwn, Any),
                AccessSpec::new(KernelArray::Sigma, Read, NeighborOfOwn, Next),
                AccessSpec::new(KernelArray::Delta, Read, NeighborOfOwn, Next),
                AccessSpec::new(KernelArray::Delta, Write, OwnVertex, Current),
            ],
        ),
    };
    KernelSpec { id, lane, accesses }
}

/// All kernel specs, in [`KernelId::ALL`] order.
pub fn kernel_specs() -> Vec<KernelSpec> {
    KernelId::ALL.into_iter().map(kernel_spec).collect()
}

/// One simulated kernel *launch* — the unit the race model quantifies
/// over (everything within a launch is concurrent; launches are
/// separated by device-wide barriers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LaunchId {
    /// A top-down forward level: [`KernelId::FrontierDedup`] and
    /// [`KernelId::PushForward`] execute fused in one launch.
    ForwardPush,
    /// A bottom-up forward level: [`KernelId::FrontierCompact`] (on
    /// rebuild levels) fused ahead of [`KernelId::PullForward`].
    ForwardPull,
    /// A dependency-accumulation level: [`KernelId::BackwardSweep`].
    Backward,
}

impl LaunchId {
    /// Every launch shape.
    pub const ALL: [LaunchId; 3] = [
        LaunchId::ForwardPush,
        LaunchId::ForwardPull,
        LaunchId::Backward,
    ];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            LaunchId::ForwardPush => "forward-push",
            LaunchId::ForwardPull => "forward-pull",
            LaunchId::Backward => "backward",
        }
    }

    /// The kernels fused into this launch.
    pub fn kernels(self) -> &'static [KernelId] {
        match self {
            LaunchId::ForwardPush => &[KernelId::FrontierDedup, KernelId::PushForward],
            LaunchId::ForwardPull => &[KernelId::FrontierCompact, KernelId::PullForward],
            LaunchId::Backward => &[KernelId::BackwardSweep],
        }
    }

    /// The engine phase whose levels this launch shape produces.
    pub fn phase(self) -> Phase {
        match self {
            LaunchId::ForwardPush | LaunchId::ForwardPull => Phase::Forward,
            LaunchId::Backward => Phase::Backward,
        }
    }
}

impl std::fmt::Display for LaunchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The atomic set the cost models price for one kernel
/// (`bc_core::methods::cost`): the dedup CAS and queue-tail add, the
/// σ atomicAdd, the pull discovery's atomicOr — and, pointedly,
/// **nothing** for the backward sweep. `bc-analyze` requires its
/// independently derived minimal atomic set to equal this, so the
/// prover, the specs, and the pricing can never drift apart.
pub fn priced_atomics(id: KernelId) -> Vec<(KernelArray, AccessKind)> {
    match id {
        KernelId::FrontierDedup => vec![
            (KernelArray::Dist, AtomicCas),
            (KernelArray::Ends, AtomicAdd),
        ],
        KernelId::PushForward => vec![(KernelArray::Sigma, AtomicAdd)],
        KernelId::FrontierCompact => vec![
            (KernelArray::FrontierBits, AtomicOr),
            (KernelArray::SummaryBits, AtomicOr),
        ],
        KernelId::PullForward => vec![(KernelArray::NextBits, AtomicOr)],
        KernelId::BackwardSweep => Vec::new(),
    }
}

/// Axioms (established facts) a disjointness proof may invoke. The
/// prover reports which it used, so every proof's trust base is
/// explicit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Axiom {
    /// Each level's frontier/stack segment holds pairwise distinct
    /// vertices — discharged by [`KernelId::FrontierDedup`]'s CAS
    /// (each `d` cell leaves `∞` at most once, so each vertex is
    /// enqueued at most once).
    DistinctFrontier,
    /// BFS depth is a function: a vertex (or stack slot) belongs to
    /// exactly one segment, so `Current` and `Next` cells are
    /// disjoint.
    SegmentPartition,
    /// Queue-tail `atomicAdd` reservations return pairwise distinct
    /// `Q_next` slots.
    UniqueReservation,
}

impl Axiom {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Axiom::DistinctFrontier => "distinct-frontier",
            Axiom::SegmentPartition => "segment-partition",
            Axiom::UniqueReservation => "unique-reservation",
        }
    }
}

impl std::fmt::Display for Axiom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_has_a_spec_with_accesses() {
        for id in KernelId::ALL {
            let spec = kernel_spec(id);
            assert_eq!(spec.id, id);
            assert!(!spec.accesses.is_empty(), "{id}");
            assert_eq!(KernelId::ALL.iter().filter(|k| **k == id).count(), 1);
        }
    }

    #[test]
    fn declared_atomics_match_priced_atomics() {
        // The declaration-level sanity half of the prover's check:
        // what each spec marks atomic is exactly what pricing charges.
        for id in KernelId::ALL {
            let mut declared = kernel_spec(id).declared_atomics();
            let mut priced = priced_atomics(id);
            declared.sort();
            declared.dedup();
            priced.sort();
            assert_eq!(declared, priced, "{id}");
        }
    }

    #[test]
    fn backward_sweep_declares_no_atomics() {
        let spec = kernel_spec(KernelId::BackwardSweep);
        assert!(spec.accesses.iter().all(|a| !a.kind.is_atomic()));
        assert!(priced_atomics(KernelId::BackwardSweep).is_empty());
    }

    #[test]
    fn launches_cover_all_kernels_exactly_once() {
        let mut seen: Vec<KernelId> = LaunchId::ALL
            .iter()
            .flat_map(|l| l.kernels().iter().copied())
            .collect();
        seen.sort();
        let mut all = KernelId::ALL.to_vec();
        all.sort();
        assert_eq!(seen, all);
        assert_eq!(LaunchId::ForwardPush.phase(), Phase::Forward);
        assert_eq!(LaunchId::Backward.phase(), Phase::Backward);
    }

    #[test]
    fn segment_overlap_table() {
        assert!(Any.overlaps(Current) && Current.overlaps(Any));
        assert!(Current.overlaps(Current));
        assert!(!Current.overlaps(Next));
        assert!(!Next.overlaps(Current));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(KernelId::BackwardSweep.name(), "backward-sweep");
        assert_eq!(KernelId::FrontierCompact.name(), "frontier-compact");
        assert_eq!(LaunchId::ForwardPull.to_string(), "forward-pull");
        assert_eq!(Axiom::DistinctFrontier.to_string(), "distinct-frontier");
    }
}
