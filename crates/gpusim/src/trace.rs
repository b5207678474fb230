//! Logical kernel memory-access tracing.
//!
//! The cost models (`bc_core::methods::cost`) *price* the atomics the
//! paper's kernels issue; this module lets the engine *emit* the
//! accesses those atomics protect, so a checker (`bc-verify`) can
//! replay them and prove the pricing assumptions — most importantly
//! that the successor-checking dependency accumulation of Algorithm 3
//! is race-free **without** atomics while a predecessor-style
//! (edge-parallel) accumulation is not.
//!
//! Events are *logical*: one per access a GPU thread would perform on
//! the named per-root kernel arrays, attributed to the lane (thread)
//! that the work-efficient kernel would assign the access to. The
//! engine stays single-threaded; the trace reconstructs the
//! concurrency structure of one simulated kernel launch per level.
//!
//! The engine hands these events to its one observation hook,
//! `bc_core::engine::Observer`; every emission site is guarded by the
//! observer's `ACCESSES` constant, so event construction compiles out
//! of untraced runs.

/// The named per-root arrays of the paper's Algorithms 1–3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelArray {
    /// `d` — BFS distances.
    Dist,
    /// `σ` — shortest-path counts.
    Sigma,
    /// `δ` — dependency accumulators.
    Delta,
    /// `Q_curr` — the current frontier queue.
    QCurr,
    /// `Q_next` — the next frontier queue.
    QNext,
    /// `S` — the level-segmented discovery stack.
    Stack,
    /// `ends` — the stack's level boundaries (its tail doubles as the
    /// `Q_next` length counter the forward kernel bumps atomically).
    Ends,
    /// `visited` — the bottom-up sweep's visited bitmap; indexed by
    /// 32-bit **word**, not by vertex.
    VisitedBits,
    /// `F_curr` — the bottom-up sweep's current-frontier bitmap;
    /// indexed by 32-bit word.
    FrontierBits,
    /// `F_next` — the bottom-up sweep's next-frontier bitmap; indexed
    /// by 32-bit word. Discoveries set bits with `atomicOr`.
    NextBits,
    /// `F_sum` — the compressed frontier's summary level: one bit per
    /// 32 leaf words (1024 vertices), letting empty pull regions skip
    /// in a single probe. Indexed by summary word; set with
    /// `atomicOr` by the frontier-compaction kernel.
    SummaryBits,
}

impl KernelArray {
    /// Every kernel array, in declaration order — spec-coverage
    /// checks (`bc_verify::conformance`) iterate this to prove no array escapes
    /// the static access specifications.
    pub const ALL: [KernelArray; 11] = [
        KernelArray::Dist,
        KernelArray::Sigma,
        KernelArray::Delta,
        KernelArray::QCurr,
        KernelArray::QNext,
        KernelArray::Stack,
        KernelArray::Ends,
        KernelArray::VisitedBits,
        KernelArray::FrontierBits,
        KernelArray::NextBits,
        KernelArray::SummaryBits,
    ];

    /// The paper's name for the array.
    pub fn name(self) -> &'static str {
        match self {
            KernelArray::Dist => "d",
            KernelArray::Sigma => "sigma",
            KernelArray::Delta => "delta",
            KernelArray::QCurr => "Q_curr",
            KernelArray::QNext => "Q_next",
            KernelArray::Stack => "S",
            KernelArray::Ends => "ends",
            KernelArray::VisitedBits => "visited",
            KernelArray::FrontierBits => "F_curr",
            KernelArray::NextBits => "F_next",
            KernelArray::SummaryBits => "F_sum",
        }
    }
}

/// How a logical thread touched one array cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Plain (non-atomic) load.
    Read,
    /// Plain (non-atomic) store.
    Write,
    /// `atomicCAS` — the deduplicating distance update of Algorithm 2.
    AtomicCas,
    /// `atomicAdd` — σ accumulation and queue-tail bumps.
    AtomicAdd,
    /// `atomicOr` — word-granular bitmap sets in the bottom-up sweep.
    AtomicOr,
}

impl AccessKind {
    /// Every access flavor, in declaration order.
    pub const ALL: [AccessKind; 5] = [
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::AtomicCas,
        AccessKind::AtomicAdd,
        AccessKind::AtomicOr,
    ];

    /// Does this access modify the cell?
    pub fn is_write(self) -> bool {
        !matches!(self, AccessKind::Read)
    }

    /// Is this access hardware-synchronized (word-coherent RMW)?
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            AccessKind::AtomicCas | AccessKind::AtomicAdd | AccessKind::AtomicOr
        )
    }
}

/// One logical access by one logical thread.
///
/// `thread` is the lane the work-efficient kernel assigns the access
/// to — the position of the owning vertex (or edge, for synthesized
/// edge-parallel traces) within the level's frontier. Accesses by the
/// same logical thread are ordered by program order; accesses by
/// different threads within one level are concurrent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Logical lane id within the level.
    pub thread: u32,
    /// Which kernel array was touched.
    pub array: KernelArray,
    /// Cell index within the array.
    pub index: u32,
    /// Access flavor.
    pub kind: AccessKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_classification() {
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::AtomicCas.is_write() && AccessKind::AtomicCas.is_atomic());
        assert!(AccessKind::AtomicAdd.is_atomic());
        assert!(AccessKind::AtomicOr.is_write() && AccessKind::AtomicOr.is_atomic());
        assert!(!AccessKind::Write.is_atomic());
        assert!(!AccessKind::Read.is_atomic());
    }

    #[test]
    fn array_names_match_paper() {
        assert_eq!(KernelArray::Dist.name(), "d");
        assert_eq!(KernelArray::Ends.name(), "ends");
        assert_eq!(KernelArray::QNext.name(), "Q_next");
        assert_eq!(KernelArray::VisitedBits.name(), "visited");
        assert_eq!(KernelArray::FrontierBits.name(), "F_curr");
        assert_eq!(KernelArray::NextBits.name(), "F_next");
    }
}
