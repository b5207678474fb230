//! The access-pattern prover: input-independent race-freedom proofs
//! over the symbolic kernel IR.
//!
//! Where the race detector ([`crate::race`]) checks one *recorded*
//! trace — a single graph, a single frontier — this pass
//! abstract-interprets the [`bc_core::kernel_spec`] declarations and
//! quantifies over **all** inputs: any CSR, any frontier, any level.
//! The abstract domain is deliberately tiny — each access is a pair
//! (symbolic [`IndexExpr`], [`SegmentClass`]) — and the interpreter
//! is a pairwise may-alias decision procedure over that domain:
//!
//! * accesses to different arrays never alias;
//! * two lanes' instances of the same index expression are disjoint
//!   when the expression is **injective** — unconditionally for
//!   `OwnSlot`/`OwnWord`, under [`Axiom::DistinctFrontier`] for
//!   `OwnVertex` on frontier-slot lanes, under
//!   [`Axiom::UniqueReservation`] for `ReservedSlot`;
//! * cells in disjoint BFS segments (`Current` vs `Next`) never
//!   alias ([`Axiom::SegmentPartition`]);
//! * anything the rules cannot separate **may alias** — the analysis
//!   is conservative, so a race-freedom verdict is a theorem while a
//!   reported racy pair may in principle be a false positive (none of
//!   the real kernels produce one).
//!
//! A pair races exactly when it may alias and at least one side is a
//! plain (non-atomic) write — the same phase-aware rule the dynamic
//! detector applies per cell, lifted to symbolic cells.
//!
//! On top of the race check the prover derives each kernel's
//! **minimal atomic set** by demotion: demote one declared atomic to
//! a plain write, re-run the proof, and call the atomic *required*
//! iff a race appears. The required set must equal both the declared
//! set and the set the `bc_gpusim` cost models price
//! ([`bc_core::kernel_spec::priced_atomics`]) — any drift between
//! proof, declaration, and pricing fails the gate.

use crate::invariants::Violation;
use bc_core::kernel_spec::{
    kernel_spec, priced_atomics, AccessSpec, Axiom, IndexExpr, KernelId, KernelSpec, LaneKind,
    LaunchId, SegmentClass,
};
use bc_gpusim::trace::{AccessKind, KernelArray};
use std::collections::BTreeSet;

/// The set of kernel specs under analysis — the real declarations by
/// default, possibly rewritten by a seeded mutant.
#[derive(Clone, Debug)]
pub struct SpecSet {
    specs: Vec<KernelSpec>,
}

impl SpecSet {
    /// The engine's real declarations.
    pub fn real() -> SpecSet {
        SpecSet {
            specs: KernelId::ALL.into_iter().map(kernel_spec).collect(),
        }
    }

    /// The spec of one kernel.
    pub fn get(&self, id: KernelId) -> &KernelSpec {
        self.specs
            .iter()
            .find(|s| s.id == id)
            .expect("every kernel has a spec")
    }

    /// Mutable access for mutant injection.
    pub fn get_mut(&mut self, id: KernelId) -> &mut KernelSpec {
        self.specs
            .iter_mut()
            .find(|s| s.id == id)
            .expect("every kernel has a spec")
    }

    /// Does the dedup kernel discharge [`Axiom::DistinctFrontier`]?
    ///
    /// The axiom is a *consequence* of the CAS: `d[w]` leaves `∞`
    /// exactly once, so each vertex enters `Q_next` at most once and
    /// every later frontier/stack segment holds distinct vertices.
    /// Without the CAS (the seeded `dedup-without-cas` mutant) the
    /// exactly-once property is gone and the axiom is unavailable to
    /// every downstream proof.
    pub fn discharges_distinct_frontier(&self) -> bool {
        self.get(KernelId::FrontierDedup)
            .accesses
            .iter()
            .any(|a| a.array == KernelArray::Dist && a.kind == AccessKind::AtomicCas)
    }

    /// Does the dedup kernel discharge [`Axiom::UniqueReservation`]?
    /// Requires the queue-tail `atomicAdd`: each winner receives a
    /// distinct `Q_next` slot index.
    pub fn discharges_unique_reservation(&self) -> bool {
        self.get(KernelId::FrontierDedup).accesses.iter().any(|a| {
            a.array == KernelArray::Ends
                && a.kind == AccessKind::AtomicAdd
                && a.index == IndexExpr::QueueTail
        })
    }
}

/// One access within a launch, tagged with the kernel that declared
/// it and that kernel's lane space (launches may fuse kernels with
/// *different* lane spaces — ForwardPull runs frontier-slot
/// compaction lanes ahead of unvisited-vertex scan lanes).
#[derive(Clone, Copy, Debug)]
struct LaunchAccess {
    kernel: KernelId,
    lane: LaneKind,
    spec: AccessSpec,
}

/// A pair of accesses the prover could not separate, with at least
/// one plain write — a potential race.
#[derive(Clone, Debug)]
pub struct RacyPair {
    /// Kernel and access of the plain-writing side.
    pub writer: (KernelId, AccessSpec),
    /// Kernel and access of the conflicting side (another lane).
    pub other: (KernelId, AccessSpec),
}

impl std::fmt::Display for RacyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} may conflict with {}: {}",
            self.writer.0, self.writer.1, self.other.0, self.other.1
        )
    }
}

/// The proof outcome for one launch shape.
#[derive(Clone, Debug)]
pub struct LaunchProof {
    /// The launch proved (or refuted).
    pub launch: LaunchId,
    /// Pairs that may race — empty means race-free for all inputs.
    pub races: Vec<RacyPair>,
    /// Axioms the disjointness arguments invoked (the proof's trust
    /// base; each must be discharged by the dedup kernel's spec).
    pub axioms_used: BTreeSet<Axiom>,
}

impl LaunchProof {
    /// True when every pair was separated.
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }
}

/// Declared/required/priced atomic-set comparison for one kernel.
#[derive(Clone, Debug)]
pub struct AtomicAudit {
    /// The audited kernel.
    pub kernel: KernelId,
    /// Atomics the spec declares.
    pub declared: Vec<(KernelArray, AccessKind)>,
    /// Atomics the demotion test proves necessary (demoting any one
    /// of them to a plain write introduces a race).
    pub required: Vec<(KernelArray, AccessKind)>,
    /// Atomics the cost models price.
    pub priced: Vec<(KernelArray, AccessKind)>,
}

impl AtomicAudit {
    /// True when all three sets coincide — the minimal atomic set is
    /// exactly what is declared and exactly what is priced.
    pub fn agrees(&self) -> bool {
        self.declared == self.required && self.declared == self.priced
    }
}

/// The whole prover verdict.
#[derive(Clone, Debug)]
pub struct ProverReport {
    /// One proof per launch shape.
    pub launches: Vec<LaunchProof>,
    /// One atomic-set audit per kernel.
    pub audits: Vec<AtomicAudit>,
}

impl ProverReport {
    /// True when every launch is race-free and every kernel's
    /// declared, required, and priced atomic sets coincide.
    pub fn is_clean(&self) -> bool {
        self.launches.iter().all(|l| l.is_race_free()) && self.audits.iter().all(|a| a.agrees())
    }

    /// Every refutation: one `prover.race` per racy pair, one
    /// `prover.atomics` per kernel whose atomic sets disagree.
    pub fn violations(&self) -> Vec<Violation> {
        let races = self.launches.iter().flat_map(|l| {
            let race = move |r| Violation::new("prover.race", format!("{}: {r}", l.launch));
            l.races.iter().map(race)
        });
        let drift = self.audits.iter().filter(|a| !a.agrees()).map(|a| {
            let (declared, required) = (&a.declared, &a.required);
            let detail = format!(
                "{}: declared {declared:?} != required {required:?}",
                a.kernel
            );
            Violation::new("prover.atomics", detail)
        });
        races.chain(drift).collect()
    }
}

/// Facts available to the alias analysis, derived once per spec set.
#[derive(Clone, Copy, Debug)]
struct Axioms {
    distinct_frontier: bool,
    unique_reservation: bool,
}

/// Can accesses `a` (on lane *i*) and `b` (on a different lane *j*)
/// touch the same cell, for some input? Returns `false` only when a
/// sound argument separates them, recording the axiom used.
fn may_alias(
    a: &LaunchAccess,
    b: &LaunchAccess,
    axioms: Axioms,
    used: &mut BTreeSet<Axiom>,
) -> bool {
    let (a, b, lanes) = (&a.spec, &b.spec, (a.lane, b.lane));
    if a.array != b.array {
        return false;
    }
    // Same-expression injectivity: lane i's instance vs lane j's.
    // Only meaningful when both accesses index through the *same*
    // lane space — a frontier slot and an unvisited vertex are
    // unrelated quantities, so cross-space pairs fall through to the
    // segment rule.
    if a.index == b.index && lanes.0 == lanes.1 {
        match a.index {
            // `segment_start + lane` and the word-id lane space are
            // injective by construction.
            IndexExpr::OwnSlot | IndexExpr::OwnWord => return false,
            // Distinct lanes own distinct vertices — trivially when
            // the lane *is* the vertex, by the dedup CAS's
            // exactly-once property when the lane is a frontier slot.
            IndexExpr::OwnVertex => match lanes.0 {
                LaneKind::UnvisitedVertex => return false,
                LaneKind::FrontierSlot => {
                    if axioms.distinct_frontier {
                        used.insert(Axiom::DistinctFrontier);
                        return false;
                    }
                }
            },
            // Queue-tail reservations hand out distinct slots.
            IndexExpr::ReservedSlot => {
                if axioms.unique_reservation {
                    used.insert(Axiom::UniqueReservation);
                    return false;
                }
            }
            // Two lanes may share a neighbor, share a bitmap word
            // (leaf or summary), or (by definition) the single tail
            // counter cell.
            IndexExpr::NeighborOfOwn
            | IndexExpr::NeighborWord
            | IndexExpr::OwnVertexWord
            | IndexExpr::OwnVertexSummaryWord
            | IndexExpr::QueueTail => {}
        }
    }
    // Segment partition: BFS depth is a function, so a cell cannot be
    // in both the current and the next segment.
    if !a.segment.overlaps(b.segment) {
        debug_assert!(a.segment != SegmentClass::Any && b.segment != SegmentClass::Any);
        used.insert(Axiom::SegmentPartition);
        return false;
    }
    // No rule separates the pair: conservatively, it may alias.
    true
}

/// Race-check one launch's merged access list: a pair races iff it
/// may alias and at least one side writes non-atomically (the dynamic
/// detector's rule, lifted to symbolic cells).
fn check_launch(launch: LaunchId, accesses: &[LaunchAccess], axioms: Axioms) -> LaunchProof {
    let mut races = Vec::new();
    let mut used = BTreeSet::new();
    for (i, a) in accesses.iter().enumerate() {
        // Self-pairs included: the same program access executed by
        // two different lanes.
        for b in &accesses[i..] {
            let plain_writer = if a.spec.kind == AccessKind::Write {
                Some((a, b))
            } else if b.spec.kind == AccessKind::Write {
                Some((b, a))
            } else {
                None
            };
            let Some((w, o)) = plain_writer else {
                continue; // reads and atomics never race together
            };
            if may_alias(a, b, axioms, &mut used) {
                races.push(RacyPair {
                    writer: (w.kernel, w.spec),
                    other: (o.kernel, o.spec),
                });
            }
        }
    }
    LaunchProof {
        launch,
        races,
        axioms_used: used,
    }
}

/// The merged access list of one launch under `specs`, tagged by
/// kernel and lane space. Fused kernels may share one lane space
/// (ForwardPush) or bring their own (ForwardPull's compaction runs
/// frontier-slot lanes ahead of the scan's unvisited-vertex lanes).
fn launch_accesses(specs: &SpecSet, launch: LaunchId) -> Vec<LaunchAccess> {
    let mut accesses = Vec::new();
    for &k in launch.kernels() {
        let spec = specs.get(k);
        for &a in &spec.accesses {
            accesses.push(LaunchAccess {
                kernel: k,
                lane: spec.lane,
                spec: a,
            });
        }
    }
    accesses
}

/// Prove (or refute) race-freedom of every launch under `specs`, and
/// audit each kernel's atomic set by demotion.
pub fn prove(specs: &SpecSet) -> ProverReport {
    let axioms = Axioms {
        distinct_frontier: specs.discharges_distinct_frontier(),
        unique_reservation: specs.discharges_unique_reservation(),
    };

    let launches: Vec<LaunchProof> = LaunchId::ALL
        .into_iter()
        .map(|l| check_launch(l, &launch_accesses(specs, l), axioms))
        .collect();

    // Demotion test: an atomic is *required* iff replacing it with a
    // plain write makes its launch racy. Axioms stay discharged from
    // the declared specs — the question is whether the operation
    // needs hardware synchronization, not a re-derivation of the
    // frontier properties.
    let mut audits = Vec::new();
    for id in KernelId::ALL {
        let launch = LaunchId::ALL
            .into_iter()
            .find(|l| l.kernels().contains(&id))
            .expect("every kernel belongs to a launch");
        let mut required = Vec::new();
        for (pos, access) in specs.get(id).accesses.iter().enumerate() {
            if !access.kind.is_atomic() {
                continue;
            }
            let mut demoted = specs.clone();
            demoted.get_mut(id).accesses[pos].kind = AccessKind::Write;
            if !check_launch(launch, &launch_accesses(&demoted, launch), axioms).is_race_free() {
                required.push((access.array, access.kind));
            }
        }
        required.sort();
        required.dedup();
        let mut declared = specs.get(id).declared_atomics();
        declared.sort();
        declared.dedup();
        let mut priced = priced_atomics(id);
        priced.sort();
        audits.push(AtomicAudit {
            kernel: id,
            declared,
            required,
            priced,
        });
    }

    ProverReport { launches, audits }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_specs_prove_race_free() {
        let report = prove(&SpecSet::real());
        for l in &report.launches {
            assert!(
                l.is_race_free(),
                "{:?}: {:?}",
                l.launch,
                l.races.iter().map(|r| r.to_string()).collect::<Vec<_>>()
            );
        }
        assert!(report.is_clean());
    }

    #[test]
    fn backward_proof_leans_on_both_structural_axioms() {
        let report = prove(&SpecSet::real());
        let backward = report
            .launches
            .iter()
            .find(|l| l.launch == LaunchId::Backward)
            .unwrap();
        // δ[w] self-pairs need distinct frontiers; the successor
        // reads need the segment partition.
        assert!(backward.axioms_used.contains(&Axiom::DistinctFrontier));
        assert!(backward.axioms_used.contains(&Axiom::SegmentPartition));
    }

    #[test]
    fn pull_proof_needs_no_frontier_axiom() {
        let report = prove(&SpecSet::real());
        let pull = report
            .launches
            .iter()
            .find(|l| l.launch == LaunchId::ForwardPull)
            .unwrap();
        assert!(pull.is_race_free());
        // Lane = vertex, so OwnVertex injectivity is definitional.
        assert!(!pull.axioms_used.contains(&Axiom::DistinctFrontier));
    }

    #[test]
    fn every_declared_atomic_is_required_and_priced() {
        let report = prove(&SpecSet::real());
        for audit in &report.audits {
            assert!(
                audit.agrees(),
                "{}: declared {:?} required {:?} priced {:?}",
                audit.kernel,
                audit.declared,
                audit.required,
                audit.priced
            );
        }
        let backward = report
            .audits
            .iter()
            .find(|a| a.kernel == KernelId::BackwardSweep)
            .unwrap();
        assert!(
            backward.required.is_empty(),
            "the paper's claim: the successor sweep needs no atomics"
        );
    }

    #[test]
    fn gratuitous_atomic_is_flagged_as_unrequired() {
        // Declare an atomic the kernel doesn't need: stack reads done
        // via a (pointless) atomicAdd on the lane's own slot. The
        // demotion test proves it unnecessary (OwnSlot is injective,
        // so the demoted plain write still cannot race), so declared
        // != required and the audit fails — over-synchronization is
        // drift too.
        let mut specs = SpecSet::real();
        let sweep = specs.get_mut(KernelId::BackwardSweep);
        let pos = sweep
            .accesses
            .iter()
            .position(|a| a.array == KernelArray::Stack)
            .unwrap();
        sweep.accesses[pos].kind = AccessKind::AtomicAdd;
        let report = prove(&specs);
        let audit = report
            .audits
            .iter()
            .find(|a| a.kernel == KernelId::BackwardSweep)
            .unwrap();
        assert!(
            audit.required.is_empty(),
            "demoting the pointless atomic must not introduce a race"
        );
        assert!(!audit.agrees());
        assert!(!report.is_clean());
    }
}
