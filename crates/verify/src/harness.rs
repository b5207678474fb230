//! The differential-equivalence harness: one shape for every claim
//! that a feature is invisible in the scores.
//!
//! Faults, dynamic schedules, degree relabeling, kill-and-resume and
//! serving with live edits must each leave every output bit where it
//! was. Each of them is a [`Transform`]: at one point of the axis
//! [`matrix`] (schedule × traversal × host threads or cluster width)
//! it produces a baseline output and, per case, a transformed output,
//! both as [`Keyed`] `f64` values (vertex scores, or serve answers
//! keyed by request id). [`check`] walks the matrix and holds every
//! transformed output to its baseline through one bitwise oracle,
//! [`diverge`], after [`check_scores`] has passed the baseline itself
//! (an all-NaN baseline matches itself bit for bit and proves
//! nothing). A point at which the transform reports doing nothing —
//! no fault injected, no vertex moved, no root resumed, no cache hit —
//! is flagged for the same reason.
//!
//! Seeded defects ride on the same path. [`check`] flips one ULP of
//! the first transformed output that matched its baseline and requires
//! the oracle to report exactly that key, one ULP apart; and a
//! transform's seeded bugs ([`crate::mutants`]) are cases the harness
//! must flag with a named check.

use crate::invariants::{check_scores, Violation};
use bc_core::{BcOptions, Schedule, TraversalMode};
use bc_graph::{Csr, VertexId};
use std::cmp::Ordering;
use std::fmt;

/// Where one compared value lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// A vertex's score.
    Vertex(VertexId),
    /// Request id, answer kind (`top-k`, `per-vertex`, `subgraph`),
    /// rank within the answer, and the vertex the entry names, if any.
    Answer(u64, &'static str, u32, Option<VertexId>),
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Vertex(v) => write!(f, "vertex {v}"),
            Key::Answer(id, kind, rank, None) => write!(f, "request {id} {kind}[{rank}]"),
            Key::Answer(id, kind, rank, Some(v)) => {
                write!(f, "request {id} {kind}[{rank}] = vertex {v}")
            }
        }
    }
}

/// A transform's output: values in ascending key order.
pub type Keyed = Vec<(Key, f64)>;

/// Key a score vector by vertex.
pub fn vertex_keyed(scores: &[f64]) -> Keyed {
    let keys = (0..scores.len() as VertexId).map(Key::Vertex);
    keys.zip(scores.iter().copied()).collect()
}

/// One point of the axis matrix.
#[derive(Clone, Copy, Debug)]
pub struct Axis {
    /// Root-to-worker schedule.
    pub schedule: Schedule,
    /// Forward-sweep direction.
    pub traversal: TraversalMode,
    /// Host threads, or cluster width in nodes, as the transform reads it.
    pub width: usize,
}

impl Axis {
    /// The point (`schedule`, `traversal`, `width`).
    pub const fn new(schedule: Schedule, traversal: TraversalMode, width: usize) -> Self {
        Axis {
            schedule,
            traversal,
            width,
        }
    }

    /// `opts` run at this point: its schedule, traversal, and `width`
    /// host threads.
    pub fn options(self, opts: &BcOptions) -> BcOptions {
        BcOptions {
            schedule: self.schedule,
            traversal: self.traversal,
            threads: self.width,
            ..opts.clone()
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (schedule, traversal) = (self.schedule.name(), self.traversal.name());
        write!(f, "{schedule}/{traversal}/{}", self.width)
    }
}

/// The axis matrix: every schedule × every traversal `g` supports ×
/// `widths`, schedules outermost. Pull and auto read reverse arcs, so
/// a directed graph keeps push only.
pub fn matrix(g: &Csr, widths: &[usize]) -> Vec<Axis> {
    use TraversalMode::{Auto, Pull, Push};
    let traversals = if g.is_symmetric() {
        vec![Push, Pull, Auto]
    } else {
        vec![Push]
    };
    let mut out = Vec::new();
    for schedule in Schedule::ALL {
        for &traversal in &traversals {
            out.extend(widths.iter().map(|&w| Axis::new(schedule, traversal, w)));
        }
    }
    out
}

/// What one transformed run produced.
pub struct Transformed {
    /// The output held to the baseline.
    pub output: Keyed,
    /// How much the transform did (see [`Transform::EXERCISED`]).
    pub exercised: u64,
    /// Violations of the transform's own extra checks.
    pub extra: Vec<Violation>,
}

impl Transformed {
    /// `output` with no extra-check violations.
    pub fn new(output: Keyed, exercised: u64) -> Self {
        let extra = Vec::new();
        Self {
            output,
            exercised,
            extra,
        }
    }
}

/// A feature that must be invisible in the output.
pub trait Transform {
    /// One variant of the transform (a fault plan, a kill point, …).
    type Case: Clone;
    /// What the baseline leaves for the extra checks.
    type Base;
    /// Name in reports.
    const NAME: &'static str;
    /// Unit of [`Transformed::exercised`], for reports.
    const EXERCISED: &'static str;
    /// The untransformed output at `at`.
    fn baseline(&self, at: Axis) -> Result<(Keyed, Self::Base), String>;
    /// The output at `at` with `case` applied.
    fn transformed(
        &self,
        at: Axis,
        case: &Self::Case,
        base: &Self::Base,
    ) -> Result<Transformed, Violation>;
}

/// The oracle's finding: the first key at which two outputs differ.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// First differing key.
    pub key: Key,
    /// The baseline's value there (`None`: the key is extra).
    pub baseline: Option<f64>,
    /// The transformed value there (`None`: the key is missing).
    pub transformed: Option<f64>,
    /// ULP distance between the two values, when both exist.
    pub ulps: Option<u64>,
    /// Number of keys that differ or appear on one side only.
    pub differing: usize,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |x: Option<f64>| {
            x.map_or("absent".into(), |x| {
                format!("{x:?} ({:#018x})", x.to_bits())
            })
        };
        let (key, a, b) = (self.key, show(self.baseline), show(self.transformed));
        let ulps = self.ulps.map_or("-".into(), |u| u.to_string());
        write!(
            f,
            "first divergence at {key}: baseline {a}, transformed {b}, {ulps} ULP apart; "
        )?;
        write!(f, "{} differ", self.differing)
    }
}

/// Distance in representable doubles (`-0.0` and `0.0` are 0 apart).
fn ulps(a: f64, b: f64) -> u64 {
    let ordered = |x: f64| {
        let i = x.to_bits() as i64;
        i128::from(if i < 0 { i64::MIN - i } else { i })
    };
    (ordered(a) - ordered(b)).unsigned_abs() as u64
}

/// The bitwise oracle: walk two key-ordered outputs together and
/// report the first key whose value bits differ or which only one
/// side has, with the count of all such keys.
pub fn diverge(baseline: &Keyed, transformed: &Keyed) -> Option<Divergence> {
    let (mut a, mut b) = (baseline.iter().peekable(), transformed.iter().peekable());
    let (mut first, mut differing) = (None, 0);
    loop {
        let order = match (a.peek(), b.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => x.0.cmp(&y.0),
        };
        let (x, y) = match order {
            Ordering::Less => (a.next(), None),
            Ordering::Greater => (None, b.next()),
            Ordering::Equal => (a.next(), b.next()),
        };
        let key = x.or(y).expect("one side has an entry").0;
        let (x, y) = (x.map(|e| e.1), y.map(|e| e.1));
        if x.map(f64::to_bits) != y.map(f64::to_bits) {
            differing += 1;
            first.get_or_insert(Divergence {
                key,
                baseline: x,
                transformed: y,
                ulps: x.zip(y).map(|(x, y)| ulps(x, y)),
                differing: 0,
            });
        }
    }
    first.map(|d| Divergence { differing, ..d })
}

/// What [`check`] covered and found.
#[derive(Debug, Default)]
pub struct Report {
    /// Transformed runs compared (points × cases).
    pub cases: usize,
    /// Axis points covered.
    pub points: usize,
    /// Total reported by the transform, in [`Transform::EXERCISED`] units.
    pub exercised: u64,
    /// Everything that failed.
    pub violations: Vec<Violation>,
    /// The oracle's one-ULP self-test on the first output that matched
    /// its baseline.
    pub flip: Option<Divergence>,
}

/// Run every case of `t` at every one of `points` and hold each
/// transformed output to its point's baseline bitwise.
pub fn check<T: Transform>(t: &T, points: &[Axis], cases: &[(&str, T::Case)]) -> Report {
    let mut report = Report::default();
    for &at in points {
        report.points += 1;
        let point = format!("{} {at}", T::NAME);
        let out = &mut report.violations;
        let (reference, base) = match t.baseline(at) {
            Ok(b) => b,
            Err(e) => {
                let detail = format!("[{point}] {e}");
                out.push(Violation::new("equiv.baseline_runs", detail));
                continue;
            }
        };
        let values: Vec<f64> = reference.iter().map(|e| e.1).collect();
        let bad = check_scores(&values);
        if let Some(v) = bad.first() {
            let (n, total) = (bad.len(), values.len());
            let detail = format!("[{point} baseline] {} ({n} of {total} values)", v.detail);
            out.push(Violation::new(v.check, detail));
            continue;
        }
        let (before, mut exercised) = (out.len(), 0);
        for (label, case) in cases {
            let tag =
                |v: Violation| Violation::new(v.check, format!("[{point} {label}] {}", v.detail));
            report.cases += 1;
            let run = match t.transformed(at, case, &base) {
                Ok(run) => run,
                Err(v) => {
                    out.push(tag(v));
                    continue;
                }
            };
            exercised += run.exercised;
            match diverge(&reference, &run.output) {
                Some(d) => out.push(tag(Violation::new("equiv.bitwise", d.to_string()))),
                None if report.flip.is_none() => match flip_one_ulp(&reference, run.output) {
                    Ok(d) => report.flip = Some(d),
                    Err(detail) => out.push(tag(Violation::new("equiv.ulp_flip", detail))),
                },
                None => {}
            }
            out.extend(run.extra.into_iter().map(tag));
        }
        report.exercised += exercised;
        if out.len() == before && exercised == 0 && !cases.is_empty() {
            let (unit, n) = (T::EXERCISED, cases.len());
            let detail = format!("[{point}] 0 {unit} in {n} case(s): equality proved nothing");
            out.push(Violation::new("equiv.exercised", detail));
        }
    }
    report
}

/// The oracle's self-test on a real output that matched its baseline:
/// flip one ULP of the middle value and require exactly that key to be
/// reported, one ULP apart.
fn flip_one_ulp(reference: &Keyed, mut output: Keyed) -> Result<Divergence, String> {
    let i = output.len() / 2;
    let (key, value) = *output.get(i).ok_or("empty output")?;
    output[i].1 = f64::from_bits(value.to_bits() + 1);
    match diverge(reference, &output) {
        Some(d) if d.key == key && d.ulps == Some(1) && d.differing == 1 => Ok(d),
        other => Err(format!("one-ULP flip at {key} reported as {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(values: &[(u32, f64)]) -> Keyed {
        values.iter().map(|&(v, x)| (Key::Vertex(v), x)).collect()
    }

    #[test]
    fn identical_outputs_do_not_diverge() {
        let a = keyed(&[(0, 1.0), (1, -0.0), (2, 3.5)]);
        assert_eq!(diverge(&a, &a.clone()), None);
    }

    #[test]
    fn signed_zero_differs_bitwise_at_zero_ulps() {
        let d = diverge(&keyed(&[(0, 0.0)]), &keyed(&[(0, -0.0)])).expect("bits differ");
        assert_eq!((d.key, d.ulps, d.differing), (Key::Vertex(0), Some(0), 1));
    }

    #[test]
    fn a_missing_key_is_reported() {
        let base = keyed(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let d = diverge(&base, &keyed(&[(0, 1.0), (2, 3.0)])).expect("missing key");
        assert_eq!(d.key, Key::Vertex(1));
        assert_eq!((d.baseline, d.transformed, d.ulps), (Some(2.0), None, None));
        assert_eq!(d.differing, 1);
    }

    #[test]
    fn an_extra_key_is_reported() {
        let base = keyed(&[(0, 1.0)]);
        let d = diverge(&base, &keyed(&[(0, 1.0), (5, 7.0), (6, 8.0)])).expect("extra keys");
        assert_eq!(d.key, Key::Vertex(5));
        assert_eq!((d.baseline, d.transformed), (None, Some(7.0)));
        assert_eq!(d.differing, 2);
    }

    #[test]
    fn ulp_distance_crosses_zero_and_counts_every_difference() {
        let tiny = f64::from_bits(1);
        let d = diverge(
            &keyed(&[(0, -tiny), (1, 1.0)]),
            &keyed(&[(0, tiny), (1, 2.0)]),
        )
        .expect("diverges");
        assert_eq!((d.key, d.ulps, d.differing), (Key::Vertex(0), Some(2), 2));
    }

    #[test]
    fn directed_graphs_keep_push_only() {
        let g = bc_graph::gen::grid(3, 3);
        assert_eq!(matrix(&g, &[1, 2]).len(), 18);
        let directed = Csr::from_directed_edges(3, [(0, 1), (1, 2)]);
        let points = matrix(&directed, &[1, 2]);
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| p.traversal == TraversalMode::Push));
    }

    #[test]
    fn non_finite_baselines_fail() {
        // σ overflows f64 on a 520 × 520 grid: corner-to-corner path
        // counts pass f64::MAX near w ≈ 516.
        let g = bc_graph::gen::grid(520, 520);
        let t = crate::relabel_equiv::Relabel::new(
            &g,
            bc_core::Method::WorkEfficient,
            bc_core::RootSelection::FirstK(1),
        );
        let at = Axis {
            schedule: Schedule::Static,
            traversal: TraversalMode::Push,
            width: 1,
        };
        let cases = [("degree-desc", bc_graph::relabel::Relabeling::DegreeDesc)];
        let report = check(&t, &[at], &cases);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].check, "scores.finite");
        assert_eq!(report.cases, 0, "a non-finite baseline is never compared");
    }
}
