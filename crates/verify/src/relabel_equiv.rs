//! The relabel transform: degree-ordered relabeling must be invisible
//! in the output.
//!
//! The relabeling pass permutes vertex ids to pack hot adjacency rows
//! together, a pure memory-layout change. For any graph, method,
//! traversal, thread count and schedule, running on the relabeled
//! graph (roots mapped in, scores gathered back out) must reproduce
//! the unrelabeled run **bitwise**. The engine earns this by summing
//! the backward δ contributions in canonical (value-sorted) order, so
//! every float accumulation is label-invariant. [`Relabel`] reports
//! how many vertices the permutation moved as its exercised count.

use crate::harness::{vertex_keyed, Axis, Keyed, Transform, Transformed};
use crate::invariants::Violation;
use bc_core::{BcOptions, Method, RootSelection};
use bc_graph::relabel::{apply, Relabeling};
use bc_graph::Csr;

/// One method on `g` from `roots` (in the original labels), with the
/// axis setting traversal, host threads and schedule.
pub struct Relabel<'g> {
    g: &'g Csr,
    method: Method,
    opts: BcOptions,
}

impl<'g> Relabel<'g> {
    /// The transform for `method` on `g` from `roots`.
    pub fn new(g: &'g Csr, method: Method, roots: RootSelection) -> Self {
        let opts = BcOptions {
            roots,
            ..BcOptions::default()
        };
        Relabel { g, method, opts }
    }
}

impl Transform for Relabel<'_> {
    type Case = Relabeling;
    type Base = ();
    const NAME: &'static str = "relabel";
    const EXERCISED: &'static str = "vertices moved";

    fn baseline(&self, at: Axis) -> Result<(Keyed, ()), String> {
        let run = self.method.run(self.g, &at.options(&self.opts));
        let run = run.map_err(|e| format!("unrelabeled run failed: {e}"))?;
        Ok((vertex_keyed(&run.scores), ()))
    }

    fn transformed(&self, at: Axis, case: &Relabeling, _: &()) -> Result<Transformed, Violation> {
        let r = apply(self.g, *case);
        let ids: Vec<_> = self.g.vertices().collect();
        let moved = r
            .map_roots(&ids)
            .iter()
            .zip(&ids)
            .filter(|(a, b)| a != b)
            .count();
        let roots = r.map_roots(&self.opts.roots.resolve(self.g.num_vertices()));
        let opts = BcOptions {
            roots: RootSelection::Explicit(roots),
            ..at.options(&self.opts)
        };
        let run = self.method.run(&r.graph, &opts);
        let run = run.map_err(|e| Violation::new("relabel.relabeled_run", e.to_string()))?;
        let output = vertex_keyed(&r.restore_scores(&run.scores));
        Ok(Transformed::new(output, moved as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check, matrix, Key};
    use bc_core::{Schedule, TraversalMode};
    use bc_graph::gen;

    const DEGREE: [(&str, Relabeling); 1] = [("degree-desc", Relabeling::DegreeDesc)];
    const AT: Axis = Axis {
        schedule: Schedule::Static,
        traversal: TraversalMode::Push,
        width: 0,
    };

    #[test]
    fn work_efficient_battery_is_bitwise_clean() {
        // A scale-free analogue (the case DegreeDesc actually
        // reorders) and a random graph, across the full
        // direction × thread × schedule grid.
        for g in [
            gen::barabasi_albert(600, 4, 11),
            gen::erdos_renyi(400, 1600, 5),
        ] {
            let t = Relabel::new(&g, Method::WorkEfficient, RootSelection::Strided(24));
            let report = check(&t, &matrix(&g, &[1, 2, 4]), &DEGREE);
            assert!(report.violations.is_empty(), "{:?}", &report.violations);
            assert_eq!(report.cases, 27);
        }
    }

    #[test]
    fn all_methods_are_label_invariant_single_config() {
        let g = gen::watts_strogatz(512, 6, 0.1, 9);
        for method in Method::all() {
            let t = Relabel::new(&g, method.clone(), RootSelection::Strided(16));
            let bad = check(&t, &[AT], &DEGREE).violations;
            assert!(bad.is_empty(), "{}: {:?}", method.name(), &bad);
        }
    }

    #[test]
    fn a_seeded_divergence_is_reported() {
        // The oracle itself: one ULP flipped at one vertex of the
        // relabeled run's output is reported there, at distance 1.
        let g = gen::barabasi_albert(300, 3, 2);
        let t = Relabel::new(&g, Method::WorkEfficient, RootSelection::FirstK(8));
        let d = check(&t, &[AT], &DEGREE).flip.expect("flip reported");
        assert_eq!((d.key, d.ulps, d.differing), (Key::Vertex(150), Some(1), 1));
    }

    #[test]
    fn the_identity_relabeling_is_flagged_as_inert() {
        let g = gen::barabasi_albert(300, 3, 2);
        let t = Relabel::new(&g, Method::WorkEfficient, RootSelection::FirstK(8));
        let v = check(&t, &[AT], &[("none", Relabeling::None)]).violations;
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].check, "equiv.exercised");
    }
}
