//! Property tests for the serving layer's dynamic-graph deltas.
//!
//! Three claims, swept over random graphs and random valid edits:
//!
//! 1. **Invalidation soundness** — the delta test
//!    (`edit_touches_root` over a root's checkpointed BFS level map)
//!    may only *over*-approximate: every root it declares untouched
//!    must have a bitwise-identical per-root contribution on the
//!    edited graph. Equivalently, the invalidated set is a superset
//!    of the roots whose scores actually change.
//! 2. **Delta-served equality** — a server that answers a post-edit
//!    query from carried cache entries plus recomputed touched roots
//!    must match a cold full recompute on the edited graph bitwise.
//! 3. **Relabel compatibility** — graphs rebuilt by
//!    `Csr::with_edge_inserted`/`with_edge_removed` remain ordinary
//!    CSRs to the rest of the stack: the degree-relabel equivalence
//!    battery must stay bitwise clean on edited graphs.

use bc_core::{run_roots_contributions, DirectionOptimizingModel, RootSelection, TraversalMode};
use bc_gpusim::DeviceConfig;
use bc_graph::relabel::Relabeling;
use bc_graph::{gen, Csr, VertexId};
use bc_serve::{
    cold_answer, edit_touches_root, random_edits, BcServer, EdgeEdit, Event, Query, Request,
    ServeConfig,
};
use bc_verify::{check, matrix, Axis, Relabel};
use proptest::prelude::*;

const DEGREE: [(&str, Relabeling); 1] = [("degree-desc", Relabeling::DegreeDesc)];

/// `BcOptions::default()`'s schedule, traversal and thread count.
const DEFAULT_AXIS: Axis = Axis {
    schedule: bc_core::Schedule::Static,
    traversal: TraversalMode::Push,
    width: 0,
};

/// One random valid edit against `g`, derived from `seed` (delete of
/// a live edge or insert of a missing one).
fn draw_edit(g: &Csr, seed: u64) -> EdgeEdit {
    match random_edits(g, "default", 1, 1.0, seed).remove(0) {
        Event::Edit { edit, .. } => edit,
        Event::Query(_) => unreachable!("random_edits emits only edits"),
    }
}

fn apply_edit(g: &Csr, edit: EdgeEdit) -> Csr {
    let (u, v) = edit.endpoints();
    match edit {
        EdgeEdit::Insert(..) => g.with_edge_inserted(u, v),
        EdgeEdit::Delete(..) => g.with_edge_removed(u, v),
    }
}

/// Per-root contributions of every vertex of `g` under the serving
/// model (single-threaded static run — the contribution extraction
/// is schedule/thread-invariant, which `bc_core`'s own tests prove).
fn contributions(g: &Csr) -> Vec<bc_core::RootContribution> {
    let roots: Vec<VertexId> = (0..g.num_vertices() as u32).collect();
    let mut model = DirectionOptimizingModel::new(TraversalMode::Auto);
    run_roots_contributions(
        g,
        &DeviceConfig::gtx_titan(),
        &roots,
        1,
        bc_core::Schedule::Static,
        &mut model,
    )
    .expect("contribution run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness: roots the delta test declares untouched are
    /// provably untouched — their contribution entries (and level
    /// maps) are bitwise identical on the edited graph. Roots whose
    /// contributions actually changed must all have been flagged.
    #[test]
    fn prop_untouched_roots_have_identical_contributions(
        n in 8usize..48,
        frac in 0.05f64..0.6,
        seed in 0u64..1000,
        edit_seed in 0u64..1000,
    ) {
        let m = ((n * (n - 1) / 2) as f64 * frac) as usize;
        let g = gen::erdos_renyi(n, m.max(1), seed);
        let edit = draw_edit(&g, edit_seed);
        let edited = apply_edit(&g, edit);

        let before = contributions(&g);
        let after = contributions(&edited);
        for (b, a) in before.iter().zip(&after) {
            prop_assert_eq!(b.root, a.root);
            let flagged = edit_touches_root(&b.levels, edit);
            let entries_equal = b.entries.len() == a.entries.len()
                && b.entries.iter().zip(&a.entries).all(|(x, y)| {
                    x.0 == y.0 && x.1.to_bits() == y.1.to_bits()
                });
            let levels_equal = b.levels == a.levels;
            if !flagged {
                // Untouched verdicts are promises: bitwise identical.
                prop_assert!(
                    entries_equal && levels_equal,
                    "root {} declared untouched by {:?} but its contribution changed",
                    b.root, edit
                );
            }
            // (Flagged roots may or may not change — the test is an
            // over-approximation by design.)
            if !entries_equal || !levels_equal {
                prop_assert!(
                    flagged,
                    "root {} changed under {:?} but was not invalidated",
                    b.root, edit
                );
            }
        }
    }

    /// Delta-served scores are bitwise identical to a cold full
    /// recompute on the edited graph, even though the server answers
    /// from carried epoch-(k+1) cache entries plus recomputed
    /// touched roots.
    #[test]
    fn prop_delta_served_equals_cold_recompute(
        n in 8usize..40,
        frac in 0.05f64..0.5,
        seed in 0u64..1000,
        edit_seed in 0u64..1000,
    ) {
        let m = ((n * (n - 1) / 2) as f64 * frac) as usize;
        let g = gen::erdos_renyi(n, m.max(1), seed);
        let edit = draw_edit(&g, edit_seed);
        let edited = apply_edit(&g, edit);

        let config = ServeConfig::default();
        let roots = RootSelection::All;
        let query = Query::SubgraphBc { vertices: (0..n as u32).collect() };
        let request = |id: u64, arrival: f64| Event::Query(Request {
            id,
            arrival,
            graph: "default".to_owned(),
            roots: roots.clone(),
            query: query.clone(),
        });
        let mut server = BcServer::single(g, config.clone());
        let out = server.run(vec![
            request(0, 0.0), // warm every root at epoch 0
            Event::Edit { at: 1.0, graph: "default".to_owned(), edit },
            request(1, 2.0), // answered from carried + recomputed roots
        ]).expect("serve");
        prop_assert_eq!(server.epoch("default"), Some(1));

        let cold = cold_answer(&edited, &config, &roots, &query).expect("cold");
        let served = &out.responses.iter().find(|r| r.id == 1).expect("response").answer;
        prop_assert_eq!(served, &cold, "delta-served answer diverges from cold recompute");
    }

    /// Edited CSRs stay relabel-compatible: the degree-relabel
    /// transform must remain bitwise clean after a chain of
    /// inserts/deletes rebuilt the graph.
    #[test]
    fn prop_edited_graphs_pass_relabel_battery(
        n in 16usize..48,
        frac in 0.1f64..0.5,
        seed in 0u64..1000,
        edit_seed in 0u64..1000,
    ) {
        let m = ((n * (n - 1) / 2) as f64 * frac) as usize;
        let mut g = gen::erdos_renyi(n, m.max(2), seed);
        for i in 0..3 {
            g = apply_edit(&g, draw_edit(&g, edit_seed.wrapping_add(i)));
        }
        let t = Relabel::new(&g, bc_core::Method::WorkEfficient, RootSelection::Strided(8.min(n)));
        let bad = check(&t, &[DEFAULT_AXIS], &DEGREE).violations;
        prop_assert!(bad.is_empty(), "relabel violations on edited graph: {:?}", bad);
    }
}

/// Non-property pin: the relabel transform over the full axis matrix
/// (direction × threads × schedules) on one edited scale-free graph.
#[test]
fn edited_scale_free_graph_passes_full_relabel_battery() {
    let mut g = gen::barabasi_albert(300, 4, 77);
    for i in 0..4 {
        g = apply_edit(&g, draw_edit(&g, 1000 + i));
    }
    let t = Relabel::new(
        &g,
        bc_core::Method::WorkEfficient,
        RootSelection::Strided(16),
    );
    let report = check(&t, &matrix(&g, &[1, 2, 4]), &DEGREE);
    assert!(
        report.violations.is_empty(),
        "relabel battery on edited graph: {:?}",
        report.violations
    );
    assert_eq!(report.cases, 27);
}
