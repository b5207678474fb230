//! Direct coverage of the small metric/statistics helpers the bigger
//! experiment code leans on: `bc_core::teps` (the paper's Eq. 4
//! TEPS_BC and its Table IV variants) and `bc_graph::stats` (the
//! Table II descriptors used to pin generator classes). The formulas
//! are checked from outside the crates, on shapes whose answers are
//! derivable by hand.

use bc_core::teps::{geometric_mean, teps_bc, teps_bc_adjusted};
use bc_graph::stats::{degree_gini, degree_histogram, power_law_alpha};
use bc_graph::{gen, Csr, GraphStats};

#[test]
fn teps_is_mn_over_t() {
    // 250 undirected edges, 64 roots, 0.5s: 250·64/0.5 = 32000.
    assert!((teps_bc(250, 64, 0.5) - 32_000.0).abs() < 1e-9);
    // Time must be positive for the rate to mean anything.
    assert_eq!(teps_bc(250, 64, 0.0), 0.0);
    assert_eq!(teps_bc(250, 64, -2.0), 0.0);
    // Degenerate graphs yield zero rate, not NaN.
    assert_eq!(teps_bc(0, 64, 1.0), 0.0);
}

#[test]
fn adjusted_teps_only_credits_connected_roots() {
    // Table IV's kron caveat: isolated vertices contribute no
    // traversals, so the adjusted metric scales by (n - isolated)/n.
    let raw = teps_bc(500, 200, 2.0);
    let adj = teps_bc_adjusted(500, 200, 50, 2.0);
    assert!((adj - raw * 0.75).abs() < 1e-9);
    // No isolated vertices: both metrics agree exactly.
    assert_eq!(teps_bc_adjusted(500, 200, 0, 2.0), raw);
    // More isolated vertices than vertices clamps to zero.
    assert_eq!(teps_bc_adjusted(500, 200, 1000, 2.0), 0.0);
    assert_eq!(teps_bc_adjusted(500, 200, 50, 0.0), 0.0);
}

#[test]
fn geometric_mean_is_order_invariant_and_scale_correct() {
    assert!((geometric_mean(&[1.0, 8.0]) - (8.0f64).sqrt()).abs() < 1e-12);
    assert!((geometric_mean(&[8.0, 1.0]) - (8.0f64).sqrt()).abs() < 1e-12);
    // A slowdown and the inverse speedup cancel.
    assert!((geometric_mean(&[4.0, 0.25]) - 1.0).abs() < 1e-12);
    // The empty product is the identity.
    assert_eq!(geometric_mean(&[]), 1.0);
}

#[test]
fn graph_stats_of_a_known_shape() {
    // A 3x4 grid: n = 12, m = 17, max degree 4 (the two interior
    // vertices), diameter 5 (opposite corners), one component.
    let g = gen::grid(3, 4);
    let s = GraphStats::compute(&g);
    assert_eq!(s.vertices, 12);
    assert_eq!(s.edges, 17);
    assert_eq!(s.max_degree, 4);
    assert_eq!(s.diameter, 5);
    assert!(s.diameter_exact);
    assert_eq!(s.components, 1);
    assert_eq!(s.isolated, 0);
    assert!((s.avg_degree - 2.0 * 17.0 / 12.0).abs() < 1e-12);
    assert!((s.largest_component_frac - 1.0).abs() < 1e-12);
}

#[test]
fn graph_stats_count_components_and_isolates() {
    // Two triangles plus two isolated vertices.
    let g = Csr::from_undirected_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
    let s = GraphStats::compute(&g);
    assert_eq!(s.components, 4);
    assert_eq!(s.isolated, 2);
    assert!((s.largest_component_frac - 3.0 / 8.0).abs() < 1e-12);
    assert_eq!(s.diameter, 1);
}

#[test]
fn stats_estimate_matches_exact_on_small_graphs() {
    // Forcing the estimator path (limit 0) on a graph the exact BFS
    // can also handle: the multi-sweep lower bound must find the true
    // diameter of a path, and never exceed it elsewhere.
    let path = gen::path(40);
    let est = GraphStats::compute_with_limit(&path, 0);
    assert!(!est.diameter_exact);
    assert_eq!(est.diameter, 39);
    let grid = gen::grid(7, 9);
    let exact = GraphStats::compute(&grid);
    let lower = GraphStats::compute_with_limit(&grid, 0);
    assert!(lower.diameter <= exact.diameter);
}

#[test]
fn degree_histogram_shape() {
    let star = gen::star(9); // hub degree 8, eight leaves
    let h = degree_histogram(&star);
    assert_eq!(h.len(), 9);
    assert_eq!(h[1], 8);
    assert_eq!(h[8], 1);
    assert_eq!(h.iter().sum::<usize>(), 9);
}

#[test]
fn gini_separates_the_generator_classes() {
    // The structural divide the hybrid methods exploit: meshes and
    // roads are near-regular (tiny Gini), scale-free graphs are
    // heavily skewed.
    let road = gen::triangulated_grid(24, 24, 1);
    let sf = gen::barabasi_albert(576, 3, 7);
    let g_road = degree_gini(&road);
    let g_sf = degree_gini(&sf);
    assert!(
        g_road < 0.15 && g_sf > 0.3,
        "road {g_road:.3} vs scale-free {g_sf:.3}"
    );
}

#[test]
fn power_law_fit_lands_near_the_ba_exponent() {
    // Barabási–Albert's theoretical tail exponent is 3; the MLE on a
    // finite sample should land in the right neighbourhood, and a
    // regular lattice should give no meaningful (much larger) fit.
    let sf = gen::barabasi_albert(4000, 4, 11);
    let alpha = power_law_alpha(&sf, 8).expect("enough tail samples");
    assert!(
        (2.0..4.5).contains(&alpha),
        "BA tail exponent fit: {alpha:.2}"
    );
    // Too few qualifying vertices: no fit rather than a bogus one.
    assert!(power_law_alpha(&gen::path(8), 3).is_none());
}
