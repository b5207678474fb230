//! Property tests for the weighted-BC extension and the shared
//! engine's internal invariants.

use bc_core::engine::{
    process_root_observed, FreeModel, RootContext, RootOutcome, SearchWorkspace,
};
use bc_core::{brandes, weighted};
use bc_gpusim::DeviceConfig;
use bc_graph::{gen, traversal, WeightedCsr};
use bc_metrics::{MetricPhase, MetricsRecorder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn prop_unit_weighted_matches_unweighted(
        n in 3usize..40,
        frac in 0.05f64..0.9,
        seed in 0u64..200,
    ) {
        let m = ((n * (n - 1) / 2) as f64 * frac).max(1.0) as usize;
        let g = gen::erdos_renyi(n, m, seed);
        let expect = brandes::betweenness(&g);
        let wg = WeightedCsr::with_unit_weights(g);
        let got = weighted::weighted_betweenness(&wg);
        for (e, a) in expect.iter().zip(&got) {
            prop_assert!((e - a).abs() < 1e-6, "{e} vs {a}");
        }
    }

    #[test]
    fn prop_weighted_scale_invariance(
        n in 4usize..30,
        frac in 0.2f64..0.9,
        seed in 0u64..100,
        factor in 0.25f32..8.0,
    ) {
        let m = ((n * (n - 1) / 2) as f64 * frac) as usize;
        let g = gen::erdos_renyi(n, m, seed);
        let mut wg = WeightedCsr::with_random_weights(g, 1.0, 4.0, seed);
        let before = weighted::weighted_betweenness(&wg);
        wg.scale_weights(factor);
        let after = weighted::weighted_betweenness(&wg);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!((b - a).abs() < 1e-5, "scaling weights must not move BC: {b} vs {a}");
        }
    }

    #[test]
    fn prop_weighted_sigma_positive_on_reached(
        n in 3usize..40,
        frac in 0.1f64..0.9,
        seed in 0u64..100,
    ) {
        let m = ((n * (n - 1) / 2) as f64 * frac).max(1.0) as usize;
        let g = gen::erdos_renyi(n, m, seed);
        let wg = WeightedCsr::with_random_weights(g, 0.5, 3.0, seed ^ 7);
        let ss = weighted::weighted_single_source(&wg, 0);
        for v in 0..n {
            if ss.dist[v].is_finite() {
                prop_assert!(ss.sigma[v] >= 1.0, "reached vertex {v} needs paths");
            } else {
                prop_assert_eq!(ss.sigma[v], 0.0);
            }
        }
        // Weighted distances dominate hop counts times the minimum
        // weight.
        let hops = traversal::bfs_distances(wg.graph(), 0);
        let min_w = wg.weights().iter().cloned().fold(f32::INFINITY, f32::min) as f64;
        for (v, &h) in hops.iter().enumerate().take(n) {
            if ss.dist[v].is_finite() {
                prop_assert!(
                    ss.dist[v] + 1e-9 >= h as f64 * min_w,
                    "weighted distance below hop bound at {v}"
                );
            }
        }
    }

    #[test]
    fn prop_engine_level_structure(
        n in 2usize..60,
        frac in 0.0f64..0.8,
        seed in 0u64..200,
    ) {
        let m = ((n * (n - 1) / 2) as f64 * frac) as usize;
        let g = gen::erdos_renyi(n, m, seed);
        let device = DeviceConfig::gtx_titan();
        let mut ws = SearchWorkspace::new(n);
        let mut bc = vec![0.0; n];
        let mut out = RootOutcome::default();
        let mut rec = MetricsRecorder::default();
        let ctx = RootContext { g: &g, root: 0, device: &device };
        process_root_observed(&ctx, &mut ws, &mut FreeModel, &mut bc, &mut out, &mut rec);
        let forward: Vec<_> = rec.roots[0]
            .levels
            .iter()
            .filter(|l| l.phase == MetricPhase::Forward)
            .collect();
        let frontier_sizes: Vec<usize> = forward.iter().map(|l| l.q_curr as usize).collect();
        // Frontier sizes partition the reached set.
        prop_assert_eq!(frontier_sizes.iter().sum::<usize>(), out.reached);
        // They match the reference BFS level sizes.
        let reference = traversal::frontier_sizes(&g, 0);
        prop_assert_eq!(&frontier_sizes, &reference);
        // Edge frontiers match too (FreeModel only pushes, so each
        // level inspects exactly its edge frontier).
        let edge_frontier_sizes: Vec<u64> = forward.iter().map(|l| l.edges_inspected).collect();
        prop_assert_eq!(&edge_frontier_sizes, &traversal::edge_frontier_sizes(&g, 0));
        // max_depth equals the eccentricity.
        prop_assert_eq!(out.max_depth, traversal::eccentricity(&g, 0));
        // dist/sigma agree with the Brandes reference.
        let ss = brandes::single_source(&g, 0);
        for v in 0..n {
            let ed = ws.dist()[v];
            let bd = ss.dist[v];
            prop_assert_eq!(ed, bd, "distance mismatch at {}", v);
            prop_assert!((ws.sigma()[v] - ss.sigma[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_edge_betweenness_nonnegative_and_bounded(
        n in 3usize..30,
        frac in 0.2f64..0.9,
        seed in 0u64..100,
    ) {
        let m = ((n * (n - 1) / 2) as f64 * frac).max(1.0) as usize;
        let g = gen::erdos_renyi(n, m, seed);
        let ebc = brandes::edge_betweenness(&g);
        let max_pairs = (n * (n - 1) / 2) as f64;
        for (e, &s) in ebc.iter().enumerate() {
            prop_assert!(s >= -1e-9, "negative edge BC at arc {e}");
            prop_assert!(s <= max_pairs + 1e-6, "edge BC exceeds pair count at arc {e}");
        }
        // Bridge edges carry at least the pair they connect.
        // (Total check: sum equals Σ pairwise distances — covered in
        // unit tests.)
    }
}

#[test]
fn weighted_bc_on_dataset_analogue() {
    // End-to-end: weighted BC on a road analogue runs and produces
    // finite, nonnegative scores with the hubs on junctions.
    let g = gen::road_network(1500, 3);
    let wg = WeightedCsr::with_random_weights(g, 0.5, 2.0, 9);
    let bc = weighted::weighted_betweenness(&wg);
    assert!(bc.iter().all(|s| s.is_finite() && *s >= -1e-9));
    assert!(bc.iter().any(|&s| s > 0.0));
}
