//! Invariants of the GPU simulation layer: work accounting must be
//! internally consistent, the timing model monotone in work, and the
//! shared engine's per-level records must match reference BFS.

use bc_core::engine::{
    process_root_observed, FreeModel, RootContext, RootOutcome, SearchWorkspace,
};
use bc_core::{brandes, BcOptions, Method, RootSelection};
use bc_gpusim::{DeviceConfig, IterationWork};
use bc_graph::{gen, traversal};
use bc_metrics::{MetricPhase, MetricsRecorder};
use proptest::prelude::*;

#[test]
fn useful_edge_inspections_match_reachable_edges() {
    // One root on a connected graph: the forward pass inspects every
    // directed edge exactly once, the backward pass re-inspects the
    // edges of every level except the deepest and level 0.
    let g = gen::grid(10, 10);
    let opts = BcOptions {
        roots: RootSelection::Explicit(vec![0]),
        ..Default::default()
    };
    let run = Method::WorkEfficient.run(&g, &opts).unwrap();
    let m2 = g.num_directed_edges() as u64;
    let c = &run.report.counters;
    assert!(
        c.useful_edge_inspections >= m2,
        "forward pass alone covers all {m2} arcs"
    );
    assert!(
        c.useful_edge_inspections <= 2 * m2,
        "at most both passes: {} vs {}",
        c.useful_edge_inspections,
        2 * m2
    );
    assert_eq!(
        c.wasted_edge_inspections, 0,
        "work-efficient wastes nothing"
    );
}

#[test]
fn edge_parallel_waste_grows_with_diameter() {
    let opts = BcOptions {
        roots: RootSelection::Explicit(vec![0]),
        ..Default::default()
    };
    let path = gen::path(256);
    let star = gen::star(256);
    let wasted_path = Method::EdgeParallel
        .run(&path, &opts)
        .unwrap()
        .report
        .counters
        .wasted_edge_inspections;
    let wasted_star = Method::EdgeParallel
        .run(&star, &opts)
        .unwrap()
        .report
        .counters
        .wasted_edge_inspections;
    assert!(
        wasted_path > 20 * wasted_star,
        "per-depth all-edges scans: path {wasted_path} vs star {wasted_star}"
    );
}

#[test]
fn iteration_count_tracks_eccentricity() {
    let g = gen::path(100);
    for root in [0u32, 50] {
        let opts = BcOptions {
            roots: RootSelection::Explicit(vec![root]),
            ..Default::default()
        };
        let run = Method::WorkEfficient.run(&g, &opts).unwrap();
        let ecc = traversal::eccentricity(&g, root) as u64;
        // init + forward levels (ecc + 1) + backward levels (ecc - 1).
        let iters = run.report.counters.iterations;
        assert!(
            iters >= 2 * ecc - 1 && iters <= 2 * ecc + 3,
            "root {root}: {iters} iterations for eccentricity {ecc}"
        );
    }
}

#[test]
fn vertex_parallel_checks_every_vertex_every_level() {
    let g = gen::path(64);
    let opts = BcOptions {
        roots: RootSelection::Explicit(vec![0]),
        ..Default::default()
    };
    let run = Method::VertexParallel.run(&g, &opts).unwrap();
    let c = &run.report.counters;
    // 64 levels x (n - frontier) wasted checks — O(n^2) in total.
    assert!(
        c.wasted_vertex_checks > (g.num_vertices() * g.num_vertices()) as u64 / 2,
        "vertex-parallel must scan all vertices per depth, got {}",
        c.wasted_vertex_checks
    );
}

#[test]
fn device_seconds_scale_with_sm_count() {
    // Twice the SMs, same roots: coarse-grained makespan halves
    // (roots spread over twice as many blocks).
    let g = gen::watts_strogatz(2048, 8, 0.1, 1);
    let mut fat = DeviceConfig::gtx_titan();
    fat.num_sms *= 2;
    fat.mem_bandwidth_gb_s *= 2.0; // keep per-SM bandwidth equal
    let opts14 = BcOptions {
        roots: RootSelection::Strided(56),
        ..Default::default()
    };
    let opts28 = BcOptions {
        roots: RootSelection::Strided(56),
        device: fat,
        ..Default::default()
    };
    let t14 = Method::WorkEfficient
        .run(&g, &opts14)
        .unwrap()
        .report
        .device_seconds;
    let t28 = Method::WorkEfficient
        .run(&g, &opts28)
        .unwrap()
        .report
        .device_seconds;
    let ratio = t14 / t28;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "doubling SMs should ~halve time, got {ratio:.2}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_timing_monotone_in_work(
        steps in 0u64..1_000_000,
        extra in 1u64..1_000_000,
        bytes in 0u64..100_000_000,
        scattered in 0u64..1_000_000,
        ws in 0u64..100_000_000,
    ) {
        let d = DeviceConfig::gtx_titan();
        let base = IterationWork {
            warp_steps: steps,
            coalesced_bytes: bytes,
            scattered_accesses: scattered,
            working_set_bytes: ws,
            ..Default::default()
        };
        let t0 = d.block_iteration_seconds(&base);
        prop_assert!(t0 > 0.0, "every iteration pays overhead");
        for more in [
            IterationWork { warp_steps: steps + extra, ..base },
            IterationWork { coalesced_bytes: bytes + extra, ..base },
            IterationWork { scattered_accesses: scattered + extra, ..base },
            IterationWork { atomics: extra, ..base },
            IterationWork { contended_atomics: extra, ..base },
            IterationWork { global_sync: true, ..base },
        ] {
            let t1 = d.block_iteration_seconds(&more);
            prop_assert!(t1 >= t0, "more work must never be faster: {t0} -> {t1}");
        }
        // Larger working sets gather slower (worse hit rate).
        let worse = IterationWork { working_set_bytes: ws.saturating_mul(2), ..base };
        prop_assert!(d.block_iteration_seconds(&worse) + 1e-15 >= t0);
    }

    #[test]
    fn prop_warp_steps_bounds(
        trips in proptest::collection::vec(0u32..64, 0..600),
    ) {
        use bc_gpusim::warp;
        let steps = warp::round_robin_warp_steps(&trips, 256, 32);
        let total: u64 = trips.iter().map(|&t| t as u64).sum();
        // Lower bound: perfect balance across 256 lanes grouped in
        // 8 warps — at least ceil(total / 256) per warp round.
        prop_assert!(steps * 32 >= total.div_ceil(8), "steps {steps} too low for {total}");
        // Upper bound: full serialization.
        prop_assert!(steps <= total.max(1), "steps {steps} exceed serial work {total}");
        let eff = warp::divergence_efficiency(&trips, 256, 32);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&eff));
    }

    #[test]
    fn prop_makespan_bounds(
        times in proptest::collection::vec(0.0f64..10.0, 1..200),
        blocks in 1u32..32,
    ) {
        use bc_gpusim::coarse_grained_makespan;
        let makespan = coarse_grained_makespan(&times, blocks);
        let total: f64 = times.iter().sum();
        let max = times.iter().cloned().fold(0.0, f64::max);
        prop_assert!(makespan >= total / blocks as f64 - 1e-9, "below perfect balance");
        prop_assert!(makespan >= max - 1e-12, "cannot beat the longest item");
        prop_assert!(makespan <= total + 1e-9, "cannot exceed serial time");
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
}
