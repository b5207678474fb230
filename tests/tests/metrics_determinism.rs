//! `--metrics` must be a pure observer: attaching the metrics sinks
//! may never change a score or a priced second, at any layer. Every
//! entry point with a metered twin is run both ways and compared
//! bitwise — the solver (all six methods), the sharded multi-root
//! runner, and the cluster runner with and without injected faults.

use bc_cluster::{
    run_cluster_durable_metered, run_cluster_with_faults, ClusterConfig, DurabilityOptions,
    FaultPlan,
};
use bc_core::engine::{CostModel, LevelInfo, PricedIteration};
use bc_core::methods::models::WorkEfficientModel;
use bc_core::{
    run_roots, run_roots_scheduled_metered, BcOptions, Method, RootSelection, Schedule,
    TraversalMode,
};
use bc_gpusim::DeviceConfig;
use bc_graph::{gen, Csr};
use bc_metrics::MetricTraversal;

#[test]
fn every_method_is_bitwise_identical_with_metrics_attached() {
    // Scale-free so hybrid actually switches and sampling's decision
    // phase has something to measure; 2 threads so the sharded path
    // (not just the sequential fallback) is the one being metered.
    let g = gen::barabasi_albert(1200, 6, 3);
    let opts = BcOptions {
        roots: RootSelection::Strided(12),
        threads: 2,
        ..BcOptions::default()
    };
    for method in Method::all() {
        let plain = method.run(&g, &opts).expect("plain run");
        let (metered, metrics) = method.run_metered(&g, &opts).expect("metered run");
        let name = method.name();
        assert_eq!(plain.scores, metered.scores, "{name}: scores");
        assert_eq!(
            plain.report.full_seconds, metered.report.full_seconds,
            "{name}: clock"
        );
        assert_eq!(
            plain.report.device_seconds, metered.report.device_seconds,
            "{name}: device clock"
        );
        assert_eq!(
            plain.report.per_root_seconds, metered.report.per_root_seconds,
            "{name}: per-root timings"
        );
        assert_eq!(
            plain.report.max_depths, metered.report.max_depths,
            "{name}: depths"
        );
        assert_eq!(
            plain.report.counters, metered.report.counters,
            "{name}: kernel counters"
        );
        assert_eq!(plain.report.teps, metered.report.teps, "{name}: TEPS");
        // The only allowed difference: the metered report carries the
        // summary, the plain one stays None.
        assert!(plain.report.metrics.is_none(), "{name}: plain summary");
        assert_eq!(
            metered.report.metrics.as_ref(),
            Some(&metrics.summary),
            "{name}: embedded summary"
        );
    }
}

/// Prices nothing but keeps the trait's default initialization price —
/// the one every in-tree model charges before its first level.
struct DefaultInit;

impl CostModel for DefaultInit {
    fn price(&mut self, _g: &Csr, _d: &DeviceConfig, _l: &LevelInfo<'_>) -> PricedIteration {
        PricedIteration::default()
    }
}

#[test]
fn priced_levels_sum_to_per_root_seconds() {
    // The level stream is the only per-level channel: for every root,
    // the initialization price plus its records' seconds, summed in
    // emission order, must be the reported per-root seconds bitwise.
    let g = gen::watts_strogatz(600, 8, 0.1, 5);
    let device = BcOptions::default().device;
    let init = device.block_iteration_seconds(&DefaultInit.price_init(&g, &device).work);
    let mut pull_levels = 0;
    for traversal in [TraversalMode::Push, TraversalMode::Auto] {
        let opts = BcOptions {
            roots: RootSelection::Strided(16),
            threads: 2,
            traversal,
            ..BcOptions::default()
        };
        for method in Method::all() {
            let name = method.name();
            let (run, metrics) = method.run_metered(&g, &opts).expect("metered run");
            let reported = &run.report.per_root_seconds;
            assert_eq!(
                metrics.per_root.len(),
                reported.len(),
                "{name} {traversal:?}"
            );
            for (root, &secs) in metrics.per_root.iter().zip(reported) {
                let mut sum = init;
                for level in &root.levels {
                    sum += level.seconds;
                }
                assert_eq!(
                    sum.to_bits(),
                    secs.to_bits(),
                    "{name} {traversal:?} root {}: {sum:e} vs {secs:e}",
                    root.root
                );
                pull_levels += root
                    .levels
                    .iter()
                    .filter(|l| l.traversal == MetricTraversal::Pull)
                    .count();
            }
        }
    }
    assert!(pull_levels > 0, "auto mode must price some pull levels");
}

#[test]
fn sharded_runner_is_bitwise_identical_with_metrics_attached() {
    let g = gen::watts_strogatz(400, 8, 0.05, 11);
    let device = BcOptions::default().device;
    let roots: Vec<u32> = (0..40).map(|i| i * 10).collect();
    for threads in [1usize, 3, 8] {
        let plain = run_roots(
            &g,
            &device,
            &roots,
            threads,
            &mut WorkEfficientModel::default(),
        )
        .expect("plain run");
        let (metered, per_root, _) = run_roots_scheduled_metered(
            &g,
            &device,
            &roots,
            threads,
            Schedule::Static,
            &mut WorkEfficientModel::default(),
        )
        .expect("metered run");
        assert_eq!(plain.scores, metered.scores, "threads {threads}: scores");
        assert_eq!(
            plain.per_root_seconds, metered.per_root_seconds,
            "threads {threads}: timings"
        );
        assert_eq!(plain.max_depths, metered.max_depths);
        assert_eq!(plain.counters, metered.counters);
        assert_eq!(per_root.len(), roots.len());
        for (m, &root) in per_root.iter().zip(&roots) {
            assert_eq!(m.root, root, "metrics arrive in global root order");
        }
    }
}

fn assert_cluster_bitwise(g: &bc_graph::Csr, plan: &FaultPlan) {
    let cfg = ClusterConfig::keeneland(2);
    let plain = run_cluster_with_faults(g, &cfg, 12, plan).expect("plain cluster run");
    let (metered, metrics) =
        run_cluster_durable_metered(g, &cfg, 12, plan, &DurabilityOptions::default())
            .expect("metered cluster run");
    assert_eq!(plain.scores, metered.scores);
    assert_eq!(plain.report.total_seconds, metered.report.total_seconds);
    assert_eq!(plain.report.compute_seconds, metered.report.compute_seconds);
    assert_eq!(plain.report.reduce_seconds, metered.report.reduce_seconds);
    assert_eq!(plain.report.gpu_seconds, metered.report.gpu_seconds);
    assert_eq!(plain.report.teps, metered.report.teps);
    assert_eq!(plain.report.checksum, metered.report.checksum);
    assert_eq!(plain.report.faults, metered.report.faults);
    assert!(plain.report.metrics.is_none());
    assert_eq!(metered.report.metrics.as_ref(), Some(&metrics.summary));
    assert_eq!(metrics.per_gpu.len(), cfg.total_gpus());
}

#[test]
fn cluster_runs_are_bitwise_identical_with_metrics_attached() {
    let g = gen::watts_strogatz(300, 6, 0.1, 7);
    assert_cluster_bitwise(&g, &FaultPlan::none());
}

#[test]
fn fault_injected_cluster_runs_are_bitwise_identical_with_metrics_attached() {
    let g = gen::watts_strogatz(300, 6, 0.1, 7);
    let plan = FaultPlan {
        transient_rate: 0.2,
        oom_rate: 0.05,
        dead_gpus: vec![2],
        death_fraction: 0.4,
        straggler_gpus: vec![0],
        straggler_slowdown: 2.5,
        ..FaultPlan::none()
    };
    assert_cluster_bitwise(&g, &plan);
}
