//! Property test for the observability layer: on random graphs, the
//! counters `bc_metrics` reports for each level are *exactly* the
//! counts derivable by replaying the same root under the recording
//! observer — edges inspected = traced dedup-CAS events, queue
//! insertions = traced `Q_next` writes, σ-updates = traced
//! `atomicAdd`s, priced atomics = traced atomic events — and the
//! metrics stream is identical at 1, 2, and 4 host threads.

use bc_core::engine::{process_root_observed, Phase, RootContext, RootOutcome, SearchWorkspace};
use bc_core::methods::models::WorkEfficientModel;
use bc_core::{BcOptions, Method, RootSelection};
use bc_gpusim::trace::{AccessKind, KernelArray};
use bc_gpusim::DeviceConfig;
use bc_graph::Csr;
use bc_metrics::{MetricPhase, RootMetrics};
use bc_verify::trace::{LevelTrace, RecordingSink, Trace};
use proptest::collection::vec;
use proptest::prelude::*;

/// Replay one root under the trace recorder (same work-efficient
/// model the metered run prices with) and return its level traces.
fn trace_root(g: &Csr, root: u32, device: &DeviceConfig) -> Trace {
    let mut ws = SearchWorkspace::new(g.num_vertices());
    let mut bc = vec![0.0; g.num_vertices()];
    let mut out = RootOutcome::default();
    let mut sink = RecordingSink::default();
    process_root_observed(
        &RootContext { g, root, device },
        &mut ws,
        &mut WorkEfficientModel::default(),
        &mut bc,
        &mut out,
        &mut sink,
    );
    sink.trace
}

fn count(level: &LevelTrace, array: KernelArray, kind: AccessKind) -> u64 {
    level
        .events
        .iter()
        .filter(|e| e.array == array && e.kind == kind)
        .count() as u64
}

/// Check one root's metrics against its independently recorded trace.
fn assert_root_matches_trace(g: &Csr, m: &RootMetrics, device: &DeviceConfig) {
    let trace = trace_root(g, m.root, device);
    assert_eq!(
        trace.levels.len(),
        m.levels.len(),
        "root {}: level count",
        m.root
    );
    for (traced, level) in trace.levels.iter().zip(&m.levels) {
        let phase = match level.phase {
            MetricPhase::Forward => Phase::Forward,
            MetricPhase::Backward => Phase::Backward,
        };
        assert_eq!((traced.phase, traced.depth), (phase, level.depth));
        assert_eq!(
            level.priced_atomics,
            traced.atomic_events(),
            "root {} {:?} depth {}: priced atomics vs traced",
            m.root,
            level.phase,
            level.depth
        );
        if level.phase == MetricPhase::Forward {
            // Push forward level (work-efficient is push-only): one
            // dedup CAS per inspected edge, one Q_next write per won
            // CAS, one σ atomicAdd per update.
            let cas = count(traced, KernelArray::Dist, AccessKind::AtomicCas);
            let enq = count(traced, KernelArray::QNext, AccessKind::Write);
            let sigma = count(traced, KernelArray::Sigma, AccessKind::AtomicAdd);
            assert_eq!(level.edges_inspected, cas, "root {}: edges", m.root);
            assert_eq!(level.cas_attempts, cas);
            assert_eq!(level.cas_wins, enq);
            assert_eq!(level.q_next, enq);
            assert_eq!(level.updates, sigma);
        } else {
            assert_eq!(traced.atomic_events(), 0, "backward must be atomic-free");
        }
    }
}

/// Decode one drawn word into an edge on `n` vertices: low half is
/// the source, high half the target. (The vendored proptest stub has
/// no tuple or mapped strategies, so graphs are built in the body.)
fn decode_edges(n: usize, raw: &[u64]) -> Vec<(u32, u32)> {
    raw.iter()
        .take(3 * n)
        .map(|w| ((w % n as u64) as u32, ((w >> 32) % n as u64) as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn metrics_equal_trace_replay_at_every_thread_count(
        n in 2usize..48,
        raw in vec(0u64..u64::MAX, 0..144),
    ) {
        let g = Csr::from_undirected_edges(n, decode_edges(n, &raw));
        let k = n.min(6);
        let opts = |threads| BcOptions {
            roots: RootSelection::Strided(k),
            threads,
            ..BcOptions::default()
        };
        let device = BcOptions::default().device;
        let (_, baseline) = Method::WorkEfficient
            .run_metered(&g, &opts(1))
            .expect("fits in device memory");
        let expected_roots = RootSelection::Strided(k).resolve(n);
        prop_assert_eq!(baseline.per_root.len(), expected_roots.len());
        for (m, &root) in baseline.per_root.iter().zip(&expected_roots) {
            prop_assert_eq!(m.root, root);
            assert_root_matches_trace(&g, m, &device);
        }
        // Thread count moves work between shards, never the counters.
        for threads in [2usize, 4] {
            let (_, run) = Method::WorkEfficient
                .run_metered(&g, &opts(threads))
                .expect("fits in device memory");
            prop_assert_eq!(run.per_root.len(), baseline.per_root.len());
            for (a, b) in run.per_root.iter().zip(&baseline.per_root) {
                prop_assert_eq!(a.root, b.root);
                prop_assert_eq!(&a.levels, &b.levels, "threads={}", threads);
            }
            prop_assert_eq!(run.summary, baseline.summary);
        }
    }
}
