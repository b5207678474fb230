//! E-serve — the batched query server under seeded open- and
//! closed-loop load: latency percentiles, cache behavior under
//! dynamic-graph edits, and the batching win over an unbatched,
//! uncached baseline.
//!
//! ```text
//! cargo run -p bc-bench --release --bin bench_serve \
//!     [--seed S] [--reduction R] [--requests N] [--quick 1]
//! ```
//!
//! Writes `results/BENCH_serve.json` (`BENCH_serve_smoke.json` under
//! `--quick 1`) and the raw serve rows of every batched run to
//! `results/BENCH_serve.jsonl` (`_smoke.jsonl`).
//!
//! Three claims under test, all asserted hard:
//! * batched + cached responses are **bitwise identical** to
//!   per-query cold recomputes on the shadow-edited graph;
//! * the cache is exercised (hit rate > 0) on every workload;
//! * coalescing + caching strictly reduces the total priced device
//!   seconds versus the unbatched, uncached baseline serving the
//!   same stream.

use bc_bench::{fmt_seconds, print_table, write_json, Args};
use bc_graph::DatasetId;
use bc_metrics::{serve_to_jsonl, ServeRow};
use bc_serve::{percentile, BcServer, ClosedLoop, Event, QueryMix, ServeConfig, ServeOutcome};
use bc_verify::harness::{diverge, Keyed};
use bc_verify::{answers_keyed, cold_references, serve_stream};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct WorkloadPoint {
    dataset: &'static str,
    mode: &'static str,
    vertices: usize,
    requests: usize,
    edits: usize,
    batches: usize,
    window_seconds: f64,
    p50_seconds: f64,
    p95_seconds: f64,
    p99_seconds: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_hit_rate: f64,
    /// Roots dropped by edits' delta invalidation.
    invalidated_roots: u64,
    /// Roots carried across epochs (provably untouched by the edit).
    carried_roots: u64,
    /// Edits that degraded to full invalidation.
    full_invalidations: usize,
    priced_seconds_total: f64,
    host_wall_seconds: f64,
}

#[derive(Serialize)]
struct BatchingPoint {
    dataset: &'static str,
    requests: usize,
    batched_priced_seconds: f64,
    unbatched_priced_seconds: f64,
    /// Unbatched / batched priced seconds (> 1 is a win).
    batching_gain: f64,
    bitwise_identical_to_cold: bool,
}

#[derive(Serialize)]
struct Report {
    reduction: u32,
    seed: u64,
    requests: usize,
    workloads: Vec<WorkloadPoint>,
    batching: Vec<BatchingPoint>,
}

fn priced_total(rows: &[ServeRow]) -> f64 {
    rows.iter()
        .filter(|r| r.event == "batch")
        .map(|r| r.priced_seconds)
        .sum()
}

/// A serving run's answers, keyed by request id for the oracle.
fn served(out: &ServeOutcome) -> Keyed {
    answers_keyed(out.responses.iter().map(|r| (r.id, &r.answer)))
}

fn main() {
    let args = Args::from_env();
    let quick = args.get("quick", 0u32) == 1;
    let seed = args.seed();
    let reduction = args.reduction(if quick { 9 } else { 7 });
    let requests = args.get("requests", if quick { 10usize } else { 40 });
    let edits = if quick { 2 } else { 4 };

    let datasets: &[DatasetId] = if quick {
        &[DatasetId::Smallworld]
    } else {
        &[
            DatasetId::Smallworld,
            DatasetId::CaidaRouterLevel,
            DatasetId::DelaunayN20,
        ]
    };

    let mut workloads = Vec::new();
    let mut batching = Vec::new();
    let mut all_rows: Vec<ServeRow> = Vec::new();

    for &id in datasets {
        let g = id.generate(reduction, seed);
        let name = id.name();
        let batched = ServeConfig {
            window: 0.02,
            ..ServeConfig::default()
        };

        // ---- open loop: batched + cached, held to cold recompute ----
        let events = serve_stream(&g, requests, edits, seed);
        let n_queries = events
            .iter()
            .filter(|e| matches!(e, Event::Query(_)))
            .count();
        let refs = cold_references(&g, &batched, &events);
        let cold = answers_keyed(refs.iter().map(|(&id, a)| (id, a)));
        let t = Instant::now();
        let mut server = BcServer::single(g.clone(), batched.clone());
        let out = server.run(events.clone()).expect("batched serving run");
        let wall = t.elapsed().as_secs_f64();

        let divergence = diverge(&cold, &served(&out));
        let bitwise = divergence.is_none();
        assert!(
            bitwise,
            "{name}: batched responses diverge from cold recompute: {}",
            divergence.map_or(String::new(), |d| d.to_string())
        );
        let stats = server.cache_stats();
        assert!(
            stats.hits > 0,
            "{name}: open-loop workload never hit the cache"
        );

        let latencies: Vec<f64> = out.responses.iter().map(|r| r.latency).collect();
        workloads.push(WorkloadPoint {
            dataset: name,
            mode: "open",
            vertices: g.num_vertices(),
            requests: n_queries,
            edits,
            batches: out.rows.iter().filter(|r| r.event == "batch").count(),
            window_seconds: batched.window,
            p50_seconds: percentile(&latencies, 50.0),
            p95_seconds: percentile(&latencies, 95.0),
            p99_seconds: percentile(&latencies, 99.0),
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            cache_evictions: stats.evictions,
            cache_hit_rate: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
            invalidated_roots: out.rows.iter().map(|r| r.invalidated_roots).sum(),
            carried_roots: out.rows.iter().map(|r| r.carried_roots).sum(),
            full_invalidations: out.rows.iter().filter(|r| r.full_invalidation).count(),
            priced_seconds_total: priced_total(&out.rows),
            host_wall_seconds: wall,
        });
        all_rows.extend(out.rows.iter().cloned());

        // ---- unbatched, uncached baseline on the same stream ----
        let unbatched = ServeConfig {
            window: 0.0,
            cache_budget_bytes: 0,
            ..ServeConfig::default()
        };
        let mut baseline = BcServer::single(g.clone(), unbatched);
        let base_out = baseline.run(events).expect("unbatched serving run");
        if let Some(d) = diverge(&cold, &served(&base_out)) {
            panic!("{name}: unbatched baseline diverges from cold recompute: {d}");
        }
        let batched_priced = priced_total(&out.rows);
        let unbatched_priced = priced_total(&base_out.rows);
        assert!(
            batched_priced < unbatched_priced,
            "{name}: batching+caching did not reduce priced seconds \
             ({batched_priced} vs {unbatched_priced})"
        );
        batching.push(BatchingPoint {
            dataset: name,
            requests: n_queries,
            batched_priced_seconds: batched_priced,
            unbatched_priced_seconds: unbatched_priced,
            batching_gain: unbatched_priced / batched_priced,
            bitwise_identical_to_cold: bitwise,
        });

        // ---- closed loop: think-time throttled clients ----
        let clients = if quick { 2 } else { 4 };
        let per_client = requests.div_ceil(clients);
        let mut driver = ClosedLoop::new(
            "default",
            QueryMix::for_graph(g.num_vertices()),
            clients,
            per_client,
            10.0,
            seed,
        );
        let t = Instant::now();
        let mut server = BcServer::single(g.clone(), batched.clone());
        let mut closed_latencies = Vec::new();
        let rows_before = 0usize;
        while !driver.done() {
            let wave = driver.next_wave();
            let out = server.run(wave).expect("closed-loop wave");
            closed_latencies.extend(out.responses.iter().map(|r| r.latency));
            let completions: Vec<(u64, f64)> =
                out.responses.iter().map(|r| (r.id, r.completed)).collect();
            driver.record_completions(&completions);
        }
        let wall = t.elapsed().as_secs_f64();
        let stats = server.cache_stats();
        assert!(
            stats.hits > 0,
            "{name}: closed-loop workload never hit the cache"
        );
        workloads.push(WorkloadPoint {
            dataset: name,
            mode: "closed",
            vertices: g.num_vertices(),
            requests: closed_latencies.len(),
            edits: 0,
            batches: server.rows()[rows_before..]
                .iter()
                .filter(|r| r.event == "batch")
                .count(),
            window_seconds: batched.window,
            p50_seconds: percentile(&closed_latencies, 50.0),
            p95_seconds: percentile(&closed_latencies, 95.0),
            p99_seconds: percentile(&closed_latencies, 99.0),
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            cache_evictions: stats.evictions,
            cache_hit_rate: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
            invalidated_roots: 0,
            carried_roots: 0,
            full_invalidations: 0,
            priced_seconds_total: priced_total(server.rows()),
            host_wall_seconds: wall,
        });
        all_rows.extend(server.rows().iter().cloned());
    }

    // ---- report ----
    println!("\nworkloads:");
    print_table(
        &[
            "dataset", "mode", "req", "batches", "p50", "p95", "p99", "hit rate", "priced",
        ],
        &workloads
            .iter()
            .map(|w| {
                vec![
                    w.dataset.to_string(),
                    w.mode.to_string(),
                    w.requests.to_string(),
                    w.batches.to_string(),
                    fmt_seconds(w.p50_seconds),
                    fmt_seconds(w.p95_seconds),
                    fmt_seconds(w.p99_seconds),
                    format!("{:.0}%", w.cache_hit_rate * 100.0),
                    fmt_seconds(w.priced_seconds_total),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\nbatching vs unbatched baseline (same stream, cold reference checked):");
    print_table(
        &["dataset", "req", "batched", "unbatched", "gain", "bitwise"],
        &batching
            .iter()
            .map(|b| {
                vec![
                    b.dataset.to_string(),
                    b.requests.to_string(),
                    fmt_seconds(b.batched_priced_seconds),
                    fmt_seconds(b.unbatched_priced_seconds),
                    format!("{:.2}x", b.batching_gain),
                    b.bitwise_identical_to_cold.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let report = Report {
        reduction,
        seed,
        requests,
        workloads,
        batching,
    };
    let stem = if quick {
        "BENCH_serve_smoke"
    } else {
        "BENCH_serve"
    };
    write_json(stem, &report);
    let jsonl_path = bc_bench::out_dir().join(format!("{stem}.jsonl"));
    std::fs::write(&jsonl_path, serve_to_jsonl(&all_rows)).expect("write serve rows");
    eprintln!("wrote {}", jsonl_path.display());
}
