//! `hybrid-bc` — command-line betweenness centrality.
//!
//! Loads or generates a graph, runs one of the paper's methods (on
//! the simulated GPU) or a host reference, and reports scores plus
//! the simulation report. See `--help`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod args;

use args::{Cli, RunMethod};
use bc_core::{brandes, BcOptions, RootSelection};
use bc_graph::{io, relabel::RelabeledCsr, Csr, DatasetId, Relabeling};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Instant;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cli = match args::parse(&raw) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("hybrid-bc") { 0 } else { 2 });
        }
    };
    if let Err(msg) = run(&cli) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

fn load_graph(cli: &Cli) -> Result<Csr, String> {
    if let Some(path) = &cli.graph {
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let g = if path.ends_with(".mtx") {
            io::read_matrix_market(file).map_err(|e| e.to_string())?
        } else if path.ends_with(".bin") {
            io::read_binary(file).map_err(|e| e.to_string())?
        } else if path.ends_with(".txt") || path.ends_with(".el") || path.ends_with(".edges") {
            io::read_edge_list(file).map_err(|e| e.to_string())?
        } else {
            io::read_metis(file).map_err(|e| e.to_string())?
        };
        Ok(g)
    } else {
        let name = cli
            .dataset
            .as_deref()
            .ok_or("one of --graph or --dataset is required")?;
        let d = DatasetId::from_name(name).ok_or_else(|| {
            format!(
                "unknown dataset '{name}' (known: {})",
                DatasetId::ALL.map(|d| d.name()).join(", ")
            )
        })?;
        Ok(d.generate(cli.reduction, cli.seed))
    }
}

fn run(cli: &Cli) -> Result<(), String> {
    let t0 = Instant::now();
    let loaded = load_graph(cli)?;
    eprintln!(
        "graph: {} vertices, {} undirected edges ({}; loaded in {:.2?})",
        loaded.num_vertices(),
        loaded.num_undirected_edges(),
        if loaded.is_symmetric() {
            "undirected"
        } else {
            "directed"
        },
        t0.elapsed()
    );

    if let Some(nodes) = cli.cluster {
        return run_on_cluster(cli, &loaded, nodes);
    }
    if let Some(requests) = cli.serve {
        return run_serve(cli, &loaded, requests);
    }

    // --relabel: renumber the graph after load. Roots are resolved in
    // the ORIGINAL numbering and mapped through the permutation, and
    // scores are restored before any output, so everything downstream
    // of this block (top-K, --out, --verify) sees original vertex ids.
    let relabel: Option<RelabeledCsr> =
        (cli.relabel != Relabeling::None).then(|| bc_graph::relabel::apply(&loaded, cli.relabel));
    let g = relabel.as_ref().map_or(&loaded, |r| &r.graph);
    let roots_sel = match &relabel {
        None => cli.roots.clone(),
        Some(r) => {
            eprintln!(
                "relabel: {} — vertices renumbered by descending degree (scores are \
                 restored to the original numbering)",
                r.relabeling().name()
            );
            RootSelection::Explicit(r.map_roots(&cli.roots.resolve(loaded.num_vertices())))
        }
    };

    let t1 = Instant::now();
    let (scores, report) = match &cli.method {
        RunMethod::Sequential | RunMethod::CpuParallel => {
            let roots = roots_sel.resolve(g.num_vertices());
            let mut scores = match cli.method {
                RunMethod::Sequential => brandes::betweenness_from_roots(g, roots.iter().copied()),
                _ => bc_core::parallel::cpu_betweenness_from_roots(
                    g,
                    &roots,
                    cli.threads,
                    cli.schedule,
                )
                .map_err(|e| e.to_string())?,
            };
            if cli.normalize {
                brandes::normalize(&mut scores, g.is_symmetric());
            }
            eprintln!(
                "{} Brandes over {} roots: {:.2?} host wall time",
                cli.method.name(),
                roots.len(),
                t1.elapsed()
            );
            (scores, None)
        }
        RunMethod::Simulated(method) => {
            let opts = BcOptions {
                device: cli.device.clone(),
                roots: roots_sel.clone(),
                normalize: cli.normalize,
                threads: cli.threads,
                traversal: cli.traversal,
                schedule: cli.schedule,
                partition: cli.partition,
            };
            // Metering only observes values the engine already
            // computed, so the metered run is bitwise identical.
            let run = if let Some(path) = &cli.metrics {
                let (run, metrics) = method.run_metered(g, &opts).map_err(|e| e.to_string())?;
                write_metrics(path, &bc_metrics::run_to_jsonl(&metrics))?;
                eprintln!(
                    "wrote metrics for {} root(s) to {path}",
                    metrics.per_root.len()
                );
                run
            } else if cli.degrade {
                let run = bc_core::run_or_degrade(g, method, &opts).map_err(|e| e.to_string())?;
                print_degradation(run.report.degradation.as_ref());
                run
            } else {
                method.run(g, &opts).map_err(|e| e.to_string())?
            };
            eprintln!(
                "{} on simulated {}: {:.3}s simulated ({:.1} MTEPS), {:.2?} host wall time",
                method.name(),
                cli.device.name,
                run.report.full_seconds,
                run.report.mteps(),
                t1.elapsed()
            );
            if let Some((push, pull)) = run.report.traversal_iterations {
                eprintln!(
                    "traversal {}: {push} push / {pull} bottom-up forward launches",
                    cli.traversal.name()
                );
            }
            if let Some(plan) = &run.report.partition {
                eprintln!(
                    "partition: CSR exceeded device memory; streamed {} resident slice(s) \
                     from host (per-root swap time is priced into the report)",
                    plan.num_slices()
                );
            }
            if let RootSelection::Strided(k) = cli.roots {
                eprintln!(
                    "(scores are partial sums over {k} sampled roots; simulated time is \
                     extrapolated to all roots)"
                );
            }
            (run.scores, Some(run.report))
        }
    };
    // Undo the relabeling permutation so every consumer below —
    // top-K, --out, --verify — sees the original vertex numbering.
    let scores = match &relabel {
        None => scores,
        Some(r) => r.restore_scores(&scores),
    };

    // Top-K table.
    if cli.top > 0 {
        let mut ranked: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .map(|(v, &s)| (v as u32, s))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("top {} vertices by betweenness:", cli.top.min(ranked.len()));
        for (v, s) in ranked.iter().take(cli.top) {
            println!("{v:>10}  {s:.6}");
        }
    }

    if let Some(path) = &cli.out {
        let mut w = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        for s in &scores {
            writeln!(w, "{s}").map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote {} scores to {path}", scores.len());
    }

    if cli.json {
        if let Some(report) = &report {
            println!(
                "{}",
                serde_json::to_string_pretty(report).map_err(|e| e.to_string())?
            );
        } else {
            eprintln!("(--json applies to simulated methods only)");
        }
    }

    if cli.verify {
        verify_run(cli, &loaded, &scores)?;
    }
    Ok(())
}

/// `--cluster N`: run the multi-GPU runner, optionally under an
/// injected fault schedule, and report scores, timing, and the fault
/// counters. Recoverable fault schedules yield scores bitwise
/// identical to the fault-free run; unrecoverable ones exit with the
/// structured error (and a note on what partial work completed).
fn run_on_cluster(cli: &Cli, g: &Csr, nodes: usize) -> Result<(), String> {
    let RunMethod::Simulated(method) = &cli.method else {
        return Err("--cluster requires a simulated GPU method".to_owned());
    };
    let n = g.num_vertices();
    let cfg = bc_cluster::ClusterConfig {
        nodes,
        gpus_per_node: 3,
        device: cli.device.clone(),
        network: bc_cluster::NetworkConfig::keeneland(),
        method: method.clone(),
        traversal: cli.traversal,
        schedule: cli.schedule,
    };
    let sample_roots = match &cli.roots {
        RootSelection::All => n,
        RootSelection::FirstK(k) | RootSelection::Strided(k) => *k,
        RootSelection::Explicit(v) => v.len(),
    };

    let durability = bc_cluster::DurabilityOptions {
        checkpoint: cli.checkpoint.as_ref().map(std::path::PathBuf::from),
        deadline_factor: cli.deadline_factor,
        degrade: cli.degrade,
    };
    let t = Instant::now();
    let outcome = if cli.metrics.is_some() {
        bc_cluster::run_cluster_durable_metered(g, &cfg, sample_roots, &cli.faults, &durability)
    } else {
        bc_cluster::run_cluster_durable(g, &cfg, sample_roots, &cli.faults, &durability)
            .map(|run| (run, bc_metrics::ClusterMetrics::default()))
    };
    let (run, cluster_metrics) = match outcome {
        Ok(out) => out,
        Err(e) => {
            if let Some(partial) = e.partial() {
                eprintln!(
                    "partial result before failure: {} root(s) completed, checksum {:#018x}",
                    partial.report.roots_sampled, partial.report.checksum
                );
            }
            return Err(e.to_string());
        }
    };
    print_degradation(run.report.degradation.as_ref());
    let planned_roots = match &run.report.degradation {
        Some(bc_core::Degradation::Sampled { sources, .. }) => *sources,
        _ => sample_roots.min(n),
    };
    if cli.checkpoint.is_some() && run.report.roots_sampled < planned_roots {
        eprintln!(
            "checkpoint: resumed — {} of {planned_roots} root(s) were already on disk",
            planned_roots - run.report.roots_sampled,
        );
    }
    if let Some(path) = &cli.metrics {
        write_metrics(path, &bc_metrics::cluster_to_jsonl(&cluster_metrics))?;
        eprintln!(
            "wrote metrics for {} GPU(s) to {path}",
            cluster_metrics.per_gpu.len()
        );
    }
    let report = run.report;
    eprintln!(
        "{} on {} node(s) / {} simulated {}: {:.3}s simulated \
         ({:.2} GTEPS; compute {:.3}s + reduce {:.3}s), {:.2?} host wall time",
        method.name(),
        report.nodes,
        report.gpus,
        cli.device.name,
        report.total_seconds,
        report.gteps(),
        report.compute_seconds,
        report.reduce_seconds,
        t.elapsed()
    );
    let f = &report.faults;
    if !cli.faults.is_none() {
        eprintln!(
            "faults: {} transient / {} oom / {} panics contained; {} retries \
             ({:.3}s backoff); {} GPU(s) lost, {} root(s) reassigned ({:.3}s); \
             {} straggler(s) (+{:.3}s); reduce {} dropped / {} corrupted; \
             +{:.3}s total",
            f.transient_faults,
            f.oom_faults,
            f.panics_contained,
            f.retries,
            f.backoff_seconds,
            f.dead_gpus,
            f.reassigned_roots,
            f.reassign_seconds,
            f.straggler_gpus,
            f.straggler_seconds,
            f.reduce_drops,
            f.reduce_corruptions,
            f.added_seconds
        );
        if f.watchdog_cancellations > 0 {
            eprintln!(
                "watchdog: {} root(s) cancelled off deadline-blowing GPU(s) and migrated \
                 (+{:.3}s burned budget)",
                f.watchdog_cancellations, f.watchdog_seconds
            );
        }
        eprintln!(
            "scores verified: checksum {:#018x} (bitwise identical to the fault-free schedule)",
            report.checksum
        );
    }
    if report.roots_sampled < n {
        eprintln!(
            "(scores are partial sums over {} sampled roots; simulated time is \
             extrapolated to all roots)",
            report.roots_sampled
        );
    }

    let mut scores = run.scores;
    if cli.normalize {
        brandes::normalize(&mut scores, g.is_symmetric());
    }

    if cli.top > 0 {
        let mut ranked: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .map(|(v, &s)| (v as u32, s))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("top {} vertices by betweenness:", cli.top.min(ranked.len()));
        for (v, s) in ranked.iter().take(cli.top) {
            println!("{v:>10}  {s:.6}");
        }
    }

    if let Some(path) = &cli.out {
        let mut w = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
        for s in &scores {
            writeln!(w, "{s}").map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote {} scores to {path}", scores.len());
    }

    if cli.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    }

    if cli.verify {
        verify_run(cli, g, &scores)?;
    }
    Ok(())
}

/// `--serve N`: feed a seeded open-loop workload of N randomized
/// queries (optionally interleaved with `--serve-edits` edge edits)
/// through the batched, epoch-cached query server and report latency
/// percentiles plus cache behavior. `--metrics FILE` writes one
/// `{"kind":"serve"}` JSONL row per batch and per edit.
fn run_serve(cli: &Cli, g: &Csr, requests: usize) -> Result<(), String> {
    use bc_serve::{open_loop_events, percentile, random_edits, BcServer, QueryMix, ServeConfig};
    let config = ServeConfig {
        device: cli.device.clone(),
        threads: cli.threads,
        schedule: cli.schedule,
        traversal: cli.traversal,
        normalize: cli.normalize,
        window: cli.serve_window,
        ..ServeConfig::default()
    };
    eprintln!(
        "serve: {requests} request(s), window {}s, {} edit(s), cache {} MiB",
        config.window,
        cli.serve_edits,
        config.cache_budget_bytes >> 20
    );

    let t = Instant::now();
    let mix = QueryMix::for_graph(g.num_vertices());
    let mut events = open_loop_events("default", &mix, requests, 50.0, 0, cli.seed);
    let span = events.last().map(|e| e.at()).unwrap_or(0.0);
    events.extend(random_edits(g, "default", cli.serve_edits, span, cli.seed));
    let mut server = BcServer::single(g.clone(), config);
    let out = server.run(events).map_err(|e| e.to_string())?;

    let latencies: Vec<f64> = out.responses.iter().map(|r| r.latency).collect();
    let batches = out.rows.iter().filter(|r| r.event == "batch").count();
    let stats = server.cache_stats();
    println!(
        "served {} request(s) in {batches} batch(es): p50 {:.6}s / p95 {:.6}s / p99 {:.6}s \
         simulated latency ({:.2?} host wall time)",
        latencies.len(),
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
        t.elapsed()
    );
    println!(
        "cache: {} hit(s), {} miss(es), {} eviction(s); {} contribution(s) resident; \
         final epoch {}",
        stats.hits,
        stats.misses,
        stats.evictions,
        server.cache_len(),
        server.epoch("default").unwrap_or(0)
    );
    if let Some(path) = &cli.metrics {
        write_metrics(path, &bc_metrics::serve_to_jsonl(&out.rows))?;
        eprintln!("wrote {} serve row(s) to {path}", out.rows.len());
    }
    Ok(())
}

/// Report what the graceful-degradation ladder decided, if anything.
fn print_degradation(d: Option<&bc_core::Degradation>) {
    match d {
        Some(bc_core::Degradation::Partitioned { slices }) => eprintln!(
            "degraded: CSR exceeded device memory; streamed {slices} resident slice(s) \
             out-of-core (scores bitwise identical; swap time priced into the report)"
        ),
        Some(bc_core::Degradation::Sampled {
            method,
            sources,
            error_bound,
        }) => eprintln!(
            "degraded: method cannot fit device memory even partitioned; approximated \
             with '{method}' from {sources} sampled source(s) (Hoeffding bound {error_bound:.4} \
             on normalized scores at 90% confidence)"
        ),
        None => {}
    }
}

/// Write a metrics JSONL blob (`--metrics FILE`).
fn write_metrics(path: &str, jsonl: &str) -> Result<(), String> {
    let mut w = BufWriter::new(File::create(path).map_err(|e| format!("create {path}: {e}"))?);
    w.write_all(jsonl.as_bytes()).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())
}

/// Run the bc-verify layer against this invocation's graph and
/// scores: CSR invariants, a race-checked traced replay of a few
/// roots, score sanity, and — for exact unnormalized all-roots runs
/// on small graphs — the Brandes pair-sum identity.
fn verify_run(cli: &Cli, g: &Csr, scores: &[f64]) -> Result<(), String> {
    let t = Instant::now();
    let mut problems = 0usize;

    let csr = bc_verify::check_csr(g);
    for v in &csr {
        eprintln!("verify FAIL: {v}");
    }
    problems += csr.len();

    let n = g.num_vertices();
    let traced_roots = 4.min(n);
    let mut events = 0u64;
    for i in 0..traced_roots {
        let root = ((i * n) / traced_roots) as u32;
        // Replay under the traversal the run actually used, so a
        // pull/auto invocation race-checks the bottom-up kernel it
        // launched, not just the push path.
        let v = if cli.traversal == bc_core::TraversalMode::Push {
            bc_verify::verify_root(g, root, &cli.device)
        } else {
            bc_verify::verify_root_with(
                g,
                root,
                &cli.device,
                bc_core::DirectionOptimizingModel::new(cli.traversal),
            )
        };
        events += v.events;
        for r in &v.races {
            eprintln!("verify FAIL (root {root}): {r}");
        }
        for viol in &v.violations {
            eprintln!("verify FAIL (root {root}): {viol}");
        }
        problems += v.races.len() + v.violations.len();
    }

    let bad_scores = bc_verify::check_scores(scores);
    for v in &bad_scores {
        eprintln!("verify FAIL: {v}");
    }
    problems += bad_scores.len();

    // The pair-sum identity only holds for exact, unnormalized,
    // all-roots scores, and costs an all-pairs BFS — gate it to small
    // instances.
    if cli.roots == RootSelection::All && !cli.normalize && n <= 4096 {
        let pair = bc_verify::check_pair_sum(g, scores);
        for v in &pair {
            eprintln!("verify FAIL: {v}");
        }
        problems += pair.len();
    }

    if problems > 0 {
        return Err(format!("--verify found {problems} problem(s)"));
    }
    eprintln!(
        "verify: clean — CSR invariants, {traced_roots} traced roots ({events} events, race-free), \
         score sanity ({:.2?})",
        t.elapsed()
    );
    Ok(())
}
