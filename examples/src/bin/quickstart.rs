//! Quickstart: compute betweenness centrality on a small-world graph
//! with every backend the library offers — sequential Brandes, the
//! rayon CPU baseline, and all six simulated GPU methods — and show
//! that they agree while costing very different (simulated) time.
//!
//! ```text
//! cargo run -p bc-examples --release --bin quickstart
//! ```

use bc_core::{brandes, cpu_parallel, BcOptions, Method};
use bc_graph::gen;

fn main() {
    // A 2,000-vertex Watts–Strogatz graph: the "smallworld" class of
    // the paper's Table II at toy scale.
    let g = gen::watts_strogatz(2000, 10, 0.1, 42);
    println!(
        "graph: {} vertices, {} undirected edges\n",
        g.num_vertices(),
        g.num_undirected_edges()
    );

    // Ground truth on the host.
    let exact = brandes::betweenness(&g);
    let parallel = cpu_parallel::betweenness(&g).expect("CPU Brandes: no worker panic, σ fits f64");
    let max_dev = exact
        .iter()
        .zip(&parallel)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("sequential vs rayon CPU baseline: max |Δ| = {max_dev:.2e}");

    // The five most central vertices.
    let mut ranked: Vec<(u32, f64)> = exact
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as u32, s))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 vertices by betweenness:");
    for (v, s) in ranked.iter().take(5) {
        println!("  vertex {v:>5}: {s:.1}");
    }

    // Every simulated GPU method computes the same scores; the
    // simulated GTX Titan time tells you which strategy you'd want.
    println!(
        "\nsimulated GeForce GTX Titan, exact BC (all {} roots):",
        g.num_vertices()
    );
    println!(
        "{:>16}  {:>12}  {:>10}  {:>12}",
        "method", "sim. time", "MTEPS", "max |Δ|"
    );
    for method in Method::all() {
        match method.run(&g, &BcOptions::default()) {
            Ok(run) => {
                let dev = exact
                    .iter()
                    .zip(&run.scores)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                println!(
                    "{:>16}  {:>10.4}s  {:>10.1}  {:>12.2e}",
                    method.name(),
                    run.report.full_seconds,
                    run.report.mteps(),
                    dev
                );
            }
            Err(e) => println!("{:>16}  failed: {e}", method.name()),
        }
    }
    println!(
        "\n(the hybrid/sampling rows match the best of work-efficient and edge-parallel: \
         that is the paper's contribution)"
    );
}
