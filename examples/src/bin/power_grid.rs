//! Power-grid contingency analysis — another §I application (Jin et
//! al., IPDPS'10): vertices with high betweenness are the buses whose
//! loss most threatens grid connectivity.
//!
//! This example builds a synthetic transmission grid (a sparse planar
//! backbone plus a few long-distance ties), ranks buses by BC, and
//! compares the damage done by targeted removals against degree-
//! targeted and random removals.
//!
//! ```text
//! cargo run -p bc-examples --release --bin power_grid
//! ```

use bc_core::{BcOptions, Method};
use bc_graph::{builder, gen, traversal, Csr, VertexId};

/// Largest-component fraction after deleting `remove` vertices.
fn damage(g: &Csr, remove: &[VertexId]) -> f64 {
    let dead: std::collections::HashSet<VertexId> = remove.iter().copied().collect();
    let kept = g
        .arcs()
        .filter(|&(u, v)| u < v && !dead.contains(&u) && !dead.contains(&v));
    let pruned = Csr::from_undirected_edges(g.num_vertices(), kept);
    let (largest, _) = builder::largest_component(&pruned);
    largest.num_vertices() as f64 / (g.num_vertices() - remove.len()) as f64
}

fn main() {
    // Synthetic transmission grid: real power grids average ~2.7
    // lines per bus, with long radial feeders hanging off a meshed
    // backbone — the road-network generator produces exactly that
    // shape; a few long-distance ties close the backbone loops.
    let base = gen::road_network(1600, 7);
    let nb = base.num_vertices() as u32;
    let mut edges: Vec<(u32, u32)> = base.arcs().filter(|&(u, v)| u < v).collect();
    for i in 0..4u32 {
        edges.push((i * nb / 9 + 1, (i + 3) * nb / 9));
    }
    let full = Csr::from_undirected_edges(nb as usize, edges);
    let (g, _) = builder::largest_component(&full);
    println!(
        "synthetic grid: {} buses, {} lines, diameter ~{}",
        g.num_vertices(),
        g.num_undirected_edges(),
        traversal::diameter_estimate(&g, 4)
    );

    // Rank buses by betweenness using the simulated GPU (sampling
    // method — the grid is high-diameter, so it will stay
    // work-efficient).
    let run = Method::Sampling(Default::default())
        .run(&g, &BcOptions::default())
        .expect("grid fits in device memory");
    println!(
        "BC computed with the {} method: simulated GPU time {:.3}s ({:.1} MTEPS)",
        run.report.method,
        run.report.full_seconds,
        run.report.mteps()
    );

    let mut by_bc: Vec<u32> = (0..g.num_vertices() as u32).collect();
    by_bc.sort_by(|&a, &b| run.scores[b as usize].total_cmp(&run.scores[a as usize]));
    let mut by_degree: Vec<u32> = (0..g.num_vertices() as u32).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    // "Random": a fixed arbitrary spread.
    let random: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|v| v % 97 == 3)
        .collect();

    // Adaptive BC attack: recompute BC after every removal — the
    // scenario that makes the paper's fast exact BC valuable (each
    // contingency step needs a fresh O(mn) analysis).
    let max_k = 32usize;
    let mut adaptive: Vec<u32> = Vec::with_capacity(max_k);
    {
        let mut current = g.clone();
        for _ in 0..max_k {
            let scores = bc_core::cpu_parallel::betweenness(&current)
                .expect("CPU Brandes: no worker panic, σ fits f64");
            let worst = (0..current.num_vertices() as u32)
                .filter(|v| !adaptive.contains(v))
                .max_by(|&a, &b| scores[a as usize].total_cmp(&scores[b as usize]))
                .unwrap();
            adaptive.push(worst);
            let dead: std::collections::HashSet<u32> = adaptive.iter().copied().collect();
            current = Csr::from_undirected_edges(
                g.num_vertices(),
                g.arcs()
                    .filter(|&(u, v)| u < v && !dead.contains(&u) && !dead.contains(&v)),
            );
        }
    }

    println!("\ncontingency: largest-component fraction after removing k buses");
    println!(
        "{:>4}  {:>12}  {:>10}  {:>10}  {:>10}",
        "k", "adaptive BC", "static BC", "by degree", "random"
    );
    for k in [1usize, 2, 4, 8, 16, 32] {
        let ad_dmg = damage(&g, &adaptive[..k]);
        let bc_dmg = damage(&g, &by_bc[..k]);
        let deg_dmg = damage(&g, &by_degree[..k]);
        let rnd_dmg = damage(&g, &random[..k.min(random.len())]);
        println!(
            "{k:>4}  {:>11.1}%  {:>9.1}%  {:>9.1}%  {:>9.1}%",
            ad_dmg * 100.0,
            bc_dmg * 100.0,
            deg_dmg * 100.0,
            rnd_dmg * 100.0
        );
    }
    println!(
        "\nadaptive BC-targeted removals fragment the grid fastest; each step needs a \
         fresh O(mn) BC pass — exactly the workload the paper accelerates."
    );
}
