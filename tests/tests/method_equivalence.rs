//! Every simulated GPU method must compute exactly the scores of
//! sequential Brandes — on every structural class, directed graphs,
//! disconnected graphs, and randomized instances.

use bc_core::{brandes, cpu_parallel, BcOptions, Method, RootSelection};
use bc_graph::{gen, Csr, DatasetId};
use bc_integration::{assert_scores_eq, small_graphs};
use proptest::prelude::*;

fn run_all(method: &Method, g: &Csr) -> Vec<f64> {
    method
        .run(g, &BcOptions::default())
        .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()))
        .scores
}

#[test]
fn all_methods_match_brandes_on_elementary_shapes() {
    for (name, g) in small_graphs() {
        let expect = brandes::betweenness(&g);
        for method in Method::all() {
            let got = run_all(&method, &g);
            assert_eq!(expect.len(), got.len(), "{name}/{}", method.name());
            assert_scores_eq(&expect, &got);
        }
    }
}

#[test]
fn all_methods_match_brandes_on_dataset_analogues() {
    // Small instances of all ten Table II classes, on a strided root
    // sample. 1024 roots exceed sampling's 512-root decision phase, so
    // its second phase runs too.
    let selection = RootSelection::Strided(1024);
    let opts = BcOptions {
        roots: selection.clone(),
        ..BcOptions::default()
    };
    for d in DatasetId::ALL {
        let g = d.small_instance(13);
        let roots = selection.resolve(g.num_vertices());
        let expect = cpu_parallel::betweenness_from_roots(&g, &roots).unwrap();
        // GPU-FAN may OOM on larger instances; these are tiny.
        for method in [
            Method::WorkEfficient,
            Method::Hybrid(Default::default()),
            Method::Sampling(Default::default()),
            Method::EdgeParallel,
        ] {
            let run = method
                .run(&g, &opts)
                .unwrap_or_else(|e| panic!("{} failed: {e}", method.name()));
            assert_eq!(run.report.roots_processed, roots.len(), "{}", d.name());
            if let Method::Sampling(params) = &method {
                assert!(
                    run.report.roots_processed > params.n_samps,
                    "{}: sampling's second phase must run",
                    d.name()
                );
            }
            assert_scores_eq(&expect, &run.scores);
        }
    }
}

#[test]
fn methods_match_on_directed_graphs() {
    let g = Csr::from_directed_edges(
        12,
        [
            (0u32, 1u32),
            (1, 2),
            (2, 3),
            (3, 0),
            (1, 4),
            (4, 5),
            (5, 6),
            (6, 1),
            (4, 7),
            (7, 8),
            (8, 9),
            (9, 10),
            (10, 11),
            (11, 4),
        ],
    );
    let expect = brandes::betweenness(&g);
    for method in Method::all() {
        assert_scores_eq(&expect, &run_all(&method, &g));
    }
}

#[test]
fn partial_root_runs_sum_to_full() {
    let g = gen::watts_strogatz(500, 6, 0.2, 9);
    let expect = brandes::betweenness(&g);
    let first = Method::WorkEfficient
        .run(
            &g,
            &BcOptions {
                roots: RootSelection::Explicit((0..250).collect()),
                ..Default::default()
            },
        )
        .unwrap();
    let second = Method::WorkEfficient
        .run(
            &g,
            &BcOptions {
                roots: RootSelection::Explicit((250..500).collect()),
                ..Default::default()
            },
        )
        .unwrap();
    let sum: Vec<f64> = first
        .scores
        .iter()
        .zip(&second.scores)
        .map(|(a, b)| a + b)
        .collect();
    assert_scores_eq(&expect, &sum);
}

#[test]
fn reference_traversals_match_simulated_methods() {
    use bc_core::methods::reference;
    for seed in 0..3 {
        let g = gen::erdos_renyi(64, 160, seed);
        let expect = brandes::betweenness(&g);
        assert_scores_eq(&expect, &reference::vertex_parallel_bc(&g));
        assert_scores_eq(&expect, &reference::edge_parallel_bc(&g));
        assert_scores_eq(&expect, &run_all(&Method::VertexParallel, &g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_methods_agree_on_random_graphs(
        n in 2usize..48,
        edge_frac in 0.0f64..1.0,
        seed in 0u64..1000,
        directed in proptest::bool::ANY,
    ) {
        let max_edges = n * (n - 1) / 2;
        let m = ((max_edges as f64) * edge_frac) as usize;
        let g = if directed {
            // Reinterpret the undirected sample as arcs both ways on
            // a random orientation subset: build from ER arcs.
            let und = gen::erdos_renyi(n, m, seed);
            Csr::from_directed_edges(
                n,
                und.arcs().filter(|&(u, v)| (u as u64 + v as u64 + seed) % 3 != 0),
            )
        } else {
            gen::erdos_renyi(n, m, seed)
        };
        let expect = brandes::betweenness(&g);
        for method in Method::all() {
            let got = run_all(&method, &g);
            assert_scores_eq(&expect, &got);
        }
    }

    #[test]
    fn prop_bc_bounds_hold(n in 3usize..40, edge_frac in 0.1f64..1.0, seed in 0u64..500) {
        let max_edges = n * (n - 1) / 2;
        let m = ((max_edges as f64) * edge_frac).max(1.0) as usize;
        let g = gen::erdos_renyi(n, m, seed);
        let bc = brandes::betweenness(&g);
        let max_possible = ((n - 1) * (n - 2)) as f64 / 2.0;
        for (v, &s) in bc.iter().enumerate() {
            prop_assert!(s >= -1e-9, "negative BC at {v}");
            prop_assert!(s <= max_possible + 1e-6, "BC at {v} exceeds (n-1)(n-2)/2");
        }
        // Degree-1 vertices lie on no shortest paths between others.
        for v in g.vertices() {
            if g.degree(v) <= 1 {
                prop_assert!(bc[v as usize].abs() < 1e-9);
            }
        }
    }
}
