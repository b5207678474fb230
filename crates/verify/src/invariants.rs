//! Structural invariant checks over graphs, per-root search state,
//! and final scores.
//!
//! Each check returns every violation it finds (never panicking), so
//! the suite binary and the `--verify` CLI flag can report all
//! problems from one run.

use bc_core::engine::{SearchWorkspace, INFINITY};
use bc_graph::{traversal, Csr, VertexId};
use std::fmt;

/// Relative tolerance for floating-point identities (σ and δ sums are
/// exact small integers or short dyadic sums on the suite's graphs,
/// but accumulation order varies).
const REL_TOL: f64 = 1e-9;

/// One failed invariant: which check, and a human-readable detail.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Stable name of the failed check (e.g. `csr.offsets_monotone`).
    pub check: &'static str,
    /// What was observed.
    pub detail: String,
}

impl Violation {
    /// A violation of `check`, observed as `detail`.
    pub fn new(check: &'static str, detail: impl Into<String>) -> Self {
        Self {
            check,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Validate raw CSR arrays without constructing a [`Csr`] (whose
/// constructor panics on malformed input — useless for testing that
/// corrupted arrays are *rejected*).
///
/// Checks: shape (`offsets` non-empty, terminal value equals
/// `adj.len()`), monotone offsets, in-range targets, sorted and
/// duplicate-free adjacency lists, no self-loops, and — when
/// `symmetric` — the presence of every reverse arc.
pub fn check_csr_parts(offsets: &[u32], adj: &[VertexId], symmetric: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    if offsets.is_empty() {
        out.push(Violation::new(
            "csr.shape",
            "offsets is empty (need n + 1 >= 1 entries)",
        ));
        return out;
    }
    let n = offsets.len() - 1;
    if *offsets.last().unwrap() as usize != adj.len() {
        out.push(Violation::new(
            "csr.shape",
            format!(
                "offsets terminates at {} but adj has {} entries",
                offsets.last().unwrap(),
                adj.len()
            ),
        ));
    }
    if offsets[0] != 0 {
        out.push(Violation::new(
            "csr.offsets_monotone",
            format!("offsets[0] = {} != 0", offsets[0]),
        ));
    }
    let mut monotone = true;
    for (i, w) in offsets.windows(2).enumerate() {
        if w[0] > w[1] {
            out.push(Violation::new(
                "csr.offsets_monotone",
                format!("offsets[{i}] = {} > offsets[{}] = {}", w[0], i + 1, w[1]),
            ));
            monotone = false;
        }
    }
    for (e, &t) in adj.iter().enumerate() {
        if t as usize >= n {
            out.push(Violation::new(
                "csr.targets_in_range",
                format!("adj[{e}] = {t} out of range (n = {n})"),
            ));
        }
    }
    if !out.is_empty() || !monotone {
        // Per-list and symmetry checks index through offsets; skip
        // them when the shape itself is broken.
        return out;
    }
    for u in 0..n {
        let list = &adj[offsets[u] as usize..offsets[u + 1] as usize];
        if !list.windows(2).all(|w| w[0] < w[1]) {
            out.push(Violation::new(
                "csr.lists_sorted_unique",
                format!("adjacency list of {u} is not strictly increasing: {list:?}"),
            ));
        }
        if list.contains(&(u as u32)) {
            out.push(Violation::new(
                "csr.no_self_loops",
                format!("vertex {u} has a self-loop"),
            ));
        }
    }
    if symmetric && out.is_empty() {
        for u in 0..n {
            for &v in &adj[offsets[u] as usize..offsets[u + 1] as usize] {
                let rev = &adj[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];
                if rev.binary_search(&(u as u32)).is_err() {
                    out.push(Violation::new(
                        "csr.symmetric",
                        format!("arc {u} -> {v} present but reverse arc missing"),
                    ));
                }
            }
        }
    }
    out
}

/// Validate a constructed [`Csr`] (see [`check_csr_parts`]).
pub fn check_csr(g: &Csr) -> Vec<Violation> {
    check_csr_parts(g.offsets(), g.adj_array(), g.is_symmetric())
}

/// Validate the search state a forward + backward pass left in `ws`
/// for `root`: stack segmentation, frontier dedup, per-segment
/// distances, finite σ, σ-consistency over the shortest-path DAG,
/// and the per-root dependency identity `Σ_v δ(v) = Σ_t (d(t) − 1)`.
pub fn check_search_state(g: &Csr, root: VertexId, ws: &SearchWorkspace) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = g.num_vertices();
    let s = ws.stack();
    let ends = ws.ends();
    let dist = ws.dist();
    let sigma = ws.sigma();
    let delta = ws.delta();

    // --- ends segmentation -------------------------------------------------
    if ends.len() < 2 || ends[0] != 0 {
        out.push(Violation::new(
            "ends.shape",
            format!("ends = {ends:?} (need [0, 1, ...])"),
        ));
        return out;
    }
    for (i, w) in ends.windows(2).enumerate() {
        if w[0] > w[1] {
            out.push(Violation::new(
                "ends.monotone",
                format!("ends[{i}] = {} > ends[{}] = {}", w[0], i + 1, w[1]),
            ));
        }
    }
    if *ends.last().unwrap() as usize != s.len() {
        out.push(Violation::new(
            "ends.terminal",
            format!(
                "ends terminates at {} but the stack holds {} vertices",
                ends.last().unwrap(),
                s.len()
            ),
        ));
    }
    if !out.is_empty() {
        return out;
    }
    if s.first() != Some(&root) || ends[1] != 1 {
        out.push(Violation::new(
            "stack.root_first",
            format!(
                "segment 0 must be exactly the root {root}; got ends[1] = {}, s[0] = {:?}",
                ends[1],
                s.first()
            ),
        ));
    }

    // --- frontier dedup + per-segment distances ----------------------------
    let mut seen = vec![false; n];
    for (seg, w) in ends.windows(2).enumerate() {
        for &v in &s[w[0] as usize..w[1] as usize] {
            let vi = v as usize;
            if vi >= n {
                out.push(Violation::new(
                    "stack.in_range",
                    format!("stack holds vertex {v} (n = {n})"),
                ));
                continue;
            }
            if std::mem::replace(&mut seen[vi], true) {
                out.push(Violation::new(
                    "stack.dedup",
                    format!("vertex {v} admitted into the stack more than once"),
                ));
            }
            if dist[vi] as usize != seg {
                out.push(Violation::new(
                    "stack.segment_depth",
                    format!("vertex {v} in segment {seg} has d = {}", dist[vi]),
                ));
            }
        }
    }

    // --- unreached vertices are untouched ----------------------------------
    for v in 0..n {
        if seen[v] {
            continue;
        }
        if dist[v] != INFINITY {
            out.push(Violation::new(
                "unreached.dist",
                format!(
                    "vertex {v} is not on the stack but has finite d = {}",
                    dist[v]
                ),
            ));
        }
        if sigma[v] != 0.0 || delta[v] != 0.0 {
            out.push(Violation::new(
                "unreached.sigma_delta",
                format!(
                    "unreached vertex {v} has sigma = {} delta = {}",
                    sigma[v], delta[v]
                ),
            ));
        }
    }

    // --- sigma consistency over the shortest-path DAG ----------------------
    // Path counts are f64: past f64::MAX a count overflows to infinity
    // and every later ratio to NaN. Name the shallowest such vertex.
    if let Some(&v) = s.iter().find(|&&v| !sigma[v as usize].is_finite()) {
        let (x, d) = (sigma[v as usize], dist[v as usize]);
        out.push(Violation::new(
            "sigma.finite",
            format!("sigma[{v}] = {x} at depth {d}: the path count overflowed f64"),
        ));
    }
    if sigma.get(root as usize) != Some(&1.0) {
        out.push(Violation::new(
            "sigma.root",
            format!("sigma[root] = {:?}, expected 1", sigma.get(root as usize)),
        ));
    }
    let mut pred_sum = vec![0.0f64; n];
    for (v, w) in g.arcs() {
        let (vi, wi) = (v as usize, w as usize);
        if dist[vi] != INFINITY && dist[wi] != INFINITY && dist[vi] + 1 == dist[wi] {
            pred_sum[wi] += sigma[vi];
        }
    }
    for &w in s.iter().skip(1) {
        let wi = w as usize;
        if !approx_eq(sigma[wi], pred_sum[wi]) {
            out.push(Violation::new(
                "sigma.tree_sum",
                format!(
                    "sigma[{w}] = {} but its tree-edge predecessors sum to {}",
                    sigma[wi], pred_sum[wi]
                ),
            ));
        }
    }

    // --- dependency identity ------------------------------------------------
    // Summing delta(v) = sum over t != root reached of sigma_{root,t}(v)/sigma_{root,t}
    // across v gives, for each t, (number of interior vertices on a
    // shortest root-t path) = d(t) - 1, independent of path multiplicity.
    let delta_sum: f64 = s.iter().skip(1).map(|&v| delta[v as usize]).sum();
    let expect: f64 = s
        .iter()
        .skip(1)
        .map(|&v| (dist[v as usize] - 1) as f64)
        .sum();
    if !approx_eq(delta_sum, expect) {
        out.push(Violation::new(
            "delta.identity",
            format!("sum of delta = {delta_sum} but sum of (d(t) - 1) over reached t = {expect}"),
        ));
    }
    out
}

/// Final-score sanity: every score finite and non-negative (up to
/// rounding at zero).
pub fn check_scores(scores: &[f64]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (v, &b) in scores.iter().enumerate() {
        if !b.is_finite() {
            out.push(Violation::new("scores.finite", format!("BC[{v}] = {b}")));
        } else if b < -1e-9 {
            out.push(Violation::new(
                "scores.non_negative",
                format!("BC[{v}] = {b}"),
            ));
        }
    }
    out
}

/// Brandes pair-sum identity for an **exact, unnormalized** all-roots
/// run: `Σ_v BC(v) = Σ_s Σ_{t reachable from s, t ≠ s} (d(s,t) − 1)`,
/// halved for symmetric graphs (each unordered pair contributes from
/// both endpoints and the solver halves symmetric scores).
pub fn check_pair_sum(g: &Csr, scores: &[f64]) -> Vec<Violation> {
    let mut expect = 0.0f64;
    for s in g.vertices() {
        for &d in &traversal::bfs_distances(g, s) {
            if d != traversal::UNREACHED && d > 0 {
                expect += (d - 1) as f64;
            }
        }
    }
    if g.is_symmetric() {
        expect *= 0.5;
    }
    let total: f64 = scores.iter().sum();
    if approx_eq(total, expect) {
        Vec::new()
    } else {
        vec![Violation::new(
            "scores.pair_sum",
            format!("sum of BC = {total} but the pair-sum identity gives {expect}"),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_core::engine::{process_root, FreeModel};
    use bc_gpusim::DeviceConfig;
    use bc_graph::gen;

    fn searched(g: &Csr, root: u32) -> SearchWorkspace {
        let mut ws = SearchWorkspace::new(g.num_vertices());
        let mut bc = vec![0.0; g.num_vertices()];
        process_root(
            g,
            root,
            &DeviceConfig::gtx_titan(),
            &mut ws,
            &mut FreeModel,
            &mut bc,
        );
        ws
    }

    #[test]
    fn well_formed_graphs_pass() {
        for g in [
            gen::path(8),
            gen::star(6),
            gen::grid(4, 4),
            gen::erdos_renyi(50, 120, 7),
        ] {
            assert!(check_csr(&g).is_empty(), "{:?}", check_csr(&g));
        }
    }

    #[test]
    fn broken_offsets_rejected() {
        let v = check_csr_parts(&[0, 2, 1, 4], &[1, 2, 0, 2], false);
        assert!(v.iter().any(|v| v.check == "csr.offsets_monotone"), "{v:?}");
    }

    #[test]
    fn out_of_range_target_rejected() {
        let v = check_csr_parts(&[0, 1, 2], &[1, 9], false);
        assert!(v.iter().any(|v| v.check == "csr.targets_in_range"), "{v:?}");
    }

    #[test]
    fn missing_reverse_arc_rejected() {
        // 0 -> 1 without 1 -> 0, claimed symmetric.
        let v = check_csr_parts(&[0, 1, 1], &[1], true);
        assert!(v.iter().any(|v| v.check == "csr.symmetric"), "{v:?}");
    }

    #[test]
    fn search_state_of_real_runs_passes() {
        for g in [gen::path(9), gen::grid(5, 4), gen::erdos_renyi(80, 200, 3)] {
            let ws = searched(&g, 0);
            let v = check_search_state(&g, 0, &ws);
            assert!(v.is_empty(), "{v:?}");
        }
    }

    #[test]
    fn corrupted_sigma_is_caught() {
        let g = gen::grid(4, 4);
        let mut ws = searched(&g, 0);
        // Poke a reached, non-root sigma entry through the test-only
        // mutable accessor path: recompute by hand instead.
        let victim = ws.stack()[ws.stack().len() - 1] as usize;
        ws.corrupt_sigma_for_tests(victim, 99.0);
        let v = check_search_state(&g, 0, &ws);
        assert!(v.iter().any(|v| v.check == "sigma.tree_sum"), "{v:?}");
    }

    #[test]
    fn pair_sum_holds_for_exact_runs() {
        for g in [gen::path(7), gen::grid(3, 5), gen::erdos_renyi(40, 90, 11)] {
            let mut bc = vec![0.0; g.num_vertices()];
            let mut ws = SearchWorkspace::new(g.num_vertices());
            for r in g.vertices() {
                process_root(
                    &g,
                    r,
                    &DeviceConfig::gtx_titan(),
                    &mut ws,
                    &mut FreeModel,
                    &mut bc,
                );
            }
            if g.is_symmetric() {
                for b in bc.iter_mut() {
                    *b *= 0.5;
                }
            }
            assert!(check_scores(&bc).is_empty());
            let v = check_pair_sum(&g, &bc);
            assert!(v.is_empty(), "{v:?}");
        }
    }

    #[test]
    fn bad_scores_are_caught() {
        let v = check_scores(&[1.0, f64::NAN, -3.0]);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].check, "scores.finite");
        assert_eq!(v[1].check, "scores.non_negative");
    }
}
