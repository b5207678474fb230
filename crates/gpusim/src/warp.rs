//! SIMT lockstep arithmetic.
//!
//! A warp executes its 32 lanes in lockstep: a loop runs for as many
//! *steps* as its longest lane needs, idle lanes masked off. The
//! divergence penalty of the paper's Figure 2 (threads with unequal
//! edge counts) is exactly the gap between `sum(trips)/32` and the
//! warp-step counts computed here. Every priced level calls into this
//! module, so none of its functions allocates.

/// Warp steps for work items assigned **round-robin** to `threads`
/// lanes (item `i` goes to lane `i % threads`), where item `i` costs
/// `trips[i]` steps. Returns the sum over warps of the maximum lane
/// total — the number of serialized lockstep steps the block issues.
///
/// This is the work-efficient kernel's distribution: queue entries
/// dealt to threads in order, each thread walking its vertices'
/// adjacency lists. Each lane's total is a stride-`threads` walk over
/// `trips`, so the per-item work has no division and the call
/// allocates nothing.
pub fn round_robin_warp_steps(trips: &[u32], threads: u32, warp_size: u32) -> u64 {
    assert!(threads > 0 && warp_size > 0 && threads % warp_size == 0);
    let (threads, warp_size) = (threads as usize, warp_size as usize);
    // Lanes at or past `trips.len()` hold no item and cannot raise a
    // warp's maximum.
    let lanes = trips.len().min(threads);
    (0..lanes)
        .step_by(warp_size)
        .map(|first| {
            (first..(first + warp_size).min(lanes))
                .map(|lane| {
                    trips[lane..]
                        .iter()
                        .step_by(threads)
                        .map(|&t| u64::from(t))
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0)
        })
        .sum()
}

/// Warp steps for `total` *uniform* work items spread as evenly as
/// possible over `threads` lanes (the edge-parallel distribution:
/// every item costs one step).
///
/// Closed form of [`round_robin_warp_steps`] with `trips = [1; total]`.
pub fn balanced_warp_steps(total: u64, threads: u32, warp_size: u32) -> u64 {
    assert!(threads > 0 && warp_size > 0 && threads % warp_size == 0);
    if total == 0 {
        return 0;
    }
    let t = threads as u64;
    let w = warp_size as u64;
    let q = total / t;
    let r = total % t;
    let warps = t / w;
    let heavy_warps = r.div_ceil(w).min(warps);
    if q == 0 {
        heavy_warps
    } else {
        heavy_warps * (q + 1) + (warps - heavy_warps) * q
    }
}

/// The idealized lower bound: perfectly balanced lanes with no
/// divergence (`ceil(total / warp_size)` steps spread over all warps
/// in parallel — reported per-block as serialized warp rounds).
pub fn ideal_warp_steps(total: u64, warp_size: u32) -> u64 {
    total.div_ceil(warp_size as u64)
}

/// Divergence efficiency: ratio of useful lane-steps to issued
/// lane-steps (1.0 = perfectly converged).
pub fn divergence_efficiency(trips: &[u32], threads: u32, warp_size: u32) -> f64 {
    let useful: u64 = trips.iter().map(|&t| t as u64).sum();
    if useful == 0 {
        return 1.0;
    }
    let steps = round_robin_warp_steps(trips, threads, warp_size);
    useful as f64 / (steps * warp_size as u64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_work_is_free() {
        assert_eq!(round_robin_warp_steps(&[], 256, 32), 0);
        assert_eq!(balanced_warp_steps(0, 256, 32), 0);
    }

    #[test]
    fn single_item_costs_its_trips() {
        assert_eq!(round_robin_warp_steps(&[7], 256, 32), 7);
    }

    #[test]
    fn uniform_items_match_closed_form() {
        for total in [1u64, 31, 32, 33, 255, 256, 257, 1000, 4096] {
            let trips = vec![1u32; total as usize];
            assert_eq!(
                round_robin_warp_steps(&trips, 256, 32),
                balanced_warp_steps(total, 256, 32),
                "total = {total}"
            );
        }
    }

    #[test]
    fn divergence_costs_max_lane() {
        // One heavy lane in a warp of otherwise light lanes: the warp
        // pays for the heavy lane.
        let mut trips = vec![1u32; 32];
        trips[5] = 100;
        assert_eq!(round_robin_warp_steps(&trips, 32, 32), 100);
    }

    #[test]
    fn round_robin_accumulates_across_rounds() {
        // 64 items on 32 threads: lane i gets items i and i+32.
        let mut trips = vec![1u32; 64];
        trips[0] = 10; // lane 0 total 11
        assert_eq!(round_robin_warp_steps(&trips, 32, 32), 11);
    }

    #[test]
    fn balanced_steps_examples() {
        // 256 threads = 8 warps. 512 items -> 2 per lane -> each warp
        // max 2 -> 16 steps.
        assert_eq!(balanced_warp_steps(512, 256, 32), 16);
        // 40 items -> lanes 0..40 get 1; warps 0 and 1 active.
        assert_eq!(balanced_warp_steps(40, 256, 32), 2);
        // 257 items -> lane 0 has 2, others 1: warp0 max 2, warps 1..8 max 1.
        assert_eq!(balanced_warp_steps(257, 256, 32), 2 + 7);
    }

    #[test]
    fn ideal_is_lower_bound() {
        for total in [1u64, 100, 1000] {
            assert!(ideal_warp_steps(total, 32) <= balanced_warp_steps(total, 256, 32) * 8);
        }
        assert_eq!(ideal_warp_steps(64, 32), 2);
    }

    #[test]
    fn efficiency_bounds() {
        let uniform = vec![4u32; 256];
        let eff = divergence_efficiency(&uniform, 256, 32);
        assert!((eff - 1.0).abs() < 1e-12);
        let mut skewed = vec![1u32; 256];
        skewed[0] = 1000;
        let eff = divergence_efficiency(&skewed, 256, 32);
        assert!(eff < 0.2, "skewed work should be inefficient, got {eff}");
        assert!(eff > 0.0);
    }

    /// The original formula: lane totals in a heap vector, two
    /// remainders per item. Kept as the oracle for the stride walk.
    fn round_robin_oracle(trips: &[u32], threads: u32, warp_size: u32) -> u64 {
        if trips.is_empty() {
            return 0;
        }
        let active_lanes = (trips.len() as u32).min(threads) as usize;
        let mut lane_totals = vec![0u64; active_lanes];
        for (i, &t) in trips.iter().enumerate() {
            lane_totals[i % threads as usize % active_lanes.max(1)] += t as u64;
        }
        lane_totals
            .chunks(warp_size as usize)
            .map(|w| w.iter().copied().max().unwrap_or(0))
            .sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn round_robin_matches_the_oracle(
            pool in proptest::collection::vec(0u32..1000, 5120..5121),
            k in 1usize..4,
            r_sel in 0usize..1_000_000,
        ) {
            for threads in [32usize, 256, 1024] {
                let r = 1 + r_sel % (threads - 1);
                // Empty, a partial round, whole rounds, and whole
                // rounds plus a partial one.
                for len in [0, r, k * threads, k * threads + r] {
                    let trips = &pool[..len];
                    proptest::prop_assert_eq!(
                        round_robin_warp_steps(trips, threads as u32, 32),
                        round_robin_oracle(trips, threads as u32, 32),
                        "threads {} len {}",
                        threads,
                        len
                    );
                }
            }
        }
    }

    #[test]
    fn more_items_than_threads() {
        let trips = vec![2u32; 1000];
        // 1000 items round-robin on 256 lanes: lanes 0..232 get 4
        // items (8 steps), lanes 232..256 get 3 (6 steps).
        // Warps 0..7: warp 7 spans lanes 224..256 -> max 8.
        assert_eq!(round_robin_warp_steps(&trips, 256, 32), 8 * 8);
    }
}
