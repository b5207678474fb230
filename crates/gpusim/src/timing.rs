//! The timing model: converting counted work into simulated seconds.
//!
//! Each search iteration executed by a thread block is summarized as
//! an [`IterationWork`] record; [`DeviceConfig::block_iteration_seconds`]
//! prices it with a roofline-style model distinguishing three memory
//! access patterns (the distinction §III-A of the paper turns on):
//!
//! * **coalesced** streams (edge arrays walked in order) run at the
//!   SM's bandwidth share;
//! * **independent random** words (edge-parallel `d[dst]` probes —
//!   every thread issues them with no dependences) are bandwidth-
//!   bound too, but each word drags a full DRAM sector;
//! * **dependent scattered gathers** (the work-efficient kernel's
//!   offsets → adjacency → per-vertex state chains) are *latency*-
//!   bound: the SM sustains only `scattered_mlp` of them in flight,
//!   and each pays L2 or DRAM latency depending on whether the
//!   per-vertex working set (reported as `working_set_bytes`) fits
//!   in L2. This is what makes small graphs cache-friendly for every
//!   method — reproducing the paper's Figure 5 observation that
//!   edge-parallel is competitive below ~10⁴ vertices — while large
//!   high-diameter graphs devastate the all-edges methods.
//!
//! Compute (SIMT lockstep steps × issue cost, plus warp-amortized
//! atomics) overlaps with memory; an iteration pays the maximum of
//! the two, plus serialized atomic contention and a fixed per-
//! iteration overhead (the per-level kernel relaunch / block-wide
//! synchronization every level-synchronous implementation pays), and
//! optionally a device-wide barrier for fine-grained methods.

use crate::device::DeviceConfig;
use serde::{Deserialize, Serialize};

/// Work performed by one thread block during one search iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IterationWork {
    /// Serialized SIMT lockstep steps (see [`crate::warp`]).
    pub warp_steps: u64,
    /// Bytes moved by coalesced (streaming) accesses.
    pub coalesced_bytes: u64,
    /// Independent random 4-byte accesses (bandwidth-priced, one
    /// DRAM sector each).
    pub random_accesses: u64,
    /// Dependent scattered 4-byte gathers (latency-priced against
    /// `scattered_mlp`).
    pub scattered_accesses: u64,
    /// Dependent probes into an O(n)-bit frontier/visited bitmap
    /// (bottom-up sweeps). A bitmap is 32× denser than the word
    /// arrays behind `scattered_accesses` — n/8 bytes sit in L2 for
    /// every graph this simulator handles — so these are priced at L2
    /// latency against the same `scattered_mlp` budget, and consume
    /// no DRAM bandwidth.
    pub bitmap_accesses: u64,
    /// Bytes of the randomly-accessed working set backing the
    /// scattered gathers (0 = assume it misses L2).
    pub working_set_bytes: u64,
    /// Un-contended atomic operations.
    pub atomics: u64,
    /// Extra serialization events from atomic contention (each costs
    /// a full atomic round-trip, serialized).
    pub contended_atomics: u64,
    /// Whether this iteration ends with a device-wide barrier
    /// (inter-block sync via kernel relaunch).
    pub global_sync: bool,
}

impl IterationWork {
    /// Merge another record into this one (used when a logical
    /// iteration is split across kernel phases).
    pub fn merge(&mut self, other: &IterationWork) {
        self.warp_steps += other.warp_steps;
        self.coalesced_bytes += other.coalesced_bytes;
        self.random_accesses += other.random_accesses;
        self.scattered_accesses += other.scattered_accesses;
        self.bitmap_accesses += other.bitmap_accesses;
        self.working_set_bytes = self.working_set_bytes.max(other.working_set_bytes);
        self.atomics += other.atomics;
        self.contended_atomics += other.contended_atomics;
        self.global_sync |= other.global_sync;
    }
}

impl DeviceConfig {
    /// Expected latency of one dependent scattered gather, given the
    /// working set it targets: L2 latency on hits, DRAM latency on
    /// misses, with the hit rate set by how much of the working set
    /// the L2 can hold.
    pub fn gather_latency_ns(&self, working_set_bytes: u64) -> f64 {
        let hit = if working_set_bytes == 0 {
            0.0
        } else {
            (self.l2_bytes as f64 / working_set_bytes as f64).min(0.95)
        };
        hit * self.l2_latency_ns + (1.0 - hit) * self.dram_latency_ns
    }

    /// Price one block-iteration in seconds.
    pub fn block_iteration_seconds(&self, w: &IterationWork) -> f64 {
        let compute_cycles = w.warp_steps as f64 * self.warp_step_cycles
            + w.atomics as f64 * self.atomic_cycles / self.warp_size as f64;
        let compute_s = self.cycles_to_seconds(compute_cycles);

        // Random words that hit in L2 consume no DRAM bandwidth;
        // misses drag a full sector each.
        let miss = if w.working_set_bytes == 0 {
            1.0
        } else {
            1.0 - (self.l2_bytes as f64 / w.working_set_bytes as f64).min(0.95)
        };
        let dram_bytes = w.coalesced_bytes as f64
            + (w.random_accesses + w.scattered_accesses) as f64
                * self.scattered_tx_bytes as f64
                * miss;
        let bw_s = dram_bytes / self.sm_bandwidth_bytes_s();
        let gather_s =
            w.scattered_accesses as f64 * self.gather_latency_ns(w.working_set_bytes) * 1e-9
                / self.scattered_mlp;
        // Bitmap probes share the scattered-load MLP budget but
        // always hit L2 (n/8 bytes of bits vs 1.5 MB of cache).
        let bitmap_s = w.bitmap_accesses as f64 * self.l2_latency_ns * 1e-9 / self.scattered_mlp;
        let mem_s = bw_s.max(gather_s + bitmap_s);

        // Contended atomics serialize: each conflict costs a full
        // atomic round trip, not amortized across the warp.
        let contention_s = self.cycles_to_seconds(w.contended_atomics as f64 * self.atomic_cycles);

        let overhead_s = self.iteration_overhead_ns * 1e-9
            + if w.global_sync {
                self.global_sync_ns * 1e-9
            } else {
                0.0
            };

        compute_s.max(mem_s) + contention_s + overhead_s
    }
}

/// Makespan of coarse-grained scheduling: `num_blocks` blocks, block
/// `b` processes work items `b, b + B, b + 2B, …` (the strided root
/// distribution of Jia et al. and this paper). Returns the maximum
/// per-block total.
pub fn coarse_grained_makespan(item_seconds: &[f64], num_blocks: u32) -> f64 {
    assert!(num_blocks > 0);
    let mut block_totals = vec![0.0f64; num_blocks as usize];
    for (i, &t) in item_seconds.iter().enumerate() {
        block_totals[i % num_blocks as usize] += t;
    }
    block_totals.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::gtx_titan()
    }

    #[test]
    fn empty_iteration_costs_overhead_only() {
        let d = dev();
        let s = d.block_iteration_seconds(&IterationWork::default());
        assert!((s - d.iteration_overhead_ns * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn global_sync_adds_cost() {
        let d = dev();
        let base = d.block_iteration_seconds(&IterationWork::default());
        let with_sync = d.block_iteration_seconds(&IterationWork {
            global_sync: true,
            ..Default::default()
        });
        assert!((with_sync - base - d.global_sync_ns * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn bandwidth_bound_iteration() {
        let d = dev();
        // 100 MB coalesced: clearly bandwidth bound.
        let w = IterationWork {
            coalesced_bytes: 100_000_000,
            ..Default::default()
        };
        let s = d.block_iteration_seconds(&w);
        let expect = 100e6 / d.sm_bandwidth_bytes_s() + d.iteration_overhead_ns * 1e-9;
        assert!((s - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn dependent_gathers_cost_more_than_anything() {
        let d = dev();
        let words = 1_000_000u64;
        let gathers = d.block_iteration_seconds(&IterationWork {
            scattered_accesses: words,
            ..Default::default()
        });
        let random = d.block_iteration_seconds(&IterationWork {
            random_accesses: words,
            ..Default::default()
        });
        let coalesced = d.block_iteration_seconds(&IterationWork {
            coalesced_bytes: words * 4,
            ..Default::default()
        });
        assert!(
            gathers > 4.0 * random,
            "dependent {gathers} vs random {random}"
        );
        assert!(
            random > 4.0 * coalesced,
            "random {random} vs coalesced {coalesced}"
        );
    }

    #[test]
    fn l2_resident_working_sets_are_cheap() {
        let d = dev();
        let base = IterationWork {
            scattered_accesses: 1_000_000,
            ..Default::default()
        };
        let miss = d.block_iteration_seconds(&base);
        let hit = d.block_iteration_seconds(&IterationWork {
            working_set_bytes: d.l2_bytes / 4, // fully resident
            ..base
        });
        assert!(
            miss > 5.0 * hit,
            "L2-resident gathers should be far cheaper: {miss} vs {hit}"
        );
        // And a huge working set behaves like a miss.
        let big = d.block_iteration_seconds(&IterationWork {
            working_set_bytes: d.l2_bytes * 1000,
            ..base
        });
        assert!((big - miss).abs() / miss < 0.05);
    }

    #[test]
    fn gather_latency_interpolates() {
        let d = dev();
        assert!((d.gather_latency_ns(0) - d.dram_latency_ns).abs() < 1e-12);
        let resident = d.gather_latency_ns(d.l2_bytes / 2);
        // 95% hit cap.
        let expect = 0.95 * d.l2_latency_ns + 0.05 * d.dram_latency_ns;
        assert!((resident - expect).abs() < 1e-9);
        let half = d.gather_latency_ns(d.l2_bytes * 2);
        let expect_half = 0.5 * d.l2_latency_ns + 0.5 * d.dram_latency_ns;
        assert!((half - expect_half).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_iteration() {
        let d = dev();
        let w = IterationWork {
            warp_steps: 10_000_000,
            ..Default::default()
        };
        let s = d.block_iteration_seconds(&w);
        let expect = d.cycles_to_seconds(1e7 * d.warp_step_cycles) + d.iteration_overhead_ns * 1e-9;
        assert!((s - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn contention_serializes() {
        let d = dev();
        let a = d.block_iteration_seconds(&IterationWork {
            atomics: 1000,
            ..Default::default()
        });
        let b = d.block_iteration_seconds(&IterationWork {
            atomics: 1000,
            contended_atomics: 100_000,
            ..Default::default()
        });
        assert!(b > a * 5.0, "contended atomics must hurt: {a} vs {b}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = IterationWork {
            warp_steps: 1,
            coalesced_bytes: 2,
            ..Default::default()
        };
        let b = IterationWork {
            warp_steps: 10,
            scattered_accesses: 5,
            bitmap_accesses: 7,
            random_accesses: 2,
            working_set_bytes: 100,
            atomics: 3,
            contended_atomics: 1,
            global_sync: true,
            coalesced_bytes: 8,
        };
        a.merge(&b);
        assert_eq!(a.warp_steps, 11);
        assert_eq!(a.coalesced_bytes, 10);
        assert_eq!(a.scattered_accesses, 5);
        assert_eq!(a.bitmap_accesses, 7);
        assert_eq!(a.random_accesses, 2);
        assert_eq!(a.working_set_bytes, 100);
        assert_eq!(a.atomics, 3);
        assert_eq!(a.contended_atomics, 1);
        assert!(a.global_sync);
    }

    #[test]
    fn bitmap_probes_price_at_l2_latency() {
        let d = dev();
        let probes = 1_000_000u64;
        let bitmap = d.block_iteration_seconds(&IterationWork {
            bitmap_accesses: probes,
            ..Default::default()
        });
        let expect = probes as f64 * d.l2_latency_ns * 1e-9 / d.scattered_mlp
            + d.iteration_overhead_ns * 1e-9;
        assert!((bitmap - expect).abs() / expect < 1e-9);
        // Far cheaper than the same count of DRAM-missing gathers,
        // and they stack on top of gather latency (shared MLP).
        let gathers = d.block_iteration_seconds(&IterationWork {
            scattered_accesses: probes,
            ..Default::default()
        });
        assert!(gathers > 5.0 * bitmap, "gathers {gathers} bitmap {bitmap}");
        let both = d.block_iteration_seconds(&IterationWork {
            scattered_accesses: probes,
            bitmap_accesses: probes,
            ..Default::default()
        });
        assert!(both > gathers, "bitmap probes must add latency");
    }

    #[test]
    fn makespan_strided() {
        // 4 items on 2 blocks: block0 gets items 0,2; block1 gets 1,3.
        let times = [3.0, 1.0, 2.0, 1.0];
        assert!((coarse_grained_makespan(&times, 2) - 5.0).abs() < 1e-12);
        // One block: everything serial.
        assert!((coarse_grained_makespan(&times, 1) - 7.0).abs() < 1e-12);
        // More blocks than items.
        assert!((coarse_grained_makespan(&times, 8) - 3.0).abs() < 1e-12);
    }
}
