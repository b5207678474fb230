//! Phase-aware data-race detection over recorded kernel traces.
//!
//! The concurrency model is the paper's level-synchronous kernel
//! structure: within one level every logical thread runs concurrently
//! with no intra-kernel ordering between distinct threads; a
//! device-wide barrier separates levels, so cross-level conflicts
//! cannot occur. On one array cell within one level:
//!
//! * accesses by a single thread are ordered (program order) — never
//!   a race;
//! * atomic accesses (CAS/add) are word-coherent read-modify-writes —
//!   any combination of atomics from different threads is safe;
//! * a **plain read** against another thread's **atomic write** is
//!   safe on this hardware model: a 4-byte aligned load observes one
//!   coherent value before or after the atomic (this is exactly the
//!   `d[w] = d[v] + 1` check of Algorithm 2, which the paper runs
//!   against concurrent `atomicCAS` updates);
//! * a **plain write** conflicting with *any* access from another
//!   thread is a race: write–write (lost update) or read–write (torn
//!   observation of an in-flight non-atomic RMW).
//!
//! The whole rule therefore reduces to: a cell is racy iff some
//! thread writes it non-atomically while any other thread touches it
//! in the same level.

use crate::trace::{LevelTrace, Trace};
use bc_core::engine::Phase;
use bc_gpusim::trace::{AccessKind, KernelArray};
use std::fmt;

/// Conflict flavor of a detected race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Two threads write the same cell, at least one non-atomically.
    WriteWrite,
    /// One thread writes a cell non-atomically while another reads it.
    ReadWrite,
}

/// One racy cell within one level. Each (level, array, cell) is
/// reported once, with one example conflicting pair.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// Phase of the racy kernel launch.
    pub phase: Phase,
    /// BFS depth of the racy level.
    pub depth: u32,
    /// The array holding the contested cell.
    pub array: KernelArray,
    /// Index of the contested cell.
    pub index: u32,
    /// Conflict flavor.
    pub kind: RaceKind,
    /// An example pair of conflicting logical threads.
    pub threads: (u32, u32),
    /// How many accesses touched the contested cell in the level.
    pub contenders: usize,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} race on {}[{}] at {:?} depth {}: threads {} and {} ({} accesses)",
            self.kind,
            self.array.name(),
            self.index,
            self.phase,
            self.depth,
            self.threads.0,
            self.threads.1,
            self.contenders
        )
    }
}

/// Detect races within one level (one simulated kernel launch).
pub fn check_level(level: &LevelTrace) -> Vec<RaceReport> {
    // Group accesses by cell; sorting keeps the detector allocation-
    // light and deterministic.
    let mut cells: Vec<(KernelArray, u32, u32, AccessKind)> = level
        .events
        .iter()
        .map(|e| (e.array, e.index, e.thread, e.kind))
        .collect();
    cells.sort_unstable();
    let mut reports = Vec::new();
    let mut i = 0;
    while i < cells.len() {
        let (array, index, ..) = cells[i];
        let mut j = i;
        while j < cells.len() && cells[j].0 == array && cells[j].1 == index {
            j += 1;
        }
        let group = &cells[i..j];
        if let Some(report) = check_cell(level, array, index, group) {
            reports.push(report);
        }
        i = j;
    }
    reports
}

/// A cell races iff some thread writes it non-atomically while any
/// other thread touches it.
fn check_cell(
    level: &LevelTrace,
    array: KernelArray,
    index: u32,
    group: &[(KernelArray, u32, u32, AccessKind)],
) -> Option<RaceReport> {
    let plain_writer = group
        .iter()
        .find(|(_, _, _, k)| *k == AccessKind::Write && !k.is_atomic());
    let (_, _, writer_thread, _) = *plain_writer?;
    // Prefer reporting a write-write pair when one exists.
    let other_writer = group
        .iter()
        .find(|(_, _, t, k)| *t != writer_thread && k.is_write());
    let other_any =
        other_writer.or_else(|| group.iter().find(|(_, _, t, _)| *t != writer_thread))?;
    let (_, _, other_thread, other_kind) = *other_any;
    Some(RaceReport {
        phase: level.phase,
        depth: level.depth,
        array,
        index,
        kind: if other_kind.is_write() {
            RaceKind::WriteWrite
        } else {
            RaceKind::ReadWrite
        },
        threads: (writer_thread, other_thread),
        contenders: group.len(),
    })
}

/// Detect races across every level of a trace.
pub fn check_trace(trace: &Trace) -> Vec<RaceReport> {
    trace.levels.iter().flat_map(check_level).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_gpusim::trace::TraceEvent;

    fn level(events: Vec<(u32, KernelArray, u32, AccessKind)>) -> LevelTrace {
        LevelTrace {
            phase: Phase::Backward,
            depth: 1,
            events: events
                .into_iter()
                .map(|(thread, array, index, kind)| TraceEvent {
                    thread,
                    array,
                    index,
                    kind,
                })
                .collect(),
            metrics: None,
        }
    }

    use AccessKind::{AtomicAdd, AtomicCas, Read, Write};
    use KernelArray::{Delta, Dist, Sigma};

    #[test]
    fn plain_write_write_is_flagged() {
        let l = level(vec![(0, Delta, 7, Write), (1, Delta, 7, Write)]);
        let r = check_level(&l);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, RaceKind::WriteWrite);
        assert_eq!(r[0].array, Delta);
    }

    #[test]
    fn plain_write_vs_read_is_flagged() {
        let l = level(vec![(0, Delta, 3, Write), (2, Delta, 3, Read)]);
        let r = check_level(&l);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn atomics_do_not_race_with_each_other_or_readers() {
        let l = level(vec![
            (0, Sigma, 5, AtomicAdd),
            (1, Sigma, 5, AtomicAdd),
            (2, Sigma, 5, Read),
            (0, Dist, 9, AtomicCas),
            (1, Dist, 9, AtomicCas),
            (2, Dist, 9, Read),
        ]);
        assert!(check_level(&l).is_empty());
    }

    #[test]
    fn same_thread_rmw_is_program_ordered() {
        let l = level(vec![(4, Delta, 2, Read), (4, Delta, 2, Write)]);
        assert!(check_level(&l).is_empty());
    }

    #[test]
    fn mixed_atomic_and_plain_write_is_flagged() {
        let l = level(vec![(0, Delta, 1, AtomicAdd), (1, Delta, 1, Write)]);
        let r = check_level(&l);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn shared_bitmap_words_need_the_atomic_or() {
        use KernelArray::NextBits;
        // Two discovered vertices in the same 32-id block announce
        // into the same F_next word.
        let safe = level(vec![
            (3, NextBits, 0, AccessKind::AtomicOr),
            (17, NextBits, 0, AccessKind::AtomicOr),
        ]);
        assert!(check_level(&safe).is_empty());
        let racy = level(vec![
            (3, NextBits, 0, Read),
            (3, NextBits, 0, Write),
            (17, NextBits, 0, Read),
            (17, NextBits, 0, Write),
        ]);
        let r = check_level(&racy);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].array, NextBits);
        assert_eq!(r[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn one_report_per_cell() {
        let l = level(vec![
            (0, Delta, 7, Write),
            (1, Delta, 7, Write),
            (2, Delta, 7, Write),
            (3, Delta, 8, Write),
            (4, Delta, 8, Read),
        ]);
        let r = check_level(&l);
        assert_eq!(r.len(), 2, "cells 7 and 8 each reported once");
        assert_eq!(r[0].contenders, 3);
    }
}
