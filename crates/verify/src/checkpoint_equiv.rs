//! The kill-and-resume transform for the durable cluster runner.
//!
//! The durability layer's claim extends the fault layer's: a run
//! killed at *any* point and resumed from its checkpoint must produce
//! scores bitwise identical to the uninterrupted run, under every
//! schedule and traversal and with a recoverable fault plan layered on
//! top. [`Resume`] kills at a seeded fraction of the root order, resumes
//! in the same directory, and reports the roots it restored. Its
//! extra checks are the resume's root accounting and checksum.
//!
//! The same transform carries the degradation ladder's partition rung
//! (a device too small for the CSR must stream it in slices, bitwise)
//! and the store's tamper cases: a corrupted chunk, a mismatched
//! options fingerprint and a chunk left by an earlier epoch must each
//! be rejected with the matching [`CheckpointError`] (listed in
//! [`crate::mutants`]). The ladder's sampled rung is not differential
//! and stays a plain check ([`check_sampled_rung`]).

use crate::fault_equiv::{checksum_mismatch, Faults};
use crate::harness::{vertex_keyed, Axis, Keyed, Transform, Transformed};
use crate::invariants::Violation;
use bc_cluster::{
    run_cluster_durable, run_cluster_with_faults, ClusterConfig, ClusterError, ClusterReport,
    ClusterRun, DurabilityOptions, FaultPlan,
};
use bc_core::methods::cost::footprint;
use bc_core::{graph_digest, options_fingerprint, CheckpointError, CheckpointStore, Degradation};
use bc_core::{Method, TraversalMode};
use bc_graph::Csr;
use std::path::{Path, PathBuf};

/// The seeded kill points: early, mid, and late in the run's global
/// root order.
pub fn kill_points() -> [(&'static str, ResumeCase); 3] {
    [
        ("kill-early", ResumeCase::Kill(0.15)),
        ("kill-mid", ResumeCase::Kill(0.5)),
        ("kill-late", ResumeCase::Kill(0.85)),
    ]
}

/// The recoverable fault plan layered under every kill case: retries,
/// a dead GPU with orphan adoption, and a straggler — everything the
/// checkpoint must commute with.
pub fn recoverable_overlay(seed: u64) -> FaultPlan {
    let spec =
        format!("transient=0.12,dead=1,death_fraction=0.5,straggle=0,slowdown=2,seed={seed}");
    FaultPlan::parse(&spec).expect("valid fault spec")
}

/// What [`Resume`] does to a run.
#[derive(Clone, Copy, Debug)]
pub enum ResumeCase {
    /// Kill at this fraction of the root order, then resume.
    Kill(f64),
    /// Shrink the device until the CSR must stream in slices.
    Partition,
    /// Flip one byte of a chunk after a complete run, then resume.
    Corrupt,
    /// Resume a complete run's directory under another traversal.
    Mismatch,
    /// Restore a chunk file an earlier epoch wrote, then load it.
    Stale,
}

/// A scratch checkpoint directory, unique across concurrent verify
/// processes and removed on drop, so a failing case leaves nothing
/// behind.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("bc-verify-ckpt-{}-{id}", std::process::id());
        ScratchDir(std::env::temp_dir().join(name))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The violation a store error raises, named by its kind.
fn rejected(e: &CheckpointError) -> Violation {
    let check = match e {
        CheckpointError::Corrupt { .. } => "ckpt.corrupt",
        CheckpointError::Mismatch { .. } => "ckpt.mismatch",
        CheckpointError::Stale { .. } => "ckpt.stale",
        _ => "ckpt.io",
    };
    Violation::new(check, format!("checkpoint rejected: {e}"))
}

fn run_failed(e: ClusterError) -> Violation {
    match e {
        ClusterError::Checkpoint { source } => rejected(&source),
        e => Violation::new("ckpt.resume_runs", format!("durable run failed: {e}")),
    }
}

/// `roots` sampled roots of `g` on the durable runner under `cfg`
/// (nodes, schedule and traversal set by the axis) with `overlay`
/// injected throughout.
pub struct Resume<'g> {
    cluster: Faults<'g>,
    overlay: FaultPlan,
}

impl<'g> Resume<'g> {
    /// The transform for `roots` sampled roots of `g` on `cfg`.
    pub fn new(g: &'g Csr, cfg: ClusterConfig, roots: usize, overlay: FaultPlan) -> Self {
        let cluster = Faults::new(g, cfg, roots);
        Resume { cluster, overlay }
    }

    fn durable(
        &self,
        cfg: &ClusterConfig,
        plan: &FaultPlan,
        dir: &Path,
    ) -> Result<ClusterRun, ClusterError> {
        let durability = DurabilityOptions {
            checkpoint: Some(dir.to_path_buf()),
            ..DurabilityOptions::default()
        };
        run_cluster_durable(self.cluster.g, cfg, self.cluster.roots, plan, &durability)
    }

    /// Kill at `fraction`, resume, and check the root accounting.
    fn kill(
        &self,
        cfg: &ClusterConfig,
        fraction: f64,
        base: &ClusterReport,
    ) -> Result<Transformed, Violation> {
        let dir = ScratchDir::new();
        let kill_plan = FaultPlan {
            kill_fraction: Some(fraction),
            ..self.overlay.clone()
        };
        let structured = |detail: &str| Violation::new("ckpt.kill_surfaces_structured", detail);
        let (completed, planned) = match self.durable(cfg, &kill_plan, &dir.0) {
            Err(ClusterError::ProcessKilled {
                completed_roots,
                planned_roots,
                ..
            }) => (completed_roots, planned_roots),
            Err(e) => return Err(structured(&format!("expected ProcessKilled, got: {e}"))),
            Ok(_) => return Err(structured("kill point was silently ignored")),
        };
        // Rerun with the external killer gone; everything else (faults
        // included) identical.
        let resumed = self
            .durable(cfg, &self.overlay, &dir.0)
            .map_err(run_failed)?;
        let mut extra: Vec<Violation> = checksum_mismatch(&resumed.report, base)
            .into_iter()
            .collect();
        let resumed_roots = resumed.report.roots_sampled;
        let missing = base.roots_sampled.checked_sub(completed);
        if planned != base.roots_sampled || missing != Some(resumed_roots) {
            let detail = format!(
                "planned {planned} roots, {completed} checkpointed, {resumed_roots} recomputed \
                 on resume; the uninterrupted run did {}",
                base.roots_sampled
            );
            extra.push(Violation::new("ckpt.resume_accounting", detail));
        }
        Ok(Transformed {
            output: vertex_keyed(&resumed.scores),
            exercised: completed as u64,
            extra,
        })
    }

    /// The partition rung: a device with a third of the CSR's bytes.
    fn partition(&self, cfg: &ClusterConfig) -> Result<Transformed, Violation> {
        let g = self.cluster.g;
        let mut squeezed = cfg.clone();
        squeezed.device.global_mem_bytes =
            cfg.method.local_bytes(g, &cfg.device) + footprint::graph_bytes(g) / 3;
        let run = run_cluster_with_faults(g, &squeezed, self.cluster.roots, &self.overlay);
        let run = run.map_err(|e| Violation::new("ckpt.ladder_partitions", e.to_string()))?;
        let slices = match run.report.degradation {
            Some(Degradation::Partitioned { slices }) if slices >= 2 => slices as u64,
            _ => 0,
        };
        Ok(Transformed::new(vertex_keyed(&run.scores), slices))
    }

    /// A complete run, then root 0's chunk with one byte flipped or the
    /// traversal changed, and a resume in the same directory.
    fn tampered(&self, cfg: &ClusterConfig, corrupt: bool) -> Result<Transformed, Violation> {
        let dir = ScratchDir::new();
        self.durable(cfg, &self.overlay, &dir.0)
            .map_err(run_failed)?;
        let mut resume_cfg = cfg.clone();
        if corrupt {
            let chunk = dir.0.join("root-0.chunk");
            let io = |e: std::io::Error| Violation::new("ckpt.io", format!("{chunk:?}: {e}"));
            let mut bytes = std::fs::read(&chunk).map_err(io)?;
            let mid = bytes.len() / 2;
            if let Some(byte) = bytes.get_mut(mid) {
                *byte ^= 0x40;
            }
            std::fs::write(&chunk, bytes).map_err(io)?;
        } else if cfg.traversal == TraversalMode::Pull {
            resume_cfg.traversal = TraversalMode::Push;
        } else {
            resume_cfg.traversal = TraversalMode::Pull;
        }
        let run = self.durable(&resume_cfg, &self.overlay, &dir.0);
        let run = run.map_err(run_failed)?;
        Ok(Transformed::new(vertex_keyed(&run.scores), 1))
    }

    /// A chunk file written under an earlier epoch must not satisfy a
    /// store that holds a later epoch for its root, though its own
    /// checksum still matches.
    fn stale(&self) -> Result<Transformed, Violation> {
        let (dir, g) = (ScratchDir::new(), self.cluster.g);
        let (n, fp, digest) = (
            g.num_vertices(),
            options_fingerprint("stale"),
            graph_digest(g),
        );
        let open = || CheckpointStore::open(&dir.0, fp, digest, n, 2).map_err(|e| rejected(&e));
        let io = |e: std::io::Error| Violation::new("ckpt.io", e.to_string());
        let chunk = dir.0.join("root-0.chunk");
        open()?.record(0, &vec![1.5; n]).map_err(|e| rejected(&e))?;
        let old_bytes = std::fs::read(&chunk).map_err(io)?;
        // A new epoch records fresher data for the same root, then the
        // stale file reappears (restored from a half-synced backup).
        let store = open()?;
        store.record(0, &vec![1.5; n]).map_err(|e| rejected(&e))?;
        std::fs::write(&chunk, old_bytes).map_err(io)?;
        let loaded = store.load(0).map_err(|e| rejected(&e))?;
        Ok(Transformed::new(vertex_keyed(&loaded), 1))
    }
}

impl Transform for Resume<'_> {
    type Case = ResumeCase;
    type Base = ClusterReport;
    const NAME: &'static str = "ckpt";
    const EXERCISED: &'static str = "roots resumed or slices streamed";

    fn baseline(&self, at: Axis) -> Result<(Keyed, ClusterReport), String> {
        self.cluster.keyed(at, &self.overlay)
    }

    fn transformed(
        &self,
        at: Axis,
        case: &ResumeCase,
        base: &ClusterReport,
    ) -> Result<Transformed, Violation> {
        let cfg = self.cluster.config(at);
        match *case {
            ResumeCase::Kill(fraction) => self.kill(&cfg, fraction, base),
            ResumeCase::Partition => self.partition(&cfg),
            ResumeCase::Corrupt => self.tampered(&cfg, true),
            ResumeCase::Mismatch => self.tampered(&cfg, false),
            ResumeCase::Stale => self.stale(),
        }
    }
}

/// The ladder's sampled rung: GPU-FAN's O(n²) locals defeat
/// partitioning, so with the ladder engaged the run must complete as a
/// sampled approximation with a finite error bound, visible on the
/// report. Nothing to check when GPU-FAN fits `cfg`'s device.
pub fn check_sampled_rung(g: &Csr, cfg: &ClusterConfig, roots: usize) -> Vec<Violation> {
    let fan = ClusterConfig {
        method: Method::GpuFan,
        ..cfg.clone()
    };
    let need = footprint::graph_bytes(g) + fan.method.local_bytes(g, &fan.device);
    if need <= fan.device.global_mem_bytes {
        return Vec::new();
    }
    let degrade = DurabilityOptions {
        degrade: true,
        ..DurabilityOptions::default()
    };
    let detail = match run_cluster_durable(g, &fan, roots, &FaultPlan::none(), &degrade) {
        Ok(run) => match run.report.degradation {
            Some(Degradation::Sampled {
                sources,
                error_bound,
                ..
            }) if sources > 0 && error_bound.is_finite() => return Vec::new(),
            other => format!("sampled rung not reported with sources and a bound: {other:?}"),
        },
        Err(e) => format!("unfittable method was not degraded to sampling: {e}"),
    };
    vec![Violation::new("ckpt.ladder_sampled", detail)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check, matrix, Key};
    use bc_core::Schedule;
    use bc_graph::gen;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            method: Method::WorkEfficient,
            ..ClusterConfig::keeneland(2)
        }
    }

    const AT: Axis = Axis {
        schedule: Schedule::Static,
        traversal: TraversalMode::Push,
        width: 2,
    };

    #[test]
    fn equivalence_battery_passes_on_a_healthy_runner() {
        let g = gen::watts_strogatz(150, 6, 0.1, 8);
        let t = Resume::new(&g, small_cfg(), 24, recoverable_overlay(77));
        let report = check(&t, &matrix(&g, &[2]), &kill_points());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.cases, 27);
        assert!(report.exercised > 0);
    }

    #[test]
    fn rejection_battery_passes_on_a_healthy_store() {
        let g = gen::watts_strogatz(150, 6, 0.1, 9);
        let t = Resume::new(&g, small_cfg(), 12, FaultPlan::none());
        for m in crate::mutants::ALL {
            let crate::mutants::Plant::Store(case) = m.plant else {
                continue;
            };
            let found = check(&t, &[AT], &[(m.name, case)]).violations;
            assert!(found.iter().any(|v| v.check == m.flagged_by), "{found:?}");
        }
    }

    #[test]
    fn ladder_battery_passes_on_a_healthy_runner() {
        let g = gen::kronecker(11, 8, 4);
        let cfg = ClusterConfig {
            method: Method::WorkEfficient,
            ..ClusterConfig::keeneland(1)
        };
        let t = Resume::new(&g, cfg.clone(), 16, FaultPlan::none());
        let at = Axis { width: 1, ..AT };
        let report = check(&t, &[at], &[("partition", ResumeCase::Partition)]);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.exercised >= 2, "partition rung streamed no slices");
        let v = check_sampled_rung(&g, &cfg, 16);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_one_ulp_flip_is_reported() {
        let g = gen::watts_strogatz(150, 6, 0.1, 8);
        let t = Resume::new(&g, small_cfg(), 24, recoverable_overlay(77));
        let report = check(&t, &[AT], &[("kill-mid", ResumeCase::Kill(0.5))]);
        let d = report.flip.expect("flip reported");
        assert_eq!((d.key, d.ulps, d.differing), (Key::Vertex(75), Some(1), 1));
    }

    #[test]
    fn scratch_dirs_are_removed_on_drop() {
        let dir = ScratchDir::new();
        std::fs::create_dir_all(&dir.0).expect("create");
        std::fs::write(dir.0.join("root-0.chunk"), b"partial").expect("write");
        let path = dir.0.clone();
        drop(dir);
        assert!(!path.exists(), "{} left behind", path.display());
    }

    #[test]
    fn impossible_root_accounting_is_reported_not_panicked() {
        // A baseline claiming fewer roots than the checkpoint holds
        // must not underflow `roots_sampled - completed`.
        let g = gen::watts_strogatz(150, 6, 0.1, 8);
        let t = Resume::new(&g, small_cfg(), 24, recoverable_overlay(77));
        let (_, mut base) = t.baseline(AT).expect("baseline runs");
        base.roots_sampled = 0;
        let run = t.transformed(AT, &ResumeCase::Kill(0.5), &base);
        let extra = run.expect("kill and resume run").extra;
        assert!(
            extra.iter().any(|v| v.check == "ckpt.resume_accounting"),
            "{extra:?}"
        );
    }
}
