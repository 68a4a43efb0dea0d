//! Perf-regression gate — guarding the simulator's performance
//! trajectory the way production stacks gate theirs.
//!
//! The gate profiles a small benchmark suite (fast canonical
//! configurations spanning both workloads, both processors, both
//! storage architectures, and both scheduling policies) and compares
//! each [`RunProfile`] against a committed baseline under
//! `artifacts/baselines/`. A case fails when its makespan or any of the
//! five overhead buckets grew beyond the tolerance; the failure report
//! embeds the full [`RunDiff`] so the blame table points at the bucket
//! that moved. Because runs are pure functions of (seed, config), any
//! delta is a real behaviour change, never measurement noise — the
//! tolerance only leaves room for intentionally accepted drift below
//! the update threshold.
//!
//! Drive it through the `repro` binary:
//!
//! ```text
//! repro check                    # among the other golden checks, compare
//!                                # against artifacts/baselines with
//!                                # DEFAULT_TOLERANCE_PCT
//! repro gate --update            # rewrite the baselines
//! ```

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use gpuflow_algorithms::{KmeansConfig, MatmulConfig};
use gpuflow_cluster::{ProcessorKind, StorageArchitecture};
use gpuflow_runtime::{RunConfig, RunDiff, RunProfile, SchedulingPolicy, Workflow};

use crate::measure::Context;

/// Default tolerance: a case fails when makespan or a bucket grows more
/// than this percentage over its baseline.
pub const DEFAULT_TOLERANCE_PCT: f64 = 1.0;

/// Absolute slack floor in nanoseconds, so a near-zero baseline bucket
/// (e.g. `recovery 0`) does not fail on a microscopic absolute change.
pub const FLOOR_NS: u64 = 1_000_000;

/// One benchmark configuration of the gate suite.
struct GateCase {
    name: &'static str,
    processor: ProcessorKind,
    storage: StorageArchitecture,
    policy: SchedulingPolicy,
    workload: &'static str,
    grid: u64,
}

/// The suite: fast canonical runs covering both workloads, both
/// processors, both storage architectures, and both policies.
const SUITE: [GateCase; 4] = [
    GateCase {
        name: "matmul_cpu_shared_fifo",
        processor: ProcessorKind::Cpu,
        storage: StorageArchitecture::SharedDisk,
        policy: SchedulingPolicy::GenerationOrder,
        workload: "matmul",
        grid: 4,
    },
    GateCase {
        name: "matmul_gpu_shared_fifo",
        processor: ProcessorKind::Gpu,
        storage: StorageArchitecture::SharedDisk,
        policy: SchedulingPolicy::GenerationOrder,
        workload: "matmul",
        grid: 4,
    },
    GateCase {
        name: "kmeans_cpu_shared_fifo",
        processor: ProcessorKind::Cpu,
        storage: StorageArchitecture::SharedDisk,
        policy: SchedulingPolicy::GenerationOrder,
        workload: "kmeans",
        grid: 8,
    },
    GateCase {
        name: "kmeans_gpu_local_locality",
        processor: ProcessorKind::Gpu,
        storage: StorageArchitecture::LocalDisk,
        policy: SchedulingPolicy::DataLocality,
        workload: "kmeans",
        grid: 8,
    },
];

impl GateCase {
    fn workflow(&self) -> Workflow {
        match self.workload {
            "matmul" => MatmulConfig::new(gpuflow_data::paper::matmul_128mb(), self.grid)
                .expect("valid gate grid")
                .build_workflow(),
            "kmeans" => KmeansConfig::new(gpuflow_data::paper::kmeans_100mb(), self.grid, 10, 2)
                .expect("valid gate grid")
                .build_workflow(),
            other => unreachable!("unknown gate workload {other}"),
        }
    }

    fn profile(&self, ctx: &Context) -> RunProfile {
        let workflow = self.workflow();
        let cfg = RunConfig::new(ctx.cluster.clone(), self.processor)
            .with_storage(self.storage)
            .with_policy(self.policy)
            .with_seed(ctx.base_seed)
            .with_telemetry();
        let report = gpuflow_runtime::run(&workflow, &cfg).expect("gate case must run");
        RunProfile::from_telemetry(self.name, &workflow, &report.telemetry, report.makespan())
            .expect("telemetry enabled")
            .with_factor("workload", self.workload)
            .with_factor("grid", &self.grid.to_string())
            .with_factor("processor", self.processor.label())
            .with_factor("storage", self.storage.label())
            .with_factor("policy", self.policy.label())
    }
}

/// Profiles the whole suite (sweep-parallel; byte-identical at every
/// thread count).
pub fn suite_profiles(ctx: &Context) -> Vec<(&'static str, RunProfile)> {
    ctx.par_map(&SUITE, |_, case| (case.name, case.profile(ctx)))
}

/// The baseline file of one suite case.
pub fn baseline_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.profile"))
}

/// How one suite case fared against its baseline.
#[derive(Debug, Clone)]
pub enum CaseStatus {
    /// Within tolerance.
    Pass,
    /// Regressed: the violation messages.
    Fail(Vec<String>),
    /// No committed baseline file.
    MissingBaseline,
}

/// One gate comparison.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Suite case name.
    pub name: &'static str,
    /// Pass/fail/missing.
    pub status: CaseStatus,
    /// Current makespan, ns.
    pub makespan_ns: u64,
    /// The baseline-vs-current diff (absent without a baseline).
    pub diff: Option<RunDiff>,
}

/// The full gate outcome.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Tolerance the comparison ran with, percent.
    pub tolerance_pct: f64,
    /// Per-case outcomes in suite order.
    pub results: Vec<CaseResult>,
}

/// Checks `current` against `baseline`: returns the violation messages
/// (empty = within tolerance). A value regresses when it exceeds the
/// baseline by more than `tolerance_pct` percent *and* more than
/// [`FLOOR_NS`] absolute.
pub fn violations(baseline: &RunProfile, current: &RunProfile, tolerance_pct: f64) -> Vec<String> {
    let allowed = |base: u64| {
        let slack = ((base as f64) * tolerance_pct / 100.0) as u64;
        base + slack.max(FLOOR_NS)
    };
    let mut out = Vec::new();
    if current.makespan_ns > allowed(baseline.makespan_ns) {
        out.push(format!(
            "makespan regressed: {:.6} s -> {:.6} s (+{:.2} %)",
            baseline.makespan_ns as f64 / 1e9,
            current.makespan_ns as f64 / 1e9,
            100.0 * current.makespan_ns.saturating_sub(baseline.makespan_ns) as f64
                / baseline.makespan_ns.max(1) as f64
        ));
    }
    for (&(name, base), &(_, cur)) in baseline.buckets().iter().zip(current.buckets().iter()) {
        if cur > allowed(base) {
            out.push(format!(
                "bucket '{name}' regressed: {:.6} s -> {:.6} s",
                base as f64 / 1e9,
                cur as f64 / 1e9
            ));
        }
    }
    out
}

/// Profiles the suite and compares every case against the baselines in
/// `dir`. Missing baselines count as failures (run `repro gate
/// --update` and commit the files).
pub fn check(ctx: &Context, dir: &Path, tolerance_pct: f64) -> GateReport {
    let results = suite_profiles(ctx)
        .into_iter()
        .map(|(name, current)| {
            let path = baseline_path(dir, name);
            let baseline = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| RunProfile::parse(&text).ok());
            match baseline {
                None => CaseResult {
                    name,
                    status: CaseStatus::MissingBaseline,
                    makespan_ns: current.makespan_ns,
                    diff: None,
                },
                Some(base) => {
                    let msgs = violations(&base, &current, tolerance_pct);
                    CaseResult {
                        name,
                        status: if msgs.is_empty() {
                            CaseStatus::Pass
                        } else {
                            CaseStatus::Fail(msgs)
                        },
                        makespan_ns: current.makespan_ns,
                        diff: Some(RunDiff::compare(&base, &current)),
                    }
                }
            }
        })
        .collect();
    GateReport {
        tolerance_pct,
        results,
    }
}

/// Profiles the suite and (re)writes every baseline file in `dir`.
/// Returns the paths written.
///
/// # Errors
/// Propagates filesystem errors.
pub fn update(ctx: &Context, dir: &Path) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (name, profile) in suite_profiles(ctx) {
        let path = baseline_path(dir, name);
        std::fs::write(&path, profile.render())?;
        written.push(path);
    }
    Ok(written)
}

impl GateReport {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.results
            .iter()
            .all(|r| matches!(r.status, CaseStatus::Pass))
    }

    /// Human-readable report; failed cases embed their diff so the
    /// blame table points at the regressing bucket.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "perf gate: {} cases, tolerance {:.1} % (+{} us floor)",
            self.results.len(),
            self.tolerance_pct,
            FLOOR_NS / 1_000
        );
        for r in &self.results {
            let verdict = match &r.status {
                CaseStatus::Pass => "PASS",
                CaseStatus::Fail(_) => "FAIL",
                CaseStatus::MissingBaseline => "MISSING",
            };
            let _ = writeln!(
                out,
                "  {verdict:<8} {:<28} makespan {:.6} s",
                r.name,
                r.makespan_ns as f64 / 1e9
            );
            if let CaseStatus::Fail(msgs) = &r.status {
                for m in msgs {
                    let _ = writeln!(out, "           - {m}");
                }
            }
            if matches!(r.status, CaseStatus::MissingBaseline) {
                let _ = writeln!(
                    out,
                    "           - no baseline profile; run `repro gate --update` and commit it"
                );
            }
        }
        for r in &self.results {
            if let (CaseStatus::Fail(_), Some(diff)) = (&r.status, &r.diff) {
                let _ = writeln!(out, "\n=== diff for {} ===", r.name);
                out.push_str(&diff.render());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::default().with_threads(2)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpuflow_gate_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn update_then_check_passes() {
        let ctx = ctx();
        let dir = temp_dir("pass");
        let written = update(&ctx, &dir).unwrap();
        assert_eq!(written.len(), SUITE.len());
        let report = check(&ctx, &dir, DEFAULT_TOLERANCE_PCT);
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("PASS"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synthetically_slowed_run_fails_the_gate() {
        let ctx = ctx();
        let dir = temp_dir("fail");
        update(&ctx, &dir).unwrap();
        // Shrink one baseline's makespan and compute bucket by 10 % —
        // the (unchanged) current run now reads as a regression.
        let path = baseline_path(&dir, "matmul_cpu_shared_fifo");
        let mut base = RunProfile::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        base.makespan_ns = base.makespan_ns * 9 / 10;
        base.compute_ns = base.compute_ns * 9 / 10;
        std::fs::write(&path, base.render()).unwrap();
        let report = check(&ctx, &dir, DEFAULT_TOLERANCE_PCT);
        assert!(!report.passed());
        let text = report.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("makespan regressed"), "{text}");
        assert!(text.contains("bucket 'compute' regressed"), "{text}");
        assert!(
            text.contains("=== diff for matmul_cpu_shared_fifo ==="),
            "failure must embed the diff: {text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_baseline_fails_with_instructions() {
        let ctx = ctx();
        let dir = temp_dir("missing");
        let report = check(&ctx, &dir, DEFAULT_TOLERANCE_PCT);
        assert!(!report.passed());
        assert!(report.render().contains("repro gate --update"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tolerance_floor_ignores_sub_floor_noise() {
        let a = RunProfile {
            makespan_ns: 1_000_000_000,
            compute_ns: 1_000_000_000,
            ..RunProfile::default()
        };
        let mut b = a.clone();
        // Half a floor above baseline: inside the absolute slack.
        b.makespan_ns += FLOOR_NS / 2;
        b.compute_ns += FLOOR_NS / 2;
        assert!(violations(&a, &b, DEFAULT_TOLERANCE_PCT).is_empty());
        // Far beyond both the floor and the percentage.
        b.makespan_ns = a.makespan_ns * 2;
        let v = violations(&a, &b, DEFAULT_TOLERANCE_PCT);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("+100.00 %"), "{v:?}");
    }

    #[test]
    fn suite_profiles_are_deterministic_across_threads() {
        let base = Context::default();
        let render = |threads| {
            suite_profiles(&base.clone().with_threads(threads))
                .into_iter()
                .map(|(_, p)| p.render())
                .collect::<Vec<_>>()
        };
        let one = render(1);
        assert_eq!(one, render(4));
        assert_eq!(one, render(8));
    }
}
