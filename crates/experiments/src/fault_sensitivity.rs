//! Fault sensitivity — makespan under injected failures × recovery
//! policy, for the paper's two workloads.
//!
//! The paper's evaluation assumes a healthy cluster; this extension
//! asks what its task-based model buys when the cluster misbehaves.
//! Lineage-based recovery (the Dask/Spark model the frameworks under
//! study inherit) re-executes only the producers of lost blocks, so a
//! transient node crash costs far less than a full restart — and the
//! run still converges to the *same answer*, which we verify with the
//! executor's output fingerprint against the fault-free baseline.
//!
//! Three sweeps per workload (K-means and Matmul, local-disk storage so
//! crashes actually destroy blocks):
//!
//! * transient task-failure probability × retry/backoff policy;
//! * a mid-run node crash with rejoin (lineage regeneration);
//! * a permanent node crash (resubmission to survivors).

use gpuflow_algorithms::{KmeansConfig, MatmulConfig};
use gpuflow_chaos::{FaultPlan, RecoveryPolicy};
use gpuflow_cluster::{ProcessorKind, StorageArchitecture};
use gpuflow_data::DatasetSpec;
use gpuflow_runtime::{RunConfig, RunError, Workflow};

use crate::measure::Context;
use crate::table::TextTable;

/// One measured fault scenario.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Workload name.
    pub workload: &'static str,
    /// Scenario label (fault plan summary).
    pub scenario: String,
    /// Recovery policy label.
    pub policy: String,
    /// Makespan in seconds, `None` when the run was unrecoverable.
    pub makespan: Option<f64>,
    /// Makespan relative to the fault-free baseline.
    pub slowdown: Option<f64>,
    /// Retries + resubmissions + regenerated tasks during the run.
    pub recovery_work: usize,
    /// Whether the output fingerprint matched the fault-free baseline.
    pub converged: bool,
}

/// The full fault-sensitivity study.
#[derive(Debug, Clone)]
pub struct FaultSensitivity {
    /// All measured points, workload-major.
    pub points: Vec<FaultPoint>,
}

impl FaultSensitivity {
    /// Renders the study as a text table, with how many completed
    /// scenarios converged under it.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Fault sensitivity: makespan and convergence under injected faults",
            [
                "workload",
                "scenario",
                "policy",
                "makespan_s",
                "slowdown",
                "rec_work",
                "converged",
            ],
        );
        for p in &self.points {
            t.push([
                p.workload.to_string(),
                p.scenario.clone(),
                p.policy.clone(),
                p.makespan.map_or("-".into(), |m| format!("{m:.3}")),
                p.slowdown.map_or("-".into(), |s| format!("{s:.2}x")),
                p.recovery_work.to_string(),
                if p.makespan.is_none() {
                    "-".into()
                } else if p.converged {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
        format!(
            "{}{} of {} completed scenarios converged to the fault-free output\n",
            t.render(),
            self.converged(),
            self.points.len()
        )
    }

    /// Points that completed and reproduced the baseline fingerprint.
    pub fn converged(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.makespan.is_some() && p.converged)
            .count()
    }
}

/// One scenario: a fault plan (or none) plus a recovery policy.
#[derive(Debug, Clone)]
struct Scenario {
    label: String,
    plan: Option<FaultPlan>,
    policy: RecoveryPolicy,
}

fn scenarios(seed: u64, baseline_makespan: f64) -> Vec<Scenario> {
    let retry_only = RecoveryPolicy {
        resubmit_alternate: false,
        ..RecoveryPolicy::default()
    };
    let mut out = vec![Scenario {
        label: "fault-free".into(),
        plan: None,
        policy: RecoveryPolicy::default(),
    }];
    for p in [0.05, 0.15, 0.30] {
        out.push(Scenario {
            label: format!("transient p={p}"),
            plan: Some(FaultPlan::new(seed).with_task_failures(None, p)),
            policy: RecoveryPolicy::default(),
        });
    }
    out.push(Scenario {
        label: "transient p=0.15".into(),
        plan: Some(FaultPlan::new(seed).with_task_failures(None, 0.15)),
        policy: retry_only,
    });
    // Crash node 0 at 40% of the fault-free makespan; back 20% later.
    let at = baseline_makespan * 0.4;
    out.push(Scenario {
        label: "crash+rejoin n0".into(),
        plan: Some(FaultPlan::new(seed).with_node_crash(0, at, Some(baseline_makespan * 0.2))),
        policy: RecoveryPolicy::default(),
    });
    out.push(Scenario {
        label: "crash perm n0".into(),
        plan: Some(FaultPlan::new(seed).with_node_crash(0, at, None)),
        policy: RecoveryPolicy::default(),
    });
    out
}

fn measure(
    wf: &Workflow,
    ctx: &Context,
    workload: &'static str,
    sc: &Scenario,
    baseline: Option<(f64, u64)>,
) -> FaultPoint {
    let mut cfg = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Cpu)
        .with_storage(StorageArchitecture::LocalDisk)
        .with_seed(ctx.base_seed)
        .with_recovery(sc.policy);
    if let Some(plan) = &sc.plan {
        cfg = cfg.with_faults(plan.clone());
    }
    match gpuflow_runtime::run(wf, &cfg) {
        Ok(r) => FaultPoint {
            workload,
            scenario: sc.label.clone(),
            policy: sc.policy.label(),
            makespan: Some(r.makespan()),
            slowdown: baseline.map(|(m, _)| r.makespan() / m),
            recovery_work: r.recovery.retries
                + r.recovery.resubmissions
                + r.recovery.regenerated_tasks,
            converged: match baseline {
                Some((_, fp)) => r.output_fingerprint == fp,
                None => true,
            },
        },
        Err(RunError::TaskFailed { .. }) | Err(RunError::Unrecoverable { .. }) => FaultPoint {
            workload,
            scenario: sc.label.clone(),
            policy: sc.policy.label(),
            makespan: None,
            slowdown: None,
            recovery_work: 0,
            converged: false,
        },
        // lint: allow(R1, experiment driver fails fast on programmer error; not an in-run recovery path)
        Err(e) => panic!("unexpected failure: {e}"),
    }
}

/// Runs the study: both workloads × all fault scenarios.
pub fn run(ctx: &Context) -> FaultSensitivity {
    // lint: allow(R1, experiment driver fails fast on programmer error; not an in-run recovery path)
    let kmeans = KmeansConfig::new(DatasetSpec::uniform("fault_km", 1 << 20, 32, 7), 32, 8, 2)
        .expect("valid grid")
        .build_workflow();
    // lint: allow(R1, experiment driver fails fast on programmer error; not an in-run recovery path)
    let matmul = MatmulConfig::new(DatasetSpec::uniform("fault_mm", 1 << 12, 1 << 12, 7), 4)
        .expect("valid grid")
        .build_workflow();
    let mut points = Vec::new();
    for (workload, wf) in [("kmeans", &kmeans), ("matmul", &matmul)] {
        let base = measure(
            wf,
            ctx,
            workload,
            &Scenario {
                label: "fault-free".into(),
                plan: None,
                policy: RecoveryPolicy::default(),
            },
            None,
        );
        // lint: allow(R1, experiment driver fails fast on programmer error; not an in-run recovery path)
        let base_makespan = base.makespan.expect("fault-free run completes");
        let cfg = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Cpu)
            .with_storage(StorageArchitecture::LocalDisk)
            .with_seed(ctx.base_seed);
        // lint: allow(R1, experiment driver fails fast on programmer error; not an in-run recovery path)
        let base_fp = gpuflow_runtime::run(wf, &cfg)
            .expect("fault-free run completes")
            .output_fingerprint;
        let scs = scenarios(ctx.base_seed ^ 0xFA17, base_makespan);
        let measured = ctx.par_map(&scs[1..], |_, sc| {
            measure(wf, ctx, workload, sc, Some((base_makespan, base_fp)))
        });
        points.push(base);
        points.extend(measured);
    }
    FaultSensitivity { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> Context {
        Context {
            cluster: gpuflow_cluster::ClusterSpec::tiny(),
            ..Context::default()
        }
    }

    #[test]
    fn recoverable_scenarios_converge_to_the_baseline_output() {
        // The tiny cluster, and the default Minotauro one `repro chaos`
        // sweeps.
        for ctx in [quick_ctx(), Context::default()] {
            let study = run(&ctx);
            // Both workloads: fault-free + 6 scenarios.
            assert_eq!(study.points.len(), 14);
            for p in &study.points {
                if p.makespan.is_some() && p.scenario != "fault-free" {
                    assert!(
                        p.converged,
                        "{} under '{}' completed with a different answer",
                        p.workload, p.scenario
                    );
                }
            }
            // The crash scenarios must demonstrate actual recovery work.
            assert!(
                study
                    .points
                    .iter()
                    .any(|p| p.scenario.starts_with("crash") && p.recovery_work > 0),
                "crashes must trigger recovery"
            );
            assert!(study.render().contains("crash+rejoin n0"));
        }
    }

    #[test]
    fn render_lists_every_point() {
        let study = run(&quick_ctx());
        let text = study.render();
        assert!(text.contains("fault-free"));
        assert!(text.contains("crash+rejoin n0"));
        assert!(text.lines().count() >= study.points.len());
        let tally = format!(
            "\n{} of {} completed scenarios converged to the fault-free output\n",
            study.converged(),
            study.points.len()
        );
        assert!(text.ends_with(&tally), "{text}");
    }
}
