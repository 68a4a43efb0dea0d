//! Property suite for the fault-injection and recovery subsystem.
//!
//! Two guarantees, over *arbitrary* generated fault plans:
//!
//! * **recoverable plans converge** — any mix of transient failure
//!   probabilities (with a sufficient retry budget), crashes with
//!   rejoin, stragglers, and link degradations completes, passes the
//!   report invariants, reproduces the fault-free output fingerprint
//!   (lineage regeneration recomputes exactly the lost results), and is
//!   bitwise-reproducible run-to-run, over chains of fresh objects and
//!   over in-place chains that write one object version after version;
//! * **unrecoverable plans fail typed** — exhausted retry budgets and
//!   whole-cluster losses return a typed [`RunError`], never a panic or
//!   a silent wrong answer.

use gpuflow_cluster::{ClusterSpec, KernelWork, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::{
    run, CostProfile, Direction, FaultPlan, RecoveryPolicy, RunConfig, TelemetryEvent, Workflow,
    WorkflowBuilder,
};
use proptest::prelude::*;

const MB: u64 = 1 << 20;

fn compute_cost(flops: f64) -> CostProfile {
    CostProfile::fully_parallel(KernelWork {
        flops,
        bytes: flops / 10.0,
        parallelism: 1e9,
    })
}

/// Independent 3-block chains: x -> a -> c, `width` of them.
fn pipeline(width: usize) -> Workflow {
    let mut b = WorkflowBuilder::new();
    for i in 0..width {
        let x = b.input(format!("x{i}"), MB);
        let a = b.intermediate(format!("a{i}"), MB);
        let c = b.intermediate(format!("c{i}"), MB);
        b.submit(
            "stage0",
            compute_cost(1e9),
            &[(x, Direction::In), (a, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "stage1",
            compute_cost(1e9),
            &[(a, Direction::In), (c, Direction::Out)],
            false,
        )
        .unwrap();
    }
    b.build()
}

/// A `g`×`g` blocked `C += A·B` with fused multiply-adds: each `C`
/// block is an in-place chain of `g` tasks, so its versions run 0..=g.
fn fma(g: usize) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let block = |b: &mut WorkflowBuilder, m: &str| -> Vec<_> {
        (0..g * g).map(|n| b.input(format!("{m}{n}"), MB)).collect()
    };
    let (a, bb, c) = (block(&mut b, "A"), block(&mut b, "B"), block(&mut b, "C"));
    for i in 0..g {
        for j in 0..g {
            for k in 0..g {
                b.submit(
                    "fma",
                    compute_cost(1e9),
                    &[
                        (a[i * g + k], Direction::In),
                        (bb[k * g + j], Direction::In),
                        (c[i * g + j], Direction::InOut),
                    ],
                    false,
                )
                .unwrap();
            }
        }
    }
    b.build()
}

fn base_cfg() -> RunConfig {
    let mut c = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu);
    c.jitter_sigma = 0.0;
    c.storage = StorageArchitecture::LocalDisk;
    c
}

proptest! {
    /// Every recoverable plan completes, satisfies the report
    /// invariants, converges to the fault-free fingerprint, and
    /// reproduces bit-for-bit.
    #[test]
    fn recoverable_plans_converge_to_the_fault_free_output(
        seed in 0u64..1024,
        p in 0.0f64..0.45,
        crash in prop::bool::ANY,
        in_place in prop::bool::ANY,
    ) {
        // In-place chains always crash: crash loss, lineage regeneration
        // and the fingerprint then run over versions above 1.
        let wf = if in_place { fma(3) } else { pipeline(5) };
        let clean = run(&wf, &base_cfg()).expect("fault-free run completes");
        let mut plan = FaultPlan::new(seed).with_task_failures(None, p);
        if crash || in_place {
            // Crash mid-run, rejoin shortly after: always recoverable.
            plan = plan.with_node_crash(
                (seed % 2) as usize,
                clean.makespan() * 0.5,
                Some(clean.makespan() * 0.1),
            );
        }
        // A generous budget makes any p < 0.45 recoverable in practice:
        // the keyed hash decides each attempt independently, so eight
        // failures in a row at p = 0.45 never occurs over this domain.
        // The in-place chains run 27 tasks instead of 10, and at seed 102
        // (p = 0.36) one fails nine attempts in a row; 16 retries leave
        // a chance below 0.45^17 ≈ 1.3e-6 per task.
        let max_retries = if in_place { 16 } else { 8 };
        let policy = RecoveryPolicy { max_retries, ..RecoveryPolicy::default() };
        let cfg = base_cfg()
            .with_telemetry()
            .with_faults(plan.clone())
            .with_recovery(policy);
        let a = run(&wf, &cfg).expect("recoverable plan completes");
        prop_assert!(a.check_invariants(&wf, &ClusterSpec::tiny()).is_ok());
        prop_assert_eq!(a.output_fingerprint, clean.output_fingerprint);
        // Only at this crash time: a crash elsewhere can end a run early
        // (`a_crash_can_end_a_run_before_the_fault_free_one`).
        prop_assert!(a.makespan() >= clean.makespan());
        let b = run(&wf, &cfg).expect("deterministic rerun");
        prop_assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
        prop_assert_eq!(a.telemetry.to_jsonl(), b.telemetry.to_jsonl());
    }

    /// Straggler and link-degradation windows never change *what* is
    /// computed, only when: same fingerprint, and for these plans, which
    /// slow the whole run down, never faster.
    #[test]
    fn slowdowns_preserve_the_answer(
        factor in 1.0f64..8.0,
        node in 0usize..2,
    ) {
        let wf = pipeline(4);
        let clean = run(&wf, &base_cfg()).expect("fault-free run completes");
        let m = clean.makespan();
        let plan = FaultPlan::new(1)
            .with_straggler(node, 0.0, m * 2.0, factor)
            .with_link_degradation(0.0, m * 2.0, factor);
        let slowed = run(&wf, &base_cfg().with_faults(plan)).expect("slowdowns are benign");
        prop_assert_eq!(slowed.output_fingerprint, clean.output_fingerprint);
        prop_assert_eq!(slowed.recovery.retries, 0);
        prop_assert!(slowed.makespan() >= m);
    }

    /// Unrecoverable plans — a zero-retry budget under certain failure,
    /// or every node lost for good — return a typed error, not a panic.
    #[test]
    fn unrecoverable_plans_fail_with_a_typed_error(
        seed in 0u64..1024,
        all_nodes_die in prop::bool::ANY,
    ) {
        let wf = pipeline(3);
        let (plan, policy) = if all_nodes_die {
            (
                FaultPlan::new(seed)
                    .with_node_crash(0, 0.001, None)
                    .with_node_crash(1, 0.001, None),
                RecoveryPolicy::default(),
            )
        } else {
            (
                FaultPlan::new(seed).with_task_failures(None, 0.999),
                RecoveryPolicy { max_retries: 0, ..RecoveryPolicy::default() },
            )
        };
        let err = run(&wf, &base_cfg().with_faults(plan).with_recovery(policy))
            .expect_err("plan is unrecoverable");
        let msg = err.to_string();
        prop_assert!(
            msg.contains("attempts") || msg.contains("unrecoverable"),
            "unexpected error: {}",
            msg
        );
    }
}

/// Regression: a task running on a *surviving* node when another node
/// crashes is not a crash victim, so no crash-time sweep chases its
/// inputs — but if the crash destroyed a block it consumes and the task
/// *later* fails transiently, its retry must first regenerate the lost
/// producer instead of silently recomputing from a stale lineage
/// (found by `recoverable_plans_converge_to_the_fault_free_output`).
#[test]
fn retry_after_crash_regenerates_lost_inputs() {
    let wf = pipeline(5);
    let clean = run(&wf, &base_cfg()).expect("fault-free run completes");
    let plan = FaultPlan::new(892)
        .with_task_failures(None, 0.01744039453081906)
        .with_node_crash(0, clean.makespan() * 0.5, Some(clean.makespan() * 0.1));
    let policy = RecoveryPolicy {
        max_retries: 8,
        ..RecoveryPolicy::default()
    };
    let cfg = base_cfg().with_faults(plan).with_recovery(policy);
    let a = run(&wf, &cfg).expect("recoverable");
    assert!(a.recovery.transient_failures >= 1, "needs the late retry");
    assert!(a.recovery.blocks_invalidated > 0, "needs the lost blocks");
    assert_eq!(a.output_fingerprint, clean.output_fingerprint);
}

/// A crash can end a run before the fault-free one: node 0 crashing at
/// 0.395 of the fault-free makespan of the in-place chains re-places
/// their tasks into a shorter generation-order schedule. The answer is
/// still the fault-free one; only the makespan's order is not kept, so
/// the recoverable-plans property checks it at its own crash time only.
/// Makespans in seconds, on the simulator's nanosecond grid.
#[test]
fn a_crash_can_end_a_run_before_the_fault_free_one() {
    let wf = fma(3);
    let clean = run(&wf, &base_cfg()).expect("fault-free run completes");
    let m = clean.makespan();
    let plan = FaultPlan::new(600)
        .with_task_failures(None, 0.0859)
        .with_node_crash(0, m * 0.395, Some(m * 0.1));
    let policy = RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    };
    let cfg = base_cfg()
        .with_telemetry()
        .with_faults(plan)
        .with_recovery(policy);
    let a = run(&wf, &cfg).expect("recoverable plan completes");
    a.check_invariants(&wf, &ClusterSpec::tiny()).unwrap();
    assert_eq!(a.output_fingerprint, clean.output_fingerprint);
    for (which, got, pinned) in [
        ("fault-free", m, 0.447097601),
        ("faulted", a.makespan(), 0.446439385),
    ] {
        assert!(
            (got - pinned).abs() < 1e-9,
            "{which}: makespan {got:.9} drifted from pinned {pinned:.9}"
        );
    }
}

/// A crash late in in-place chains loses versions above 1, chain ends
/// (terminal versions) included, and regenerates them from their own
/// earlier versions.
#[test]
fn a_crash_regenerates_in_place_versions_above_one() {
    let g = 3;
    let wf = fma(g);
    let clean = run(&wf, &base_cfg()).expect("fault-free run completes");
    let m = clean.makespan();
    let plan = FaultPlan::new(7).with_node_crash(0, m * 0.8, Some(m * 0.1));
    let cfg = base_cfg().with_telemetry().with_faults(plan);
    let report = run(&wf, &cfg).expect("recoverable");
    report.check_invariants(&wf, &ClusterSpec::tiny()).unwrap();
    assert_eq!(report.output_fingerprint, clean.output_fingerprint);
    assert!(
        report.recovery.regenerated_tasks > 0,
        "{:?}",
        report.recovery
    );
    // Task `t` is the `t % g`-th step of its chain and writes version
    // `t % g + 1`; one that completes twice was regenerated.
    let mut completions = vec![0u32; wf.tasks().len()];
    for ev in report.telemetry.events() {
        if let TelemetryEvent::TaskCompleted { task, .. } = ev {
            completions[task.0 as usize] += 1;
        }
    }
    let regenerated = |step: usize| {
        (step..wf.tasks().len())
            .step_by(g)
            .any(|t| completions[t] > 1)
    };
    assert!(
        (1..g).any(regenerated),
        "no version above 1 was regenerated: {completions:?}"
    );
    assert!(
        regenerated(g - 1),
        "no chain end was regenerated: {completions:?}"
    );
}

/// The five overhead buckets (compute, data movement, recovery, master,
/// idle) partition the makespan *exactly* in integer nanoseconds, even
/// for a faulted run with crashes and retries — the conservation
/// guarantee the differential blame table is built on.
#[test]
fn overhead_buckets_partition_faulted_makespan_exactly() {
    use gpuflow_runtime::OverheadReport;
    let wf = pipeline(5);
    let clean = run(&wf, &base_cfg()).expect("fault-free run completes");
    let plan = FaultPlan::new(892)
        .with_task_failures(None, 0.017_440_394_530_819_06)
        .with_node_crash(0, clean.makespan() * 0.5, Some(clean.makespan() * 0.1));
    let policy = RecoveryPolicy {
        max_retries: 8,
        ..RecoveryPolicy::default()
    };
    let cfg = base_cfg()
        .with_telemetry()
        .with_faults(plan)
        .with_recovery(policy);
    let report = run(&wf, &cfg).expect("recoverable");
    assert!(report.recovery.transient_failures >= 1, "needs real faults");

    let overhead = OverheadReport::from_log(&report.telemetry, report.makespan());
    let total: u64 = overhead.buckets_ns().iter().map(|(_, ns)| ns).sum();
    assert_eq!(
        total,
        overhead.makespan_ns,
        "buckets {:?} must sum to the makespan exactly",
        overhead.buckets_ns()
    );
    let recovery = overhead
        .buckets_ns()
        .iter()
        .find(|(name, _)| *name == "recovery")
        .map(|(_, ns)| *ns)
        .unwrap();
    assert!(recovery > 0, "a faulted run must book recovery time");
}
