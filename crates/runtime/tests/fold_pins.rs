//! Golden pins of the telemetry folds on faulted runs.
//!
//! Every post-hoc consumer of the event stream — the run profile, the
//! span forest and its exporters, the overhead partition, the critical
//! path and the Chrome export — is folded from two runs with retries,
//! resubmits and lineage regeneration, and the outputs are pinned byte
//! for byte (large documents by length and digest). Attempt
//! bookkeeping is where folds disagree first, so these runs are the
//! ones that catch a fold pairing events with the wrong attempt.
//!
//! The `executor_*` pins cover executor paths that no other golden
//! reaches: GPU-to-CPU fallback, the locality policies steering retries
//! away from the failing node, the per-tenant job window, and
//! multi-threaded CPU tasks across a crash. Their documents add the
//! telemetry digest, the output fingerprint, the recovery counters and
//! the makespan, so any change to the executor's decisions shows.
//!
//! The folds that read the log's one attempt index are also run in
//! every order on one log, and the overhead partition at two makespans,
//! so that a fold reading state another fold left in the index fails.
//!
//! Regenerate after a deliberate change with:
//! `GOLDEN_REGEN=1 cargo test -p gpuflow-runtime --test fold_pins`

use std::fmt::Write as _;

use gpuflow_cluster::{ClusterSpec, KernelWork, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::jobs::{build, build_jobs};
use gpuflow_runtime::trace_analysis::critical_path_from_telemetry;
use gpuflow_runtime::{
    run, to_chrome_trace, to_collapsed, CostProfile, Direction, FaultPlan, JobSchedule, JobShape,
    JobSpec, OverheadReport, RecoveryPolicy, RunConfig, RunProfile, RunReport, SchedulingPolicy,
    SpanForest, TelemetryLog, TenantSpec, Workflow, WorkflowBuilder,
};

const MB: u64 = 1 << 20;

fn golden_compare(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if the change is deliberate, \
         regenerate with GOLDEN_REGEN=1"
    );
}

/// Length and FNV-1a digest of a document too large to pin verbatim.
fn digest(doc: &str) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in doc.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{} bytes fnv1a {h:016x}", doc.len())
}

/// Every fold of the run's telemetry, rendered into one pin document.
fn render_folds(wf: &Workflow, report: &RunReport) -> String {
    let log = &report.telemetry;
    let makespan = report.makespan();
    let mut out = String::from("-- profile --\n");
    let profile = RunProfile::from_telemetry("pin", wf, log, makespan).expect("profile");
    out.push_str(&profile.render());
    let forest = SpanForest::from_telemetry(wf, log);
    let _ = writeln!(out, "-- span summary --\n{}", forest.summary_json());
    out.push_str("-- collapsed --\n");
    out.push_str(&to_collapsed(&forest));
    let _ = writeln!(out, "-- otlp --\n{}", digest(&forest.to_otlp_json()));
    out.push_str("-- overhead --\n");
    let overhead = OverheadReport::from_log(log, makespan);
    for (name, ns) in overhead.buckets_ns() {
        let _ = writeln!(out, "{name} {ns}");
    }
    let _ = writeln!(
        out,
        "decisions {} failures {} retries {}",
        overhead.decisions, overhead.task_failures, overhead.retries
    );
    out.push_str("-- critical path --\n");
    for hop in critical_path_from_telemetry(wf, log) {
        let _ = writeln!(out, "t{} {}", hop.task.0, hop.end.as_nanos());
    }
    let _ = writeln!(out, "-- chrome --\n{}", digest(&to_chrome_trace(log)));
    out
}

/// A GPU shared-disk replay: 24 jobs of every shape arriving over a
/// quarter of a virtual second, a node crash with rejoin and a GPU
/// failure (resubmits), and transient failures on one tenant's wide
/// tasks (retries).
#[test]
fn gpu_chaos_replay_folds_match_golden() {
    let jobs: Vec<JobSpec> = (0..24)
        .map(|id| JobSpec {
            id,
            tenant: id % 3,
            shape: JobShape::ALL[(id * 7 / 3) % 3],
            tasks: 8 + (id * 5) % 24,
            arrival_secs: id as f64 * 0.01,
            priority: 0,
        })
        .collect();
    let (wf, arrivals) = build(&jobs);
    let plan = FaultPlan::new(0xF01D)
        .with_node_crash(1, 0.1, Some(0.2))
        .with_gpu_failure(3, 0.12)
        .with_task_failures(Some("wide_t0"), 0.2);
    let mut cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Gpu)
        .with_storage(StorageArchitecture::SharedDisk)
        .with_policy(SchedulingPolicy::GenerationOrder)
        .with_seed(0xF01D)
        .with_arrivals(arrivals)
        .with_telemetry()
        .with_faults(plan)
        .with_recovery(RecoveryPolicy {
            max_retries: 8,
            ..RecoveryPolicy::default()
        });
    cfg.jitter_sigma = 0.0;
    let report = run(&wf, &cfg).expect("recoverable plan completes");
    assert!(report.recovery.retries > 0, "needs retries");
    assert!(report.recovery.resubmissions > 0, "needs a resubmit");
    golden_compare("folds_gpu_chaos_replay.txt", &render_folds(&wf, &report));
}

/// Independent chains `x -> a -> b -> c`, `width` of them.
fn chains(width: usize) -> Workflow {
    let cost = CostProfile::fully_parallel(KernelWork {
        flops: 1e9,
        bytes: 1e8,
        parallelism: 1e9,
    });
    let mut b = WorkflowBuilder::new();
    for i in 0..width {
        let x = b.input(format!("x{i}"), MB);
        let mut prev = x;
        for stage in ["a", "b", "c"] {
            let out = b.intermediate(format!("{stage}{i}"), MB);
            b.submit(
                stage,
                cost,
                &[(prev, Direction::In), (out, Direction::Out)],
                false,
            )
            .expect("submit");
            prev = out;
        }
    }
    b.build()
}

/// A CPU local-disk run whose node crash destroys completed outputs,
/// so lineage recovery re-dispatches completed tasks, plus transient
/// failures on top.
#[test]
fn cpu_crash_regeneration_folds_match_golden() {
    let (wf, report) = crash_regeneration_run();
    golden_compare("folds_cpu_crash_regen.txt", &render_folds(&wf, &report));
}

/// The run of [`cpu_crash_regeneration_folds_match_golden`].
fn crash_regeneration_run() -> (Workflow, RunReport) {
    let wf = chains(6);
    let mut base = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu)
        .with_storage(StorageArchitecture::LocalDisk);
    base.jitter_sigma = 0.0;
    let clean = run(&wf, &base).expect("fault-free run completes");
    let plan = FaultPlan::new(5)
        .with_task_failures(None, 0.2)
        .with_node_crash(0, clean.makespan() * 0.5, Some(clean.makespan() * 0.1));
    let cfg = base
        .with_telemetry()
        .with_faults(plan)
        .with_recovery(RecoveryPolicy {
            max_retries: 8,
            ..RecoveryPolicy::default()
        });
    let report = run(&wf, &cfg).expect("recoverable plan completes");
    assert!(
        report.recovery.regenerated_tasks > 0,
        "needs lineage regeneration: {:?}",
        report.recovery
    );
    assert!(report.recovery.transient_failures > 0, "needs retries");
    assert_eq!(report.output_fingerprint, clean.output_fingerprint);
    (wf, report)
}

/// A fold of a run's log at a makespan, rendered to text.
type Fold = fn(&Workflow, &TelemetryLog, f64) -> String;

/// The four folds that read the log's attempt index.
const INDEXED_FOLDS: [(&str, Fold); 4] = [
    ("spans", |wf, log, _| {
        let forest = SpanForest::from_telemetry(wf, log);
        format!("{}\n{}", forest.summary_json(), forest.to_otlp_json())
    }),
    ("profile", |wf, log, makespan| {
        let profile = RunProfile::from_telemetry("pin", wf, log, makespan).expect("profile");
        profile.render()
    }),
    ("overhead", |_, log, makespan| {
        format!("{:?}", OverheadReport::from_log(log, makespan))
    }),
    ("critical path", |wf, log, _| {
        format!("{:?}", critical_path_from_telemetry(wf, log))
    }),
];

/// Each fold gives the same bytes on a fresh log as after the other
/// three have built and read the log's one index.
#[test]
fn folds_agree_first_or_after_the_others() {
    let (wf, report) = crash_regeneration_run();
    let makespan = report.makespan();
    let fresh = || TelemetryLog::from_events(report.telemetry.events().to_vec());
    for (k, (name, fold)) in INDEXED_FOLDS.iter().enumerate() {
        let first = fold(&wf, &fresh(), makespan);
        let log = fresh();
        for (_, other) in INDEXED_FOLDS.iter().filter(|(n, _)| n != name) {
            other(&wf, &log, makespan);
        }
        assert_eq!(fold(&wf, &log, makespan), first, "fold {k}, {name}");
    }
}

/// The sweep the index keeps does not depend on the makespan: one log
/// decomposed at two makespans matches a fresh log at each.
#[test]
fn overhead_reports_of_one_log_follow_the_makespan() {
    let (_, report) = crash_regeneration_run();
    let fresh = || TelemetryLog::from_events(report.telemetry.events().to_vec());
    let log = fresh();
    let (full, half) = (report.makespan(), report.makespan() / 2.0);
    let at_full = OverheadReport::from_log(&log, full);
    let at_half = OverheadReport::from_log(&log, half);
    assert_ne!(at_full, at_half);
    assert_eq!(at_full, OverheadReport::from_log(&fresh(), full));
    assert_eq!(at_half, OverheadReport::from_log(&fresh(), half));
    assert_eq!(OverheadReport::from_log(&log, full), at_full);
}

/// [`render_folds`] plus the run's own outputs: the telemetry stream's
/// digest, the output fingerprint, the recovery counters and the
/// makespan in nanoseconds.
fn render_run(wf: &Workflow, report: &RunReport) -> String {
    let mut out = render_folds(wf, report);
    let _ = writeln!(
        out,
        "-- run --\ntelemetry {}\nfingerprint {:016x}\nrecovery {:?}\nmakespan_ns {}",
        digest(&report.telemetry.to_jsonl()),
        report.output_fingerprint,
        report.recovery,
        (report.makespan() * 1e9).round() as u64
    );
    out
}

/// Every GPU of node 0 fails, one while busy and one while idle, and
/// the fallback policy moves node 0's GPU tasks onto its cores.
#[test]
fn executor_gpu_fallback_pins() {
    let wf = chains(6);
    let mut cluster = ClusterSpec::tiny();
    cluster.node.gpus = 2;
    let mut base = RunConfig::new(cluster, ProcessorKind::Gpu);
    base.jitter_sigma = 0.0;
    let clean = run(&wf, &base).expect("fault-free run completes");
    let plan = FaultPlan::new(17)
        .with_gpu_failure(0, clean.makespan() * 0.2)
        .with_gpu_failure(0, clean.makespan() * 0.4);
    let cfg = base
        .with_telemetry()
        .with_faults(plan)
        .with_recovery(RecoveryPolicy {
            gpu_to_cpu_fallback: true,
            ..RecoveryPolicy::default()
        });
    let report = run(&wf, &cfg).expect("fallback keeps the run alive");
    assert!(report.recovery.gpu_fallbacks > 0, "{:?}", report.recovery);
    assert_eq!(report.output_fingerprint, clean.output_fingerprint);
    golden_compare("executor_gpu_fallback.txt", &render_run(&wf, &report));
}

/// Chains of the given lengths, shortest first, so that generation
/// order and upward rank disagree about what to dispatch.
fn ragged_chains(lengths: &[usize]) -> Workflow {
    let mut b = WorkflowBuilder::new();
    for (i, &len) in lengths.iter().enumerate() {
        let cost = CostProfile::fully_parallel(KernelWork {
            flops: 1e9 * (1 + i % 3) as f64,
            bytes: 1e8,
            parallelism: 1e9,
        });
        let mut prev = b.input(format!("x{i}"), MB);
        for s in 0..len {
            let out = b.intermediate(format!("c{i}_{s}"), MB);
            b.submit(
                "link",
                cost,
                &[(prev, Direction::In), (out, Direction::Out)],
                false,
            )
            .expect("submit");
            prev = out;
        }
    }
    b.build()
}

/// The two cache-scoring policies under transient failures: a retried
/// task is steered away from the node that failed it.
#[test]
fn executor_locality_retry_pins() {
    let wf = ragged_chains(&[1, 1, 1, 1, 1, 1, 2, 2, 3, 4, 5, 6]);
    let mut doc = String::new();
    for policy in [
        SchedulingPolicy::DataLocality,
        SchedulingPolicy::CriticalPath,
    ] {
        let mut cfg = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu)
            .with_storage(StorageArchitecture::LocalDisk)
            .with_policy(policy)
            .with_telemetry()
            .with_faults(FaultPlan::new(29).with_task_failures(None, 0.25))
            .with_recovery(RecoveryPolicy {
                max_retries: 8,
                resubmit_alternate: true,
                ..RecoveryPolicy::default()
            });
        cfg.jitter_sigma = 0.0;
        let report = run(&wf, &cfg).expect("recoverable plan completes");
        assert!(report.recovery.retries > 0, "needs retries");
        let _ = writeln!(doc, "== {policy:?} ==");
        doc.push_str(&render_run(&wf, &report));
    }
    golden_compare("executor_locality_retry.txt", &doc);
}

/// A job gate with unequal tenant weights and a per-tenant cap of one
/// job in flight.
#[test]
fn executor_tenant_window_pins() {
    let specs: Vec<JobSpec> = (0..12)
        .map(|id| JobSpec {
            id,
            tenant: id % 3,
            shape: JobShape::ALL[id % 3],
            tasks: 8 + (id * 3) % 12,
            arrival_secs: id as f64 * 0.002,
            priority: (id % 2) as u32,
        })
        .collect();
    let (wf, built) = build_jobs(&specs);
    let tenants = [("a", 1), ("b", 3), ("c", 2)]
        .into_iter()
        .map(|(name, weight)| TenantSpec {
            name: name.to_string(),
            weight,
        })
        .collect();
    let mut sched = JobSchedule::assemble(tenants, &specs, &built, 2);
    sched.max_inflight_per_tenant = 1;
    let mut cfg = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu)
        .with_jobs(sched)
        .with_telemetry();
    cfg.jitter_sigma = 0.0;
    let report = run(&wf, &cfg).expect("gated run completes");
    golden_compare("executor_tenant_window.txt", &render_run(&wf, &report));
}

/// Two-thread CPU tasks on local disks through a node crash and
/// rejoin.
#[test]
fn executor_threaded_crash_pins() {
    let wf = chains(6);
    let mut base = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu)
        .with_storage(StorageArchitecture::LocalDisk)
        .with_cpu_threads(2);
    base.jitter_sigma = 0.0;
    let clean = run(&wf, &base).expect("fault-free run completes");
    let plan =
        FaultPlan::new(31).with_node_crash(1, clean.makespan() * 0.4, Some(clean.makespan() * 0.2));
    let report = run(&wf, &base.with_telemetry().with_faults(plan)).expect("crash recovers");
    assert!(report.recovery.resubmissions > 0, "{:?}", report.recovery);
    assert_eq!(report.output_fingerprint, clean.output_fingerprint);
    golden_compare("executor_threaded_crash.txt", &render_run(&wf, &report));
}
