//! Determinism gates for the measurement stack.
//!
//! Two guarantees the perf work must never erode:
//!
//! * **golden makespans** — the simulator is a deterministic function of
//!   its inputs, so canonical Matmul/K-means runs pin exact wall-clock
//!   values under every scheduling policy (any scheduler change that
//!   alters a placement or a tie-break shows up here);
//! * **thread-count independence** — sweeps produce byte-identical
//!   artifacts at any `--threads` setting;
//! * **telemetry transparency** — the event bus is a pure observer:
//!   disabled, artifacts are byte-identical to the seed; enabled, the
//!   JSONL stream is byte-identical at every thread count;
//! * **chaos transparency** — an empty fault plan is a pure observer,
//!   and a *faulted* run is itself a deterministic function of
//!   (seed, plan): byte-identical at every thread count, and a
//!   recoverable crash converges to the fault-free output fingerprint;
//! * **metrics transparency** — the live metrics hub is a pure
//!   observer, the Prometheus exposition is byte-identical at every
//!   thread count, and the live (streamed) registry matches the
//!   post-hoc (`from_log`) registry byte for byte.

use gpuflow_algorithms::{KmeansConfig, MatmulConfig};
use gpuflow_cluster::{ProcessorKind, StorageArchitecture};
use gpuflow_experiments::{
    fig11, measure::par_map, obs, replay, sensitivity, spans, stress, Context,
};
use gpuflow_runtime::{
    FaultPlan, MetricsHub, MetricsRegistry, RunConfig, SchedulingPolicy, SpanForest, SpanSampler,
    Workflow,
};
use gpuflow_sim::SimDuration;
use proptest::prelude::*;

fn canonical_matmul() -> Workflow {
    MatmulConfig::new(gpuflow_data::paper::matmul_128mb(), 4)
        .expect("valid grid")
        .build_workflow()
}

fn canonical_kmeans() -> Workflow {
    KmeansConfig::new(gpuflow_data::paper::kmeans_100mb(), 8, 10, 2)
        .expect("valid grid")
        .build_workflow()
}

fn makespan(ctx: &Context, wf: &Workflow, policy: SchedulingPolicy) -> f64 {
    ctx.run(
        wf,
        ProcessorKind::Cpu,
        StorageArchitecture::SharedDisk,
        policy,
    )
    .report()
    .expect("canonical workloads fit")
    .makespan()
}

/// Pinned makespans (seconds) for the canonical workloads on the default
/// Minotauro cluster, CPU + shared disk, seed 0x9E37. The values sit on
/// the simulator's nanosecond grid, so equality up to 1e-9 is exact.
#[test]
fn golden_makespans_are_pinned_for_all_policies() {
    let ctx = Context::default();
    let mm = canonical_matmul();
    let km = canonical_kmeans();
    let cases = [
        (&mm, SchedulingPolicy::GenerationOrder, 0.440342880),
        (&mm, SchedulingPolicy::DataLocality, 0.579204533),
        (&mm, SchedulingPolicy::CriticalPath, 0.458782256),
        (&km, SchedulingPolicy::GenerationOrder, 0.178916613),
        (&km, SchedulingPolicy::DataLocality, 0.209473418),
        (&km, SchedulingPolicy::CriticalPath, 0.209473418),
    ];
    for (wf, policy, expected) in cases {
        let got = makespan(&ctx, wf, policy);
        assert!(
            (got - expected).abs() < 1e-9,
            "{policy:?}: makespan {got:.9} drifted from pinned {expected:.9}"
        );
    }
}

/// Pinned makespans for the stress-DAG shapes (`repro perf`), which
/// drive the arena executor through paths the canonical workloads
/// don't: a 5000-wide ready set, halo-dependency release, and a deep
/// reduction tree. Any change to the calendar queue, the CSR release
/// walk, the dispatch pool, or the LRU that alters one placement or
/// tie-break moves one of these values.
#[test]
fn golden_makespans_are_pinned_for_stress_shapes() {
    let cfg = stress::stress_config();
    let cases = [
        (stress::Shape::Wide, 4.003555278),
        (stress::Shape::Stencil, 4.009550953),
        (stress::Shape::Tree, 4.042105718),
    ];
    for (shape, expected) in cases {
        let wf = stress::build(shape, 5000);
        let got = gpuflow_runtime::run(&wf, &cfg)
            .expect("stress shapes fit")
            .makespan();
        assert!(
            (got - expected).abs() < 1e-9,
            "{}: makespan {got:.9} drifted from pinned {expected:.9}",
            shape.label()
        );
    }
}

/// Repeated runs of the same configuration are bitwise-identical.
#[test]
fn reruns_are_bitwise_identical() {
    let ctx = Context::default();
    let wf = canonical_kmeans();
    let a = makespan(&ctx, &wf, SchedulingPolicy::DataLocality);
    let b = makespan(&ctx, &wf, SchedulingPolicy::DataLocality);
    assert_eq!(a.to_bits(), b.to_bits());
}

/// `par_map` returns results in item order at every thread count.
#[test]
fn par_map_preserves_item_order() {
    let items: Vec<u64> = (0..103).collect();
    let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
    for threads in [1, 2, 3, 8, 64] {
        assert_eq!(par_map(threads, &items, |_, &x| x * x), expected);
    }
}

/// The Fig. 11 artifact is byte-identical whether the sweep runs on one
/// worker or many — the `--threads` knob must never change results.
#[test]
fn fig11_render_is_identical_across_thread_counts() {
    let single = fig11::run_quick(&Context::default().with_threads(1)).render();
    let multi = fig11::run_quick(&Context::default().with_threads(4)).render();
    assert_eq!(single, multi);
}

/// The sensitivity sweeps run on the context's threads and render the
/// same bytes on one worker or many.
#[test]
fn sensitivity_render_is_identical_across_thread_counts() {
    let single = sensitivity::render_all(&Context::default().with_threads(1));
    let multi = sensitivity::render_all(&Context::default().with_threads(4));
    assert_eq!(single, multi);
}

/// Telemetry is an observer: enabling it must not perturb the simulated
/// schedule. With telemetry off the makespan and the task records are
/// identical to a telemetry-on run of the same configuration — and the
/// off-run's telemetry log is empty.
#[test]
fn telemetry_is_a_pure_observer() {
    let ctx = Context::default();
    let wf = canonical_matmul();
    let base = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Gpu).with_seed(ctx.base_seed);
    let off = gpuflow_runtime::run(&wf, &base.clone()).expect("fits");
    let on = gpuflow_runtime::run(&wf, &base.with_telemetry()).expect("fits");
    assert_eq!(off.makespan().to_bits(), on.makespan().to_bits());
    assert_eq!(off.records, on.records);
    assert!(off.telemetry.is_empty(), "disabled telemetry stays empty");
    assert!(!on.telemetry.is_empty());
}

/// The telemetry JSONL stream is byte-identical at every `--threads`
/// setting, including when several runs execute concurrently under
/// `par_map` — host timing never leaks into the serialized stream.
#[test]
fn telemetry_jsonl_is_identical_across_thread_counts() {
    let single = obs::run(&Context::default().with_threads(1)).jsonl;
    for threads in [4usize, 8] {
        let multi = obs::run(&Context::default().with_threads(threads)).jsonl;
        assert_eq!(single, multi, "--threads {threads}");
    }
    let concurrent = par_map(4, &[(); 4], |_, _| obs::run(&Context::default()).jsonl);
    assert!(concurrent.iter().all(|j| *j == single));
}

/// An *empty* fault plan is a pure observer, exactly like disabled
/// telemetry: attaching it (plus the default recovery policy) changes no
/// artifact bit — makespan, task records, telemetry JSONL, or
/// fingerprint.
#[test]
fn empty_fault_plan_is_a_pure_observer() {
    let ctx = Context::default();
    let wf = canonical_matmul();
    let base = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Gpu)
        .with_seed(ctx.base_seed)
        .with_telemetry();
    let off = gpuflow_runtime::run(&wf, &base.clone()).expect("fits");
    let on = gpuflow_runtime::run(
        &wf,
        &base
            .with_faults(FaultPlan::new(42))
            .with_recovery(gpuflow_runtime::RecoveryPolicy::default()),
    )
    .expect("fits");
    assert_eq!(off.makespan().to_bits(), on.makespan().to_bits());
    assert_eq!(off.records, on.records);
    assert_eq!(off.telemetry.to_jsonl(), on.telemetry.to_jsonl());
    assert_eq!(off.output_fingerprint, on.output_fingerprint);
    assert_eq!(on.recovery, gpuflow_runtime::RecoveryStats::default());
}

/// A faulted run is a deterministic function of (seed, fault plan): the
/// telemetry JSONL — which includes every fault and recovery event — is
/// byte-identical across reruns and under concurrent execution at any
/// thread count.
#[test]
fn faulted_runs_are_identical_across_thread_counts() {
    let ctx = Context::default();
    let wf = canonical_kmeans();
    let plan = FaultPlan::new(7)
        .with_node_crash(1, 0.05, Some(0.04))
        .with_task_failures(None, 0.10);
    let run_once = || {
        let cfg = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Cpu)
            .with_storage(StorageArchitecture::LocalDisk)
            .with_seed(ctx.base_seed)
            .with_telemetry()
            .with_faults(plan.clone());
        let r = gpuflow_runtime::run(&wf, &cfg).expect("recoverable");
        (r.makespan().to_bits(), r.telemetry.to_jsonl())
    };
    let single = run_once();
    assert!(
        single.1.contains("node-down"),
        "the crash must be observable"
    );
    for threads in [1usize, 4, 8] {
        let runs = par_map(threads, &[(); 8], |_, _| run_once());
        assert!(runs.iter().all(|r| *r == single), "{threads} threads");
    }
}

/// The live metrics hub is a pure observer: attaching it changes no
/// artifact bit, and the registry it streams into is byte-identical —
/// in both exposition and series rendering — to one folded post-hoc
/// from the run's telemetry log.
#[test]
fn live_metrics_hub_is_a_pure_observer_and_matches_from_log() {
    let ctx = Context::default();
    let wf = canonical_matmul();
    let base = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Gpu)
        .with_seed(ctx.base_seed)
        .with_telemetry();
    let off = gpuflow_runtime::run(&wf, &base.clone()).expect("fits");
    let hub = MetricsHub::default();
    let on = gpuflow_runtime::run(&wf, &base.with_live_metrics(hub.clone())).expect("fits");
    // Pure observer: the pinned GenerationOrder makespan from
    // `golden_makespans_are_pinned_for_all_policies` (GPU run here, so
    // compare the two runs bit-for-bit rather than against the CPU pin).
    assert_eq!(off.makespan().to_bits(), on.makespan().to_bits());
    assert_eq!(off.telemetry.to_jsonl(), on.telemetry.to_jsonl());
    assert_eq!(off.output_fingerprint, on.output_fingerprint);
    // Streamed == replayed.
    let folded = MetricsRegistry::from_log(&on.telemetry, SimDuration::from_nanos(10_000_000));
    assert_eq!(hub.expose(), folded.expose());
    assert_eq!(hub.render_series(), folded.render_series());
}

/// The Prometheus exposition is byte-identical at every thread count,
/// including under concurrent runs — the metrics pipeline inherits the
/// executor's determinism end to end.
#[test]
fn metrics_exposition_is_identical_across_thread_counts() {
    let ctx = Context::default();
    let wf = canonical_kmeans();
    let expose_once = || {
        let cfg = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Cpu)
            .with_storage(StorageArchitecture::SharedDisk)
            .with_seed(ctx.base_seed)
            .with_telemetry();
        let r = gpuflow_runtime::run(&wf, &cfg).expect("fits");
        MetricsRegistry::from_log(&r.telemetry, SimDuration::from_nanos(10_000_000)).expose()
    };
    let single = expose_once();
    assert!(single.contains("gpuflow_task_duration_seconds_bucket"));
    for threads in [1usize, 4, 8] {
        let runs = par_map(threads, &[(); 8], |_, _| expose_once());
        assert!(runs.iter().all(|e| *e == single), "{threads} threads");
    }
}

/// A replay scenario — arrivals, tenant mix, chaos plan and all — is
/// byte-identical at every thread count, and seed-sensitive.
#[test]
fn replay_artifact_is_identical_across_thread_counts() {
    let spec = replay::ReplaySpec {
        jobs: 6,
        chaos: true,
        ..replay::ReplaySpec::default()
    };
    let render = |spec: &replay::ReplaySpec| replay::run(spec).expect("replay runs").render();
    let single = render(&spec);
    for threads in [4usize, 8] {
        let runs = par_map(threads, &[(); 4], |_, _| render(&spec));
        assert!(runs.iter().all(|r| *r == single), "{threads} threads");
    }
    let other = render(&replay::ReplaySpec {
        seed: 0xBEEF,
        ..spec
    });
    assert_ne!(single, other, "seed must matter");
}

/// The entire span-tracing surface — the OTLP-shaped span JSON, the
/// collapsed-stack flame graph, and the SLO alert firing timeline — is
/// byte-identical at every thread count, including under concurrent
/// runs: causal folding, sampling, and alert evaluation all ride the
/// integer virtual clock, never host timing.
#[test]
fn span_flame_and_alert_outputs_are_identical_across_thread_counts() {
    let spec = replay::ReplaySpec {
        jobs: 6,
        chaos: true,
        ..replay::ReplaySpec::default()
    };
    let run_once = || {
        let r = spans::run(&spec, spans::DEFAULT_RATE_PPM, spans::DEFAULT_SAMPLER_SEED)
            .expect("spans run");
        let timeline = r
            .metrics
            .alerts()
            .map(|eng| eng.render_timeline())
            .unwrap_or_default();
        (r.forest.to_otlp_json(), r.collapsed(), timeline, r.render())
    };
    let single = run_once();
    assert!(single.0.contains("resourceSpans"));
    assert!(single.1.starts_with("gpuflow;"));
    for threads in [1usize, 4, 8] {
        let runs = par_map(threads, &[(); 4], |_, _| run_once());
        assert!(runs.iter().all(|r| *r == single), "{threads} threads");
    }
}

/// The span forest the sampler property suite below filters: one real
/// chaos run (with retries and a critical path), folded once.
fn sampler_fixture() -> &'static SpanForest {
    static FOREST: std::sync::OnceLock<SpanForest> = std::sync::OnceLock::new();
    FOREST.get_or_init(|| {
        let spec = replay::ReplaySpec {
            jobs: 6,
            chaos: true,
            ..replay::ReplaySpec::default()
        };
        spans::run(&spec, 0, 0).expect("spans run").forest
    })
}

proptest! {
    /// For *any* sampler seed and head rate — including rate 0, which
    /// drops everything the always-keep rules don't protect — the
    /// sampled trace retains every critical-path span: the sampler may
    /// thin the forest, never the path that determined the makespan.
    #[test]
    fn sampled_traces_retain_every_critical_path_span(
        seed in 0u64..u64::MAX,
        rate in 0u64..1_000_001,
    ) {
        let forest = sampler_fixture();
        let critical: Vec<_> = forest
            .tasks
            .iter()
            .filter(|t| t.on_critical_path)
            .map(|t| t.task)
            .collect();
        prop_assert!(!critical.is_empty(), "fixture must have a critical path");
        let (kept, stats) = SpanSampler::new(seed, rate).sample(forest);
        for id in &critical {
            prop_assert!(
                kept.tasks.iter().any(|t| t.task == *id),
                "critical task {id:?} dropped at seed={seed:#x} rate={rate}"
            );
        }
        prop_assert_eq!(stats.critical, critical.len());
        prop_assert!(stats.kept >= stats.critical);
    }
}

/// A recoverable node crash (with rejoin) on local-disk storage loses
/// blocks mid-run, yet lineage-based regeneration converges to the exact
/// fault-free output fingerprint.
#[test]
fn recoverable_crash_converges_to_the_fault_free_fingerprint() {
    let ctx = Context::default();
    let wf = canonical_kmeans();
    let base = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Cpu)
        .with_storage(StorageArchitecture::LocalDisk)
        .with_seed(ctx.base_seed);
    let clean = gpuflow_runtime::run(&wf, &base.clone()).expect("fits");
    let plan = FaultPlan::new(11).with_node_crash(0, clean.makespan() * 0.4, Some(0.02));
    let faulted = gpuflow_runtime::run(&wf, &base.with_faults(plan)).expect("recoverable");
    assert_eq!(clean.output_fingerprint, faulted.output_fingerprint);
    assert!(faulted.check_invariants(&wf, &ctx.cluster).is_ok());
}
