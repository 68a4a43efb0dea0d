//! Behavioural integration tests for executor mechanisms that the paper's
//! analysis depends on: scheduling overhead, barriers, storage paths,
//! heterogeneity + threads combined, pipeline execution, and trace export
//! formats.

use gpuflow::algorithms::{KmeansConfig, Session};
use gpuflow::cluster::{
    ClusterSpec, KernelWork, NodeResources, ProcessorKind, StorageArchitecture,
};
use gpuflow::data::{DatasetSpec, GridDim};
use gpuflow::runtime::{
    run, to_paraver_prv, CostProfile, Direction, RunConfig, SchedulingPolicy, Trace,
    WorkflowBuilder,
};

fn compute_cost(flops: f64) -> CostProfile {
    CostProfile::fully_parallel(KernelWork {
        flops,
        bytes: flops / 10.0,
        parallelism: 1e9,
    })
}

#[test]
fn scheduling_overhead_delays_the_first_dispatch() {
    let mut b = WorkflowBuilder::new();
    let x = b.input("x", 1 << 20);
    b.submit("t", compute_cost(1e9), &[(x, Direction::In)], false)
        .unwrap();
    let wf = b.build();
    let cluster = ClusterSpec::tiny();
    let fifo_overhead = cluster.sched_overhead_fifo.as_secs_f64();
    let report = run(&wf, &RunConfig::new(cluster, ProcessorKind::Cpu)).unwrap();
    let first_start = report.records[0].start.as_secs_f64();
    assert!(
        (first_start - fifo_overhead).abs() < 1e-9,
        "dispatch happens after exactly one master decision: {first_start}"
    );
    // The locality policy pays its higher decision cost.
    let cluster = ClusterSpec::tiny();
    let loc_overhead = cluster.sched_overhead_locality.as_secs_f64();
    let report = run(
        &wf,
        &RunConfig::new(cluster, ProcessorKind::Cpu).with_policy(SchedulingPolicy::DataLocality),
    )
    .unwrap();
    assert!((report.records[0].start.as_secs_f64() - loc_overhead).abs() < 1e-9);
}

#[test]
fn barriers_serialise_phases_in_simulated_time() {
    let mut b = WorkflowBuilder::new();
    let outs: Vec<_> = (0..4)
        .map(|i| b.intermediate(format!("o{i}"), 1 << 20))
        .collect();
    for o in &outs {
        b.submit("phase1", compute_cost(1e9), &[(*o, Direction::Out)], false)
            .unwrap();
    }
    b.barrier().unwrap();
    for o in &outs {
        b.submit(
            "phase2",
            compute_cost(1e9),
            &[(*o, Direction::InOut)],
            false,
        )
        .unwrap();
    }
    let wf = b.build();
    let cluster = ClusterSpec::tiny();
    let report = run(&wf, &RunConfig::new(cluster.clone(), ProcessorKind::Cpu)).unwrap();
    report.check_invariants(&wf, &cluster).unwrap();
    let phase_end = |ty: &str| {
        report
            .records
            .iter()
            .filter(|r| r.task_type == ty)
            .map(|r| r.end)
            .max()
            .unwrap()
    };
    let phase_start = |ty: &str| {
        report
            .records
            .iter()
            .filter(|r| r.task_type == ty)
            .map(|r| r.start)
            .min()
            .unwrap()
    };
    assert!(
        phase_start("phase2") >= phase_end("phase1"),
        "no phase-2 task may start before every phase-1 task finished"
    );
}

#[test]
fn local_storage_round_trips_written_data_cheaply() {
    // An iterative workflow re-reading its own outputs: with local disks
    // the re-read hits the writer's node (home tracking); with the shared
    // file system every round trip crosses the NIC+GPFS path. Use a
    // single node so placement cannot hide the difference, and blocks
    // large enough that bandwidth dominates latency.
    let mut b = WorkflowBuilder::new();
    let big = 512 << 20;
    let x = b.input("x", big);
    let y = b.intermediate("y", big);
    let z = b.intermediate("z", big);
    b.submit(
        "w1",
        compute_cost(1e8),
        &[(x, Direction::In), (y, Direction::Out)],
        false,
    )
    .unwrap();
    b.submit(
        "w2",
        compute_cost(1e8),
        &[(y, Direction::In), (z, Direction::Out)],
        false,
    )
    .unwrap();
    let wf = b.build();
    let mut cluster = ClusterSpec::tiny();
    cluster.nodes = 1;
    // Disable the object cache so the storage path is actually exercised.
    let mut cfg = RunConfig::new(cluster, ProcessorKind::Cpu);
    cfg.cache_fraction = 1e-9;
    let local = run(
        &wf,
        &cfg.clone().with_storage(StorageArchitecture::LocalDisk),
    )
    .unwrap()
    .makespan();
    let shared = run(&wf, &cfg.with_storage(StorageArchitecture::SharedDisk))
        .unwrap()
        .makespan();
    assert!(local < shared, "local {local} vs shared {shared}");
}

#[test]
fn threads_and_heterogeneity_compose() {
    let cluster = ClusterSpec::tiny().with_overrides(vec![
        NodeResources {
            cpu_cores: 8,
            gpus: 0,
        },
        NodeResources {
            cpu_cores: 2,
            gpus: 1,
        },
    ]);
    let wf = KmeansConfig::new(DatasetSpec::uniform("t", 40_000, 100, 1), 5, 10, 2)
        .unwrap()
        .build_workflow();
    let cfg = RunConfig::new(cluster.clone(), ProcessorKind::Cpu).with_cpu_threads(2);
    let report = run(&wf, &cfg).unwrap();
    report.check_invariants(&wf, &cluster).unwrap();
    assert_eq!(report.records.len(), wf.tasks().len());
}

#[test]
fn pipeline_workflows_pass_the_executor_audit() {
    let mut s = Session::new();
    let a = s
        .load(
            DatasetSpec::uniform("a", 8_192, 8_192, 1),
            GridDim::square(4),
        )
        .unwrap();
    let b = s
        .load(
            DatasetSpec::uniform("b", 8_192, 8_192, 2),
            GridDim::square(4),
        )
        .unwrap();
    let c = s.matmul(&a, &b).unwrap();
    s.cholesky(&c).unwrap();
    s.kmeans_fit(&c, 16, 2).unwrap();
    let wf = s.build();
    let cluster = ClusterSpec::minotauro();
    for proc in ProcessorKind::ALL {
        let report = run(&wf, &RunConfig::new(cluster.clone(), proc)).unwrap();
        report.check_invariants(&wf, &cluster).unwrap();
    }
}

#[test]
fn paraver_export_is_well_formed_for_real_runs() {
    let wf = KmeansConfig::new(DatasetSpec::uniform("t", 32_000, 100, 1), 8, 10, 1)
        .unwrap()
        .build_workflow();
    let cluster = ClusterSpec::minotauro();
    let report = run(
        &wf,
        &RunConfig::new(cluster.clone(), ProcessorKind::Gpu).with_telemetry(),
    )
    .unwrap();
    let trace = Trace::from_telemetry(&report.telemetry);
    let prv = to_paraver_prv(&trace, cluster.nodes);
    let mut lines = prv.lines();
    assert!(lines.next().unwrap().starts_with("#Paraver"));
    for line in lines {
        let fields: Vec<&str> = line.split(':').collect();
        assert_eq!(fields.len(), 8, "bad record: {line}");
        assert_eq!(fields[0], "1", "state records start with type 1");
        let state: u32 = fields[7].parse().unwrap();
        assert!((1..=5).contains(&state));
        let begin: u64 = fields[5].parse().unwrap();
        let end: u64 = fields[6].parse().unwrap();
        assert!(end > begin);
    }
    // Every traced interval appears.
    assert_eq!(prv.lines().count(), trace.len() + 1);
}

#[test]
fn gpu_utilization_reflects_kernel_occupancy() {
    // Compute-heavy coarse tasks keep devices busy; the utilization
    // metric must move accordingly.
    let heavy = KmeansConfig::new(gpuflow::data::paper::kmeans_10gb(), 32, 1000, 1)
        .unwrap()
        .build_workflow();
    let light = KmeansConfig::new(gpuflow::data::paper::kmeans_10gb(), 32, 10, 1)
        .unwrap()
        .build_workflow();
    let cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Gpu);
    let u_heavy = run(&heavy, &cfg).unwrap().metrics.gpu_utilization;
    let u_light = run(&light, &cfg).unwrap().metrics.gpu_utilization;
    assert!(u_heavy > u_light, "heavy {u_heavy} vs light {u_light}");
    assert!((0.0..=1.0).contains(&u_heavy));
}
