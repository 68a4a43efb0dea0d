//! `gpuflow` — command-line front end for the simulator, the advisor,
//! and the trace tooling.
//!
//! ```text
//! gpuflow run    --workload kmeans --rows 12500000 --cols 100 --grid 256 \
//!                [--clusters 10] [--iterations 3] [--processor gpu]
//!                [--storage shared|local] [--policy fifo|locality]
//!                [--threads N] [--prv out.prv] [--csv out.csv]
//! gpuflow obs    <export-chrome|decisions|overhead|profile|summary|metrics|jsonl|spans|flame>
//!                --workload matmul --rows 16384 --cols 16384 --grid 16
//!                [run options] [--out FILE] [--json] [--series]
//! gpuflow serve  --workload matmul --rows 16384 --cols 16384 --grid 16
//!                [run options] [--metrics-port P] [--metrics-interval SECS] [--requests N]
//! gpuflow submit --port P --tenant NAME --tasks N [--shape S] [--prio N]
//! gpuflow queue  --port P [--json]
//! gpuflow cancel --port P --job N
//! gpuflow ctl    <drain|health|report|metrics|alerts|log|shutdown> --port P
//! gpuflow diff   A.profile B.profile [--json] [--out FILE]
//! gpuflow lint   [--root DIR] [--json | --sarif] [--out FILE]
//! gpuflow lint   --explain
//! gpuflow doctor --workload matmul --rows 16384 --cols 16384 --grid 16
//!                [run options] [--json]   (or: --profile FILE)
//! gpuflow advise --workload matmul --rows 32768 --cols 32768
//! gpuflow dag    --workload kmeans --rows 4096 --cols 16 --grid 4 [--iterations 3]
//! gpuflow chaos  [--threads N]
//! gpuflow help
//! ```
//!
//! `run` additionally accepts a deterministic fault-injection plan
//! (`--faults SPEC`, grammar in `docs/fault_tolerance.md`) and recovery
//! tuning (`--max-retries`, `--backoff`, `--resubmit`, `--fallback`);
//! `chaos` sweeps failure rate x recovery policy for both paper
//! workloads and reports makespan and output convergence.
//!
//! Workloads: `matmul`, `fma`, `kmeans`, `knn`, `cholesky`.

use std::process::ExitCode;

use gpuflow::advisor::{Advisor, SearchSpace, Workload};
use gpuflow::analysis::{DoctorReport, WhatIf};
use gpuflow::cli::{
    daemon_request_from, faults_from, policy_from, processor_from, recovery_from, storage_from,
    workload_from, Args, CTL_ACTIONS,
};
use gpuflow::cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow::runtime::{
    run, to_chrome_trace, to_collapsed, to_paraver_prv, trace_analysis, MetricsHub,
    MetricsRegistry, OverheadReport, RunConfig, RunDiff, RunProfile, SchedulingPolicy, SpanForest,
    SpanSampler, Trace, Workflow,
};
use gpuflow::sim::SimDuration;

fn build_workflow(args: &Args) -> Result<(Workload, Workflow), String> {
    let workload = workload_from(args)?;
    let grid: u64 = args.required_num("grid")?;
    let workflow = workload
        .build(grid)
        .map_err(|e| format!("cannot partition: {e}"))?;
    Ok((workload, workflow))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let (workload, workflow) = build_workflow(args)?;
    let processor = processor_from(args)?;
    let threads: usize = args.num("threads", 1)?;
    let cluster = ClusterSpec::minotauro();
    let want_trace = args.get("prv").is_some() || args.get("csv").is_some();
    let faults = faults_from(args)?;
    let mut config = RunConfig::new(cluster.clone(), processor)
        .with_storage(storage_from(args)?)
        .with_policy(policy_from(args)?)
        .with_cpu_threads(threads)
        .with_recovery(recovery_from(args)?);
    if let Some(plan) = faults.clone() {
        config = config.with_faults(plan);
    }
    if want_trace {
        config = config.with_telemetry();
    }

    let shape = workflow.shape();
    println!("workload:  {}", workload.label());
    println!(
        "workflow:  {} tasks, DAG width {}, height {}",
        shape.tasks, shape.max_width, shape.height
    );
    println!(
        "cluster:   {} nodes x ({} cores + {} GPUs)",
        cluster.nodes, cluster.node.cpu_cores, cluster.node.gpus
    );
    let report = run(&workflow, &config).map_err(|e| e.to_string())?;
    println!("makespan:  {:.3} s", report.makespan());
    println!(
        "cpu util:  {:.1} %   gpu kernel util: {:.1} %",
        report.metrics.cpu_utilization * 100.0,
        report.metrics.gpu_utilization * 100.0
    );
    println!(
        "cache:     {} hits / {} misses   sched overhead: {:.3} s",
        report.metrics.cache_hits, report.metrics.cache_misses, report.metrics.sched_overhead
    );
    for (name, stats) in &report.metrics.per_type {
        println!(
            "task {name:>14}: n={:<5} user {:.4}s (serial {:.4} | parallel {:.4} | comm {:.4})",
            stats.count, stats.user_code, stats.serial, stats.parallel, stats.comm
        );
    }
    if processor == ProcessorKind::Gpu {
        let wasted = trace_analysis::cpu_busy_gpu_idle_seconds(&report.records, 1);
        println!("resource wastage (CPU busy, GPUs idle): {wasted:.3} s");
    }
    if faults.is_some() {
        let r = &report.recovery;
        println!(
            "faults:    {} injected | {} transient, {} crash-induced failures",
            r.faults_injected, r.transient_failures, r.crash_failures
        );
        println!(
            "recovery:  {} retries, {} resubmissions, {} regenerated tasks, {} GPU->CPU fallbacks, {} blocks invalidated",
            r.retries, r.resubmissions, r.regenerated_tasks, r.gpu_fallbacks, r.blocks_invalidated
        );
        println!("output fingerprint: {:#018x}", report.output_fingerprint);
    }
    let trace = Trace::from_telemetry(&report.telemetry);
    if let Some(path) = args.get("prv") {
        let prv = to_paraver_prv(&trace, cluster.nodes);
        std::fs::write(path, prv).map_err(|e| format!("writing {path}: {e}"))?;
        println!("paraver trace written to {path}");
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, trace.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("csv trace written to {path}");
    }
    Ok(())
}

/// Runs a workload with full telemetry and distills the stream into a
/// [`RunProfile`] carrying the configuration factors, so `obs profile`,
/// `doctor`, and `diff` inputs all describe runs the same way.
fn profile_from_args(args: &Args) -> Result<(Workload, RunProfile), String> {
    let (workload, workflow) = build_workflow(args)?;
    let grid: u64 = args.required_num("grid")?;
    let processor = processor_from(args)?;
    let storage = storage_from(args)?;
    let policy = policy_from(args)?;
    let threads: usize = args.num("threads", 1)?;
    let mut config = RunConfig::new(ClusterSpec::minotauro(), processor)
        .with_storage(storage)
        .with_policy(policy)
        .with_cpu_threads(threads)
        .with_recovery(recovery_from(args)?)
        .with_telemetry();
    if let Some(plan) = faults_from(args)? {
        config = config.with_faults(plan);
    }
    let report = run(&workflow, &config).map_err(|e| e.to_string())?;
    let label = format!(
        "{} grid {grid} {} {} {}",
        workload.label(),
        processor.label(),
        storage.label(),
        policy.label()
    );
    let profile =
        RunProfile::from_telemetry(&label, &workflow, &report.telemetry, report.makespan())?
            .with_factor("workload", &workload.label())
            .with_factor("grid", &grid.to_string())
            .with_factor("processor", processor.label())
            .with_factor("storage", storage.label())
            .with_factor("policy", policy.label());
    Ok((workload, profile))
}

/// Prints `output`, or writes it to `--out FILE` when given.
fn emit(args: &Args, what: &str, output: &str) -> Result<(), String> {
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, output).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("{what} written to {path}");
        }
        None => print!("{output}"),
    }
    Ok(())
}

/// `gpuflow obs <view>`: run a workload with full telemetry and render
/// one view of the event stream.
fn cmd_obs(sub: &str, args: &Args) -> Result<(), String> {
    if sub == "profile" {
        let (_, profile) = profile_from_args(args)?;
        return emit(args, sub, &profile.render());
    }
    let (workload, workflow) = build_workflow(args)?;
    let processor = processor_from(args)?;
    let threads: usize = args.num("threads", 1)?;
    let cluster = ClusterSpec::minotauro();
    let mut config = RunConfig::new(cluster, processor)
        .with_storage(storage_from(args)?)
        .with_policy(policy_from(args)?)
        .with_cpu_threads(threads)
        .with_recovery(recovery_from(args)?)
        .with_telemetry();
    if let Some(plan) = faults_from(args)? {
        config = config.with_faults(plan);
    }
    let report = run(&workflow, &config).map_err(|e| e.to_string())?;
    let log = &report.telemetry;
    let output = match sub {
        "export-chrome" => to_chrome_trace(log),
        "decisions" => log.render_decisions(),
        "overhead" => OverheadReport::from_log(log, report.makespan()).render(),
        "jsonl" => log.to_jsonl(),
        "spans" => {
            let forest = SpanForest::from_telemetry(&workflow, log);
            match span_sampler_from(args)? {
                Some(sampler) => sampler.sample(&forest).0.to_otlp_json(),
                None => forest.to_otlp_json(),
            }
        }
        "flame" => {
            let forest = SpanForest::from_telemetry(&workflow, log);
            match span_sampler_from(args)? {
                Some(sampler) => to_collapsed(&sampler.sample(&forest).0),
                None => to_collapsed(&forest),
            }
        }
        "metrics" => {
            let registry = MetricsRegistry::from_log(log, metrics_interval(args)?);
            if args.flag("series") {
                registry.render_series()
            } else {
                registry.expose()
            }
        }
        "summary" if args.flag("json") => {
            // Schema documented in docs/observability.md.
            let registry = MetricsRegistry::from_log(log, metrics_interval(args)?);
            let forest = SpanForest::from_telemetry(&workflow, log);
            format!(
                "{{\"workload\":\"{}\",\"makespan_ns\":{},\"telemetry\":{},\"metrics\":{},\"spans\":{}}}\n",
                workload.label().replace('"', "\\\""),
                SimDuration::from_secs_f64(report.makespan()).as_nanos(),
                log.summary_json(),
                registry.summary_json(),
                forest.summary_json()
            )
        }
        "summary" => {
            let mut s = String::new();
            s.push_str(&format!("workload:  {}\n", workload.label()));
            s.push_str(&format!("makespan:  {:.6} s\n", report.makespan()));
            s.push_str(&log.summary());
            s
        }
        other => {
            return Err(format!(
                "unknown obs view '{other}' (export-chrome, decisions, overhead, profile, summary, metrics, jsonl, spans, flame)"
            ))
        }
    };
    emit(args, sub, &output)
}

/// The optional span sampler from `--sample-rate PPM` (parts per
/// million of tasks head-sampled; critical-path and per-type tail
/// spans are always kept) and `--span-seed N`.
fn span_sampler_from(args: &Args) -> Result<Option<SpanSampler>, String> {
    let rate: i64 = args.num("sample-rate", -1)?;
    if rate < 0 {
        return Ok(None);
    }
    let seed: u64 = args.num("span-seed", 0x5EED_u64)?;
    Ok(Some(SpanSampler::new(seed, rate as u64)))
}

/// The metrics sampling interval from `--metrics-interval SECS`
/// (default 10 ms of virtual time).
fn metrics_interval(args: &Args) -> Result<SimDuration, String> {
    let secs: f64 = args.num("metrics-interval", 0.01)?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "--metrics-interval must be finite and non-negative, got {secs}"
        ));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

/// `gpuflow serve`: run a workload on a worker thread while a zero-dep
/// HTTP endpoint serves live Prometheus snapshots of its metrics.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let (workload, workflow) = build_workflow(args)?;
    let processor = processor_from(args)?;
    let threads: usize = args.num("threads", 1)?;
    let port: u16 = args.num("metrics-port", 0)?;
    let max_requests: u64 = args.num("requests", 0)?;
    let hub = MetricsHub::new(metrics_interval(args)?);
    let mut config = RunConfig::new(ClusterSpec::minotauro(), processor)
        .with_storage(storage_from(args)?)
        .with_policy(policy_from(args)?)
        .with_cpu_threads(threads)
        .with_recovery(recovery_from(args)?)
        .with_live_metrics(hub.clone());
    if let Some(plan) = faults_from(args)? {
        config = config.with_faults(plan);
    }
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("serving metrics on http://{addr}/metrics");
    // The run is the payload; the listener is a read-only shell over its
    // live metrics hub. The simulation stays virtual-time and
    // deterministic — this thread only changes when its results become
    // observable, never what they are.
    // lint: allow(D3, serve is a real-time shell outside the simulation; the run itself is unaffected by scrape timing)
    let worker = std::thread::spawn(move || run(&workflow, &config).map_err(|e| e.to_string()));
    let max = if max_requests == 0 {
        None
    } else {
        Some(max_requests)
    };
    gpuflow::serve::serve_until(&listener, &hub, max);
    if max.is_none() {
        return Ok(()); // unreachable in practice: serve_until loops forever
    }
    let report = worker
        .join()
        .map_err(|_| String::from("simulation thread panicked"))??;
    eprintln!("workload {} done", workload.label());
    println!("makespan:  {:.6} s", report.makespan());
    Ok(())
}

/// `gpuflow submit|queue|cancel|ctl` — client verbs for a running
/// `gpuflowd`. Builds the protocol line, sends it over one TCP
/// request, prints the reply; an `err ...` reply becomes a nonzero
/// exit so scripts can branch on rejects.
fn cmd_daemon(verb: &str, args: &Args) -> Result<(), String> {
    let port: u16 = args.required_num("port")?;
    let line = daemon_request_from(verb, args)?;
    let reply = gpuflow::daemon::client::request(port, &line)
        .map_err(|e| format!("gpuflowd on 127.0.0.1:{port}: {e}"))?;
    print!("{reply}");
    if reply.starts_with("err") {
        Err(String::from("daemon refused the request"))
    } else {
        Ok(())
    }
}

/// Reads and parses a profile file written by `gpuflow obs profile` or
/// `repro gate --update`.
fn read_profile(path: &str) -> Result<RunProfile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    RunProfile::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `gpuflow diff <runA> <runB>`: compare two profile files.
fn cmd_diff(a_path: &str, b_path: &str, args: &Args) -> Result<(), String> {
    let a = read_profile(a_path)?;
    let b = read_profile(b_path)?;
    let diff = RunDiff::compare(&a, &b);
    let output = if args.flag("json") {
        let mut s = diff.to_json();
        s.push('\n');
        s
    } else {
        diff.render()
    };
    emit(args, "diff", &output)
}

/// `gpuflow lint`: the workspace determinism & integer-time static
/// analysis pass (rule catalog in docs/static_analysis.md, or
/// `--explain`). Exits nonzero when unsuppressed findings remain.
fn cmd_lint(args: &Args) -> Result<(), String> {
    if args.flag("explain") {
        let catalog: String = gpuflow_lint::RuleCode::ALL
            .iter()
            .map(|code| format!("{code} — {}\n  {}\n\n", code.summary(), code.explanation()))
            .collect();
        return emit(args, "rule catalog", &catalog);
    }
    let root = match args.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            gpuflow_lint::workspace::find_root(&cwd)
                .ok_or_else(|| String::from("no enclosing cargo workspace; pass --root DIR"))?
        }
    };
    let report =
        gpuflow_lint::run(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let output = if args.flag("sarif") {
        report.to_sarif()
    } else if args.flag("json") {
        report.to_json()
    } else {
        report.render()
    };
    emit(args, "lint", &output)?;
    if report.clean() {
        Ok(())
    } else {
        Err(format!(
            "{} unsuppressed lint finding(s); see docs/static_analysis.md for the rule catalog",
            report.findings.len()
        ))
    }
}

/// Simulation-backed counterfactuals for the doctor: rerun the workload
/// under one factor change at a time (the advisor's evaluation idea,
/// specialized to the observed configuration's neighborhood).
fn doctor_whatifs(args: &Args, baseline: f64) -> Result<Vec<WhatIf>, String> {
    let workload = workload_from(args)?;
    let grid: u64 = args.required_num("grid")?;
    let processor = processor_from(args)?;
    let storage = storage_from(args)?;
    let policy = policy_from(args)?;
    let threads: usize = args.num("threads", 1)?;
    let recovery = recovery_from(args)?;
    let faults = faults_from(args)?;
    let cluster = ClusterSpec::minotauro();
    let mut out = Vec::new();
    let mut try_change = |change: String,
                          grid2: u64,
                          proc2: ProcessorKind,
                          stor2: StorageArchitecture,
                          pol2: SchedulingPolicy| {
        let Ok(wf) = workload.build(grid2) else {
            return;
        };
        let mut config = RunConfig::new(cluster.clone(), proc2)
            .with_storage(stor2)
            .with_policy(pol2)
            .with_cpu_threads(threads)
            .with_recovery(recovery);
        if let Some(plan) = faults.clone() {
            config = config.with_faults(plan);
        }
        if let Ok(report) = run(&wf, &config) {
            out.push(WhatIf {
                change,
                baseline_makespan: baseline,
                predicted_makespan: report.makespan(),
            });
        }
    };
    if grid >= 2 {
        let g = grid / 2;
        try_change(format!("grid {grid} -> {g}"), g, processor, storage, policy);
    }
    let g = grid * 2;
    try_change(format!("grid {grid} -> {g}"), g, processor, storage, policy);
    let flip_proc = match processor {
        ProcessorKind::Cpu => ProcessorKind::Gpu,
        ProcessorKind::Gpu => ProcessorKind::Cpu,
    };
    try_change(
        format!("processor {} -> {}", processor.label(), flip_proc.label()),
        grid,
        flip_proc,
        storage,
        policy,
    );
    let flip_stor = match storage {
        StorageArchitecture::SharedDisk => StorageArchitecture::LocalDisk,
        StorageArchitecture::LocalDisk => StorageArchitecture::SharedDisk,
    };
    try_change(
        format!("storage {} -> {}", storage.label(), flip_stor.label()),
        grid,
        processor,
        flip_stor,
        policy,
    );
    let flip_pol = match policy {
        SchedulingPolicy::DataLocality => SchedulingPolicy::GenerationOrder,
        _ => SchedulingPolicy::DataLocality,
    };
    try_change(
        format!("policy {} -> {}", policy.label(), flip_pol.label()),
        grid,
        processor,
        storage,
        flip_pol,
    );
    Ok(out)
}

/// `gpuflow doctor`: Jain-style bottleneck findings for one run, either
/// re-simulated from run flags (with what-if predictions) or read from
/// a profile file (`--profile FILE`, findings only).
fn cmd_doctor(args: &Args) -> Result<(), String> {
    let report = match args.get("profile") {
        Some(path) => DoctorReport::diagnose(&read_profile(path)?),
        None => {
            let (_, profile) = profile_from_args(args)?;
            let whatifs = doctor_whatifs(args, profile.makespan_ns as f64 / 1e9)?;
            DoctorReport::diagnose(&profile).with_whatifs(whatifs)
        }
    };
    let output = if args.flag("json") {
        let mut s = report.to_json();
        s.push('\n');
        s
    } else {
        report.render()
    };
    emit(args, "doctor report", &output)
}

fn cmd_advise(args: &Args) -> Result<(), String> {
    let workload = workload_from(args)?;
    let advisor = Advisor::new(ClusterSpec::minotauro());
    let space = SearchSpace::paper_defaults(&workload);
    let rec = advisor
        .advise(&workload, &space)
        .map_err(|e| e.to_string())?;
    for line in &rec.rationale {
        println!("{line}");
    }
    println!("predicted makespan: {:.3} s", rec.makespan);
    println!("ranking (top 5 of {} candidates):", space.size());
    for (candidate, makespan) in rec.ranking().into_iter().take(5) {
        println!("  {makespan:>9.3} s  {}", candidate.label());
    }
    Ok(())
}

fn cmd_dag(args: &Args) -> Result<(), String> {
    let (workload, workflow) = build_workflow(args)?;
    let shape = workflow.shape();
    eprintln!(
        "{}: {} tasks, width {}, height {}",
        workload.label(),
        shape.tasks,
        shape.max_width,
        shape.height
    );
    println!("{}", workflow.to_dot(&workload.label()));
    Ok(())
}

/// `gpuflow chaos`: the fault-injection sensitivity sweep (also the
/// `chaos` target of the `repro` binary).
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let threads: usize = args.num("threads", 0)?;
    let ctx = gpuflow::experiments::Context::default().with_threads(threads);
    let study = gpuflow::experiments::fault_sensitivity::run(&ctx);
    print!("{}", study.render());
    println!(
        "{} of {} completed scenarios converged to the fault-free output",
        study.converged(),
        study.points.len()
    );
    Ok(())
}

fn help() {
    println!(
        "gpuflow — distributed GPU-accelerated task-based workflows, simulated\n\
         \n\
         USAGE:\n\
         \u{20} gpuflow run    --workload <w> --rows N --cols N --grid G [options]\n\
         \u{20} gpuflow obs    <view> --workload <w> --rows N --cols N --grid G [options] [--out FILE]\n\
         \u{20} gpuflow serve  --workload <w> --rows N --cols N --grid G [options]\n\
         \u{20}                [--metrics-port P] [--metrics-interval SECS] [--requests N]\n\
         \u{20}                live Prometheus /metrics endpoint while the run executes\n\
         \u{20} gpuflow submit --port P --tenant NAME --tasks N [--shape wide|stencil|tree] [--prio N]\n\
         \u{20} gpuflow queue  --port P [--json]        queue state of a running gpuflowd\n\
         \u{20} gpuflow cancel --port P --job N\n\
         \u{20} gpuflow ctl    <drain|health|report|metrics|alerts|log|shutdown> --port P\n\
         \u{20}                client verbs for the gpuflowd scheduler daemon (see docs/daemon.md)\n\
         \u{20} gpuflow diff   A.profile B.profile [--json] [--out FILE]\n\
         \u{20} gpuflow lint   [--root DIR] [--json | --sarif] [--out FILE]  determinism & time lints\n\
         \u{20} gpuflow lint   --explain                 the rule catalog with its rationale\n\
         \u{20} gpuflow doctor --workload <w> --rows N --cols N --grid G [options] [--json]\n\
         \u{20} gpuflow doctor --profile FILE [--json]   (findings only, no what-ifs)\n\
         \u{20} gpuflow advise --workload <w> --rows N --cols N\n\
         \u{20} gpuflow dag    --workload <w> --rows N --cols N --grid G\n\
         \u{20} gpuflow chaos  [--threads N]   fault-injection sensitivity sweep\n\
         \n\
         OBS VIEWS: export-chrome (Perfetto/chrome://tracing JSON) | decisions\n\
         \u{20}           (scheduler decision log) | overhead (makespan decomposition) |\n\
         \u{20}           profile (parseable run digest for diff/doctor) |\n\
         \u{20}           summary (event counts; --json for machine-readable) |\n\
         \u{20}           metrics (Prometheus text exposition; --series for the\n\
         \u{20}           virtual-time table, --metrics-interval SECS to sample) |\n\
         \u{20}           jsonl (raw event stream) |\n\
         \u{20}           spans (OTLP-shaped causal span JSON) |\n\
         \u{20}           flame (collapsed stacks, flamegraph.pl-compatible;\n\
         \u{20}           both take --sample-rate PPM and --span-seed N)\n\
         \n\
         WORKLOADS: matmul | fma | kmeans | knn | cholesky\n\
         \n\
         RUN OPTIONS:\n\
         \u{20} --processor cpu|gpu      (default cpu)\n\
         \u{20} --storage shared|local   (default shared)\n\
         \u{20} --policy fifo|locality   (default fifo)\n\
         \u{20} --threads N              CPU threads per task (default 1)\n\
         \u{20} --clusters K --iterations I   (kmeans)\n\
         \u{20} --queries Q --k K        (knn)\n\
         \u{20} --seed S                 jitter/dataset seed\n\
         \u{20} --prv FILE --csv FILE    trace exports\n\
         \u{20} --faults SPEC            deterministic fault plan, e.g.\n\
         \u{20}                          'seed:42;crash:node=1,at=0.2,rejoin=0.1;taskfail:p=0.05'\n\
         \u{20} --max-retries N --backoff SECS --resubmit alt|same --fallback on|off\n\
         \n\
         Regenerate the paper's figures with the `repro` binary:\n\
         \u{20} cargo run --release -p gpuflow-experiments --bin repro -- all"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        help();
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "run" => Args::parse(rest).and_then(|a| cmd_run(&a)),
        "obs" => match rest.split_first() {
            Some((sub, rest)) if !sub.starts_with("--") => {
                Args::parse_with(rest, &["json", "series"]).and_then(|a| cmd_obs(sub, &a))
            }
            _ => Err(String::from(
                "obs needs a view: export-chrome, decisions, overhead, profile, summary, metrics, jsonl, spans, flame",
            )),
        },
        "serve" => Args::parse(rest).and_then(|a| cmd_serve(&a)),
        "submit" | "cancel" => Args::parse(rest).and_then(|a| cmd_daemon(cmd, &a)),
        "queue" => Args::parse_with(rest, &["json"]).and_then(|a| cmd_daemon(cmd, &a)),
        "ctl" => match rest.split_first() {
            Some((action, rest)) if CTL_ACTIONS.contains(&action.as_str()) => {
                Args::parse(rest).and_then(|a| cmd_daemon(action, &a))
            }
            _ => Err(format!(
                "ctl needs an action: gpuflow ctl <{}> --port P",
                CTL_ACTIONS.join("|")
            )),
        },
        "diff" => match rest {
            [a, b, flags @ ..] if !a.starts_with("--") && !b.starts_with("--") => {
                Args::parse_with(flags, &["json"]).and_then(|ar| cmd_diff(a, b, &ar))
            }
            _ => Err(String::from(
                "diff needs two profile files: gpuflow diff A.profile B.profile [--json] [--out FILE]",
            )),
        },
        "lint" => Args::parse_with(rest, &["json", "sarif", "explain"]).and_then(|a| cmd_lint(&a)),
        "doctor" => Args::parse_with(rest, &["json"]).and_then(|a| cmd_doctor(&a)),
        "advise" => Args::parse(rest).and_then(|a| cmd_advise(&a)),
        "dag" => Args::parse(rest).and_then(|a| cmd_dag(&a)),
        "chaos" => Args::parse(rest).and_then(|a| cmd_chaos(&a)),
        "help" | "--help" | "-h" => {
            help();
            Ok(())
        }
        other => Err(format!(
            "unknown command '{other}' (run, obs, serve, submit, queue, cancel, ctl, diff, lint, \
             doctor, advise, dag, chaos, help)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
