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
//!                [run options] [--out FILE] [the view's own flags]
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
//! gpuflow help
//! ```
//!
//! `run` additionally accepts a deterministic fault-injection plan
//! (`--faults SPEC`, grammar in `docs/fault_tolerance.md`) and recovery
//! tuning (`--max-retries`, `--backoff`, `--resubmit`, `--fallback`).
//! Each command declares the flags it reads next to it, in the grammar
//! `repro` and `gpuflowd` share ([`gpuflow::daemon::flags`]): a flag the
//! command does not read, a flag given twice, a flag without its value
//! or a positional word it does not take is an error before anything
//! runs. A command with modes (each `obs` view, `doctor --profile`,
//! `lint --explain`, `lint --sarif`) also refuses, before it runs, a
//! flag only its other modes read ([`Args::only`]).
//!
//! Workloads: `matmul`, `fma`, `kmeans`, `knn`, `cholesky`.

use std::process::ExitCode;

use gpuflow::advisor::{Advisor, SearchSpace, Workload};
use gpuflow::analysis::{DoctorReport, WhatIf};
use gpuflow::cli::{daemon_request_from, run_config, workload_from, RUN, WORKLOAD};
use gpuflow::cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow::daemon::flags::{Args, Spec};
use gpuflow::daemon::protocol::{control, CONTROL};
use gpuflow::runtime::{
    run, to_chrome_trace, to_collapsed, to_paraver_prv, trace_analysis, JsonWriter, MetricsHub,
    MetricsRegistry, OverheadReport, RunConfig, RunDiff, RunProfile, SchedulingPolicy, SpanForest,
    SpanSampler, Trace, Workflow,
};
use gpuflow::sim::SimDuration;

fn build_workflow(args: &Args) -> Result<(Workload, Workflow), String> {
    let workload = workload_from(args)?;
    let grid: u64 = args.required_int("--grid")?;
    let workflow = workload
        .build(grid)
        .map_err(|e| format!("cannot partition: {e}"))?;
    Ok((workload, workflow))
}

const RUN_CMD: Spec = Spec("run", &[WORKLOAD, RUN, "--prv --csv"], "", 0);

fn cmd_run(args: &Args) -> Result<(), String> {
    let (workload, workflow) = build_workflow(args)?;
    let mut config = run_config(args)?;
    if args.get("--prv").is_some() || args.get("--csv").is_some() {
        config = config.with_telemetry();
    }
    let cluster = &config.cluster;

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
    if config.processor == ProcessorKind::Gpu {
        let wasted = trace_analysis::cpu_busy_gpu_idle_seconds(&report.records, 1);
        println!("resource wastage (CPU busy, GPUs idle): {wasted:.3} s");
    }
    if config.faults.is_some() {
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
    if let Some(path) = args.get("--prv") {
        let prv = to_paraver_prv(&trace, cluster.nodes);
        std::fs::write(path, prv).map_err(|e| format!("writing {path}: {e}"))?;
        println!("paraver trace written to {path}");
    }
    if let Some(path) = args.get("--csv") {
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
    let grid: u64 = args.required_int("--grid")?;
    let config = run_config(args)?.with_telemetry();
    let (processor, storage, policy) = (config.processor, config.storage, config.policy);
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
    match args.get("--out") {
        Some(path) => {
            std::fs::write(path, output).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("{what} written to {path}");
        }
        None => print!("{output}"),
    }
    Ok(())
}

const OBS_FLAGS: &str = "--out --metrics-interval --sample-rate --span-seed";
const OBS_CMD: Spec = Spec("obs", &[WORKLOAD, RUN, OBS_FLAGS], "--json --series", 1);

/// The views `gpuflow obs` renders, each with the flags it reads.
const OBS_VIEWS: [Spec; 9] = [
    Spec("obs export-chrome", &[WORKLOAD, RUN, "--out"], "", 1),
    Spec("obs decisions", &[WORKLOAD, RUN, "--out"], "", 1),
    Spec("obs overhead", &[WORKLOAD, RUN, "--out"], "", 1),
    Spec("obs profile", &[WORKLOAD, RUN, "--out"], "", 1),
    Spec(
        "obs summary",
        &[WORKLOAD, RUN, "--out --metrics-interval"],
        "--json",
        1,
    ),
    Spec(
        "obs metrics",
        &[WORKLOAD, RUN, "--out --metrics-interval"],
        "--series",
        1,
    ),
    Spec("obs jsonl", &[WORKLOAD, RUN, "--out"], "", 1),
    Spec(
        "obs spans",
        &[WORKLOAD, RUN, "--out --sample-rate --span-seed"],
        "",
        1,
    ),
    Spec(
        "obs flame",
        &[WORKLOAD, RUN, "--out --sample-rate --span-seed"],
        "",
        1,
    ),
];

/// The view an `obs` spec renders.
fn view_name(spec: &Spec) -> &'static str {
    spec.0.trim_start_matches("obs ")
}

/// `gpuflow obs <view>`: run a workload with full telemetry and render
/// one view of the event stream.
fn cmd_obs(args: &Args) -> Result<(), String> {
    let views = || OBS_VIEWS.each_ref().map(view_name).join(", ");
    let spec = match args.words() {
        [word] => OBS_VIEWS
            .iter()
            .find(|spec| view_name(spec) == word)
            .ok_or_else(|| format!("unknown obs view '{word}' ({})", views()))?,
        _ => return Err(format!("obs needs a view: {}", views())),
    };
    args.only(spec)?;
    let view = view_name(spec);
    // The text summary folds no metrics registry to sample.
    if view == "summary" && !args.switch("--json") && args.switch("--metrics-interval") {
        return Err("--metrics-interval goes only with summary --json".into());
    }
    if view == "profile" {
        let (_, profile) = profile_from_args(args)?;
        return emit(args, view, &profile.render());
    }
    let sampler = span_sampler_from(args)?;
    let interval = metrics_interval(args)?;
    let (workload, workflow) = build_workflow(args)?;
    let config = run_config(args)?.with_telemetry();
    let report = run(&workflow, &config).map_err(|e| e.to_string())?;
    let log = &report.telemetry;
    let output = match view {
        "export-chrome" => to_chrome_trace(log),
        "decisions" => log.render_decisions(),
        "overhead" => OverheadReport::from_log(log, report.makespan()).render(),
        "jsonl" => log.to_jsonl(),
        "spans" => {
            let forest = SpanForest::from_telemetry(&workflow, log);
            match sampler {
                Some(sampler) => sampler.sample(&forest).0.to_otlp_json(),
                None => forest.to_otlp_json(),
            }
        }
        "flame" => {
            let forest = SpanForest::from_telemetry(&workflow, log);
            match sampler {
                Some(sampler) => to_collapsed(&sampler.sample(&forest).0),
                None => to_collapsed(&forest),
            }
        }
        "metrics" => {
            let registry = MetricsRegistry::from_log(log, interval);
            if args.switch("--series") {
                registry.render_series()
            } else {
                registry.expose()
            }
        }
        "summary" if args.switch("--json") => {
            // Schema documented in docs/observability.md.
            let registry = MetricsRegistry::from_log(log, interval);
            let forest = SpanForest::from_telemetry(&workflow, log);
            let mut w = JsonWriter::default();
            w.begin("{").key("workload").string(&workload.label());
            w.field(
                "makespan_ns",
                SimDuration::from_secs_f64(report.makespan()).as_nanos(),
            );
            w.key("telemetry").lit(&log.summary_json());
            w.key("metrics").lit(&registry.summary_json());
            w.key("spans").lit(&forest.summary_json());
            w.end("}\n");
            w.finish()
        }
        "summary" => {
            let mut s = String::new();
            s.push_str(&format!("workload:  {}\n", workload.label()));
            s.push_str(&format!("makespan:  {:.6} s\n", report.makespan()));
            s.push_str(&log.summary());
            s
        }
        _ => unreachable!("'{view}' is one of OBS_VIEWS"),
    };
    emit(args, view, &output)
}

/// The optional span sampler from `--sample-rate PPM` (parts per
/// million of tasks head-sampled; critical-path and per-type tail
/// spans are always kept) and `--span-seed N`, which seeds nothing
/// without a rate.
fn span_sampler_from(args: &Args) -> Result<Option<SpanSampler>, String> {
    let Some(rate) = args.int("--sample-rate")? else {
        if args.switch("--span-seed") {
            return Err(String::from("--span-seed goes only with --sample-rate"));
        }
        return Ok(None);
    };
    let seed = args.int("--span-seed")?.unwrap_or(0x5EED);
    Ok(Some(SpanSampler::new(seed, rate)))
}

/// The metrics sampling interval from `--metrics-interval SECS`
/// (default 10 ms of virtual time).
fn metrics_interval(args: &Args) -> Result<SimDuration, String> {
    let secs: f64 = args.num("--metrics-interval")?.unwrap_or(0.01);
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "--metrics-interval must be finite and non-negative, got {secs}"
        ));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

const SERVE_FLAGS: &str = "--metrics-port --metrics-interval --requests";
const SERVE_CMD: Spec = Spec("serve", &[WORKLOAD, RUN, SERVE_FLAGS], "", 0);

/// `gpuflow serve`: run a workload on a worker thread while a zero-dep
/// HTTP endpoint serves live Prometheus snapshots of its metrics.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let (workload, workflow) = build_workflow(args)?;
    let port: u16 = args.int("--metrics-port")?.unwrap_or(0);
    let max_requests: u64 = args.int("--requests")?.unwrap_or(0);
    let hub = MetricsHub::new(metrics_interval(args)?);
    let config = run_config(args)?.with_live_metrics(hub.clone());
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
    gpuflow::daemon::http::serve_until(&listener, &hub, max, None);
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

const SUBMIT_CMD: Spec = Spec("submit", &["--port --tenant --tasks --shape --prio"], "", 0);
const QUEUE_CMD: Spec = Spec("queue", &["--port"], "--json", 0);
const CANCEL_CMD: Spec = Spec("cancel", &["--port --job"], "", 0);
const CTL_CMD: Spec = Spec("ctl", &["--port"], "", 1);

/// `gpuflow ctl ACTION`: the [`CONTROL`] verbs.
fn cmd_ctl(args: &Args) -> Result<(), String> {
    match args.words() {
        [action] if control(action).is_some() => cmd_daemon(action, args),
        _ => Err(format!(
            "ctl needs an action: gpuflow ctl <{}> --port P",
            CONTROL.map(|(verb, _)| verb).join("|")
        )),
    }
}

/// `gpuflow submit|queue|cancel|ctl` — client verbs for a running
/// `gpuflowd`. Builds the protocol line, sends it over one TCP
/// request, prints the reply; an `err ...` reply becomes a nonzero
/// exit so scripts can branch on rejects.
fn cmd_daemon(verb: &str, args: &Args) -> Result<(), String> {
    let port: u16 = args.required_int("--port")?;
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
/// `repro all --out DIR` (`DIR/baselines/<case>.profile`).
fn read_profile(path: &str) -> Result<RunProfile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    RunProfile::parse(&text).map_err(|e| format!("{path}: {e}"))
}

const DIFF_CMD: Spec = Spec("diff", &["--out"], "--json", 2);

/// `gpuflow diff <runA> <runB>`: compare two profile files.
fn cmd_diff(args: &Args) -> Result<(), String> {
    let [a_path, b_path] = args.words() else {
        return Err(String::from(
            "diff needs two profile files: gpuflow diff A.profile B.profile [--json] [--out FILE]",
        ));
    };
    let a = read_profile(a_path)?;
    let b = read_profile(b_path)?;
    let diff = RunDiff::compare(&a, &b);
    let output = if args.switch("--json") {
        let mut s = diff.to_json();
        s.push('\n');
        s
    } else {
        diff.render()
    };
    emit(args, "diff", &output)
}

const LINT_CMD: Spec = Spec("lint", &["--root --out"], "--json --sarif --explain", 0);
const LINT_EXPLAIN: Spec = Spec("lint --explain", &["--out"], "--explain", 0);
const LINT_SARIF: Spec = Spec("lint --sarif", &["--root --out"], "--sarif", 0);

/// `gpuflow lint`: the workspace determinism & integer-time static
/// analysis pass (rule catalog in docs/static_analysis.md, or
/// `--explain`). Exits nonzero when unsuppressed findings remain.
fn cmd_lint(args: &Args) -> Result<(), String> {
    if args.switch("--explain") {
        args.only(&LINT_EXPLAIN)?;
        let catalog: String = gpuflow_lint::RuleCode::ALL
            .iter()
            .map(|code| format!("{code} — {}\n  {}\n\n", code.summary(), code.explanation()))
            .collect();
        return emit(args, "rule catalog", &catalog);
    }
    if args.switch("--sarif") {
        args.only(&LINT_SARIF)?;
    }
    let root = match args.get("--root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            gpuflow_lint::workspace::find_root(&cwd)
                .ok_or_else(|| String::from("no enclosing cargo workspace; pass --root DIR"))?
        }
    };
    let report =
        gpuflow_lint::run(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let output = if args.switch("--sarif") {
        report.to_sarif()
    } else if args.switch("--json") {
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
    let grid: u64 = args.required_int("--grid")?;
    let base = run_config(args)?;
    let (processor, storage, policy) = (base.processor, base.storage, base.policy);
    let mut out = Vec::new();
    let mut try_change = |change: String,
                          grid2: u64,
                          proc2: ProcessorKind,
                          stor2: StorageArchitecture,
                          pol2: SchedulingPolicy| {
        let Ok(wf) = workload.build(grid2) else {
            return;
        };
        let config = RunConfig {
            processor: proc2,
            storage: stor2,
            policy: pol2,
            ..base.clone()
        };
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

const DOCTOR_CMD: Spec = Spec("doctor", &[WORKLOAD, RUN, "--profile --out"], "--json", 0);
const DOCTOR_PROFILE: Spec = Spec("doctor --profile", &["--profile --out"], "--json", 0);

/// `gpuflow doctor`: Jain-style bottleneck findings for one run, either
/// re-simulated from run flags (with what-if predictions) or read from
/// a profile file (`--profile FILE`, findings only).
fn cmd_doctor(args: &Args) -> Result<(), String> {
    let report = match args.get("--profile") {
        Some(path) => {
            args.only(&DOCTOR_PROFILE)?;
            DoctorReport::diagnose(&read_profile(path)?)
        }
        None => {
            let (_, profile) = profile_from_args(args)?;
            let whatifs = doctor_whatifs(args, profile.makespan_ns as f64 / 1e9)?;
            DoctorReport::diagnose(&profile).with_whatifs(whatifs)
        }
    };
    let output = if args.switch("--json") {
        let mut s = report.to_json();
        s.push('\n');
        s
    } else {
        report.render()
    };
    emit(args, "doctor report", &output)
}

const ADVISE_CMD: Spec = Spec("advise", &[WORKLOAD], "", 0);

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

const DAG_CMD: Spec = Spec("dag", &[WORKLOAD, "--grid"], "", 0);

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

const HELP: &str = "gpuflow — distributed GPU-accelerated task-based workflows, simulated

USAGE:
  gpuflow run    --workload <w> --rows N --cols N --grid G [options]
  gpuflow obs    <view> --workload <w> --rows N --cols N --grid G [options] [--out FILE]
  gpuflow serve  --workload <w> --rows N --cols N --grid G [options]
                 [--metrics-port P] [--metrics-interval SECS] [--requests N]
                 live Prometheus /metrics endpoint while the run executes
  gpuflow submit --port P --tenant NAME --tasks N [--shape wide|stencil|tree] [--prio N]
  gpuflow queue  --port P [--json]        queue state of a running gpuflowd
  gpuflow cancel --port P --job N
  gpuflow ctl    <drain|health|report|metrics|alerts|log|shutdown> --port P
                 client verbs for the gpuflowd scheduler daemon (see docs/daemon.md)
  gpuflow diff   A.profile B.profile [--json] [--out FILE]
  gpuflow lint   [--root DIR] [--json | --sarif] [--out FILE]  determinism & time lints
  gpuflow lint   --explain                 the rule catalog with its rationale
  gpuflow doctor --workload <w> --rows N --cols N --grid G [options] [--json]
  gpuflow doctor --profile FILE [--json]   (findings only, no what-ifs)
  gpuflow advise --workload <w> --rows N --cols N [--seed S] [kmeans and knn options]
  gpuflow dag    --workload <w> --rows N --cols N --grid G [--seed S] [kmeans and knn options]
  gpuflow help

OBS VIEWS: export-chrome (Perfetto/chrome://tracing JSON) | decisions
           (scheduler decision log) | overhead (makespan decomposition) |
           profile (parseable run digest for diff/doctor) |
           summary (event counts; --json for machine-readable,
           with --metrics-interval SECS to sample) |
           metrics (Prometheus text exposition; --series for the
           virtual-time table, --metrics-interval SECS to sample) |
           jsonl (raw event stream) |
           spans (OTLP-shaped causal span JSON) |
           flame (collapsed stacks, flamegraph.pl-compatible;
           both take --sample-rate PPM [--span-seed N])

WORKLOADS: matmul | fma | kmeans | knn | cholesky

RUN OPTIONS (a flag at most once; a command, and each obs view or
doctor/lint mode, refuses any flag it does not read):
  --processor cpu|gpu      (default cpu)
  --storage shared|local   (default shared)
  --policy P               fifo|locality|critical-path (default fifo)
  --threads N              CPU threads per task (default 1)
  --clusters K --iterations I   (kmeans only; each at least 1)
  --queries Q --k K        (knn only; each at least 1)
  --seed S                 jitter/dataset seed
  --prv FILE --csv FILE    trace exports (run)
  --faults SPEC            deterministic fault plan, e.g.
                           'seed:42;crash:node=1,at=0.2,rejoin=0.1;taskfail:p=0.05'
  --max-retries N --backoff SECS --resubmit alt|same --fallback on|off

Regenerate the paper's figures with the `repro` binary:
  cargo run --release -p gpuflow-experiments --bin repro -- all";

fn help(_: &Args) -> Result<(), String> {
    println!("{HELP}");
    Ok(())
}

/// What a command does with its command line.
type Command = fn(&Args) -> Result<(), String>;

/// Every command, with the flags and positional words it reads.
const COMMANDS: [(&Spec, Command); 13] = [
    (&RUN_CMD, cmd_run),
    (&OBS_CMD, cmd_obs),
    (&SERVE_CMD, cmd_serve),
    (&SUBMIT_CMD, |a| cmd_daemon("submit", a)),
    (&QUEUE_CMD, |a| cmd_daemon("queue", a)),
    (&CANCEL_CMD, |a| cmd_daemon("cancel", a)),
    (&CTL_CMD, cmd_ctl),
    (&DIFF_CMD, cmd_diff),
    (&LINT_CMD, cmd_lint),
    (&DOCTOR_CMD, cmd_doctor),
    (&ADVISE_CMD, cmd_advise),
    (&DAG_CMD, cmd_dag),
    (&Spec("help", &[], "", 0), help),
];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        println!("{HELP}");
        return ExitCode::FAILURE;
    };
    let name = match cmd.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    let result = match COMMANDS.iter().find(|(spec, _)| spec.0 == name) {
        Some((spec, command)) => Args::parse(spec, argv).and_then(|a| command(&a)),
        None => {
            let names: Vec<&str> = COMMANDS.iter().map(|(spec, _)| spec.0).collect();
            Err(format!("unknown command '{cmd}' ({})", names.join(", ")))
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each mode reads only flags its command declares, so the command's
    /// parse never refuses a flag of the mode it picks.
    #[test]
    fn modes_read_only_their_commands_flags() {
        let modes = OBS_VIEWS.iter().map(|view| (&OBS_CMD, view)).chain([
            (&DOCTOR_CMD, &DOCTOR_PROFILE),
            (&LINT_CMD, &LINT_EXPLAIN),
            (&LINT_CMD, &LINT_SARIF),
        ]);
        for (command, mode) in modes {
            for flag in mode.flags() {
                assert!(command.flags().any(|f| f == flag), "{} {flag}", mode.0);
            }
        }
    }

    /// The help names every flag of every command, so a flag added to a
    /// command without its help line fails here.
    #[test]
    fn help_names_every_flag() {
        for (spec, _) in COMMANDS {
            let name = spec.0;
            for flag in spec.flags() {
                assert!(HELP.contains(flag), "help lacks {name} {flag}");
            }
            assert!(
                HELP.contains(&format!("\n  gpuflow {name}")),
                "help lacks {name}"
            );
        }
    }
}
