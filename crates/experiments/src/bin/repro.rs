//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all              # every artifact, paper-scale parameters
//! repro fig1             # one artifact
//! repro fig7a fig7b ...  # several
//! repro fig11 --quick    # reduced sample set
//! repro all --out DIR    # additionally write one text file per artifact
//! repro all --threads N  # sweep-level parallelism (default: all cores,
//!                        # or GPUFLOW_THREADS); results are identical
//!                        # at every thread count
//! repro all --telemetry DIR  # additionally run the canonical Matmul with
//!                            # telemetry and write telemetry.jsonl,
//!                            # trace.chrome.json, decisions.log,
//!                            # overhead.txt into DIR
//! repro gate                 # perf-regression gate against committed
//!                            # baselines (artifacts/baselines); exits 1
//!                            # on regression or missing baseline
//! repro gate --update        # rewrite the baseline profiles
//! repro gate --baselines DIR --tolerance PCT --report FILE
//! repro lint                 # workspace determinism & integer-time
//!                            # lints (docs/static_analysis.md);
//!                            # exits 1 on unsuppressed findings
//! repro perf                 # master-overhead stress suite (host ns
//!                            # per simulated task, 100k-task DAGs)
//! repro perf --full          # million-task DAGs
//! repro perf --tasks N       # custom DAG size
//! repro perf --check         # also compare against the committed
//!                            # ceilings (artifacts/baselines/
//!                            # perf_ns_per_task.txt); exits 1 on breach
//! repro replay               # production-trace replay scenario
//!                            # (diurnal arrivals × heavy-tailed jobs ×
//!                            # tenant mix) with metrics-over-time
//! repro replay --seed N --jobs N --tenants N --chaos
//! repro replay --check       # validate the Prometheus exposition
//!                            # (exits 1 on malformed output)
//! repro replay --out FILE    # write the artifact to FILE
//! repro replay --from-log FILE   # deterministically re-execute a
//!                                # recorded gpuflowd submission log;
//!                                # prints the per-job fingerprints and
//!                                # exposition — bit-identical to the
//!                                # live daemon run at any --threads
//! repro spans                # causal span traces, flame graph,
//!                            # deterministic sampling and the SLO
//!                            # alert timeline over the chaos replay
//!                            # scenario
//! repro spans --rate PPM --span-seed N --otlp FILE --out FILE
//! repro spans --check        # byte-diff against artifacts/spans.txt,
//!                            # validate the collapsed-stack grammar
//!                            # and the Prometheus exposition; exits 1
//!                            # on any mismatch
//! repro spans --stress       # 10^6-task DAG sampler bound check:
//!                            # kept <= documented bound and 100%
//!                            # critical-path retention; exits 1 on
//!                            # breach (--tasks N, --shape S override)
//! ```
//!
//! Artifacts: table1, fig1, fig6, fig7a, fig7b, fig8, fig9a, fig9b,
//! fig10a, fig10b, fig11, fig12, plus the extensions `sensitivity`
//! (resource-parameter sweeps the paper defers to future work),
//! `generalizability` (the §5.5.1 parallel-fraction spectrum), `obs`
//! (telemetry bundle: event summary + overhead decomposition), and
//! `chaos` (fault-injection sensitivity: makespan and output
//! convergence under transient failures and node crashes).

use std::time::Instant;

use gpuflow_experiments::{
    ablation, factors, fault_sensitivity, fig1, fig10, fig11, fig12, fig6, fig7, fig8, fig9, gate,
    generalizability, memory, obs, prediction, replay, sensitivity, spans, stress, Context,
};

/// Runs the perf-regression gate (`repro gate [--update] [--baselines
/// DIR] [--tolerance PCT] [--report FILE]`); exits nonzero on failure.
fn run_gate(ctx: &Context, args: &[String]) {
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let dir = value_of("--baselines").unwrap_or_else(|| "artifacts/baselines".to_string());
    let dir = std::path::Path::new(&dir);
    if args.iter().any(|a| a == "--update") {
        let written = gate::update(ctx, dir).expect("write baseline profiles");
        for path in &written {
            eprintln!("[baseline -> {}]", path.display());
        }
        println!(
            "updated {} baseline profiles in {}",
            written.len(),
            dir.display()
        );
        return;
    }
    let tolerance = value_of("--tolerance")
        .map(|v| v.parse::<f64>().expect("--tolerance takes a percentage"))
        .unwrap_or(gate::DEFAULT_TOLERANCE_PCT);
    let report = gate::check(ctx, dir, tolerance);
    let mut text = report.render();
    if !report.passed() {
        // A perf regression on a tree that also violates the determinism
        // lints is usually the lint finding's fault; say so up front.
        if let Some(note) = lint_note() {
            text.push('\n');
            text.push_str(&note);
            text.push('\n');
        }
    }
    println!("{text}");
    if let Some(path) = value_of("--report") {
        std::fs::write(&path, &text).expect("write gate report");
        eprintln!("[gate report -> {path}]");
    }
    if !report.passed() {
        std::process::exit(1);
    }
}

/// Runs the master-overhead stress suite (`repro perf [--full]
/// [--tasks N] [--check] [--thresholds FILE]`): million-task DAGs
/// measured in host ns per simulated task. With `--check`, compares
/// against the committed ceilings and exits nonzero on a breach.
fn run_perf(args: &[String]) {
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let full = args.iter().any(|a| a == "--full");
    let tasks = value_of("--tasks")
        .map(|v| v.parse::<usize>().expect("--tasks takes a number"))
        .unwrap_or(if full { 1_000_000 } else { 100_000 });
    let results = stress::run_suite(tasks);
    println!("{}", stress::render(&results));
    if args.iter().any(|a| a == "--check") {
        let path = value_of("--thresholds")
            .unwrap_or_else(|| "artifacts/baselines/perf_ns_per_task.txt".to_string());
        match stress::check(&results, std::path::Path::new(&path)) {
            Ok(verdicts) => println!("perf check: PASS\n{verdicts}"),
            Err(verdicts) => {
                eprintln!("perf check: FAIL\n{verdicts}");
                std::process::exit(1);
            }
        }
    }
}

/// Runs a production-trace replay scenario (`repro replay [--seed N]
/// [--jobs N] [--tenants N] [--horizon SECS] [--interval SECS]
/// [--chaos] [--check] [--out FILE]`). The artifact is the scenario's
/// submission log, metrics-over-time series, and final Prometheus
/// exposition; with `--check`, the exposition is validated against the
/// text-format grammar and the process exits nonzero on a violation —
/// this is the zero-dependency checker the CI metrics-smoke job runs.
/// `repro replay --from-log FILE`: re-executes a recorded `gpuflowd`
/// submission journal by committing its decisions verbatim
/// ([`gpuflow_daemon::DaemonCore::replay`]). The printed report —
/// per-job output fingerprints plus the final Prometheus exposition —
/// is bit-identical to the live daemon's `ctl report` output.
fn run_replay_from_log(path: &str, args: &[String]) {
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("repro replay: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let core = gpuflow_daemon::DaemonCore::replay(&text).unwrap_or_else(|e| {
        eprintln!("repro replay: {path}: {e}");
        std::process::exit(2);
    });
    let report = core.report();
    print!("{report}");
    if let Some(out) = value_of("--out") {
        std::fs::write(&out, &report).expect("write replay report");
        eprintln!("[replay -> {out}]");
    }
    if args.iter().any(|a| a == "--check") {
        let text = core.metrics_text();
        match gpuflow_lint::promtext::check(&text) {
            Ok(stats) => println!(
                "exposition check: PASS ({} families, {} samples)",
                stats.families, stats.samples
            ),
            Err(err) => {
                eprintln!("exposition check: FAIL\n{err}");
                std::process::exit(1);
            }
        }
        match gpuflow_lint::promtext::check_alert_families(&text) {
            Ok(stats) => println!(
                "alert surface check: PASS ({} alert samples, {} recording rules)",
                stats.alert_samples, stats.recording_families
            ),
            Err(err) => {
                eprintln!("alert surface check: FAIL\n{err}");
                std::process::exit(1);
            }
        }
    }
}

fn run_replay(args: &[String]) {
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(path) = value_of("--from-log") {
        run_replay_from_log(&path, args);
        return;
    }
    let mut spec = replay::ReplaySpec::default();
    if let Some(v) = value_of("--seed") {
        spec.seed = v.parse().expect("--seed takes an integer");
    }
    if let Some(v) = value_of("--jobs") {
        spec.jobs = v.parse().expect("--jobs takes a number");
    }
    if let Some(v) = value_of("--tenants") {
        spec.tenants = v.parse().expect("--tenants takes a number");
    }
    if let Some(v) = value_of("--horizon") {
        spec.horizon_secs = v.parse().expect("--horizon takes seconds");
    }
    if let Some(v) = value_of("--interval") {
        spec.interval_secs = v.parse().expect("--interval takes seconds");
    }
    if args.iter().any(|a| a == "--chaos") {
        spec.chaos = true;
    }
    let report = replay::run(&spec).unwrap_or_else(|err| {
        eprintln!("replay: {err}");
        std::process::exit(1);
    });
    let text = report.render();
    println!("{text}");
    if let Some(path) = value_of("--out") {
        std::fs::write(&path, &text).expect("write replay artifact");
        eprintln!("[replay -> {path}]");
    }
    if args.iter().any(|a| a == "--check") {
        match gpuflow_lint::promtext::check(&report.metrics.expose()) {
            Ok(stats) => println!(
                "exposition check: PASS ({} families, {} samples)",
                stats.families, stats.samples
            ),
            Err(err) => {
                eprintln!("exposition check: FAIL\n{err}");
                std::process::exit(1);
            }
        }
    }
}

/// Runs the span-trace scenario (`repro spans [--seed N] [--jobs N]
/// [--tenants N] [--horizon SECS] [--interval SECS] [--rate PPM]
/// [--span-seed N] [--otlp FILE] [--out FILE] [--check] [--stress
/// [--tasks N] [--shape S]]`). The artifact is the chaos replay
/// scenario's collapsed flame graph, span summary, sampler coverage,
/// and SLO alert timeline; with `--check` it is byte-diffed against
/// the committed golden and both output grammars are validated. With
/// `--stress`, a million-task DAG (by default) checks the sampler's
/// documented size bound and 100% critical-path retention instead.
fn run_spans(args: &[String]) {
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let rate = value_of("--rate")
        .map(|v| v.parse::<u64>().expect("--rate takes ppm"))
        .unwrap_or(spans::DEFAULT_RATE_PPM);
    let span_seed = value_of("--span-seed")
        .map(|v| v.parse::<u64>().expect("--span-seed takes an integer"))
        .unwrap_or(spans::DEFAULT_SAMPLER_SEED);
    if args.iter().any(|a| a == "--stress") {
        let tasks = value_of("--tasks")
            .map(|v| v.parse::<usize>().expect("--tasks takes a number"))
            .unwrap_or(1_000_000);
        let shape = value_of("--shape")
            .map(|v| stress::Shape::parse(&v).expect("--shape takes wide|stencil|tree"))
            .unwrap_or(stress::Shape::Wide);
        let verdict = spans::run_stress(shape, tasks, rate, span_seed);
        let line = spans::render_stress(&verdict);
        println!("{line}");
        if !verdict.passed() {
            eprintln!("spans stress check: FAIL");
            std::process::exit(1);
        }
        return;
    }
    let mut spec = replay::ReplaySpec {
        chaos: true,
        ..replay::ReplaySpec::default()
    };
    if let Some(v) = value_of("--seed") {
        spec.seed = v.parse().expect("--seed takes an integer");
    }
    if let Some(v) = value_of("--jobs") {
        spec.jobs = v.parse().expect("--jobs takes a number");
    }
    if let Some(v) = value_of("--tenants") {
        spec.tenants = v.parse().expect("--tenants takes a number");
    }
    if let Some(v) = value_of("--horizon") {
        spec.horizon_secs = v.parse().expect("--horizon takes seconds");
    }
    if let Some(v) = value_of("--interval") {
        spec.interval_secs = v.parse().expect("--interval takes seconds");
    }
    let report = spans::run(&spec, rate, span_seed).unwrap_or_else(|err| {
        eprintln!("spans: {err}");
        std::process::exit(1);
    });
    let text = report.render();
    println!("{text}");
    if let Some(path) = value_of("--out") {
        std::fs::write(&path, &text).expect("write spans artifact");
        eprintln!("[spans -> {path}]");
    }
    if let Some(path) = value_of("--otlp") {
        std::fs::write(&path, report.sampled.to_otlp_json()).expect("write OTLP span JSON");
        eprintln!("[otlp -> {path}]");
    }
    if args.iter().any(|a| a == "--check") {
        let golden = value_of("--golden").unwrap_or_else(|| "artifacts/spans.txt".to_string());
        let pinned = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            eprintln!("spans check: cannot read {golden}: {e}");
            std::process::exit(2);
        });
        let mut failed = false;
        if pinned != text {
            eprintln!("spans check: FAIL — output differs from {golden}");
            failed = true;
        }
        if let Err(err) = gpuflow_lint::collapsed::check(&report.collapsed()) {
            eprintln!("collapsed grammar check: FAIL\n{err}");
            failed = true;
        }
        let exposition = report.metrics.expose();
        match gpuflow_lint::promtext::check(&exposition) {
            Ok(stats) => println!(
                "exposition check: PASS ({} families, {} samples)",
                stats.families, stats.samples
            ),
            Err(err) => {
                eprintln!("exposition check: FAIL\n{err}");
                failed = true;
            }
        }
        match gpuflow_lint::promtext::check_alert_families(&exposition) {
            Ok(stats) => println!(
                "alert surface check: PASS ({} alert samples, {} recording rules)",
                stats.alert_samples, stats.recording_families
            ),
            Err(err) => {
                eprintln!("alert surface check: FAIL\n{err}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("spans check: PASS (byte-identical to {golden})");
    }
}

/// Returns a one-line warning when the workspace is not lint-clean,
/// or `None` when it is (or when no workspace root can be found).
fn lint_note() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let root = gpuflow_lint::workspace::find_root(&cwd)?;
    let report = gpuflow_lint::run(&root).ok()?;
    if report.clean() {
        None
    } else {
        // Rule-code histogram, so the gate log itself says *what kind*
        // of violation to suspect (a D2 wall clock explains drift; an
        // A1 stale allow does not).
        let mut by_rule: Vec<(gpuflow_lint::RuleCode, usize)> = Vec::new();
        for f in &report.findings {
            match by_rule.iter_mut().find(|(c, _)| *c == f.rule) {
                Some((_, n)) => *n += 1,
                None => by_rule.push((f.rule, 1)),
            }
        }
        by_rule.sort();
        let histogram: Vec<String> = by_rule.iter().map(|(c, n)| format!("{c}: {n}")).collect();
        Some(format!(
            "note: the tree is not lint-clean ({} unsuppressed finding(s); {}) — run \
             `gpuflow lint` and rule out a determinism violation before chasing the regression",
            report.findings.len(),
            histogram.join(", ")
        ))
    }
}

/// Runs the workspace determinism & integer-time lint (`repro lint`);
/// exits nonzero when unsuppressed findings remain.
fn run_lint() {
    let cwd = std::env::current_dir().expect("read current directory");
    let root = gpuflow_lint::workspace::find_root(&cwd)
        .expect("repro lint must run inside the cargo workspace");
    let report = gpuflow_lint::run(&root).expect("scan workspace sources");
    println!("{}", report.render());
    if !report.clean() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Replay and spans dispatch before the generic `--out DIR`
    // handling: their `--out` names a file, not a directory.
    if args.iter().any(|a| a == "replay") {
        run_replay(&args);
        return;
    }
    if args.iter().any(|a| a == "spans") {
        run_spans(&args);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--threads takes a number"));
    let telemetry_dir = args
        .iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if args.iter().any(|a| a == "gate") {
        let ctx = Context::default().with_threads(threads.unwrap_or(0));
        run_gate(&ctx, &args);
        return;
    }
    if args.iter().any(|a| a == "lint") {
        run_lint();
        return;
    }
    if args.iter().any(|a| a == "perf") {
        run_perf(&args);
        return;
    }
    let mut skip_values: Vec<usize> = Vec::new();
    for flag in ["--out", "--threads", "--telemetry"] {
        if let Some(i) = args.iter().position(|a| a == flag) {
            skip_values.extend([i, i + 1]);
        }
    }
    let mut targets: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !skip_values.contains(i))
        .map(|(_, a)| a.as_str())
        .collect();
    if targets.is_empty() || targets.contains(&"all") {
        let paper = [
            "table1", "fig1", "fig6", "fig7a", "fig7b", "fig8", "fig9a", "fig9b", "fig10a",
            "fig10b", "fig11", "fig12",
        ];
        let extras: Vec<&str> = targets.iter().copied().filter(|t| *t != "all").collect();
        targets = paper.into_iter().chain(extras).collect();
    }

    let ctx = Context::default().with_threads(threads.unwrap_or(0));
    for target in targets {
        // lint: allow(D2, host progress timing printed to stderr only; never reaches an artifact)
        let t0 = Instant::now();
        let output = match target {
            "table1" => factors::render(),
            "fig1" => fig1::run(&ctx).render(),
            "fig6" => {
                let f = fig6::run();
                format!(
                    "{}\n--- kmeans DOT ---\n{}\n--- matmul DOT ---\n{}",
                    f.render(),
                    f.kmeans_dot,
                    f.matmul_dot
                )
            }
            "fig7a" => {
                let mut out = fig7::run_matmul(
                    &ctx,
                    &gpuflow_data::paper::matmul_8gb(),
                    &fig7::MATMUL_GRIDS,
                )
                .render();
                out.push('\n');
                out.push_str(
                    &fig7::run_matmul(
                        &ctx,
                        &gpuflow_data::paper::matmul_32gb(),
                        &fig7::MATMUL_GRIDS,
                    )
                    .render(),
                );
                out
            }
            "fig7b" => {
                let mut out = fig7::run_kmeans(
                    &ctx,
                    &gpuflow_data::paper::kmeans_10gb(),
                    &fig7::KMEANS_GRIDS,
                    10,
                    fig7::KMEANS_ITERATIONS,
                )
                .render();
                out.push('\n');
                out.push_str(
                    &fig7::run_kmeans(
                        &ctx,
                        &gpuflow_data::paper::kmeans_100gb(),
                        &fig7::KMEANS_GRIDS,
                        10,
                        fig7::KMEANS_ITERATIONS,
                    )
                    .render(),
                );
                out
            }
            "fig8" => fig8::run(&ctx).render(),
            "fig9a" => fig9::run_9a(&ctx).render(),
            "fig9b" => fig9::run_9b(&ctx).render(),
            "fig10a" => fig10::run_matmul(&ctx).render(),
            "fig10b" => fig10::run_kmeans(&ctx).render(),
            "fig11" => {
                if quick {
                    fig11::run_quick(&ctx).render()
                } else {
                    fig11::run(&ctx).render()
                }
            }
            "fig12" => fig12::run(&ctx).render(),
            "sensitivity" => sensitivity::render_all(),
            "generalizability" => generalizability::run(&ctx).render(),
            "prediction" => prediction::run(&ctx).render(),
            "memory" => memory::run(&ctx).render(),
            "obs" => obs::run(&ctx).render(),
            "chaos" => fault_sensitivity::run(&ctx).render(),
            "ablation" => format!(
                "{}
{}",
                ablation::run_scheduler_ablation().render(),
                ablation::render_variance()
            ),
            other => {
                eprintln!("unknown artifact '{other}' (see --help in the source header)");
                continue;
            }
        };
        println!("{output}");
        if let Some(dir) = &out_dir {
            let path = std::path::Path::new(dir).join(format!("{target}.txt"));
            std::fs::write(&path, &output).expect("write artifact file");
            eprintln!("[{target} -> {}]", path.display());
        }
        eprintln!("[{target} regenerated in {:.2?}]", t0.elapsed());
    }

    if let Some(dir) = &telemetry_dir {
        // lint: allow(D2, host progress timing printed to stderr only; never reaches an artifact)
        let t0 = Instant::now();
        let bundle = obs::run(&ctx);
        bundle
            .write_dir(std::path::Path::new(dir))
            .expect("write telemetry bundle");
        println!("{}", bundle.render());
        eprintln!(
            "[telemetry bundle ({} events) -> {dir} in {:.2?}]",
            bundle.events,
            t0.elapsed()
        );
    }
}
