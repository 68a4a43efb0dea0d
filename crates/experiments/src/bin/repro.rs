//! `repro` — regenerate the paper's tables and figures, and check the
//! committed copies under `artifacts/`.
//!
//! ```text
//! repro all                  # every committed artifact (below)
//! repro fig1                 # one artifact
//! repro fig7a fig7b ...      # several
//! repro fig11 --quick        # reduced sample set
//! repro all --out DIR        # additionally write DIR/<name>.txt per
//!                            # artifact and DIR/baselines/<case>.profile
//!                            # per perf-gate case; `--out artifacts`
//!                            # re-blesses everything `check` compares
//! repro all --threads N      # sweep-level parallelism (default: all
//!                            # cores, or GPUFLOW_THREADS); results are
//!                            # identical at every thread count
//! repro all --telemetry DIR  # additionally run the canonical Matmul
//!                            # with telemetry and write telemetry.jsonl,
//!                            # trace.chrome.json, decisions.log,
//!                            # overhead.txt into DIR
//! repro replay [--seed N] [--jobs N] [--tenants N] [--horizon SECS]
//!              [--interval SECS] [--chaos]
//!                            # production-trace replay scenario
//!                            # (diurnal arrivals × heavy-tailed jobs ×
//!                            # tenant mix) with metrics-over-time
//! repro spans [replay flags] [--rate PPM] [--span-seed N] [--otlp FILE]
//!                            # causal span traces, flame graph,
//!                            # deterministic sampling and the SLO alert
//!                            # timeline over the chaos replay scenario
//! repro replay --from-log FILE   # deterministically re-execute a
//!                                # recorded gpuflowd submission log;
//!                                # prints the per-job fingerprints and
//!                                # exposition — bit-identical to the
//!                                # live daemon run at any --threads
//! repro check                # regenerate and byte-compare every
//!                            # committed artifact and perf-gate
//!                            # baseline, validate the replay and spans
//!                            # grammars and the 10^6-task sampler
//!                            # bound; prints one line per check (and
//!                            # the blame table under a changed
//!                            # baseline) and exits 1 after reporting
//!                            # every failure
//! repro perf                 # master-overhead stress suite (host ns
//!                            # per simulated task, 100k-task DAGs)
//! repro perf --full          # million-task DAGs
//! repro perf --tasks N       # custom DAG size
//! repro perf --check         # also compare against the committed
//!                            # ceilings (artifacts/baselines/
//!                            # perf_ns_per_task.txt); exits 1 on breach
//! ```
//!
//! Every artifact comes from one table ([`ARTIFACTS`]). The committed
//! ones, which `all` writes and `check` compares, are the paper's
//! table1, fig1, fig6, fig7a, fig7b, fig8, fig9a, fig9b, fig10a, fig10b,
//! fig11 and fig12; the extensions `sensitivity` (resource-parameter
//! sweeps the paper defers to future work), `generalizability` (the
//! §5.5.1 parallel-fraction spectrum), `prediction`, `memory` and
//! `ablation`; and `replay` and `spans`. Two targets are never
//! committed: `obs` (telemetry bundle: event summary + overhead
//! decomposition) and `chaos` (fault-injection sensitivity: makespan and
//! output convergence under transient failures and node crashes).
//! `all` and `check` also cover the perf-gate baselines
//! ([`gate::suite_profiles`]), one `artifacts/baselines/<case>.profile`
//! per case.
//! Host-timed `repro perf --check` stays outside `repro check`, so a
//! failed check always means changed behaviour, never noise.
//!
//! The command word (`check`, `perf`, `replay --from-log`) comes first;
//! any other line renders artifacts. Each command declares the flags it
//! reads ([`gpuflow_daemon::flags`], the grammar `gpuflow` and
//! `gpuflowd` share), so an unknown or repeated flag, a flag with no
//! value, an unknown artifact or a bad number is a usage error before
//! anything runs.
//!
//! Exit codes: `0` success, `1` a failed run or check, `2` a usage
//! error.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use gpuflow_daemon::flags::{Args, Spec};
use gpuflow_experiments::replay::ReplaySpec;
use gpuflow_experiments::{
    ablation, factors, fault_sensitivity, fig1, fig10, fig11, fig12, fig6, fig7, fig8, fig9, gate,
    generalizability, memory, obs, prediction, replay, sensitivity, spans, stress, Context,
};
use gpuflow_runtime::{RunDiff, RunProfile};

/// Where the committed artifacts live, relative to the workspace root.
const ARTIFACT_DIR: &str = "artifacts";

/// The flags `repro [all | NAME...]` reads.
const RENDER: Spec = Spec(
    "repro",
    &[
        "--out --threads --telemetry",
        "--seed --jobs --tenants --horizon --interval --rate --span-seed --otlp",
    ],
    "--quick --chaos",
    usize::MAX,
);
const CHECK: Spec = Spec("check", &["--threads"], "", 0);
const PERF: Spec = Spec("perf", &["--tasks --thresholds"], "--full --check", 0);
const FROM_LOG: Spec = Spec("replay --from-log", &["--from-log"], "", 0);

/// What the artifact renderers read: the sweep context and the replay
/// and span scenario. Without flags (as in `repro check`) these are the
/// defaults the committed artifacts were rendered with.
struct Opts {
    ctx: Context,
    quick: bool,
    spec: ReplaySpec,
    rate_ppm: u64,
    span_seed: u64,
    otlp: Option<String>,
}

impl Opts {
    fn from_args(args: &Args) -> Result<Opts, String> {
        let d = ReplaySpec::default();
        Ok(Opts {
            ctx: Context::default().with_threads(args.int("--threads")?.unwrap_or(0)),
            quick: args.switch("--quick"),
            spec: ReplaySpec {
                seed: args.int("--seed")?.unwrap_or(d.seed),
                tenants: args.int("--tenants")?.unwrap_or(d.tenants),
                jobs: args.int("--jobs")?.unwrap_or(d.jobs),
                horizon_secs: args.num("--horizon")?.unwrap_or(d.horizon_secs),
                chaos: args.switch("--chaos"),
                interval_secs: args.num("--interval")?.unwrap_or(d.interval_secs),
            },
            rate_ppm: args.int("--rate")?.unwrap_or(spans::DEFAULT_RATE_PPM),
            span_seed: args
                .int("--span-seed")?
                .unwrap_or(spans::DEFAULT_SAMPLER_SEED),
            otlp: args.get("--otlp").map(String::from),
        })
    }

    /// The span scenario: the replay scenario, always with chaos.
    fn spans(&self) -> Result<spans::SpansReport, String> {
        let spec = ReplaySpec {
            chaos: true,
            ..self.spec.clone()
        };
        spans::run(&spec, self.rate_ppm, self.span_seed).map_err(|e| e.to_string())
    }
}

/// Renders one artifact's text.
type Render = fn(&Opts) -> Result<String, String>;

/// The artifact table `all`, `<name>` and `check` dispatch through:
/// name, whether `artifacts/<name>.txt` is committed (and so written by
/// `all` and compared by `check`), and renderer.
const ARTIFACTS: [(&str, bool, Render); 21] = [
    ("table1", true, |_| Ok(factors::render())),
    ("fig1", true, |o| Ok(fig1::run(&o.ctx).render())),
    ("fig6", true, render_fig6),
    ("fig7a", true, render_fig7a),
    ("fig7b", true, render_fig7b),
    ("fig8", true, |o| Ok(fig8::run(&o.ctx).render())),
    ("fig9a", true, |o| Ok(fig9::run_9a(&o.ctx).render())),
    ("fig9b", true, |o| Ok(fig9::run_9b(&o.ctx).render())),
    ("fig10a", true, |o| Ok(fig10::run_matmul(&o.ctx).render())),
    ("fig10b", true, |o| Ok(fig10::run_kmeans(&o.ctx).render())),
    ("fig11", true, render_fig11),
    ("fig12", true, |o| Ok(fig12::run(&o.ctx).render())),
    ("sensitivity", true, |o| Ok(sensitivity::render_all(&o.ctx))),
    ("generalizability", true, |o| {
        Ok(generalizability::run(&o.ctx).render())
    }),
    ("prediction", true, |o| Ok(prediction::run(&o.ctx).render())),
    ("memory", true, |o| Ok(memory::run(&o.ctx).render())),
    ("ablation", true, render_ablation),
    ("replay", true, |o| {
        replay::run(&o.spec)
            .map(|r| r.render())
            .map_err(|e| e.to_string())
    }),
    ("spans", true, render_spans),
    ("obs", false, |o| Ok(obs::run(&o.ctx).render())),
    ("chaos", false, |o| {
        Ok(fault_sensitivity::run(&o.ctx).render())
    }),
];

fn render_fig6(_: &Opts) -> Result<String, String> {
    let f = fig6::run();
    Ok(format!(
        "{}\n--- kmeans DOT ---\n{}\n--- matmul DOT ---\n{}",
        f.render(),
        f.kmeans_dot,
        f.matmul_dot
    ))
}

fn render_fig7a(o: &Opts) -> Result<String, String> {
    let panel = |data| fig7::run_matmul(&o.ctx, &data, &fig7::MATMUL_GRIDS).render();
    Ok(format!(
        "{}\n{}",
        panel(gpuflow_data::paper::matmul_8gb()),
        panel(gpuflow_data::paper::matmul_32gb())
    ))
}

fn render_fig7b(o: &Opts) -> Result<String, String> {
    let panel = |data| {
        fig7::run_kmeans(
            &o.ctx,
            &data,
            &fig7::KMEANS_GRIDS,
            10,
            fig7::KMEANS_ITERATIONS,
        )
        .render()
    };
    Ok(format!(
        "{}\n{}",
        panel(gpuflow_data::paper::kmeans_10gb()),
        panel(gpuflow_data::paper::kmeans_100gb())
    ))
}

fn render_fig11(o: &Opts) -> Result<String, String> {
    let fig = if o.quick {
        fig11::run_quick(&o.ctx)
    } else {
        fig11::run(&o.ctx)
    };
    Ok(fig.render())
}

fn render_ablation(_: &Opts) -> Result<String, String> {
    Ok(format!(
        "{}\n{}",
        ablation::run_scheduler_ablation().render(),
        ablation::render_variance()
    ))
}

/// The spans artifact; with `--otlp FILE` also writes the sampled
/// forest as OTLP JSON.
fn render_spans(o: &Opts) -> Result<String, String> {
    let report = o.spans()?;
    if let Some(path) = &o.otlp {
        std::fs::write(path, report.sampled.to_otlp_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("[otlp -> {path}]");
    }
    Ok(report.render())
}

/// `repro [all | NAME...]`: renders each target, prints it, and writes
/// it to `--out DIR` when given; `all --out DIR` also writes the
/// perf-gate baselines to `DIR/baselines`.
fn generate(args: &Args) -> Result<ExitCode, String> {
    let opts = Opts::from_args(args)?;
    let mut targets: Vec<(&str, Render)> = Vec::new();
    let words: Vec<&str> = match args.words() {
        [] => vec!["all"],
        words => words.iter().map(String::as_str).collect(),
    };
    let all = words.contains(&"all");
    for word in words {
        let picked: Vec<(&str, Render)> = ARTIFACTS
            .iter()
            .filter(|(name, committed, _)| *name == word || (word == "all" && *committed))
            .map(|&(name, _, render)| (name, render))
            .collect();
        if picked.is_empty() {
            return Err(format!("unknown artifact '{word}'"));
        }
        for target in picked {
            if !targets.iter().any(|(name, _)| *name == target.0) {
                targets.push(target);
            }
        }
    }
    let out_dir = args.get("--out").map(Path::new);
    let render_all = || -> Result<(), String> {
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        for (name, render) in targets {
            // lint: allow(D2, host progress timing printed to stderr only; never reaches an artifact)
            let t0 = Instant::now();
            let output = render(&opts).map_err(|e| format!("{name}: {e}"))?;
            println!("{output}");
            if let Some(dir) = out_dir {
                write(name, &dir.join(format!("{name}.txt")), &output)?;
            }
            eprintln!("[{name} regenerated in {:.2?}]", t0.elapsed());
        }
        if let (true, Some(dir)) = (all, out_dir) {
            write_baselines(&dir.join("baselines"), &gate::suite_profiles(&opts.ctx))?;
        }
        if let Some(dir) = args.get("--telemetry") {
            // lint: allow(D2, host progress timing printed to stderr only; never reaches an artifact)
            let t0 = Instant::now();
            let bundle = obs::run(&opts.ctx);
            bundle
                .write_dir(Path::new(dir))
                .map_err(|e| format!("cannot write the telemetry bundle to {dir}: {e}"))?;
            println!("{}", bundle.render());
            eprintln!(
                "[telemetry bundle ({} events) -> {dir} in {:.2?}]",
                bundle.events,
                t0.elapsed()
            );
        }
        Ok(())
    };
    if let Err(e) = render_all() {
        eprintln!("repro: {e}");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes the output file `path` of `name` and says so on stderr.
fn write(name: &str, path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[{name} -> {}]", path.display());
    Ok(())
}

/// Writes each perf-gate case's profile to `dir/<case>.profile`.
fn write_baselines(dir: &Path, profiles: &[(&str, RunProfile)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (name, profile) in profiles {
        write(name, &gate::baseline_path(dir, name), &profile.render())?;
    }
    Ok(())
}

/// Byte-compares a freshly rendered artifact with its committed copy.
fn compare(path: &Path, fresh: Result<String, String>) -> Result<String, String> {
    let fresh = fresh?;
    let committed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if fresh == committed {
        return Ok(format!("byte-identical to {}", path.display()));
    }
    let line = fresh
        .lines()
        .zip(committed.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| fresh.lines().count().min(committed.lines().count()));
    Err(format!(
        "differs from {} at line {}",
        path.display(),
        line + 1
    ))
}

/// The files in `dir` named `<stem><ext>` whose stem `renders` does not
/// accept, sorted.
fn strays(dir: &Path, ext: &str, renders: impl Fn(&str) -> bool) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|file| file.strip_suffix(ext).is_some_and(|stem| !renders(stem)))
        .collect();
    files.sort();
    files
}

/// One check per perf-gate case: its fresh profile byte-compared with
/// `dir/<case>.profile`, and on a mismatch the blame to print under the
/// check's line, the [`RunDiff`] of the committed profile against the
/// fresh one. Then one failed check per `.profile` in `dir` that no case
/// renders.
fn baseline_checks(
    dir: &Path,
    profiles: &[(&str, RunProfile)],
) -> Vec<(String, Result<String, String>, Option<String>)> {
    let mut checks: Vec<_> = profiles
        .iter()
        .map(|(name, fresh)| {
            let path = gate::baseline_path(dir, name);
            let verdict = compare(&path, Ok(fresh.render()));
            let blame = verdict
                .as_ref()
                .err()
                .and_then(|_| std::fs::read_to_string(&path).ok())
                .map(|text| match RunProfile::parse(&text) {
                    Ok(committed) => RunDiff::compare(&committed, fresh).render(),
                    Err(e) => format!("{}: {e}\n", path.display()),
                });
            (name.to_string(), verdict, blame)
        })
        .collect();
    for file in strays(dir, ".profile", |stem| {
        profiles.iter().any(|(n, _)| *n == stem)
    }) {
        checks.push((
            file,
            Err(String::from("no gate case renders this file")),
            None,
        ));
    }
    checks
}

/// Validates a Prometheus text exposition.
fn exposition(text: &str) -> Result<String, String> {
    gpuflow_lint::promtext::check(text)
        .map(|s| format!("{} families, {} samples", s.families, s.samples))
}

/// `repro check`: every deterministic check of the committed outputs.
/// Prints one line per check and fails only after running them all.
fn check(opts: &Opts) -> ExitCode {
    let mut checks = 0;
    let mut failed: Vec<String> = Vec::new();
    let mut say = |name: &str, verdict: Result<String, String>| {
        checks += 1;
        let (tag, detail) = match verdict {
            Ok(detail) => ("PASS", detail),
            Err(detail) => {
                failed.push(name.to_string());
                ("FAIL", detail)
            }
        };
        println!("{tag}  {name:<30} {detail}");
    };

    let dir = Path::new(ARTIFACT_DIR);
    for (name, _, render) in ARTIFACTS.iter().filter(|(_, committed, _)| *committed) {
        say(
            name,
            compare(&dir.join(format!("{name}.txt")), render(opts)),
        );
    }
    for file in strays(dir, ".txt", |stem| {
        ARTIFACTS.iter().any(|(n, c, _)| *c && *n == stem)
    }) {
        say(&file, Err(String::from("no artifact renders this file")));
    }

    let replay = replay::run(&opts.spec).map_err(|e| e.to_string());
    say(
        "replay exposition",
        replay.and_then(|r| exposition(&r.metrics.expose())),
    );
    let spans = opts.spans();
    let with_spans = |check: fn(&spans::SpansReport) -> Result<String, String>| {
        spans.as_ref().map_err(String::clone).and_then(check)
    };
    say(
        "spans exposition",
        with_spans(|r| exposition(&r.metrics.expose())),
    );
    say(
        "spans alert surface",
        with_spans(|r| {
            gpuflow_lint::promtext::check_alert_families(&r.metrics.expose()).map(|s| {
                format!(
                    "{} alert samples, {} recording rules",
                    s.alert_samples, s.recording_families
                )
            })
        }),
    );
    say(
        "spans collapsed stacks",
        with_spans(|r| {
            gpuflow_lint::collapsed::check(&r.collapsed())
                .map(|s| format!("{} stacks, weight {}", s.stacks, s.total_weight))
        }),
    );

    let profiles = gate::suite_profiles(&opts.ctx);
    for (name, verdict, blame) in baseline_checks(&dir.join("baselines"), &profiles) {
        say(&name, verdict);
        if let Some(blame) = blame {
            print!("{blame}");
        }
    }

    let bound = spans::run_stress(
        1_000_000,
        spans::DEFAULT_RATE_PPM,
        spans::DEFAULT_SAMPLER_SEED,
    );
    let line = spans::render_stress(&bound);
    say(
        "sampler bound",
        if bound.passed() { Ok(line) } else { Err(line) },
    );

    if failed.is_empty() {
        println!("repro check: all {checks} checks passed");
        ExitCode::SUCCESS
    } else {
        println!(
            "repro check: {} of {checks} checks failed: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}

/// `repro perf`: million-task DAGs measured in host ns per simulated
/// task. With `--check`, compares against the committed ceilings and
/// fails on a breach.
fn perf(args: &Args) -> Result<ExitCode, String> {
    let default = if args.switch("--full") {
        1_000_000
    } else {
        100_000
    };
    let results = stress::run_suite(args.int("--tasks")?.unwrap_or(default));
    println!("{}", stress::render(&results));
    if !args.switch("--check") {
        return Ok(ExitCode::SUCCESS);
    }
    let path = args
        .get("--thresholds")
        .unwrap_or("artifacts/baselines/perf_ns_per_task.txt");
    Ok(match stress::check(&results, Path::new(path)) {
        Ok(verdicts) => {
            println!("perf check: PASS\n{verdicts}");
            ExitCode::SUCCESS
        }
        Err(verdicts) => {
            eprintln!("perf check: FAIL\n{verdicts}");
            ExitCode::FAILURE
        }
    })
}

/// `repro replay --from-log FILE`: re-executes a recorded `gpuflowd`
/// submission journal by committing its decisions verbatim
/// ([`gpuflow_daemon::DaemonCore::replay`]). The printed report —
/// per-job output fingerprints plus the final Prometheus exposition —
/// is bit-identical to the live daemon's `ctl report` output.
fn replay_from_log(path: &str) -> ExitCode {
    let core = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| {
            gpuflow_daemon::DaemonCore::replay(&text).map_err(|e| format!("{path}: {e}"))
        });
    match core {
        Ok(core) => {
            print!("{}", core.report());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro replay: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = || argv.iter().skip(1).cloned();
    let run = || -> Result<ExitCode, String> {
        match argv.first().map(String::as_str) {
            Some("check") => Ok(check(&Opts::from_args(&Args::parse(&CHECK, rest())?)?)),
            Some("perf") => perf(&Args::parse(&PERF, rest())?),
            Some("replay") if argv.iter().any(|a| a == "--from-log") => {
                let args = Args::parse(&FROM_LOG, rest())?;
                let path = args.get("--from-log");
                Ok(replay_from_log(path.expect("argv holds --from-log")))
            }
            _ => generate(&Args::parse(&RENDER, argv.iter().cloned())?),
        }
    };
    run().unwrap_or_else(|msg| {
        eprintln!("repro: {msg} (usage: the header of crates/experiments/src/bin/repro.rs)");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::OnceLock;

    use super::*;

    /// The suite's fresh profiles, rendered once for every test.
    fn fresh() -> &'static [(&'static str, RunProfile)] {
        static PROFILES: OnceLock<Vec<(&'static str, RunProfile)>> = OnceLock::new();
        PROFILES.get_or_init(|| gate::suite_profiles(&Context::default().with_threads(2)))
    }

    /// A scratch directory holding the fresh baselines, as `repro all
    /// --out` writes them.
    fn written(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("repro_baselines_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_baselines(&dir, fresh()).expect("write the baselines");
        dir
    }

    fn failures(checks: &[(String, Result<String, String>, Option<String>)]) -> Vec<&str> {
        checks
            .iter()
            .filter(|(_, verdict, _)| verdict.is_err())
            .map(|(name, _, _)| name.as_str())
            .collect()
    }

    #[test]
    fn all_out_writes_the_committed_baselines() {
        let dir = written("bless");
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/baselines");
        for (name, _) in fresh() {
            let read = |dir: &Path| std::fs::read(gate::baseline_path(dir, name)).expect(name);
            assert!(read(&dir) == read(&committed), "{name} differs");
        }
        let checks = baseline_checks(&committed, fresh());
        assert_eq!(checks.len(), fresh().len());
        assert!(failures(&checks).is_empty(), "{checks:?}");
        assert!(checks.iter().all(|(_, _, blame)| blame.is_none()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_changed_byte_fails_with_its_line_and_the_blame() {
        let dir = written("byte");
        let path = gate::baseline_path(&dir, "matmul_cpu_shared_fifo");
        // A byte outside the makespan and the overhead buckets: the last
        // digit of node 3's busy time.
        let text = std::fs::read_to_string(&path).unwrap();
        let at = text.find("resource 3 busy ").unwrap();
        let line = text[..at].lines().count() + 1;
        let end = at + text[at..].find(" intervals").unwrap();
        let mut bytes = text.into_bytes();
        bytes[end - 1] ^= 1;
        std::fs::write(&path, bytes).unwrap();

        let checks = baseline_checks(&dir, fresh());
        assert_eq!(failures(&checks), ["matmul_cpu_shared_fifo"]);
        let (_, verdict, blame) = &checks[0];
        let detail = verdict.as_ref().unwrap_err();
        let at_line = format!("matmul_cpu_shared_fifo.profile at line {line}");
        assert!(detail.contains(&at_line), "{detail}");
        let blame = blame.as_deref().expect("a blame under the FAIL line");
        assert!(
            blame.starts_with("run diff: A = matmul_cpu_shared_fifo"),
            "{blame}"
        );
        assert!(blame.contains("blame table"), "{blame}");
        assert!(checks[1..].iter().all(|(_, _, blame)| blame.is_none()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_stray_baselines_fail() {
        let dir = written("missing");
        std::fs::remove_file(gate::baseline_path(&dir, "kmeans_cpu_shared_fifo")).unwrap();
        std::fs::write(dir.join("retired_case.profile"), "gpuflow-profile v1\n").unwrap();
        std::fs::write(dir.join("perf_ns_per_task.txt"), "not a profile\n").unwrap();

        let checks = baseline_checks(&dir, fresh());
        assert_eq!(
            failures(&checks),
            ["kmeans_cpu_shared_fifo", "retired_case.profile"]
        );
        let detail = |name: &str| {
            let (_, verdict, _) = checks.iter().find(|(n, _, _)| n == name).unwrap();
            verdict.clone().unwrap_err()
        };
        assert!(detail("kmeans_cpu_shared_fifo").starts_with("cannot read"));
        assert_eq!(
            detail("retired_case.profile"),
            "no gate case renders this file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
