//! `repro` — regenerate the paper's tables and figures, and check the
//! committed copies under `artifacts/`.
//!
//! ```text
//! repro all                  # every committed artifact (below)
//! repro fig1                 # one artifact
//! repro fig7a fig7b ...      # several
//! repro fig11 --quick        # reduced sample set
//! repro all --out DIR        # additionally write DIR/<name>.txt per
//!                            # artifact; `--out artifacts` re-blesses
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
//!                            # committed artifact, validate the replay
//!                            # and spans grammars, run the perf gate
//!                            # against artifacts/baselines and the
//!                            # 10^6-task sampler bound; prints one line
//!                            # per check and exits 1 after reporting
//!                            # every failure
//! repro gate --update        # rewrite the perf-gate baseline profiles
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
//! Host-timed `repro perf --check` stays outside `repro check`, so a
//! failed check always means changed behaviour, never noise.
//!
//! Exit codes: `0` success, `1` a failed run or check, `2` a usage
//! error.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use gpuflow_experiments::replay::ReplaySpec;
use gpuflow_experiments::{
    ablation, factors, fault_sensitivity, fig1, fig10, fig11, fig12, fig6, fig7, fig8, fig9, gate,
    generalizability, memory, obs, prediction, replay, sensitivity, spans, stress, Context,
};

/// Where the committed artifacts live, relative to the workspace root.
const ARTIFACT_DIR: &str = "artifacts";

/// Where the perf gate's baseline profiles live.
const BASELINE_DIR: &str = "artifacts/baselines";

/// Flags that take no value; every other flag takes one.
const SWITCHES: [&str; 5] = ["--quick", "--chaos", "--update", "--full", "--check"];

/// The flags `repro [all | NAME...]` takes.
const RENDER_FLAGS: &str = "--out --threads --telemetry --quick --seed --jobs --tenants \
                            --horizon --interval --chaos --rate --span-seed --otlp";

/// The command line: positional words and flags.
#[derive(Default)]
struct Args {
    words: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if SWITCHES.contains(&arg.as_str()) {
                args.switches.push(arg);
            } else if arg.starts_with("--") {
                let value = argv.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.values.push((arg, value));
            } else {
                args.words.push(arg);
            }
        }
        Ok(args)
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} takes a number, got '{v}'"))
            })
            .transpose()
    }

    /// Fails on a flag the command does not take (`allowed` lists them,
    /// space-separated).
    fn only(&self, allowed: &str) -> Result<(), String> {
        let mut flags = self.values.iter().map(|(f, _)| f).chain(&self.switches);
        match flags.find(|f| !allowed.split_whitespace().any(|a| a == f.as_str())) {
            Some(flag) => Err(format!("unknown flag {flag} for this command")),
            None => Ok(()),
        }
    }
}

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
            ctx: Context::default().with_threads(args.num("--threads")?.unwrap_or(0)),
            quick: args.switch("--quick"),
            spec: ReplaySpec {
                seed: args.num("--seed")?.unwrap_or(d.seed),
                tenants: args.num("--tenants")?.unwrap_or(d.tenants),
                jobs: args.num("--jobs")?.unwrap_or(d.jobs),
                horizon_secs: args.num("--horizon")?.unwrap_or(d.horizon_secs),
                chaos: args.switch("--chaos"),
                interval_secs: args.num("--interval")?.unwrap_or(d.interval_secs),
            },
            rate_ppm: args.num("--rate")?.unwrap_or(spans::DEFAULT_RATE_PPM),
            span_seed: args
                .num("--span-seed")?
                .unwrap_or(spans::DEFAULT_SAMPLER_SEED),
            otlp: args.value("--otlp").map(String::from),
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
    ("sensitivity", true, |_| Ok(sensitivity::render_all())),
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
/// it to `--out DIR` when given.
fn generate(args: &Args) -> Result<ExitCode, String> {
    let opts = Opts::from_args(args)?;
    let mut targets: Vec<(&str, Render)> = Vec::new();
    let words: Vec<&str> = match args.words.as_slice() {
        [] => vec!["all"],
        words => words.iter().map(String::as_str).collect(),
    };
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
    let out_dir = args.value("--out").map(Path::new);
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
                let path = dir.join(format!("{name}.txt"));
                std::fs::write(&path, &output)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("[{name} -> {}]", path.display());
            }
            eprintln!("[{name} regenerated in {:.2?}]", t0.elapsed());
        }
        if let Some(dir) = args.value("--telemetry") {
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
    let mut stray: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|file| {
            file.strip_suffix(".txt")
                .is_some_and(|stem| !ARTIFACTS.iter().any(|(n, c, _)| *c && *n == stem))
        })
        .collect();
    stray.sort();
    for file in stray {
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

    let gate = gate::check(
        &opts.ctx,
        Path::new(BASELINE_DIR),
        gate::DEFAULT_TOLERANCE_PCT,
    );
    say(
        "perf gate",
        if gate.passed() {
            Ok(format!("{} cases", gate.results.len()))
        } else {
            Err(String::from("see the gate report below"))
        },
    );
    if !gate.passed() {
        print!("{}", gate.render());
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

/// `repro gate --update`: rewrites the perf gate's baseline profiles.
fn gate_update(opts: &Opts) -> ExitCode {
    let dir = Path::new(BASELINE_DIR);
    match gate::update(&opts.ctx, dir) {
        Ok(written) => {
            for path in &written {
                eprintln!("[baseline -> {}]", path.display());
            }
            println!(
                "updated {} baseline profiles in {}",
                written.len(),
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro gate: cannot write {}: {e}", dir.display());
            ExitCode::FAILURE
        }
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
    let results = stress::run_suite(args.num("--tasks")?.unwrap_or(default));
    println!("{}", stress::render(&results));
    if !args.switch("--check") {
        return Ok(ExitCode::SUCCESS);
    }
    let path = args
        .value("--thresholds")
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
    let run = || -> Result<ExitCode, String> {
        let args = Args::parse(std::env::args().skip(1))?;
        match (
            args.words.first().map(String::as_str),
            args.value("--from-log"),
        ) {
            (Some("check"), _) => {
                args.only("--threads")?;
                Ok(check(&Opts::from_args(&args)?))
            }
            (Some("gate"), _) if args.switch("--update") => {
                args.only("--threads --update")?;
                Ok(gate_update(&Opts::from_args(&args)?))
            }
            (Some("gate"), _) => Err(String::from(
                "`repro gate` only takes --update; `repro check` runs the gate",
            )),
            (Some("perf"), _) => {
                args.only("--full --tasks --check --thresholds")?;
                perf(&args)
            }
            (Some("replay"), Some(path)) => {
                args.only("--from-log")?;
                Ok(replay_from_log(path))
            }
            _ => {
                args.only(RENDER_FLAGS)?;
                generate(&args)
            }
        }
    };
    run().unwrap_or_else(|msg| {
        eprintln!("repro: {msg} (usage: the header of crates/experiments/src/bin/repro.rs)");
        ExitCode::from(2)
    })
}
