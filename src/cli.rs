//! The flags of the `gpuflow` CLI binary that several commands share,
//! and what they build, kept in the library so they are unit-testable.
//! The grammar itself is [`gpuflow_daemon::flags`].

use gpuflow_advisor::Workload;
use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow_daemon::flags::Args;
use gpuflow_daemon::protocol::{control, Command, CONTROL};
use gpuflow_data::DatasetSpec;
use gpuflow_runtime::{FaultPlan, JobShape, RecoveryPolicy, RunConfig, SchedulingPolicy};

/// The flags [`workload_from`] reads.
pub const WORKLOAD: &str = "--workload --rows --cols --seed --clusters --iterations --queries --k";

/// The flags of a simulated run besides the workload's: the workflow's
/// `--grid` and what [`run_config`] reads, `--seed` being one of
/// [`WORKLOAD`]'s. A command that reads these reads those too.
pub const RUN: &str = "--grid --processor --storage --policy --threads --faults --max-retries \
                       --backoff --resubmit --fallback";

/// The workload parameters, each with the one workload that reads it.
const PARAMETERS: [(&str, &str); 4] = [
    ("--clusters", "kmeans"),
    ("--iterations", "kmeans"),
    ("--queries", "knn"),
    ("--k", "knn"),
];

/// Builds the workload described by `--workload` and its parameters.
///
/// # Errors
/// Reports unknown workloads, missing dimensions, a parameter of
/// another workload and a zero parameter.
pub fn workload_from(args: &Args) -> Result<Workload, String> {
    let rows = args.required_int("--rows")?;
    let cols = args.required_int("--cols")?;
    let seed = args.int("--seed")?.unwrap_or(0xD151B);
    let dataset = DatasetSpec::uniform("cli", rows, cols, seed);
    let name = args.get("--workload").unwrap_or("kmeans");
    let workload = match name {
        "matmul" => Workload::Matmul { dataset },
        "fma" => Workload::MatmulFma { dataset },
        "cholesky" => Workload::Cholesky { dataset },
        "kmeans" => Workload::Kmeans {
            dataset,
            clusters: count(args, "--clusters", 10)?,
            iterations: count(args, "--iterations", 3)?,
        },
        "knn" => Workload::Knn {
            dataset,
            queries: count(args, "--queries", 256)?,
            k: count(args, "--k", 10)?,
        },
        other => {
            return Err(format!(
                "unknown workload '{other}' (matmul, fma, kmeans, knn, cholesky)"
            ))
        }
    };
    match PARAMETERS
        .iter()
        .find(|(flag, owner)| *owner != name && args.switch(flag))
    {
        Some((flag, owner)) => Err(format!(
            "{flag} does not go with --workload {name} (only {owner} reads it)"
        )),
        None => Ok(workload),
    }
}

/// The workload parameter `flag`, or `default` without it. Each is a
/// count of at least one: a K-means without clusters or iterations, or
/// a KNN without queries or neighbours, simulates nothing.
///
/// # Errors
/// Reports an unparsable value and zero.
fn count<T: TryFrom<u64> + Default + PartialEq>(
    args: &Args,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match args.int(flag)? {
        Some(n) if n == T::default() => Err(format!("{flag} must be at least 1")),
        given => Ok(given.unwrap_or(default)),
    }
}

/// Parses `--processor`.
///
/// # Errors
/// Reports unknown values.
fn processor_from(args: &Args) -> Result<ProcessorKind, String> {
    match args.get("--processor").unwrap_or("cpu") {
        "cpu" => Ok(ProcessorKind::Cpu),
        "gpu" => Ok(ProcessorKind::Gpu),
        other => Err(format!("unknown processor '{other}' (cpu, gpu)")),
    }
}

/// Parses `--storage`.
///
/// # Errors
/// Reports unknown values.
fn storage_from(args: &Args) -> Result<StorageArchitecture, String> {
    match args.get("--storage").unwrap_or("shared") {
        "shared" => Ok(StorageArchitecture::SharedDisk),
        "local" => Ok(StorageArchitecture::LocalDisk),
        other => Err(format!("unknown storage '{other}' (shared, local)")),
    }
}

/// Parses `--policy`.
///
/// # Errors
/// Reports unknown values.
fn policy_from(args: &Args) -> Result<SchedulingPolicy, String> {
    match args.get("--policy").unwrap_or("fifo") {
        "fifo" | "generation-order" => Ok(SchedulingPolicy::GenerationOrder),
        "locality" | "data-locality" => Ok(SchedulingPolicy::DataLocality),
        "critical-path" | "cp" => Ok(SchedulingPolicy::CriticalPath),
        other => Err(format!(
            "unknown policy '{other}' (fifo, locality, critical-path)"
        )),
    }
}

/// Parses `--faults SPEC` into a fault plan (see
/// [`FaultPlan::parse`] for the clause grammar, e.g.
/// `seed:42;crash:node=1,at=0.2,rejoin=0.1;taskfail:p=0.05`).
///
/// # Errors
/// Reports malformed specifications.
fn faults_from(args: &Args) -> Result<Option<FaultPlan>, String> {
    match args.get("--faults") {
        None => Ok(None),
        Some(spec) => FaultPlan::parse(spec)
            .map(Some)
            .map_err(|e| format!("--faults: {e}")),
    }
}

/// Parses the recovery-policy flags `--max-retries N`,
/// `--backoff SECS`, `--resubmit alt|same`, `--fallback on|off`.
///
/// # Errors
/// Reports unparsable values.
fn recovery_from(args: &Args) -> Result<RecoveryPolicy, String> {
    let default = RecoveryPolicy::default();
    let resubmit_alternate = match args.get("--resubmit") {
        None => default.resubmit_alternate,
        Some("alt") => true,
        Some("same") => false,
        Some(other) => return Err(format!("--resubmit: '{other}' (alt, same)")),
    };
    let gpu_to_cpu_fallback = match args.get("--fallback") {
        None => default.gpu_to_cpu_fallback,
        Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("--fallback: '{other}' (on, off)")),
    };
    Ok(RecoveryPolicy {
        max_retries: args.int("--max-retries")?.unwrap_or(default.max_retries),
        backoff_base_secs: args.num("--backoff")?.unwrap_or(default.backoff_base_secs),
        resubmit_alternate,
        gpu_to_cpu_fallback,
    })
}

/// The run configuration the run flags describe, on the Minotauro
/// cluster: `--processor`, `--storage`, `--policy`, `--threads` (CPU
/// threads per task), the recovery flags and `--faults`.
///
/// # Errors
/// Reports unknown or unparsable values and `--threads 0`.
pub fn run_config(args: &Args) -> Result<RunConfig, String> {
    let threads = args.int("--threads")?.unwrap_or(1);
    if threads == 0 {
        return Err(String::from("--threads: a task needs at least one thread"));
    }
    let mut config = RunConfig::new(ClusterSpec::minotauro(), processor_from(args)?)
        .with_storage(storage_from(args)?)
        .with_policy(policy_from(args)?)
        .with_cpu_threads(threads)
        .with_recovery(recovery_from(args)?);
    // `--seed` seeds the jitter as well as the dataset (`workload_from`);
    // without it the run keeps the default jitter seed.
    let seed = args.int("--seed")?.unwrap_or(config.seed);
    config = config.with_seed(seed);
    if let Some(plan) = faults_from(args)? {
        config = config.with_faults(plan);
    }
    Ok(config)
}

/// Builds the one-line daemon request for the client verbs
/// (`gpuflow submit` / `queue` / `cancel` / `ctl ACTION`) as the
/// protocol renders it — kept in the library so the request grammar is
/// unit-testable. `verb` is the CLI subcommand; for `ctl`, the action is
/// one of the protocol's [`CONTROL`] verbs.
///
/// # Errors
/// Reports missing flags, an unknown shape and unknown control actions.
pub fn daemon_request_from(verb: &str, args: &Args) -> Result<String, String> {
    let command = match verb {
        "submit" => {
            let tenant = args
                .get("--tenant")
                .ok_or("--tenant is required (a tenant name the daemon was started with)")?;
            let shape = args.get("--shape").unwrap_or("wide");
            Command::Submit {
                tenant: tenant.to_string(),
                shape: JobShape::parse(shape)
                    .ok_or_else(|| format!("unknown shape '{shape}' (wide, stencil, tree)"))?,
                tasks: args.required_int("--tasks")?,
                prio: args.int("--prio")?.unwrap_or(0),
            }
        }
        "queue" => Command::Queue {
            json: args.switch("--json"),
        },
        "cancel" => Command::Cancel {
            job: args.required_int("--job")?,
        },
        action => control(action).ok_or_else(|| {
            let actions = CONTROL.map(|(verb, _)| verb).join(", ");
            format!("unknown daemon action '{action}' ({actions})")
        })?,
    };
    Ok(command.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    use gpuflow_daemon::flags::Spec;

    /// Every flag this module reads, plus the `--out` and `--json` of
    /// the commands that share them.
    const ALL: Spec = Spec(
        "test",
        &[WORKLOAD, RUN, "--out --tenant --shape --tasks --prio --job"],
        "--json --series",
        0,
    );

    fn parse(list: &[&str]) -> Result<Args, String> {
        Args::parse(&ALL, list.iter().map(|s| s.to_string()))
    }

    fn args(list: &[&str]) -> Args {
        parse(list).unwrap()
    }

    #[test]
    fn parses_flag_pairs() {
        let a = args(&["--rows", "100", "--cols", "8"]);
        assert_eq!(a.get("--rows"), Some("100"));
        assert_eq!(a.required_int::<u64>("--cols").unwrap(), 8);
        assert_eq!(a.int::<u64>("--grid").unwrap(), None);
    }

    #[test]
    fn bool_flags_need_no_value() {
        let a = args(&["--json", "--out", "x.txt"]);
        assert!(a.switch("--json"));
        assert!(!a.switch("--series"));
        assert_eq!(a.get("--out"), Some("x.txt"));
        // Declared as a value flag, --json swallows `--out` as its value
        // and the orphaned `x.txt` is rejected as positional.
        let valued = Spec("valued", &["--json --out"], "", 0);
        let argv = ["--json", "--out", "x.txt"].map(String::from);
        assert!(Args::parse(&valued, argv).is_err());
    }

    #[test]
    fn rejects_positional_and_dangling() {
        let err = parse(&["positional"]).unwrap_err();
        assert!(err.starts_with("unexpected argument 'positional'"), "{err}");
        assert_eq!(parse(&["--rows"]).unwrap_err(), "--rows needs a value");
    }

    #[test]
    fn reports_unparsable_numbers() {
        let a = args(&["--rows", "many"]);
        let err = a.required_int::<u64>("--rows").unwrap_err();
        assert_eq!(err, "--rows wants a u64 integer, got \"many\"");
        let a = args(&["--backoff", "soon"]);
        let err = run_config(&a).unwrap_err();
        assert_eq!(err, "--backoff wants a number, got \"soon\"");
    }

    #[test]
    fn builds_every_workload() {
        for (name, expect) in [
            ("matmul", "Matmul"),
            ("fma", "MatmulFMA"),
            ("kmeans", "Kmeans"),
            ("knn", "Knn"),
            ("cholesky", "Cholesky"),
        ] {
            let a = args(&["--workload", name, "--rows", "64", "--cols", "64"]);
            let w = workload_from(&a).unwrap();
            assert!(w.label().contains(expect), "{name} -> {}", w.label());
        }
    }

    #[test]
    fn kmeans_parameters_flow_through() {
        let a = args(&[
            "--workload",
            "kmeans",
            "--rows",
            "64",
            "--cols",
            "8",
            "--clusters",
            "7",
            "--iterations",
            "2",
        ]);
        let w = workload_from(&a).unwrap();
        assert!(w.label().contains("k=7"));
        assert!(w.label().contains("iters=2"));
    }

    /// A workload takes its own parameters, each at least 1, and
    /// refuses every other workload's.
    #[test]
    fn workload_parameters_belong_to_their_workload() {
        for name in ["matmul", "fma", "kmeans", "knn", "cholesky"] {
            for (flag, owner) in PARAMETERS {
                let with = |value| {
                    let line = [
                        "--workload",
                        name,
                        "--rows",
                        "64",
                        "--cols",
                        "64",
                        flag,
                        value,
                    ];
                    workload_from(&args(&line))
                };
                if owner == name {
                    assert!(with("2").is_ok(), "{name} {flag} 2");
                    assert_eq!(with("0").unwrap_err(), format!("{flag} must be at least 1"));
                } else {
                    let err = with("2").unwrap_err();
                    assert!(err.starts_with(&format!("{flag} does not go with --workload {name}")));
                }
            }
        }
    }

    #[test]
    fn enum_flags_parse_with_aliases() {
        let a = args(&["--processor", "gpu", "--storage", "local", "--policy", "cp"]);
        assert_eq!(processor_from(&a).unwrap(), ProcessorKind::Gpu);
        assert_eq!(storage_from(&a).unwrap(), StorageArchitecture::LocalDisk);
        assert_eq!(policy_from(&a).unwrap(), SchedulingPolicy::CriticalPath);
    }

    #[test]
    fn defaults_are_the_paper_settings() {
        let a = args(&[]);
        assert_eq!(processor_from(&a).unwrap(), ProcessorKind::Cpu);
        assert_eq!(storage_from(&a).unwrap(), StorageArchitecture::SharedDisk);
        assert_eq!(policy_from(&a).unwrap(), SchedulingPolicy::GenerationOrder);
    }

    #[test]
    fn fault_flags_parse_and_round_trip() {
        let a = args(&[]);
        assert_eq!(faults_from(&a).unwrap(), None);
        assert_eq!(recovery_from(&a).unwrap(), RecoveryPolicy::default());

        let a = args(&["--faults", "seed:7;crash:node=1,at=0.2,rejoin=0.1"]);
        let plan = faults_from(&a).unwrap().unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.node_crashes.len(), 1);

        let a = args(&[
            "--max-retries",
            "5",
            "--backoff",
            "0.5",
            "--resubmit",
            "same",
            "--fallback",
            "on",
        ]);
        let p = recovery_from(&a).unwrap();
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.backoff_base_secs, 0.5);
        assert!(!p.resubmit_alternate);
        assert!(p.gpu_to_cpu_fallback);
    }

    #[test]
    fn bad_fault_flags_error_clearly() {
        let a = args(&["--faults", "crash:node=x"]);
        assert!(faults_from(&a).unwrap_err().starts_with("--faults:"));
        let a = args(&["--resubmit", "elsewhere"]);
        assert!(recovery_from(&a).unwrap_err().contains("alt, same"));
        let a = args(&["--fallback", "maybe"]);
        assert!(recovery_from(&a).unwrap_err().contains("on, off"));
    }

    #[test]
    fn run_config_takes_every_run_flag() {
        let a = args(&[
            "--processor",
            "gpu",
            "--storage",
            "local",
            "--policy",
            "locality",
            "--threads",
            "4",
            "--max-retries",
            "5",
            "--backoff",
            "0.5",
            "--resubmit",
            "same",
            "--fallback",
            "on",
            "--faults",
            "seed:7;crash:node=1,at=0.2,rejoin=0.1",
            "--seed",
            "42",
        ]);
        let c = run_config(&a).unwrap();
        assert_eq!(c.processor, ProcessorKind::Gpu);
        assert_eq!(c.storage, StorageArchitecture::LocalDisk);
        assert_eq!(c.policy, SchedulingPolicy::DataLocality);
        assert_eq!(c.cpu_threads_per_task, 4);
        assert_eq!(c.recovery, recovery_from(&a).unwrap());
        assert_ne!(c.recovery, RecoveryPolicy::default());
        assert_eq!(c.faults, faults_from(&a).unwrap());
        assert!(c.faults.is_some());
        assert_eq!(c.cluster.nodes, ClusterSpec::minotauro().nodes);
        assert_eq!(c.seed, 42);

        let d = run_config(&args(&[])).unwrap();
        assert_eq!(d.processor, ProcessorKind::Cpu);
        assert_eq!(d.cpu_threads_per_task, 1);
        assert_eq!(d.recovery, RecoveryPolicy::default());
        assert_eq!(d.faults, None);
        assert!(!d.collect_telemetry);
        assert_eq!(d.seed, RunConfig::new(d.cluster.clone(), d.processor).seed);
        assert!(run_config(&args(&["--threads", "0"]))
            .unwrap_err()
            .starts_with("--threads"));
        assert!(run_config(&args(&["--seed", "x"]))
            .unwrap_err()
            .starts_with("--seed"));
    }

    #[test]
    fn seed_flag_reaches_the_jitter() {
        let makespan = |seed: &str| {
            let a = args(&[
                "--workload",
                "kmeans",
                "--rows",
                "20000",
                "--cols",
                "16",
                "--iterations",
                "2",
                "--seed",
                seed,
            ]);
            let workflow = workload_from(&a).unwrap().build(4).unwrap();
            let config = run_config(&a).unwrap();
            gpuflow_runtime::run(&workflow, &config).unwrap().makespan()
        };
        assert_eq!(makespan("1"), makespan("1"));
        assert_ne!(makespan("1"), makespan("2"));
    }

    #[test]
    fn daemon_requests_render_the_protocol_lines() {
        let a = args(&["--tenant", "acme", "--shape", "tree", "--tasks", "24"]);
        assert_eq!(
            daemon_request_from("submit", &a).unwrap(),
            "submit tenant=acme shape=tree tasks=24"
        );
        let a = args(&["--tenant", "acme", "--tasks", "8", "--prio", "5"]);
        assert_eq!(
            daemon_request_from("submit", &a).unwrap(),
            "submit tenant=acme shape=wide tasks=8 prio=5"
        );
        let a = args(&["--job", "3"]);
        assert_eq!(daemon_request_from("cancel", &a).unwrap(), "cancel job=3");
        let a = args(&["--json"]);
        assert_eq!(daemon_request_from("queue", &a).unwrap(), "queue json");
        assert_eq!(daemon_request_from("queue", &args(&[])).unwrap(), "queue");
        for (action, _) in CONTROL {
            assert_eq!(daemon_request_from(action, &args(&[])).unwrap(), action);
        }
        assert!(daemon_request_from("submit", &args(&[])).is_err());
        assert!(daemon_request_from("cancel", &args(&[])).is_err());
        assert!(daemon_request_from("florp", &args(&[])).is_err());
    }

    #[test]
    fn unknown_values_error_clearly() {
        let a = args(&["--workload", "sorting", "--rows", "8", "--cols", "8"]);
        assert!(workload_from(&a).unwrap_err().contains("unknown workload"));
        let a = args(&["--processor", "tpu"]);
        assert!(processor_from(&a)
            .unwrap_err()
            .contains("unknown processor"));
    }
}
