//! The `repro` binary's own paths: replaying a recorded `gpuflowd`
//! journal, writing an artifact and the telemetry bundle beside it, and
//! the usage errors (exit code 2) that stop a run before it starts.

use std::path::PathBuf;
use std::process::{Command, Output};

use gpuflow_daemon::{DaemonConfig, DaemonCore};
use gpuflow_runtime::JobShape;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// A fresh scratch directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `repro replay --from-log FILE` prints exactly the live daemon's
/// report: per-job fingerprints and the final exposition.
#[test]
fn replay_from_log_prints_the_live_report() {
    let mut core = DaemonCore::new(DaemonConfig::default()).expect("default config");
    for (i, tenant) in ["acme", "beta", "gamma", "acme", "beta"].iter().enumerate() {
        let shape = JobShape::ALL[i % JobShape::ALL.len()];
        let job = core
            .submit(tenant, shape, 4 + 3 * i as u64, (i % 2) as u32)
            .expect("admitted");
        if i == 3 {
            core.cancel(job).expect("cancel a queued job");
        }
        if i == 2 {
            core.drain().expect("first drain");
        }
    }
    assert!(core.submit("nobody", JobShape::ALL[0], 4, 0).is_err());
    core.drain().expect("second drain");

    let dir = temp_dir("replay");
    let log = dir.join("submissions.log");
    std::fs::write(&log, core.journal_text()).expect("write journal");
    let out = repro(&["replay", "--from-log", log.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), core.report());
}

/// `--out DIR` writes the artifact as committed, and `--telemetry DIR`
/// writes the four files of the telemetry bundle.
#[test]
fn out_and_telemetry_write_their_files() {
    let dir = temp_dir("out");
    let dir_arg = dir.to_str().unwrap();
    let out = repro(&["table1", "--out", dir_arg, "--telemetry", dir_arg]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/table1.txt");
    assert_eq!(
        std::fs::read_to_string(dir.join("table1.txt")).expect("table1 written"),
        std::fs::read_to_string(committed).expect("committed table1")
    );
    for file in [
        "telemetry.jsonl",
        "trace.chrome.json",
        "decisions.log",
        "overhead.txt",
    ] {
        let text = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("{file} written: {e}"));
        assert!(!text.is_empty(), "{file} is empty");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown artifacts, removed check modes, flags a command does not take,
/// flags no named artifact reads, repeated flags, words a command does
/// not take and bad numbers are usage errors: exit 2, nothing on stdout.
#[test]
fn usage_errors_exit_2_before_running() {
    for args in [
        &["nosuch"][..],
        &["replay", "--check"],
        &["spans", "--stress"],
        &["gate"],
        &["gate", "--update"],
        &["check", "--out", "x"],
        &["fig1", "--threads", "many"],
        &["fig1", "--out"],
        &["table1", "--threads", "1", "--threads", "many"],
        &["check", "fig1"],
        &["replay", "--from-log", "x.log", "--seed", "3"],
        // A flag none of the named artifacts reads.
        &["table1", "--jobs", "5", "--chaos"],
        &["fig1", "fig7a", "--quick"],
        &["replay", "--rate", "5"],
        &["fig11", "--otlp", "x.json"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} printed to stdout");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("repro: "),
            "repro {args:?}"
        );
    }
}
