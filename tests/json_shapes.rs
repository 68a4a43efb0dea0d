//! The CLI's machine-readable outputs are a contract: `gpuflow obs
//! summary --json` and `gpuflow diff --json` are validated here against
//! checked-in example-shaped schemas (`tests/schemas/*.json`) using the
//! lint crate's dependency-free JSON parser. A key added, removed, or
//! retyped in either emitter fails this suite before it breaks a
//! downstream consumer. The other CLI views checked here (the Chrome
//! trace and event log of a faulted run, the flame graph, the doctor
//! report, a rejected `submit`) are parsed the same way, and `gpuflow
//! diff` refuses a profile whose buckets do not sum to its makespan.

use std::path::Path;
use std::process::Command;

use gpuflow_lint::json;

fn schema(name: &str) -> json::Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/schemas")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

fn gpuflow(args: &[&str]) -> String {
    let out = gpuflow_status(args);
    assert!(
        out.status.success(),
        "gpuflow {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn gpuflow_status(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gpuflow"))
        .args(args)
        .output()
        .expect("run gpuflow binary")
}

const RUN: [&str; 8] = [
    "--workload",
    "matmul",
    "--rows",
    "2000",
    "--cols",
    "2000",
    "--grid",
    "2",
];

#[test]
fn obs_summary_json_matches_schema() {
    let mut args = vec!["obs", "summary"];
    args.extend(RUN);
    args.push("--json");
    let out = gpuflow(&args);
    let value = json::parse(&out).expect("obs summary --json output parses");
    json::check_shape(&schema("obs_summary.json"), &value)
        .unwrap_or_else(|e| panic!("obs summary --json shape drifted: {e}\noutput: {out}"));
}

#[test]
fn daemon_queue_json_matches_schema() {
    use gpuflow::daemon::{DaemonConfig, DaemonCore};
    use gpuflow::runtime::JobShape;

    let mut core = DaemonCore::new(DaemonConfig::default()).expect("default config is valid");
    core.submit("acme", JobShape::Wide, 12, 1).unwrap();
    core.submit("beta", JobShape::Tree, 9, 0).unwrap();
    core.submit("nobody", JobShape::Wide, 4, 0).unwrap_err();
    core.drain().unwrap();
    core.submit("gamma", JobShape::Stencil, 16, 0).unwrap();
    core.cancel(3).unwrap();

    let out = core.queue_json();
    let value = json::parse(&out).expect("queue json parses");
    json::check_shape(&schema("queue.json"), &value)
        .unwrap_or_else(|e| panic!("queue json shape drifted: {e}\noutput: {out}"));
    assert_eq!(
        value.get("schema").and_then(|v| v.as_str()),
        Some("gpuflow.daemon.queue.v1"),
        "schema tag drifted: {out}"
    );
    // Every lifecycle state appears, proving the example exercises the
    // whole surface the schema pins.
    for state in ["done", "cancelled"] {
        assert!(out.contains(&format!("\"state\": \"{state}\"")), "{out}");
    }
}

/// A profile whose buckets do not partition its makespan is refused
/// instead of diffed: the blame table could not be conservative.
#[test]
fn diff_rejects_a_profile_whose_buckets_miss_the_makespan() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let base = root.join("artifacts/baselines/matmul_cpu_shared_fifo.profile");
    let text = std::fs::read_to_string(&base).expect("read the committed baseline");
    let raised = text.replace("bucket compute 286966971", "bucket compute 286966976");
    assert_ne!(raised, text, "the baseline's compute bucket moved");
    let dir = std::env::temp_dir().join(format!("gpuflow_bucket_sum_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let copy = dir.join("raised.profile");
    std::fs::write(&copy, raised).expect("write the copy");
    let base = base.to_str().unwrap();
    let out = gpuflow_status(&["diff", base, copy.to_str().unwrap(), "--json"]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        !out.status.success(),
        "a non-partition profile must be refused"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("buckets sum to 440342885 ns but makespan_ns is 440342880"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no diff is printed");
}

#[test]
fn diff_json_matches_schema() {
    let dir = std::env::temp_dir().join(format!("gpuflow_json_shapes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let a = dir.join("a.profile");
    let b = dir.join("b.profile");
    for (path, grid) in [(&a, "2"), (&b, "4")] {
        let path = path.to_str().unwrap();
        gpuflow(&[
            "obs",
            "profile",
            "--workload",
            "matmul",
            "--rows",
            "2000",
            "--cols",
            "2000",
            "--grid",
            grid,
            "--out",
            path,
        ]);
    }
    let out = gpuflow(&["diff", a.to_str().unwrap(), b.to_str().unwrap(), "--json"]);
    std::fs::remove_dir_all(&dir).ok();
    let value = json::parse(&out).expect("diff --json output parses");
    json::check_shape(&schema("diff.json"), &value)
        .unwrap_or_else(|e| panic!("diff --json shape drifted: {e}\noutput: {out}"));
    // The grid change must surface in factor_changes, proving the diff
    // actually compared two distinct runs.
    let factors = value
        .get("factor_changes")
        .and_then(|v| v.as_array())
        .expect("factor_changes array");
    assert!(
        factors
            .iter()
            .any(|f| { f.get("factor").and_then(|v| v.as_str()) == Some("grid") }),
        "grid change missing from factor_changes: {out}"
    );
}

#[test]
fn lint_report_json_matches_schema() {
    // The live tree is lint-clean, so its findings array is empty —
    // parse the real CLI output for the envelope, then validate a
    // constructed report carrying a chain-bearing D5 finding so the
    // per-finding shape (including "chain") is actually exercised.
    let out = gpuflow(&["lint", "--json"]);
    let value = json::parse(&out).expect("lint --json output parses");
    json::check_shape(&schema("lint_report.json"), &value)
        .unwrap_or_else(|e| panic!("lint --json shape drifted: {e}\noutput: {out}"));

    use gpuflow_lint::{ChainHop, Finding, Report, RuleCode};
    let report = Report {
        findings: vec![
            Finding::new(
                RuleCode::D2,
                "src/a.rs",
                3,
                7,
                "host clock on a result path",
            ),
            Finding::new(
                RuleCode::D5,
                "src/render.rs",
                10,
                5,
                "wall clock reaches sink",
            )
            .with_chain(vec![
                ChainHop {
                    func: "render_report".into(),
                    file: "src/render.rs".into(),
                    line: 8,
                },
                ChainHop {
                    func: "host_nanos".into(),
                    file: "src/time.rs".into(),
                    line: 3,
                },
            ]),
        ],
        files_scanned: 2,
    };
    let synthetic = report.to_json();
    let value = json::parse(&synthetic).expect("synthetic report parses");
    json::check_shape(&schema("lint_report.json"), &value)
        .unwrap_or_else(|e| panic!("synthetic lint report shape drifted: {e}\n{synthetic}"));
}

#[test]
fn lint_sarif_is_valid_and_carries_the_rule_catalog() {
    let out = gpuflow(&["lint", "--sarif"]);
    let value = json::parse(&out).expect("lint --sarif output parses");
    assert_eq!(
        value.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "SARIF version pinned: {out}"
    );
    let rules = value
        .get("runs")
        .and_then(|r| r.as_array())
        .and_then(|r| r.first())
        .and_then(|run| run.get("tool"))
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(|r| r.as_array())
        .expect("runs[0].tool.driver.rules");
    assert_eq!(
        rules.len(),
        gpuflow_lint::RuleCode::ALL.len(),
        "every rule code is declared in the SARIF catalog"
    );
}

/// The kmeans run the CLI views below share: small, local disk, and a
/// node crash with rejoin plus transient task failures under `--faults`.
const KMEANS: [&str; 10] = [
    "--workload",
    "kmeans",
    "--rows",
    "100000",
    "--cols",
    "32",
    "--grid",
    "16",
    "--storage",
    "local",
];
const FAULTS: [&str; 2] = [
    "--faults",
    "seed:42;crash:node=1,at=0.05,rejoin=0.05;taskfail:p=0.05",
];

#[test]
fn obs_chrome_export_parses_and_marks_faults() {
    for faults in [&[][..], &FAULTS[..]] {
        let mut args = vec!["obs", "export-chrome"];
        args.extend(KMEANS);
        args.extend(faults);
        let out = gpuflow(&args);
        let value = json::parse(&out).expect("obs export-chrome output parses");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let has = |key: &str, pred: &dyn Fn(&str) -> bool| {
            events
                .iter()
                .any(|e| e.get(key).and_then(|v| v.as_str()).is_some_and(pred))
        };
        assert!(has("ph", &|ph| ph == "X"), "no duration spans: {args:?}");
        assert!(has("ph", &|ph| ph == "C"), "no counter tracks: {args:?}");
        if !faults.is_empty() {
            assert!(has("ph", &|ph| ph == "i"), "no instant markers");
            assert!(has("name", &|n| n == "node down"), "no node-down marker");
            assert!(has("name", &|n| n.starts_with("fault:")), "no fault marker");
        }
    }
    // The event log of the faulted run records the recovery timeline.
    let mut args = vec!["obs", "jsonl"];
    args.extend(KMEANS);
    args.extend(FAULTS);
    let out = gpuflow(&args);
    for ev in ["node-down", "retry"] {
        let tag = format!("\"ev\":\"{ev}\"");
        assert!(out.lines().any(|l| l.contains(&tag)), "no {ev} event");
    }
}

#[test]
fn obs_flame_passes_the_collapsed_stack_grammar() {
    let mut args = vec!["obs", "flame"];
    args.extend(KMEANS);
    let out = gpuflow(&args);
    gpuflow_lint::collapsed::check(&out).expect("collapsed-stack grammar");
    assert!(out.starts_with("gpuflow;"), "flame root is gpuflow:\n{out}");
}

#[test]
fn doctor_prints_its_findings() {
    let out = gpuflow(&[
        "doctor",
        "--workload",
        "matmul",
        "--rows",
        "4000",
        "--cols",
        "4000",
        "--grid",
        "4",
        "--processor",
        "gpu",
    ]);
    assert!(out.contains("\nfindings:\n"), "{out}");
    assert!(out.contains("what-if predictions"), "{out}");
}

/// `gpuflow submit` prints a daemon's `err` reply and exits nonzero, so
/// scripts can branch on a typed reject. The daemon is a one-reply stub.
#[test]
fn submit_exits_nonzero_on_a_reject() {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind stub daemon");
    let port = listener.local_addr().expect("stub address").port();
    let stub = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept the submit");
        let mut request = String::new();
        BufReader::new(&stream)
            .read_line(&mut request)
            .expect("read the request line");
        (&stream)
            .write_all(b"err reject reason=unknown-tenant\n")
            .expect("write the reply");
        request
    });
    let out = gpuflow_status(&[
        "submit",
        "--port",
        &port.to_string(),
        "--tenant",
        "nobody",
        "--tasks",
        "4",
    ]);
    // Unblocks the stub's accept in case the CLI never connected.
    let _ = std::net::TcpStream::connect(("127.0.0.1", port));
    let request = stub.join().expect("stub daemon");
    assert!(request.starts_with("submit tenant=nobody"), "{request}");
    assert!(!out.status.success(), "a rejected submit must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reason=unknown-tenant"), "{stdout}");
}
