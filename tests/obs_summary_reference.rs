//! Byte identity of the `gpuflow obs summary --json` envelope against
//! its `core::fmt` reference.
//!
//! The CLI wraps the workload label, the makespan and three section
//! objects (log, metrics and span summaries, each pinned by its own
//! crate's reference test) into one JSON line. This file keeps the
//! formatter-based envelope as it was before it moved onto the
//! runtime's byte writer, rebuilds the same run in process, and
//! requires the binary's output to equal the reference on a fault-free
//! and a faulted run.

use std::fmt::{self, Write as _};
use std::process::Command;

use gpuflow::cli::{run_config, workload_from, RUN, WORKLOAD};
use gpuflow::daemon::flags::{Args, Spec};
use gpuflow::runtime::{run, MetricsRegistry, SpanForest};
use gpuflow::sim::SimDuration;

/// JSON string content with `"`, `\` and control characters escaped.
struct JsonStr<'a>(&'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// The run flags `gpuflow obs summary` shares with this reference.
const RUN_CMD: Spec = Spec("run", &[WORKLOAD, RUN], "", 0);

/// The reference envelope of the run `flags` describe.
fn reference_summary(flags: &[&str]) -> String {
    let args = Args::parse(&RUN_CMD, flags.iter().map(|s| s.to_string())).expect("flags parse");
    let workload = workload_from(&args).expect("workload");
    let workflow = workload
        .build(args.required_int("--grid").expect("grid"))
        .expect("workflow builds");
    let config = run_config(&args).expect("run config").with_telemetry();
    let report = run(&workflow, &config).expect("run completes");
    let log = &report.telemetry;
    let registry = MetricsRegistry::from_log(log, SimDuration::from_secs_f64(0.01));
    let forest = SpanForest::from_telemetry(&workflow, log);
    format!(
        "{{\"workload\":\"{}\",\"makespan_ns\":{},\"telemetry\":{},\"metrics\":{},\"spans\":{}}}\n",
        JsonStr(&workload.label()),
        SimDuration::from_secs_f64(report.makespan()).as_nanos(),
        log.summary_json(),
        registry.summary_json(),
        forest.summary_json()
    )
}

fn assert_summary_matches(flags: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_gpuflow"))
        .args(["obs", "summary", "--json"])
        .args(flags)
        .output()
        .expect("run gpuflow binary");
    assert!(
        out.status.success(),
        "gpuflow obs summary {flags:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let expected = reference_summary(flags);
    assert!(
        actual == expected,
        "obs summary --json differs from its reference\n--- actual ---\n{actual}\n--- reference ---\n{expected}"
    );
}

#[test]
fn fault_free_summary_matches_the_reference() {
    assert_summary_matches(&[
        "--workload",
        "kmeans",
        "--rows",
        "20000",
        "--cols",
        "16",
        "--grid",
        "4",
        "--iterations",
        "2",
    ]);
}

#[test]
fn faulted_summary_matches_the_reference() {
    assert_summary_matches(&[
        "--workload",
        "matmul",
        "--rows",
        "4096",
        "--cols",
        "4096",
        "--grid",
        "4",
        "--processor",
        "gpu",
        "--faults",
        "seed:42;crash:node=1,at=0.05,rejoin=0.05;taskfail:p=0.05",
    ]);
}
