//! The `gpuflow` binary refuses a command line that its command does not
//! read before anything runs: a misspelled factor flag, a flag given
//! twice, a flag without its value, a word the command does not take,
//! an integer too wide for its field, a misspelled `obs` view and a flag
//! of another mode of the command each exit 1 with nothing on stdout
//! and an error naming the fault, where each used to run at a default,
//! run without the flag, or fail only after the run.

use std::process::{Command, Output};

fn gpuflow(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpuflow"))
        .args(args.split_whitespace())
        .output()
        .expect("run gpuflow binary")
}

#[test]
fn usage_errors_exit_1_before_running() {
    for (args, error) in [
        (
            "run --workload matmul --rows 64 --cols 64 --grid 2 --procesor gpu",
            "unknown flag --procesor (run takes: --workload, --rows, --cols, --seed, \
             --clusters, --iterations, --queries, --k, --grid, --processor, --storage, \
             --policy, --threads, --faults, --max-retries, --backoff, --resubmit, \
             --fallback, --prv, --csv)",
        ),
        (
            "run --workload matmul --rows 64 --cols 64 --grid 2 --processor gpu --processor cpu",
            "--processor given twice",
        ),
        (
            "dag --workload kmeans --rows 64 --cols 8 --grid many --grid 2",
            "--grid given twice",
        ),
        (
            // The advisor searches the grid itself, so `--grid` is
            // refused before `--bogus` is reached.
            "advise --workload matmul --rows 64 --cols 64 --grid 4 --bogus x",
            "unknown flag --grid (advise takes: --workload, --rows, --cols, --seed, \
             --clusters, --iterations, --queries, --k)",
        ),
        (
            "advise --workload matmul --rows 64 --cols 64 --bogus x",
            "unknown flag --bogus (advise takes: --workload, --rows, --cols, --seed, \
             --clusters, --iterations, --queries, --k)",
        ),
        (
            // A 8x16 matmul cannot be partitioned: the view is checked
            // before the workflow is built.
            "obs sumary --workload matmul --rows 8 --cols 16 --grid 2",
            "unknown obs view 'sumary' (export-chrome, decisions, overhead, profile, \
             summary, metrics, jsonl, spans, flame)",
        ),
        (
            "obs summary summary --workload matmul --rows 64 --cols 64 --grid 2",
            "unexpected argument 'summary' (obs takes 1 word(s))",
        ),
        (
            "dag --workload kmeans --rows 64 --cols 8 --grid",
            "--grid needs a value",
        ),
        (
            "queue --port 65536",
            "--port wants a u16 integer, got \"65536\"",
        ),
        (
            "obs spans --workload matmul --rows 64 --cols 64 --grid 2 --sample-rate -1",
            "--sample-rate wants a u64 integer, got \"-1\"",
        ),
        (
            "lint extra",
            "unexpected argument 'extra' (lint takes 0 word(s))",
        ),
        // A flag of one mode is refused by the others: a profile is
        // diagnosed as recorded, decisions are neither sampled nor a
        // series, the rule catalog is not a scan, and a scan has one
        // output format.
        (
            "doctor --profile a.profile --processor gpu",
            "--processor does not go with doctor --profile \
             (doctor --profile takes: --profile, --out, --json)",
        ),
        (
            "obs decisions --workload matmul --rows 64 --cols 64 --grid 2 --series --sample-rate 5",
            "--series does not go with obs decisions (obs decisions takes: --workload, --rows, \
             --cols, --seed, --clusters, --iterations, --queries, --k, --grid, --processor, \
             --storage, --policy, --threads, --faults, --max-retries, --backoff, --resubmit, \
             --fallback, --out)",
        ),
        (
            "obs spans --workload matmul --rows 64 --cols 64 --grid 2 --json",
            "--json does not go with obs spans (obs spans takes: --workload, --rows, --cols, \
             --seed, --clusters, --iterations, --queries, --k, --grid, --processor, --storage, \
             --policy, --threads, --faults, --max-retries, --backoff, --resubmit, --fallback, \
             --out, --sample-rate, --span-seed)",
        ),
        (
            "lint --explain --sarif",
            "--sarif does not go with lint --explain (lint --explain takes: --out, --explain)",
        ),
        (
            "lint --json --sarif",
            "--json does not go with lint --sarif (lint --sarif takes: --root, --out, --sarif)",
        ),
        // A flag that sets up another flag's work does nothing alone: a
        // sampler seed without a sampler, a sampling interval for the
        // text summary, which samples nothing.
        (
            "obs flame --workload matmul --rows 64 --cols 64 --grid 2 --span-seed 7",
            "--span-seed goes only with --sample-rate",
        ),
        (
            "obs summary --workload matmul --rows 64 --cols 64 --grid 2 --metrics-interval 0.5",
            "--metrics-interval goes only with summary --json",
        ),
    ] {
        let out = gpuflow(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "gpuflow {args}: {stderr}");
        assert!(out.stdout.is_empty(), "gpuflow {args} printed to stdout");
        assert_eq!(stderr, format!("error: {error}\n"), "gpuflow {args}");
    }
}

/// The spelled flag reaches the run the misspelled one never did.
#[test]
fn the_processor_flag_reaches_the_run() {
    let out = gpuflow("run --workload matmul --rows 64 --cols 64 --grid 2 --processor gpu");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("gpu kernel util: 0.0 %"), "{stdout}");
    assert!(stdout.contains("gpu kernel util: "), "{stdout}");
}
