//! Golden pin for the production-trace replay artifact.
//!
//! `repro replay` (default spec) must regenerate `artifacts/replay.txt`
//! byte for byte: the submission log, the metrics-over-time series, and
//! the final Prometheus exposition are all deterministic functions of
//! the spec seed. Any executor, scheduler, or metrics change that moves
//! a single sample shows up here as a byte diff.
//!
//! Regenerate after a deliberate change with
//! `GOLDEN_REGEN=1 cargo test -p gpuflow-experiments --test replay_golden`.

use gpuflow_experiments::replay;

fn golden_compare(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{rel} drifted from its golden file; if the change is deliberate, \
         regenerate with GOLDEN_REGEN=1"
    );
}

/// The default scenario regenerates the committed artifact exactly.
#[test]
fn default_replay_artifact_matches_golden() {
    let report = replay::run(&replay::ReplaySpec::default()).expect("replay runs");
    golden_compare("artifacts/replay.txt", &report.render());
}

/// The artifact's exposition section is valid Prometheus text format —
/// the same check `repro replay --check` and the CI metrics-smoke job
/// apply to freshly generated output.
#[test]
fn replay_exposition_passes_the_format_checker() {
    let report = replay::run(&replay::ReplaySpec::default()).expect("replay runs");
    let stats = gpuflow_lint::promtext::check(&report.metrics.expose())
        .expect("exposition must be well-formed");
    assert!(stats.families >= 20, "expected the full family set");
    assert!(stats.samples > 50);
}

/// Chaos replays are themselves deterministic: same seed, same plan,
/// same artifact.
#[test]
fn chaos_replay_is_deterministic() {
    let spec = replay::ReplaySpec {
        jobs: 8,
        chaos: true,
        ..replay::ReplaySpec::default()
    };
    let a = replay::run(&spec).expect("replay runs").render();
    let b = replay::run(&spec).expect("replay runs").render();
    assert_eq!(a, b);
    assert!(a.contains("-- fault plan --"));
    assert!(a.contains("crash:node="), "plan must render its faults");
}
