//! Golden pins of a short seeded daemon session.
//!
//! Each drain folds the epoch's telemetry into one root span per job
//! (start, end, critical-path task count). The `-- job root spans --`
//! section of `alerts_text()` is pinned byte for byte next to the
//! runtime's fold pins. The full `report()` (job fingerprints plus the
//! Prometheus exposition with its tenant, queue-wait and alert-state
//! families) and the whole `alerts_text()` are pinned as well. A
//! journal replay must reproduce every pinned byte.
//!
//! Regenerate after a deliberate change with:
//! `GOLDEN_REGEN=1 cargo test -p gpuflow-daemon --test job_span_pins`

use gpuflow_chaos::mix64;
use gpuflow_daemon::{DaemonConfig, DaemonCore};
use gpuflow_runtime::JobShape;

fn golden_compare(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../runtime/tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if the change is deliberate, \
         regenerate with GOLDEN_REGEN=1"
    );
}

/// The job-root-span section of the alerts body.
fn job_span_lines(core: &DaemonCore) -> String {
    let text = core.alerts_text();
    let at = text
        .find("-- job root spans --\n")
        .expect("alerts body lists job root spans");
    text[at..].to_string()
}

/// The seeded 30-submit session: three tenants, random shapes, sizes
/// and priorities, every seventh admitted job cancelled, a drain after
/// every tenth submit.
fn seeded_session() -> DaemonCore {
    let mut core = DaemonCore::new(DaemonConfig::default()).expect("default config");
    let tenants = ["acme", "beta", "gamma"];
    let mut admitted = 0;
    for i in 0..30u64 {
        let h = mix64(0x5E55 ^ i);
        let tenant = tenants[(h % 3) as usize];
        let shape = JobShape::ALL[((h >> 8) % 3) as usize];
        let tasks = 4 + (h >> 16) % 36;
        let prio = ((h >> 32) % 3) as u32;
        if let Ok(job) = core.submit(tenant, shape, tasks, prio) {
            admitted += 1;
            if admitted % 7 == 0 {
                core.cancel(job).expect("cancel a queued job");
            }
        }
        if i % 10 == 9 {
            core.drain().expect("drain");
        }
    }
    assert!(core.epochs() >= 3, "every drain ran an epoch");
    core
}

#[test]
fn job_root_spans_match_golden_and_survive_replay() {
    let core = seeded_session();
    let lines = job_span_lines(&core);
    golden_compare("daemon_job_spans.txt", &lines);
    let replayed = DaemonCore::replay(&core.journal_text()).expect("journal replays");
    assert_eq!(job_span_lines(&replayed), lines);
}

/// The full report (fingerprints and exposition), then the alerts body.
fn report_and_alerts(core: &DaemonCore) -> String {
    format!("{}-- alerts --\n{}", core.report(), core.alerts_text())
}

#[test]
fn report_and_alerts_match_golden_and_survive_replay() {
    let core = seeded_session();
    let text = report_and_alerts(&core);
    golden_compare("daemon_report.txt", &text);
    let replayed = DaemonCore::replay(&core.journal_text()).expect("journal replays");
    assert_eq!(report_and_alerts(&replayed), text);
}
