//! End-to-end determinism contract: a live `gpuflowd` process driven
//! over TCP, its recorded submission log, and `DaemonCore::replay` of
//! that log must agree bit-for-bit — same per-job fingerprints, same
//! journal text, same Prometheus exposition — and that exposition is
//! well-formed.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use gpuflow_daemon::client::request;
use gpuflow_daemon::DaemonCore;

struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    /// Spawns the real binary with a journal file, an ephemeral port
    /// and an ephemeral metrics port, and parses the announced address.
    fn spawn(log_path: &str) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gpuflowd"))
            .args(["--port", "0", "--log", log_path, "--seed", "0xBEEF"])
            .args(["--metrics-port", "0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn gpuflowd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("read listen announcement");
        // Read the metrics announcement too: the daemon must not write
        // it into a closed pipe.
        let mut metrics = String::new();
        stdout
            .read_line(&mut metrics)
            .expect("read metrics announcement");
        assert!(
            metrics.starts_with("gpuflowd metrics on http://"),
            "{metrics:?}"
        );
        let port: u16 = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("unexpected announcement {line:?}"));
        Daemon { child, port }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt and braces: the test shuts down over the protocol, but a
        // failed assertion must not leak the process.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn live_daemon_log_and_replay_agree_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("gpuflowd_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let log_path = dir.join("submissions.log");
    let daemon = Daemon::spawn(log_path.to_str().unwrap());
    let p = daemon.port;

    // A session touching the whole decision surface: admits for every
    // tenant, a priority tie-break, a typed reject, a cancel, and two
    // drain epochs.
    assert!(request(p, "submit tenant=acme shape=wide tasks=12 prio=2")
        .unwrap()
        .starts_with("ok job=1"));
    assert!(request(p, "submit tenant=beta shape=tree tasks=9")
        .unwrap()
        .starts_with("ok job=2"));
    assert_eq!(
        request(p, "submit tenant=nobody shape=wide tasks=4").unwrap(),
        "err reject reason=unknown-tenant\n"
    );
    assert!(request(p, "submit tenant=gamma shape=stencil tasks=16")
        .unwrap()
        .starts_with("ok job=3"));
    assert!(request(p, "cancel job=2")
        .unwrap()
        .starts_with("ok cancelled"));
    assert!(request(p, "drain")
        .unwrap()
        .starts_with("ok drained jobs=2 epoch=0"));
    assert!(request(p, "submit tenant=beta shape=wide tasks=6 prio=1")
        .unwrap()
        .starts_with("ok job=4"));
    assert!(request(p, "drain")
        .unwrap()
        .starts_with("ok drained jobs=1 epoch=1"));

    let live_log = request(p, "log").unwrap();
    let live_report = request(p, "report").unwrap();
    let live_queue = request(p, "queue json").unwrap();
    assert!(
        live_queue.contains("gpuflow.daemon.queue.v1"),
        "{live_queue}"
    );
    let alerts = request(p, "alerts").unwrap();
    for section in ["-- alert rules --", "-- job root spans --"] {
        assert!(alerts.contains(section), "{alerts}");
    }
    let health = request(p, "health").unwrap();
    assert!(health.starts_with("ok gpuflowd alive"), "{health}");
    assert_eq!(request(p, "shutdown").unwrap(), "ok shutting down\n");

    // The journal the daemon persisted matches what it served.
    let disk_log = std::fs::read_to_string(&log_path).expect("read persisted journal");
    assert_eq!(disk_log, live_log);

    // Replaying the recorded log reproduces the live run bit-for-bit.
    let replayed = DaemonCore::replay(&disk_log).expect("recorded journal replays");
    assert_eq!(replayed.journal_text(), disk_log);
    assert_eq!(replayed.report(), live_report);
    assert_eq!(replayed.queue_json(), live_queue);

    // The replayed exposition passes the text-format and alert-surface
    // grammars.
    let exposition = replayed.metrics_text();
    gpuflow_lint::promtext::check(&exposition).expect("valid exposition");
    gpuflow_lint::promtext::check_alert_families(&exposition).expect("valid alert surface");

    // And replay is idempotent: a replay of the replay's journal is
    // identical again.
    let twice = DaemonCore::replay(&replayed.journal_text()).expect("replay of replay");
    assert_eq!(twice.report(), live_report);

    std::fs::remove_dir_all(&dir).ok();
}
