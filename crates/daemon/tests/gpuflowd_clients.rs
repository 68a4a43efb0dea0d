//! The live daemon at its boundaries: an idle or trickling client
//! cannot stall the accept loop, a request longer than the 4 KiB cap is
//! refused whole, an integer flag too wide for its field, an unknown
//! flag and a repeated one are usage errors instead of a truncated or
//! ignored value, and a restart resumes its journal, or refuses one
//! written under other flags.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpuflow_daemon::CLIENT_TIMEOUT;

/// How long the test waits for any reply or exit: well past the
/// daemon's client timeout, so a daemon that never answers fails the
/// test instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(15);

struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    fn spawn() -> Daemon {
        Daemon::spawn_with(&[])
    }

    /// Spawns gpuflowd on an ephemeral port with `flags` added.
    fn spawn_with(flags: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gpuflowd"))
            .args(["--port", "0"])
            .args(flags)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn gpuflowd");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read listen announcement");
        let port = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("unexpected announcement {line:?}"));
        Daemon { child, port }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(("127.0.0.1", self.port)).expect("connect");
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        stream
    }

    /// One request with a bounded wait for the reply.
    fn request(&self, line: &str) -> std::io::Result<String> {
        let mut stream = self.connect();
        stream.write_all(format!("{line}\n").as_bytes())?;
        stream.shutdown(Shutdown::Write)?;
        let mut reply = String::new();
        stream.read_to_string(&mut reply)?;
        Ok(reply)
    }

    /// Shuts the daemon down and waits, with the test's patience, for
    /// it to exit.
    fn shut_down(mut self) -> ExitStatus {
        assert_eq!(self.request("shutdown").unwrap(), "ok shutting down\n");
        let start = Instant::now();
        while start.elapsed() < PATIENCE {
            if let Some(status) = self.child.try_wait().expect("poll gpuflowd") {
                return status;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("gpuflowd kept running after shutdown");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn an_idle_client_does_not_stall_the_next_one() {
    let daemon = Daemon::spawn();
    // Connected first and never sends a byte.
    let mut idle = daemon.connect();
    let health = daemon.request("health").expect("health is answered");
    assert!(health.starts_with("ok gpuflowd alive"), "{health:?}");
    let mut reply = String::new();
    idle.read_to_string(&mut reply)
        .expect("idle client gets a reply");
    assert_eq!(reply, "err timeout\n");
    assert_eq!(daemon.request("shutdown").unwrap(), "ok shutting down\n");
}

#[test]
fn a_trickling_client_does_not_stall_the_next_one() {
    let daemon = Daemon::spawn();
    // Connected first; sends one byte every 0.5 s and never a newline,
    // so no single read waits as long as the client timeout.
    let mut trickler = daemon.connect();
    let mut writer = trickler.try_clone().expect("clone the trickling stream");
    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for &byte in b"health".iter().cycle() {
                if stop.load(Ordering::SeqCst) || writer.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        })
    };
    let start = Instant::now();
    let health = daemon.request("health");
    let waited = start.elapsed();
    // The daemon may reset a connection whose last bytes it never read;
    // the reply it wrote before that still arrives.
    let mut reply = Vec::new();
    let _ = trickler.read_to_end(&mut reply);
    stop.store(true, Ordering::SeqCst);
    sender.join().expect("the trickling sender stops");
    let health = health.expect("health is answered");
    assert!(health.starts_with("ok gpuflowd alive"), "{health:?}");
    assert!(
        waited < CLIENT_TIMEOUT + Duration::from_secs(2),
        "health waited {waited:?} behind a trickling client"
    );
    assert_eq!(String::from_utf8_lossy(&reply), "err timeout\n");
    assert_eq!(daemon.request("shutdown").unwrap(), "ok shutting down\n");
}

#[test]
fn an_overlong_request_is_refused_whole() {
    let daemon = Daemon::spawn();
    let queue = daemon.request("queue").expect("queue is answered");
    // 4,097 bytes without a newline; its first 4,096 parse as a valid
    // submit of 1,234 tasks.
    let tail = " tasks=12345";
    let head = "submit tenant=acme shape=wide";
    let line = format!("{head}{}{tail}", " ".repeat(4097 - head.len() - tail.len()));
    assert_eq!(line.len(), 4097);
    let mut stream = daemon.connect();
    stream.write_all(line.as_bytes()).expect("send the request");
    stream
        .shutdown(Shutdown::Write)
        .expect("close the write half");
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("the reply arrives on a clean connection");
    assert_eq!(reply, "err request too long\n");
    assert_eq!(
        daemon.request("queue").unwrap(),
        queue,
        "nothing was queued"
    );
    assert_eq!(daemon.request("shutdown").unwrap(), "ok shutting down\n");
}

/// Runs gpuflowd with `flags` and returns its output once it exits, or
/// `None` if it is still running after the test's patience.
fn run_to_exit(flags: &[&str]) -> Option<Output> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gpuflowd"))
        .args(flags)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gpuflowd");
    let start = Instant::now();
    while start.elapsed() < PATIENCE {
        if child.try_wait().expect("poll gpuflowd").is_some() {
            return Some(child.wait_with_output().expect("collect output"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

#[test]
fn flags_too_wide_for_their_field_are_usage_errors() {
    for (flag, value, message) in [
        (
            "--port",
            "65536",
            "--port wants a u16 integer, got \"65536\"",
        ),
        (
            "--metrics-port",
            "0x10000",
            "wants a u16 integer, got \"0x10000\"",
        ),
        ("--quota", "4294967296", "--quota wants a u32 integer"),
        ("--window", "4294967297", "--window wants a u32 integer"),
        ("--tenants", "acme:4294967297", "weight wants a u32 integer"),
    ] {
        let out = run_to_exit(&[flag, value])
            .unwrap_or_else(|| panic!("gpuflowd {flag} {value} kept running"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(message), "{flag} {value}: {stderr}");
    }
}

#[test]
fn unknown_and_repeated_flags_are_usage_errors() {
    for (flags, message) in [
        (
            &["--quota", "4", "--quota", "5"][..],
            "gpuflowd: --quota given twice\n",
        ),
        (
            &["--qouta", "4"],
            "gpuflowd: unknown flag --qouta (gpuflowd takes: --port, --tenants, --quota, ",
        ),
        (&["--log"], "gpuflowd: --log needs a value\n"),
    ] {
        let out = run_to_exit(flags).unwrap_or_else(|| panic!("gpuflowd {flags:?} kept running"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.starts_with(message), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage: gpuflowd [--port N]"), "{stderr}");
    }
}

/// A journal path of this test process, with no file there yet.
fn fresh_log(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "gpuflowd_clients_{}_{name}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn a_restart_resumes_the_journal_and_appends_to_it() {
    let path = fresh_log("resume");
    let flags = ["--log", path.to_str().unwrap(), "--quota", "4"];
    let first = Daemon::spawn_with(&flags);
    for (line, reply) in [
        ("submit tenant=acme shape=wide tasks=12", "ok job=1 "),
        ("submit tenant=nobody shape=wide tasks=4", "err reject"),
        ("submit tenant=beta shape=tree tasks=9", "ok job=2 "),
    ] {
        let got = first.request(line).unwrap();
        assert!(got.starts_with(reply), "{line}: {got:?}");
    }
    let queue = first.request("queue json").unwrap();
    let log = first.request("log").unwrap();
    assert!(first.shut_down().success());
    assert_eq!(std::fs::read_to_string(&path).unwrap(), log);

    let second = Daemon::spawn_with(&flags);
    assert_eq!(second.request("queue json").unwrap(), queue);
    for job in [
        "{\"id\": 1, \"tenant\": \"acme\"",
        "{\"id\": 2, \"tenant\": \"beta\"",
    ] {
        assert!(queue.contains(job), "{job} missing from {queue}");
    }
    let got = second
        .request("submit tenant=acme shape=stencil tasks=8")
        .unwrap();
    assert!(got.starts_with("ok job=3 "), "{got:?}");
    let log = second.request("log").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), log);
    assert!(second.shut_down().success());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_restart_under_other_flags_leaves_the_journal_alone() {
    let path = fresh_log("refuse");
    let log = path.to_str().unwrap();
    let daemon = Daemon::spawn_with(&["--log", log, "--quota", "4"]);
    let got = daemon
        .request("submit tenant=acme shape=wide tasks=12")
        .unwrap();
    assert!(got.starts_with("ok job=1 "), "{got:?}");
    assert!(daemon.shut_down().success());
    let before = std::fs::read(&path).unwrap();

    let out = run_to_exit(&["--port", "0", "--log", log, "--quota", "5"])
        .expect("gpuflowd refuses to start");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    for shown in [
        "--- journal ---",
        "quota=4",
        "--- configuration ---",
        "quota=5",
    ] {
        assert!(stderr.contains(shown), "{shown} missing from {stderr}");
    }
    assert_eq!(std::fs::read(&path).unwrap(), before);
    let _ = std::fs::remove_file(&path);
}
