//! `gpuflowd` — the long-lived multi-tenant scheduler daemon.
//!
//! A thin real-time shell over [`gpuflow_daemon::DaemonCore`]: one
//! accept loop, one request line per connection, every decision
//! recorded in the submission journal. Run it, talk to it with the
//! `gpuflow submit` / `queue` / `cancel` / `ctl` verbs (or netcat),
//! and replay the recorded journal bit-identically with the `repro`
//! binary's `repro replay --from-log FILE`.
//!
//! ```text
//! gpuflowd [--port N] [--tenants acme:3,beta:2,gamma:1] [--quota N]
//!          [--queue-cap N] [--window N] [--tenant-window N]
//!          [--tick-us N] [--interval-us N] [--seed 0xHEX]
//!          [--max-tasks N] [--log FILE] [--metrics-port N]
//! ```
//!
//! `--port 0` (the default) binds an ephemeral port; the daemon prints
//! `gpuflowd listening on 127.0.0.1:PORT` so scripts can capture it.
//! The flags go through [`gpuflow_daemon::flags`], the grammar `gpuflow`
//! and `repro` share: an unknown or repeated flag is a usage error (exit
//! 2), and every integer flag is parsed at its field's width (a port is
//! a `u16`, quotas and windows are `u32`), so a value out of range is
//! one too. A connection whose request line is not complete
//! within [`gpuflow_daemon::CLIENT_TIMEOUT`] of its accept gets `err
//! timeout`, so an idle or trickling client cannot stall the others.
//! `--log FILE` keeps the journal across restarts: a new or empty file
//! gets the fresh core's header, a non-empty one is resumed through
//! [`DaemonCore::resume`] (gpuflowd refuses to start, printing both
//! headers, when the file's header is not the one the flags write),
//! and each decision then appends and syncs only its own lines before
//! its reply is sent. A decision the file does not take is answered
//! `err journal: ...`, and gpuflowd exits 1 without serving another
//! request.
//! `--metrics-port` additionally serves `GET /metrics` + `/healthz`
//! on a scrape endpoint that shuts down cleanly with the daemon.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::net::TcpListener;

use gpuflow_daemon::core::DrainSummary;
use gpuflow_daemon::flags::{parse_int, Args, Spec};
use gpuflow_daemon::protocol::parse_command;
use gpuflow_daemon::{read_request, Command, DaemonConfig, DaemonCore, ServeControl};

/// The flags gpuflowd reads.
const FLAGS: Spec = Spec(
    "gpuflowd",
    &[
        "--port --tenants --quota --queue-cap --window --tenant-window",
        "--tick-us --interval-us --seed --max-tasks --log --metrics-port",
    ],
    "",
    0,
);

const USAGE: &str =
    "usage: gpuflowd [--port N] [--tenants name:weight,...] [--quota N] [--queue-cap N]\n\
    \x20               [--window N] [--tenant-window N] [--tick-us N] [--interval-us N]\n\
    \x20               [--seed 0xHEX] [--max-tasks N] [--log FILE] [--metrics-port N]";

fn parse_tenants(s: &str) -> Result<Vec<(String, u32)>, String> {
    s.split(',')
        .map(|pair| {
            let (name, weight) = pair
                .split_once(':')
                .ok_or_else(|| format!("--tenants wants name:weight pairs, got {pair:?}"))?;
            Ok((name.to_string(), parse_int(weight, "--tenants weight")?))
        })
        .collect()
}

struct Options {
    port: u16,
    cfg: DaemonConfig,
    log: Option<String>,
    metrics_port: Option<u16>,
}

/// The options the command line sets; every integer at its field's width.
fn options(a: &Args) -> Result<Options, String> {
    let d = DaemonConfig::default();
    Ok(Options {
        port: a.int("--port")?.unwrap_or(0),
        cfg: DaemonConfig {
            tenants: match a.get("--tenants") {
                Some(s) => parse_tenants(s)?,
                None => d.tenants,
            },
            quota: a.int("--quota")?.unwrap_or(d.quota),
            queue_cap: a.int("--queue-cap")?.unwrap_or(d.queue_cap),
            window: a.int("--window")?.unwrap_or(d.window),
            tenant_window: a.int("--tenant-window")?.unwrap_or(d.tenant_window),
            tick_us: a.int("--tick-us")?.unwrap_or(d.tick_us),
            interval_us: a.int("--interval-us")?.unwrap_or(d.interval_us),
            seed: a.int("--seed")?.unwrap_or(d.seed),
            max_tasks: a.int("--max-tasks")?.unwrap_or(d.max_tasks),
        },
        log: a.get("--log").map(String::from),
        metrics_port: a.int("--metrics-port")?,
    })
}

/// Executes one parsed command. Returns `(reply text, shutdown?)`.
fn execute(core: &mut DaemonCore, cmd: Command) -> (String, bool) {
    match cmd {
        Command::Submit {
            tenant,
            shape,
            tasks,
            prio,
        } => match core.submit(&tenant, shape, tasks, prio) {
            Ok(job) => {
                let t_us = core.jobs().last().map(|j| j.t_us).unwrap_or(0);
                (
                    format!(
                        "ok job={job} t={}.{:06}\n",
                        t_us / 1_000_000,
                        t_us % 1_000_000
                    ),
                    false,
                )
            }
            Err(reason) => (format!("err reject reason={}\n", reason.label()), false),
        },
        Command::Cancel { job } => match core.cancel(job) {
            Ok(()) => (format!("ok cancelled job={job}\n"), false),
            Err(e) => (format!("err {e}\n"), false),
        },
        Command::Drain => match core.drain() {
            Ok(DrainSummary {
                jobs,
                epoch,
                makespan_secs,
            }) => (
                format!("ok drained jobs={jobs} epoch={epoch} makespan={makespan_secs:.6}\n"),
                false,
            ),
            Err(e) => (format!("err {e}\n"), false),
        },
        Command::Queue { json } => {
            if json {
                (core.queue_json(), false)
            } else {
                (core.queue_table(), false)
            }
        }
        Command::Report => (core.report(), false),
        Command::Metrics => (core.metrics_text(), false),
        Command::Alerts => (core.alerts_text(), false),
        Command::Health => (
            format!(
                "ok gpuflowd alive seq={} epochs={} queued={}\n",
                core.seq(),
                core.epochs(),
                core.queued()
            ),
            false,
        ),
        Command::Log => (core.journal_text(), false),
        Command::Shutdown => ("ok shutting down\n".to_string(), true),
    }
}

/// Prints `message` and exits with `code`.
fn fail(code: i32, message: &str) -> ! {
    eprintln!("gpuflowd: {message}");
    std::process::exit(code);
}

/// Appends `bytes` to the journal and flushes them to the disk.
fn append(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    file.write_all(bytes)?;
    file.sync_data()
}

/// Appends the lines `core` journaled since line `from` through
/// `append` before `reply` is sent, and returns the reply with whether
/// the daemon may serve another request. A decision the journal did
/// not take is answered `err journal: ...` and stops the daemon: a
/// restart would not replay it, and a later line after the gap would
/// make the journal unreplayable (job ids must be dense).
fn commit(
    core: &DaemonCore,
    from: usize,
    append: impl FnOnce(&[u8]) -> std::io::Result<()>,
    reply: String,
) -> (String, bool) {
    if core.journal_len() == from {
        return (reply, true);
    }
    match append(core.journal_tail(from).as_bytes()) {
        Ok(()) => (reply, true),
        Err(e) => (format!("err journal: {e}\n"), false),
    }
}

/// Opens the journal at `path` for appending, with the core it holds:
/// a new or empty file gets the header of a fresh core under `cfg`,
/// and a non-empty one is resumed under `cfg` (and given a final
/// newline if it lacks one, so that appended records start a line).
fn open_journal(path: &str, cfg: DaemonConfig) -> (DaemonCore, File) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => String::new(),
        Err(e) => fail(1, &format!("cannot read {path}: {e}")),
    };
    let (core, start) = if text.is_empty() {
        let core = DaemonCore::new(cfg).unwrap_or_else(|e| fail(2, &e));
        let header = core.journal_text();
        (core, header)
    } else {
        let core = DaemonCore::resume(cfg, &text)
            .unwrap_or_else(|e| fail(1, &format!("cannot resume {path}: {e}")));
        let newline = if text.ends_with('\n') { "" } else { "\n" };
        (core, newline.to_string())
    };
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| fail(1, &format!("cannot open {path}: {e}")));
    if let Err(e) = append(&mut file, start.as_bytes()) {
        fail(1, &format!("cannot write {path}: {e}"));
    }
    (core, file)
}

fn main() {
    let opts = Args::parse(&FLAGS, std::env::args().skip(1))
        .and_then(|a| options(&a))
        .unwrap_or_else(|e| fail(2, &format!("{e}\n{USAGE}")));
    let (mut core, mut journal) = match &opts.log {
        Some(path) => {
            let (core, file) = open_journal(path, opts.cfg);
            (core, Some(file))
        }
        None => (
            DaemonCore::new(opts.cfg).unwrap_or_else(|e| fail(2, &e)),
            None,
        ),
    };
    let listener = match TcpListener::bind(("127.0.0.1", opts.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("gpuflowd: cannot bind 127.0.0.1:{}: {e}", opts.port);
            std::process::exit(1);
        }
    };
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(opts.port);
    println!("gpuflowd listening on 127.0.0.1:{port}");

    // Optional scrape endpoint on its own thread, cleanly stopped at
    // shutdown via the control's self-connect wake.
    let metrics_ctl = opts.metrics_port.map(|mport| {
        let mlistener = match TcpListener::bind(("127.0.0.1", mport)) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("gpuflowd: cannot bind metrics port {mport}: {e}");
                std::process::exit(1);
            }
        };
        let maddr = mlistener
            .local_addr()
            .expect("bound listener has an address");
        println!("gpuflowd metrics on http://{maddr}/metrics");
        let ctl = ServeControl::new(&mlistener).expect("bound listener has an address");
        let hub = core.hub().clone();
        let ctl2 = ctl.clone();
        // lint: allow(D3, real-time scrape shell; the hub is the only shared state and it is lock-protected)
        let handle = std::thread::spawn(move || {
            gpuflow_daemon::serve_until(&mlistener, &hub, None, Some(&ctl2));
        });
        (ctl, handle)
    });

    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let journaled = core.journal_len();
        // One request line, capped at 4 KiB.
        let (reply, shutdown) = match read_request(&mut stream, b"\n", 4096) {
            Ok(line) => match parse_command(&line) {
                Ok(cmd) => execute(&mut core, cmd),
                Err(e) => (format!("err {e}\n"), false),
            },
            // A read timeout is `WouldBlock` on Unix, `TimedOut` elsewhere.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                ("err timeout\n".to_string(), false)
            }
            // Past the cap: refused whole, never cut to its first 4 KiB.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                ("err request too long\n".to_string(), false)
            }
            Err(_) => continue,
        };
        // The decision is on disk before its reply is sent.
        let (reply, serving) = match &mut journal {
            Some(file) => commit(&core, journaled, |b| append(file, b), reply),
            None => (reply, true),
        };
        if let Err(e) = stream.write_all(reply.as_bytes()) {
            eprintln!("gpuflowd: reply not delivered: {e}");
        }
        drop(stream);
        if !serving {
            fail(1, reply.trim_end());
        }
        if shutdown {
            break;
        }
    }

    if let Some((ctl, handle)) = metrics_ctl {
        ctl.shutdown();
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Executes `line` on `core` and commits it to `journal`, or with
    /// `None` to a journal on a full disk.
    fn serve(core: &mut DaemonCore, journal: Option<&mut String>, line: &str) -> (String, bool) {
        let from = core.journal_len();
        let (reply, _) = execute(core, parse_command(line).expect("a valid request"));
        let append = |bytes: &[u8]| {
            let kept = journal.ok_or(std::io::Error::other("disk full"))?;
            kept.push_str(std::str::from_utf8(bytes).expect("journal lines are UTF-8"));
            Ok(())
        };
        commit(core, from, append, reply)
    }

    #[test]
    fn a_decision_the_journal_does_not_take_is_refused() {
        let mut core = DaemonCore::new(DaemonConfig::default()).expect("default config");
        let mut kept = core.journal_text();
        let submit = "submit tenant=acme shape=wide tasks=4";
        let (reply, serving) = serve(&mut core, Some(&mut kept), submit);
        assert!(reply.starts_with("ok job=1 "), "{reply:?}");
        assert!(serving);
        assert_eq!(kept, core.journal_text());

        let (reply, serving) = serve(&mut core, None, "submit tenant=beta shape=tree tasks=9");
        assert_eq!(reply, "err journal: disk full\n");
        assert!(!serving, "the daemon must stop after a lost decision");

        // A request that journals nothing never writes, so it is answered.
        let (reply, serving) = serve(&mut core, None, "health");
        assert!(reply.starts_with("ok gpuflowd alive"), "{reply:?}");
        assert!(serving);
    }

    #[test]
    fn options_read_hex_tenants_and_defaults() {
        let parse = |argv: &[&str]| {
            Args::parse(&FLAGS, argv.iter().map(|s| s.to_string())).and_then(|a| options(&a))
        };
        let o = parse(&[
            "--seed",
            "0xBEEF",
            "--tenants",
            "a:1,b:2",
            "--metrics-port",
            "0",
        ]);
        let o = o.unwrap();
        assert_eq!(o.cfg.seed, 0xBEEF);
        assert_eq!(o.cfg.tenants, [("a".to_string(), 1), ("b".to_string(), 2)]);
        assert_eq!(o.metrics_port, Some(0));
        assert_eq!(o.cfg.quota, DaemonConfig::default().quota);
        assert_eq!(
            parse(&["--tenants", "a"]).err().unwrap(),
            "--tenants wants name:weight pairs, got \"a\""
        );
    }
}
