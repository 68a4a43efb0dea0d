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
//! Every integer flag is parsed at its field's width (a port is a
//! `u16`, quotas and windows are `u32`): a value out of range is a
//! usage error. A connection whose request line is not complete
//! within [`gpuflow_daemon::CLIENT_TIMEOUT`] of its accept gets `err
//! timeout`, so an idle or trickling client cannot stall the others.
//! `--log FILE` keeps the journal across restarts: a new or empty file
//! gets the fresh core's header, a non-empty one is resumed through
//! [`DaemonCore::resume`] (gpuflowd refuses to start, printing both
//! headers, when the file's header is not the one the flags write),
//! and each decision then appends and syncs only its own lines before
//! its reply is sent.
//! `--metrics-port` additionally serves `GET /metrics` + `/healthz`
//! on a scrape endpoint that shuts down cleanly with the daemon.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::net::TcpListener;

use gpuflow_daemon::core::DrainSummary;
use gpuflow_daemon::protocol::parse_command;
use gpuflow_daemon::{read_request, Command, DaemonConfig, DaemonCore, ServeControl};

fn usage() -> ! {
    eprintln!(
        "usage: gpuflowd [--port N] [--tenants name:weight,...] [--quota N] [--queue-cap N]\n\
         \x20               [--window N] [--tenant-window N] [--tick-us N] [--interval-us N]\n\
         \x20               [--seed 0xHEX] [--max-tasks N] [--log FILE] [--metrics-port N]"
    );
    std::process::exit(2);
}

/// Parses a flag's integer (decimal, or hex after `0x`) at its field's
/// width `T`: an unparsable or out-of-range value is a usage error.
fn parse_num<T: TryFrom<u64>>(s: &str, flag: &str) -> T {
    let v = if let Some(h) = s.strip_prefix("0x") {
        u64::from_str_radix(h, 16).ok()
    } else {
        s.parse().ok()
    };
    v.and_then(|v| T::try_from(v).ok()).unwrap_or_else(|| {
        let width = std::any::type_name::<T>();
        eprintln!("gpuflowd: {flag} wants a {width} integer, got {s:?}");
        std::process::exit(2);
    })
}

fn parse_tenants(s: &str) -> Vec<(String, u32)> {
    s.split(',')
        .map(|pair| {
            let Some((name, weight)) = pair.split_once(':') else {
                eprintln!("gpuflowd: --tenants wants name:weight pairs, got {pair:?}");
                std::process::exit(2);
            };
            (name.to_string(), parse_num(weight, "--tenants weight"))
        })
        .collect()
}

struct Options {
    port: u16,
    cfg: DaemonConfig,
    log: Option<String>,
    metrics_port: Option<u16>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        port: 0,
        cfg: DaemonConfig::default(),
        log: None,
        metrics_port: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| {
                eprintln!("gpuflowd: {flag} wants a value");
                std::process::exit(2);
            })
        };
        match flag {
            "--port" => opts.port = parse_num(&value(), flag),
            "--tenants" => opts.cfg.tenants = parse_tenants(&value()),
            "--quota" => opts.cfg.quota = parse_num(&value(), flag),
            "--queue-cap" => opts.cfg.queue_cap = parse_num(&value(), flag),
            "--window" => opts.cfg.window = parse_num(&value(), flag),
            "--tenant-window" => opts.cfg.tenant_window = parse_num(&value(), flag),
            "--tick-us" => opts.cfg.tick_us = parse_num(&value(), flag),
            "--interval-us" => opts.cfg.interval_us = parse_num(&value(), flag),
            "--seed" => opts.cfg.seed = parse_num(&value(), flag),
            "--max-tasks" => opts.cfg.max_tasks = parse_num(&value(), flag),
            "--log" => opts.log = Some(value()),
            "--metrics-port" => opts.metrics_port = Some(parse_num(&value(), flag)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gpuflowd: unknown flag {other:?}");
                usage();
            }
        }
        i += 1;
    }
    opts
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
    let opts = parse_args();
    let (mut core, mut journal) = match &opts.log {
        Some(path) => {
            let (core, file) = open_journal(path, opts.cfg);
            (core, Some((path.as_str(), file)))
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
        if let Some((path, file)) = &mut journal {
            if core.journal_len() != journaled {
                if let Err(e) = append(file, core.journal_tail(journaled).as_bytes()) {
                    eprintln!("gpuflowd: cannot append to {path}: {e}");
                }
            }
        }
        if let Err(e) = stream.write_all(reply.as_bytes()) {
            eprintln!("gpuflowd: reply not delivered: {e}");
        }
        drop(stream);
        if shutdown {
            break;
        }
    }

    if let Some((ctl, handle)) = metrics_ctl {
        ctl.shutdown();
        let _ = handle.join();
    }
}
