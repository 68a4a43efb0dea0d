//! End-to-end checks of the metrics pipeline through its two public
//! mouths: the `gpuflow obs metrics` CLI view (post-hoc exposition from
//! a finished run) and the `gpuflow serve` HTTP endpoint (live scrape
//! of an executing run). Both outputs must satisfy the Prometheus text
//! exposition grammar as enforced by the lint crate's zero-dependency
//! checker — the same validator `repro check` runs.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;

use gpuflow::runtime::{MetricsHub, RunConfig};
use gpuflow::serve;

fn gpuflow_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gpuflow"))
        .args(args)
        .output()
        .expect("run gpuflow binary");
    assert!(
        out.status.success(),
        "gpuflow {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
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

/// `gpuflow obs metrics` emits a well-formed exposition with the core
/// family set, and is byte-stable across invocations.
#[test]
fn obs_metrics_exposition_is_valid_and_stable() {
    let mut args = vec!["obs", "metrics"];
    args.extend(RUN);
    let a = gpuflow_cli(&args);
    let stats = gpuflow_lint::promtext::check(&a).expect("valid exposition");
    assert!(stats.families >= 20, "core family set missing");
    for family in [
        "gpuflow_sim_time_seconds",
        "gpuflow_tasks_completed_total",
        "# TYPE gpuflow_task_duration_seconds histogram",
        "gpuflow_task_duration_seconds_bucket",
        "gpuflow_transfer_bytes_total{link=",
    ] {
        assert!(a.contains(family), "missing {family}");
    }
    let b = gpuflow_cli(&args);
    assert_eq!(a, b, "exposition must be deterministic");
}

/// `gpuflow obs metrics --series` renders the sampled time series with
/// a monotone time column ending at the makespan.
#[test]
fn obs_metrics_series_time_column_is_monotone() {
    let mut args = vec!["obs", "metrics", "--series"];
    args.extend(RUN);
    let out = gpuflow_cli(&args);
    let times: Vec<f64> = out
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .map(|t| t.parse().expect("time column parses"))
        .collect();
    assert!(times.len() >= 2, "expected several samples: {out}");
    assert!(times.windows(2).all(|w| w[0] < w[1]), "time must ascend");
}

/// Builds the small workflow the live-scrape test executes.
fn small_run() -> (gpuflow::runtime::Workflow, RunConfig) {
    let wf = gpuflow::algorithms::MatmulConfig::new(
        gpuflow::data::DatasetSpec::uniform("serve_e2e", 2000, 2000, 7),
        2,
    )
    .expect("valid grid")
    .build_workflow();
    let cfg = RunConfig::new(
        gpuflow::cluster::ClusterSpec::minotauro(),
        gpuflow::cluster::ProcessorKind::Gpu,
    );
    (wf, cfg)
}

/// One raw HTTP GET against the in-process endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // One write: `write!` would issue a syscall per format fragment.
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    (head.to_string(), body.to_string())
}

/// Live scrape end to end: a run executes with a shared hub while the
/// serve loop answers real sockets; the scraped body parses as valid
/// exposition, and the final snapshot matches the run's true totals.
#[test]
fn live_scrape_over_real_sockets_is_valid_exposition() {
    let hub = MetricsHub::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address");

    // Serve exactly three requests, then return.
    let server = {
        let hub = hub.clone();
        std::thread::spawn(move || serve::serve_until(&listener, &hub, Some(3)))
    };

    // Scrape once mid-setup (possibly before the run starts — the hub
    // must answer with a coherent snapshot at any instant).
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "got: {head}");
    assert!(head.contains("version=0.0.4"));
    gpuflow_lint::promtext::check(&body).expect("early scrape is valid");

    // Run the workload with the live hub attached.
    let (wf, cfg) = small_run();
    let report =
        gpuflow::runtime::run(&wf, &cfg.with_live_metrics(hub.clone())).expect("run completes");

    // 404s are routed, and the final scrape reflects the finished run.
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.0 404"), "got: {head}");
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.0 200"), "got: {head}");
    gpuflow_lint::promtext::check(&body).expect("final scrape is valid");
    let completed: u64 = body
        .lines()
        .filter(|l| l.starts_with("gpuflow_tasks_completed_total{"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .expect("counter value")
        })
        .sum();
    assert_eq!(completed, wf.tasks().len() as u64);
    assert!(report.makespan() > 0.0);

    server.join().expect("serve loop exits after 3 requests");
}
