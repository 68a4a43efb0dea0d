//! Telemetry artifact bundle — the observability companion to the
//! figure reproductions.
//!
//! Runs the canonical Matmul configuration (the paper's 8 GB dataset on
//! an 8×8 grid, GPU + shared disk + generation order — the Fig. 7a
//! anchor point) with full telemetry enabled, then materializes every
//! view of the event stream: the deterministic JSONL log, the
//! Perfetto/Chrome trace, the scheduler decision log, and the makespan
//! overhead decomposition.

use std::io;
use std::path::Path;

use gpuflow_algorithms::MatmulConfig;
use gpuflow_cluster::{ProcessorKind, StorageArchitecture};
use gpuflow_runtime::{to_chrome_trace, OverheadReport, RunConfig, SchedulingPolicy};

use crate::measure::Context;

/// Every telemetry view of one canonical run.
#[derive(Debug, Clone)]
pub struct ObsBundle {
    /// Makespan of the telemetry run, seconds.
    pub makespan: f64,
    /// Telemetry events recorded.
    pub events: usize,
    /// Deterministic JSONL event stream.
    pub jsonl: String,
    /// Chrome `trace_event` JSON (Perfetto / `chrome://tracing`).
    pub chrome: String,
    /// Scheduler decision log (text table).
    pub decisions: String,
    /// Makespan decomposition.
    pub overhead: OverheadReport,
    /// Event counts per kind.
    pub summary: String,
}

/// Runs the canonical Matmul with telemetry and collects every view.
pub fn run(ctx: &Context) -> ObsBundle {
    let workflow = MatmulConfig::new(gpuflow_data::paper::matmul_8gb(), 8)
        .expect("valid grid")
        .build_workflow();
    let cfg = RunConfig::new(ctx.cluster.clone(), ProcessorKind::Gpu)
        .with_storage(StorageArchitecture::SharedDisk)
        .with_policy(SchedulingPolicy::GenerationOrder)
        .with_seed(ctx.base_seed)
        .with_telemetry();
    let report = gpuflow_runtime::run(&workflow, &cfg).expect("canonical Matmul must run");
    let log = &report.telemetry;
    ObsBundle {
        makespan: report.makespan(),
        events: log.len(),
        jsonl: log.to_jsonl(),
        chrome: to_chrome_trace(log),
        decisions: log.render_decisions(),
        overhead: OverheadReport::from_log(log, report.makespan()),
        summary: log.summary(),
    }
}

impl ObsBundle {
    /// Text artifact: the run summary plus the overhead decomposition.
    pub fn render(&self) -> String {
        format!(
            "telemetry run: Matmul 8 GB, grid 8x8, GPU, shared disk, \
             generation order\nmakespan: {:.6} s\n\n{}\n{}",
            self.makespan,
            self.summary,
            self.overhead.render()
        )
    }

    /// Writes the bundle into `dir` as `telemetry.jsonl`,
    /// `trace.chrome.json`, `decisions.log`, and `overhead.txt`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("telemetry.jsonl"), &self.jsonl)?;
        std::fs::write(dir.join("trace.chrome.json"), &self.chrome)?;
        std::fs::write(dir.join("decisions.log"), &self.decisions)?;
        std::fs::write(dir.join("overhead.txt"), self.overhead.render())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle() -> ObsBundle {
        run(&Context::default())
    }

    #[test]
    fn bundle_views_are_consistent() {
        let b = bundle();
        assert!(b.events > 0);
        assert_eq!(b.jsonl.lines().count(), b.events);
        assert!(
            b.jsonl.contains("{\"ev\":\"decision\""),
            "decision events expected"
        );
        assert!(b.decisions.lines().count() > 1, "decision rows expected");
        // Buckets partition the makespan (acceptance: within 1 %).
        let gap = (b.overhead.total() - b.makespan).abs();
        assert!(gap <= 0.01 * b.makespan, "gap {gap} vs {}", b.makespan);

        // The bundle as `repro --telemetry DIR` writes it: every view
        // lands on disk, and the Chrome trace parses with duration spans
        // and counter tracks.
        let dir = std::env::temp_dir().join(format!("gpuflow_obs_bundle_{}", std::process::id()));
        b.write_dir(&dir).expect("write the bundle");
        let read =
            |file: &str| std::fs::read_to_string(dir.join(file)).expect("read a bundle file");
        assert_eq!(read("telemetry.jsonl"), b.jsonl);
        assert_eq!(read("decisions.log"), b.decisions);
        assert_eq!(read("overhead.txt"), b.overhead.render());
        let chrome = gpuflow_lint::json::parse(&read("trace.chrome.json")).expect("trace parses");
        let events = chrome
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        for ph in ["X", "C"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some(ph)),
                "no {ph} events"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_dispatched_task_has_a_decision() {
        let b = bundle();
        let dispatches = b
            .jsonl
            .lines()
            .filter(|l| l.starts_with("{\"ev\":\"dispatch\""))
            .count();
        let decisions = b
            .jsonl
            .lines()
            .filter(|l| l.starts_with("{\"ev\":\"decision\""))
            .count();
        assert_eq!(dispatches, decisions);
        assert_eq!(b.overhead.decisions, decisions);
        // Each decision carries the full scored candidate set.
        assert!(b
            .jsonl
            .lines()
            .filter(|l| l.starts_with("{\"ev\":\"decision\""))
            .all(|l| l.contains("\"candidates\":[{")));
    }
}
