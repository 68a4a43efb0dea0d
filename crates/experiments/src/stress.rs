//! Million-task master-overhead stress suite (`repro perf`).
//!
//! The paper's experiments top out at a few hundred tasks per workflow;
//! this suite asks the opposite question: how much *host* time does the
//! simulated master spend per task when the DAG has a million nodes?
//! The metric is nanoseconds of wall-clock per simulated task — the
//! task-granularity framing Task Bench calls METG: a workflow system is
//! usable at a given task granularity only when its per-task overhead
//! sits well below it.
//!
//! Three DAG shapes stress different hot paths. They are the job
//! templates of [`gpuflow_runtime::jobs`] ([`Shape::stamp`]), stamped
//! once at full size with 1000-cell stencil rows:
//!
//! * **wide** — `n` independent single-read tasks; the entire DAG is
//!   ready at once, stressing the ready queue and the dispatch path;
//! * **stencil** — rows of 1000 cells, each reading its own and one
//!   neighbouring cell of the previous row; a steady completion→ready
//!   frontier stressing dependency tracking and the per-node caches;
//! * **tree** — a binary reduction over `⌈n/2⌉` leaves; log-depth with a
//!   shrinking frontier, stressing completion fan-in.
//!
//! The numbers this module prints are **host timings** — the one output
//! in the repository that is deliberately not deterministic. They never
//! feed an artifact; `repro perf --check` compares them against generous
//! committed ceilings (`artifacts/baselines/perf_ns_per_task.txt`) so CI
//! catches an order-of-magnitude regression without flaking on machine
//! variance.

use std::fmt::Write as _;
use std::path::Path;

use gpuflow_cluster::{ClusterSpec, ProcessorKind};
use gpuflow_runtime::{run, RunConfig, SchedulingPolicy, Workflow, WorkflowBuilder};

/// DAG shapes of the stress suite: the job templates.
pub use gpuflow_runtime::JobShape as Shape;

/// Row width of the stencil shape.
const STENCIL_WIDTH: usize = 1000;

/// Builds a stress DAG of `shape` with approximately `tasks` tasks
/// (exact for wide; stencil rounds down to whole rows; tree builds
/// `2·⌈tasks/2⌉ − 1` nodes). Block size is 1 MiB throughout, and each
/// task a small data-parallel kernel, so the virtual timeline stays short
/// and host overhead dominates the measurement.
pub fn build(shape: Shape, tasks: usize) -> Workflow {
    let (root, inner) = match shape {
        Shape::Wide => ("map", "map"),
        Shape::Stencil => ("st", "st"),
        Shape::Tree => ("leaf", "merge"),
    };
    let mut b = WorkflowBuilder::new();
    shape.stamp(&mut b, tasks, STENCIL_WIDTH, "", root, inner);
    b.build()
}

/// The canonical stress configuration: a 32-node Minotauro-style
/// cluster, CPU tasks, shared disk, generation-order scheduling, zero
/// jitter (determinism of the *simulated* outcome is still exact; only
/// the host timing varies).
pub fn stress_config() -> RunConfig {
    let mut spec = ClusterSpec::minotauro();
    spec.nodes = 32;
    let mut cfg =
        RunConfig::new(spec, ProcessorKind::Cpu).with_policy(SchedulingPolicy::GenerationOrder);
    cfg.jitter_sigma = 0.0;
    cfg
}

/// One measured stress run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// DAG shape.
    pub shape: Shape,
    /// Exact task count of the built DAG.
    pub tasks: usize,
    /// Host seconds spent building the workflow.
    pub build_secs: f64,
    /// Host seconds spent executing the simulation.
    pub exec_secs: f64,
    /// Host nanoseconds of executor time per simulated task.
    pub ns_per_task: f64,
    /// Virtual makespan of the run (a determinism cross-check).
    pub makespan_secs: f64,
}

/// Builds and runs one stress DAG, timing the build and the execution.
pub fn measure(shape: Shape, tasks: usize) -> Measurement {
    // lint: allow(D2, host-timing harness; ns/task is the measurement itself and never feeds a deterministic artifact)
    let t0 = std::time::Instant::now();
    let wf = build(shape, tasks);
    let build_secs = t0.elapsed().as_secs_f64();
    let cfg = stress_config();
    // lint: allow(D2, host-timing harness; ns/task is the measurement itself and never feeds a deterministic artifact)
    let t1 = std::time::Instant::now();
    let report = run(&wf, &cfg).expect("stress run completes");
    let exec = t1.elapsed();
    let n = wf.tasks().len();
    Measurement {
        shape,
        tasks: n,
        build_secs,
        exec_secs: exec.as_secs_f64(),
        ns_per_task: exec.as_nanos() as f64 / n as f64,
        makespan_secs: report.makespan(),
    }
}

/// Runs the whole suite at `tasks` per shape.
pub fn run_suite(tasks: usize) -> Vec<Measurement> {
    Shape::ALL.into_iter().map(|s| measure(s, tasks)).collect()
}

/// Renders the suite report.
pub fn render(results: &[Measurement]) -> String {
    let mut t = crate::table::TextTable::new(
        "Master overhead: host ns per simulated task",
        [
            "shape",
            "tasks",
            "build (s)",
            "exec (s)",
            "ns/task",
            "makespan (s)",
        ],
    );
    for m in results {
        t.push([
            m.shape.label().to_owned(),
            m.tasks.to_string(),
            format!("{:.3}", m.build_secs),
            format!("{:.3}", m.exec_secs),
            format!("{:.0}", m.ns_per_task),
            format!("{:.3}", m.makespan_secs),
        ]);
    }
    t.render()
}

/// Parses a threshold file: one `shape ceiling_ns_per_task` pair per
/// line, `#` comments and blank lines ignored.
fn parse_thresholds(text: &str) -> Vec<(Shape, f64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let shape = Shape::parse(parts.next()?)?;
            let ceiling: f64 = parts.next()?.parse().ok()?;
            Some((shape, ceiling))
        })
        .collect()
}

/// Checks measurements against the committed ceilings. Returns the
/// per-shape verdict table; `Err` carries the same table when any shape
/// breached its ceiling.
///
/// # Errors
/// Returns `Err` with the rendered verdicts when a ceiling is exceeded
/// or the threshold file is missing/empty.
pub fn check(results: &[Measurement], path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read thresholds at {}: {e}", path.display()))?;
    let thresholds = parse_thresholds(&text);
    if thresholds.is_empty() {
        return Err(format!("no thresholds parsed from {}", path.display()));
    }
    let mut out = String::new();
    let mut failed = false;
    for m in results {
        match thresholds.iter().find(|(s, _)| *s == m.shape) {
            Some(&(_, ceiling)) => {
                let ok = m.ns_per_task <= ceiling;
                failed |= !ok;
                let _ = writeln!(
                    out,
                    "  {:<8} {:>10} tasks  {:>8.0} ns/task  ceiling {:>8.0}  {}",
                    m.shape.label(),
                    m.tasks,
                    m.ns_per_task,
                    ceiling,
                    if ok { "PASS" } else { "FAIL" },
                );
            }
            None => {
                failed = true;
                let _ = writeln!(out, "  {:<8} no committed ceiling", m.shape.label());
            }
        }
    }
    if failed {
        Err(out)
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_build_the_advertised_task_counts() {
        assert_eq!(build(Shape::Wide, 500).tasks().len(), 500);
        assert_eq!(build(Shape::Stencil, 2000).tasks().len(), 2000);
        // 2 * ceil(1001 / 2) - 1
        assert_eq!(build(Shape::Tree, 1001).tasks().len(), 1001);
        assert_eq!(build(Shape::Tree, 1000).tasks().len(), 999);
    }

    #[test]
    fn suite_measures_every_shape_and_stays_deterministic() {
        let a = run_suite(600);
        assert_eq!(a.len(), Shape::ALL.len());
        let b = run_suite(600);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.shape, y.shape);
            assert_eq!(x.tasks, y.tasks);
            // Host timings differ run to run; the simulated outcome must not.
            assert_eq!(x.makespan_secs, y.makespan_secs);
        }
    }

    #[test]
    fn threshold_check_passes_and_fails_correctly() {
        let m = Measurement {
            shape: Shape::Wide,
            tasks: 1000,
            build_secs: 0.0,
            exec_secs: 0.0,
            ns_per_task: 5000.0,
            makespan_secs: 1.0,
        };
        let dir = std::env::temp_dir().join("gpuflow_stress_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("thresholds.txt");
        std::fs::write(&p, "# ceilings\nwide 10000\n").unwrap();
        assert!(check(std::slice::from_ref(&m), &p).is_ok());
        std::fs::write(&p, "wide 1000\n").unwrap();
        let err = check(std::slice::from_ref(&m), &p).unwrap_err();
        assert!(err.contains("FAIL"), "{err}");
        std::fs::write(&p, "# nothing\n").unwrap();
        assert!(check(std::slice::from_ref(&m), &p).is_err());
    }

    #[test]
    fn labels_round_trip() {
        for s in Shape::ALL {
            assert_eq!(Shape::parse(s.label()), Some(s));
        }
        assert_eq!(Shape::parse("nope"), None);
    }
}
