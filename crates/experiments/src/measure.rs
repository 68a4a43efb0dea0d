//! Shared measurement plumbing for the figure reproductions.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::{RunConfig, RunError, RunReport, SchedulingPolicy, Workflow};

/// The worker-thread count to use when a [`Context`] does not pin one:
/// the `GPUFLOW_THREADS` environment variable if set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn auto_threads() -> usize {
    if let Ok(v) = std::env::var("GPUFLOW_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to `threads` worker threads, returning
/// the results **in item order**.
///
/// Workers pull item indices from a shared counter and stash each result
/// with its index; results are then placed into pre-indexed slots, so the
/// output is byte-identical to the sequential map regardless of thread
/// count or interleaving — each simulated run is a pure function of its
/// inputs, and slot `i` always holds `f(i, &items[i])`.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    // lint: allow(D3, this is the deterministic par_map harness itself; results rejoin in input order below)
    let parts: Vec<Vec<(usize, U)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                // lint: allow(D3, worker threads of the par_map harness; outputs are index-tagged and re-sorted)
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(i, item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for part in parts {
        for (i, u) in part {
            slots[i] = Some(u);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// The outcome of one run: a successful report or the OOM annotations the
/// paper prints directly on its charts.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The run completed.
    Ok(Box<RunReport>),
    /// The GPU ran out of device memory ("GPU OOM").
    GpuOom,
    /// The host ran out of RAM ("CPU OOM").
    CpuOom,
}

impl Outcome {
    /// The report, if the run completed.
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            Outcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Applies `f` to the report, or returns `None` on OOM.
    pub fn map<T>(&self, f: impl FnOnce(&RunReport) -> T) -> Option<T> {
        self.report().map(f)
    }

    /// Chart annotation: a number or an OOM label.
    pub fn label(&self, f: impl FnOnce(&RunReport) -> f64) -> String {
        match self {
            Outcome::Ok(r) => format!("{:.2}", f(r)),
            Outcome::GpuOom => "GPU OOM".into(),
            Outcome::CpuOom => "CPU OOM".into(),
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Ok(r) => write!(f, "{:.3}s", r.makespan()),
            Outcome::GpuOom => write!(f, "GPU OOM"),
            Outcome::CpuOom => write!(f, "CPU OOM"),
        }
    }
}

/// Experiment context: the cluster model plus run-variation settings.
#[derive(Debug, Clone)]
pub struct Context {
    /// The simulated cluster (Minotauro by default).
    pub cluster: ClusterSpec,
    /// Jitter seed of every run.
    pub base_seed: u64,
    /// Worker threads for sweep parallelism: `0` (the default) resolves
    /// via [`auto_threads`]. Results are bit-identical at every setting.
    pub threads: usize,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            cluster: ClusterSpec::minotauro(),
            base_seed: 0x9E37,
            threads: 0,
        }
    }
}

impl Context {
    /// A context running sweeps on `threads` workers (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            auto_threads()
        }
    }

    /// [`par_map`] with this context's thread count.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        par_map(self.effective_threads(), items, f)
    }

    /// Runs `workflow` once under `base_seed`.
    pub fn run(
        &self,
        workflow: &Workflow,
        processor: ProcessorKind,
        storage: StorageArchitecture,
        policy: SchedulingPolicy,
    ) -> Outcome {
        let cfg = RunConfig::new(self.cluster.clone(), processor)
            .with_storage(storage)
            .with_policy(policy)
            .with_seed(self.base_seed);
        match gpuflow_runtime::run(workflow, &cfg) {
            Ok(report) => Outcome::Ok(Box::new(report)),
            Err(RunError::GpuOom { .. }) => Outcome::GpuOom,
            Err(RunError::HostOom { .. }) => Outcome::CpuOom,
            Err(other) => panic!("unexpected run failure: {other}"),
        }
    }

    /// Runs with the paper's defaults: shared disk, generation order.
    pub fn run_default(&self, workflow: &Workflow, processor: ProcessorKind) -> Outcome {
        self.run(
            workflow,
            processor,
            StorageArchitecture::SharedDisk,
            SchedulingPolicy::GenerationOrder,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_algorithms::KmeansConfig;
    use gpuflow_data::DatasetSpec;

    fn tiny_workflow() -> Workflow {
        KmeansConfig::new(DatasetSpec::uniform("t", 1024, 16, 1), 4, 3, 1)
            .unwrap()
            .build_workflow()
    }

    #[test]
    fn outcome_reports_and_labels() {
        let ctx = Context {
            cluster: ClusterSpec::tiny(),
            ..Default::default()
        };
        let out = ctx.run_default(&tiny_workflow(), ProcessorKind::Cpu);
        assert!(out.report().is_some());
        assert!(out.label(|r| r.makespan()).parse::<f64>().is_ok());
        assert_eq!(Outcome::GpuOom.label(|_| 0.0), "GPU OOM");
        assert!(Outcome::CpuOom.report().is_none());
    }
}
