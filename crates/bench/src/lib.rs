//! # gpuflow-bench — the Criterion microbenchmarks
//!
//! Three bench targets:
//!
//! * `simcore` — microbenchmarks of the simulation substrate (event
//!   queue, flow churn on one-group links, water-filling on grouped
//!   links);
//! * `scheduler_stress` — master decisions with thousands of tasks
//!   ready at once, per scheduling policy and processor type;
//! * `analysis` — Spearman correlation and matrix construction costs.
//!
//! Whole runs (the paper's artifacts, a 10^5-task stencil DAG, the
//! telemetry folds, a daemon session) are timed by the repository's one
//! macro harness, `perfbench/` (see `perfbench/README.md`).

#![warn(missing_docs)]
