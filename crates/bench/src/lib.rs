//! # gpuflow-bench — the Criterion benchmark harness
//!
//! Four bench targets:
//!
//! * `figures` — one group per paper table/figure; each iteration
//!   regenerates the artifact (reduced parameter sweeps keep wall time
//!   tractable; run the `repro` binary for the full-scale tables);
//! * `simcore` — microbenchmarks of the simulation substrate (event
//!   queue, flow churn on one-group links, water-filling on grouped
//!   links);
//! * `runtime` — executor scaling with task count, scheduler policy
//!   ablation, cache on/off ablation;
//! * `analysis` — Spearman correlation and matrix construction costs.

#![warn(missing_docs)]
