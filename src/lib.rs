//! # gpuflow — distributed GPU-accelerated task-based workflows, simulated
//!
//! A full Rust reproduction of *"Performance Analysis of Distributed
//! GPU-Accelerated Task-Based Workflows"* (EDBT 2024): a COMPSs-like
//! task-based runtime, a dislib-like blocked-array layer, the studied
//! algorithms (Matmul, Matmul-FMA, K-means), a deterministic
//! discrete-event model of the Minotauro CPU-GPU cluster, and the
//! statistical machinery plus experiment harness that regenerate every
//! table and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use gpuflow::algorithms::KmeansConfig;
//! use gpuflow::cluster::{ClusterSpec, ProcessorKind};
//! use gpuflow::data::DatasetSpec;
//! use gpuflow::runtime::{run, RunConfig};
//!
//! // 64 MB synthetic dataset, 8 row-blocks, 10 clusters, 2 iterations.
//! let dataset = DatasetSpec::uniform("demo", 80_000, 100, 42);
//! let workflow = KmeansConfig::new(dataset, 8, 10, 2)
//!     .expect("valid partitioning")
//!     .build_workflow();
//!
//! // Execute on the simulated 8-node Minotauro cluster, once per
//! // processor type.
//! let cluster = ClusterSpec::minotauro();
//! let cpu = run(&workflow, &RunConfig::new(cluster.clone(), ProcessorKind::Cpu)).unwrap();
//! let gpu = run(&workflow, &RunConfig::new(cluster, ProcessorKind::Gpu)).unwrap();
//! assert!(cpu.makespan() > 0.0 && gpu.makespan() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `gpuflow-sim` | discrete-event engine, max-min bandwidth links, jitter |
//! | [`cluster`] | `gpuflow-cluster` | CPU/GPU roofline models, PCIe, disks, topology |
//! | [`data`] | `gpuflow-data` | blocked arrays, partitioning algebra, dataset generators |
//! | [`runtime`] | `gpuflow-runtime` | data-dependency DAGs, schedulers, the executor |
//! | [`algorithms`] | `gpuflow-algorithms` | Matmul, Matmul-FMA, K-means + cost calibration |
//! | [`analysis`] | `gpuflow-analysis` | Spearman correlation, one-hot, summary stats |
//! | [`experiments`] | `gpuflow-experiments` | one module per paper table/figure |
//! | [`advisor`] | `gpuflow-advisor` | automated execution-parameter tuning (§5.4.3) |

#![warn(missing_docs)]

pub mod cli;

pub use gpuflow_advisor as advisor;
pub use gpuflow_algorithms as algorithms;
pub use gpuflow_analysis as analysis;
pub use gpuflow_cluster as cluster;
pub use gpuflow_daemon as daemon;
pub use gpuflow_data as data;
pub use gpuflow_experiments as experiments;
pub use gpuflow_runtime as runtime;
pub use gpuflow_sim as sim;
