//! # gpuflow-daemon — the `gpuflowd` multi-tenant scheduler service
//!
//! PR-scale batch runs execute one workflow and exit; production
//! schedulers are *services*: they absorb a stream of submissions from
//! many tenants, admit or reject each one against quotas and queue
//! bounds, and share one cluster fairly across whoever is active. This
//! crate is that service layer for gpuflow, built as a **thin
//! real-time shell over the virtual-time executor** so the whole run
//! stays bit-reproducible:
//!
//! * [`core::DaemonCore`] — the deterministic state machine: per-tenant
//!   admission control (quota, bounded queue with typed rejects),
//!   the job table, and the drain engine that executes every queued
//!   job as one simulated epoch under stride fair-share + priority
//!   (via [`gpuflow_runtime::JobSchedule`]);
//! * [`log`] — the recorded submission journal. Every state-changing
//!   decision appends one line; `render ∘ parse = id` on the grammar,
//!   and replaying a journal (`repro replay --from-log`) *commits the
//!   recorded decisions* instead of re-deciding them, so a replayed
//!   daemon reproduces the live run bit-identically: equal per-job
//!   output fingerprints and byte-identical Prometheus exposition;
//! * [`protocol`] — the line-oriented client protocol behind
//!   `gpuflow submit` / `queue` / `cancel` / `ctl`;
//! * [`http`] — the zero-dependency scrape endpoint (`/metrics`,
//!   `/healthz`) with a clean-shutdown control, shared with
//!   `gpuflow serve`;
//! * [`client`] — the one-request TCP helper the CLI verbs use.
//!
//! Determinism contract: the daemon never reads a wall clock. Journal
//! timestamps are virtual (`seq × tick`), epochs run entirely inside
//! the discrete-event executor, and the metrics registry concatenates
//! epochs onto one monotonic virtual clock — so `gpuflowd` output is a
//! pure function of its configuration and the order of accepted
//! commands.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod core;
pub mod http;
pub mod log;
pub mod protocol;

/// The read and the write timeout of every accepted connection, on the
/// daemon's request port and on the scrape endpoint: a client that
/// sends nothing, or takes nothing, for this long is dropped, so one
/// idle client cannot stall the accept loop.
pub const CLIENT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

pub use crate::core::{DaemonConfig, DaemonCore, DrainSummary, JobRootSpan, JobState};
pub use crate::http::{handle_request, serve_until, ServeControl};
pub use crate::log::LogLine;
pub use crate::protocol::{Command, RejectReason};
