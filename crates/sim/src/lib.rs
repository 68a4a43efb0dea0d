//! # gpuflow-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under every performance number in this repository: a
//! minimal, deterministic discrete-event core with one resource model and
//! a noise source:
//!
//! * [`Engine`] — a timestamped event queue (a calendar queue) with
//!   stable FIFO tie-breaking;
//! * [`GroupedLink`] — max-min fair bandwidth sharing, the one flow
//!   solver: a one-group link for each PCIe bus and local disk, and the
//!   GPFS backend behind one front-end (NIC) per node;
//! * [`Jitter`] — seeded multiplicative noise modelling OS-level run-to-run
//!   variation.
//!
//! The engine is passive: the caller (the workflow executor in
//! `gpuflow-runtime`) drives the loop and owns all model state, which keeps
//! the simulation logic free of callbacks and `RefCell` webs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod grouped_link;
mod jitter;
mod time;

pub use engine::{Engine, Scheduled};
pub use grouped_link::GroupedLink;
pub use jitter::Jitter;
pub use time::{SimDuration, SimTime};
