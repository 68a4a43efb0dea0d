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
//! * [`client`] — the one-request TCP helper the CLI verbs use;
//! * [`flags`] — the command-line grammar `gpuflowd`, `gpuflow` and
//!   `repro` all parse their flags with.
//!
//! Determinism contract: no decision reads a wall clock. Journal
//! timestamps are virtual (`seq × tick`), epochs run entirely inside
//! the discrete-event executor, and the metrics registry concatenates
//! epochs onto one monotonic virtual clock — so `gpuflowd` output is a
//! pure function of its configuration and the order of accepted
//! commands. The one host-clock read, in [`read_request`], bounds how
//! long a client may take to send its request.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod core;
pub mod flags;
pub mod http;
pub mod log;
pub mod protocol;

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long an accepted connection, on the daemon's request port or on
/// the scrape endpoint, may take to deliver its whole request, and the
/// timeout of each write of the reply: a client that trickles its
/// request, sends nothing, or takes nothing is dropped, so one slow
/// client cannot stall the accept loop for longer than this.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Reads one request from a just-accepted connection: bytes up to the
/// first `terminator` or EOF. Returns the request's first line (lossy
/// UTF-8). A request still incomplete [`CLIENT_TIMEOUT`] after the call
/// fails with a `TimedOut` or `WouldBlock` error, however the client
/// spaces its bytes. A request that fills `cap` bytes without its
/// terminator fails with an `InvalidData` error once the rest of it has
/// been read and discarded, up to the terminator, EOF or that same
/// deadline, so the caller can still reply on a clean connection.
pub fn read_request(
    stream: &mut TcpStream,
    terminator: &[u8],
    cap: usize,
) -> std::io::Result<String> {
    // lint: allow(D2, the request deadline only bounds a socket wait and never reaches an artifact)
    let accepted = Instant::now();
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    let ends = |bytes: &[u8]| bytes.windows(terminator.len()).any(|w| w == terminator);
    let mut buf = vec![0u8; cap];
    let mut n = fill(stream, &mut buf, 0, &ends, accepted)?;
    if n == cap && !ends(&buf) {
        // A terminator may straddle two reads: keep its first bytes.
        let keep = terminator.len().saturating_sub(1);
        while n == cap && !ends(&buf) {
            buf.copy_within(cap - keep.., 0);
            n = match fill(stream, &mut buf, keep, &ends, accepted) {
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) => return Err(e),
            };
        }
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("request longer than {cap} bytes"),
        ));
    }
    let text = String::from_utf8_lossy(&buf[..n]);
    Ok(text.lines().next().unwrap_or("").to_string())
}

/// Reads into `buf` from byte `n` on until its bytes hold a terminator
/// (`ends`), the client closes, or `buf` is full, all before
/// [`CLIENT_TIMEOUT`] from `accepted`; returns the bytes held.
fn fill(
    stream: &mut TcpStream,
    buf: &mut [u8],
    mut n: usize,
    ends: &impl Fn(&[u8]) -> bool,
    accepted: Instant,
) -> std::io::Result<usize> {
    while n < buf.len() && !ends(&buf[..n]) {
        let left = CLIENT_TIMEOUT.saturating_sub(accepted.elapsed());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf[n..])? {
            0 => break,
            read => n += read,
        }
    }
    Ok(n)
}

pub use crate::core::{DaemonConfig, DaemonCore, DrainSummary, JobRootSpan, JobState};
pub use crate::http::{handle_request, serve_until, ServeControl};
pub use crate::log::LogLine;
pub use crate::protocol::{Command, RejectReason};
