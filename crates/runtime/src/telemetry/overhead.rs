//! Makespan decomposition — the Dask-overheads view of a run.
//!
//! "Runtime vs Scheduler" style accounting: every instant of the
//! makespan is attributed to exactly one bucket, by priority:
//!
//! 1. **compute** — at least one task is in its serial or parallel
//!    fraction (CPU compute or GPU kernel);
//! 2. **data movement** — no compute, but at least one task is
//!    (de)serializing or moving data over the PCIe bus;
//! 3. **recovery** — no productive work, but fault handling is under
//!    way: stage/transfer intervals that belong to a task attempt which
//!    later failed (wasted work), and retry backoff windows;
//! 4. **master** — nothing executes and the master is making a
//!    scheduling decision (pure scheduler overhead on the critical
//!    path);
//! 5. **idle** — nothing at all is happening (dependency stalls).
//!
//! Because the classification is exhaustive and exclusive, the five
//! buckets sum to the makespan exactly. Runs without a fault plan emit
//! no failure events, so `recovery` is identically zero and the report
//! reduces to the original four-bucket decomposition.

use std::fmt::Write as _;

use gpuflow_sim::SimDuration;

use crate::trace::TraceState;

use super::timeline::{IntervalKind, TaskTimeline};
use super::TelemetryLog;

/// Wall-clock attribution of one run (seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadReport {
    /// The makespan being decomposed.
    pub makespan: f64,
    /// Seconds with at least one compute stage active.
    pub compute: f64,
    /// Seconds with data movement but no compute.
    pub data_movement: f64,
    /// Seconds spent on fault recovery with no productive work
    /// overlapping: wasted stages of attempts that later failed, plus
    /// retry backoff windows.
    pub recovery: f64,
    /// Seconds where only the master was busy scheduling.
    pub master: f64,
    /// Seconds with nothing happening.
    pub idle: f64,
    /// Scheduling decisions made.
    pub decisions: usize,
    /// Task attempts lost to injected faults.
    pub task_failures: usize,
    /// Retry backoffs entered.
    pub retries: usize,
    /// Total master decision time in sim seconds (decisions may overlap
    /// task execution; this is the raw sum, not the critical-path
    /// `master` bucket).
    pub master_sim_total: f64,
    /// Total wall-clock nanoseconds the host spent inside the
    /// scheduler. Nondeterministic; informational only.
    pub master_host_nanos: u64,
    /// The makespan on the nanosecond grid. The five `*_ns` buckets sum
    /// to this **exactly** — the differential analysis relies on the
    /// integer identity, not the floating-point one.
    pub makespan_ns: u64,
    /// `compute` in integer nanoseconds.
    pub compute_ns: u64,
    /// `data_movement` in integer nanoseconds.
    pub data_movement_ns: u64,
    /// `recovery` in integer nanoseconds.
    pub recovery_ns: u64,
    /// `master` in integer nanoseconds.
    pub master_ns: u64,
    /// `idle` in integer nanoseconds.
    pub idle_ns: u64,
}

impl OverheadReport {
    /// Decomposes `makespan` seconds using the stage and decision
    /// events of `log`: one linear scan of the sorted sweep that the
    /// log's [`TaskTimeline`] builds once, on first use, for every
    /// makespan.
    pub fn from_log(log: &TelemetryLog, makespan: f64) -> Self {
        let timeline = log.timeline();
        // Each nanosecond goes to the highest-priority active category,
        // or to idle (slot 4) when none is active.
        let makespan_ns = SimDuration::from_secs_f64(makespan).as_nanos();
        let mut depth = [0i64; 4];
        let mut ns = [0u64; 5];
        let mut prev = 0u64;
        for &key in timeline.sweep() {
            let t = (key >> 3).min(makespan_ns);
            if t > prev {
                ns[depth.iter().position(|&d| d > 0).unwrap_or(4)] += t - prev;
                prev = t;
            }
            depth[(key >> 1 & 3) as usize] += if key & 1 == 1 { 1 } else { -1 };
        }
        ns[4] += makespan_ns.saturating_sub(prev);
        let mut master_sim_total = 0.0f64;
        let mut master_host_nanos = 0u64;
        for d in &timeline.decisions {
            master_sim_total += d.sim_overhead.as_secs_f64();
            master_host_nanos += d.host_nanos;
        }
        let secs = |v: u64| v as f64 / 1e9;
        OverheadReport {
            makespan,
            compute: secs(ns[0]),
            data_movement: secs(ns[1]),
            recovery: secs(ns[2]),
            master: secs(ns[3]),
            idle: secs(ns[4]),
            decisions: timeline.decisions.len(),
            task_failures: timeline.attempts.iter().filter(|a| a.failed()).count(),
            retries: timeline.retries.len(),
            master_sim_total,
            master_host_nanos,
            makespan_ns,
            compute_ns: ns[0],
            data_movement_ns: ns[1],
            recovery_ns: ns[2],
            master_ns: ns[3],
            idle_ns: ns[4],
        }
    }

    /// The five buckets in integer nanoseconds, in report order. They
    /// sum to [`OverheadReport::makespan_ns`] exactly.
    pub fn buckets_ns(&self) -> [(&'static str, u64); 5] {
        [
            ("compute", self.compute_ns),
            ("data_movement", self.data_movement_ns),
            ("recovery", self.recovery_ns),
            ("master", self.master_ns),
            ("idle", self.idle_ns),
        ]
    }

    /// Sum of the five buckets (equals the makespan up to the
    /// nanosecond grid).
    pub fn total(&self) -> f64 {
        self.compute + self.data_movement + self.recovery + self.master + self.idle
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = |v: f64| {
            if self.makespan > 0.0 {
                100.0 * v / self.makespan
            } else {
                0.0
            }
        };
        let _ = writeln!(out, "makespan decomposition ({:.6} s total)", self.makespan);
        for (label, secs) in [
            ("compute", self.compute),
            ("data movement", self.data_movement),
            ("recovery", self.recovery),
            ("master", self.master),
            ("idle", self.idle),
        ] {
            let _ = writeln!(out, "  {label:<15}{secs:>12.6} s  {:>5.1} %", pct(secs));
        }
        let _ = writeln!(
            out,
            "decisions: {}   total master sim-time: {:.6} s   host time: {:.3} ms",
            self.decisions,
            self.master_sim_total,
            self.master_host_nanos as f64 / 1e6
        );
        if self.task_failures > 0 || self.retries > 0 {
            let _ = writeln!(
                out,
                "task failures: {}   retries: {}",
                self.task_failures, self.retries
            );
        }
        out
    }
}

/// The category depth changes of `timeline` on the nanosecond grid, in
/// ascending order: what [`OverheadReport::from_log`] scans. Stage and
/// transfer intervals owned by a failed attempt are wasted work, booked
/// as recovery.
///
/// Each change is packed as `t << 3 | category << 1 | opens`, so that
/// one integer sort orders them by instant. Packing needs every instant
/// below 2^61 ns, about 73 years. Categories in priority order: 0 =
/// compute, 1 = data movement, 2 = recovery, 3 = master. The keys are
/// plain integers, so an unstable sort yields the same sequence as a
/// stable one.
pub(super) fn sweep(timeline: &TaskTimeline) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::with_capacity(
        2 * (timeline.intervals.len() + timeline.decisions.len() + timeline.retries.len()),
    );
    let mut push = |t0: u64, t1: u64, cat: u64| {
        debug_assert!((t0 | t1) >> 61 == 0, "instant past 2^61 ns");
        keys.push(t0 << 3 | cat << 1 | 1);
        keys.push(t1 << 3 | cat << 1);
    };
    for iv in &timeline.intervals {
        // Transfers are already covered by their stage intervals, but
        // standalone streams (e.g. filtered logs) still classify them
        // as data movement.
        let cat = match iv.kind {
            _ if timeline.owner(iv).failed() => 2,
            IntervalKind::Stage(TraceState::SerialFraction | TraceState::ParallelFraction) => 0,
            IntervalKind::Stage(_) | IntervalKind::Transfer(..) => 1,
        };
        push(iv.t0.as_nanos(), iv.t1.as_nanos(), cat);
    }
    for d in &timeline.decisions {
        push(d.at.as_nanos(), (d.at + d.sim_overhead).as_nanos(), 3);
    }
    for r in &timeline.retries {
        push(r.at.as_nanos(), r.until.as_nanos(), 2);
    }
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use crate::telemetry::event::{Candidates, SchedulerDecision};
    use crate::telemetry::TelemetryEvent;
    use gpuflow_sim::{SimDuration, SimTime};

    fn stage(state: TraceState, t0: u64, t1: u64) -> TelemetryEvent {
        TelemetryEvent::Stage {
            task: TaskId(0),
            node: 0,
            core: 0,
            gpu: None,
            state,
            t0: SimTime::from_nanos(t0),
            t1: SimTime::from_nanos(t1),
        }
    }

    fn decision(at: u64, overhead: u64) -> TelemetryEvent {
        TelemetryEvent::Decision(SchedulerDecision {
            at: SimTime::from_nanos(at),
            task: TaskId(0),
            chosen: 0,
            queue_depth: 1,
            sim_overhead: SimDuration::from_nanos(overhead),
            host_nanos: 5,
            candidates: Candidates::default(),
        })
    }

    #[test]
    fn buckets_partition_the_makespan() {
        // master 0..1, deser 1..3, compute 2..6 (wins the overlap),
        // idle 6..10.
        let log = TelemetryLog::from_events(vec![
            decision(0, 1_000_000_000),
            stage(TraceState::Deserialize, 1_000_000_000, 3_000_000_000),
            stage(TraceState::ParallelFraction, 2_000_000_000, 6_000_000_000),
        ]);
        let r = OverheadReport::from_log(&log, 10.0);
        assert!((r.master - 1.0).abs() < 1e-9, "{r:?}");
        assert!((r.data_movement - 1.0).abs() < 1e-9, "{r:?}");
        assert!((r.compute - 4.0).abs() < 1e-9, "{r:?}");
        assert!((r.idle - 4.0).abs() < 1e-9, "{r:?}");
        assert!((r.total() - r.makespan).abs() < 1e-9);
        assert_eq!(r.decisions, 1);
        assert_eq!(r.master_host_nanos, 5);
    }

    #[test]
    fn compute_masks_concurrent_master_time() {
        let log = TelemetryLog::from_events(vec![
            stage(TraceState::ParallelFraction, 0, 4_000_000_000),
            decision(1_000_000_000, 1_000_000_000),
        ]);
        let r = OverheadReport::from_log(&log, 4.0);
        assert_eq!(r.master, 0.0, "masked by compute");
        assert!((r.master_sim_total - 1.0).abs() < 1e-9, "raw sum kept");
        assert!((r.compute - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log_is_all_idle() {
        let r = OverheadReport::from_log(&TelemetryLog::default(), 2.0);
        assert!((r.idle - 2.0).abs() < 1e-12);
        assert!((r.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_every_bucket() {
        let r = OverheadReport::from_log(&TelemetryLog::default(), 1.0);
        let text = r.render();
        for needle in [
            "compute",
            "data movement",
            "recovery",
            "master",
            "idle",
            "decisions",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn failed_attempt_work_and_backoff_count_as_recovery() {
        // Attempt 0 of task 0 deserializes 0..1 s and computes 1..2 s,
        // then fails at 2 s; backoff spans 2..3 s; the rerun computes
        // 3..5 s. The first attempt's work plus the backoff is
        // recovery; only the rerun is compute.
        let log = TelemetryLog::from_events(vec![
            stage(TraceState::Deserialize, 0, 1_000_000_000),
            stage(TraceState::ParallelFraction, 1_000_000_000, 2_000_000_000),
            TelemetryEvent::TaskFailed {
                at: SimTime::from_nanos(2_000_000_000),
                task: TaskId(0),
                node: 0,
                attempt: 0,
                started: SimTime::from_nanos(0),
                reason: "transient",
            },
            TelemetryEvent::TaskRetry {
                at: SimTime::from_nanos(2_000_000_000),
                task: TaskId(0),
                attempt: 1,
                until: SimTime::from_nanos(3_000_000_000),
            },
            stage(TraceState::ParallelFraction, 3_000_000_000, 5_000_000_000),
        ]);
        let r = OverheadReport::from_log(&log, 5.0);
        assert!((r.recovery - 3.0).abs() < 1e-9, "{r:?}");
        assert!((r.compute - 2.0).abs() < 1e-9, "{r:?}");
        assert_eq!(r.data_movement, 0.0, "wasted deser reclassified: {r:?}");
        assert!((r.total() - r.makespan).abs() < 1e-9);
        assert_eq!(r.task_failures, 1);
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn live_compute_masks_concurrent_recovery() {
        let log = TelemetryLog::from_events(vec![
            stage(TraceState::ParallelFraction, 0, 4_000_000_000),
            TelemetryEvent::TaskRetry {
                at: SimTime::from_nanos(1_000_000_000),
                task: TaskId(9),
                attempt: 1,
                until: SimTime::from_nanos(2_000_000_000),
            },
        ]);
        let r = OverheadReport::from_log(&log, 4.0);
        assert_eq!(r.recovery, 0.0, "masked by compute: {r:?}");
        assert!((r.compute - 4.0).abs() < 1e-9);
    }
}
