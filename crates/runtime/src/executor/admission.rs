//! Arrivals and the job gate: root tasks held back until their
//! submission instant, and whole jobs released into a bounded
//! fair-share window (see [`crate::jobs`]).

use gpuflow_sim::{SimDuration, SimTime};

use crate::jobs::{JobSchedule, TaskOwners};
use crate::task::TaskId;
use crate::telemetry::TelemetryEvent;

use super::{Ev, Exec, RunConfig};

/// Runtime state of the [`JobSchedule`] gate (see
/// [`RunConfig::jobs`]): which jobs are eligible/released, how much of
/// each is still running, and the per-tenant stride accounting.
#[derive(Debug)]
pub(super) struct JobGate {
    /// Job reached its arrival instant (eligible for release).
    arrived: Vec<bool>,
    /// Job's roots have been released into the ready queue.
    released: Vec<bool>,
    /// Unfinished tasks per job; 0 after release means the job is done
    /// and its window slot frees up.
    remaining: Vec<usize>,
    /// Released-but-unfinished jobs (bounded by `max_inflight`).
    inflight: usize,
    /// Released-but-unfinished jobs per tenant.
    tenant_inflight: Vec<usize>,
    /// Stride accounting: tasks released per tenant. The next slot goes
    /// to the eligible job minimising `consumed / weight`, compared
    /// exactly by cross-multiplication.
    consumed: Vec<u64>,
    /// The job owning each task, for the lookup on completion.
    jobs: TaskOwners,
}

impl JobGate {
    /// A gate with no job arrived or released yet.
    pub(super) fn new(sched: &JobSchedule) -> Self {
        let jobs = sched.jobs.iter().enumerate();
        let ranges = jobs.map(|(j, job)| (job.task_lo, job.task_hi, j));
        JobGate {
            arrived: vec![false; sched.jobs.len()],
            released: vec![false; sched.jobs.len()],
            remaining: sched.jobs.iter().map(|j| j.task_count() as usize).collect(),
            inflight: 0,
            tenant_inflight: vec![0; sched.tenants.len()],
            consumed: vec![0; sched.tenants.len()],
            jobs: TaskOwners::new(ranges.collect()),
        }
    }
}

impl<'a> Exec<'a> {
    pub(super) fn seed_ready(&mut self) {
        // Roots with a configured future submission time are held back
        // and released by an engine event at their arrival instant.
        for &(tid, at_secs) in &self.cfg.arrivals {
            if at_secs > 0.0 {
                self.unarrived[tid.0 as usize] = true;
                self.engine.schedule_at(
                    SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
                    Ev::Release(tid),
                );
            }
        }
        // Gated jobs: every root is held back — even at time zero — and
        // only the fair-share window releases it (see `job_fill_window`).
        if let Some(sched) = self.cfg.jobs.as_ref() {
            for (j, job) in sched.jobs.iter().enumerate() {
                for r in &job.roots {
                    self.unarrived[r.0 as usize] = true;
                }
                self.engine.schedule_at(
                    SimTime::ZERO + SimDuration::from_secs_f64(job.arrival_secs),
                    Ev::JobArrive(j),
                );
            }
        }
        for i in 0..self.deps_left.len() {
            if self.deps_left[i] == 0 && !self.unarrived[i] {
                self.admit(TaskId(i as u32));
            }
        }
    }

    /// Puts `tid` in the ready queue and reports it ready: the one way a
    /// task enters the queue, except the master's silent re-queue of a
    /// decision a fault overtook.
    pub(super) fn admit(&mut self, tid: TaskId) {
        self.ready.insert(self.rank(tid), tid, self.lane(tid));
        if self.bus.active() {
            let at = self.now();
            self.bus.push(TelemetryEvent::TaskReady { at, task: tid });
        }
    }

    /// A held-back root task reached its submission time.
    pub(super) fn on_release(&mut self, tid: TaskId) {
        if !std::mem::take(&mut self.unarrived[tid.0 as usize]) {
            return;
        }
        self.admit(tid);
        self.try_start_master();
    }

    /// A gated job reached its arrival instant: mark it eligible and
    /// try to release work into the window.
    pub(super) fn on_job_arrive(&mut self, j: usize) {
        match self.gate.as_mut() {
            Some(gate) if !gate.arrived[j] => gate.arrived[j] = true,
            _ => return,
        }
        self.job_fill_window();
    }

    /// Releases eligible jobs into the in-flight window until it is
    /// full or no job qualifies. Pick rule (stride fair-share): the
    /// eligible job whose tenant minimises `consumed / weight` —
    /// compared exactly by cross-multiplication, no floats — with ties
    /// broken by priority (higher first), then submission order. A
    /// released job's roots leave `unarrived` and enter the ready
    /// queue at the current virtual instant.
    fn job_fill_window(&mut self) {
        // `cfg` is a copyable `&'a RunConfig`, so `sched` borrows the
        // config for `'a` rather than `self` — the loop below mutates
        // `self` freely.
        let cfg: &'a RunConfig = self.cfg;
        let Some(sched) = cfg.jobs.as_ref() else {
            return;
        };
        loop {
            let gate = self.gate.as_ref().expect("gate exists with a schedule");
            if gate.inflight >= sched.max_inflight {
                break;
            }
            let mut best: Option<usize> = None;
            for (j, job) in sched.jobs.iter().enumerate() {
                if !gate.arrived[j] || gate.released[j] {
                    continue;
                }
                if sched.max_inflight_per_tenant > 0
                    && gate.tenant_inflight[job.tenant] >= sched.max_inflight_per_tenant
                {
                    continue;
                }
                best = match best {
                    None => Some(j),
                    Some(b) => {
                        let other = &sched.jobs[b];
                        let lhs = gate.consumed[job.tenant] as u128
                            * sched.tenants[other.tenant].weight as u128;
                        let rhs = gate.consumed[other.tenant] as u128
                            * sched.tenants[job.tenant].weight as u128;
                        let ord = lhs
                            .cmp(&rhs)
                            .then(other.priority.cmp(&job.priority))
                            .then(std::cmp::Ordering::Greater);
                        if ord == std::cmp::Ordering::Less {
                            Some(j)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let Some(j) = best else { break };
            let job = &sched.jobs[j];
            let gate = self.gate.as_mut().expect("gate exists with a schedule");
            gate.released[j] = true;
            gate.inflight += 1;
            gate.tenant_inflight[job.tenant] += 1;
            gate.consumed[job.tenant] += job.task_count();
            for &r in &job.roots {
                if std::mem::take(&mut self.unarrived[r.0 as usize]) {
                    self.admit(r);
                }
            }
        }
        self.try_start_master();
    }

    /// Job-gate bookkeeping for a task's first successful completion:
    /// when the job's last task finishes, its window slot frees up and
    /// the window refills.
    pub(super) fn job_task_done(&mut self, tid: TaskId) {
        let cfg: &'a RunConfig = self.cfg;
        let (Some(gate), Some(sched)) = (self.gate.as_mut(), cfg.jobs.as_ref()) else {
            return;
        };
        let Some(j) = gate.jobs.owner(tid.0) else {
            return;
        };
        gate.remaining[j] -= 1;
        if gate.remaining[j] == 0 {
            gate.inflight -= 1;
            gate.tenant_inflight[sched.jobs[j].tenant] -= 1;
            self.job_fill_window();
        }
    }
}
