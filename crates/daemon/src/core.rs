//! The deterministic daemon state machine.
//!
//! [`DaemonCore`] is the whole of `gpuflowd` minus the sockets: it
//! owns the tenant table, the bounded job queue, the recorded journal
//! and the metrics hub, and it *decides* — admit, reject, cancel,
//! drain. The live daemon and `repro replay --from-log` share one
//! mutation path, [`DaemonCore`]'s internal `commit`: the live path
//! decides and then commits the decision as a [`LogLine`]; replay
//! parses the recorded lines and commits them verbatim. Because every
//! state change flows through the same function and every timestamp is
//! virtual, a replayed core is bit-identical to the live one — same
//! job table, same per-job fingerprints, same journal text, same
//! Prometheus exposition.
//!
//! A *drain* executes every queued job as one simulated epoch on the
//! shared cluster model: the queue becomes a [`JobSchedule`] (stride
//! fair-share over tenant weights, priority tie-breaks, bounded
//! in-flight window) and runs to completion inside the virtual-time
//! executor with live metrics attached. Epochs concatenate onto the
//! registry's single monotonic clock via
//! [`MetricsRegistry::begin_epoch`](gpuflow_runtime::MetricsRegistry::begin_epoch).

use crate::log::{parse_numbered, render_journal, LogLine};
use crate::protocol::{valid_tenant_name, RejectReason};
use gpuflow_chaos::mix64;
use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::jobs::build_jobs;
use gpuflow_runtime::{
    AlertRule, JobSchedule, JobShape, JobSpec, JsonWriter, MetricsHub, RunConfig, SchedulingPolicy,
    TaskId, TenantSpec,
};
use gpuflow_sim::SimDuration;

/// Initial value of every per-job fingerprint fold (FNV-1a offset
/// basis, reused as an arbitrary non-zero constant).
const FP_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Static configuration of a daemon instance. Everything here is
/// recorded in the journal header lines, so a replay reconstructs the
/// same core from the log alone.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Tenants as `(name, fair-share weight)`, declaration order.
    pub tenants: Vec<(String, u32)>,
    /// Max jobs one tenant may have queued (admission control).
    pub quota: u32,
    /// Max jobs queued across all tenants (global backpressure).
    pub queue_cap: u32,
    /// Jobs allowed in flight at once during a drain.
    pub window: u32,
    /// Per-tenant in-flight cap during a drain (0 = unlimited).
    pub tenant_window: u32,
    /// Virtual microseconds between consecutive daemon decisions.
    pub tick_us: u64,
    /// Metrics sampling interval, microseconds.
    pub interval_us: u64,
    /// Simulation seed for every drained epoch.
    pub seed: u64,
    /// Largest accepted per-job task count (validation only — never
    /// recorded, since rejected submissions carry no task count).
    pub max_tasks: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            tenants: vec![
                ("acme".to_string(), 3),
                ("beta".to_string(), 2),
                ("gamma".to_string(), 1),
            ],
            quota: 8,
            queue_cap: 24,
            window: 2,
            tenant_window: 0,
            tick_us: 10_000,
            interval_us: 10_000,
            seed: 0xD1A1,
            max_tasks: 4096,
        }
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the next drain.
    Queued,
    /// Cancelled before any drain ran it.
    Cancelled,
    /// Executed by a drain; its fingerprint is final.
    Done,
}

impl JobState {
    /// Stable lower-case label (JSON + table output).
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Cancelled => "cancelled",
            JobState::Done => "done",
        }
    }
}

/// One submitted job, live for the daemon's whole lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Client-visible id (dense, starting at 1).
    pub id: u64,
    /// Owning tenant (index into the config's tenant table).
    pub tenant: usize,
    /// DAG template.
    pub shape: JobShape,
    /// Task count.
    pub tasks: u64,
    /// Fair-share tie-break priority.
    pub prio: u32,
    /// Virtual submission instant, microseconds.
    pub t_us: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Output fingerprint folded over the job's task records; 0 until
    /// the job runs.
    pub fingerprint: u64,
    /// Epoch that executed the job (meaningful when `state` is
    /// [`JobState::Done`]).
    pub epoch: u64,
}

/// What one drain did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainSummary {
    /// Jobs executed (0 when the queue was empty — no epoch ran and
    /// nothing was journaled).
    pub jobs: u64,
    /// Epoch index the jobs ran in.
    pub epoch: u64,
    /// Simulated makespan of the epoch, seconds.
    pub makespan_secs: f64,
}

/// The daemon state machine. See the module docs for the live/replay
/// contract.
#[derive(Debug)]
pub struct DaemonCore {
    cfg: DaemonConfig,
    hub: MetricsHub,
    journal: Vec<LogLine>,
    jobs: Vec<JobRecord>,
    /// Queued jobs per tenant, kept by `apply`: a submit adds one, a
    /// cancel takes one away, a drain empties every queue.
    queued: Vec<u64>,
    /// Decision counter; decision `n` is stamped `n × tick_us`.
    seq: u64,
    next_job: u64,
    epochs: u64,
    /// Per-tenant reject counters (queue_json), plus rejects that
    /// could not be attributed to a configured tenant.
    rejects: Vec<u64>,
    rejects_other: u64,
    /// Per-job root spans, appended at every drain — the daemon level
    /// of the causal span tree (`gpuflow ctl alerts` body).
    job_spans: Vec<JobRootSpan>,
}

/// The root span of one executed job: its tasks' full extent on the
/// epoch's virtual clock, folded from the drain's telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRootSpan {
    /// The job id `submit` returned.
    pub job: u64,
    /// Owning tenant index into the daemon config.
    pub tenant: usize,
    /// Drain epoch the job executed in.
    pub epoch: u64,
    /// Earliest observable moment of any task of the job, virtual ns
    /// on the epoch-local clock.
    pub t0_ns: u64,
    /// Latest completion of any task of the job, virtual ns.
    pub t1_ns: u64,
    /// Tasks the job contributed to the epoch's DAG.
    pub tasks: u64,
    /// How many of them lay on the epoch's critical path.
    pub critical: u64,
}

impl DaemonCore {
    /// Builds a core from a validated configuration. The journal
    /// starts with the `config` and `tenant` header records.
    pub fn new(cfg: DaemonConfig) -> Result<DaemonCore, String> {
        if cfg.tenants.is_empty() {
            return Err("config: at least one tenant is required".into());
        }
        for (name, weight) in &cfg.tenants {
            if !valid_tenant_name(name) {
                return Err(format!("config: bad tenant name {name:?}"));
            }
            if *weight == 0 {
                return Err(format!("config: tenant {name} weight must be >= 1"));
            }
        }
        let mut names: Vec<&str> = cfg.tenants.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != cfg.tenants.len() {
            return Err("config: duplicate tenant names".into());
        }
        if cfg.quota == 0 || cfg.queue_cap == 0 || cfg.window == 0 {
            return Err("config: quota, queue_cap and window must be >= 1".into());
        }
        if cfg.tick_us == 0 || cfg.interval_us == 0 {
            return Err("config: tick_us and interval_us must be >= 1".into());
        }
        if cfg.max_tasks == 0 {
            return Err("config: max_tasks must be >= 1".into());
        }
        let hub = MetricsHub::new(SimDuration::from_micros(cfg.interval_us));
        hub.update(|r| {
            r.set_tenants(&cfg.tenants);
            // SLO alerting is always on in the daemon; the rules step
            // at every sealed sample boundary of each drain epoch, so
            // live and replayed cores produce the same firing timeline.
            r.enable_alerts(AlertRule::standard());
        });
        let mut journal = vec![LogLine::Config {
            seed: cfg.seed,
            tick_us: cfg.tick_us,
            interval_us: cfg.interval_us,
            quota: cfg.quota,
            queue_cap: cfg.queue_cap,
            window: cfg.window,
            tenant_window: cfg.tenant_window,
        }];
        for (name, weight) in &cfg.tenants {
            journal.push(LogLine::Tenant {
                name: name.clone(),
                weight: *weight,
            });
        }
        let n = cfg.tenants.len();
        Ok(DaemonCore {
            cfg,
            hub,
            journal,
            jobs: Vec::new(),
            queued: vec![0; n],
            seq: 0,
            next_job: 1,
            epochs: 0,
            rejects: vec![0; n],
            rejects_other: 0,
            job_spans: Vec::new(),
        })
    }

    /// Reconstructs a core from a recorded journal, committing every
    /// recorded decision verbatim. The resulting core is bit-identical
    /// to the live daemon that wrote the log: same job table and
    /// fingerprints, same journal text, same metrics exposition.
    pub fn replay(text: &str) -> Result<DaemonCore, String> {
        let lines = parse_numbered(text)?;
        let mut it = lines.into_iter().peekable();
        let mut cfg = match it.next() {
            Some((
                _,
                LogLine::Config {
                    seed,
                    tick_us,
                    interval_us,
                    quota,
                    queue_cap,
                    window,
                    tenant_window,
                },
            )) => DaemonConfig {
                tenants: Vec::new(),
                quota,
                queue_cap,
                window,
                tenant_window,
                tick_us,
                interval_us,
                seed,
                ..DaemonConfig::default()
            },
            _ => return Err("journal must start with a config record".into()),
        };
        while let Some((_, LogLine::Tenant { .. })) = it.peek() {
            let Some((_, LogLine::Tenant { name, weight })) = it.next() else {
                unreachable!()
            };
            cfg.tenants.push((name, weight));
        }
        let mut core = DaemonCore::new(cfg)?;
        for (number, line) in it {
            core.commit(line)
                .map_err(|e| format!("line {number}: {e}"))?;
        }
        Ok(core)
    }

    /// Resumes the recorded journal `text` under `cfg`, the
    /// configuration a fresh core would start with: replays it, and
    /// refuses it, showing both headers, when its header records are
    /// not the ones `cfg` writes. `max_tasks`, which no journal
    /// records, is taken from `cfg`.
    pub fn resume(cfg: DaemonConfig, text: &str) -> Result<DaemonCore, String> {
        let fresh = DaemonCore::new(cfg)?;
        let mut core = DaemonCore::replay(text)?;
        let (journal, want) = (core.header_text(), fresh.header_text());
        if journal != want {
            return Err(format!(
                "the journal's header differs from the configuration's\n\
                 --- journal ---\n{journal}--- configuration ---\n{want}"
            ));
        }
        core.cfg.max_tasks = fresh.cfg.max_tasks;
        Ok(core)
    }

    /// The journal's header: its first line, then the config and
    /// tenant records.
    fn header_text(&self) -> String {
        render_journal(&self.journal[..1 + self.cfg.tenants.len()])
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// The metrics hub (shared with the scrape endpoint).
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// Every job ever submitted, in submission order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Decisions committed so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Drain epochs executed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> u64 {
        self.queued.iter().sum()
    }

    fn tenant_index(&self, name: &str) -> Option<usize> {
        self.cfg.tenants.iter().position(|(n, _)| n == name)
    }

    fn queued_of(&self, tenant: usize) -> u64 {
        self.queued[tenant]
    }

    /// Stamps the next decision: `seq += 1; seq × tick_us`.
    fn next_t(&mut self) -> u64 {
        self.seq += 1;
        self.seq * self.cfg.tick_us
    }

    /// Live submission path: decide, then commit the decision.
    /// Returns the assigned job id, or the typed reject.
    pub fn submit(
        &mut self,
        tenant: &str,
        shape: JobShape,
        tasks: u64,
        prio: u32,
    ) -> Result<u64, RejectReason> {
        let decision = self.decide_submit(tenant, shape, tasks, prio);
        let result = match &decision {
            LogLine::Submit { job, .. } => Ok(*job),
            LogLine::Reject { reason, .. } => Err(*reason),
            _ => unreachable!(),
        };
        self.commit(decision)
            .expect("committing a freshly decided line cannot fail");
        result
    }

    fn decide_submit(&mut self, tenant: &str, shape: JobShape, tasks: u64, prio: u32) -> LogLine {
        let t_us = self.next_t();
        let reject = |tenant: usize, reason: RejectReason| LogLine::Reject {
            t_us,
            tenant,
            reason,
        };
        if !valid_tenant_name(tenant) {
            return reject(usize::MAX, RejectReason::BadRequest);
        }
        let Some(idx) = self.tenant_index(tenant) else {
            return reject(usize::MAX, RejectReason::UnknownTenant);
        };
        if tasks == 0 || tasks > self.cfg.max_tasks {
            return reject(idx, RejectReason::BadRequest);
        }
        if self.queued() >= self.cfg.queue_cap as u64 {
            return reject(idx, RejectReason::QueueFull);
        }
        if self.queued_of(idx) >= self.cfg.quota as u64 {
            return reject(idx, RejectReason::QuotaExceeded);
        }
        let job = self.next_job;
        LogLine::Submit {
            t_us,
            tenant: idx,
            job,
            shape,
            tasks,
            prio,
        }
    }

    /// The job numbered `job`: ids are dense from 1, so it sits at
    /// `job - 1` in the table.
    fn job_mut(&mut self, job: u64) -> Option<&mut JobRecord> {
        let i = usize::try_from(job.checked_sub(1)?).ok()?;
        self.jobs.get_mut(i)
    }

    /// Live cancel path. Only queued jobs can be cancelled; anything
    /// else is an error (and journals nothing).
    pub fn cancel(&mut self, job: u64) -> Result<(), String> {
        let state = self
            .job_mut(job)
            .ok_or_else(|| format!("no such job {job}"))?
            .state;
        if state != JobState::Queued {
            return Err(format!("job {job} is {}, not queued", state.label()));
        }
        let t_us = self.next_t();
        self.commit(LogLine::Cancel { t_us, job })
            .expect("committing a validated cancel cannot fail");
        Ok(())
    }

    /// Live drain path: executes every queued job as one simulated
    /// epoch. An empty queue is a no-op — nothing journaled, no epoch.
    pub fn drain(&mut self) -> Result<DrainSummary, String> {
        let n = self.queued();
        if n == 0 {
            return Ok(DrainSummary {
                jobs: 0,
                epoch: self.epochs,
                makespan_secs: 0.0,
            });
        }
        let t_us = self.next_t();
        let summary = self.commit(LogLine::Drain { t_us, jobs: n })?;
        Ok(summary.expect("a non-empty drain produces a summary"))
    }

    /// The single mutation path: appends the line to the journal and
    /// applies it. Both the live verbs (which decided `line` a moment
    /// ago) and replay (which read it from disk) come through here,
    /// which is what makes replay bit-identical.
    fn commit(&mut self, line: LogLine) -> Result<Option<DrainSummary>, String> {
        let applied = self.apply(&line)?;
        self.journal.push(line);
        Ok(applied)
    }

    fn apply(&mut self, line: &LogLine) -> Result<Option<DrainSummary>, String> {
        match line {
            LogLine::Config { .. } | LogLine::Tenant { .. } => {
                Err("config records are fixed at construction".into())
            }
            LogLine::Submit {
                t_us,
                tenant,
                job,
                shape,
                tasks,
                prio,
            } => {
                if *tenant >= self.cfg.tenants.len() {
                    return Err(format!("submit: tenant index {tenant} out of range"));
                }
                if *job != self.next_job {
                    return Err(format!(
                        "submit: job {job} is not the next job id {}",
                        self.next_job
                    ));
                }
                self.sync_seq(*t_us)?;
                self.jobs.push(JobRecord {
                    id: *job,
                    tenant: *tenant,
                    shape: *shape,
                    tasks: *tasks,
                    prio: *prio,
                    t_us: *t_us,
                    state: JobState::Queued,
                    fingerprint: 0,
                    epoch: 0,
                });
                self.next_job += 1;
                self.queued[*tenant] += 1;
                let queued = self.queued_of(*tenant);
                self.hub.update(|r| {
                    r.record_job_admitted(*tenant);
                    r.set_tenant_queued(*tenant, queued);
                });
                Ok(None)
            }
            LogLine::Reject {
                t_us,
                tenant,
                reason,
            } => {
                self.sync_seq(*t_us)?;
                if *tenant == usize::MAX {
                    self.rejects_other += 1;
                } else if *tenant < self.cfg.tenants.len() {
                    self.rejects[*tenant] += 1;
                    let (tenant, reason) = (*tenant, reason.label());
                    self.hub.update(|r| r.record_job_rejected(tenant, reason));
                } else {
                    return Err(format!("reject: tenant index {tenant} out of range"));
                }
                Ok(None)
            }
            LogLine::Cancel { t_us, job } => {
                self.sync_seq(*t_us)?;
                let j = self
                    .job_mut(*job)
                    .filter(|j| j.state == JobState::Queued)
                    .ok_or_else(|| format!("cancel: job {job} is not queued"))?;
                j.state = JobState::Cancelled;
                let tenant = j.tenant;
                self.queued[tenant] -= 1;
                let queued = self.queued_of(tenant);
                self.hub.update(|r| {
                    r.record_job_cancelled(tenant);
                    r.set_tenant_queued(tenant, queued);
                });
                Ok(None)
            }
            LogLine::Drain { t_us, jobs } => {
                self.sync_seq(*t_us)?;
                if *jobs != self.queued() {
                    return Err(format!(
                        "drain: journal says {jobs} jobs but {} are queued",
                        self.queued()
                    ));
                }
                let summary = self.run_epoch()?;
                Ok(Some(summary))
            }
        }
    }

    /// Adopts a recorded timestamp as the decision counter, verifying
    /// it is on the tick grid and strictly increasing.
    fn sync_seq(&mut self, t_us: u64) -> Result<(), String> {
        let tick = self.cfg.tick_us;
        if t_us % tick != 0 || t_us == 0 {
            return Err(format!(
                "timestamp {t_us}us is not on the {tick}us tick grid"
            ));
        }
        let seq = t_us / tick;
        if seq < self.seq {
            return Err(format!("timestamp {t_us}us goes backwards"));
        }
        self.seq = seq;
        Ok(())
    }

    /// Runs every queued job as one simulated epoch and finalizes
    /// their fingerprints. Arrival offsets inside the epoch preserve
    /// the virtual submission spacing relative to the first queued job.
    fn run_epoch(&mut self) -> Result<DrainSummary, String> {
        let queued: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.state == JobState::Queued)
            .map(|(i, _)| i)
            .collect();
        let base_us = self.jobs[queued[0]].t_us;
        let specs: Vec<JobSpec> = queued
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let j = &self.jobs[i];
                JobSpec {
                    id: k,
                    tenant: j.tenant,
                    shape: j.shape,
                    tasks: j.tasks as usize,
                    arrival_secs: (j.t_us - base_us) as f64 / 1e6,
                    priority: j.prio,
                }
            })
            .collect();
        let (workflow, built) = build_jobs(&specs);
        let tenants: Vec<TenantSpec> = self
            .cfg
            .tenants
            .iter()
            .map(|(name, weight)| TenantSpec {
                name: name.clone(),
                weight: *weight,
            })
            .collect();
        let mut sched = JobSchedule::assemble(tenants, &specs, &built, self.cfg.window as usize);
        sched.max_inflight_per_tenant = self.cfg.tenant_window as usize;
        let ranges = sched.tenant_ranges();
        self.hub.update(|r| r.begin_epoch(ranges));
        let mut run_cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Gpu)
            .with_storage(StorageArchitecture::SharedDisk)
            .with_policy(SchedulingPolicy::GenerationOrder)
            .with_seed(self.cfg.seed)
            .with_jobs(sched)
            .with_telemetry()
            .with_live_metrics(self.hub.clone());
        run_cfg.jitter_sigma = 0.0;
        let report = gpuflow_runtime::run(&workflow, &run_cfg)
            .map_err(|e| format!("epoch execution failed: {e:?}"))?;
        // Records arrive in completion order; index them by task id so
        // fingerprints fold each job's range in ascending-id order.
        let n_tasks = workflow.tasks().len();
        let mut end_node: Vec<(u64, usize)> = vec![(0, 0); n_tasks];
        for r in &report.records {
            end_node[r.task.0 as usize] = (r.end.as_nanos(), r.node);
        }
        let epoch = self.epochs;
        // The daemon level of the causal span tree: one root span per
        // job, over the job's task range on the epoch-local clock, from
        // each task's first observable instant to its completion, read
        // from the one index of the drain's telemetry.
        let timeline = report.telemetry.timeline();
        let mut critical = vec![false; n_tasks];
        for hop in timeline.critical_path(&workflow) {
            critical[hop.task.0 as usize] = true;
        }
        for (k, &i) in queued.iter().enumerate() {
            let (lo, hi) = (built[k].task_lo, built[k].task_hi);
            let mut fp = FP_SEED;
            for tid in lo..=hi {
                let (end_ns, node) = end_node[tid as usize];
                fp = mix64(fp ^ mix64(((tid as u64) << 32) ^ end_ns ^ node as u64));
            }
            let mut span = JobRootSpan {
                job: self.jobs[i].id,
                tenant: self.jobs[i].tenant,
                epoch,
                t0_ns: u64::MAX,
                t1_ns: 0,
                tasks: (hi - lo + 1) as u64,
                critical: 0,
            };
            for tid in lo..=hi {
                let task = TaskId(tid);
                let Some((end, _)) = timeline.completion(task) else {
                    continue;
                };
                let start = timeline.first_seen(task).unwrap_or(end);
                span.t0_ns = span.t0_ns.min(start.as_nanos());
                span.t1_ns = span.t1_ns.max(end.as_nanos());
                span.critical += u64::from(critical[tid as usize]);
            }
            if span.t0_ns == u64::MAX {
                span.t0_ns = 0;
            }
            self.job_spans.push(span);
            let j = &mut self.jobs[i];
            j.state = JobState::Done;
            j.fingerprint = fp;
            j.epoch = epoch;
        }
        self.epochs += 1;
        self.queued.fill(0);
        let n_tenants = self.cfg.tenants.len();
        self.hub.update(|r| {
            for t in 0..n_tenants {
                r.set_tenant_queued(t, 0);
            }
        });
        Ok(DrainSummary {
            jobs: queued.len() as u64,
            epoch,
            makespan_secs: report.makespan(),
        })
    }

    /// The journal as recorded text (header + one line per decision).
    pub fn journal_text(&self) -> String {
        render_journal(&self.journal)
    }

    /// Number of journal records, the config and tenant records
    /// included: a decision that journals something raises it.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The journal records from the `from`-th on, one line each,
    /// rendered as [`DaemonCore::journal_text`] renders them: appended
    /// to a file that holds the journal's first `from` records, they
    /// make it the whole journal.
    pub fn journal_tail(&self, from: usize) -> String {
        let mut s = String::new();
        for line in &self.journal[from..] {
            s.push_str(&line.render());
            s.push('\n');
        }
        s
    }

    /// The current Prometheus exposition (text format 0.0.4).
    pub fn metrics_text(&self) -> String {
        self.hub.expose()
    }

    /// Per-job root spans accumulated across drains, submission order.
    pub fn job_spans(&self) -> &[JobRootSpan] {
        &self.job_spans
    }

    /// The `gpuflow ctl alerts` body: current rule states, the firing
    /// timeline, and the per-job root spans. Pure read — evaluation
    /// happens only at sample boundaries inside drains, so querying
    /// never perturbs the live/replay bit-identity.
    pub fn alerts_text(&self) -> String {
        let reg = self.hub.snapshot();
        let mut s = String::from("-- alert rules --\n");
        match reg.alerts() {
            Some(eng) => {
                s.push_str(&eng.render_table());
                s.push_str("-- firing timeline --\n");
                let timeline = eng.render_timeline();
                if timeline.is_empty() {
                    s.push_str("(no transitions)\n");
                } else {
                    s.push_str(&timeline);
                }
            }
            None => s.push_str("(alerting disabled)\n"),
        }
        s.push_str("-- job root spans --\n");
        for sp in &self.job_spans {
            s.push_str(&format!(
                "job={} tenant={} epoch={} t0_ns={} t1_ns={} tasks={} critical={}\n",
                sp.job,
                self.cfg.tenants[sp.tenant].0,
                sp.epoch,
                sp.t0_ns,
                sp.t1_ns,
                sp.tasks,
                sp.critical
            ));
        }
        s
    }

    /// Human-readable queue table.
    pub fn queue_table(&self) -> String {
        let mut s = format!(
            "{:>5}  {:<12} {:<8} {:>6} {:>5} {:>11}  {:<10} {}\n",
            "job", "tenant", "shape", "tasks", "prio", "t", "state", "fingerprint"
        );
        for j in &self.jobs {
            let fp = if j.state == JobState::Done {
                format!("{:#018x}", j.fingerprint)
            } else {
                "-".to_string()
            };
            s.push_str(&format!(
                "{:>5}  {:<12} {:<8} {:>6} {:>5} {:>11}  {:<10} {}\n",
                j.id,
                self.cfg.tenants[j.tenant].0,
                j.shape.label(),
                j.tasks,
                j.prio,
                format!("{}.{:06}", j.t_us / 1_000_000, j.t_us % 1_000_000),
                j.state.label(),
                fp
            ));
        }
        s.push_str(&format!(
            "queued={} epochs={} seq={}\n",
            self.queued(),
            self.epochs,
            self.seq
        ));
        s
    }

    /// Machine-readable queue state. Fixed key set and order — the
    /// schema is pinned in `tests/schemas/queue.json`. One member or
    /// array item per line.
    pub fn queue_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(256 + 192 * self.jobs.len());
        w.lit("{\n  \"schema\": \"gpuflow.daemon.queue.v1\",\n  \"seq\": ")
            .num(self.seq)
            .lit(",\n  \"epochs\": ")
            .num(self.epochs)
            .lit(",\n  \"queued\": ")
            .num(self.queued())
            .lit(",\n  \"rejected_unattributed\": ")
            .num(self.rejects_other)
            .lit(",\n  \"tenants\": ")
            .begin("[");
        for (t, (name, weight)) in self.cfg.tenants.iter().enumerate() {
            let count = |state: Option<JobState>| {
                let of = |j: &&JobRecord| j.tenant == t && state.map_or(true, |s| j.state == s);
                self.jobs.iter().filter(of).count() as u64
            };
            w.item().lit("\n    {\"name\": ").string(name);
            w.lit(", \"weight\": ").num((*weight).into());
            w.lit(", \"queued\": ").num(self.queued_of(t));
            w.lit(", \"admitted\": ").num(count(None));
            w.lit(", \"cancelled\": ")
                .num(count(Some(JobState::Cancelled)));
            w.lit(", \"done\": ").num(count(Some(JobState::Done)));
            w.lit(", \"rejected\": ").num(self.rejects[t]).lit("}");
        }
        w.lit("\n  ").end("]").lit(",\n  \"jobs\": ").begin("[");
        for j in &self.jobs {
            w.item().lit("\n    {\"id\": ").num(j.id);
            w.lit(", \"tenant\": ")
                .string(&self.cfg.tenants[j.tenant].0);
            w.lit(", \"shape\": ").string(j.shape.label());
            w.lit(", \"tasks\": ").num(j.tasks);
            w.lit(", \"prio\": ").num(j.prio.into());
            w.lit(", \"t_us\": ").num(j.t_us);
            w.lit(", \"state\": ").string(j.state.label());
            w.lit(", \"epoch\": ").num(j.epoch);
            w.lit(", \"fingerprint\": \"0x")
                .hex(j.fingerprint, 1)
                .lit("\"}");
        }
        w.lit("\n  ").end("]").lit("\n}\n");
        w.finish()
    }

    /// The reproducibility report: one fingerprint line per executed
    /// job, then the full exposition. Comparing two reports compares
    /// the runs bit-for-bit.
    pub fn report(&self) -> String {
        let mut s = String::new();
        for j in &self.jobs {
            if j.state == JobState::Done {
                s.push_str(&format!(
                    "job={} tenant={} epoch={} fingerprint={:#018x}\n",
                    j.id, self.cfg.tenants[j.tenant].0, j.epoch, j.fingerprint
                ));
            }
        }
        s.push('\n');
        s.push_str(&self.metrics_text());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `core::fmt` body of [`DaemonCore::queue_json`] before it
    /// moved onto the runtime's byte writer.
    fn reference_queue_json(c: &DaemonCore) -> String {
        let mut s = String::from("{\n  \"schema\": \"gpuflow.daemon.queue.v1\",\n");
        s.push_str(&format!("  \"seq\": {},\n", c.seq));
        s.push_str(&format!("  \"epochs\": {},\n", c.epochs));
        s.push_str(&format!("  \"queued\": {},\n", c.queued()));
        s.push_str(&format!(
            "  \"rejected_unattributed\": {},\n",
            c.rejects_other
        ));
        s.push_str("  \"tenants\": [\n");
        for (t, (name, weight)) in c.cfg.tenants.iter().enumerate() {
            let admitted = c.jobs.iter().filter(|j| j.tenant == t).count();
            let cancelled = c
                .jobs
                .iter()
                .filter(|j| j.tenant == t && j.state == JobState::Cancelled)
                .count();
            let done = c
                .jobs
                .iter()
                .filter(|j| j.tenant == t && j.state == JobState::Done)
                .count();
            s.push_str(&format!(
                "    {{\"name\": \"{name}\", \"weight\": {weight}, \"queued\": {}, \
                 \"admitted\": {admitted}, \"cancelled\": {cancelled}, \"done\": {done}, \
                 \"rejected\": {}}}{}\n",
                c.queued_of(t),
                c.rejects[t],
                if t + 1 < c.cfg.tenants.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"jobs\": [\n");
        for (k, j) in c.jobs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": {}, \"tenant\": \"{}\", \"shape\": \"{}\", \"tasks\": {}, \
                 \"prio\": {}, \"t_us\": {}, \"state\": \"{}\", \"epoch\": {}, \
                 \"fingerprint\": \"{:#x}\"}}{}\n",
                j.id,
                c.cfg.tenants[j.tenant].0,
                j.shape.label(),
                j.tasks,
                j.prio,
                j.t_us,
                j.state.label(),
                j.epoch,
                j.fingerprint,
                if k + 1 < c.jobs.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Replays `ops` as a session: each `(op, arg, prio)` submits from
    /// a configured, unknown or malformed tenant (every reject reason),
    /// cancels a queued, finished or unknown job, or drains.
    fn session(ops: &[(u32, u64, u32)]) -> DaemonCore {
        let mut core = DaemonCore::new(small_cfg()).unwrap();
        for &op in ops {
            step(&mut core, op);
        }
        core
    }

    /// One operation of [`session`].
    fn step(core: &mut DaemonCore, (op, arg, prio): (u32, u64, u32)) {
        const TENANTS: [&str; 4] = ["acme", "beta", "nobody", "bad name"];
        match op {
            0 => {
                core.drain().unwrap();
            }
            1 => {
                let _ = core.cancel(arg % 8);
            }
            _ => {
                let tenant = TENANTS[(op as usize) % TENANTS.len()];
                let shape = JobShape::ALL[(arg % 3) as usize];
                let _ = core.submit(tenant, shape, arg % 12, prio);
            }
        }
    }

    /// Every tenant's queued count, and the total, against a scan of
    /// the job table.
    fn assert_counts_match_a_scan(core: &DaemonCore) {
        let scan = |t: usize| {
            let queued = |j: &&JobRecord| j.tenant == t && j.state == JobState::Queued;
            core.jobs().iter().filter(queued).count() as u64
        };
        for t in 0..core.config().tenants.len() {
            assert_eq!(core.queued_of(t), scan(t), "tenant {t}");
        }
        let all = core.jobs().iter().filter(|j| j.state == JobState::Queued);
        assert_eq!(core.queued(), all.count() as u64);
    }

    proptest! {
        #[test]
        fn queued_counts_match_a_scan_live_and_replayed(
            ops in prop::collection::vec((0u32..8, 0u64..64, 0u32..3), 0..24),
        ) {
            let mut live = DaemonCore::new(small_cfg()).unwrap();
            for &op in &ops {
                step(&mut live, op);
                assert_counts_match_a_scan(&live);
            }
            let replayed = DaemonCore::replay(&live.journal_text()).unwrap();
            assert_counts_match_a_scan(&replayed);
            prop_assert_eq!(replayed.journal_text(), live.journal_text());
            prop_assert_eq!(replayed.report(), live.report());
        }

        #[test]
        fn queue_json_matches_the_fmt_reference(
            ops in prop::collection::vec((0u32..8, 0u64..64, 0u32..3), 0..16),
        ) {
            let core = session(&ops);
            prop_assert_eq!(core.queue_json(), reference_queue_json(&core));
        }
    }

    #[test]
    fn queue_json_of_a_full_session_matches_the_fmt_reference() {
        let mut core = DaemonCore::new(DaemonConfig::default()).unwrap();
        assert_eq!(core.queue_json(), reference_queue_json(&core));
        for (k, tenant) in ["acme", "beta", "gamma", "acme", "nobody"]
            .iter()
            .enumerate()
        {
            let _ = core.submit(tenant, JobShape::ALL[k % 3], 8 + k as u64, k as u32);
        }
        core.drain().unwrap();
        core.submit("gamma", JobShape::Stencil, 16, 0).unwrap();
        core.submit("beta", JobShape::Tree, 0, 0).unwrap_err();
        core.cancel(5).unwrap();
        core.submit("acme", JobShape::Wide, 4, 0).unwrap();
        assert_eq!(core.queue_json(), reference_queue_json(&core));
    }

    fn small_cfg() -> DaemonConfig {
        DaemonConfig {
            tenants: vec![("acme".into(), 3), ("beta".into(), 1)],
            quota: 2,
            queue_cap: 3,
            window: 2,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn admission_control_rejects_in_order() {
        let mut core = DaemonCore::new(small_cfg()).unwrap();
        assert_eq!(core.submit("acme", JobShape::Wide, 8, 0), Ok(1));
        assert_eq!(core.submit("acme", JobShape::Wide, 8, 0), Ok(2));
        // Tenant quota (2) before global cap (3).
        assert_eq!(
            core.submit("acme", JobShape::Wide, 8, 0),
            Err(RejectReason::QuotaExceeded)
        );
        assert_eq!(core.submit("beta", JobShape::Tree, 8, 0), Ok(3));
        assert_eq!(
            core.submit("beta", JobShape::Tree, 8, 0),
            Err(RejectReason::QueueFull)
        );
        assert_eq!(
            core.submit("nobody", JobShape::Wide, 8, 0),
            Err(RejectReason::UnknownTenant)
        );
        assert_eq!(
            core.submit("bad name!", JobShape::Wide, 8, 0),
            Err(RejectReason::BadRequest)
        );
        assert_eq!(
            core.submit("acme", JobShape::Wide, 0, 0),
            Err(RejectReason::BadRequest)
        );
        assert_eq!(core.queued(), 3);
        assert_eq!(core.seq(), 8);
    }

    #[test]
    fn cancel_frees_quota_and_only_queued_jobs() {
        let mut core = DaemonCore::new(small_cfg()).unwrap();
        core.submit("acme", JobShape::Wide, 8, 0).unwrap();
        core.submit("acme", JobShape::Wide, 8, 0).unwrap();
        assert!(core.submit("acme", JobShape::Wide, 8, 0).is_err());
        core.cancel(1).unwrap();
        assert_eq!(core.submit("acme", JobShape::Wide, 8, 0), Ok(3));
        assert!(core.cancel(1).is_err(), "already cancelled");
        assert!(core.cancel(99).is_err(), "never existed");
    }

    #[test]
    fn drain_runs_queued_jobs_and_fingerprints_them() {
        let mut core = DaemonCore::new(small_cfg()).unwrap();
        core.submit("acme", JobShape::Wide, 12, 0).unwrap();
        core.submit("beta", JobShape::Stencil, 16, 2).unwrap();
        let s = core.drain().unwrap();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.epoch, 0);
        assert!(s.makespan_secs > 0.0);
        assert!(core.jobs().iter().all(|j| j.state == JobState::Done));
        assert!(core.jobs().iter().all(|j| j.fingerprint != 0));
        // Empty drain: no-op, no journal growth.
        let before = core.journal_text();
        let s2 = core.drain().unwrap();
        assert_eq!(s2.jobs, 0);
        assert_eq!(core.journal_text(), before);
    }

    #[test]
    fn drains_concatenate_epochs_monotonically() {
        let mut core = DaemonCore::new(small_cfg()).unwrap();
        core.submit("acme", JobShape::Wide, 8, 0).unwrap();
        core.drain().unwrap();
        core.submit("beta", JobShape::Tree, 9, 0).unwrap();
        core.drain().unwrap();
        assert_eq!(core.epochs(), 2);
        let exposed = core.metrics_text();
        assert!(exposed.contains("gpuflow_tenant_tasks_completed_total{tenant=\"acme\"}"));
        assert!(exposed.contains("gpuflow_tenant_tasks_completed_total{tenant=\"beta\"}"));
    }

    #[test]
    fn replay_reproduces_the_live_core_bit_identically() {
        let mut live = DaemonCore::new(small_cfg()).unwrap();
        live.submit("acme", JobShape::Wide, 12, 1).unwrap();
        live.submit("beta", JobShape::Tree, 9, 0).unwrap();
        live.submit("nobody", JobShape::Wide, 4, 0).unwrap_err();
        live.submit("acme", JobShape::Stencil, 16, 0).unwrap();
        live.cancel(2).unwrap();
        live.drain().unwrap();
        live.submit("beta", JobShape::Wide, 6, 3).unwrap();
        live.drain().unwrap();

        let replayed = DaemonCore::replay(&live.journal_text()).unwrap();
        assert_eq!(replayed.journal_text(), live.journal_text());
        assert_eq!(replayed.jobs(), live.jobs());
        assert_eq!(replayed.metrics_text(), live.metrics_text());
        assert_eq!(replayed.report(), live.report());
        assert_eq!(replayed.queue_json(), live.queue_json());
        assert_eq!(replayed.alerts_text(), live.alerts_text());
        assert_eq!(replayed.job_spans(), live.job_spans());
    }

    #[test]
    fn resume_continues_the_journal_under_its_own_header() {
        let mut live = DaemonCore::new(small_cfg()).unwrap();
        live.submit("acme", JobShape::Wide, 12, 1).unwrap();
        live.drain().unwrap();
        let mark = live.journal_len();
        live.submit("beta", JobShape::Tree, 9, 0).unwrap();
        let text = live.journal_text();
        // The tail after `mark` is what a file of the first `mark`
        // records lacks.
        let prefix = render_journal(&live.journal[..mark]);
        assert_eq!(prefix + &live.journal_tail(mark), text);

        let cfg = DaemonConfig {
            max_tasks: 10,
            ..small_cfg()
        };
        let mut resumed = DaemonCore::resume(cfg, &text).unwrap();
        assert_eq!(resumed.journal_text(), text);
        assert_eq!(resumed.report(), live.report());
        // `max_tasks` comes from the configuration, not the journal.
        assert_eq!(
            resumed.submit("acme", JobShape::Wide, 11, 0),
            Err(RejectReason::BadRequest)
        );
        assert_eq!(resumed.submit("acme", JobShape::Wide, 10, 0), Ok(3));

        let other = DaemonConfig {
            quota: small_cfg().quota + 1,
            ..small_cfg()
        };
        let err = DaemonCore::resume(other.clone(), &text).unwrap_err();
        let want = DaemonCore::new(other).unwrap().journal_text();
        assert!(
            err.contains(&format!("--- configuration ---\n{want}")),
            "{err}"
        );
        assert!(
            err.contains(&format!("--- journal ---\n{}", live.header_text())),
            "{err}"
        );
    }

    #[test]
    fn alerts_text_reports_rules_and_job_root_spans() {
        let mut core = DaemonCore::new(small_cfg()).unwrap();
        core.submit("acme", JobShape::Wide, 12, 0).unwrap();
        core.submit("beta", JobShape::Tree, 9, 0).unwrap();
        core.drain().unwrap();
        let text = core.alerts_text();
        assert!(text.contains("-- alert rules --"), "{text}");
        assert!(text.contains("queue_wait_p99"), "{text}");
        assert!(text.contains("-- firing timeline --"), "{text}");
        assert!(text.contains("-- job root spans --"), "{text}");
        assert!(text.contains("job=1 tenant=acme epoch=0"), "{text}");
        assert_eq!(core.job_spans().len(), 2);
        for sp in core.job_spans() {
            assert!(sp.t1_ns > sp.t0_ns, "root span must have extent: {sp:?}");
            assert!(sp.tasks > 0);
        }
        // Every epoch has a critical path; its tasks belong to the
        // drained jobs, so at least one root span holds critical tasks.
        assert!(core.job_spans().iter().any(|s| s.critical > 0));
        // Reading alerts must not perturb state (pure read).
        assert_eq!(text, core.alerts_text());
        // The scrape exposition carries the alerting families.
        let metrics = core.metrics_text();
        assert!(metrics.contains("gpuflow_alert_state{"), "{metrics}");
        assert!(
            metrics.contains("gpuflow:queue_wait_seconds:p99"),
            "{metrics}"
        );
        assert!(
            metrics.contains("gpuflow_queue_wait_seconds_count"),
            "{metrics}"
        );
    }

    #[test]
    fn replay_rejects_tampered_journals() {
        let mut live = DaemonCore::new(small_cfg()).unwrap();
        live.submit("acme", JobShape::Wide, 8, 0).unwrap();
        let text = live.journal_text();
        // Each tampered record is appended as the journal's last line.
        let last = text.lines().count() + 1;
        let replay = |record: &str| DaemonCore::replay(&format!("{text}{record}\n")).err();
        // Drain count that disagrees with the queue.
        assert_eq!(
            replay("drain t=0.020000 jobs=7"),
            Some(format!(
                "line {last}: drain: journal says 7 jobs but 1 are queued"
            ))
        );
        // Cancel of a job that was never submitted.
        assert_eq!(
            replay("cancel t=0.020000 job=9"),
            Some(format!("line {last}: cancel: job 9 is not queued"))
        );
        // Timestamp off the tick grid.
        assert!(replay("cancel t=0.020500 job=1").is_some());
        // A second job numbered 1, and a skipped id.
        assert_eq!(
            replay("submit t=0.020000 tenant=0 job=1 shape=wide tasks=8"),
            Some(format!(
                "line {last}: submit: job 1 is not the next job id 2"
            ))
        );
        assert_eq!(
            replay("submit t=0.020000 tenant=0 job=7 shape=wide tasks=8"),
            Some(format!(
                "line {last}: submit: job 7 is not the next job id 2"
            ))
        );
    }

    #[test]
    fn replay_rejects_a_weight_too_wide_for_its_field() {
        let core = DaemonCore::new(small_cfg()).unwrap();
        let text = core.journal_text();
        assert!(DaemonCore::replay(&text).is_ok());
        // 2^32 + 3 truncates to the recorded weight 3.
        let tampered = text.replace("weight=3", "weight=4294967299");
        assert_eq!(
            DaemonCore::replay(&tampered).err(),
            Some("line 3: tenant: weight=4294967299 is out of range".into())
        );
    }

    #[test]
    fn queue_json_has_the_pinned_shape() {
        let mut core = DaemonCore::new(small_cfg()).unwrap();
        core.submit("acme", JobShape::Wide, 8, 0).unwrap();
        let j = core.queue_json();
        for key in [
            "\"schema\": \"gpuflow.daemon.queue.v1\"",
            "\"seq\":",
            "\"epochs\":",
            "\"queued\":",
            "\"rejected_unattributed\":",
            "\"tenants\":",
            "\"jobs\":",
            "\"fingerprint\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
