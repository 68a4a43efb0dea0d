//! The bottleneck doctor — Jain-style automated diagnosis of one run.
//!
//! Jain's systematic performance-analysis method (the paper's stated
//! methodology, §4.1) turns raw measurements into *findings*: name the
//! dominant resource, quantify its share, and propose the experiment
//! that would relieve it. [`DoctorReport::diagnose`] applies that
//! method to a [`RunProfile`]: a fixed rule set over the overhead
//! partition, resource-wastage measure, cache behaviour, per-node load
//! spread, and (de)serialization shares — each rule firing with the
//! evidence that triggered it. Callers with access to the advisor crate
//! can attach simulation-backed [`WhatIf`] predictions ("2× grid
//! dimension → predicted makespan …"), which the report ranks by
//! predicted gain.
//!
//! Every rule reads integer nanosecond fields of the profile, so the
//! report text is deterministic for a fixed seed.

use std::fmt::Write as _;

use gpuflow_runtime::{JsonWriter, RunProfile};

/// How urgent a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational observation.
    Info,
    /// Worth investigating.
    Warning,
    /// Dominates the makespan.
    Critical,
}

impl Severity {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One diagnosed bottleneck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Urgency.
    pub severity: Severity,
    /// Stable machine-readable code (`transfer-bound`, `gpu-starved`,
    /// …).
    pub code: &'static str,
    /// Human-readable diagnosis.
    pub message: String,
    /// The measurement that triggered the rule.
    pub evidence: String,
}

/// A simulation-backed counterfactual: what the makespan would be under
/// one factor change. Produced by callers with access to the advisor
/// (the `gpuflow doctor` CLI); [`DoctorReport`] only ranks and renders
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// The factor change, e.g. `grid 4 -> 8`.
    pub change: String,
    /// The observed makespan, seconds.
    pub baseline_makespan: f64,
    /// The predicted makespan under the change, seconds.
    pub predicted_makespan: f64,
}

impl WhatIf {
    /// Predicted relative gain in percent (positive = faster).
    pub fn gain_pct(&self) -> f64 {
        if self.baseline_makespan <= 0.0 {
            return 0.0;
        }
        100.0 * (self.baseline_makespan - self.predicted_makespan) / self.baseline_makespan
    }
}

/// Share thresholds of the diagnosis rules, in percent of makespan.
mod thresholds {
    /// Data movement above this share is a warning …
    pub const TRANSFER_WARN: u64 = 25;
    /// … and above this share dominates the run.
    pub const TRANSFER_CRIT: u64 = 50;
    /// (De)serialization share of the makespan worth flagging.
    pub const SERDE_WARN: u64 = 20;
    /// Idle share indicating dependency stalls.
    pub const IDLE_WARN: u64 = 30;
    /// Master share indicating scheduler-bound execution.
    pub const MASTER_WARN: u64 = 10;
    /// Any recovery time at all is worth reporting; above this share it
    /// is a warning.
    pub const RECOVERY_WARN: u64 = 5;
    /// CPU-busy-while-GPU-idle share of the makespan (§1's wastage).
    pub const WASTAGE_WARN: u64 = 20;
    /// Cache miss percentage across lookups.
    pub const CACHE_MISS_WARN: u64 = 50;
    /// Busiest node : least-busy node ratio flagging load imbalance.
    pub const IMBALANCE_RATIO: u64 = 2;
}

/// The full diagnosis of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorReport {
    /// Label of the diagnosed run.
    pub label: String,
    /// Its makespan, ns.
    pub makespan_ns: u64,
    /// Findings in severity order (most severe first; rule order within
    /// a severity).
    pub findings: Vec<Finding>,
    /// Counterfactual predictions ranked by gain (best first).
    pub whatifs: Vec<WhatIf>,
}

impl DoctorReport {
    /// Runs the rule set over a profile.
    pub fn diagnose(profile: &RunProfile) -> DoctorReport {
        use thresholds::*;
        let ms = profile.makespan_ns.max(1);
        let share = |ns: u64| ns * 100 / ms;
        let pct = |ns: u64| ns as f64 * 100.0 / ms as f64;
        let secs = |ns: u64| ns as f64 / 1e9;
        let mut findings = Vec::new();

        // Rule 1 — transfer-bound (O2/O3: data movement can overwhelm
        // the accelerator's compute advantage).
        let dm = share(profile.data_movement_ns);
        if dm >= TRANSFER_WARN {
            let severity = if dm >= TRANSFER_CRIT {
                Severity::Critical
            } else {
                Severity::Warning
            };
            let top = profile
                .per_type
                .iter()
                .max_by_key(|(_, t)| t.transfer_ns)
                .map(|(name, t)| format!(", heaviest mover: {name} ({:.3} s)", secs(t.transfer_ns)))
                .unwrap_or_default();
            findings.push(Finding {
                severity,
                code: "transfer-bound",
                message: "data movement dominates on the critical timeline; \
                          larger blocks or node-local storage amortize it"
                    .into(),
                evidence: format!(
                    "data-movement bucket {:.3} s = {:.1} % of makespan{top}",
                    secs(profile.data_movement_ns),
                    pct(profile.data_movement_ns),
                ),
            });
        }

        // Rule 2 — (de)serialization share of total task time (the
        // stacked-bar view of Fig. 7; stage sums are cumulative across
        // concurrent tasks, so the denominator is task time, not the
        // makespan). The paper's O2: serde costs scale with task count,
        // so coarser granularity amortizes them.
        // lint: allow(T1, per-stage sums are each bounded by the makespan; the u64 total cannot overflow)
        let serde_ns: u64 = profile
            .per_type
            .values()
            .map(|t| t.deser_ns + t.ser_ns)
            .sum();
        // lint: allow(T1, per-stage sums are each bounded by the makespan; the u64 total cannot overflow)
        let task_time_ns: u64 = profile
            .per_type
            .values()
            .map(|t| t.deser_ns + t.ser_ns + t.serial_ns + t.parallel_ns + t.comm_ns)
            .sum();
        // lint: allow(T1, serde_ns is bounded by the makespan, so *100 fits u64 with headroom)
        if task_time_ns > 0 && serde_ns * 100 / task_time_ns >= SERDE_WARN {
            findings.push(Finding {
                severity: Severity::Warning,
                code: "serde-bound",
                message: "(de)serialization consumes a large share of total task time; \
                          a coarser grid (fewer, larger tasks) amortizes per-task costs"
                    .into(),
                evidence: format!(
                    "{:.3} s of {:.3} s total task time = {} % across {} tasks",
                    secs(serde_ns),
                    secs(task_time_ns),
                    // lint: allow(T1, serde_ns is bounded by the makespan, so *100 fits u64 with headroom)
                    serde_ns * 100 / task_time_ns,
                    profile.tasks
                ),
            });
        }

        // Rule 3 — GPU starvation: the §1 wastage measure ("CPUs busy
        // while the GPUs stay idle"). Only meaningful when the run
        // actually targets GPUs — on a CPU run every busy instant is
        // trivially "GPU idle".
        let on_gpu = profile
            .factors
            .get("processor")
            .is_some_and(|p| p.eq_ignore_ascii_case("gpu"));
        if on_gpu && share(profile.wastage_ns) >= WASTAGE_WARN {
            findings.push(Finding {
                severity: Severity::Warning,
                code: "gpu-starved",
                message: "CPUs are busy while every GPU sits idle — the wastage \
                          situation of §1; check transfer overlap and grid dimension"
                    .into(),
                evidence: format!(
                    "wastage {:.3} s = {:.1} % of makespan",
                    secs(profile.wastage_ns),
                    pct(profile.wastage_ns)
                ),
            });
        }

        // Rule 4 — dependency stalls.
        if share(profile.idle_ns) >= IDLE_WARN {
            let chain = profile
                .critical_path
                .iter()
                .max_by_key(|s| s.span_ns)
                .map(|s| {
                    format!(
                        ", longest path segment: {} ({} hops, {:.3} s)",
                        s.task_type,
                        s.hops,
                        secs(s.span_ns)
                    )
                })
                .unwrap_or_default();
            findings.push(Finding {
                severity: Severity::Warning,
                code: "dependency-stalled",
                message: "the cluster idles while the DAG serializes on a chain; \
                          wider grids or a deeper ready queue add parallel slack"
                    .into(),
                evidence: format!(
                    "idle bucket {:.3} s = {:.1} % of makespan{chain}",
                    secs(profile.idle_ns),
                    pct(profile.idle_ns)
                ),
            });
        }

        // Rule 5 — scheduler-bound (master overhead on the critical
        // timeline grows with task count).
        if share(profile.master_ns) >= MASTER_WARN {
            findings.push(Finding {
                severity: Severity::Warning,
                code: "scheduler-bound",
                message: "master decision time is exposed on the critical timeline; \
                          fewer, coarser tasks reduce decision count"
                    .into(),
                evidence: format!(
                    "master bucket {:.3} s = {:.1} % across {} decisions",
                    secs(profile.master_ns),
                    pct(profile.master_ns),
                    profile.decisions
                ),
            });
        }

        // Rule 6 — fault recovery.
        if profile.recovery_ns > 0 {
            let severity = if share(profile.recovery_ns) >= RECOVERY_WARN {
                Severity::Warning
            } else {
                Severity::Info
            };
            findings.push(Finding {
                severity,
                code: "recovery-overhead",
                message: "part of the makespan went to fault recovery \
                          (wasted attempts and retry backoff)"
                    .into(),
                evidence: format!(
                    "recovery bucket {:.3} s = {:.1} % of makespan",
                    secs(profile.recovery_ns),
                    pct(profile.recovery_ns)
                ),
            });
        }

        // Rule 7 — cold cache under heavy data movement.
        let lookups = profile.cache_hits + profile.cache_misses;
        if let Some(miss_pct) = (profile.cache_misses * 100).checked_div(lookups) {
            if miss_pct >= CACHE_MISS_WARN && dm >= SERDE_WARN {
                findings.push(Finding {
                    severity: Severity::Warning,
                    code: "cache-cold",
                    message: "worker caches miss more than they hit while data movement \
                              is significant; a locality-aware policy keeps blocks resident"
                        .into(),
                    evidence: format!(
                        "{} misses / {} lookups = {} % miss rate",
                        profile.cache_misses, lookups, miss_pct
                    ),
                });
            }
        }

        // Rule 8 — load imbalance across nodes.
        let busy: Vec<u64> = profile.resources.values().map(|r| r.busy_ns).collect();
        if let (Some(&max), Some(&min)) = (busy.iter().max(), busy.iter().min()) {
            if busy.len() > 1 && max >= min.saturating_mul(IMBALANCE_RATIO) && max > 0 {
                let hottest = profile
                    .resources
                    .iter()
                    .max_by_key(|(node, r)| (r.busy_ns, std::cmp::Reverse(**node)))
                    .map(|(node, _)| *node)
                    .unwrap_or(0);
                findings.push(Finding {
                    severity: Severity::Warning,
                    code: "load-imbalance",
                    message: "work concentrates on a subset of nodes; \
                              locality scheduling or more blocks spread the load"
                        .into(),
                    evidence: format!(
                        "busiest node {hottest} {:.3} s vs least busy {:.3} s (>= {IMBALANCE_RATIO}x)",
                        secs(max),
                        secs(min)
                    ),
                });
            }
        }

        // Always state the headline attribution so a healthy run still
        // reports something.
        findings.push(Finding {
            severity: Severity::Info,
            code: "attribution",
            message: "makespan attribution across the five overhead buckets".into(),
            evidence: format!(
                "compute {:.1} %, data movement {:.1} %, recovery {:.1} %, master {:.1} %, idle {:.1} %",
                pct(profile.compute_ns),
                pct(profile.data_movement_ns),
                pct(profile.recovery_ns),
                pct(profile.master_ns),
                pct(profile.idle_ns)
            ),
        });

        // Severity order, stable within a severity (rule order).
        findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
        DoctorReport {
            label: profile.label.clone(),
            makespan_ns: profile.makespan_ns,
            findings,
            whatifs: Vec::new(),
        }
    }

    /// Attaches counterfactual predictions, ranked best gain first
    /// (ties keep insertion order).
    pub fn with_whatifs(mut self, mut whatifs: Vec<WhatIf>) -> Self {
        whatifs.sort_by(|a, b| {
            b.gain_pct()
                .partial_cmp(&a.gain_pct())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.whatifs = whatifs;
        self
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "doctor report: {}", self.label);
        let _ = writeln!(out, "makespan: {:.6} s", self.makespan_ns as f64 / 1e9);
        let _ = writeln!(out, "\nfindings:");
        for f in &self.findings {
            let _ = writeln!(out, "  [{}] {}: {}", f.severity.label(), f.code, f.message);
            let _ = writeln!(out, "      evidence: {}", f.evidence);
        }
        if !self.whatifs.is_empty() {
            let _ = writeln!(out, "\nwhat-if predictions (simulated):");
            for w in &self.whatifs {
                let _ = writeln!(
                    out,
                    "  {:<24} predicted {:.6} s ({:+.1} % vs observed)",
                    w.change,
                    w.predicted_makespan,
                    -w.gain_pct()
                );
            }
        }
        out
    }

    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(512);
        w.begin("{").key("label").string(&self.label);
        w.field("makespan_ns", self.makespan_ns);
        w.key("findings").array(&self.findings, |w, f| {
            w.begin("{").key("severity").string(f.severity.label());
            w.key("code")
                .string(f.code)
                .key("message")
                .string(&f.message);
            w.key("evidence").string(&f.evidence).end("}");
        });
        w.key("whatifs").array(&self.whatifs, |w, x| {
            w.begin("{").key("change").string(&x.change);
            w.key("baseline_s").float(x.baseline_makespan);
            w.key("predicted_s").float(x.predicted_makespan).end("}");
        });
        w.end("}");
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_runtime::ResourceProfile;

    /// A profile with a chosen bucket split (ns) over a 100-unit grid.
    fn profile(compute: u64, dm: u64, recovery: u64, master: u64, idle: u64) -> RunProfile {
        RunProfile {
            label: "test run".into(),
            makespan_ns: compute + dm + recovery + master + idle,
            tasks: 10,
            decisions: 10,
            compute_ns: compute,
            data_movement_ns: dm,
            recovery_ns: recovery,
            master_ns: master,
            idle_ns: idle,
            ..RunProfile::default()
        }
    }

    #[test]
    fn healthy_run_reports_only_attribution() {
        let r = DoctorReport::diagnose(&profile(90, 5, 0, 2, 3));
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code, "attribution");
        assert_eq!(r.findings[0].severity, Severity::Info);
    }

    #[test]
    fn transfer_dominated_run_is_critical() {
        let r = DoctorReport::diagnose(&profile(30, 60, 0, 5, 5));
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "transfer-bound")
            .unwrap();
        assert_eq!(f.severity, Severity::Critical);
        assert!(f.evidence.contains("60.0 %"), "{}", f.evidence);
        // Critical findings sort first.
        assert_eq!(r.findings[0].code, "transfer-bound");
    }

    #[test]
    fn idle_master_and_recovery_rules_fire() {
        let r = DoctorReport::diagnose(&profile(40, 0, 10, 15, 35));
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        for code in ["dependency-stalled", "scheduler-bound", "recovery-overhead"] {
            assert!(codes.contains(&code), "missing {code} in {codes:?}");
        }
    }

    #[test]
    fn serde_share_uses_task_time_not_makespan() {
        use gpuflow_runtime::TaskTypeProfile;
        // 40 % of total task time in (de)serialization fires the rule
        // even when the concurrent stage sums dwarf the makespan.
        let mut p = profile(90, 5, 0, 0, 5);
        p.per_type.insert(
            "mm".into(),
            TaskTypeProfile {
                deser_ns: 300,
                ser_ns: 100,
                parallel_ns: 600,
                ..TaskTypeProfile::default()
            },
        );
        let r = DoctorReport::diagnose(&p);
        let f = r.findings.iter().find(|f| f.code == "serde-bound").unwrap();
        assert!(f.evidence.contains("40 %"), "{}", f.evidence);
        // Compute-dominated task time stays quiet.
        p.per_type.get_mut("mm").unwrap().parallel_ns = 10_000;
        assert!(!DoctorReport::diagnose(&p)
            .findings
            .iter()
            .any(|f| f.code == "serde-bound"));
    }

    #[test]
    fn wastage_flags_gpu_starvation_only_on_gpu_runs() {
        let mut p = profile(80, 10, 0, 5, 5);
        p.wastage_ns = 30;
        p.factors.insert("processor".into(), "GPU".into());
        let r = DoctorReport::diagnose(&p);
        assert!(r.findings.iter().any(|f| f.code == "gpu-starved"));
        // A CPU run is trivially "GPU idle" — the rule must stay quiet.
        p.factors.insert("processor".into(), "CPU".into());
        let r = DoctorReport::diagnose(&p);
        assert!(!r.findings.iter().any(|f| f.code == "gpu-starved"));
    }

    #[test]
    fn load_imbalance_needs_two_nodes_and_a_gap() {
        let mut p = profile(90, 0, 0, 0, 10);
        p.resources.insert(
            0,
            ResourceProfile {
                busy_ns: 90,
                intervals: 1,
            },
        );
        p.resources.insert(
            1,
            ResourceProfile {
                busy_ns: 30,
                intervals: 1,
            },
        );
        let r = DoctorReport::diagnose(&p);
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "load-imbalance")
            .unwrap();
        assert!(f.evidence.contains("node 0"), "{}", f.evidence);
        // Balanced nodes stay quiet.
        let mut q = profile(90, 0, 0, 0, 10);
        q.resources.insert(
            0,
            ResourceProfile {
                busy_ns: 60,
                intervals: 1,
            },
        );
        q.resources.insert(
            1,
            ResourceProfile {
                busy_ns: 50,
                intervals: 1,
            },
        );
        assert!(!DoctorReport::diagnose(&q)
            .findings
            .iter()
            .any(|f| f.code == "load-imbalance"));
    }

    #[test]
    fn whatifs_rank_by_gain() {
        let r = DoctorReport::diagnose(&profile(100, 0, 0, 0, 0)).with_whatifs(vec![
            WhatIf {
                change: "grid 4 -> 2".into(),
                baseline_makespan: 1.0,
                predicted_makespan: 1.2,
            },
            WhatIf {
                change: "grid 4 -> 8".into(),
                baseline_makespan: 1.0,
                predicted_makespan: 0.5,
            },
        ]);
        assert_eq!(r.whatifs[0].change, "grid 4 -> 8");
        assert!((r.whatifs[0].gain_pct() - 50.0).abs() < 1e-9);
        assert!(r.whatifs[1].gain_pct() < 0.0);
    }

    #[test]
    fn render_and_json_are_complete() {
        let r = DoctorReport::diagnose(&profile(30, 60, 0, 5, 5)).with_whatifs(vec![WhatIf {
            change: "storage shared -> local".into(),
            baseline_makespan: 1.0,
            predicted_makespan: 0.8,
        }]);
        let text = r.render();
        assert!(text.contains("doctor report"));
        assert!(text.contains("transfer-bound"));
        assert!(text.contains("what-if"));
        let json = r.to_json();
        assert!(json.contains("\"code\":\"transfer-bound\""));
        assert!(json.contains("\"change\":\"storage shared -> local\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut p = profile(30, 60, 0, 5, 5);
        p.label = "a\"b\\c\td\u{1}".into();
        let json = DoctorReport::diagnose(&p).to_json();
        assert!(
            json.starts_with("{\"label\":\"a\\\"b\\\\c\\td\\u0001\","),
            "{json}"
        );
    }
}
