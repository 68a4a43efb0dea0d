//! Declarative SLO recording + alert rules over the metrics registry.
//!
//! An [`AlertEngine`] is embedded in a
//! [`MetricsRegistry`](super::MetricsRegistry) (see
//! [`enable_alerts`](super::MetricsRegistry::enable_alerts)) and
//! evaluated at every virtual-time sample boundary the registry seals —
//! the same integer-ns cadence as the self-sampled series, so the
//! firing timeline is deterministic and byte-identical between a live
//! fold and a journal replay.
//!
//! Three rule kinds cover the daemon's SLO surface:
//!
//! * [`RuleKind::QueueWaitP99`] — the p99 of the ready→dispatch
//!   queue-wait histogram exceeds a threshold (subject `global`);
//! * [`RuleKind::RejectRate`] — admission rejects observed since the
//!   previous evaluation, one subject per reject reason;
//! * [`RuleKind::TenantStarvation`] — a tenant has queued jobs but
//!   completed no tasks since the previous evaluation, one subject per
//!   tenant.
//!
//! Each `(rule, subject)` pair runs the Prometheus-style state machine
//! *inactive → pending → firing*: the condition must hold continuously
//! for the rule's `for_ns` before the alert fires, and any evaluation
//! with the condition false resolves it. Every transition is appended
//! to a timeline; current states surface as
//! `gpuflow_alert_state{alert,severity,subject}` gauge samples
//! (0 inactive, 1 pending, 2 firing) next to the recording-rule family
//! `gpuflow:queue_wait_seconds:p99` — emitted only while an engine is
//! enabled, so every pre-alerting exposition stays byte-identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::metrics::{family, fmt_seconds, BucketHistogram};

/// Alert severity, a static label on the state family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertSeverity {
    /// Page-later: budget erosion.
    Warning,
    /// Page-now: user-visible denial of service.
    Critical,
}

impl AlertSeverity {
    /// Stable label value.
    pub fn label(self) -> &'static str {
        match self {
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }
}

/// The Prometheus-style alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition false.
    Inactive,
    /// Condition true, `for_ns` hold not yet satisfied.
    Pending,
    /// Condition held for at least `for_ns`.
    Firing,
}

impl AlertState {
    /// Gauge value on `gpuflow_alert_state`.
    pub fn gauge_value(self) -> u64 {
        match self {
            AlertState::Inactive => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        }
    }

    /// Label used in timeline lines; entering `Inactive` is rendered as
    /// `resolved` because the timeline records transitions, not states.
    pub fn transition_label(self) -> &'static str {
        match self {
            AlertState::Inactive => "resolved",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// What a rule evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// p99 of the queue-wait histogram above `threshold_ns`.
    QueueWaitP99 {
        /// Firing threshold on the p99 bucket bound, integer ns.
        threshold_ns: u64,
    },
    /// At least `min_delta` rejects (any tenant) of one reason since
    /// the previous evaluation.
    RejectRate {
        /// Minimum rejects per evaluation interval to trigger.
        min_delta: u64,
    },
    /// A tenant with queued jobs completed zero tasks since the
    /// previous evaluation.
    TenantStarvation,
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRule {
    /// Rule name (the `alert` label value).
    pub name: String,
    /// Static severity label.
    pub severity: AlertSeverity,
    /// Continuous hold required before pending becomes firing; zero
    /// fires on the first true evaluation.
    pub for_ns: u64,
    /// The evaluated condition.
    pub kind: RuleKind,
}

impl AlertRule {
    /// The standard daemon SLO rule set: queue-wait p99 over 50 ms held
    /// for 20 ms, any admission reject, and tenant starvation held for
    /// 500 ms of virtual time.
    pub fn standard() -> Vec<AlertRule> {
        vec![
            AlertRule {
                name: "queue_wait_p99".into(),
                severity: AlertSeverity::Warning,
                for_ns: 20_000_000,
                kind: RuleKind::QueueWaitP99 {
                    threshold_ns: 50_000_000,
                },
            },
            AlertRule {
                name: "reject_rate".into(),
                severity: AlertSeverity::Critical,
                for_ns: 0,
                kind: RuleKind::RejectRate { min_delta: 1 },
            },
            AlertRule {
                name: "tenant_starvation".into(),
                severity: AlertSeverity::Warning,
                for_ns: 500_000_000,
                kind: RuleKind::TenantStarvation,
            },
        ]
    }
}

/// One recorded state transition on the firing timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTransition {
    /// Evaluation boundary, absolute virtual ns.
    pub at_ns: u64,
    /// Rule name.
    pub alert: String,
    /// Rule subject (`global`, a reject reason, or a tenant name).
    pub subject: String,
    /// State entered.
    pub state: AlertState,
    /// Rule value at the transition (ns bound, delta, or queue depth;
    /// `u64::MAX` encodes an unbounded p99 and renders as `inf`).
    pub value: u64,
}

/// The registry state one evaluation reads — assembled by
/// [`MetricsRegistry`](super::MetricsRegistry) so the engine never
/// borrows the registry it is stored in.
pub(crate) struct AlertSnapshot<'a> {
    /// Evaluation boundary, absolute virtual ns.
    pub at_ns: u64,
    /// The ready→dispatch queue-wait histogram.
    pub queue_wait: &'a BucketHistogram,
    /// Cumulative rejects summed over tenants, keyed by reason.
    pub rejects: BTreeMap<String, u64>,
    /// `(name, queued jobs, cumulative completed tasks)` per tenant.
    pub tenants: Vec<(&'a str, u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubjectState {
    state: AlertState,
    pending_since_ns: u64,
    value: u64,
}

/// The rule evaluator: per-`(rule, subject)` state machines plus the
/// transition timeline. See the module docs for semantics.
#[derive(Debug, Clone, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    /// Keyed by `(rule index, subject)` — BTreeMap so exposition and
    /// iteration order are deterministic.
    states: BTreeMap<(usize, String), SubjectState>,
    timeline: Vec<AlertTransition>,
    last_rejects: BTreeMap<String, u64>,
    last_completed: BTreeMap<String, u64>,
    last_eval_ns: Option<u64>,
}

impl AlertEngine {
    /// An engine over `rules`. The queue-wait rule's `global` subject
    /// is seeded immediately so the state family is non-empty from the
    /// first scrape.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let mut eng = AlertEngine {
            rules,
            ..AlertEngine::default()
        };
        for (i, rule) in eng.rules.iter().enumerate() {
            if matches!(rule.kind, RuleKind::QueueWaitP99 { .. }) {
                eng.states.insert(
                    (i, "global".to_string()),
                    SubjectState {
                        state: AlertState::Inactive,
                        pending_since_ns: 0,
                        value: 0,
                    },
                );
            }
        }
        eng
    }

    /// The configured rules, declaration order.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// The transition timeline so far.
    pub fn timeline(&self) -> &[AlertTransition] {
        &self.timeline
    }

    /// Current `(rule, subject, state, value)` rows, deterministic
    /// `(rule index, subject)` order.
    pub fn current(&self) -> Vec<(&AlertRule, &str, AlertState, u64)> {
        self.states
            .iter()
            .map(|((i, subject), s)| (&self.rules[*i], subject.as_str(), s.state, s.value))
            .collect()
    }

    /// Evaluates every rule at boundary `at_ns`. Idempotent per
    /// boundary: repeated calls with a non-increasing timestamp are
    /// no-ops, so seal-time flushes never double-fire.
    pub(crate) fn step(&mut self, snap: &AlertSnapshot<'_>) {
        if self.last_eval_ns.is_some_and(|t| snap.at_ns <= t) {
            return;
        }
        for i in 0..self.rules.len() {
            match self.rules[i].kind {
                RuleKind::QueueWaitP99 { threshold_ns } => {
                    let value = snap
                        .queue_wait
                        .quantile_bound_ns(99, 100)
                        .unwrap_or_default();
                    let cond = snap.queue_wait.count() > 0 && value > threshold_ns;
                    self.apply(i, "global", cond, value, snap.at_ns);
                }
                RuleKind::RejectRate { min_delta } => {
                    let reasons: Vec<String> = snap.rejects.keys().cloned().collect();
                    for reason in reasons {
                        let cur = snap.rejects[&reason];
                        let prev = self.last_rejects.get(&reason).copied().unwrap_or(0);
                        let delta = cur.saturating_sub(prev);
                        self.apply(i, &reason, delta >= min_delta, delta, snap.at_ns);
                    }
                }
                RuleKind::TenantStarvation => {
                    for (name, queued, completed) in &snap.tenants {
                        let prev = self.last_completed.get(*name).copied().unwrap_or(0);
                        let cond = *queued > 0 && completed.saturating_sub(prev) == 0;
                        self.apply(i, name, cond, *queued, snap.at_ns);
                    }
                }
            }
        }
        self.last_rejects = snap.rejects.clone();
        self.last_completed = snap
            .tenants
            .iter()
            .map(|(name, _, completed)| (name.to_string(), *completed))
            .collect();
        self.last_eval_ns = Some(snap.at_ns);
    }

    fn apply(&mut self, rule: usize, subject: &str, cond: bool, value: u64, at_ns: u64) {
        let for_ns = self.rules[rule].for_ns;
        let key = (rule, subject.to_string());
        let s = self.states.entry(key).or_insert(SubjectState {
            state: AlertState::Inactive,
            pending_since_ns: 0,
            value: 0,
        });
        s.value = value;
        let next = match (s.state, cond) {
            (AlertState::Inactive, true) => {
                s.pending_since_ns = at_ns;
                if for_ns == 0 {
                    Some(AlertState::Firing)
                } else {
                    Some(AlertState::Pending)
                }
            }
            (AlertState::Pending, true) => {
                if at_ns.saturating_sub(s.pending_since_ns) >= for_ns {
                    Some(AlertState::Firing)
                } else {
                    None
                }
            }
            (AlertState::Firing, true) | (AlertState::Inactive, false) => None,
            (AlertState::Pending, false) | (AlertState::Firing, false) => {
                Some(AlertState::Inactive)
            }
        };
        if let Some(state) = next {
            s.state = state;
            self.timeline.push(AlertTransition {
                at_ns,
                alert: self.rules[rule].name.clone(),
                subject: subject.to_string(),
                state,
                value,
            });
        }
    }

    /// Renders the firing timeline, one transition per line in
    /// evaluation order.
    pub fn render_timeline(&self) -> String {
        let mut o = String::new();
        for t in &self.timeline {
            let _ = writeln!(
                o,
                "t={} alert={} subject={} state={} value={}",
                fmt_seconds(t.at_ns),
                t.alert,
                t.subject,
                t.state.transition_label(),
                render_value(t.value)
            );
        }
        o
    }

    /// Renders the current state table (the `gpuflow ctl alerts` body).
    pub fn render_table(&self) -> String {
        let mut o =
            String::from("alert                subject         severity  state     value\n");
        for (rule, subject, state, value) in self.current() {
            let _ = writeln!(
                o,
                "{:<20} {:<15} {:<9} {:<9} {}",
                rule.name,
                subject,
                rule.severity.label(),
                state.transition_label(),
                render_value(value)
            );
        }
        o
    }

    /// Appends the `gpuflow_alert_state` family to an exposition.
    pub(crate) fn expose_state(&self, o: &mut String) {
        let rows = self.current().into_iter().map(|(rule, subject, state, _)| {
            let severity = rule.severity.label();
            let labels = [
                ("alert", rule.name.as_str()),
                ("severity", severity),
                ("subject", subject),
            ];
            (labels, state.gauge_value())
        });
        family(
            o,
            "gpuflow_alert_state",
            "Alert rule state (0 inactive, 1 pending, 2 firing).",
            "gauge",
            rows,
        );
    }
}

/// `u64::MAX` marks an unbounded (+Inf-bucket) p99.
fn render_value(v: u64) -> String {
    if v == u64::MAX {
        "inf".to_string()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values_ns: &[u64]) -> BucketHistogram {
        let mut h = BucketHistogram::default();
        for &v in values_ns {
            h.observe_ns(v);
        }
        h
    }

    #[test]
    fn queue_wait_rule_walks_pending_then_firing() {
        let mut eng = AlertEngine::new(vec![AlertRule {
            name: "qw".into(),
            severity: AlertSeverity::Warning,
            for_ns: 20,
            kind: RuleKind::QueueWaitP99 { threshold_ns: 1 },
        }]);
        let slow = hist(&[1_000_000_000]);
        for at in [10u64, 20, 30] {
            eng.step(&AlertSnapshot {
                at_ns: at,
                queue_wait: &slow,
                rejects: BTreeMap::new(),
                tenants: Vec::new(),
            });
        }
        let states: Vec<&str> = eng
            .timeline()
            .iter()
            .map(|t| t.state.transition_label())
            .collect();
        assert_eq!(states, vec!["pending", "firing"]);
        let calm = BucketHistogram::default();
        eng.step(&AlertSnapshot {
            at_ns: 40,
            queue_wait: &calm,
            rejects: BTreeMap::new(),
            tenants: Vec::new(),
        });
        assert_eq!(eng.timeline().last().unwrap().state, AlertState::Inactive);
    }

    #[test]
    fn reject_rule_fires_on_delta_and_resolves() {
        let mut eng = AlertEngine::new(vec![AlertRule {
            name: "rej".into(),
            severity: AlertSeverity::Critical,
            for_ns: 0,
            kind: RuleKind::RejectRate { min_delta: 1 },
        }]);
        let h = BucketHistogram::default();
        let mut rejects = BTreeMap::new();
        rejects.insert("quota".to_string(), 2u64);
        eng.step(&AlertSnapshot {
            at_ns: 10,
            queue_wait: &h,
            rejects: rejects.clone(),
            tenants: Vec::new(),
        });
        // Cumulative count unchanged → delta 0 → resolved.
        eng.step(&AlertSnapshot {
            at_ns: 20,
            queue_wait: &h,
            rejects,
            tenants: Vec::new(),
        });
        let states: Vec<(&str, &str)> = eng
            .timeline()
            .iter()
            .map(|t| (t.subject.as_str(), t.state.transition_label()))
            .collect();
        assert_eq!(states, vec![("quota", "firing"), ("quota", "resolved")]);
    }

    #[test]
    fn starvation_needs_the_continuous_hold() {
        let mut eng = AlertEngine::new(vec![AlertRule {
            name: "starve".into(),
            severity: AlertSeverity::Warning,
            for_ns: 100,
            kind: RuleKind::TenantStarvation,
        }]);
        let h = BucketHistogram::default();
        // Queued but idle from t=10; completes a task at t=60; idle again.
        eng.step(&AlertSnapshot {
            at_ns: 10,
            queue_wait: &h,
            rejects: BTreeMap::new(),
            tenants: vec![("acme", 1, 0)],
        });
        eng.step(&AlertSnapshot {
            at_ns: 60,
            queue_wait: &h,
            rejects: BTreeMap::new(),
            tenants: vec![("acme", 1, 1)],
        });
        eng.step(&AlertSnapshot {
            at_ns: 70,
            queue_wait: &h,
            rejects: BTreeMap::new(),
            tenants: vec![("acme", 1, 1)],
        });
        eng.step(&AlertSnapshot {
            at_ns: 200,
            queue_wait: &h,
            rejects: BTreeMap::new(),
            tenants: vec![("acme", 1, 1)],
        });
        let states: Vec<&str> = eng
            .timeline()
            .iter()
            .map(|t| t.state.transition_label())
            .collect();
        // pending(10) → resolved(60, progress) → pending(70) → firing(200).
        assert_eq!(states, vec!["pending", "resolved", "pending", "firing"]);
    }

    #[test]
    fn step_is_idempotent_per_boundary() {
        let mut eng = AlertEngine::new(AlertRule::standard());
        let slow = hist(&[9_000_000_000]);
        for _ in 0..3 {
            eng.step(&AlertSnapshot {
                at_ns: 50,
                queue_wait: &slow,
                rejects: BTreeMap::new(),
                tenants: Vec::new(),
            });
        }
        assert_eq!(eng.timeline().len(), 1);
    }

    #[test]
    fn exposition_rows_are_deterministic() {
        let mut eng = AlertEngine::new(AlertRule::standard());
        let h = BucketHistogram::default();
        let mut rejects = BTreeMap::new();
        rejects.insert("queue-full".to_string(), 1u64);
        eng.step(&AlertSnapshot {
            at_ns: 10,
            queue_wait: &h,
            rejects,
            tenants: vec![("acme", 1, 0), ("beta", 0, 0)],
        });
        let mut a = String::new();
        eng.expose_state(&mut a);
        let mut b = String::new();
        eng.expose_state(&mut b);
        assert_eq!(a, b);
        assert!(a.contains("gpuflow_alert_state{alert=\"queue_wait_p99\",severity=\"warning\",subject=\"global\"} 0"));
        assert!(a.contains("alert=\"reject_rate\",severity=\"critical\",subject=\"queue-full\"} 2"));
    }
}
