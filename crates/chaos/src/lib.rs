//! # gpuflow-chaos — deterministic fault injection for the simulated runtime
//!
//! The paper's analysis assumes a healthy cluster; production GPU fleets
//! do not cooperate. This crate describes *fault plans*: seed-driven,
//! virtual-time-scheduled perturbations — node crashes (permanent or
//! transient), single-GPU failures, straggler slowdowns, link
//! degradation, and per-task-type transient failure probabilities — that
//! the runtime executor compiles into its discrete-event schedule.
//!
//! Determinism is the design constraint everything else bends around:
//!
//! * discrete faults (crashes, rejoins, GPU losses) are fixed points in
//!   *virtual* time, scheduled before the first task event, so they
//!   interleave identically on every host and at every sweep thread
//!   count;
//! * transient task failures are decided by a stateless keyed hash of
//!   `(plan seed, task id, attempt)` — no shared RNG stream is consumed,
//!   so a plan with zero probabilities leaves the executor's jitter
//!   sequence (and therefore every simulated timestamp) byte-identical
//!   to a run with no plan at all;
//! * continuous perturbations (stragglers, link degradation) are pure
//!   functions of the simulation clock, evaluated at stage/flow start.
//!
//! Recovery behaviour lives on the runtime side ([`RecoveryPolicy`]
//! configures it): bounded retries with exponential backoff in virtual
//! time, resubmission away from the failing node, lineage-based
//! regeneration of blocks lost with a node, and GPU→CPU degradation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;

/// A node crash at a virtual-time instant, optionally rejoining later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCrash {
    /// The node that dies.
    pub node: usize,
    /// Crash instant, seconds of virtual time.
    pub at_secs: f64,
    /// Seconds after the crash at which the node rejoins (empty caches,
    /// empty local disk), or `None` for a permanent loss.
    pub rejoin_after_secs: Option<f64>,
}

/// A single GPU device failing on a node (the node stays up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuFailure {
    /// The node losing one device.
    pub node: usize,
    /// Failure instant, seconds of virtual time.
    pub at_secs: f64,
}

/// A multiplicative slowdown window on one node's compute and
/// (de)serialization stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// The affected node.
    pub node: usize,
    /// Window start, seconds.
    pub at_secs: f64,
    /// Window end, seconds.
    pub until_secs: f64,
    /// Duration multiplier for stages *starting* inside the window
    /// (must be >= 1).
    pub factor: f64,
}

/// A cluster-wide link degradation window: flows started inside it move
/// their bytes `factor` times slower (storage, network, and PCIe alike).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// Window start, seconds.
    pub at_secs: f64,
    /// Window end, seconds.
    pub until_secs: f64,
    /// Effective bandwidth divisor for flows starting inside the window
    /// (must be >= 1).
    pub factor: f64,
}

/// A transient failure probability for a task type.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFailureRate {
    /// Task type the probability applies to; `None` matches every type.
    pub task_type: Option<String>,
    /// Per-attempt failure probability in `[0, 1)`, sampled at the end
    /// of the task's compute stage via a keyed hash (see
    /// [`transient_failure`]).
    pub probability: f64,
}

/// The fault kinds of the [`FaultPlan::parse`] grammar, each with the
/// keys its clauses take (`seed:N` takes a bare integer).
const CLAUSE_KEYS: [(&str, &[&str]); 5] = [
    ("crash", &["node", "at", "rejoin"]),
    ("gpufail", &["node", "at"]),
    ("straggle", &["node", "at", "until", "factor"]),
    ("linkdeg", &["at", "until", "factor"]),
    ("taskfail", &["type", "p"]),
];

/// A complete, deterministic fault plan for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed keying the transient-failure hash (independent of the run's
    /// jitter seed).
    pub seed: u64,
    /// Node crashes.
    pub node_crashes: Vec<NodeCrash>,
    /// Single-GPU failures.
    pub gpu_failures: Vec<GpuFailure>,
    /// Straggler windows.
    pub stragglers: Vec<Straggler>,
    /// Link degradation windows.
    pub link_degradations: Vec<LinkDegradation>,
    /// Per-task-type transient failure probabilities.
    pub task_failures: Vec<TaskFailureRate>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; a run with it is byte-identical
    /// to a run without any plan).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Adds a node crash.
    pub fn with_node_crash(mut self, node: usize, at_secs: f64, rejoin_after: Option<f64>) -> Self {
        self.node_crashes.push(NodeCrash {
            node,
            at_secs,
            rejoin_after_secs: rejoin_after,
        });
        self
    }

    /// Adds a single-GPU failure.
    pub fn with_gpu_failure(mut self, node: usize, at_secs: f64) -> Self {
        self.gpu_failures.push(GpuFailure { node, at_secs });
        self
    }

    /// Adds a straggler window.
    pub fn with_straggler(mut self, node: usize, at: f64, until: f64, factor: f64) -> Self {
        self.stragglers.push(Straggler {
            node,
            at_secs: at,
            until_secs: until,
            factor,
        });
        self
    }

    /// Adds a link degradation window.
    pub fn with_link_degradation(mut self, at: f64, until: f64, factor: f64) -> Self {
        self.link_degradations.push(LinkDegradation {
            at_secs: at,
            until_secs: until,
            factor,
        });
        self
    }

    /// Adds a transient failure probability (`task_type = None` matches
    /// every type).
    pub fn with_task_failures(mut self, task_type: Option<&str>, probability: f64) -> Self {
        self.task_failures.push(TaskFailureRate {
            task_type: task_type.map(str::to_string),
            probability,
        });
        self
    }

    /// Whether the plan perturbs anything at all.
    pub fn is_empty(&self) -> bool {
        self.node_crashes.is_empty()
            && self.gpu_failures.is_empty()
            && self.stragglers.is_empty()
            && self.link_degradations.is_empty()
            && self.task_failures.iter().all(|t| t.probability <= 0.0)
    }

    /// Validates the plan against a cluster of `nodes` nodes.
    ///
    /// # Errors
    /// Returns every inconsistency found (bad node indices, negative
    /// times, factors below 1, probabilities outside `[0, 1)`).
    pub fn validate(&self, nodes: usize) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        for c in &self.node_crashes {
            if c.node >= nodes {
                errs.push(format!(
                    "crash on node {} of a {nodes}-node cluster",
                    c.node
                ));
            }
            if !c.at_secs.is_finite() || c.at_secs < 0.0 {
                errs.push(format!("crash time {} is not a valid instant", c.at_secs));
            }
            if let Some(r) = c.rejoin_after_secs {
                if !r.is_finite() || r <= 0.0 {
                    errs.push(format!("rejoin delay {r} must be positive"));
                }
            }
        }
        for g in &self.gpu_failures {
            if g.node >= nodes {
                errs.push(format!(
                    "GPU failure on node {} of a {nodes}-node cluster",
                    g.node
                ));
            }
            if !g.at_secs.is_finite() || g.at_secs < 0.0 {
                errs.push(format!("GPU failure time {} is invalid", g.at_secs));
            }
        }
        for s in &self.stragglers {
            if s.node >= nodes {
                errs.push(format!(
                    "straggler on node {} of a {nodes}-node cluster",
                    s.node
                ));
            }
            if !s.factor.is_finite() || s.factor < 1.0 {
                errs.push(format!("straggler factor {} must be >= 1", s.factor));
            }
            if s.until_secs <= s.at_secs || s.until_secs.is_nan() || s.at_secs.is_nan() {
                errs.push(format!(
                    "straggler window [{}, {}] is empty",
                    s.at_secs, s.until_secs
                ));
            }
        }
        for l in &self.link_degradations {
            if !l.factor.is_finite() || l.factor < 1.0 {
                errs.push(format!("link degradation factor {} must be >= 1", l.factor));
            }
            if l.until_secs <= l.at_secs || l.until_secs.is_nan() || l.at_secs.is_nan() {
                errs.push(format!(
                    "link degradation window [{}, {}] is empty",
                    l.at_secs, l.until_secs
                ));
            }
        }
        for t in &self.task_failures {
            if !(0.0..1.0).contains(&t.probability) {
                errs.push(format!(
                    "failure probability {} must be in [0, 1)",
                    t.probability
                ));
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Whether the plan guarantees recovery is *possible*: no permanent
    /// node crash, and at least one probability-free path (probabilities
    /// are always recoverable through retries as long as the retry
    /// budget holds — callers size the budget).
    pub fn has_permanent_crash(&self) -> bool {
        self.node_crashes
            .iter()
            .any(|c| c.rejoin_after_secs.is_none())
    }

    /// Transient failure probability for `task_type` (the last matching
    /// entry wins; 0 when nothing matches).
    pub fn failure_probability(&self, task_type: &str) -> f64 {
        self.task_failures
            .iter()
            .rev()
            .find(|t| match t.task_type.as_deref() {
                None => true,
                Some(ty) => ty == task_type,
            })
            .map_or(0.0, |t| t.probability)
    }

    /// Combined straggler slowdown for a stage starting on `node` at
    /// `t_secs` (product of all active windows; 1.0 when unaffected).
    pub fn straggle_factor(&self, node: usize, t_secs: f64) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.node == node && s.at_secs <= t_secs && t_secs < s.until_secs)
            .map(|s| s.factor)
            .product()
    }

    /// Combined link slowdown for a flow starting at `t_secs` (product
    /// of all active windows; 1.0 when unaffected).
    pub fn link_factor(&self, t_secs: f64) -> f64 {
        self.link_degradations
            .iter()
            .filter(|l| l.at_secs <= t_secs && t_secs < l.until_secs)
            .map(|l| l.factor)
            .product()
    }

    /// Parses the compact CLI grammar: semicolon-separated clauses of
    /// `kind:key=value,...` pairs.
    ///
    /// ```text
    /// crash:node=3,at=0.1            permanent node crash
    /// crash:node=3,at=0.1,rejoin=0.2 transient crash (rejoins at+rejoin)
    /// gpufail:node=1,at=0.05         one GPU dies on node 1
    /// straggle:node=0,at=0,until=1,factor=2
    /// linkdeg:at=0,until=1,factor=1.5
    /// taskfail:p=0.05                5 % transient failures, every type
    /// taskfail:type=multiply,p=0.1   type-specific rate
    /// seed:42                        transient-failure hash seed
    /// ```
    ///
    /// Each kind takes only the keys listed above, each at most once,
    /// and a plan has at most one `seed:` clause, so nothing a spec says
    /// is dropped.
    ///
    /// # Errors
    /// Reports the first malformed clause: an unknown kind, a key its
    /// kind does not take or gives twice (naming the keys it takes), a
    /// missing key, an unparsable value or a second `seed:` clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        let mut seeded = false;
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("clause '{clause}' needs the form kind:key=value,..."))?;
            if kind == "seed" {
                if std::mem::replace(&mut seeded, true) {
                    return Err(format!(
                        "clause '{clause}' sets the seed again (seed:N comes once)"
                    ));
                }
                plan.seed = rest
                    .trim()
                    .parse()
                    .map_err(|_| format!("seed '{rest}' is not an integer"))?;
                continue;
            }
            let Some(&(_, keys)) = CLAUSE_KEYS.iter().find(|(k, _)| *k == kind) else {
                return Err(format!(
                    "unknown fault kind '{kind}' (crash, gpufail, straggle, linkdeg, taskfail, seed)"
                ));
            };
            let mut values: Vec<Option<&str>> = vec![None; keys.len()];
            for pair in rest.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("'{pair}' in clause '{clause}' is not key=value"))?;
                let refusal = match keys.iter().position(|key| *key == k) {
                    Some(i) if values[i].is_none() => {
                        values[i] = Some(v);
                        continue;
                    }
                    Some(_) => format!("gives {k} twice"),
                    None => format!("has no key '{k}'"),
                };
                let takes = keys.join(", ");
                return Err(format!(
                    "clause '{clause}' {refusal} ({kind} takes {takes})"
                ));
            }
            let value = |k: &str| {
                keys.iter()
                    .position(|key| *key == k)
                    .and_then(|i| values[i])
            };
            let need = |k: &str| value(k).ok_or_else(|| format!("clause '{clause}' needs {k}=..."));
            let num = |v: &str| {
                v.parse::<f64>()
                    .map_err(|_| format!("'{v}' is not a number in clause '{clause}'"))
            };
            let secs = |k: &str| need(k).and_then(num);
            let node = || {
                let v = need("node")?;
                v.parse::<usize>()
                    .map_err(|_| format!("'{v}' is not a node index in clause '{clause}'"))
            };
            match kind {
                "crash" => plan.node_crashes.push(NodeCrash {
                    node: node()?,
                    at_secs: secs("at")?,
                    rejoin_after_secs: value("rejoin").map(num).transpose()?,
                }),
                "gpufail" => plan.gpu_failures.push(GpuFailure {
                    node: node()?,
                    at_secs: secs("at")?,
                }),
                "straggle" => plan.stragglers.push(Straggler {
                    node: node()?,
                    at_secs: secs("at")?,
                    until_secs: secs("until")?,
                    factor: secs("factor")?,
                }),
                "linkdeg" => plan.link_degradations.push(LinkDegradation {
                    at_secs: secs("at")?,
                    until_secs: secs("until")?,
                    factor: secs("factor")?,
                }),
                _ => plan.task_failures.push(TaskFailureRate {
                    task_type: value("type").map(str::to_string),
                    probability: secs("p")?,
                }),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back into the [`parse`](FaultPlan::parse)
    /// grammar (a round-trippable description for reports and logs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let sep = |out: &mut String| {
            if !out.is_empty() {
                out.push(';');
            }
        };
        if self.seed != 0 {
            let _ = write!(out, "seed:{}", self.seed);
        }
        for c in &self.node_crashes {
            sep(&mut out);
            let _ = write!(out, "crash:node={},at={}", c.node, c.at_secs);
            if let Some(r) = c.rejoin_after_secs {
                let _ = write!(out, ",rejoin={r}");
            }
        }
        for g in &self.gpu_failures {
            sep(&mut out);
            let _ = write!(out, "gpufail:node={},at={}", g.node, g.at_secs);
        }
        for s in &self.stragglers {
            sep(&mut out);
            let _ = write!(
                out,
                "straggle:node={},at={},until={},factor={}",
                s.node, s.at_secs, s.until_secs, s.factor
            );
        }
        for l in &self.link_degradations {
            sep(&mut out);
            let _ = write!(
                out,
                "linkdeg:at={},until={},factor={}",
                l.at_secs, l.until_secs, l.factor
            );
        }
        for t in &self.task_failures {
            sep(&mut out);
            match &t.task_type {
                Some(ty) => {
                    let _ = write!(out, "taskfail:type={ty},p={}", t.probability);
                }
                None => {
                    let _ = write!(out, "taskfail:p={}", t.probability);
                }
            }
        }
        out
    }
}

/// How the runtime reacts to injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries per task before the run fails with a typed error. The
    /// first execution is attempt 0; `max_retries = 3` allows four
    /// attempts in total.
    pub max_retries: u32,
    /// Base of the exponential backoff, in virtual seconds: attempt `k`
    /// waits `backoff_base_secs * 2^(k-1)` before requeueing.
    pub backoff_base_secs: f64,
    /// Resubmit retried tasks away from the node they last failed on
    /// whenever an alternative node has a free slot.
    pub resubmit_alternate: bool,
    /// Run GPU tasks on the CPU cores of nodes whose GPU devices have
    /// all died (graceful degradation).
    pub gpu_to_cpu_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_base_secs: 0.010,
            resubmit_alternate: true,
            gpu_to_cpu_fallback: false,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before requeueing attempt `attempt` (1-based), in
    /// virtual seconds.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        self.backoff_base_secs * f64::from(1u32 << (attempt.saturating_sub(1)).min(20))
    }

    /// Short label used by sweeps and reports.
    pub fn label(&self) -> String {
        format!(
            "retries={} backoff={}s resubmit={} fallback={}",
            self.max_retries,
            self.backoff_base_secs,
            if self.resubmit_alternate {
                "alt"
            } else {
                "same"
            },
            if self.gpu_to_cpu_fallback {
                "cpu"
            } else {
                "off"
            },
        )
    }
}

/// Stateless 64-bit mixer (the SplitMix64 finalizer). Public so the
/// runtime's lineage fingerprint and the fault sampler share one hash,
/// letting faulted and fault-free runs be compared for output equality.
pub fn mix64(x: u64) -> u64 {
    splitmix64(x)
}

/// SplitMix64 — the stateless mixer keying transient failures.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministically decides whether attempt `attempt` of task `task`
/// fails, given a per-attempt failure `probability`.
///
/// The decision is a pure function of `(seed, task, attempt)` — no RNG
/// state is consumed, so fault sampling cannot perturb the executor's
/// jitter stream, and runs are byte-identical at any thread count.
pub fn transient_failure(seed: u64, task: u32, attempt: u32, probability: f64) -> bool {
    if probability <= 0.0 {
        return false;
    }
    let key = splitmix64(
        seed ^ (u64::from(task)).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (u64::from(attempt)).wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    // 53 uniform bits -> [0, 1).
    let unit = (key >> 11) as f64 / (1u64 << 53) as f64;
    unit < probability
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        assert!(plan.validate(4).is_ok());
        assert_eq!(plan.failure_probability("anything"), 0.0);
        assert_eq!(plan.straggle_factor(0, 1.0), 1.0);
        assert_eq!(plan.link_factor(1.0), 1.0);
    }

    #[test]
    fn builders_populate_and_validate() {
        let plan = FaultPlan::new(1)
            .with_node_crash(2, 0.5, Some(0.25))
            .with_gpu_failure(1, 0.1)
            .with_straggler(0, 0.0, 1.0, 2.0)
            .with_link_degradation(0.0, 0.5, 1.5)
            .with_task_failures(Some("multiply"), 0.05);
        assert!(!plan.is_empty());
        assert!(plan.validate(4).is_ok());
        assert!(!plan.has_permanent_crash());
        assert!(FaultPlan::new(0)
            .with_node_crash(0, 0.1, None)
            .has_permanent_crash());
    }

    #[test]
    fn validation_catches_bad_entries() {
        let plan = FaultPlan::new(0)
            .with_node_crash(9, -1.0, Some(0.0))
            .with_straggler(0, 1.0, 0.5, 0.5)
            .with_task_failures(None, 1.5);
        let errs = plan.validate(2).unwrap_err();
        assert!(errs.len() >= 5, "{errs:?}");
    }

    #[test]
    fn failure_probability_matches_types() {
        let plan = FaultPlan::new(0)
            .with_task_failures(None, 0.01)
            .with_task_failures(Some("multiply"), 0.2);
        assert_eq!(plan.failure_probability("multiply"), 0.2);
        assert_eq!(plan.failure_probability("merge"), 0.01);
    }

    #[test]
    fn windows_are_half_open_and_multiplicative() {
        let plan = FaultPlan::new(0)
            .with_straggler(1, 1.0, 2.0, 2.0)
            .with_straggler(1, 1.5, 3.0, 3.0);
        assert_eq!(plan.straggle_factor(1, 0.9), 1.0);
        assert_eq!(plan.straggle_factor(1, 1.0), 2.0);
        assert_eq!(plan.straggle_factor(1, 1.5), 6.0);
        assert_eq!(plan.straggle_factor(1, 2.0), 3.0);
        assert_eq!(plan.straggle_factor(0, 1.5), 1.0, "other nodes unaffected");
    }

    #[test]
    fn transient_failure_is_a_pure_function() {
        let a = transient_failure(42, 7, 1, 0.5);
        for _ in 0..10 {
            assert_eq!(transient_failure(42, 7, 1, 0.5), a);
        }
        assert!(!transient_failure(42, 7, 1, 0.0));
        assert!(transient_failure(42, 7, 1, 1.0 - 1e-12));
    }

    #[test]
    fn transient_failure_rate_tracks_probability() {
        let p = 0.2;
        let n = 10_000;
        let fails = (0..n).filter(|&t| transient_failure(1234, t, 0, p)).count();
        let rate = fails as f64 / f64::from(n);
        assert!((rate - p).abs() < 0.02, "empirical rate {rate} for p={p}");
    }

    #[test]
    fn parse_round_trips_every_clause() {
        let spec = "seed:42;crash:node=3,at=0.1,rejoin=0.2;gpufail:node=1,at=0.05;\
                    straggle:node=0,at=0,until=1,factor=2;linkdeg:at=0,until=1,factor=1.5;\
                    taskfail:type=multiply,p=0.1;taskfail:p=0.01";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.node_crashes.len(), 1);
        assert_eq!(plan.gpu_failures.len(), 1);
        assert_eq!(plan.stragglers.len(), 1);
        assert_eq!(plan.link_degradations.len(), 1);
        assert_eq!(plan.task_failures.len(), 2);
        let reparsed = FaultPlan::parse(&plan.render()).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "crash",
            "crash:at=0.1",
            "crash:node=x,at=0.1",
            "warp:node=0,at=1",
            "straggle:node=0,at=0,factor=2",
            "taskfail:type=x",
            "crash:node=0,at=0.1,when=2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    /// A key the clause's kind does not take, a repeated key and a
    /// second seed would leave a plan other than the one written if
    /// dropped; each is refused, naming the clause and the keys its
    /// kind takes.
    #[test]
    fn parse_refuses_what_it_would_drop() {
        for (spec, error) in [
            (
                "linkdeg:node=2,at=0,until=1,factor=2",
                "clause 'linkdeg:node=2,at=0,until=1,factor=2' has no key 'node' \
                 (linkdeg takes at, until, factor)",
            ),
            (
                "taskfail:p=0.1,node=3",
                "clause 'taskfail:p=0.1,node=3' has no key 'node' (taskfail takes type, p)",
            ),
            (
                "crash:node=1,node=2,at=0.1",
                "clause 'crash:node=1,node=2,at=0.1' gives node twice \
                 (crash takes node, at, rejoin)",
            ),
            (
                "seed:5;seed:7",
                "clause 'seed:7' sets the seed again (seed:N comes once)",
            ),
        ] {
            assert_eq!(FaultPlan::parse(spec), Err(error.to_string()), "{spec}");
        }
    }

    #[test]
    fn recovery_policy_backoff_is_exponential() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_secs(1), p.backoff_base_secs);
        assert_eq!(p.backoff_secs(2), p.backoff_base_secs * 2.0);
        assert_eq!(p.backoff_secs(3), p.backoff_base_secs * 4.0);
        assert!(p.label().contains("retries=3"));
    }
}
