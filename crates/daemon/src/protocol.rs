//! The line-oriented client protocol of `gpuflowd`.
//!
//! One TCP connection carries one request line and one reply; the
//! daemon closes the connection after writing, so clients read to EOF.
//! Requests are `verb k=v ...` with a fixed keyword set — the same
//! `k=v` idiom as the recorded journal ([`crate::log`]) — and replies
//! start with `ok` or `err`.

use gpuflow_runtime::JobShape;

/// Why a submission was refused — the typed backpressure surface.
/// Every reason is also a Prometheus label value on
/// `gpuflow_tenant_jobs_rejected_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant already has `quota` jobs queued.
    QuotaExceeded,
    /// The global queue is at capacity.
    QueueFull,
    /// The submission names a tenant the daemon was not configured
    /// with.
    UnknownTenant,
    /// Malformed submission (bad shape, zero or oversized task count,
    /// bad tenant name).
    BadRequest,
}

impl RejectReason {
    /// Every reason, in declaration order.
    pub const ALL: [RejectReason; 4] = [
        RejectReason::QuotaExceeded,
        RejectReason::QueueFull,
        RejectReason::UnknownTenant,
        RejectReason::BadRequest,
    ];

    /// Stable label used in the journal and as a metric label value.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QuotaExceeded => "quota",
            RejectReason::QueueFull => "queue-full",
            RejectReason::UnknownTenant => "unknown-tenant",
            RejectReason::BadRequest => "bad-request",
        }
    }

    /// Parses a [`RejectReason::label`] back to the reason.
    pub fn parse(s: &str) -> Option<RejectReason> {
        RejectReason::ALL.into_iter().find(|r| r.label() == s)
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Submit one job: `submit tenant=acme shape=wide tasks=24
    /// [prio=5]`.
    Submit {
        /// Tenant name (validated against the daemon config).
        tenant: String,
        /// DAG template.
        shape: JobShape,
        /// Requested task count.
        tasks: u64,
        /// Fair-share tie-break priority (higher first; default 0).
        prio: u32,
    },
    /// Cancel a queued job: `cancel job=3`.
    Cancel {
        /// The job id `submit` returned.
        job: u64,
    },
    /// Execute every queued job as one simulated epoch: `drain`.
    Drain,
    /// Queue state: `queue` (table) or `queue json` (fixed schema).
    Queue {
        /// Emit the machine-readable JSON form.
        json: bool,
    },
    /// Per-job fingerprint report plus the metrics exposition.
    Report,
    /// The current Prometheus exposition snapshot.
    Metrics,
    /// Alert rule states, the firing timeline, and per-job root spans.
    Alerts,
    /// Liveness probe.
    Health,
    /// The recorded submission journal.
    Log,
    /// Stop the daemon after replying.
    Shutdown,
}

/// The verbs that take no argument, with their commands, in help order:
/// what `gpuflow ctl ACTION` forwards.
pub const CONTROL: [(&str, Command); 7] = [
    ("drain", Command::Drain),
    ("health", Command::Health),
    ("report", Command::Report),
    ("metrics", Command::Metrics),
    ("alerts", Command::Alerts),
    ("log", Command::Log),
    ("shutdown", Command::Shutdown),
];

/// The argument-free command `verb` names, if any.
pub fn control(verb: &str) -> Option<Command> {
    CONTROL
        .into_iter()
        .find_map(|(v, command)| (v == verb).then_some(command))
}

impl Command {
    /// The request line [`parse_command`] parses back to this command
    /// (`prio=` only when it is not 0).
    pub fn render(&self) -> String {
        match self {
            Command::Submit {
                tenant,
                shape,
                tasks,
                prio,
            } => {
                let shape = shape.label();
                let mut line = format!("submit tenant={tenant} shape={shape} tasks={tasks}");
                if *prio != 0 {
                    line.push_str(&format!(" prio={prio}"));
                }
                line
            }
            Command::Cancel { job } => format!("cancel job={job}"),
            Command::Queue { json: false } => "queue".to_string(),
            Command::Queue { json: true } => "queue json".to_string(),
            control => CONTROL
                .iter()
                .find(|(_, c)| c == control)
                .map(|(verb, _)| verb.to_string())
                .expect("every other command is a control verb"),
        }
    }
}

/// Tenant names are journal- and label-safe by construction: ASCII
/// alphanumerics, `_`, `-`, 1..=64 chars.
pub fn valid_tenant_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Looks up `key=`-prefixed value among whitespace-split words.
pub(crate) fn field<'a>(words: &[&'a str], key: &str) -> Option<&'a str> {
    words
        .iter()
        .find_map(|w| w.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// Parses one request line. Unknown verbs and malformed fields are
/// errors (the daemon replies `err ...` without touching any state).
pub fn parse_command(line: &str) -> Result<Command, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let verb = *words.first().ok_or("empty request")?;
    match verb {
        "submit" => {
            let tenant = field(&words, "tenant").ok_or("submit needs tenant=")?;
            let shape = field(&words, "shape").ok_or("submit needs shape=")?;
            let shape = JobShape::parse(shape)
                .ok_or_else(|| format!("unknown shape {shape:?} (wide|stencil|tree)"))?;
            let tasks: u64 = field(&words, "tasks")
                .ok_or("submit needs tasks=")?
                .parse()
                .map_err(|_| "tasks= must be an integer".to_string())?;
            let prio: u32 = match field(&words, "prio") {
                None => 0,
                Some(p) => p
                    .parse()
                    .map_err(|_| "prio= must be a non-negative integer".to_string())?,
            };
            Ok(Command::Submit {
                tenant: tenant.to_string(),
                shape,
                tasks,
                prio,
            })
        }
        "cancel" => {
            let job: u64 = field(&words, "job")
                .ok_or("cancel needs job=")?
                .parse()
                .map_err(|_| "job= must be an integer".to_string())?;
            Ok(Command::Cancel { job })
        }
        "queue" => Ok(Command::Queue {
            json: words.get(1) == Some(&"json"),
        }),
        other => control(other).ok_or_else(|| format!("unknown verb {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Words the request grammar knows, and some it does not.
    const TOKENS: [&str; 16] = [
        "submit", "cancel", "queue", "json", "drain", "tenant=", "shape=", "tasks=", "prio=",
        "job=", "wide", "tree", "=", " ", "\n", "\u{e9}",
    ];

    /// Arbitrary text over the grammar's words, digits, signs and any
    /// other character.
    fn text(raw: &[(u32, u64)]) -> String {
        raw.iter()
            .map(|&(kind, bits)| match kind {
                0 => TOKENS[bits as usize % TOKENS.len()].to_string(),
                1 => bits.to_string(),
                2 => ["-", "+", "\t", ""][bits as usize % 4].to_string(),
                _ => char::from_u32(bits as u32 % 0x11_0000)
                    .unwrap_or('\u{fffd}')
                    .to_string(),
            })
            .collect()
    }

    /// A command from random draws; tenant names use only the
    /// characters `valid_tenant_name` accepts.
    fn command(kind: u32, name: &[u32], n: u64) -> Command {
        const NAME: &[u8] = b"abcxyzABCXYZ0189_-";
        match kind {
            0 => Command::Submit {
                tenant: name
                    .iter()
                    .map(|&i| NAME[i as usize % NAME.len()] as char)
                    .collect(),
                shape: JobShape::ALL[(n % 3) as usize],
                tasks: n >> 2,
                prio: [0, 1, u32::MAX, n as u32][(n % 4) as usize],
            },
            1 => Command::Cancel { job: n },
            2 => Command::Queue { json: n % 2 == 0 },
            _ => CONTROL[n as usize % CONTROL.len()].1.clone(),
        }
    }

    proptest! {
        #[test]
        fn arbitrary_text_never_panics_the_parser(
            raw in prop::collection::vec((0u32..5, 0u64..u64::MAX), 0..24),
        ) {
            let line = text(&raw);
            if let Ok(command) = parse_command(&line) {
                prop_assert_eq!(parse_command(&command.render()), Ok(command));
            }
        }

        #[test]
        fn parse_inverts_render(
            kind in 0u32..4,
            name in prop::collection::vec(0u32..64, 1..65),
            n in 0u64..u64::MAX,
        ) {
            let c = command(kind, &name, n);
            if let Command::Submit { tenant, .. } = &c {
                prop_assert!(valid_tenant_name(tenant), "{tenant:?}");
            }
            prop_assert_eq!(parse_command(&c.render()), Ok(c));
        }
    }

    #[test]
    fn parses_submit_with_and_without_prio() {
        assert_eq!(
            parse_command("submit tenant=acme shape=wide tasks=24"),
            Ok(Command::Submit {
                tenant: "acme".into(),
                shape: JobShape::Wide,
                tasks: 24,
                prio: 0
            })
        );
        assert_eq!(
            parse_command("submit tenant=beta shape=tree tasks=9 prio=5"),
            Ok(Command::Submit {
                tenant: "beta".into(),
                shape: JobShape::Tree,
                tasks: 9,
                prio: 5
            })
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_command("").is_err());
        assert!(parse_command("submit tenant=a shape=ring tasks=4").is_err());
        assert!(parse_command("submit tenant=a tasks=4").is_err());
        assert!(parse_command("cancel").is_err());
        assert!(parse_command("frobnicate").is_err());
    }

    #[test]
    fn parses_control_verbs() {
        assert_eq!(parse_command("queue"), Ok(Command::Queue { json: false }));
        assert_eq!(
            parse_command("queue json"),
            Ok(Command::Queue { json: true })
        );
        assert_eq!(
            parse_command("cancel job=3"),
            Ok(Command::Cancel { job: 3 })
        );
        assert_eq!(parse_command("drain"), Ok(Command::Drain));
        assert_eq!(parse_command("alerts"), Ok(Command::Alerts));
        assert_eq!(parse_command("shutdown"), Ok(Command::Shutdown));
    }

    #[test]
    fn reject_reason_labels_round_trip() {
        for r in RejectReason::ALL {
            assert_eq!(RejectReason::parse(r.label()), Some(r));
        }
        assert_eq!(RejectReason::parse("nope"), None);
    }

    #[test]
    fn tenant_name_charset_is_enforced() {
        assert!(valid_tenant_name("acme-prod_2"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name("a b"));
        assert!(!valid_tenant_name("quote\"y"));
    }
}
