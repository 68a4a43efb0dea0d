//! The recorded submission journal — `gpuflowd`'s replay format.
//!
//! Every state-changing decision the daemon makes appends exactly one
//! line to the journal. The grammar is line-oriented `k=v` text (the
//! same idiom as the client protocol), chosen so that
//! `render ∘ parse = id` holds exactly: a replayed journal re-renders
//! byte-identically, which is what makes `repro replay --from-log`
//! able to reproduce a live daemon run bit-for-bit.
//!
//! Layout of a journal:
//!
//! ```text
//! gpuflowd-log v1
//! config seed=0xd1a1 tick_us=10000 interval_us=10000 quota=8 queue_cap=24 window=2 tenant_window=0
//! tenant name=acme weight=3
//! tenant name=beta weight=2
//! submit t=0.010000 tenant=acme job=1 shape=wide tasks=24 prio=5
//! reject t=0.020000 tenant=beta reason=quota
//! cancel t=0.030000 job=1
//! drain t=0.040000 jobs=3
//! ```
//!
//! Timestamps are virtual: the daemon stamps decision `n` with
//! `n × tick_us` microseconds, rendered as fixed-point seconds with six
//! fractional digits. No wall clock is ever read, so the journal — and
//! everything derived from it — is a pure function of the command
//! stream.

use crate::protocol::{valid_tenant_name, RejectReason};
use gpuflow_runtime::JobShape;

/// First line of every journal; bump `v1` on grammar changes.
pub const LOG_HEADER: &str = "gpuflowd-log v1";

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogLine {
    /// Daemon configuration, written once right after the header.
    Config {
        /// Simulation seed for every drained epoch.
        seed: u64,
        /// Virtual microseconds between consecutive decisions.
        tick_us: u64,
        /// Metrics sampling interval forwarded to the executor.
        interval_us: u64,
        /// Per-tenant queued-job cap.
        quota: u32,
        /// Global queue capacity.
        queue_cap: u32,
        /// Fair-share in-flight window (jobs running concurrently).
        window: u32,
        /// Optional per-tenant in-flight cap (0 = unlimited).
        tenant_window: u32,
    },
    /// One configured tenant, written in declaration order after
    /// `config`.
    Tenant {
        /// Tenant name (journal-safe charset).
        name: String,
        /// Fair-share weight (≥ 1).
        weight: u32,
    },
    /// An accepted submission.
    Submit {
        /// Virtual decision time, microseconds.
        t_us: u64,
        /// Tenant index into the `tenant` lines (declaration order).
        tenant: usize,
        /// Job id handed back to the client.
        job: u64,
        /// DAG template.
        shape: JobShape,
        /// Task count after validation.
        tasks: u64,
        /// Priority (omitted from the rendered line when 0).
        prio: u32,
    },
    /// A refused submission (typed backpressure).
    Reject {
        /// Virtual decision time, microseconds.
        t_us: u64,
        /// Tenant index, or `usize::MAX` when the tenant is unknown
        /// (rendered as `tenant=?`).
        tenant: usize,
        /// Why it was refused.
        reason: RejectReason,
    },
    /// A queued job cancelled before any drain ran it.
    Cancel {
        /// Virtual decision time, microseconds.
        t_us: u64,
        /// The cancelled job id.
        job: u64,
    },
    /// A drain: every job queued at this instant ran as one simulated
    /// epoch.
    Drain {
        /// Virtual decision time, microseconds.
        t_us: u64,
        /// Number of jobs executed in the epoch.
        jobs: u64,
    },
}

fn fmt_t(t_us: u64) -> String {
    format!("{}.{:06}", t_us / 1_000_000, t_us % 1_000_000)
}

fn parse_t(s: &str) -> Option<u64> {
    let (secs, frac) = s.split_once('.')?;
    if frac.len() != 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let secs: u64 = secs.parse().ok()?;
    let micros: u64 = frac.parse().ok()?;
    secs.checked_mul(1_000_000)?.checked_add(micros)
}

impl LogLine {
    /// Renders this record as one journal line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            LogLine::Config {
                seed,
                tick_us,
                interval_us,
                quota,
                queue_cap,
                window,
                tenant_window,
            } => format!(
                "config seed={seed:#x} tick_us={tick_us} interval_us={interval_us} \
                 quota={quota} queue_cap={queue_cap} window={window} tenant_window={tenant_window}"
            ),
            LogLine::Tenant { name, weight } => format!("tenant name={name} weight={weight}"),
            LogLine::Submit {
                t_us,
                tenant,
                job,
                shape,
                tasks,
                prio,
            } => {
                let mut s = format!(
                    "submit t={} tenant={tenant} job={job} shape={} tasks={tasks}",
                    fmt_t(*t_us),
                    shape.label()
                );
                if *prio != 0 {
                    s.push_str(&format!(" prio={prio}"));
                }
                s
            }
            LogLine::Reject {
                t_us,
                tenant,
                reason,
            } => {
                let who = if *tenant == usize::MAX {
                    "?".to_string()
                } else {
                    tenant.to_string()
                };
                format!(
                    "reject t={} tenant={who} reason={}",
                    fmt_t(*t_us),
                    reason.label()
                )
            }
            LogLine::Cancel { t_us, job } => format!("cancel t={} job={job}", fmt_t(*t_us)),
            LogLine::Drain { t_us, jobs } => format!("drain t={} jobs={jobs}", fmt_t(*t_us)),
        }
    }

    /// Parses one journal line. Inverse of [`LogLine::render`] on the
    /// canonical grammar; anything else is a descriptive error.
    pub fn parse(line: &str) -> Result<LogLine, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let verb = *words.first().ok_or("empty journal line")?;
        let get = |key: &str| -> Result<&str, String> {
            crate::protocol::field(&words, key).ok_or_else(|| format!("{verb}: missing {key}="))
        };
        let int = |key: &str| -> Result<u64, String> { int_at(verb, key, get(key)?) };
        let int32 = |key: &str| -> Result<u32, String> { int_at(verb, key, get(key)?) };
        let time = |key: &str| -> Result<u64, String> {
            parse_t(get(key)?).ok_or_else(|| format!("{verb}: {key}= is not s.micros time"))
        };
        match verb {
            "config" => {
                let seed_s = get("seed")?;
                let seed = seed_s
                    .strip_prefix("0x")
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or("config: seed= must be 0x-hex")?;
                Ok(LogLine::Config {
                    seed,
                    tick_us: int("tick_us")?,
                    interval_us: int("interval_us")?,
                    quota: int32("quota")?,
                    queue_cap: int32("queue_cap")?,
                    window: int32("window")?,
                    tenant_window: int32("tenant_window")?,
                })
            }
            "tenant" => {
                let name = get("name")?;
                if !valid_tenant_name(name) {
                    return Err(format!("tenant: bad name {name:?}"));
                }
                let weight = int32("weight")?;
                if weight == 0 {
                    return Err("tenant: weight must be >= 1".into());
                }
                Ok(LogLine::Tenant {
                    name: name.to_string(),
                    weight,
                })
            }
            "submit" => {
                let shape = get("shape")?;
                let shape =
                    JobShape::parse(shape).ok_or_else(|| format!("submit: bad shape {shape:?}"))?;
                let prio = match crate::protocol::field(&words, "prio") {
                    None => 0,
                    Some(p) => {
                        let p: u32 = p
                            .parse()
                            .map_err(|_| "submit: prio= is not an integer".to_string())?;
                        if p == 0 {
                            return Err("submit: prio=0 is rendered by omission".into());
                        }
                        p
                    }
                };
                Ok(LogLine::Submit {
                    t_us: time("t")?,
                    tenant: int_at(verb, "tenant", get("tenant")?)?,
                    job: int("job")?,
                    shape,
                    tasks: int("tasks")?,
                    prio,
                })
            }
            "reject" => {
                let who = get("tenant")?;
                // `usize::MAX` is the unknown tenant, written `?`.
                let tenant = match who {
                    "?" => usize::MAX,
                    _ => match int_at(verb, "tenant", who)? {
                        usize::MAX => return Err("reject: tenant= is out of range".into()),
                        index => index,
                    },
                };
                let reason = get("reason")?;
                let reason = RejectReason::parse(reason)
                    .ok_or_else(|| format!("reject: unknown reason {reason:?}"))?;
                Ok(LogLine::Reject {
                    t_us: time("t")?,
                    tenant,
                    reason,
                })
            }
            "cancel" => Ok(LogLine::Cancel {
                t_us: time("t")?,
                job: int("job")?,
            }),
            "drain" => Ok(LogLine::Drain {
                t_us: time("t")?,
                jobs: int("jobs")?,
            }),
            other => Err(format!("unknown journal verb {other:?}")),
        }
    }
}

/// Parses the integer `key=` of a `verb` line at `T`'s width: an
/// unparsable or out-of-range value is an error, never truncated.
fn int_at<T: TryFrom<u64>>(verb: &str, key: &str, text: &str) -> Result<T, String> {
    let n: u64 = text
        .parse()
        .map_err(|_| format!("{verb}: {key}= is not an integer"))?;
    T::try_from(n).map_err(|_| format!("{verb}: {key}={n} is out of range"))
}

/// Parses a whole journal: header, then one [`LogLine`] per non-empty
/// line. Returns line-numbered errors.
pub fn parse_journal(text: &str) -> Result<Vec<LogLine>, String> {
    Ok(parse_numbered(text)?.into_iter().map(|(_, l)| l).collect())
}

/// [`parse_journal`], keeping each record's 1-based line number.
pub(crate) fn parse_numbered(text: &str) -> Result<Vec<(usize, LogLine)>, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim_end() == LOG_HEADER => {}
        Some((_, h)) => return Err(format!("bad journal header {h:?} (want {LOG_HEADER:?})")),
        None => return Err("empty journal".into()),
    }
    let mut out = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let record = LogLine::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push((i + 1, record));
    }
    Ok(out)
}

/// Renders a full journal: header plus one line per record, each
/// newline-terminated.
pub fn render_journal(lines: &[LogLine]) -> String {
    let mut s = String::from(LOG_HEADER);
    s.push('\n');
    for l in lines {
        s.push_str(&l.render());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_the_documented_example() {
        let l = LogLine::Submit {
            t_us: 10_000,
            tenant: 0,
            job: 1,
            shape: JobShape::Wide,
            tasks: 24,
            prio: 5,
        };
        assert_eq!(
            l.render(),
            "submit t=0.010000 tenant=0 job=1 shape=wide tasks=24 prio=5"
        );
        assert_eq!(LogLine::parse(&l.render()), Ok(l));
    }

    #[test]
    fn prio_zero_is_omitted_and_round_trips() {
        let l = LogLine::Submit {
            t_us: 1_234_567,
            tenant: 2,
            job: 9,
            shape: JobShape::Tree,
            tasks: 7,
            prio: 0,
        };
        let r = l.render();
        assert!(!r.contains("prio="), "{r}");
        assert_eq!(LogLine::parse(&r), Ok(l));
    }

    #[test]
    fn unknown_tenant_reject_round_trips() {
        let l = LogLine::Reject {
            t_us: 20_000,
            tenant: usize::MAX,
            reason: RejectReason::UnknownTenant,
        };
        assert_eq!(
            l.render(),
            "reject t=0.020000 tenant=? reason=unknown-tenant"
        );
        assert_eq!(LogLine::parse(&l.render()), Ok(l));
    }

    #[test]
    fn journal_round_trips_as_a_document() {
        let lines = vec![
            LogLine::Config {
                seed: 0xD1A1,
                tick_us: 10_000,
                interval_us: 10_000,
                quota: 8,
                queue_cap: 24,
                window: 2,
                tenant_window: 0,
            },
            LogLine::Tenant {
                name: "acme".into(),
                weight: 3,
            },
            LogLine::Tenant {
                name: "beta".into(),
                weight: 2,
            },
            LogLine::Submit {
                t_us: 10_000,
                tenant: 0,
                job: 1,
                shape: JobShape::Stencil,
                tasks: 32,
                prio: 0,
            },
            LogLine::Reject {
                t_us: 20_000,
                tenant: 1,
                reason: RejectReason::QueueFull,
            },
            LogLine::Cancel {
                t_us: 30_000,
                job: 1,
            },
            LogLine::Drain {
                t_us: 40_000,
                jobs: 0,
            },
        ];
        let text = render_journal(&lines);
        assert_eq!(parse_journal(&text), Ok(lines.clone()));
        // Render of the parse is byte-identical: render ∘ parse = id.
        assert_eq!(render_journal(&parse_journal(&text).unwrap()), text);
    }

    #[test]
    fn rejects_bad_headers_and_verbs() {
        assert!(parse_journal("").is_err());
        assert!(parse_journal("gpuflowd-log v999\n").is_err());
        assert!(parse_journal("gpuflowd-log v1\nflorp t=0.000001\n").is_err());
        assert!(LogLine::parse("submit t=0.01 tenant=0 job=1 shape=wide tasks=4").is_err());
        assert!(LogLine::parse("tenant name=bad$name weight=1").is_err());
    }

    /// Derives one canonical [`LogLine`] from two sampled integers.
    /// (The vendored proptest has no `prop_oneof`/`prop_map`, so the
    /// generator is this deterministic decoder over raw samples.)
    fn line_from(kind: u64, bits: u64) -> LogLine {
        const NAMES: [&str; 5] = ["acme", "beta-2", "gamma_x", "d", "Tenant-With-A-Long-Name"];
        let t_us = (bits >> 8) % (1 << 50);
        match kind % 6 {
            0 => LogLine::Config {
                seed: bits,
                tick_us: bits % (1 << 40) + 1,
                interval_us: (bits >> 13) % (1 << 40) + 1,
                quota: (bits % 99 + 1) as u32,
                queue_cap: ((bits >> 7) % 99 + 1) as u32,
                window: ((bits >> 14) % 63 + 1) as u32,
                tenant_window: ((bits >> 21) % 64) as u32,
            },
            1 => LogLine::Tenant {
                name: NAMES[(bits % NAMES.len() as u64) as usize].to_string(),
                weight: (bits % 999 + 1) as u32,
            },
            2 => LogLine::Submit {
                t_us,
                tenant: (bits % 8) as usize,
                job: (bits >> 3) % (1 << 32),
                shape: JobShape::ALL[(bits % 3) as usize],
                tasks: (bits >> 5) % (1 << 20) + 1,
                prio: ((bits >> 2) % 100) as u32,
            },
            3 => LogLine::Reject {
                t_us,
                tenant: if bits & 1 == 0 {
                    usize::MAX
                } else {
                    ((bits >> 1) % 8) as usize
                },
                reason: RejectReason::ALL[(bits % 4) as usize],
            },
            4 => LogLine::Cancel {
                t_us,
                job: bits % (1 << 32),
            },
            _ => LogLine::Drain {
                t_us,
                jobs: bits % (1 << 16),
            },
        }
    }

    #[test]
    fn out_of_range_integers_are_errors_not_truncated() {
        let config = "config seed=0xd1a1 tick_us=10000 interval_us=10000 quota=4294967297 \
                      queue_cap=24 window=2 tenant_window=0";
        assert_eq!(
            LogLine::parse(config),
            Err("config: quota=4294967297 is out of range".into())
        );
        assert_eq!(
            LogLine::parse("tenant name=acme weight=4294967297"),
            Err("tenant: weight=4294967297 is out of range".into())
        );
        assert_eq!(
            LogLine::parse("reject t=0.010000 tenant=18446744073709551615 reason=quota"),
            Err("reject: tenant= is out of range".into())
        );
        assert_eq!(
            LogLine::parse("cancel t=0.010000 job=18446744073709551616"),
            Err("cancel: job= is not an integer".into())
        );
        let max = "tenant name=acme weight=4294967295";
        assert_eq!(LogLine::parse(max).map(|l| l.render()), Ok(max.to_string()));
    }

    /// An arbitrary `u64`, often on an edge of the `u32` or `u64` range.
    fn arbitrary(bits: u64, edge: u64) -> u64 {
        match edge % 8 {
            0 => 0,
            1 => u32::MAX.into(),
            2 => u64::from(u32::MAX) + 1,
            3 => u64::MAX,
            4 => bits % 1000,
            _ => bits,
        }
    }

    /// A canonical journal line of verb `kind` whose integer fields are
    /// the arbitrary values `n`.
    fn line_with(kind: u64, n: &[u64; 7]) -> String {
        match kind % 6 {
            0 => format!(
                "config seed={:#x} tick_us={} interval_us={} quota={} queue_cap={} window={} \
                 tenant_window={}",
                n[0], n[1], n[2], n[3], n[4], n[5], n[6]
            ),
            1 => format!("tenant name=acme weight={}", n[0]),
            2 => format!(
                "submit t={} tenant={} job={} shape=tree tasks={} prio={}",
                fmt_t(n[0]),
                n[1],
                n[2],
                n[3],
                n[4]
            ),
            3 => format!("reject t={} tenant={} reason=queue-full", fmt_t(n[0]), n[1]),
            4 => format!("cancel t={} job={}", fmt_t(n[0]), n[1]),
            _ => format!("drain t={} jobs={}", fmt_t(n[0]), n[1]),
        }
    }

    proptest! {
        /// Integer fields take arbitrary `u64` values: a line that parses
        /// re-renders to the same text, and so to the same numbers; a
        /// value too wide for its field is an error.
        #[test]
        fn arbitrary_integers_parse_exactly_or_fail(
            kind in 0u64..6,
            raw in prop::collection::vec((0u64..u64::MAX, 0u64..8), 7..8),
        ) {
            let n: Vec<u64> = raw.iter().map(|&(bits, edge)| arbitrary(bits, edge)).collect();
            let n: [u64; 7] = n.try_into().unwrap();
            let line = line_with(kind, &n);
            let too_wide = |fields: &[u64]| fields.iter().any(|&v| v > u32::MAX.into());
            let must_fail = match kind {
                0 => too_wide(&n[3..7]),
                1 => n[0] == 0 || too_wide(&n[..1]),
                2 => n[4] == 0 || too_wide(&n[4..5]),
                3 => n[1] == u64::MAX,
                _ => false,
            };
            match LogLine::parse(&line) {
                Ok(parsed) => {
                    prop_assert!(!must_fail, "{line} parsed as {parsed:?}");
                    prop_assert_eq!(parsed.render(), line);
                }
                Err(e) => prop_assert!(must_fail, "{line}: {e}"),
            }
        }

        /// Edits of a rendered journal never panic the parser, and what
        /// it accepts renders to a journal it parses the same. An edit
        /// deletes a character, inserts one of the grammar's or any
        /// other, or truncates the text.
        #[test]
        fn edited_journals_never_panic_the_parser(
            raw in prop::collection::vec((0u64..6, 0u64..u64::MAX), 1..8),
            edits in prop::collection::vec((0u64..4, 0u64..u64::MAX, 0u64..u64::MAX), 0..4),
        ) {
            const PIECES: &[u8] = b"0123456789 =.-x\n";
            let lines: Vec<LogLine> =
                raw.iter().map(|&(kind, bits)| line_from(kind, bits)).collect();
            let mut text: Vec<char> = render_journal(&lines).chars().collect();
            for &(kind, at, arg) in &edits {
                let at = at as usize % (text.len() + 1);
                match kind {
                    0 if at < text.len() => {
                        text.remove(at);
                    }
                    1 => text.insert(at, PIECES[arg as usize % PIECES.len()] as char),
                    2 => text.insert(at, char::from_u32(arg as u32 % 0x11_0000).unwrap_or('?')),
                    _ => text.truncate(at),
                }
            }
            let text: String = text.into_iter().collect();
            if let Ok(parsed) = parse_journal(&text) {
                prop_assert_eq!(parse_journal(&render_journal(&parsed)), Ok(parsed));
            }
        }

        /// parse ∘ render = id over the canonical value space, and
        /// render ∘ parse = id over rendered text.
        #[test]
        fn log_grammar_round_trips(raw in prop::collection::vec((0u64..6, 0u64..u64::MAX), 0..24)) {
            let lines: Vec<LogLine> =
                raw.iter().map(|&(kind, bits)| line_from(kind, bits)).collect();
            let text = render_journal(&lines);
            let parsed = parse_journal(&text).expect("rendered journal must parse");
            prop_assert_eq!(&parsed, &lines);
            prop_assert_eq!(render_journal(&parsed), text);
        }
    }
}
