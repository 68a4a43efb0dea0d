//! A zero-dep validator for the Prometheus text exposition format
//! (version 0.0.4) — the format `gpuflow obs metrics`, `gpuflow serve`,
//! and `repro replay` emit.
//!
//! `repro check` runs the replay and spans expositions through
//! [`check`], and the metrics integration tests run live scrapes
//! through it, so a malformed exposition fails the build without any
//! Prometheus binary in the container. The grammar
//! enforced here is the subset the official parser requires:
//!
//! * `# HELP <name> <text>` and `# TYPE <name> <kind>` comment lines,
//!   with `TYPE` preceding the family's samples and appearing at most
//!   once per metric name;
//! * sample lines `name{label="value",...} <number>` with valid metric
//!   and label identifiers and properly escaped label values;
//! * histogram families: `_bucket` samples carry an `le` label, and —
//!   per labelled series (each non-`le` label combination is its own
//!   cumulative ladder) — bucket counts are non-decreasing in
//!   declaration order, the `+Inf` bucket equals the series' `_count`,
//!   and `_sum` / `_count` are present;
//! * label-key consistency: every sample of a family carries the same
//!   label *name* set (`le` excluded), so a labelled family — e.g. the
//!   per-tenant `{tenant,reason}` admission counters — cannot
//!   accidentally mix dimensions.

/// Summary of a validated exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Metric families declared with `# TYPE`.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

/// State of one labelled series (one non-`le` label combination) of a
/// histogram family while its samples stream by. A family with a
/// `type` label carries one independent cumulative-bucket ladder per
/// type value; the monotonicity and `+Inf == _count` invariants hold
/// per series, not across the family.
#[derive(Debug, Default)]
struct SeriesState {
    buckets: Vec<(String, u64)>,
    sum_seen: bool,
    count: Option<u64>,
}

/// State of one histogram family: its series keyed by the canonical
/// (sorted, `le`-stripped) label set.
#[derive(Debug, Default)]
struct HistogramState {
    series: Vec<(String, SeriesState)>,
}

impl HistogramState {
    /// The series for the given sample labels, created on first use.
    fn series_mut(&mut self, labels: &[(String, String)]) -> &mut SeriesState {
        let mut key: Vec<&(String, String)> = labels.iter().filter(|(k, _)| k != "le").collect();
        key.sort();
        let key = key
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(",");
        if let Some(i) = self.series.iter().position(|(k, _)| *k == key) {
            &mut self.series[i].1
        } else {
            self.series.push((key, SeriesState::default()));
            &mut self.series.last_mut().expect("just pushed").1
        }
    }
}

/// Validates `text` as Prometheus text exposition; returns summary
/// stats or the first violation.
pub fn check(text: &str) -> Result<Stats, String> {
    let mut families = 0usize;
    let mut samples = 0usize;
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut histograms: Vec<(String, HistogramState)> = Vec::new();
    // Canonical label-name set of each family's first sample.
    let mut keysets: Vec<(String, String)> = Vec::new();

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let err = |msg: String| format!("line {lineno}: {msg}");
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(err(format!("invalid metric name in TYPE: {name:?}")));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err(format!("unknown metric kind {kind:?}")));
                }
                if typed.iter().any(|(n, _)| n == name) {
                    return Err(err(format!("duplicate TYPE for {name}")));
                }
                typed.push((name.to_string(), kind.to_string()));
                if kind == "histogram" {
                    histograms.push((name.to_string(), HistogramState::default()));
                }
                families += 1;
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl.split(' ').next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(err(format!("invalid metric name in HELP: {name:?}")));
                }
            } else {
                // Plain comment: legal, ignored.
            }
            continue;
        }
        // Sample line.
        let (name, labels, value) = parse_sample(line).map_err(&err)?;
        let family = histogram_family(&name, &typed);
        let base = family.unwrap_or(name.as_str());
        match typed.iter().find(|(n, _)| n == base) {
            None => {
                return Err(err(format!(
                    "sample for {name} precedes its TYPE declaration"
                )));
            }
            Some((_, kind)) if kind == "histogram" && family.is_none() => {
                return Err(err(format!(
                    "histogram family {base} has a bare sample {name}"
                )));
            }
            _ => {}
        }
        // Label-key consistency: all of a family's samples must agree
        // on the label-name set (`le` excluded, so histogram buckets
        // and their _sum/_count compare equal).
        let mut keys: Vec<&str> = labels
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| *k != "le")
            .collect();
        keys.sort_unstable();
        let keyset = keys.join(",");
        match keysets.iter().find(|(fam, _)| fam == base) {
            None => keysets.push((base.to_string(), keyset)),
            Some((_, first)) if *first != keyset => {
                return Err(err(format!(
                    "family {base} mixes label sets: {{{first}}} vs {{{keyset}}}"
                )));
            }
            Some(_) => {}
        }
        if let Some(fam) = family {
            let state = histograms
                .iter_mut()
                .find(|(n, _)| n == fam)
                .map(|(_, s)| s)
                .ok_or_else(|| err(format!("{fam} samples without a histogram TYPE")))?;
            let int_value = || -> Result<u64, String> {
                value.parse::<u64>().map_err(|_| {
                    err(format!(
                        "{name} value must be an integer count, got {value}"
                    ))
                })
            };
            let series = state.series_mut(&labels);
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| err(format!("{name} sample without an le label")))?;
                series.buckets.push((le, int_value()?));
            } else if name.ends_with("_sum") {
                series.sum_seen = true;
                parse_number(&value).map_err(&err)?;
            } else {
                series.count = Some(int_value()?);
            }
        } else {
            parse_number(&value).map_err(&err)?;
        }
        samples += 1;
    }

    for (name, state) in &histograms {
        // A declared family with no samples at all is legal.
        for (key, series) in &state.series {
            let at = if key.is_empty() {
                String::new()
            } else {
                format!(" {{{key}}}")
            };
            let mut prev: Option<u64> = None;
            let mut inf: Option<u64> = None;
            for (le, cum) in &series.buckets {
                if let Some(p) = prev {
                    if *cum < p {
                        return Err(format!(
                            "histogram {name}{at}: bucket le={le} count {cum} decreases below {p}"
                        ));
                    }
                }
                prev = Some(*cum);
                if le == "+Inf" {
                    inf = Some(*cum);
                } else {
                    parse_number(le)
                        .map_err(|e| format!("histogram {name}{at}: bad le label {le:?}: {e}"))?;
                }
            }
            let inf = inf.ok_or_else(|| format!("histogram {name}{at}: missing +Inf bucket"))?;
            let count = series
                .count
                .ok_or_else(|| format!("histogram {name}{at}: missing _count sample"))?;
            if inf != count {
                return Err(format!(
                    "histogram {name}{at}: +Inf bucket {inf} != _count {count}"
                ));
            }
            if !series.sum_seen {
                return Err(format!("histogram {name}{at}: missing _sum sample"));
            }
        }
    }

    Ok(Stats { families, samples })
}

/// Summary of a validated alert/recording-rule surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertStats {
    /// `gpuflow_alert_state` samples.
    pub alert_samples: usize,
    /// Recording-rule families (colon-named, e.g.
    /// `gpuflow:queue_wait_seconds:p99`).
    pub recording_families: usize,
}

/// Validates the SLO alerting surface of an exposition on top of the
/// base grammar ([`check`] must already have passed or be run by the
/// caller):
///
/// * every `gpuflow_alert_state` sample carries exactly the
///   `{alert,severity,subject}` label set, a `severity` of `warning`
///   or `critical`, and a value in `{0,1,2}`
///   (inactive/pending/firing), and the family is declared `gauge`;
/// * every colon-named family is a recording rule of the Prometheus
///   `level:metric:operation` naming convention — exactly two colons,
///   non-empty identifier segments — and is declared `gauge`.
pub fn check_alert_families(text: &str) -> Result<AlertStats, String> {
    let mut stats = AlertStats {
        alert_samples: 0,
        recording_families: 0,
    };
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let err = |msg: String| format!("line {lineno}: {msg}");
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if name == "gpuflow_alert_state" && kind != "gauge" {
                    return Err(err(format!(
                        "gpuflow_alert_state must be a gauge, not {kind}"
                    )));
                }
                if name.contains(':') {
                    let segments: Vec<&str> = name.split(':').collect();
                    if segments.len() != 3 || segments.iter().any(|s| s.is_empty()) {
                        return Err(err(format!(
                            "recording rule {name} must be level:metric:operation"
                        )));
                    }
                    if kind != "gauge" {
                        return Err(err(format!(
                            "recording rule {name} must be a gauge, not {kind}"
                        )));
                    }
                    stats.recording_families += 1;
                }
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line).map_err(&err)?;
        if name != "gpuflow_alert_state" {
            continue;
        }
        let mut keys: Vec<&str> = labels.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys != ["alert", "severity", "subject"] {
            return Err(err(format!(
                "gpuflow_alert_state must carry {{alert,severity,subject}}, got {{{}}}",
                keys.join(",")
            )));
        }
        let severity = labels
            .iter()
            .find(|(k, _)| k == "severity")
            .map(|(_, v)| v.as_str())
            .unwrap_or("");
        if !matches!(severity, "warning" | "critical") {
            return Err(err(format!("unknown alert severity {severity:?}")));
        }
        if !matches!(value.as_str(), "0" | "1" | "2") {
            return Err(err(format!(
                "gpuflow_alert_state value must be 0|1|2 (inactive|pending|firing), got {value}"
            )));
        }
        stats.alert_samples += 1;
    }
    Ok(stats)
}

/// Maps a histogram component sample (`<fam>_bucket`, `<fam>_sum`,
/// `<fam>_count`) back to its declared family name, if any.
fn histogram_family<'a>(name: &str, typed: &'a [(String, String)]) -> Option<&'a str> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if let Some((n, k)) = typed.iter().find(|(n, _)| n == base) {
                if k == "histogram" {
                    return Some(n.as_str());
                }
            }
        }
    }
    None
}

/// Splits a sample line into `(metric name, labels, value)`.
#[allow(clippy::type_complexity)]
fn parse_sample(line: &str) -> Result<(String, Vec<(String, String)>, String), String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() && is_name_char(bytes[i], i == 0) {
        i += 1;
    }
    if i == 0 {
        return Err(format!(
            "sample does not start with a metric name: {line:?}"
        ));
    }
    let name = line[..i].to_string();
    let mut labels = Vec::new();
    let mut rest = &line[i..];
    if rest.starts_with('{') {
        let end = find_label_block_end(rest)
            .ok_or_else(|| format!("unterminated label block in {line:?}"))?;
        parse_labels(&rest[1..end], &mut labels)?;
        rest = &rest[end + 1..];
    }
    let value = rest.trim();
    if value.is_empty() {
        return Err(format!("sample {name} has no value"));
    }
    // A timestamp suffix would be a second field; we emit none, and one
    // here means a malformed value.
    if value.split_whitespace().count() != 1 {
        return Err(format!("sample {name} has trailing fields: {value:?}"));
    }
    Ok((name, labels, value.to_string()))
}

/// Finds the index of the unescaped closing `}` of a label block that
/// starts at byte 0 of `s`.
fn find_label_block_end(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(1) {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Parses `k="v",k2="v2"` into `out`.
fn parse_labels(s: &str, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = &rest[..eq];
        if key.is_empty()
            || !key
                .bytes()
                .enumerate()
                .all(|(i, b)| is_label_char(b, i == 0))
        {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label {key} value not quoted"));
        }
        let mut value = String::new();
        let mut chars = rest[1..].char_indices();
        let mut close = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => return Err(format!("bad escape {other:?} in label {key}")),
                },
                '"' => {
                    close = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let close = close.ok_or_else(|| format!("unterminated value for label {key}"))?;
        out.push((key.to_string(), value));
        rest = &rest[1 + close + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label {key}: {rest:?}"));
        }
    }
    Ok(())
}

/// Accepts integers, fixed-point decimals, scientific notation, and the
/// special values Prometheus allows.
fn parse_number(s: &str) -> Result<(), String> {
    if matches!(s, "+Inf" | "-Inf" | "NaN") {
        return Ok(());
    }
    s.parse::<f64>()
        .map(|_| ())
        .map_err(|_| format!("not a number: {s:?}"))
}

fn is_name_char(b: u8, first: bool) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || (!first && b.is_ascii_digit())
}

fn is_label_char(b: u8, first: bool) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || (!first && b.is_ascii_digit())
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty() && s.bytes().enumerate().all(|(i, b)| is_name_char(b, i == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# HELP gpuflow_ready_tasks Tasks in the ready set.
# TYPE gpuflow_ready_tasks gauge
gpuflow_ready_tasks 3
# HELP gpuflow_tasks_completed_total Tasks completed, by task type.
# TYPE gpuflow_tasks_completed_total counter
gpuflow_tasks_completed_total{type=\"map\"} 7
# HELP gpuflow_task_duration_seconds Latency.
# TYPE gpuflow_task_duration_seconds histogram
gpuflow_task_duration_seconds_bucket{type=\"map\",le=\"0.001\"} 2
gpuflow_task_duration_seconds_bucket{type=\"map\",le=\"+Inf\"} 7
gpuflow_task_duration_seconds_sum{type=\"map\"} 0.42
gpuflow_task_duration_seconds_count{type=\"map\"} 7
";

    #[test]
    fn accepts_a_well_formed_exposition() {
        let stats = check(GOOD).expect("valid");
        assert_eq!(stats.families, 3);
        assert_eq!(stats.samples, 6);
    }

    #[test]
    fn rejects_samples_before_their_type() {
        let text = "gpuflow_x 1\n# TYPE gpuflow_x gauge\n";
        assert!(check(text).unwrap_err().contains("precedes"));
    }

    #[test]
    fn rejects_duplicate_type_declarations() {
        let text = "# TYPE a gauge\n# TYPE a gauge\na 1\n";
        assert!(check(text).unwrap_err().contains("duplicate TYPE"));
    }

    #[test]
    fn rejects_decreasing_histogram_buckets() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"+Inf\"} 3
h_sum 1.0
h_count 3
";
        assert!(check(text).unwrap_err().contains("decreases"));
    }

    #[test]
    fn histogram_series_are_validated_independently() {
        // Two type-labelled series whose ladders interleave: cumulative
        // counts drop *across* series (7 -> 2) but not *within* either,
        // which is exactly what a multi-type latency histogram emits.
        let text = "\
# TYPE h histogram
h_bucket{type=\"a\",le=\"0.1\"} 5
h_bucket{type=\"a\",le=\"+Inf\"} 7
h_sum{type=\"a\"} 1.0
h_count{type=\"a\"} 7
h_bucket{type=\"b\",le=\"0.1\"} 2
h_bucket{type=\"b\",le=\"+Inf\"} 3
h_sum{type=\"b\"} 0.5
h_count{type=\"b\"} 3
";
        let stats = check(text).expect("independent series are valid");
        assert_eq!(stats.samples, 8);
        // A genuine within-series decrease is still caught.
        let bad = "\
# TYPE h histogram
h_bucket{type=\"a\",le=\"0.1\"} 5
h_bucket{type=\"a\",le=\"+Inf\"} 3
h_sum{type=\"a\"} 1.0
h_count{type=\"a\"} 3
";
        assert!(check(bad).unwrap_err().contains("decreases"));
    }

    #[test]
    fn rejects_inf_count_mismatch() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 3
h_sum 1.0
h_count 4
";
        assert!(check(text).unwrap_err().contains("!= _count"));
    }

    #[test]
    fn rejects_missing_inf_bucket() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"0.5\"} 3
h_sum 1.0
h_count 3
";
        assert!(check(text).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn rejects_bad_metric_names_and_values() {
        assert!(check("# TYPE 9bad gauge\n").is_err());
        assert!(check("# TYPE ok gauge\nok notanumber\n").is_err());
        assert!(check("# TYPE ok gauge\nok 1 2 3\n").is_err());
    }

    #[test]
    fn parses_escaped_label_values() {
        let text = "# TYPE m counter\nm{l=\"a\\\"b\\\\c\\nd\"} 1\n";
        let stats = check(text).expect("escapes are legal");
        assert_eq!(stats.samples, 1);
    }

    #[test]
    fn rejects_unterminated_labels() {
        assert!(check("# TYPE m counter\nm{l=\"x} 1\n").is_err());
        assert!(check("# TYPE m counter\nm{l=x} 1\n").is_err());
    }

    #[test]
    fn accepts_a_well_formed_alert_surface() {
        let text = "\
# TYPE gpuflow_queue_wait_seconds histogram
gpuflow_queue_wait_seconds_bucket{le=\"+Inf\"} 2
gpuflow_queue_wait_seconds_sum 0.1
gpuflow_queue_wait_seconds_count 2
# TYPE gpuflow:queue_wait_seconds:p99 gauge
gpuflow:queue_wait_seconds:p99 0.05
# TYPE gpuflow_alert_state gauge
gpuflow_alert_state{alert=\"queue_wait_p99\",severity=\"warning\",subject=\"global\"} 2
gpuflow_alert_state{alert=\"reject_rate\",severity=\"critical\",subject=\"quota\"} 0
";
        check(text).expect("base grammar");
        let stats = check_alert_families(text).expect("alert surface");
        assert_eq!(stats.alert_samples, 2);
        assert_eq!(stats.recording_families, 1);
    }

    #[test]
    fn rejects_malformed_alert_state_samples() {
        // Wrong label set.
        let bad = "# TYPE gpuflow_alert_state gauge\n\
                   gpuflow_alert_state{alert=\"a\",subject=\"s\"} 0\n";
        assert!(check_alert_families(bad)
            .unwrap_err()
            .contains("alert,severity,subject"));
        // Unknown severity.
        let bad = "# TYPE gpuflow_alert_state gauge\n\
                   gpuflow_alert_state{alert=\"a\",severity=\"fatal\",subject=\"s\"} 0\n";
        assert!(check_alert_families(bad).unwrap_err().contains("severity"));
        // Out-of-range state value.
        let bad = "# TYPE gpuflow_alert_state gauge\n\
                   gpuflow_alert_state{alert=\"a\",severity=\"warning\",subject=\"s\"} 3\n";
        assert!(check_alert_families(bad).unwrap_err().contains("0|1|2"));
        // Alert family declared as a counter.
        let bad = "# TYPE gpuflow_alert_state counter\n";
        assert!(check_alert_families(bad).unwrap_err().contains("gauge"));
    }

    #[test]
    fn rejects_malformed_recording_rule_names() {
        let bad = "# TYPE gpuflow:p99 gauge\ngpuflow:p99 0.1\n";
        assert!(check_alert_families(bad)
            .unwrap_err()
            .contains("level:metric:operation"));
        let bad = "# TYPE gpuflow:queue_wait_seconds:p99 counter\n";
        assert!(check_alert_families(bad).unwrap_err().contains("gauge"));
    }

    #[test]
    fn rejects_mixed_label_sets_within_a_family() {
        let text = "\
# TYPE gpuflow_tenant_jobs_rejected_total counter
gpuflow_tenant_jobs_rejected_total{tenant=\"a\",reason=\"quota\"} 1
gpuflow_tenant_jobs_rejected_total{tenant=\"b\"} 2
";
        assert!(check(text).unwrap_err().contains("mixes label sets"));
    }

    #[test]
    fn histogram_components_share_one_label_set() {
        // _bucket carries le, _sum/_count do not; the canonical set
        // strips le so the family stays consistent.
        assert!(check(GOOD).is_ok());
        let bad = "\
# TYPE h histogram
h_bucket{type=\"a\",le=\"+Inf\"} 1
h_sum{tenant=\"a\"} 1.0
h_count{type=\"a\"} 1
";
        assert!(check(bad).unwrap_err().contains("mixes label sets"));
    }
}
