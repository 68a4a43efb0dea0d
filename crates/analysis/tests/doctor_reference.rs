//! Byte identity of `DoctorReport::to_json` against its `core::fmt`
//! reference.
//!
//! This file keeps the formatter-based body of the doctor's JSON
//! emitter, as it was before the emitter moved onto the runtime's byte
//! writer. The emitter must render the same bytes on random reports
//! (texts that need JSON escapes, every float class) and on reports
//! diagnosed from real runs: the four committed perf-gate baselines and
//! the two faulted runs pinned in the runtime's fold goldens.

use std::fmt::{self, Write as _};
use std::path::Path;

use gpuflow_analysis::{DoctorReport, Finding, Severity, WhatIf};
use gpuflow_runtime::RunProfile;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// JSON string content with `"`, `\` and control characters escaped.
struct JsonStr<'a>(&'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

fn reference_to_json(r: &DoctorReport) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"label\":\"{}\",\"makespan_ns\":{},\"findings\":[",
        JsonStr(&r.label),
        r.makespan_ns
    );
    for (i, f) in r.findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}{{\"severity\":\"{}\",\"code\":\"{}\",\"message\":\"{}\",\"evidence\":\"{}\"}}",
            f.severity.label(),
            f.code,
            JsonStr(&f.message),
            JsonStr(&f.evidence)
        );
    }
    s.push_str("],\"whatifs\":[");
    for (i, w) in r.whatifs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}{{\"change\":\"{}\",\"baseline_s\":{},\"predicted_s\":{}}}",
            JsonStr(&w.change),
            w.baseline_makespan,
            w.predicted_makespan
        );
    }
    s.push_str("]}");
    s
}

const TEXTS: [&str; 8] = [
    "map",
    "say \"hi\"",
    "back\\slash",
    "two\nlines",
    "cr\r tab\t",
    "ctl\u{1}\u{1f}",
    "κ-means ✓",
    "",
];

const CODES: [&str; 3] = ["attribution", "transfer-bound", "idle"];

const SEVERITIES: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Critical];

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A float of every class: zeros, integers, fractions, the extremes,
/// subnormals, infinities, NaN and arbitrary bit patterns.
fn float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => pick(rng, &[0.0, -0.0, 1.0, -1.0, 0.1, 1e21, 1e-7, 123456.789]),
        1 => pick(rng, &[f64::MAX, f64::MIN, f64::MIN_POSITIVE, f64::EPSILON]),
        2 => pick(rng, &[f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324]),
        3 => rng.gen_range(0..1_000_000u64) as f64,
        4 => f64::from_bits(rng.gen()),
        _ => rng.gen_range(0.0..100.0),
    }
}

/// A report with escape-needing texts and floats of every class.
struct Reports;

impl Strategy for Reports {
    type Value = DoctorReport;

    fn sample(&self, rng: &mut StdRng) -> DoctorReport {
        let text = |rng: &mut StdRng| pick(rng, &TEXTS).to_string();
        DoctorReport {
            label: text(rng),
            makespan_ns: match rng.gen_range(0..3u32) {
                0 => u64::MAX,
                _ => rng.gen(),
            },
            findings: (0..rng.gen_range(0..5usize))
                .map(|_| Finding {
                    severity: pick(rng, &SEVERITIES),
                    code: pick(rng, &CODES),
                    message: text(rng),
                    evidence: text(rng),
                })
                .collect(),
            whatifs: (0..rng.gen_range(0..5usize))
                .map(|_| WhatIf {
                    change: text(rng),
                    baseline_makespan: float(rng),
                    predicted_makespan: float(rng),
                })
                .collect(),
        }
    }
}

fn assert_same(r: &DoctorReport) {
    let (actual, expected) = (r.to_json(), reference_to_json(r));
    assert!(
        actual == expected,
        "doctor JSON differs from its reference\n--- actual ---\n{actual}\n--- reference ---\n{expected}"
    );
}

proptest! {
    #[test]
    fn doctor_json_matches_the_fmt_reference(report in Reports) {
        assert_same(&report);
    }
}

/// Profiles of real runs: the committed baselines, and the profile
/// section of each faulted fold golden.
fn real_profiles() -> Vec<RunProfile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &str| {
        std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("reading {path}: {e}"))
    };
    let mut texts: Vec<String> = [
        "kmeans_cpu_shared_fifo",
        "kmeans_gpu_local_locality",
        "matmul_cpu_shared_fifo",
        "matmul_gpu_shared_fifo",
    ]
    .iter()
    .map(|case| read(&format!("artifacts/baselines/{case}.profile")))
    .collect();
    for golden in ["folds_gpu_chaos_replay", "folds_cpu_crash_regen"] {
        let text = read(&format!("crates/runtime/tests/golden/{golden}.txt"));
        let profile = text
            .strip_prefix("-- profile --\n")
            .and_then(|rest| rest.split("-- span summary --").next())
            .expect("the golden opens with its profile section");
        texts.push(profile.to_string());
    }
    texts
        .iter()
        .map(|t| RunProfile::parse(t).expect("profile parses"))
        .collect()
}

#[test]
fn real_runs_match_the_reference() {
    let profiles = real_profiles();
    assert!(
        profiles.iter().any(|p| p.recovery_ns > 0),
        "a faulted run is among the inputs"
    );
    for p in &profiles {
        let secs = p.makespan_ns as f64 / 1e9;
        let whatifs = vec![
            WhatIf {
                change: "2x grid dimension".into(),
                baseline_makespan: secs,
                predicted_makespan: secs * 0.61,
            },
            WhatIf {
                change: "local disk".into(),
                baseline_makespan: secs,
                predicted_makespan: secs / 3.0,
            },
        ];
        assert_same(&DoctorReport::diagnose(p));
        assert_same(&DoctorReport::diagnose(p).with_whatifs(whatifs));
    }
}
