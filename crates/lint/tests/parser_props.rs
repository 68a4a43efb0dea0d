//! The lint crate's text checkers at their boundary: arbitrary text,
//! and mutations of valid documents, never panic `json::parse`,
//! `promtext::check` or `collapsed::check`.
//!
//! Each property counts the inputs its checker accepted and refused and
//! requires both, so none of them holds by refusing (or accepting)
//! everything it is given.

use std::cell::Cell;

use gpuflow_lint::{collapsed, json, promtext};
use proptest::prelude::*;

/// A JSON document with every kind of value, escapes and non-ASCII
/// text.
const JSON_DOC: &str = r#"{"name": "gpuflow", "tasks": [1, 2.5, -3e2, 0, 1E+3],
 "nested": {"ok": true, "no": false, "none": null, "empty": [], "obj": {}},
 "text": "tab\t quote\" slash\/ \u00e9 é ✓", "deep": [[{"a": [null]}]]}"#;

/// An exposition with a counter of two labels (one value escaped), an
/// unlabelled gauge and a histogram of two series.
const PROM_DOC: &str = r#"# HELP gpuflow_tasks_total Tasks completed.
# TYPE gpuflow_tasks_total counter
gpuflow_tasks_total{tenant="acme",kind="gpu"} 12
gpuflow_tasks_total{tenant="b\"x\\y",kind="cpu"} 3
# A plain comment.
# TYPE gpuflow_queue_depth gauge
gpuflow_queue_depth 4.5
# HELP gpuflow_latency_seconds Task latency.
# TYPE gpuflow_latency_seconds histogram
gpuflow_latency_seconds_bucket{type="a",le="0.1"} 1
gpuflow_latency_seconds_bucket{type="a",le="1"} 3
gpuflow_latency_seconds_bucket{type="a",le="+Inf"} 4
gpuflow_latency_seconds_sum{type="a"} 2.5
gpuflow_latency_seconds_count{type="a"} 4
gpuflow_latency_seconds_bucket{type="b",le="0.1"} 0
gpuflow_latency_seconds_bucket{type="b",le="+Inf"} 2
gpuflow_latency_seconds_sum{type="b"} 0.75
gpuflow_latency_seconds_count{type="b"} 2
"#;

/// Collapsed stacks under one root, of several depths.
const FLAME_DOC: &str = "gpuflow;wide_t0;queue-wait 120
gpuflow;wide_t0;compute 4800
gpuflow;tree_t1;compute 900
gpuflow;tree_t1;transfer;h2d 35
gpuflow 7
";

/// Pieces of each grammar: its punctuation, keywords and numbers.
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\"k\"", "\\u00e9", "\\u", "true", "false", "null",
    "-", "0", "12", ".5", "e", "E+", " ", "\n", "é",
];

const PROM_TOKENS: &[&str] = &[
    "# HELP ", "# TYPE ", "counter", "gauge", "summary", "x", "x_bucket", "x_sum", "x_count", "{",
    "}", "le=", "\"+Inf\"", "\"1\"", "t=", "\"a\"", "\\", "\"", ",", " ", "\n", "1", "0.5", "NaN",
    "+Inf", "-",
];

const FLAME_TOKENS: &[&str] = &["root", "a", ";", " ", "1", "42", "0", "\n", "-", "root;a 3"];

thread_local! {
    /// Inputs refused and accepted by the property running on this
    /// thread.
    static OUTCOMES: Cell<[usize; 2]> = const { Cell::new([0, 0]) };
}

/// Counts the outcome of one check.
fn tally<T, E>(result: Result<T, E>) {
    OUTCOMES.with(|o| {
        let mut counts = o.get();
        counts[usize::from(result.is_ok())] += 1;
        o.set(counts);
    });
}

/// Runs `property` and requires its checker to have both refused and
/// accepted some of its inputs.
fn reaches_both_outcomes(property: fn()) {
    OUTCOMES.with(|o| o.set([0, 0]));
    property();
    let [refused, accepted] = OUTCOMES.with(Cell::get);
    eprintln!("{refused} refused, {accepted} accepted");
    assert!(refused > 0, "no input was refused ({accepted} accepted)");
    assert!(accepted > 0, "no input was accepted ({refused} refused)");
}

/// Arbitrary text: lines of a valid `doc`, a grammar's `tokens`,
/// numbers and any other character, in any order.
fn text(doc: &str, tokens: &[&str], raw: &[(u32, u64)]) -> String {
    let lines: Vec<&str> = doc.split_inclusive('\n').collect();
    raw.iter()
        .map(|&(kind, bits)| match kind {
            0..=3 => lines[bits as usize % lines.len()].to_string(),
            4 | 5 => tokens[bits as usize % tokens.len()].to_string(),
            6 => (bits % 1000).to_string(),
            _ => char::from_u32(bits as u32 % 0x11_0000)
                .unwrap_or('\u{fffd}')
                .to_string(),
        })
        .collect()
}

/// `doc` after a few edits: each deletes a character, inserts one of
/// `tokens`, replaces a character by any other, doubles a span or
/// truncates the text.
fn mutate(doc: &str, tokens: &[&str], edits: &[(u32, u64, u64)]) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for &(kind, at, arg) in edits {
        let at = at as usize % (chars.len() + 1);
        match kind {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => {
                let token = tokens[arg as usize % tokens.len()];
                chars.splice(at..at, token.chars());
            }
            2 if at < chars.len() => {
                chars[at] = char::from_u32(arg as u32 % 0x11_0000).unwrap_or('\u{fffd}');
            }
            3 => {
                let end = (at + arg as usize % 40).min(chars.len());
                let span = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// One to three edits of a document.
fn edits() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    prop::collection::vec((0u32..5, 0u64..u64::MAX, 0u64..u64::MAX), 1..4)
}

/// One to seven pieces of arbitrary text.
fn raw() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0u32..8, 0u64..u64::MAX), 1..8)
}

proptest! {
    fn json_text(raw in raw()) {
        tally(json::parse(&text(JSON_DOC, JSON_TOKENS, &raw)));
    }

    fn json_mutants(edits in edits()) {
        tally(json::parse(&mutate(JSON_DOC, JSON_TOKENS, &edits)));
    }

    fn promtext_text(raw in raw()) {
        tally(promtext::check(&text(PROM_DOC, PROM_TOKENS, &raw)));
    }

    fn promtext_mutants(edits in edits()) {
        tally(promtext::check(&mutate(PROM_DOC, PROM_TOKENS, &edits)));
    }

    fn collapsed_text(raw in raw()) {
        tally(collapsed::check(&text(FLAME_DOC, FLAME_TOKENS, &raw)));
    }

    fn collapsed_mutants(edits in edits()) {
        tally(collapsed::check(&mutate(FLAME_DOC, FLAME_TOKENS, &edits)));
    }
}

#[test]
fn the_valid_documents_are_accepted() {
    json::parse(JSON_DOC).unwrap();
    assert_eq!(promtext::check(PROM_DOC).unwrap().samples, 12);
    assert_eq!(collapsed::check(FLAME_DOC).unwrap().stacks, 5);
}

#[test]
fn arbitrary_text_never_panics_the_json_parser() {
    reaches_both_outcomes(json_text);
}

#[test]
fn mutated_json_never_panics_the_parser() {
    reaches_both_outcomes(json_mutants);
}

#[test]
fn arbitrary_text_never_panics_the_exposition_checker() {
    reaches_both_outcomes(promtext_text);
}

#[test]
fn mutated_expositions_never_panic_the_checker() {
    reaches_both_outcomes(promtext_mutants);
}

#[test]
fn arbitrary_text_never_panics_the_collapsed_stack_checker() {
    reaches_both_outcomes(collapsed_text);
}

#[test]
fn mutated_collapsed_stacks_never_panic_the_checker() {
    reaches_both_outcomes(collapsed_mutants);
}
