//! Properties of the profile text format (`gpuflow-profile v1`).
//!
//! Profile files are outside input: `gpuflow diff` and `gpuflow doctor
//! --profile` read whatever file they are given. So `RunProfile::parse`
//! must return an error, never panic, on arbitrary text, and whatever
//! it accepts must render back to text that parses to the same
//! profile. For profiles whose buckets partition their makespan (the
//! only ones `parse` accepts), `parse(render(p)) == p`.

use gpuflow_runtime::{
    CriticalSegment, HistogramDigest, ResourceProfile, RunProfile, TaskTypeProfile,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Characters of labels and names: ASCII, quotes, escapes, tabs and
/// carriage returns, non-ASCII and a non-breaking space, a control
/// character. No newline: the format is one record per line.
const CHARS: [char; 15] = [
    'a', 'Z', '7', ' ', ' ', '\t', '\r', '"', '\\', '#', '_', 'κ', '✓', '\u{a0}', '\u{1}',
];

/// The format's own words, so names and texts collide with tags and
/// keys.
const WORDS: [&str; 16] = [
    "name",
    "type",
    "bucket",
    "label",
    "factor",
    "count",
    "sum",
    "p99",
    "deser",
    "xfer_ns",
    "resource",
    "busy",
    "intervals",
    "path",
    "hops",
    "span",
];

/// Every tag the format knows, plus the header and unknown ones.
const TAGS: [&str; 14] = [
    "gpuflow-profile v1",
    "label",
    "makespan_ns",
    "tasks",
    "decisions",
    "wastage_ns",
    "cache_hits",
    "cache_misses",
    "factor",
    "bucket",
    "type",
    "resource",
    "path",
    "mystery",
];

/// Numbers at the edges of `u64` and `usize` parsing.
const NUMBERS: [&str; 8] = [
    "0",
    "1",
    "+5",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "0x10",
    "",
];

/// A `u64` of a random magnitude, from 0 to `u64::MAX`.
fn wide(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() >> rng.gen_range(0..64u32)
}

/// A name of up to 12 characters and words, without newlines or edge
/// whitespace; possibly empty.
fn name(rng: &mut StdRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..12usize) {
        if rng.gen_range(0..4u32) == 0 {
            s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
        } else {
            s.push(CHARS[rng.gen_range(0..CHARS.len())]);
        }
    }
    s.trim().to_string()
}

/// Random profiles whose five buckets partition the makespan.
struct Profiles;

impl Strategy for Profiles {
    type Value = RunProfile;

    fn sample(&self, rng: &mut StdRng) -> RunProfile {
        // Four cuts in [0, makespan] split it into five buckets.
        let makespan_ns = wide(rng);
        let mut cuts: Vec<u64> = (0..4)
            .map(|_| (u128::from(wide(rng)) % (u128::from(makespan_ns) + 1)) as u64)
            .collect();
        cuts.sort();
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(makespan_ns);
        let b: Vec<u64> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        let mut p = RunProfile {
            label: name(rng),
            makespan_ns,
            tasks: wide(rng),
            decisions: wide(rng),
            wastage_ns: wide(rng),
            cache_hits: wide(rng),
            cache_misses: wide(rng),
            compute_ns: b[0],
            data_movement_ns: b[1],
            recovery_ns: b[2],
            master_ns: b[3],
            idle_ns: b[4],
            ..RunProfile::default()
        };
        for _ in 0..rng.gen_range(0..4usize) {
            // Keys without spaces; values non-empty.
            let key = name(rng).replace(' ', "");
            p.factors.insert(key, format!("v{}", name(rng)));
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let mut digest = [0u64; 9].map(|_| wide(rng)).into_iter();
            let mut next = || digest.next().unwrap_or(0);
            let t = TaskTypeProfile {
                duration: HistogramDigest {
                    count: next(),
                    sum: next(),
                    min: next(),
                    p25: next(),
                    p50: next(),
                    p75: next(),
                    p90: next(),
                    p99: next(),
                    max: next(),
                },
                deser_ns: wide(rng),
                ser_ns: wide(rng),
                serial_ns: wide(rng),
                parallel_ns: wide(rng),
                comm_ns: wide(rng),
                transfer_bytes: wide(rng),
                transfer_ns: wide(rng),
            };
            p.per_type.insert(name(rng), t);
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let r = ResourceProfile {
                busy_ns: wide(rng),
                intervals: wide(rng),
            };
            p.resources.insert(wide(rng) as usize, r);
        }
        for _ in 0..rng.gen_range(0..4usize) {
            p.critical_path.push(CriticalSegment {
                task_type: name(rng),
                hops: wide(rng),
                span_ns: wide(rng),
            });
        }
        p
    }
}

/// Arbitrary text: lines of tags, field words, edge numbers and names,
/// or a rendered profile with random characters replaced, inserted and
/// lines dropped.
struct Texts;

impl Strategy for Texts {
    type Value = String;

    fn sample(&self, rng: &mut StdRng) -> String {
        if rng.gen::<bool>() {
            let mut chars: Vec<char> = Profiles.sample(rng).render().chars().collect();
            for _ in 0..rng.gen_range(1..6usize) {
                let at = rng.gen_range(0..chars.len());
                match rng.gen_range(0..4u32) {
                    0 => chars[at] = CHARS[rng.gen_range(0..CHARS.len())],
                    1 => chars.insert(at, ['\n', ' ', '9', '-'][rng.gen_range(0..4usize)]),
                    2 => {
                        chars.remove(at);
                    }
                    _ => chars.truncate(at),
                }
                if chars.is_empty() {
                    break;
                }
            }
            return chars.into_iter().collect();
        }
        let mut text = String::new();
        if rng.gen_range(0..4u32) > 0 {
            text.push_str("gpuflow-profile v1\n");
        }
        for _ in 0..rng.gen_range(0..10usize) {
            text.push_str(TAGS[rng.gen_range(0..TAGS.len())]);
            for _ in 0..rng.gen_range(0..20usize) {
                text.push_str([" ", "  ", "\t"][rng.gen_range(0..3usize)]);
                match rng.gen_range(0..4u32) {
                    0 => text.push_str(WORDS[rng.gen_range(0..WORDS.len())]),
                    1 => text.push_str(NUMBERS[rng.gen_range(0..NUMBERS.len())]),
                    2 => text.push_str(&wide(rng).to_string()),
                    _ => text.push_str(&name(rng)),
                }
            }
            text.push_str(["\n", "\r\n", " \n"][rng.gen_range(0..3usize)]);
        }
        text
    }
}

proptest! {
    #[test]
    fn rendered_partitions_parse_back_to_themselves(p in Profiles) {
        let text = p.render();
        prop_assert_eq!(RunProfile::parse(&text), Ok(p), "{}", text);
    }

    #[test]
    fn arbitrary_text_parses_or_errs_and_what_parses_re_renders(text in Texts) {
        if let Ok(p) = RunProfile::parse(&text) {
            let rendered = p.render();
            prop_assert_eq!(RunProfile::parse(&rendered), Ok(p), "{:?}", text);
        }
    }
}

/// The property runs draw enough texts that both outcomes occur.
#[test]
fn arbitrary_texts_reach_both_outcomes() {
    let mut rng = proptest::test_runner::deterministic_rng();
    let (mut ok, mut err) = (0, 0);
    for _ in 0..proptest::CASES {
        match RunProfile::parse(&Texts.sample(&mut rng)) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok > 0 && err > 0, "ok {ok}, err {err}");
}
