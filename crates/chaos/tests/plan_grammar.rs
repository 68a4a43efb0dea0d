//! `FaultPlan::parse` at its boundary: arbitrary text never panics it,
//! and every plan with finite values survives `render` then `parse`.

use gpuflow_chaos::FaultPlan;
use proptest::prelude::*;

/// Words of the clause grammar, its separators, and some words it does
/// not know.
const TOKENS: [&str; 24] = [
    "crash", "gpufail", "straggle", "linkdeg", "taskfail", "seed", "warp", ":", ";", ",", "=",
    "node", "at", "until", "factor", "rejoin", "p", "type", " ", ".", "e", "-", "inf", "NaN",
];

/// Arbitrary text over the grammar's words, numbers and any other
/// character.
fn text(raw: &[(u32, u64)]) -> String {
    raw.iter()
        .map(|&(kind, bits)| match kind {
            0 | 1 => TOKENS[bits as usize % TOKENS.len()].to_string(),
            2 => bits.to_string(),
            3 => f64::from_bits(bits).to_string(),
            _ => char::from_u32(bits as u32 % 0x11_0000)
                .unwrap_or('\u{fffd}')
                .to_string(),
        })
        .collect()
}

/// A finite `f64` from arbitrary bits: the bits themselves when they
/// encode a finite value, else their top 53 bits as an integer.
fn finite(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        (bits >> 11) as f64
    }
}

/// A plan of random clauses with finite values; task type names avoid
/// the grammar's separators and spaces.
fn plan(seed: u64, clauses: &[(u32, u64, u64, u64)]) -> FaultPlan {
    const NAME: &[u8] = b"abcxyz_019AZ-.";
    let mut plan = FaultPlan::new(seed);
    for &(kind, node, a, b) in clauses {
        let (node, x, y) = (node as usize, finite(a), finite(b));
        plan = match kind {
            0 => plan.with_node_crash(node, x, (b % 2 == 0).then_some(y)),
            1 => plan.with_gpu_failure(node, x),
            2 => plan.with_straggler(node, x, y, finite(a ^ b)),
            3 => plan.with_link_degradation(x, y, finite(a.rotate_left(7))),
            _ => {
                let len = node % 9;
                let name: String = (0..len)
                    .map(|i| NAME[(a >> (i * 4)) as usize % NAME.len()] as char)
                    .collect();
                plan.with_task_failures((b % 3 != 0).then_some(name.as_str()), y)
            }
        };
    }
    plan
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics_the_parser(
        raw in prop::collection::vec((0u32..5, 0u64..u64::MAX), 0..32),
    ) {
        // A parsed plan renders to text that parses to a plan rendering
        // the same text (values may be NaN, so plans are compared
        // through their text).
        if let Ok(plan) = FaultPlan::parse(&text(&raw)) {
            let again = FaultPlan::parse(&plan.render());
            prop_assert_eq!(again.map(|p| p.render()), Ok(plan.render()));
        }
    }

    #[test]
    fn parse_inverts_render(
        seed in 0u64..u64::MAX,
        clauses in prop::collection::vec((0u32..5, (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX)), 0..12),
    ) {
        let clauses: Vec<_> = clauses.iter().map(|&(k, (n, a, b))| (k, n, a, b)).collect();
        let plan = plan(seed, &clauses);
        prop_assert_eq!(FaultPlan::parse(&plan.render()), Ok(plan));
    }
}
