//! The scan engine: token-pattern passes over one lexed file.
//!
//! Each rule is a heuristic over the flat token stream — precise enough
//! that the workspace can honestly be kept lint-clean, conservative
//! enough that real regressions (a new `Instant::now`, a lossy ns cast)
//! cannot slip through. Where a heuristic must guess (is this hash-map
//! fold order-insensitive?), it errs toward reporting and the
//! `// lint: allow(CODE, reason)` grammar records the human judgment.
//!
//! Test-only code (`#[cfg(test)]` items) is skipped entirely: tests may
//! use wall clocks, unwraps, and hash iteration freely.

use crate::allow::Allow;
use crate::lexer::{lex, match_bracket, skip_angles, Lexed, Tok, TokKind};
use crate::report::Finding;
use crate::rules::RuleCode;

/// Methods that begin a hash-order iteration when called on a
/// hash-typed binding.
const ITER_FAMILY: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Adapter methods that preserve (hash) order — the chain walk passes
/// through them looking for a terminal verdict.
const TRANSPARENT: [&str; 13] = [
    "copied",
    "cloned",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "enumerate",
    "by_ref",
    "take",
    "skip",
    "chain",
    "inspect",
];

/// Terminal methods whose result does not depend on iteration order.
/// `sum` is also treated as neutral *unless* its turbofish names a
/// float type (then it is a D4): integer sums commute, float sums do
/// not.
const NEUTRAL: [&str; 9] = [
    "max",
    "min",
    "count",
    "all",
    "any",
    "len",
    "is_empty",
    "contains",
    "contains_key",
];

/// Function-name fragments that mark a fault-recovery path for R1.
const RECOVERY_FNS: [&str; 11] = [
    "fault",
    "retry",
    "requeue",
    "crash",
    "rejoin",
    "regenerat",
    "resubmit",
    "abort",
    "invalidate",
    "recover",
    "quarantine",
];

/// Integer/float types a cast *into* can lose ns precision or range.
/// `f64` (exact to 2^53 ns ≈ 104 days, used for display ratios), `u128`
/// and `i128` (widening) are deliberately excluded.
const LOSSY_TYPES: [&str; 11] = [
    "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64", "isize", "usize", "f32",
];

/// Seconds→ns scale factors whose float provenance makes a following
/// integer cast lossy (`(secs * 1e9) as u64` truncates and can saturate
/// silently — use `SimDuration::from_secs_f64`).
const SCALE_FACTORS: [&str; 4] = ["1e9", "1e6", "1e3", "1_000_000_000"];

/// Loop-body identifiers that make hash-order iteration observable in
/// an artifact (emission sinks). A `for` over a hash map whose body
/// only does order-insensitive work (counting, integer accumulation
/// into another map) is not flagged.
const EMISSION_SINKS: [&str; 8] = [
    "push", "push_str", "write", "writeln", "print", "println", "format", "extend",
];

/// One suppression annotation with its computed line coverage.
#[derive(Debug)]
struct AllowSite {
    allow: Allow,
    /// Line the annotation is written on.
    line: u32,
    /// Inclusive line range of code this annotation covers.
    cover: (u32, u32),
    used: bool,
}

/// Parses suppression annotations outside test code, reporting
/// malformed ones as A0 findings.
fn parse_allows(path: &str, lexed: &Lexed, skipped: &[bool]) -> (Vec<AllowSite>, Vec<Finding>) {
    let toks = &lexed.tokens;
    let skipped_lines = skipped_line_ranges(toks, skipped);
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        if skipped_lines
            .iter()
            .any(|&(a, b)| c.line >= a && c.line <= b)
        {
            continue;
        }
        match Allow::parse(&c.text) {
            Ok(None) => {}
            Ok(Some(allow)) => {
                let cover = coverage(toks, c.line);
                allows.push(AllowSite {
                    allow,
                    line: c.line,
                    cover,
                    used: false,
                });
            }
            Err(e) => findings.push(Finding::new(RuleCode::A0, path, c.line, 1, e)),
        }
    }
    (allows, findings)
}

/// Runs the per-function (v1) rule passes — D1–D4, T1, R1 — with no
/// suppression applied.
fn v1_findings(path: &str, toks: &[Tok], skipped: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let ctx = FileCtx {
        path,
        toks,
        skipped,
        fn_of: enclosing_fns(toks),
        hash_names: hash_bindings(toks),
        float_names: float_bindings(toks),
    };
    rule_d1_d4(&ctx, &mut findings);
    rule_d2(&ctx, &mut findings);
    rule_d3(&ctx, &mut findings);
    rule_t1(&ctx, &mut findings);
    rule_r1(&ctx, &mut findings);
    findings
}

/// Drops findings an annotation covers, marking the annotation used.
/// Meta findings (A0/A1/A2) never match.
fn apply_suppressions(findings: &mut Vec<Finding>, allows: &mut [AllowSite]) {
    findings.retain(|f| {
        if !f.rule.suppressible() {
            return true;
        }
        let mut hit = false;
        for a in allows.iter_mut() {
            if a.allow.code == f.rule && f.line >= a.cover.0 && f.line <= a.cover.1 {
                a.used = true;
                hit = true;
            }
        }
        !hit
    });
}

/// The stale-annotation finding for an unused allow: A1 for the
/// per-function rules, A2 for the interprocedural ones.
fn stale_allow_finding(path: &str, a: &AllowSite) -> Finding {
    if a.allow.code.interprocedural() {
        Finding::new(
            RuleCode::A2,
            path,
            a.line,
            1,
            format!(
                "interprocedural suppression allow({}, {}) matched no finding \
                 in the workspace pass — the chain it silenced is gone; delete it",
                a.allow.code, a.allow.reason
            ),
        )
    } else {
        Finding::new(
            RuleCode::A1,
            path,
            a.line,
            1,
            format!(
                "suppression allow({}, {}) matched no finding — delete or move it",
                a.allow.code, a.allow.reason
            ),
        )
    }
}

/// Scans one file's source text with the per-function rules only.
/// `path` is used verbatim in findings.
///
/// Interprocedural findings (D5/T2/L1) need the whole workspace — use
/// [`analyze`] for those. Accordingly, allows naming interprocedural
/// codes are left *unjudged* here: a lone-file scan cannot tell whether
/// they are stale, so it never reports A1/A2 for them.
pub fn scan_file(path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let skipped = test_skip_mask(&lexed.tokens);
    let (mut allows, mut findings) = parse_allows(path, &lexed, &skipped);
    findings.extend(v1_findings(path, &lexed.tokens, &skipped));
    apply_suppressions(&mut findings, &mut allows);
    for a in &allows {
        if !a.used && !a.allow.code.interprocedural() {
            findings.push(stale_allow_finding(path, a));
        }
    }
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// The workspace-level analysis: per-file v1 rules plus the
/// interprocedural passes (D5 taint, T2 units, L1 lock order) over the
/// symbol graph, with unified suppression. `files` pairs each display
/// path with its source text. This is what `gpuflow lint` runs.
pub fn analyze(files: &[(String, String)]) -> Vec<Finding> {
    // Lex everything once; the graph and every pass share the tokens.
    let lexed_files: Vec<(String, Lexed, Vec<bool>)> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lex(src);
            let skipped = test_skip_mask(&lexed.tokens);
            (path.clone(), lexed, skipped)
        })
        .collect();

    let mut findings = Vec::new();
    let mut file_allows: Vec<(String, Vec<AllowSite>)> = Vec::new();
    for (path, lexed, skipped) in &lexed_files {
        let (allows, mut a0) = parse_allows(path, lexed, skipped);
        findings.append(&mut a0);
        findings.extend(v1_findings(path, &lexed.tokens, skipped));
        file_allows.push((path.clone(), allows));
    }

    let graph = crate::symbols::SymbolGraph::build(&lexed_files);

    // D5: local sources per function body, then taint reachability.
    let hash_names: Vec<Vec<String>> = lexed_files
        .iter()
        .map(|(_, lexed, _)| hash_bindings(&lexed.tokens))
        .collect();
    // An allow(D1) covering a hash iteration records the human judgment
    // that the reduction is order-total — which also voids the taint
    // premise, so such sites are not D5 sources either. (The allow is
    // kept live by the suppressed D1 finding itself.)
    let d1_allowed = |file: usize, line: u32| {
        file_allows[file]
            .1
            .iter()
            .any(|a| a.allow.code == RuleCode::D1 && line >= a.cover.0 && line <= a.cover.1)
    };
    let fn_sources: Vec<Vec<crate::taint::Source>> = graph
        .fns
        .iter()
        .map(|d| match d.body {
            Some((a, b)) => {
                let toks = &lexed_files[d.file].1.tokens;
                crate::taint::local_sources(&toks[a..b.min(toks.len())], &hash_names[d.file])
                    .into_iter()
                    .filter(|s| !(s.kind == "hash-order iteration" && d1_allowed(d.file, s.line)))
                    .collect()
            }
            None => Vec::new(),
        })
        .collect();
    findings.extend(crate::taint::check(&graph, &fn_sources));

    // T2: per-file token checks plus call-boundary inference.
    for (path, lexed, skipped) in &lexed_files {
        findings.extend(crate::units::check_file(
            path,
            &lexed.tokens,
            &|i| !skipped.get(i).copied().unwrap_or(false),
            &graph,
        ));
    }

    // L1: workspace lock graph.
    findings.extend(crate::locks::check(&graph, &lexed_files));

    // Unified suppression: match each file's findings against its own
    // allows, then report stale annotations (A1 for v1 codes, A2 for
    // interprocedural ones — only the workspace pass can judge those).
    for (path, allows) in file_allows.iter_mut() {
        let mut own: Vec<Finding> = Vec::new();
        let mut rest = Vec::with_capacity(findings.len());
        for f in findings.drain(..) {
            if f.file == *path {
                own.push(f);
            } else {
                rest.push(f);
            }
        }
        apply_suppressions(&mut own, allows);
        findings = rest;
        findings.append(&mut own);
        for a in allows.iter() {
            if !a.used {
                findings.push(stale_allow_finding(path, a));
            }
        }
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    findings
}

/// Shared per-file context for the rule passes.
struct FileCtx<'a> {
    path: &'a str,
    toks: &'a [Tok],
    skipped: &'a [bool],
    /// Enclosing function name per token index, if any.
    fn_of: Vec<Option<String>>,
    /// Identifiers bound (let or typed) to `HashMap`/`HashSet`.
    hash_names: Vec<String>,
    /// Identifiers bound to float values (for D4 accumulation).
    float_names: Vec<String>,
}

impl FileCtx<'_> {
    fn live(&self, i: usize) -> bool {
        !self.skipped.get(i).copied().unwrap_or(false)
    }
}

// ---------------------------------------------------------------------
// Structure precomputation
// ---------------------------------------------------------------------

/// Marks tokens inside `#[cfg(test)]`-gated items (and any stacked
/// attributes between the gate and the item). Shared with the symbol
/// graph so test items define no symbols.
pub(crate) fn test_skip_mask(toks: &[Tok]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && matches!(toks.get(i + 1), Some(t) if t.is_punct("[")) {
            let attr_end = match_bracket(toks, i + 1, "[", "]");
            let inner = &toks[i + 2..attr_end.min(toks.len())];
            let is_cfg_test = inner.first().is_some_and(|t| t.is_ident("cfg"))
                && inner.iter().any(|t| t.is_ident("test"));
            if is_cfg_test {
                let mut j = attr_end + 1;
                // Stacked attributes after the gate also belong to the item.
                while j < toks.len()
                    && toks[j].is_punct("#")
                    && matches!(toks.get(j + 1), Some(t) if t.is_punct("["))
                {
                    j = match_bracket(toks, j + 1, "[", "]") + 1;
                }
                // The item runs to its `;` or through its brace block.
                while j < toks.len() && !toks[j].is_punct(";") && !toks[j].is_punct("{") {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct("{") {
                    j = match_bracket(toks, j, "{", "}");
                }
                for s in skip.iter_mut().take((j + 1).min(toks.len())).skip(i) {
                    *s = true;
                }
                i = j + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    skip
}

/// Line ranges covered by skipped tokens (so annotations inside test
/// code are ignored rather than reported stale).
fn skipped_line_ranges(toks: &[Tok], skipped: &[bool]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if skipped[i] {
            match out.last_mut() {
                Some(r) if r.1 + 1 >= t.line => r.1 = r.1.max(t.line),
                _ => out.push((t.line, t.line)),
            }
        }
    }
    out
}

/// Enclosing function name per token, via brace-depth tracking.
fn enclosing_fns(toks: &[Tok]) -> Vec<Option<String>> {
    let mut out = vec![None; toks.len()];
    let mut stack: Vec<(String, u32)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0u32;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("fn") {
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                pending = Some(name.text.clone());
            }
        } else if t.is_punct(";") && depth == stack.last().map_or(0, |(_, d)| *d) {
            pending = None; // trait method declaration without a body
        } else if t.is_punct("{") {
            depth += 1;
            if let Some(name) = pending.take() {
                stack.push((name, depth));
            }
        } else if t.is_punct("}") {
            if stack.last().is_some_and(|(_, d)| *d == depth) {
                stack.pop();
            }
            depth = depth.saturating_sub(1);
        }
        out[i] = stack.last().map(|(n, _)| n.clone());
    }
    out
}

/// Identifiers bound to `HashMap`/`HashSet` anywhere in the file —
/// both `name: HashMap<...>` type ascriptions (locals, params, struct
/// fields) and `let [mut] name = HashMap::...` initialisations.
fn hash_bindings(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        // `name : ... HashMap/HashSet ...` (angle-depth-aware scan so
        // `HashMap<K, V>` commas do not end the type early).
        if toks[i].kind == TokKind::Ident && matches!(toks.get(i + 1), Some(t) if t.is_punct(":")) {
            let mut angle = 0i32;
            for t in toks.iter().skip(i + 2).take(16) {
                if t.is_punct("<") {
                    angle += 1;
                } else if t.is_punct(">") {
                    angle -= 1;
                } else if angle == 0
                    && (t.is_punct(";")
                        || t.is_punct("=")
                        || t.is_punct("{")
                        || t.is_punct(",")
                        || t.is_punct(")"))
                {
                    break;
                } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    names.push(toks[i].text.clone());
                    break;
                }
            }
        }
        // `let [mut] name = ...HashMap::...` / `...HashSet::...`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if matches!(toks.get(j), Some(t) if t.is_ident("mut")) {
                j += 1;
            }
            if matches!(toks.get(j), Some(t) if t.kind == TokKind::Ident)
                && matches!(toks.get(j + 1), Some(t) if t.is_punct("="))
            {
                for k in j + 2..(j + 26).min(toks.len()) {
                    if toks[k].is_punct(";") {
                        break;
                    }
                    if (toks[k].is_ident("HashMap") || toks[k].is_ident("HashSet"))
                        && matches!(toks.get(k + 1), Some(t) if t.is_punct("::"))
                    {
                        names.push(toks[j].text.clone());
                        break;
                    }
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Identifiers bound to float values (`let mut x = 0.0;`, `x: f64`).
fn float_bindings(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident {
            let is_typed_float = matches!(toks.get(i + 1), Some(t) if t.is_punct(":"))
                && matches!(toks.get(i + 2), Some(t) if t.is_ident("f64") || t.is_ident("f32"));
            let is_float_init = matches!(toks.get(i + 1), Some(t) if t.is_punct("="))
                && matches!(
                    toks.get(i + 2),
                    Some(t) if t.kind == TokKind::Num && t.text.contains('.')
                );
            if is_typed_float || is_float_init {
                names.push(toks[i].text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

// ---------------------------------------------------------------------
// Suppression coverage
// ---------------------------------------------------------------------

/// Inclusive line range an annotation written on `line` covers: its
/// own line when trailing code, otherwise the annotation line through
/// the end of the next statement (`;`, `,`, `{`, or `}` at expression
/// depth zero). Stacked own-line annotations all reach the same
/// statement because the intervening lines hold no tokens.
fn coverage(toks: &[Tok], line: u32) -> (u32, u32) {
    if toks.iter().any(|t| t.line == line) {
        return (line, line);
    }
    let Some(start) = toks.iter().position(|t| t.line > line) else {
        return (line, line);
    };
    let mut depth = 0i32;
    let mut end_line = toks[start].line;
    for t in toks.iter().skip(start).take(200) {
        end_line = t.line;
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0
            && (t.is_punct(";") || t.is_punct(",") || t.is_punct("{") || t.is_punct("}"))
        {
            break;
        }
    }
    (line, end_line)
}

// ---------------------------------------------------------------------
// D1 / D4 — hash-order iteration and float accumulation
// ---------------------------------------------------------------------

/// Outcome of walking a method chain rooted at a hash iteration.
enum ChainVerdict {
    /// Ends in an order-insensitive reduction.
    Neutral,
    /// Order-sensitive terminal at this token index.
    Flagged(usize),
    /// `.sum::<f32|f64>()` — float accumulation in hash order.
    FloatSum(usize),
    /// Collected into an order-preserving container at this index.
    CollectVec(usize),
    /// Chain ended without a terminal (e.g. a `for` head).
    End,
}

fn rule_d1_d4(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !ctx.live(i) || toks[i].kind != TokKind::Ident || !ctx.hash_names.contains(&toks[i].text)
        {
            continue;
        }
        let name = &toks[i].text;
        // Case 1: `NAME . iter-family ( ... ) . chain...`
        let chain_start = if matches!(toks.get(i + 1), Some(t) if t.is_punct("."))
            && matches!(toks.get(i + 2), Some(t) if ITER_FAMILY.contains(&t.text.as_str()))
            && matches!(toks.get(i + 3), Some(t) if t.is_punct("("))
        {
            Some(i + 2)
        } else {
            None
        };
        // Case 2: bare `for k in &NAME {`
        let bare_for =
            in_for_head(toks, i) && matches!(toks.get(i + 1), Some(t) if t.is_punct("{"));

        let verdict = match chain_start {
            Some(m) => walk_chain(toks, m),
            None if bare_for => ChainVerdict::End,
            None => continue,
        };
        match verdict {
            ChainVerdict::Neutral => {}
            ChainVerdict::FloatSum(m) => out.push(Finding::new(
                RuleCode::D4,
                ctx.path,
                toks[m].line,
                toks[m].col,
                format!("float sum over `{name}` accumulates in hash order"),
            )),
            ChainVerdict::Flagged(m) => out.push(Finding::new(
                RuleCode::D1,
                ctx.path,
                toks[m].line,
                toks[m].col,
                format!(
                    "`.{}()` consumes `{name}` in hash order — sort first, use a \
                     BTreeMap, or make the reduction order-total",
                    toks[m].text
                ),
            )),
            ChainVerdict::CollectVec(m) => {
                if !sorted_after_collect(toks, i, m) {
                    out.push(Finding::new(
                        RuleCode::D1,
                        ctx.path,
                        toks[m].line,
                        toks[m].col,
                        format!(
                            "`{name}` collected in hash order and never sorted — \
                             sort the result or collect into a BTree container"
                        ),
                    ));
                }
            }
            ChainVerdict::End => {
                if in_for_head(toks, i) {
                    check_for_loop(ctx, i, name, out);
                } else {
                    out.push(Finding::new(
                        RuleCode::D1,
                        ctx.path,
                        toks[i].line,
                        toks[i].col,
                        format!("hash-order iterator over `{name}` escapes unneutralized"),
                    ));
                }
            }
        }
    }
}

/// Whether the tracked-name token at `i` sits in a `for ... in` head.
fn in_for_head(toks: &[Tok], i: usize) -> bool {
    let lo = i.saturating_sub(8);
    let Some(in_at) = (lo..i).rev().find(|&j| toks[j].is_ident("in")) else {
        return false;
    };
    (lo..in_at).any(|j| toks[j].is_ident("for"))
}

/// Whether a method name begins a hash-order iteration. Shared with
/// the taint pass's hash-escape source detector.
pub(crate) fn is_iter_family(name: &str) -> bool {
    ITER_FAMILY.contains(&name)
}

/// Whether the method chain rooted at index `m` (`NAME . m (`) is
/// order-neutral: it ends in an order-insensitive reduction, or
/// collects and is sorted immediately after. Shared with the taint
/// pass so neutral chains are not D5 sources.
pub(crate) fn chain_is_neutral(toks: &[Tok], m: usize) -> bool {
    match walk_chain(toks, m) {
        ChainVerdict::Neutral => true,
        ChainVerdict::CollectVec(c) => sorted_after_collect(toks, m.saturating_sub(2), c),
        ChainVerdict::Flagged(_) | ChainVerdict::FloatSum(_) | ChainVerdict::End => false,
    }
}

/// For a `)` at `close`, the name of the called function, if the shape
/// is `name ( ... )` or `recv . name ( ... )`. Shared with the unit
/// pass's conversion-call classifier.
pub(crate) fn call_name_before(toks: &[Tok], close: usize) -> Option<String> {
    call_name_of(toks, close).map(|t| t.text.clone())
}

/// Walks a method chain starting at the method-ident index `m`
/// (`NAME . m (`), returning the terminal verdict.
fn walk_chain(toks: &[Tok], mut m: usize) -> ChainVerdict {
    let mut first = true;
    loop {
        let method = toks[m].text.as_str();
        // `sum::<f64>()` is a D4; other sums commute over integers.
        if method == "sum" {
            if let Some(ty) = turbofish_type(toks, m) {
                if ty == "f64" || ty == "f32" {
                    return ChainVerdict::FloatSum(m);
                }
            }
            return ChainVerdict::Neutral;
        }
        if method == "collect" {
            return match turbofish_type(toks, m).as_deref() {
                Some("BTreeMap" | "BTreeSet" | "HashMap" | "HashSet" | "BinaryHeap") => {
                    ChainVerdict::Neutral
                }
                _ => ChainVerdict::CollectVec(m),
            };
        }
        if NEUTRAL.contains(&method) {
            return ChainVerdict::Neutral;
        }
        if !first && !TRANSPARENT.contains(&method) {
            return ChainVerdict::Flagged(m);
        }
        first = false;
        // Skip optional turbofish, then the argument list.
        let mut j = m + 1;
        if matches!(toks.get(j), Some(t) if t.is_punct("::"))
            && matches!(toks.get(j + 1), Some(t) if t.is_punct("<"))
        {
            j = skip_angles(toks, j + 1);
        }
        if !matches!(toks.get(j), Some(t) if t.is_punct("(")) {
            return ChainVerdict::End;
        }
        let close = match_bracket(toks, j, "(", ")");
        if matches!(toks.get(close + 1), Some(t) if t.is_punct("."))
            && matches!(toks.get(close + 2), Some(t) if t.kind == TokKind::Ident)
        {
            m = close + 2;
        } else {
            return ChainVerdict::End;
        }
    }
}

/// The single type ident inside `::<...>` after a method name, if any.
fn turbofish_type(toks: &[Tok], m: usize) -> Option<String> {
    if !matches!(toks.get(m + 1), Some(t) if t.is_punct("::"))
        || !matches!(toks.get(m + 2), Some(t) if t.is_punct("<"))
    {
        return None;
    }
    toks.get(m + 3)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// Recognizes `let [mut] X = NAME...collect(); X.sort...` — collecting
/// in hash order is fine when the result is sorted before use.
fn sorted_after_collect(toks: &[Tok], name_idx: usize, collect_idx: usize) -> bool {
    // Find the binding ident: scan back from NAME to the statement's
    // `let [mut] X` (tolerating a type ascription, `let x: Vec<_> =`)
    // or a plain reassignment `X = ...`.
    let lo = name_idx.saturating_sub(20);
    let mut bound: Option<&str> = None;
    for j in (lo..name_idx).rev() {
        if toks[j].is_punct(";") {
            break;
        }
        if toks[j].is_punct("=") && j > 0 && toks[j - 1].kind == TokKind::Ident {
            bound = Some(&toks[j - 1].text);
            break;
        }
        if toks[j].is_ident("let") {
            let mut k = j + 1;
            if matches!(toks.get(k), Some(t) if t.is_ident("mut")) {
                k += 1;
            }
            if let Some(name) = toks.get(k).filter(|t| t.kind == TokKind::Ident) {
                bound = Some(&name.text);
            }
            break;
        }
    }
    let Some(x) = bound else { return false };
    // After the statement ends, look for `X . sort*` nearby.
    let Some(semi) = toks.iter().skip(collect_idx).position(|t| t.is_punct(";")) else {
        return false;
    };
    let after = collect_idx + semi;
    toks.iter()
        .skip(after)
        .take(40)
        .zip(toks.iter().skip(after + 1))
        .zip(toks.iter().skip(after + 2))
        .any(|((a, b), c)| {
            a.is_ident(x)
                && b.is_punct(".")
                && c.kind == TokKind::Ident
                && c.text.starts_with("sort")
        })
}

/// A `for` loop over a hash container: flagged (D1) when the body
/// reaches an emission sink, plus D4 for float `+=` accumulation.
fn check_for_loop(ctx: &FileCtx, name_idx: usize, name: &str, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    let Some(body_open) = toks
        .iter()
        .skip(name_idx)
        .position(|t| t.is_punct("{"))
        .map(|p| p + name_idx)
    else {
        return;
    };
    let body_close = match_bracket(toks, body_open, "{", "}");
    let body = &toks[body_open..body_close.min(toks.len())];
    let has_sink = body.iter().any(|t| {
        (t.kind == TokKind::Ident && EMISSION_SINKS.contains(&t.text.as_str())) || t.is_punct("+=")
    });
    if has_sink {
        out.push(Finding::new(
            RuleCode::D1,
            ctx.path,
            toks[name_idx].line,
            toks[name_idx].col,
            format!(
                "loop over `{name}` visits entries in hash order and its body \
                 emits/accumulates — iterate a sorted view"
            ),
        ));
    }
    for (bi, t) in body.iter().enumerate() {
        if t.is_punct("+=") && bi > 0 {
            let lhs = &body[bi - 1];
            if lhs.kind == TokKind::Ident && ctx.float_names.contains(&lhs.text) {
                out.push(Finding::new(
                    RuleCode::D4,
                    ctx.path,
                    lhs.line,
                    lhs.col,
                    format!(
                        "float `{}` accumulated in hash order over `{name}`",
                        lhs.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// D2 — wall-clock sources
// ---------------------------------------------------------------------

fn rule_d2(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !ctx.live(i) {
            continue;
        }
        if toks[i].is_ident("Instant")
            && matches!(toks.get(i + 1), Some(t) if t.is_punct("::"))
            && matches!(toks.get(i + 2), Some(t) if t.is_ident("now"))
        {
            out.push(Finding::new(
                RuleCode::D2,
                ctx.path,
                toks[i].line,
                toks[i].col,
                "Instant::now() reads the host clock — use simulated time \
                 (SimTime) on any result path"
                    .to_string(),
            ));
        }
        if toks[i].is_ident("SystemTime") && matches!(toks.get(i + 1), Some(t) if t.is_punct("::"))
        {
            out.push(Finding::new(
                RuleCode::D2,
                ctx.path,
                toks[i].line,
                toks[i].col,
                "SystemTime reads the host clock — use simulated time (SimTime) \
                 on any result path"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// D3 — raw threading primitives
// ---------------------------------------------------------------------

fn rule_d3(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !ctx.live(i) {
            continue;
        }
        let t = &toks[i];
        let hit = if t.is_ident("thread")
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("::"))
            && matches!(toks.get(i + 2), Some(n) if n.is_ident("spawn") || n.is_ident("scope"))
        {
            Some(format!("thread::{}", toks[i + 2].text))
        } else if t.is_ident("mpsc") && matches!(toks.get(i + 1), Some(n) if n.is_punct("::")) {
            Some("mpsc channel".to_string())
        } else if t.is_ident("sync_channel") {
            Some("sync_channel".to_string())
        } else if t.is_punct(".")
            && matches!(toks.get(i + 1), Some(n) if n.is_ident("spawn"))
            && matches!(toks.get(i + 2), Some(n) if n.is_punct("("))
        {
            Some("scoped .spawn()".to_string())
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(Finding::new(
                RuleCode::D3,
                ctx.path,
                t.line,
                t.col,
                format!(
                    "{what} outside the deterministic par_map harness — route \
                     parallelism through experiments::par_map"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// T1 — integer-ns time safety
// ---------------------------------------------------------------------

/// Whether an identifier names an integer-ns quantity.
fn is_ns_ident(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && (t.text.ends_with("_ns") || t.text == "nanos" || t.text.ends_with("_nanos"))
}

/// Whether a call-name identifier yields an integer-ns quantity.
fn is_ns_call(name: &Tok) -> bool {
    name.kind == TokKind::Ident
        && (name.text == "as_nanos"
            || name.text == "subsec_nanos"
            || name.text.ends_with("_ns")
            || name.text.ends_with("_nanos"))
}

/// For a `)` at `close`, the name of the called function, if the shape
/// is `name ( ... )` or `recv . name ( ... )`.
fn call_name_of(toks: &[Tok], close: usize) -> Option<&Tok> {
    let mut depth = 0i32;
    let mut open = None;
    for j in (0..=close).rev() {
        if toks[j].is_punct(")") {
            depth += 1;
        } else if toks[j].is_punct("(") {
            depth -= 1;
            if depth == 0 {
                open = Some(j);
                break;
            }
        }
    }
    let open = open?;
    toks.get(open.checked_sub(1)?)
        .filter(|t| t.kind == TokKind::Ident)
}

fn rule_t1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !ctx.live(i) {
            continue;
        }
        // (a) `NS_EXPR as LOSSY_TYPE`
        if toks[i].is_ident("as") && i > 0 {
            let ty_ok = matches!(
                toks.get(i + 1),
                Some(t) if LOSSY_TYPES.contains(&t.text.as_str())
            );
            if ty_ok {
                let prev = &toks[i - 1];
                let ns_src = if is_ns_ident(prev) {
                    Some(prev.text.clone())
                } else if prev.is_punct(")") {
                    call_name_of(toks, i - 1)
                        .filter(|n| is_ns_call(n))
                        .map(|n| format!("{}()", n.text))
                } else {
                    None
                };
                if let Some(src) = ns_src {
                    out.push(Finding::new(
                        RuleCode::T1,
                        ctx.path,
                        toks[i].line,
                        toks[i].col,
                        format!(
                            "lossy `as {}` on ns value `{src}` — use u64::try_from \
                             or checked/saturating conversion",
                            toks[i + 1].text
                        ),
                    ));
                }
            }
        }
        // (b) float seconds→ns scale followed by an integer cast:
        // `(x * 1e9).round() as u64` and friends.
        if toks[i].kind == TokKind::Num && SCALE_FACTORS.contains(&toks[i].text.as_str()) {
            let mut j = i + 1;
            let mut steps = 0;
            while steps < 8 {
                match toks.get(j) {
                    Some(t)
                        if t.is_punct(")")
                            || t.is_punct("(")
                            || t.is_punct(".")
                            || t.is_ident("round") =>
                    {
                        j += 1;
                        steps += 1;
                    }
                    Some(t) if t.is_ident("as") => {
                        if matches!(
                            toks.get(j + 1),
                            Some(ty) if LOSSY_TYPES.contains(&ty.text.as_str())
                        ) {
                            out.push(Finding::new(
                                RuleCode::T1,
                                ctx.path,
                                toks[i].line,
                                toks[i].col,
                                format!(
                                    "float seconds scaled by {} then cast to {} — \
                                     use SimDuration::from_secs_f64",
                                    toks[i].text,
                                    toks[j + 1].text
                                ),
                            ));
                        }
                        break;
                    }
                    _ => break,
                }
            }
        }
        // (c) unchecked binary arithmetic with an ns left operand.
        if (toks[i].is_punct("-") || toks[i].is_punct("+") || toks[i].is_punct("*")) && i > 0 {
            let prev = &toks[i - 1];
            let lhs = if is_ns_ident(prev) {
                Some(prev.text.clone())
            } else if prev.is_punct(")") {
                call_name_of(toks, i - 1)
                    .filter(|n| is_ns_call(n))
                    .map(|n| format!("{}()", n.text))
            } else {
                None
            };
            if let Some(src) = lhs {
                out.push(Finding::new(
                    RuleCode::T1,
                    ctx.path,
                    toks[i].line,
                    toks[i].col,
                    format!(
                        "unchecked `{}` on ns value `{src}` — use \
                         checked_*/saturating_* or SimTime::duration_since",
                        toks[i].text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// R1 — panics in recovery paths
// ---------------------------------------------------------------------

fn rule_r1(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let file_scoped = ctx.path.contains("chaos/src")
        || ctx
            .path
            .rsplit('/')
            .next()
            .is_some_and(|f| f.contains("fault") || f.contains("recovery"));
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !ctx.live(i) {
            continue;
        }
        let in_scope = file_scoped
            || ctx.fn_of[i]
                .as_deref()
                .is_some_and(|f| RECOVERY_FNS.iter().any(|frag| f.contains(frag)));
        if !in_scope {
            continue;
        }
        let t = &toks[i];
        let hit = if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct(".")
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
        {
            Some(format!(".{}()", t.text))
        } else if (t.is_ident("panic") || t.is_ident("unreachable"))
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("!"))
        {
            Some(format!("{}!", t.text))
        } else {
            None
        };
        if let Some(what) = hit {
            let ctx_name = ctx.fn_of[i].as_deref().unwrap_or("<file scope>");
            out.push(Finding::new(
                RuleCode::R1,
                ctx.path,
                t.line,
                t.col,
                format!(
                    "{what} in recovery path `{ctx_name}` — fault handling must \
                     degrade gracefully, not abort"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<(RuleCode, u32)> {
        scan_file("test.rs", src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn d2_instant_now_is_flagged_with_span() {
        let found = scan_file("t.rs", "fn f() { let t = Instant::now(); }");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, RuleCode::D2);
        assert_eq!((found[0].line, found[0].col), (1, 18));
    }

    #[test]
    fn d2_suppression_works_and_unused_is_stale() {
        let src = "// lint: allow(D2, host probe)\nfn f() { let t = Instant::now(); }\n";
        assert!(codes(src).is_empty());
        let stale = "// lint: allow(D2, nothing here)\nfn f() {}\n";
        assert_eq!(codes(stale), vec![(RuleCode::A1, 1)]);
    }

    #[test]
    fn trailing_annotation_covers_only_its_line() {
        let src = "fn f() { let t = Instant::now(); } // lint: allow(D2, probe)\n\
                   fn g() { let t = Instant::now(); }\n";
        assert_eq!(codes(src), vec![(RuleCode::D2, 2)]);
    }

    #[test]
    fn malformed_annotation_is_a0() {
        assert_eq!(
            codes("// lint: allow(D2)\nfn f() {}\n"),
            vec![(RuleCode::A0, 1)]
        );
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn d1_hash_iteration_feeding_output() {
        let src = "fn f(m: HashMap<u32, u32>) {\n for (k, v) in m.iter() {\n  out.push(k);\n }\n}";
        assert_eq!(codes(src), vec![(RuleCode::D1, 2)]);
    }

    #[test]
    fn d1_neutral_reductions_pass() {
        let src = "fn f(m: HashMap<u32, u32>) -> usize { m.iter().count() }\n\
                   fn g(m: HashMap<u32, u32>) -> u64 { m.values().sum() }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn d1_sorted_after_collect_passes() {
        let src = "fn f(m: HashMap<u32, u32>) {\n let mut v = m.keys().collect::<Vec<_>>();\n \
                   v.sort();\n}";
        assert!(codes(src).is_empty());
        let unsorted = "fn f(m: HashMap<u32, u32>) {\n let v = m.keys().collect::<Vec<_>>();\n \
                        use_it(v);\n}";
        assert_eq!(codes(unsorted), vec![(RuleCode::D1, 2)]);
    }

    #[test]
    fn d1_order_sensitive_terminal_is_flagged() {
        let src = "fn f(m: HashMap<u32, u32>) { m.iter().max_by_key(|(_, v)| **v); }";
        assert_eq!(codes(src), vec![(RuleCode::D1, 1)]);
    }

    #[test]
    fn d4_float_sum_over_hash() {
        let src = "fn f(m: HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }";
        assert_eq!(codes(src), vec![(RuleCode::D4, 1)]);
    }

    #[test]
    fn d4_float_accumulation_in_for_body() {
        let src = "fn f(m: HashMap<u32, f64>) {\n let mut acc = 0.0;\n for v in m.values() {\n  \
                   acc += v;\n }\n}";
        let got = codes(src);
        assert!(got.contains(&(RuleCode::D4, 4)), "{got:?}");
    }

    #[test]
    fn d3_thread_primitives() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(codes(src), vec![(RuleCode::D3, 1)]);
    }

    #[test]
    fn t1_lossy_ns_casts() {
        assert_eq!(
            codes("fn f(x_ns: u128) -> u64 { x_ns as u64 }"),
            vec![(RuleCode::T1, 1)]
        );
        assert_eq!(
            codes("fn f(d: Duration) -> u64 { d.as_nanos() as u64 }"),
            vec![(RuleCode::T1, 1)]
        );
        // f64 (display ratios) and u128 (widening) are allowed.
        assert!(codes("fn f(x_ns: u64) -> f64 { x_ns as f64 }").is_empty());
        assert!(codes("fn f(x_ns: u64) -> u128 { x_ns as u128 }").is_empty());
    }

    #[test]
    fn t1_float_scale_then_cast() {
        assert_eq!(
            codes("fn f(s: f64) -> u64 { (s * 1e9).round() as u64 }"),
            vec![(RuleCode::T1, 1)]
        );
        assert_eq!(
            codes("fn f(s: f64) -> u64 { (s * 1e9) as u64 }"),
            vec![(RuleCode::T1, 1)]
        );
    }

    #[test]
    fn t1_unchecked_ns_arithmetic() {
        assert_eq!(
            codes("fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns - b_ns }"),
            vec![(RuleCode::T1, 1)]
        );
        // checked/saturating forms pass.
        assert!(
            codes("fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns.saturating_sub(b_ns) }").is_empty()
        );
    }

    #[test]
    fn r1_unwrap_in_recovery_fn() {
        let src = "fn on_retry(x: Option<u32>) { let _ = x.unwrap(); }";
        assert_eq!(codes(src), vec![(RuleCode::R1, 1)]);
        // Same code outside a recovery path is fine.
        assert!(codes("fn lookup(x: Option<u32>) { let _ = x.unwrap(); }").is_empty());
    }

    #[test]
    fn r1_file_scope_by_name() {
        let found = scan_file(
            "crates/chaos/src/lib.rs",
            "fn helper(x: Option<u32>) { x.unwrap(); }",
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, RuleCode::R1);
    }

    #[test]
    fn patterns_inside_strings_do_not_fire() {
        assert!(codes(r#"fn f() -> &'static str { "Instant::now()" }"#).is_empty());
    }
}
