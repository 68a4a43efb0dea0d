//! Interprocedural nondeterminism taint (rule `D5`).
//!
//! The per-function determinism rules (D1–D4) see a hash iteration or a
//! wall clock only at the function that contains it. But a
//! nondeterministic value can *escape*: a helper returns
//! `map.keys().collect::<Vec<_>>()`, a wrapper returns `host_nanos()`,
//! and the value only reaches artifact bytes three calls later. This
//! pass closes that hole:
//!
//! * **sources** — token patterns inside one function body that produce
//!   nondeterministic values: unordered hash iteration (non-neutral
//!   chains, reusing the D1 chain walk), wall clocks, thread ids,
//!   pointer→integer casts, unstable sorts, and RNG state;
//! * **propagation** — a function is tainted when its body contains a
//!   source or when it calls a tainted function (its return value and
//!   side effects may carry the callee's value). The closure is a
//!   monotone fixpoint over the call graph — adding a call edge can
//!   only *add* findings, a property the proptest suite pins via
//!   [`sink_source_pairs`];
//! * **sinks** — functions whose name marks them as shaping
//!   deterministic output: artifact/report rendering, fingerprints,
//!   metrics exposition, journal/log rendering, telemetry emission.
//!
//! A `D5` fires for each (sink, source-function) pair reachable through
//! at least one call edge — a source *inside* a sink body is D1/D2's
//! job — and the diagnostic carries the full call chain, sink first.
//! Suppress at the sink-side call site the finding anchors to.

use std::collections::BTreeMap;

use crate::lexer::{Tok, TokKind};
use crate::report::{ChainHop, Finding};
use crate::rules::RuleCode;
use crate::symbols::SymbolGraph;

/// Name fragments that mark a function as a deterministic-output sink:
/// renderers, exposition, fingerprints, and every export format (JSON,
/// Chrome trace, collapsed stacks, Paraver, DOT, CSV).
pub const SINK_FRAGMENTS: [&str; 12] = [
    "render",
    "expose",
    "_json",
    "fingerprint",
    "emit",
    "export",
    "exposition",
    "to_chrome",
    "to_collapsed",
    "to_paraver",
    "to_dot",
    "to_csv",
];

/// One local taint source inside a function body.
#[derive(Debug, Clone)]
pub struct Source {
    /// What kind of nondeterminism (used in the diagnostic).
    pub kind: &'static str,
    /// 1-based line of the source token.
    pub line: u32,
}

/// Scans one function body's tokens for local taint sources.
/// `hash_names` are the file's hash-container bindings (from the D1
/// pre-pass).
pub fn local_sources(body: &[Tok], hash_names: &[String]) -> Vec<Source> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        let t = &body[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |k: usize, s: &str| matches!(body.get(i + k), Some(n) if n.is_punct(s));
        let ident_at = |k: usize, s: &str| matches!(body.get(i + k), Some(n) if n.is_ident(s));
        // Wall clocks.
        if (t.is_ident("Instant") && next_is(1, "::") && ident_at(2, "now"))
            || (t.is_ident("SystemTime") && next_is(1, "::"))
        {
            out.push(Source {
                kind: "wall clock",
                line: t.line,
            });
            continue;
        }
        // Thread identity.
        if t.is_ident("thread") && next_is(1, "::") && ident_at(2, "current") {
            out.push(Source {
                kind: "thread id",
                line: t.line,
            });
            continue;
        }
        // RNG state.
        if t.is_ident("thread_rng") || t.is_ident("RandomState") || t.is_ident("from_entropy") {
            out.push(Source {
                kind: "RNG state",
                line: t.line,
            });
            continue;
        }
        // Unstable sort: deterministic for total keys, but the linter
        // cannot prove totality of the comparison key.
        if t.text.starts_with("sort_unstable") && i > 0 && body[i - 1].is_punct(".") {
            out.push(Source {
                kind: "unstable sort",
                line: t.line,
            });
            continue;
        }
        // Pointer→integer cast: `as *const T ... as usize` or
        // `.as_ptr() as usize` — address-space values differ per run.
        if t.is_ident("as_ptr") && i > 0 && body[i - 1].is_punct(".") && next_is(1, "(") {
            let after = i + 3; // `as_ptr ( )` → token after the close
            if matches!(body.get(after), Some(n) if n.is_ident("as")) {
                out.push(Source {
                    kind: "pointer-to-int cast",
                    line: t.line,
                });
                continue;
            }
        }
        if t.is_ident("as")
            && next_is(1, "*")
            && (ident_at(2, "const") || ident_at(2, "mut"))
            && body.iter().skip(i + 3).take(6).any(|n| n.is_ident("as"))
        {
            out.push(Source {
                kind: "pointer-to-int cast",
                line: t.line,
            });
            continue;
        }
        // Unordered hash iteration whose chain is not order-neutral.
        if hash_names.contains(&t.text)
            && next_is(1, ".")
            && matches!(body.get(i + 2), Some(n) if crate::scan::is_iter_family(&n.text))
            && next_is(3, "(")
            && !crate::scan::chain_is_neutral(body, i + 2)
        {
            out.push(Source {
                kind: "hash-order iteration",
                line: t.line,
            });
        }
    }
    out
}

/// Whether a function name marks a deterministic-output sink.
pub fn is_sink_name(name: &str) -> bool {
    SINK_FRAGMENTS.iter().any(|f| name.contains(f))
}

/// Pure reachability core, exposed for the monotonicity proptest.
///
/// `edges` are (caller, callee) pairs over `n` functions; `sources` and
/// `sinks` are function indices. Returns, for each sink, every source
/// function reachable through **at least one** call edge, with the
/// shortest call path (ties broken toward smaller function indices).
/// Output is sorted by (sink, source).
pub fn sink_source_pairs(
    n: usize,
    edges: &[(usize, usize)],
    sources: &[usize],
    sinks: &[usize],
) -> Vec<(usize, usize, Vec<usize>)> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        if a < n && b < n {
            adj[a].push(b);
        }
    }
    for nbrs in &mut adj {
        nbrs.sort();
        nbrs.dedup();
    }
    let is_source = {
        let mut v = vec![false; n];
        for &s in sources {
            if s < n {
                v[s] = true;
            }
        }
        v
    };
    let mut out = Vec::new();
    let mut sorted_sinks: Vec<usize> = sinks.iter().copied().filter(|&s| s < n).collect();
    sorted_sinks.sort();
    sorted_sinks.dedup();
    for &sink in &sorted_sinks {
        // BFS from the sink along call edges; parent pointers rebuild
        // the shortest chain. Visiting in index order makes ties
        // deterministic.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[sink] = true;
        queue.push_back(sink);
        let mut found: Vec<(usize, Vec<usize>)> = Vec::new();
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(u);
                    if is_source[v] {
                        let mut chain = vec![v];
                        let mut w = v;
                        while let Some(p) = parent[w] {
                            chain.push(p);
                            w = p;
                        }
                        chain.reverse(); // sink ... source
                        found.push((v, chain));
                    }
                    queue.push_back(v);
                }
            }
        }
        found.sort_by_key(|a| a.0);
        for (src, chain) in found {
            out.push((sink, src, chain));
        }
    }
    out
}

/// Runs the D5 pass over the symbol graph. `fn_sources` holds each
/// function's local sources (parallel to `graph.fns`).
pub fn check(graph: &SymbolGraph, fn_sources: &[Vec<Source>]) -> Vec<Finding> {
    let n = graph.fns.len();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // (caller, callee) → first call site, for anchoring diagnostics.
    let mut site: BTreeMap<(usize, usize), (u32, u32)> = BTreeMap::new();
    for c in &graph.calls {
        for &callee in &c.callees {
            edges.push((c.caller, callee));
            site.entry((c.caller, callee)).or_insert((c.line, c.col));
        }
    }
    let sources: Vec<usize> = (0..n).filter(|&i| !fn_sources[i].is_empty()).collect();
    let sinks: Vec<usize> = (0..n)
        .filter(|&i| is_sink_name(&graph.fns[i].name))
        .collect();
    let mut out = Vec::new();
    for (sink, src, chain) in sink_source_pairs(n, &edges, &sources, &sinks) {
        let first = &fn_sources[src][0];
        // Anchor at the first call edge out of the sink.
        let (line, col) = site
            .get(&(chain[0], chain[1]))
            .copied()
            .unwrap_or((graph.fns[sink].line, 1));
        let hops: Vec<ChainHop> = chain
            .iter()
            .map(|&f| ChainHop {
                func: graph.label(f),
                file: graph.files[graph.fns[f].file].clone(),
                line: graph.fns[f].line,
            })
            .collect();
        let chain_text: Vec<String> = hops.iter().map(|h| h.func.clone()).collect();
        out.push(
            Finding::new(
                RuleCode::D5,
                &graph.files[graph.fns[sink].file],
                line,
                col,
                format!(
                    "{} in `{}` ({}:{}) reaches sink `{}` via {}",
                    first.kind,
                    graph.label(src),
                    graph.files[graph.fns[src].file],
                    first.line,
                    graph.label(sink),
                    chain_text.join(" -> "),
                ),
            )
            .with_chain(hops),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_export_is_a_sink() {
        for name in [
            "to_json",
            "to_jsonl",
            "to_chrome_trace",
            "to_otlp_json",
            "summary_json",
            "queue_json",
            "to_collapsed",
            "to_paraver_prv",
            "to_dot",
            "to_csv",
            "render_table",
            "expose",
            "output_fingerprint",
        ] {
            assert!(is_sink_name(name), "{name} is an export");
        }
        for name in ["build", "observe", "parse", "collapse", "dotted"] {
            assert!(!is_sink_name(name), "{name} is not an export");
        }
    }

    #[test]
    fn pairs_require_at_least_one_edge() {
        // Sink 0 is itself a source: no pair (local rules own that).
        let pairs = sink_source_pairs(2, &[], &[0], &[0]);
        assert!(pairs.is_empty());
        // One edge sink→source: one pair with the 2-hop chain.
        let pairs = sink_source_pairs(2, &[(0, 1)], &[1], &[0]);
        assert_eq!(pairs, vec![(0, 1, vec![0, 1])]);
    }

    #[test]
    fn shortest_chain_wins() {
        // 0→1→2 and 0→2: the direct edge is the reported chain.
        let pairs = sink_source_pairs(3, &[(0, 1), (1, 2), (0, 2)], &[2], &[0]);
        assert_eq!(pairs, vec![(0, 2, vec![0, 2])]);
    }

    #[test]
    fn cycles_terminate() {
        let pairs = sink_source_pairs(3, &[(0, 1), (1, 0), (1, 2)], &[2], &[0]);
        assert_eq!(pairs, vec![(0, 2, vec![0, 1, 2])]);
    }

    #[test]
    fn wall_clock_and_thread_sources_detected() {
        let lexed = crate::lexer::lex("let a = Instant::now(); let b = thread::current().id();");
        let srcs = local_sources(&lexed.tokens, &[]);
        let kinds: Vec<&str> = srcs.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["wall clock", "thread id"]);
    }

    #[test]
    fn unstable_sort_and_ptr_casts_detected() {
        let lexed =
            crate::lexer::lex("v.sort_unstable_by_key(|x| x.0); let p = b.as_ptr() as usize;");
        let srcs = local_sources(&lexed.tokens, &[]);
        let kinds: Vec<&str> = srcs.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["unstable sort", "pointer-to-int cast"]);
    }

    #[test]
    fn neutral_hash_chains_are_not_sources() {
        let lexed =
            crate::lexer::lex("let n = m.iter().count(); let v: Vec<_> = m.keys().collect();");
        let names = vec!["m".to_string()];
        let srcs = local_sources(&lexed.tokens, &names);
        // `.count()` neutral; bare `.collect()` escapes → one source.
        assert_eq!(srcs.len(), 1);
        assert_eq!(srcs[0].kind, "hash-order iteration");
    }
}
