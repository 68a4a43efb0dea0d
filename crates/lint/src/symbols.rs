//! The symbol/call-graph layer: a workspace-wide index of function and
//! method definitions over the token stream, with name-based call
//! resolution.
//!
//! This is what turns the per-function pattern scanner into an
//! interprocedural analyzer: [`crate::taint`] (D5), [`crate::units`]
//! (T2), and [`crate::locks`] (L1) all query the [`SymbolGraph`] built
//! here. The graph is deliberately *name-based* — no type inference —
//! with two precision aids:
//!
//! * associated-function calls (`Type::name(..)`, `Self::name(..)`),
//!   `self.name(..)` method calls, and `recv.name(..)` calls on a
//!   parameter `recv` whose declared type is a plain path
//!   (`b: &mut WorkflowBuilder`) resolve within the matching `impl`
//!   owner when one exists, and to every candidate when none does;
//! * any other `.name(..)` method call whose name has more than
//!   [`AMBIGUITY_CAP`] workspace definitions is *not* resolved at all —
//!   an edge to a dozen unrelated impls would drown the taint pass in
//!   noise. This is a documented false-negative source
//!   (docs/static_analysis.md). A typed receiver only narrows: a name
//!   over the cap stays unresolved whatever its receiver.
//!
//! `#[cfg(test)]` items never define symbols and their call sites are
//! ignored, matching the per-file scanner's test-skip discipline.

use std::collections::BTreeMap;

use crate::lexer::{match_bracket, skip_angles, Lexed, Tok, TokKind};

/// A plain `.name(..)` call whose name has more definitions than this
/// is left unresolved (too ambiguous to be signal).
pub const AMBIGUITY_CAP: usize = 8;

/// One function or method definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name (last path segment only).
    pub name: String,
    /// `impl` owner type, when defined inside an `impl` block.
    pub owner: Option<String>,
    /// Index into the file table of [`SymbolGraph`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter names in declaration order (`self` excluded;
    /// non-identifier patterns recorded as `"_"`).
    pub params: Vec<String>,
    /// `(parameter, type)` for each parameter whose declared type is a
    /// plain path, by the path's last segment (`b: &mut a::Builder<T>`
    /// gives `("b", "Builder")`).
    pub param_types: Vec<(String, String)>,
    /// Token index range of the body (inclusive braces), or `None` for
    /// bodiless trait declarations.
    pub body: Option<(usize, usize)>,
}

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Calling function (index into [`SymbolGraph::fns`]).
    pub caller: usize,
    /// Candidate callees (every workspace definition the name resolves
    /// to; owner-qualified calls narrow this to one impl).
    pub callees: Vec<usize>,
    /// 1-based line/column of the callee name token.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Best-effort argument names: the trailing identifier of each
    /// top-level argument when it is a simple path (`x`, `&x`,
    /// `cfg.tick_us`), else `None`.
    pub args: Vec<Option<String>>,
}

/// The queryable workspace symbol graph.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Repo-relative display paths, indexed by [`FnDef::file`].
    pub files: Vec<String>,
    /// All function definitions, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// All resolved call sites.
    pub calls: Vec<CallSite>,
    /// Per-function outgoing call-site indices, parallel to `fns`.
    pub calls_from: Vec<Vec<usize>>,
    /// Name → definition indices (sorted).
    by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolGraph {
    /// Builds the graph from lexed files. `files` pairs each display
    /// path with its lexed tokens and the `#[cfg(test)]` skip mask.
    pub fn build(files: &[(String, Lexed, Vec<bool>)]) -> SymbolGraph {
        let mut g = SymbolGraph {
            files: files.iter().map(|(p, _, _)| p.clone()).collect(),
            ..SymbolGraph::default()
        };
        // Pass 1: definitions.
        for (file_idx, (_, lexed, skipped)) in files.iter().enumerate() {
            collect_defs(&mut g, file_idx, &lexed.tokens, skipped);
        }
        for (i, d) in g.fns.iter().enumerate() {
            g.by_name.entry(d.name.clone()).or_default().push(i);
        }
        // Pass 2: call resolution within each body.
        g.calls_from = vec![Vec::new(); g.fns.len()];
        for (file_idx, (_, lexed, _)) in files.iter().enumerate() {
            resolve_calls(&mut g, file_idx, &lexed.tokens);
        }
        g
    }

    /// Definition indices for a name (empty when unknown).
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], |v| v)
    }

    /// Display label `name` or `Owner::name` for diagnostics.
    pub fn label(&self, fn_idx: usize) -> String {
        let d = &self.fns[fn_idx];
        match &d.owner {
            Some(o) => format!("{o}::{}", d.name),
            None => d.name.clone(),
        }
    }
}

/// Rust keywords that can precede `(` without being calls.
const NOT_CALLEES: [&str; 12] = [
    "if", "while", "for", "match", "return", "fn", "loop", "in", "as", "let", "move", "else",
];

fn collect_defs(g: &mut SymbolGraph, file_idx: usize, toks: &[Tok], skipped: &[bool]) {
    // Track enclosing `impl` owner by brace depth, like the scanner's
    // enclosing-function pass.
    let mut impl_stack: Vec<(String, u32)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut depth = 0u32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
            if let Some(owner) = pending_impl.take() {
                impl_stack.push((owner, depth));
            }
        } else if t.is_punct("}") {
            if impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                impl_stack.pop();
            }
            depth = depth.saturating_sub(1);
        } else if t.is_ident("impl") && !skipped.get(i).copied().unwrap_or(false) {
            pending_impl = impl_owner(toks, i);
        } else if t.is_ident("fn") && !skipped.get(i).copied().unwrap_or(false) {
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                let mut j = i + 2;
                // Skip generics on the declaration.
                if matches!(toks.get(j), Some(t) if t.is_punct("<")) {
                    j = skip_angles(toks, j);
                }
                if matches!(toks.get(j), Some(t) if t.is_punct("(")) {
                    let close = match_bracket(toks, j, "(", ")");
                    let (params, param_types) = param_names(&toks[j..close.min(toks.len())]);
                    // The body opens at the next `{` before a `;`.
                    let mut k = close + 1;
                    while k < toks.len() && !toks[k].is_punct(";") && !toks[k].is_punct("{") {
                        k += 1;
                    }
                    let body = if k < toks.len() && toks[k].is_punct("{") {
                        Some((k, match_bracket(toks, k, "{", "}").min(toks.len())))
                    } else {
                        None
                    };
                    g.fns.push(FnDef {
                        name: name.text.clone(),
                        owner: impl_stack.last().map(|(o, _)| o.clone()),
                        file: file_idx,
                        line: t.line,
                        params,
                        param_types,
                        body,
                    });
                }
            }
        }
        i += 1;
    }
}

/// The owner type name of an `impl` header at token `i`: the last path
/// segment before the opening brace, skipping generics and, for
/// `impl Trait for Type`, taking the `Type` side.
fn impl_owner(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i + 1;
    if matches!(toks.get(j), Some(t) if t.is_punct("<")) {
        j = skip_angles(toks, j);
    }
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while let Some(t) = toks.get(j) {
        if t.is_punct("{") || t.is_ident("where") {
            break;
        }
        if t.is_punct("<") {
            j = skip_angles(toks, j);
            continue;
        }
        if t.is_ident("for") {
            saw_for = true;
        } else if t.kind == TokKind::Ident {
            if saw_for {
                after_for = Some(t.text.clone());
            } else {
                last_ident = Some(t.text.clone());
            }
        }
        j += 1;
    }
    after_for.or(last_ident)
}

/// Parameter names from the tokens of a `( ... )` group (the slice
/// starts at the open paren), and the [`plain_type`] of each that has
/// one. Identifiers followed by `:` at paren depth 1 and angle depth 0
/// count; `self` is skipped; destructuring patterns contribute `"_"`
/// placeholders via their `:` at depth > 1 being ignored (the parameter
/// slot is then simply absent — callers index positionally into what
/// was recognized, so unit inference just goes silent for such
/// functions).
fn param_names(group: &[Tok]) -> (Vec<String>, Vec<(String, String)>) {
    let mut out = Vec::new();
    let mut types = Vec::new();
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut bracket = 0i32;
    for (i, t) in group.iter().enumerate() {
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if t.is_punct("[") {
            bracket += 1;
        } else if t.is_punct("]") {
            bracket -= 1;
        } else if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if paren == 1
            && angle == 0
            && bracket == 0
            && t.kind == TokKind::Ident
            && !t.is_ident("self")
            && !t.is_ident("mut")
            && matches!(group.get(i + 1), Some(n) if n.is_punct(":"))
        {
            out.push(t.text.clone());
            if let Some(ty) = plain_type(&group[i + 2..]) {
                types.push((t.text.clone(), ty));
            }
        }
    }
    (out, types)
}

/// The last segment of a parameter type that is a plain path behind
/// optional `&`, lifetime and `mut` (`&'a mut a::Builder<T>` gives
/// `Builder`), or `None` for any other type (`dyn T`, `impl T`, tuples,
/// slices, closures). `toks` starts just after the parameter's `:`.
fn plain_type(toks: &[Tok]) -> Option<String> {
    let mut j = 0;
    while toks
        .get(j)
        .is_some_and(|t| t.is_punct("&") || t.is_ident("mut") || t.kind == TokKind::Lifetime)
    {
        j += 1;
    }
    let mut last = None;
    while let Some(t) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
        last = Some(t.text.clone());
        j += 1;
        if !toks.get(j).is_some_and(|t| t.is_punct("::")) {
            break;
        }
        j += 1;
    }
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(toks, j);
    }
    match toks.get(j) {
        None => last,
        Some(t) if t.is_punct(",") || t.is_punct(")") => last,
        Some(_) => None,
    }
}

fn resolve_calls(g: &mut SymbolGraph, file_idx: usize, toks: &[Tok]) {
    // Which definition encloses each token, innermost wins. Only this
    // file's definitions matter.
    let mut enclosing: Vec<Option<usize>> = vec![None; toks.len()];
    for (idx, d) in g.fns.iter().enumerate() {
        if d.file != file_idx {
            continue;
        }
        if let Some((a, b)) = d.body {
            for e in enclosing.iter_mut().take(b.min(toks.len())).skip(a) {
                // Later defs are lexically inner (nested fns), so
                // overwrite: innermost wins.
                *e = Some(idx);
            }
        }
    }
    let mut new_calls: Vec<CallSite> = Vec::new();
    for i in 0..toks.len() {
        let Some(caller) = enclosing[i] else { continue };
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || NOT_CALLEES.contains(&t.text.as_str())
            || !matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
        {
            continue;
        }
        // Skip its own definition header (`fn name (`).
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        let candidates = g.defs_named(&t.text);
        if candidates.is_empty() {
            continue;
        }
        // Qualifier: `Type :: name (` / `Self :: name (` / `self . name (` /
        // `recv . name (` / bare `name (`.
        let callees: Vec<usize> = if i >= 2 && toks[i - 1].is_punct("::") {
            let qual = &toks[i - 2];
            if qual.is_ident("Self") {
                let own = g.fns[caller].owner.clone();
                narrow_by_owner(g, candidates, own.as_deref())
            } else if qual.kind == TokKind::Ident {
                narrow_by_owner(g, candidates, Some(&qual.text))
            } else {
                candidates.to_vec()
            }
        } else if i >= 2 && toks[i - 1].is_punct(".") {
            let recv = &toks[i - 2];
            let owner = if recv.is_ident("self") {
                g.fns[caller].owner.clone()
            } else if candidates.len() > AMBIGUITY_CAP {
                continue; // documented false-negative: too ambiguous
            } else if i >= 3 && toks[i - 3].is_punct(".") {
                None // a field, `x.recv.name(`, has no declared type here
            } else {
                g.fns[caller]
                    .param_types
                    .iter()
                    .find(|(param, _)| *param == recv.text)
                    .map(|(_, ty)| ty.clone())
            };
            let narrowed = narrow_by_owner(g, candidates, owner.as_deref());
            if narrowed.is_empty() {
                candidates.to_vec()
            } else {
                narrowed
            }
        } else {
            // Bare call: prefer free functions, fall back to all.
            let free: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| g.fns[c].owner.is_none())
                .collect();
            if free.is_empty() {
                if candidates.len() > AMBIGUITY_CAP {
                    continue;
                }
                candidates.to_vec()
            } else {
                free
            }
        };
        if callees.is_empty() {
            continue;
        }
        let close = match_bracket(toks, i + 1, "(", ")");
        new_calls.push(CallSite {
            caller,
            callees,
            line: t.line,
            col: t.col,
            args: arg_names(&toks[i + 1..close.min(toks.len())]),
        });
    }
    for c in new_calls {
        g.calls_from[c.caller].push(g.calls.len());
        g.calls.push(c);
    }
}

fn narrow_by_owner(g: &SymbolGraph, candidates: &[usize], owner: Option<&str>) -> Vec<usize> {
    candidates
        .iter()
        .copied()
        .filter(|&c| g.fns[c].owner.as_deref() == owner && owner.is_some())
        .collect()
}

/// Trailing identifier of each top-level argument when the argument is
/// a simple path (`x`, `&mut x`, `cfg.tick_us`), else `None`. The
/// slice starts at the call's open paren.
fn arg_names(group: &[Tok]) -> Vec<Option<String>> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut current: Vec<&Tok> = Vec::new();
    let mut any = false;
    for t in group {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
            if depth == 1 {
                continue;
            }
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        }
        if depth == 1 && t.is_punct(",") {
            out.push(simple_path_tail(&current));
            current.clear();
            continue;
        }
        if depth >= 1 {
            current.push(t);
            any = true;
        }
    }
    if any {
        out.push(simple_path_tail(&current));
    }
    out
}

/// The final identifier of a `&`/`mut`/`.`-only token sequence.
fn simple_path_tail(toks: &[&Tok]) -> Option<String> {
    let mut tail: Option<&str> = None;
    for t in toks {
        if t.is_punct("&") || t.is_ident("mut") || t.is_punct(".") || t.is_ident("self") {
            continue;
        }
        if t.kind == TokKind::Ident {
            tail = Some(&t.text);
        } else {
            return None;
        }
    }
    tail.map(|s| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph(srcs: &[(&str, &str)]) -> SymbolGraph {
        let files: Vec<(String, Lexed, Vec<bool>)> = srcs
            .iter()
            .map(|(p, s)| {
                let lexed = lex(s);
                let n = lexed.tokens.len();
                (p.to_string(), lexed, vec![false; n])
            })
            .collect();
        SymbolGraph::build(&files)
    }

    #[test]
    fn indexes_free_functions_and_methods() {
        let g = graph(&[(
            "a.rs",
            "fn free(x: u64) -> u64 { x }\n\
             struct S;\n\
             impl S { fn method(&self, y_ns: u64) {} }\n",
        )]);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.fns[0].name, "free");
        assert_eq!(g.fns[0].owner, None);
        assert_eq!(g.fns[0].params, vec!["x"]);
        assert_eq!(g.fns[1].name, "method");
        assert_eq!(g.fns[1].owner.as_deref(), Some("S"));
        assert_eq!(g.fns[1].params, vec!["y_ns"]);
        assert_eq!(g.label(1), "S::method");
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let g = graph(&[(
            "a.rs",
            "impl std::fmt::Display for Span { fn fmt(&self) {} }",
        )]);
        assert_eq!(g.fns[0].owner.as_deref(), Some("Span"));
    }

    #[test]
    fn resolves_cross_file_calls_with_args() {
        let g = graph(&[
            ("a.rs", "fn helper(t_ns: u64) -> u64 { t_ns }"),
            (
                "b.rs",
                "fn outer(x_ms: u64) -> u64 { helper(x_ms) }\n\
                 fn unrelated() {}",
            ),
        ]);
        assert_eq!(g.calls.len(), 1);
        let c = &g.calls[0];
        assert_eq!(g.fns[c.caller].name, "outer");
        assert_eq!(c.callees.len(), 1);
        assert_eq!(g.fns[c.callees[0]].name, "helper");
        assert_eq!(c.args, vec![Some("x_ms".to_string())]);
    }

    #[test]
    fn qualified_calls_narrow_to_the_impl_owner() {
        let g = graph(&[(
            "a.rs",
            "struct A; struct B;\n\
             impl A { fn make() {} }\n\
             impl B { fn make() {} }\n\
             fn use_it() { A::make(); }",
        )]);
        assert_eq!(g.calls.len(), 1);
        let c = &g.calls[0];
        assert_eq!(c.callees.len(), 1);
        assert_eq!(g.fns[c.callees[0]].owner.as_deref(), Some("A"));
    }

    #[test]
    fn self_method_calls_stay_in_their_impl() {
        let g = graph(&[(
            "a.rs",
            "struct A; struct B;\n\
             impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        )]);
        let call = g.calls.iter().find(|c| g.fns[c.caller].name == "go");
        let c = call.expect("self.step() resolved");
        assert_eq!(c.callees.len(), 1);
        assert_eq!(g.fns[c.callees[0]].owner.as_deref(), Some("A"));
    }

    #[test]
    fn typed_parameter_receivers_narrow_to_their_impl() {
        let g = graph(&[(
            "a.rs",
            "struct Builder; struct Daemon;\n\
             impl Builder { fn submit(&mut self) {} }\n\
             impl Daemon { fn submit(&mut self) {} }\n\
             fn typed(b: &mut Builder, d: Daemon) { b.submit(); d.submit(); }\n\
             fn boxed(b: Box<dyn Any>, n: u64) { b.submit(); n.submit(); }\n\
             struct W { b: Daemon }\n\
             impl W { fn field(&self, b: &mut Builder) { self.b.submit(); } }",
        )]);
        assert_eq!(
            g.fns[2].param_types,
            [
                ("b".to_string(), "Builder".to_string()),
                ("d".to_string(), "Daemon".to_string())
            ]
        );
        let owners = |caller: &str| -> Vec<Vec<Option<&str>>> {
            g.calls
                .iter()
                .filter(|c| g.fns[c.caller].name == caller)
                .map(|c| {
                    c.callees
                        .iter()
                        .map(|&k| g.fns[k].owner.as_deref())
                        .collect()
                })
                .collect()
        };
        let both = vec![Some("Builder"), Some("Daemon")];
        assert_eq!(
            owners("typed"),
            [vec![Some("Builder")], vec![Some("Daemon")]]
        );
        // `Box` and `u64` own no `submit`: every candidate, as before.
        assert_eq!(owners("boxed"), [both.clone(), both.clone()]);
        // `self.b` is a field, not the parameter `b`.
        assert_eq!(owners("field"), [both]);
    }

    #[test]
    fn cfg_test_items_define_no_symbols() {
        let src = "#[cfg(test)]\nmod tests { fn t_only() {} }\nfn real() {}";
        let lexed = lex(src);
        let skipped = crate::scan::test_skip_mask(&lexed.tokens);
        let g = SymbolGraph::build(&[("a.rs".to_string(), lexed, skipped)]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "real");
    }

    #[test]
    fn keywords_are_not_calls() {
        let g = graph(&[("a.rs", "fn f(x: bool) { if (x) { return; } }")]);
        assert!(g.calls.is_empty());
    }
}
