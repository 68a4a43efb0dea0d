//! `gpuflow-lint` — a workspace determinism & integer-time static
//! analysis pass.
//!
//! Every result this repo produces rests on two invariants that are
//! otherwise only checked *dynamically* (by `repro check`, which
//! regenerates every committed artifact and diffs bytes):
//!
//! 1. runs are bit-for-bit deterministic — no hash-order iteration, no
//!    wall clocks, no raw threads, no float-order drift on result
//!    paths;
//! 2. integer-ns time arithmetic never silently truncates or
//!    overflows.
//!
//! This crate enforces those invariants *statically*, at `cargo` time,
//! with a self-contained token-stream analyzer (no external deps — the
//! lexer lives in-crate, in the spirit of the vendored-deps approach).
//! See `docs/static_analysis.md` for the rule catalog and the
//! `// lint: allow(CODE, reason)` suppression grammar.
//!
//! Entry points: [`run`] (whole tree, used by `gpuflow lint`),
//! [`scan::scan_file`] (one file, used by the golden fixture tests),
//! [`json`] (parser + shape checker backing the CLI JSON schema tests),
//! [`promtext`] (Prometheus text-exposition validator, including the
//! SLO alert/recording-rule surface, backing `repro check`'s replay and
//! spans grammar checks), and [`collapsed`] (collapsed-stack flame-graph
//! grammar backing `repro check`'s spans collapsed-stack check).

pub mod allow;
pub mod collapsed;
pub mod json;
pub mod lexer;
pub mod locks;
pub mod promtext;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;
pub mod taint;
pub mod units;
pub mod workspace;

use std::path::Path;

pub use report::{ChainHop, Finding, Report};
pub use rules::RuleCode;

/// Scans every lintable file under `root` and returns the report —
/// per-function rules on each file plus the interprocedural passes
/// (D5/T2/L1) over the workspace symbol graph. Unreadable files are
/// skipped (they cannot carry findings the compiler would accept
/// either).
pub fn run(root: &Path) -> std::io::Result<Report> {
    let files = workspace::discover(root)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for (rel, abs) in &files {
        let Ok(src) = std::fs::read_to_string(abs) else {
            continue;
        };
        sources.push((rel.clone(), src));
    }
    Ok(Report {
        files_scanned: files.len(),
        findings: scan::analyze(&sources),
    })
}
