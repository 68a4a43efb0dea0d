//! Golden-diagnostic tests: every fixture under `tests/fixtures/` is
//! scanned and its findings (rule, line, col) are compared against the
//! checked-in `.expected` file next to it. Regenerate expectations
//! with `GOLDEN_REGEN=1 cargo test -p gpuflow-lint --test golden`,
//! then review the diff — the expectations are the spec.

use std::path::{Path, PathBuf};

use gpuflow_lint::scan::analyze;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Each fixture is analyzed as a one-file workspace, so both the
/// per-function rules and the interprocedural passes (D5/T2/L1/A2)
/// apply — self-contained fixtures carry their own source and sink.
fn render_findings(name: &str, src: &str) -> String {
    analyze(&[(name.to_string(), src.to_string())])
        .iter()
        .map(|f| format!("{} {}:{}\n", f.rule, f.line, f.col))
        .collect()
}

#[test]
fn fixtures_match_expected_diagnostics() {
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("read fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 11,
        "expected one fixture per rule family, found {}",
        fixtures.len()
    );
    for path in fixtures {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let src = std::fs::read_to_string(&path).expect("read fixture");
        let got = render_findings(&name, &src);
        let expected_path = path.with_extension("expected");
        if std::env::var_os("GOLDEN_REGEN").is_some() {
            std::fs::write(&expected_path, &got).expect("write expected file");
            continue;
        }
        let expected = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", expected_path.display()));
        assert_eq!(
            got, expected,
            "fixture {name} diverged from its .expected file \
             (GOLDEN_REGEN=1 regenerates after a deliberate rule change)"
        );
    }
}

/// Each fixture is named for the rule family it exercises; its
/// expectations must actually mention that code, so a rule silently
/// going blind fails here rather than shipping an empty golden file.
#[test]
fn every_rule_code_has_a_firing_fixture() {
    for (fixture, code) in [
        ("d1.expected", "D1"),
        ("d2.expected", "D2"),
        ("d3.expected", "D3"),
        ("d4.expected", "D4"),
        ("t1.expected", "T1"),
        ("r1_fault.expected", "R1"),
        ("a0.expected", "A0"),
        ("a1.expected", "A1"),
        ("d5.expected", "D5"),
        ("t2.expected", "T2"),
        ("l1.expected", "L1"),
        ("a2.expected", "A2"),
    ] {
        let path = fixtures_dir().join(fixture);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        assert!(
            text.lines().any(|l| l.starts_with(code)),
            "{fixture} does not record a {code} finding:\n{text}"
        );
    }
}

/// The acceptance scenario from the issue: a deliberate D2 and T1
/// violation in a scratch file must be reported with the right code
/// and span.
#[test]
fn deliberate_violations_are_caught_with_spans() {
    let src = "fn probe() -> u64 {\n    let t = std::time::Instant::now();\n    \
               let span_ns: u128 = 1;\n    span_ns as u64\n}\n";
    let findings = analyze(&[("scratch.rs".to_string(), src.to_string())]);
    let d2 = findings
        .iter()
        .find(|f| f.rule.as_str() == "D2")
        .expect("D2 reported");
    assert_eq!((d2.line, d2.col), (2, 24));
    let t1 = findings
        .iter()
        .find(|f| f.rule.as_str() == "T1")
        .expect("T1 reported");
    assert_eq!(t1.line, 4);
}
