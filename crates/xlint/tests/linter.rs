//! Linter self-test: the seeded fixture must trip every rule, and the
//! real workspace must be clean under `--deny-all` semantics.

use std::path::PathBuf;
use xlint::rules::{lint_source, CrateContext, RuleId};
use xlint::walk::{
    baseline_regressions, code_line_deltas, context_for_crate, lint_workspace, parse_stats_allows,
    parse_stats_code_lines, Report,
};

const FIXTURE: &str = include_str!("fixtures/bad.rs");
const CODE_LINES_FIXTURE: &str = include_str!("fixtures/code_lines.rs");
const STATS_FIXTURE: &str = include_str!("fixtures/stats_baseline.json");

fn full() -> CrateContext {
    CrateContext { deterministic: true, panic_free: true, cast_audit: true, long_running: true }
}

#[test]
fn fixture_trips_every_rule() {
    let report = lint_source(FIXTURE, full());
    for rule in RuleId::ALL {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "rule `{rule}` did not fire on the seeded fixture; findings: {:?}",
            report.findings
        );
    }
    // The stale escape must be flagged as hygiene, not counted as an allow.
    assert!(report.allows.is_empty(), "{:?}", report.allows);
}

#[test]
fn fixture_is_quiet_outside_its_scopes() {
    // Under the auxiliary context only the always-on rules remain.
    let report = lint_source(FIXTURE, CrateContext::aux());
    let fired: Vec<RuleId> = report.findings.iter().map(|f| f.rule).collect();
    assert!(fired.contains(&RuleId::PartialCmp));
    assert!(fired.contains(&RuleId::Ordering));
    for banned in [
        RuleId::Hash,
        RuleId::Clock,
        RuleId::FloatEq,
        RuleId::Panic,
        RuleId::Cast,
        RuleId::Env,
        RuleId::BlockingIo,
    ] {
        assert!(!fired.contains(&banned), "`{banned}` fired under aux context");
    }
}

#[test]
fn crate_classification_matches_the_rule_table() {
    for name in ["kibam", "dkibam", "rv", "core"] {
        let ctx = context_for_crate(name);
        assert!(ctx.deterministic && ctx.panic_free && ctx.cast_audit, "{name}");
        assert!(!ctx.long_running, "{name}");
    }
    // The serving stack carries the long-running-process rules on top.
    for name in ["engine", "served"] {
        let ctx = context_for_crate(name);
        assert!(ctx.deterministic && ctx.panic_free && !ctx.cast_audit, "{name}");
        assert!(ctx.long_running, "{name}");
    }
    for name in ["workload", "pta", "some-future-crate"] {
        let ctx = context_for_crate(name);
        assert!(ctx.deterministic && ctx.panic_free && !ctx.cast_audit, "{name}");
        assert!(!ctx.long_running, "{name}");
    }
    for name in ["bench", "xlint"] {
        let ctx = context_for_crate(name);
        assert!(!ctx.deterministic && !ctx.panic_free && !ctx.cast_audit, "{name}");
        assert!(!ctx.long_running, "{name}");
    }
}

#[test]
fn workspace_is_clean_under_deny_all() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = lint_workspace(&root).expect("workspace walk");
    assert!(report.files_scanned > 20, "suspiciously few files scanned");
    let violations: Vec<String> = report
        .findings
        .iter()
        .map(|(path, f)| format!("{path}:{}: [{}] {}", f.line, f.rule, f.message))
        .collect();
    assert!(
        violations.is_empty(),
        "workspace has {} xlint violation(s):\n{}",
        violations.len(),
        violations.join("\n")
    );
    // The runner.rs pool atomics are the documented exemplar; if this hits
    // zero the `// ordering:` comments were lost.
    assert!(report.ordering_documented >= 4, "{}", report.ordering_documented);
}

#[test]
fn stats_json_is_well_formed() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = lint_workspace(&root).expect("workspace walk");
    let json = report.stats_json();
    assert!(json.contains("\"schema\": \"xlint-stats-v1\""));
    for rule in RuleId::ALL {
        assert!(json.contains(&format!("\"{rule}\"")), "missing rule `{rule}` in {json}");
    }
    // Balanced braces — cheap sanity check on the hand-rolled writer.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes);
}

#[test]
fn baseline_diff_catches_new_allow_escapes() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = lint_workspace(&root).expect("workspace walk");
    // The report's own stats round-trip as a baseline with no regressions.
    let baseline = parse_stats_allows(&report.stats_json()).expect("stats parse as a baseline");
    assert!(baseline_regressions(&report, &baseline).is_empty());
    // Dropping one rule's count from the baseline makes that rule regress.
    let inflated: Vec<(String, usize)> = baseline
        .iter()
        .filter(|(_, count)| **count > 0)
        .map(|(rule, count)| (rule.clone(), count - 1))
        .collect();
    assert!(!inflated.is_empty(), "the workspace should carry at least one counted escape");
    let mut tightened = baseline.clone();
    for (rule, count) in &inflated {
        tightened.insert(rule.clone(), *count);
    }
    let regressions = baseline_regressions(&report, &tightened);
    assert_eq!(regressions.len(), inflated.len(), "{regressions:?}");
    // A non-stats document is rejected rather than treated as all-zeros.
    assert!(parse_stats_allows("{\"schema\": \"serve-bench-v1\"}").is_none());
}

#[test]
fn code_lines_skip_comments_blank_lines_and_test_regions() {
    // The fixture's code lines: the constant, `fn greeting` and its
    // closing brace, `fn main`, the `let` and main's closing brace. Every
    // comment, blank line and the `#[cfg(test)]` module are skipped, and so
    // are the two lines of the string literal: the lexer emits no token
    // for a literal.
    assert_eq!(lint_source(CODE_LINES_FIXTURE, full()).code_lines, 6);
    assert_eq!(lint_source("", full()).code_lines, 0);
}

#[test]
fn stats_json_records_code_lines_per_crate() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = lint_workspace(&root).expect("workspace walk");
    for name in ["core", "engine", "xlint"] {
        let lines = report.code_lines.get(name).copied().unwrap_or(0);
        assert!(lines > 100, "crate `{name}` counted {lines} code lines");
    }
    let json = report.stats_json();
    assert!(json.contains("\"code_lines\": {"), "{json}");
    assert!(json.contains(&format!("\"core\": {}", report.code_lines["core"])), "{json}");
}

#[test]
fn baseline_code_lines_print_per_crate_deltas() {
    let baseline = parse_stats_code_lines(STATS_FIXTURE);
    let expected: Vec<(String, usize)> =
        vec![("core".into(), 2521), ("kibam".into(), 626), ("relax".into(), 200)];
    assert_eq!(baseline.into_iter().collect::<Vec<_>>(), expected);
    // The rules object is not mistaken for code lines, nor the reverse.
    assert_eq!(parse_stats_allows(STATS_FIXTURE).map(|allows| allows.len()), Some(2));

    let baseline = parse_stats_code_lines(STATS_FIXTURE);
    let mut report = Report::default();
    report.code_lines.insert("core".into(), 2450);
    report.code_lines.insert("kibam".into(), 626);
    report.code_lines.insert("served".into(), 40);
    assert_eq!(
        code_line_deltas(&report, &baseline),
        [
            "core 2521 → 2450 (−71)",
            "relax 200 → gone",
            "served new → 40",
            "total 3347 → 3116 (−231)",
        ]
    );
    // A document without code lines diffs every crate as new.
    assert!(parse_stats_code_lines("{\"schema\": \"xlint-stats-v1\"}").is_empty());
}
