//! `xlint` CLI: lint the workspace, print findings and escape tallies,
//! optionally write the stats JSON artifact.
//!
//! ```text
//! cargo run -p xlint                      # lint, warn on escape hygiene
//! cargo run -p xlint -- --deny-all        # escape-hygiene findings fail too
//! cargo run -p xlint -- --stats-out BENCH_lint.json
//! cargo run -p xlint -- --baseline BENCH_lint.json
//! cargo run -p xlint -- --root /path/to/workspace
//! ```
//!
//! Exit status is 1 when any rule violation remains (plus, under
//! `--deny-all`, when any `xlint: allow` escape is malformed or unused,
//! or when `--baseline` finds a rule with more counted allow escapes
//! than the committed stats document), 0 otherwise. `--baseline` also
//! prints each crate's code-line change against the document; that is
//! informational and never fails the run.

use std::path::PathBuf;
use std::process::ExitCode;
use xlint::rules::RuleId;
use xlint::walk::{
    baseline_regressions, code_line_deltas, lint_workspace, parse_stats_allows,
    parse_stats_code_lines,
};

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut stats_out: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--stats-out" => match argv.next() {
                Some(path) => stats_out = Some(PathBuf::from(path)),
                None => return usage("--stats-out needs a path"),
            },
            "--baseline" => match argv.next() {
                Some(path) => baseline_path = Some(PathBuf::from(path)),
                None => return usage("--baseline needs a path"),
            },
            "--root" => match argv.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return usage("--root needs a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Default to the workspace this binary was built from: xlint lives at
    // <root>/crates/xlint.
    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));

    // Load the committed baseline before anything is overwritten:
    // `--stats-out` and `--baseline` may legitimately name the same file.
    let baseline = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match parse_stats_allows(&text) {
                Some(allows) => Some((allows, parse_stats_code_lines(&text))),
                None => {
                    eprintln!("xlint: {} is not an xlint-stats-v1 document", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(err) => {
                eprintln!("xlint: failed to read baseline {}: {err}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("xlint: failed to walk {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    for (path, finding) in &report.findings {
        let severity =
            if finding.rule == RuleId::Escape && !deny_all { "warning" } else { "violation" };
        println!("{path}:{}: {severity}[{}] {}", finding.line, finding.rule, finding.message);
    }

    let per_rule = report.per_rule();
    println!("xlint: {} files scanned", report.files_scanned);
    for (rule, stats) in &per_rule {
        if stats.violations > 0 || stats.allows > 0 {
            println!(
                "xlint:   {:<12} {} violation(s), {} allow(s)",
                rule.name(),
                stats.violations,
                stats.allows
            );
        }
    }
    println!(
        "xlint: {} violation(s), {} counted allow escape(s), {} documented atomic ordering(s)",
        report.findings.len(),
        report.allows.len(),
        report.ordering_documented
    );

    if let Some(path) = stats_out {
        if let Err(err) = std::fs::write(&path, report.stats_json()) {
            eprintln!("xlint: failed to write {}: {err}", path.display());
            return ExitCode::from(2);
        }
        println!("xlint: stats written to {}", path.display());
    }

    let mut regressions = 0;
    if let Some((allows, code_lines)) = &baseline {
        for regression in baseline_regressions(&report, allows) {
            println!("xlint: violation[baseline] {regression}");
            regressions += 1;
        }
        if regressions == 0 {
            println!("xlint: allow escapes match the committed baseline");
        }
        for delta in code_line_deltas(&report, code_lines) {
            println!("xlint: code lines {delta}");
        }
    }

    let failing = report.hard_violations()
        + regressions
        + if deny_all { report.hygiene_violations() } else { 0 };
    if failing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("xlint: {problem}");
    eprintln!("usage: xlint [--deny-all] [--stats-out FILE] [--baseline FILE] [--root DIR]");
    ExitCode::from(2)
}
