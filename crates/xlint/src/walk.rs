//! Workspace walking: crate classification, deterministic file
//! ordering, and report aggregation.

use crate::rules::{lint_source, Allow, CrateContext, Finding, RuleId};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Per-rule tallies.
#[derive(Debug, Default, Clone, Copy)]
pub struct RuleStats {
    /// Unsuppressed findings.
    pub violations: usize,
    /// Findings suppressed by a counted `xlint: allow` escape.
    pub allows: usize,
}

/// The aggregated lint result for the whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files lexed and linted.
    pub files_scanned: usize,
    /// Violations, keyed by workspace-relative path.
    pub findings: Vec<(String, Finding)>,
    /// Consumed escapes, keyed by workspace-relative path.
    pub allows: Vec<(String, Allow)>,
    /// Atomic `Ordering::` sites carrying a `// ordering:` comment.
    pub ordering_documented: usize,
    /// Code lines of each crate's `src/` tree, keyed by crate directory
    /// name: lines outside comments and `#[cfg(test)]` regions
    /// ([`crate::FileReport::code_lines`]). Integration tests, examples and
    /// benches are not counted.
    pub code_lines: BTreeMap<String, usize>,
}

impl Report {
    /// Per-rule violation/allow tallies, in [`RuleId::ALL`] order.
    #[must_use]
    pub fn per_rule(&self) -> BTreeMap<RuleId, RuleStats> {
        let mut map: BTreeMap<RuleId, RuleStats> =
            RuleId::ALL.iter().map(|&rule| (rule, RuleStats::default())).collect();
        for (_, finding) in &self.findings {
            if let Some(stats) = map.get_mut(&finding.rule) {
                stats.violations += 1;
            }
        }
        for (_, allow) in &self.allows {
            if let Some(stats) = map.get_mut(&allow.rule) {
                stats.allows += 1;
            }
        }
        map
    }

    /// Violations of real rules (everything except escape hygiene).
    #[must_use]
    pub fn hard_violations(&self) -> usize {
        self.findings.iter().filter(|(_, f)| f.rule != RuleId::Escape).count()
    }

    /// Escape-hygiene findings (malformed or unused `xlint: allow`):
    /// warnings by default, violations under `--deny-all`.
    #[must_use]
    pub fn hygiene_violations(&self) -> usize {
        self.findings.iter().filter(|(_, f)| f.rule == RuleId::Escape).count()
    }

    /// Renders the machine-readable stats JSON (the `BENCH_lint.json`
    /// artifact). Hand-rolled: the linter has no dependencies.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"xlint-stats-v1\",\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"violations\": {},\n", self.findings.len()));
        out.push_str(&format!("  \"allows\": {},\n", self.allows.len()));
        out.push_str(&format!("  \"ordering_documented\": {},\n", self.ordering_documented));
        out.push_str("  \"rules\": {\n");
        let rules: Vec<String> = self
            .per_rule()
            .iter()
            .map(|(rule, stats)| {
                format!(
                    "    \"{rule}\": {{\"violations\": {}, \"allows\": {}}}",
                    stats.violations, stats.allows
                )
            })
            .collect();
        out.push_str(&rules.join(",\n"));
        let crates: Vec<String> = self
            .code_lines
            .iter()
            .map(|(name, lines)| format!("    \"{name}\": {lines}"))
            .collect();
        out.push_str(&format!("\n  }},\n  \"code_lines\": {{\n{}\n  }}\n}}\n", crates.join(",\n")));
        out
    }
}

/// Which rule groups a crate's `src/` tree is held to. Unknown crates get
/// the full determinism + panic-freedom treatment so future crates are
/// covered by default; `bench` (measurement, wall-clock by design) and
/// `xlint` itself are held only to the always-on rules.
#[must_use]
pub fn context_for_crate(name: &str) -> CrateContext {
    match name {
        "bench" | "xlint" => CrateContext::aux(),
        "kibam" | "dkibam" | "rv" | "core" => CrateContext {
            deterministic: true,
            panic_free: true,
            cast_audit: true,
            long_running: false,
        },
        // The serving stack: worker loops here must not read the process
        // environment or do blocking file I/O per request.
        "engine" | "served" => CrateContext {
            deterministic: true,
            panic_free: true,
            cast_audit: false,
            long_running: true,
        },
        _ => CrateContext {
            deterministic: true,
            panic_free: true,
            cast_audit: false,
            long_running: false,
        },
    }
}

/// Recursively collects `.rs` files under `dir`, sorted by path so the
/// report order is deterministic.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|entry| entry.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `fixtures/` holds deliberately-bad sources for the linter's
            // own self-test; `target/` is build output.
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if matches!(name.as_deref(), Some("fixtures" | "target")) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints `files` into `report` and returns their summed code lines.
fn lint_files(
    root: &Path,
    files: &[PathBuf],
    ctx: CrateContext,
    report: &mut Report,
) -> io::Result<usize> {
    let mut code_lines = 0;
    for path in files {
        let source = fs::read_to_string(path)?;
        let label = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        // `config.rs` is where a long-running crate is allowed to read the
        // environment and load files: startup only, by construction.
        let mut ctx = ctx;
        if path.file_name().is_some_and(|name| name == "config.rs") {
            ctx.long_running = false;
        }
        let file_report = lint_source(&source, ctx);
        report.files_scanned += 1;
        report.ordering_documented += file_report.ordering_documented;
        report.findings.extend(file_report.findings.into_iter().map(|f| (label.clone(), f)));
        report.allows.extend(file_report.allows.into_iter().map(|a| (label.clone(), a)));
        code_lines += file_report.code_lines;
    }
    Ok(code_lines)
}

/// Lints every crate under `<root>/crates` plus the workspace-level
/// `tests/` and `examples/` trees.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    crate_dirs.sort();
    for crate_dir in crate_dirs.iter().filter(|p| p.is_dir()) {
        let name =
            crate_dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let ctx = context_for_crate(&name);

        let mut src_files = Vec::new();
        collect_rs(&crate_dir.join("src"), &mut src_files)?;
        let code_lines = lint_files(root, &src_files, ctx, &mut report)?;
        report.code_lines.insert(name, code_lines);

        // Integration tests, examples, and benches are auxiliary: only
        // the always-on rules apply there.
        for aux in ["tests", "examples", "benches"] {
            let mut aux_files = Vec::new();
            collect_rs(&crate_dir.join(aux), &mut aux_files)?;
            lint_files(root, &aux_files, CrateContext::aux(), &mut report)?;
        }
    }
    for aux in ["tests", "examples"] {
        let mut aux_files = Vec::new();
        collect_rs(&root.join(aux), &mut aux_files)?;
        lint_files(root, &aux_files, CrateContext::aux(), &mut report)?;
    }
    Ok(report)
}

/// Extracts the per-rule `allows` counts from a committed
/// `xlint-stats-v1` document (the `BENCH_lint.json` baseline). The parser
/// leans on the renderer's fixed line shape — `"<rule>": {"violations":
/// N, "allows": M}` — rather than a general JSON reader; the linter has
/// no dependencies, and [`Report::stats_json`] is the only producer.
///
/// Returns `None` when the document is not an `xlint-stats-v1` report or
/// carries no rules object.
#[must_use]
pub fn parse_stats_allows(json: &str) -> Option<BTreeMap<String, usize>> {
    if !json.contains("\"schema\": \"xlint-stats-v1\"") {
        return None;
    }
    let allows: BTreeMap<String, usize> = json
        .lines()
        .filter_map(|line| {
            let (rule, rest) = line.trim().strip_prefix('"')?.split_once('"')?;
            let (_, count) = rest.split_once("\"allows\": ")?;
            let digits: String = count.chars().take_while(char::is_ascii_digit).collect();
            Some((rule.to_owned(), digits.parse().ok()?))
        })
        .collect();
    (!allows.is_empty()).then_some(allows)
}

/// Extracts the per-crate `code_lines` object from a committed
/// `xlint-stats-v1` document, leaning on the renderer's fixed shape like
/// [`parse_stats_allows`]: one `"<crate>": N` line per crate after
/// `"code_lines": {`. Empty when the document records no code lines.
#[must_use]
pub fn parse_stats_code_lines(json: &str) -> BTreeMap<String, usize> {
    json.lines()
        .skip_while(|line| line.trim() != "\"code_lines\": {")
        .skip(1)
        .map_while(|line| line.trim().trim_end_matches(',').split_once(": "))
        .filter_map(|(name, count)| Some((name.trim_matches('"').to_owned(), count.parse().ok()?)))
        .collect()
}

/// The code-size change against a baseline's per-crate `code_lines`: one
/// line per crate whose count moved (`core 2521 → 2450 (−71)`, a removed
/// crate as `relax 200 → gone`, an added one as `cli new → 120`), then
/// the workspace total. Informational: a code-size change is never a
/// lint failure.
#[must_use]
pub fn code_line_deltas(report: &Report, baseline: &BTreeMap<String, usize>) -> Vec<String> {
    let names: BTreeSet<&String> = baseline.keys().chain(report.code_lines.keys()).collect();
    let totals = (baseline.values().sum(), report.code_lines.values().sum());
    names
        .into_iter()
        .map(|name| (name.as_str(), baseline.get(name), report.code_lines.get(name)))
        .filter(|(_, before, after)| before != after)
        .chain([("total", Some(&totals.0), Some(&totals.1))])
        .map(|(name, before, after)| match (before, after) {
            (Some(b), Some(a)) if a >= b => format!("{name} {b} → {a} (+{})", a - b),
            (Some(b), Some(a)) => format!("{name} {b} → {a} (−{})", b - a),
            (Some(b), None) => format!("{name} {b} → gone"),
            (None, a) => format!("{name} new → {}", a.unwrap_or(&0)),
        })
        .collect()
}

/// Compares a fresh report's per-rule `allows` counts against the
/// committed baseline. Any rule with more counted escapes than the
/// baseline is a regression: a new `xlint: allow` must land with a
/// regenerated `BENCH_lint.json`, so the diff shows up in review like a
/// bench regression would. Rules absent from the baseline count as 0.
#[must_use]
pub fn baseline_regressions(report: &Report, baseline: &BTreeMap<String, usize>) -> Vec<String> {
    let mut regressions = Vec::new();
    for (rule, stats) in report.per_rule() {
        let allowed = baseline.get(rule.name()).copied().unwrap_or(0);
        if stats.allows > allowed {
            regressions.push(format!(
                "rule `{}` has {} allow escape(s), baseline permits {allowed}: \
                 justify the new escape and regenerate the baseline with --stats-out",
                rule.name(),
                stats.allows
            ));
        }
    }
    regressions
}
