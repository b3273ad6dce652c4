//! The rule engine: token-pattern detectors, `#[cfg(test)]` region
//! masking, and the escape-comment protocol.

use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::fmt;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// (D) `HashMap`/`HashSet` in a result-producing crate.
    Hash,
    /// (D) `Instant::now`/`SystemTime::now` outside `bench`.
    Clock,
    /// (D) `==`/`!=` against a float literal.
    FloatEq,
    /// (D) `partial_cmp(..).unwrap_or(Ordering::Equal)`.
    PartialCmp,
    /// (P) `unwrap`/`expect`/`panic!`-family in a library crate.
    Panic,
    /// (C) `as <integer>` cast in a numeric model crate.
    Cast,
    /// (A) atomic `Ordering::` use without a `// ordering:` comment.
    Ordering,
    /// (L) `std::env` read outside config load in a long-running crate.
    Env,
    /// (L) blocking file I/O in a long-running crate's request paths.
    BlockingIo,
    /// Escape hygiene: a malformed or no-longer-needed `xlint: allow`.
    Escape,
}

impl RuleId {
    /// Every rule, in reporting order.
    pub const ALL: [RuleId; 10] = [
        RuleId::Hash,
        RuleId::Clock,
        RuleId::FloatEq,
        RuleId::PartialCmp,
        RuleId::Panic,
        RuleId::Cast,
        RuleId::Ordering,
        RuleId::Env,
        RuleId::BlockingIo,
        RuleId::Escape,
    ];

    /// The rule's stable name, as used inside `xlint: allow(<name>)`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::Hash => "hash",
            RuleId::Clock => "clock",
            RuleId::FloatEq => "float-eq",
            RuleId::PartialCmp => "partial-cmp",
            RuleId::Panic => "panic",
            RuleId::Cast => "cast",
            RuleId::Ordering => "ordering",
            RuleId::Env => "env",
            RuleId::BlockingIo => "blocking-io",
            RuleId::Escape => "escape",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|rule| rule.name() == name)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rule groups apply to a file (derived from its crate; see
/// [`crate::walk`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CrateContext {
    /// Determinism rules: `hash`, `clock`, `float-eq`.
    pub deterministic: bool,
    /// Panic-freedom rule (`panic`).
    pub panic_free: bool,
    /// Cast-audit rule (`cast`).
    pub cast_audit: bool,
    /// Long-running-process rules: `env`, `blocking-io` (scoped to the
    /// serving stack; `config.rs` files are exempt — that is where the
    /// environment is allowed to be read, once, at startup).
    pub long_running: bool,
}

impl CrateContext {
    /// The context for auxiliary code (integration tests, examples, the
    /// linter itself): only the always-on rules (`partial-cmp`,
    /// `ordering`, escape hygiene) apply.
    #[must_use]
    pub fn aux() -> Self {
        Self::default()
    }
}

/// One finding (violation) or suppressed finding (allow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the site.
    pub message: String,
}

/// An escape comment that suppressed one or more findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule being escaped.
    pub rule: RuleId,
    /// 1-based line of the escape comment.
    pub line: u32,
    /// The mandatory justification after ` -- `.
    pub reason: String,
}

/// The lint result for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations (after escape filtering).
    pub findings: Vec<Finding>,
    /// Consumed escape comments, with their reasons.
    pub allows: Vec<Allow>,
    /// Atomic `Ordering::` sites carrying a `// ordering:` justification.
    pub ordering_documented: usize,
    /// Lines on which a token starts outside `#[cfg(test)]` regions:
    /// comment-only and blank lines do not count, and neither does a line
    /// holding nothing but (part of) a string literal, because the lexer
    /// emits no token for a literal.
    pub code_lines: usize,
}

const INT_TYPES: [&str; 12] =
    ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const ENV_READS: [&str; 6] = ["var", "vars", "var_os", "vars_os", "args", "args_os"];
const FILE_OPENS: [&str; 4] = ["open", "create", "create_new", "options"];

/// A parsed `xlint: allow(<rule>) -- <reason>` escape.
#[derive(Debug)]
struct Escape {
    rule: Option<RuleId>,
    line: u32,
    reason: Option<String>,
    used: bool,
}

/// Extracts every escape comment (one `allow(...)` per comment line).
fn parse_escapes(lexed: &Lexed) -> Vec<Escape> {
    let mut escapes = Vec::new();
    for (&line, text) in &lexed.comments {
        // Doc comments describe the escape syntax; only plain `//`
        // comments can *be* escapes.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let Some(at) = text.find("xlint: allow(") else { continue };
        let rest = &text[at + "xlint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            escapes.push(Escape { rule: None, line, reason: None, used: false });
            continue;
        };
        let rule = RuleId::from_name(rest[..close].trim());
        let reason = rest[close + 1..]
            .split_once("--")
            .map(|(_, reason)| reason.trim())
            .filter(|reason| !reason.is_empty())
            .map(str::to_owned);
        escapes.push(Escape { rule, line, reason, used: false });
    }
    escapes
}

/// Marks every token inside a `#[cfg(test)]`-gated item. The mask is what
/// lets the panic/determinism rules skip test modules while still linting
/// the code above them.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Start of the gated region: the attribute itself plus any
            // further attributes, then the item body.
            let start = i;
            let mut j = skip_attr(tokens, i);
            while j < tokens.len() && tokens[j].is_punct("#") {
                j = skip_attr(tokens, j);
            }
            let end = skip_item(tokens, j);
            for flag in mask.iter_mut().take(end).skip(start) {
                *flag = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether the tokens at `i` spell `#[cfg(test)]` (whitespace-insensitive:
/// the lexer already dropped it).
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let spelled: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + spelled.len()
        && spelled.iter().enumerate().all(|(k, want)| tokens[i + k].text == *want)
}

/// Skips one `#[...]` attribute starting at `i` (which points at `#`).
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if j >= tokens.len() || !tokens[j].is_punct("[") {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Skips one item starting at `i`: everything up to the first `;` at
/// bracket depth zero, or through the matching brace of the first `{`.
fn skip_item(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 && tokens[j].text == "}" {
                    return j + 1;
                }
            }
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Counts the distinct lines holding the start of an unmasked token.
fn code_lines(tokens: &[Token], mask: &[bool]) -> usize {
    let mut lines: Vec<u32> =
        tokens.iter().zip(mask).filter(|(_, &masked)| !masked).map(|(t, _)| t.line).collect();
    lines.dedup();
    lines.len()
}

/// Lints one source file under the given crate context.
#[must_use]
pub fn lint_source(source: &str, ctx: CrateContext) -> FileReport {
    let lexed = lex(source);
    let mask = test_mask(&lexed.tokens);
    let mut escapes = parse_escapes(&lexed);
    let mut raw: Vec<Finding> = Vec::new();
    let mut report = FileReport::default();

    detect(&lexed, &mask, ctx, &mut raw, &mut report);
    report.code_lines = code_lines(&lexed.tokens, &mask);

    // Escape filtering: a finding is suppressed by a matching, well-formed
    // escape on its own line or the line directly above.
    for finding in raw {
        let escape = escapes.iter_mut().find(|escape| {
            escape.rule == Some(finding.rule)
                && escape.reason.is_some()
                && (escape.line == finding.line || escape.line + 1 == finding.line)
        });
        match escape {
            Some(escape) => {
                escape.used = true;
                report.allows.push(Allow {
                    rule: finding.rule,
                    line: finding.line,
                    reason: escape.reason.clone().unwrap_or_default(),
                });
            }
            None => report.findings.push(finding),
        }
    }

    // Escape hygiene: malformed escapes and escapes that suppressed
    // nothing are findings themselves, so stale justifications cannot
    // accumulate.
    for escape in escapes {
        let problem = match (&escape.rule, &escape.reason, escape.used) {
            (None, _, _) => Some("unknown rule name in `xlint: allow(...)`"),
            (Some(_), None, _) => Some("escape without a ` -- <reason>` justification"),
            (Some(_), Some(_), false) => {
                Some("escape suppresses nothing on this or the next line; remove it")
            }
            _ => None,
        };
        if let Some(problem) = problem {
            report.findings.push(Finding {
                rule: RuleId::Escape,
                line: escape.line,
                message: problem.to_owned(),
            });
        }
    }
    report.findings.sort_by_key(|f| (f.line, f.rule));
    report
}

/// Runs every detector over the token stream, pushing raw (pre-escape)
/// findings.
fn detect(
    lexed: &Lexed,
    mask: &[bool],
    ctx: CrateContext,
    raw: &mut Vec<Finding>,
    report: &mut FileReport,
) {
    let ts = &lexed.tokens;
    for i in 0..ts.len() {
        let t = &ts[i];
        let in_test = mask[i];

        // (D) hash: nondeterministic iteration order.
        if ctx.deterministic
            && !in_test
            && t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            raw.push(Finding {
                rule: RuleId::Hash,
                line: t.line,
                message: format!(
                    "`{}` in a result-producing crate: iteration order is nondeterministic; \
                     use `BTreeMap`/`BTreeSet`, or escape a keyed-lookup-only use",
                    t.text
                ),
            });
        }

        // (D) clock: wall-clock reads outside bench.
        if ctx.deterministic
            && !in_test
            && t.kind == TokenKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && ts.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && ts.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            raw.push(Finding {
                rule: RuleId::Clock,
                line: t.line,
                message: format!("`{}::now()` outside the bench crate", t.text),
            });
        }

        // (D) float-eq: exact comparison against a float literal.
        if ctx.deterministic
            && !in_test
            && (t.is_punct("==") || t.is_punct("!="))
            && (i > 0 && ts[i - 1].kind == TokenKind::Float
                || ts.get(i + 1).is_some_and(|n| n.kind == TokenKind::Float))
        {
            raw.push(Finding {
                rule: RuleId::FloatEq,
                line: t.line,
                message: format!("float literal compared with `{}`", t.text),
            });
        }

        // (D) partial-cmp: the NaN-silencing unwrap_or(Equal) pattern.
        if t.is_ident("partial_cmp") {
            let window = &ts[i + 1..ts.len().min(i + 20)];
            if let Some(j) = window.iter().position(|n| n.is_ident("unwrap_or")) {
                if window[j..window.len().min(j + 12)].iter().any(|n| n.is_ident("Equal")) {
                    raw.push(Finding {
                        rule: RuleId::PartialCmp,
                        line: t.line,
                        message: "`partial_cmp(..).unwrap_or(Ordering::Equal)` silences NaN; \
                                  use `f64::total_cmp`"
                            .to_owned(),
                    });
                }
            }
        }

        // (P) panic-freedom.
        if ctx.panic_free && !in_test {
            let method_panic = t.is_punct(".")
                && ts.get(i + 1).is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                && ts.get(i + 2).is_some_and(|n| n.is_punct("("));
            let macro_panic = t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
                && ts.get(i + 1).is_some_and(|n| n.is_punct("!"));
            if method_panic {
                raw.push(Finding {
                    rule: RuleId::Panic,
                    line: ts[i + 1].line,
                    message: format!("`.{}(..)` in a library crate", ts[i + 1].text),
                });
            }
            if macro_panic {
                raw.push(Finding {
                    rule: RuleId::Panic,
                    line: t.line,
                    message: format!("`{}!` in a library crate", t.text),
                });
            }
        }

        // (C) cast audit.
        if ctx.cast_audit
            && !in_test
            && t.is_ident("as")
            && ts.get(i + 1).is_some_and(|n| INT_TYPES.contains(&n.text.as_str()))
        {
            raw.push(Finding {
                rule: RuleId::Cast,
                line: t.line,
                message: format!(
                    "`as {}` on a model quantity: route through a `dkibam::checked` helper \
                     or escape with the losslessness argument",
                    ts[i + 1].text
                ),
            });
        }

        // (L) env: process-environment reads outside config load.
        if ctx.long_running
            && !in_test
            && t.is_ident("env")
            && ts.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && ts.get(i + 2).is_some_and(|n| ENV_READS.contains(&n.text.as_str()))
        {
            raw.push(Finding {
                rule: RuleId::Env,
                line: t.line,
                message: format!(
                    "`env::{}` in a long-running crate: read the environment once in \
                     config load and pass an explicit config value down",
                    ts[i + 2].text
                ),
            });
        }

        // (L) blocking-io: filesystem calls in serving code.
        if ctx.long_running && !in_test {
            let fs_call = t.is_ident("fs")
                && ts.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && ts.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident);
            let file_call = t.is_ident("File")
                && ts.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && ts.get(i + 2).is_some_and(|n| FILE_OPENS.contains(&n.text.as_str()));
            if fs_call || file_call {
                raw.push(Finding {
                    rule: RuleId::BlockingIo,
                    line: t.line,
                    message: format!(
                        "`{}::{}` in a long-running crate: blocking file I/O does not \
                         belong in request paths; move it to startup/exit or escape a \
                         one-shot site",
                        t.text,
                        ts[i + 2].text
                    ),
                });
            }
        }

        // (A) atomics audit: always on, tests included.
        if t.is_ident("Ordering")
            && ts.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && ts.get(i + 2).is_some_and(|n| ATOMIC_ORDERINGS.contains(&n.text.as_str()))
        {
            let documented = has_ordering_comment(lexed, t.line);
            if documented {
                report.ordering_documented += 1;
            } else {
                raw.push(Finding {
                    rule: RuleId::Ordering,
                    line: t.line,
                    message: format!(
                        "`Ordering::{}` without an adjacent `// ordering:` justification",
                        ts[i + 2].text
                    ),
                });
            }
        }
    }
}

/// Whether an `// ordering:` justification comment sits on `line` or the
/// line directly above it.
fn has_ordering_comment(lexed: &Lexed, line: u32) -> bool {
    [line, line.saturating_sub(1)]
        .iter()
        .any(|l| lexed.comments.get(l).is_some_and(|text| text.contains("ordering:")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> CrateContext {
        CrateContext { deterministic: true, panic_free: true, cast_audit: true, long_running: true }
    }

    fn rules_of(report: &FileReport) -> Vec<RuleId> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "
            fn lib() { let x: u32 = 1; }
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let v = vec![1].pop().unwrap(); let m = HashMap::new(); }
            }
        ";
        let report = lint_source(src, full());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn panic_sites_fire_outside_tests() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); unreachable!() }";
        let report = lint_source(src, full());
        assert_eq!(rules_of(&report), vec![RuleId::Panic; 4]);
    }

    #[test]
    fn escapes_suppress_and_are_counted() {
        let src = "
            // xlint: allow(panic) -- index validated at construction
            fn f() { x.unwrap(); }
            fn g() { y.unwrap(); } // xlint: allow(panic) -- same line form
        ";
        let report = lint_source(src, full());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.allows.len(), 2);
        assert_eq!(report.allows[0].reason, "index validated at construction");
    }

    #[test]
    fn escape_without_reason_is_a_finding() {
        let src = "
            // xlint: allow(panic)
            fn f() { x.unwrap(); }
        ";
        let report = lint_source(src, full());
        assert!(rules_of(&report).contains(&RuleId::Panic));
        assert!(rules_of(&report).contains(&RuleId::Escape));
    }

    #[test]
    fn doc_comments_are_not_escapes() {
        let src = "
            /// Write `// xlint: allow(panic) -- reason` above the site.
            fn f() { x.unwrap(); }
        ";
        let report = lint_source(src, full());
        // The doc comment neither suppresses the unwrap nor counts as a
        // malformed escape.
        assert_eq!(rules_of(&report), vec![RuleId::Panic]);
    }

    #[test]
    fn unused_escape_is_a_finding() {
        let src = "
            // xlint: allow(hash) -- stale justification
            fn f() {}
        ";
        let report = lint_source(src, full());
        assert_eq!(rules_of(&report), vec![RuleId::Escape]);
    }

    #[test]
    fn wrong_rule_escape_does_not_suppress() {
        let src = "
            // xlint: allow(hash) -- wrong rule
            fn f() { x.unwrap(); }
        ";
        let report = lint_source(src, full());
        assert!(rules_of(&report).contains(&RuleId::Panic));
    }

    #[test]
    fn partial_cmp_pattern_fires_across_lines() {
        let src = "
            fn f() {
                v.sort_by(|a, b| a
                    .partial_cmp(b)
                    .unwrap_or(std::cmp::Ordering::Equal));
            }
        ";
        let report = lint_source(src, CrateContext::aux());
        assert_eq!(rules_of(&report), vec![RuleId::PartialCmp]);
        // Plain partial_cmp without the unwrap_or(Equal) is fine.
        let ok = lint_source("fn f() { let o = a.partial_cmp(b); }", CrateContext::aux());
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn float_eq_fires_on_literal_comparisons_only() {
        let src = "fn f() { if x == 0.0 {} if 1.5 != y {} if a == b {} if n == 3 {} }";
        let report = lint_source(src, full());
        assert_eq!(rules_of(&report), vec![RuleId::FloatEq, RuleId::FloatEq]);
    }

    #[test]
    fn atomics_need_an_ordering_comment() {
        let undocumented = "fn f() { x.load(Ordering::Acquire); }";
        let report = lint_source(undocumented, CrateContext::aux());
        assert_eq!(rules_of(&report), vec![RuleId::Ordering]);

        let documented = "
            // ordering: Acquire pairs with the Release store in poison().
            fn f() { x.load(Ordering::Acquire); }
        ";
        let report = lint_source(documented, CrateContext::aux());
        assert!(report.findings.is_empty());
        assert_eq!(report.ordering_documented, 1);
        // std::cmp::Ordering::Equal is not an atomic ordering.
        let cmp = lint_source("fn f() -> Ordering { Ordering::Equal }", CrateContext::aux());
        assert!(cmp.findings.is_empty());
    }

    #[test]
    fn casts_fire_only_under_the_audit() {
        let src = "fn f(x: f64) -> u64 { x.round() as u64 }";
        assert_eq!(rules_of(&lint_source(src, full())), vec![RuleId::Cast]);
        assert!(lint_source(src, CrateContext::aux()).findings.is_empty());
        // `as f64` is not an integer cast.
        let widen = lint_source("fn f(x: u32) -> f64 { x as f64 }", full());
        assert!(widen.findings.is_empty());
    }

    #[test]
    fn clock_and_hash_fire_in_deterministic_crates() {
        let src = "
            use std::collections::HashMap;
            fn f() { let t = Instant::now(); }
        ";
        let report = lint_source(src, full());
        assert_eq!(rules_of(&report), vec![RuleId::Hash, RuleId::Clock]);
    }

    #[test]
    fn env_and_blocking_io_fire_only_in_long_running_crates() {
        let src = "
            fn f() -> Option<String> { std::env::var(\"HOME\").ok() }
            fn g() { let _ = std::fs::read_to_string(\"state.json\"); }
            fn h() { let _ = std::fs::File::open(\"x\"); }
        ";
        let report = lint_source(src, full());
        assert_eq!(
            rules_of(&report),
            vec![RuleId::Env, RuleId::BlockingIo, RuleId::BlockingIo, RuleId::BlockingIo]
        );
        // Outside the long-running scope neither rule applies.
        let quiet = lint_source(src, CrateContext { long_running: false, ..full() });
        assert!(quiet.findings.is_empty(), "{:?}", quiet.findings);
        // The compile-time env!() macro is not an environment read.
        let macro_use =
            lint_source("fn f() -> &'static str { env!(\"CARGO_MANIFEST_DIR\") }", full());
        assert!(macro_use.findings.is_empty(), "{:?}", macro_use.findings);
    }

    #[test]
    fn banned_names_in_strings_and_comments_do_not_fire() {
        let src = "
            // HashMap here is fine, and so is unwrap() in prose.
            fn f() { let s = \"HashMap::new().unwrap()\"; }
        ";
        let report = lint_source(src, full());
        assert!(report.findings.is_empty());
    }
}
