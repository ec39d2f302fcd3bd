//! The shared diagnostic model.
//!
//! Every pipeline stage — lexer, parser, class-environment construction,
//! type inference, dictionary conversion, evaluation — reports problems
//! as [`Diagnostic`] values collected in a [`Diagnostics`] bag. Stages
//! never panic on user input and never stop at the first error when
//! recovery is possible; instead they accumulate diagnostics and let the
//! driver decide how to present them.

use crate::span::{LineMap, Span};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Something suspicious but not fatal (e.g. shadowed binding).
    Warning,
    /// The program is rejected.
    Error,
}

/// Which pipeline stage produced a diagnostic. Useful both for tests
/// (asserting an adversarial program dies in the stage we expect) and
/// for users reading mixed output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    Lexer,
    Parser,
    Classes,
    Coherence,
    TypeCheck,
    DictConv,
    Lint,
    Eval,
    Driver,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Lexer => "lex",
            Stage::Parser => "parse",
            Stage::Classes => "classes",
            Stage::Coherence => "coherence",
            Stage::TypeCheck => "typecheck",
            Stage::DictConv => "dict",
            Stage::Lint => "lint",
            Stage::Eval => "eval",
            Stage::Driver => "driver",
        };
        f.write_str(s)
    }
}

/// How a lint rule's findings are reported. Shared between the lint
/// pass itself and any configuration surface (driver options, CLI
/// flags): `Allow` suppresses the rule entirely, `Warn` reports a
/// [`Severity::Warning`], `Deny` escalates to [`Severity::Error`] so
/// the finding fails compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LintLevel {
    /// The rule is disabled; findings are not even computed.
    Allow,
    /// Findings are reported as warnings (the default everywhere).
    #[default]
    Warn,
    /// Findings are reported as errors and fail the compilation.
    Deny,
}

impl LintLevel {
    /// The severity a finding at this level is reported with, or
    /// `None` when the rule is allowed (silenced).
    pub fn severity(self) -> Option<Severity> {
        match self {
            LintLevel::Allow => None,
            LintLevel::Warn => Some(Severity::Warning),
            LintLevel::Deny => Some(Severity::Error),
        }
    }

    /// Parse a CLI-style level name (`allow` / `warn` / `deny`).
    pub fn parse(s: &str) -> Option<LintLevel> {
        match s {
            "allow" => Some(LintLevel::Allow),
            "warn" => Some(LintLevel::Warn),
            "deny" => Some(LintLevel::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        })
    }
}

/// A single structured diagnostic with a primary span and optional
/// secondary notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub stage: Stage,
    /// Stable machine-readable code, e.g. `E0003`.
    pub code: &'static str,
    pub message: String,
    pub span: Span,
    /// Extra context lines: (optional span, note text).
    pub notes: Vec<(Option<Span>, String)>,
}

impl Diagnostic {
    pub fn error(stage: Stage, code: &'static str, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            stage,
            code,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    pub fn warning(
        stage: Stage,
        code: &'static str,
        message: impl Into<String>,
        span: Span,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            stage,
            code,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    pub fn with_note(mut self, span: Option<Span>, note: impl Into<String>) -> Self {
        self.notes.push((span, note.into()));
        self
    }

    /// Render with a source excerpt and caret line, `rustc`-style but
    /// deliberately minimal.
    pub fn render(&self, src: &str, line_map: &LineMap) -> String {
        use fmt::Write as _;
        let (line, col) = line_map.location(self.span.start);
        let mut out = String::new();
        let _ = write!(
            out,
            "{}[{}/{}]: {} (line {}, col {})",
            match self.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            },
            self.stage,
            self.code,
            self.message,
            line,
            col
        );
        if !self.span.is_dummy() {
            let text = line_map.line_text(src, self.span.start);
            if !text.is_empty() {
                let caret_col = (col as usize).saturating_sub(1);
                let caret_len = (self.span.len() as usize)
                    .clamp(1, text.len().saturating_sub(caret_col).max(1));
                let _ = write!(
                    out,
                    "\n  | {}\n  | {}{}",
                    text,
                    " ".repeat(caret_col.min(text.len())),
                    "^".repeat(caret_len)
                );
            }
        }
        for (nspan, note) in &self.notes {
            let _ = write!(out, "\n  note: {note}");
            if let Some(s) = nspan {
                let (nl, nc) = line_map.location(s.start);
                let _ = write!(out, " (line {nl}, col {nc})");
            }
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}/{}]: {} @ {}",
            match self.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            },
            self.stage,
            self.code,
            self.message,
            self.span
        )
    }
}

/// An append-only bag of diagnostics with a hard cap.
///
/// The cap is a robustness measure in its own right: a pathological
/// input that produces one diagnostic per byte must not balloon memory.
/// Once the cap is hit, further diagnostics are counted by severity but
/// dropped, and a final "too many diagnostics" marker is appended. A
/// warning never takes an error's place: at the cap, an incoming error
/// evicts the latest held warning, so a run whose held items are all
/// warnings has dropped no error.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
    cap: usize,
    dropped_errors: usize,
    dropped_warnings: usize,
}

impl Default for Diagnostics {
    fn default() -> Self {
        Self::with_cap(Self::DEFAULT_CAP)
    }
}

impl Diagnostics {
    pub const DEFAULT_CAP: usize = 200;

    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_cap(cap: usize) -> Self {
        Diagnostics {
            items: Vec::new(),
            cap: cap.max(1),
            dropped_errors: 0,
            dropped_warnings: 0,
        }
    }

    pub fn push(&mut self, d: Diagnostic) {
        if self.items.len() < self.cap {
            self.items.push(d);
            return;
        }
        if d.severity == Severity::Error {
            match self
                .items
                .iter()
                .rposition(|held| held.severity == Severity::Warning)
            {
                Some(i) => {
                    self.items.remove(i);
                    self.dropped_warnings += 1;
                    self.items.push(d);
                }
                None => self.dropped_errors += 1,
            }
        } else {
            self.dropped_warnings += 1;
        }
    }

    pub fn extend(&mut self, other: Diagnostics) {
        self.dropped_errors += other.dropped_errors;
        self.dropped_warnings += other.dropped_warnings;
        for d in other.items {
            self.push(d);
        }
    }

    pub fn error(&mut self, stage: Stage, code: &'static str, msg: impl Into<String>, span: Span) {
        self.push(Diagnostic::error(stage, code, msg, span));
    }

    pub fn warning(
        &mut self,
        stage: Stage,
        code: &'static str,
        msg: impl Into<String>,
        span: Span,
    ) {
        self.push(Diagnostic::warning(stage, code, msg, span));
    }

    pub fn has_errors(&self) -> bool {
        self.dropped_errors > 0 || self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Errors reported, held or dropped.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
            + self.dropped_errors
    }

    /// Warnings reported, held or dropped.
    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
            + self.dropped_warnings
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty() && self.dropped() == 0
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Number of diagnostics dropped because the cap was reached.
    pub fn dropped(&self) -> usize {
        self.dropped_errors + self.dropped_warnings
    }

    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.items
    }

    /// Render all diagnostics against the source, one block per
    /// diagnostic, plus a trailer if any were dropped.
    pub fn render_all(&self, src: &str) -> String {
        let lm = LineMap::new(src);
        let mut blocks: Vec<String> = self.items.iter().map(|d| d.render(src, &lm)).collect();
        if self.dropped() > 0 {
            blocks.push(self.dropped_trailer());
        }
        blocks.join("\n")
    }

    /// Like [`render_all`](Self::render_all), but in source order:
    /// diagnostics are sorted by span (errors before warnings at the
    /// same location), and a severity summary line is appended. Stages
    /// run one after another, so the raw accumulation order interleaves
    /// a binding's type error with a lint warning pages away; sorting
    /// lets a reader walk the file top to bottom.
    pub fn render_all_sorted(&self, src: &str) -> String {
        let lm = LineMap::new(src);
        let mut sorted: Vec<&Diagnostic> = self.items.iter().collect();
        sorted.sort_by_key(|d| {
            (
                d.span.start,
                d.span.end,
                std::cmp::Reverse(d.severity), // Error sorts before Warning
            )
        });
        let mut blocks: Vec<String> = sorted.iter().map(|d| d.render(src, &lm)).collect();
        if self.dropped() > 0 {
            blocks.push(self.dropped_trailer());
        }
        if !blocks.is_empty() {
            blocks.push(format!(
                "{} error(s), {} warning(s) emitted",
                self.error_count(),
                self.warning_count()
            ));
        }
        blocks.join("\n")
    }

    /// The "too many diagnostics" marker, labelled an error only when
    /// an error was among the dropped.
    fn dropped_trailer(&self) -> String {
        let label = if self.dropped_errors > 0 {
            "error"
        } else {
            "warning"
        };
        format!(
            "{label}[driver/E0000]: too many diagnostics; {} further diagnostic(s) suppressed",
            self.dropped()
        )
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_drops_but_counts() {
        let mut bag = Diagnostics::with_cap(2);
        for i in 0..5 {
            bag.error(Stage::Lexer, "E9999", format!("d{i}"), Span::DUMMY);
        }
        assert_eq!(bag.len(), 2);
        assert_eq!(bag.dropped(), 3);
        assert_eq!(bag.error_count(), 5);
        assert!(bag.has_errors());
    }

    #[test]
    fn dropped_warnings_are_not_errors() {
        let mut bag = Diagnostics::with_cap(3);
        for i in 0..5 {
            bag.warning(Stage::Lint, "L0004", format!("w{i}"), Span::DUMMY);
        }
        assert_eq!(bag.dropped(), 2);
        assert!(!bag.has_errors());
        assert_eq!((bag.error_count(), bag.warning_count()), (0, 5));
        let r = bag.render_all_sorted("");
        assert!(r.contains("warning[driver/E0000]"), "{r}");
        assert!(r.contains("0 error(s), 5 warning(s) emitted"), "{r}");
    }

    #[test]
    fn an_error_at_the_cap_evicts_the_latest_warning() {
        let mut bag = Diagnostics::with_cap(3);
        for i in 0..4 {
            bag.warning(Stage::Lint, "L0004", format!("w{i}"), Span::DUMMY);
        }
        bag.error(Stage::TypeCheck, "E0401", "late", Span::DUMMY);
        assert!(bag.has_errors());
        let held: Vec<String> = bag.iter().map(|d| d.message.clone()).collect();
        assert_eq!(held, ["w0", "w1", "late"]);
        assert_eq!((bag.error_count(), bag.warning_count()), (1, 4));
        // Once only errors are held, further errors are dropped and
        // still counted as errors.
        bag.error(Stage::TypeCheck, "E0401", "e1", Span::DUMMY);
        bag.error(Stage::TypeCheck, "E0401", "e2", Span::DUMMY);
        bag.error(Stage::TypeCheck, "E0401", "e3", Span::DUMMY);
        assert_eq!(bag.error_count(), 4);
        assert_eq!(
            bag.iter().filter(|d| d.severity == Severity::Error).count(),
            3
        );
        let mut merged = Diagnostics::with_cap(3);
        merged.extend(bag);
        assert_eq!((merged.error_count(), merged.warning_count()), (4, 4));
        assert!(merged.render_all("").contains("error[driver/E0000]"));
    }

    #[test]
    fn sorted_render_orders_by_span_and_labels_severity() {
        let src = "line one\nline two\n";
        let mut bag = Diagnostics::new();
        bag.warning(Stage::Lint, "L0004", "later warning", Span::new(10, 13));
        bag.error(Stage::TypeCheck, "E0405", "early error", Span::new(1, 4));
        let r = bag.render_all_sorted(src);
        let e = r.find("E0405").expect("error rendered");
        let w = r.find("L0004").expect("warning rendered");
        assert!(e < w, "sorted by span start: {r}");
        assert!(r.contains("1 error(s), 1 warning(s) emitted"), "{r}");
        assert_eq!(bag.warning_count(), 1);
    }

    #[test]
    fn lint_level_severity_mapping() {
        assert_eq!(LintLevel::Allow.severity(), None);
        assert_eq!(LintLevel::Warn.severity(), Some(Severity::Warning));
        assert_eq!(LintLevel::Deny.severity(), Some(Severity::Error));
        assert_eq!(LintLevel::parse("deny"), Some(LintLevel::Deny));
        assert_eq!(LintLevel::parse("nope"), None);
        assert_eq!(LintLevel::default(), LintLevel::Warn);
        assert_eq!(LintLevel::Warn.to_string(), "warn");
    }

    #[test]
    fn render_includes_caret() {
        let src = "let x = @;";
        let lm = LineMap::new(src);
        let d = Diagnostic::error(Stage::Lexer, "E0001", "unknown character", Span::new(8, 9));
        let r = d.render(src, &lm);
        assert!(r.contains("unknown character"), "{r}");
        assert!(r.contains('^'), "{r}");
    }
}
