//! `tc-lint`: a whole-program static-analysis pass.
//!
//! The pipeline's correctness checks (overlap, superclass cycles, type
//! errors) reject programs that are *wrong*; this crate's lints flag
//! programs that are *suspicious* — instance worlds whose resolution
//! only terminates because of the runtime budget, contexts that carry
//! dead weight, bindings that are never read, branches that can never
//! run, and dictionaries rebuilt redundantly (the paper's key missed
//! optimization). The pass runs between checking and evaluation on
//! three views of the program at once:
//!
//! * the **surface AST** ([`tc_syntax::Program`]) — binding hygiene;
//! * the **class environment** ([`tc_classes::ClassEnv`]) — instance
//!   termination and context redundancy;
//! * the **typed core** ([`tc_coreir::CoreProgram`]) — unreachable
//!   arms and repeated dictionary construction, which only become
//!   visible after dictionary conversion.
//!
//! Every rule is a separate module reporting through the shared
//! [`tc_syntax::Diagnostics`] machinery with a stable `L`-prefixed
//! code, and every rule's level is configurable per run
//! ([`LintConfig`]): `allow` silences it, `warn` (the default) reports
//! a warning, `deny` escalates to an error that fails compilation.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

mod ambiguous;
mod bindings;
mod hoist;
mod matches;
mod redundant;
mod termination;
mod unreachable;

use std::collections::HashMap;
use tc_classes::ClassEnv;
use tc_coreir::CoreProgram;
use tc_syntax::{Diagnostic, Diagnostics, LintLevel, Program, Severity, Span, Stage};

pub use tc_syntax::LintLevel as Level;

/// The lint rules, one per analysis module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `L0001` — instance contexts must shrink structurally
    /// (Paterson-style), or resolution may diverge without the runtime
    /// cycle/budget guards.
    InstanceTermination,
    /// `L0002` — a constraint duplicated in, or implied (via a
    /// superclass) by, the same context.
    RedundantConstraint,
    /// `L0003` — a context constraint mentioning a type variable that
    /// never occurs in the constrained type; every use is ambiguous.
    AmbiguousTypeVar,
    /// `L0004` — a lambda parameter or local `let` binding that is
    /// never used.
    UnusedBinding,
    /// `L0005` — a binding that shadows an enclosing local or a
    /// top-level definition.
    ShadowedBinding,
    /// `L0006` — an `if` or `case` arm that can never run: constant
    /// condition, a condition already decided by an enclosing test, or
    /// a pattern a preceding arm already covers.
    UnreachableArm,
    /// `L0007` — an identical instance-dictionary application built
    /// more than once in one binding; hoistable into a shared binding.
    RepeatedDictionary,
    /// `L0012` — a `case` with no default arm that does not cover
    /// every constructor of the scrutinee's data type; the uncovered
    /// values fail at runtime with `match-failure`.
    NonExhaustiveMatch,
}

impl Rule {
    pub const ALL: [Rule; 8] = [
        Rule::InstanceTermination,
        Rule::RedundantConstraint,
        Rule::AmbiguousTypeVar,
        Rule::UnusedBinding,
        Rule::ShadowedBinding,
        Rule::UnreachableArm,
        Rule::RepeatedDictionary,
        Rule::NonExhaustiveMatch,
    ];

    /// Stable machine-readable code, in the `L` namespace so lint
    /// findings are visually distinct from pipeline `E` errors.
    pub fn code(self) -> &'static str {
        match self {
            Rule::InstanceTermination => "L0001",
            Rule::RedundantConstraint => "L0002",
            Rule::AmbiguousTypeVar => "L0003",
            Rule::UnusedBinding => "L0004",
            Rule::ShadowedBinding => "L0005",
            Rule::UnreachableArm => "L0006",
            Rule::RepeatedDictionary => "L0007",
            Rule::NonExhaustiveMatch => "L0012",
        }
    }

    /// Kebab-case rule name, used by CLI `--lint-level` overrides.
    pub fn name(self) -> &'static str {
        match self {
            Rule::InstanceTermination => "instance-termination",
            Rule::RedundantConstraint => "redundant-constraint",
            Rule::AmbiguousTypeVar => "ambiguous-type-variable",
            Rule::UnusedBinding => "unused-binding",
            Rule::ShadowedBinding => "shadowed-binding",
            Rule::UnreachableArm => "unreachable-arm",
            Rule::RepeatedDictionary => "repeated-dictionary",
            Rule::NonExhaustiveMatch => "non-exhaustive-match",
        }
    }

    /// One-line explanation, surfaced by the runner's `--explain`.
    pub fn description(self) -> &'static str {
        match self {
            Rule::InstanceTermination => {
                "an instance context is not structurally smaller than its head \
                 (Paterson condition); resolution may diverge without the \
                 runtime cycle/budget guards"
            }
            Rule::RedundantConstraint => {
                "a constraint is duplicated in, or implied via a superclass \
                 by, the same context"
            }
            Rule::AmbiguousTypeVar => {
                "a context constraint mentions a type variable that never \
                 occurs in the constrained type; every use is ambiguous"
            }
            Rule::UnusedBinding => "a lambda parameter or local binding is never used",
            Rule::ShadowedBinding => {
                "a binding shadows an enclosing local or a top-level definition"
            }
            Rule::UnreachableArm => {
                "an `if` or `case` arm can never run: constant condition, a \
                 condition already decided by an enclosing test, or a pattern \
                 a preceding arm already covers"
            }
            Rule::RepeatedDictionary => {
                "an identical instance dictionary is built more than once in \
                 one binding; hoistable into a shared binding"
            }
            Rule::NonExhaustiveMatch => {
                "a `case` with no default arm does not cover every constructor \
                 of the scrutinee's data type; uncovered values fail at \
                 runtime with `match-failure`"
            }
        }
    }

    /// Every rule warns by default; nothing is deny-by-default so a
    /// lint can never reject a program unless the caller opts in.
    pub fn default_level(self) -> LintLevel {
        LintLevel::Warn
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }
}

/// Per-rule level configuration. Unset rules fall back to
/// [`Rule::default_level`].
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: HashMap<Rule, LintLevel>,
}

impl LintConfig {
    pub fn new() -> Self {
        Self::default()
    }

    /// A configuration with every rule forced to `level` — `deny` for
    /// lint-clean CI gates, `allow` to switch the pass off wholesale.
    pub fn all(level: LintLevel) -> Self {
        let mut cfg = Self::default();
        for r in Rule::ALL {
            cfg.set(r, level);
        }
        cfg
    }

    /// The effective level of `rule`.
    pub fn level(&self, rule: Rule) -> LintLevel {
        self.overrides
            .get(&rule)
            .copied()
            .unwrap_or_else(|| rule.default_level())
    }

    pub fn set(&mut self, rule: Rule, level: LintLevel) -> &mut Self {
        self.overrides.insert(rule, level);
        self
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, rule: Rule, level: LintLevel) -> Self {
        self.set(rule, level);
        self
    }

    /// Apply a CLI-style `rule-name=level` override. Returns `false`
    /// (and changes nothing) when the rule name or level is unknown.
    pub fn set_by_name(&mut self, rule: &str, level: &str) -> bool {
        match (Rule::from_name(rule), LintLevel::parse(level)) {
            (Some(r), Some(l)) => {
                self.set(r, l);
                true
            }
            _ => false,
        }
    }
}

/// Everything one lint run looks at: the three program views are
/// borrowed from the driver's compilation record.
pub struct LintInput<'a> {
    /// Surface AST of the whole compiled buffer (prelude + user code).
    pub program: &'a Program,
    /// Validated class/instance environment.
    pub cenv: &'a ClassEnv,
    /// Dictionary-converted core program.
    pub core: &'a CoreProgram,
    /// Byte offset where user code begins in the compiled buffer
    /// (the prelude length, or `0` when no prelude was spliced).
    /// Findings whose primary span lies before this offset point at
    /// code the user cannot change and are suppressed — e.g. a user
    /// top-level `f` would otherwise make every prelude parameter
    /// named `f` a "shadowed binding".
    pub user_start: usize,
}

/// Run every configured rule and collect the findings.
pub fn run_lints(input: &LintInput<'_>, config: &LintConfig) -> Diagnostics {
    run_lints_over(input, &Program::default(), config)
}

/// [`run_lints`] for a program compiled on top of `base` (the prelude):
/// the base's bindings and class methods are top-level names the
/// program's binders can shadow. `input.core` holds the program's own
/// bindings, and only the program's own instances are checked
/// ([`tc_classes::ClassEnv::own_instances`]), so the base's code is not
/// linted again.
pub fn run_lints_over(input: &LintInput<'_>, base: &Program, config: &LintConfig) -> Diagnostics {
    let mut em = Emitter {
        config,
        user_start: input.user_start,
        diags: Diagnostics::new(),
    };
    termination::check(input, &mut em);
    redundant::check(input, &mut em);
    ambiguous::check(input, &mut em);
    bindings::check(input, base, &mut em);
    unreachable::check(input, &mut em);
    matches::check(input, &mut em);
    hoist::check(input, &mut em);
    em.diags
}

/// Shared reporting surface handed to each rule module: maps a rule's
/// configured level onto a severity and tags every finding with the
/// rule name so users know what to silence.
pub(crate) struct Emitter<'a> {
    config: &'a LintConfig,
    user_start: usize,
    pub(crate) diags: Diagnostics,
}

impl Emitter<'_> {
    /// Is the rule worth computing at all?
    pub(crate) fn enabled(&self, rule: Rule) -> bool {
        self.config.level(rule) != LintLevel::Allow
    }

    pub(crate) fn report(&mut self, rule: Rule, span: Span, message: String) {
        self.report_with(rule, span, message, Vec::new());
    }

    pub(crate) fn report_with(
        &mut self,
        rule: Rule,
        span: Span,
        message: String,
        notes: Vec<(Option<Span>, String)>,
    ) {
        let Some(severity) = self.config.level(rule).severity() else {
            return;
        };
        // A known span entirely inside the prelude blames code the
        // user cannot edit; drop the finding.
        if span != Span::DUMMY && (span.end as usize) <= self.user_start {
            return;
        }
        let mut d = match severity {
            Severity::Error => Diagnostic::error(Stage::Lint, rule.code(), message, span),
            Severity::Warning => Diagnostic::warning(Stage::Lint, rule.code(), message, span),
        };
        for (nspan, note) in notes {
            d = d.with_note(nspan, note);
        }
        d = d.with_note(None, format!("lint rule `{}`", rule.name()));
        self.diags.push(d);
    }
}

/// Source span of every core binding we can attribute: top-level
/// bindings by name, instance dictionary constructors (`$dictN$C$T`)
/// by their instance declaration. Core expressions carry no spans, so
/// core-level rules blame the enclosing binding.
pub(crate) fn binding_spans(input: &LintInput<'_>) -> HashMap<String, Span> {
    let mut spans = HashMap::new();
    for b in &input.program.bindings {
        spans.insert(b.name.clone(), b.span);
    }
    for inst in input.cenv.all_instances() {
        spans.insert(inst.dict_binding_name(), inst.span);
    }
    spans
}

/// Is `sub`'s class reachable from `sup` through one or more
/// superclass edges? (`Ord` implies `Eq` under `class Eq a => Ord a`.)
/// The superclass graph is validated acyclic at build time, and the
/// visited set makes the walk total regardless.
pub(crate) fn superclass_implies(cenv: &ClassEnv, sup: &str, sub: &str) -> bool {
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut queue: Vec<&str> = match cenv.class(sup) {
        Some(ci) => ci.supers.iter().map(|s| s.as_str()).collect(),
        None => return false,
    };
    while let Some(c) = queue.pop() {
        if !seen.insert(c) {
            continue;
        }
        if c == sub {
            return true;
        }
        if let Some(ci) = cenv.class(c) {
            queue.extend(ci.supers.iter().map(|s| s.as_str()));
        }
    }
    false
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use tc_types::VarGen;

    pub(crate) struct Analyzed {
        pub program: Program,
        pub cenv: ClassEnv,
        pub core: CoreProgram,
    }

    /// Front half of the pipeline, lint-ready: lex, parse, class env,
    /// elaborate. Panics (it's a test helper) are fine.
    pub(crate) fn analyze(src: &str) -> Analyzed {
        let (toks, _) = tc_syntax::lex(src);
        let (program, _) = tc_syntax::parse_program(&toks, Default::default());
        let mut gen = VarGen::new();
        let (cenv, _) = tc_classes::build_class_env(&program, &mut gen);
        let (elab, _) = tc_core::elaborate(&program, &cenv, &mut gen, Default::default());
        Analyzed {
            program,
            cenv,
            core: elab.core,
        }
    }

    /// Lint `src` at default levels and return the diagnostics.
    pub(crate) fn lint(src: &str) -> Vec<Diagnostic> {
        lint_with(src, &LintConfig::default())
    }

    pub(crate) fn lint_with(src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
        let a = analyze(src);
        run_lints(
            &LintInput {
                program: &a.program,
                cenv: &a.cenv,
                core: &a.core,
                user_start: 0,
            },
            cfg,
        )
        .into_vec()
    }

    /// The codes of all findings for `src`, at default levels.
    pub(crate) fn codes(src: &str) -> Vec<&'static str> {
        lint(src).into_iter().map(|d| d.code).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::lint_with;

    #[test]
    fn rule_names_and_codes_are_stable_and_unique() {
        let mut codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Rule::ALL.len());
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
            assert!(r.code().starts_with('L'));
            assert_eq!(r.default_level(), LintLevel::Warn);
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn config_levels_and_overrides() {
        let mut cfg = LintConfig::new();
        assert_eq!(cfg.level(Rule::UnusedBinding), LintLevel::Warn);
        cfg.set(Rule::UnusedBinding, LintLevel::Deny);
        assert_eq!(cfg.level(Rule::UnusedBinding), LintLevel::Deny);
        assert!(cfg.set_by_name("shadowed-binding", "allow"));
        assert_eq!(cfg.level(Rule::ShadowedBinding), LintLevel::Allow);
        assert!(!cfg.set_by_name("nope", "warn"));
        assert!(!cfg.set_by_name("unused-binding", "nope"));
        let deny = LintConfig::all(LintLevel::Deny);
        for r in Rule::ALL {
            assert_eq!(deny.level(r), LintLevel::Deny);
        }
    }

    #[test]
    fn allow_silences_and_deny_escalates() {
        let src = "f = \\x -> 1;"; // unused parameter
        let warn = lint_with(src, &LintConfig::default());
        assert!(warn.iter().any(|d| d.code == "L0004"));
        assert!(warn.iter().all(|d| d.severity == Severity::Warning));

        let allow = lint_with(
            src,
            &LintConfig::default().with(Rule::UnusedBinding, LintLevel::Allow),
        );
        assert!(allow.iter().all(|d| d.code != "L0004"));

        let deny = lint_with(
            src,
            &LintConfig::default().with(Rule::UnusedBinding, LintLevel::Deny),
        );
        assert!(deny
            .iter()
            .any(|d| d.code == "L0004" && d.severity == Severity::Error));
    }

    #[test]
    fn findings_name_their_rule() {
        let d = lint_with("f = \\x -> 1;", &LintConfig::default());
        let unused = d.iter().find(|d| d.code == "L0004").expect("fires");
        assert!(unused
            .notes
            .iter()
            .any(|(_, n)| n.contains("unused-binding")));
        assert_eq!(unused.stage, Stage::Lint);
    }
}
