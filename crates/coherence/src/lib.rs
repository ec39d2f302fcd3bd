//! `tc-coherence`: coherence checking for the class system.
//!
//! Peterson & Jones' dictionary-passing translation is only coherent —
//! every well-typed program has exactly one meaning — when instance
//! selection is unambiguous. The pipeline keeps resolution
//! deterministic by construction (first-match over declaration order),
//! so overlapping instances never crash it; but a program whose
//! meaning depends on declaration order is still wrong in a way the
//! user should hear about. This crate is the static pass that says so,
//! running between class-env construction and elaboration:
//!
//! * **Overlap detection** ([`check_coherence`]): every pair of
//!   instance heads of the same class is put through full unification.
//!   A successful unifier is a constructive proof of incoherence, and
//!   its application to either head is a **counterexample type** — a
//!   concrete type both instances match — which the diagnostic prints
//!   (`L0008`). A user instance whose head unifies with a *prelude*
//!   instance is reported separately as an orphan-style duplicate
//!   (`L0009`), because first-match resolution silently shadows it.
//! * **Superclass cycles** (`L0010`): the class-env build breaks
//!   cycles structurally so traversals terminate and records the
//!   participants; this pass turns that record into diagnostics.
//! * **Law checking** ([`laws`]): for each `Eq`/`Ord` instance, law
//!   programs (reflexivity, symmetry, transitivity, totality,
//!   antisymmetry) are generated over enumerated ground samples,
//!   elaborated through the ordinary dictionary conversion, and run
//!   under a budgeted evaluator; a law that evaluates to `False` is a
//!   machine-checked counterexample (`L0011`).
//!
//! Rules report through the shared [`tc_syntax::Diagnostics`]
//! machinery with stable `L`-prefixed codes and per-run configurable
//! levels ([`CoherenceConfig`]). Unlike `tc-lint`, the structural
//! rules here are **deny by default**: an overlapping instance world
//! is incoherent, not merely suspicious.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

pub mod laws;

use std::collections::HashMap;
use tc_classes::{ClassEnv, Instance};
use tc_syntax::{Diagnostic, Diagnostics, LintLevel, Severity, Span, Stage};
use tc_trace::{CounterId, MetricsRegistry};
use tc_types::{unify, Interner, Pred, Subst};

pub use laws::{check_laws, LawInput, LawOptions};
pub use tc_syntax::LintLevel as Level;

/// The coherence rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `L0008` — two instance heads of the same class unify; the
    /// diagnostic names both spans and prints the counterexample type
    /// (the unified head) that both instances match.
    OverlappingInstances,
    /// `L0009` — a user instance duplicates (unifies with) a prelude
    /// instance; first-match resolution silently shadows the user's.
    OrphanInstance,
    /// `L0010` — a class participates in a superclass cycle. The
    /// class-env build broke the cycle structurally so compilation
    /// could continue; the program is still ill-formed.
    SuperclassCycle,
    /// `L0011` — a generated class-law program (Eq reflexivity /
    /// symmetry / transitivity, Ord totality / antisymmetry)
    /// evaluated to `False` on a concrete sample.
    LawViolation,
}

impl Rule {
    pub const ALL: [Rule; 4] = [
        Rule::OverlappingInstances,
        Rule::OrphanInstance,
        Rule::SuperclassCycle,
        Rule::LawViolation,
    ];

    /// Stable machine-readable code, in the shared `L` namespace with
    /// `tc-lint` (codes `L0001`–`L0007` live there).
    pub fn code(self) -> &'static str {
        match self {
            Rule::OverlappingInstances => "L0008",
            Rule::OrphanInstance => "L0009",
            Rule::SuperclassCycle => "L0010",
            Rule::LawViolation => "L0011",
        }
    }

    /// Kebab-case rule name, used by CLI `--lint-level` overrides.
    pub fn name(self) -> &'static str {
        match self {
            Rule::OverlappingInstances => "overlapping-instances",
            Rule::OrphanInstance => "orphan-instance",
            Rule::SuperclassCycle => "superclass-cycle",
            Rule::LawViolation => "law-violation",
        }
    }

    /// One-line explanation, surfaced by the runner's `--explain`.
    pub fn description(self) -> &'static str {
        match self {
            Rule::OverlappingInstances => {
                "two instances of the same class unify; the program's meaning \
                 depends on declaration order (a counterexample type both \
                 instances match is printed)"
            }
            Rule::OrphanInstance => {
                "a user instance duplicates a prelude instance; first-match \
                 resolution silently shadows the user's definition"
            }
            Rule::SuperclassCycle => {
                "a class reaches itself through its superclass constraints; \
                 the cycle was broken structurally to keep compiling"
            }
            Rule::LawViolation => {
                "an Eq/Ord instance failed a mechanically generated class law \
                 (reflexivity, symmetry, transitivity, totality, antisymmetry) \
                 on a concrete sample value"
            }
        }
    }

    /// The structural rules deny by default — an incoherent instance
    /// world or a cyclic class hierarchy is an error, matching the
    /// strictness this pipeline had when the class-env build rejected
    /// them outright. Law checking is opt-in machinery, so its
    /// findings default to warnings.
    pub fn default_level(self) -> LintLevel {
        match self {
            Rule::OverlappingInstances | Rule::OrphanInstance | Rule::SuperclassCycle => {
                LintLevel::Deny
            }
            Rule::LawViolation => LintLevel::Warn,
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }
}

/// Per-rule level configuration. Unset rules fall back to
/// [`Rule::default_level`].
#[derive(Debug, Clone, Default)]
pub struct CoherenceConfig {
    overrides: HashMap<Rule, LintLevel>,
}

impl CoherenceConfig {
    pub fn new() -> Self {
        Self::default()
    }

    /// A configuration with every rule forced to `level`.
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

/// Everything the structural coherence pass looks at.
pub struct CoherenceInput<'a> {
    /// Validated class/instance environment.
    pub cenv: &'a ClassEnv,
    /// Byte offset where user code begins in the compiled buffer (the
    /// prelude length, or `0` when no prelude was spliced). Instances
    /// declared before this offset are prelude instances: a pair of
    /// overlapping prelude instances is suppressed (the user cannot
    /// edit them), and a user/prelude overlap downgrades from `L0008`
    /// to the orphan-duplicate rule `L0009`.
    pub user_start: usize,
}

/// Run the structural coherence checks — pairwise instance-head
/// unification per class and superclass-cycle reporting — and collect
/// the findings. Law checking is separate ([`laws::check_laws`])
/// because it needs the elaborator and evaluator.
pub fn check_coherence(
    input: &CoherenceInput<'_>,
    config: &CoherenceConfig,
    metrics: &mut MetricsRegistry,
) -> Diagnostics {
    let mut em = Emitter {
        config,
        user_start: input.user_start,
        diags: Diagnostics::new(),
    };
    check_overlaps(input, &mut em, metrics);
    check_cycles(input, &mut em);
    em.diags
}

/// Is this instance part of the spliced prelude (and therefore not
/// editable by the user)?
fn in_prelude(span: Span, user_start: usize) -> bool {
    span != Span::DUMMY && (span.end as usize) <= user_start
}

/// Pairwise overlap detection. Instance-head type variables are
/// allocated from the run's shared `VarGen` at build time, so heads of
/// distinct instances never share a variable and plain unification is
/// a sound overlap test: a unifier exists iff some ground type matches
/// both heads, and applying it to either head *is* such a type (the
/// most general counterexample).
///
/// Only pairs that involve one of the program's own instances are
/// unified ([`ClassEnv::is_own`]): a class lists its base's instances
/// first, and those were checked when the base was built.
fn check_overlaps(input: &CoherenceInput<'_>, em: &mut Emitter<'_>, metrics: &mut MetricsRegistry) {
    if !em.enabled(Rule::OverlappingInstances) && !em.enabled(Rule::OrphanInstance) {
        return;
    }
    for class in input.cenv.class_names() {
        let insts = input.cenv.instances_of(class);
        let first_own = insts
            .iter()
            .position(|i| input.cenv.is_own(i))
            .unwrap_or(insts.len());
        metrics.add(
            CounterId::CoherenceInstancesChecked,
            (insts.len() - first_own) as u64,
        );
        for (i, a) in insts.iter().enumerate() {
            for b in &insts[first_own.max(i + 1)..] {
                metrics.incr(CounterId::CoherencePairsUnified);
                let (mut types, mut s) = (Interner::new(), Subst::new());
                let (ta, tb) = (types.intern(&a.head.ty), types.intern(&b.head.ty));
                if unify(&mut types, &mut s, ta, tb).is_err() {
                    continue;
                }
                let counterexample = s.apply_tree(&types, ta);
                report_overlap(em, class, a, b, &counterexample, input.user_start);
            }
        }
    }
}

fn report_overlap(
    em: &mut Emitter<'_>,
    class: &str,
    a: &Instance,
    b: &Instance,
    counterexample: &tc_types::Type,
    user_start: usize,
) {
    let a_pre = in_prelude(a.span, user_start);
    let b_pre = in_prelude(b.span, user_start);
    if a_pre && b_pre {
        // Both instances live in the prelude; nothing the user wrote
        // is at fault and nothing they can edit would fix it.
        return;
    }
    if a_pre != b_pre {
        // Exactly one side is the prelude's: the user duplicated a
        // stock instance. Instances register in declaration order and
        // resolution is first-match, so the prelude's dictionary wins
        // and the user's definition is silently dead.
        let (user, prelude) = if a_pre { (b, a) } else { (a, b) };
        em.report_with(
            Rule::OrphanInstance,
            user.span,
            format!(
                "instance `{}` duplicates a prelude instance of class `{class}`: \
                 both match the type `{counterexample}`",
                user.head
            ),
            vec![
                (
                    Some(prelude.span),
                    "the prelude instance is declared here".to_string(),
                ),
                (
                    None,
                    "resolution is first-match, so the prelude dictionary is \
                     used and this instance is never selected"
                        .to_string(),
                ),
            ],
        );
        return;
    }
    // Both user instances: a genuine overlap. Blame the later
    // declaration and point at the earlier one.
    em.report_with(
        Rule::OverlappingInstances,
        b.span,
        format!(
            "overlapping instances for class `{class}`: `{}` and `{}` both \
             match the counterexample type `{counterexample}`",
            a.head, b.head
        ),
        vec![
            (
                Some(a.span),
                "the first overlapping instance is declared here".to_string(),
            ),
            (
                None,
                format!(
                    "any goal `{}` resolves to whichever instance was declared \
                     first; the program's meaning depends on declaration order",
                    Pred::new(class, counterexample.clone(), Span::DUMMY)
                ),
            ),
        ],
    );
}

/// Report the superclass cycles the class-env build recorded (and
/// broke structurally so traversals terminate).
fn check_cycles(input: &CoherenceInput<'_>, em: &mut Emitter<'_>) {
    if !em.enabled(Rule::SuperclassCycle) {
        return;
    }
    for name in &input.cenv.cyclic_classes {
        let span = input.cenv.class(name).map_or(Span::DUMMY, |ci| ci.span);
        em.report_with(
            Rule::SuperclassCycle,
            span,
            format!("class `{name}` participates in a superclass cycle"),
            vec![(
                None,
                "the cycle was broken (its superclass constraints were \
                 dropped) so compilation could continue; dictionaries for \
                 these classes omit their superclass slots"
                    .to_string(),
            )],
        );
    }
}

/// Shared reporting surface: maps a rule's configured level onto a
/// severity, suppresses findings whose primary span is inside the
/// prelude, and tags every finding with the rule name.
pub(crate) struct Emitter<'a> {
    pub(crate) config: &'a CoherenceConfig,
    pub(crate) user_start: usize,
    pub(crate) diags: Diagnostics,
}

impl Emitter<'_> {
    /// Is the rule worth computing at all?
    pub(crate) fn enabled(&self, rule: Rule) -> bool {
        self.config.level(rule) != LintLevel::Allow
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
            Severity::Error => Diagnostic::error(Stage::Coherence, rule.code(), message, span),
            Severity::Warning => Diagnostic::warning(Stage::Coherence, rule.code(), message, span),
        };
        for (nspan, note) in notes {
            d = d.with_note(nspan, note);
        }
        d = d.with_note(None, format!("coherence rule `{}`", rule.name()));
        self.diags.push(d);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use tc_syntax::Program;
    use tc_types::VarGen;

    pub(crate) struct Built {
        pub program: Program,
        pub cenv: ClassEnv,
        pub gen: VarGen,
    }

    /// Lex, parse, and build the class env. Panics are fine (tests).
    pub(crate) fn build(src: &str) -> Built {
        let (toks, _) = tc_syntax::lex(src);
        let (program, _) = tc_syntax::parse_program(&toks, Default::default());
        let mut gen = VarGen::new();
        let (cenv, _) = tc_classes::build_class_env(&program, &mut gen);
        Built { program, cenv, gen }
    }

    /// Structural check of `src` at the given levels with no prelude.
    pub(crate) fn check_with(src: &str, cfg: &CoherenceConfig) -> Vec<Diagnostic> {
        let b = build(src);
        let mut metrics = MetricsRegistry::off();
        check_coherence(
            &CoherenceInput {
                cenv: &b.cenv,
                user_start: 0,
            },
            cfg,
            &mut metrics,
        )
        .into_vec()
    }

    pub(crate) fn check(src: &str) -> Vec<Diagnostic> {
        check_with(src, &CoherenceConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{build, check, check_with};

    const EQ: &str = "class Eq a where { eq :: a -> a -> Bool; };\n";

    #[test]
    fn rule_names_and_codes_are_stable_and_unique() {
        let mut codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Rule::ALL.len());
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
            assert!(r.code().starts_with('L'));
            assert!(!r.description().is_empty());
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
        // Structural incoherence denies by default; laws warn.
        assert_eq!(Rule::OverlappingInstances.default_level(), LintLevel::Deny);
        assert_eq!(Rule::OrphanInstance.default_level(), LintLevel::Deny);
        assert_eq!(Rule::SuperclassCycle.default_level(), LintLevel::Deny);
        assert_eq!(Rule::LawViolation.default_level(), LintLevel::Warn);
    }

    #[test]
    fn config_levels_and_overrides() {
        let mut cfg = CoherenceConfig::new();
        assert_eq!(cfg.level(Rule::OverlappingInstances), LintLevel::Deny);
        cfg.set(Rule::OverlappingInstances, LintLevel::Warn);
        assert_eq!(cfg.level(Rule::OverlappingInstances), LintLevel::Warn);
        assert!(cfg.set_by_name("law-violation", "deny"));
        assert_eq!(cfg.level(Rule::LawViolation), LintLevel::Deny);
        assert!(!cfg.set_by_name("nope", "warn"));
        assert!(!cfg.set_by_name("orphan-instance", "nope"));
        let allow = CoherenceConfig::all(LintLevel::Allow);
        for r in Rule::ALL {
            assert_eq!(allow.level(r), LintLevel::Allow);
        }
    }

    #[test]
    fn identical_heads_overlap_with_counterexample() {
        let src = format!(
            "{EQ}instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Eq Int where {{ eq = primEqInt; }};"
        );
        let d = check(&src);
        let overlap = d.iter().find(|d| d.code == "L0008").expect("L0008");
        assert!(
            overlap.message.contains("counterexample type `Int`"),
            "{}",
            overlap.message
        );
        assert_eq!(overlap.severity, Severity::Error);
        // Both spans appear: primary on the second, a note on the first.
        assert!(overlap.notes.iter().any(|(s, _)| s.is_some()));
    }

    #[test]
    fn generic_and_specific_heads_overlap_at_the_instantiation() {
        let src = format!(
            "{EQ}instance Eq a => Eq (List a) where {{ eq = \\x y -> True; }};\n\
             instance Eq (List Int) where {{ eq = \\x y -> True; }};"
        );
        let d = check(&src);
        let overlap = d.iter().find(|d| d.code == "L0008").expect("L0008");
        // mgu of `List a` and `List Int` is `List Int`.
        assert!(
            overlap.message.contains("`List Int`"),
            "{}",
            overlap.message
        );
    }

    #[test]
    fn disjoint_heads_do_not_overlap() {
        let src = format!(
            "{EQ}instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Eq Bool where {{ eq = primEqBool; }};\n\
             instance Eq a => Eq (List a) where {{ eq = \\x y -> True; }};"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn prelude_duplicate_is_an_orphan_not_an_overlap() {
        // Simulate a prelude by marking everything before the second
        // instance as non-user code.
        let prelude = format!("{EQ}instance Eq Int where {{ eq = primEqInt; }};\n");
        let src = format!("{prelude}instance Eq Int where {{ eq = \\x y -> True; }};");
        let b = build(&src);
        let mut metrics = MetricsRegistry::off();
        let d = check_coherence(
            &CoherenceInput {
                cenv: &b.cenv,
                user_start: prelude.len(),
            },
            &CoherenceConfig::default(),
            &mut metrics,
        )
        .into_vec();
        assert!(d.iter().any(|d| d.code == "L0009"), "{d:?}");
        assert!(d.iter().all(|d| d.code != "L0008"), "{d:?}");
    }

    #[test]
    fn superclass_cycle_reported() {
        let src = "class B a => A a where { fa :: a -> a; };\n\
                   class A a => B a where { fb :: a -> a; };";
        let d = check(src);
        let cycles: Vec<_> = d.iter().filter(|d| d.code == "L0010").collect();
        assert_eq!(cycles.len(), 2, "{d:?}");
        assert!(cycles.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn allow_silences_and_warn_downgrades() {
        let src = format!(
            "{EQ}instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Eq Int where {{ eq = primEqInt; }};"
        );
        let silent = check_with(&src, &CoherenceConfig::all(LintLevel::Allow));
        assert!(silent.is_empty());
        let warned = check_with(
            &src,
            &CoherenceConfig::default().with(Rule::OverlappingInstances, LintLevel::Warn),
        );
        assert!(warned
            .iter()
            .any(|d| d.code == "L0008" && d.severity == Severity::Warning));
    }

    #[test]
    fn metrics_count_instances_and_pairs() {
        let src = format!(
            "{EQ}instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Eq Bool where {{ eq = primEqBool; }};\n\
             instance Eq a => Eq (List a) where {{ eq = \\x y -> True; }};"
        );
        let b = build(&src);
        let mut metrics = MetricsRegistry::new();
        check_coherence(
            &CoherenceInput {
                cenv: &b.cenv,
                user_start: 0,
            },
            &CoherenceConfig::default(),
            &mut metrics,
        );
        assert_eq!(metrics.counter(CounterId::CoherenceInstancesChecked), 3);
        // 3 instances of one class -> C(3, 2) = 3 pairs.
        assert_eq!(metrics.counter(CounterId::CoherencePairsUnified), 3);
    }

    #[test]
    fn findings_name_their_rule_and_stage() {
        let src = format!(
            "{EQ}instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Eq Int where {{ eq = primEqInt; }};"
        );
        let d = check(&src);
        let overlap = d.iter().find(|d| d.code == "L0008").expect("fires");
        assert!(overlap
            .notes
            .iter()
            .any(|(_, n)| n.contains("overlapping-instances")));
        assert_eq!(overlap.stage, Stage::Coherence);
    }
}
