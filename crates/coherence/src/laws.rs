//! Evaluator-backed class-law checking.
//!
//! Coherence says instance selection is unambiguous; it says nothing
//! about whether the selected dictionary *behaves*. An `Eq` instance
//! whose `eq` is not symmetric type-checks fine and silently breaks
//! every abstraction built on it (`member`, dedup, ordering). This
//! module checks the algebraic laws mechanically: for each `Eq`/`Ord`
//! instance in scope it
//!
//! 1. **grounds** the instance head (free type variables instantiated
//!    at `Int`, so `Eq (List a)` is checked at `List Int`),
//! 2. **enumerates** small sample values of that type (`0`/`1`/`2`,
//!    `True`/`False`, lists up to length 2),
//! 3. **generates** one surface binding per law instance —
//!    reflexivity `eq x x`, symmetry `eq x y ==> eq y x`,
//!    transitivity over sample triples, `Ord` totality and
//!    antisymmetry — each shaped so it evaluates to `True` when the
//!    law holds and `False` on a counterexample (implications encoded
//!    as `if p then q else True`),
//! 4. **elaborates** the extended program through the ordinary
//!    dictionary conversion — laws exercise the very dictionaries the
//!    program would run with, reusing the session's warm
//!    [`tc_classes::ResolveCache`] so resolution is O(1) per goal — and
//! 5. **runs** each law under a small evaluation budget, reporting
//!    every `False` as `L0011` with the failing sample.
//!
//! Law bindings are named `$law0`, `$law1`, …; `$` cannot appear in
//! surface identifiers, so the names can never collide with user
//! code. A law whose elaboration or evaluation fails (missing
//! instance, budget exhausted, cancelled) is skipped, not reported —
//! the harness only claims violations it actually witnessed.

use crate::{CoherenceConfig, Emitter, Rule};
use std::collections::HashMap;
use std::rc::Rc;
use tc_classes::{ClassEnv, DataEnv, Instance, ReduceBudget};
use tc_core::{ElabBase, ElabOptions, WarmCache};
use tc_eval::{Budget, EvalOptions, LoweredProgram};
use tc_syntax::{Binding, Diagnostics, Expr, Program, Span};
use tc_trace::{CancelToken, CounterId, MetricsRegistry};
use tc_types::{Pred, TyVar, Type, VarGen};

/// Everything one law-checking run looks at.
pub struct LawInput<'a> {
    /// Surface AST of the program; law bindings are appended to a clone
    /// of it.
    pub program: &'a Program,
    /// Validated class/instance environment.
    pub cenv: &'a ClassEnv,
    /// Byte offset where user code begins; violations blamed on
    /// prelude instances are suppressed.
    pub user_start: usize,
    /// What `program` was elaborated over: the prelude snapshot, or
    /// [`ElabBase::builtins`]. The law programs are elaborated over it
    /// and evaluated over its core.
    pub base: &'a ElabBase,
}

/// Resource limits for one law-checking run.
#[derive(Debug, Clone)]
pub struct LawOptions {
    /// Evaluation budget per law program. Laws are tiny (a handful of
    /// applications over enumerated samples), so the default is the
    /// evaluator's small budget, not the full one.
    pub eval_budget: Budget,
    /// Resolution budget for elaborating the law bindings.
    pub reduce: ReduceBudget,
    /// Cooperative cancellation, polled between laws and inside both
    /// elaboration and evaluation — a serve deadline stops the
    /// harness mid-run.
    pub cancel: Option<CancelToken>,
    /// Resolve-cache capacity cap, threaded through so a degraded
    /// serve session's shrunken cache stays shrunken.
    pub cache_capacity: Option<usize>,
}

impl Default for LawOptions {
    fn default() -> Self {
        LawOptions {
            eval_budget: Budget::small(),
            reduce: ReduceBudget::default(),
            cancel: None,
            cache_capacity: None,
        }
    }
}

/// One generated law program awaiting evaluation.
struct LawCase {
    /// Name of the `$lawN` binding holding the law expression.
    entry: String,
    /// Law name (`reflexivity`, `symmetry`, …).
    law: &'static str,
    /// Class whose law this is (`Eq` / `Ord`).
    class: &'static str,
    /// Rendered law program, e.g. `if eq 0 1 then eq 1 0 else True`.
    text: String,
    /// Rendered sample assignment, e.g. `x = 0, y = 1`.
    sample: String,
    /// Rendered instance head (`Eq (List Int)`).
    head: String,
    /// Span of the instance declaration under test.
    span: Span,
}

/// A sample value of some ground type: the expression plus its
/// rendering for diagnostics.
#[derive(Clone)]
struct Sample {
    expr: Expr,
    text: String,
}

impl Sample {
    /// The rendering, parenthesized when it would not parse as an
    /// application argument.
    fn atom(&self) -> String {
        if self.text.contains(' ') {
            format!("({})", self.text)
        } else {
            self.text.clone()
        }
    }
}

/// Generate, elaborate, and evaluate the class-law programs for every
/// `Eq`/`Ord` instance in `input.cenv`, reporting violations as
/// `L0011`. `cache` holds the resolve cache, with its type store, of
/// the session's main elaboration ([`tc_core::Elaboration::cache`]):
/// its tabled derivations answer the law programs' goals in O(1), and
/// the law programs are elaborated into the same store, which goes back
/// into `cache` afterwards, so the session's schemes can still be read
/// from it. When the session ran without memoization the cache arrives
/// disabled and is explicitly re-enabled — the harness always tables,
/// since every law of one instance resolves the same dictionary.
pub fn check_laws(
    input: &LawInput<'_>,
    config: &CoherenceConfig,
    opts: &LawOptions,
    cache: &mut Option<WarmCache>,
    gen: &mut VarGen,
    metrics: &mut MetricsRegistry,
) -> Diagnostics {
    let mut em = Emitter {
        config,
        user_start: input.user_start,
        diags: Diagnostics::new(),
    };
    if !em.enabled(Rule::LawViolation) {
        return em.diags;
    }

    let (bindings, cases) = generate_cases(input);
    if cases.is_empty() {
        return em.diags;
    }

    let mut prog = input.program.clone();
    prog.bindings.extend(bindings);

    let mut seed = cache.take().unwrap_or_default();
    seed.cache.enabled = true;
    let eopts = ElabOptions {
        budget: opts.reduce,
        cancel: opts.cancel.clone(),
        cache_capacity: opts.cache_capacity,
        ..ElabOptions::default()
    };
    // Law-specific elaboration diagnostics are dropped: a law that
    // fails to elaborate (e.g. a missing superclass instance, already
    // reported by the main pipeline) leaves a `Fail` node whose
    // evaluation errors, and errored laws are skipped below.
    let (mut elab, _) =
        tc_core::elaborate_over(&prog, input.cenv, input.base, gen, eopts, Some(seed));
    *cache = elab.cache.take();

    let run_opts = EvalOptions {
        budget: opts.eval_budget,
        profile: false,
        cancel: opts.cancel.clone(),
        ..EvalOptions::default()
    };
    // Lower the elaborated program once; each case still evaluates in
    // its own hermetic evaluator (fresh budget, cache, arena).
    let lowered = match &input.base.core {
        Some(base) => {
            let base = Rc::new(LoweredProgram::closed(&base.core));
            LoweredProgram::over(base, &elab.core.binds)
        }
        None => LoweredProgram::new(&elab.core),
    };
    for case in &cases {
        if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            break;
        }
        let run = tc_eval::run_lowered_with(&lowered, &case.entry, &run_opts);
        metrics.incr(CounterId::CoherenceLawsRun);
        if run.result.as_deref() == Ok("False") {
            metrics.incr(CounterId::CoherenceLawsFailed);
            em.report_with(
                Rule::LawViolation,
                case.span,
                format!(
                    "instance `{}` violates the {} law of class `{}`: \
                     `{}` evaluated to `False`",
                    case.head, case.law, case.class, case.text
                ),
                vec![(None, format!("failing sample: {}", case.sample))],
            );
        }
    }
    em.diags
}

/// Build the law bindings and their descriptions for every checkable
/// instance.
fn generate_cases(input: &LawInput<'_>) -> (Vec<Binding>, Vec<LawCase>) {
    let mut bindings = Vec::new();
    let mut cases = Vec::new();
    let mut gen = CaseGen {
        next: 0,
        bindings: &mut bindings,
        cases: &mut cases,
    };
    let has_eq = method_of(input.cenv, "Eq", "eq");
    let has_lte = method_of(input.cenv, "Ord", "lte");

    if has_eq {
        for inst in checkable_instances(input, "Eq") {
            let (head, span, samples) = (inst.0, inst.1, inst.2);
            for x in &samples {
                gen.push(
                    "reflexivity",
                    "Eq",
                    app2("eq", x, x),
                    format!("eq {} {}", x.atom(), x.atom()),
                    format!("x = {}", x.text),
                    &head,
                    span,
                );
            }
            for (i, x) in samples.iter().enumerate() {
                for (j, y) in samples.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    gen.push(
                        "symmetry",
                        "Eq",
                        implies(app2("eq", x, y), app2("eq", y, x)),
                        format!(
                            "if eq {} {} then eq {} {} else True",
                            x.atom(),
                            y.atom(),
                            y.atom(),
                            x.atom()
                        ),
                        format!("x = {}, y = {}", x.text, y.text),
                        &head,
                        span,
                    );
                }
            }
            for x in &samples {
                for y in &samples {
                    for z in &samples {
                        gen.push(
                            "transitivity",
                            "Eq",
                            implies(
                                app2("eq", x, y),
                                implies(app2("eq", y, z), app2("eq", x, z)),
                            ),
                            format!(
                                "eq {} {} and eq {} {} imply eq {} {}",
                                x.atom(),
                                y.atom(),
                                y.atom(),
                                z.atom(),
                                x.atom(),
                                z.atom()
                            ),
                            format!("x = {}, y = {}, z = {}", x.text, y.text, z.text),
                            &head,
                            span,
                        );
                    }
                }
            }
        }
    }

    if has_lte {
        for inst in checkable_instances(input, "Ord") {
            let (head, span, samples) = (inst.0, inst.1, inst.2);
            for x in &samples {
                for y in &samples {
                    gen.push(
                        "totality",
                        "Ord",
                        Expr::If(
                            Box::new(app2("lte", x, y)),
                            Box::new(con("True")),
                            Box::new(app2("lte", y, x)),
                            Span::DUMMY,
                        ),
                        format!(
                            "lte {} {} or lte {} {}",
                            x.atom(),
                            y.atom(),
                            y.atom(),
                            x.atom()
                        ),
                        format!("x = {}, y = {}", x.text, y.text),
                        &head,
                        span,
                    );
                    if has_eq {
                        gen.push(
                            "antisymmetry",
                            "Ord",
                            implies(
                                app2("lte", x, y),
                                implies(app2("lte", y, x), app2("eq", x, y)),
                            ),
                            format!(
                                "lte {} {} and lte {} {} imply eq {} {}",
                                x.atom(),
                                y.atom(),
                                y.atom(),
                                x.atom(),
                                x.atom(),
                                y.atom()
                            ),
                            format!("x = {}, y = {}", x.text, y.text),
                            &head,
                            span,
                        );
                    }
                }
            }
        }
    }
    (bindings, cases)
}

struct CaseGen<'a> {
    next: usize,
    bindings: &'a mut Vec<Binding>,
    cases: &'a mut Vec<LawCase>,
}

impl CaseGen<'_> {
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        law: &'static str,
        class: &'static str,
        expr: Expr,
        text: String,
        sample: String,
        head: &str,
        span: Span,
    ) {
        let entry = format!("$law{}", self.next);
        self.next += 1;
        self.bindings.push(Binding {
            name: entry.clone(),
            expr,
            span: Span::DUMMY,
        });
        self.cases.push(LawCase {
            entry,
            law,
            class,
            text,
            sample,
            head: head.to_string(),
            span,
        });
    }
}

/// Does `class` exist and own the method `method`? Guards against a
/// user program redefining `Eq` with a different shape.
fn method_of(cenv: &ClassEnv, class: &str, method: &str) -> bool {
    cenv.method(method).is_some_and(|(ci, _)| ci.name == class)
}

/// The instances of `class` worth law-checking: those whose grounded
/// head has enumerable samples AND which first-match resolution would
/// actually select at that type. A shadowed duplicate (already
/// reported as `L0008`/`L0009`) is skipped — its dictionary is never
/// the one a method call uses, so a law run would silently test the
/// *other* instance and misattribute the result.
fn checkable_instances(input: &LawInput<'_>, class: &str) -> Vec<(String, Span, Vec<Sample>)> {
    let mut out = Vec::new();
    for inst in input.cenv.instances_of(class) {
        // A violation on a base instance blames code the user can't
        // edit, so don't spend elaboration and evaluation on it.
        if !input.cenv.is_own(inst) {
            continue;
        }
        let ty = ground(&inst.head.ty);
        let samples = samples_for(&ty, 0, &input.cenv.datas);
        if samples.is_empty() {
            continue;
        }
        let goal = Pred::new(inst.head.class.clone(), ty.clone(), Span::DUMMY);
        let selected = input
            .cenv
            .matching_instance(&goal)
            .is_some_and(|chosen| chosen.id == inst.id);
        if !selected {
            continue;
        }
        out.push((render_head(inst, &ty), inst.span, samples));
    }
    out
}

/// `Eq (List Int)` — the instance head at its grounded type.
fn render_head(inst: &Instance, ground_ty: &Type) -> String {
    Pred::new(inst.head.class.clone(), ground_ty.clone(), Span::DUMMY).to_string()
}

/// Instantiate every type variable at `Int`, the sample-richest ground
/// type: `Eq (List a)` is checked at `List Int`.
fn ground(ty: &Type) -> Type {
    match ty {
        Type::Var(_) => Type::int(),
        Type::Con(c) => Type::Con(c.clone()),
        Type::App(a, b) => Type::App(Box::new(ground(a)), Box::new(ground(b))),
        Type::Fun(a, b) => Type::Fun(Box::new(ground(a)), Box::new(ground(b))),
    }
}

/// How deep sample construction may nest data constructors. Depth 2
/// is enough to distinguish `S Z` from `S (S Z)` while keeping the
/// law count per instance small (at most 3 samples per type).
const SAMPLE_DEPTH_LIMIT: usize = 2;

/// Enumerate small sample values of a ground type. Types we cannot
/// enumerate (functions, unknown constructors) yield no samples and
/// the instance is skipped. Lists recurse one level (element samples)
/// and build values with the builtin `nil`/`cons`; user-defined data
/// types build depth-bounded constructor applications from the
/// [`DataEnv`].
fn samples_for(ty: &Type, depth: usize, datas: &DataEnv) -> Vec<Sample> {
    match ty {
        Type::Con(c) if c == "Int" => [0i64, 1, 2]
            .iter()
            .map(|&n| Sample {
                expr: Expr::IntLit(n, Span::DUMMY),
                text: n.to_string(),
            })
            .collect(),
        Type::Con(c) if c == "Bool" => ["True", "False"]
            .iter()
            .map(|&n| Sample {
                expr: con(n),
                text: n.to_string(),
            })
            .collect(),
        Type::App(f, elem) if **f == Type::Con("List".into()) && depth == 0 => {
            let elems = samples_for(elem, depth + 1, datas);
            if elems.is_empty() {
                return Vec::new();
            }
            let e0 = &elems[0];
            let e1 = elems.get(1).unwrap_or(e0);
            let nil = Sample {
                expr: var("nil"),
                text: "nil".to_string(),
            };
            let one = Sample {
                expr: cons_expr(e0, &nil),
                text: format!("cons {} nil", e0.atom()),
            };
            let two = Sample {
                expr: cons_expr(e1, &one),
                text: format!("cons {} ({})", e1.atom(), one.text),
            };
            vec![nil, one, two]
        }
        _ => data_samples(ty, depth, datas),
    }
}

/// `Pair Int Bool` → `("Pair", [Int, Bool])` — the constructor spine
/// of an applied type, or `None` for functions and variables.
fn type_spine(ty: &Type) -> Option<(&str, Vec<&Type>)> {
    let mut args = Vec::new();
    let mut t = ty;
    loop {
        match t {
            Type::Con(c) => {
                args.reverse();
                return Some((c, args));
            }
            Type::App(f, a) => {
                args.push(a.as_ref());
                t = f;
            }
            _ => return None,
        }
    }
}

/// Depth-bounded sample values of a user-defined data type: up to 3
/// constructor applications, walking constructors in declaration (tag)
/// order and instantiating field types at the type's ground arguments.
/// Recursive fields re-enter [`samples_for`] one level deeper, so
/// `data Nat = Z | S Nat` yields `Z`, `S Z`, `S (S Z)` and always
/// terminates. A constructor whose fields cannot be sampled (function
/// field, recursion past the depth limit) is skipped.
fn data_samples(ty: &Type, depth: usize, datas: &DataEnv) -> Vec<Sample> {
    if depth > SAMPLE_DEPTH_LIMIT {
        return Vec::new();
    }
    let Some((head, args)) = type_spine(ty) else {
        return Vec::new();
    };
    let Some(info) = datas.data(head) else {
        return Vec::new();
    };
    if info.builtin || info.arity != args.len() {
        return Vec::new();
    }
    let mut out: Vec<Sample> = Vec::new();
    for cname in &info.constructors {
        if out.len() >= 3 {
            break;
        }
        let Some(ci) = datas.con(cname) else {
            continue;
        };
        if ci.arity == 0 {
            out.push(Sample {
                expr: con(cname),
                text: cname.clone(),
            });
            continue;
        }
        // Instantiate the constructor's field types at this type's
        // ground arguments.
        let args: HashMap<TyVar, Type> = ci
            .scheme
            .vars
            .iter()
            .zip(&args)
            .map(|(&v, &a)| (v, a.clone()))
            .collect();
        let mut field_tys = Vec::with_capacity(ci.arity);
        let mut t = &ci.scheme.qual.head;
        for _ in 0..ci.arity {
            match t {
                Type::Fun(a, b) => {
                    field_tys.push(a.substitute(&args));
                    t = b;
                }
                _ => return Vec::new(),
            }
        }
        let field_samples: Vec<Vec<Sample>> = field_tys
            .iter()
            .map(|ft| samples_for(ft, depth + 1, datas))
            .collect();
        if field_samples.iter().any(Vec::is_empty) {
            continue;
        }
        // Up to two variants per constructor: each field's first
        // sample, then each field's second (where one exists) so
        // single-constructor types still get distinct samples.
        for k in 0..2usize {
            if out.len() >= 3 {
                break;
            }
            let picks: Vec<&Sample> = field_samples
                .iter()
                .map(|fs| fs.get(k).unwrap_or(&fs[0]))
                .collect();
            let mut expr = con(cname);
            let mut text = cname.clone();
            for p in &picks {
                expr = app(expr, p.expr.clone());
                text.push(' ');
                text.push_str(&p.atom());
            }
            if k == 1 && out.last().is_some_and(|s| s.text == text) {
                break;
            }
            out.push(Sample { expr, text });
        }
    }
    out
}

fn var(name: &str) -> Expr {
    Expr::Var(name.to_string(), Span::DUMMY)
}

fn con(name: &str) -> Expr {
    Expr::Con(name.to_string(), Span::DUMMY)
}

fn app(f: Expr, x: Expr) -> Expr {
    Expr::App(Box::new(f), Box::new(x), Span::DUMMY)
}

/// `method x y` over two samples.
fn app2(method: &str, x: &Sample, y: &Sample) -> Expr {
    app(app(var(method), x.expr.clone()), y.expr.clone())
}

/// Logical implication as a law program: `if p then q else True` —
/// `True` when the premise fails, `q`'s verdict when it holds.
fn implies(p: Expr, q: Expr) -> Expr {
    Expr::If(Box::new(p), Box::new(q), Box::new(con("True")), Span::DUMMY)
}

/// `cons head tail` from samples.
fn cons_expr(head: &Sample, tail: &Sample) -> Expr {
    app(app(var("cons"), head.expr.clone()), tail.expr.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::build;
    use tc_syntax::Severity;

    /// Law-check `src` (no prelude) at default levels.
    fn laws(src: &str) -> Vec<tc_syntax::Diagnostic> {
        laws_with(src, &CoherenceConfig::default())
    }

    fn laws_with(src: &str, cfg: &CoherenceConfig) -> Vec<tc_syntax::Diagnostic> {
        let mut b = build(src);
        let mut metrics = MetricsRegistry::off();
        check_laws(
            &LawInput {
                program: &b.program,
                cenv: &b.cenv,
                user_start: 0,
                base: ElabBase::builtins(),
            },
            cfg,
            &LawOptions::default(),
            &mut None,
            &mut b.gen,
            &mut metrics,
        )
        .into_vec()
    }

    const EQ: &str = "class Eq a where { eq :: a -> a -> Bool; };\n";

    #[test]
    fn lawful_instance_is_clean() {
        let src = format!("{EQ}instance Eq Int where {{ eq = primEqInt; }};");
        assert!(laws(&src).is_empty(), "{:?}", laws(&src));
    }

    #[test]
    fn constant_false_eq_fails_reflexivity() {
        let src = format!("{EQ}instance Eq Int where {{ eq = \\x y -> False; }};");
        let d = laws(&src);
        let v = d.iter().find(|d| d.code == "L0011").expect("L0011");
        assert!(v.message.contains("reflexivity"), "{}", v.message);
        assert!(
            v.notes.iter().any(|(_, n)| n.contains("failing sample")),
            "{:?}",
            v.notes
        );
        assert_eq!(v.severity, Severity::Warning);
    }

    #[test]
    fn non_symmetric_eq_fails_symmetry_with_sample() {
        // `eq = lte`: reflexive, but 0 `eq` 1 without 1 `eq` 0.
        let src = format!("{EQ}instance Eq Int where {{ eq = primLeInt; }};");
        let d = laws(&src);
        let v = d
            .iter()
            .find(|d| d.code == "L0011" && d.message.contains("symmetry"))
            .expect("symmetry violation");
        assert!(
            v.notes
                .iter()
                .any(|(_, n)| n.contains("x = ") && n.contains("y = ")),
            "{:?}",
            v.notes
        );
        // Reflexivity holds for <=, so no reflexivity finding.
        assert!(
            d.iter().all(|d| !d.message.contains("reflexivity")),
            "{d:?}"
        );
    }

    #[test]
    fn list_instance_checked_at_ground_element_type() {
        let src = format!(
            "{EQ}instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Eq a => Eq (List a) where {{ eq = \\x y -> False; }};"
        );
        let d = laws(&src);
        let v = d
            .iter()
            .find(|d| d.code == "L0011" && d.message.contains("List Int"))
            .expect("list law violation");
        assert!(v.message.contains("reflexivity"), "{}", v.message);
    }

    #[test]
    fn ord_totality_and_antisymmetry() {
        let src = format!(
            "{EQ}class Eq a => Ord a where {{ lte :: a -> a -> Bool; }};\n\
             instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Ord Int where {{ lte = \\x y -> False; }};"
        );
        let d = laws(&src);
        assert!(
            d.iter()
                .any(|d| d.code == "L0011" && d.message.contains("totality")),
            "{d:?}"
        );
        let lawful = format!(
            "{EQ}class Eq a => Ord a where {{ lte :: a -> a -> Bool; }};\n\
             instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Ord Int where {{ lte = primLeInt; }};"
        );
        assert!(laws(&lawful).is_empty(), "{:?}", laws(&lawful));
    }

    #[test]
    fn allow_skips_all_law_work() {
        let src = format!("{EQ}instance Eq Int where {{ eq = \\x y -> False; }};");
        let d = laws_with(&src, &CoherenceConfig::all(tc_syntax::LintLevel::Allow));
        assert!(d.is_empty());
    }

    #[test]
    fn deny_escalates_to_error() {
        let src = format!("{EQ}instance Eq Int where {{ eq = \\x y -> False; }};");
        let d = laws_with(
            &src,
            &CoherenceConfig::default().with(Rule::LawViolation, tc_syntax::LintLevel::Deny),
        );
        assert!(d
            .iter()
            .any(|d| d.code == "L0011" && d.severity == Severity::Error));
    }

    #[test]
    fn metrics_count_runs_and_failures() {
        let src = format!("{EQ}instance Eq Int where {{ eq = \\x y -> False; }};");
        let mut b = build(&src);
        let mut metrics = MetricsRegistry::new();
        check_laws(
            &LawInput {
                program: &b.program,
                cenv: &b.cenv,
                user_start: 0,
                base: ElabBase::builtins(),
            },
            &CoherenceConfig::default(),
            &LawOptions::default(),
            &mut None,
            &mut b.gen,
            &mut metrics,
        );
        // 3 Int samples: 3 reflexivity + 6 symmetry + 27 transitivity.
        assert_eq!(metrics.counter(CounterId::CoherenceLawsRun), 36);
        // Constant-False eq fails reflexivity and nothing else (every
        // implication's premise is False, so it holds vacuously).
        assert_eq!(metrics.counter(CounterId::CoherenceLawsFailed), 3);
    }

    #[test]
    fn derived_instances_on_data_types_are_law_checked_clean() {
        let src = format!(
            "{EQ}class Eq a => Ord a where {{ lte :: a -> a -> Bool; }};\n\
             instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Ord Int where {{ lte = primLeInt; }};\n\
             data Color = Red | Green | Blue deriving (Eq, Ord);\n\
             data Pair a b = MkPair a b deriving (Eq, Ord);\n\
             data Nat = Z | S Nat deriving (Eq, Ord);"
        );
        assert!(laws(&src).is_empty(), "{:?}", laws(&src));
    }

    #[test]
    fn broken_handwritten_instance_on_data_type_is_caught() {
        // `eq` that always answers False fails reflexivity at `Red`.
        let src = format!(
            "{EQ}data Color = Red | Green | Blue;\n\
             instance Eq Color where {{ eq = \\x y -> False; }};"
        );
        let d = laws(&src);
        let v = d
            .iter()
            .find(|d| d.code == "L0011" && d.message.contains("Color"))
            .expect("law violation on Color");
        assert!(v.message.contains("reflexivity"), "{}", v.message);
        assert!(
            v.notes.iter().any(|(_, n)| n.contains("Red")),
            "failing sample should cite a constructor: {:?}",
            v.notes
        );
    }

    #[test]
    fn recursive_data_type_samples_are_depth_bounded() {
        // A lawful Nat instance: sampling must terminate and be clean.
        let src = format!(
            "{EQ}data Nat = Z | S Nat deriving (Eq);\n\
             instance Eq Int where {{ eq = primEqInt; }};"
        );
        assert!(laws(&src).is_empty(), "{:?}", laws(&src));
    }

    #[test]
    fn shadowed_duplicate_instance_is_not_law_checked() {
        // The second Eq Int is never selected by first-match
        // resolution; its broken eq must not produce law findings
        // (the overlap itself is L0008, reported by check_coherence).
        let src = format!(
            "{EQ}instance Eq Int where {{ eq = primEqInt; }};\n\
             instance Eq Int where {{ eq = \\x y -> False; }};"
        );
        assert!(laws(&src).is_empty(), "{:?}", laws(&src));
    }
}
