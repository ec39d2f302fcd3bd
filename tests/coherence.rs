//! End-to-end tests for the coherence checker and the class-law
//! harness:
//!
//! 1. **Property: overlap ⟺ unification.** Random pairs of instance
//!    heads over the surface type grammar (deterministic xorshift, no
//!    external crates): the pipeline reports `L0008` exactly when a
//!    reference first-order unifier — written independently here —
//!    finds a unifier for the two heads.
//! 2. **Differential: laws never change evaluation.** Every program in
//!    the corpus produces an identical outcome with `--check-laws` on
//!    and off at default (warn) levels.
//! 3. **Acceptance.** The overlap diagnostic names both spans and a
//!    rendered counterexample type; a law-violating `Eq` instance is
//!    reported with its failing sample; both rules respect allow/deny.
//! 4. **Linear overlap checking.** Instances of one class over distinct
//!    data types are never unified pairwise.

use std::collections::HashMap;

use typeclasses::coherence::Rule;
use typeclasses::{check_source, run_source, CounterId, LintLevel, Options, Outcome};

/// Deterministic xorshift64* PRNG (offline build: no proptest/rand).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A reference model of the surface type grammar usable in instance
/// heads: the three known constructors plus type variables and
/// function arrows (which may appear under `List`).
#[derive(Debug, Clone, PartialEq)]
enum Ty {
    Var(u32),
    Int,
    Bool,
    List(Box<Ty>),
    Fun(Box<Ty>, Box<Ty>),
}

/// A random instance head: always constructor-rooted (bare-variable
/// heads are rejected by the class-env build as E0312). `var_base`
/// keeps the two sides' variables disjoint, mirroring the pipeline's
/// per-instance freshening.
fn arbitrary_head(rng: &mut Rng, var_base: u32) -> Ty {
    match rng.below(4) {
        0 => Ty::Int,
        1 => Ty::Bool,
        _ => Ty::List(Box::new(arbitrary_ty(rng, 3, var_base))),
    }
}

fn arbitrary_ty(rng: &mut Rng, depth: usize, var_base: u32) -> Ty {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => Ty::Var(var_base),
            1 => Ty::Var(var_base + 1),
            2 => Ty::Int,
            _ => Ty::Bool,
        };
    }
    match rng.below(3) {
        0 => Ty::List(Box::new(arbitrary_ty(rng, depth - 1, var_base))),
        1 => Ty::Fun(
            Box::new(arbitrary_ty(rng, depth - 1, var_base)),
            Box::new(arbitrary_ty(rng, depth - 1, var_base)),
        ),
        _ => arbitrary_ty(rng, depth - 1, var_base),
    }
}

/// Surface syntax for `t`, parenthesized enough to re-parse in head
/// position (`atom` wraps applications and arrows).
fn render(t: &Ty, atom: bool) -> String {
    match t {
        Ty::Var(n) => format!("v{n}"),
        Ty::Int => "Int".into(),
        Ty::Bool => "Bool".into(),
        Ty::List(x) => {
            let s = format!("List {}", render(x, true));
            if atom {
                format!("({s})")
            } else {
                s
            }
        }
        Ty::Fun(a, b) => {
            let s = format!("{} -> {}", render(a, true), render(b, false));
            if atom {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

/// Reference first-order unification, written independently of the
/// pipeline's: walk-to-representative + occurs check.
fn walk(t: &Ty, s: &HashMap<u32, Ty>) -> Ty {
    let mut t = t.clone();
    while let Ty::Var(n) = t {
        match s.get(&n) {
            Some(next) => t = next.clone(),
            None => return Ty::Var(n),
        }
    }
    t
}

fn occurs(n: u32, t: &Ty, s: &HashMap<u32, Ty>) -> bool {
    match walk(t, s) {
        Ty::Var(m) => m == n,
        Ty::Int | Ty::Bool => false,
        Ty::List(x) => occurs(n, &x, s),
        Ty::Fun(a, b) => occurs(n, &a, s) || occurs(n, &b, s),
    }
}

fn unify(a: &Ty, b: &Ty, s: &mut HashMap<u32, Ty>) -> bool {
    let (a, b) = (walk(a, s), walk(b, s));
    match (a, b) {
        (Ty::Var(n), Ty::Var(m)) if n == m => true,
        (Ty::Var(n), t) | (t, Ty::Var(n)) => {
            if occurs(n, &t, s) {
                false
            } else {
                s.insert(n, t);
                true
            }
        }
        (Ty::Int, Ty::Int) | (Ty::Bool, Ty::Bool) => true,
        (Ty::List(x), Ty::List(y)) => unify(&x, &y, s),
        (Ty::Fun(a1, r1), Ty::Fun(a2, r2)) => unify(&a1, &a2, s) && unify(&r1, &r2, s),
        _ => false,
    }
}

#[test]
fn overlap_is_reported_iff_heads_unify() {
    let no_prelude = Options {
        use_prelude: false,
        ..Options::default()
    };
    let mut rng = Rng::new(0x1993_0715);
    let mut overlaps = 0u32;
    let mut disjoint = 0u32;
    for round in 0..200 {
        let a = arbitrary_head(&mut rng, 0);
        let b = arbitrary_head(&mut rng, 100);
        let src = format!(
            "class C a where {{ m :: a -> Int; }};\n\
             instance C {} where {{ m = \\x -> 0; }};\n\
             instance C {} where {{ m = \\x -> 1; }};",
            render(&a, true),
            render(&b, true),
        );
        let expected = unify(&a, &b, &mut HashMap::new());
        let check = check_source(&src, &no_prelude);
        let reported = check.diags.iter().any(|d| d.code == "L0008");
        assert_eq!(
            reported, expected,
            "round {round}: reference unifier says {expected}, pipeline says \
             {reported} for\n{src}\ndiags: {:?}",
            check.diags
        );
        if expected {
            overlaps += 1;
        } else {
            disjoint += 1;
        }
    }
    // The generator must exercise both sides of the property.
    assert!(overlaps >= 20, "too few overlapping pairs: {overlaps}");
    assert!(disjoint >= 20, "too few disjoint pairs: {disjoint}");
}

/// The differential corpus: the checked-in examples plus inline
/// programs with law-abiding and law-violating instances.
fn differential_programs() -> Vec<(String, String, bool)> {
    let mut progs: Vec<(String, String, bool)> = Vec::new();
    for entry in std::fs::read_dir("examples").expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "mh") {
            progs.push((
                path.display().to_string(),
                std::fs::read_to_string(&path).expect("example source"),
                true,
            ));
        }
    }
    assert!(progs.len() >= 3, "expected the three example programs");
    for (name, src, prelude) in [
        (
            "lawless-eq",
            "class Eq a where { eq :: a -> a -> Bool; };\n\
             instance Eq Int where { eq = primLeInt; };\n\
             main = eq 2 1;",
            false,
        ),
        (
            "lawful-eq",
            "class Eq a where { eq :: a -> a -> Bool; };\n\
             instance Eq Int where { eq = primEqInt; };\n\
             main = eq 2 2;",
            false,
        ),
        (
            "prelude-instances",
            "main = and (eq (cons 1 nil) (cons 1 nil)) (eq True True);",
            true,
        ),
        ("runtime-error", "main = head nil;", true),
        (
            "no-instance-error",
            "main = eq (\\x -> x) (\\y -> y);",
            true,
        ),
    ] {
        progs.push((name.into(), src.into(), prelude));
    }
    progs
}

#[test]
fn check_laws_never_changes_evaluation_output() {
    for (name, src, prelude) in differential_programs() {
        let base = Options {
            use_prelude: prelude,
            ..Options::default()
        };
        let with_laws = Options {
            check_laws: true,
            ..base.clone()
        };
        let plain = run_source(&src, &base);
        let lawful = run_source(&src, &with_laws);
        // Outcomes must be identical: same value, same error, same
        // classification. Law findings may only add warnings.
        assert_eq!(
            format!("{:?}", plain.outcome),
            format!("{:?}", lawful.outcome),
            "{name}: --check-laws changed the outcome"
        );
        let errors = |c: &typeclasses::Check| {
            c.diags
                .iter()
                .filter(|d| d.severity == typeclasses::syntax::Severity::Error)
                .count()
        };
        assert_eq!(
            errors(&plain.check),
            errors(&lawful.check),
            "{name}: --check-laws changed the error set"
        );
    }
}

#[test]
fn overlap_diagnostic_names_both_spans_and_a_counterexample() {
    let src = "class Sz a where { sz :: a -> Int; };\n\
               instance Sz (List a) where { sz = \\x -> 0; };\n\
               instance Sz (List Int) where { sz = \\x -> 1; };\n\
               main = sz (cons 1 nil);";
    let check = check_source(src, &Options::default());
    let overlap = check
        .diags
        .iter()
        .find(|d| d.code == "L0008")
        .unwrap_or_else(|| panic!("no L0008 in {:?}", check.diags));
    assert!(
        overlap.message.contains("counterexample type `List Int`"),
        "{}",
        overlap.message
    );
    // Primary span on one instance, a note span on the other — and
    // they differ, so the rendering names both declarations.
    let note_span = overlap
        .notes
        .iter()
        .find_map(|(s, _)| *s)
        .unwrap_or_else(|| panic!("no note span: {overlap:?}"));
    assert_ne!(overlap.span, note_span);
    assert!(!check.ok(), "L0008 denies by default");

    // Allowing the rule end-to-end lets the program run (first-match
    // resolution keeps evaluation deterministic).
    let mut relaxed = Options::default();
    relaxed
        .coherence_levels
        .set(Rule::OverlappingInstances, LintLevel::Allow);
    let r = run_source(src, &relaxed);
    assert!(
        matches!(r.outcome, Outcome::Value(ref v) if v == "0"),
        "{:?}",
        r.outcome
    );
}

#[test]
fn law_violation_cites_the_failing_sample_and_is_deniable() {
    let src = "class Eq a where { eq :: a -> a -> Bool; };\n\
               instance Eq Int where { eq = primLeInt; };\n\
               main = eq 1 2;";
    let opts = Options {
        use_prelude: false,
        check_laws: true,
        ..Options::default()
    };
    let r = run_source(src, &opts);
    let violation = r
        .check
        .diags
        .iter()
        .find(|d| d.code == "L0011")
        .unwrap_or_else(|| panic!("no L0011 in {:?}", r.check.diags));
    assert!(violation.message.contains("symmetry"), "{violation:?}");
    assert!(
        violation
            .notes
            .iter()
            .any(|(_, n)| n.contains("failing sample")),
        "{violation:?}"
    );
    // Warn by default: the program still evaluates.
    assert!(matches!(r.outcome, Outcome::Value(ref v) if v == "True"));

    // Deny escalates the violation to a compile rejection.
    let mut strict = opts.clone();
    strict
        .coherence_levels
        .set(Rule::LawViolation, LintLevel::Deny);
    let denied = run_source(src, &strict);
    assert!(matches!(denied.outcome, Outcome::CompileErrors));
    assert!(!denied.check.ok());
}

/// Overlap checking unifies only heads with the same outermost type
/// constructor, so `n` instances of one class over `n` distinct data
/// types unify at most `n` pairs — not every pair, `n(n-1)/2`.
#[test]
fn instances_over_distinct_types_are_not_unified_pairwise() {
    for n in [100u64, 400] {
        let mut src = String::from("class Sz a where { sz :: a -> Int; };\n");
        for i in 0..n {
            src.push_str(&format!(
                "data T{i} = C{i};\ninstance Sz T{i} where {{ sz = \\x -> {i}; }};\n"
            ));
        }
        src.push_str("main = sz C0;\n");
        let opts = Options {
            collect_metrics: true,
            ..Options::default()
        };
        let c = check_source(&src, &opts);
        assert!(c.ok(), "{}", c.render_diagnostics());
        let m = &c.stats.metrics;
        assert_eq!(m.counter(CounterId::CoherenceInstancesChecked), n);
        let pairs = m.counter(CounterId::CoherencePairsUnified);
        assert!(pairs <= n, "{n} instances: {pairs} pairs unified");
    }
}

/// Heads whose unifier doubles as a tree with every pair of
/// arguments: `T x1 x1 … xn xn` against `T (P y0 y0) y1 (P y1 y1) y2 …
/// (P y(n-1) y(n-1)) yn`. They unify, so they overlap however large the
/// counterexample; past the size a type may be shown it is elided.
#[test]
fn heads_with_an_exponentially_large_unifier_still_overlap() {
    for pairs in [15usize, 25] {
        let params: Vec<String> = (0..2 * pairs).map(|i| format!("a{i}")).collect();
        let first: Vec<String> = (1..=pairs).map(|k| format!("x{k} x{k}")).collect();
        let second: Vec<String> = (0..pairs)
            .map(|k| format!("(P y{k} y{k}) y{}", k + 1))
            .collect();
        let src = format!(
            "data P a b = MkP; data T {} = MkT; class C a where {{ c :: a -> Int; }};\n\
             instance C (T {}) where {{ c = \\x -> 1; }};\n\
             instance C (T {}) where {{ c = \\x -> 2; }};\n\
             main = 1;\n",
            params.join(" "),
            first.join(" "),
            second.join(" ")
        );
        let check = check_source(&src, &Options::default());
        let overlap = check
            .diags
            .iter()
            .find(|d| d.code == "L0008")
            .unwrap_or_else(|| panic!("{pairs} pairs: no L0008 in {:?}", check.diags));
        assert!(
            overlap.message.contains("counterexample type `…`"),
            "{pairs} pairs: {}",
            overlap.message
        );
        assert!(!check.ok(), "L0008 denies by default");
    }
}
