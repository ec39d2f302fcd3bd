//! `L0006` / `L0012` — `case`-analysis lints over the surface AST.
//!
//! * **Unreachable arm** (`L0006`, shared with the core-level `if`
//!   check): a `case` alternative that can never be selected — it
//!   follows an irrefutable (variable or `_`) arm, repeats a
//!   constructor a preceding arm already matches, or follows arms
//!   that together cover every constructor of the scrutinee's type.
//! * **Non-exhaustive match** (`L0012`): a `case` with no irrefutable
//!   arm whose constructor arms do not cover the whole data type. The
//!   evaluator turns the uncovered value into a structured
//!   `match-failure`, so this is the "you will crash at runtime" lint.
//!
//! Constructor coverage comes from the [`tc_classes::DataEnv`], which
//! registers builtins (`Bool`, `List`) alongside user `data`
//! declarations — `case b of { True -> ... }` is reported as missing
//! `False` through exactly the same path as a user enum. Arms whose
//! constructor is unknown (already an `E0404` upstream) disable the
//! exhaustiveness check for that `case`; the lint only reports what it
//! can prove.

use crate::{Emitter, LintInput, Rule};
use tc_syntax::{CaseArm, Expr, Pattern};

pub(crate) fn check(input: &LintInput<'_>, em: &mut Emitter<'_>) {
    if !em.enabled(Rule::UnreachableArm) && !em.enabled(Rule::NonExhaustiveMatch) {
        return;
    }
    let mut stack = Vec::new();
    for b in &input.program.bindings {
        walk(&b.expr, &mut stack, input, em);
    }
    for inst in &input.program.instances {
        for m in &inst.methods {
            walk(&m.expr, &mut stack, input, em);
        }
    }
}

/// Iterative expression walk over the work list `stack`; every `case`
/// found is analyzed in place.
fn walk<'a>(e: &'a Expr, stack: &mut Vec<&'a Expr>, input: &LintInput<'_>, em: &mut Emitter<'_>) {
    stack.push(e);
    while let Some(x) = stack.pop() {
        match x {
            Expr::Var(..) | Expr::Con(..) | Expr::IntLit(..) | Expr::Hole(..) => {}
            Expr::App(f, a, _) => {
                stack.push(f);
                stack.push(a);
            }
            Expr::Lam(_, body, _) => stack.push(body),
            Expr::Let(binds, body, _) => {
                stack.push(body);
                for b in binds {
                    stack.push(&b.expr);
                }
            }
            Expr::If(c, t, f, _) => {
                stack.push(c);
                stack.push(t);
                stack.push(f);
            }
            Expr::Case(scrut, arms, span) => {
                stack.push(scrut);
                for arm in arms {
                    stack.push(&arm.body);
                }
                check_case(arms, *span, input, em);
            }
        }
    }
}

fn check_case(
    arms: &[CaseArm],
    span: tc_syntax::Span,
    input: &LintInput<'_>,
    em: &mut Emitter<'_>,
) {
    let datas = &input.cenv.datas;
    // The scrutinee's data type, as witnessed by the first resolvable
    // constructor arm. (The elaborator has already unified every arm
    // against the scrutinee, so the first one is as good as any.)
    let data_name: Option<&str> = arms.iter().find_map(|a| match &a.pattern {
        Pattern::Con { name, .. } => datas.con(name).map(|ci| ci.data_name.as_str()),
        Pattern::Var(..) => None,
    });
    let total = data_name.map(|d| datas.constructors_of(d).count());

    let mut covered: Vec<&str> = Vec::new();
    let mut irrefutable = false;
    let mut unknown_con = false;
    for arm in arms {
        if irrefutable {
            em.report(
                Rule::UnreachableArm,
                arm.span,
                "unreachable `case` arm: a preceding pattern matches every value".to_string(),
            );
            continue;
        }
        match &arm.pattern {
            Pattern::Var(..) => {
                if total.is_some_and(|t| covered.len() >= t) {
                    em.report(
                        Rule::UnreachableArm,
                        arm.span,
                        "unreachable `case` arm: the preceding arms already cover \
                         every constructor"
                            .to_string(),
                    );
                }
                irrefutable = true;
            }
            Pattern::Con { name, .. } => {
                if covered.iter().any(|c| c == name) {
                    em.report(
                        Rule::UnreachableArm,
                        arm.span,
                        format!(
                            "unreachable `case` arm: constructor `{name}` is already \
                             matched by a preceding arm"
                        ),
                    );
                    continue;
                }
                if total.is_some_and(|t| covered.len() >= t) {
                    em.report(
                        Rule::UnreachableArm,
                        arm.span,
                        "unreachable `case` arm: the preceding arms already cover \
                         every constructor"
                            .to_string(),
                    );
                    continue;
                }
                if datas.con(name).is_none() {
                    unknown_con = true;
                }
                covered.push(name);
            }
        }
    }

    if irrefutable || unknown_con || !em.enabled(Rule::NonExhaustiveMatch) {
        return;
    }
    let Some(data_name) = data_name else {
        return;
    };
    let missing: Vec<&str> = datas
        .constructors_of(data_name)
        .map(|ci| ci.name.as_str())
        .filter(|c| !covered.contains(c))
        .collect();
    if missing.is_empty() {
        return;
    }
    let list = missing
        .iter()
        .map(|c| format!("`{c}`"))
        .collect::<Vec<_>>()
        .join(", ");
    em.report_with(
        Rule::NonExhaustiveMatch,
        span,
        format!(
            "non-exhaustive `case` on `{data_name}`: constructor{} {list} {} not matched",
            if missing.len() == 1 { "" } else { "s" },
            if missing.len() == 1 { "is" } else { "are" },
        ),
        vec![(
            None,
            "an unmatched value fails at runtime with `match-failure`; add the missing \
             arms or a trailing `_ -> ...` default"
                .to_string(),
        )],
    );
}

#[cfg(test)]
mod tests {
    use crate::testutil::{codes, lint};

    #[test]
    fn exhaustive_case_is_clean() {
        let src = "data T = A | B;\nf x = case x of { A -> 1; B -> 2 };";
        let c = codes(src);
        assert!(!c.contains(&"L0012"), "{c:?}");
        assert!(!c.contains(&"L0006"), "{c:?}");
    }

    #[test]
    fn missing_constructor_fires_l0012() {
        let src = "data T = A | B | C;\nf x = case x of { A -> 1 };";
        let d = lint(src);
        let v = d.iter().find(|d| d.code == "L0012").expect("L0012");
        assert!(v.message.contains("`B`"), "{}", v.message);
        assert!(v.message.contains("`C`"), "{}", v.message);
        assert!(
            v.notes.iter().any(|(_, n)| n.contains("match-failure")),
            "{:?}",
            v.notes
        );
    }

    #[test]
    fn default_arm_makes_case_exhaustive() {
        let src = "data T = A | B | C;\nf x = case x of { A -> 1; _ -> 0 };";
        assert!(!codes(src).contains(&"L0012"));
    }

    #[test]
    fn bool_case_missing_false_fires() {
        let src = "f x = case x of { True -> 1 };";
        let d = lint(src);
        let v = d.iter().find(|d| d.code == "L0012").expect("L0012");
        assert!(v.message.contains("`False`"), "{}", v.message);
    }

    #[test]
    fn list_case_through_builtin_constructors() {
        let clean = "f x = case x of { Nil -> 0; Cons h t -> h };";
        let c = codes(clean);
        assert!(!c.contains(&"L0012"), "{c:?}");
        let partial = "f x = case x of { Nil -> 0 };";
        assert!(codes(partial).contains(&"L0012"));
    }

    #[test]
    fn arm_after_default_is_unreachable() {
        let src = "data T = A | B;\nf x = case x of { _ -> 0; A -> 1 };";
        assert!(codes(src).contains(&"L0006"));
    }

    #[test]
    fn duplicate_constructor_arm_is_unreachable() {
        let src = "data T = A | B;\nf x = case x of { A -> 1; A -> 2; B -> 3 };";
        let d = lint(src);
        let v = d.iter().find(|d| d.code == "L0006").expect("L0006");
        assert!(v.message.contains("`A`"), "{}", v.message);
        // Coverage still counts the first A, so no L0012.
        assert!(d.iter().all(|d| d.code != "L0012"), "{d:?}");
    }

    #[test]
    fn default_after_full_coverage_is_unreachable() {
        let src = "data T = A | B;\nf x = case x of { A -> 1; B -> 2; _ -> 0 };";
        assert!(codes(src).contains(&"L0006"));
    }

    #[test]
    fn unknown_constructor_disables_exhaustiveness() {
        // `Nope` is an E0404 upstream; the lint must not pile on.
        let src = "data T = A | B;\nf x = case x of { Nope -> 1 };";
        assert!(!codes(src).contains(&"L0012"));
    }

    #[test]
    fn nested_cases_are_both_checked() {
        let src = "data T = A | B;\n\
                   f x y = case x of { A -> case y of { A -> 1 }; B -> 2 };";
        let d = lint(src);
        assert_eq!(d.iter().filter(|d| d.code == "L0012").count(), 1, "{d:?}");
    }

    #[test]
    fn derived_instances_do_not_fire_match_lints() {
        // Deriving generates exhaustive cases; deny-level runs stay
        // clean over them.
        let src = "data Color = Red | Green | Blue deriving (Eq, Ord);\n\
                   f c = case c of { Red -> 0; Green -> 1; Blue -> 2 };";
        let c = codes(src);
        assert!(!c.contains(&"L0012"), "{c:?}");
        assert!(!c.contains(&"L0006"), "{c:?}");
    }
}
