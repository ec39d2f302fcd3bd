//! `L0003` — ambiguous-type-variable lint.
//!
//! A constraint whose type variable never appears in the constrained
//! type can never be pinned down by unification: at every use site the
//! variable instantiates fresh, the resolver has nothing to match it
//! against, and the use fails with an ambiguity error. The mistake is
//! in the *declaration*, though, so this lint reports it there —
//! before any use site exists. Checked in three places:
//!
//! * top-level signatures: `f :: Eq a => Int -> Int`;
//! * class-method signatures: extra constraints on variables that
//!   appear in neither the method type nor the class head;
//! * instance contexts: `instance Eq b => C Int` — no use of the
//!   instance can ever determine `b`, so the context is unsatisfiable.

use crate::{Emitter, LintInput, Rule};
use tc_classes::{lower::lower_qual_type, LowerCtx};
use tc_syntax::Diagnostics;
use tc_types::VarGen;

pub(crate) fn check(input: &LintInput<'_>, em: &mut Emitter<'_>) {
    if !em.enabled(Rule::AmbiguousTypeVar) {
        return;
    }
    for sig in &input.program.sigs {
        let mut ctx = LowerCtx::new();
        let mut gen = VarGen::new();
        let mut scratch = Diagnostics::new();
        let q = lower_qual_type(
            &sig.qual_ty,
            &mut ctx,
            &mut gen,
            &mut scratch,
            &input.cenv.datas,
        );
        let body_vars = q.head.free_vars();
        for (i, p) in q.preds.iter().enumerate() {
            if p.free_vars().is_subset(&body_vars) {
                continue;
            }
            // Prefer the surface spelling (`Eq a`) over internal
            // variables (`Eq t0`); the contexts align index-for-index.
            let shown = match sig.qual_ty.context.get(i) {
                Some(pe) => format!("{} {}", pe.class, pe.ty),
                None => p.to_string(),
            };
            em.report(
                Rule::AmbiguousTypeVar,
                p.span,
                format!(
                    "constraint `{shown}` in the signature of `{}` mentions a type \
                     variable that does not appear in the type `{}`; every use of \
                     `{}` will fail with an ambiguity error",
                    sig.name, sig.qual_ty.ty, sig.name
                ),
            );
        }
    }
    for cname in input.cenv.class_names() {
        let Some(ci) = input.cenv.class(cname) else {
            continue;
        };
        for m in &ci.methods {
            let preds = &m.scheme.qual.preds;
            let Some(class_pred) = preds.first() else {
                continue;
            };
            // The class variable is always determined (it's fixed by
            // dictionary dispatch), so it is allowed alongside the
            // method type's own variables.
            let mut allowed = m.scheme.qual.head.free_vars();
            allowed.extend(class_pred.free_vars());
            for p in &preds[1..] {
                if p.free_vars().is_subset(&allowed) {
                    continue;
                }
                em.report(
                    Rule::AmbiguousTypeVar,
                    p.span,
                    format!(
                        "constraint `{p}` in the signature of method `{}` mentions a \
                         type variable that appears in neither the method type nor the \
                         class head; every use of `{}` will be ambiguous",
                        m.name, m.name
                    ),
                );
            }
        }
    }
    let mut insts: Vec<_> = input.cenv.own_instances().collect();
    insts.sort_by_key(|i| i.id);
    for inst in insts {
        let head_vars = inst.head.ty.free_vars();
        let decl = input.program.instances.get(inst.ast_index);
        for (i, p) in inst.preds.iter().enumerate() {
            if p.free_vars().is_subset(&head_vars) {
                continue;
            }
            let shown = match decl.and_then(|d| d.context.get(i)) {
                Some(pe) => format!("{} {}", pe.class, pe.ty),
                None => p.to_string(),
            };
            let head_text = match decl {
                Some(d) => format!("{} ({})", d.class, d.head),
                None => inst.head.to_string(),
            };
            em.report_with(
                Rule::AmbiguousTypeVar,
                p.span,
                format!(
                    "context constraint `{shown}` mentions a type variable that does \
                     not appear in the instance head `{head_text}`; the constraint can \
                     never be satisfied when the instance is used"
                ),
                vec![(Some(inst.span), "in this instance declaration".into())],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::codes;

    const EQ: &str = "class Eq a where { eq :: a -> a -> Bool; };\n";

    #[test]
    fn sig_constraint_off_the_type_fires() {
        let src = format!("{EQ}g :: Eq a => Int -> Int;\ng x = x;");
        assert!(codes(&src).contains(&"L0003"), "{:?}", codes(&src));
    }

    #[test]
    fn instance_context_off_the_head_fires() {
        let src = format!(
            "{EQ}class C a where {{ m :: a -> a; }};\n\
             instance Eq b => C Int where {{ m = \\x -> x; }};"
        );
        assert!(codes(&src).contains(&"L0003"), "{:?}", codes(&src));
    }

    #[test]
    fn method_constraint_off_both_fires() {
        let src = format!("{EQ}class C a where {{ m :: Eq b => a -> a; }};");
        assert!(codes(&src).contains(&"L0003"), "{:?}", codes(&src));
    }

    #[test]
    fn determined_constraints_are_silent() {
        let src = format!("{EQ}f :: Eq a => a -> Bool;\nf x = eq x x;");
        assert!(!codes(&src).contains(&"L0003"), "{:?}", codes(&src));
    }

    #[test]
    fn instance_context_on_head_variable_is_silent() {
        let src = format!("{EQ}instance Eq a => Eq (List a) where {{ eq = \\x y -> True; }};");
        assert!(!codes(&src).contains(&"L0003"), "{:?}", codes(&src));
    }
}
