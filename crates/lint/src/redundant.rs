//! `L0002` — redundant-constraint lint.
//!
//! A context constraint is redundant when the same context already
//! guarantees it: either a literal duplicate, or a constraint implied
//! through the superclass hierarchy (`Ord a` implies `Eq a` under
//! `class Eq a => Ord a`, because every `Ord` dictionary embeds its
//! `Eq` dictionary). Redundant constraints are harmless to soundness
//! but cost a dictionary parameter per call and widen every signature
//! they appear in, so we flag them in the three places contexts are
//! written: top-level signatures, class-method signatures, and
//! instance declarations.

use crate::{superclass_implies, Emitter, LintInput, Rule};
use tc_classes::{lower::lower_qual_type, ClassEnv, LowerCtx};
use tc_syntax::{Diagnostics, Span};
use tc_types::{Pred, VarGen};

pub(crate) fn check(input: &LintInput<'_>, em: &mut Emitter<'_>) {
    if !em.enabled(Rule::RedundantConstraint) {
        return;
    }
    for sig in &input.program.sigs {
        let preds = lowered_sig_context(sig, input.cenv);
        check_context(
            &preds,
            0,
            &format!("the signature of `{}`", sig.name),
            input.cenv,
            em,
        );
    }
    for cname in input.cenv.class_names() {
        let Some(ci) = input.cenv.class(cname) else {
            continue;
        };
        for m in &ci.methods {
            // preds[0] is the implicit class constraint added during
            // environment construction; only user-written constraints
            // (index >= 1) are reportable, but the implicit one still
            // participates as an implier.
            if m.scheme.qual.preds.len() > 1 {
                check_context(
                    &m.scheme.qual.preds,
                    1,
                    &format!("the signature of method `{}`", m.name),
                    input.cenv,
                    em,
                );
            }
        }
    }
    let mut insts: Vec<_> = input.cenv.own_instances().collect();
    insts.sort_by_key(|i| i.id);
    for inst in insts {
        check_context(
            &inst.preds,
            0,
            &format!("the context of this `{}` instance", inst.head.class),
            input.cenv,
            em,
        );
    }
}

/// Re-lower a signature's context with scratch state. The pipeline's
/// own lowering happens deep inside inference; the lint only needs the
/// predicate structure (shared variable scope between constraints), and
/// any lowering diagnostics here are duplicates of ones inference
/// already reported, so they are discarded.
fn lowered_sig_context(sig: &tc_syntax::SigDecl, cenv: &ClassEnv) -> Vec<Pred> {
    let mut ctx = LowerCtx::new();
    let mut gen = VarGen::new();
    let mut scratch = Diagnostics::new();
    lower_qual_type(&sig.qual_ty, &mut ctx, &mut gen, &mut scratch, &cenv.datas).preds
}

/// Report duplicates and superclass-implied constraints within one
/// context. Constraints before `first_reportable` are implicit
/// (machine-added) and only serve as impliers.
fn check_context(
    preds: &[Pred],
    first_reportable: usize,
    what: &str,
    cenv: &ClassEnv,
    em: &mut Emitter<'_>,
) {
    for i in first_reportable..preds.len() {
        let p = &preds[i];
        if let Some(j) = (0..i).find(|&j| preds[j].same_constraint(p)) {
            em.report_with(
                Rule::RedundantConstraint,
                p.span,
                format!("duplicate constraint `{p}` in {what}"),
                vec![note_first(preds[j].span)],
            );
            continue;
        }
        if let Some(j) = (0..preds.len()).find(|&j| {
            j != i && preds[j].ty == p.ty && superclass_implies(cenv, &preds[j].class, &p.class)
        }) {
            em.report_with(
                Rule::RedundantConstraint,
                p.span,
                format!(
                    "constraint `{p}` in {what} is redundant: `{}` already implies it \
                     through the superclass hierarchy (its dictionary embeds a `{}` dictionary)",
                    preds[j], p.class
                ),
                vec![note_first(preds[j].span)],
            );
        }
    }
}

fn note_first(span: Span) -> (Option<Span>, String) {
    (Some(span), "already guaranteed by this constraint".into())
}

#[cfg(test)]
mod tests {
    use crate::testutil::codes;

    const HIERARCHY: &str = "\
        class Eq a where { eq :: a -> a -> Bool; };\n\
        class Eq a => Ord a where { lte :: a -> a -> Bool; };\n";

    #[test]
    fn superclass_implied_sig_constraint_fires() {
        let src = format!("{HIERARCHY}f :: (Eq a, Ord a) => a -> a;\nf x = x;");
        assert!(codes(&src).contains(&"L0002"), "{:?}", codes(&src));
    }

    #[test]
    fn duplicate_sig_constraint_fires() {
        let src = format!("{HIERARCHY}f :: (Eq a, Eq a) => a -> a;\nf x = x;");
        assert!(codes(&src).contains(&"L0002"));
    }

    #[test]
    fn duplicate_instance_context_fires() {
        let src = format!(
            "{HIERARCHY}instance (Eq a, Eq a) => Eq (List a) where {{ eq = \\x y -> True; }};"
        );
        assert!(codes(&src).contains(&"L0002"), "{:?}", codes(&src));
    }

    #[test]
    fn method_constraint_implied_by_class_fires() {
        // `cmp`'s `Eq a` is implied by the implicit `Ord a`.
        let src = "\
            class Eq a where { eq :: a -> a -> Bool; };\n\
            class Eq a => Ord a where { cmp :: Eq a => a -> a -> Bool; };\n";
        assert!(codes(src).contains(&"L0002"), "{:?}", codes(src));
    }

    #[test]
    fn independent_constraints_are_silent() {
        let src = format!("{HIERARCHY}f :: (Eq a, Eq b) => a -> b -> a;\nf x y = x;");
        assert!(!codes(&src).contains(&"L0002"), "{:?}", codes(&src));
    }

    #[test]
    fn distinct_types_same_class_are_silent() {
        let src = format!("{HIERARCHY}f :: (Ord a, Eq b) => a -> b -> a;\nf x y = x;");
        assert!(!codes(&src).contains(&"L0002"), "{:?}", codes(&src));
    }
}
