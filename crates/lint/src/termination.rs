//! `L0001` — instance-termination lint (Paterson-style conditions).
//!
//! The resolver discharges a goal `C T` by matching an instance head
//! and recursing on the instantiated context, so resolution terminates
//! for *every* goal iff each context constraint is structurally smaller
//! than its head. We check the two Paterson conditions per constraint:
//!
//! 1. the constraint's type has strictly fewer type constructors and
//!    variables than the head's type, and
//! 2. no type variable occurs more often in the constraint than in the
//!    head.
//!
//! A violation does not make the program wrong — the runtime
//! cycle-detector and [`tc_classes::ReduceBudget`] still guarantee the
//! compiler terminates — but any goal that *needs* the offending
//! instance fails with a cycle/budget error instead of a dictionary,
//! so the instance deserves a warning at its declaration site.

use crate::{Emitter, LintInput, Rule};

pub(crate) fn check(input: &LintInput<'_>, em: &mut Emitter<'_>) {
    if !em.enabled(Rule::InstanceTermination) {
        return;
    }
    let mut insts: Vec<_> = input.cenv.own_instances().collect();
    insts.sort_by_key(|i| i.id);
    for inst in insts {
        // Prefer the surface head (`C (List a)`) over the lowered one
        // (`C (List t3)`) when the declaration is available.
        let head_text = match input.program.instances.get(inst.ast_index) {
            Some(decl) => format!("{} ({})", decl.class, decl.head),
            None => inst.head.to_string(),
        };
        for p in &inst.preds {
            let psize = p.ty.size();
            let hsize = inst.head.ty.size();
            if psize >= hsize {
                em.report_with(
                    Rule::InstanceTermination,
                    p.span,
                    format!(
                        "context constraint `{p}` is not structurally smaller than the \
                         instance head `{head_text}` ({psize} vs {hsize} type nodes); \
                         resolving through this instance cannot make progress"
                    ),
                    vec![(Some(inst.span), "in this instance declaration".into())],
                );
                continue;
            }
            if let Some(v) =
                p.ty.free_vars()
                    .into_iter()
                    .find(|v| p.ty.occurrences(*v) > inst.head.ty.occurrences(*v))
            {
                em.report_with(
                    Rule::InstanceTermination,
                    p.span,
                    format!(
                        "a type variable occurs {} time(s) in the context constraint `{p}` \
                         but only {} time(s) in the instance head `{head_text}`; goals can \
                         grow without bound through this instance",
                        p.ty.occurrences(v),
                        inst.head.ty.occurrences(v),
                    ),
                    vec![(Some(inst.span), "in this instance declaration".into())],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::codes;

    const CLASS: &str = "class C a where { m :: a -> a; };\n";

    #[test]
    fn equal_size_context_fires() {
        // `instance C (List a) => C (List a)`: context not smaller.
        let src = format!("{CLASS}instance C (List a) => C (List a) where {{ m = \\x -> x; }};");
        assert!(codes(&src).contains(&"L0001"), "{:?}", codes(&src));
    }

    #[test]
    fn growing_context_fires() {
        let src =
            format!("{CLASS}instance C (List (List a)) => C (List a) where {{ m = \\x -> x; }};");
        assert!(codes(&src).contains(&"L0001"));
    }

    #[test]
    fn variable_multiplicity_fires() {
        // Context smaller by size (3 < 5 nodes) but `a` occurs twice in
        // the constraint and once in the head.
        let src =
            format!("{CLASS}instance C (a -> a) => C (List (List a)) where {{ m = \\x -> x; }};");
        assert!(codes(&src).contains(&"L0001"), "{:?}", codes(&src));
    }

    #[test]
    fn structural_decrease_is_silent() {
        let src = format!("{CLASS}instance C a => C (List a) where {{ m = \\x -> x; }};");
        assert!(!codes(&src).contains(&"L0001"), "{:?}", codes(&src));
    }
}
