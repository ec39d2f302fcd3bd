//! `tc-core`: the elaborator — from surface AST to dictionary-passing
//! core.
//!
//! This crate implements the heart of Peterson & Jones' compilation
//! scheme: Hindley-Milner inference extended with class contexts, where
//! every use of an overloaded value inserts a *placeholder* for the
//! dictionary it will need, and a separate *dictionary conversion* pass
//! later replaces each placeholder with a parameter reference, a
//! superclass projection, or an instance-constructor application.
//!
//! Robustness properties (see the repository README):
//! * every failure is a [`tc_syntax::Diagnostic`] with a source span —
//!   elaboration never panics and recovers per binding, so one broken
//!   definition does not hide errors in the others;
//! * all searches are budgeted ([`tc_classes::ReduceBudget`],
//!   unification's work budget) — adversarial programs degrade into
//!   diagnostics, not hangs or stack overflows;
//! * even erroneous programs elaborate to a runnable core where the
//!   broken parts are [`tc_coreir::CoreExpr::Fail`] nodes that evaluate
//!   to structured errors.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

pub mod builtins;
pub mod convert;
pub mod infer;
pub mod scc;

pub use builtins::{builtin_env, builtin_schemes, is_builtin};
pub use infer::{
    elaborate, elaborate_over, elaborate_with, ElabBase, ElabCounts, ElabOptions, Elaboration,
};
pub use scc::binding_groups;

#[cfg(test)]
mod tests {
    use super::*;
    use tc_classes::{build_class_env, ReduceBudget};
    use tc_syntax::Diagnostics;
    use tc_types::VarGen;

    /// Full front-half pipeline for tests: lex, parse, build the class
    /// env, elaborate. Returns the elaboration and ALL diagnostics.
    fn run(src: &str) -> (Elaboration, Diagnostics) {
        let (toks, mut diags) = tc_syntax::lex(src);
        let (prog, pd) = tc_syntax::parse_program(&toks, Default::default());
        diags.extend(pd);
        let mut gen = VarGen::new();
        let (cenv, cd) = build_class_env(&prog, &mut gen);
        diags.extend(cd);
        let (elab, ed) = elaborate(&prog, &cenv, &mut gen, ReduceBudget::default());
        diags.extend(ed);
        (elab, diags)
    }

    fn run_ok(src: &str) -> Elaboration {
        let (elab, diags) = run(src);
        assert!(
            !diags.has_errors(),
            "unexpected errors: {}",
            diags.render_all(src)
        );
        assert!(
            elab.core.verify_converted().is_empty(),
            "placeholders left in {:?}",
            elab.core.verify_converted()
        );
        elab
    }

    const EQ_PRELUDE: &str = "\
        class Eq a where { eq :: a -> a -> Bool; };\n\
        instance Eq Int where { eq = primEqInt; };\n\
        instance Eq Bool where { eq = primEqBool; };\n\
        instance Eq a => Eq (List a) where {\n\
          eq = \\xs ys -> if null xs then null ys\n\
               else if null ys then False\n\
               else if eq (head xs) (head ys) then eq (tail xs) (tail ys)\n\
               else False;\n\
        };\n";

    #[test]
    fn monomorphic_method_use() {
        let elab = run_ok(&format!("{EQ_PRELUDE} main = eq 1 2;"));
        assert_eq!(elab.scheme("main").unwrap().to_string(), "Bool");
        assert_eq!(elab.core.main.as_deref(), Some("main"));
    }

    #[test]
    fn generalizes_with_retained_context() {
        let elab = run_ok(&format!("{EQ_PRELUDE} same x y = eq x y;"));
        assert_eq!(
            elab.scheme("same").unwrap().to_string(),
            "Eq a => a -> a -> Bool"
        );
    }

    #[test]
    fn member_example_from_paper() {
        let elab = run_ok(&format!(
            "{EQ_PRELUDE}\n\
             member x xs = if null xs then False\n\
                           else if eq x (head xs) then True\n\
                           else member x (tail xs);\n\
             main = member 2 (cons 1 (cons 2 nil));"
        ));
        assert_eq!(
            elab.scheme("member").unwrap().to_string(),
            "Eq a => a -> List a -> Bool"
        );
        assert_eq!(elab.scheme("main").unwrap().to_string(), "Bool");
    }

    #[test]
    fn signature_checks_and_polymorphic_recursion() {
        run_ok(&format!(
            "{EQ_PRELUDE}\n\
             same :: Eq a => a -> a -> Bool;\n\
             same x y = eq x y;"
        ));
    }

    #[test]
    fn signature_mismatch_is_diagnostic() {
        let (_, diags) = run("f :: Int -> Bool;\nf x = x;");
        assert!(
            diags.iter().any(|d| d.code == "E0401"),
            "{:?}",
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );
    }

    #[test]
    fn implementation_cannot_specialize_signature() {
        // Declared forall a, but the body forces a = Int.
        let (_, diags) = run("f :: a -> Int;\nf x = primAddInt x 1;");
        assert!(diags.has_errors());
    }

    #[test]
    fn could_not_deduce_from_signature() {
        let (_, diags) = run(&format!("{EQ_PRELUDE} f :: a -> Bool;\nf x = eq x x;"));
        assert!(
            diags.iter().any(|d| d.code == "E0410"),
            "{:?}",
            diags
                .iter()
                .map(|d| (d.code, d.message.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn no_instance_is_diagnostic_not_panic() {
        let (_, diags) = run(&format!("{EQ_PRELUDE} bad = eq (\\x -> x) (\\y -> y);"));
        assert!(diags.iter().any(|d| d.code == "E0410"));
    }

    #[test]
    fn ambiguous_constraint_reported() {
        let (_, diags) = run(&format!("{EQ_PRELUDE} amb = eq nil nil;"));
        assert!(
            diags.iter().any(|d| d.code == "E0411"),
            "{:?}",
            diags
                .iter()
                .map(|d| (d.code, d.message.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unbound_variable_recovers() {
        let (elab, diags) = run("f = missing 1;\ng = 2;");
        assert!(diags.iter().any(|d| d.code == "E0405"));
        // g still elaborated despite f's error.
        assert!(elab.core.lookup("g").is_some());
    }

    #[test]
    fn superclass_dictionary_resolved_in_instance() {
        let elab = run_ok(&format!(
            "{EQ_PRELUDE}\n\
             class Eq a => Ord a where {{ lte :: a -> a -> Bool; }};\n\
             instance Ord Int where {{ lte = primLeInt; }};\n\
             main = lte 1 2;"
        ));
        // The Ord Int dictionary embeds the Eq Int dictionary.
        let dict = elab
            .core
            .binds
            .iter()
            .find(|(n, _)| n.contains("$Ord$Int"))
            .map(|(_, e)| tc_coreir::pretty(e))
            .unwrap();
        assert!(dict.contains("$dict"), "{dict}");
    }

    #[test]
    fn mutual_recursion_with_classes() {
        let elab = run_ok(&format!(
            "{EQ_PRELUDE}\n\
             isEven n = if eq n 0 then True else isOdd (primSubInt n 1);\n\
             isOdd n = if eq n 0 then False else isEven (primSubInt n 1);"
        ));
        assert_eq!(elab.scheme("isEven").unwrap().to_string(), "Int -> Bool");
    }

    #[test]
    fn duplicate_binding_reported_first_wins() {
        let (elab, diags) = run("f = 1;\nf = 2;");
        assert!(diags.iter().any(|d| d.code == "E0408"));
        assert_eq!(elab.core.binds.iter().filter(|(n, _)| n == "f").count(), 1);
    }

    #[test]
    fn main_with_context_rejected() {
        let (_, diags) = run(&format!("{EQ_PRELUDE} main x = eq x x;"));
        assert!(diags.iter().any(|d| d.code == "E0413"));
    }

    #[test]
    fn local_let_is_monomorphic_but_works() {
        let elab = run_ok("f = let { idf = \\x -> x } in idf 3;");
        assert_eq!(elab.scheme("f").unwrap().to_string(), "Int");
    }

    #[test]
    fn instance_context_feeds_method_body() {
        // eq on List uses the element dictionary from the context.
        let elab = run_ok(&format!(
            "{EQ_PRELUDE} main = eq (cons 1 nil) (cons 1 nil);"
        ));
        assert_eq!(elab.scheme("main").unwrap().to_string(), "Bool");
    }

    #[test]
    fn hole_from_parse_error_still_elaborates() {
        let (toks, _) = tc_syntax::lex("f = ) 1;\ng = 2;");
        let (prog, pd) = tc_syntax::parse_program(&toks, Default::default());
        assert!(pd.has_errors());
        let mut gen = VarGen::new();
        let (cenv, _) = build_class_env(&prog, &mut gen);
        let (elab, _) = elaborate(&prog, &cenv, &mut gen, ReduceBudget::default());
        assert!(elab.core.verify_converted().is_empty());
    }
}
