//! `L0007` — repeated-dictionary-construction lint over the typed
//! core.
//!
//! After dictionary conversion, a use of an overloaded function at a
//! *compound* type builds its dictionary by applying an instance
//! constructor to sub-dictionaries: `eq` at `List Int` becomes
//! `eq ($dictEqList $dictEqInt) ...`. The converter spells this out at
//! every use site independently, so a binding that compares lists
//! twice constructs the identical `$dictEqList $dictEqInt` tuple
//! twice — the exact re-evaluation cost the paper's Section on
//! dictionary sharing warns about. Such expressions are closed over
//! the binding's dictionary parameters and effect-free, so they can
//! always be hoisted into a single shared `let`.
//!
//! Detection: within one top-level binding, count every *maximal*
//! application spine whose head is a `$dict…` instance constructor
//! with at least one argument (nullary dictionary references are
//! already shared globals — nothing to hoist). Keys are the printed
//! expression; two or more occurrences of a key is a finding. Nested
//! dictionary arguments inside a counted spine are not counted again:
//! hoisting the outermost construction already shares them.
//!
//! Pipeline ordering: the driver runs [`tc_coreir::share_program`] —
//! the optimization this lint used to only *suggest* — between
//! dictionary conversion and lint, so under default options every
//! hoistable duplicate has already been rewritten into a single `$sh`
//! let-binding and this rule is silent. It still fires when the
//! sharing pass is disabled (`Options::share_dictionaries = false`),
//! and on duplicates the pass cannot hoist (constructions whose free
//! variables are bound locally, below the dictionary-lambda prefix).

use crate::{BindingSpans, Emitter, LintInput, Rule};
use std::collections::HashMap;
use tc_syntax::Span;

pub(crate) fn check(input: &LintInput<'_>, spans: &BindingSpans<'_>, em: &mut Emitter<'_>) {
    if !em.enabled(Rule::RepeatedDictionary) {
        return;
    }
    let mut stack = Vec::new();
    for (name, expr) in &input.core.binds {
        let mut counts: HashMap<String, usize> = HashMap::new();
        stack.push(expr);
        while let Some(e) = stack.pop() {
            if let Some(head) = e.dict_construction() {
                // A recursive instance (e.g. `Eq (List a)`) re-applies
                // *its own* constructor to its own context parameters
                // for the recursive method calls. That knot is the
                // converter's output, not something a user can hoist,
                // so self-references inside the constructor are exempt.
                if head != name {
                    *counts.entry(tc_coreir::pretty(e)).or_insert(0) += 1;
                    continue;
                }
            }
            e.push_children(&mut stack);
        }
        let mut repeated: Vec<(String, usize)> =
            counts.into_iter().filter(|&(_, n)| n >= 2).collect();
        repeated.sort();
        let span = spans.get(name.as_str()).copied().unwrap_or(Span::DUMMY);
        for (key, n) in repeated {
            em.report(
                Rule::RepeatedDictionary,
                span,
                format!(
                    "in `{name}`: the dictionary `{key}` is constructed {n} times; \
                     hoist it into a single shared binding and reuse it"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::{codes, lint};

    const EQ: &str = "\
        class Eq a where { eq :: a -> a -> Bool; };\n\
        instance Eq Int where { eq = primEqInt; };\n\
        instance Eq a => Eq (List a) where { eq = \\xs ys -> True; };\n";

    #[test]
    fn two_list_comparisons_fire() {
        let src = format!("{EQ}main = if eq (cons 1 nil) nil then eq (cons 2 nil) nil else True;");
        let c = codes(&src);
        assert!(c.contains(&"L0007"), "{c:?}");
        let d = lint(&src);
        let msg = &d.iter().find(|d| d.code == "L0007").unwrap().message;
        assert!(msg.contains("$dict") && msg.contains("2 times"), "{msg}");
    }

    #[test]
    fn single_construction_is_silent() {
        let src = format!("{EQ}main = eq (cons 1 nil) nil;");
        assert!(!codes(&src).contains(&"L0007"), "{:?}", codes(&src));
    }

    #[test]
    fn recursive_instance_self_knot_is_exempt() {
        // The recursive `eq` on the tails re-applies the instance's own
        // constructor inside the constructor — generated, not hoistable.
        let src = "\
            class Eq a where { eq :: a -> a -> Bool; };\n\
            instance Eq Int where { eq = primEqInt; };\n\
            instance Eq a => Eq (List a) where {\n\
              eq = \\xs ys -> if null xs then null ys\n\
                   else if null ys then False\n\
                   else if eq (head xs) (head ys) then eq (tail xs) (tail ys)\n\
                   else False;\n\
            };\n\
            main = eq (cons 1 nil) nil;";
        assert!(!codes(src).contains(&"L0007"), "{:?}", codes(src));
    }

    #[test]
    fn nullary_dictionaries_are_silent() {
        // `eq` at Int twice: the Int dictionary is a bare global
        // reference, not a construction — nothing to hoist.
        let src = format!("{EQ}main = if eq 1 2 then eq 3 4 else True;");
        assert!(!codes(&src).contains(&"L0007"), "{:?}", codes(&src));
    }
}
