//! `L0004` / `L0005` — binding-hygiene lints over the surface AST.
//!
//! * **Unused binding** (`L0004`): a lambda parameter or local `let`
//!   binding that is never referenced. Parameters spelled with a
//!   leading underscore (`_acc`) are exempt — that is the conventional
//!   "intentionally unused" marker.
//! * **Shadowed binding** (`L0005`): a lambda parameter or `let`
//!   binding that re-binds a name already in scope — an enclosing
//!   local, a top-level definition, or a class method. Shadowing is
//!   legal (inner-most wins) but a classic source of
//!   wrong-variable bugs in curried code.
//!
//! Scoping here mirrors the elaborator exactly: lambda parameters
//! scope over their body, `let` groups are mutually recursive (every
//! name scopes over all right-hand sides and the body). A `let`
//! binding counts as used if the body or a *sibling* right-hand side
//! references it; a binding referenced only by itself is still dead.

use crate::{Emitter, LintInput, Rule};
use std::collections::HashMap;
use tc_syntax::{Binding, Expr, Program, Scope, Span};

pub(crate) fn check(input: &LintInput<'_>, base: &Program, em: &mut Emitter<'_>) {
    if !em.enabled(Rule::UnusedBinding) && !em.enabled(Rule::ShadowedBinding) {
        return;
    }
    // Top-level names a local binding can shadow: bindings and class
    // methods, the base program's first, so a later definition of the
    // same name is the one a note points at. (Shadowing *builtins* is
    // already reported by the elaborator as E0414, so it is not
    // duplicated here.)
    let mut globals: HashMap<&str, Span> = HashMap::new();
    for c in base.classes.iter().chain(&input.program.classes) {
        for m in &c.methods {
            globals.insert(&m.name, m.span);
        }
    }
    for b in base.bindings.iter().chain(&input.program.bindings) {
        globals.insert(&b.name, b.span);
    }
    let mut walker = Walker {
        globals,
        scope: Vec::new(),
        em,
    };
    for b in &input.program.bindings {
        walker.walk(&b.expr);
    }
    for inst in &input.program.instances {
        for m in &inst.methods {
            walker.walk(&m.expr);
        }
    }
}

struct Walker<'a, 'e, 'c> {
    globals: HashMap<&'a str, Span>,
    /// Innermost binding last; spans point at the binder.
    scope: Vec<(&'a str, Span)>,
    em: &'e mut Emitter<'c>,
}

impl<'a> Walker<'a, '_, '_> {
    fn walk(&mut self, e: &'a Expr) {
        match e {
            Expr::Var(..) | Expr::Con(..) | Expr::IntLit(..) | Expr::Hole(..) => {}
            Expr::App(f, x, _) => {
                self.walk(f);
                self.walk(x);
            }
            Expr::If(c, t, f, _) => {
                self.walk(c);
                self.walk(t);
                self.walk(f);
            }
            Expr::Lam(p, body, span) => {
                self.check_shadow(p, *span, "parameter");
                if self.em.enabled(Rule::UnusedBinding) && !p.starts_with('_') && !uses(body, p) {
                    self.em.report(
                        Rule::UnusedBinding,
                        *span,
                        format!("parameter `{p}` is never used (rename it `_{p}` if intentional)"),
                    );
                }
                self.scope.push((p, *span));
                self.walk(body);
                self.scope.pop();
            }
            Expr::Let(binds, body, _) => {
                for b in binds {
                    self.check_shadow(&b.name, b.span, "`let` binding");
                }
                for b in binds {
                    self.scope.push((&b.name, b.span));
                }
                for b in binds {
                    self.walk(&b.expr);
                }
                self.walk(body);
                self.scope.truncate(self.scope.len() - binds.len());
                if self.em.enabled(Rule::UnusedBinding) {
                    let used = let_bindings_used(binds, body);
                    for (b, used) in binds.iter().zip(used) {
                        if b.name.starts_with('_') {
                            continue;
                        }
                        if !used {
                            self.em.report(
                                Rule::UnusedBinding,
                                b.span,
                                format!("local binding `{}` is never used", b.name),
                            );
                        }
                    }
                }
            }
            Expr::Case(scrut, arms, _) => {
                self.walk(scrut);
                for arm in arms {
                    let before = self.scope.len();
                    let binders: Vec<(&'a str, Span)> = match &arm.pattern {
                        tc_syntax::Pattern::Var(n, sp) => vec![(n.as_str(), *sp)],
                        tc_syntax::Pattern::Con { binders, .. } => {
                            binders.iter().map(|(b, sp)| (b.as_str(), *sp)).collect()
                        }
                    };
                    for (b, sp) in &binders {
                        if *b == "_" {
                            continue;
                        }
                        self.check_shadow(b, *sp, "pattern binder");
                        if self.em.enabled(Rule::UnusedBinding)
                            && !b.starts_with('_')
                            && !uses(&arm.body, b)
                        {
                            self.em.report(
                                Rule::UnusedBinding,
                                *sp,
                                format!(
                                    "pattern binder `{b}` is never used \
                                     (rename it `_{b}` if intentional)"
                                ),
                            );
                        }
                        self.scope.push((b, *sp));
                    }
                    self.walk(&arm.body);
                    self.scope.truncate(before);
                }
            }
        }
    }

    fn check_shadow(&mut self, name: &str, span: Span, what: &str) {
        if !self.em.enabled(Rule::ShadowedBinding) {
            return;
        }
        if let Some(&(_, prev)) = self.scope.iter().rev().find(|(n, _)| *n == name) {
            self.em.report_with(
                Rule::ShadowedBinding,
                span,
                format!("{what} `{name}` shadows an enclosing binding of the same name"),
                vec![(Some(prev), "the shadowed binding is introduced here".into())],
            );
        } else if let Some(&prev) = self.globals.get(name) {
            self.em.report_with(
                Rule::ShadowedBinding,
                span,
                format!("{what} `{name}` shadows the top-level definition of the same name"),
                vec![(Some(prev), "the shadowed definition is here".into())],
            );
        }
    }
}

/// For each binding of a `let` group: does the body or a *sibling*
/// right-hand side reference it? One walk over the group answers every
/// binding, where asking [`uses`] per binding would walk the group once
/// per binding.
fn let_bindings_used(binds: &[Binding], body: &Expr) -> Vec<bool> {
    /// Where a name of the group is referenced from.
    #[derive(Default, Clone, Copy)]
    struct Refs {
        body: bool,
        /// The first right-hand side referencing it ...
        rhs: Option<usize>,
        /// ... and whether a second, different one does too.
        several: bool,
    }
    let mut slot: HashMap<&str, usize> = HashMap::new();
    for b in binds {
        let next = slot.len();
        slot.entry(&b.name).or_insert(next);
    }
    let mut refs = vec![Refs::default(); slot.len()];
    let mut inner = Scope::new();
    free_uses(body, &slot, &mut inner, &mut |k| refs[k].body = true);
    for (j, b) in binds.iter().enumerate() {
        free_uses(&b.expr, &slot, &mut inner, &mut |k| match refs[k].rhs {
            None => refs[k].rhs = Some(j),
            Some(first) if first != j => refs[k].several = true,
            Some(_) => {}
        });
    }
    binds
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let r = slot
                .get(b.name.as_str())
                .map(|&k| refs[k])
                .unwrap_or_default();
            r.body || r.several || r.rhs.is_some_and(|j| j != i)
        })
        .collect()
}

/// Report each free reference in `e` to a name `slot` knows, by its
/// slot. `inner` holds the binders entered inside `e`, which shadow the
/// group's names exactly where [`uses`] stops descending. Recursion
/// depth is bounded by the parser's expression-depth budget, as in the
/// walker.
fn free_uses<'a>(
    e: &'a Expr,
    slot: &HashMap<&str, usize>,
    inner: &mut Scope<'a, ()>,
    found: &mut impl FnMut(usize),
) {
    match e {
        Expr::Var(n, _) => {
            if inner.get(n).is_none() {
                if let Some(&k) = slot.get(n.as_str()) {
                    found(k);
                }
            }
        }
        Expr::Con(..) | Expr::IntLit(..) => {}
        // A hole stands for code the parser skipped, which may use any
        // name in scope.
        Expr::Hole(..) => {
            for (n, &k) in slot {
                if inner.get(n).is_none() {
                    found(k);
                }
            }
        }
        Expr::App(f, a, _) => {
            free_uses(f, slot, inner, found);
            free_uses(a, slot, inner, found);
        }
        Expr::If(c, t, f, _) => {
            free_uses(c, slot, inner, found);
            free_uses(t, slot, inner, found);
            free_uses(f, slot, inner, found);
        }
        Expr::Lam(p, body, _) => {
            inner.push(p, ());
            free_uses(body, slot, inner, found);
            inner.pop();
        }
        Expr::Let(binds, body, _) => {
            let mark = inner.len();
            for b in binds {
                inner.push(&b.name, ());
            }
            for b in binds {
                free_uses(&b.expr, slot, inner, found);
            }
            free_uses(body, slot, inner, found);
            inner.truncate(mark);
        }
        Expr::Case(scrut, arms, _) => {
            free_uses(scrut, slot, inner, found);
            for arm in arms {
                let mark = inner.len();
                match &arm.pattern {
                    tc_syntax::Pattern::Var(n, _) => inner.push(n, ()),
                    tc_syntax::Pattern::Con { binders, .. } => {
                        for (b, _) in binders {
                            inner.push(b, ());
                        }
                    }
                }
                free_uses(&arm.body, slot, inner, found);
                inner.truncate(mark);
            }
        }
    }
}

/// Does `e` reference `name` as a free variable? Descent stops
/// wherever `name` is re-bound. Recursion depth is bounded by the
/// parser's expression-depth budget, as in the walker.
fn uses(e: &Expr, name: &str) -> bool {
    match e {
        Expr::Var(n, _) => n == name,
        Expr::Con(..) | Expr::IntLit(..) => false,
        // Skipped code may use any name in scope.
        Expr::Hole(..) => true,
        Expr::App(f, a, _) => uses(f, name) || uses(a, name),
        Expr::If(c, t, f, _) => uses(c, name) || uses(t, name) || uses(f, name),
        Expr::Lam(p, body, _) => p != name && uses(body, name),
        // A `let` group re-binding `name` shields its whole extent
        // (right-hand sides included — they see the local binding, not
        // the outer one).
        Expr::Let(binds, body, _) => {
            binds.iter().all(|b| b.name != name)
                && (uses(body, name) || binds.iter().any(|b| uses(&b.expr, name)))
        }
        Expr::Case(scrut, arms, _) => {
            uses(scrut, name)
                || arms.iter().any(|arm| {
                    let rebinds = match &arm.pattern {
                        tc_syntax::Pattern::Var(n, _) => n == name,
                        tc_syntax::Pattern::Con { binders, .. } => {
                            binders.iter().any(|(b, _)| b == name)
                        }
                    };
                    !rebinds && uses(&arm.body, name)
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{let_bindings_used, uses};
    use crate::testutil::codes;
    use tc_syntax::Expr;

    #[test]
    fn unused_parameter_fires() {
        assert!(codes("f = \\x -> 1;").contains(&"L0004"));
    }

    #[test]
    fn underscore_parameter_is_silent() {
        assert!(!codes("f = \\_x -> 1;").contains(&"L0004"));
    }

    #[test]
    fn used_parameter_is_silent() {
        assert!(!codes("f = \\x -> x;").contains(&"L0004"));
    }

    #[test]
    fn code_skipped_past_the_nesting_budget_may_use_any_name() {
        // The parser skips an expression nested past its budget and
        // leaves a hole in its place; what it skipped used `x` and `a`.
        let deep = |x: &str| format!("{}{x}{}", "(".repeat(450), ")".repeat(450));
        for src in [
            format!("f x = {};", deep("x")),
            format!("f = let {{ a = 1 }} in {};", deep("a")),
        ] {
            let c = codes(&src);
            assert!(!c.contains(&"L0004"), "{c:?}");
        }
    }

    #[test]
    fn unused_let_binding_fires() {
        assert!(codes("f = let { dead = 1 } in 2;").contains(&"L0004"));
    }

    #[test]
    fn self_recursive_only_let_binding_fires() {
        let c = codes("f = let { spin = \\x -> spin x } in 1;");
        assert!(c.contains(&"L0004"), "{c:?}");
    }

    #[test]
    fn let_binding_used_by_sibling_is_silent() {
        let c = codes("f = let { a = 1; b = \\y -> primAddInt a y } in b 2;");
        assert!(!c.contains(&"L0004"), "{c:?}");
    }

    #[test]
    fn one_walk_per_let_agrees_with_a_scan_per_binding() {
        // Self-use, sibling use, body use, uses shadowed by inner
        // lambda, `let` and `case` binders, and a duplicate name.
        let src = "f = let { a = a; b = \\a -> a; c = b; d = 1; d = c; \
                   e = let { e = 1 } in e; g = \\h -> case h of { g -> g } } \
                   in case d of { x -> x };";
        let (toks, _) = tc_syntax::lex(src);
        let (program, _) = tc_syntax::parse_program(&toks, Default::default());
        let Expr::Let(binds, body, _) = &program.bindings[0].expr else {
            unreachable!("the binding is a `let`");
        };
        let scanned: Vec<bool> = binds
            .iter()
            .enumerate()
            .map(|(i, b)| {
                uses(body, &b.name)
                    || binds
                        .iter()
                        .enumerate()
                        .any(|(j, sib)| j != i && uses(&sib.expr, &b.name))
            })
            .collect();
        assert_eq!(let_bindings_used(binds, body), scanned);
        // `a` and `e` are used only where they are shadowed or by
        // themselves; so is `g`.
        assert_eq!(
            scanned,
            [false, true, true, true, true, false, false],
            "{binds:?}"
        );
        let unused = codes(src).iter().filter(|c| **c == "L0004").count();
        assert_eq!(unused, 3);
    }

    #[test]
    fn parameter_shadowing_parameter_fires() {
        let c = codes("f x = \\x -> x;");
        assert!(c.contains(&"L0005"), "{c:?}");
    }

    #[test]
    fn parameter_shadowing_top_level_fires() {
        let c = codes("f x = x;\ng = \\f -> f;");
        assert!(c.contains(&"L0005"), "{c:?}");
    }

    #[test]
    fn let_shadowing_parameter_fires() {
        let c = codes("f x = let { x = 1 } in x;");
        assert!(c.contains(&"L0005"), "{c:?}");
    }

    #[test]
    fn method_shadowing_fires() {
        let c = codes("class C a where { m :: a -> a; };\ng = \\m -> m;");
        assert!(c.contains(&"L0005"), "{c:?}");
    }

    #[test]
    fn distinct_names_are_silent() {
        let c = codes("f x = \\y -> x;");
        assert!(!c.contains(&"L0005"), "{c:?}");
    }
}
