//! `L0006` — unreachable-arm lint over the typed core.
//!
//! The core has no pattern matching (lists are consumed through
//! `null`/`head`/`tail`), so its "match arms" are `if` branches. An
//! arm is provably dead in two situations:
//!
//! 1. the condition is a boolean *literal* (`if True then a else b` —
//!    the `else` arm never runs);
//! 2. the condition textually repeats a test made by an enclosing
//!    `if` on the same branch path. The language is pure, so
//!    re-evaluating the same expression yields the same value and the
//!    arm contradicting the established polarity is unreachable.
//!
//! Path facts are invalidated conservatively when crossing a binder
//! (`Lam`/`LetRec`) that re-binds a variable the condition mentions —
//! inside the binder the condition refers to a different value.
//!
//! This runs *after* dictionary conversion, so it also sees method
//! bodies inlined into instance dictionaries; core expressions carry
//! no spans, so findings blame the enclosing top-level binding (or
//! the instance declaration, for `$dict` constructors).

use crate::{BindingSpans, Emitter, LintInput, Rule};
use tc_coreir::{CoreExpr, Literal};
use tc_syntax::Span;

pub(crate) fn check(input: &LintInput<'_>, spans: &BindingSpans<'_>, em: &mut Emitter<'_>) {
    if !em.enabled(Rule::UnreachableArm) {
        return;
    }
    let (mut facts, mut hidden) = (Vec::new(), Vec::new());
    for (name, expr) in &input.core.binds {
        let span = spans.get(name.as_str()).copied().unwrap_or(Span::DUMMY);
        let mut walk = Walk {
            facts: &mut facts,
            hidden: &mut hidden,
            name,
            span,
            em,
        };
        walk.expr(expr);
    }
}

/// One established test on the current path: the condition expression,
/// the branch (`true` = then-arm) we are inside, and whether the fact
/// still holds here (`false` once a binder re-binds a variable the
/// condition mentions).
type Fact<'a> = (&'a CoreExpr, bool, bool);

/// The walk over one top-level binding. `facts` is a stack: an `if`
/// pushes its fact for its arms and pops it after, and a binder hides
/// the facts it invalidates while its body is walked, noting their
/// positions on `hidden` to restore them after.
struct Walk<'w, 'a, 'e> {
    facts: &'w mut Vec<Fact<'a>>,
    hidden: &'w mut Vec<usize>,
    name: &'w str,
    span: Span,
    em: &'w mut Emitter<'e>,
}

impl<'a> Walk<'_, 'a, '_> {
    fn expr(&mut self, e: &'a CoreExpr) {
        let (name, span) = (self.name, self.span);
        match e {
            CoreExpr::If(c, t, f) => {
                self.expr(c);
                if let CoreExpr::Lit(Literal::Bool(b)) = &**c {
                    let arm = if *b { "`else`" } else { "`then`" };
                    self.em.report(
                        Rule::UnreachableArm,
                        span,
                        format!(
                            "in `{name}`: an `if` condition is always `{b}`, so its {arm} \
                             arm is unreachable"
                        ),
                    );
                    self.expr(t);
                    self.expr(f);
                } else if let Some(&(_, pol, _)) =
                    self.facts.iter().find(|&&(fc, _, live)| live && fc == &**c)
                {
                    let arm = if pol { "`else`" } else { "`then`" };
                    self.em.report(
                        Rule::UnreachableArm,
                        span,
                        format!(
                            "in `{name}`: an `if` repeats a condition already known to be \
                             `{pol}` on this path, so its {arm} arm is unreachable"
                        ),
                    );
                    self.expr(t);
                    self.expr(f);
                } else {
                    self.facts.push((c, true, true));
                    self.expr(t);
                    let at = self.facts.len() - 1;
                    self.facts[at].1 = false;
                    self.expr(f);
                    self.facts.pop();
                }
            }
            CoreExpr::Lam(p, body) => {
                self.hiding(|v| v == p, |w| w.expr(body));
            }
            CoreExpr::LetRec(binds, body) => {
                self.hiding(
                    |v| binds.iter().any(|(n, _)| n == v),
                    |w| {
                        for (_, v) in binds {
                            w.expr(v);
                        }
                        w.expr(body);
                    },
                );
            }
            _ => e.for_each_child(|child| self.expr(child)),
        }
    }

    /// Run `walk` with every live fact whose condition mentions a
    /// variable `rebound` accepts hidden, then restore them.
    fn hiding(&mut self, rebound: impl Fn(&str) -> bool, walk: impl FnOnce(&mut Self)) {
        let mark = self.hidden.len();
        for (k, fact) in self.facts.iter_mut().enumerate() {
            if fact.2 && mentions(fact.0, &rebound) {
                fact.2 = false;
                self.hidden.push(k);
            }
        }
        walk(self);
        for k in self.hidden.drain(mark..) {
            self.facts[k].2 = true;
        }
    }
}

/// Does the expression mention a variable `rebound` accepts at all?
/// Deliberately over-approximate (inner re-bindings are not tracked):
/// dropping a fact too eagerly only suppresses a report, never
/// fabricates one.
fn mentions(e: &CoreExpr, rebound: &impl Fn(&str) -> bool) -> bool {
    if let CoreExpr::Var(n) = e {
        return rebound(n);
    }
    let mut found = false;
    e.for_each_child(|x| found = found || mentions(x, rebound));
    found
}

#[cfg(test)]
mod tests {
    use crate::testutil::codes;

    #[test]
    fn constant_condition_fires() {
        assert!(codes("main = if True then 1 else 2;").contains(&"L0006"));
    }

    #[test]
    fn repeated_condition_fires() {
        let c = codes("f b = if b then 1 else (if b then 2 else 3);");
        assert!(c.contains(&"L0006"), "{c:?}");
    }

    #[test]
    fn repeated_condition_same_polarity_fires() {
        let c = codes("f b = if b then (if b then 1 else 2) else 3;");
        assert!(c.contains(&"L0006"), "{c:?}");
    }

    #[test]
    fn distinct_conditions_are_silent() {
        let c = codes("f a b = if a then (if b then 1 else 2) else 3;");
        assert!(!c.contains(&"L0006"), "{c:?}");
    }

    #[test]
    fn rebinding_invalidates_the_fact() {
        // The inner `b` is a fresh parameter, not the tested one.
        let c = codes("f b = if b then ((\\b -> if b then 1 else 2) False) else 3;");
        assert!(!c.contains(&"L0006"), "{c:?}");
    }

    #[test]
    fn guarded_recursion_is_silent() {
        let c = codes("f n = if primLeInt n 0 then 0 else f (primSubInt n 1);\nmain = f 3;");
        assert!(!c.contains(&"L0006"), "{c:?}");
    }
}
