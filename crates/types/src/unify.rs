//! Unification and one-way matching on interned types, with typed
//! errors and an explicit work budget.

use crate::intern::{Interner, Node, TypeId};
use crate::subst::Subst;
use crate::ty::{TyVar, Type};
use std::fmt;
use tc_syntax::Span;

/// Why unification (or matching) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeErrorKind {
    /// `expected` and `found` have incompatible shapes.
    Mismatch { expected: Type, found: Type },
    /// The occurs check fired: binding would create an infinite type.
    Occurs { var: TyVar, ty: Type },
    /// The unifier's work budget was exhausted — the types involved
    /// are pathologically large (e.g. exponentially self-similar).
    BudgetExhausted,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    pub kind: TypeErrorKind,
    /// Where the constraint arose; filled in by the caller when known.
    pub span: Span,
}

impl TypeError {
    pub fn at(mut self, span: Span) -> Self {
        if self.span.is_dummy() {
            self.span = span;
        }
        self
    }

    fn new(kind: TypeErrorKind) -> Self {
        TypeError {
            kind,
            span: Span::DUMMY,
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TypeErrorKind::Mismatch { expected, found } => {
                write!(f, "type mismatch: expected `{expected}`, found `{found}`")
            }
            TypeErrorKind::Occurs { var, ty } => write!(
                f,
                "cannot construct the infinite type `{var} ~ {ty}` (occurs check)"
            ),
            TypeErrorKind::BudgetExhausted => {
                f.write_str("types too large to unify within the work budget")
            }
        }
    }
}

/// Upper bound on unification work items for one `unify` call: one per
/// pair of nodes compared, as a walk over the two types as trees would
/// visit them, except that two equal ids are one unit whatever their
/// size. Large enough for any sane program; small enough that an
/// adversarial exponential blowup fails in microseconds.
pub const UNIFY_BUDGET: usize = 100_000;

/// Upper bound on the nodes of the type store a request's unifications
/// run over ([`Interner::len`]). Every type a request infers lives in
/// its store, so this bounds the memory its types hold; past it every
/// `unify` fails with [`TypeErrorKind::BudgetExhausted`].
pub const MAX_STORE: usize = 1 << 20;

/// Unify `a` and `b`, two types of `types`, under (and extending)
/// `subst`.
///
/// Each side of a pair is resolved through its links
/// ([`Subst::find`]); two equal ids are done at once. A variable is
/// bound to the other side zonked ([`Subst::apply`]), after the occurs
/// check. Trees are built only for error messages, which show both
/// sides zonked.
///
/// Uses an explicit worklist so native stack depth is constant, and a
/// work budget so pathological inputs produce
/// [`TypeErrorKind::BudgetExhausted`] instead of an effective hang.
pub fn unify(
    types: &mut Interner,
    subst: &mut Subst,
    a: TypeId,
    b: TypeId,
) -> Result<(), TypeError> {
    if types.len() > MAX_STORE {
        return Err(TypeError::new(TypeErrorKind::BudgetExhausted));
    }
    let mut work = std::mem::take(&mut subst.work);
    work.clear();
    work.push((a, b));
    let result = unify_pairs(types, subst, &mut work);
    work.clear();
    subst.work = work;
    result
}

fn unify_pairs(
    types: &mut Interner,
    subst: &mut Subst,
    work: &mut Vec<(TypeId, TypeId)>,
) -> Result<(), TypeError> {
    let mut budget = UNIFY_BUDGET;
    while let Some((x, y)) = work.pop() {
        if budget == 0 {
            return Err(TypeError::new(TypeErrorKind::BudgetExhausted));
        }
        budget -= 1;
        let (x, y) = (subst.find(types, x), subst.find(types, y));
        if x == y {
            continue;
        }
        match (types.node(x), types.node(y)) {
            (Node::Var(v), _) => bind_var(types, subst, v, y)?,
            (_, Node::Var(v)) => bind_var(types, subst, v, x)?,
            (Node::App(f1, a1), Node::App(f2, a2)) => {
                work.push((a1, a2));
                work.push((f1, f2));
            }
            (Node::Fun(p1, r1), Node::Fun(p2, r2)) => {
                work.push((r1, r2));
                work.push((p1, p2));
            }
            _ => {
                let (x, y) = (subst.apply(types, x), subst.apply(types, y));
                return Err(TypeError::new(TypeErrorKind::Mismatch {
                    expected: types.show(x),
                    found: types.show(y),
                }));
            }
        }
    }
    Ok(())
}

/// Bind the unbound variable `v` to `t` zonked, after the occurs check.
fn bind_var(types: &mut Interner, subst: &mut Subst, v: TyVar, t: TypeId) -> Result<(), TypeError> {
    let t = subst.apply(types, t);
    if types.contains_var(t, v) {
        return Err(TypeError::new(TypeErrorKind::Occurs {
            var: v,
            ty: types.show(t),
        }));
    }
    subst.bind(v, t);
    Ok(())
}

/// One-way matching: bind variables of `pattern` so that it equals
/// `target`, treating the target's variables as rigid. Used for
/// instance lookup (`Eq (List a)` against `Eq (List Int)`). On success
/// `out` holds one binding per variable of `pattern`, each to a subterm
/// of `target`, in the order the variables are first met. Matching is
/// charged one unit of [`UNIFY_BUDGET`] per pair of nodes compared, so
/// its work is bounded by the pattern's size; a bound subterm is an id,
/// however large its tree. A failure (`false`) builds no error: instance
/// lookup tries heads until one matches, and a failed try is not a
/// diagnostic. `work` is scratch.
pub fn match_ids(
    types: &Interner,
    pattern: TypeId,
    target: TypeId,
    out: &mut Vec<(TyVar, TypeId)>,
    work: &mut Vec<(TypeId, TypeId)>,
) -> bool {
    out.clear();
    work.clear();
    work.push((pattern, target));
    let mut budget = UNIFY_BUDGET;
    while let Some((p, t)) = work.pop() {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        match (types.node(p), types.node(t)) {
            (Node::Var(v), _) => match out.iter().find(|(w, _)| *w == v) {
                Some(&(_, bound)) => {
                    if bound != t {
                        return false;
                    }
                }
                None => out.push((v, t)),
            },
            (Node::Con(n), Node::Con(m)) if n == m => {}
            (Node::App(f1, a1), Node::App(f2, a2)) | (Node::Fun(f1, a1), Node::Fun(f2, a2)) => {
                work.push((a1, a2));
                work.push((f1, f2));
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Unify two trees in a fresh store and substitution.
    fn unify_trees(a: &Type, b: &Type) -> (Result<(), TypeError>, Interner, Subst) {
        let (mut i, mut s) = (Interner::new(), Subst::new());
        let (a, b) = (i.intern(a), i.intern(b));
        let r = unify(&mut i, &mut s, a, b);
        (r, i, s)
    }

    fn solved(i: &mut Interner, s: &mut Subst, v: u32) -> Type {
        let t = i.var(TyVar(v));
        let t = s.apply(i, t);
        i.tree(t)
    }

    #[test]
    fn unify_simple() {
        let (r, mut i, mut s) = unify_trees(&Type::Var(TyVar(0)), &Type::int());
        r.unwrap();
        assert_eq!(solved(&mut i, &mut s, 0), Type::int());
    }

    #[test]
    fn unify_functions() {
        let a = Type::fun(Type::Var(TyVar(0)), Type::bool());
        let b = Type::fun(Type::int(), Type::Var(TyVar(1)));
        let (r, mut i, mut s) = unify_trees(&a, &b);
        r.unwrap();
        assert_eq!(solved(&mut i, &mut s, 0), Type::int());
        assert_eq!(solved(&mut i, &mut s, 1), Type::bool());
    }

    #[test]
    fn occurs_check() {
        let t = Type::list(Type::Var(TyVar(0)));
        let (r, _, _) = unify_trees(&Type::Var(TyVar(0)), &t);
        assert!(matches!(r.unwrap_err().kind, TypeErrorKind::Occurs { .. }));
    }

    #[test]
    fn mismatch_shows_both_sides_applied() {
        let a = Type::fun(Type::Var(TyVar(0)), Type::Var(TyVar(0)));
        let b = Type::fun(Type::list(Type::int()), Type::bool());
        let (r, _, _) = unify_trees(&a, &b);
        let e = r.unwrap_err();
        assert_eq!(
            e.to_string(),
            "type mismatch: expected `List Int`, found `Bool`"
        );
    }

    #[test]
    fn equal_ids_are_one_unit_and_distinct_walks_are_charged() {
        let arrows =
            |depth: usize, leaf: Type| (0..depth).fold(leaf, |acc, _| Type::fun(Type::int(), acc));
        // Equal sides cost one unit, ground or not, however large.
        for leaf in [Type::bool(), Type::Var(TyVar(0))] {
            let big = arrows(UNIFY_BUDGET, leaf);
            let (r, _, _) = unify_trees(&big, &big);
            r.unwrap();
            std::mem::forget(big);
        }
        // Sides that differ only at their last node are walked pair by
        // pair: 2 * depth + 1 units.
        for (depth, fits) in [(UNIFY_BUDGET / 2 - 1, true), (UNIFY_BUDGET / 2, false)] {
            let (a, b) = (arrows(depth, Type::bool()), arrows(depth, Type::int()));
            let (r, _, _) = unify_trees(&a, &b);
            let kind = r.unwrap_err().kind;
            assert_eq!(
                matches!(kind, TypeErrorKind::Mismatch { .. }),
                fits,
                "{kind:?}"
            );
            std::mem::forget((a, b));
        }
    }

    /// Match two trees in a fresh store: the bindings as trees, or
    /// `None` on failure.
    fn match_trees(p: &Type, t: &Type) -> Option<HashMap<TyVar, Type>> {
        let mut types = Interner::new();
        let (p, t) = (types.intern(p), types.intern(t));
        let (mut out, mut work) = (Vec::new(), Vec::new());
        match_ids(&types, p, t, &mut out, &mut work)
            .then(|| out.iter().map(|&(v, t)| (v, types.tree(t))).collect())
    }

    #[test]
    fn match_is_one_way() {
        // Pattern `List a` matches target `List Int` ...
        let p = Type::list(Type::Var(TyVar(0)));
        let t = Type::list(Type::int());
        let s = match_trees(&p, &t).unwrap();
        assert_eq!(s[&TyVar(0)], Type::int());
        // ... but target variables are rigid: `List Int` vs `List a` fails.
        assert!(match_trees(&t, &p).is_none());
        // A variable-headed pattern binds the head.
        let f = Type::App(Box::new(Type::Var(TyVar(1))), Box::new(Type::int()));
        let s = match_trees(&f, &t).unwrap();
        assert_eq!(s[&TyVar(1)], Type::Con("List".into()));
        // Shapes must agree.
        assert!(match_trees(&p, &Type::fun(Type::int(), Type::int())).is_none());
    }

    #[test]
    fn match_conflicting_binding_fails() {
        // a -> a vs Int -> Bool
        let p = Type::fun(Type::Var(TyVar(0)), Type::Var(TyVar(0)));
        assert!(match_trees(&p, &Type::fun(Type::int(), Type::bool())).is_none());
        let s = match_trees(&p, &Type::fun(Type::bool(), Type::bool())).unwrap();
        assert_eq!(s[&TyVar(0)], Type::bool());
    }

    #[test]
    fn deep_unify_no_stack_overflow() {
        let (mut i, mut s) = (Interner::new(), Subst::new());
        let mut a = i.var(TyVar(0));
        let mut b = i.var(TyVar(1));
        let int = i.intern(&Type::int());
        for _ in 0..10_000 {
            a = i.fun(int, a);
            b = i.fun(int, b);
        }
        unify(&mut i, &mut s, a, b).unwrap();
    }

    #[test]
    fn doubling_chains_bind_cheaply_and_exhaust_the_budget_when_compared() {
        // t_k ~ (t_{k+1}, t_{k+1}) doubles t0's tree with every bind,
        // but each bind is one link. Unifying two such chains compares
        // their trees, which runs out of work long before it ends.
        let (mut i, mut s) = (Interner::new(), Subst::new());
        let pair = i.con_named("Pair");
        let chain = |i: &mut Interner, s: &mut Subst, base: u32| {
            for k in base..base + 64 {
                let (v, next) = (i.var(TyVar(k)), i.var(TyVar(k + 1)));
                let half = i.app(pair, next);
                let rhs = i.app(half, next);
                unify(i, s, v, rhs).unwrap();
            }
            i.var(TyVar(base))
        };
        let (a, b) = (chain(&mut i, &mut s, 0), chain(&mut i, &mut s, 100));
        assert!(i.len() < 600, "{} store nodes", i.len());
        let r = unify(&mut i, &mut s, a, b);
        assert_eq!(r.unwrap_err().kind, TypeErrorKind::BudgetExhausted);
    }
}
