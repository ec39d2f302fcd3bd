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
/// visit them. Large enough for any sane program; small enough that an
/// adversarial exponential blowup fails in microseconds.
pub const UNIFY_BUDGET: usize = 100_000;

/// Unify `a` and `b`, two types of `types`, under (and extending)
/// `subst`.
///
/// Each side of a pair is resolved shallowly (a bound variable becomes
/// its binding, which the idempotent invariant keeps fully applied).
/// Two equal ground ids are done at once, charged their tree size, which
/// is what a walk over the two trees would spend comparing them. A
/// variable is bound to the fully applied other side. Trees are built
/// only for error messages, which show both sides fully applied.
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
        let (x, y) = (subst.resolve(types, x), subst.resolve(types, y));
        if x == y && types.is_ground(x) {
            let n = types.size(x);
            if n > budget {
                return Err(TypeError::new(TypeErrorKind::BudgetExhausted));
            }
            budget -= n;
            continue;
        }
        budget -= 1;
        match (types.node(x), types.node(y)) {
            (Node::Var(v), Node::Var(w)) if v == w => {}
            (Node::Var(v), _) => bind_var(types, subst, v, y)?,
            (_, Node::Var(v)) => bind_var(types, subst, v, x)?,
            (Node::Con(n), Node::Con(m)) if n == m => {}
            (Node::App(f1, a1), Node::App(f2, a2)) => {
                work.push((a1, a2));
                work.push((f1, f2));
            }
            (Node::Fun(p1, r1), Node::Fun(p2, r2)) => {
                work.push((r1, r2));
                work.push((p1, p2));
            }
            _ => {
                return Err(TypeError::new(TypeErrorKind::Mismatch {
                    expected: subst.apply_tree(types, x),
                    found: subst.apply_tree(types, y),
                }));
            }
        }
    }
    Ok(())
}

/// Bind the unbound variable `v` to `t`, after the occurs check.
fn bind_var(types: &mut Interner, subst: &mut Subst, v: TyVar, t: TypeId) -> Result<(), TypeError> {
    let t = subst.apply(types, t);
    if types.contains_var(t, v) {
        return Err(TypeError::new(TypeErrorKind::Occurs {
            var: v,
            ty: types.tree(t),
        }));
    }
    subst
        .bind_applied(types, v, t)
        .map_err(|_| TypeError::new(TypeErrorKind::BudgetExhausted))
}

/// One-way matching: bind variables of `pattern` so that it equals
/// `target`, treating the target's variables as rigid. Used for
/// instance lookup (`Eq (List a)` against `Eq (List Int)`). On success
/// `out` holds one binding per variable of `pattern`, each to a subterm
/// of `target`, in the order the variables are first met. Matching is
/// charged one unit of [`UNIFY_BUDGET`] per pair of nodes compared, and
/// the bound subterms together may hold at most [`Subst::MAX_NODES`]
/// nodes as trees; past either limit it fails. A failure (`false`)
/// builds no error: instance lookup tries heads until one matches, and
/// a failed try is not a diagnostic. `work` is scratch.
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
    let mut nodes = 0usize;
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
                None => {
                    nodes = nodes.saturating_add(types.size(t));
                    if nodes > Subst::MAX_NODES {
                        return false;
                    }
                    out.push((v, t));
                }
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

    fn solved(i: &mut Interner, s: &Subst, v: u32) -> Type {
        let t = i.var(TyVar(v));
        s.apply_tree(i, t)
    }

    #[test]
    fn unify_simple() {
        let (r, mut i, s) = unify_trees(&Type::Var(TyVar(0)), &Type::int());
        r.unwrap();
        assert_eq!(solved(&mut i, &s, 0), Type::int());
    }

    #[test]
    fn unify_functions() {
        let a = Type::fun(Type::Var(TyVar(0)), Type::bool());
        let b = Type::fun(Type::int(), Type::Var(TyVar(1)));
        let (r, mut i, s) = unify_trees(&a, &b);
        r.unwrap();
        assert_eq!(solved(&mut i, &s, 0), Type::int());
        assert_eq!(solved(&mut i, &s, 1), Type::bool());
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
    fn equal_ground_types_are_charged_their_size() {
        let mut big = Type::int();
        for _ in 0..UNIFY_BUDGET / 2 {
            big = Type::fun(Type::int(), big);
        }
        // 2 * (budget / 2) + 1 nodes: one more than the budget.
        let (r, _, _) = unify_trees(&big, &big);
        assert_eq!(r.unwrap_err().kind, TypeErrorKind::BudgetExhausted);
        let Type::Fun(_, smaller) = &big else {
            unreachable!()
        };
        let (r, _, _) = unify_trees(smaller, smaller);
        r.unwrap();
        std::mem::forget(big);
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
    fn exponential_blowup_hits_budget_or_occurs() {
        // t0 ~ (t1,t1), t1 ~ (t2,t2), ... produces doubling types;
        // either the occurs check or the budget must stop it quickly.
        let (mut i, mut s) = (Interner::new(), Subst::new());
        let mut r = Ok(());
        for k in 0..64u32 {
            let (v, next) = (i.var(TyVar(k)), i.var(TyVar(k + 1)));
            let rhs = i.app(next, next);
            r = unify(&mut i, &mut s, v, rhs);
            if r.is_err() {
                break;
            }
        }
        assert_eq!(r.unwrap_err().kind, TypeErrorKind::BudgetExhausted);
    }
}
