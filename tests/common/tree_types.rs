//! The tree-based substitution and unifier that inference ran on before
//! it moved onto interned type ids, kept as the semantic reference the
//! id-based [`typeclasses::types::Subst`] and `unify` are tested
//! against in lockstep.
//!
//! [`FullScanSubst`] is an idempotent substitution: a bind applies the
//! map to the new range, then scans every entry and rewrites those that
//! mention the bound variable, so every range is solved. [`unify`] is
//! the tree walker over it. The id-based substitution keeps union-find
//! links instead and solves a type only when it is applied; the two
//! must agree on every applied type and on every unification's outcome.

use std::collections::HashMap;
use typeclasses::syntax::Span;
use typeclasses::types::{TyVar, Type, TypeError, TypeErrorKind};

#[derive(Default)]
pub struct FullScanSubst {
    pub map: HashMap<TyVar, Type>,
    /// Bumped on every `bind`.
    generation: u64,
}

impl FullScanSubst {
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn bind(&mut self, v: TyVar, t: &Type) {
        let t = rebuild(t, &|w| self.map.get(&w));
        let users: Vec<TyVar> = self
            .map
            .iter()
            .filter(|(_, range)| range.contains_var(v))
            .map(|(k, _)| *k)
            .collect();
        for k in users {
            let new = rebuild(&self.map[&k], &|w| (w == v).then_some(&t));
            self.map.insert(k, new);
        }
        self.map.insert(v, t);
        self.generation += 1;
    }

    pub fn apply(&self, t: &Type) -> Type {
        rebuild(t, &|w| self.map.get(&w))
    }
}

/// `t` with each variable replaced by `lookup`'s answer, if any.
fn rebuild<'a>(t: &Type, lookup: &dyn Fn(TyVar) -> Option<&'a Type>) -> Type {
    match t {
        Type::Var(w) => lookup(*w).cloned().unwrap_or_else(|| t.clone()),
        Type::Con(_) => t.clone(),
        Type::App(a, b) => Type::App(Box::new(rebuild(a, lookup)), Box::new(rebuild(b, lookup))),
        Type::Fun(a, b) => Type::fun(rebuild(a, lookup), rebuild(b, lookup)),
    }
}

/// Upper bound on unification work items for one `unify` call.
pub const UNIFY_BUDGET: usize = 100_000;

/// Unify `a` and `b` under (and extending) `subst`: the tree walker,
/// one unit of the budget per pair of applied types. The id-based
/// unifier does an equal pair of ids at once, so the two agree on the
/// budget where no large subtree is equal on both sides.
pub fn unify(subst: &mut FullScanSubst, a: &Type, b: &Type) -> Result<(), TypeError> {
    // Work items carry the substitution generation they were normalized
    // under; re-applying is skipped when no bind happened since, which
    // keeps unification of large already-ground types linear.
    let mut work: Vec<(Type, Type, u64)> = vec![(a.clone(), b.clone(), 0)];
    let mut budget = UNIFY_BUDGET;
    while let Some((x, y, gen)) = work.pop() {
        if budget == 0 {
            return Err(TypeError {
                kind: TypeErrorKind::BudgetExhausted,
                span: Span::DUMMY,
            });
        }
        budget -= 1;
        let cur_gen = subst.generation();
        let (x, y) = if gen == cur_gen {
            (x, y)
        } else {
            (subst.apply(&x), subst.apply(&y))
        };
        match (x, y) {
            (Type::Var(v), Type::Var(w)) if v == w => {}
            (Type::Var(v), t) | (t, Type::Var(v)) => {
                if t.contains_var(v) {
                    return Err(TypeError {
                        kind: TypeErrorKind::Occurs { var: v, ty: t },
                        span: Span::DUMMY,
                    });
                }
                subst.bind(v, &t);
            }
            (Type::Con(n), Type::Con(m)) if n == m => {}
            (Type::App(f1, a1), Type::App(f2, a2)) => {
                work.push((*a1, *a2, cur_gen));
                work.push((*f1, *f2, cur_gen));
            }
            (Type::Fun(p1, r1), Type::Fun(p2, r2)) => {
                work.push((*r1, *r2, cur_gen));
                work.push((*p1, *p2, cur_gen));
            }
            (x, y) => {
                return Err(TypeError {
                    kind: TypeErrorKind::Mismatch {
                        expected: x,
                        found: y,
                    },
                    span: Span::DUMMY,
                });
            }
        }
    }
    Ok(())
}
