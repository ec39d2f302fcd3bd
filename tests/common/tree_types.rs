//! The tree-based substitution and unifier that inference ran on before
//! it moved onto interned type ids, kept as the reference the id-based
//! [`Subst`] and `unify` are tested against in lockstep.
//!
//! [`FullScanSubst`] is the substitution as it was before `Subst` grew
//! its occurrence index: a bind applies the map to the new range, then
//! scans every entry and rewrites those that mention the bound variable.
//! [`unify`] is the tree walker unchanged, over [`FullScanSubst`].

use std::collections::HashMap;
use typeclasses::syntax::Span;
use typeclasses::types::{Subst, SubstOverflow, TyVar, Type, TypeError, TypeErrorKind};

/// The node accounting is `Subst`'s: a bind may create at most
/// `MAX_NODES - (nodes - group_floor)` nodes (the new range plus every
/// rewritten entry), and at most `MAX_TOTAL_NODES - nodes`, or it fails
/// and changes nothing; `start_group` moves the floor up to the current
/// count.
#[derive(Default)]
pub struct FullScanSubst {
    pub map: HashMap<TyVar, Type>,
    pub nodes: usize,
    group_floor: usize,
    /// Bumped on every successful `bind`.
    generation: u64,
}

impl FullScanSubst {
    pub fn start_group(&mut self) {
        self.group_floor = self.nodes;
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn bind(&mut self, v: TyVar, t: &Type) -> Result<(), SubstOverflow> {
        let charged = self.nodes.saturating_sub(self.group_floor);
        let budget = Subst::MAX_NODES
            .saturating_sub(charged)
            .min(Subst::MAX_TOTAL_NODES.saturating_sub(self.nodes));
        // Count before building, so the bind that overflows never
        // builds its oversized types.
        let t_size = size_after(t, &|w| self.map.get(&w));
        let users: Vec<TyVar> = self
            .map
            .iter()
            .filter(|(_, range)| range.contains_var(v))
            .map(|(k, _)| *k)
            .collect();
        let mut needed = t_size;
        for k in &users {
            let old = &self.map[k];
            needed += old.size() + old.occurrences(v) * (t_size - 1);
        }
        if needed > budget {
            return Err(SubstOverflow);
        }
        let t = rebuild(t, &|w| self.map.get(&w));
        for k in users {
            let new = rebuild(&self.map[&k], &|w| (w == v).then_some(&t));
            self.put(k, new);
        }
        self.put(v, t);
        self.generation += 1;
        Ok(())
    }

    fn put(&mut self, k: TyVar, range: Type) {
        let added = range.size();
        let removed = self.map.insert(k, range).map_or(0, |old| old.size());
        self.nodes = self.nodes.saturating_add(added).saturating_sub(removed);
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

/// `rebuild(t, lookup).size()`, without building it.
fn size_after<'a>(t: &Type, lookup: &dyn Fn(TyVar) -> Option<&'a Type>) -> usize {
    match t {
        Type::Var(w) => lookup(*w).map_or(1, Type::size),
        Type::Con(_) => 1,
        Type::App(a, b) | Type::Fun(a, b) => 1 + size_after(a, lookup) + size_after(b, lookup),
    }
}

/// Upper bound on unification work items for one `unify` call.
pub const UNIFY_BUDGET: usize = 100_000;

/// Unify `a` and `b` under (and extending) `subst`: the tree walker.
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
                subst.bind(v, &t).map_err(|_| TypeError {
                    kind: TypeErrorKind::BudgetExhausted,
                    span: Span::DUMMY,
                })?;
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
