//! Substitutions: finite maps from type variables to types.

use crate::ty::{TyVar, Type};
use std::collections::{BTreeSet, HashMap};

/// Binding failed because the substitution would exceed its node
/// budget. This happens only on adversarial inputs whose solved types
/// are exponentially large (e.g. `t0 ~ (t1,t1), t1 ~ (t2,t2), ...`);
/// callers surface it as a "types too large" diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstOverflow;

/// An idempotent substitution. The invariant is that no type in the
/// range mentions a variable in the domain, which makes
/// [`Subst::apply`] a single pass.
///
/// [`Subst::bind`] keeps the invariant by rewriting the range entries
/// that mention the newly bound variable. A reverse occurrence index
/// finds those entries, so a bind costs the size of what it rewrites,
/// not the size of the whole substitution.
///
/// Idempotent substitutions can grow exponentially on pathological
/// unification problems, so the total number of stored type nodes is
/// capped ([`Subst::MAX_NODES`]); a bind that would exceed the cap
/// fails with [`SubstOverflow`] and leaves the substitution unchanged.
#[derive(Debug, Clone, Default)]
pub struct Subst {
    map: HashMap<TyVar, Type>,
    /// Reverse occurrence index. For every domain key `k` and every
    /// variable `w` in `map[k]`, `occurs[w]` lists `k`. A list may also
    /// repeat keys or hold keys whose range no longer mentions `w`;
    /// `bind` dedups the list and filters it with `contains_var`. A
    /// variable's list is dropped once that variable is bound.
    occurs: HashMap<TyVar, Vec<TyVar>>,
    /// Total `Type::size()` over all range entries.
    nodes: usize,
    /// Bumped on every successful `bind`; lets callers skip re-applying
    /// the substitution to values normalized under an older generation.
    generation: u64,
}

impl Subst {
    /// Upper bound on total stored type nodes. Generous for real
    /// programs (a whole prelude's worth of types is a few thousand
    /// nodes) and small enough to stop exponential blowups in
    /// milliseconds.
    pub const MAX_NODES: usize = 500_000;

    pub fn new() -> Self {
        Subst::default()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn lookup(&self, v: TyVar) -> Option<&Type> {
        self.map.get(&v)
    }

    /// Bind `v := t`, first applying the current substitution to `t`
    /// and then rewriting existing range entries that mention `v`.
    /// Keeping the substitution idempotent on every bind makes `apply`
    /// a single non-chasing pass.
    pub fn bind(&mut self, v: TyVar, t: Type) -> Result<(), SubstOverflow> {
        let mut budget = Self::MAX_NODES.saturating_sub(self.nodes);
        let t = rewrite(&t, |w| self.map.get(&w), &mut budget).ok_or(SubstOverflow)?;

        // Rewrite the entries the index names so no range type mentions
        // `v`. Compute all updates first so a mid-way overflow leaves
        // the substitution untouched.
        let users: &[TyVar] = match self.occurs.get_mut(&v) {
            Some(users) => {
                users.sort_unstable();
                users.dedup();
                users
            }
            None => &[],
        };
        let mut updates: Vec<(TyVar, Type)> = Vec::new();
        for k in users {
            if let Some(old) = self.map.get(k).filter(|old| old.contains_var(v)) {
                let new = rewrite(old, |w| if w == v { Some(&t) } else { None }, &mut budget)
                    .ok_or(SubstOverflow)?;
                updates.push((*k, new));
            }
        }
        // Drop `v`'s list before storing: if `t` mentions `v`, storing
        // rebuilds it from the entries that now do.
        self.occurs.remove(&v);
        let vars = t.free_vars();
        for (k, new) in updates {
            self.store(k, new, &vars);
        }
        self.store(v, t, &vars);
        self.generation = self.generation.wrapping_add(1);
        Ok(())
    }

    /// Insert `k := ty`, indexing `k` under `vars` (every variable `ty`
    /// may have gained) and keeping the node count.
    fn store(&mut self, k: TyVar, ty: Type, vars: &BTreeSet<TyVar>) {
        for w in vars {
            self.occurs.entry(*w).or_default().push(k);
        }
        let added = ty.size();
        let removed = self.map.insert(k, ty).map(|o| o.size()).unwrap_or(0);
        self.nodes = self.nodes.saturating_add(added).saturating_sub(removed);
    }

    /// Monotone counter of successful binds; see the field docs.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Apply the substitution to a type. Iterative (explicit stack +
    /// rebuild), so deep types cannot overflow the native stack, and
    /// non-chasing thanks to the idempotency invariant.
    pub fn apply(&self, t: &Type) -> Type {
        if self.map.is_empty() {
            return t.clone();
        }
        let mut budget = usize::MAX;
        rewrite(t, |w| self.map.get(&w), &mut budget).unwrap_or_else(|| t.clone())
    }

    pub fn iter(&self) -> impl Iterator<Item = (&TyVar, &Type)> {
        self.map.iter()
    }
}

/// Iteratively rebuild `t`, replacing each variable `v` by `lookup(v)`
/// when defined. Decrements `budget` per output node; returns `None`
/// if the budget runs out.
fn rewrite<'a>(
    t: &'a Type,
    lookup: impl Fn(TyVar) -> Option<&'a Type>,
    budget: &mut usize,
) -> Option<Type> {
    enum Frame<'b> {
        Visit(&'b Type),
        BuildApp,
        BuildFun,
    }
    let mut work = vec![Frame::Visit(t)];
    let mut out: Vec<Type> = Vec::new();
    while let Some(frame) = work.pop() {
        match frame {
            Frame::Visit(ty) => match ty {
                Type::Var(v) => {
                    let rep = lookup(*v).cloned().unwrap_or_else(|| ty.clone());
                    let sz = rep.size();
                    if *budget < sz {
                        return None;
                    }
                    *budget -= sz;
                    out.push(rep);
                }
                Type::Con(_) => {
                    if *budget == 0 {
                        return None;
                    }
                    *budget -= 1;
                    out.push(ty.clone());
                }
                Type::App(a, b) => {
                    if *budget == 0 {
                        return None;
                    }
                    *budget -= 1;
                    work.push(Frame::BuildApp);
                    work.push(Frame::Visit(b));
                    work.push(Frame::Visit(a));
                }
                Type::Fun(a, b) => {
                    if *budget == 0 {
                        return None;
                    }
                    *budget -= 1;
                    work.push(Frame::BuildFun);
                    work.push(Frame::Visit(b));
                    work.push(Frame::Visit(a));
                }
            },
            Frame::BuildApp | Frame::BuildFun => {
                // Children were pushed a-then-b, so b pops second.
                let b = out.pop();
                let a = out.pop();
                match (a, b) {
                    (Some(a), Some(b)) => {
                        let node = if matches!(frame, Frame::BuildApp) {
                            Type::App(Box::new(a), Box::new(b))
                        } else {
                            Type::Fun(Box::new(a), Box::new(b))
                        };
                        out.push(node);
                    }
                    // Unreachable by construction; degrade gracefully.
                    _ => out.push(Type::Con("<subst-error>".into())),
                }
            }
        }
    }
    out.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_is_idempotent() {
        let mut s = Subst::new();
        s.bind(TyVar(0), Type::fun(Type::Var(TyVar(1)), Type::int()))
            .unwrap();
        s.bind(TyVar(1), Type::bool()).unwrap();
        // t0 must now resolve to Bool -> Int in ONE apply pass.
        let t = s.apply(&Type::Var(TyVar(0)));
        assert_eq!(t, Type::fun(Type::bool(), Type::int()));
    }

    #[test]
    fn apply_deep_type() {
        let mut s = Subst::new();
        s.bind(TyVar(0), Type::int()).unwrap();
        let mut t = Type::Var(TyVar(0));
        for _ in 0..100_000 {
            t = Type::fun(Type::bool(), t);
        }
        let applied = s.apply(&t);
        assert!(applied.size() > 100_000);
        std::mem::forget(applied);
        std::mem::forget(t);
    }

    #[test]
    fn doubling_chain_overflows_cleanly() {
        // t_i := (t_{i+1}, t_{i+1}) — entry for t0 doubles on every
        // bind. Must fail with SubstOverflow long before OOM.
        let pair = |a: Type, b: Type| Type::App(Box::new(a), Box::new(b));
        let mut s = Subst::new();
        let mut overflowed = false;
        for i in 0..64u32 {
            let rhs = pair(Type::Var(TyVar(i + 1)), Type::Var(TyVar(i + 1)));
            if s.bind(TyVar(i), rhs).is_err() {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "doubling chain must hit the node cap");
    }
}
