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
/// unification problems, so the number of stored type nodes is capped
/// ([`Subst::MAX_NODES`]); a bind that would exceed the cap fails with
/// [`SubstOverflow`] and leaves the substitution unchanged. The cap is
/// charged per group: [`Subst::start_group`] forgives every node stored
/// before it, so one program-wide substitution caps each top-level
/// binding group on its own, not the sum of all finished groups.
/// Finished groups' entries stay stored, though, so the sum has a
/// ceiling of its own, [`Subst::MAX_TOTAL_NODES`]: the memory one
/// program's substitution holds is bounded however many groups it has.
#[derive(Debug, Clone, Default)]
pub struct Subst {
    map: HashMap<TyVar, Type>,
    /// Reverse occurrence index. For every domain key `k` and every
    /// variable `w` in `map[k]`, `occurs[w]` lists `k`. A list may also
    /// repeat keys or hold keys whose range no longer mentions `w`;
    /// `bind` dedups the list and filters it with `contains_var`. A
    /// variable's list is dropped once that variable is bound.
    occurs: HashMap<TyVar, Vec<TyVar>>,
    /// Total `Type::size()` over all range entries, plus the nodes
    /// charged from outside ([`Subst::charge`]).
    nodes: usize,
    /// `nodes` when the current group started; only nodes above it are
    /// charged against [`Subst::MAX_NODES`].
    group_floor: usize,
    /// Bumped on every successful `bind`; lets callers skip re-applying
    /// the substitution to values normalized under an older generation.
    generation: u64,
}

impl Subst {
    /// Upper bound on the type nodes one group may add. Generous for
    /// real programs (a whole prelude's worth of types is a few
    /// thousand nodes) and small enough to stop exponential blowups in
    /// milliseconds.
    pub const MAX_NODES: usize = 500_000;

    /// Upper bound on the type nodes the substitution holds over all
    /// groups together. A program of many moderate groups (thousands of
    /// copies of a binding with a 3,000-node type) stops here, where each
    /// group alone would fit [`Subst::MAX_NODES`].
    pub const MAX_TOTAL_NODES: usize = 2 * Self::MAX_NODES;

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

    /// Start a new group: nodes stored so far stop counting against
    /// [`Subst::MAX_NODES`]. Elaboration calls this before each
    /// top-level binding group and each instance method body.
    pub fn start_group(&mut self) {
        self.group_floor = self.nodes;
    }

    /// Nodes the current group has added, as charged against
    /// [`Subst::MAX_NODES`].
    pub fn group_nodes(&self) -> usize {
        self.nodes.saturating_sub(self.group_floor)
    }

    /// Nodes held, as charged against [`Subst::MAX_TOTAL_NODES`].
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Charge `nodes` stored elsewhere against
    /// [`Subst::MAX_TOTAL_NODES`] as if they were held here (but not
    /// against the current group's cap). A program elaborated on top of
    /// another (the prelude snapshot) is charged what the other's
    /// elaboration stored, so it reaches the ceiling where elaborating
    /// the two as one text would.
    pub fn charge(&mut self, nodes: usize) {
        self.nodes = self.nodes.saturating_add(nodes);
        self.group_floor = self.group_floor.saturating_add(nodes);
    }

    /// Bind `v := t`, first applying the current substitution to `t`
    /// and then rewriting existing range entries that mention `v`.
    /// Keeping the substitution idempotent on every bind makes `apply`
    /// a single non-chasing pass.
    pub fn bind(&mut self, v: TyVar, t: Type) -> Result<(), SubstOverflow> {
        let mut budget = Self::MAX_NODES
            .saturating_sub(self.group_nodes())
            .min(Self::MAX_TOTAL_NODES.saturating_sub(self.nodes));
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

    /// Bind `t_{base+i} := (t_{base+i+1}, t_{base+i+1})` for `i < len`;
    /// `false` as soon as a bind overflows.
    fn chain(s: &mut Subst, base: u32, len: u32) -> bool {
        (0..len).all(|i| {
            let next = || Type::Var(TyVar(base + i + 1));
            let rhs = Type::App(Box::new(next()), Box::new(next()));
            s.bind(TyVar(base + i), rhs).is_ok()
        })
    }

    #[test]
    fn start_group_forgives_earlier_nodes() {
        // Each doubling chain alone stays under the cap; run back to
        // back in one substitution, the second overflows unless a
        // group boundary separates them.
        let mut s = Subst::new();
        assert!(chain(&mut s, 0, 16));
        let first = s.group_nodes();
        assert!(first * 2 > Subst::MAX_NODES && first < Subst::MAX_NODES);
        assert!(
            !chain(&mut s, 100, 16),
            "without a boundary the cap is cumulative"
        );

        let mut s = Subst::new();
        assert!(chain(&mut s, 0, 16));
        s.start_group();
        assert_eq!(s.group_nodes(), 0);
        assert!(chain(&mut s, 100, 16), "a new group is charged from zero");
        assert!(s.len() > 30);
    }

    #[test]
    fn the_total_ceiling_caps_every_group_together() {
        // Every chain fits a group of its own, but the substitution
        // keeps them all, so the ceiling stops the sum.
        let mut s = Subst::new();
        let mut groups = 0;
        loop {
            s.start_group();
            if !chain(&mut s, groups * 100, 16) {
                break;
            }
            groups += 1;
            assert!(groups < 100, "no program-wide ceiling");
        }
        assert!(groups >= 2, "the ceiling is above one group's cap");
        assert!(s.nodes() <= Subst::MAX_TOTAL_NODES);

        // Nodes charged from outside count like stored ones.
        let mut s = Subst::new();
        s.charge(Subst::MAX_TOTAL_NODES - 3);
        assert_eq!(
            s.bind(TyVar(0), Type::fun(Type::int(), Type::int())),
            Ok(())
        );
        assert_eq!(s.bind(TyVar(1), Type::int()), Err(SubstOverflow));
        assert_eq!(s.len(), 1);
    }
}
