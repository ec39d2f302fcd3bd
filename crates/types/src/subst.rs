//! Substitutions: finite maps from type variables to interned types.

use crate::intern::{FastMap, Interner, Node, TypeId};
use crate::ty::{TyVar, Type};
use std::collections::BTreeSet;

/// Binding failed because the substitution would exceed its node
/// budget. This happens only on adversarial inputs whose solved types
/// are exponentially large (e.g. `t0 ~ (t1,t1), t1 ~ (t2,t2), ...`);
/// callers surface it as a "types too large" diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstOverflow;

/// An idempotent substitution over the ids of one type store (an
/// [`Interner`], passed to every call that builds types). The invariant
/// is that no type in the range mentions a variable in the domain,
/// which makes [`Subst::apply`] a single pass and lets the unifier
/// resolve a bound variable in one lookup.
///
/// [`Subst::bind`] keeps the invariant by rewriting the range entries
/// that mention the newly bound variable. A reverse occurrence index
/// finds those entries, so a bind costs the size of what it rewrites,
/// not the size of the whole substitution.
///
/// Idempotent substitutions can grow exponentially on pathological
/// unification problems, so the number of type nodes the range holds
/// is capped ([`Subst::MAX_NODES`]); a bind that would exceed the cap
/// fails with [`SubstOverflow`] and leaves the substitution unchanged.
/// Nodes are counted as trees, by the store's cached tree sizes, so an
/// entry shared by the store is charged as often as it occurs. The cap
/// is charged per group: [`Subst::start_group`] forgives every node
/// stored before it, so one program-wide substitution caps each
/// top-level binding group on its own, not the sum of all finished
/// groups. Finished groups' entries stay stored, though, so the sum has
/// a ceiling of its own, [`Subst::MAX_TOTAL_NODES`]: the memory one
/// program's substitution holds is bounded however many groups it has.
#[derive(Debug, Clone, Default)]
pub struct Subst {
    map: FastMap<TyVar, TypeId>,
    /// Reverse occurrence index. For every domain key `k` and every
    /// variable `w` in `map[k]`, `occurs[w]` lists `k`. A list may also
    /// repeat keys or hold keys whose range no longer mentions `w`;
    /// `bind` dedups the list and filters it with `contains_var`. A
    /// variable's list is dropped once that variable is bound.
    occurs: FastMap<TyVar, Vec<TyVar>>,
    /// Total tree size over all range entries, plus the nodes charged
    /// from outside ([`Subst::charge`]).
    nodes: usize,
    /// `nodes` when the current group started; only nodes above it are
    /// charged against [`Subst::MAX_NODES`].
    group_floor: usize,
    /// Work done by [`Subst::bind`]: range entries it examined plus the
    /// type nodes it stored. Always on, like [`crate::InternStats`].
    bind_work: u64,
    /// Scratch for the unifier's work list.
    pub(crate) work: Vec<(TypeId, TypeId)>,
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

    pub fn lookup(&self, v: TyVar) -> Option<TypeId> {
        self.map.get(&v).copied()
    }

    /// `t` itself, or its binding if `t` is a bound variable. By the
    /// idempotent invariant the binding is already fully applied.
    pub(crate) fn resolve(&self, types: &Interner, t: TypeId) -> TypeId {
        match types.node(t) {
            Node::Var(v) => self.lookup(v).unwrap_or(t),
            _ => t,
        }
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

    /// Range entries examined plus type nodes stored by every
    /// [`Subst::bind`] so far: linear in the binds made while the
    /// occurrence index finds the entries to rewrite.
    pub fn bind_work(&self) -> u64 {
        self.bind_work
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
    pub fn bind(&mut self, types: &mut Interner, v: TyVar, t: TypeId) -> Result<(), SubstOverflow> {
        let t = self.apply(types, t);
        self.bind_applied(types, v, t)
    }

    /// [`Subst::bind`] for a `t` the substitution is already applied to.
    pub(crate) fn bind_applied(
        &mut self,
        types: &mut Interner,
        v: TyVar,
        t: TypeId,
    ) -> Result<(), SubstOverflow> {
        let budget = Self::MAX_NODES
            .saturating_sub(self.group_nodes())
            .min(Self::MAX_TOTAL_NODES.saturating_sub(self.nodes));
        // The bind stores the new range and every rewritten entry; all
        // of it is charged, and a bind past the budget changes nothing.
        let mut needed = types.size(t);
        if needed > budget {
            return Err(SubstOverflow);
        }
        let users: &[TyVar] = match self.occurs.get_mut(&v) {
            Some(users) => {
                users.sort_unstable();
                users.dedup();
                users
            }
            None => &[],
        };
        self.bind_work = self.bind_work.saturating_add(users.len() as u64);
        let mut updates: Vec<(TyVar, TypeId)> = Vec::new();
        for &k in users {
            let Some(&old) = self.map.get(&k) else {
                continue;
            };
            if !types.contains_var(old, v) {
                continue;
            }
            let new = types.map_vars(old, |w| (w == v).then_some(t));
            needed = needed.saturating_add(types.size(new));
            if needed > budget {
                return Err(SubstOverflow);
            }
            updates.push((k, new));
        }
        // Drop `v`'s list before storing: if `t` mentions `v`, storing
        // rebuilds it from the entries that now do.
        self.occurs.remove(&v);
        self.bind_work = self.bind_work.saturating_add(needed as u64);
        let vars = types.free_vars(t);
        for (k, new) in updates {
            self.store(types, k, new, &vars);
        }
        self.store(types, v, t, &vars);
        Ok(())
    }

    /// Insert `k := ty`, indexing `k` under `vars` (every variable `ty`
    /// may have gained) and keeping the node count.
    fn store(&mut self, types: &Interner, k: TyVar, ty: TypeId, vars: &BTreeSet<TyVar>) {
        for w in vars {
            self.occurs.entry(*w).or_default().push(k);
        }
        let added = types.size(ty);
        let removed = self.map.insert(k, ty).map_or(0, |o| types.size(o));
        self.nodes = self.nodes.saturating_add(added).saturating_sub(removed);
    }

    /// Apply the substitution to a type: O(1) for a ground type,
    /// otherwise one pass over the part of `t` that mentions variables
    /// (iterative, so deep types cannot overflow the native stack), and
    /// non-chasing thanks to the idempotency invariant.
    pub fn apply(&self, types: &mut Interner, t: TypeId) -> TypeId {
        if self.map.is_empty() {
            return t;
        }
        types.map_vars(t, |w| self.lookup(w))
    }

    /// The tree of `self.apply(t)`, built without adding to the store:
    /// how an inferred type leaves the elaborator.
    pub fn apply_tree(&self, types: &Interner, t: TypeId) -> Type {
        types.tree_with(t, |v| self.lookup(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(s: &mut Subst, i: &mut Interner, v: u32, t: &Type) -> Result<(), SubstOverflow> {
        let t = i.intern(t);
        s.bind(i, TyVar(v), t)
    }

    #[test]
    fn bind_is_idempotent() {
        let (mut s, mut i) = (Subst::new(), Interner::new());
        bind(
            &mut s,
            &mut i,
            0,
            &Type::fun(Type::Var(TyVar(1)), Type::int()),
        )
        .unwrap();
        bind(&mut s, &mut i, 1, &Type::bool()).unwrap();
        // t0 must now resolve to Bool -> Int in ONE apply pass.
        let t0 = i.var(TyVar(0));
        let t = s.apply(&mut i, t0);
        assert_eq!(i.tree(t), Type::fun(Type::bool(), Type::int()));
        assert_eq!(s.apply_tree(&i, t0), Type::fun(Type::bool(), Type::int()));
    }

    #[test]
    fn apply_deep_type() {
        let (mut s, mut i) = (Subst::new(), Interner::new());
        bind(&mut s, &mut i, 0, &Type::int()).unwrap();
        let mut t = i.var(TyVar(0));
        let b = i.intern(&Type::bool());
        for _ in 0..100_000 {
            t = i.fun(b, t);
        }
        let applied = s.apply(&mut i, t);
        assert!(i.is_ground(applied));
        assert!(i.size(applied) > 100_000);
        // A ground type is its own image.
        assert_eq!(s.apply(&mut i, applied), applied);
    }

    #[test]
    fn doubling_chain_overflows_cleanly() {
        // t_i := (t_{i+1}, t_{i+1}) — entry for t0 doubles on every
        // bind. Must fail with SubstOverflow long before OOM.
        let pair = |a: Type, b: Type| Type::App(Box::new(a), Box::new(b));
        let (mut s, mut i) = (Subst::new(), Interner::new());
        let mut overflowed = false;
        for k in 0..64u32 {
            let rhs = pair(Type::Var(TyVar(k + 1)), Type::Var(TyVar(k + 1)));
            if bind(&mut s, &mut i, k, &rhs).is_err() {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "doubling chain must hit the node cap");
        // The store shares what the tree charges twice.
        assert!(i.len() < 200, "{} store nodes", i.len());
    }

    /// Bind `t_{base+i} := (t_{base+i+1}, t_{base+i+1})` for `i < len`;
    /// `false` as soon as a bind overflows.
    fn chain(s: &mut Subst, i: &mut Interner, base: u32, len: u32) -> bool {
        (0..len).all(|k| {
            let next = || Type::Var(TyVar(base + k + 1));
            let rhs = Type::App(Box::new(next()), Box::new(next()));
            bind(s, i, base + k, &rhs).is_ok()
        })
    }

    #[test]
    fn start_group_forgives_earlier_nodes() {
        // Each doubling chain alone stays under the cap; run back to
        // back in one substitution, the second overflows unless a
        // group boundary separates them.
        let (mut s, mut i) = (Subst::new(), Interner::new());
        assert!(chain(&mut s, &mut i, 0, 16));
        let first = s.group_nodes();
        assert!(first * 2 > Subst::MAX_NODES && first < Subst::MAX_NODES);
        assert!(
            !chain(&mut s, &mut i, 100, 16),
            "without a boundary the cap is cumulative"
        );

        let (mut s, mut i) = (Subst::new(), Interner::new());
        assert!(chain(&mut s, &mut i, 0, 16));
        s.start_group();
        assert_eq!(s.group_nodes(), 0);
        assert!(
            chain(&mut s, &mut i, 100, 16),
            "a new group is charged from zero"
        );
        assert!(s.len() > 30);
    }

    #[test]
    fn the_total_ceiling_caps_every_group_together() {
        // Every chain fits a group of its own, but the substitution
        // keeps them all, so the ceiling stops the sum.
        let (mut s, mut i) = (Subst::new(), Interner::new());
        let mut groups = 0;
        loop {
            s.start_group();
            if !chain(&mut s, &mut i, groups * 100, 16) {
                break;
            }
            groups += 1;
            assert!(groups < 100, "no program-wide ceiling");
        }
        assert!(groups >= 2, "the ceiling is above one group's cap");
        assert!(s.nodes() <= Subst::MAX_TOTAL_NODES);

        // Nodes charged from outside count like stored ones.
        let (mut s, mut i) = (Subst::new(), Interner::new());
        s.charge(Subst::MAX_TOTAL_NODES - 3);
        assert_eq!(
            bind(&mut s, &mut i, 0, &Type::fun(Type::int(), Type::int())),
            Ok(())
        );
        assert_eq!(bind(&mut s, &mut i, 1, &Type::int()), Err(SubstOverflow));
        assert_eq!(s.len(), 1);
    }
}
