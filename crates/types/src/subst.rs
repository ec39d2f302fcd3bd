//! Substitutions: union-find bindings from type variables to interned
//! types.

use crate::intern::{FastMap, Image, Interner, Node, TypeId};
use crate::ty::TyVar;

/// A substitution over the ids of one type store (an [`Interner`],
/// passed to every call that reads types), kept as union-find links: a
/// variable is bound once ([`Subst::bind`]), and its binding is not
/// rewritten when the variables it mentions are bound in turn.
/// [`Subst::find`] follows and compresses a chain of links, and
/// [`Subst::apply`] zonks a type on demand. Both are iterative.
///
/// The map lives beside the store, not in it, because a store can
/// outlive its substitution: coherence's overlap check unifies each
/// pair of instance heads under a fresh substitution in one store.
#[derive(Debug, Clone, Default)]
pub struct Subst {
    map: FastMap<TyVar, TypeId>,
    /// Links followed by [`Subst::find`] and [`Subst::apply`]. Always
    /// on, like [`crate::InternStats`].
    links: u64,
    /// Scratch for the unifier's work list.
    pub(crate) work: Vec<(TypeId, TypeId)>,
}

impl Subst {
    pub fn new() -> Self {
        Subst::default()
    }

    /// Links followed by every [`Subst::find`] and [`Subst::apply`] so
    /// far: about one per lookup while paths stay compressed.
    pub fn links(&self) -> u64 {
        self.links
    }

    /// Bind the unbound variable `v` to `t`. The caller has made sure
    /// `v` does not occur in `t` (the occurs check).
    pub fn bind(&mut self, v: TyVar, t: TypeId) {
        debug_assert!(!self.map.contains_key(&v), "{v} is bound already");
        self.map.insert(v, t);
    }

    /// `t`, or, if `t` is a bound variable, the end of its chain of
    /// links: an unbound variable, or a type that is not a variable
    /// (whose own variables may still be bound). Every variable on the
    /// way is then linked straight to the end.
    pub fn find(&mut self, types: &Interner, t: TypeId) -> TypeId {
        let Node::Var(v) = types.node(t) else {
            return t;
        };
        let Some(&first) = self.map.get(&v) else {
            return t;
        };
        let mut end = first;
        self.links = self.links.saturating_add(1);
        while let Node::Var(w) = types.node(end) {
            let Some(&next) = self.map.get(&w) else {
                break;
            };
            self.links = self.links.saturating_add(1);
            end = next;
        }
        if end == first {
            return end;
        }
        let mut at = t;
        while let Node::Var(v) = types.node(at) {
            match self.map.get_mut(&v) {
                Some(next) if *next != end => at = std::mem::replace(next, end),
                _ => break,
            }
        }
        end
    }

    /// Zonk `t`: the type with every bound variable replaced, through
    /// every link, by its solved binding, which is written back. O(1)
    /// for a ground type; otherwise one walk over the store nodes `t`
    /// reaches.
    pub fn apply(&mut self, types: &mut Interner, t: TypeId) -> TypeId {
        let end = self.find(types, t);
        if types.is_ground(end) || matches!(types.node(end), Node::Var(_)) {
            types.count_visit();
            return end;
        }
        let solved = types.rebuild_vars(end, |v, solved| match solved {
            Some(solved) => {
                self.map.insert(v, solved);
                Image::Keep
            }
            None => match self.map.get(&v) {
                Some(&bound) => {
                    self.links = self.links.saturating_add(1);
                    Image::Through(bound)
                }
                None => Image::Keep,
            },
        });
        if let (Node::Var(v), true) = (types.node(t), solved != end) {
            self.map.insert(v, solved);
        }
        solved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::Type;

    fn bind(s: &mut Subst, i: &mut Interner, v: u32, t: &Type) {
        let t = i.intern(t);
        s.bind(TyVar(v), t);
    }

    #[test]
    fn apply_solves_through_later_binds() {
        let (mut s, mut i) = (Subst::new(), Interner::new());
        bind(
            &mut s,
            &mut i,
            0,
            &Type::fun(Type::Var(TyVar(1)), Type::int()),
        );
        bind(&mut s, &mut i, 1, &Type::bool());
        // t0's binding still mentions t1; applying solves it.
        let t0 = i.var(TyVar(0));
        let t = s.apply(&mut i, t0);
        assert_eq!(i.tree(t), Type::fun(Type::bool(), Type::int()));
        // The solved binding was written back: the next walk follows
        // one link to a ground type.
        let links = s.links();
        assert_eq!(s.apply(&mut i, t0), t);
        assert_eq!(s.links() - links, 1);
    }

    #[test]
    fn apply_deep_type() {
        let (mut s, mut i) = (Subst::new(), Interner::new());
        bind(&mut s, &mut i, 0, &Type::int());
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
    fn long_chains_are_followed_once_and_compressed() {
        // t0 -> t1 -> ... -> t16000, each bound to the next: the walks
        // are iterative, and after one of them every variable on the
        // chain links straight to its end.
        let (mut s, mut i) = (Subst::new(), Interner::new());
        let n = 16_000;
        for k in 0..n {
            let next = i.var(TyVar(k + 1));
            s.bind(TyVar(k), next);
        }
        let (t0, end) = (i.var(TyVar(0)), i.var(TyVar(n)));
        assert_eq!(s.find(&i, t0), end);
        assert_eq!(s.links(), u64::from(n));
        let t1 = i.var(TyVar(1));
        assert_eq!(s.find(&i, t1), end);
        assert_eq!(s.links(), u64::from(n) + 1);

        // The same chain applied inside a type.
        let (mut s2, list) = (Subst::new(), i.con_named("List"));
        for k in 0..n {
            let next = i.var(TyVar(k + 1));
            s2.bind(TyVar(k), next);
        }
        let wrapped = i.app(list, t0);
        let solved = s2.apply(&mut i, wrapped);
        assert_eq!(i.node(solved), Node::App(list, end));
        assert_eq!(s2.find(&i, t1), end);
    }

    #[test]
    fn a_doubling_chain_is_solved_as_a_shared_graph() {
        // t_k := (t_{k+1}, t_{k+1}): t0's tree doubles with every bind,
        // but its store nodes grow by one, and so does the walk.
        let (mut s, mut i) = (Subst::new(), Interner::new());
        let pair = i.con_named("Pair");
        for k in 0..64u32 {
            let next = i.var(TyVar(k + 1));
            let half = i.app(pair, next);
            let both = i.app(half, next);
            s.bind(TyVar(k), both);
        }
        let before = i.len();
        let t0 = i.var(TyVar(0));
        let solved = s.apply(&mut i, t0);
        assert_eq!(i.size(solved), u32::MAX as usize, "the tree size saturates");
        assert!(i.len() - before <= 2 * 64, "{} nodes", i.len() - before);
        assert!(i.stats().map_visits < 2_000, "{:?}", i.stats());
        assert_eq!(i.tree(solved), Type::elided());
    }
}
