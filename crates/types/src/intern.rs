//! Hash-consed types: the elaborator's type store.
//!
//! An [`Interner`] maps every distinct type (and every distinct name)
//! to a dense `u32` id, sharing identical subtrees. Inference runs on
//! these ids: copying a type is copying a [`TypeId`], two types are
//! equal iff their ids are, and the substitution and unifier
//! ([`crate::Subst`], [`crate::unify`]) rebuild only the parts of a
//! type that actually change. Instance resolution runs on the same ids:
//! its memo table is keyed by `(class, type)` id pairs of the
//! elaborator's store, so a goal is two machine words and key
//! comparison is two integer compares.
//!
//! Interning is structural and append-only: ids are stable for the
//! lifetime of the interner, and interning the same type twice returns
//! the same id. Alongside each node the interner caches:
//! * its tree size (the number of nodes of the [`Type`] it stands for,
//!   saturating), which the substitution charges against its node
//!   budget;
//! * whether it is *ground* (mentions no type variable), so applying a
//!   substitution to a ground type, or unifying it with itself, needs
//!   no traversal;
//! * whether it is *pure*: ground and free of rigid skolem constants
//!   (`$`-prefixed constructors). Only pure goals are safe to memoize
//!   across resolution calls: anything mentioning a variable or a
//!   signature skolem can be satisfied differently under different
//!   assumption sets.
//!
//! No traversal recurses natively in proportion to type depth: each
//! works on an explicit stack, reused across calls.

use crate::pred::{IdPred, Pred};
use crate::ty::{TyVar, Type};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Id of an interned name (type-constructor or class name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// Id of an interned type node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// One hash-consed node. Children are ids, so structural sharing is
/// automatic: `List Int` inside `List (List Int)` is stored once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    Var(TyVar),
    Con(NameId),
    App(TypeId, TypeId),
    Fun(TypeId, TypeId),
}

/// A multiply-rotate hasher for small fixed-size keys made of ids the
/// process hands out itself (nodes, type variables); several times
/// cheaper than the default SipHash on them. It is not
/// collision-resistant against keys an adversary chooses, so tables
/// keyed by text from a program (names) keep the default hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// What the store caches per node.
#[derive(Debug, Clone, Copy)]
struct Info {
    node: Node,
    /// Tree size, saturating at `u32::MAX`.
    size: u32,
    ground: bool,
    pure: bool,
}

/// Counters describing the interner's traffic: how many type-node
/// interning requests were answered from the hash-cons table versus
/// allocated fresh, and how many nodes [`Interner::map_vars`] (the walk
/// behind [`crate::Subst::apply`]) visited. Always on — an integer add
/// per node is cheaper than a branch — and surfaced through the metrics
/// registry when metrics collection is enabled (`tc-types` itself stays
/// dependency-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Node requests answered by the table (structural sharing wins).
    pub hits: u64,
    /// Nodes interned fresh (table growth).
    pub fresh: u64,
    /// Nodes [`Interner::map_vars`] looked at, ground roots included.
    pub map_visits: u64,
}

/// A step of [`Interner::map_vars`]'s post-order rebuild.
#[derive(Debug, Clone, Copy)]
enum Step {
    Visit(TypeId),
    /// Rebuild node `id` from the top two results.
    Build(TypeId),
}

/// The hash-consing table for types and names.
#[derive(Debug, Default)]
pub struct Interner {
    info: Vec<Info>,
    node_map: FastMap<Node, TypeId>,
    names: Vec<Box<str>>,
    /// Keyed by program text, so hashed with the default SipHash.
    name_map: HashMap<Box<str>, NameId>,
    stats: InternStats,
    /// Scratch stacks, kept between traversals so a traversal does not
    /// allocate once the store has warmed up.
    ids: Vec<TypeId>,
    steps: Vec<Step>,
}

impl Interner {
    pub fn new() -> Self {
        Interner::default()
    }

    /// Number of distinct type nodes interned so far.
    pub fn len(&self) -> usize {
        self.info.len()
    }

    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }

    /// Intern a name (class or constructor), returning its dense id.
    pub fn intern_name(&mut self, name: &str) -> NameId {
        if let Some(id) = self.name_map.get(name) {
            return *id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.into());
        self.name_map.insert(name.into(), id);
        id
    }

    /// The string behind a name id.
    pub fn name(&self, id: NameId) -> Option<&str> {
        self.names.get(id.0 as usize).map(|s| &**s)
    }

    /// Hit/fresh counters for every node request so far.
    pub fn stats(&self) -> InternStats {
        self.stats
    }

    fn info(&self, id: TypeId) -> Info {
        self.info.get(id.0 as usize).copied().unwrap_or(Info {
            // Ids come from this store; a foreign one reads as an
            // unbound variable rather than panicking.
            node: Node::Var(TyVar(u32::MAX)),
            size: 1,
            ground: false,
            pure: false,
        })
    }

    fn mk(&mut self, node: Node) -> TypeId {
        if let Some(id) = self.node_map.get(&node) {
            self.stats.hits = self.stats.hits.saturating_add(1);
            return *id;
        }
        self.stats.fresh = self.stats.fresh.saturating_add(1);
        let (size, ground, pure) = match node {
            Node::Var(_) => (1, false, false),
            Node::Con(n) => (1, true, !self.name(n).is_some_and(|s| s.starts_with('$'))),
            Node::App(a, b) | Node::Fun(a, b) => {
                let (a, b) = (self.info(a), self.info(b));
                (
                    a.size.saturating_add(b.size).saturating_add(1),
                    a.ground && b.ground,
                    a.pure && b.pure,
                )
            }
        };
        let id = TypeId(self.info.len() as u32);
        self.info.push(Info {
            node,
            size,
            ground,
            pure,
        });
        self.node_map.insert(node, id);
        id
    }

    /// The type variable `v`.
    pub fn var(&mut self, v: TyVar) -> TypeId {
        self.mk(Node::Var(v))
    }

    /// The constructor spelled `name`.
    pub fn con_named(&mut self, name: &str) -> TypeId {
        let n = self.intern_name(name);
        self.mk(Node::Con(n))
    }

    /// The application `f a`.
    pub fn app(&mut self, f: TypeId, a: TypeId) -> TypeId {
        self.mk(Node::App(f, a))
    }

    /// The function type `a -> b`.
    pub fn fun(&mut self, a: TypeId, b: TypeId) -> TypeId {
        self.mk(Node::Fun(a, b))
    }

    /// The node behind an id.
    pub fn node(&self, id: TypeId) -> Node {
        self.info(id).node
    }

    /// Nodes of the tree `id` stands for (saturating), in O(1).
    pub fn size(&self, id: TypeId) -> usize {
        self.info(id).size as usize
    }

    /// Does the type mention no type variable? O(1).
    pub fn is_ground(&self, id: TypeId) -> bool {
        self.info(id).ground
    }

    /// Is the node ground and skolem-free (safe to memoize on)?
    pub fn is_pure(&self, id: TypeId) -> bool {
        self.info(id).pure
    }

    /// Intern a structural type, one node request per tree node (the
    /// hit/fresh counters count each). Iterative post-order traversal:
    /// recursion depth must not scale with type size (deep curried
    /// chains are routine in adversarial inputs).
    pub fn intern(&mut self, t: &Type) -> TypeId {
        enum Frame<'a> {
            Enter(&'a Type),
            Exit(&'a Type),
        }
        let mut work = vec![Frame::Enter(t)];
        let mut out = std::mem::take(&mut self.ids);
        while let Some(f) = work.pop() {
            match f {
                Frame::Enter(t) => match t {
                    Type::Var(v) => {
                        let id = self.var(*v);
                        out.push(id);
                    }
                    Type::Con(n) => {
                        let id = self.con_named(n);
                        out.push(id);
                    }
                    Type::App(a, b) | Type::Fun(a, b) => {
                        work.push(Frame::Exit(t));
                        work.push(Frame::Enter(b));
                        work.push(Frame::Enter(a));
                    }
                },
                Frame::Exit(t) => {
                    // Children were pushed left-then-right, so they pop
                    // right-then-left.
                    let (Some(b), Some(a)) = (out.pop(), out.pop()) else {
                        // Unreachable by construction; keep total anyway.
                        continue;
                    };
                    let node = match t {
                        Type::App(..) => Node::App(a, b),
                        _ => Node::Fun(a, b),
                    };
                    let id = self.mk(node);
                    out.push(id);
                }
            }
        }
        // A non-empty traversal always leaves exactly one result; fall
        // back to a throwaway node rather than panicking.
        let id = out.pop();
        out.clear();
        self.ids = out;
        id.unwrap_or_else(|| self.var(TyVar(u32::MAX)))
    }

    /// Intern a predicate's class name and type.
    pub fn intern_pred(&mut self, p: &Pred) -> IdPred {
        IdPred {
            class: self.intern_name(&p.class),
            ty: self.intern(&p.ty),
            span: p.span,
        }
    }

    /// The structural type behind an id. Iterative, like [`Interner::intern`].
    pub fn tree(&self, id: TypeId) -> Type {
        self.tree_with(id, |_| None)
    }

    /// The structural type behind `id`, with every variable `v` for
    /// which `f(v)` answers replaced by the tree of the answer.
    pub(crate) fn tree_with(&self, id: TypeId, f: impl Fn(TyVar) -> Option<TypeId>) -> Type {
        let mut work = vec![Step::Visit(id)];
        let mut out: Vec<Type> = Vec::new();
        while let Some(step) = work.pop() {
            match step {
                Step::Visit(id) => match self.node(id) {
                    Node::Var(v) => out.push(match f(v) {
                        Some(b) => self.tree(b),
                        None => Type::Var(v),
                    }),
                    Node::Con(n) => out.push(Type::Con(self.name(n).unwrap_or("?").to_string())),
                    Node::App(a, b) | Node::Fun(a, b) => {
                        work.push(Step::Build(id));
                        work.push(Step::Visit(b));
                        work.push(Step::Visit(a));
                    }
                },
                Step::Build(id) => {
                    let (Some(b), Some(a)) = (out.pop(), out.pop()) else {
                        continue;
                    };
                    out.push(match self.node(id) {
                        Node::App(..) => Type::App(Box::new(a), Box::new(b)),
                        _ => Type::Fun(Box::new(a), Box::new(b)),
                    });
                }
            }
        }
        out.pop().unwrap_or(Type::Var(TyVar(u32::MAX)))
    }

    /// `t` with every variable `v` for which `f(v)` answers replaced by
    /// the answer. Ground subtrees are never entered, and a subtree
    /// with nothing replaced keeps its id, so the cost is the size of
    /// the part of `t` that mentions variables.
    pub fn map_vars(&mut self, t: TypeId, mut f: impl FnMut(TyVar) -> Option<TypeId>) -> TypeId {
        self.stats.map_visits = self.stats.map_visits.saturating_add(1);
        if self.is_ground(t) {
            return t;
        }
        let (a, b) = match self.node(t) {
            Node::Var(v) => return f(v).unwrap_or(t),
            Node::Con(_) => return t,
            Node::App(a, b) | Node::Fun(a, b) => (a, b),
        };
        let mut steps = std::mem::take(&mut self.steps);
        let mut out = std::mem::take(&mut self.ids);
        steps.extend([Step::Build(t), Step::Visit(b), Step::Visit(a)]);
        while let Some(step) = steps.pop() {
            match step {
                Step::Visit(id) => {
                    self.stats.map_visits = self.stats.map_visits.saturating_add(1);
                    let info = self.info(id);
                    match info.node {
                        _ if info.ground => out.push(id),
                        Node::Var(v) => out.push(f(v).unwrap_or(id)),
                        Node::Con(_) => out.push(id),
                        Node::App(a, b) | Node::Fun(a, b) => {
                            steps.push(Step::Build(id));
                            steps.push(Step::Visit(b));
                            steps.push(Step::Visit(a));
                        }
                    }
                }
                Step::Build(id) => {
                    let (Some(b2), Some(a2)) = (out.pop(), out.pop()) else {
                        continue;
                    };
                    let rebuilt = match self.node(id) {
                        Node::App(a, b) if (a, b) != (a2, b2) => self.app(a2, b2),
                        Node::Fun(a, b) if (a, b) != (a2, b2) => self.fun(a2, b2),
                        _ => id,
                    };
                    out.push(rebuilt);
                }
            }
        }
        let result = out.pop();
        out.clear();
        self.steps = steps;
        self.ids = out;
        result.unwrap_or(t)
    }

    /// Call `f` on every variable occurrence in `t`, left to right,
    /// until it returns `false`. Ground subtrees are skipped.
    fn each_var(&mut self, t: TypeId, mut f: impl FnMut(TyVar) -> bool) {
        let mut stack = std::mem::take(&mut self.ids);
        stack.push(t);
        while let Some(id) = stack.pop() {
            let info = self.info(id);
            if info.ground {
                continue;
            }
            match info.node {
                Node::Var(v) => {
                    if !f(v) {
                        break;
                    }
                }
                Node::Con(_) => {}
                Node::App(a, b) | Node::Fun(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
            }
        }
        stack.clear();
        self.ids = stack;
    }

    /// Does `v` occur in `t`?
    pub fn contains_var(&mut self, t: TypeId, v: TyVar) -> bool {
        let mut found = false;
        self.each_var(t, |w| {
            found = w == v;
            !found
        });
        found
    }

    /// Add the variables of `t` to `out`.
    pub fn collect_vars(&mut self, t: TypeId, out: &mut BTreeSet<TyVar>) {
        self.each_var(t, |v| {
            out.insert(v);
            true
        });
    }

    /// The variables of `t`, sorted and without repeats.
    pub fn free_vars(&mut self, t: TypeId) -> BTreeSet<TyVar> {
        let mut out = BTreeSet::new();
        self.collect_vars(t, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_shares_subtrees() {
        let mut i = Interner::new();
        let t = Type::list(Type::list(Type::int()));
        let a = i.intern(&t);
        let b = i.intern(&t);
        assert_eq!(a, b);
        // Nodes: List, Int, List Int, List (List Int) = 4 distinct.
        assert_eq!(i.len(), 4);
        // Interning the shared subtree allocates nothing new.
        let inner = i.intern(&Type::list(Type::int()));
        assert_eq!(i.len(), 4);
        assert_ne!(inner, a);
        // Stats: 4 fresh nodes. Hits: the repeated `List` constructor
        // during the first intern (1), every node of the full
        // re-intern (5), every node of the subtree re-intern (3).
        let s = i.stats();
        assert_eq!(s.fresh, 4, "{s:?}");
        assert_eq!(s.hits, 9, "{s:?}");
    }

    #[test]
    fn distinct_types_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern(&Type::fun(Type::int(), Type::bool()));
        let b = i.intern(&Type::fun(Type::bool(), Type::int()));
        let c = i.intern(&Type::list(Type::int()));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Fun and App with the same children are different nodes.
        let d = i.intern(&Type::App(Box::new(Type::int()), Box::new(Type::bool())));
        assert_ne!(a, d);
    }

    #[test]
    fn purity_tracks_vars_and_skolems() {
        let mut i = Interner::new();
        let ground = i.intern(&Type::list(Type::int()));
        assert!(i.is_pure(ground) && i.is_ground(ground));
        let varry = i.intern(&Type::list(Type::Var(TyVar(0))));
        assert!(!i.is_pure(varry) && !i.is_ground(varry));
        let skolem = i.intern(&Type::list(Type::Con("$a".into())));
        assert!(!i.is_pure(skolem) && i.is_ground(skolem));
        let fun = i.intern(&Type::fun(Type::int(), Type::bool()));
        assert!(i.is_pure(fun));
    }

    #[test]
    fn sizes_are_tree_sizes() {
        let mut i = Interner::new();
        // `List Int -> List Int` shares `List Int`, but its tree has 7 nodes.
        let t = Type::fun(Type::list(Type::int()), Type::list(Type::int()));
        let id = i.intern(&t);
        assert_eq!(i.size(id), t.size());
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn names_intern_once() {
        let mut i = Interner::new();
        let a = i.intern_name("Eq");
        let b = i.intern_name("Eq");
        let c = i.intern_name("Ord");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.name(a), Some("Eq"));
    }

    #[test]
    fn tree_roundtrips() {
        let mut i = Interner::new();
        let t = Type::fun(Type::list(Type::Var(TyVar(3))), Type::bool());
        let id = i.intern(&t);
        assert_eq!(i.tree(id), t);
    }

    #[test]
    fn map_vars_rebuilds_only_what_changes() {
        let mut i = Interner::new();
        let t = i.intern(&Type::fun(Type::Var(TyVar(0)), Type::list(Type::int())));
        let int = i.intern(&Type::int());
        let same = i.map_vars(t, |_| None);
        assert_eq!(same, t);
        let got = i.map_vars(t, |v| (v == TyVar(0)).then_some(int));
        assert_eq!(i.tree(got), Type::fun(Type::int(), Type::list(Type::int())));
        assert!(i.contains_var(t, TyVar(0)));
        assert!(!i.contains_var(got, TyVar(0)));
        assert_eq!(i.free_vars(t).into_iter().collect::<Vec<_>>(), [TyVar(0)]);
    }

    #[test]
    fn deep_type_interns_iteratively() {
        let mut t = Type::int();
        for _ in 0..100_000 {
            t = Type::fun(Type::Var(TyVar(1)), t);
        }
        let mut i = Interner::new();
        let id = i.intern(&t);
        assert!(!i.is_ground(id));
        let int = i.intern(&Type::int());
        let ground = i.map_vars(id, |_| Some(int));
        assert!(i.is_pure(ground));
        assert_eq!(i.size(ground), t.size());
        let back = i.tree(ground);
        // Dropping the deep Box chains recurses in rustc's Drop glue.
        std::mem::forget(back);
        std::mem::forget(t);
    }
}
