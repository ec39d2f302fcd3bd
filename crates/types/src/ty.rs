//! The internal type representation.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A type variable. Fresh variables are numbered by the inference
/// engine; display names are derived (`t0`, `t1`, ... or `a`, `b` for
/// quantified variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TyVar(pub u32);

impl fmt::Display for TyVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A monotone source of fresh type variables, shared by lowering and
/// inference so variable numbers never collide across passes.
#[derive(Debug, Clone, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    pub fn new() -> Self {
        VarGen::default()
    }

    pub fn fresh(&mut self) -> TyVar {
        let v = TyVar(self.next);
        // Saturate instead of wrapping: colliding with variable 0 after
        // 4 billion allocations would be a soundness bug, while reusing
        // u32::MAX merely risks a spurious type error on inputs that
        // could never finish inference anyway.
        self.next = self.next.saturating_add(1);
        v
    }

    /// How many variables have been allocated so far.
    pub fn allocated(&self) -> u32 {
        self.next
    }

    /// Pass over `n` variable numbers without handing them out. A
    /// program compiled on top of an earlier one skips the numbers the
    /// earlier one used in each phase, so its own variables keep the
    /// numbers they would have had with both compiled as one text.
    pub fn skip(&mut self, n: u32) {
        self.next = self.next.saturating_add(n);
    }
}

/// Monotypes.
///
/// `Fun` is kept as a dedicated constructor (rather than `App(App(->))`)
/// because it is by far the most common form and pattern matching on it
/// dominates both unification and display.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    Var(TyVar),
    /// A nullary or higher-kinded constructor name: `Int`, `Bool`, `List`.
    Con(String),
    /// Constructor application: `List Int` is `App(Con "List", Con "Int")`.
    App(Box<Type>, Box<Type>),
    /// `a -> b`.
    Fun(Box<Type>, Box<Type>),
}

impl Type {
    pub fn int() -> Type {
        Type::Con("Int".into())
    }

    pub fn bool() -> Type {
        Type::Con("Bool".into())
    }

    pub fn list(elem: Type) -> Type {
        Type::App(Box::new(Type::Con("List".into())), Box::new(elem))
    }

    pub fn fun(a: Type, b: Type) -> Type {
        Type::Fun(Box::new(a), Box::new(b))
    }

    /// What a type too large to show is shown as: `…`.
    pub fn elided() -> Type {
        Type::Con("…".into())
    }

    /// Curried function type from a parameter list.
    pub fn fun_from(params: Vec<Type>, ret: Type) -> Type {
        params
            .into_iter()
            .rev()
            .fold(ret, |acc, p| Type::fun(p, acc))
    }

    /// Free type variables in order of first occurrence is not needed;
    /// a sorted set keeps quantification deterministic.
    pub fn free_vars(&self) -> BTreeSet<TyVar> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut out);
        out
    }

    pub(crate) fn collect_free_vars(&self, out: &mut BTreeSet<TyVar>) {
        // Iterative worklist: user programs can build very deep types
        // (long curried chains), and recursion depth here must not be
        // proportional to type size.
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            match t {
                Type::Var(v) => {
                    out.insert(*v);
                }
                Type::Con(_) => {}
                Type::App(a, b) | Type::Fun(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
    }

    pub fn contains_var(&self, v: TyVar) -> bool {
        self.occurrences(v) > 0
    }

    /// How many times `v` occurs in the type. Iterative, like the other
    /// traversals; used by the Paterson-style termination analysis,
    /// which compares variable multiplicities between an instance
    /// context constraint and the instance head.
    pub fn occurrences(&self, v: TyVar) -> usize {
        let mut n = 0usize;
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            match t {
                Type::Var(w) => {
                    if *w == v {
                        n = n.saturating_add(1);
                    }
                }
                Type::Con(_) => {}
                Type::App(a, b) | Type::Fun(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        n
    }

    /// Number of constructors in the type — used as a work measure by
    /// budgeted operations.
    pub fn size(&self) -> usize {
        let mut n = 0usize;
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            n = n.saturating_add(1);
            if let Type::App(a, b) | Type::Fun(a, b) = t {
                stack.push(a);
                stack.push(b);
            }
        }
        n
    }

    /// The type with each variable that `map` binds replaced by its
    /// binding, in one pass: a renaming or instantiation of a closed
    /// type, not a solved substitution (the bindings are not applied
    /// to each other). Iterative, like the other traversals.
    pub fn substitute(&self, map: &HashMap<TyVar, Type>) -> Type {
        enum Step<'a> {
            Visit(&'a Type),
            App,
            Fun,
        }
        let mut work = vec![Step::Visit(self)];
        let mut out: Vec<Type> = Vec::new();
        while let Some(step) = work.pop() {
            match step {
                Step::Visit(t) => match t {
                    Type::Var(v) => out.push(map.get(v).unwrap_or(t).clone()),
                    Type::Con(_) => out.push(t.clone()),
                    Type::App(a, b) | Type::Fun(a, b) => {
                        work.push(if matches!(t, Type::App(..)) {
                            Step::App
                        } else {
                            Step::Fun
                        });
                        work.push(Step::Visit(b));
                        work.push(Step::Visit(a));
                    }
                },
                Step::App | Step::Fun => {
                    let (Some(b), Some(a)) = (out.pop(), out.pop()) else {
                        continue;
                    };
                    out.push(if matches!(step, Step::App) {
                        Type::App(Box::new(a), Box::new(b))
                    } else {
                        Type::Fun(Box::new(a), Box::new(b))
                    });
                }
            }
        }
        out.pop().unwrap_or_else(|| self.clone())
    }

    /// The outermost constructor name, if the type is a (possibly
    /// applied) constructor: `List Int` → `Some("List")`.
    pub fn head_con(&self) -> Option<&str> {
        let mut t = self;
        loop {
            match t {
                Type::Con(n) => return Some(n),
                Type::App(f, _) => t = f,
                _ => return None,
            }
        }
    }
}

/// Pretty-printing with minimal parentheses. Implemented iteratively
/// via precedence-tagged recursion over an explicit stack-free helper:
/// the depth of a *display* is bounded by the type's depth, which the
/// inference budget already caps, so plain recursion with a guard is
/// acceptable here — but we still keep a hard depth cutoff for safety.
impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prec(self, 0, f, 0)
    }
}

const MAX_DISPLAY_DEPTH: usize = 256;

fn fmt_prec(t: &Type, prec: u8, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    if depth > MAX_DISPLAY_DEPTH {
        return f.write_str("…");
    }
    match t {
        Type::Var(v) => write!(f, "{v}"),
        Type::Con(n) => f.write_str(n),
        Type::App(a, b) => {
            // Application binds tighter than `->`; arguments at atom level.
            if prec > 1 {
                f.write_str("(")?;
            }
            fmt_prec(a, 1, f, depth + 1)?;
            f.write_str(" ")?;
            fmt_prec(b, 2, f, depth + 1)?;
            if prec > 1 {
                f.write_str(")")?;
            }
            Ok(())
        }
        Type::Fun(a, b) => {
            if prec > 0 {
                f.write_str("(")?;
            }
            fmt_prec(a, 1, f, depth + 1)?;
            f.write_str(" -> ")?;
            fmt_prec(b, 0, f, depth + 1)?;
            if prec > 0 {
                f.write_str(")")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_minimal_parens() {
        let t = Type::fun(
            Type::fun(Type::int(), Type::bool()),
            Type::list(Type::Var(TyVar(0))),
        );
        assert_eq!(t.to_string(), "(Int -> Bool) -> List t0");
    }

    #[test]
    fn free_vars_and_contains() {
        let t = Type::fun(Type::Var(TyVar(1)), Type::list(Type::Var(TyVar(2))));
        let fv = t.free_vars();
        assert!(fv.contains(&TyVar(1)) && fv.contains(&TyVar(2)));
        assert!(t.contains_var(TyVar(2)));
        assert!(!t.contains_var(TyVar(3)));
    }

    #[test]
    fn occurrences_counts_multiplicity() {
        let a = Type::Var(TyVar(0));
        let t = Type::fun(a.clone(), Type::list(a.clone()));
        assert_eq!(t.occurrences(TyVar(0)), 2);
        assert_eq!(t.occurrences(TyVar(1)), 0);
    }

    #[test]
    fn deep_type_no_stack_overflow() {
        let mut t = Type::int();
        for _ in 0..200_000 {
            t = Type::fun(Type::int(), t);
        }
        // free_vars / size / contains_var are iterative.
        assert!(t.free_vars().is_empty());
        assert!(t.size() > 200_000);
        // NB: we deliberately leak the deep type: dropping nested Box
        // chains recurses in rustc's generated Drop. Real pipeline
        // types never get this deep because unification is budgeted.
        std::mem::forget(t);
    }

    #[test]
    fn substitute_renames_in_one_pass() {
        let (a, b) = (TyVar(0), TyVar(1));
        let t = Type::fun(Type::Var(a), Type::list(Type::Var(b)));
        let map = HashMap::from([(a, Type::Var(b)), (b, Type::int())]);
        // `a` becomes `b`, which is not rewritten again.
        assert_eq!(
            t.substitute(&map),
            Type::fun(Type::Var(b), Type::list(Type::int()))
        );
    }

    #[test]
    fn head_con() {
        assert_eq!(Type::list(Type::int()).head_con(), Some("List"));
        assert_eq!(Type::Var(TyVar(0)).head_con(), None);
    }
}
