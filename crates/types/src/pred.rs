//! Class predicates and qualified types.

use crate::intern::{NameId, TypeId};
use crate::ty::{TyVar, Type};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use tc_syntax::Span;

/// A single class constraint, e.g. `Eq a` or `Ord (List Int)`.
///
/// The `span` records where the constraint *arose* (the method use or
/// signature that introduced it) so that "no instance for ..." errors
/// can point at real source. Spans are ignored by equality/ordering:
/// two predicates are the same constraint regardless of origin.
#[derive(Debug, Clone)]
pub struct Pred {
    pub class: String,
    pub ty: Type,
    pub span: Span,
}

impl Pred {
    pub fn new(class: impl Into<String>, ty: Type, span: Span) -> Self {
        Pred {
            class: class.into(),
            ty,
            span,
        }
    }

    /// The predicate with `map` substituted into its type (see
    /// [`Type::substitute`]).
    pub fn substitute(&self, map: &HashMap<TyVar, Type>) -> Pred {
        Pred {
            class: self.class.clone(),
            ty: self.ty.substitute(map),
            span: self.span,
        }
    }

    pub fn free_vars(&self) -> BTreeSet<TyVar> {
        self.ty.free_vars()
    }

    /// Structural identity ignoring spans — the notion of "same
    /// constraint" used by entailment caches and cycle detection.
    pub fn same_constraint(&self, other: &Pred) -> bool {
        self.class == other.class && self.ty == other.ty
    }

    /// A stable key for hash sets/maps keyed by constraint identity.
    pub fn key(&self) -> (String, Type) {
        (self.class.clone(), self.ty.clone())
    }

    /// Is the constrained type in head-normal form (headed by a type
    /// variable)? HNF predicates can be generalized; others must be
    /// discharged by instances.
    pub fn in_hnf(&self) -> bool {
        fn hnf(t: &Type) -> bool {
            match t {
                Type::Var(_) => true,
                Type::Con(_) => false,
                Type::App(f, _) => hnf(f),
                Type::Fun(_, _) => false,
            }
        }
        hnf(&self.ty)
    }
}

impl PartialEq for Pred {
    fn eq(&self, other: &Self) -> bool {
        self.same_constraint(other)
    }
}

impl Eq for Pred {}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ty {
            Type::Var(_) | Type::Con(_) => write!(f, "{} {}", self.class, self.ty),
            _ => write!(f, "{} ({})", self.class, self.ty),
        }
    }
}

/// A class constraint over a type store: `class` and `ty` are ids of
/// one [`crate::Interner`]. What inference collects; it leaves the
/// elaborator as a [`Pred`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdPred {
    pub class: NameId,
    pub ty: TypeId,
    pub span: Span,
}

/// A qualified thing: `preds => t`. Used for both qualified types
/// (`Qual<Type>`) and instance heads (`Qual<Pred>`).
#[derive(Debug, Clone, PartialEq)]
pub struct Qual<T> {
    pub preds: Vec<Pred>,
    pub head: T,
}

impl<T> Qual<T> {
    pub fn new(preds: Vec<Pred>, head: T) -> Self {
        Qual { preds, head }
    }

    pub fn unqualified(head: T) -> Self {
        Qual {
            preds: Vec::new(),
            head,
        }
    }
}

impl Qual<Type> {
    /// The qualified type with `map` substituted into every predicate
    /// and the head (see [`Type::substitute`]).
    pub fn substitute(&self, map: &HashMap<TyVar, Type>) -> Qual<Type> {
        Qual {
            preds: self.preds.iter().map(|p| p.substitute(map)).collect(),
            head: self.head.substitute(map),
        }
    }

    pub fn free_vars(&self) -> BTreeSet<TyVar> {
        let mut fv = self.head.free_vars();
        for p in &self.preds {
            fv.extend(p.free_vars());
        }
        fv
    }
}

impl fmt::Display for Qual<Type> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.preds.len() {
            0 => write!(f, "{}", self.head),
            1 => write!(f, "{} => {}", self.preds[0], self.head),
            _ => {
                f.write_str("(")?;
                for (i, p) in self.preds.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") => {}", self.head)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_equality_ignores_span() {
        let a = Pred::new("Eq", Type::int(), Span::new(1, 2));
        let b = Pred::new("Eq", Type::int(), Span::new(9, 10));
        assert_eq!(a, b);
    }

    #[test]
    fn hnf() {
        assert!(Pred::new("Eq", Type::Var(TyVar(0)), Span::DUMMY).in_hnf());
        assert!(Pred::new(
            "Eq",
            Type::App(Box::new(Type::Var(TyVar(0))), Box::new(Type::int())),
            Span::DUMMY
        )
        .in_hnf());
        assert!(!Pred::new("Eq", Type::int(), Span::DUMMY).in_hnf());
        assert!(!Pred::new("Eq", Type::list(Type::Var(TyVar(0))), Span::DUMMY).in_hnf());
    }

    #[test]
    fn qual_display() {
        let q = Qual::new(
            vec![Pred::new("Eq", Type::Var(TyVar(0)), Span::DUMMY)],
            Type::fun(Type::Var(TyVar(0)), Type::bool()),
        );
        assert_eq!(q.to_string(), "Eq t0 => t0 -> Bool");
    }
}
