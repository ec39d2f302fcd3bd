//! Type schemes (polytypes).

use crate::pred::{Pred, Qual};
use crate::ty::{TyVar, Type};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// `forall vars. preds => ty`.
///
/// Quantified variables are stored as the concrete [`TyVar`]s that were
/// generalized; [`Scheme::instantiate`] replaces them with fresh
/// variables supplied by the caller, so the scheme itself never needs a
/// fresh-variable source.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    pub vars: Vec<TyVar>,
    pub qual: Qual<Type>,
}

impl Scheme {
    /// A monomorphic scheme (no quantification, no context).
    pub fn mono(ty: Type) -> Self {
        Scheme {
            vars: Vec::new(),
            qual: Qual::unqualified(ty),
        }
    }

    /// Quantify every free variable of `qual` not present in `env_vars`.
    pub fn generalize(qual: Qual<Type>, env_vars: &BTreeSet<TyVar>) -> Self {
        let vars: Vec<TyVar> = qual
            .free_vars()
            .into_iter()
            .filter(|v| !env_vars.contains(v))
            .collect();
        Scheme { vars, qual }
    }

    /// Replace each quantified variable with a fresh one from `fresh`.
    /// Returns the instantiated context and body type.
    pub fn instantiate(&self, mut fresh: impl FnMut() -> TyVar) -> (Vec<Pred>, Type) {
        if self.vars.is_empty() {
            return (self.qual.preds.clone(), self.qual.head.clone());
        }
        let map: HashMap<TyVar, Type> =
            self.vars.iter().map(|v| (*v, Type::Var(fresh()))).collect();
        let qual = self.qual.substitute(&map);
        (qual.preds, qual.head)
    }

    /// Free (unquantified) variables — needed to compute the
    /// environment's free variables during generalization.
    pub fn free_vars(&self) -> BTreeSet<TyVar> {
        let mut fv = self.qual.free_vars();
        for v in &self.vars {
            fv.remove(v);
        }
        fv
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Rename quantified variables to a, b, c ... for readability.
        let names: HashMap<TyVar, Type> = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, Type::Con(display_name(i))))
            .collect();
        let shown = self.qual.substitute(&names);
        write!(f, "{shown}")
    }
}

/// `a`, `b`, ..., `z`, `a1`, `b1`, ...
fn display_name(i: usize) -> String {
    let letter = (b'a' + (i % 26) as u8) as char;
    let suffix = i / 26;
    if suffix == 0 {
        letter.to_string()
    } else {
        format!("{letter}{suffix}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_syntax::Span;

    #[test]
    fn generalize_and_instantiate() {
        // Eq t0 => t0 -> Bool, generalized over t0.
        let q = Qual::new(
            vec![Pred::new("Eq", Type::Var(TyVar(0)), Span::DUMMY)],
            Type::fun(Type::Var(TyVar(0)), Type::bool()),
        );
        let sch = Scheme::generalize(q, &BTreeSet::new());
        assert_eq!(sch.vars, vec![TyVar(0)]);

        let mut next = 100u32;
        let (preds, ty) = sch.instantiate(|| {
            next += 1;
            TyVar(next)
        });
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].ty, Type::Var(TyVar(101)));
        assert_eq!(ty, Type::fun(Type::Var(TyVar(101)), Type::bool()));
    }

    #[test]
    fn env_vars_not_generalized() {
        let q = Qual::unqualified(Type::fun(Type::Var(TyVar(0)), Type::Var(TyVar(1))));
        let mut env = BTreeSet::new();
        env.insert(TyVar(0));
        let sch = Scheme::generalize(q, &env);
        assert_eq!(sch.vars, vec![TyVar(1)]);
    }

    #[test]
    fn display_renames() {
        let q = Qual::unqualified(Type::fun(Type::Var(TyVar(7)), Type::Var(TyVar(7))));
        let sch = Scheme::generalize(q, &BTreeSet::new());
        assert_eq!(sch.to_string(), "a -> a");
    }
}
