//! Type schemes (polytypes).

use crate::pred::Qual;
use crate::ty::{TyVar, Type};
use std::collections::HashMap;
use std::fmt;

/// `forall vars. preds => ty`, with the quantified variables stored as
/// the concrete [`TyVar`]s that were generalized. Inference opens
/// schemes on type ids; this tree is how a scheme is written down
/// (signatures, builtins, class methods) and shown.
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

    /// Quantify every free variable of `qual`: a top-level scheme is
    /// closed.
    pub fn generalize(qual: Qual<Type>) -> Self {
        let vars = qual.free_vars().into_iter().collect();
        Scheme { vars, qual }
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
    use crate::pred::Pred;
    use tc_syntax::Span;

    #[test]
    fn generalize_quantifies_every_free_variable() {
        // Eq t0 => t0 -> t1, generalized over t0 and t1.
        let q = Qual::new(
            vec![Pred::new("Eq", Type::Var(TyVar(0)), Span::DUMMY)],
            Type::fun(Type::Var(TyVar(0)), Type::Var(TyVar(1))),
        );
        let sch = Scheme::generalize(q);
        assert_eq!(sch.vars, vec![TyVar(0), TyVar(1)]);
        assert_eq!(sch.to_string(), "Eq a => a -> b");
    }

    #[test]
    fn display_renames() {
        let q = Qual::unqualified(Type::fun(Type::Var(TyVar(7)), Type::Var(TyVar(7))));
        let sch = Scheme::generalize(q);
        assert_eq!(sch.to_string(), "a -> a");
    }
}
