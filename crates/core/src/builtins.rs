//! The builtin value environment.
//!
//! The surface language has no pattern matching and no primitive
//! operators; everything bottoms out in a small closed set of builtin
//! functions that the evaluator implements natively. Their schemes are
//! declared here so inference can type them, and the prelude wraps
//! them in class methods (`primEqInt` becomes the `Eq Int` instance's
//! `eq`, and so on).

use std::collections::HashMap;
use tc_types::{Qual, Scheme, TyVar, Type};

/// Names and schemes of every builtin. Deterministic order.
pub fn builtin_schemes() -> Vec<(&'static str, Scheme)> {
    let int = Type::int;
    let bool_ = Type::bool;
    let ii_i = || Type::fun(int(), Type::fun(int(), int()));
    let ii_b = || Type::fun(int(), Type::fun(int(), bool_()));
    // One polymorphic variable is enough for the list builtins; the
    // scheme closes over it, so reusing the same TyVar across schemes
    // is safe (instantiation always freshens).
    let a = || Type::Var(TyVar(0));
    let poly = |t: Type| Scheme {
        vars: vec![TyVar(0)],
        qual: Qual::unqualified(t),
    };
    vec![
        ("primAddInt", Scheme::mono(ii_i())),
        ("primSubInt", Scheme::mono(ii_i())),
        ("primMulInt", Scheme::mono(ii_i())),
        ("primDivInt", Scheme::mono(ii_i())),
        ("primModInt", Scheme::mono(ii_i())),
        ("primNegInt", Scheme::mono(Type::fun(int(), int()))),
        ("primEqInt", Scheme::mono(ii_b())),
        ("primLtInt", Scheme::mono(ii_b())),
        ("primLeInt", Scheme::mono(ii_b())),
        (
            "primEqBool",
            Scheme::mono(Type::fun(bool_(), Type::fun(bool_(), bool_()))),
        ),
        ("nil", poly(Type::list(a()))),
        (
            "cons",
            poly(Type::fun(a(), Type::fun(Type::list(a()), Type::list(a())))),
        ),
        ("null", poly(Type::fun(Type::list(a()), bool_()))),
        ("head", poly(Type::fun(Type::list(a()), a()))),
        ("tail", poly(Type::fun(Type::list(a()), Type::list(a())))),
        // error :: a — evaluating it is a structured runtime failure.
        ("error", poly(a())),
    ]
}

/// The builtin environment as a map.
pub fn builtin_env() -> HashMap<String, Scheme> {
    builtin_schemes()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect()
}

/// Is `name` a builtin the evaluator implements natively?
pub fn is_builtin(name: &str) -> bool {
    builtin_schemes().iter().any(|(n, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_consistent() {
        let env = builtin_env();
        assert!(env.len() >= 15);
        assert!(is_builtin("primAddInt"));
        assert!(is_builtin("cons"));
        assert!(!is_builtin("member"));
    }

    #[test]
    fn list_builtins_are_polymorphic() {
        let env = builtin_env();
        let cons = &env["cons"];
        assert_eq!(cons.vars.len(), 1);
        assert_eq!(cons.to_string(), "a -> List a -> List a");
    }
}
