//! `deriving (Eq, Ord)` — mechanical instance generation.
//!
//! Runs at the end of parsing so every consumer of [`Program`] (the
//! driver, lints, test utilities) sees derived instances exactly as
//! if the user had written them by hand. This is the translation of
//! Peterson & Jones (PLDI 1993): a derived instance is an ordinary
//! dictionary whose methods are built from the data declaration's
//! shape, with the per-parameter dictionaries threaded through the
//! instance context (`instance (Eq a, ...) => Eq (T a ...)`).
//!
//! The generated method bodies use only `case`, `if`, constructor
//! literals, and the class methods themselves — no prelude helpers —
//! so derived code works even under `--no-prelude` as long as the
//! classes are declared. Generated binders are `$`-prefixed (the lexer
//! cannot produce `$` in identifiers) so they can never capture or
//! shadow user names, and every inner `case` enumerates all
//! constructors, so derived matches are always exhaustive.
//!
//! * Derived `eq` compares tags via a nested case; same-tag arms
//!   compare fields left to right (`if eq f g then <rest> else False`,
//!   last field bare). Nullary constructors compare `True`.
//! * Derived `lte`/`lt` order constructors by declaration index (the
//!   tag), then lexicographically by fields: `if lt f g then True else
//!   if eq f g then <rest> else False`, last field `lte`/`lt`. The
//!   field-level `eq` comes from `Ord`'s `Eq` superclass dictionary.

use crate::ast::*;
use crate::diag::{Diagnostics, Stage};
use crate::span::Span;

/// Append one generated instance per `deriving` entry of each data
/// declaration. Unknown or repeated classes produce `E0212`
/// diagnostics instead of instances. A derived body nests once per
/// field (`Ord` twice), and later passes recurse down it, so a data
/// type with a constructor of more than `max_depth` fields (the
/// parser's nesting budget) derives nothing and gets one `E0207`.
pub fn derive_instances(prog: &mut Program, diags: &mut Diagnostics, max_depth: usize) {
    let mut derived = Vec::new();
    for data in &prog.datas {
        let wide = data
            .constructors
            .iter()
            .find(|c| c.fields.len() > max_depth);
        if let Some(c) = wide.filter(|_| !data.deriving.is_empty()) {
            diags.error(
                Stage::Parser,
                "E0207",
                format!(
                    "cannot derive instances for `{}`: constructor `{}` has {} fields, \
                     and its derived methods would nest deeper than the limit of {max_depth} levels",
                    data.name,
                    c.name,
                    c.fields.len()
                ),
                c.span,
            );
            continue;
        }
        let mut seen: Vec<&str> = Vec::new();
        for (class, cspan) in &data.deriving {
            if seen.contains(&class.as_str()) {
                diags.error(
                    Stage::Parser,
                    "E0212",
                    format!(
                        "class `{class}` appears more than once in the deriving clause for `{}`",
                        data.name
                    ),
                    *cspan,
                );
                continue;
            }
            seen.push(class);
            match class.as_str() {
                "Eq" => derived.push(derive_eq(data, *cspan)),
                "Ord" => derived.push(derive_ord(data, *cspan)),
                _ => {
                    diags.error(
                        Stage::Parser,
                        "E0212",
                        format!(
                            "cannot derive `{class}` for `{}`; only `Eq` and `Ord` are derivable",
                            data.name
                        ),
                        *cspan,
                    );
                }
            }
        }
    }
    prog.instances.extend(derived);
}

/// `T a b` as a type expression (the instance head).
fn head_type(data: &DataDecl, s: Span) -> TypeExpr {
    let mut t = TypeExpr::Con(data.name.clone(), s);
    for p in &data.params {
        t = TypeExpr::App(Box::new(t), Box::new(TypeExpr::Var(p.clone(), s)), s);
    }
    t
}

/// `(C a, C b, ...)` — one predicate per type parameter.
fn param_context(class: &str, data: &DataDecl, s: Span) -> Vec<PredExpr> {
    data.params
        .iter()
        .map(|p| PredExpr {
            class: class.to_string(),
            ty: TypeExpr::Var(p.clone(), s),
            span: s,
        })
        .collect()
}

fn var(n: impl Into<String>, s: Span) -> Expr {
    Expr::Var(n.into(), s)
}

fn tru(s: Span) -> Expr {
    Expr::Con("True".into(), s)
}

fn fls(s: Span) -> Expr {
    Expr::Con("False".into(), s)
}

/// `m a b` for a binary method `m`.
fn app2(m: &str, a: Expr, b: Expr, s: Span) -> Expr {
    Expr::App(
        Box::new(Expr::App(Box::new(var(m, s)), Box::new(a), s)),
        Box::new(b),
        s,
    )
}

fn iff(c: Expr, t: Expr, e: Expr, s: Span) -> Expr {
    Expr::If(Box::new(c), Box::new(t), Box::new(e), s)
}

fn lam2(x: &str, y: &str, body: Expr, s: Span) -> Expr {
    Expr::Lam(
        x.into(),
        Box::new(Expr::Lam(y.into(), Box::new(body), s)),
        s,
    )
}

/// `$f0 $f1 ...` binders for a constructor's fields.
fn field_binders(prefix: &str, n: usize, s: Span) -> Vec<(String, Span)> {
    (0..n).map(|i| (format!("${prefix}{i}"), s)).collect()
}

/// `_ _ ...` — wildcard binders for arms that ignore their fields.
fn wildcards(n: usize, s: Span) -> Vec<(String, Span)> {
    (0..n).map(|_| ("_".to_string(), s)).collect()
}

fn con_pattern(name: &str, binders: Vec<(String, Span)>, s: Span) -> Pattern {
    Pattern::Con {
        name: name.to_string(),
        binders,
        span: s,
    }
}

/// Field-wise equality: `if eq $f0 $g0 then ... else False`, last
/// field bare `eq $fn $gn`; nullary constructors are equal.
fn eq_chain(n: usize, s: Span) -> Expr {
    if n == 0 {
        return tru(s);
    }
    let mut acc = app2(
        "eq",
        var(format!("$f{}", n - 1), s),
        var(format!("$g{}", n - 1), s),
        s,
    );
    for i in (0..n - 1).rev() {
        acc = iff(
            app2("eq", var(format!("$f{i}"), s), var(format!("$g{i}"), s), s),
            acc,
            fls(s),
            s,
        );
    }
    acc
}

/// Lexicographic field comparison for same-tag values:
/// `if lt f g then True else if eq f g then <rest> else False`, with
/// the last field decided by `lte` (non-strict) or `lt` (strict).
fn ord_chain(n: usize, strict: bool, s: Span) -> Expr {
    if n == 0 {
        return if strict { fls(s) } else { tru(s) };
    }
    let last_m = if strict { "lt" } else { "lte" };
    let mut acc = app2(
        last_m,
        var(format!("$f{}", n - 1), s),
        var(format!("$g{}", n - 1), s),
        s,
    );
    for k in (0..n - 1).rev() {
        let f = var(format!("$f{k}"), s);
        let g = var(format!("$g{k}"), s);
        acc = iff(
            app2("lt", f.clone(), g.clone(), s),
            tru(s),
            iff(app2("eq", f, g, s), acc, fls(s), s),
            s,
        );
    }
    acc
}

fn derive_eq(data: &DataDecl, s: Span) -> InstanceDecl {
    let outer_arms: Vec<CaseArm> = data
        .constructors
        .iter()
        .map(|c| {
            let n = c.fields.len();
            let inner_arms: Vec<CaseArm> = data
                .constructors
                .iter()
                .map(|c2| {
                    let (binders, body) = if c2.name == c.name {
                        (field_binders("g", n, s), eq_chain(n, s))
                    } else {
                        (wildcards(c2.fields.len(), s), fls(s))
                    };
                    CaseArm {
                        pattern: con_pattern(&c2.name, binders, s),
                        body,
                        span: s,
                    }
                })
                .collect();
            CaseArm {
                pattern: con_pattern(&c.name, field_binders("f", n, s), s),
                body: Expr::Case(Box::new(var("$r", s)), inner_arms, s),
                span: s,
            }
        })
        .collect();
    let eq_body = lam2(
        "$l",
        "$r",
        Expr::Case(Box::new(var("$l", s)), outer_arms, s),
        s,
    );
    let neq_body = lam2(
        "$l",
        "$r",
        iff(app2("eq", var("$l", s), var("$r", s), s), fls(s), tru(s), s),
        s,
    );
    InstanceDecl {
        context: param_context("Eq", data, s),
        class: "Eq".into(),
        head: head_type(data, s),
        methods: vec![
            Binding {
                name: "eq".into(),
                expr: eq_body,
                span: s,
            },
            Binding {
                name: "neq".into(),
                expr: neq_body,
                span: s,
            },
        ],
        span: s,
    }
}

fn derive_ord(data: &DataDecl, s: Span) -> InstanceDecl {
    let method = |strict: bool| -> Expr {
        let outer_arms: Vec<CaseArm> = data
            .constructors
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let n = c.fields.len();
                let inner_arms: Vec<CaseArm> = data
                    .constructors
                    .iter()
                    .enumerate()
                    .map(|(j, c2)| {
                        let (binders, body) = if j == i {
                            (field_binders("g", n, s), ord_chain(n, strict, s))
                        } else if i < j {
                            // Earlier tag: strictly less than any later tag.
                            (wildcards(c2.fields.len(), s), tru(s))
                        } else {
                            (wildcards(c2.fields.len(), s), fls(s))
                        };
                        CaseArm {
                            pattern: con_pattern(&c2.name, binders, s),
                            body,
                            span: s,
                        }
                    })
                    .collect();
                CaseArm {
                    pattern: con_pattern(&c.name, field_binders("f", n, s), s),
                    body: Expr::Case(Box::new(var("$r", s)), inner_arms, s),
                    span: s,
                }
            })
            .collect();
        lam2(
            "$l",
            "$r",
            Expr::Case(Box::new(var("$l", s)), outer_arms, s),
            s,
        )
    };
    InstanceDecl {
        context: param_context("Ord", data, s),
        class: "Ord".into(),
        head: head_type(data, s),
        methods: vec![
            Binding {
                name: "lte".into(),
                expr: method(false),
                span: s,
            },
            Binding {
                name: "lt".into(),
                expr: method(true),
                span: s,
            },
        ],
        span: s,
    }
}
