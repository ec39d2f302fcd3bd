//! `tc-coreir`: the dictionary-passing core language.
//!
//! The elaborator in `tc-core` translates surface programs into this
//! IR in two steps, exactly as in Peterson & Jones: type inference
//! inserts [`CoreExpr::Placeholder`] nodes wherever a dictionary will
//! eventually be needed (the predicate's type may still be an
//! uninstantiated variable at that point), and a later *dictionary
//! conversion* pass replaces every placeholder with a concrete
//! dictionary expression — a parameter reference, a superclass
//! projection, or an instance dictionary application.
//!
//! Dictionaries are plain tuples: for `class (S1, .., Sm) => C a` with
//! methods `m1 .. mk`, a `C`-dictionary is
//! `(dS1, .., dSm, m1_impl, .., mk_impl)` and method selection is
//! [`CoreExpr::Proj`].
//!
//! A converted program contains no placeholders; [`CoreProgram::verify_converted`]
//! checks that invariant so the evaluator never has to.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

pub mod share;

pub use share::{share_program, share_program_metered, ShareStats};

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tc_syntax::Span;

/// Core expressions bind names as the surface does (lambdas, `letrec`
/// groups, `case` binders); passes that resolve them index their binders
/// by name the same way.
pub use tc_syntax::Scope;
use tc_types::IdPred;

/// Literal values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Literal {
    Int(i64),
    Bool(bool),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(n) => write!(f, "{n}"),
            Literal::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Identifier for a placeholder created during inference.
pub type PlaceholderId = u32;

/// What a placeholder stands for.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceholderKind {
    /// A dictionary witnessing `pred`, a predicate over the
    /// elaborator's type store. Its type is zonked (final substitution
    /// applied) before resolution.
    Dict { pred: IdPred },
    /// A recursive occurrence of a same-group binding; resolved to the
    /// binding applied to the group's shared dictionary parameters.
    RecCall { name: String, span: Span },
}

/// Side table of placeholders, owned by the elaboration session.
#[derive(Debug, Clone, Default)]
pub struct PlaceholderTable {
    entries: Vec<PlaceholderKind>,
}

impl PlaceholderTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn alloc(&mut self, kind: PlaceholderKind) -> PlaceholderId {
        let id = self.entries.len() as PlaceholderId;
        self.entries.push(kind);
        id
    }

    pub fn get(&self, id: PlaceholderId) -> Option<&PlaceholderKind> {
        self.entries.get(id as usize)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Core expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreExpr {
    /// Variable reference — a top-level binding, lambda parameter,
    /// dictionary parameter, or evaluator builtin (`primAddInt`, ...).
    Var(String),
    Lit(Literal),
    App(Box<CoreExpr>, Box<CoreExpr>),
    Lam(String, Box<CoreExpr>),
    /// Mutually recursive local bindings.
    LetRec(Vec<(String, CoreExpr)>, Box<CoreExpr>),
    If(Box<CoreExpr>, Box<CoreExpr>, Box<CoreExpr>),
    /// Dictionary construction.
    Tuple(Vec<CoreExpr>),
    /// Dictionary slot selection (superclass dict or method).
    Proj(usize, Box<CoreExpr>),
    /// Saturated or partial data-constructor application: `Con` alone
    /// is a value (or a curried function when `arity > 0`); the
    /// evaluator builds a tagged value once `arity` arguments arrive.
    Con {
        name: String,
        /// Declaration index within the data type; `case` dispatches on it.
        tag: u32,
        /// Number of fields.
        arity: usize,
    },
    /// `case` over a scrutinee: each arm either matches one constructor
    /// (binding its fields) or is a default that binds the scrutinee.
    Case(Box<CoreExpr>, Vec<CoreArm>),
    /// Unresolved dictionary reference; present only between inference
    /// and dictionary conversion.
    Placeholder(PlaceholderId),
    /// Deliberate runtime failure with a message. Produced for
    /// unrecoverable elaboration holes (so a partially-broken program
    /// still compiles to *something* deterministic) — evaluating it
    /// yields a structured error, never a panic.
    Fail(String),
}

/// One alternative of a [`CoreExpr::Case`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreArm {
    /// `Some((name, tag))` for a constructor arm; `None` for a default
    /// (variable or wildcard) arm.
    pub con: Option<(String, u32)>,
    /// Field binders for a constructor arm (one per field), or the
    /// single scrutinee binder of a default arm. `_` entries bind
    /// nothing.
    pub binders: Vec<String>,
    pub body: CoreExpr,
}

impl CoreExpr {
    pub fn app(f: CoreExpr, x: CoreExpr) -> CoreExpr {
        CoreExpr::App(Box::new(f), Box::new(x))
    }

    /// `f x1 x2 ...`
    pub fn apps(f: CoreExpr, args: impl IntoIterator<Item = CoreExpr>) -> CoreExpr {
        args.into_iter().fold(f, CoreExpr::app)
    }

    /// `\p1 p2 ... -> body`
    pub fn lams(params: impl IntoIterator<Item = String>, body: CoreExpr) -> CoreExpr {
        let ps: Vec<String> = params.into_iter().collect();
        ps.into_iter()
            .rev()
            .fold(body, |acc, p| CoreExpr::Lam(p, Box::new(acc)))
    }

    /// Call `f` on every direct child expression, in a fixed order: the
    /// shared primitive behind the IR's traversals (placeholder
    /// detection here, sharing, the static-analysis walks in
    /// `tc-lint`), so a new variant cannot be forgotten by one
    /// traversal but not another, and no traversal builds a list of
    /// children per node.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a CoreExpr)) {
        match self {
            CoreExpr::Var(_)
            | CoreExpr::Lit(_)
            | CoreExpr::Fail(_)
            | CoreExpr::Placeholder(_)
            | CoreExpr::Con { .. } => {}
            CoreExpr::Case(scrut, arms) => {
                f(scrut);
                for arm in arms {
                    f(&arm.body);
                }
            }
            CoreExpr::App(a, b) => {
                f(a);
                f(b);
            }
            CoreExpr::Lam(_, b) | CoreExpr::Proj(_, b) => f(b),
            CoreExpr::LetRec(bs, b) => {
                f(b);
                for (_, e) in bs {
                    f(e);
                }
            }
            CoreExpr::If(c, t, e2) => {
                f(c);
                f(t);
                f(e2);
            }
            CoreExpr::Tuple(xs) => xs.iter().for_each(f),
        }
    }

    /// Push every direct child expression onto `out`, in
    /// [`CoreExpr::for_each_child`] order: the work list of an iterative
    /// traversal.
    pub fn push_children<'a>(&'a self, out: &mut Vec<&'a CoreExpr>) {
        self.for_each_child(|c| out.push(c));
    }

    /// Does any placeholder remain? Iterative traversal.
    pub fn first_placeholder(&self) -> Option<PlaceholderId> {
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            if let CoreExpr::Placeholder(id) = e {
                return Some(*id);
            }
            e.push_children(&mut stack);
        }
        None
    }

    /// Number of IR nodes in the expression (iterative). Used by the
    /// timing views as a cheap size counter for the core program.
    pub fn node_count(&self) -> u64 {
        let mut n = 0u64;
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            n += 1;
            e.push_children(&mut stack);
        }
        n
    }

    /// If the expression applies an instance dictionary constructor (a
    /// `$dict…` binding) to at least one argument — a compound
    /// dictionary construction — the constructor's name.
    pub fn dict_construction(&self) -> Option<&str> {
        let (mut head, mut args) = (self, 0);
        while let CoreExpr::App(f, _) = head {
            head = f;
            args += 1;
        }
        match head {
            CoreExpr::Var(n) if args > 0 && n.starts_with("$dict") => Some(n),
            _ => None,
        }
    }
}

/// A fully elaborated program: top-level bindings (one mutually
/// recursive namespace) and the entry-point name, if any.
///
/// A program compiled on top of another (a request on top of the
/// prelude) is linked to it: `binds` holds the program's own bindings,
/// and [`CoreProgram::linked`] shares the base's, which are not copied.
/// The whole-program views ([`CoreProgram::all_binds`], `lookup`,
/// `as_map`, `node_count`, `verify_converted`) cover both, in the order
/// compiling the two as one text gives.
#[derive(Debug, Clone, Default)]
pub struct CoreProgram {
    pub binds: Vec<(String, CoreExpr)>,
    pub main: Option<String>,
    pub linked: Option<Link>,
}

/// A base program linked under a [`CoreProgram`].
#[derive(Debug, Clone)]
pub struct Link {
    pub base: Arc<LinkedBase>,
    /// How many of the program's own `binds` come from binding groups;
    /// the rest are instance dictionaries.
    pub group_binds: usize,
}

/// A compiled base program, shared by every program linked to it.
#[derive(Debug)]
pub struct LinkedBase {
    pub core: CoreProgram,
    /// How many of `core.binds` come from binding groups; the rest are
    /// instance dictionaries.
    pub group_binds: usize,
    nodes: u64,
}

impl LinkedBase {
    pub fn new(core: CoreProgram, group_binds: usize) -> Self {
        LinkedBase {
            nodes: core.node_count(),
            core,
            group_binds,
        }
    }
}

impl CoreProgram {
    /// Every binding, the linked base's included: binding groups (the
    /// base's, then the program's), then dictionaries (likewise).
    pub fn all_binds(&self) -> impl Iterator<Item = &(String, CoreExpr)> {
        let (base_groups, base_dicts, own_groups, own_dicts) = match &self.linked {
            Some(link) => {
                let base = &link.base.core.binds;
                let (bg, bd) = base.split_at(link.base.group_binds.min(base.len()));
                let (og, od) = self.binds.split_at(link.group_binds.min(self.binds.len()));
                (bg, bd, og, od)
            }
            None => (&[][..], &[][..], &self.binds[..], &[][..]),
        };
        base_groups
            .iter()
            .chain(own_groups)
            .chain(base_dicts)
            .chain(own_dicts)
    }

    pub fn lookup(&self, name: &str) -> Option<&CoreExpr> {
        self.all_binds().find(|(n, _)| n == name).map(|(_, e)| e)
    }

    /// Check the "no placeholders remain" invariant; returns the names
    /// of offending bindings (empty = converted).
    pub fn verify_converted(&self) -> Vec<&str> {
        self.all_binds()
            .filter(|(_, e)| e.first_placeholder().is_some())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Bindings as a map view (names are unique after elaboration).
    pub fn as_map(&self) -> HashMap<&str, &CoreExpr> {
        self.all_binds().map(|(n, e)| (n.as_str(), e)).collect()
    }

    /// Total IR nodes across all bindings (the timing views' size
    /// counter).
    pub fn node_count(&self) -> u64 {
        let base = self.linked.as_ref().map_or(0, |l| l.base.nodes);
        base + self.binds.iter().map(|(_, e)| e.node_count()).sum::<u64>()
    }
}

/// Compact pretty-printer for debugging and driver `--dump-core`.
/// Depth-limited: beyond the cap it prints `…` rather than recursing.
pub fn pretty(e: &CoreExpr) -> String {
    let mut out = String::new();
    pretty_rec(e, 0, &mut out);
    out
}

const PRETTY_MAX_DEPTH: usize = 64;

fn pretty_rec(e: &CoreExpr, depth: usize, out: &mut String) {
    use std::fmt::Write as _;
    if depth > PRETTY_MAX_DEPTH {
        out.push('…');
        return;
    }
    match e {
        CoreExpr::Var(n) => out.push_str(n),
        CoreExpr::Lit(l) => {
            let _ = write!(out, "{l}");
        }
        CoreExpr::App(f, x) => {
            out.push('(');
            pretty_rec(f, depth + 1, out);
            out.push(' ');
            pretty_rec(x, depth + 1, out);
            out.push(')');
        }
        CoreExpr::Lam(p, b) => {
            let _ = write!(out, "(\\{p} -> ");
            pretty_rec(b, depth + 1, out);
            out.push(')');
        }
        CoreExpr::LetRec(bs, b) => {
            out.push_str("(letrec {");
            for (i, (n, v)) in bs.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                let _ = write!(out, "{n} = ");
                pretty_rec(v, depth + 1, out);
            }
            out.push_str("} in ");
            pretty_rec(b, depth + 1, out);
            out.push(')');
        }
        CoreExpr::If(c, t, f) => {
            out.push_str("(if ");
            pretty_rec(c, depth + 1, out);
            out.push_str(" then ");
            pretty_rec(t, depth + 1, out);
            out.push_str(" else ");
            pretty_rec(f, depth + 1, out);
            out.push(')');
        }
        CoreExpr::Tuple(xs) => {
            out.push('(');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                pretty_rec(x, depth + 1, out);
            }
            out.push(')');
        }
        CoreExpr::Proj(i, b) => {
            let _ = write!(out, "#{i} ");
            pretty_rec(b, depth + 1, out);
        }
        CoreExpr::Con { name, .. } => out.push_str(name),
        CoreExpr::Case(scrut, arms) => {
            out.push_str("(case ");
            pretty_rec(scrut, depth + 1, out);
            out.push_str(" of {");
            for (i, arm) in arms.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                match &arm.con {
                    Some((name, _)) => {
                        out.push_str(name);
                        for b in &arm.binders {
                            let _ = write!(out, " {b}");
                        }
                    }
                    None => {
                        out.push_str(arm.binders.first().map(String::as_str).unwrap_or("_"));
                    }
                }
                out.push_str(" -> ");
                pretty_rec(&arm.body, depth + 1, out);
            }
            out.push_str("})");
        }
        CoreExpr::Placeholder(id) => {
            let _ = write!(out, "<ph{id}>");
        }
        CoreExpr::Fail(msg) => {
            let _ = write!(out, "<fail: {msg}>");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apps_and_lams_builders() {
        let e = CoreExpr::lams(
            vec!["x".to_string(), "y".to_string()],
            CoreExpr::apps(
                CoreExpr::Var("f".into()),
                vec![CoreExpr::Var("x".into()), CoreExpr::Var("y".into())],
            ),
        );
        assert_eq!(pretty(&e), "(\\x -> (\\y -> ((f x) y)))");
    }

    #[test]
    fn placeholder_detection() {
        let e = CoreExpr::app(CoreExpr::Var("f".into()), CoreExpr::Placeholder(3));
        assert_eq!(e.first_placeholder(), Some(3));
        let prog = CoreProgram {
            binds: vec![
                ("a".into(), e),
                ("b".into(), CoreExpr::Lit(Literal::Int(1))),
            ],
            main: None,
            linked: None,
        };
        assert_eq!(prog.verify_converted(), vec!["a"]);
    }

    #[test]
    fn node_count_counts_every_node() {
        // (\x -> ((f x) y)) = Lam + App + App + Var f + Var x + Var y = 6
        let e = CoreExpr::lams(
            vec!["x".to_string()],
            CoreExpr::apps(
                CoreExpr::Var("f".into()),
                vec![CoreExpr::Var("x".into()), CoreExpr::Var("y".into())],
            ),
        );
        assert_eq!(e.node_count(), 6);
        let prog = CoreProgram {
            binds: vec![
                ("a".into(), e),
                ("b".into(), CoreExpr::Lit(Literal::Int(1))),
            ],
            main: None,
            linked: None,
        };
        assert_eq!(prog.node_count(), 7);
    }

    #[test]
    fn dict_construction_needs_an_applied_dict_head() {
        let e = CoreExpr::apps(
            CoreExpr::Var("f".into()),
            vec![CoreExpr::Var("x".into()), CoreExpr::Var("y".into())],
        );
        assert_eq!(e.dict_construction(), None);
        let atom = CoreExpr::Lit(Literal::Int(1));
        let dict = CoreExpr::app(CoreExpr::Var("$dict1$Eq$List".into()), atom.clone());
        assert_eq!(dict.dict_construction(), Some("$dict1$Eq$List"));
        assert_eq!(
            CoreExpr::Var("$dict0$Eq$Int".into()).dict_construction(),
            None
        );
    }

    #[test]
    fn table_roundtrip() {
        let mut t = PlaceholderTable::new();
        let id = t.alloc(PlaceholderKind::RecCall {
            name: "go".into(),
            span: Span::DUMMY,
        });
        assert!(matches!(
            t.get(id),
            Some(PlaceholderKind::RecCall { name, .. }) if name == "go"
        ));
    }
}
