//! Dictionary conversion: replace every placeholder left by inference
//! with a concrete dictionary expression.
//!
//! This is the second half of the paper's translation. Each
//! `Dict` placeholder holds a predicate; after zonking (applying the
//! final substitution) the predicate is resolved against the
//! *assumptions* in scope — the dictionary lambda parameters of the
//! enclosing binding — yielding a [`DictDeriv`] recipe that is spelled
//! out as parameter references, superclass projections, and instance
//! constructor applications. `RecCall` placeholders (recursive uses of
//! a same-group binding) become the binding applied to the group's
//! dictionary arguments, themselves resolved in the *local* context so
//! that a signature-carrying group member can still call its
//! signature-less sibling.
//!
//! Resolution failures become diagnostics and a [`CoreExpr::Fail`]
//! node — the program still compiles to something that evaluates to a
//! structured error, never a panic.

use std::cell::RefCell;
use tc_classes::{ClassEnv, DictDeriv, ReduceBudget, ResolveCache, ResolveError};
use tc_coreir::{CoreExpr, PlaceholderKind, PlaceholderTable};
use tc_syntax::{Diagnostics, Stage};
use tc_types::{IdPred, Interner, Pred, Subst, Type};

/// Everything a conversion pass over one binding needs.
pub struct ConvertCtx<'a> {
    pub cenv: &'a ClassEnv,
    pub table: &'a PlaceholderTable,
    /// The type store the placeholders' predicates live in, and the
    /// final substitution that zonks them.
    pub types: &'a Interner,
    pub subst: &'a Subst,
    /// The elaboration-wide resolution memo table, shared across every
    /// binding so a dictionary proved once is proved once. Interior
    /// mutability because conversion contexts are otherwise read-only.
    pub cache: &'a RefCell<ResolveCache>,
    /// Dictionary assumptions in scope (zonked), in parameter order.
    pub assumptions: &'a [Pred],
    /// Parameter names, parallel to `assumptions`.
    pub dict_params: &'a [String],
    /// Signature-less members of the current binding group (targets of
    /// `RecCall` placeholders).
    pub group_members: &'a [String],
    /// The group's retained context (zonked) — the dictionary
    /// arguments every `RecCall` must supply.
    pub group_retained: &'a [Pred],
    pub budget: ReduceBudget,
}

impl ConvertCtx<'_> {
    /// Zonk a placeholder's predicate into the tree the resolver takes,
    /// and resolve it.
    fn resolve_placeholder(&self, pred: &IdPred, diags: &mut Diagnostics) -> CoreExpr {
        let zonked = Pred::new(
            self.types.name(pred.class).unwrap_or("?"),
            self.subst.apply_tree(self.types, pred.ty),
            pred.span,
        );
        self.resolve_pred(&zonked, diags)
    }

    /// Resolve a zonked predicate against the assumptions and spell out
    /// the resulting dictionary expression. Public because the instance
    /// pass resolves superclass slots directly.
    pub fn resolve_pred(&self, zonked: &Pred, diags: &mut Diagnostics) -> CoreExpr {
        let resolved = self.cenv.resolve_with(
            zonked,
            self.assumptions,
            self.budget,
            &mut self.cache.borrow_mut(),
        );
        match resolved {
            Ok(deriv) => self.deriv_expr(&deriv),
            Err(e) => {
                diags.error(
                    Stage::DictConv,
                    e.code(),
                    resolve_error_message(&e),
                    zonked.span,
                );
                CoreExpr::Fail(format!("unresolved constraint `{zonked}`"))
            }
        }
    }

    fn deriv_expr(&self, d: &DictDeriv) -> CoreExpr {
        match d {
            DictDeriv::FromParam { index } => match self.dict_params.get(*index) {
                Some(p) => CoreExpr::Var(p.clone()),
                None => CoreExpr::Fail("dictionary parameter out of range".into()),
            },
            DictDeriv::FromSuper { base, slot } => {
                CoreExpr::Proj(*slot, Box::new(self.deriv_expr(base)))
            }
            DictDeriv::FromInstance { inst_id, args } => {
                let head = match self.cenv.instance_by_id(*inst_id) {
                    Some(inst) => CoreExpr::Var(inst.dict_binding_name()),
                    None => CoreExpr::Fail(format!("unknown instance #{inst_id}")),
                };
                CoreExpr::apps(head, args.iter().map(|a| self.deriv_expr(a)))
            }
        }
    }
}

/// Human-oriented message for a resolution failure; predicates whose
/// types mention a rigid (skolemized) signature variable get the
/// "could not deduce from the signature context" phrasing.
fn resolve_error_message(e: &ResolveError) -> String {
    let pred = e.pred();
    if mentions_skolem(&pred.ty) && matches!(e, ResolveError::NoInstance { .. }) {
        format!(
            "could not deduce `{pred}` from the enclosing signature or instance context \
             (`$`-prefixed type constructors are rigid signature variables)"
        )
    } else {
        e.to_string()
    }
}

/// Does the type mention a skolem constant (rigid signature variable)?
pub fn mentions_skolem(t: &Type) -> bool {
    let mut stack = vec![t];
    while let Some(x) = stack.pop() {
        match x {
            Type::Con(n) if n.starts_with('$') => return true,
            Type::Con(_) | Type::Var(_) => {}
            Type::App(f, a) => {
                stack.push(f);
                stack.push(a);
            }
            Type::Fun(f, a) => {
                stack.push(f);
                stack.push(a);
            }
        }
    }
    false
}

/// Convert one binding body: structurally rebuild the expression with
/// every placeholder replaced. Recursion depth is bounded by the
/// parser's expression-depth budget plus the (constant-depth) wrappers
/// inference inserts.
pub fn convert(e: &CoreExpr, cx: &ConvertCtx<'_>, diags: &mut Diagnostics) -> CoreExpr {
    match e {
        CoreExpr::Var(_) | CoreExpr::Lit(_) | CoreExpr::Fail(_) | CoreExpr::Con { .. } => e.clone(),
        CoreExpr::Case(scrut, arms) => CoreExpr::Case(
            Box::new(convert(scrut, cx, diags)),
            arms.iter()
                .map(|arm| tc_coreir::CoreArm {
                    con: arm.con.clone(),
                    binders: arm.binders.clone(),
                    body: convert(&arm.body, cx, diags),
                })
                .collect(),
        ),
        CoreExpr::App(f, x) => CoreExpr::app(convert(f, cx, diags), convert(x, cx, diags)),
        CoreExpr::Lam(p, b) => CoreExpr::Lam(p.clone(), Box::new(convert(b, cx, diags))),
        CoreExpr::LetRec(bs, b) => CoreExpr::LetRec(
            bs.iter()
                .map(|(n, v)| (n.clone(), convert(v, cx, diags)))
                .collect(),
            Box::new(convert(b, cx, diags)),
        ),
        CoreExpr::If(c, t, f) => CoreExpr::If(
            Box::new(convert(c, cx, diags)),
            Box::new(convert(t, cx, diags)),
            Box::new(convert(f, cx, diags)),
        ),
        CoreExpr::Tuple(xs) => CoreExpr::Tuple(xs.iter().map(|x| convert(x, cx, diags)).collect()),
        CoreExpr::Proj(i, b) => CoreExpr::Proj(*i, Box::new(convert(b, cx, diags))),
        CoreExpr::Placeholder(id) => match cx.table.get(*id) {
            Some(PlaceholderKind::Dict { pred }) => cx.resolve_placeholder(pred, diags),
            Some(PlaceholderKind::RecCall { name, .. }) => {
                if cx.group_members.iter().any(|m| m == name) {
                    CoreExpr::apps(
                        CoreExpr::Var(name.clone()),
                        cx.group_retained
                            .iter()
                            .map(|p| cx.resolve_pred(p, diags))
                            .collect::<Vec<_>>(),
                    )
                } else {
                    CoreExpr::Fail(format!("recursive call to `{name}` outside its group"))
                }
            }
            None => CoreExpr::Fail(format!("dangling placeholder #{id}")),
        },
    }
}
