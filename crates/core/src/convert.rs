//! Dictionary conversion: replace every placeholder left by inference
//! with a concrete dictionary expression.
//!
//! This is the second half of the paper's translation. Each
//! `Dict` placeholder holds a predicate over the elaborator's type
//! store; it is zonked (the final substitution applied with
//! [`Subst::apply`], which yields another id of the same store) and
//! resolved there against the *assumptions* in scope — the dictionary
//! lambda parameters of the enclosing binding — yielding a
//! [`DictDeriv`] recipe that is spelled out as parameter references,
//! superclass projections, and instance constructor applications.
//! `RecCall` placeholders (recursive uses of a same-group binding)
//! become the binding applied to the group's dictionary arguments,
//! themselves resolved in the *local* context so that a
//! signature-carrying group member can still call its signature-less
//! sibling.
//!
//! Conversion works in place: [`convert`] walks a member's core once
//! and overwrites each placeholder with its dictionary expression,
//! leaving every other node where it is. No type tree is built unless
//! a goal fails.
//!
//! Resolution failures become diagnostics and a [`CoreExpr::Fail`]
//! node — the program still compiles to something that evaluates to a
//! structured error, never a panic.

use tc_classes::{ClassEnv, DictDeriv, ReduceBudget, ResolveCache, ResolveError};
use tc_coreir::{CoreExpr, PlaceholderId, PlaceholderKind, PlaceholderTable};
use tc_syntax::{Diagnostics, Stage};
use tc_types::{IdPred, Interner, Subst, Type};

/// Everything a conversion pass over one binding needs.
pub struct ConvertCtx<'a> {
    pub cenv: &'a ClassEnv,
    pub table: &'a PlaceholderTable,
    /// The type store the placeholders' predicates and the assumptions
    /// live in, and the final substitution that zonks them.
    pub types: &'a mut Interner,
    pub subst: &'a mut Subst,
    /// The elaboration-wide resolution memo table, shared across every
    /// binding so a dictionary proved once is proved once.
    pub cache: &'a mut ResolveCache,
    /// Dictionary assumptions in scope (zonked), in parameter order.
    pub assumptions: &'a [IdPred],
    /// Parameter names, parallel to `assumptions`.
    pub dict_params: &'a [String],
    /// Signature-less members of the current binding group (targets of
    /// `RecCall` placeholders).
    pub group_members: &'a [String],
    /// The group's retained context (zonked) — the dictionary
    /// arguments every `RecCall` must supply.
    pub group_retained: &'a [IdPred],
    pub budget: ReduceBudget,
    pub diags: &'a mut Diagnostics,
}

impl ConvertCtx<'_> {
    /// Resolve a zonked goal against the assumptions and spell out the
    /// resulting dictionary expression. Public because the instance
    /// pass resolves superclass slots directly.
    pub fn resolve_pred(&mut self, goal: IdPred) -> CoreExpr {
        let resolved =
            self.cenv
                .resolve_with(&goal, self.assumptions, self.budget, self.cache, self.types);
        match resolved {
            Ok(deriv) => self.deriv_expr(&deriv),
            Err(e) => {
                self.diags.error(
                    Stage::DictConv,
                    e.code(),
                    resolve_error_message(&e),
                    goal.span,
                );
                CoreExpr::Fail(format!("unresolved constraint `{}`", goal.tree(self.types)))
            }
        }
    }

    /// The expression placeholder `id` stands for.
    fn placeholder(&mut self, id: PlaceholderId) -> CoreExpr {
        match self.table.get(id) {
            Some(PlaceholderKind::Dict { pred }) => {
                let ty = self.subst.apply(self.types, pred.ty);
                self.resolve_pred(IdPred { ty, ..*pred })
            }
            Some(PlaceholderKind::RecCall { name, .. }) => {
                if self.group_members.iter().any(|m| m == name) {
                    let retained = self.group_retained;
                    let args: Vec<CoreExpr> =
                        retained.iter().map(|&p| self.resolve_pred(p)).collect();
                    CoreExpr::apps(CoreExpr::Var(name.clone()), args)
                } else {
                    CoreExpr::Fail(format!("recursive call to `{name}` outside its group"))
                }
            }
            None => CoreExpr::Fail(format!("dangling placeholder #{id}")),
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
                    Some(inst) => CoreExpr::Var(inst.dict_binding_name().to_string()),
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

/// Convert one binding body in place: overwrite every placeholder with
/// its dictionary expression, in left-to-right order (the order goals
/// reach the resolver, and so the memo table). Recursion depth is
/// bounded by the parser's expression-depth budget plus the
/// (constant-depth) wrappers inference inserts.
pub fn convert(e: &mut CoreExpr, cx: &mut ConvertCtx<'_>) {
    match e {
        CoreExpr::Var(_) | CoreExpr::Lit(_) | CoreExpr::Fail(_) | CoreExpr::Con { .. } => {}
        CoreExpr::Placeholder(id) => *e = cx.placeholder(*id),
        CoreExpr::Case(scrut, arms) => {
            convert(scrut, cx);
            for arm in arms {
                convert(&mut arm.body, cx);
            }
        }
        CoreExpr::App(f, x) => {
            convert(f, cx);
            convert(x, cx);
        }
        CoreExpr::Lam(_, b) | CoreExpr::Proj(_, b) => convert(b, cx),
        CoreExpr::LetRec(bs, b) => {
            for (_, v) in bs {
                convert(v, cx);
            }
            convert(b, cx);
        }
        CoreExpr::If(c, t, f) => {
            convert(c, cx);
            convert(t, cx);
            convert(f, cx);
        }
        CoreExpr::Tuple(xs) => {
            for x in xs {
                convert(x, cx);
            }
        }
    }
}
