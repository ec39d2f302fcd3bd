//! Type inference with placeholder insertion, generalization with
//! context reduction, signature checking via skolemization, and
//! per-group dictionary conversion.
//!
//! The driver-facing entry point is [`elaborate`]. Top-level bindings
//! are split into strongly connected groups (see [`crate::scc`]) and
//! processed in dependency order, THIH-style:
//!
//! 1. signature-carrying bindings contribute their declared scheme to
//!    the global environment up front (so polymorphic recursion and
//!    forward references through a signature just work);
//! 2. within a group, signature-less members are inferred together
//!    (sharing monomorphic type variables, recursive occurrences
//!    recorded as `RecCall` placeholders), their accumulated context is
//!    reduced ([`tc_classes::ClassEnv::reduce_context`]) and the group
//!    is generalized over the retained predicates;
//! 3. signature-carrying members are then checked against their
//!    *skolemized* signature (quantified variables become rigid
//!    `$name` constructors), so an implementation cannot secretly
//!    specialize a declared type variable;
//! 4. dictionary conversion replaces each member's placeholders with
//!    parameter references / projections / instance applications.
//!
//! Inference runs on [`TypeId`]s of one [`Interner`] per elaboration:
//! the substitution, unification, scheme instantiation, the lexical
//! scope, group types, wanted predicates and placeholders all hold ids,
//! and context reduction and instance resolution take their goals and
//! assumptions as ids of the same store. [`Type`] trees are built only
//! where something is shown: a scheme asked for
//! ([`Elaboration::scheme`]) and diagnostic text.
//!
//! Every failure is a diagnostic plus local recovery (fresh type
//! variables, [`CoreExpr::Fail`] nodes); elaboration never panics and
//! always produces a runnable — if possibly failing — core program.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use tc_classes::{
    lower_qual_type, ClassEnv, LowerCtx, ReduceBudget, ResolveCache, ResolveStats, ResolveTraceLog,
};
use tc_coreir::{CoreExpr, CoreProgram, LinkedBase, Literal, PlaceholderKind, PlaceholderTable};
use tc_syntax::{Binding, Diagnostics, Expr, Program, Scope, Span, Stage};
use tc_trace::{CounterId, MetricsRegistry};
use tc_types::{
    IdPred, Interner, Node, Pred, Qual, Scheme, Subst, TyVar, Type, TypeErrorKind, TypeId, VarGen,
    MAX_NODES, MAX_STORE,
};

use crate::builtins::builtin_env;
use crate::convert::{convert, ConvertCtx};
use crate::scc::binding_groups;

/// The counters an elaboration advanced, summed over it and every base
/// it extends. A program elaborated on top continues each one, so its
/// dictionary parameters (`$dg<group>$…`) and type variables are named
/// as if both programs were one text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElabCounts {
    /// Binding groups (strongly connected components).
    pub groups: usize,
    /// Type variables allocated lowering signatures.
    pub signature_vars: u32,
    /// Type variables allocated inferring binding groups.
    pub group_vars: u32,
    /// Type variables allocated checking instance method bodies.
    pub method_vars: u32,
}

/// What an already-elaborated program leaves for programs elaborated on
/// top of it ([`elaborate_over`]): the prelude snapshot, or just the
/// builtins ([`ElabBase::builtins`]).
#[derive(Debug, Clone)]
pub struct ElabBase {
    /// Schemes of every name in scope: the builtins and the base
    /// program's top-level bindings. All are closed.
    pub globals: HashMap<String, Scheme>,
    /// The base program's own top-level binding names; a program on top
    /// cannot redefine them (`E0408`).
    pub bindings: HashSet<String>,
    pub counts: ElabCounts,
    /// The base program's converted core, which programs on top link to
    /// and evaluate over; `None` for the builtins.
    pub core: Option<Arc<LinkedBase>>,
}

impl ElabBase {
    /// The base of a program compiled alone: the builtins, no bindings.
    pub fn builtins() -> &'static ElabBase {
        static BUILTINS: OnceLock<ElabBase> = OnceLock::new();
        BUILTINS.get_or_init(|| ElabBase {
            globals: builtin_env(),
            bindings: HashSet::new(),
            counts: ElabCounts::default(),
            core: None,
        })
    }

    /// The base `program` leaves, given `elab`, its elaboration over
    /// [`ElabBase::builtins`], with its core already in final form.
    pub fn of_program(program: &Program, elab: Elaboration) -> ElabBase {
        let mut globals = builtin_env();
        globals.extend(
            elab.scheme_names()
                .filter_map(|n| Some((n.to_string(), elab.scheme(n)?))),
        );
        ElabBase {
            globals,
            bindings: program.bindings.iter().map(|b| b.name.clone()).collect(),
            counts: elab.counts,
            core: Some(Arc::new(LinkedBase::new(elab.core, elab.group_binds))),
        }
    }

    /// Is `name` a builtin (in scope, but bound by no program)?
    fn is_builtin(&self, name: &str) -> bool {
        self.globals.contains_key(name) && !self.bindings.contains(name)
    }
}

/// Result of elaboration: the dictionary-converted core program plus
/// the inferred/declared scheme of every top-level binding, kept as ids
/// of the run's type store and built as a tree only when asked for
/// ([`Elaboration::scheme`]).
#[derive(Debug, Default)]
pub struct Elaboration {
    /// The program's own bindings: binding groups first (the first
    /// [`Elaboration::group_binds`] entries), then one dictionary
    /// constructor per instance.
    pub core: CoreProgram,
    /// How many of `core.binds` come from binding groups.
    pub group_binds: usize,
    /// The counters after this elaboration (see [`ElabCounts`]).
    pub counts: ElabCounts,
    /// The scheme of each of the program's own bindings, zonked.
    schemes: HashMap<String, IdScheme>,
    /// Resolution counters for the whole run: goals attempted, memo
    /// table hits, dictionaries constructed (see [`ResolveStats`]).
    pub stats: ResolveStats,
    /// Explain-trace of every instance resolution, present iff
    /// [`ElabOptions::trace_resolution`] was set.
    pub resolution_trace: Option<ResolveTraceLog>,
    /// Metrics accumulated by the resolver and interner, populated
    /// (flushed from the cache) iff [`ElabOptions::collect_metrics`]
    /// was set; otherwise off and allocation-free.
    pub metrics: MetricsRegistry,
    /// The run's type store, which the schemes are ids of.
    types: Interner,
}

impl Elaboration {
    /// The scheme of `name`, one of the program's own top-level
    /// bindings, built from the type store. `None` for other names.
    pub fn scheme(&self, name: &str) -> Option<Scheme> {
        Some(self.schemes.get(name)?.tree(&self.types))
    }

    /// The names [`Elaboration::scheme`] answers for, in no order.
    pub fn scheme_names(&self) -> impl Iterator<Item = &str> {
        self.schemes.keys().map(String::as_str)
    }
}

/// Knobs for one elaboration run.
#[derive(Debug, Clone)]
pub struct ElabOptions {
    /// Budget for each resolution / context-reduction call.
    pub budget: ReduceBudget,
    /// Memoize instance resolution (the production configuration;
    /// `false` exists for baselines and differential testing).
    pub memoize: bool,
    /// Record an explain-trace of every resolution goal. Off by
    /// default; when off, no trace structures are allocated.
    pub trace_resolution: bool,
    /// Collect resolver/interner metrics into
    /// [`Elaboration::metrics`]. Off by default; when off, the
    /// instrumented paths allocate nothing.
    pub collect_metrics: bool,
    /// Cooperative cancellation: installed on the resolve cache so a
    /// deadline interrupts deep instance searches mid-run (surfacing
    /// as `E0423` diagnostics), and polled before each binding group
    /// and each instance method body, where a tripped token stops
    /// elaboration (the driver's next stage boundary reports it).
    pub cancel: Option<tc_trace::CancelToken>,
    /// Flight-recorder scope: when enabled, the resolver records one
    /// event per goal (depth, memo hit/miss). The default scope is off
    /// and costs one branch per site.
    pub events: tc_trace::EventScope,
}

impl Default for ElabOptions {
    fn default() -> Self {
        ElabOptions {
            budget: ReduceBudget::default(),
            memoize: true,
            trace_resolution: false,
            collect_metrics: false,
            cancel: None,
            events: tc_trace::EventScope::off(),
        }
    }
}

/// A scheme over the elaborator's type store: `forall vars. preds =>
/// head`. Each scheme is interned once per elaboration and then
/// instantiated by substituting ids for its quantified variables.
#[derive(Debug, Clone)]
struct IdScheme {
    vars: Vec<TyVar>,
    preds: Vec<IdPred>,
    head: TypeId,
}

impl IdScheme {
    fn intern(types: &mut Interner, sch: &Scheme) -> IdScheme {
        IdScheme {
            vars: sch.vars.clone(),
            preds: sch
                .qual
                .preds
                .iter()
                .map(|p| types.intern_pred(p))
                .collect(),
            head: types.intern(&sch.qual.head),
        }
    }

    /// The context (pushed to `preds`) and body with every quantified
    /// variable `v` replaced by `image(v)`, asked in the scheme's order.
    fn open(
        &self,
        types: &mut Interner,
        preds: &mut Vec<IdPred>,
        mut image: impl FnMut(&mut Interner, TyVar) -> TypeId,
    ) -> TypeId {
        if self.vars.is_empty() {
            preds.extend_from_slice(&self.preds);
            return self.head;
        }
        let mut pairs: Vec<(TyVar, TypeId)> =
            self.vars.iter().map(|&v| (v, image(types, v))).collect();
        pairs.sort_unstable_by_key(|(v, _)| *v);
        let lookup = |w: TyVar| {
            let i = pairs.binary_search_by_key(&w, |(v, _)| *v).ok()?;
            Some(pairs[i].1)
        };
        for p in &self.preds {
            let ty = types.map_vars(p.ty, lookup);
            preds.push(IdPred { ty, ..*p });
        }
        types.map_vars(self.head, lookup)
    }

    /// The scheme as a tree. Its ids were zonked where it was
    /// generalized, and its head checked against [`MAX_NODES`].
    fn tree(&self, types: &Interner) -> Scheme {
        let preds = self
            .preds
            .iter()
            .map(|p| Pred::new(types.name(p.class).unwrap_or("?"), types.tree(p.ty), p.span));
        Scheme {
            vars: self.vars.clone(),
            qual: Qual::new(preds.collect(), types.tree(self.head)),
        }
    }
}

/// Instantiate `sch` at a use site: every quantified variable becomes a
/// fresh one (allocated in the scheme's order, and pushed to `minted`),
/// and the instantiated context, blamed on `span`, goes to `preds`.
/// `None` past the store's cap ([`MAX_STORE`]), where every unification
/// fails: the caller types the use with [`Infer::past_cap`], so the
/// store stops growing with the schemes a program instantiates.
fn instantiate(
    types: &mut Interner,
    gen: &mut VarGen,
    sch: &IdScheme,
    span: Span,
    preds: &mut Vec<IdPred>,
    mut minted: Option<&mut Vec<TyVar>>,
) -> Option<TypeId> {
    if types.len() > MAX_STORE {
        return None;
    }
    let first = preds.len();
    let ty = sch.open(types, preds, |types, _| {
        let w = gen.fresh();
        if let Some(m) = minted.as_deref_mut() {
            m.push(w);
        }
        types.var(w)
    });
    for p in &mut preds[first..] {
        p.span = span;
    }
    Some(ty)
}

struct Infer<'a> {
    cenv: &'a ClassEnv,
    gen: &'a mut VarGen,
    /// The type store every [`TypeId`] below lives in.
    types: Interner,
    subst: Subst,
    table: PlaceholderTable,
    /// Predicates collected while inferring the current member.
    preds: Vec<IdPred>,
    /// What the program is elaborated on top of; its globals are in
    /// scope behind the program's own.
    base: &'a ElabBase,
    /// The program's own global value environment: signatures and
    /// generalized earlier groups.
    globals: HashMap<String, IdScheme>,
    /// The base's schemes, the class methods' and the data
    /// constructors', each interned on first use.
    base_schemes: HashMap<&'a str, IdScheme>,
    method_schemes: HashMap<&'a str, IdScheme>,
    con_schemes: HashMap<&'a str, IdScheme>,
    /// Monomorphic types of the current group's signature-less members.
    group_mono: HashMap<String, TypeId>,
    /// Lexical scope (lambda / let / pattern binders).
    locals: Scope<'a, TypeId>,
    budget: ReduceBudget,
    /// Memo table for instance resolution, shared by every conversion
    /// in the run (see `tc_classes::ResolveCache`); keyed into `types`.
    cache: ResolveCache,
    diags: Diagnostics,
    binds: Vec<(String, CoreExpr)>,
    /// Surface names of signature type variables, for readable rigid
    /// ("skolem") constants in diagnostics.
    skolem_names: HashMap<u32, String>,
    /// Polled before each binding group and each instance method.
    cancel: Option<tc_trace::CancelToken>,
    /// The current binding group or instance-method body has reported
    /// the store's cap ([`Infer::store_full`]).
    store_full_reported: bool,
    int: TypeId,
    bool: TypeId,
}

impl<'a> Infer<'a> {
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    fn fresh_ty(&mut self) -> TypeId {
        let v = self.gen.fresh();
        self.types.var(v)
    }

    fn zonk(&mut self, t: TypeId) -> TypeId {
        self.subst.apply(&mut self.types, t)
    }

    /// `p` with the substitution applied.
    fn zonk_pred(&mut self, p: IdPred) -> IdPred {
        IdPred {
            ty: self.zonk(p.ty),
            ..p
        }
    }

    fn fun(&mut self, a: TypeId, b: TypeId) -> TypeId {
        self.types.fun(a, b)
    }

    /// Is the type store past its cap ([`MAX_STORE`])? From then on
    /// every unification fails and every use is typed as a fresh
    /// variable, so the store stops growing. The first time this holds
    /// in a binding group or an instance-method body, it reports
    /// `E0403` at `span`; later failures of the same group or body add
    /// nothing to it.
    fn store_full(&mut self, span: Span) -> bool {
        if self.types.len() <= MAX_STORE {
            return false;
        }
        if !self.store_full_reported {
            self.store_full_reported = true;
            self.diags.error(
                Stage::TypeCheck,
                "E0403",
                format!(
                    "the program's types fill the type store past its cap of {MAX_STORE} \
                     nodes, so nothing from here on is type-checked"
                ),
                span,
            );
        }
        true
    }

    /// The type of a use instantiated past the store's cap: a fresh
    /// variable, reported by [`Infer::store_full`].
    fn past_cap(&mut self, span: Span) -> TypeId {
        self.store_full(span);
        self.fresh_ty()
    }

    fn unify_at(&mut self, expected: TypeId, found: TypeId, span: Span) {
        if self.store_full(span) {
            return;
        }
        if let Err(e) = tc_types::unify(&mut self.types, &mut self.subst, expected, found) {
            let e = e.at(span);
            let code = match e.kind {
                TypeErrorKind::Mismatch { .. } => "E0401",
                TypeErrorKind::Occurs { .. } => "E0402",
                TypeErrorKind::BudgetExhausted => "E0403",
            };
            self.diags
                .error(Stage::TypeCheck, code, e.to_string(), e.span);
        }
    }

    /// Record a wanted predicate and return its dictionary placeholder.
    fn dict_ph(&mut self, pred: IdPred) -> CoreExpr {
        self.preds.push(pred);
        CoreExpr::Placeholder(self.table.alloc(PlaceholderKind::Dict { pred }))
    }

    /// Replace a scheme's quantified variables with rigid constants so
    /// a checked implementation cannot specialize them. Returns the
    /// skolemized context and body type.
    fn skolemize(&mut self, sch: &IdScheme) -> (Vec<IdPred>, TypeId) {
        let mut preds = Vec::new();
        let names = &self.skolem_names;
        let ty = sch.open(&mut self.types, &mut preds, |types, v| {
            let name = match names.get(&v.0) {
                Some(n) => format!("${n}"),
                None => format!("$sk{}", v.0),
            };
            types.con_named(&name)
        });
        (preds, ty)
    }

    fn infer_var(&mut self, n: &'a str, span: Span) -> (TypeId, CoreExpr) {
        if let Some(&t) = self.locals.get(n) {
            return (t, CoreExpr::Var(n.to_string()));
        }
        if let Some(&t) = self.group_mono.get(n) {
            let id = self.table.alloc(PlaceholderKind::RecCall {
                name: n.to_string(),
                span,
            });
            return (t, CoreExpr::Placeholder(id));
        }
        if !self.globals.contains_key(n) && !self.base_schemes.contains_key(n) {
            if let Some((name, sch)) = self.base.globals.get_key_value(n) {
                let sch = IdScheme::intern(&mut self.types, sch);
                self.base_schemes.insert(name, sch);
            }
        }
        if let Some(sch) = self.globals.get(n).or_else(|| self.base_schemes.get(n)) {
            let mut preds = Vec::new();
            let ty = instantiate(&mut self.types, self.gen, sch, span, &mut preds, None)
                .unwrap_or_else(|| self.past_cap(span));
            let args: Vec<CoreExpr> = preds.into_iter().map(|p| self.dict_ph(p)).collect();
            return (ty, CoreExpr::apps(CoreExpr::Var(n.to_string()), args));
        }
        let cenv = self.cenv;
        if let Some((ci, mi)) = cenv.method(n) {
            let slot = ci.method_slot(mi.index);
            let sch = self
                .method_schemes
                .entry(&mi.name)
                .or_insert_with(|| IdScheme::intern(&mut self.types, &mi.scheme));
            let mut preds = Vec::new();
            let ty = instantiate(&mut self.types, self.gen, sch, span, &mut preds, None)
                .unwrap_or_else(|| self.past_cap(span));
            let mut it = preds.into_iter();
            return match it.next() {
                // The first predicate is always the owning class's own
                // constraint (see tc-classes build).
                Some(class_pred) => {
                    let dict = self.dict_ph(class_pred);
                    let extras: Vec<CoreExpr> = it.map(|p| self.dict_ph(p)).collect();
                    (
                        ty,
                        CoreExpr::apps(CoreExpr::Proj(slot, Box::new(dict)), extras),
                    )
                }
                None => (
                    ty,
                    CoreExpr::Fail(format!("method `{n}` lost its class constraint")),
                ),
            };
        }
        self.diags.error(
            Stage::TypeCheck,
            "E0405",
            format!("unbound variable `{n}`"),
            span,
        );
        (
            self.fresh_ty(),
            CoreExpr::Fail(format!("unbound variable `{n}`")),
        )
    }

    /// Instantiate a data constructor's scheme (the context is empty).
    fn instantiate_con(&mut self, ci: &'a tc_classes::ConInfo, span: Span) -> TypeId {
        let sch = self
            .con_schemes
            .entry(&ci.name)
            .or_insert_with(|| IdScheme::intern(&mut self.types, &ci.scheme));
        let mut preds = Vec::new();
        instantiate(&mut self.types, self.gen, sch, span, &mut preds, None)
            .unwrap_or_else(|| self.past_cap(span))
    }

    /// Infer an expression, producing its type and placeholder-bearing
    /// core translation. Native recursion depth is bounded by the
    /// parser's expression-depth budget.
    fn infer_expr(&mut self, e: &'a Expr) -> (TypeId, CoreExpr) {
        match e {
            Expr::IntLit(n, _) => (self.int, CoreExpr::Lit(Literal::Int(*n))),
            Expr::Con(n, span) => match n.as_str() {
                "True" => (self.bool, CoreExpr::Lit(Literal::Bool(true))),
                "False" => (self.bool, CoreExpr::Lit(Literal::Bool(false))),
                // The builtin list constructors are ordinary globals in
                // expression position (the evaluator's `nil`/`cons`).
                "Nil" => self.infer_var("nil", *span),
                "Cons" => self.infer_var("cons", *span),
                _ => match self.cenv.datas.con(n) {
                    Some(ci) => {
                        let ty = self.instantiate_con(ci, *span);
                        (
                            ty,
                            CoreExpr::Con {
                                name: ci.name.clone(),
                                tag: ci.tag,
                                arity: ci.arity,
                            },
                        )
                    }
                    None => {
                        self.diags.error(
                            Stage::TypeCheck,
                            "E0404",
                            format!("unknown data constructor `{n}`"),
                            *span,
                        );
                        (
                            self.fresh_ty(),
                            CoreExpr::Fail(format!("unknown constructor `{n}`")),
                        )
                    }
                },
            },
            Expr::Var(n, span) => self.infer_var(n, *span),
            Expr::App(f, x, span) => {
                let (tf, cf) = self.infer_expr(f);
                let (tx, cx) = self.infer_expr(x);
                let r = self.fresh_ty();
                let want = self.fun(tx, r);
                self.unify_at(tf, want, *span);
                (r, CoreExpr::app(cf, cx))
            }
            Expr::Lam(p, b, _) => {
                let tv = self.fresh_ty();
                self.locals.push(p, tv);
                let (tb, cb) = self.infer_expr(b);
                self.locals.pop();
                (self.fun(tv, tb), CoreExpr::Lam(p.clone(), Box::new(cb)))
            }
            Expr::Let(binds, body, _) => {
                // Local bindings are monomorphic (and mutually
                // recursive): each gets a plain type variable, no
                // generalization. This sidesteps local dictionary
                // abstraction exactly as the paper's restricted source
                // language intends; polymorphism lives at top level.
                let base = self.locals.len();
                let vars: Vec<TypeId> = binds.iter().map(|_| self.fresh_ty()).collect();
                for (b, t) in binds.iter().zip(&vars) {
                    self.locals.push(&b.name, *t);
                }
                let mut core_binds = Vec::with_capacity(binds.len());
                for (b, t) in binds.iter().zip(&vars) {
                    let (tb, cb) = self.infer_expr(&b.expr);
                    self.unify_at(*t, tb, b.span);
                    core_binds.push((b.name.clone(), cb));
                }
                let (tbody, cbody) = self.infer_expr(body);
                self.locals.truncate(base);
                (tbody, CoreExpr::LetRec(core_binds, Box::new(cbody)))
            }
            Expr::If(c, t, f, span) => {
                let (tc_, cc) = self.infer_expr(c);
                self.unify_at(self.bool, tc_, c.span());
                let (tt, ct) = self.infer_expr(t);
                let (tf_, cf) = self.infer_expr(f);
                self.unify_at(tt, tf_, *span);
                (tt, CoreExpr::If(Box::new(cc), Box::new(ct), Box::new(cf)))
            }
            Expr::Case(scrut, arms, _) => self.infer_case(scrut, arms),
            Expr::Hole(_) => (
                self.fresh_ty(),
                CoreExpr::Fail("expression could not be parsed".into()),
            ),
        }
    }

    /// Infer a `case`: every arm's pattern type unifies with the
    /// scrutinee, every arm's body with one shared result type.
    /// Constructor patterns are looked up in the data environment
    /// (builtins `True`/`False`/`Nil`/`Cons` included), their field
    /// types obtained by instantiating the constructor's scheme.
    fn infer_case(
        &mut self,
        scrut: &'a Expr,
        arms: &'a [tc_syntax::CaseArm],
    ) -> (TypeId, CoreExpr) {
        let (ts, cs) = self.infer_expr(scrut);
        let result = self.fresh_ty();
        if arms.is_empty() {
            // Parser recovery only: an empty case was already reported
            // (E0210), so just produce a deterministic failure.
            return (result, CoreExpr::Fail("case with no alternatives".into()));
        }
        let mut core_arms: Vec<tc_coreir::CoreArm> = Vec::new();
        for arm in arms {
            match &arm.pattern {
                tc_syntax::Pattern::Var(n, _) => {
                    let base = self.locals.len();
                    if n != "_" {
                        self.locals.push(n, ts);
                    }
                    let (tb, cb) = self.infer_expr(&arm.body);
                    self.locals.truncate(base);
                    self.unify_at(result, tb, arm.span);
                    core_arms.push(tc_coreir::CoreArm {
                        con: None,
                        binders: vec![n.clone()],
                        body: cb,
                    });
                }
                tc_syntax::Pattern::Con {
                    name,
                    binders,
                    span: pspan,
                } => {
                    let Some(ci) = self.cenv.datas.con(name) else {
                        self.diags.error(
                            Stage::TypeCheck,
                            "E0404",
                            format!("unknown data constructor `{name}` in pattern"),
                            *pspan,
                        );
                        // Recover: bind the binders at fresh types and
                        // keep the arm (it can never match at runtime).
                        let base = self.locals.len();
                        for (b, _) in binders {
                            if b != "_" {
                                let t = self.fresh_ty();
                                self.locals.push(b, t);
                            }
                        }
                        let (tb, cb) = self.infer_expr(&arm.body);
                        self.locals.truncate(base);
                        self.unify_at(result, tb, arm.span);
                        core_arms.push(tc_coreir::CoreArm {
                            con: Some((name.clone(), u32::MAX)),
                            binders: binders.iter().map(|(b, _)| b.clone()).collect(),
                            body: cb,
                        });
                        continue;
                    };
                    if binders.len() != ci.arity {
                        self.diags.error(
                            Stage::TypeCheck,
                            "E0416",
                            format!(
                                "constructor `{name}` has {} field(s), but this pattern \
                                 binds {}",
                                ci.arity,
                                binders.len()
                            ),
                            *pspan,
                        );
                    }
                    // Instantiate the constructor scheme and peel one
                    // function arrow per field; the final result type is
                    // the scrutinee's.
                    let mut t = self.instantiate_con(ci, *pspan);
                    let mut fields: Vec<TypeId> = Vec::with_capacity(ci.arity);
                    for _ in 0..ci.arity {
                        match self.types.node(t) {
                            Node::Fun(a, b) => {
                                fields.push(a);
                                t = b;
                            }
                            _ => {
                                let f = self.fresh_ty();
                                fields.push(f);
                            }
                        }
                    }
                    self.unify_at(ts, t, *pspan);
                    let base = self.locals.len();
                    for (i, (b, _)) in binders.iter().enumerate() {
                        if b != "_" {
                            // Extra binders (arity mismatch, already
                            // reported) recover with fresh types.
                            let ft = match fields.get(i) {
                                Some(f) => *f,
                                None => self.fresh_ty(),
                            };
                            self.locals.push(b, ft);
                        }
                    }
                    let (tb, cb) = self.infer_expr(&arm.body);
                    self.locals.truncate(base);
                    self.unify_at(result, tb, arm.span);
                    core_arms.push(tc_coreir::CoreArm {
                        con: Some((name.clone(), ci.tag)),
                        binders: binders.iter().map(|(b, _)| b.clone()).collect(),
                        body: cb,
                    });
                }
            }
        }
        (result, CoreExpr::Case(Box::new(cs), core_arms))
    }

    /// A conversion context over this run's store, memo table and
    /// diagnostics.
    fn convert_ctx<'c>(
        &'c mut self,
        assumptions: &'c [IdPred],
        dict_params: &'c [String],
        group_members: &'c [String],
        group_retained: &'c [IdPred],
    ) -> ConvertCtx<'c> {
        ConvertCtx {
            cenv: self.cenv,
            table: &self.table,
            types: &mut self.types,
            subst: &mut self.subst,
            cache: &mut self.cache,
            assumptions,
            dict_params,
            group_members,
            group_retained,
            budget: self.budget,
            diags: &mut self.diags,
        }
    }
}

/// `a`, `b`, ..., then `a1`, `b1`, ... — positional display names used
/// for instance-variable skolems.
fn display_name(i: usize) -> String {
    let letter = (b'a' + (i % 26) as u8) as char;
    let suffix = i / 26;
    if suffix == 0 {
        letter.to_string()
    } else {
        format!("{letter}{suffix}")
    }
}

/// Elaborate a whole program against a validated class environment,
/// with resolution memoization on (the production configuration).
pub fn elaborate(
    program: &Program,
    cenv: &ClassEnv,
    gen: &mut VarGen,
    budget: ReduceBudget,
) -> (Elaboration, Diagnostics) {
    elaborate_with(
        program,
        cenv,
        gen,
        ElabOptions {
            budget,
            ..ElabOptions::default()
        },
    )
}

/// Elaborate with explicit [`ElabOptions`] — memo table on or off,
/// resolution explain-tracing on or off. Memoized and unmemoized
/// configurations produce identical programs and diagnostics (pinned
/// by the differential suite); `memoize = false` exists for baselines
/// and differential testing.
pub fn elaborate_with(
    program: &Program,
    cenv: &ClassEnv,
    gen: &mut VarGen,
    opts: ElabOptions,
) -> (Elaboration, Diagnostics) {
    elaborate_over(program, cenv, ElabBase::builtins(), gen, opts)
}

/// Elaborate `program` on top of `base`, a program elaborated before it
/// (the prelude), against `cenv`, the class environment extending the
/// base's ([`tc_classes::extend_class_env`]).
///
/// The result covers the program's own bindings and instances and is
/// what whole-program elaboration of the two as one text, base first,
/// gives for them: the base's bindings are in scope through their
/// schemes, names the base binds cannot be redefined, and every counter
/// continues from the base's ([`ElabCounts`]), so names do. The base's
/// code is closed: a program's bindings never change what the base's
/// names mean, even where they shadow a builtin the base uses.
///
/// The run resolves instances against a resolve cache of its own
/// (memoizing iff [`ElabOptions::memoize`]), keyed into its own type
/// store; the cache is dropped when the run returns, and the store is
/// kept in the result for [`Elaboration::scheme`].
pub fn elaborate_over(
    program: &Program,
    cenv: &ClassEnv,
    base: &ElabBase,
    gen: &mut VarGen,
    opts: ElabOptions,
) -> (Elaboration, Diagnostics) {
    let mut cache = if opts.memoize {
        ResolveCache::new()
    } else {
        ResolveCache::disabled()
    };
    let mut types = Interner::new();
    if opts.trace_resolution {
        cache.enable_trace();
    }
    if opts.collect_metrics {
        cache.enable_metrics();
    }
    if let Some(token) = opts.cancel.clone() {
        cache.set_cancel(token);
    }
    if opts.events.is_enabled() {
        cache.set_events(opts.events.clone());
    }
    let int = types.intern(&Type::int());
    let bool = types.intern(&Type::bool());
    let mut inf = Infer {
        cenv,
        gen,
        types,
        subst: Subst::new(),
        table: PlaceholderTable::new(),
        preds: Vec::new(),
        base,
        globals: HashMap::new(),
        base_schemes: HashMap::new(),
        method_schemes: HashMap::new(),
        con_schemes: HashMap::new(),
        group_mono: HashMap::new(),
        locals: Scope::new(),
        budget: opts.budget,
        cache,
        diags: Diagnostics::new(),
        binds: Vec::new(),
        skolem_names: HashMap::new(),
        cancel: opts.cancel.clone(),
        store_full_reported: false,
        int,
        bool,
    };
    let mut counts = base.counts;

    // --- Signatures ---------------------------------------------------
    inf.gen.skip(base.counts.signature_vars);
    let start = inf.gen.allocated();
    let mut sig_map: HashMap<String, IdScheme> = HashMap::new();
    for sig in &program.sigs {
        if cenv.method(&sig.name).is_some() {
            inf.diags.error(
                Stage::TypeCheck,
                "E0415",
                format!(
                    "`{}` is a class method; its type comes from the class declaration",
                    sig.name
                ),
                sig.span,
            );
            continue;
        }
        if sig_map.contains_key(&sig.name) {
            inf.diags.error(
                Stage::TypeCheck,
                "E0406",
                format!("duplicate type signature for `{}`", sig.name),
                sig.span,
            );
            continue;
        }
        let mut ctx = LowerCtx::new();
        let qual = lower_qual_type(&sig.qual_ty, &mut ctx, inf.gen, &mut inf.diags, &cenv.datas);
        for (name, var) in &ctx.vars {
            inf.skolem_names.insert(var.0, name.clone());
        }
        for p in &qual.preds {
            if cenv.class(&p.class).is_none() {
                inf.diags.error(
                    Stage::TypeCheck,
                    "E0409",
                    format!("unknown class `{}` in signature context", p.class),
                    p.span,
                );
            }
        }
        let sch = Scheme::generalize(qual);
        sig_map.insert(sig.name.clone(), IdScheme::intern(&mut inf.types, &sch));
    }
    counts.signature_vars += inf.gen.allocated() - start;
    let bound: HashSet<&str> = program.bindings.iter().map(|b| b.name.as_str()).collect();
    for sig in &program.sigs {
        if sig_map.contains_key(&sig.name) && !bound.contains(sig.name.as_str()) {
            inf.diags.warning(
                Stage::TypeCheck,
                "E0407",
                format!("type signature for `{}` has no binding", sig.name),
                sig.span,
            );
        }
    }

    // --- Duplicate / shadowing checks ---------------------------------
    let mut seen: HashSet<&str> = HashSet::new();
    let mut skip: HashSet<usize> = HashSet::new();
    for (i, b) in program.bindings.iter().enumerate() {
        if base.bindings.contains(&b.name) || !seen.insert(b.name.as_str()) {
            inf.diags.error(
                Stage::TypeCheck,
                "E0408",
                format!(
                    "duplicate definition of `{}` (first definition wins)",
                    b.name
                ),
                b.span,
            );
            skip.insert(i);
            continue;
        }
        if cenv.method(&b.name).is_some() {
            inf.diags.error(
                Stage::TypeCheck,
                "E0414",
                format!(
                    "`{}` is a class method and cannot be redefined at top level \
                     (the binding shadows the method here)",
                    b.name
                ),
                b.span,
            );
        } else if base.is_builtin(&b.name) {
            inf.diags.warning(
                Stage::TypeCheck,
                "E0414",
                format!("binding `{}` shadows a builtin of the same name", b.name),
                b.span,
            );
        }
    }

    // Declared schemes are visible everywhere, up front.
    for (name, sch) in &sig_map {
        if bound.contains(name.as_str()) {
            inf.globals.insert(name.clone(), sch.clone());
        }
    }

    // --- Binding groups, in dependency order --------------------------
    inf.gen.skip(base.counts.group_vars);
    let start = inf.gen.allocated();
    let groups = binding_groups(&program.bindings, &base.bindings);
    counts.groups += groups.len();
    for (gi, group) in groups.into_iter().enumerate() {
        // A tripped deadline stops elaboration between groups; the
        // driver's next stage boundary reports it.
        if inf.cancelled() {
            break;
        }
        let gi = base.counts.groups + gi;
        inf.store_full_reported = false;
        let members: Vec<usize> = group.into_iter().filter(|i| !skip.contains(i)).collect();
        if members.is_empty() {
            continue;
        }
        let (sigless, sigd): (Vec<usize>, Vec<usize>) = members
            .iter()
            .partition(|&&i| !sig_map.contains_key(&program.bindings[i].name));

        // 1. Monomorphic placeholders for signature-less members.
        inf.group_mono.clear();
        for &i in &sigless {
            let t = inf.fresh_ty();
            inf.group_mono.insert(program.bindings[i].name.clone(), t);
        }

        // 2. Infer signature-less bodies together.
        let mut outs: Vec<(String, CoreExpr, Vec<IdPred>)> = Vec::new();
        for &i in &sigless {
            let b = &program.bindings[i];
            inf.preds.clear();
            let (t, c) = inf.infer_expr(&b.expr);
            let mono = inf.group_mono[&b.name];
            inf.unify_at(mono, t, b.span);
            let collected = std::mem::take(&mut inf.preds);
            outs.push((b.name.clone(), c, collected));
        }

        // 3. Reduce the group's accumulated context and generalize.
        let all_preds: Vec<IdPred> = outs
            .iter()
            .flat_map(|(_, _, ps)| ps.iter())
            .map(|&p| inf.zonk_pred(p))
            .collect();
        let (retained, errors) =
            cenv.reduce_context(&all_preds, opts.budget, &mut inf.types, &mut inf.cache);
        for e in &errors {
            inf.diags
                .error(Stage::TypeCheck, e.code(), e.to_string(), e.pred().span);
        }
        let mut gen_vars: BTreeSet<TyVar> = BTreeSet::new();
        let mut member_types: HashMap<&str, TypeId> = HashMap::new();
        for (&i, (name, _, _)) in sigless.iter().zip(&outs) {
            let mono = inf.group_mono[name];
            let mut t = inf.zonk(mono);
            let size = inf.types.size(t);
            if size > MAX_NODES {
                // Too large to show as a scheme: the member gets E0403
                // and `forall a. a`, as if its type had never been solved.
                inf.diags.error(
                    Stage::TypeCheck,
                    "E0403",
                    format!(
                        "the type of `{name}` is too large for a scheme: {size} nodes as a \
                         tree, more than {MAX_NODES}"
                    ),
                    program.bindings[i].span,
                );
                t = mono;
            }
            inf.types.collect_vars(t, &mut gen_vars);
            member_types.insert(name, t);
        }
        for p in &retained {
            if !inf.types.free_vars(p.ty).is_subset(&gen_vars) {
                let shown = p.tree(&mut inf.types);
                inf.diags.error(
                    Stage::TypeCheck,
                    "E0411",
                    format!(
                        "ambiguous constraint `{shown}`: its type variable is not fixed \
                         by the binding group's type"
                    ),
                    p.span,
                );
            }
        }
        let dict_params: Vec<String> = (0..retained.len())
            .map(|k| format!("$dg{gi}${k}"))
            .collect();
        let group_names: Vec<String> = outs.iter().map(|(n, _, _)| n.clone()).collect();
        let mut context_vars: BTreeSet<TyVar> = BTreeSet::new();
        for p in &retained {
            inf.types.collect_vars(p.ty, &mut context_vars);
        }
        for (name, _, _) in &outs {
            let head = member_types[name.as_str()];
            // Quantify over the whole group's variables (THIH-style),
            // restricted to those actually occurring in this scheme.
            let mut vars = context_vars.clone();
            inf.types.collect_vars(head, &mut vars);
            let vars: Vec<TyVar> = vars.into_iter().filter(|v| gen_vars.contains(v)).collect();
            let sch = IdScheme {
                vars,
                preds: retained.clone(),
                head,
            };
            inf.globals.insert(name.clone(), sch);
        }

        // 4. Dictionary conversion for signature-less members.
        for (name, mut core, _) in outs {
            let mut cx = inf.convert_ctx(&retained, &dict_params, &group_names, &retained);
            convert(&mut core, &mut cx);
            inf.binds
                .push((name, CoreExpr::lams(dict_params.iter().cloned(), core)));
        }
        inf.group_mono.clear();

        // 5. Check signature-carrying members against their skolemized
        //    declared type. Same-group signature-less siblings are used
        //    through their (just generalized) schemes.
        for &i in &sigd {
            let b = &program.bindings[i];
            let Some(sch) = sig_map.get(&b.name) else {
                continue;
            };
            let (sk_preds, sk_ty) = inf.skolemize(sch);
            inf.preds.clear();
            let (t, mut c) = inf.infer_expr(&b.expr);
            inf.unify_at(sk_ty, t, b.span);
            let params: Vec<String> = (0..sk_preds.len())
                .map(|k| format!("$ds${}${k}", b.name))
                .collect();
            let assumptions: Vec<IdPred> = sk_preds.iter().map(|&p| inf.zonk_pred(p)).collect();
            convert(
                &mut c,
                &mut inf.convert_ctx(&assumptions, &params, &[], &[]),
            );
            inf.binds.push((b.name.clone(), CoreExpr::lams(params, c)));
        }
    }

    counts.group_vars += inf.gen.allocated() - start;
    let group_binds = inf.binds.len();

    // --- Instance dictionary constructors ------------------------------
    inf.gen.skip(base.counts.method_vars);
    let start = inf.gen.allocated();
    elaborate_instances(&mut inf, program);
    counts.method_vars += inf.gen.allocated() - start;

    // --- Entry point ---------------------------------------------------
    let has_main = inf.binds.iter().any(|(n, _)| n == "main");
    if has_main {
        // The scheme as generalized, as a tree only if it is shown.
        let sch = match inf.globals.get("main") {
            Some(own) => (!own.preds.is_empty()).then(|| own.tree(&inf.types)),
            None => base.globals.get("main").cloned(),
        };
        if let Some(sch) = sch {
            if !sch.qual.preds.is_empty() {
                inf.diags.error(
                    Stage::TypeCheck,
                    "E0413",
                    format!("`main` must not have a class context, but its type is `{sch}`"),
                    program
                        .bindings
                        .iter()
                        .find(|b| b.name == "main")
                        .map(|b| b.span)
                        .unwrap_or(Span::DUMMY),
                );
            }
        }
    }

    let mut cache = inf.cache;
    cache.flush_metrics(&inf.types);
    cache.metrics.add(CounterId::SubstLinks, inf.subst.links());
    (
        Elaboration {
            core: CoreProgram {
                binds: inf.binds,
                main: has_main.then(|| "main".to_string()),
                linked: None,
            },
            group_binds,
            counts,
            schemes: inf.globals,
            stats: cache.stats,
            resolution_trace: cache.take_trace(),
            metrics: std::mem::take(&mut cache.metrics),
            types: inf.types,
        },
        inf.diags,
    )
}

/// Build `$dictN$C$T` constructor bindings for the program's own
/// instances (the base's were built with it): one lambda per context
/// predicate, returning a tuple of superclass dictionaries followed by
/// method implementations.
fn elaborate_instances<'a>(inf: &mut Infer<'a>, program: &'a Program) {
    let mut insts: Vec<&'a tc_classes::Instance> = inf.cenv.own_instances().collect();
    insts.sort_by_key(|i| i.id);
    for inst in insts {
        let Some(decl) = program.instances.get(inst.ast_index) else {
            continue;
        };
        let Some(ci) = inf.cenv.class(&inst.head.class) else {
            continue;
        };

        // Skolemize the instance's own variables: the dictionary
        // constructor must be parametric in them.
        let head = inf.types.intern(&inst.head.ty);
        let context: Vec<IdPred> = inst
            .preds
            .iter()
            .map(|p| inf.types.intern_pred(p))
            .collect();
        let mut inst_vars: BTreeSet<TyVar> = inf.types.free_vars(head);
        for p in &context {
            inf.types.collect_vars(p.ty, &mut inst_vars);
        }
        let sk: Vec<(TyVar, TypeId)> = inst_vars
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, inf.types.con_named(&format!("${}", display_name(k)))))
            .collect();
        let skolem = |v: TyVar| sk.iter().find(|(w, _)| *w == v).map(|&(_, c)| c);
        let mut next_skolem = inst_vars.len();
        let sk_head_id = inf.types.map_vars(head, skolem);
        let sk_preds: Vec<IdPred> = context
            .iter()
            .map(|&p| IdPred {
                ty: inf.types.map_vars(p.ty, skolem),
                ..p
            })
            .collect();
        let iparams: Vec<String> = (0..sk_preds.len())
            .map(|k| format!("$di{}${k}", inst.id))
            .collect();

        let mut slots: Vec<CoreExpr> = Vec::new();

        // Superclass dictionary slots, resolved from the instance
        // context: `instance Ord Int` needs an `Eq Int` in scope.
        for sup in &ci.supers {
            let goal = IdPred {
                class: inf.types.intern_name(sup),
                ty: sk_head_id,
                span: inst.span,
            };
            let mut cx = inf.convert_ctx(&sk_preds, &iparams, &[], &[]);
            slots.push(cx.resolve_pred(goal));
        }

        // Method slots, in class declaration order. A method defined
        // twice (E0314) takes its first body.
        let mut bodies: HashMap<&str, &Binding> = HashMap::new();
        for b in &decl.methods {
            bodies.entry(&b.name).or_insert(b);
        }
        for m in &ci.methods {
            let Some(&body) = bodies.get(m.name.as_str()) else {
                // Already reported (E0315) at class-env build time.
                slots.push(CoreExpr::Fail(format!(
                    "missing method `{}` in instance `{} {}`",
                    m.name,
                    inst.head.class,
                    inf.types.tree(sk_head_id)
                )));
                continue;
            };
            // A tripped deadline stops elaboration between method
            // bodies, as between binding groups.
            if inf.cancelled() {
                return;
            }

            // Instantiate the method scheme, pin its class variable to
            // the (skolemized) instance head, and freeze every other
            // quantified variable as a fresh rigid constant.
            let mut minted: Vec<TyVar> = Vec::new();
            let msch = inf
                .method_schemes
                .entry(&m.name)
                .or_insert_with(|| IdScheme::intern(&mut inf.types, &m.scheme));
            let mut rest = Vec::new();
            inf.store_full_reported = false;
            let mty = instantiate(
                &mut inf.types,
                inf.gen,
                msch,
                body.span,
                &mut rest,
                Some(&mut minted),
            )
            .unwrap_or_else(|| inf.past_cap(body.span));
            if rest.is_empty() {
                slots.push(CoreExpr::Fail(format!(
                    "method `{}` lost its class constraint",
                    m.name
                )));
                continue;
            }
            let class_pred = rest.remove(0);
            inf.unify_at(class_pred.ty, sk_head_id, body.span);
            for v in minted {
                let var = inf.types.var(v);
                if inf.zonk(var) == var {
                    let name = format!("${}", display_name(next_skolem));
                    let rigid = inf.types.con_named(&name);
                    inf.subst.bind(v, rigid);
                    next_skolem += 1;
                }
            }
            let expected = inf.zonk(mty);
            let mut assumptions = sk_preds.clone();
            for &p in &rest {
                let p = inf.zonk_pred(p);
                assumptions.push(IdPred {
                    span: body.span,
                    ..p
                });
            }

            inf.preds.clear();
            let (tb, mut cb) = inf.infer_expr(&body.expr);
            inf.unify_at(expected, tb, body.span);

            let xparams: Vec<String> = (0..rest.len())
                .map(|k| format!("$dx{}${}${k}", inst.id, m.name))
                .collect();
            let mut all_params = iparams.clone();
            all_params.extend(xparams.iter().cloned());
            convert(
                &mut cb,
                &mut inf.convert_ctx(&assumptions, &all_params, &[], &[]),
            );
            slots.push(CoreExpr::lams(xparams, cb));
        }

        inf.binds.push((
            inst.dict_binding_name().to_string(),
            CoreExpr::lams(iparams, CoreExpr::Tuple(slots)),
        ));
    }
}
