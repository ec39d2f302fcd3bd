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
//! for what leaves the elaborator: the schemes in
//! [`Elaboration::schemes`] and diagnostic text.
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
use tc_syntax::{Diagnostics, Expr, Program, Scope, Span, Stage};
use tc_trace::{CounterId, MetricsRegistry};
use tc_types::{
    IdPred, Interner, Node, Pred, Qual, Scheme, Subst, TyVar, Type, TypeErrorKind, TypeId, VarGen,
};

use crate::builtins::builtin_env;
use crate::convert::{convert, ConvertCtx};
use crate::scc::binding_groups;

/// The counters an elaboration advanced, summed over it and every base
/// it extends. A program elaborated on top continues each one, so its
/// dictionary parameters (`$dg<group>$…`) and type variables are named,
/// and its substitution is charged, as if both programs were one text.
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
    /// Substitution nodes held when the binding groups are done.
    pub group_nodes: usize,
    /// Substitution nodes added checking instance method bodies.
    pub method_nodes: usize,
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
        globals.extend(elab.schemes);
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
/// the inferred/declared scheme of every top-level binding.
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
    pub schemes: HashMap<String, Scheme>,
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
    /// The run's resolve cache and type store, handed back so a later
    /// elaboration in the same session (the coherence law harness) can
    /// reuse the warm memo table via [`elaborate_over`]. The cache's
    /// trace and metrics sinks have already been drained into the
    /// fields above.
    pub cache: Option<WarmCache>,
}

/// A resolve cache with the type store its memo table is keyed into.
/// The table's keys are ids of that store, so the two travel together
/// from one elaboration to the next ([`Elaboration::cache`],
/// [`elaborate_over`]).
#[derive(Debug, Default)]
pub struct WarmCache {
    pub cache: ResolveCache,
    pub types: Interner,
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
    /// Cap the resolve cache's memo table at this many entries
    /// (`None` = unbounded). Used by servers shedding memory under
    /// load via [`ResolveCache::set_capacity`].
    pub cache_capacity: Option<usize>,
    /// Flight-recorder scope: when enabled, the resolver records one
    /// event per goal (depth, memo hit/miss) and per cache eviction.
    /// The default scope is off and costs one branch per site.
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
            cache_capacity: None,
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

    /// The scheme as a tree, with `subst` applied.
    fn tree(&self, types: &Interner, subst: &Subst) -> Scheme {
        Scheme {
            vars: self.vars.clone(),
            qual: Qual::new(
                self.preds
                    .iter()
                    .map(|p| pred_tree(types, subst, p, p.span))
                    .collect(),
                subst.apply_tree(types, self.head),
            ),
        }
    }
}

/// `p` with `subst` applied, as a tree, blamed on `span`: how a
/// predicate leaves the elaborator in a scheme or a diagnostic.
fn pred_tree(types: &Interner, subst: &Subst, p: &IdPred, span: Span) -> Pred {
    Pred::new(
        types.name(p.class).unwrap_or("?"),
        subst.apply_tree(types, p.ty),
        span,
    )
}

/// Instantiate `sch` at a use site: every quantified variable becomes a
/// fresh one (allocated in the scheme's order, and pushed to `minted`),
/// and the instantiated context, blamed on `span`, goes to `preds`.
fn instantiate(
    types: &mut Interner,
    gen: &mut VarGen,
    sch: &IdScheme,
    span: Span,
    preds: &mut Vec<IdPred>,
    mut minted: Option<&mut Vec<TyVar>>,
) -> TypeId {
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
    ty
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

    fn unify_at(&mut self, expected: TypeId, found: TypeId, span: Span) {
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
            let ty = instantiate(&mut self.types, self.gen, sch, span, &mut preds, None);
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
            let ty = instantiate(&mut self.types, self.gen, sch, span, &mut preds, None);
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
            subst: &self.subst,
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
    elaborate_over(program, cenv, ElabBase::builtins(), gen, opts, None)
}

/// Elaborate `program` on top of `base`, a program elaborated before it
/// (the prelude), against `cenv`, the class environment extending the
/// base's ([`tc_classes::extend_class_env`]).
///
/// The result covers the program's own bindings and instances and is
/// what whole-program elaboration of the two as one text, base first,
/// gives for them: the base's bindings are in scope through their
/// schemes, names the base binds cannot be redefined, and every counter
/// continues from the base's ([`ElabCounts`]): names, and the nodes the
/// substitution's program-wide ceiling is charged. The base's code
/// is closed: a program's bindings never change what the base's names
/// mean, even where they shadow a builtin the base uses.
///
/// `cache`, when given, is resolved against instead of a fresh one
/// (which memoizes iff [`ElabOptions::memoize`]) — usually a cache
/// handed back by a previous elaboration's [`Elaboration::cache`], so
/// tabled derivations from that session answer this run's goals in
/// O(1). Its memo entries never go stale (they are context-independent
/// and keyed by ground goals), so seeding is sound for the same class
/// environment.
pub fn elaborate_over(
    program: &Program,
    cenv: &ClassEnv,
    base: &ElabBase,
    gen: &mut VarGen,
    opts: ElabOptions,
    cache: Option<WarmCache>,
) -> (Elaboration, Diagnostics) {
    let WarmCache {
        mut cache,
        mut types,
    } = cache.unwrap_or_else(|| WarmCache {
        cache: if opts.memoize {
            ResolveCache::new()
        } else {
            ResolveCache::disabled()
        },
        types: Interner::new(),
    });
    if opts.trace_resolution {
        cache.enable_trace();
    }
    if opts.collect_metrics {
        cache.enable_metrics();
    }
    if let Some(token) = opts.cancel.clone() {
        cache.set_cancel(token);
    }
    if let Some(cap) = opts.cache_capacity {
        cache.set_capacity(cap);
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
        let sch = Scheme::generalize(qual, &BTreeSet::new());
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
    inf.subst.charge(base.counts.group_nodes);
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
        let members: Vec<usize> = group.into_iter().filter(|i| !skip.contains(i)).collect();
        if members.is_empty() {
            continue;
        }
        let (sigless, sigd): (Vec<usize>, Vec<usize>) = members
            .iter()
            .partition(|&&i| !sig_map.contains_key(&program.bindings[i].name));
        // Each group is charged the substitution's node cap on its own:
        // finished groups count only against the program-wide ceiling.
        inf.subst.start_group();

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
        for (name, _, _) in &outs {
            let t = inf.zonk(inf.group_mono[name]);
            inf.types.collect_vars(t, &mut gen_vars);
            member_types.insert(name, t);
        }
        for p in &retained {
            if !inf.types.free_vars(p.ty).is_subset(&gen_vars) {
                let shown = p.tree(&inf.types);
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
    counts.group_nodes = inf.subst.nodes();
    let group_binds = inf.binds.len();

    // --- Instance dictionary constructors ------------------------------
    inf.gen.skip(base.counts.method_vars);
    inf.subst.charge(base.counts.method_nodes);
    let (start, start_nodes) = (inf.gen.allocated(), inf.subst.nodes());
    elaborate_instances(&mut inf, program);
    counts.method_vars += inf.gen.allocated() - start;
    counts.method_nodes += inf.subst.nodes().saturating_sub(start_nodes);

    // --- Entry point ---------------------------------------------------
    let has_main = inf.binds.iter().any(|(n, _)| n == "main");
    if has_main {
        // The scheme as generalized, before later groups' bindings.
        let sch = match inf.globals.get("main") {
            Some(own) => Some(own.tree(&inf.types, &Subst::new())),
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

    // The base's schemes are closed, and their quantified variables
    // were numbered by another run, so only the program's own go
    // through this run's substitution.
    let schemes: HashMap<String, Scheme> = program
        .bindings
        .iter()
        .filter_map(|b| {
            let s = match inf.globals.get(&b.name) {
                Some(own) => own.tree(&inf.types, &inf.subst),
                None => base.globals.get(&b.name)?.clone(),
            };
            Some((b.name.clone(), s))
        })
        .collect();

    let mut cache = inf.cache;
    cache.flush_metrics(&inf.types);
    cache
        .metrics
        .add(CounterId::SubstBindWork, inf.subst.bind_work());
    (
        Elaboration {
            core: CoreProgram {
                binds: inf.binds,
                main: has_main.then(|| "main".to_string()),
                linked: None,
            },
            group_binds,
            counts,
            schemes,
            stats: cache.stats,
            resolution_trace: cache.take_trace(),
            metrics: std::mem::take(&mut cache.metrics),
            cache: Some(WarmCache {
                cache,
                types: inf.types,
            }),
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

        // Method slots, in class declaration order.
        for m in &ci.methods {
            let Some(body) = decl.methods.iter().find(|b| b.name == m.name) else {
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
            // quantified variable as a fresh rigid constant. Like a
            // binding group, each method body is charged the node cap
            // on its own.
            inf.subst.start_group();
            let mut minted: Vec<TyVar> = Vec::new();
            let msch = inf
                .method_schemes
                .entry(&m.name)
                .or_insert_with(|| IdScheme::intern(&mut inf.types, &m.scheme));
            let mut rest = Vec::new();
            let mty = instantiate(
                &mut inf.types,
                inf.gen,
                msch,
                body.span,
                &mut rest,
                Some(&mut minted),
            );
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
                    let _ = inf.subst.bind(&mut inf.types, v, rigid);
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
