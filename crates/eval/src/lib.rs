//! `tc-eval`: a lazy (call-by-need) evaluator for the
//! dictionary-passing core, sandboxed behind an explicit [`Budget`].
//!
//! Dictionaries are ordinary tuples at runtime, so nothing here knows
//! about classes: by the time code reaches the evaluator, overloading
//! has been compiled away exactly as in Peterson & Jones.
//!
//! Robustness model — evaluation of *any* core program terminates with
//! a `Result`, never a panic, never an unbounded hang:
//!
//! * **fuel**: every evaluation step costs one unit; exhaustion returns
//!   [`EvalError::FuelExhausted`] deterministically (same program, same
//!   budget, same step of failure);
//! * **depth**: native recursion is capped ([`Budget::max_depth`],
//!   clamped to an internal ceiling) so deep applications return
//!   [`EvalError::DepthExceeded`] instead of overflowing the stack;
//! * **allocations**: thunks, closures, environment frames and cons
//!   cells are counted and capped ([`EvalError::AllocationLimit`]);
//! * **blackholing**: a thunk found under evaluation by its own
//!   evaluation is a dependency cycle, reported as
//!   [`EvalError::BlackHole`] (e.g. `let x = x in x`);
//! * type-shaped runtime errors (`if` on a non-Bool, projecting a
//!   non-tuple, ...) are structured errors — they can only arise from
//!   programs that already carry typecheck diagnostics, but the
//!   evaluator still refuses gracefully rather than trusting upstream.
//!
//! All evaluator-created thunks live in an arena owned by the
//! [`Evaluator`]; dropping it severs every thunk's children first, so
//! dismantling a million-cell lazy list (or a cyclic `letrec`
//! environment) never recurses deeply and never leaks.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use tc_coreir::{CoreExpr, CoreProgram, Literal};
use tc_trace::{CancelToken, EventKind, EventScope, Stage};

/// Resource limits for one evaluation session.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum evaluation steps.
    pub fuel: u64,
    /// Maximum native recursion depth (clamped to [`DEPTH_CEILING`]).
    pub max_depth: usize,
    /// Maximum number of heap objects (thunks, frames, closures).
    pub max_allocs: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            fuel: 1_000_000,
            max_depth: 2_000,
            max_allocs: 1_000_000,
        }
    }
}

impl Budget {
    /// A tiny budget, handy for tests and for probing adversarial
    /// programs quickly.
    pub fn small() -> Self {
        Budget {
            fuel: 10_000,
            max_depth: 200,
            max_allocs: 10_000,
        }
    }
}

/// Hard ceiling on `max_depth`: each level of guest recursion costs a
/// bounded number of native frames, and this keeps worst-case native
/// stack usage a few megabytes regardless of what the caller asks for.
pub const DEPTH_CEILING: usize = 10_000;

/// The cancellation token is polled when `fuel_left & MASK == 0`, i.e.
/// once every 4096 evaluation steps — frequent enough that a deadline
/// stops a runaway program within microseconds, rare enough that the
/// clock read never shows up in profiles.
const CANCEL_POLL_MASK: u64 = 0xFFF;

/// Aggregate resource counters for one evaluation session. Cheap to
/// collect (always on), snapshotted by [`Evaluator::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluation steps consumed.
    pub fuel_used: u64,
    /// Heap objects (thunks, frames, closures) allocated. Nothing is
    /// freed mid-run, so this is also the peak live count.
    pub peak_allocs: u64,
    /// Call-by-need suspensions created (a subset of `peak_allocs`).
    pub thunks_created: u64,
    /// Thunk forces, including re-forces of already-evaluated cells.
    pub forces: u64,
}

/// Per-binding attribution for one top-level binding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BindingProfile {
    pub name: String,
    /// Times the binding's thunk was forced (first force evaluates;
    /// later forces are cache hits — a high count means a hot shared
    /// value, not repeated work).
    pub forces: u64,
    /// Fuel burned while evaluating this binding's right-hand side
    /// (innermost-binding attribution: work done inside another global
    /// forced from here is charged to that global).
    pub fuel: u64,
    /// Thunks created while evaluating this binding's right-hand side.
    pub thunks: u64,
}

/// The evaluator profile: per-binding counters, hottest (most fuel)
/// first. Built by [`Evaluator::take_profile`] when profiling was
/// enabled with [`Evaluator::enable_profiling`].
#[derive(Debug, Clone, Default)]
pub struct EvalProfile {
    pub bindings: Vec<BindingProfile>,
}

impl EvalProfile {
    pub fn get(&self, name: &str) -> Option<&BindingProfile> {
        self.bindings.iter().find(|b| b.name == name)
    }

    /// Human-readable hot-bindings table, hottest first.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10} {:>8}",
            "binding", "forces", "fuel", "thunks"
        );
        for b in &self.bindings {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>8}",
                b.name, b.forces, b.fuel, b.thunks
            );
        }
        out
    }
}

/// Internal profiling state, boxed behind an `Option` so the
/// profiling-off hot path costs one branch and allocates nothing.
#[derive(Debug, Default)]
struct ProfileState {
    entries: Vec<BindingProfile>,
    index: HashMap<String, usize>,
    /// `Rc` pointer of a global binding's thunk → entry index.
    owner: HashMap<usize, usize>,
    /// Entry indices of bindings whose right-hand side is currently
    /// being evaluated, innermost last. Fuel/thunk ticks are charged
    /// to the top.
    stack: Vec<usize>,
}

impl ProfileState {
    fn entry_index(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.entries.len();
        self.entries.push(BindingProfile {
            name: name.to_string(),
            ..BindingProfile::default()
        });
        self.index.insert(name.to_string(), i);
        i
    }

    fn charge_fuel(&mut self) {
        if let Some(&i) = self.stack.last() {
            if let Some(e) = self.entries.get_mut(i) {
                e.fuel += 1;
            }
        }
    }

    fn charge_thunk(&mut self) {
        if let Some(&i) = self.stack.last() {
            if let Some(e) = self.entries.get_mut(i) {
                e.thunks += 1;
            }
        }
    }
}

/// Where the budget stood when a limit tripped: which top-level
/// binding was being evaluated (innermost attribution, `None` when the
/// failure happened outside any global's right-hand side) and how much
/// of each resource remained. Carried in the payload of the budget
/// [`EvalError`] variants so servers and `--stats` consumers can
/// report exhaustion structurally instead of scraping messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetSnapshot {
    /// Innermost top-level binding under evaluation, if any.
    pub binding: Option<String>,
    /// Fuel remaining (0 for fuel exhaustion, by construction).
    pub fuel_left: u64,
    /// Heap-object allocations remaining.
    pub allocs_left: u64,
    /// Native nesting depth at the failure point (0 when the failing
    /// site does not track depth, e.g. allocation).
    pub depth: usize,
}

/// Structured evaluation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    FuelExhausted(BudgetSnapshot),
    DepthExceeded(BudgetSnapshot),
    AllocationLimit(BudgetSnapshot),
    /// The session's [`CancelToken`] fired (deadline or explicit
    /// cancellation); the snapshot records how far evaluation got.
    Cancelled(BudgetSnapshot),
    /// A value's evaluation demanded itself (`let x = x in x`).
    BlackHole,
    UnboundVar(String),
    NotAFunction,
    ConditionNotBool,
    NotAnInt,
    NotABool,
    NotAList,
    BadProjection {
        slot: usize,
    },
    EmptyList(&'static str),
    DivideByZero,
    IntOverflow,
    /// A `CoreExpr::Fail` node (elaboration hole) or the `error`
    /// builtin was forced.
    Failure(String),
    /// A `case` expression's scrutinee matched none of the
    /// alternatives at runtime.
    MatchFailure,
}

impl EvalError {
    /// Stable machine-readable error class, for structured reports
    /// (serve responses, `--stats` JSON). Kebab-case, never localized.
    pub fn code(&self) -> &'static str {
        match self {
            EvalError::FuelExhausted(_) => "fuel-exhausted",
            EvalError::DepthExceeded(_) => "depth-exceeded",
            EvalError::AllocationLimit(_) => "allocation-limit",
            EvalError::Cancelled(_) => "cancelled",
            EvalError::BlackHole => "black-hole",
            EvalError::UnboundVar(_) => "unbound-var",
            EvalError::NotAFunction => "not-a-function",
            EvalError::ConditionNotBool => "condition-not-bool",
            EvalError::NotAnInt => "not-an-int",
            EvalError::NotABool => "not-a-bool",
            EvalError::NotAList => "not-a-list",
            EvalError::BadProjection { .. } => "bad-projection",
            EvalError::EmptyList(_) => "empty-list",
            EvalError::DivideByZero => "divide-by-zero",
            EvalError::IntOverflow => "int-overflow",
            EvalError::Failure(_) => "failure",
            EvalError::MatchFailure => "match-failure",
        }
    }

    /// The budget snapshot carried by resource-limit and cancellation
    /// errors (`None` for the type-shaped runtime errors).
    pub fn budget(&self) -> Option<&BudgetSnapshot> {
        match self {
            EvalError::FuelExhausted(s)
            | EvalError::DepthExceeded(s)
            | EvalError::AllocationLimit(s)
            | EvalError::Cancelled(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Budget messages deliberately omit the snapshot payload:
        // remaining-resource numbers differ across resolution modes
        // for the same program, and the differential suite compares
        // rendered output mode-against-mode.
        match self {
            EvalError::FuelExhausted(_) => f.write_str("evaluation fuel exhausted"),
            EvalError::DepthExceeded(_) => f.write_str("evaluation depth limit exceeded"),
            EvalError::AllocationLimit(_) => f.write_str("evaluation allocation limit exceeded"),
            EvalError::Cancelled(_) => f.write_str("evaluation cancelled (deadline)"),
            EvalError::BlackHole => {
                f.write_str("<<loop>>: value depends on itself while being computed")
            }
            EvalError::UnboundVar(n) => write!(f, "unbound variable `{n}` at runtime"),
            EvalError::NotAFunction => f.write_str("applied a non-function value"),
            EvalError::ConditionNotBool => f.write_str("`if` condition was not a Bool"),
            EvalError::NotAnInt => f.write_str("expected an Int"),
            EvalError::NotABool => f.write_str("expected a Bool"),
            EvalError::NotAList => f.write_str("expected a list"),
            EvalError::BadProjection { slot } => {
                write!(f, "dictionary projection #{slot} out of range")
            }
            EvalError::EmptyList(op) => write!(f, "`{op}` of empty list"),
            EvalError::DivideByZero => f.write_str("division by zero"),
            EvalError::IntOverflow => f.write_str("integer overflow"),
            EvalError::Failure(msg) => write!(f, "runtime failure: {msg}"),
            // No payload: the differential suite compares rendered
            // output across resolution modes byte for byte.
            EvalError::MatchFailure => f.write_str("no case alternative matched"),
        }
    }
}

/// Runtime expression: the core IR with shared (`Rc`) subtrees, so
/// closures capture bodies without cloning them.
pub enum RExpr {
    Var(String),
    /// A builtin, resolved when a closed program was lowered (see
    /// [`LoweredProgram::closed`]); never looked up by name.
    Builtin(&'static str),
    Lit(Literal),
    App(Rc<RExpr>, Rc<RExpr>),
    Lam(String, Rc<RExpr>),
    LetRec(Vec<(String, Rc<RExpr>)>, Rc<RExpr>),
    If(Rc<RExpr>, Rc<RExpr>, Rc<RExpr>),
    Tuple(Vec<Rc<RExpr>>),
    Proj(usize, Rc<RExpr>),
    /// A data constructor: a curried function of `arity` arguments
    /// that builds a [`Value::Data`].
    Con {
        name: Rc<str>,
        tag: u32,
        arity: usize,
    },
    Case(Rc<RExpr>, Vec<RArm>),
    Fail(String),
}

/// One runtime case alternative. `con: None` is the default arm, whose
/// single binder (if not `_`) binds the whole scrutinee.
pub struct RArm {
    pub con: Option<(Rc<str>, u32)>,
    pub binders: Vec<String>,
    pub body: Rc<RExpr>,
}

/// The names in scope while lowering a closed program: its globals and
/// the binders around the expression being lowered.
struct ClosedScope<'a> {
    globals: &'a HashSet<&'a str>,
    locals: Vec<&'a str>,
}

/// One-time translation; recursion depth is bounded by the elaborator's
/// output shape (parser depth budget plus constant wrappers). With a
/// scope, a name bound neither locally nor by the program that names a
/// builtin lowers to [`RExpr::Builtin`]; every other name is looked up
/// at run time.
fn lower<'a>(e: &'a CoreExpr, mut scope: Option<&mut ClosedScope<'a>>) -> Rc<RExpr> {
    Rc::new(match e {
        CoreExpr::Var(n) => match scope.as_deref() {
            Some(sc) if !sc.locals.contains(&n.as_str()) && !sc.globals.contains(n.as_str()) => {
                match prim(n) {
                    Some((name, _)) => RExpr::Builtin(name),
                    None => RExpr::Var(n.clone()),
                }
            }
            _ => RExpr::Var(n.clone()),
        },
        CoreExpr::Lit(l) => RExpr::Lit(*l),
        CoreExpr::App(f, x) => RExpr::App(
            lower(f, scope.as_deref_mut()),
            lower(x, scope.as_deref_mut()),
        ),
        CoreExpr::Lam(p, b) => {
            let b = within(scope, [p.as_str()], |sc| lower(b, sc));
            RExpr::Lam(p.clone(), b)
        }
        CoreExpr::LetRec(bs, b) => within(scope, bs.iter().map(|(n, _)| n.as_str()), |mut sc| {
            RExpr::LetRec(
                bs.iter()
                    .map(|(n, v)| (n.clone(), lower(v, sc.as_deref_mut())))
                    .collect(),
                lower(b, sc),
            )
        }),
        CoreExpr::If(c, t, f) => RExpr::If(
            lower(c, scope.as_deref_mut()),
            lower(t, scope.as_deref_mut()),
            lower(f, scope.as_deref_mut()),
        ),
        CoreExpr::Tuple(xs) => {
            RExpr::Tuple(xs.iter().map(|x| lower(x, scope.as_deref_mut())).collect())
        }
        CoreExpr::Proj(i, b) => RExpr::Proj(*i, lower(b, scope)),
        CoreExpr::Con { name, tag, arity } => RExpr::Con {
            name: Rc::from(name.as_str()),
            tag: *tag,
            arity: *arity,
        },
        CoreExpr::Case(scrut, arms) => RExpr::Case(
            lower(scrut, scope.as_deref_mut()),
            arms.iter()
                .map(|a| RArm {
                    con: a.con.as_ref().map(|(n, t)| (Rc::from(n.as_str()), *t)),
                    binders: a.binders.clone(),
                    body: within(
                        scope.as_deref_mut(),
                        a.binders.iter().map(String::as_str),
                        |sc| lower(&a.body, sc),
                    ),
                })
                .collect(),
        ),
        // A placeholder surviving to runtime is an elaborator invariant
        // violation; degrade to a structured failure.
        CoreExpr::Placeholder(id) => RExpr::Fail(format!("unresolved placeholder #{id}")),
        CoreExpr::Fail(m) => RExpr::Fail(m.clone()),
    })
}

/// Run `f` with `binders` pushed onto the scope's locals, if there is a
/// scope.
fn within<'a, T>(
    scope: Option<&mut ClosedScope<'a>>,
    binders: impl IntoIterator<Item = &'a str>,
    f: impl FnOnce(Option<&mut ClosedScope<'a>>) -> T,
) -> T {
    let Some(sc) = scope else {
        return f(None);
    };
    let depth = sc.locals.len();
    sc.locals.extend(binders);
    let out = f(Some(&mut *sc));
    sc.locals.truncate(depth);
    out
}

/// Shared, mutable reference to a thunk.
pub type ThunkRef = Rc<RefCell<Thunk>>;

/// A call-by-need cell: unevaluated suspension, in-progress marker
/// (blackhole), or final value.
pub enum Thunk {
    Unevaluated(Rc<RExpr>, Env),
    /// Under evaluation (blackhole), and also the tombstone state used
    /// when the evaluator's arena severs object graphs on drop.
    Evaluating,
    Evaluated(Value),
}

pub struct Frame {
    name: String,
    thunk: ThunkRef,
    next: Env,
}

pub type Env = Option<Rc<Frame>>;

fn env_lookup(env: &Env, name: &str) -> Option<ThunkRef> {
    let mut cur = env;
    while let Some(frame) = cur {
        if frame.name == name {
            return Some(frame.thunk.clone());
        }
        cur = &frame.next;
    }
    None
}

/// Weak-head-normal-form values.
#[derive(Clone)]
pub enum Value {
    Int(i64),
    Bool(bool),
    Closure {
        param: String,
        body: Rc<RExpr>,
        env: Env,
    },
    /// Partially applied builtin.
    Prim {
        name: &'static str,
        applied: Vec<ThunkRef>,
    },
    /// A dictionary.
    Tuple(Vec<ThunkRef>),
    Nil,
    Cons(ThunkRef, ThunkRef),
    /// A user-defined data constructor, possibly partially applied
    /// (`fields.len() < arity`); saturated once `fields.len() == arity`.
    Data {
        name: Rc<str>,
        tag: u32,
        arity: usize,
        fields: Vec<ThunkRef>,
    },
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "Int({n})"),
            Value::Bool(b) => write!(f, "Bool({b})"),
            Value::Closure { param, .. } => write!(f, "Closure(\\{param} -> ...)"),
            Value::Prim { name, applied } => write!(f, "Prim({name}/{})", applied.len()),
            Value::Tuple(xs) => write!(f, "Tuple(#{})", xs.len()),
            Value::Nil => f.write_str("Nil"),
            Value::Cons(_, _) => f.write_str("Cons(..)"),
            Value::Data { name, fields, .. } => write!(f, "Data({name}/{})", fields.len()),
        }
    }
}

/// Builtin dispatch: interned name and arity. Arity-0 builtins are
/// values (or immediate failures).
fn prim(name: &str) -> Option<(&'static str, usize)> {
    Some(match name {
        "primAddInt" => ("primAddInt", 2),
        "primSubInt" => ("primSubInt", 2),
        "primMulInt" => ("primMulInt", 2),
        "primDivInt" => ("primDivInt", 2),
        "primModInt" => ("primModInt", 2),
        "primNegInt" => ("primNegInt", 1),
        "primEqInt" => ("primEqInt", 2),
        "primLtInt" => ("primLtInt", 2),
        "primLeInt" => ("primLeInt", 2),
        "primEqBool" => ("primEqBool", 2),
        "cons" => ("cons", 2),
        "null" => ("null", 1),
        "head" => ("head", 1),
        "tail" => ("tail", 1),
        "nil" => ("nil", 0),
        "error" => ("error", 0),
        _ => return None,
    })
}

/// The value of a builtin named by [`prim`]: arity-0 builtins are
/// values (or immediate failures), the rest start unapplied.
fn builtin_value(name: &'static str) -> Result<Value, EvalError> {
    match name {
        "nil" => Ok(Value::Nil),
        "error" => Err(EvalError::Failure("`error` evaluated".into())),
        _ => Ok(Value::Prim {
            name,
            applied: Vec::new(),
        }),
    }
}

/// The evaluation session. Owns the budget state and the thunk arena.
pub struct Evaluator {
    program: LoweredProgram,
    global_cache: HashMap<String, ThunkRef>,
    budget: Budget,
    fuel_left: u64,
    allocs_left: u64,
    max_depth: usize,
    thunks_created: u64,
    forces: u64,
    /// Per-binding profiler; `None` (the default) keeps the hot path
    /// at one branch per tick and allocates nothing.
    profile: Option<Box<ProfileState>>,
    /// Cooperative cancellation, polled every [`CANCEL_POLL_MASK`]+1
    /// fuel ticks so a deadline stops a runaway evaluation promptly
    /// without paying a clock read per step.
    cancel: Option<CancelToken>,
    /// Flight-recorder scope: a budget checkpoint event is recorded at
    /// the cancellation-poll cadence, and a `cancelled` event when the
    /// fuel loop observes a tripped token. Off (one branch) by default.
    events: EventScope,
    /// `Rc` pointer of a global binding's thunk → binding name, kept
    /// regardless of profiling so budget errors can name the binding
    /// that was being evaluated.
    global_names: HashMap<usize, Rc<str>>,
    /// Global bindings whose right-hand side is currently being
    /// evaluated, innermost last (the always-on counterpart of
    /// [`ProfileState::stack`]).
    binding_stack: Vec<Rc<str>>,
    /// Every thunk ever created. On drop, each is overwritten with a
    /// childless tombstone, severing all links (including `letrec`
    /// cycles) so deep structures are dismantled iteratively.
    arena: Vec<ThunkRef>,
}

impl Drop for Evaluator {
    fn drop(&mut self) {
        for t in &self.arena {
            if let Ok(mut b) = t.try_borrow_mut() {
                *b = Thunk::Evaluating;
            }
        }
    }
}

/// A core program's globals, lowered once. Lowering is linear in
/// program size, so callers that evaluate many entry points of the
/// same program (the class-law harness, bench loops) should lower once
/// and build each [`Evaluator`] from the shared result — the lowered
/// bodies and the map are `Rc`-shared, so building an evaluator copies
/// nothing.
///
/// A program may be linked against a base program lowered before it
/// ([`LoweredProgram::over`]): a global the program does not bind is
/// the base's. That is how a request runs on top of the prelude, which
/// is lowered once per thread.
#[derive(Clone)]
pub struct LoweredProgram {
    globals: Rc<HashMap<String, Rc<RExpr>>>,
    base: Option<Rc<LoweredProgram>>,
}

impl LoweredProgram {
    pub fn new(prog: &CoreProgram) -> Self {
        LoweredProgram {
            globals: Rc::new(
                prog.all_binds()
                    .map(|(n, e)| (n.clone(), lower(e, None)))
                    .collect(),
            ),
            base: None,
        }
    }

    /// Lower a program for others to link against. Its code is closed:
    /// where it uses a builtin, it keeps the builtin, even if a program
    /// linked over it binds a global of the same name.
    pub fn closed(prog: &CoreProgram) -> Self {
        let names: HashSet<&str> = prog.binds.iter().map(|(n, _)| n.as_str()).collect();
        let globals = prog
            .binds
            .iter()
            .map(|(n, e)| {
                let mut scope = ClosedScope {
                    globals: &names,
                    locals: Vec::new(),
                };
                (n.clone(), lower(e, Some(&mut scope)))
            })
            .collect();
        LoweredProgram {
            globals: Rc::new(globals),
            base: None,
        }
    }

    /// Lower `binds` linked against `base`.
    pub fn over<'a>(
        base: Rc<LoweredProgram>,
        binds: impl IntoIterator<Item = &'a (String, CoreExpr)>,
    ) -> Self {
        LoweredProgram {
            globals: Rc::new(
                binds
                    .into_iter()
                    .map(|(n, e)| (n.clone(), lower(e, None)))
                    .collect(),
            ),
            base: Some(base),
        }
    }

    /// The body of global `name`: the program's own, else its base's.
    fn global(&self, name: &str) -> Option<&Rc<RExpr>> {
        self.globals
            .get(name)
            .or_else(|| self.base.as_ref()?.global(name))
    }
}

impl Evaluator {
    pub fn new(prog: &CoreProgram, budget: Budget) -> Self {
        Self::from_lowered(&LoweredProgram::new(prog), budget)
    }

    /// A fresh evaluator (own budget, cache, and arena) over an
    /// already-lowered program.
    pub fn from_lowered(prog: &LoweredProgram, budget: Budget) -> Self {
        Evaluator {
            program: prog.clone(),
            global_cache: HashMap::new(),
            budget,
            fuel_left: budget.fuel,
            allocs_left: budget.max_allocs,
            max_depth: budget.max_depth.min(DEPTH_CEILING),
            thunks_created: 0,
            forces: 0,
            profile: None,
            cancel: None,
            events: EventScope::off(),
            global_names: HashMap::new(),
            binding_stack: Vec::new(),
            arena: Vec::new(),
        }
    }

    /// Install a cancellation token; evaluation returns
    /// [`EvalError::Cancelled`] shortly after it fires.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Install a flight-recorder scope; budget checkpoints and
    /// cancellations record events into it.
    pub fn set_events(&mut self, events: EventScope) {
        self.events = events;
    }

    /// Where the budget stands right now, for error payloads.
    fn snapshot(&self, depth: usize) -> BudgetSnapshot {
        BudgetSnapshot {
            binding: self.binding_stack.last().map(|n| n.to_string()),
            fuel_left: self.fuel_left,
            allocs_left: self.allocs_left,
            depth,
        }
    }

    /// Fuel spent so far (for reporting).
    pub fn fuel_used(&self) -> u64 {
        self.budget.fuel - self.fuel_left
    }

    /// Snapshot the session's aggregate counters.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            fuel_used: self.fuel_used(),
            peak_allocs: self.budget.max_allocs - self.allocs_left,
            thunks_created: self.thunks_created,
            forces: self.forces,
        }
    }

    /// Turn on per-binding profiling (idempotent). Enable before the
    /// first [`Evaluator::eval_entry`] call for complete attribution.
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::default());
        }
    }

    /// Detach the profile accumulated so far, hottest binding (most
    /// fuel) first. `None` when profiling was never enabled.
    pub fn take_profile(&mut self) -> Option<EvalProfile> {
        let state = self.profile.take()?;
        let mut bindings = state.entries;
        bindings.sort_by(|a, b| b.fuel.cmp(&a.fuel).then_with(|| a.name.cmp(&b.name)));
        Some(EvalProfile { bindings })
    }

    fn tick(&mut self, depth: usize) -> Result<(), EvalError> {
        if self.fuel_left == 0 {
            return Err(EvalError::FuelExhausted(self.snapshot(depth)));
        }
        self.fuel_left -= 1;
        if self.fuel_left & CANCEL_POLL_MASK == 0 {
            self.events.record(
                EventKind::EvalCheckpoint,
                self.budget.fuel - self.fuel_left,
                depth as u64,
            );
            if let Some(c) = &self.cancel {
                if c.is_cancelled() {
                    self.events.cancelled(Stage::Eval);
                    return Err(EvalError::Cancelled(self.snapshot(depth)));
                }
            }
        }
        if let Some(p) = self.profile.as_mut() {
            p.charge_fuel();
        }
        Ok(())
    }

    fn check_depth(&self, depth: usize) -> Result<(), EvalError> {
        if depth > self.max_depth {
            return Err(EvalError::DepthExceeded(self.snapshot(depth)));
        }
        Ok(())
    }

    fn alloc(&mut self) -> Result<(), EvalError> {
        if self.allocs_left == 0 {
            return Err(EvalError::AllocationLimit(self.snapshot(0)));
        }
        self.allocs_left -= 1;
        Ok(())
    }

    fn thunk(&mut self, e: Rc<RExpr>, env: Env) -> Result<ThunkRef, EvalError> {
        self.alloc()?;
        self.thunks_created += 1;
        if let Some(p) = self.profile.as_mut() {
            p.charge_thunk();
        }
        let t = Rc::new(RefCell::new(Thunk::Unevaluated(e, env)));
        self.arena.push(t.clone());
        Ok(t)
    }

    fn frame(&mut self, name: String, thunk: ThunkRef, next: Env) -> Result<Env, EvalError> {
        self.alloc()?;
        Ok(Some(Rc::new(Frame { name, thunk, next })))
    }

    fn global_thunk(&mut self, name: &str) -> Option<ThunkRef> {
        if let Some(t) = self.global_cache.get(name) {
            return Some(t.clone());
        }
        let e = self.program.global(name)?.clone();
        let t = self.thunk(e, None).ok()?;
        self.global_cache.insert(name.to_string(), t.clone());
        self.global_names
            .insert(Rc::as_ptr(&t) as usize, Rc::from(name));
        if let Some(p) = self.profile.as_mut() {
            let idx = p.entry_index(name);
            p.owner.insert(Rc::as_ptr(&t) as usize, idx);
        }
        Some(t)
    }

    /// Evaluate a top-level binding to weak head normal form.
    pub fn eval_entry(&mut self, name: &str) -> Result<Value, EvalError> {
        match self.global_thunk(name) {
            Some(t) => self.force(&t, 0),
            None => Err(EvalError::UnboundVar(name.to_string())),
        }
    }

    fn force(&mut self, t: &ThunkRef, depth: usize) -> Result<Value, EvalError> {
        self.tick(depth)?;
        self.check_depth(depth)?;
        self.forces += 1;
        let key = Rc::as_ptr(t) as usize;
        // Which top-level binding (if any) does this thunk belong to?
        let owner = match self.profile.as_mut() {
            Some(p) => {
                let idx = p.owner.get(&key).copied();
                if let Some(i) = idx {
                    if let Some(e) = p.entries.get_mut(i) {
                        e.forces += 1;
                    }
                }
                idx
            }
            None => None,
        };
        let state = std::mem::replace(&mut *t.borrow_mut(), Thunk::Evaluating);
        match state {
            Thunk::Evaluated(v) => {
                *t.borrow_mut() = Thunk::Evaluated(v.clone());
                Ok(v)
            }
            Thunk::Evaluating => Err(EvalError::BlackHole),
            Thunk::Unevaluated(e, env) => {
                // Attribute the binding's right-hand-side work to it:
                // always on the name stack (budget-error payloads),
                // and on the profiler stack when profiling.
                let global = self.global_names.get(&key).cloned();
                if let Some(n) = &global {
                    self.binding_stack.push(n.clone());
                }
                if let (Some(p), Some(i)) = (self.profile.as_mut(), owner) {
                    p.stack.push(i);
                }
                let v = self.eval(&e, &env, depth + 1);
                if let (Some(p), Some(_)) = (self.profile.as_mut(), owner) {
                    p.stack.pop();
                }
                if global.is_some() {
                    self.binding_stack.pop();
                }
                let v = v?;
                *t.borrow_mut() = Thunk::Evaluated(v.clone());
                Ok(v)
            }
        }
    }

    fn eval(&mut self, e: &RExpr, env: &Env, depth: usize) -> Result<Value, EvalError> {
        self.tick(depth)?;
        self.check_depth(depth)?;
        match e {
            RExpr::Var(n) => {
                if let Some(t) = env_lookup(env, n) {
                    return self.force(&t, depth + 1);
                }
                if let Some(t) = self.global_thunk(n) {
                    return self.force(&t, depth + 1);
                }
                match prim(n) {
                    Some((name, _)) => builtin_value(name),
                    None => Err(EvalError::UnboundVar(n.clone())),
                }
            }
            RExpr::Builtin(name) => builtin_value(name),
            RExpr::Lit(Literal::Int(n)) => Ok(Value::Int(*n)),
            RExpr::Lit(Literal::Bool(b)) => Ok(Value::Bool(*b)),
            RExpr::App(f, x) => {
                let fv = self.eval(f, env, depth + 1)?;
                let arg = self.thunk(x.clone(), env.clone())?;
                self.apply(fv, arg, depth)
            }
            RExpr::Lam(p, b) => {
                self.alloc()?;
                Ok(Value::Closure {
                    param: p.clone(),
                    body: b.clone(),
                    env: env.clone(),
                })
            }
            RExpr::LetRec(binds, body) => {
                // Tie the knot: thunks are created with an empty
                // environment, then patched to see the full one.
                let mut thunks = Vec::with_capacity(binds.len());
                for (_, rhs) in binds {
                    thunks.push(self.thunk(rhs.clone(), None)?);
                }
                let mut new_env = env.clone();
                for ((name, _), t) in binds.iter().zip(&thunks) {
                    new_env = self.frame(name.clone(), t.clone(), new_env)?;
                }
                for t in &thunks {
                    if let Thunk::Unevaluated(_, slot) = &mut *t.borrow_mut() {
                        *slot = new_env.clone();
                    }
                }
                self.eval(body, &new_env, depth + 1)
            }
            RExpr::If(c, t, f) => match self.eval(c, env, depth + 1)? {
                Value::Bool(true) => self.eval(t, env, depth + 1),
                Value::Bool(false) => self.eval(f, env, depth + 1),
                _ => Err(EvalError::ConditionNotBool),
            },
            RExpr::Tuple(xs) => {
                let mut ts = Vec::with_capacity(xs.len());
                for x in xs {
                    ts.push(self.thunk(x.clone(), env.clone())?);
                }
                Ok(Value::Tuple(ts))
            }
            RExpr::Proj(i, b) => match self.eval(b, env, depth + 1)? {
                Value::Tuple(xs) => match xs.get(*i) {
                    Some(t) => {
                        let t = t.clone();
                        self.force(&t, depth + 1)
                    }
                    None => Err(EvalError::BadProjection { slot: *i }),
                },
                _ => Err(EvalError::BadProjection { slot: *i }),
            },
            RExpr::Con { name, tag, arity } => {
                self.alloc()?;
                Ok(Value::Data {
                    name: name.clone(),
                    tag: *tag,
                    arity: *arity,
                    fields: Vec::new(),
                })
            }
            RExpr::Case(scrut, arms) => {
                let sv = self.eval(scrut, env, depth + 1)?;
                self.eval_case(&sv, arms, env, depth)
            }
            RExpr::Fail(msg) => Err(EvalError::Failure(msg.clone())),
        }
    }

    /// Wrap an already-evaluated value as a thunk (used to bind a case
    /// scrutinee in a default arm). Counts as an allocation.
    fn value_thunk(&mut self, v: Value) -> Result<ThunkRef, EvalError> {
        self.alloc()?;
        self.thunks_created += 1;
        let t = Rc::new(RefCell::new(Thunk::Evaluated(v)));
        self.arena.push(t.clone());
        Ok(t)
    }

    /// Select and evaluate the first matching case alternative.
    ///
    /// Constructor arms match [`Value::Data`] by constructor name, and
    /// the builtin shapes (`Bool`, `Nil`/`Cons`) by their canonical
    /// constructor names, so derived instances work uniformly over
    /// user-defined and builtin data. A default arm always matches and
    /// binds the scrutinee. An exhausted arm list is a structured
    /// [`EvalError::MatchFailure`], never a panic.
    fn eval_case(
        &mut self,
        scrut: &Value,
        arms: &[RArm],
        env: &Env,
        depth: usize,
    ) -> Result<Value, EvalError> {
        for arm in arms {
            let (con, tag) = match &arm.con {
                None => {
                    let mut new_env = env.clone();
                    if let Some(b) = arm.binders.first() {
                        if b != "_" {
                            let t = self.value_thunk(scrut.clone())?;
                            new_env = self.frame(b.clone(), t, new_env)?;
                        }
                    }
                    return self.eval(&arm.body, &new_env, depth + 1);
                }
                Some((c, t)) => (c.as_ref(), *t),
            };
            let fields: Option<Vec<ThunkRef>> = match scrut {
                Value::Data {
                    name,
                    arity,
                    fields,
                    ..
                } => {
                    if name.as_ref() == con && fields.len() == *arity {
                        Some(fields.clone())
                    } else {
                        None
                    }
                }
                Value::Bool(b) => {
                    let want = if *b { "True" } else { "False" };
                    (con == want).then(Vec::new)
                }
                Value::Nil => (con == "Nil").then(Vec::new),
                Value::Cons(h, t) => (con == "Cons").then(|| vec![h.clone(), t.clone()]),
                // A non-data scrutinee (function, tuple, int) can only
                // reach a con arm from an already-diagnosed program;
                // skip to the default arm or report a match failure.
                _ => None,
            };
            let _ = tag; // tags are denormalized; names decide matches
            if let Some(fields) = fields {
                let mut new_env = env.clone();
                for (b, f) in arm.binders.iter().zip(fields) {
                    if b != "_" {
                        new_env = self.frame(b.clone(), f, new_env)?;
                    }
                }
                return self.eval(&arm.body, &new_env, depth + 1);
            }
        }
        Err(EvalError::MatchFailure)
    }

    fn apply(&mut self, f: Value, arg: ThunkRef, depth: usize) -> Result<Value, EvalError> {
        self.tick(depth)?;
        match f {
            Value::Closure { param, body, env } => {
                let new_env = self.frame(param, arg, env)?;
                self.eval(&body, &new_env, depth + 1)
            }
            Value::Prim { name, mut applied } => {
                applied.push(arg);
                let arity = prim(name).map(|(_, a)| a).unwrap_or(0);
                if applied.len() >= arity {
                    self.run_prim(name, applied, depth)
                } else {
                    Ok(Value::Prim { name, applied })
                }
            }
            Value::Data {
                name,
                tag,
                arity,
                mut fields,
            } if fields.len() < arity => {
                self.alloc()?;
                fields.push(arg);
                Ok(Value::Data {
                    name,
                    tag,
                    arity,
                    fields,
                })
            }
            _ => Err(EvalError::NotAFunction),
        }
    }

    fn int_arg(&mut self, t: &ThunkRef, depth: usize) -> Result<i64, EvalError> {
        match self.force(t, depth + 1)? {
            Value::Int(n) => Ok(n),
            _ => Err(EvalError::NotAnInt),
        }
    }

    fn bool_arg(&mut self, t: &ThunkRef, depth: usize) -> Result<bool, EvalError> {
        match self.force(t, depth + 1)? {
            Value::Bool(b) => Ok(b),
            _ => Err(EvalError::NotABool),
        }
    }

    fn run_prim(
        &mut self,
        name: &'static str,
        args: Vec<ThunkRef>,
        depth: usize,
    ) -> Result<Value, EvalError> {
        let arith = |r: Option<i64>| r.map(Value::Int).ok_or(EvalError::IntOverflow);
        match (name, args.as_slice()) {
            ("primAddInt", [a, b]) => {
                arith(self.int_arg(a, depth)?.checked_add(self.int_arg(b, depth)?))
            }
            ("primSubInt", [a, b]) => {
                arith(self.int_arg(a, depth)?.checked_sub(self.int_arg(b, depth)?))
            }
            ("primMulInt", [a, b]) => {
                arith(self.int_arg(a, depth)?.checked_mul(self.int_arg(b, depth)?))
            }
            ("primDivInt", [a, b]) => {
                let (x, y) = (self.int_arg(a, depth)?, self.int_arg(b, depth)?);
                if y == 0 {
                    Err(EvalError::DivideByZero)
                } else {
                    arith(x.checked_div(y))
                }
            }
            ("primModInt", [a, b]) => {
                let (x, y) = (self.int_arg(a, depth)?, self.int_arg(b, depth)?);
                if y == 0 {
                    Err(EvalError::DivideByZero)
                } else {
                    arith(x.checked_rem(y))
                }
            }
            ("primNegInt", [a]) => arith(self.int_arg(a, depth)?.checked_neg()),
            ("primEqInt", [a, b]) => Ok(Value::Bool(
                self.int_arg(a, depth)? == self.int_arg(b, depth)?,
            )),
            ("primLtInt", [a, b]) => Ok(Value::Bool(
                self.int_arg(a, depth)? < self.int_arg(b, depth)?,
            )),
            ("primLeInt", [a, b]) => Ok(Value::Bool(
                self.int_arg(a, depth)? <= self.int_arg(b, depth)?,
            )),
            ("primEqBool", [a, b]) => Ok(Value::Bool(
                self.bool_arg(a, depth)? == self.bool_arg(b, depth)?,
            )),
            // cons is lazy in both arguments.
            ("cons", [h, t]) => Ok(Value::Cons(h.clone(), t.clone())),
            ("null", [l]) => match self.force(l, depth + 1)? {
                Value::Nil => Ok(Value::Bool(true)),
                Value::Cons(_, _) => Ok(Value::Bool(false)),
                _ => Err(EvalError::NotAList),
            },
            ("head", [l]) => match self.force(l, depth + 1)? {
                Value::Cons(h, _) => self.force(&h, depth + 1),
                Value::Nil => Err(EvalError::EmptyList("head")),
                _ => Err(EvalError::NotAList),
            },
            ("tail", [l]) => match self.force(l, depth + 1)? {
                Value::Cons(_, t) => self.force(&t, depth + 1),
                Value::Nil => Err(EvalError::EmptyList("tail")),
                _ => Err(EvalError::NotAList),
            },
            _ => Err(EvalError::NotAFunction),
        }
    }

    /// Deep-print a value, forcing as much structure as the remaining
    /// fuel allows. Lists render as `[1, 2, 3]`; functions and
    /// dictionaries render opaquely.
    pub fn show(&mut self, v: &Value) -> Result<String, EvalError> {
        let mut out = String::new();
        self.show_rec(v, &mut out, 0)?;
        Ok(out)
    }

    fn show_rec(&mut self, v: &Value, out: &mut String, depth: usize) -> Result<(), EvalError> {
        use std::fmt::Write as _;
        self.tick(depth)?;
        self.check_depth(depth)?;
        match v {
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Bool(true) => out.push_str("True"),
            Value::Bool(false) => out.push_str("False"),
            Value::Closure { .. } | Value::Prim { .. } => out.push_str("<function>"),
            Value::Tuple(_) => out.push_str("<dictionary>"),
            Value::Nil => out.push_str("[]"),
            Value::Cons(h0, t0) => {
                out.push('[');
                let mut head = h0.clone();
                let mut tail = t0.clone();
                loop {
                    self.tick(depth)?;
                    let hv = self.force(&head, depth + 1)?;
                    self.show_rec(&hv, out, depth + 1)?;
                    match self.force(&tail, depth + 1)? {
                        Value::Nil => break,
                        Value::Cons(h, t) => {
                            out.push_str(", ");
                            head = h;
                            tail = t;
                        }
                        _ => return Err(EvalError::NotAList),
                    }
                }
                out.push(']');
            }
            Value::Data {
                name,
                arity,
                fields,
                ..
            } => {
                if fields.len() < *arity {
                    // Partially applied constructor: a function value.
                    out.push_str("<function>");
                } else if fields.is_empty() {
                    out.push_str(name);
                } else {
                    out.push('(');
                    out.push_str(name);
                    for f in fields.clone() {
                        out.push(' ');
                        let fv = self.force(&f, depth + 1)?;
                        self.show_rec(&fv, out, depth + 1)?;
                    }
                    out.push(')');
                }
            }
        }
        Ok(())
    }
}

/// One instrumented evaluation: the printed result (or error), the
/// session's aggregate counters, and — when requested — the
/// per-binding profile.
#[derive(Debug)]
pub struct EvalRun {
    pub result: Result<String, EvalError>,
    pub stats: EvalStats,
    pub profile: Option<EvalProfile>,
}

/// Everything configurable about one evaluation session.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    pub budget: Budget,
    /// Attribute work to top-level bindings ([`EvalRun::profile`]).
    pub profile: bool,
    /// Cooperative cancellation; checked before evaluation starts and
    /// polled inside the fuel loop.
    pub cancel: Option<CancelToken>,
    /// Flight-recorder scope for this session (budget checkpoints,
    /// cancellation). Off and branch-cheap by default.
    pub events: EventScope,
}

/// Evaluate `entry` in `prog` under the given options, deep-print the
/// result, and report resource counters. Stats are meaningful on
/// error too (they describe the work done up to the failure).
pub fn run_entry_with(prog: &CoreProgram, entry: &str, opts: &EvalOptions) -> EvalRun {
    run_lowered_with(&LoweredProgram::new(prog), entry, opts)
}

/// [`run_entry_with`] over a pre-lowered program; use when evaluating
/// many entries of the same program.
pub fn run_lowered_with(prog: &LoweredProgram, entry: &str, opts: &EvalOptions) -> EvalRun {
    let mut ev = Evaluator::from_lowered(prog, opts.budget);
    if opts.profile {
        ev.enable_profiling();
    }
    if let Some(c) = &opts.cancel {
        ev.set_cancel(c.clone());
    }
    if opts.events.is_enabled() {
        ev.set_events(opts.events.clone());
    }
    let already_cancelled = opts.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let result = if already_cancelled {
        Err(EvalError::Cancelled(ev.snapshot(0)))
    } else {
        ev.eval_entry(entry).and_then(|v| ev.show(&v))
    };
    EvalRun {
        result,
        stats: ev.stats(),
        profile: ev.take_profile(),
    }
}

/// Evaluate `entry` in `prog`, deep-print the result, and report
/// resource counters; with `profile` set, also attribute work to
/// top-level bindings.
pub fn run_entry_instrumented(
    prog: &CoreProgram,
    entry: &str,
    budget: Budget,
    profile: bool,
) -> EvalRun {
    run_entry_with(
        prog,
        entry,
        &EvalOptions {
            budget,
            profile,
            cancel: None,
            events: EventScope::off(),
        },
    )
}

/// Evaluate `entry` in `prog` and deep-print the result.
pub fn run_entry(prog: &CoreProgram, entry: &str, budget: Budget) -> Result<String, EvalError> {
    run_entry_instrumented(prog, entry, budget, false).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_coreir::CoreExpr as C;

    fn var(n: &str) -> C {
        C::Var(n.into())
    }
    fn int(n: i64) -> C {
        C::Lit(Literal::Int(n))
    }
    fn prog(binds: Vec<(&str, C)>) -> CoreProgram {
        CoreProgram {
            binds: binds.into_iter().map(|(n, e)| (n.into(), e)).collect(),
            main: Some("main".into()),
            linked: None,
        }
    }

    #[test]
    fn arithmetic() {
        let p = prog(vec![(
            "main",
            C::apps(var("primAddInt"), vec![int(40), int(2)]),
        )]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "42");
    }

    #[test]
    fn laziness_infinite_list() {
        // ones = cons 1 ones; main = head (tail ones)
        let p = prog(vec![
            ("ones", C::apps(var("cons"), vec![int(1), var("ones")])),
            (
                "main",
                C::app(var("head"), C::app(var("tail"), var("ones"))),
            ),
        ]);
        assert_eq!(run_entry(&p, "main", Budget::small()).unwrap(), "1");
    }

    #[test]
    fn showing_infinite_list_exhausts_fuel_not_time() {
        let p = prog(vec![(
            "main",
            C::LetRec(
                vec![(
                    "ones".into(),
                    C::apps(var("cons"), vec![int(1), var("ones")]),
                )],
                Box::new(var("ones")),
            ),
        )]);
        let err = run_entry(&p, "main", Budget::small()).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::FuelExhausted(_) | EvalError::AllocationLimit(_)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn self_dependency_is_blackhole() {
        // main = let x = x in x
        let p = prog(vec![(
            "main",
            C::LetRec(vec![("x".into(), var("x"))], Box::new(var("x"))),
        )]);
        assert_eq!(
            run_entry(&p, "main", Budget::default()).unwrap_err(),
            EvalError::BlackHole
        );
    }

    #[test]
    fn nonterminating_loop_exhausts_fuel_deterministically() {
        // loop = \x -> x x; main = loop loop
        let p = prog(vec![
            (
                "loop",
                C::Lam("x".into(), Box::new(C::app(var("x"), var("x")))),
            ),
            ("main", C::app(var("loop"), var("loop"))),
        ]);
        let e1 = run_entry(&p, "main", Budget::small()).unwrap_err();
        let e2 = run_entry(&p, "main", Budget::small()).unwrap_err();
        assert_eq!(e1, e2);
        assert!(
            matches!(
                e1,
                EvalError::FuelExhausted(_) | EvalError::DepthExceeded(_)
            ),
            "{e1:?}"
        );
    }

    #[test]
    fn deep_guest_recursion_is_depth_error_not_stack_overflow() {
        // sum n = if n == 0 then 0 else 1 + sum (n - 1): non-tail
        // recursion whose forcing nests natively with guest depth.
        let body = C::If(
            Box::new(C::apps(var("primEqInt"), vec![var("n"), int(0)])),
            Box::new(int(0)),
            Box::new(C::apps(
                var("primAddInt"),
                vec![
                    int(1),
                    C::app(
                        var("sum"),
                        C::apps(var("primSubInt"), vec![var("n"), int(1)]),
                    ),
                ],
            )),
        );
        let p = prog(vec![
            ("sum", C::Lam("n".into(), Box::new(body))),
            ("main", C::app(var("sum"), int(1_000_000))),
        ]);
        let err = run_entry(&p, "main", Budget::default()).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::DepthExceeded(_) | EvalError::FuelExhausted(_)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn division_by_zero() {
        let p = prog(vec![(
            "main",
            C::apps(var("primDivInt"), vec![int(1), int(0)]),
        )]);
        assert_eq!(
            run_entry(&p, "main", Budget::default()).unwrap_err(),
            EvalError::DivideByZero
        );
    }

    #[test]
    fn overflow_is_error() {
        let p = prog(vec![(
            "main",
            C::apps(var("primAddInt"), vec![int(i64::MAX), int(1)]),
        )]);
        assert_eq!(
            run_entry(&p, "main", Budget::default()).unwrap_err(),
            EvalError::IntOverflow
        );
    }

    #[test]
    fn fail_node_is_structured_failure() {
        let p = prog(vec![("main", C::Fail("hole".into()))]);
        assert!(matches!(
            run_entry(&p, "main", Budget::default()).unwrap_err(),
            EvalError::Failure(_)
        ));
    }

    #[test]
    fn dictionary_projection() {
        // dict = (1, 2); main = #1 dict
        let p = prog(vec![
            ("dict", C::Tuple(vec![int(1), int(2)])),
            ("main", C::Proj(1, Box::new(var("dict")))),
        ]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "2");
    }

    #[test]
    fn list_rendering() {
        let p = prog(vec![(
            "main",
            C::apps(
                var("cons"),
                vec![int(1), C::apps(var("cons"), vec![int(2), var("nil")])],
            ),
        )]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "[1, 2]");
    }

    #[test]
    fn long_list_dropped_without_stack_overflow() {
        // upto n = if n == 0 then nil else cons n (upto (n - 1)):
        // builds a 100k-cell lazy list whose spine we force cell by
        // cell (shallow each time), then drop the evaluator: the arena
        // must dismantle the chain iteratively.
        let body = C::If(
            Box::new(C::apps(var("primEqInt"), vec![var("n"), int(0)])),
            Box::new(var("nil")),
            Box::new(C::apps(
                var("cons"),
                vec![
                    var("n"),
                    C::app(
                        var("upto"),
                        C::apps(var("primSubInt"), vec![var("n"), int(1)]),
                    ),
                ],
            )),
        );
        let p = prog(vec![
            ("upto", C::Lam("n".into(), Box::new(body))),
            ("main", C::app(var("upto"), int(100_000))),
        ]);
        let budget = Budget {
            fuel: 100_000_000,
            max_depth: 2_000,
            max_allocs: 10_000_000,
        };
        let mut ev = Evaluator::new(&p, budget);
        let v = ev.eval_entry("main").unwrap();
        // Walk the spine, forcing each cell at depth 0.
        let mut cur = v;
        let mut n = 0u32;
        while let Value::Cons(_, t) = cur {
            cur = ev.force(&t, 0).unwrap();
            n += 1;
        }
        assert_eq!(n, 100_000);
        drop(ev); // must not overflow the stack
    }

    #[test]
    fn stats_report_fuel_and_allocations() {
        let p = prog(vec![(
            "main",
            C::apps(var("primAddInt"), vec![int(40), int(2)]),
        )]);
        let run = run_entry_instrumented(&p, "main", Budget::default(), false);
        assert_eq!(run.result.as_deref(), Ok("42"));
        assert!(run.stats.fuel_used > 0, "{:?}", run.stats);
        assert!(run.stats.peak_allocs > 0, "{:?}", run.stats);
        assert!(run.stats.thunks_created > 0, "{:?}", run.stats);
        assert!(run.stats.forces > 0, "{:?}", run.stats);
        assert!(run.profile.is_none(), "profiling was not requested");
    }

    #[test]
    fn stats_survive_errors() {
        let p = prog(vec![("main", C::Fail("hole".into()))]);
        let run = run_entry_instrumented(&p, "main", Budget::default(), false);
        assert!(run.result.is_err());
        assert!(run.stats.fuel_used > 0);
    }

    #[test]
    fn profiler_force_counts_are_analytic() {
        // x = 5
        // y = x + x      -- forces x twice (2nd is a cache hit)
        // main = y + y   -- forces y twice (2nd is a cache hit)
        let p = prog(vec![
            ("x", int(5)),
            ("y", C::apps(var("primAddInt"), vec![var("x"), var("x")])),
            ("main", C::apps(var("primAddInt"), vec![var("y"), var("y")])),
        ]);
        let run = run_entry_instrumented(&p, "main", Budget::default(), true);
        assert_eq!(run.result.as_deref(), Ok("20"));
        let profile = run.profile.expect("profiling requested");
        let get = |n: &str| profile.get(n).expect("missing profile entry");
        assert_eq!(get("main").forces, 1, "{profile:?}");
        assert_eq!(get("y").forces, 2, "{profile:?}");
        assert_eq!(get("x").forces, 2, "{profile:?}");
        // Fuel charged to y covers its rhs work; main's table lists it.
        assert!(get("y").fuel > 0, "{profile:?}");
        let table = profile.render_table();
        assert!(table.contains("binding"), "{table}");
        assert!(table.contains("main"), "{table}");
        // Profiled and unprofiled runs agree on results and counters.
        let plain = run_entry_instrumented(&p, "main", Budget::default(), false);
        assert_eq!(plain.result.as_deref(), Ok("20"));
        assert_eq!(plain.stats, run.stats);
    }

    #[test]
    fn profiling_off_allocates_no_profile_state() {
        let p = prog(vec![("main", int(1))]);
        let mut ev = Evaluator::new(&p, Budget::default());
        assert!(ev.profile.is_none());
        ev.eval_entry("main").unwrap();
        assert!(ev.profile.is_none());
        assert!(ev.take_profile().is_none());
    }

    #[test]
    fn unbound_entry_is_error() {
        let p = prog(vec![("main", int(1))]);
        assert_eq!(
            run_entry(&p, "nope", Budget::default()).unwrap_err(),
            EvalError::UnboundVar("nope".into())
        );
    }

    #[test]
    fn budget_errors_carry_binding_and_remaining_budget() {
        // loop = \x -> x x; main = loop loop — fails inside main's rhs.
        let p = prog(vec![
            (
                "loop",
                C::Lam("x".into(), Box::new(C::app(var("x"), var("x")))),
            ),
            ("main", C::app(var("loop"), var("loop"))),
        ]);
        let err = run_entry(&p, "main", Budget::small()).unwrap_err();
        let snap = err.budget().expect("budget error carries a snapshot");
        assert_eq!(snap.binding.as_deref(), Some("main"), "{snap:?}");
        match &err {
            EvalError::FuelExhausted(s) => assert_eq!(s.fuel_left, 0, "{s:?}"),
            EvalError::DepthExceeded(s) => assert!(s.depth > 0, "{s:?}"),
            other => unreachable!("unexpected error {other:?}"),
        }
        assert!(matches!(err.code(), "fuel-exhausted" | "depth-exceeded"));
        // Type-shaped errors carry no snapshot.
        let bad = prog(vec![("main", C::app(int(1), int(2)))]);
        let e = run_entry(&bad, "main", Budget::default()).unwrap_err();
        assert!(e.budget().is_none(), "{e:?}");
    }

    fn con(name: &str, tag: u32, arity: usize) -> C {
        C::Con {
            name: name.into(),
            tag,
            arity,
        }
    }

    fn arm(con: Option<(&str, u32)>, binders: &[&str], body: C) -> tc_coreir::CoreArm {
        tc_coreir::CoreArm {
            con: con.map(|(n, t)| (n.to_string(), t)),
            binders: binders.iter().map(|b| b.to_string()).collect(),
            body,
        }
    }

    #[test]
    fn constructor_values_build_and_match() {
        // data Pair = MkPair Int Int; main = case MkPair 1 2 of
        //   { MkPair a b -> a + b }
        let p = prog(vec![(
            "main",
            C::Case(
                Box::new(C::apps(con("MkPair", 0, 2), vec![int(1), int(2)])),
                vec![arm(
                    Some(("MkPair", 0)),
                    &["a", "b"],
                    C::apps(var("primAddInt"), vec![var("a"), var("b")]),
                )],
            ),
        )]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "3");
    }

    #[test]
    fn nullary_constructors_select_arms_by_name() {
        // case Green of { Red -> 1; Green -> 2; Blue -> 3 }
        let p = prog(vec![(
            "main",
            C::Case(
                Box::new(con("Green", 1, 0)),
                vec![
                    arm(Some(("Red", 0)), &[], int(1)),
                    arm(Some(("Green", 1)), &[], int(2)),
                    arm(Some(("Blue", 2)), &[], int(3)),
                ],
            ),
        )]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "2");
    }

    #[test]
    fn default_arm_binds_scrutinee() {
        // case MkBox 7 of { Other -> 0; x -> case x of { MkBox n -> n } }
        let p = prog(vec![(
            "main",
            C::Case(
                Box::new(C::app(con("MkBox", 0, 1), int(7))),
                vec![
                    arm(Some(("Other", 9)), &[], int(0)),
                    arm(
                        None,
                        &["x"],
                        C::Case(
                            Box::new(var("x")),
                            vec![arm(Some(("MkBox", 0)), &["n"], var("n"))],
                        ),
                    ),
                ],
            ),
        )]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "7");
    }

    #[test]
    fn bool_and_list_values_match_builtin_constructor_names() {
        // case True of { False -> 0; True -> case Cons 1 Nil of
        //   { Nil -> 2; Cons h t -> h } }
        let inner = C::Case(
            Box::new(C::apps(var("cons"), vec![int(1), var("nil")])),
            vec![
                arm(Some(("Nil", 0)), &[], int(2)),
                arm(Some(("Cons", 1)), &["h", "_"], var("h")),
            ],
        );
        let p = prog(vec![(
            "main",
            C::Case(
                Box::new(C::Lit(Literal::Bool(true))),
                vec![
                    arm(Some(("False", 1)), &[], int(0)),
                    arm(Some(("True", 0)), &[], inner),
                ],
            ),
        )]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "1");
    }

    #[test]
    fn exhausted_alternatives_are_match_failure() {
        let p = prog(vec![(
            "main",
            C::Case(
                Box::new(con("Green", 1, 0)),
                vec![arm(Some(("Red", 0)), &[], int(1))],
            ),
        )]);
        let err = run_entry(&p, "main", Budget::default()).unwrap_err();
        assert_eq!(err, EvalError::MatchFailure);
        assert_eq!(err.code(), "match-failure");
        assert_eq!(err.to_string(), "no case alternative matched");
    }

    #[test]
    fn partial_constructor_application_is_a_function_value() {
        // half = MkPair 1; main = case half 2 of { MkPair a b -> b }
        let p = prog(vec![
            ("half", C::app(con("MkPair", 0, 2), int(1))),
            (
                "main",
                C::Case(
                    Box::new(C::app(var("half"), int(2))),
                    vec![arm(Some(("MkPair", 0)), &["_", "b"], var("b"))],
                ),
            ),
        ]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "2");
        // Showing the unsaturated constructor renders opaquely.
        let p2 = prog(vec![("main", C::app(con("MkPair", 0, 2), int(1)))]);
        assert_eq!(
            run_entry(&p2, "main", Budget::default()).unwrap(),
            "<function>"
        );
    }

    #[test]
    fn saturated_constructors_render_with_fields() {
        // main = Cons (MkPair 1 Leaf) Nil   -- rendered inside a list
        let pair = C::apps(con("MkPair", 0, 2), vec![int(1), con("Leaf", 0, 0)]);
        let p = prog(vec![("main", C::apps(var("cons"), vec![pair, var("nil")]))]);
        assert_eq!(
            run_entry(&p, "main", Budget::default()).unwrap(),
            "[(MkPair 1 Leaf)]"
        );
    }

    #[test]
    fn constructor_fields_are_lazy() {
        // case MkBox (error) of { MkBox _ -> 42 } — field never forced
        let p = prog(vec![(
            "main",
            C::Case(
                Box::new(C::app(con("MkBox", 0, 1), var("error"))),
                vec![arm(Some(("MkBox", 0)), &["_"], int(42))],
            ),
        )]);
        assert_eq!(run_entry(&p, "main", Budget::default()).unwrap(), "42");
    }

    #[test]
    fn applying_saturated_constructor_is_not_a_function() {
        let p = prog(vec![("main", C::app(con("Leaf", 0, 0), int(1)))]);
        assert_eq!(
            run_entry(&p, "main", Budget::default()).unwrap_err(),
            EvalError::NotAFunction
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_evaluation() {
        let p = prog(vec![("main", int(1))]);
        let token = CancelToken::new();
        token.cancel();
        let run = run_entry_with(
            &p,
            "main",
            &EvalOptions {
                cancel: Some(token),
                ..EvalOptions::default()
            },
        );
        assert!(
            matches!(run.result, Err(EvalError::Cancelled(_))),
            "{:?}",
            run.result
        );
        assert_eq!(run.stats.fuel_used, 0, "{:?}", run.stats);
    }

    #[test]
    fn cancellation_is_polled_inside_the_fuel_loop() {
        // Printing a cyclic list burns fuel forever at constant depth
        // with no allocations, so under a huge budget only the expired
        // deadline can stop it — via the poll inside the fuel loop.
        let p = prog(vec![
            ("ones", C::apps(var("cons"), vec![int(1), var("ones")])),
            ("main", var("ones")),
        ]);
        let budget = Budget {
            fuel: 100_000_000,
            max_depth: 2_000,
            max_allocs: 100_000_000,
        };
        let mut ev = Evaluator::new(&p, budget);
        ev.set_cancel(CancelToken::at(std::time::Instant::now()));
        let err = ev.eval_entry("main").and_then(|v| ev.show(&v)).unwrap_err();
        assert!(
            matches!(err, EvalError::Cancelled(_)),
            "deadline must interrupt the fuel loop: {err:?}"
        );
        assert_eq!(err.code(), "cancelled");
        // Far more fuel must remain than the poll interval consumed.
        let snap = err.budget().unwrap();
        assert!(snap.fuel_left > 99_000_000, "{snap:?}");
    }
}
