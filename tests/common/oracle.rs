//! The tree-walking evaluator `tc-eval` used before its explicit-stack
//! machine, kept as a test-only oracle. It recurses natively with guest
//! depth, looks variables up by name down a linked `Rc<Frame>` chain,
//! and keeps thunks in `Rc<RefCell>` cells. `tests/eval_oracle.rs` runs
//! it in lockstep with the machine and requires equal [`EvalRun`]s:
//! result, error with its budget snapshot, counters and profile.
//!
//! Unlike the evaluator it was, it does not clamp `max_depth`, so it
//! agrees with the machine at any depth; callers keep the depth within
//! what their thread's stack holds. It follows the machine's argument
//! rule: an argument or dictionary field that is a variable passes the
//! thunk the variable names, and a literal or `nil` is one evaluated
//! cell. It follows the machine's rule for calls: an application spine
//! `f a1 … ak` is one node, and one apply step binds as many of its
//! arguments as the closure reached takes parameters (a lambda whose
//! body is a lambda takes the next one in the same step), one frame
//! each; a partial application returns the closure that takes the rest,
//! with no allocation, and arguments left over apply to the body's
//! value. A builtin or constructor value takes one argument per apply
//! step. It follows the machine's rule for saturated builtins too,
//! deciding saturation at run time in its own resolution order (locals,
//! globals, then builtins): a spine that gives a builtin at least its
//! arity runs the builtin on its operands in one step, and a strict
//! operand of it that is a variable forces the thunk it names, while
//! any other is evaluated in place, with no suspension of its own.

#![allow(dead_code)]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use typeclasses::coreir::{CoreExpr, CoreProgram, Literal};
use typeclasses::eval::{
    BindingProfile, Budget, BudgetSnapshot, EvalError, EvalOptions, EvalProfile, EvalRun, EvalStats,
};
use typeclasses::trace::{CancelToken, EventKind, EventScope, Stage};

/// See `tc-eval`: the cancel token is polled once every 4,096 steps.
const CANCEL_POLL_MASK: u64 = 0xFFF;

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

/// Runtime expression: the core IR with shared (`Rc`) subtrees, so
/// closures capture bodies without cloning them.
pub enum RExpr {
    Var(String),
    /// A builtin, resolved when a closed program was lowered (see
    /// [`LoweredProgram::closed`]); never looked up by name.
    Builtin(&'static str),
    Lit(Literal),
    /// An application spine: the head and its arguments, at least one.
    App(Rc<RExpr>, Vec<Rc<RExpr>>),
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
        CoreExpr::App(..) => {
            let mut args = Vec::new();
            let mut head = e;
            while let CoreExpr::App(f, x) = head {
                args.push(&**x);
                head = f;
            }
            let head = lower(head, scope.as_deref_mut());
            let args = args
                .into_iter()
                .rev()
                .map(|x| lower(x, scope.as_deref_mut()))
                .collect();
            RExpr::App(head, args)
        }
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

/// A builtin's argument: the thunk it was applied to as a value, or,
/// in a saturated call, the argument's code.
enum Operand<'a> {
    Thunk(ThunkRef),
    Code(&'a Rc<RExpr>, &'a Env),
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
            max_depth: budget.max_depth,
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
        self.cell(Thunk::Unevaluated(e, env))
    }

    /// Allocate a call-by-need cell, charged as a suspension.
    fn cell(&mut self, thunk: Thunk) -> Result<ThunkRef, EvalError> {
        self.alloc()?;
        self.thunks_created += 1;
        if let Some(p) = self.profile.as_mut() {
            p.charge_thunk();
        }
        let t = Rc::new(RefCell::new(thunk));
        self.arena.push(t.clone());
        Ok(t)
    }

    /// The thunk an argument or a dictionary field is passed as: a
    /// variable bound locally or globally passes the thunk it names, a
    /// literal or `nil` is one evaluated cell, and anything else (other
    /// builtins and unbound names included) is suspended.
    fn arg(&mut self, x: &Rc<RExpr>, env: &Env) -> Result<ThunkRef, EvalError> {
        match &**x {
            RExpr::Var(n) => {
                if let Some(t) = env_lookup(env, n) {
                    return Ok(t);
                }
                if let Some(t) = self.global_thunk(n)? {
                    return Ok(t);
                }
                if n == "nil" {
                    return self.cell(Thunk::Evaluated(Value::Nil));
                }
            }
            RExpr::Builtin("nil") => return self.cell(Thunk::Evaluated(Value::Nil)),
            RExpr::Lit(Literal::Int(n)) => return self.cell(Thunk::Evaluated(Value::Int(*n))),
            RExpr::Lit(Literal::Bool(b)) => return self.cell(Thunk::Evaluated(Value::Bool(*b))),
            _ => {}
        }
        self.thunk(x.clone(), env.clone())
    }

    fn frame(&mut self, name: String, thunk: ThunkRef, next: Env) -> Result<Env, EvalError> {
        self.alloc()?;
        Ok(Some(Rc::new(Frame { name, thunk, next })))
    }

    /// The thunk of global `name`, created on first use; `None` when
    /// the program binds no such global. Creating it can exhaust the
    /// allocation budget, which is an error, not an unbound name.
    fn global_thunk(&mut self, name: &str) -> Result<Option<ThunkRef>, EvalError> {
        if let Some(t) = self.global_cache.get(name) {
            return Ok(Some(t.clone()));
        }
        let Some(e) = self.program.global(name).cloned() else {
            return Ok(None);
        };
        let t = self.thunk(e, None)?;
        self.global_cache.insert(name.to_string(), t.clone());
        self.global_names
            .insert(Rc::as_ptr(&t) as usize, Rc::from(name));
        if let Some(p) = self.profile.as_mut() {
            let idx = p.entry_index(name);
            p.owner.insert(Rc::as_ptr(&t) as usize, idx);
        }
        Ok(Some(t))
    }

    /// Evaluate a top-level binding to weak head normal form.
    pub fn eval_entry(&mut self, name: &str) -> Result<Value, EvalError> {
        match self.global_thunk(name)? {
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
                if let Some(t) = self.global_thunk(n)? {
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
            RExpr::App(f, xs) => {
                if let Some((name, n)) = self.builtin(f, env) {
                    if (1..=xs.len()).contains(&n) {
                        let (ops, rest) = xs.split_at(n);
                        let ops = ops.iter().map(|x| Operand::Code(x, env)).collect();
                        if rest.is_empty() {
                            return self.run_prim(name, ops, depth);
                        }
                        // The saturated call is the head of a call of
                        // the rest: a node of its own, one level down.
                        self.tick(depth + 1)?;
                        self.check_depth(depth + 1)?;
                        let v = self.run_prim(name, ops, depth + 1)?;
                        return self.apply(v, rest, env, depth);
                    }
                }
                let fv = self.eval(f, env, depth + 1)?;
                self.apply(fv, xs, env, depth)
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
                    ts.push(self.arg(x, env)?);
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

    /// The builtin `e` names at run time, with its arity: one the closed
    /// lowering resolved, or a variable no local or global binds.
    fn builtin(&self, e: &RExpr, env: &Env) -> Option<(&'static str, usize)> {
        match e {
            RExpr::Builtin(name) => prim(name),
            RExpr::Var(n) if env_lookup(env, n).is_none() && self.program.global(n).is_none() => {
                prim(n)
            }
            _ => None,
        }
    }

    /// A saturated builtin's strict operand: a variable bound locally or
    /// globally forces the thunk it names, and anything else is
    /// evaluated in place.
    fn strict(&mut self, x: &Rc<RExpr>, env: &Env, depth: usize) -> Result<Value, EvalError> {
        if let RExpr::Var(n) = &**x {
            if let Some(t) = env_lookup(env, n) {
                return self.force(&t, depth);
            }
            if let Some(t) = self.global_thunk(n)? {
                return self.force(&t, depth);
            }
        }
        self.eval(x, env, depth)
    }

    /// A strict operand's value, one level below the builtin's call.
    fn operand(&mut self, op: &Operand, depth: usize) -> Result<Value, EvalError> {
        match op {
            Operand::Thunk(t) => self.force(t, depth + 1),
            Operand::Code(x, env) => self.strict(x, env, depth + 1),
        }
    }

    /// A lazy operand (a `cons` field), passed as an argument.
    fn lazy(&mut self, op: &Operand) -> Result<ThunkRef, EvalError> {
        match op {
            Operand::Thunk(t) => Ok(t.clone()),
            Operand::Code(x, env) => self.arg(x, env),
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

    /// Apply `f` to `args`, passed from `env`: one step per closure
    /// reached, which binds as many arguments as it takes parameters, and
    /// one per argument a builtin or constructor takes.
    fn apply(
        &mut self,
        mut f: Value,
        mut args: &[Rc<RExpr>],
        env: &Env,
        depth: usize,
    ) -> Result<Value, EvalError> {
        while let Some((x, rest)) = args.split_first() {
            self.tick(depth)?;
            args = rest;
            f = match f {
                Value::Closure {
                    param,
                    mut body,
                    env: closed,
                } => {
                    let t = self.arg(x, env)?;
                    let mut inner = self.frame(param, t, closed)?;
                    while let RExpr::Lam(p, b) = &*body {
                        let Some((x, rest)) = args.split_first() else {
                            return Ok(Value::Closure {
                                param: p.clone(),
                                body: b.clone(),
                                env: inner,
                            });
                        };
                        let t = self.arg(x, env)?;
                        inner = self.frame(p.clone(), t, inner)?;
                        body = b.clone();
                        args = rest;
                    }
                    self.eval(&body, &inner, depth + 1)?
                }
                Value::Prim { name, mut applied } => {
                    applied.push(self.arg(x, env)?);
                    let arity = prim(name).map(|(_, a)| a).unwrap_or(0);
                    if applied.len() >= arity {
                        let ops = applied.into_iter().map(Operand::Thunk).collect();
                        self.run_prim(name, ops, depth)?
                    } else {
                        Value::Prim { name, applied }
                    }
                }
                Value::Data {
                    name,
                    tag,
                    arity,
                    mut fields,
                } if fields.len() < arity => {
                    let t = self.arg(x, env)?;
                    self.alloc()?;
                    fields.push(t);
                    Value::Data {
                        name,
                        tag,
                        arity,
                        fields,
                    }
                }
                _ => return Err(EvalError::NotAFunction),
            };
        }
        Ok(f)
    }

    fn int_arg(&mut self, op: &Operand, depth: usize) -> Result<i64, EvalError> {
        match self.operand(op, depth)? {
            Value::Int(n) => Ok(n),
            _ => Err(EvalError::NotAnInt),
        }
    }

    fn bool_arg(&mut self, op: &Operand, depth: usize) -> Result<bool, EvalError> {
        match self.operand(op, depth)? {
            Value::Bool(b) => Ok(b),
            _ => Err(EvalError::NotABool),
        }
    }

    fn run_prim(
        &mut self,
        name: &'static str,
        args: Vec<Operand>,
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
            ("cons", [h, t]) => Ok(Value::Cons(self.lazy(h)?, self.lazy(t)?)),
            ("null", [l]) => match self.operand(l, depth)? {
                Value::Nil => Ok(Value::Bool(true)),
                Value::Cons(_, _) => Ok(Value::Bool(false)),
                _ => Err(EvalError::NotAList),
            },
            ("head", [l]) => match self.operand(l, depth)? {
                Value::Cons(h, _) => self.force(&h, depth + 1),
                Value::Nil => Err(EvalError::EmptyList("head")),
                _ => Err(EvalError::NotAList),
            },
            ("tail", [l]) => match self.operand(l, depth)? {
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
