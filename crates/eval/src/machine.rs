//! The evaluation machine: call-by-need over slot-resolved [`Code`],
//! with every continuation on a heap stack, so no guest program grows
//! the native stack.
//!
//! Thunks, environment frames, and the fields of tuples and constructor
//! values live in session-owned arenas addressed by `u32`; nothing is
//! freed before the session ends. A session that ends hands its emptied
//! arenas to the next session on the same thread, unless they hold more
//! than [`SPARE_LIMIT`] bytes, so a worker that evaluates one request
//! after another does not grow them from empty each time.
//!
//! Budget accounting (ticks, depth checks, allocation charges, forces,
//! profile charges) happens at the same points and depths as in a direct
//! recursive evaluator: a step that would recurse at `depth + 1` either
//! pushes a continuation and continues at `depth + 1`, or, in tail
//! position, just continues there.
//!
//! A call ([`Code::Call`]) is one step, and so is its head's evaluation
//! and each apply that reaches a closure: an apply binds as many of the
//! call's arguments as the closure takes parameters, one frame each. A
//! partial application returns the closure that takes the rest, with no
//! allocation of its own; arguments left over apply to the value of the
//! body. A builtin or constructor value takes its arguments one apply
//! step at a time.
//!
//! A saturated builtin call ([`Code::Prim1`], [`Code::Prim2`],
//! [`Code::Cons`]) is one step. A strict operand that is a variable
//! forces the thunk it names, and any other is evaluated in place, with
//! no suspension of its own; `cons` passes its fields as arguments, so
//! list cells stay lazy.

use crate::lower::{Arm, Case, Code, LoweredProgram, Pattern, Prim, CONS, FALSE, NIL, TRUE};
use crate::{
    BindingProfile, Budget, BudgetSnapshot, EvalError, EvalOptions, EvalProfile, EvalStats,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::mem::size_of;
use tc_trace::{CancelToken, EventKind, EventScope, Stage};

/// The cancellation token is polled when `fuel_left & MASK == 0`, i.e.
/// once every 4096 evaluation steps — frequent enough that a deadline
/// stops a runaway program within microseconds, rare enough that the
/// clock read never shows up in profiles.
const CANCEL_POLL_MASK: u64 = 0xFFF;

/// The most arena capacity, in bytes, a thread keeps between sessions:
/// the per-thread bound of `tc_serve::alloc::ThreadCache`, so one large
/// evaluation cannot pin memory in a worker.
const SPARE_LIMIT: usize = 1 << 20;

type ThunkId = u32;
type EnvId = u32;

/// The empty environment, and a builtin's missing first argument.
const NONE: u32 = u32::MAX;

/// Weak-head-normal-form values.
#[derive(Clone, Copy)]
enum Value<'p> {
    Int(i64),
    Bool(bool),
    Closure(&'p Code, EnvId),
    /// A builtin, with its first argument once it has one.
    Prim(Prim, ThunkId),
    /// A dictionary: `len` thunks from `start` in the item arena.
    Tuple(u32, u32),
    Nil,
    Cons(ThunkId, ThunkId),
    /// A constructor value, partially applied while `len` is below its
    /// shape's arity; its fields are `len` thunks from `start`.
    Data {
        shape: u32,
        start: u32,
        len: u32,
    },
}

/// A call-by-need cell.
#[derive(Clone, Copy)]
enum Thunk<'p> {
    Delayed(&'p Code, EnvId),
    /// A global's right-hand side, not yet evaluated.
    Global(u32),
    /// Under evaluation: forcing it again is a dependency cycle.
    Blackhole,
    Done(Value<'p>),
}

/// One bound variable.
#[derive(Clone, Copy)]
struct Frame {
    thunk: ThunkId,
    next: EnvId,
}

/// What to do with the value being returned.
enum Kont<'p> {
    /// Write it back into the thunk being forced.
    Update(ThunkId),
    /// Likewise, and leave the global's right-hand side.
    UpdateGlobal(ThunkId),
    /// Apply it, a function, to these arguments, passed from `env`.
    Args(&'p [Code], EnvId, usize),
    If(&'p [Code; 3], EnvId, usize),
    Proj(usize, usize),
    Case(&'p Case, EnvId, usize),
    /// A binary builtin's first operand; force the second.
    Lhs(Prim, ThunkId, usize),
    /// A saturated binary builtin's first operand; evaluate the second,
    /// whose code this is, as a strict operand.
    LhsCode(Prim, &'p Code, EnvId, usize),
    /// A binary builtin's second operand, given the first.
    Rhs(Prim, i64),
    /// A unary builtin's operand.
    Unary(Prim, usize),
}

/// The machine's next move.
enum Ctl<'p> {
    Eval(&'p Code, EnvId, usize),
    Force(ThunkId, usize),
    Return(Value<'p>),
}

/// What is left to print.
enum Show<'p> {
    Value(Value<'p>, usize),
    /// A list cell: its head, then the rest.
    Cell(ThunkId, ThunkId, usize),
    /// A list's rest, after an element.
    Rest(ThunkId, usize),
    /// A constructor's fields from the `next`th on.
    Fields {
        start: u32,
        len: u32,
        next: u32,
        depth: usize,
    },
}

/// Per-binding profiler state, boxed behind an `Option` so the
/// profiling-off path costs one branch and allocates nothing.
#[derive(Default)]
struct ProfileState {
    entries: Vec<BindingProfile>,
    /// A global's thunk → its entry.
    owner: HashMap<ThunkId, usize>,
    /// Entries of the globals whose right-hand side is being evaluated,
    /// innermost last; fuel and thunks are charged to the top.
    stack: Vec<usize>,
}

impl ProfileState {
    fn top(&mut self) -> Option<&mut BindingProfile> {
        let &i = self.stack.last()?;
        self.entries.get_mut(i)
    }
}

/// A session's arenas, emptied, kept for the thread's next session.
#[derive(Default)]
struct Arenas {
    thunks: Vec<Thunk<'static>>,
    frames: Vec<Frame>,
    items: Vec<ThunkId>,
    konts: Vec<Kont<'static>>,
}

impl Arenas {
    /// The bytes their capacities hold.
    fn bytes(&self) -> usize {
        bytes(&self.thunks) + bytes(&self.frames) + bytes(&self.items) + bytes(&self.konts)
    }
}

fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// `v` emptied, as a vector of another element type of the same layout
/// (here: the same type of a shorter or longer lifetime). std collects a
/// vector's own `into_iter` in place, so the allocation is kept.
fn emptied<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().filter_map(|_| None).collect()
}

thread_local! {
    /// The arenas the thread's last session left, if it kept them.
    static SPARE: Cell<Option<Arenas>> = const { Cell::new(None) };
}

/// One evaluation session over a lowered program.
pub(crate) struct Machine<'p> {
    prog: &'p LoweredProgram,
    thunks: Vec<Thunk<'p>>,
    frames: Vec<Frame>,
    /// Tuple elements and constructor fields.
    items: Vec<ThunkId>,
    /// Each global's thunk, created on first use.
    globals: Vec<ThunkId>,
    konts: Vec<Kont<'p>>,
    budget: Budget,
    fuel_left: u64,
    allocs_left: u64,
    thunks_created: u64,
    forces: u64,
    /// Globals whose right-hand side is being evaluated, innermost
    /// last, so budget errors can name the binding.
    bindings: Vec<u32>,
    profile: Option<Box<ProfileState>>,
    cancel: Option<CancelToken>,
    events: EventScope,
}

impl<'p> Machine<'p> {
    pub fn new(prog: &'p LoweredProgram, opts: &EvalOptions) -> Self {
        let budget = opts.budget;
        let spare = SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        Machine {
            prog,
            thunks: spare.thunks,
            frames: spare.frames,
            items: spare.items,
            globals: vec![NONE; prog.global_count() as usize],
            konts: spare.konts,
            budget,
            fuel_left: budget.fuel,
            allocs_left: budget.max_allocs,
            thunks_created: 0,
            forces: 0,
            bindings: Vec::new(),
            profile: opts.profile.then(Box::default),
            cancel: opts.cancel.clone(),
            events: opts.events.clone(),
        }
    }

    /// Where the budget stands right now, for error payloads.
    pub fn snapshot(&self, depth: usize) -> BudgetSnapshot {
        BudgetSnapshot {
            binding: self.bindings.last().map(|&g| self.prog.name(g).to_string()),
            fuel_left: self.fuel_left,
            allocs_left: self.allocs_left,
            depth,
        }
    }

    pub fn stats(&self) -> EvalStats {
        EvalStats {
            fuel_used: self.budget.fuel - self.fuel_left,
            peak_allocs: self.budget.max_allocs - self.allocs_left,
            thunks_created: self.thunks_created,
            forces: self.forces,
        }
    }

    /// The profile so far, hottest binding (most fuel) first; `None`
    /// when profiling is off.
    pub fn take_profile(&mut self) -> Option<EvalProfile> {
        let mut bindings = self.profile.take()?.entries;
        bindings.sort_by(|a, b| b.fuel.cmp(&a.fuel).then_with(|| a.name.cmp(&b.name)));
        Some(EvalProfile { bindings })
    }

    /// Charge one step. The common case is inline: two tests and a
    /// decrement. Exhausted fuel (`fuel_left == 0`), a decrement that
    /// lands on a poll boundary (`fuel_left & MASK == 1`) and profiling
    /// take [`Machine::tick_slow`]. So does `fuel_left & MASK == 0` with
    /// fuel left, once per 4096 steps, which keeps the fuel test to one
    /// comparison.
    #[inline(always)]
    fn tick(&mut self, depth: usize) -> Result<(), EvalError> {
        if self.fuel_left & CANCEL_POLL_MASK <= 1 || self.profile.is_some() {
            return self.tick_slow(depth);
        }
        self.fuel_left -= 1;
        Ok(())
    }

    /// The full step charge: exhaustion, the poll, the profile entry.
    #[cold]
    #[inline(never)]
    fn tick_slow(&mut self, depth: usize) -> Result<(), EvalError> {
        if self.fuel_left == 0 {
            return Err(EvalError::FuelExhausted(self.snapshot(depth)));
        }
        self.fuel_left -= 1;
        if self.fuel_left & CANCEL_POLL_MASK == 0 {
            self.poll(depth)?;
        }
        if let Some(e) = self.profile.as_mut().and_then(|p| p.top()) {
            e.fuel += 1;
        }
        Ok(())
    }

    /// Record a budget checkpoint and stop if the session is cancelled.
    #[cold]
    fn poll(&mut self, depth: usize) -> Result<(), EvalError> {
        self.events.record(
            EventKind::EvalCheckpoint,
            self.budget.fuel - self.fuel_left,
            depth as u64,
        );
        if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            self.events.cancelled(Stage::Eval);
            return Err(EvalError::Cancelled(self.snapshot(depth)));
        }
        Ok(())
    }

    #[inline]
    fn check_depth(&self, depth: usize) -> Result<(), EvalError> {
        if depth > self.budget.max_depth {
            return Err(EvalError::DepthExceeded(self.snapshot(depth)));
        }
        Ok(())
    }

    #[inline]
    fn alloc(&mut self) -> Result<(), EvalError> {
        if self.allocs_left == 0 {
            return Err(self.out_of_allocs());
        }
        self.allocs_left -= 1;
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn out_of_allocs(&self) -> EvalError {
        EvalError::AllocationLimit(self.snapshot(0))
    }

    /// The id the next entry of an arena of `len` entries gets. An arena
    /// outgrowing `u32` ids is out of allocations.
    fn next_id(&self, len: usize) -> Result<u32, EvalError> {
        match u32::try_from(len) {
            Ok(id) if id != NONE => Ok(id),
            _ => Err(self.out_of_allocs()),
        }
    }

    #[inline(always)]
    fn push_thunk(&mut self, thunk: Thunk<'p>) -> Result<ThunkId, EvalError> {
        let id = self.next_id(self.thunks.len())?;
        self.thunks.push(thunk);
        Ok(id)
    }

    /// Charge the allocation of a suspension: to the budget, the
    /// counters, and the profile.
    #[inline(always)]
    fn charge_thunk(&mut self) -> Result<(), EvalError> {
        self.alloc()?;
        self.thunks_created += 1;
        if let Some(e) = self.profile.as_mut().and_then(|p| p.top()) {
            e.thunks += 1;
        }
        Ok(())
    }

    #[inline(always)]
    fn thunk(&mut self, code: &'p Code, env: EnvId) -> Result<ThunkId, EvalError> {
        self.charge_thunk()?;
        self.push_thunk(Thunk::Delayed(code, env))
    }

    /// The thunk an argument or a dictionary field is passed as. An
    /// atom needs no suspension of its own: a variable passes the thunk
    /// it names (a global's is created on first use, as when it is
    /// evaluated), and a literal or `nil` is one evaluated cell, charged
    /// like a suspension. Anything else is suspended in `env`.
    #[inline(always)]
    fn arg(&mut self, code: &'p Code, env: EnvId) -> Result<ThunkId, EvalError> {
        let v = match code {
            Code::Local(up) => return Ok(self.lookup(env, *up)),
            Code::Global(g) => return self.global(*g),
            Code::Int(n) => Value::Int(*n),
            Code::Bool(b) => Value::Bool(*b),
            Code::Builtin(Prim::Nil) => Value::Nil,
            _ => return self.thunk(code, env),
        };
        self.charge_thunk()?;
        self.push_thunk(Thunk::Done(v))
    }

    /// The move that evaluates a saturated builtin's strict operand: a
    /// variable forces the thunk it names, and anything else is
    /// evaluated in place, with no suspension of its own.
    #[inline(always)]
    fn strict(&mut self, code: &'p Code, env: EnvId, depth: usize) -> Result<Ctl<'p>, EvalError> {
        Ok(match code {
            Code::Local(up) => Ctl::Force(self.lookup(env, *up), depth),
            Code::Global(g) => Ctl::Force(self.global(*g)?, depth),
            _ => Ctl::Eval(code, env, depth),
        })
    }

    /// Wrap an already-evaluated value as a thunk (a default arm's
    /// binding of the scrutinee). Counts as an allocation and a thunk,
    /// but charges no profile entry.
    fn value_thunk(&mut self, v: Value<'p>) -> Result<ThunkId, EvalError> {
        self.alloc()?;
        self.thunks_created += 1;
        self.push_thunk(Thunk::Done(v))
    }

    #[inline(always)]
    fn frame(&mut self, thunk: ThunkId, next: EnvId) -> Result<EnvId, EvalError> {
        self.alloc()?;
        let id = self.next_id(self.frames.len())?;
        self.frames.push(Frame { thunk, next });
        Ok(id)
    }

    /// The thunk bound `up` frames out from `env`'s innermost.
    fn lookup(&self, mut env: EnvId, up: u32) -> ThunkId {
        for _ in 0..up {
            env = self.frames[env as usize].next;
        }
        self.frames[env as usize].thunk
    }

    /// Global `g`'s thunk, created on first use.
    fn global(&mut self, g: u32) -> Result<ThunkId, EvalError> {
        let t = self.globals[g as usize];
        if t != NONE {
            return Ok(t);
        }
        self.charge_thunk()?;
        let t = self.push_thunk(Thunk::Global(g))?;
        self.globals[g as usize] = t;
        if let Some(p) = self.profile.as_mut() {
            p.owner.insert(t, p.entries.len());
            p.entries.push(BindingProfile {
                name: self.prog.name(g).to_string(),
                ..BindingProfile::default()
            });
        }
        Ok(t)
    }

    /// Evaluate a top-level binding to weak head normal form.
    fn eval_entry(&mut self, name: &str) -> Result<Value<'p>, EvalError> {
        let Some(g) = self.prog.resolve(name) else {
            return Err(EvalError::UnboundVar(name.to_string()));
        };
        let t = self.global(g)?;
        self.run(Ctl::Force(t, 0))
    }

    /// Run from `ctl` until it returns a value. Each step handler
    /// writes the next move into `ctl` in place (helpers such as
    /// `select` return the move they build): returning it inside a
    /// `Result` made every step copy the freshly written move back
    /// through memory, which took about twice as long per step in a
    /// release build.
    fn run(&mut self, mut ctl: Ctl<'p>) -> Result<Value<'p>, EvalError> {
        let base = self.konts.len();
        let out = loop {
            let step = match ctl {
                Ctl::Eval(code, env, depth) => self.eval(code, env, depth, &mut ctl),
                Ctl::Force(t, depth) => self.force(t, depth, &mut ctl),
                Ctl::Return(v) => {
                    if self.konts.len() == base {
                        break Ok(v);
                    }
                    match self.konts.pop() {
                        Some(k) => self.resume(k, v, &mut ctl),
                        None => break Ok(v),
                    }
                }
            };
            if let Err(e) = step {
                break Err(e);
            }
        };
        self.konts.truncate(base);
        out
    }

    fn eval(
        &mut self,
        code: &'p Code,
        env: EnvId,
        depth: usize,
        next: &mut Ctl<'p>,
    ) -> Result<(), EvalError> {
        self.tick(depth)?;
        self.check_depth(depth)?;
        *next = match code {
            Code::Local(up) => Ctl::Force(self.lookup(env, *up), depth + 1),
            Code::Global(g) => Ctl::Force(self.global(*g)?, depth + 1),
            Code::Builtin(Prim::Nil) => Ctl::Return(Value::Nil),
            Code::Builtin(Prim::Error) => {
                return Err(EvalError::Failure("`error` evaluated".into()))
            }
            Code::Builtin(p) => Ctl::Return(Value::Prim(*p, NONE)),
            Code::Unbound(n) => return Err(EvalError::UnboundVar(n.to_string())),
            Code::Int(n) => Ctl::Return(Value::Int(*n)),
            Code::Bool(b) => Ctl::Return(Value::Bool(*b)),
            Code::Call(call) => {
                self.konts.push(Kont::Args(&call.args, env, depth));
                Ctl::Eval(&call.head, env, depth + 1)
            }
            Code::Prim1(p, x) => {
                self.konts.push(Kont::Unary(*p, depth));
                self.strict(x, env, depth + 1)?
            }
            Code::Prim2(p, ops) => {
                self.konts.push(Kont::LhsCode(*p, &ops[1], env, depth));
                self.strict(&ops[0], env, depth + 1)?
            }
            Code::Cons(fields) => {
                let head = self.arg(&fields[0], env)?;
                Ctl::Return(Value::Cons(head, self.arg(&fields[1], env)?))
            }
            Code::Lam(body) => {
                self.alloc()?;
                Ctl::Return(Value::Closure(body, env))
            }
            Code::LetRec(l) => {
                // Tie the knot: the thunks are made with an empty
                // environment, then patched to see their own frames.
                let first = self.thunks.len();
                for rhs in l.binds.iter() {
                    self.thunk(rhs, NONE)?;
                }
                let mut inner = env;
                for t in first..self.thunks.len() {
                    inner = self.frame(t as ThunkId, inner)?;
                }
                for t in &mut self.thunks[first..] {
                    if let Thunk::Delayed(_, e) = t {
                        *e = inner;
                    }
                }
                Ctl::Eval(&l.body, inner, depth + 1)
            }
            Code::If(branches) => {
                self.konts.push(Kont::If(branches, env, depth));
                Ctl::Eval(&branches[0], env, depth + 1)
            }
            Code::Tuple(xs) => {
                let start = self.next_id(self.items.len())?;
                for x in xs.iter() {
                    let t = self.arg(x, env)?;
                    self.items.push(t);
                }
                Ctl::Return(Value::Tuple(start, xs.len() as u32))
            }
            Code::Proj(i, b) => {
                self.konts.push(Kont::Proj(*i, depth));
                Ctl::Eval(b, env, depth + 1)
            }
            Code::Con(shape) => {
                self.alloc()?;
                Ctl::Return(Value::Data {
                    shape: *shape,
                    start: 0,
                    len: 0,
                })
            }
            Code::Case(c) => {
                self.konts.push(Kont::Case(c, env, depth));
                Ctl::Eval(&c.scrut, env, depth + 1)
            }
            Code::Fail(m) => return Err(EvalError::Failure(m.to_string())),
        };
        Ok(())
    }

    fn force(&mut self, t: ThunkId, depth: usize, next: &mut Ctl<'p>) -> Result<(), EvalError> {
        self.tick(depth)?;
        self.check_depth(depth)?;
        self.forces += 1;
        let owner = match self.profile.as_mut() {
            Some(p) => {
                let owner = p.owner.get(&t).copied();
                if let Some(e) = owner.and_then(|i| p.entries.get_mut(i)) {
                    e.forces += 1;
                }
                owner
            }
            None => None,
        };
        let slot = &mut self.thunks[t as usize];
        *next = match *slot {
            Thunk::Done(v) => Ctl::Return(v),
            Thunk::Blackhole => return Err(EvalError::BlackHole),
            Thunk::Delayed(code, env) => {
                *slot = Thunk::Blackhole;
                self.konts.push(Kont::Update(t));
                Ctl::Eval(code, env, depth + 1)
            }
            Thunk::Global(g) => {
                *slot = Thunk::Blackhole;
                self.bindings.push(g);
                if let (Some(p), Some(i)) = (self.profile.as_mut(), owner) {
                    p.stack.push(i);
                }
                self.konts.push(Kont::UpdateGlobal(t));
                Ctl::Eval(self.prog.body(g), NONE, depth + 1)
            }
        };
        Ok(())
    }

    /// Apply `f` to `args`, passed from `env`: one step per closure
    /// reached, which binds as many arguments as it takes parameters, and
    /// one per argument a builtin or constructor takes.
    fn apply(
        &mut self,
        mut f: Value<'p>,
        mut args: &'p [Code],
        env: EnvId,
        depth: usize,
        next: &mut Ctl<'p>,
    ) -> Result<(), EvalError> {
        while let Some((x, rest)) = args.split_first() {
            self.tick(depth)?;
            args = rest;
            f = match f {
                Value::Closure(mut body, mut inner) => {
                    let t = self.arg(x, env)?;
                    inner = self.frame(t, inner)?;
                    while let Code::Lam(more) = body {
                        let Some((x, rest)) = args.split_first() else {
                            *next = Ctl::Return(Value::Closure(more, inner));
                            return Ok(());
                        };
                        let t = self.arg(x, env)?;
                        inner = self.frame(t, inner)?;
                        body = more;
                        args = rest;
                    }
                    self.leftover(args, env, depth);
                    *next = Ctl::Eval(body, inner, depth + 1);
                    return Ok(());
                }
                Value::Prim(p, NONE) if p.arity() == 2 => Value::Prim(p, self.arg(x, env)?),
                Value::Prim(Prim::Cons, head) => Value::Cons(head, self.arg(x, env)?),
                Value::Prim(p @ (Prim::NegInt | Prim::Null | Prim::Head | Prim::Tail), _) => {
                    let t = self.arg(x, env)?;
                    self.leftover(args, env, depth);
                    self.konts.push(Kont::Unary(p, depth));
                    *next = Ctl::Force(t, depth + 1);
                    return Ok(());
                }
                Value::Prim(p, lhs) if p.arity() == 2 => {
                    let t = self.arg(x, env)?;
                    self.leftover(args, env, depth);
                    self.konts.push(Kont::Lhs(p, t, depth));
                    *next = Ctl::Force(lhs, depth + 1);
                    return Ok(());
                }
                Value::Data { shape, start, len } if len < self.prog.shape(shape).arity => {
                    let t = self.arg(x, env)?;
                    self.alloc()?;
                    // Fields only ever extend the item arena, so a value
                    // whose fields end it can grow in place.
                    let end = start as usize + len as usize;
                    let start = if end == self.items.len() {
                        start
                    } else {
                        let copy = self.next_id(self.items.len())?;
                        self.items.extend_from_within(start as usize..end);
                        copy
                    };
                    self.next_id(self.items.len())?;
                    self.items.push(t);
                    Value::Data {
                        shape,
                        start,
                        len: len + 1,
                    }
                }
                _ => return Err(EvalError::NotAFunction),
            };
        }
        *next = Ctl::Return(f);
        Ok(())
    }

    /// Arguments a call has left once its function's value is applied:
    /// they apply to the value that comes back.
    #[inline(always)]
    fn leftover(&mut self, args: &'p [Code], env: EnvId, depth: usize) {
        if !args.is_empty() {
            self.konts.push(Kont::Args(args, env, depth));
        }
    }

    fn resume(&mut self, k: Kont<'p>, v: Value<'p>, next: &mut Ctl<'p>) -> Result<(), EvalError> {
        *next = match k {
            Kont::Update(t) => {
                self.thunks[t as usize] = Thunk::Done(v);
                Ctl::Return(v)
            }
            Kont::UpdateGlobal(t) => {
                if let Some(p) = self.profile.as_mut() {
                    p.stack.pop();
                }
                self.bindings.pop();
                self.thunks[t as usize] = Thunk::Done(v);
                Ctl::Return(v)
            }
            Kont::Args(args, env, depth) => return self.apply(v, args, env, depth, next),
            Kont::If(branches, env, depth) => match v {
                Value::Bool(true) => Ctl::Eval(&branches[1], env, depth + 1),
                Value::Bool(false) => Ctl::Eval(&branches[2], env, depth + 1),
                _ => return Err(EvalError::ConditionNotBool),
            },
            Kont::Proj(i, depth) => match v {
                Value::Tuple(start, len) if i < len as usize => {
                    Ctl::Force(self.items[start as usize + i], depth + 1)
                }
                _ => return Err(EvalError::BadProjection { slot: i }),
            },
            Kont::Case(c, env, depth) => self.select(v, &c.arms, env, depth)?,
            Kont::Lhs(p, rhs, depth) => {
                self.konts.push(Kont::Rhs(p, operand(p, v)?));
                Ctl::Force(rhs, depth + 1)
            }
            Kont::LhsCode(p, rhs, env, depth) => {
                self.konts.push(Kont::Rhs(p, operand(p, v)?));
                self.strict(rhs, env, depth + 1)?
            }
            Kont::Rhs(p, lhs) => Ctl::Return(binary(p, lhs, operand(p, v)?)?),
            Kont::Unary(p, depth) => match (p, v) {
                (Prim::NegInt, Value::Int(n)) => {
                    Ctl::Return(Value::Int(n.checked_neg().ok_or(EvalError::IntOverflow)?))
                }
                (Prim::NegInt, _) => return Err(EvalError::NotAnInt),
                (Prim::Null, Value::Nil) => Ctl::Return(Value::Bool(true)),
                (Prim::Null, Value::Cons(..)) => Ctl::Return(Value::Bool(false)),
                (Prim::Head, Value::Cons(h, _)) => Ctl::Force(h, depth + 1),
                (Prim::Tail, Value::Cons(_, t)) => Ctl::Force(t, depth + 1),
                (Prim::Head, Value::Nil) => return Err(EvalError::EmptyList("head")),
                (Prim::Tail, Value::Nil) => return Err(EvalError::EmptyList("tail")),
                _ => return Err(EvalError::NotAList),
            },
        };
        Ok(())
    }

    /// Select and enter the first matching case alternative.
    ///
    /// Constructor arms match constructor values by name, and the
    /// builtin shapes (`Bool`, `Nil`/`Cons`) by their canonical
    /// constructor names, so derived instances work uniformly over
    /// user-defined and builtin data. An arm matches only a saturated
    /// value with as many fields as it has binders (the type checker
    /// rejects any other arm, `E0416`). A default arm always matches.
    /// An exhausted arm list is a structured [`EvalError::MatchFailure`].
    fn select(
        &mut self,
        v: Value<'p>,
        arms: &'p [Arm],
        env: EnvId,
        depth: usize,
    ) -> Result<Ctl<'p>, EvalError> {
        for arm in arms {
            let mut inner = env;
            match &arm.pat {
                Pattern::Default { bind } => {
                    if *bind {
                        let t = self.value_thunk(v)?;
                        inner = self.frame(t, inner)?;
                    }
                }
                Pattern::Con { name, binds } => {
                    let (matches, fields) = match v {
                        Value::Data { shape, len, .. } => {
                            let s = self.prog.shape(shape);
                            (s.name == *name && len == s.arity, len as usize)
                        }
                        Value::Bool(b) => (*name == if b { TRUE } else { FALSE }, 0),
                        Value::Nil => (*name == NIL, 0),
                        Value::Cons(..) => (*name == CONS, 2),
                        // A non-data scrutinee (function, tuple, int)
                        // can only reach a con arm from an already
                        // diagnosed program.
                        _ => (false, 0),
                    };
                    if !matches || binds.len() != fields {
                        continue;
                    }
                    for (i, _) in binds.iter().enumerate().filter(|(_, b)| **b) {
                        let field = match v {
                            Value::Cons(h, t) => [h, t][i],
                            Value::Data { start, .. } => self.items[start as usize + i],
                            _ => continue,
                        };
                        inner = self.frame(field, inner)?;
                    }
                }
            }
            return Ok(Ctl::Eval(&arm.body, inner, depth + 1));
        }
        Err(EvalError::MatchFailure)
    }

    /// Deep-print a value, forcing as much structure as the remaining
    /// fuel allows. Lists render as `[1, 2, 3]`; functions and
    /// dictionaries render opaquely. The work list is on the heap, so a
    /// deeply nested value is bounded by the depth budget alone.
    fn show(&mut self, v: Value<'p>) -> Result<String, EvalError> {
        let mut out = String::new();
        let mut todo = vec![Show::Value(v, 0)];
        while let Some(task) = todo.pop() {
            match task {
                Show::Value(v, depth) => {
                    self.tick(depth)?;
                    self.check_depth(depth)?;
                    match v {
                        Value::Int(n) => {
                            let _ = write!(out, "{n}");
                        }
                        Value::Bool(true) => out.push_str("True"),
                        Value::Bool(false) => out.push_str("False"),
                        Value::Closure(..) | Value::Prim(..) => out.push_str("<function>"),
                        Value::Tuple(..) => out.push_str("<dictionary>"),
                        Value::Nil => out.push_str("[]"),
                        Value::Cons(h, t) => {
                            out.push('[');
                            todo.push(Show::Cell(h, t, depth));
                        }
                        Value::Data { shape, start, len } => {
                            let s = self.prog.shape(shape);
                            if len < s.arity {
                                // Partially applied: a function value.
                                out.push_str("<function>");
                            } else if len == 0 {
                                out.push_str(self.prog.con_name(s.name));
                            } else {
                                out.push('(');
                                out.push_str(self.prog.con_name(s.name));
                                todo.push(Show::Fields {
                                    start,
                                    len,
                                    next: 0,
                                    depth,
                                });
                            }
                        }
                    }
                }
                Show::Cell(h, t, depth) => {
                    self.tick(depth)?;
                    let hv = self.run(Ctl::Force(h, depth + 1))?;
                    todo.push(Show::Rest(t, depth));
                    todo.push(Show::Value(hv, depth + 1));
                }
                Show::Rest(t, depth) => match self.run(Ctl::Force(t, depth + 1))? {
                    Value::Nil => out.push(']'),
                    Value::Cons(h, t) => {
                        out.push_str(", ");
                        todo.push(Show::Cell(h, t, depth));
                    }
                    _ => return Err(EvalError::NotAList),
                },
                Show::Fields {
                    start,
                    len,
                    next,
                    depth,
                } => {
                    if next == len {
                        out.push(')');
                        continue;
                    }
                    out.push(' ');
                    let field = self.items[(start + next) as usize];
                    let fv = self.run(Ctl::Force(field, depth + 1))?;
                    todo.push(Show::Fields {
                        start,
                        len,
                        next: next + 1,
                        depth,
                    });
                    todo.push(Show::Value(fv, depth + 1));
                }
            }
        }
        Ok(out)
    }

    /// Evaluate `entry` and print its value.
    pub fn eval_and_show(&mut self, entry: &str) -> Result<String, EvalError> {
        let v = self.eval_entry(entry)?;
        self.show(v)
    }
}

impl Drop for Machine<'_> {
    /// Hand the arenas, emptied, to the thread's next session, unless
    /// they hold more than [`SPARE_LIMIT`] bytes: then they are freed.
    fn drop(&mut self) {
        let spare = Arenas {
            thunks: emptied(std::mem::take(&mut self.thunks)),
            frames: emptied(std::mem::take(&mut self.frames)),
            items: emptied(std::mem::take(&mut self.items)),
            konts: emptied(std::mem::take(&mut self.konts)),
        };
        if spare.bytes() <= SPARE_LIMIT {
            let _ = SPARE.try_with(|s| s.set(Some(spare)));
        }
    }
}

/// A binary builtin's operand, checked against the builtin's type.
fn operand(p: Prim, v: Value<'_>) -> Result<i64, EvalError> {
    match (p, v) {
        (Prim::EqBool, Value::Bool(b)) => Ok(i64::from(b)),
        (Prim::EqBool, _) => Err(EvalError::NotABool),
        (_, Value::Int(n)) => Ok(n),
        _ => Err(EvalError::NotAnInt),
    }
}

fn binary(p: Prim, a: i64, b: i64) -> Result<Value<'static>, EvalError> {
    let int = |r: Option<i64>| r.map(Value::Int).ok_or(EvalError::IntOverflow);
    match p {
        Prim::AddInt => int(a.checked_add(b)),
        Prim::SubInt => int(a.checked_sub(b)),
        Prim::MulInt => int(a.checked_mul(b)),
        Prim::DivInt | Prim::ModInt if b == 0 => Err(EvalError::DivideByZero),
        Prim::DivInt => int(a.checked_div(b)),
        Prim::ModInt => int(a.checked_rem(b)),
        Prim::EqInt | Prim::EqBool => Ok(Value::Bool(a == b)),
        Prim::LtInt => Ok(Value::Bool(a < b)),
        Prim::LeInt => Ok(Value::Bool(a <= b)),
        _ => Err(EvalError::NotAFunction),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_coreir::{CoreExpr, CoreProgram, Literal};
    use tc_trace::EventLog;

    #[test]
    fn profiling_off_allocates_no_profile_state() {
        let p = CoreProgram {
            binds: vec![("main".into(), CoreExpr::Lit(Literal::Int(1)))],
            main: Some("main".into()),
            linked: None,
        };
        let lowered = LoweredProgram::new(&p);
        let mut m = Machine::new(&lowered, &EvalOptions::default());
        assert!(m.profile.is_none());
        assert_eq!(m.eval_and_show("main").unwrap(), "1");
        assert!(m.profile.is_none());
        assert!(m.take_profile().is_none());
    }

    fn var(n: &str) -> CoreExpr {
        CoreExpr::Var(n.into())
    }

    fn program(binds: Vec<(&str, CoreExpr)>) -> CoreProgram {
        CoreProgram {
            binds: binds.into_iter().map(|(n, e)| (n.into(), e)).collect(),
            main: Some("main".into()),
            linked: None,
        }
    }

    /// `ones = cons 1 ones; main = ones;`: printing it burns fuel
    /// forever at constant depth with no allocations after the first
    /// cell, on `show` and `force` steps.
    fn cyclic_list() -> CoreProgram {
        let one = CoreExpr::Lit(Literal::Int(1));
        program(vec![
            ("ones", CoreExpr::apps(var("cons"), vec![one, var("ones")])),
            ("main", var("ones")),
        ])
    }

    /// `count n = count (primAddInt n 1); main = count 0;`: a loop of
    /// `eval`, `apply` and `force` steps that allocates on each turn.
    fn counting_loop() -> CoreProgram {
        let lit = |n| CoreExpr::Lit(Literal::Int(n));
        let succ = CoreExpr::apps(var("primAddInt"), vec![var("n"), lit(1)]);
        let body = CoreExpr::App(Box::new(var("count")), Box::new(succ));
        program(vec![
            ("count", CoreExpr::Lam("n".into(), Box::new(body))),
            (
                "main",
                CoreExpr::App(Box::new(var("count")), Box::new(lit(0))),
            ),
        ])
    }

    #[test]
    fn accounting_is_exact_at_the_poll_and_exhaustion_edges() {
        // `tick` decides inline whether a step needs its slow path, so
        // sweep the budgets around the decisions it makes: fuel that
        // ends on, just past and just before a 4096-step poll boundary.
        // Profiling sends every step down the slow path, so the
        // profiled run is the reference for the unprofiled one.
        for (name, p) in [("cyclic list", cyclic_list()), ("loop", counting_loop())] {
            let lowered = LoweredProgram::new(&p);
            for k in 0..4u64 {
                for r in [0, 1, 2, CANCEL_POLL_MASK] {
                    let fuel = (CANCEL_POLL_MASK + 1) * k + r;
                    let runs = [false, true].map(|profile| {
                        let log = EventLog::with_capacity(64);
                        let opts = EvalOptions {
                            budget: Budget {
                                fuel,
                                max_depth: 1_000_000,
                                max_allocs: 1_000_000,
                            },
                            profile,
                            events: log.scope(1),
                            ..EvalOptions::default()
                        };
                        let mut m = Machine::new(&lowered, &opts);
                        let err = m.eval_and_show("main").unwrap_err();
                        assert!(
                            matches!(err, EvalError::FuelExhausted(_)),
                            "{name}, fuel {fuel}: {err:?}"
                        );
                        let polls: Vec<_> = log
                            .extract(1)
                            .iter()
                            .map(|e| {
                                assert_eq!(e.kind, EventKind::EvalCheckpoint);
                                e.arg0
                            })
                            .collect();
                        (err.budget().cloned(), m.stats(), polls)
                    });
                    let (snap, stats, polls) = &runs[0];
                    assert_eq!(runs[1], runs[0], "{name}, fuel {fuel}: profiling on vs off");
                    assert_eq!(stats.fuel_used, fuel, "{name}");
                    assert_eq!(snap.as_ref().map(|s| s.fuel_left), Some(0), "{name}");
                    // One checkpoint each time the fuel left reaches a
                    // multiple of 4096, the last when it reaches zero.
                    let want: Vec<u64> = (0..fuel)
                        .map(|used| used + 1)
                        .filter(|used| (fuel - used) & CANCEL_POLL_MASK == 0)
                        .collect();
                    assert_eq!(polls, &want, "{name}, fuel {fuel}");
                }
            }
        }
    }

    /// The spare arenas' bytes on this thread, or `None` without any.
    fn spare_bytes() -> Option<usize> {
        SPARE.with(|s| {
            let spare = s.take();
            let bytes = spare.as_ref().map(Arenas::bytes);
            s.set(spare);
            bytes
        })
    }

    type Outcome = (
        Result<String, EvalError>,
        EvalStats,
        Option<Vec<BindingProfile>>,
    );

    /// One session over `p`, driven directly so that a cancelled token
    /// is seen at the in-loop poll.
    fn session(p: &CoreProgram, opts: &EvalOptions) -> Outcome {
        let lowered = LoweredProgram::new(p);
        let mut m = Machine::new(&lowered, opts);
        let result = m.eval_and_show("main");
        (result, m.stats(), m.take_profile().map(|p| p.bindings))
    }

    /// A program that builds, shares and sums a list under a profile.
    fn normal() -> (CoreProgram, EvalOptions) {
        let lit = |n| CoreExpr::Lit(Literal::Int(n));
        let xs = CoreExpr::apps(
            var("cons"),
            vec![
                lit(2),
                CoreExpr::apps(var("cons"), vec![lit(3), var("nil")]),
            ],
        );
        let sum = CoreExpr::apps(
            var("primAddInt"),
            vec![
                CoreExpr::app(var("head"), var("xs")),
                CoreExpr::app(var("head"), CoreExpr::app(var("tail"), var("xs"))),
            ],
        );
        let p = program(vec![
            ("xs", xs),
            ("main", CoreExpr::apps(var("cons"), vec![sum, var("xs")])),
        ]);
        let opts = EvalOptions {
            profile: true,
            ..EvalOptions::default()
        };
        (p, opts)
    }

    fn budget(fuel: u64, max_depth: usize, max_allocs: u64) -> EvalOptions {
        EvalOptions {
            budget: Budget {
                fuel,
                max_depth,
                max_allocs,
            },
            ..EvalOptions::default()
        }
    }

    #[test]
    fn a_session_after_a_failed_one_runs_as_on_a_fresh_thread() {
        let fresh = std::thread::spawn(|| {
            let (p, opts) = normal();
            assert_eq!(spare_bytes(), None);
            session(&p, &opts)
        })
        .join()
        .unwrap();
        assert_eq!(fresh.0.as_deref(), Ok("[5, 2, 3]"));
        let black_hole = program(vec![(
            "main",
            CoreExpr::LetRec(vec![("x".into(), var("x"))], Box::new(var("x"))),
        )]);
        let cancelled = EvalOptions {
            cancel: Some(CancelToken::at(std::time::Instant::now())),
            ..budget(100_000_000, 2_000, 100_000_000)
        };
        let failures = [
            (
                "fuel-exhausted",
                cyclic_list(),
                budget(5_000, 2_000, 1_000_000),
            ),
            (
                "depth-exceeded",
                counting_loop(),
                budget(1_000_000, 300, 1_000_000),
            ),
            (
                "allocation-limit",
                counting_loop(),
                budget(1_000_000, 1_000_000, 700),
            ),
            ("black-hole", black_hole, EvalOptions::default()),
            ("cancelled", cyclic_list(), cancelled),
        ];
        for (code, p, opts) in failures {
            let after = std::thread::spawn(move || {
                let failed = session(&p, &opts);
                assert_eq!(failed.0.map_err(|e| e.code()), Err(code));
                assert!(spare_bytes().is_some_and(|b| b > 0), "{code}");
                let (p, opts) = normal();
                session(&p, &opts)
            })
            .join()
            .unwrap();
            assert_eq!(after, fresh, "after {code}");
        }
    }

    #[test]
    fn arenas_past_the_limit_are_freed_and_smaller_ones_kept() {
        std::thread::spawn(|| {
            let (p, opts) = normal();
            let lowered = LoweredProgram::new(&p);
            let mut m = Machine::new(&lowered, &opts);
            m.eval_and_show("main").unwrap();
            let caps = (
                m.thunks.capacity(),
                m.frames.capacity(),
                m.items.capacity(),
                m.konts.capacity(),
            );
            assert!(caps.0 > 0 && caps.3 > 0, "{caps:?}");
            drop(m);
            assert!(spare_bytes().is_some_and(|b| b > 0 && b <= SPARE_LIMIT));
            // The next session starts on them, emptied.
            let m = Machine::new(&lowered, &opts);
            let got = (
                m.thunks.capacity(),
                m.frames.capacity(),
                m.items.capacity(),
                m.konts.capacity(),
            );
            assert_eq!(got, caps);
            assert!(
                m.thunks.is_empty()
                    && m.frames.is_empty()
                    && m.items.is_empty()
                    && m.konts.is_empty()
            );
            assert_eq!(spare_bytes(), None, "a session takes the spare arenas");
            drop(m);
            // A long loop fills the thunk arena past the limit: the
            // session's arenas are freed, not kept.
            let p = counting_loop();
            let big = session(&p, &budget(400_000, 1_000_000, 1_000_000));
            assert!(
                big.1.thunks_created * size_of::<Thunk>() as u64 > SPARE_LIMIT as u64,
                "{:?}",
                big.1
            );
            assert_eq!(spare_bytes(), None);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cancellation_is_polled_inside_the_fuel_loop() {
        // Printing a cyclic list burns fuel forever at constant depth
        // with no allocations, so under a huge budget only the expired
        // deadline can stop it. The machine is driven directly, past
        // `run_lowered_with`'s check before evaluation, so only the
        // poll inside `tick` can see the token.
        let p = cyclic_list();
        let lowered = LoweredProgram::new(&p);
        let log = EventLog::with_capacity(64);
        let opts = EvalOptions {
            budget: Budget {
                fuel: 100_000_000,
                max_depth: 2_000,
                max_allocs: 100_000_000,
            },
            cancel: Some(CancelToken::at(std::time::Instant::now())),
            events: log.scope(1),
            ..EvalOptions::default()
        };
        let mut m = Machine::new(&lowered, &opts);
        let err = m.eval_and_show("main").unwrap_err();
        assert!(
            matches!(err, EvalError::Cancelled(_)),
            "deadline must interrupt the fuel loop: {err:?}"
        );
        // Evaluation ran, and stopped at the first poll: 100,000,000
        // is 256 past a multiple of 4096, so that is 256 steps in.
        let used = m.stats().fuel_used;
        assert_eq!(used, 100_000_000 % (CANCEL_POLL_MASK + 1));
        assert_eq!(used, 256);
        assert_eq!(err.budget().unwrap().fuel_left, 100_000_000 - used);
        let events = log.extract(1);
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::EvalCheckpoint, EventKind::Cancelled]);
        assert_eq!(events[0].arg0, used);
        assert_eq!(events[1].arg0, Stage::Eval as u64);
    }
}
