//! Lowering: the core IR translated once into slot-resolved [`Code`].
//!
//! Every variable is resolved here, not at run time: to the binder it
//! names (counted in frames outward from the use), else to a global of
//! the program, else of its base, else to a builtin. A name none of
//! those bind lowers to [`Code::Unbound`], which fails when evaluated.
//! Constructor names are interned, so `case` matches by integer compare.
//!
//! An application spine `f a1 … ak` lowers to one [`Code::Call`] of its
//! head to all k arguments, so a function of n parameters (nested
//! lambdas, `\x -> \y -> …`) takes its n arguments in one step. A
//! spine whose head is a builtin given at least its arity lowers first
//! to one node for the builtin and its operands ([`Code::Prim1`],
//! [`Code::Prim2`], [`Code::Cons`]), which the machine runs in one step;
//! any further arguments are a call of that node. The head must name the
//! builtin after binders and globals, as [`Code::Builtin`] does; a
//! partial application, a builtin passed as a value and a shadowed name
//! stay calls of a first-class builtin.

use std::collections::HashMap;
use std::rc::Rc;
use tc_coreir::{CoreArm, CoreExpr, CoreProgram, Literal};

/// Slot-resolved code.
pub(crate) enum Code {
    /// A binder, by how many frames lie between the use and it
    /// (0 = the innermost).
    Local(u32),
    /// A top-level binding, by global id.
    Global(u32),
    Builtin(Prim),
    /// A name nothing binds.
    Unbound(Box<str>),
    Int(i64),
    Bool(bool),
    /// A function applied to one or more arguments.
    Call(Box<Call>),
    /// A builtin of arity one given its operand: `null`, `head`,
    /// `tail` or `primNegInt`.
    Prim1(Prim, Box<Code>),
    /// A strict binary builtin given both operands.
    Prim2(Prim, Box<[Code; 2]>),
    /// `cons` given both fields.
    Cons(Box<[Code; 2]>),
    /// A one-parameter function; the parameter is its body's frame 0.
    /// A lambda whose body is a lambda is one function of more
    /// parameters: a call binds them in order, one frame each, so the
    /// innermost body sees the last parameter as frame 0.
    Lam(Box<Code>),
    LetRec(Box<LetRec>),
    /// Condition, then branch, else branch.
    If(Box<[Code; 3]>),
    Tuple(Box<[Code]>),
    Proj(usize, Box<Code>),
    /// A data constructor, by shape id.
    Con(u32),
    Case(Box<Case>),
    Fail(Box<str>),
}

/// A call: the head, then its arguments in order (at least one).
pub(crate) struct Call {
    pub head: Code,
    pub args: Box<[Code]>,
}

/// Mutually recursive bindings: their frames go in binding order, so the
/// last binding is the body's frame 0.
pub(crate) struct LetRec {
    pub binds: Box<[Code]>,
    pub body: Code,
}

pub(crate) struct Case {
    pub scrut: Code,
    pub arms: Box<[Arm]>,
}

pub(crate) struct Arm {
    pub pat: Pattern,
    pub body: Code,
}

pub(crate) enum Pattern {
    /// A constructor (by interned name) whose fields are bound in order;
    /// `binds[i]` is false for a `_` field, which gets no frame.
    Con { name: u32, binds: Box<[bool]> },
    /// Matches anything; binds the scrutinee unless its binder is `_`.
    Default { bind: bool },
}

/// A builtin operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Prim {
    AddInt,
    SubInt,
    MulInt,
    DivInt,
    ModInt,
    NegInt,
    EqInt,
    LtInt,
    LeInt,
    EqBool,
    Cons,
    Null,
    Head,
    Tail,
    Nil,
    Error,
}

impl Prim {
    fn from_name(name: &str) -> Option<Prim> {
        Some(match name {
            "primAddInt" => Prim::AddInt,
            "primSubInt" => Prim::SubInt,
            "primMulInt" => Prim::MulInt,
            "primDivInt" => Prim::DivInt,
            "primModInt" => Prim::ModInt,
            "primNegInt" => Prim::NegInt,
            "primEqInt" => Prim::EqInt,
            "primLtInt" => Prim::LtInt,
            "primLeInt" => Prim::LeInt,
            "primEqBool" => Prim::EqBool,
            "cons" => Prim::Cons,
            "null" => Prim::Null,
            "head" => Prim::Head,
            "tail" => Prim::Tail,
            "nil" => Prim::Nil,
            "error" => Prim::Error,
            _ => return None,
        })
    }

    /// Arguments taken before the builtin runs. Arity-0 builtins are
    /// values (or immediate failures).
    pub fn arity(self) -> usize {
        match self {
            Prim::Nil | Prim::Error => 0,
            Prim::NegInt | Prim::Null | Prim::Head | Prim::Tail => 1,
            _ => 2,
        }
    }
}

/// Interned constructor names `True`, `False`, `Nil` and `Cons`: the
/// builtin values match arms of these names.
pub(crate) const TRUE: u32 = 0;
pub(crate) const FALSE: u32 = 1;
pub(crate) const NIL: u32 = 2;
pub(crate) const CONS: u32 = 3;

/// A constructor's interned name and arity.
#[derive(Clone, Copy)]
pub(crate) struct Shape {
    pub name: u32,
    pub arity: u32,
}

/// Interned constructor names, and the shape of each constructor node.
/// A program linked over a base starts from a copy of the base's table,
/// so ids agree across the two.
#[derive(Clone)]
struct Constructors {
    names: Vec<Rc<str>>,
    name_ids: HashMap<Rc<str>, u32>,
    shapes: Vec<Shape>,
}

impl Constructors {
    fn new() -> Self {
        let mut cons = Constructors {
            names: Vec::new(),
            name_ids: HashMap::new(),
            shapes: Vec::new(),
        };
        for name in ["True", "False", "Nil", "Cons"] {
            cons.name(name);
        }
        cons
    }

    fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        let name: Rc<str> = Rc::from(name);
        self.names.push(name.clone());
        self.name_ids.insert(name, id);
        id
    }

    fn shape(&mut self, name: &str, arity: usize) -> u32 {
        let shape = Shape {
            name: self.name(name),
            arity: u32::try_from(arity).unwrap_or(u32::MAX),
        };
        self.shapes.push(shape);
        self.shapes.len() as u32 - 1
    }
}

/// A core program's globals, lowered once. Lowering is linear in
/// program size, so callers that evaluate many entry points of the
/// same program (the class-law harness, the prelude under every
/// request) should lower once and evaluate each entry from the shared
/// result.
///
/// A program may be linked against a base program lowered before it
/// ([`LoweredProgram::over`]): a global the program does not bind is
/// the base's. That is how a request runs on top of the prelude, which
/// is lowered once per thread. Global ids below the program's own are
/// the base's.
pub struct LoweredProgram {
    base: Option<Rc<LoweredProgram>>,
    /// Global id of the program's first own binding.
    first: u32,
    names: Vec<Rc<str>>,
    bodies: Vec<Code>,
    ids: HashMap<Rc<str>, u32>,
    cons: Constructors,
}

impl LoweredProgram {
    /// Lower every binding of `prog`, its linked base's included.
    pub fn new(prog: &CoreProgram) -> Self {
        Self::lower(None, prog.all_binds())
    }

    /// Lower a program for others to link against. Its code is closed:
    /// each name resolves within it (its binders, its globals, then the
    /// builtins), whatever a program linked over it binds.
    pub fn closed(prog: &CoreProgram) -> Self {
        Self::lower(None, &prog.binds)
    }

    /// Lower `binds` linked against `base`.
    pub fn over<'a>(
        base: Rc<LoweredProgram>,
        binds: impl IntoIterator<Item = &'a (String, CoreExpr)>,
    ) -> Self {
        Self::lower(Some(base), binds)
    }

    fn lower<'a>(
        base: Option<Rc<LoweredProgram>>,
        binds: impl IntoIterator<Item = &'a (String, CoreExpr)>,
    ) -> Self {
        let first = base.as_ref().map_or(0, |b| b.global_count());
        let mut names: Vec<Rc<str>> = Vec::new();
        let mut ids: HashMap<Rc<str>, u32> = HashMap::new();
        // A name bound twice keeps its last body.
        let mut sources: Vec<&CoreExpr> = Vec::new();
        for (name, body) in binds {
            match ids.get(name.as_str()) {
                Some(&id) => sources[(id - first) as usize] = body,
                None => {
                    let name: Rc<str> = Rc::from(name.as_str());
                    ids.insert(name.clone(), first + names.len() as u32);
                    names.push(name);
                    sources.push(body);
                }
            }
        }
        let mut cons = match &base {
            Some(b) => b.cons.clone(),
            None => Constructors::new(),
        };
        let mut scope = Scope {
            ids: &ids,
            base: base.as_deref(),
            cons: &mut cons,
            locals: tc_coreir::Scope::new(),
        };
        let bodies = sources.into_iter().map(|e| scope.lower(e)).collect();
        LoweredProgram {
            base,
            first,
            names,
            bodies,
            ids,
            cons,
        }
    }

    pub(crate) fn global_count(&self) -> u32 {
        self.first + self.bodies.len() as u32
    }

    /// The global id `name` resolves to: the program's own, else its
    /// base's.
    pub(crate) fn resolve(&self, name: &str) -> Option<u32> {
        match self.ids.get(name) {
            Some(&id) => Some(id),
            None => self.base.as_ref()?.resolve(name),
        }
    }

    fn layer(&self, id: u32) -> (&LoweredProgram, usize) {
        match &self.base {
            Some(base) if id < self.first => base.layer(id),
            _ => (self, (id - self.first) as usize),
        }
    }

    pub(crate) fn body(&self, id: u32) -> &Code {
        let (layer, i) = self.layer(id);
        &layer.bodies[i]
    }

    pub(crate) fn name(&self, id: u32) -> &str {
        let (layer, i) = self.layer(id);
        &layer.names[i]
    }

    pub(crate) fn shape(&self, id: u32) -> Shape {
        self.cons.shapes[id as usize]
    }

    pub(crate) fn con_name(&self, name: u32) -> &str {
        &self.cons.names[name as usize]
    }
}

/// The names in scope while lowering one program.
struct Scope<'a, 'p> {
    ids: &'p HashMap<Rc<str>, u32>,
    base: Option<&'p LoweredProgram>,
    cons: &'p mut Constructors,
    /// Binders around the expression being lowered, each with its
    /// position (how many binders were in scope when it was pushed).
    locals: tc_coreir::Scope<'a, u32>,
}

impl<'a> Scope<'a, '_> {
    /// One-time translation; recursion depth is bounded by the
    /// elaborator's output shape (parser depth budget plus constant
    /// wrappers).
    fn lower(&mut self, e: &'a CoreExpr) -> Code {
        match e {
            CoreExpr::Var(n) => self.var(n),
            CoreExpr::Lit(Literal::Int(n)) => Code::Int(*n),
            CoreExpr::Lit(Literal::Bool(b)) => Code::Bool(*b),
            CoreExpr::App(..) => self.app(e),
            CoreExpr::Lam(p, b) => {
                self.bind(p);
                let body = self.lower(b);
                self.locals.pop();
                Code::Lam(Box::new(body))
            }
            CoreExpr::LetRec(bs, b) => {
                let mark = self.locals.len();
                for (n, _) in bs {
                    self.bind(n);
                }
                let binds = bs.iter().map(|(_, v)| self.lower(v)).collect();
                let body = self.lower(b);
                self.locals.truncate(mark);
                Code::LetRec(Box::new(LetRec { binds, body }))
            }
            CoreExpr::If(c, t, f) => {
                Code::If(Box::new([self.lower(c), self.lower(t), self.lower(f)]))
            }
            CoreExpr::Tuple(xs) => Code::Tuple(xs.iter().map(|x| self.lower(x)).collect()),
            CoreExpr::Proj(i, b) => Code::Proj(*i, Box::new(self.lower(b))),
            CoreExpr::Con { name, arity, .. } => Code::Con(self.cons.shape(name, *arity)),
            CoreExpr::Case(scrut, arms) => {
                let scrut = self.lower(scrut);
                let arms = arms.iter().map(|a| self.arm(a)).collect();
                Code::Case(Box::new(Case { scrut, arms }))
            }
            // A placeholder surviving to runtime is an elaborator
            // invariant violation; degrade to a structured failure.
            CoreExpr::Placeholder(id) => Code::Fail(format!("unresolved placeholder #{id}").into()),
            CoreExpr::Fail(m) => Code::Fail(m.as_str().into()),
        }
    }

    /// Bring `name` into scope as the innermost frame slot.
    fn bind(&mut self, name: &'a str) {
        let pos = self.locals.len() as u32;
        self.locals.push(name, pos);
    }

    /// An application spine: one call of its head to every argument,
    /// after a builtin at the head takes the operands it saturates.
    fn app(&mut self, e: &'a CoreExpr) -> Code {
        let mut spine = Vec::new();
        let mut head = e;
        while let CoreExpr::App(f, x) = head {
            spine.push(&**x);
            head = f;
        }
        spine.reverse();
        let (head, args) = match self.builtin(head) {
            Some(p) if (1..=spine.len()).contains(&p.arity()) => {
                let node = if p.arity() == 1 {
                    Code::Prim1(p, Box::new(self.lower(spine[0])))
                } else {
                    let ops = Box::new([self.lower(spine[0]), self.lower(spine[1])]);
                    match p {
                        Prim::Cons => Code::Cons(ops),
                        _ => Code::Prim2(p, ops),
                    }
                };
                (node, &spine[p.arity()..])
            }
            _ => (self.lower(head), &spine[..]),
        };
        if args.is_empty() {
            return head;
        }
        let args = args.iter().map(|x| self.lower(x)).collect();
        Code::Call(Box::new(Call { head, args }))
    }

    /// The builtin that `e` names, if `e` is a variable that no binder
    /// or global shadows.
    fn builtin(&self, e: &CoreExpr) -> Option<Prim> {
        let CoreExpr::Var(n) = e else { return None };
        match self.var(n) {
            Code::Builtin(p) => Some(p),
            _ => None,
        }
    }

    fn var(&self, n: &str) -> Code {
        if let Some(&pos) = self.locals.get(n) {
            return Code::Local(self.locals.len() as u32 - 1 - pos);
        }
        if let Some(&id) = self.ids.get(n) {
            return Code::Global(id);
        }
        if let Some(id) = self.base.and_then(|b| b.resolve(n)) {
            return Code::Global(id);
        }
        match Prim::from_name(n) {
            Some(p) => Code::Builtin(p),
            None => Code::Unbound(n.into()),
        }
    }

    fn arm(&mut self, a: &'a CoreArm) -> Arm {
        let mark = self.locals.len();
        let pat = match &a.con {
            // A default arm binds only its first binder.
            None => {
                let binder = a.binders.first().filter(|b| *b != "_");
                if let Some(b) = binder {
                    self.bind(b);
                }
                Pattern::Default {
                    bind: binder.is_some(),
                }
            }
            Some((name, _)) => {
                let bound = |b: &&String| *b != "_";
                for b in a.binders.iter().filter(bound) {
                    self.bind(b);
                }
                Pattern::Con {
                    name: self.cons.name(name),
                    binds: a.binders.iter().map(|b| bound(&b)).collect(),
                }
            }
        };
        let body = self.lower(&a.body);
        self.locals.truncate(mark);
        Arm { pat, body }
    }
}
