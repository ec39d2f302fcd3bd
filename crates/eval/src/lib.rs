//! `tc-eval`: a lazy (call-by-need) evaluator for the
//! dictionary-passing core, sandboxed behind an explicit [`Budget`].
//!
//! Dictionaries are ordinary tuples at runtime, so nothing here knows
//! about classes: by the time code reaches the evaluator, overloading
//! has been compiled away exactly as in Peterson & Jones.
//!
//! A program is lowered once ([`LoweredProgram`]): every variable is
//! resolved to a frame offset, a global, or a builtin. Evaluation runs
//! on an explicit-stack machine: thunks, environment frames and
//! dictionary tuples live in session-owned arenas, and continuations on
//! a heap stack, so no guest program grows the native stack. A session
//! hands its emptied arenas to the next one on the same thread, up to
//! 1 MiB of capacity, so a worker does not regrow them for each request.
//!
//! Dictionary conversion makes an overloaded function a curried function
//! of its dictionaries, then its arguments. A call `f a1 … ak` is one
//! node: one step evaluates the head, and one apply step binds as many
//! arguments as the closure reached takes parameters (a lambda whose
//! body is a lambda takes the next one), one frame each, with no
//! intermediate closure. A partial application returns the closure that
//! takes the rest and allocates nothing of its own; arguments left over
//! apply to the value of the body. A builtin or constructor value takes
//! its arguments one apply step at a time.
//!
//! Arguments and dictionary fields are passed by need, but an atom is
//! not suspended: a variable (a dictionary parameter threaded through a
//! recursive call, an instance dictionary, any local or global) passes
//! the thunk it names, and an `Int` or `Bool` literal or `nil` is one
//! evaluated cell. Only a compound argument or field, and every
//! `letrec` right-hand side, becomes a suspension of its own. Sharing is
//! unchanged: every use of a variable forces the one thunk it names.
//!
//! A call that gives a builtin exactly its arity (`primAddInt a b`,
//! `null xs`, `cons x xs`) is one step rather than a curried
//! application of a builtin value. Its strict operands are not passed:
//! a variable forces the thunk it names, and anything else is
//! evaluated in place and allocates nothing. `cons` passes its fields
//! as arguments, so lists stay lazy. A partial application, a builtin
//! passed as a value or selected from a dictionary, and a name a local
//! or global shadows take the first-class path.
//!
//! Robustness model — evaluation of *any* core program terminates with
//! a `Result`, never a panic, never an unbounded hang:
//!
//! * **fuel**: every evaluation step costs one unit; exhaustion returns
//!   [`EvalError::FuelExhausted`] deterministically (same program, same
//!   budget, same step of failure);
//! * **depth**: nesting is capped ([`Budget::max_depth`]), so deep
//!   non-tail recursion returns [`EvalError::DepthExceeded`]. The cap
//!   bounds the machine's heap continuation stack, not native frames:
//!   any depth a request asks for is safe on any thread;
//! * **allocations**: thunks (suspensions, literal and `nil` cells,
//!   globals' thunks), closures, environment frames and constructor
//!   applications are counted and capped
//!   ([`EvalError::AllocationLimit`]); passing a variable allocates
//!   nothing, and neither does a partial application;
//! * **blackholing**: a thunk found under evaluation by its own
//!   evaluation is a dependency cycle, reported as
//!   [`EvalError::BlackHole`] (e.g. `let x = x in x`);
//! * type-shaped runtime errors (`if` on a non-Bool, projecting a
//!   non-tuple, ...) are structured errors — they can only arise from
//!   programs that already carry typecheck diagnostics, but the
//!   evaluator still refuses gracefully rather than trusting upstream.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::panic)]

mod lower;
mod machine;

pub use lower::LoweredProgram;

use machine::Machine;
use std::fmt;
use tc_coreir::CoreProgram;
use tc_trace::{CancelToken, EventScope};

/// Resource limits for one evaluation session.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum evaluation steps.
    pub fuel: u64,
    /// Maximum evaluation nesting depth: how deep non-tail evaluation
    /// may nest, which bounds the machine's continuation stack.
    pub max_depth: usize,
    /// Maximum number of heap objects: thunks (a suspended compound
    /// argument, dictionary field or `letrec` right-hand side, a
    /// literal or `nil` argument's or field's evaluated cell, a global's
    /// thunk on its first use, a default arm's binding of its
    /// scrutinee), closures (one per lambda evaluated, whatever its
    /// number of parameters), environment frames (one per parameter
    /// bound), and constructor values (one per constructor evaluated
    /// and per field applied to it). An argument or field that names a
    /// variable allocates nothing, neither does a partial application,
    /// which returns the closure that takes the remaining parameters,
    /// nor a saturated builtin's strict operand, which is evaluated in
    /// place.
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

/// Aggregate resource counters for one evaluation session. Cheap to
/// collect (always on), reported in [`EvalRun::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluation steps consumed. A saturated builtin call is one, and
    /// so is a call node; each apply step then binds as many arguments
    /// as the closure it reaches takes parameters.
    pub fuel_used: u64,
    /// Heap objects allocated (see [`Budget::max_allocs`] for what
    /// counts). Nothing is freed mid-run, so this is also the peak live
    /// count.
    pub peak_allocs: u64,
    /// Thunks created, a subset of `peak_allocs`: suspensions, literal
    /// and `nil` cells, and globals' thunks. A variable passed as an
    /// argument or field creates none, and a saturated builtin's strict
    /// operand, evaluated in place, creates none either.
    pub thunks_created: u64,
    /// Thunk forces, including re-forces of already-evaluated cells. A
    /// variable argument is forced through the thunk it names, with no
    /// forwarding thunk of its own in between. A saturated builtin
    /// forces a variable operand's thunk and no other.
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
/// first, reported in [`EvalRun::profile`] when [`EvalOptions::profile`]
/// is set.
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
    /// Evaluation nesting depth at the failure point (0 when the failing
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
    let mut m = Machine::new(prog, opts);
    let already_cancelled = opts.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let result = if already_cancelled {
        Err(EvalError::Cancelled(m.snapshot(0)))
    } else {
        m.eval_and_show(entry)
    };
    EvalRun {
        result,
        stats: m.stats(),
        profile: m.take_profile(),
    }
}

/// Evaluate `entry` in `prog` and deep-print the result.
pub fn run_entry(prog: &CoreProgram, entry: &str, budget: Budget) -> Result<String, EvalError> {
    run_entry_with(
        prog,
        entry,
        &EvalOptions {
            budget,
            ..EvalOptions::default()
        },
    )
    .result
}

#[cfg(test)]
mod tests {
    use super::*;
    use lower::Code;
    use tc_coreir::{CoreExpr as C, Literal};

    fn var(n: &str) -> C {
        C::Var(n.into())
    }
    fn int(n: i64) -> C {
        C::Lit(Literal::Int(n))
    }
    fn instrumented(p: &CoreProgram, profile: bool) -> EvalRun {
        run_entry_with(
            p,
            "main",
            &EvalOptions {
                profile,
                ..EvalOptions::default()
            },
        )
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
    fn long_list_renders_cell_by_cell() {
        // upto n = if n == 0 then nil else cons n (upto (n - 1)):
        // a 100k-cell lazy list, whose spine printing forces one cell
        // at a time at constant depth.
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
        let out = run_entry(&p, "main", budget).unwrap();
        assert!(out.starts_with("[100000, 99999, "), "{}", &out[..40]);
        assert!(out.ends_with(", 2, 1]"));
        assert_eq!(out.matches(", ").count(), 99_999);
    }

    #[test]
    fn stats_report_fuel_and_allocations() {
        let p = prog(vec![(
            "main",
            C::apps(var("primAddInt"), vec![int(40), int(2)]),
        )]);
        let run = instrumented(&p, false);
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
        let run = instrumented(&p, false);
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
        let run = instrumented(&p, true);
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
        let plain = instrumented(&p, false);
        assert_eq!(plain.result.as_deref(), Ok("20"));
        assert_eq!(plain.stats, run.stats);
    }

    fn lam(x: &str, body: C) -> C {
        C::Lam(x.into(), Box::new(body))
    }

    fn stats(fuel_used: u64, peak_allocs: u64, thunks_created: u64, forces: u64) -> EvalStats {
        EvalStats {
            fuel_used,
            peak_allocs,
            thunks_created,
            forces,
        }
    }

    #[test]
    fn an_argument_naming_a_local_allocates_no_thunk() {
        // f = \x -> x; main = (\y -> f y) 1: `y` is passed as the cell
        // `1` was passed in. Thunks: `main`'s, `f`'s and the literal's
        // cell; allocations add two closures and two frames. Forces:
        // `main`, `f`, and the cell once, through `x`.
        let p = prog(vec![
            ("f", lam("x", var("x"))),
            ("main", C::app(lam("y", C::app(var("f"), var("y"))), int(1))),
        ]);
        let run = instrumented(&p, false);
        assert_eq!(run.result.as_deref(), Ok("1"));
        assert_eq!(run.stats, stats(12, 7, 3, 3));
    }

    #[test]
    fn a_local_bound_to_error_passed_but_never_forced_yields_a_value() {
        // k = \a -> \b -> a; main = (\e -> k 7 e) error: `error` is
        // suspended (a builtin other than `nil` is no atom), `e` passes
        // that suspension on, and `k` never forces it. Steps (12):
        // forcing `main`; the call, the lambda and the apply that
        // suspends `error`; the call `k 7 e`, `k`'s global, forcing `k`
        // and its lambda, the one apply that binds both parameters; `a`
        // and forcing the cell `7`; printing. Allocations (9): `main`'s
        // thunk, `k`'s, two closures, the suspension, the cell and three
        // frames. Thunks (4): `main`'s, `k`'s, the suspension and the
        // cell. Forces (3): `main`, `k` and the cell.
        let k = lam("a", lam("b", var("a")));
        let body = C::apps(var("k"), vec![int(7), var("e")]);
        let p = prog(vec![
            ("k", k.clone()),
            ("main", C::app(lam("e", body.clone()), var("error"))),
        ]);
        let run = instrumented(&p, false);
        assert_eq!(run.result.as_deref(), Ok("7"));
        assert_eq!(run.stats, stats(12, 9, 4, 3));
        // The same through a `let`-bound local.
        let p = prog(vec![
            ("k", k),
            (
                "main",
                C::LetRec(vec![("e".into(), var("error"))], Box::new(body)),
            ),
        ]);
        assert_eq!(instrumented(&p, false).result.as_deref(), Ok("7"));
    }

    #[test]
    fn a_thunk_passed_to_two_callees_is_evaluated_once() {
        // sq = \n -> n * n; id = \v -> v;
        // main = (\x -> id x + id x) (sq 9): both calls force the one
        // suspension of `sq 9`, so `sq` is entered once. `+` and `*`
        // are saturated: `+` evaluates each `id x` in place, and `*`
        // forces `n` twice. Steps (27): forcing `main`; the application,
        // the lambda and the apply that suspends `sq 9`; `+`; for the
        // left `id x`, the application, `id`'s global, forcing `id`
        // and its lambda, the apply, `v` and forcing `sq 9`, whose
        // evaluation is the application, `sq`'s global, forcing `sq`
        // and its lambda, the apply, `*` and two forces of `n`; for the
        // right `id x`, the application, `id`'s global, the force of
        // `id`, the apply, `v` and the force of `sq 9`'s value; and
        // printing. Thunks (5): `main`'s, `id`'s, `sq`'s, the
        // suspension and the cell `9`; allocations (12) add three
        // closures and four frames. Forces (8): `main`, `id` twice,
        // `sq 9` twice, `sq`, `n` twice.
        let p = prog(vec![
            (
                "sq",
                lam("n", C::apps(var("primMulInt"), vec![var("n"), var("n")])),
            ),
            ("id", lam("v", var("v"))),
            (
                "main",
                C::app(
                    lam(
                        "x",
                        C::apps(
                            var("primAddInt"),
                            vec![C::app(var("id"), var("x")), C::app(var("id"), var("x"))],
                        ),
                    ),
                    C::app(var("sq"), int(9)),
                ),
            ),
        ]);
        let run = instrumented(&p, true);
        assert_eq!(run.result.as_deref(), Ok("162"));
        let profile = run.profile.expect("profiling requested");
        let get = |n: &str| profile.get(n).expect("missing profile entry").clone();
        assert_eq!(get("sq").forces, 1, "{profile:?}");
        assert_eq!(get("id").forces, 2, "{profile:?}");
        assert_eq!(run.stats, stats(27, 12, 5, 8));
    }

    #[test]
    fn a_call_binds_every_parameter_in_one_apply() {
        // k3 = \a b c -> a; main = k3 1 2 3. Steps (9): forcing `main`,
        // the call, `k3`'s global, forcing `k3` and its lambda, the one
        // apply that binds all three parameters, `a`, forcing the cell
        // `1`, printing. Allocations (9): `main`'s thunk, `k3`'s, one
        // closure, three literal cells and three frames. Thunks (5):
        // `main`'s, `k3`'s and the cells. Forces (3): `main`, `k3` and
        // the cell `1`.
        let k3 = lam("a", lam("b", lam("c", var("a"))));
        let p = prog(vec![
            ("k3", k3),
            ("main", C::apps(var("k3"), vec![int(1), int(2), int(3)])),
        ]);
        let run = instrumented(&p, false);
        assert_eq!(run.result.as_deref(), Ok("1"));
        assert_eq!(run.stats, stats(9, 9, 5, 3));
    }

    /// A call `f a1 … ak` run two ways, inside `ctx`: as one spine, and
    /// one argument at a time through `let`-bound intermediates
    /// (`let g1 = f a1 in let g2 = g1 a2 in … ctx gk`), each a call of
    /// one argument. `globals` are bound beside `main`.
    fn spine_and_steps(
        globals: &[(&str, C)],
        f: C,
        args: &[C],
        ctx: impl Fn(C) -> C,
    ) -> [Result<String, EvalError>; 2] {
        let spine = ctx(C::apps(f.clone(), args.to_vec()));
        let mut steps = ctx(var(&format!("g{}", args.len())));
        for i in (1..=args.len()).rev() {
            let prev = if i == 1 {
                f.clone()
            } else {
                var(&format!("g{}", i - 1))
            };
            let rhs = C::app(prev, args[i - 1].clone());
            steps = C::LetRec(vec![(format!("g{i}"), rhs)], Box::new(steps));
        }
        [(spine, true), (steps, false)].map(|(main, spine)| {
            let mut binds = globals.to_vec();
            binds.push(("main", main));
            let p = prog(binds);
            let lowered = LoweredProgram::new(&p);
            let calls = calls_of(lowered.body(lowered.resolve("main").unwrap()));
            if spine {
                assert!(calls.contains(&args.len()), "{calls:?}");
            } else {
                assert!(calls.iter().all(|&k| k == 1), "{calls:?}");
            }
            run_lowered_with(&lowered, "main", &EvalOptions::default()).result
        })
    }

    /// The number of arguments of every call in `code`.
    fn calls_of(code: &Code) -> Vec<usize> {
        let mut out = Vec::new();
        let mut todo = vec![code];
        while let Some(c) = todo.pop() {
            match c {
                Code::Call(call) => {
                    out.push(call.args.len());
                    todo.push(&call.head);
                    todo.extend(call.args.iter());
                }
                Code::LetRec(l) => {
                    todo.extend(l.binds.iter());
                    todo.push(&l.body);
                }
                Code::Lam(b) => todo.push(b),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn a_call_of_n_arguments_agrees_with_n_calls_of_one() {
        let add = |a, b| C::apps(var("primAddInt"), vec![a, b]);
        let add3 = lam(
            "a",
            lam("b", lam("c", add(add(var("a"), var("b")), var("c")))),
        );
        // pick b = if b then (\x y -> x) else (\x y -> y): one
        // parameter, then a function of two.
        let pick = lam(
            "b",
            C::If(
                Box::new(var("b")),
                Box::new(lam("x", lam("y", var("x")))),
                Box::new(lam("x", lam("y", var("y")))),
            ),
        );
        // A dictionary whose second field is a method of three
        // parameters.
        let dict = C::Tuple(vec![int(0), add3.clone()]);
        let globals = [
            ("add3", add3),
            ("pick", pick),
            ("dict", dict),
            ("k3", lam("a", lam("b", lam("c", var("a"))))),
            ("plus", var("primAddInt")),
        ];
        let id: fn(C) -> C = |c| c;
        let b = |b| C::Lit(Literal::Bool(b));
        // Name, head, arguments, the context the call is in, and the
        // value or error code.
        type Case = (
            &'static str,
            C,
            Vec<C>,
            fn(C) -> C,
            Result<&'static str, &'static str>,
        );
        let cases: Vec<Case> = vec![
            (
                "exact",
                var("add3"),
                vec![int(1), int(2), int(3)],
                id,
                Ok("6"),
            ),
            (
                "partial, passed on and applied later",
                var("add3"),
                vec![int(1), int(2)],
                |c| C::app(lam("g", C::app(var("g"), int(3))), c),
                Ok("6"),
            ),
            (
                "partial, shown",
                var("add3"),
                vec![int(1)],
                id,
                Ok("<function>"),
            ),
            (
                "over-applied: a function that returns a function",
                var("pick"),
                vec![b(false), int(1), int(2)],
                id,
                Ok("2"),
            ),
            (
                "a method of three parameters from a dictionary",
                C::Proj(1, Box::new(var("dict"))),
                vec![int(4), int(5), int(6)],
                id,
                Ok("15"),
            ),
            (
                "a constructor",
                con("MkT", 0, 3),
                vec![int(1), b(true), var("nil")],
                id,
                Ok("(MkT 1 True [])"),
            ),
            (
                "an over-applied constructor",
                con("MkP", 0, 2),
                vec![int(1), int(2), int(3)],
                id,
                Err("not-a-function"),
            ),
            (
                "a first-class builtin",
                var("plus"),
                vec![int(7), int(8)],
                id,
                Ok("15"),
            ),
            (
                "an over-applied first-class builtin",
                var("plus"),
                vec![int(7), int(8), int(9)],
                id,
                Err("not-a-function"),
            ),
            (
                "an error argument never forced",
                var("k3"),
                vec![int(1), var("error"), add(var("error"), int(1))],
                id,
                Ok("1"),
            ),
            (
                "an error argument forced",
                var("k3"),
                vec![var("error"), int(2), int(3)],
                id,
                Err("failure"),
            ),
            (
                "a non-function head",
                int(5),
                vec![int(1), int(2)],
                id,
                Err("not-a-function"),
            ),
        ];
        for (name, f, args, ctx, want) in cases {
            let [spine, steps] = spine_and_steps(&globals, f, &args, ctx);
            let code = |r: &Result<String, EvalError>| r.as_ref().map_err(|e| e.code()).cloned();
            assert_eq!(code(&spine), want.map(str::to_string), "{name}: {spine:?}");
            assert_eq!(spine, steps, "{name}");
        }
    }

    #[test]
    fn a_saturated_builtin_suspends_none_of_its_operands() {
        // main = primAddInt (primMulInt 2 3) (primSubInt 10 4): both
        // compound operands are evaluated in place, and so are the
        // literals. Steps (9): forcing `main`, the three calls, the four
        // literals, printing. The one thunk, allocation and force are
        // `main`'s.
        let p = prog(vec![(
            "main",
            C::apps(
                var("primAddInt"),
                vec![
                    C::apps(var("primMulInt"), vec![int(2), int(3)]),
                    C::apps(var("primSubInt"), vec![int(10), int(4)]),
                ],
            ),
        )]);
        let run = instrumented(&p, false);
        assert_eq!(run.result.as_deref(), Ok("12"));
        assert_eq!(run.stats, stats(9, 1, 1, 1));
    }

    #[test]
    fn a_list_builtin_on_a_local_costs_two_steps() {
        // main = let xs = cons 7 nil in op xs. Each run forces `main`,
        // enters the `let` (a suspension of `cons 7 nil` and a frame),
        // evaluates `cons 7 nil` when `xs` is forced (one step, with an
        // evaluated cell for each of `7` and `nil`) and prints: four
        // steps, five allocations, four thunks. `op xs` adds two steps,
        // the call and the force of `xs`; `head` then forces the cell
        // `7`, and `tail` the cell `nil` (one step each).
        let xs = C::apps(var("cons"), vec![int(7), var("nil")]);
        for (op, out, want) in [
            ("null", "False", stats(6, 5, 4, 2)),
            ("head", "7", stats(7, 5, 4, 3)),
            ("tail", "[]", stats(7, 5, 4, 3)),
        ] {
            let body = C::app(var(op), var("xs"));
            let p = prog(vec![(
                "main",
                C::LetRec(vec![("xs".into(), xs.clone())], Box::new(body)),
            )]);
            let run = instrumented(&p, false);
            assert_eq!(run.result.as_deref(), Ok(out), "{op}");
            assert_eq!(run.stats, want, "{op}");
        }
    }

    #[test]
    fn a_saturated_cons_costs_one_step_and_its_literal_cell() {
        // main = let xs = nil in cons 1 xs: `cons 1 xs` is one step and
        // one allocation, the literal cell `1`; `xs` is passed as the
        // thunk it names. The other steps (8) force `main`, enter the
        // `let`, and print `[1]`: the cell, its head, the `1`, then
        // forcing `xs` and evaluating `nil`. The other allocations (3)
        // are `main`'s thunk, the `let`'s suspension and its frame.
        let body = C::apps(var("cons"), vec![int(1), var("xs")]);
        let p = prog(vec![(
            "main",
            C::LetRec(vec![("xs".into(), var("nil"))], Box::new(body)),
        )]);
        let run = instrumented(&p, false);
        assert_eq!(run.result.as_deref(), Ok("[1]"));
        assert_eq!(run.stats, stats(9, 4, 3, 3));
    }

    /// The saturated node (`p a b`) and the first-class path
    /// (`(\f -> f a b) p`, a builtin value applied argument by
    /// argument) of the builtin `p`, run with a global `five = 5`.
    fn saturated_and_first_class(p: &str, ops: &[C]) -> [Result<String, EvalError>; 2] {
        let saturated = C::apps(var(p), ops.to_vec());
        let first_class = C::app(lam("f", C::apps(var("f"), ops.to_vec())), var(p));
        [(saturated, true), (first_class, false)].map(|(main, one_node)| {
            let p = prog(vec![("five", int(5)), ("main", main)]);
            let lowered = LoweredProgram::new(&p);
            let body = lowered.body(lowered.resolve("main").unwrap());
            let node = matches!(body, Code::Prim1(..) | Code::Prim2(..) | Code::Cons(..));
            assert_eq!(node, one_node);
            run_lowered_with(&lowered, "main", &EvalOptions::default()).result
        })
    }

    #[test]
    fn saturated_builtins_agree_with_first_class_ones() {
        let b = |b| C::Lit(Literal::Bool(b));
        let cons = |h, t| C::apps(var("cons"), vec![h, t]);
        let operands = [
            int(7),
            int(-3),
            int(0),
            int(i64::MAX),
            int(i64::MIN),
            b(true),
            b(false),
            var("nil"),
            cons(int(1), var("nil")),
            cons(var("error"), var("nil")),
            C::apps(var("primAddInt"), vec![int(2), int(3)]),
            var("five"),
            var("error"),
            C::apps(var("primDivInt"), vec![int(1), int(0)]),
        ];
        let unary = ["primNegInt", "null", "head", "tail"];
        let binary = [
            "primAddInt",
            "primSubInt",
            "primMulInt",
            "primDivInt",
            "primModInt",
            "primEqInt",
            "primLtInt",
            "primLeInt",
            "primEqBool",
            "cons",
        ];
        let mut calls: Vec<(&str, Vec<C>)> = Vec::new();
        for p in unary {
            calls.extend(operands.iter().map(|a| (p, vec![a.clone()])));
        }
        for p in binary {
            for a in &operands {
                calls.extend(operands.iter().map(|b| (p, vec![a.clone(), b.clone()])));
            }
        }
        let mut codes = std::collections::BTreeSet::new();
        for (p, ops) in &calls {
            let [saturated, first_class] = saturated_and_first_class(p, ops);
            assert_eq!(saturated, first_class, "{p} {ops:?}");
            codes.insert(saturated.map_or_else(|e| e.code(), |_| "value"));
        }
        for code in [
            "value",
            "not-an-int",
            "not-a-bool",
            "not-a-list",
            "empty-list",
            "divide-by-zero",
            "int-overflow",
            "failure",
        ] {
            assert!(codes.contains(code), "no call ended in {code}: {codes:?}");
        }
        // Of two failing operands, the left one's error wins, and an
        // ill-typed left operand fails before the right is evaluated.
        let div0 = C::apps(var("primDivInt"), vec![int(1), int(0)]);
        for (ops, want) in [
            (
                [var("error"), div0.clone()],
                EvalError::Failure("`error` evaluated".into()),
            ),
            ([div0, var("error")], EvalError::DivideByZero),
            ([b(true), var("error")], EvalError::NotAnInt),
        ] {
            let runs = saturated_and_first_class("primAddInt", &ops);
            assert_eq!(runs, [Err(want.clone()), Err(want)]);
        }
        // A cell whose head is `error` is built and taken apart without
        // forcing it.
        let cell = cons(var("error"), var("nil"));
        for (p, want) in [("null", "False"), ("tail", "[]")] {
            let runs = saturated_and_first_class(p, std::slice::from_ref(&cell));
            assert_eq!(runs, [Ok(want.to_string()), Ok(want.to_string())]);
        }
    }

    #[test]
    fn self_reference_through_a_strict_argument_is_a_black_hole() {
        // f = \a -> a + 1; xs = f xs: `xs` is passed as its own thunk,
        // which `f` forces while it is under evaluation.
        let f = lam("a", C::apps(var("primAddInt"), vec![var("a"), int(1)]));
        let global = prog(vec![
            ("f", f.clone()),
            ("xs", C::app(var("f"), var("xs"))),
            ("main", var("xs")),
        ]);
        let local = prog(vec![
            ("f", f),
            (
                "main",
                C::LetRec(
                    vec![("xs".into(), C::app(var("f"), var("xs")))],
                    Box::new(var("xs")),
                ),
            ),
        ]);
        for p in [global, local] {
            let err = run_entry(&p, "main", Budget::default()).unwrap_err();
            assert_eq!(err, EvalError::BlackHole);
            assert_eq!(err.code(), "black-hole");
        }
    }

    #[test]
    fn a_literal_argument_costs_exactly_one_allocation() {
        // main = (\x -> 0) 5 allocates `main`'s thunk, the closure, the
        // frame, and one evaluated cell for the literal, which is also
        // its one thunk besides `main`'s.
        let p = prog(vec![("main", C::app(lam("x", int(0)), int(5)))]);
        let run = instrumented(&p, false);
        assert_eq!(run.result.as_deref(), Ok("0"));
        assert_eq!(run.stats, stats(6, 4, 2, 1));
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
}
