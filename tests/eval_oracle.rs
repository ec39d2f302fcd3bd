//! The evaluator against the tree walker it replaced.
//!
//! `tc-eval` runs programs on an explicit-stack machine over
//! slot-resolved code. `tests/common/oracle.rs` keeps the native-
//! recursive tree walker that came before it, which looks every
//! variable up by name at run time. For every input and budget below,
//! both must produce equal `EvalRun`s: the printed value or the error
//! (budget errors with their snapshot: binding, fuel and allocations
//! left, depth), the counters, and the per-binding profile.
//!
//! Inputs: the shipped examples, `perfbench`'s three request
//! generators (`module_check` modules run as programs), 60 seeds of
//! the deriving generator, and hand-written edge cases. Each runs at
//! the default budget and under swept fuel, depth and allocation
//! budgets, with profiling off and on. The programs are compiled on top
//! of the prelude, as `tc-driver` runs them: the prelude lowered closed,
//! the program linked over it.

#[path = "common/deriving_gen.rs"]
mod deriving_gen;

#[allow(dead_code)]
#[path = "../perfbench/src/gen.rs"]
mod gen;

#[path = "common/oracle.rs"]
mod oracle;

use std::collections::BTreeSet;
use std::rc::Rc;
use typeclasses::eval::{self, Budget, EvalOptions, EvalRun};
use typeclasses::{check_source, Options};

/// The oracle recurses natively with guest depth; give it room.
const ORACLE_STACK: usize = 256 << 20;

/// One compiled program, lowered for both evaluators.
struct Lowered {
    label: String,
    machine: eval::LoweredProgram,
    oracle: oracle::LoweredProgram,
}

fn lower(label: &str, src: &str) -> Lowered {
    let check = check_source(src, &Options::default());
    assert!(check.ok(), "{label}:\n{}", check.render_diagnostics());
    let core = &check.elab.core;
    let base = &core
        .linked
        .as_ref()
        .expect("compiled over the prelude")
        .base
        .core;
    Lowered {
        label: label.to_string(),
        machine: eval::LoweredProgram::over(
            Rc::new(eval::LoweredProgram::closed(base)),
            &core.binds,
        ),
        oracle: oracle::LoweredProgram::over(
            Rc::new(oracle::LoweredProgram::closed(base)),
            &core.binds,
        ),
    }
}

/// Both evaluators' runs of `main`, compared field by field.
fn agree(p: &Lowered, budget: Budget, profile: bool) -> EvalRun {
    let opts = EvalOptions {
        budget,
        profile,
        ..EvalOptions::default()
    };
    let got = eval::run_lowered_with(&p.machine, "main", &opts);
    let want = oracle::run_lowered_with(&p.oracle, "main", &opts);
    let at = || format!("{} under {budget:?} (profile {profile})", p.label);
    assert_eq!(got.result, want.result, "result: {}", at());
    assert_eq!(got.stats, want.stats, "stats: {}", at());
    assert_eq!(
        got.profile.as_ref().map(|p| &p.bindings),
        want.profile.as_ref().map(|p| &p.bindings),
        "profile: {}",
        at()
    );
    got
}

/// `0..=low`, `steps` points spread up to `need`, and the points on
/// either side of `need`.
fn sweep(low: u64, steps: u64, need: u64) -> Vec<u64> {
    let mut out: Vec<u64> = (0..=low).collect();
    out.extend((1..=steps).map(|i| need * i / steps));
    out.extend([need.saturating_sub(1), need + 1]);
    out.sort_unstable();
    out.dedup();
    out
}

/// How hard to sweep one program.
#[derive(Clone, Copy)]
struct Sweep {
    low: u64,
    steps: u64,
    depths: &'static [usize],
}

const FULL: Sweep = Sweep {
    low: 64,
    steps: 37,
    depths: &[0, 1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100, 200, 500],
};

const LIGHT: Sweep = Sweep {
    low: 8,
    steps: 5,
    depths: &[0, 3, 10, 50, 200],
};

/// Run one program at the default budget and under the sweeps; each
/// budget is tried with profiling off and on. Collects each run's
/// outcome class (`value` or the error code) into `seen`.
fn check_program(p: &Lowered, sweep_by: Sweep, seen: &mut BTreeSet<&'static str>) {
    let base = Budget::default();
    let full = agree(p, base, false);
    agree(p, base, true);
    let mut both = |budget: Budget| {
        let run = agree(p, budget, false);
        agree(p, budget, true);
        seen.insert(run.result.as_ref().map_or_else(|e| e.code(), |_| "value"));
    };
    for fuel in sweep(sweep_by.low, sweep_by.steps, full.stats.fuel_used) {
        both(Budget { fuel, ..base });
    }
    for &max_depth in sweep_by.depths {
        both(Budget { max_depth, ..base });
    }
    let allocs = full.stats.peak_allocs;
    for max_allocs in sweep(sweep_by.low.min(40), sweep_by.steps.min(23), allocs) {
        both(Budget { max_allocs, ..base });
    }
}

/// Check every program on a thread whose stack holds the oracle's
/// recursion, and require the sweeps to have hit every budget limit.
fn check_all(programs: Vec<(String, String)>, sweep_by: Sweep) {
    let seen = std::thread::Builder::new()
        .stack_size(ORACLE_STACK)
        .spawn(move || {
            let mut seen = BTreeSet::new();
            for (label, src) in &programs {
                check_program(&lower(label, src), sweep_by, &mut seen);
            }
            seen
        })
        .expect("spawn")
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
    for code in [
        "value",
        "fuel-exhausted",
        "depth-exceeded",
        "allocation-limit",
    ] {
        assert!(
            seen.contains(code),
            "no swept run ended in {code}: {seen:?}"
        );
    }
}

#[test]
fn examples_agree() {
    let mut paths: Vec<_> = std::fs::read_dir("examples")
        .expect("examples directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mh"))
        .collect();
    paths.sort();
    let programs = paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("example source");
            (p.display().to_string(), src)
        })
        .collect();
    check_all(programs, FULL);
}

fn generated(workload: gen::Workload, seed: u64, count: usize) -> Vec<(String, String)> {
    let check = Options::default();
    gen::requests(workload, seed, "oracle", count)
        .into_iter()
        .enumerate()
        .map(|(i, r)| (format!("{}#{i}", workload.name()), r.program))
        .filter(|(_, src)| check_source(src, &check).ok())
        .collect()
}

#[test]
fn eval_run_requests_agree() {
    check_all(generated(gen::Workload::EvalRun, 7, 16), LIGHT);
}

#[test]
fn small_run_requests_agree() {
    check_all(generated(gen::Workload::SmallRun, 7, 40), FULL);
}

#[test]
fn module_check_mains_agree() {
    check_all(generated(gen::Workload::ModuleCheck, 7, 8), FULL);
}

#[test]
fn derived_instances_agree() {
    let programs = (0..60u64)
        .map(|seed| {
            let scn = deriving_gen::gen_scenario(seed);
            let src = format!(
                "{}{}",
                deriving_gen::render_datas(&scn, true),
                deriving_gen::render_main(&scn)
            );
            (format!("deriving seed {seed}"), src)
        })
        .collect();
    check_all(programs, LIGHT);
}

const EDGE_CASES: &[(&str, &str)] = &[
    ("black hole", "x = x;\nmain = x;"),
    ("black hole in a let", "main = let { a = b; b = a } in a;"),
    ("infinite list", "ones = cons 1 ones;\nmain = ones;"),
    (
        "lazy prefix of an infinite list",
        "from n = cons n (from (add n 1));\nmain = take 5 (from 100);",
    ),
    (
        "head of nil",
        "main = head (filter (\\x -> lt x 0) (enumFromTo 1 3));",
    ),
    ("tail of nil", "main = tail (tail (cons 1 nil));"),
    ("division by zero", "main = primDivInt 7 0;"),
    ("modulo by zero", "main = primModInt 7 0;"),
    ("overflow", "main = mul 9223372036854775807 2;"),
    (
        "negation overflow",
        "main = primNegInt (sub (sub 0 9223372036854775807) 1);",
    ),
    ("error builtin", "main = add 1 error;"),
    (
        "partial constructor applied",
        "data P = MkP Int Int;\nhalf = MkP 1;\nmain = case half 2 of { MkP a b -> add a b };",
    ),
    (
        "partial constructor shown",
        "data P = MkP Int Int;\nmain = MkP 1;",
    ),
    (
        "shared partial constructor",
        "data P = MkP Int Int;\nhalf = MkP 1;\nmain = cons (half 2) (cons (half 3) nil);",
    ),
    (
        "nested constructors shown",
        "data T = Leaf | Node T Int T;\n\
         t = Node (Node Leaf 1 Leaf) 2 (Node Leaf 3 (Node Leaf 4 Leaf));\nmain = t;",
    ),
    (
        "default arms",
        "data C = R | G | B;\nf c = case c of { R -> 1; x -> g x };\n\
         g c = case c of { G -> 2; _ -> 3 };\nmain = cons (f R) (cons (f G) (cons (f B) nil));",
    ),
    (
        "wildcard binders",
        "data P = MkP Int Int;\nsnd p = case p of { MkP _ b -> b };\n\
         k = \\_ -> 7;\nmain = add (snd (MkP 1 2)) (k 0);",
    ),
    (
        "list and bool arms",
        "f xs = case xs of { Nil -> 0; Cons h t -> case null t of { True -> h; False -> 1 } };\n\
         main = add (f (cons 5 nil)) (f (enumFromTo 1 3));",
    ),
    (
        "match failure",
        "data C = R | G;\nf c = case c of { R -> 1 };\nmain = f G;",
    ),
    (
        "letrec cycle",
        "main = let { a = cons 1 b; b = cons 2 a } in take 7 a;",
    ),
    (
        "letrec shadowing",
        "x = 1;\nmain = let { x = 2; y = add x 1 } in let { x = 10 } in add x y;",
    ),
    ("method as a value", "f = eq 1;\nmain = f;"),
    ("deep recursion", "main = sum (enumFromTo 1 600);"),
    (
        "deep global chain",
        "a0 = 1;\na1 = a0;\na2 = a1;\na3 = a2;\nmain = a3;",
    ),
    (
        "aliased arguments",
        "data P = MkP Int Int;\ng = mul 6 7;\nk a b = a;\n\
         main = let { x = add 1 2; h = MkP x } in\n\
         case h x of { MkP a b -> add (k a g) (add (k b x) (k g x)) };",
    ),
    (
        "deep data",
        "data N = Z | S N;\nmk n = if lte n 0 then Z else S (mk (sub n 1));\nmain = mk 300;",
    ),
    (
        "shadowed and partial builtins",
        "head xs = 42;\ntwice f x = f (f x);\n\
         main = let { null = \\xs -> 7 } in\n\
         cons (head (cons 1 nil)) (cons (null nil)\n\
         (cons ((\\primAddInt -> primAddInt 2 3) primSubInt)\n\
         (cons (sum (map (primAddInt 1) (enumFromTo 1 3)))\n\
         (cons (primAddInt (mul 2 3) (twice (primAddInt 1) 4)) nil))));",
    ),
    (
        "over-applied builtin",
        "main = head (cons (\\x -> add x 1) nil) (primMulInt (add 1 2) (sub 10 4));",
    ),
    (
        "calls of several arguments",
        "class Three a where { three :: a -> a -> a -> a; };\n\
         instance Three Int where { three = \\a b c -> mul a (add b c); };\n\
         data T = MkT Int Bool Int;\n\
         add3 a b c = add (add a b) c;\nk3 a b c = a;\napply g = g 3;\n\
         pick b = if b then (\\x y -> x) else (\\x y -> y);\n\
         thrice :: Three a => a -> a;\nthrice x = three x x x;\n\
         plus = primAddInt;\n\
         main = cons (add3 1 2 3) (cons (apply (add3 1 2)) (cons (pick False 1 2)\n\
         (cons (three 2 3 4) (cons (thrice 5) (cons (case MkT 1 True 2 of { MkT a _ c -> add a c })\n\
         (cons (k3 6 error (head nil)) (cons (plus 7 8) (cons ((\\f -> f 1 2) primSubInt) nil))))))));",
    ),
    (
        "partial application shown",
        "add3 a b c = add (add a b) c;\nmain = add3 1 2;",
    ),
];

#[test]
fn edge_cases_agree() {
    let programs = EDGE_CASES
        .iter()
        .map(|(l, s)| (l.to_string(), s.to_string()))
        .collect();
    check_all(programs, FULL);
}

/// Past the old depth ceiling, the two still agree wherever the tree
/// walker's native stack holds.
#[test]
fn deep_budgets_agree() {
    let programs: Vec<(String, String)> = [
        "main = sum (enumFromTo 1 3000);",
        "main = length (enumFromTo 1 3000);",
        "data N = Z | S N;\nmk n = if lte n 0 then Z else S (mk (sub n 1));\nmain = mk 1500;",
    ]
    .iter()
    .map(|s| (s.to_string(), s.to_string()))
    .collect();
    std::thread::Builder::new()
        .stack_size(ORACLE_STACK)
        .spawn(move || {
            for (label, src) in &programs {
                let p = lower(label, src);
                for max_depth in [2_000, 10_000, 30_000] {
                    let budget = Budget {
                        max_depth,
                        ..Budget::default()
                    };
                    agree(&p, budget, false);
                    agree(&p, budget, true);
                }
            }
        })
        .expect("spawn")
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
}
