//! Property-style tests with a hand-rolled deterministic generator
//! (the build environment is offline, so no proptest/rand): random
//! programs must either compile-and-evaluate or come back with
//! structured errors under a small budget — never panic, never hang.

use typeclasses::{run_source, Budget, Options, Outcome};

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random expression over the whole surface grammar. Most results
/// are ill-typed — that is the point: the pipeline must downgrade them
/// to diagnostics, not crash.
fn arbitrary_expr(rng: &mut Rng, depth: usize, bound: &mut Vec<String>) -> String {
    if depth == 0 || rng.below(8) == 0 {
        return leaf(rng, bound);
    }
    match rng.below(6) {
        0 => {
            let v = format!("v{}", bound.len());
            bound.push(v.clone());
            let body = arbitrary_expr(rng, depth - 1, bound);
            bound.pop();
            format!("(\\{v} -> {body})")
        }
        1 => format!(
            "({} {})",
            arbitrary_expr(rng, depth - 1, bound),
            arbitrary_expr(rng, depth - 1, bound)
        ),
        2 => format!(
            "(if {} then {} else {})",
            arbitrary_expr(rng, depth - 1, bound),
            arbitrary_expr(rng, depth - 1, bound),
            arbitrary_expr(rng, depth - 1, bound)
        ),
        3 => {
            let v = format!("v{}", bound.len());
            bound.push(v.clone());
            let rhs = arbitrary_expr(rng, depth - 1, bound);
            let body = arbitrary_expr(rng, depth - 1, bound);
            bound.pop();
            format!("(let {{ {v} = {rhs} }} in {body})")
        }
        4 => format!(
            "(cons {} {})",
            arbitrary_expr(rng, depth - 1, bound),
            arbitrary_expr(rng, depth - 1, bound)
        ),
        _ => format!(
            "(eq {} {})",
            arbitrary_expr(rng, depth - 1, bound),
            arbitrary_expr(rng, depth - 1, bound)
        ),
    }
}

fn leaf(rng: &mut Rng, bound: &[String]) -> String {
    const GLOBALS: &[&str] = &[
        "nil", "head", "tail", "null", "not", "member", "length", "sum", "True", "False", "add",
        "mul", "error",
    ];
    if !bound.is_empty() && rng.below(3) == 0 {
        return bound[rng.below(bound.len() as u64) as usize].clone();
    }
    match rng.below(3) {
        0 => format!("{}", rng.below(100)),
        1 => GLOBALS[rng.below(GLOBALS.len() as u64) as usize].to_string(),
        _ => format!("{}", rng.below(5)),
    }
}

/// A random expression guaranteed to have type `Int`, so a good share
/// of generated programs actually reach the evaluator.
fn int_expr(rng: &mut Rng, depth: usize) -> String {
    if depth == 0 || rng.below(6) == 0 {
        return format!("{}", rng.below(1_000));
    }
    match rng.below(5) {
        0 => format!(
            "(add {} {})",
            int_expr(rng, depth - 1),
            int_expr(rng, depth - 1)
        ),
        1 => format!(
            "(mul {} {})",
            int_expr(rng, depth - 1),
            int_expr(rng, depth - 1)
        ),
        2 => format!(
            "(sub {} {})",
            int_expr(rng, depth - 1),
            int_expr(rng, depth - 1)
        ),
        3 => format!(
            "(if (eq {} {}) then {} else {})",
            int_expr(rng, depth - 1),
            int_expr(rng, depth - 1),
            int_expr(rng, depth - 1),
            int_expr(rng, depth - 1)
        ),
        _ => format!("(sum (enumFromTo 1 {}))", rng.below(20)),
    }
}

fn small_opts() -> Options {
    Options::default().with_budget(Budget::small())
}

#[test]
fn arbitrary_programs_never_panic_under_small_budget() {
    let mut rng = Rng::new(0x5EED_CAFE);
    for i in 0..200 {
        let mut bound = Vec::new();
        let expr = arbitrary_expr(&mut rng, 4, &mut bound);
        let src = format!("main = {expr};");
        // Any outcome is acceptable; reaching here without a panic or
        // a hang is the property.
        let r = run_source(&src, &small_opts());
        match r.outcome {
            Outcome::Value(_) | Outcome::CompileErrors | Outcome::Eval(_) => {}
            Outcome::NoMain => panic!("iteration {i}: program lost its main:\n{src}"),
        }
    }
}

#[test]
fn int_programs_evaluate_or_fail_structurally() {
    let mut rng = Rng::new(0xB0B5_1ED5);
    let mut values = 0u32;
    for i in 0..150 {
        let src = format!("main = {};", int_expr(&mut rng, 4));
        let r = run_source(&src, &small_opts());
        match r.outcome {
            Outcome::Value(v) => {
                assert!(
                    v.parse::<i64>().is_ok(),
                    "iteration {i}: non-integer rendering {v:?} for\n{src}"
                );
                values += 1;
            }
            // Budget exhaustion / overflow are legitimate structured ends.
            Outcome::Eval(_) => {}
            other => panic!(
                "iteration {i}: well-typed program failed to compile: {other:?}\n{src}\n{}",
                r.check.render_diagnostics()
            ),
        }
    }
    // The generator must not degenerate into all-errors.
    assert!(values >= 50, "only {values} of 150 programs evaluated");
}

// ---------------------------------------------------------------------
// Properties of the resolution memo table (tabled resolution).
// ---------------------------------------------------------------------

use typeclasses::classes::{build_class_env, ClassEnv, ReduceBudget, ResolveCache};
use typeclasses::syntax::Span;
use typeclasses::types::{Pred, Type, VarGen};

/// A random instance environment: `Eq Int` always; `Eq Bool` and
/// `Eq a => Eq (List a)` each with 3/4 probability — so some ground
/// goals fail, exercising the "failures are never cached" path — and
/// sometimes a superclass layer `Eq a => Ord a` with `Ord` instances
/// mirroring `Eq`'s.
fn arbitrary_env(rng: &mut Rng) -> ClassEnv {
    let mut src = String::from(
        "class Eq a where { eq :: a -> a -> Bool; };\n\
         instance Eq Int where { eq = primEqInt; };\n",
    );
    if rng.below(4) != 0 {
        src.push_str("instance Eq Bool where { eq = primEqBool; };\n");
    }
    if rng.below(4) != 0 {
        src.push_str("instance Eq a => Eq (List a) where { eq = \\x y -> True; };\n");
    }
    if rng.below(2) != 0 {
        src.push_str(
            "class Eq a => Ord a where { lte :: a -> a -> Bool; };\n\
             instance Ord Int where { lte = primLeInt; };\n\
             instance Ord a => Ord (List a) where { lte = \\x y -> True; };\n",
        );
    }
    let (toks, ld) = typeclasses::syntax::lex(&src);
    assert!(!ld.has_errors(), "{}", ld.render_all(&src));
    let (prog, pd) = typeclasses::syntax::parse_program(&toks, Default::default());
    assert!(!pd.has_errors(), "{}", pd.render_all(&src));
    let mut gen = VarGen::new();
    let (cenv, cd) = build_class_env(&prog, &mut gen);
    assert!(!cd.has_errors(), "{}", cd.render_all(&src));
    cenv
}

/// A random ground type: Int or Bool under 0..6 List wrappers.
fn arbitrary_ground_type(rng: &mut Rng) -> Type {
    let mut t = if rng.below(2) == 0 {
        Type::int()
    } else {
        Type::bool()
    };
    for _ in 0..rng.below(7) {
        t = Type::list(t);
    }
    t
}

/// A random goal over the classes `cenv` actually declares.
fn arbitrary_goal(rng: &mut Rng, cenv: &ClassEnv) -> Pred {
    let class = if cenv.class("Ord").is_some() && rng.below(3) == 0 {
        "Ord"
    } else {
        "Eq"
    };
    Pred::new(class, arbitrary_ground_type(rng), Span::DUMMY)
}

#[test]
fn cached_resolution_agrees_with_fresh() {
    let mut rng = Rng::new(0x7AB1_E5EED);
    let budget = ReduceBudget::default();
    for _ in 0..30 {
        let cenv = arbitrary_env(&mut rng);
        let (mut cache, mut types) = (ResolveCache::new(), Interner::new());
        for _ in 0..40 {
            let pred = arbitrary_goal(&mut rng, &cenv);
            let cached = cenv.resolve_tree(&pred, &[], budget, &mut cache, &mut types);
            let fresh = cenv.resolve(&pred, &[], budget);
            assert_eq!(
                format!("{cached:?}"),
                format!("{fresh:?}"),
                "cached and fresh resolution disagree on `{pred}`"
            );
        }
    }
}

#[test]
fn table_hit_never_costs_more_than_original_derivation() {
    let mut rng = Rng::new(0x0C0_57B0);
    let budget = ReduceBudget::default();
    for _ in 0..30 {
        let cenv = arbitrary_env(&mut rng);
        let (mut cache, mut types) = (ResolveCache::new(), Interner::new());
        for _ in 0..40 {
            let pred = arbitrary_goal(&mut rng, &cenv);
            let goal = types.intern_pred(&pred);
            if cenv
                .resolve_tree(&pred, &[], budget, &mut cache, &mut types)
                .is_err()
            {
                assert_eq!(cache.cost_of(&goal), None, "failure was cached: `{pred}`");
                continue;
            }
            let cost = cache
                .cost_of(&goal)
                .unwrap_or_else(|| panic!("success not cached: `{pred}`"));
            assert!(cost >= 1, "recorded cost must cover the goal itself");
            // A hit is answered within a single step of budget — i.e.
            // never more than the original derivation consumed.
            let steps_before = cache.stats.steps;
            let tight = ReduceBudget {
                max_depth: budget.max_depth,
                max_steps: 1,
            };
            cenv.resolve_tree(&pred, &[], tight, &mut cache, &mut types)
                .unwrap_or_else(|e| panic!("table hit exceeded one step on `{pred}`: {e}"));
            let hit_steps = cache.stats.steps - steps_before;
            assert!(
                hit_steps as usize <= cost,
                "hit consumed {hit_steps} steps > original cost {cost} on `{pred}`"
            );
        }
    }
}

#[test]
fn outcomes_are_deterministic() {
    let mut rng = Rng::new(0xDE7E_C7AB);
    for _ in 0..40 {
        let mut bound = Vec::new();
        let src = format!("main = {};", arbitrary_expr(&mut rng, 4, &mut bound));
        let a = run_source(&src, &small_opts());
        let b = run_source(&src, &small_opts());
        assert_eq!(
            format!("{:?}", a.outcome),
            format!("{:?}", b.outcome),
            "nondeterministic outcome for\n{src}"
        );
    }
}

// ---------------------------------------------------------------------
// Differential tests: the union-find `Subst` and the id-based `unify`
// against the tree-based reference (`tests/common/tree_types.rs`): the
// idempotent full-scan bind and the tree-walking unifier.
// ---------------------------------------------------------------------

#[path = "common/tree_types.rs"]
mod tree_types;

use std::collections::BTreeSet;
use tree_types::FullScanSubst;
use typeclasses::types::{Interner, Node, Subst, TyVar, TypeId, MAX_NODES};

/// Both substitutions, each seen variable applied alike in both.
struct Lockstep {
    types: Interner,
    fast: Subst,
    slow: FullScanSubst,
    seen: BTreeSet<TyVar>,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            types: Interner::new(),
            fast: Subst::new(),
            slow: FullScanSubst::default(),
            seen: BTreeSet::new(),
        }
    }

    /// Bind `v := t` in both, as unification binds: `v` unbound and not
    /// in `t` applied. The union-find side stores `t` as it is.
    fn bind(&mut self, v: TyVar, t: Type) {
        assert!(self.unify_like(v, &t), "{v} := {t} is not a unifier's bind");
        self.seen.insert(v);
        self.seen.extend(t.free_vars());
        self.slow.bind(v, &t);
        let id = self.types.intern(&t);
        self.fast.bind(v, id);
        self.agree(&format!("{v} := {t}"));
    }

    fn unify_like(&self, v: TyVar, t: &Type) -> bool {
        !self.slow.map.contains_key(&v) && !self.slow.apply(t).contains_var(v)
    }

    /// The two substitutions apply every seen variable, the bound ones
    /// among them, to the same type.
    fn agree(&mut self, after: &str) {
        for &w in &self.seen {
            let var = self.types.var(w);
            let applied = self.fast.apply(&mut self.types, var);
            let want = self.slow.apply(&Type::Var(w));
            if self.types.size(applied) > MAX_NODES {
                // Too large to build as a tree: the store elides it, so
                // it is compared node by node.
                assert_eq!(
                    self.types.tree(applied),
                    Type::elided(),
                    "tree of {w} after {after}"
                );
                assert!(
                    is_tree(&self.types, applied, &want),
                    "apply {w} after {after}"
                );
            } else {
                assert_eq!(self.types.tree(applied), want, "apply {w} after {after}");
            }
        }
    }
}

/// Is `id`, read through `types`, the tree `t`? A walk over `t`, so it
/// also reads types too large for [`Interner::tree`] to build.
fn is_tree(types: &Interner, id: TypeId, t: &Type) -> bool {
    match (types.node(id), t) {
        (Node::Var(v), Type::Var(w)) => v == *w,
        (Node::Con(n), Type::Con(c)) => types.name(n) == Some(c.as_str()),
        (Node::App(a, b), Type::App(x, y)) | (Node::Fun(a, b), Type::Fun(x, y)) => {
            is_tree(types, a, x) && is_tree(types, b, y)
        }
        _ => false,
    }
}

fn pair(a: Type, b: Type) -> Type {
    Type::App(
        Box::new(Type::App(Box::new(Type::Con("Pair".into())), Box::new(a))),
        Box::new(b),
    )
}

/// A random range over variables `t0..t{vars}`.
fn arbitrary_range(rng: &mut Rng, vars: u64, depth: usize) -> Type {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(5) {
            0 => Type::int(),
            1 => Type::bool(),
            _ => Type::Var(TyVar(rng.below(vars) as u32)),
        };
    }
    match rng.below(3) {
        0 => Type::list(arbitrary_range(rng, vars, depth - 1)),
        1 => Type::fun(
            arbitrary_range(rng, vars, depth - 1),
            arbitrary_range(rng, vars, depth - 1),
        ),
        _ => pair(
            arbitrary_range(rng, vars, depth - 1),
            arbitrary_range(rng, vars, depth - 1),
        ),
    }
}

#[test]
fn indexed_bind_agrees_with_full_scan_on_random_sequences() {
    let mut rng = Rng::new(0x5AB5_7175);
    for _ in 0..150 {
        // Few variables make many ranges share each one.
        let vars = 4 + rng.below(36);
        let mut s = Lockstep::new();
        for _ in 0..40 {
            let v = TyVar(rng.below(vars) as u32);
            let t = arbitrary_range(&mut rng, vars, 3);
            if s.unify_like(v, &t) {
                s.bind(v, t);
            }
        }
    }
}

#[test]
fn indexed_bind_agrees_with_full_scan_on_shared_variables_and_chains() {
    let var = |i: u32| Type::Var(TyVar(i));

    // Fifty entries share `t0`; binding it solves all of them at once.
    let mut s = Lockstep::new();
    for i in 1..=50 {
        s.bind(TyVar(i), Type::fun(var(0), var(100 + i)));
    }
    s.bind(TyVar(0), Type::list(var(99)));
    s.bind(TyVar(99), Type::int());

    // A chain bound head first: each bind extends every entry so far.
    let mut s = Lockstep::new();
    for i in 0..150 {
        s.bind(TyVar(i), Type::fun(var(i + 1), Type::int()));
    }
    s.bind(TyVar(150), Type::bool());

    // The same chain bound tail first.
    let mut s = Lockstep::new();
    for i in (0..150).rev() {
        s.bind(TyVar(i), Type::fun(var(i + 1), Type::int()));
    }

    // Variable-to-variable links, then the end of the chain solved.
    let mut s = Lockstep::new();
    for i in 0..100 {
        s.bind(TyVar(i), var(i + 1));
    }
    s.bind(TyVar(100), Type::list(var(200)));
}

#[test]
fn indexed_bind_agrees_with_full_scan_on_the_overflowing_doubling_chain() {
    // t_i := (t_{i+1}, t_{i+1}) doubles t0's solved tree on every bind,
    // to 4 * 2^k - 3 nodes after k binds, until it overflows the tree
    // cap MAX_NODES. No bind is refused: both sides bind on past it and
    // agree, and the union-find side shares the tree, so the store
    // stays small. Later binds must still agree.
    let var = |i: u32| Type::Var(TyVar(i));
    let mut s = Lockstep::new();
    let mut k = 0;
    loop {
        assert!(k < 32, "the doubling chain never overflowed MAX_NODES");
        s.bind(TyVar(k), pair(var(k + 1), var(k + 1)));
        k += 1;
        let t0 = s.types.var(TyVar(0));
        let t0 = s.fast.apply(&mut s.types, t0);
        assert_eq!(s.types.size(t0), 4 * (1 << k) - 3, "t0 after {k} binds");
        if s.types.size(t0) > MAX_NODES {
            break;
        }
    }
    assert!(
        s.types.len() < 64 * k as usize,
        "{} store nodes after {k} binds",
        s.types.len()
    );
    s.bind(TyVar(k), Type::int());
    s.bind(TyVar(1000), Type::list(var(0)));
}

/// The id-based unifier and the tree walker, run on the same problems
/// in lockstep: each call must agree on success, on the error's kind
/// and message, and on every seen variable applied.
struct UnifyLockstep {
    s: Lockstep,
    errors: usize,
}

impl UnifyLockstep {
    fn new() -> Self {
        UnifyLockstep {
            s: Lockstep::new(),
            errors: 0,
        }
    }

    fn unify(&mut self, a: &Type, b: &Type) -> Result<(), String> {
        let s = &mut self.s;
        s.seen.extend(a.free_vars());
        s.seen.extend(b.free_vars());
        let slow = tree_types::unify(&mut s.slow, a, b);
        let (ia, ib) = (s.types.intern(a), s.types.intern(b));
        let fast = typeclasses::types::unify(&mut s.types, &mut s.fast, ia, ib);
        let shown = |r: &Result<(), typeclasses::types::TypeError>| {
            r.as_ref()
                .map_err(|e| (e.kind.clone(), e.to_string()))
                .err()
        };
        assert_eq!(shown(&fast), shown(&slow), "unify {a} ~ {b}");
        self.errors += usize::from(fast.is_err());
        s.agree(&format!("{a} ~ {b}"));
        fast.map_err(|e| e.to_string())
    }
}

#[test]
fn id_unify_agrees_with_the_tree_walker_on_random_problems() {
    let mut rng = Rng::new(0x0417_1F1E_D5EE);
    let mut failures = 0;
    for _ in 0..300 {
        // Few variables, so problems share them and later ones meet
        // earlier bindings; occurs-check cycles come up on their own.
        let vars = 2 + rng.below(10);
        let mut s = UnifyLockstep::new();
        for _ in 0..12 {
            let a = arbitrary_range(&mut rng, vars, 4);
            let b = if rng.below(4) == 0 {
                // Equal sides: one unit on the id path, a walk on the tree
                // path, so small.
                a.clone()
            } else {
                arbitrary_range(&mut rng, vars, 4)
            };
            s.unify(&a, &b).ok();
        }
        failures += s.errors;
    }
    assert!(failures > 100, "too few failing problems: {failures}");
}

#[test]
fn id_unify_agrees_with_the_tree_walker_on_occurs_cycles_and_mismatches() {
    let var = |i: u32| Type::Var(TyVar(i));
    let mut s = UnifyLockstep::new();
    s.unify(&var(0), &Type::list(var(1))).unwrap();
    let e = s.unify(&var(1), &pair(var(0), Type::int())).unwrap_err();
    assert!(e.contains("occurs check"), "{e}");
    // A mismatch deep inside shows both sides fully applied.
    s.unify(&var(2), &Type::fun(var(3), var(3))).unwrap();
    let e = s
        .unify(&var(2), &Type::fun(Type::bool(), Type::list(var(4))))
        .unwrap_err();
    assert!(e.contains("type mismatch"), "{e}");
    // Variable-to-variable chains, bound in both directions.
    for i in 10..30 {
        s.unify(&var(i), &var(i + 1)).unwrap();
        s.unify(&var(60 - i), &var(i)).unwrap();
    }
    s.unify(&var(30), &Type::int()).unwrap();
    s.unify(&var(10), &var(45)).unwrap();
}

#[test]
fn id_unify_agrees_with_the_tree_walker_near_the_budgets() {
    // The tree reference clones, compares and drops these deep types
    // recursively, so it runs on a thread with room for that.
    std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(near_the_budgets)
        .expect("spawn")
        .join()
        .expect("near-budget problems");
}

fn near_the_budgets() {
    let var = |i: u32| Type::Var(TyVar(i));
    // A chain of `depth` arrows over `leaf`: 2 * depth + 1 nodes.
    let arrows =
        |depth: usize, leaf: Type| (0..depth).fold(leaf, |acc, _| Type::fun(Type::int(), acc));

    // Types that differ only at their last node: 2 * depth + 1 pairs,
    // on either side of the budget.
    for (depth, fits) in [(49_999, true), (50_000, false)] {
        let mut s = UnifyLockstep::new();
        let (a, b) = (arrows(depth, Type::bool()), arrows(depth, Type::int()));
        let e = s.unify(&a, &b).unwrap_err();
        assert_eq!(e.contains("type mismatch"), fits, "{e}");
        std::mem::forget((a, b));
    }
    // One that binds a variable there, just inside the budget.
    let mut s = UnifyLockstep::new();
    let (a, c) = (arrows(40_000, Type::bool()), arrows(40_000, var(7)));
    s.unify(&a, &c).unwrap();
    std::mem::forget((a, c));
}
