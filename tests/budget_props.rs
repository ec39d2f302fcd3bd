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
// Differential tests: the id-based `Subst` and `unify` against the
// tree-based reference they replaced (`tests/common/tree_types.rs`):
// the full-scan bind and the tree-walking unifier.
// ---------------------------------------------------------------------

#[path = "common/tree_types.rs"]
mod tree_types;

use std::collections::BTreeSet;
use tree_types::FullScanSubst;
use typeclasses::types::{Interner, Subst, TyVar};

/// Both substitutions, bound in lockstep and compared after each bind.
struct Lockstep {
    types: Interner,
    fast: Subst,
    slow: FullScanSubst,
    seen: BTreeSet<TyVar>,
    overflows: usize,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            types: Interner::new(),
            fast: Subst::new(),
            slow: FullScanSubst::default(),
            seen: BTreeSet::new(),
            overflows: 0,
        }
    }

    fn start_group(&mut self) {
        self.fast.start_group();
        self.slow.start_group();
        assert_eq!(self.fast.group_nodes(), 0);
    }

    fn bind(&mut self, v: TyVar, t: Type) {
        self.seen.insert(v);
        self.seen.extend(t.free_vars());
        let slow = self.slow.bind(v, &t);
        let id = self.types.intern(&t);
        let fast = self.fast.bind(&mut self.types, v, id);
        assert_eq!(fast, slow, "bind {v} := {t}");
        self.overflows += usize::from(fast.is_err());
        assert_eq!(self.fast.len(), self.slow.map.len(), "len after {v} := {t}");
        assert_eq!(self.fast.nodes(), self.slow.nodes, "nodes after {v} := {t}");
        for &w in &self.seen {
            assert_eq!(
                self.fast.lookup(w).map(|id| self.types.tree(id)).as_ref(),
                self.slow.map.get(&w),
                "lookup {w} after {v} := {t}"
            );
            let var = self.types.var(w);
            let applied = self.fast.apply(&mut self.types, var);
            assert_eq!(
                self.types.tree(applied),
                self.slow.apply(&Type::Var(w)),
                "apply {w} after {v} := {t}"
            );
        }
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
            // Mostly the binds unification makes: `v` unbound and not
            // in the solved range. One in eight is any bind at all,
            // rebinding or self-referential, which the API allows too.
            let unify_like = !s.slow.map.contains_key(&v) && !s.slow.apply(&t).contains_var(v);
            if unify_like || rng.below(8) == 0 {
                s.bind(v, t);
            }
            // Group boundaries fall between binds, as between the
            // binding groups elaboration charges separately.
            if rng.below(10) == 0 {
                s.start_group();
            }
        }
    }
}

#[test]
fn indexed_bind_agrees_with_full_scan_on_shared_variables_and_chains() {
    let var = |i: u32| Type::Var(TyVar(i));

    // Fifty entries share `t0`; binding it rewrites all of them at once.
    let mut s = Lockstep::new();
    for i in 1..=50 {
        s.bind(TyVar(i), Type::fun(var(0), var(100 + i)));
    }
    s.bind(TyVar(0), Type::list(var(99)));
    s.bind(TyVar(99), Type::int());

    // A chain bound head first: every bind rewrites every entry so far.
    let mut s = Lockstep::new();
    for i in 0..150 {
        s.bind(TyVar(i), Type::fun(var(i + 1), Type::int()));
    }
    s.bind(TyVar(150), Type::bool());

    // The same chain bound tail first: no bind rewrites anything.
    let mut s = Lockstep::new();
    for i in (0..150).rev() {
        s.bind(TyVar(i), Type::fun(var(i + 1), Type::int()));
    }
}

#[test]
fn indexed_bind_agrees_with_full_scan_on_the_overflowing_doubling_chain() {
    // t_i := (t_{i+1}, t_{i+1}) doubles t0's entry on every bind until
    // the node cap refuses one; both must refuse the same bind and stay
    // unchanged by it, and later binds must still agree.
    let var = |i: u32| Type::Var(TyVar(i));
    let mut s = Lockstep::new();
    let mut i = 0;
    while s.overflows == 0 {
        assert!(i < 64, "the doubling chain never hit the node cap");
        s.bind(TyVar(i), pair(var(i + 1), var(i + 1)));
        i += 1;
    }
    s.bind(TyVar(i - 1), Type::int());
    s.bind(TyVar(i), Type::bool());
    s.bind(TyVar(1000), Type::list(var(0)));
}

#[test]
fn indexed_bind_counts_each_rewritten_entry_once_at_the_node_cap() {
    // A balanced tree of pairs over `Int`, 4 * 2^depth - 3 nodes.
    fn tree(depth: u32) -> Type {
        if depth == 0 {
            Type::int()
        } else {
            pair(tree(depth - 1), tree(depth - 1))
        }
    }
    let var = |i: u32| Type::Var(TyVar(i));

    // `t1` comes to mention `t0` twice through two binds, and a padding
    // entry takes the node count to where binding `t0` to a large tree
    // fits only if each rewritten entry is counted once.
    let mut s = Lockstep::new();
    s.bind(TyVar(9), tree(15));
    s.bind(TyVar(1), pair(var(0), var(2)));
    s.bind(TyVar(2), var(0));
    s.bind(TyVar(0), tree(14));
    assert_eq!(s.overflows, 0, "the bind fits when counted once");

    // Rebinding `t1` leaves it with a range that no longer mentions
    // `t0`; binding `t0` must not count that range against the cap.
    let mut s = Lockstep::new();
    s.bind(TyVar(1), pair(var(0), var(0)));
    s.bind(TyVar(1), tree(15));
    s.bind(TyVar(0), tree(16));
    assert_eq!(s.overflows, 0, "the stale range was counted");
}

#[test]
fn indexed_bind_agrees_with_full_scan_on_the_per_group_node_cap() {
    // Two doubling chains in one substitution. Each fits the cap alone;
    // together they overflow unless a group boundary separates them,
    // and both substitutions must agree on exactly which bind fails.
    let var = |i: u32| Type::Var(TyVar(i));
    let chain = |s: &mut Lockstep, base: u32| {
        for i in 0..15 {
            s.bind(TyVar(base + i), pair(var(base + i + 1), var(base + i + 1)));
        }
    };
    let mut s = Lockstep::new();
    chain(&mut s, 0);
    assert_eq!(s.overflows, 0, "one chain fits the cap");
    chain(&mut s, 100);
    assert!(s.overflows > 0, "two chains in one group overflow");

    let mut s = Lockstep::new();
    chain(&mut s, 0);
    s.start_group();
    chain(&mut s, 100);
    assert_eq!(s.overflows, 0, "a new group is charged from zero");
    // Rewriting an earlier group's entry is charged to the current one.
    s.start_group();
    s.bind(TyVar(15), Type::int());
    s.bind(TyVar(115), Type::bool());

    // Chains in groups of their own fit until the program-wide ceiling,
    // and both substitutions fail the same bind there. (Only the
    // outcomes are compared: applying every variable after every bind
    // of a near-ceiling substitution is too slow.)
    let (mut types, mut fast, mut slow) = (Interner::new(), Subst::new(), FullScanSubst::default());
    let mut groups = 0;
    'groups: loop {
        fast.start_group();
        slow.start_group();
        for i in 0..15 {
            let v = groups * 100 + i;
            let t = pair(var(v + 1), var(v + 1));
            let id = types.intern(&t);
            let outcome = fast.bind(&mut types, TyVar(v), id);
            assert_eq!(outcome, slow.bind(TyVar(v), &t), "bind {v}");
            if outcome.is_err() {
                break 'groups;
            }
        }
        groups += 1;
        assert!(groups < 100, "no program-wide ceiling");
    }
    assert!(groups >= 2, "the ceiling is above one group's cap");
    assert_eq!(fast.nodes(), slow.nodes);
    assert!(fast.nodes() <= Subst::MAX_TOTAL_NODES);
}

#[test]
fn a_base_programs_nodes_count_against_the_ceiling() {
    // A program elaborated over a base (the prelude snapshot) is charged
    // the substitution nodes the base stored, phase by phase, as if the
    // two were one text: the base's binding-group nodes before the
    // program's binding groups, its method-body nodes before the
    // program's method bodies.
    use typeclasses::classes::build_class_env;
    use typeclasses::core_elab::{elaborate_over, ElabBase, ElabOptions};
    use typeclasses::syntax::{lex, parse_program_with, ParseOptions};

    let src = "class C a where { c :: a -> a; }\n\
               instance C Int where { c = \\x -> x; }\n\
               f x = x;\n";
    let method_end = src.find("f x").unwrap() as u32;
    // Where the program's E0403s are: (in method bodies, in groups).
    let too_large = |group_nodes: usize, method_nodes: usize| -> (bool, bool) {
        let (toks, _) = lex(src);
        let (prog, _, _) = parse_program_with(&toks, ParseOptions::default());
        let mut gen = VarGen::new();
        let (cenv, _) = build_class_env(&prog, &mut gen);
        let mut base = ElabBase::builtins().clone();
        base.counts.group_nodes = group_nodes;
        base.counts.method_nodes = method_nodes;
        let (_, diags) =
            elaborate_over(&prog, &cenv, &base, &mut gen, ElabOptions::default(), None);
        let at = |in_method: bool| {
            diags
                .iter()
                .any(|d| d.code == "E0403" && (d.span.start < method_end) == in_method)
        };
        (at(true), at(false))
    };
    assert_eq!(too_large(0, 0), (false, false));
    assert_eq!(too_large(Subst::MAX_TOTAL_NODES, 0), (true, true));
    assert_eq!(too_large(0, Subst::MAX_TOTAL_NODES), (true, false));
}

/// The id-based unifier and the tree walker, run on the same problems
/// in lockstep: each call must agree on success, on the error's kind
/// and message, and on the substitution it leaves.
struct UnifyLockstep {
    types: Interner,
    fast: Subst,
    slow: FullScanSubst,
    seen: BTreeSet<TyVar>,
    errors: usize,
}

impl UnifyLockstep {
    fn new() -> Self {
        UnifyLockstep {
            types: Interner::new(),
            fast: Subst::new(),
            slow: FullScanSubst::default(),
            seen: BTreeSet::new(),
            errors: 0,
        }
    }

    fn unify(&mut self, a: &Type, b: &Type) -> Result<(), String> {
        self.seen.extend(a.free_vars());
        self.seen.extend(b.free_vars());
        let slow = tree_types::unify(&mut self.slow, a, b);
        let (ia, ib) = (self.types.intern(a), self.types.intern(b));
        let fast = typeclasses::types::unify(&mut self.types, &mut self.fast, ia, ib);
        let shown = |r: &Result<(), typeclasses::types::TypeError>| {
            r.as_ref()
                .map_err(|e| (e.kind.clone(), e.to_string()))
                .err()
        };
        assert_eq!(shown(&fast), shown(&slow), "unify {a} ~ {b}");
        self.errors += usize::from(fast.is_err());
        self.agree(&format!("{a} ~ {b}"));
        fast.map_err(|e| e.to_string())
    }

    /// The two substitutions hold the same bindings.
    fn agree(&mut self, after: &str) {
        assert_eq!(self.fast.len(), self.slow.map.len(), "len after {after}");
        assert_eq!(self.fast.nodes(), self.slow.nodes, "nodes after {after}");
        for &w in &self.seen {
            assert_eq!(
                self.fast.lookup(w).map(|id| self.types.tree(id)).as_ref(),
                self.slow.map.get(&w),
                "lookup {w} after {after}"
            );
            let var = self.types.var(w);
            assert_eq!(
                self.fast.apply_tree(&self.types, var),
                self.slow.apply(&Type::Var(w)),
                "apply {w} after {after}"
            );
        }
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
                // Equal sides: the ground ones are skipped whole.
                a.clone()
            } else {
                arbitrary_range(&mut rng, vars, 4)
            };
            s.unify(&a, &b).ok();
            if rng.below(6) == 0 {
                s.fast.start_group();
                s.slow.start_group();
            }
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

    // Equal ground types on either side of the work budget: the id path
    // skips them whole but must charge exactly what the walk would.
    for depth in [49_998usize, 49_999, 50_000] {
        let mut s = UnifyLockstep::new();
        let t = arrows(depth, Type::bool());
        let r = s.unify(&t, &t);
        assert_eq!(r.is_err(), 2 * depth + 1 > tree_types::UNIFY_BUDGET);
        std::mem::forget(t);
    }
    // A type that differs only at its last node, and one that binds a
    // variable there, just inside the budget.
    let mut s = UnifyLockstep::new();
    let (a, b) = (arrows(40_000, Type::bool()), arrows(40_000, Type::int()));
    s.unify(&a, &b).unwrap_err();
    let c = arrows(40_000, var(7));
    s.unify(&a, &c).unwrap();
    std::mem::forget((a, b, c));

    // An equal ground part is charged its full size before the work
    // that follows it: 60,005 units plus two per arrow after it.
    for (depth, fits) in [(15_000, true), (25_000, false)] {
        let mut s = UnifyLockstep::new();
        let shared = arrows(30_000, Type::bool());
        let a = pair(shared.clone(), arrows(depth, Type::bool()));
        let b = pair(shared.clone(), arrows(depth, var(7)));
        assert_eq!(s.unify(&a, &b).is_ok(), fits);
        std::mem::forget((shared, a, b));
    }

    // A doubling chain reached through unification: the substitution's
    // node cap refuses the same bind on both paths.
    let mut s = UnifyLockstep::new();
    let mut refused = false;
    for i in 0..40 {
        if s.unify(&var(i), &pair(var(i + 1), var(i + 1))).is_err() {
            refused = true;
            break;
        }
    }
    assert!(refused, "the doubling chain never hit the node cap");
    // `t0` is now solved to a type of over 100,000 nodes that still
    // mentions a variable: unifying it with itself walks it on both
    // paths and runs out of work the same way.
    assert!(s.unify(&var(0), &var(0)).is_err());
}
