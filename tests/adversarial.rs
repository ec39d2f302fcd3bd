//! Adversarial programs: every one of these must come back with a
//! structured diagnostic or a structured evaluation error — zero
//! panics, zero hangs. Each pipeline run happens on a helper thread
//! with a hard wall-clock bound; a panic on that thread drops the
//! channel sender, which also fails the test.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use typeclasses::{
    check_source, lint_source, run_checked, run_source, Budget, EvalError, Options, Outcome,
};

const WALL_CLOCK: Duration = Duration::from_secs(20);

fn bounded_with(src: String, opts: Options) -> Outcome {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let r = run_source(&src, &opts);
        let _ = tx.send(r.outcome);
    });
    rx.recv_timeout(WALL_CLOCK)
        .expect("pipeline exceeded the wall-clock bound or panicked")
}

fn bounded(src: &str) -> Outcome {
    bounded_with(src.to_string(), Options::default())
}

fn small(src: &str) -> Outcome {
    bounded_with(
        src.to_string(),
        Options::default().with_budget(Budget::small()),
    )
}

#[test]
fn junk_bytes() {
    assert!(matches!(
        bounded("@#%^&?!~ \u{0}\u{7}"),
        Outcome::CompileErrors
    ));
}

#[test]
fn unterminated_everything() {
    assert!(matches!(
        bounded("class Eq2 a where { eq2 :: a ->"),
        Outcome::CompileErrors
    ));
}

#[test]
fn deeply_nested_parens_hit_parser_depth_budget() {
    let depth = 10_000;
    let src = format!("main = {}1{};", "(".repeat(depth), ")".repeat(depth));
    assert!(matches!(
        bounded_with(src, Options::default()),
        Outcome::CompileErrors
    ));
}

#[test]
fn deeply_nested_lambdas_hit_parser_depth_budget() {
    let src = format!("main = {}1;", "\\x -> ".repeat(5_000));
    assert!(matches!(
        bounded_with(src, Options::default()),
        Outcome::CompileErrors
    ));
}

#[test]
fn semicolon_flood() {
    let src = ";".repeat(10_000);
    let out = bounded_with(src, Options::default());
    assert!(
        matches!(out, Outcome::CompileErrors | Outcome::NoMain),
        "{out:?}"
    );
}

#[test]
fn thousands_of_chained_bindings_compile_and_run() {
    // A 3000-binding dependency chain: dependency analysis and
    // elaboration are iterative, so compilation terminates; evaluating
    // the chain head stays shallow.
    let mut src = String::from("a0 = 1;\n");
    for i in 1..3_000 {
        src.push_str(&format!("a{i} = a{};\n", i - 1));
    }
    src.push_str("main = a0;\n");
    let out = bounded_with(src, Options::default());
    assert!(matches!(out, Outcome::Value(ref v) if v == "1"), "{out:?}");
}

#[test]
fn thousands_of_independent_recursive_bindings_compile_and_run() {
    // 6,400 one-line recursive functions share one program-wide
    // substitution. Finishing inside the bound needs elaboration linear
    // in the number of bindings, so a bind must never revisit the
    // bindings already made.
    let mut src = String::new();
    for i in 0..6_400 {
        src.push_str(&format!(
            "f{i} x = if primLeInt x 0 then 0 else f{i} (primSubInt x 1);\n"
        ));
    }
    src.push_str("main = f0 3;\n");
    let out = bounded_with(src, Options::default());
    assert!(matches!(out, Outcome::Value(ref v) if v == "0"), "{out:?}");
}

#[test]
fn exponential_type_family_is_rejected_as_too_large() {
    // `f_i` applies `f_{i-1}` to its own result, so the factor by which
    // `f_i`'s type outgrows its argument squares at every level. Its
    // store nodes grow by a handful per level, but generalization
    // refuses a type of more tree nodes than a scheme may show: a "types
    // too large" diagnostic (E0403) instead of a hang or an
    // out-of-memory abort.
    let mut src = String::from("f0 y = \\k -> k y y;\n");
    for i in 1..40 {
        src.push_str(&format!("f{i} y = f{} (f{} y);\n", i - 1, i - 1));
    }
    src.push_str("main = 1;\n");
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let r = run_source(&src, &Options::default());
        let codes: Vec<&'static str> = r.check.diags.iter().map(|d| d.code).collect();
        let _ = tx.send((codes, matches!(r.outcome, Outcome::CompileErrors)));
    });
    let (codes, compile_errors) = rx
        .recv_timeout(WALL_CLOCK)
        .expect("pipeline exceeded the wall-clock bound or panicked");
    assert!(compile_errors, "{codes:?}");
    assert!(codes.contains(&"E0403"), "expected E0403 among {codes:?}");
}

#[test]
fn node_cap_is_charged_per_binding_group() {
    // `f3`'s type is large as a tree but small in the type store; 170
    // bindings that each instantiate it once add up to far more tree
    // nodes than one scheme may show. Nothing is charged by tree, so the
    // program compiles and runs instead of failing with spurious E0403s
    // on the late copies.
    let mut src = String::from("f0 y = \\k -> k y y;\n");
    for i in 1..=3 {
        src.push_str(&format!("f{i} y = f{} (f{} y);\n", i - 1, i - 1));
    }
    for j in 0..170 {
        src.push_str(&format!("g{j} y = f3 y;\n"));
    }
    src.push_str("main = 1;\n");
    let out = bounded_with(src, Options::default());
    assert!(matches!(out, Outcome::Value(ref v) if v == "1"), "{out:?}");
}

/// `prefix`, a 390-field constructor `h`, and `copies` bindings that
/// each instantiate `h` eight times: about 3,200 type-store nodes
/// apiece, every group's types stay in the request's store, and the
/// copies together reach its cap.
fn store_ceiling_program(prefix: &str, copies: usize) -> String {
    let mut src = format!(
        "{prefix}data P a = P {};\nh = P;\n",
        vec!["a"; 390].join(" ")
    );
    let list = (0..8).fold("nil".to_string(), |l, _| format!("cons h ({l})"));
    for j in 0..copies {
        src.push_str(&format!("g{j} = {list};\n"));
    }
    src
}

/// Run `src` within the wall-clock bound: its outcome, the source line
/// of each `E0403` in the order reported, and the errors reported.
fn e0403_lines(src: String) -> (Outcome, Vec<String>, usize) {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let r = run_source(&src, &Options::default());
        let check = &r.check;
        let lines = check.diags.iter().filter(|d| d.code == "E0403").map(|d| {
            let start = check.full_source[..d.span.start as usize]
                .rfind('\n')
                .map_or(0, |i| i + 1);
            let line = check.full_source[start..].lines().next().unwrap_or("");
            line.to_string()
        });
        let _ = tx.send((r.outcome, lines.collect(), check.diags.error_count()));
    });
    rx.recv_timeout(WALL_CLOCK)
        .expect("pipeline exceeded the wall-clock bound or panicked")
}

/// The `j` of the first `g{j}` line an `E0403` is reported on.
fn first_failing_copy(lines: &[String]) -> usize {
    let first = lines.first().expect("the ceiling was never reached");
    let digits: String = first[1..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("an E0403 on a `g{j}` line")
}

#[test]
fn node_ceiling_bounds_a_program_of_many_groups() {
    // The store's cap stops the copies of `store_ceiling_program`, so
    // the nodes one request can store do not grow with its length: the
    // first copy to fail is the same for 400 and 1,600 copies, every
    // copy after it fails too, and the failing copies stop adding to
    // the store.
    let first_failing = |copies: usize| -> (usize, usize) {
        let src = store_ceiling_program("", copies) + "main = 1;\n";
        let (_, lines, errors) = e0403_lines(src);
        (first_failing_copy(&lines), errors)
    };
    let (short, short_errors) = first_failing(400);
    let (long, long_errors) = first_failing(1_600);
    assert_eq!(short, long, "the ceiling moved with the program's length");
    assert!(short > 200, "the store admits 200 copies");
    assert!(short_errors >= 400 - short, "{short_errors} errors");
    assert!(long_errors >= 1_600 - long, "{long_errors} errors");
}

#[test]
fn an_instance_method_past_the_store_cap_reports_e0403() {
    // `main` comes first and the instance's method is elaborated after
    // every binding group. With only the copies that all pass, no group
    // unifies past the store's cap; the store crosses it after the
    // last copy's last unification, at the latest while the instance's
    // 2,000-variable head is skolemized (about 8,000 nodes, more than
    // one copy adds). The method's scheme then gets no instance at its
    // use, and that must be an error, not a method that fails when run.
    let vars: Vec<String> = (0..2_000).map(|i| format!("a{i}")).collect();
    let vars = vars.join(" ");
    let prefix = format!(
        "main = 1;\nclass C a where {{ c :: a -> Int; }};\ndata T {vars} = MkT;\n\
         instance C (T {vars}) where {{ c = \\x -> 0; }};\n"
    );
    let (_, lines, _) = e0403_lines(store_ceiling_program(&prefix, 400));
    let passing = first_failing_copy(&lines);
    let (outcome, lines, _) = e0403_lines(store_ceiling_program(&prefix, passing));
    assert!(matches!(outcome, Outcome::CompileErrors), "{outcome:?}");
    assert!(
        lines.iter().any(|l| l.starts_with("instance C")),
        "no E0403 at the instance: {lines:?}"
    );
}

#[test]
fn bindings_of_large_tree_types_are_charged_by_store_nodes() {
    // `d14`'s type has about 196,600 nodes as a tree and fewer than a
    // hundred in the type store. 10,000 bindings that each instantiate
    // it compile: nothing charges a type by its tree unless it is shown.
    let mut src = String::from("d0 y = \\k -> k y y;\n");
    for i in 1..15 {
        src.push_str(&format!("d{i} y = d0 (d{} y);\n", i - 1));
    }
    for j in 0..10_000 {
        src.push_str(&format!("g{j} = d14;\n"));
    }
    src.push_str("main = 1;\n");
    let out = bounded_with(src, Options::default());
    assert!(matches!(out, Outcome::Value(ref v) if v == "1"), "{out:?}");
}

#[test]
fn forcing_a_deep_global_chain_is_depth_limited() {
    // Forcing the chain END nests one evaluation level per link; the
    // depth budget turns that into a structured error.
    let mut src = String::from("a0 = 1;\n");
    for i in 1..3_000 {
        src.push_str(&format!("a{i} = a{};\n", i - 1));
    }
    src.push_str("main = a2999;\n");
    let out = bounded_with(src, Options::default());
    assert!(
        matches!(out, Outcome::Eval(EvalError::DepthExceeded(_))),
        "{out:?}"
    );
}

#[test]
fn growing_instance_goal_exhausts_reduce_budget() {
    // Resolving C (List a) requires C (List (List a)), forever.
    let out = bounded(
        "class C a where { m :: a -> Int; };\n\
         instance C (List (List a)) => C (List a) where {\n\
           m = \\x -> 0;\n\
         };\n\
         main = m (cons 1 nil);",
    );
    assert!(matches!(out, Outcome::CompileErrors), "{out:?}");
}

#[test]
fn overlapping_instance_with_prelude() {
    let out = bounded(
        "instance Eq Int where { eq = primEqInt; neq = primEqInt; };\n\
         main = eq 1 1;",
    );
    assert!(matches!(out, Outcome::CompileErrors), "{out:?}");
}

#[test]
fn superclass_cycle() {
    let out = bounded(
        "class B a => A a where { fa :: a -> a; };\n\
         class A a => B a where { fb :: a -> a; };\n\
         main = 1;",
    );
    assert!(matches!(out, Outcome::CompileErrors), "{out:?}");
}

#[test]
fn method_with_no_instance() {
    let out = bounded("main = eq (\\x -> x) (\\y -> y);");
    assert!(matches!(out, Outcome::CompileErrors), "{out:?}");
}

#[test]
fn ambiguous_constraint() {
    let out = bounded("amb = eq nil nil;\nmain = 1;");
    assert!(matches!(out, Outcome::CompileErrors), "{out:?}");
}

#[test]
fn main_with_class_context_rejected() {
    let out = bounded("main x = eq x x;");
    assert!(matches!(out, Outcome::CompileErrors), "{out:?}");
}

#[test]
fn duplicate_bindings_rejected() {
    let out = bounded("main = 1;\nmain = 2;");
    assert!(matches!(out, Outcome::CompileErrors), "{out:?}");
}

#[test]
fn infinite_loop_is_budgeted() {
    let out = small("loop x = loop x;\nmain = loop 1;");
    assert!(
        matches!(
            out,
            Outcome::Eval(EvalError::FuelExhausted(_) | EvalError::DepthExceeded(_))
        ),
        "{out:?}"
    );
}

#[test]
fn rendering_infinite_list_exhausts_fuel() {
    let out = small("from n = cons n (from (add n 1));\nmain = from 0;");
    assert!(
        matches!(out, Outcome::Eval(EvalError::FuelExhausted(_))),
        "{out:?}"
    );
}

#[test]
fn allocation_bomb_is_budgeted() {
    let out = small("main = length (enumFromTo 1 100000000);");
    assert!(
        matches!(
            out,
            Outcome::Eval(
                EvalError::FuelExhausted(_)
                    | EvalError::AllocationLimit(_)
                    | EvalError::DepthExceeded(_)
            )
        ),
        "{out:?}"
    );
}

#[test]
fn allocating_a_global_past_the_budget_is_an_allocation_limit() {
    // The first reference to a global allocates its thunk; running out
    // there is budget exhaustion, not an unbound name.
    let allocs = |max_allocs| {
        Options::default().with_budget(Budget {
            max_allocs,
            ..Budget::default()
        })
    };
    for (src, max_allocs, binding) in [
        ("main = 1;", 0, None),
        ("f x = x;\nmain = f 1;", 1, Some("main")),
    ] {
        match bounded_with(src.to_string(), allocs(max_allocs)) {
            Outcome::Eval(e @ EvalError::AllocationLimit(_)) => {
                let snap = e.budget().expect("budget snapshot");
                assert_eq!(snap.binding.as_deref(), binding, "{src}: {snap:?}");
                assert_eq!(snap.allocs_left, 0, "{src}: {snap:?}");
            }
            other => panic!("{src}: expected allocation-limit, got {other:?}"),
        }
    }
}

#[test]
fn deep_guest_recursion_is_depth_limited() {
    let out = bounded("main = sum (enumFromTo 1 1000000);");
    assert!(
        matches!(
            out,
            Outcome::Eval(EvalError::DepthExceeded(_) | EvalError::FuelExhausted(_))
        ),
        "{out:?}"
    );
}

#[test]
fn deep_evaluation_needs_no_native_stack() {
    // With a depth budget far past what native recursion could hold,
    // forcing a deep sum and printing a deeply nested value both run
    // on a 256 KiB stack: the evaluator keeps its depth on the heap.
    // Compilation happens first, on a normal thread.
    let opts = Options::default().with_budget(Budget {
        fuel: 10_000_000,
        max_depth: 1_000_000,
        ..Budget::default()
    });
    let levels = 50_000;
    let nested = format!("{}Z{}", "(S ".repeat(levels), ")".repeat(levels));
    for (src, want) in [
        ("main = sum (enumFromTo 1 10000);".to_string(), "50005000".to_string()),
        (
            format!(
                "data N = Z | S N;\nmk n = if lte n 0 then Z else S (mk (sub n 1));\nmain = mk {levels};"
            ),
            nested,
        ),
    ] {
        let check = check_source(&src, &opts);
        assert!(check.ok(), "{}", check.render_diagnostics());
        let opts = opts.clone();
        let out = thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || run_checked(check, &opts).outcome)
            .expect("spawn")
            .join()
            .expect("evaluation overflowed the small stack");
        match out {
            Outcome::Value(v) => assert!(v == want, "{src}: {}...", &v[..v.len().min(80)]),
            other => panic!("{src}: {other:?}"),
        }
    }
}

#[test]
fn self_referential_value_is_a_blackhole() {
    let out = bounded("x = x;\nmain = x;");
    assert!(
        matches!(out, Outcome::Eval(EvalError::BlackHole)),
        "{out:?}"
    );
}

#[test]
fn head_of_empty_list_is_structured() {
    let out = bounded("main = head (filter (\\x -> lt x 0) (enumFromTo 1 3));");
    assert!(
        matches!(out, Outcome::Eval(EvalError::EmptyList(_))),
        "{out:?}"
    );
}

#[test]
fn error_builtin_is_a_failure_value() {
    let out = bounded("main = error;");
    assert!(
        matches!(out, Outcome::Eval(EvalError::Failure(_))),
        "{out:?}"
    );
}

#[test]
fn division_by_zero_is_structured() {
    let out = bounded("main = primDivInt 1 0;");
    assert!(
        matches!(out, Outcome::Eval(EvalError::DivideByZero)),
        "{out:?}"
    );
}

#[test]
fn integer_overflow_is_structured() {
    let out = bounded("main = mul 4611686018427387904 4;");
    assert!(
        matches!(out, Outcome::Eval(EvalError::IntOverflow)),
        "{out:?}"
    );
}

#[test]
fn parse_type_and_eval_errors_all_reported_together() {
    // One program with a parse error, a type error, and a binding that
    // would fail at runtime: compilation reports the first two and
    // never panics.
    let src = "broken = ) 1;\nmismatch = eq 1 True;\nmain = head nil;";
    let (tx, rx) = mpsc::channel();
    let owned = src.to_string();
    thread::spawn(move || {
        let r = run_source(&owned, &Options::default());
        let _ = tx.send((
            r.check.diags.error_count(),
            r.check.render_diagnostics(),
            matches!(r.outcome, Outcome::CompileErrors),
        ));
    });
    let (errors, rendered, compile_errors) = rx
        .recv_timeout(WALL_CLOCK)
        .expect("pipeline exceeded the wall-clock bound or panicked");
    assert!(compile_errors);
    assert!(errors >= 2, "expected multiple diagnostics:\n{rendered}");
}

#[test]
fn every_prefix_of_a_good_program_is_handled_structurally() {
    // The "chop test": truncating a known-good program at every byte
    // boundary produces either a clean compile or diagnostics — never
    // a panic, never a hang. This sweeps the parser's error recovery
    // across every possible point of mid-token, mid-declaration, and
    // mid-expression truncation. Checking is cheap, so the whole
    // sweep runs on one helper thread under one wall-clock bound.
    let src = "same x y = eq x y;\n\
               small x y = if lt x y then x else y;\n\
               main = and (same (cons 1 nil) (cons 1 nil))\n\
                          (eq (small 3 4) 3);\n";
    let (tx, rx) = mpsc::channel();
    let owned = src.to_string();
    thread::spawn(move || {
        let mut checked = 0u32;
        for end in 0..=owned.len() {
            if !owned.is_char_boundary(end) {
                continue;
            }
            let prefix = &owned[..end];
            let c = typeclasses::check_source(prefix, &Options::default());
            // A prefix either compiles clean (e.g. whole declarations
            // survive the chop) or reports diagnostics; rendering must
            // also hold together at every truncation point.
            if !c.ok() {
                assert!(
                    c.diags.error_count() > 0,
                    "not ok but no errors at prefix {end}"
                );
            }
            let rendered = c.render_diagnostics();
            assert!(
                c.ok() || !rendered.is_empty(),
                "unrenderable diagnostics at prefix {end}"
            );
            checked += 1;
        }
        let _ = tx.send(checked);
    });
    let checked = rx
        .recv_timeout(WALL_CLOCK)
        .expect("chop sweep exceeded the wall-clock bound or panicked");
    assert!(
        checked > 100,
        "expected to sweep every prefix, got {checked}"
    );
}

#[test]
fn every_prefix_of_a_data_program_is_handled_structurally() {
    // The chop test over the data-type surface: `data` declarations
    // with parameters and `deriving`, constructor applications, and
    // `case` with constructor, wildcard-binder, and default arms.
    // Every byte-boundary truncation must compile clean or report
    // structured diagnostics — never panic, never hang.
    let src = "data Color = Red | Green | Blue deriving (Eq, Ord);\n\
               data Pair a b = MkPair a b deriving (Eq);\n\
               data Nat = Z | S Nat deriving (Eq, Ord);\n\
               classify c = case c of { Red -> 0; Green -> 1; _ -> 2 };\n\
               fstOf p = case p of { MkPair x _ -> x };\n\
               toInt n = case n of { Z -> 0; S m -> add 1 (toInt m) };\n\
               main = and (eq (MkPair Red (S Z)) (MkPair Red (S Z)))\n\
                          (lte (classify Green) (toInt (S (S Z))));\n";
    let (tx, rx) = mpsc::channel();
    let owned = src.to_string();
    thread::spawn(move || {
        let mut checked = 0u32;
        for end in 0..=owned.len() {
            if !owned.is_char_boundary(end) {
                continue;
            }
            let prefix = &owned[..end];
            let c = typeclasses::check_source(prefix, &Options::default());
            if !c.ok() {
                assert!(
                    c.diags.error_count() > 0,
                    "not ok but no errors at prefix {end}"
                );
            }
            let rendered = c.render_diagnostics();
            assert!(
                c.ok() || !rendered.is_empty(),
                "unrenderable diagnostics at prefix {end}"
            );
            checked += 1;
        }
        let _ = tx.send(checked);
    });
    let checked = rx
        .recv_timeout(WALL_CLOCK)
        .expect("data chop sweep exceeded the wall-clock bound or panicked");
    assert!(
        checked > 100,
        "expected to sweep every prefix, got {checked}"
    );
    // The untruncated program itself runs to a value.
    let out = bounded(src);
    assert!(
        matches!(out, Outcome::Value(ref v) if v == "True"),
        "{out:?}"
    );
}

#[test]
fn runtime_match_failure_is_structured() {
    // The lint warns about the missing arm, but warnings don't stop
    // evaluation: the uncovered constructor becomes a structured
    // match-failure, never a panic.
    let out = bounded("data T = A | B;\nf x = case x of { A -> 1 };\nmain = f B;");
    assert!(
        matches!(out, Outcome::Eval(EvalError::MatchFailure)),
        "{out:?}"
    );
}

#[test]
fn a_large_let_is_linear_in_every_pass() {
    // A 64,000-binding `let` chain. Every reference inside it used to
    // scan the binders in scope, in inference, dependency analysis and
    // the evaluator's lowering, and `L0004` re-walked the group once
    // per binding; each now looks names up in an index. Then a
    // 16,000-binding chain whose every binding unifies the parameter's
    // type with a fresh variable: a bind that rewrote every binding
    // mentioning the old variable would make it quadratic.
    let mut big = String::from("main = let { x0 = 0");
    for i in 1..64_000 {
        big.push_str(&format!("; x{i} = primAddInt x{} 1", i - 1));
    }
    big.push_str(" } in 0;\n");
    let mut chain = String::from("f y = let { x0 = y;");
    for i in 1..16_000 {
        chain.push_str(&format!(" x{i} = add x{} y;", i - 1));
    }
    chain.push_str(" } in x15999;\nmain = 1;\n");
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let out: Vec<_> = [big, chain]
            .iter()
            .map(|src| {
                let check = lint_source(src, &Options::default());
                let warnings: Vec<&str> = check.diags.iter().map(|d| d.code).collect();
                let run = run_source(src, &Options::default());
                (check.ok(), warnings, run.outcome)
            })
            .collect();
        let _ = tx.send(out);
    });
    let out = rx
        .recv_timeout(WALL_CLOCK)
        .expect("pipeline exceeded the wall-clock bound or panicked");
    // Only the first's last binding goes unused.
    let want: [(&[&str], &str); 2] = [(&["L0004"], "0"), (&[], "1")];
    for ((ok, warnings, outcome), (codes, value)) in out.into_iter().zip(want) {
        assert!(ok, "{warnings:?}");
        assert_eq!(warnings, codes);
        assert!(
            matches!(outcome, Outcome::Value(ref v) if v == value),
            "{outcome:?}"
        );
    }
}

#[test]
fn a_goal_repeated_in_one_group_is_reduced_once() {
    // A 16,000-binding `let` chain through the overloaded `add`: the
    // group's context holds the same `Num Int` goal once per use, more
    // copies than context reduction's step budget. Each distinct goal
    // is reduced once, so the program compiles instead of failing with
    // E0421.
    let mut src = String::from("main = let { x0 = 1;");
    for i in 1..16_000 {
        src.push_str(&format!(" x{i} = add x{} 1;", i - 1));
    }
    src.push_str(" } in x15999;\n");
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let check = check_source(&src, &Options::default());
        let codes: Vec<&str> = check.diags.iter().map(|d| d.code).collect();
        let _ = tx.send((check.ok(), codes));
    });
    let (ok, codes) = rx
        .recv_timeout(WALL_CLOCK)
        .expect("pipeline exceeded the wall-clock bound or panicked");
    assert!(ok, "{codes:?}");
    assert!(codes.is_empty(), "{codes:?}");
}

#[test]
fn a_repeated_branching_goal_stays_within_the_reduction_budget() {
    // Both instance contexts branch, so `C (W^k t)` costs 2^(k+1) - 1
    // reduction steps and leaves 2^k head-normal goals; over `Int`,
    // which has neither class, it leaves 2^k errors instead. A repeat
    // of the goal in the same group keeps those goals once and pays a
    // step for each error it reports again, so context reduction
    // reports at most the 10,000-step budget plus the budget error,
    // and dictionary conversion one more error per use.
    fn program(depth: usize, uses: usize, arg: &str) -> String {
        let mut src = String::from(
            "class C a where { c :: a -> Int; };\n\
             class D a where { d :: a -> Int; };\n\
             data W a = W a;\n\
             instance (C a, D a) => C (W a) where { c = \\x -> 0; };\n\
             instance (C a, D a) => D (W a) where { d = \\x -> 0; };\n",
        );
        let wrapped = format!("{}y{}", "W (".repeat(depth), ")".repeat(depth));
        src.push_str(&format!("w y = {wrapped};\nf y = let {{ x0 = 0;"));
        for i in 1..=uses {
            src.push_str(&format!(" x{i} = add x{} (c (w {arg}));", i - 1));
        }
        src.push_str(&format!(" }} in x{uses};\nmain = 1;\n"));
        src
    }
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        // 200 uses of 256 head-normal goals each: one reduction.
        let check = check_source(&program(8, 200, "y"), &Options::default());
        let codes: Vec<&str> = check.diags.iter().map(|d| d.code).collect();
        let over_var = (check.ok(), codes);
        // 50 uses of 4,096 errors each.
        let check = check_source(&program(12, 50, "1"), &Options::default());
        let _ = tx.send((over_var, check.diags.error_count()));
    });
    let ((ok, codes), errors) = rx
        .recv_timeout(WALL_CLOCK)
        .expect("pipeline exceeded the wall-clock bound or panicked");
    assert!(ok, "{codes:?}");
    assert!((4_096..=10_001 + 50).contains(&errors), "{errors} errors");
}

#[test]
fn an_expired_deadline_stops_elaboration_between_groups() {
    // 1,000 bindings, each its own group and each ill-typed. With the
    // token already tripped, elaboration stops before the next group,
    // so at most one group is elaborated and no later binding reports.
    use typeclasses::classes::build_class_env;
    use typeclasses::core_elab::{elaborate_with, ElabOptions};
    use typeclasses::syntax::{lex, parse_program};
    use typeclasses::types::VarGen;
    use typeclasses::CancelToken;

    let mut src = String::new();
    for i in 0..1_000 {
        src.push_str(&format!("b{i} = primAddInt True {i};\n"));
    }
    src.push_str("class C a where { c :: a -> a; };\ninstance C Int where { c = \\x -> primAddInt x True; };\n");
    let (toks, _) = lex(&src);
    let (prog, _) = parse_program(&toks, Default::default());
    let mut gen = VarGen::new();
    let (cenv, _) = build_class_env(&prog, &mut gen);

    // Uncancelled, every group reports (up to the diagnostic cap).
    let (elab, diags) = elaborate_with(&prog, &cenv, &mut gen, ElabOptions::default());
    assert!(diags.iter().filter(|d| d.code == "E0401").count() > 100);

    let token = CancelToken::new();
    token.cancel();
    let opts = ElabOptions {
        cancel: Some(token),
        ..ElabOptions::default()
    };
    let mut gen = VarGen::new();
    let (cenv, _) = build_class_env(&prog, &mut gen);
    let (cut, diags) = elaborate_with(&prog, &cenv, &mut gen, opts);
    assert!(
        cut.core.binds.len() <= 1,
        "{} bindings",
        cut.core.binds.len()
    );
    assert!(diags.len() <= 1, "{diags:?}");
    assert!(elab.core.binds.len() > 1_000);
}
