//! The exact work, pinned. Work counters are deterministic where
//! wall-clock time is not, so a change to how the compiler resolves,
//! unifies, converts or shares, or to how the evaluator steps,
//! allocates or forces, shows up here as a diff.
//!
//! Two gates:
//!
//! * **The snapshot** (`tests/golden/eval_work.txt`). For every input
//!   program, one line: the compile-side counters ([`compile_work`]:
//!   resolver goals, memo hits and misses, dictionaries constructed,
//!   resolver steps, the sharing pass's counters, core nodes, the type
//!   store's interning and rebuilding walks, the links the substitution
//!   followed, and the coherence checker's counts), then the evaluator's
//!   fuel, peak allocations, thunks and forces, and what the run printed
//!   (a value, an error code, or no evaluation at all). Inputs: the
//!   shipped examples, the first 40 `eval_run` and 40 `small_run`
//!   requests of `perfbench` at seed 1, and the `main`s of its first 40
//!   `module_check` modules (run instead of checked; an injected type
//!   error shows as `compile-errors`). Then the examples' compile-side
//!   counters with the memo table and sharing off; raw resolution, each
//!   goal resolved 100 times with the memo table on and off: `Eq
//!   (List^8 Int)`, the same tower through a derived instance, and `K
//!   Int` over 8 superclasses; and the coherence checker over 6 classes
//!   of 8 disjoint instances each. Any drift fails.
//! * **The ratio gate.** For each input axis, a program at size `n` and
//!   at `4n`: every compile-side counter must grow by at most 4.5×, so
//!   a pass that turns quadratic fails whatever the machine's speed.
//!   One axis is superlinear today and is measured, not gated.
//!
//! Bless the snapshot with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test eval_work
//! ```
//!
//! and say in the change's notes which counters moved and why.

#[allow(dead_code)]
#[path = "../perfbench/src/gen.rs"]
mod gen;

use std::fmt::Write as _;
use typeclasses::classes::{build_class_env, ClassEnv, ReduceBudget, ResolveCache, ResolveStats};
use typeclasses::coherence::{check_coherence, CoherenceConfig, CoherenceInput};
use typeclasses::syntax::Span;
use typeclasses::types::{Interner, Pred, Type, VarGen};
use typeclasses::{check_source, run_checked, Check, CounterId, MetricsRegistry, Options, Outcome};

const GOLDEN: &str = "tests/golden/eval_work.txt";

/// How often each raw resolution goal is resolved.
const RESOLUTIONS: usize = 100;

/// The largest ratio a counter may grow by from `n` to `4n`.
const MAX_RATIO: f64 = 4.5;

fn options() -> Options {
    Options {
        collect_metrics: true,
        ..Options::default()
    }
}

/// The compile-side counters of one compiled program, in snapshot
/// order. Core nodes count the prelude's too.
fn compile_work(c: &Check) -> Vec<(&'static str, u64)> {
    let (r, s, m) = (&c.stats.resolve, &c.stats.share, &c.stats.metrics);
    let mut work = vec![
        ("goals", r.goals),
        ("hits", r.table_hits),
        ("misses", r.table_misses),
        ("dicts", r.dicts_constructed),
        ("steps", r.steps),
        ("sites_before", s.constructions_before),
        ("sites_after", s.constructions_after),
        ("shared", s.occurrences_shared),
        ("hoisted", s.hoisted_bindings),
        ("core_nodes", c.elab.core.node_count()),
    ];
    work.extend(
        [
            CounterId::InternHits,
            CounterId::InternFresh,
            CounterId::InternMapVisits,
            CounterId::SubstLinks,
            CounterId::CoherenceInstancesChecked,
            CounterId::CoherencePairsUnified,
        ]
        .map(|id| (id.name(), m.counter(id))),
    );
    work
}

fn write_work(out: &mut String, work: &[(&str, u64)]) {
    for (name, value) in work {
        let _ = write!(out, " {name}={value}");
    }
}

fn examples() -> Vec<(String, String)> {
    let mut paths: Vec<_> = std::fs::read_dir("examples")
        .expect("examples directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mh"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("example source");
            (format!("{}", p.display()), src)
        })
        .collect()
}

fn inputs() -> Vec<(String, String)> {
    let mut out = examples();
    for (workload, count) in [
        (gen::Workload::EvalRun, 40),
        (gen::Workload::SmallRun, 40),
        (gen::Workload::ModuleCheck, 40),
    ] {
        for (i, r) in gen::requests(workload, 1, "main", count)
            .into_iter()
            .enumerate()
        {
            out.push((format!("{}#{i}", workload.name()), r.program));
        }
    }
    out
}

/// A class env built from class, instance and data declarations alone.
fn env_from_source(src: &str) -> ClassEnv {
    let (toks, diags) = typeclasses::syntax::lex(src);
    assert!(!diags.has_errors(), "{}", diags.render_all(src));
    let (prog, pd) = typeclasses::syntax::parse_program(&toks, Default::default());
    assert!(!pd.has_errors(), "{}", pd.render_all(src));
    let (cenv, cd) = build_class_env(&prog, &mut VarGen::new());
    assert!(!cd.has_errors(), "{}", cd.render_all(src));
    cenv
}

/// `con` applied `depth` times around `Int`.
fn tower(con: &str, depth: usize) -> Type {
    (0..depth).fold(Type::int(), |t, _| {
        Type::App(Box::new(Type::Con(con.into())), Box::new(t))
    })
}

const TOWER_SRC: &str = "\
    class Eq a where { eq :: a -> a -> Bool; };\n\
    instance Eq Int where { eq = primEqInt; };\n\
    instance Eq a => Eq (List a) where { eq = \\x y -> True; };\n";

/// The tower's instance comes from `deriving (Eq)` on `Wrap`.
const DERIVED_TOWER_SRC: &str = "\
    class Eq a where { eq :: a -> a -> Bool; neq :: a -> a -> Bool; };\n\
    instance Eq Int where { eq = primEqInt; neq = \\x y -> False; };\n\
    data Wrap a = Wrap a deriving (Eq);\n";

/// `width` sibling superclasses under one class, all instanced at Int.
fn wide_super_source(width: usize) -> String {
    let mut src = String::new();
    for i in 0..width {
        let _ = writeln!(src, "class S{i} a where {{ s{i} :: a -> Bool; }};");
        let _ = writeln!(src, "instance S{i} Int where {{ s{i} = \\x -> True; }};");
    }
    let supers: Vec<String> = (0..width).map(|i| format!("S{i} a")).collect();
    let _ = writeln!(
        src,
        "class ({}) => K a where {{ k :: a -> Bool; }};",
        supers.join(", ")
    );
    let _ = writeln!(src, "instance K Int where {{ k = \\x -> True; }};");
    src
}

/// `classes` classes, each instanced at every `List^d Int` and
/// `List^d Bool` for `d < depths`: disjoint heads, so the check is all
/// work and no findings.
fn coherence_source(classes: usize, depths: usize) -> String {
    let mut src = String::new();
    for c in 0..classes {
        let _ = writeln!(src, "class C{c} a where {{ m{c} :: a -> Bool; }};");
        for d in 0..depths {
            for base in ["Int", "Bool"] {
                let ty = (0..d).fold(base.to_string(), |t, _| format!("(List {t})"));
                let _ = writeln!(src, "instance C{c} {ty} where {{ m{c} = \\x -> True; }};");
            }
        }
    }
    src
}

/// Resolve `pred` [`RESOLUTIONS`] times in one session, with the memo
/// table on or off, and append the session's line.
fn resolve_line(
    out: &mut String,
    name: &str,
    cenv: &ClassEnv,
    pred: &Pred,
    memo: bool,
) -> ResolveStats {
    let mut cache = if memo {
        ResolveCache::new()
    } else {
        ResolveCache::disabled()
    };
    let mut types = Interner::new();
    for _ in 0..RESOLUTIONS {
        cenv.resolve_tree(pred, &[], ReduceBudget::default(), &mut cache, &mut types)
            .unwrap_or_else(|e| panic!("{name}: resolution failed: {e}"));
    }
    let (s, i) = (cache.stats, types.stats());
    let _ = writeln!(
        out,
        "resolve:{name} memo={} x{RESOLUTIONS} goals={} hits={} misses={} dicts={} steps={} \
         intern.hits={} intern.fresh={} intern.map_visits={}",
        if memo { "on" } else { "off" },
        s.goals,
        s.table_hits,
        s.table_misses,
        s.dicts_constructed,
        s.steps,
        i.hits,
        i.fresh,
        i.map_visits,
    );
    s
}

fn snapshot() -> String {
    let opts = options();
    let mut out = String::new();
    for (label, src) in inputs() {
        let check = check_source(&src, &opts);
        let _ = write!(out, "{label}");
        write_work(&mut out, &compile_work(&check));
        let r = run_checked(check, &opts);
        if let Some(s) = r.check.stats.eval {
            let _ = write!(
                out,
                " fuel={} peak_allocs={} thunks={} forces={}",
                s.fuel_used, s.peak_allocs, s.thunks_created, s.forces
            );
        }
        let _ = match &r.outcome {
            Outcome::Value(v) => writeln!(out, " => value {v}"),
            Outcome::Eval(e) => writeln!(out, " => error {}", e.code()),
            Outcome::CompileErrors => writeln!(out, " => compile-errors"),
            Outcome::NoMain => writeln!(out, " => no-main"),
        };
    }

    // The examples again, compiled with the memo table and sharing off.
    let unoptimized = Options {
        collect_metrics: true,
        ..Options::unoptimized()
    };
    for (label, src) in examples() {
        let _ = write!(out, "{label} unoptimized");
        write_work(&mut out, &compile_work(&check_source(&src, &unoptimized)));
        out.push('\n');
    }

    let sp = Span::DUMMY;
    let towers = [
        ("eq_list8_int", TOWER_SRC.to_string(), tower("List", 8)),
        (
            "derived_eq_wrap8_int",
            DERIVED_TOWER_SRC.to_string(),
            tower("Wrap", 8),
        ),
    ];
    for (name, src, ty) in towers {
        let cenv = env_from_source(&src);
        let pred = Pred::new("Eq", ty, sp);
        let on = resolve_line(&mut out, name, &cenv, &pred, true);
        let off = resolve_line(&mut out, name, &cenv, &pred, false);
        // The memo table's headline: a repeated tower is a lookup.
        assert!(
            on.hit_rate() >= 0.90,
            "{name}: hit rate {:.4}",
            on.hit_rate()
        );
        assert!(
            off.dicts_constructed >= 2 * on.dicts_constructed,
            "{name}: {} constructions with the memo table, {} without",
            on.dicts_constructed,
            off.dicts_constructed
        );
    }
    let wide = env_from_source(&wide_super_source(8));
    let pred = Pred::new("K", Type::int(), sp);
    for memo in [true, false] {
        resolve_line(&mut out, "k_int_8_supers", &wide, &pred, memo);
    }

    let cenv = env_from_source(&coherence_source(6, 4));
    let mut metrics = MetricsRegistry::new();
    let diags = check_coherence(
        &CoherenceInput {
            cenv: &cenv,
            user_start: 0,
        },
        &CoherenceConfig::default(),
        &mut metrics,
    );
    assert!(
        diags.is_empty(),
        "a disjoint instance world checks clean: {diags:?}"
    );
    let _ = writeln!(
        out,
        "coherence:6_classes_48_instances instances_checked={} pairs_unified={}",
        metrics.counter(CounterId::CoherenceInstancesChecked),
        metrics.counter(CounterId::CoherencePairsUnified),
    );
    out
}

#[test]
fn evaluator_work_matches_the_snapshot() {
    let got = snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("{GOLDEN}: {e}\nrun UPDATE_GOLDEN=1 cargo test --test eval_work to create")
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {GOLDEN} diverged", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN} has a different number of inputs"
    );
}

/// A family of programs indexed by size along one input axis.
struct Axis {
    name: &'static str,
    /// The smaller size; the gate compares it with `4 * n`.
    n: usize,
    program: fn(usize) -> String,
    /// Whether the family compiles without errors.
    compiles: bool,
}

/// `item(0)` to `item(n - 1)`, separated by `sep`.
fn list(n: usize, sep: &str, item: impl Fn(usize) -> String) -> String {
    (0..n).map(item).collect::<Vec<_>>().join(sep)
}

/// Axes whose every counter grows linearly.
const LINEAR: &[Axis] = &[
    Axis {
        name: "top-level bindings",
        n: 100,
        program: |n| {
            let later = list(n - 1, "; ", |i| format!("f{} x = add (f{i} x) {i}", i + 1));
            format!("f0 x = add x 1; {later}; main = f{} 1;", n - 1)
        },
        compiles: true,
    },
    Axis {
        name: "fields per derived constructor",
        n: 100,
        program: |n| {
            format!(
                "data P = P {} deriving (Eq, Ord); main = 1;",
                list(n, " ", |_| "Int".into()),
            )
        },
        compiles: true,
    },
    Axis {
        name: "instances per class, over distinct types",
        n: 100,
        program: |n| {
            let decls = list(n, "; ", |i| {
                format!("data T{i} = T{i}; instance C T{i} where {{ c = \\x -> {i}; }}")
            });
            format!(
                "class C a where {{ c :: a -> Int; }}; {decls}; main = c T{};",
                n - 1
            )
        },
        compiles: true,
    },
    Axis {
        name: "case arms",
        n: 100,
        program: |n| {
            let cons = list(n, " | ", |i| format!("A{i}"));
            let arms = list(n, "; ", |i| format!("A{i} -> {i}"));
            format!(
                "data T = {cons}; f x = case x of {{ {arms}; }}; main = f A{};",
                n - 1
            )
        },
        compiles: true,
    },
    Axis {
        name: "let of independent bindings",
        n: 250,
        program: |n| {
            let binds = list(n, "; ", |i| format!("x{i} = add y {i}"));
            format!("f y = let {{ {binds}; }} in x0; main = f 1;")
        },
        compiles: true,
    },
    Axis {
        name: "uses of one goal in a group",
        n: 100,
        program: |n| {
            let binds = list(n, "; ", |i| format!("u{i} = eq y y"));
            format!("f y = let {{ {binds}; }} in u0; main = f 1;")
        },
        compiles: true,
    },
    Axis {
        name: "program bytes, as one-liners",
        n: 25,
        program: |n| {
            list(n, "; ", |i| {
                format!(
                    "data D{i} = A{i} | B{i} deriving (Eq); v{i} = add {i} 1; \
                     w{i} x = case x of {{ A{i} -> v{i}; B{i} -> 0; }}; u{i} = eq A{i} B{i}"
                )
            }) + ";"
        },
        compiles: true,
    },
    Axis {
        name: "variable-to-variable let chain",
        n: 50,
        program: |n| {
            let later = list(n - 1, "; ", |i| format!("x{} = add x{i} y", i + 1));
            format!(
                "f y = let {{ x0 = y; {later}; }} in x{}; main = f 1;",
                n - 1
            )
        },
        compiles: true,
    },
    Axis {
        name: "well-typed application spine (a constructor applied to n arguments)",
        n: 50,
        program: |n| {
            format!(
                "data P = P {}; p = P {}; main = 1;",
                list(n, " ", |_| "Int".into()),
                list(n, " ", |i| i.to_string())
            )
        },
        compiles: true,
    },
    Axis {
        name: "ill-typed application spine",
        n: 10,
        program: |n| format!("g x = 1; main = g {};", list(n, " ", |_| "1".into())),
        compiles: false,
    },
];

/// Axes known to grow superlinearly: measured at small sizes, reported,
/// and not gated. Each leaves this list for [`LINEAR`] when its fix
/// lands.
const KNOWN_SUPERLINEAR: &[Axis] = &[Axis {
    name: "derived constructors",
    n: 10,
    program: |n| {
        let cons = list(n, " | ", |i| format!("C{i}"));
        format!("data T = {cons} deriving (Eq, Ord); main = lt C0 C1;")
    },
    compiles: true,
}];

/// Each compile-side counter at `n` and at `4n`, less what compiling
/// an empty program counts (the prelude's core nodes, the store's
/// first few types), so a constant share cannot hide growth. Counters
/// that are zero at `n` are left out.
fn ratios(axis: &Axis) -> Vec<(&'static str, u64, u64, f64)> {
    let opts = options();
    let base = compile_work(&check_source("", &opts));
    let at = |n: usize| {
        let c = check_source(&(axis.program)(n), &opts);
        assert_eq!(
            c.ok(),
            axis.compiles,
            "{} at {n}: {}",
            axis.name,
            c.render_diagnostics()
        );
        compile_work(&c)
            .into_iter()
            .zip(&base)
            .map(|((name, v), (_, b))| (name, v.saturating_sub(*b)))
            .collect::<Vec<_>>()
    };
    let (small, big) = (at(axis.n), at(4 * axis.n));
    small
        .into_iter()
        .zip(big)
        .filter(|((_, s), _)| *s > 0)
        .map(|((name, s), (_, b))| (name, s, b, b as f64 / s as f64))
        .collect()
}

/// Print `axis`'s ratios (run with `--nocapture` to see them) and
/// return the rows above [`MAX_RATIO`].
fn report(axis: &Axis) -> Vec<String> {
    let rows = ratios(axis);
    assert!(!rows.is_empty(), "{}: nothing counted", axis.name);
    eprintln!("{} ({} -> {}):", axis.name, axis.n, 4 * axis.n);
    let mut over = Vec::new();
    for (counter, small, big, ratio) in rows {
        let row = format!("{counter} {small} -> {big} ({ratio:.2}x)");
        eprintln!("  {row}");
        if ratio > MAX_RATIO {
            over.push(format!("{}: {row}", axis.name));
        }
    }
    over
}

#[test]
fn compile_work_is_linear_in_every_input_axis() {
    let over: Vec<String> = LINEAR.iter().flat_map(report).collect();
    // Reported with the rest, not gated.
    for axis in KNOWN_SUPERLINEAR {
        report(axis);
    }
    assert!(
        over.is_empty(),
        "work grew by more than {MAX_RATIO}x from n to 4n:\n{}",
        over.join("\n")
    );
}
