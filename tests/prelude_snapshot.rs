//! The prelude snapshot against the splice it replaced.
//!
//! The driver compiles the prelude once per process and each request on
//! top of it. The reference below instead splices the prelude's source
//! in front of the program and runs every crate's whole-program entry
//! point over the combined text, as the compiler did before the
//! snapshot (and as `perfbench`'s replay still does). For every input,
//! in all four memo/share modes, both must agree on the outcome, the
//! rendered diagnostics, each diagnostic's code and byte span (in
//! report order), the whole program's core, and the evaluator counters.
//!
//! Inputs: the shipped examples, the deriving generator's scenarios
//! (derived and handwritten twins), `perfbench`'s three request
//! generators at fixed seeds, and hand-written edge cases. Separate
//! tests pin the outcomes the closed prelude changes on purpose and the
//! budgets, faults and cancellation that now reach only the request's
//! own code, and one checks that a multi-worker serve batch answers
//! every input exactly as one-shot runs do.

#[path = "common/deriving_gen.rs"]
mod deriving_gen;

#[allow(dead_code)]
#[path = "../perfbench/src/gen.rs"]
mod gen;

use typeclasses::classes::build_class_env;
use typeclasses::coherence::{check_coherence, check_laws, CoherenceInput, LawInput, LawOptions};
use typeclasses::core_elab::{elaborate_with, ElabBase, ElabOptions};
use typeclasses::eval::{run_entry_with, EvalOptions, EvalStats};
use typeclasses::lint::{run_lints, LintInput};
use typeclasses::serve::{serve_lines, ServeConfig};
use typeclasses::syntax::{lex, parse_program_with, Diagnostics};
use typeclasses::types::VarGen;
use typeclasses::{
    check_source, lint_source, run_checked, run_source, CancelToken, FaultPlan, JsonWriter,
    MetricsRegistry, Options, Outcome, PRELUDE,
};

/// What one compile-and-run produced, in comparable form.
#[derive(Debug, PartialEq)]
struct Produced {
    outcome: String,
    rendered: String,
    spans: Vec<(&'static str, u32, u32)>,
    core: String,
    eval: Option<EvalStats>,
}

fn spans(diags: &Diagnostics) -> Vec<(&'static str, u32, u32)> {
    diags
        .iter()
        .map(|d| (d.code, d.span.start, d.span.end))
        .collect()
}

/// The driver: `lint_source` (or `check_source`) then `run_checked`.
fn driver(src: &str, opts: &Options, lint: bool) -> Produced {
    let check = if lint {
        lint_source(src, opts)
    } else {
        check_source(src, opts)
    };
    let r = run_checked(check, opts);
    Produced {
        outcome: match &r.outcome {
            Outcome::Value(v) => format!("value {v}"),
            Outcome::CompileErrors => "compile-errors".into(),
            Outcome::NoMain => "no-main".into(),
            Outcome::Eval(e) => format!("eval-error {e}"),
        },
        rendered: r.check.render_diagnostics(),
        spans: spans(&r.check.diags),
        core: r.check.pretty_core(),
        eval: r.check.stats.eval,
    }
}

/// The splice: the prelude's source, a newline, and the program,
/// compiled as one text by each crate's whole-program entry point.
fn reference(src: &str, opts: &Options, lint: bool) -> Produced {
    let (full, user_start) = if opts.use_prelude {
        (format!("{PRELUDE}\n{src}"), PRELUDE.len() + 1)
    } else {
        (src.to_string(), 0)
    };
    let mut metrics = MetricsRegistry::off();
    let (toks, mut diags) = lex(&full);
    let (prog, pd, _) = parse_program_with(&toks, opts.parse.clone());
    diags.extend(pd);
    let mut gen = VarGen::new();
    let (cenv, cd) = build_class_env(&prog, &mut gen);
    diags.extend(cd);
    diags.extend(check_coherence(
        &CoherenceInput {
            cenv: &cenv,
            user_start,
        },
        &opts.coherence_levels,
        &mut metrics,
    ));
    let (mut elab, ed) = elaborate_with(
        &prog,
        &cenv,
        &mut gen,
        ElabOptions {
            budget: opts.reduce,
            memoize: opts.memoize_resolution,
            ..ElabOptions::default()
        },
    );
    diags.extend(ed);
    if opts.share_dictionaries {
        typeclasses::coreir::share_program(&mut elab.core);
    }
    if lint {
        diags.extend(run_lints(
            &LintInput {
                program: &prog,
                cenv: &cenv,
                core: &elab.core,
                user_start,
            },
            &opts.lint_levels,
        ));
    }
    if opts.check_laws && !diags.has_errors() {
        diags.extend(check_laws(
            &LawInput {
                program: &prog,
                cenv: &cenv,
                user_start,
                base: ElabBase::builtins(),
            },
            &opts.coherence_levels,
            &LawOptions {
                eval_budget: opts.law_budget,
                reduce: opts.reduce,
                ..LawOptions::default()
            },
            &mut elab.cache,
            &mut gen,
            &mut metrics,
        ));
    }
    let (outcome, eval) = match (&elab.core.main, diags.has_errors()) {
        (_, true) => ("compile-errors".to_string(), None),
        (None, false) => ("no-main".to_string(), None),
        (Some(main), false) => {
            let run = run_entry_with(
                &elab.core,
                main,
                &EvalOptions {
                    budget: opts.budget,
                    ..EvalOptions::default()
                },
            );
            let outcome = match &run.result {
                Ok(v) => format!("value {v}"),
                Err(e) => format!("eval-error {e}"),
            };
            (outcome, Some(run.stats))
        }
    };
    let mut core = String::new();
    for (name, body) in &elab.core.binds {
        core.push_str(&format!(
            "{name} = {};\n",
            typeclasses::coreir::pretty(body)
        ));
    }
    Produced {
        outcome,
        rendered: diags.render_all_sorted(&full),
        spans: spans(&diags),
        core,
        eval,
    }
}

fn all_modes(base: &Options) -> [(&'static str, Options); 4] {
    let with = |memoize_resolution, share_dictionaries| Options {
        memoize_resolution,
        share_dictionaries,
        ..base.clone()
    };
    [
        ("memo+share", with(true, true)),
        ("memo", with(true, false)),
        ("share", with(false, true)),
        ("off", with(false, false)),
    ]
}

fn assert_agrees(name: &str, src: &str, base: &Options, lint: bool) {
    for (mode, opts) in all_modes(base) {
        let want = reference(src, &opts, lint);
        let got = driver(src, &opts, lint);
        assert_eq!(got, want, "{name} [{mode}, lint {lint}]:\n{src}");
    }
}

fn examples() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("examples").expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "mh") {
            let src = std::fs::read_to_string(&path).expect("example source");
            out.push((path.display().to_string(), src));
        }
    }
    out.sort();
    assert!(out.len() >= 4, "expected the shipped examples");
    out
}

fn deriving_programs(seeds: std::ops::Range<u64>) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for seed in seeds {
        let scn = deriving_gen::gen_scenario(seed);
        let main = deriving_gen::render_main(&scn);
        out.push((
            format!("derived seed {seed}"),
            format!("{}{main}", deriving_gen::render_datas(&scn, true)),
        ));
        out.push((
            format!("handwritten seed {seed}"),
            format!("{}{main}", deriving_gen::render_handwritten(&scn)),
        ));
    }
    out
}

fn perfbench_programs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (workload, count) in [
        (gen::Workload::SmallRun, 24),
        (gen::Workload::ModuleCheck, 4),
        (gen::Workload::EvalRun, 8),
    ] {
        for (i, req) in gen::requests(workload, 11, "prelude-snapshot", count)
            .into_iter()
            .enumerate()
        {
            out.push((format!("{} #{i}", workload.name()), req.program));
        }
    }
    out
}

/// Edge cases of the splice: programs whose diagnostics point into or
/// next to the prelude, or that collide with its names.
fn edge_cases() -> Vec<(&'static str, &'static str)> {
    vec![
        ("empty program", ""),
        ("occurs check", "f x = x x;\nmain = 1;"),
        ("parse error on the first line", "main = ) 1;\nok = 2;"),
        ("junk on the first line", "@@ main = 1;"),
        (
            "overlapping user instances (L0008)",
            "class Sz a where { sz :: a -> Int; };\n\
             instance Sz (List a) where { sz = \\x -> 0; };\n\
             instance Sz (List Int) where { sz = \\x -> 1; };\n\
             main = sz (cons 1 nil);",
        ),
        (
            "duplicate of a prelude instance (L0009)",
            "instance Eq Int where { eq = primEqInt; neq = primEqInt; };\nmain = eq 1 1;",
        ),
        (
            "generic duplicate of a prelude instance (L0009)",
            "instance Eq a => Eq (List a) where { eq = \\x y -> True; neq = \\x y -> False; };\n\
             main = 1;",
        ),
        ("redefined prelude binding (E0408)", "not b = b;\nmain = not True;"),
        (
            "use of a prelude binding the program redefines",
            "h x y = if not True then eq x y else eq y x;\nnot b = b;\nmain = 1;",
        ),
        (
            "redefined prelude class (E0301)",
            "class Eq a where { same :: a -> a -> Bool; };\nmain = 1;",
        ),
        (
            "prelude method redeclared in a class (E0302)",
            "class Foo a where { eq :: a -> a -> Bool; };\nmain = 1;",
        ),
        ("shadowed prelude name (L0005)", "f = \\map -> map;\nmain = f 1;"),
        ("missing instance", "main = eq (\\x -> x) (\\y -> y);"),
        ("ambiguous constraint", "amb = eq nil nil;\nmain = 1;"),
        ("context on main (E0413)", "main x = eq x x;"),
        (
            "type variables in a user instance's overlap",
            "data P a b = MkP a b;\nclass C a where { c :: a -> Int; };\n\
             instance C (P a Int) where { c = \\x -> 0; };\n\
             instance C (P Bool b) where { c = \\x -> 1; };\nmain = 1;",
        ),
        (
            "superclass cycle",
            "class B a => A a where { fa :: a -> a; };\n\
             class A a => B a where { fb :: a -> a; };\nmain = 1;",
        ),
        (
            "signature mismatch",
            "f :: Int -> Bool;\nf x = x;\nmain = f 1;",
        ),
        ("runtime error", "main = head nil;"),
        ("fuel", "from n = cons n (from (add n 1));\nmain = from 0;"),
        (
            "user class over prelude types",
            "class Sz a where { sz :: a -> Int; };\n\
             instance Sz Int where { sz = \\x -> 1; };\n\
             instance Sz a => Sz (List a) where { sz = \\xs -> foldr (\\y n -> add (sz y) n) 0 xs; };\n\
             main = sz (cons (cons 1 nil) nil);",
        ),
    ]
}

#[test]
fn examples_agree_with_the_splice() {
    for (name, src) in examples() {
        assert_agrees(&name, &src, &Options::default(), true);
        assert_agrees(&name, &src, &Options::default(), false);
    }
}

#[test]
fn law_harness_agrees_with_the_splice() {
    let opts = Options {
        check_laws: true,
        ..Options::default()
    };
    for (name, src) in examples().into_iter().chain(deriving_programs(0..6)) {
        assert_agrees(&name, &src, &opts, true);
    }
    let broken = "instance Eq Int where { eq = primLeInt; };";
    let bare = Options {
        use_prelude: false,
        ..opts
    };
    assert_agrees(
        "broken law, no prelude",
        &format!("class Eq a where {{ eq :: a -> a -> Bool; }};\n{broken}"),
        &bare,
        true,
    );
}

#[test]
fn deriving_scenarios_agree_with_the_splice() {
    for (name, src) in deriving_programs(0..30) {
        assert_agrees(&name, &src, &Options::default(), true);
    }
}

#[test]
fn perfbench_workloads_agree_with_the_splice() {
    for (name, src) in perfbench_programs() {
        assert_agrees(&name, &src, &Options::default(), true);
    }
}

#[test]
fn edge_cases_agree_with_the_splice() {
    for (name, src) in edge_cases() {
        assert_agrees(name, src, &Options::default(), true);
        assert_agrees(name, src, &Options::default(), false);
        assert_agrees(name, src, &Options::bare(), true);
    }
}

#[test]
fn type_variables_keep_their_numbers() {
    // An occurs-check message names its variables; the user's data
    // types, classes and instances come before the prelude's phases.
    let src = "data Box a = MkBox a;\nclass K a where { k :: a -> a; };\n\
               instance K Int where { k = \\x -> x; };\nf x = x x;\nmain = 1;";
    let got = driver(src, &Options::default(), false);
    assert_eq!(got, reference(src, &Options::default(), false));
    assert!(
        got.rendered.contains("infinite type `t"),
        "{}",
        got.rendered
    );
}

#[test]
fn one_core_snapshot_serves_every_mode() {
    // The snapshot holds one converted core. That is sound only because
    // the prelude's core is the same in all four memo/share modes:
    // memoization never changes core, and sharing hoists nothing here.
    let cores: Vec<String> = all_modes(&Options::bare())
        .iter()
        .map(|(_, opts)| check_source(PRELUDE, opts).pretty_core())
        .collect();
    assert!(cores.windows(2).all(|w| w[0] == w[1]));
    let shared = check_source(PRELUDE, &Options::bare());
    assert_eq!(shared.stats.share.hoisted_bindings, 0);
    assert_eq!(
        check_source("", &Options::default()).pretty_core(),
        cores[0],
        "the linked prelude is the prelude compiled alone"
    );
}

#[test]
fn requests_resolve_only_their_own_goals() {
    // The splice re-resolved the prelude's 11 goals on every request.
    let opts = Options::default();
    assert_eq!(check_source("main = 1;", &opts).stats.resolve.goals, 0);
    let member = check_source("main = member 7 (enumFromTo 2 9);", &opts);
    assert_eq!(member.stats.resolve.goals, 1);
    assert_eq!(member.stats.resolve.dicts_constructed, 1);
    // Prelude names still answer through the check.
    assert_eq!(
        member.scheme("member").as_deref(),
        Some("Eq a => a -> List a -> Bool")
    );
    assert_eq!(member.scheme("head"), None, "builtins are not bindings");
}

#[test]
fn the_prelude_is_closed() {
    // A user binding that shadows a builtin is the user's alone: the
    // prelude's `member` keeps calling the builtin `head`. (The splice
    // rebound it, and reported an E0401 inside `member`.)
    let r = run_source(
        "head xs = 42;\nmain = member 42 (cons 1 nil);",
        &Options::default(),
    );
    assert!(
        matches!(r.outcome, Outcome::Value(ref v) if v == "False"),
        "{:?}",
        r.outcome
    );
    let codes: Vec<&str> = r.check.diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["E0414"], "{}", r.check.render_diagnostics());
    let own = run_source("head xs = 42;\nmain = head nil;", &Options::default());
    assert!(matches!(own.outcome, Outcome::Value(ref v) if v == "42"));

    // A signature cannot retype a prelude binding: it declares a name
    // the program does not bind. (The splice checked the prelude's
    // `not` against it: four E0401s at prelude lines 20-53.)
    let c = check_source("not :: Int -> Int;", &Options::default());
    assert!(c.ok(), "{}", c.render_diagnostics());
    let codes: Vec<&str> = c.diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["E0407"], "{}", c.render_diagnostics());
    let r = run_source("not :: Int -> Int;\nmain = not True;", &Options::default());
    assert!(matches!(r.outcome, Outcome::Value(ref v) if v == "False"));

    // A top-level binding named like a class method is rejected either
    // way (E0414, same diagnostics as the splice), but it no longer
    // rebinds `eq` inside the prelude's `member` and `Eq (List a)`.
    let src = "eq x y = True;\nmain = 1;";
    let (got, spliced) = (
        driver(src, &Options::default(), true),
        reference(src, &Options::default(), true),
    );
    assert_eq!(
        (&got.outcome, &got.rendered, &got.spans),
        (&spliced.outcome, &spliced.rendered, &spliced.spans)
    );
    assert!(
        got.core.contains("if ((#0 $ds$member$0 x) (head xs))"),
        "{}",
        got.core
    );
    assert!(
        spliced.core.contains("if ((eq x) (head xs))"),
        "{}",
        spliced.core
    );
}

#[test]
fn budgets_faults_and_cancellation_cover_only_the_request() {
    // The snapshot is compiled once, with default options, so a
    // request's budgets and injected faults reach only its own code.
    // (The splice failed `main = 1;` under `elaborate=budget` with an
    // E0421 inside the prelude.)
    let plan = FaultPlan::parse("seed=1;elaborate=budget").unwrap_or_else(|e| panic!("{e}"));
    let opts = Options {
        faults: plan.for_request(0),
        ..Options::default()
    };
    let r = run_source("main = 1;", &opts);
    assert!(
        matches!(r.outcome, Outcome::Value(ref v) if v == "1"),
        "{}",
        r.check.render_diagnostics()
    );
    let r = run_source("main = eq (cons 1 nil) nil;", &opts);
    let codes: Vec<&str> = r.check.diags.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"E0421"), "{codes:?}");

    // A request cancelled before elaboration has no core, not even the
    // prelude's, as under the splice.
    let cancel = CancelToken::new();
    cancel.cancel();
    let opts = Options {
        cancel: Some(cancel),
        ..Options::default()
    };
    let c = check_source("main = 1;", &opts);
    let codes: Vec<&str> = c.diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["E0430"]);
    assert_eq!(c.elab.core.node_count(), 0);
    assert_eq!(c.pretty_core(), "");
}

/// One request line: a `run`, or a `check` (lint on).
fn line(id: u64, program: &str, check: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("id", id);
    if check {
        w.field_str("cmd", "check");
    }
    w.field_str("program", program);
    w.end_object();
    w.finish()
}

/// A response without the fields that describe the server's load
/// rather than the answer: its latency and what load shedding degraded.
fn untimed(response: &str) -> String {
    let mut out = match response.rfind(", \"latency_us\": ") {
        Some(i) => format!("{}}}", &response[..i]),
        None => response.to_string(),
    };
    if let Some(i) = out.find(", \"degraded\": [") {
        if let Some(len) = out[i..].find(']') {
            out.replace_range(i..=i + len, "");
        }
    }
    out
}

#[test]
fn a_multi_worker_batch_answers_like_one_shot_runs() {
    let mut programs: Vec<String> = examples().into_iter().map(|(_, s)| s).collect();
    programs.extend(edge_cases().into_iter().map(|(_, s)| s.to_string()));
    programs.extend(deriving_programs(0..4).into_iter().map(|(_, s)| s));
    programs.extend(perfbench_programs().into_iter().take(12).map(|(_, s)| s));
    let lines: Vec<String> = programs
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            [
                line(2 * i as u64, p, false),
                line(2 * i as u64 + 1, p, true),
            ]
        })
        .collect();
    let batch = ServeConfig {
        workers: 4,
        queue_capacity: lines.len(),
        ..ServeConfig::default()
    };
    let (out, summary) = serve_lines(&lines, &batch);
    assert_eq!(summary.ok(), lines.len() as u64);
    let mut batched: Vec<(u64, String)> = out
        .iter()
        .map(|r| {
            let v = typeclasses::trace::json::parse(r).expect("response JSON");
            (
                v.get("id").and_then(|n| n.as_u64()).expect("id"),
                untimed(r),
            )
        })
        .collect();
    batched.sort();
    let one_shot = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    for (l, (id, got)) in lines.iter().zip(&batched) {
        let (alone, _) = serve_lines(std::slice::from_ref(l), &one_shot);
        assert_eq!(got, &untimed(&alone[0]), "request {id} differs:\n{l}");
    }
}
