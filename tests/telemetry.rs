//! Integration tests for the tc-trace observability layer: stage
//! spans paired from the flight recorder, resolution explain-traces,
//! the evaluator profiler, and the JSON surface they all share.

use typeclasses::eval::BindingProfile;
use typeclasses::trace::events::{stage_spans, timing_table};
use typeclasses::trace::json;
use typeclasses::{run_source, Event, EventKind, EventLog, Options, Outcome, Stage, StageSpan};

const MEMBER_MAIN: &str = "main = member 3 (enumFromTo 1 5);";

/// Options that record the run into a log of its own, and the log.
fn traced() -> (Options, EventLog) {
    let log = EventLog::with_capacity(1 << 12);
    let opts = Options {
        events: log.scope(1),
        ..Options::default()
    };
    (opts, log)
}

/// Everything the run recorded.
fn recorded(log: &EventLog) -> Vec<Event> {
    log.extract_whole(1).expect("the ring holds the whole run")
}

fn stage_names(spans: &[StageSpan]) -> Vec<&'static str> {
    spans.iter().map(|s| s.stage.name()).collect()
}

// ---------------------------------------------------------------- spans

#[test]
fn spans_are_monotone_and_cover_the_whole_run() {
    let (opts, log) = traced();
    let r = run_source(MEMBER_MAIN, &opts);
    assert!(matches!(r.outcome, Outcome::Value(_)));

    let events = recorded(&log);
    let spans = stage_spans(&events);
    let names = stage_names(&spans);
    assert!(spans.iter().all(|s| s.finished), "{spans:?}");
    assert_eq!(
        names,
        [
            "lex",
            "parse",
            "class-env",
            "coherence",
            "elaborate",
            "share",
            "eval"
        ],
        "every pipeline stage should be spanned, in pipeline order"
    );

    // Spans are disjoint and ordered: each one starts at or after the
    // previous one ended, relative to the trace's first event.
    for pair in spans.windows(2) {
        assert!(
            pair[1].start_ns >= pair[0].start_ns,
            "span starts must be nondecreasing: {:?}",
            names
        );
        assert!(
            pair[1].start_ns >= pair[0].end_ns(),
            "{} starts before {} ends",
            pair[1].stage.name(),
            pair[0].stage.name()
        );
    }

    // The stage spans account for the run: the first stage opens the
    // trace, the last one closes it, and they take measurable time.
    assert_eq!(spans[0].start_ns, 0);
    let last = events.last().map(|e| e.ts_ns - events[0].ts_ns);
    assert_eq!(spans.last().map(StageSpan::end_ns), last);
    let sum: u64 = spans.iter().map(|s| s.duration_ns).sum();
    assert!(sum > 0, "a real run takes measurable time");
}

#[test]
fn lint_stage_is_spanned_when_linting() {
    let (opts, log) = traced();
    typeclasses::lint_source(MEMBER_MAIN, &opts);
    let names = stage_names(&stage_spans(&recorded(&log)));
    assert!(
        names.contains(&"lint"),
        "lint runs should record a lint span, got {names:?}"
    );
}

#[test]
fn all_stage_names_are_distinct() {
    let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), Stage::ALL.len());
}

// ---------------------------------------------- zero-cost when disabled

#[test]
fn default_options_allocate_no_trace_structures() {
    let opts = Options::default();
    let r = run_source(MEMBER_MAIN, &opts);
    assert!(
        opts.events.allocates_nothing(),
        "the default run records no events"
    );
    assert!(
        r.check.render_explain().is_none(),
        "no resolution trace unless trace_resolution is set"
    );
    assert!(
        r.profile.is_none(),
        "no evaluator profile unless profile_eval is set"
    );
}

// -------------------------------------------------------------- explain

#[test]
fn explain_names_the_instance_for_members_eq_goal() {
    let opts = Options {
        trace_resolution: true,
        ..Options::default()
    };
    let r = run_source(MEMBER_MAIN, &opts);
    assert!(matches!(r.outcome, Outcome::Value(_)));
    let explain = r.check.render_explain().expect("trace_resolution was on");

    // `member 3 (enumFromTo 1 5)` forces `Eq Int`; the trace must name
    // the instance that discharged it. The trace covers the program's
    // own goals only: the prelude was compiled before it.
    assert_eq!(
        explain, "[#1] Eq Int: instance #0 `Eq Int` [tabled]\n",
        "expected the Eq Int goal to name its instance"
    );
    // An overloaded user binding's `Eq a` goal is discharged from its
    // own context, an assumption.
    let r = run_source("elem x xs = member x xs;\nmain = elem 3 nil;", &opts);
    assert!(matches!(r.outcome, Outcome::Value(_)));
    let explain = r.check.render_explain().expect("trace_resolution was on");
    assert!(
        explain.contains("assumption #0"),
        "expected an assumption discharge in:\n{explain}"
    );
}

#[test]
fn explain_reports_memo_hit_provenance_for_eq_list_int() {
    // Two separate uses of `Eq (List Int)`: the first derivation is
    // tabled, the second must be reported as a memo hit pointing back
    // at the goal that derived it.
    let src = "\
        xs :: List (List Int);\n\
        xs = cons (enumFromTo 1 2) nil;\n\
        a = member (enumFromTo 1 2) xs;\n\
        b = member (enumFromTo 3 4) xs;\n\
        main = a;\n";
    let opts = Options {
        trace_resolution: true,
        ..Options::default()
    };
    let r = run_source(src, &opts);
    assert!(r.check.ok(), "{}", r.check.render_diagnostics());
    let explain = r.check.render_explain().expect("trace_resolution was on");

    assert!(
        explain.contains("Eq (List Int): instance #"),
        "first Eq (List Int) use should derive via the instance:\n{explain}"
    );
    assert!(
        explain.contains("[tabled]"),
        "the closed derivation should be tabled:\n{explain}"
    );
    let memo_line = explain
        .lines()
        .find(|l| l.contains("Eq (List Int): memo hit"))
        .unwrap_or_else(|| panic!("second use should be a memo hit:\n{explain}"));
    assert!(
        memo_line.contains("derived at goal #"),
        "memo hits must carry provenance: {memo_line}"
    );
}

// ------------------------------------------------------------- profiler

#[test]
fn profiler_force_counts_match_analytic_expectations() {
    // `y` is forced twice by `main`; `x` is forced twice by the single
    // evaluation of `y` (its result is cached, so `main`'s second
    // force of `y` does not re-force `x`). `main` is forced once, by
    // the driver.
    let src = "\
        x = 5;\n\
        y = primAddInt x x;\n\
        main = primAddInt y y;\n";
    let opts = Options {
        profile_eval: true,
        use_prelude: false,
        ..Options::default()
    };
    let r = run_source(src, &opts);
    match &r.outcome {
        Outcome::Value(v) => assert_eq!(v, "20"),
        other => panic!("expected 20, got {other:?}"),
    }
    let profile = r.profile.expect("profile_eval was on");
    let forces = |name: &str| -> u64 {
        profile
            .get(name)
            .map(|b: &BindingProfile| b.forces)
            .unwrap_or_else(|| panic!("no profile entry for {name}"))
    };
    assert_eq!(forces("main"), 1);
    assert_eq!(forces("y"), 2);
    assert_eq!(forces("x"), 2);
}

#[test]
fn profiled_eval_stats_land_in_pipeline_stats() {
    let r = run_source(MEMBER_MAIN, &Options::default());
    let stats = r.check.stats.eval.expect("run_checked records EvalStats");
    assert!(stats.fuel_used > 0, "evaluating member burns fuel");
    assert!(stats.forces > 0);
    assert!(stats.thunks_created > 0);
}

// ----------------------------------------------------------------- JSON

#[test]
fn stats_json_is_well_formed() {
    let r = run_source(MEMBER_MAIN, &Options::default());
    let j = r.check.stats.to_json();
    json::check(&j).unwrap_or_else(|e| panic!("stats JSON malformed: {e}\n{j}"));
    assert!(j.contains("\"eval\""), "eval stats belong in stats JSON");
}

#[test]
fn trace_json_is_well_formed_with_everything_on() {
    let (opts, log) = traced();
    let opts = Options {
        trace_resolution: true,
        profile_eval: true,
        ..opts
    };
    let r = run_source(MEMBER_MAIN, &opts);
    let j = r.trace_json(&recorded(&log));
    json::check(&j).unwrap_or_else(|e| panic!("trace JSON malformed: {e}\n{j}"));
    for key in [
        "\"spans\"",
        "\"counters\"",
        "\"stats\"",
        "\"profile\"",
        "\"outcome\"",
    ] {
        assert!(j.contains(key), "trace JSON missing {key}:\n{j}");
    }
    assert!(j.contains("\"stage\": \"eval\""), "{j}");
}

#[test]
fn trace_json_is_well_formed_with_everything_off() {
    let r = run_source(MEMBER_MAIN, &Options::default());
    let j = r.trace_json(&[]);
    json::check(&j).unwrap_or_else(|e| panic!("trace JSON malformed: {e}\n{j}"));
    assert!(
        j.contains("\"profile\": null"),
        "profile is null when off:\n{j}"
    );
    assert!(j.contains("\"spans\": []"), "nothing recorded:\n{j}");
    // The counters come from the compiled program, recorded or not.
    let nodes = r.check.elab.core.node_count();
    assert!(j.contains(&format!("\"core_nodes\": {nodes}")), "{j}");
}

#[test]
fn compile_error_still_yields_valid_trace_json() {
    let (opts, log) = traced();
    let r = run_source("main = nonexistent;", &opts);
    assert!(matches!(r.outcome, Outcome::CompileErrors));
    let j = r.trace_json(&recorded(&log));
    json::check(&j).unwrap_or_else(|e| panic!("trace JSON malformed: {e}\n{j}"));
    assert!(j.contains("compile-errors"));
}

// -------------------------------------------------------- timing views

#[test]
fn timing_table_lists_the_stages_that_ran_then_the_counters() {
    let (opts, log) = traced();
    let opts = Options {
        share_dictionaries: false,
        ..opts
    };
    let r = run_source(MEMBER_MAIN, &opts);
    let table = timing_table(&recorded(&log), &r.check.counters());
    let first_words: Vec<&str> = table
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(
        first_words,
        [
            "stage",
            "lex",
            "parse",
            "class-env",
            "coherence",
            "elaborate",
            "eval",
            "total",
            "--",
            "core_bindings",
            "core_nodes",
            "diagnostics",
        ],
        "a run without sharing has no share row:\n{table}"
    );
}

#[test]
fn stage_end_reports_each_stages_own_diagnostics() {
    let (opts, log) = traced();
    let r = run_source("main = eq 1 True;", &opts);
    assert!(matches!(r.outcome, Outcome::CompileErrors));
    let spans = stage_spans(&recorded(&log));
    let diags: Vec<(&str, u64)> = spans.iter().map(|s| (s.stage.name(), s.diags)).collect();
    let errors = r.check.diags.len() as u64;
    assert!(errors > 0);
    assert_eq!(
        diags,
        [
            ("lex", 0),
            ("parse", 0),
            ("class-env", 0),
            ("coherence", 0),
            ("elaborate", errors),
            ("share", 0),
        ],
        "the type errors belong to elaborate alone"
    );

    // With a parse error ahead of the type error, each stage still
    // counts only its own.
    let (opts, log) = traced();
    run_source("main = eq 1 True;\ny = );", &opts);
    let spans = stage_spans(&recorded(&log));
    let diags: Vec<u64> = spans.iter().map(|s| s.diags).collect();
    assert_eq!(diags, [0, 1, 0, 0, 1, 0], "{spans:?}");
}

#[test]
fn law_harness_is_a_coherence_stage_holding_its_goals() {
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/deriving.mh"))
        .expect("examples/deriving.mh");
    let (opts, log) = traced();
    let opts = Options {
        check_laws: true,
        ..opts
    };
    let r = run_source(&src, &opts);
    assert!(matches!(r.outcome, Outcome::Value(_)), "{:?}", r.outcome);
    let events = recorded(&log);
    let spans = stage_spans(&events);
    assert_eq!(
        stage_names(&spans),
        [
            "lex",
            "parse",
            "class-env",
            "coherence",
            "elaborate",
            "share",
            "coherence",
            "eval"
        ]
    );
    assert!(spans.iter().all(|s| s.finished), "{spans:?}");
    // Every goal, the law harness's included, lies inside a stage.
    let t0 = events[0].ts_ns;
    let goals: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Goal)
        .map(|e| e.ts_ns - t0)
        .collect();
    let inside = |ts: u64, s: &StageSpan| s.start_ns <= ts && ts <= s.end_ns();
    for ts in &goals {
        assert!(
            spans.iter().any(|s| inside(*ts, s)),
            "goal at {ts}ns lies outside every stage: {spans:?}"
        );
    }
    let laws = &spans[6];
    assert!(
        goals.iter().any(|ts| inside(*ts, laws)),
        "the law harness resolves goals of its own"
    );
}

#[test]
fn a_ring_smaller_than_the_run_is_reported_not_shown_short() {
    let log = EventLog::with_capacity(8);
    let opts = Options {
        events: log.scope(1),
        ..Options::default()
    };
    let r = run_source(MEMBER_MAIN, &opts);
    assert!(matches!(r.outcome, Outcome::Value(_)));
    assert!(log.recorded() > 8, "the run outgrows the ring");
    let notice = log
        .extract_whole(1)
        .expect_err("a ring that overwrote events cannot yield the whole run");
    assert!(notice.contains("overwrote"), "{notice}");
}
