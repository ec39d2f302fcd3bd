//! Integration tests for the tc-trace observability layer: stage
//! spans, resolution explain-traces, the evaluator profiler, and the
//! JSON surface they all share.

use typeclasses::eval::BindingProfile;
use typeclasses::trace::json;
use typeclasses::{run_source, Options, Outcome, Stage};

const MEMBER_MAIN: &str = "main = member 3 (enumFromTo 1 5);";

fn traced() -> Options {
    Options {
        trace_timing: true,
        ..Options::default()
    }
}

// ---------------------------------------------------------------- spans

#[test]
fn spans_are_monotone_and_cover_the_whole_run() {
    let r = run_source(MEMBER_MAIN, &traced());
    assert!(matches!(r.outcome, Outcome::Value(_)));

    let spans = r.check.telemetry.spans();
    let names: Vec<&str> = spans.iter().map(|s| s.stage.name()).collect();
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
    // previous one ended, relative to the shared telemetry epoch.
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

    // The stage spans account for the run: total time is the sum of
    // the per-stage durations, and that sum is nonzero.
    let sum: u64 = spans.iter().map(|s| s.duration_ns).sum();
    assert_eq!(r.check.telemetry.total_ns(), sum);
    assert!(sum > 0, "a real run takes measurable time");
}

#[test]
fn lint_stage_is_spanned_when_linting() {
    let check = typeclasses::lint_source(MEMBER_MAIN, &traced());
    let names: Vec<&str> = check
        .telemetry
        .spans()
        .iter()
        .map(|s| s.stage.name())
        .collect();
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
    let r = run_source(MEMBER_MAIN, &Options::default());
    assert!(
        r.check.telemetry.allocates_nothing(),
        "telemetry must be allocation-free when trace_timing is off"
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
    let opts = Options {
        trace_timing: true,
        trace_resolution: true,
        profile_eval: true,
        ..Options::default()
    };
    let r = run_source(MEMBER_MAIN, &opts);
    let j = r.trace_json();
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
}

#[test]
fn trace_json_is_well_formed_with_everything_off() {
    let r = run_source(MEMBER_MAIN, &Options::default());
    let j = r.trace_json();
    json::check(&j).unwrap_or_else(|e| panic!("trace JSON malformed: {e}\n{j}"));
    assert!(
        j.contains("\"profile\": null"),
        "profile is null when off:\n{j}"
    );
}

#[test]
fn compile_error_still_yields_valid_trace_json() {
    let r = run_source("main = nonexistent;", &traced());
    assert!(matches!(r.outcome, Outcome::CompileErrors));
    let j = r.trace_json();
    json::check(&j).unwrap_or_else(|e| panic!("trace JSON malformed: {e}\n{j}"));
    assert!(j.contains("compile-errors"));
}
