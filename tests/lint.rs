//! End-to-end tests for the `tc-lint` static-analysis pass through the
//! driver: every rule fires on a minimal program, the prelude and the
//! shipped examples are lint-clean, levels re-map severities, and lint
//! findings compose with ordinary pipeline diagnostics.

use typeclasses::syntax::Severity;
use typeclasses::{lint_source, run_checked, LintConfig, LintLevel, Options, Outcome, Rule};

fn lint_codes(src: &str) -> Vec<&'static str> {
    let check = lint_source(src, &Options::default());
    check.diags.iter().map(|d| d.code).collect()
}

#[test]
fn prelude_is_lint_clean() {
    // Lint the prelude *as* the user program (findings inside a
    // spliced prelude are suppressed, so `--no-prelude` is the honest
    // check) and deny every rule: any finding at all fails here.
    let opts = Options {
        lint_levels: LintConfig::all(LintLevel::Deny),
        use_prelude: false,
        ..Options::default()
    };
    let check = lint_source(typeclasses::PRELUDE, &opts);
    assert!(check.ok(), "{}", check.render_diagnostics());
    assert!(
        check.diags.is_empty(),
        "prelude must produce zero lint findings:\n{}",
        check.render_diagnostics()
    );
}

#[test]
fn prelude_findings_caused_by_user_code_are_suppressed() {
    // A user top-level `f` makes the prelude's `map f xs` parameter a
    // shadow of it — but that blames code the user cannot edit, so no
    // finding may point into the prelude.
    let check = lint_source(
        "f :: Int -> Int;\nf x = x;\nmain = f 1;",
        &Options::default(),
    );
    assert!(check.diags.is_empty(), "{}", check.render_diagnostics());
}

#[test]
fn shipped_examples_are_lint_clean_and_run() {
    let opts = Options {
        lint_levels: LintConfig::all(LintLevel::Deny),
        ..Options::default()
    };
    for (name, src, expect) in [
        ("member", include_str!("../examples/member.mh"), "True"),
        (
            "sumsquares",
            include_str!("../examples/sumsquares.mh"),
            "385",
        ),
        ("maxlist", include_str!("../examples/maxlist.mh"), "7"),
        ("deriving", include_str!("../examples/deriving.mh"), "True"),
    ] {
        let r = run_checked(lint_source(src, &opts), &opts);
        match r.outcome {
            Outcome::Value(v) => assert_eq!(v, expect, "example `{name}`"),
            other => panic!(
                "example `{name}` failed: {other:?}\n{}",
                r.check.render_diagnostics()
            ),
        }
    }
}

#[test]
fn instance_termination_fires_end_to_end() {
    let src = "class C a where { m :: a -> a; };\n\
               instance C (List (List a)) => C (List a) where { m = \\x -> x; };";
    assert!(lint_codes(src).contains(&"L0001"), "{:?}", lint_codes(src));
}

#[test]
fn redundant_constraint_fires_end_to_end() {
    // `Ord a` implies `Eq a` in the prelude's hierarchy.
    let src = "f :: (Eq a, Ord a) => a -> a;\nf x = x;\nmain = f 1;";
    assert!(lint_codes(src).contains(&"L0002"), "{:?}", lint_codes(src));
}

#[test]
fn ambiguous_type_variable_fires_end_to_end() {
    // `a` appears in the context only; note `g` is never *used* — the
    // lint reports the declaration, before any ambiguous use exists.
    let src = "g :: Eq a => Int -> Int;\ng x = x;";
    assert!(lint_codes(src).contains(&"L0003"), "{:?}", lint_codes(src));
}

#[test]
fn unused_and_shadowed_bindings_fire_end_to_end() {
    let codes = lint_codes("f = \\x -> 1;\ng y = \\y -> y;");
    assert!(codes.contains(&"L0004"), "{codes:?}");
    assert!(codes.contains(&"L0005"), "{codes:?}");
}

#[test]
fn unreachable_arm_fires_end_to_end() {
    let codes = lint_codes("main = if True then 1 else 2;");
    assert!(codes.contains(&"L0006"), "{codes:?}");
}

#[test]
fn unreachable_case_arm_fires_end_to_end() {
    // L0006 generalizes to `case`: an arm after a wildcard can never
    // be selected.
    let src = "data T = A | B;\nf x = case x of { _ -> 0; A -> 1 };\nmain = f A;";
    assert!(lint_codes(src).contains(&"L0006"), "{:?}", lint_codes(src));
}

#[test]
fn non_exhaustive_match_fires_end_to_end() {
    let src = "data T = A | B | C;\nf x = case x of { A -> 1 };\nmain = f A;";
    let check = lint_source(src, &Options::default());
    let d = check
        .diags
        .iter()
        .find(|d| d.code == "L0012")
        .unwrap_or_else(|| panic!("expected L0012:\n{}", check.render_diagnostics()));
    assert_eq!(d.severity, Severity::Warning, "warn by default");
    assert!(
        d.message.contains("`B`") && d.message.contains("`C`"),
        "missing constructors named: {}",
        d.message
    );
    // Deny-level escalation blocks evaluation like any other lint.
    let mut opts = Options::default();
    opts.lint_levels
        .set(Rule::NonExhaustiveMatch, LintLevel::Deny);
    let denied = lint_source(src, &opts);
    assert!(!denied.ok());
    let r = run_checked(denied, &opts);
    assert!(matches!(r.outcome, Outcome::CompileErrors));
}

#[test]
fn match_lint_codes_have_explain_entries() {
    // `--explain L0012` (and every other lint code) resolves through
    // `Rule::ALL`; pin the new rule's code, name, and description so
    // the CLI entry stays stable.
    let rule = Rule::ALL
        .iter()
        .find(|r| r.code() == "L0012")
        .expect("L0012 registered in Rule::ALL");
    assert_eq!(rule.name(), "non-exhaustive-match");
    assert!(
        rule.description().contains("match-failure"),
        "{}",
        rule.description()
    );
    let unreachable = Rule::ALL
        .iter()
        .find(|r| r.code() == "L0006")
        .expect("L0006 registered");
    assert!(
        unreachable.description().contains("case"),
        "L0006 description covers case arms: {}",
        unreachable.description()
    );
}

#[test]
fn repeated_dictionary_fires_only_without_the_sharing_pass() {
    // Two list-equality uses at the same element type construct the
    // same `$dict…$Eq$List $dict…$Eq$Int` dictionary twice in `main`.
    // The dictionary-sharing pass hoists that into one `$sh` binding
    // *before* lint runs, so under default options L0007 stays silent —
    // the pass is precisely the fix the lint used to suggest. With the
    // pass disabled the duplicate construction is back in the program
    // lint sees, and L0007 must fire. This pins the pipeline ordering:
    // convert → share → lint.
    let src = "main = and (eq (cons 1 nil) (cons 1 nil)) (eq (cons 2 nil) (cons 2 nil));";
    let codes = lint_codes(src);
    assert!(
        !codes.contains(&"L0007"),
        "sharing must pre-empt L0007: {codes:?}"
    );

    let opts = Options {
        share_dictionaries: false,
        ..Options::default()
    };
    let unshared = lint_source(src, &opts);
    let codes: Vec<_> = unshared.diags.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"L0007"), "{codes:?}");
}

#[test]
fn warnings_do_not_fail_compilation() {
    let check = lint_source("f = \\x -> 1;", &Options::default());
    assert!(check.ok(), "{}", check.render_diagnostics());
    assert!(check.diags.warning_count() >= 1);
    assert!(check.diags.iter().all(|d| d.severity == Severity::Warning));
    // And the program still runs.
    let opts = Options::default();
    let r = run_checked(lint_source("f = \\x -> 1;\nmain = 42;", &opts), &opts);
    assert!(
        matches!(r.outcome, Outcome::Value(v) if v == "42"),
        "runs despite warnings"
    );
}

#[test]
fn deny_escalates_to_error_and_blocks_evaluation() {
    let mut opts = Options::default();
    opts.lint_levels.set(Rule::UnusedBinding, LintLevel::Deny);
    let check = lint_source("f = \\x -> 1;\nmain = 42;", &opts);
    assert!(!check.ok());
    assert!(check
        .diags
        .iter()
        .any(|d| d.code == "L0004" && d.severity == Severity::Error));
    let r = run_checked(check, &opts);
    assert!(matches!(r.outcome, Outcome::CompileErrors));
}

#[test]
fn allow_silences_a_rule() {
    let mut opts = Options::default();
    opts.lint_levels.set(Rule::UnusedBinding, LintLevel::Allow);
    let check = lint_source("f = \\x -> 1;", &opts);
    assert!(
        check.diags.iter().all(|d| d.code != "L0004"),
        "{}",
        check.render_diagnostics()
    );
}

#[test]
fn check_source_does_not_lint() {
    let check = typeclasses::check_source("f = \\x -> 1;", &Options::default());
    assert!(check.diags.is_empty(), "{}", check.render_diagnostics());
}

#[test]
fn lints_and_pipeline_errors_render_sorted_with_summary() {
    // An unused-parameter warning on line 1 of the user program and an
    // unbound-variable error on line 2: the rendering must order them
    // by source position and append a severity summary.
    let check = lint_source("f = \\x -> 1;\nmain = undefinedName;", &Options::default());
    assert!(!check.ok());
    let rendered = check.render_diagnostics();
    let lint_pos = rendered.find("L0004").expect("lint rendered");
    let err_pos = rendered.find("E0405").expect("type error rendered");
    assert!(lint_pos < err_pos, "sorted by span:\n{rendered}");
    assert!(rendered.contains("warning(s) emitted"), "{rendered}");
}

#[test]
fn resolver_error_codes_are_distinct_end_to_end() {
    // A self-referential instance makes resolution cycle: context
    // reduction reports budget exhaustion (E0421) and dictionary
    // conversion reports the cycle (E0420) — distinct from the plain
    // no-instance code E0410.
    let src = "class C a where { m :: a -> a; };\n\
               instance C (List a) => C (List a) where { m = \\x -> x; };\n\
               main = m (cons 1 nil);";
    let check = typeclasses::check_source(src, &Options::default());
    assert!(!check.ok());
    let codes: Vec<&str> = check.diags.iter().map(|d| d.code).collect();
    assert!(
        codes.iter().any(|c| *c == "E0420" || *c == "E0421"),
        "cycle/budget code expected, got {codes:?}"
    );
    assert!(
        !codes.contains(&"E0410"),
        "not a no-instance failure: {codes:?}"
    );
}

#[test]
fn overlap_error_code_is_stable_end_to_end() {
    // Redefining a prelude instance is an orphan-style duplicate: the
    // coherence pass reports L0009 (deny by default) pointing at the
    // user declaration, with a note naming the prelude original.
    let src = "instance Eq Int where { eq = primEqInt; neq = \\x y -> False; };";
    let check = typeclasses::check_source(src, &Options::default());
    assert!(
        check.diags.iter().any(|d| d.code == "L0009"),
        "expected L0009, got {:?}",
        check.diags.iter().map(|d| &d.code).collect::<Vec<_>>()
    );
    assert!(!check.ok(), "prelude duplicates are deny by default");
}

/// A class of `n` methods and an `Int` instance whose methods all
/// ignore their argument: one unused-parameter warning (`L0004`) per
/// method, and nothing else.
fn many_unused_parameters(n: usize) -> String {
    let mut src = String::from("class Many a where {\n");
    for i in 0..n {
        src.push_str(&format!("  m{i} :: a -> Int;\n"));
    }
    src.push_str("};\ninstance Many Int where {\n");
    for i in 0..n {
        src.push_str(&format!("  m{i} = \\x -> {i};\n"));
    }
    src.push_str("};\n");
    src
}

#[test]
fn warnings_past_the_diagnostic_cap_never_fail_a_compile() {
    let src = format!("{}main = m200 1;", many_unused_parameters(201));
    let check = lint_source(&src, &Options::default());
    assert_eq!(check.diags.warning_count(), 201);
    assert_eq!(check.diags.error_count(), 0);
    assert!(check.diags.dropped() > 0, "the cap was reached");
    assert!(check.ok(), "{}", check.render_diagnostics());
    let rendered = check.render_diagnostics();
    assert!(
        rendered.ends_with("0 error(s), 201 warning(s) emitted"),
        "{rendered}"
    );
    let r = run_checked(check, &Options::default());
    assert!(
        matches!(r.outcome, Outcome::Value(ref v) if v == "200"),
        "{:?}",
        r.outcome
    );
}

#[test]
fn an_error_after_the_diagnostic_cap_still_fails() {
    // 250 warnings fill the cap; the constant-condition `if` is an
    // unreachable-arm finding, denied here, reported after them.
    let src = format!(
        "{}bad = if True then 1 else 2;\nmain = m0 1;",
        many_unused_parameters(250)
    );
    let opts = Options {
        lint_levels: LintConfig::default().with(Rule::UnreachableArm, LintLevel::Deny),
        ..Options::default()
    };
    let check = lint_source(&src, &opts);
    assert!(!check.ok(), "{}", check.render_diagnostics());
    assert_eq!(check.diags.error_count(), 1);
    assert_eq!(check.diags.warning_count(), 250);
    assert!(check.diags.iter().any(|d| d.code == "L0006"));
}
