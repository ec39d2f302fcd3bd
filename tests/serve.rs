//! Chaos suite for the compilation server: seeded fault injection
//! across the pipeline, deadlines, overload, and the serve-vs-oneshot
//! differential.
//!
//! The invariants under test, per ROADMAP:
//!
//! 1. **Exactly-once classification.** Every request line produces
//!    exactly one response, classified `ok` / `error:internal` /
//!    `error:deadline` / `error:overloaded` / `error:bad-request` —
//!    even when faults panic workers in the middle of arbitrary
//!    pipeline stages.
//! 2. **No worker death.** A fixed pool survives hundreds of injected
//!    panics; the session drains to EOF and answers everything.
//! 3. **Metrics reconcile.** The fleet snapshot's per-class counters
//!    sum to the number of requests; responses written match lines
//!    read.
//! 4. **Serve ≡ one-shot.** Every program from the differential
//!    corpus produces byte-identical output through the server and
//!    through a plain [`run_source`] call.

use std::collections::BTreeSet;

use typeclasses::serve::{alloc::ThreadCache, serve_lines, ServeConfig};
use typeclasses::trace::json;
use typeclasses::{run_source, CounterId, FaultPlan, JsonWriter, Options, Outcome};

/// The suite runs on the allocator the `run` binary ships with: it starts
/// and ends worker, reader and ticker threads and catches panics.
#[global_allocator]
static GLOBAL: ThreadCache = ThreadCache;

fn req(id: u64, program: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("id", id);
    w.field_str("program", program);
    w.end_object();
    w.finish()
}

fn parse_all(lines: &[String]) -> Vec<json::Value> {
    lines
        .iter()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("unparseable response: {e}\n{l}")))
        .collect()
}

/// Classify one response into the protocol's response classes.
fn class_of(v: &json::Value) -> &str {
    match v.get("status").and_then(|s| s.as_str()) {
        Some("ok") => "ok",
        Some("error") => v
            .get("error")
            .and_then(|e| e.as_str())
            .unwrap_or("<missing error class>"),
        _ => "<missing status>",
    }
}

/// A small corpus that exercises every pipeline stage meaningfully.
fn chaos_programs() -> [&'static str; 5] {
    [
        "main = member 3 (enumFromTo 1 5);",
        "p = eq (cons 1 nil) (cons 2 nil);\nmain = p;",
        "same x y = eq x y;\nmain = same (cons 1 nil) (cons 1 nil);",
        "main = map (\\x -> mul x x) (enumFromTo 1 4);",
        "data T = A | B Int deriving (Eq, Ord);\n\
         main = and (lte A (B 1)) (case (B 2) of { A -> False; B n -> eq n 2 });",
    ]
}

#[test]
fn chaos_every_request_gets_exactly_one_classified_response() {
    // 120 seeded requests against a plan that panics in three distinct
    // pipeline stages (parse / elaborate / eval) and stalls a fourth
    // site. The decisions are a pure function of (seed, seq, site), so
    // this test replays the exact same failures on every run.
    const N: u64 = 120;
    let plan =
        FaultPlan::parse("seed=1;parse=panic%15;elaborate=panic%15;eval=panic%15;share=delay:1%10")
            .unwrap_or_else(|e| panic!("{e}"));
    // Queue capacity exceeds the batch so nothing is shed: which
    // requests run (and therefore which faults fire) is then a pure
    // function of the seed, making the replay assertion exact.
    let cfg = ServeConfig {
        workers: 4,
        queue_capacity: 256,
        faults: Some(plan),
        ..ServeConfig::default()
    };
    let programs = chaos_programs();
    let lines: Vec<String> = (1..=N)
        .map(|i| req(i, programs[(i as usize) % programs.len()]))
        .collect();
    let (out, summary) = serve_lines(&lines, &cfg);

    // Exactly one response per request, all ids accounted for.
    assert_eq!(out.len() as u64, N, "one response per request line");
    assert_eq!(summary.lines, N);
    assert_eq!(summary.responses, N);
    assert_eq!(summary.write_errors, 0);
    let vals = parse_all(&out);
    let ids: BTreeSet<u64> = vals
        .iter()
        .map(|v| {
            v.get("id")
                .and_then(|i| i.as_u64())
                .unwrap_or_else(|| panic!("response without id"))
        })
        .collect();
    assert_eq!(ids.len() as u64, N, "every id answered exactly once");
    assert_eq!(*ids.iter().next().unwrap_or(&0), 1);
    assert_eq!(*ids.iter().last().unwrap_or(&0), N);

    // Every response falls into a known class; nothing unclassified.
    let allowed = ["ok", "internal", "deadline", "overloaded"];
    let mut by_class = std::collections::HashMap::new();
    for v in &vals {
        let c = class_of(v);
        assert!(allowed.contains(&c), "unexpected class {c}: {v:?}");
        *by_class.entry(c.to_string()).or_insert(0u64) += 1;
    }

    // The injected panics actually fired — and in at least three
    // distinct pipeline stages (the panic payload names its site).
    let internal = by_class.get("internal").copied().unwrap_or(0);
    assert!(
        internal > 0,
        "the 15% panic rules should fire: {by_class:?}"
    );
    let stages: BTreeSet<&str> = vals
        .iter()
        .filter(|v| class_of(v) == "internal")
        .filter_map(|v| v.get("detail").and_then(|d| d.as_str()))
        .flat_map(|d| {
            ["parse", "classenv", "elaborate", "share", "lint", "eval"]
                .into_iter()
                .filter(move |s| d.contains(&format!("panic at {s}")))
        })
        .collect();
    assert!(
        stages.len() >= 3,
        "panics should land in >=3 distinct stages, got {stages:?}"
    );

    // No worker died: the pool drained every admitted request despite
    // the panics, and the oversized queue meant nothing was shed.
    assert_eq!(summary.admitted, N);
    assert_eq!(summary.shed(), 0);

    // Fleet metrics reconcile: per-class counters sum to the request
    // counter, and the request counter matches the lines read.
    let m = &summary.fleet;
    assert_eq!(m.counter(CounterId::ServeRequests), N);
    let classified = m.counter(CounterId::ServeOk)
        + m.counter(CounterId::ServeErrInternal)
        + m.counter(CounterId::ServeErrDeadline)
        + m.counter(CounterId::ServeErrOverloaded)
        + m.counter(CounterId::ServeErrBadRequest);
    assert_eq!(classified, N, "{by_class:?}");
    assert_eq!(m.counter(CounterId::ServeErrInternal), internal);
    assert!(m.counter(CounterId::ServeFaultsInjected) >= internal);

    // Determinism: the same seed and batch produce the same classes.
    let (out2, _) = serve_lines(&lines, &cfg);
    let vals2 = parse_all(&out2);
    let mut by_class2 = std::collections::HashMap::new();
    for v in &vals2 {
        *by_class2.entry(class_of(v).to_string()).or_insert(0u64) += 1;
    }
    assert_eq!(by_class, by_class2, "seeded faults must replay identically");
}

#[test]
fn chaos_delays_plus_deadlines_answer_deadline_errors() {
    // Every request stalls 40ms at the elaborate site but carries a
    // 10ms deadline: the cooperative checks must classify every one
    // as a deadline error — workers never wedge, the batch drains.
    let plan = FaultPlan::parse("seed=5;elaborate=delay:40").unwrap_or_else(|e| panic!("{e}"));
    let cfg = ServeConfig {
        workers: 4,
        queue_capacity: 32,
        default_deadline_ms: Some(10),
        faults: Some(plan),
        ..ServeConfig::default()
    };
    let lines: Vec<String> = (1..=12).map(|i| req(i, "main = add 1 2;")).collect();
    let (out, summary) = serve_lines(&lines, &cfg);
    assert_eq!(out.len(), 12);
    let vals = parse_all(&out);
    for v in &vals {
        assert_eq!(class_of(v), "deadline", "{v:?}");
    }
    assert_eq!(summary.deadline(), 12);
}

#[test]
fn overload_sheds_and_recovers() {
    // A tiny pool and queue under a burst: some requests shed with a
    // retry hint, everything is still answered, and a second calm
    // batch on a fresh session is all-ok (the server state carries no
    // damage forward).
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let lines: Vec<String> = (1..=60)
        .map(|i| req(i, "main = length (enumFromTo 1 500);"))
        .collect();
    let (out, summary) = serve_lines(&lines, &cfg);
    assert_eq!(out.len(), 60);
    assert_eq!(summary.admitted + summary.shed(), 60);
    assert_eq!(summary.responses, 60);
    let vals = parse_all(&out);
    for v in vals.iter().filter(|v| class_of(v) == "overloaded") {
        assert!(
            v.get("retry_after_ms").and_then(|n| n.as_u64()).is_some(),
            "shed responses carry a retry hint: {v:?}"
        );
    }
    // Fleet queue-depth histogram saw admission decisions.
    let m = &summary.fleet;
    assert_eq!(m.counter(CounterId::ServeRequests), 60);

    // A fresh session with breathing room is all-ok: the burst left
    // no damage behind.
    let calm_cfg = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let calm: Vec<String> = (1..=3).map(|i| req(i, "main = add 1 2;")).collect();
    let (out2, summary2) = serve_lines(&calm, &calm_cfg);
    assert_eq!(out2.len(), 3);
    assert_eq!(summary2.ok(), 3);
}

/// A program whose resolution leans on the memo table: 250 nullary
/// types deriving `Eq`, one binding per type whose body resolves
/// `Eq (List^45 D_i)` (46 goals, all tabled), and `w`, which needs all
/// 250 of those at once through a 250-parameter `W`. Each binding fits
/// the resolver's 10,000-step budget alone; `w` fits only because the
/// table still holds every binding's derivation, so a table capped
/// below its 11,500 entries makes `w` fail with `E0421`.
fn memo_table_program() -> String {
    let mut src = String::new();
    for i in 0..250 {
        src.push_str(&format!("data D{i} = D{i} deriving (Eq);\n"));
    }
    let params: Vec<String> = (0..250).map(|i| format!("a{i}")).collect();
    let params = params.join(" ");
    src.push_str(&format!("data W {params} = W {params} deriving (Eq);\n"));
    for i in 0..250 {
        let ty = (0..45).fold(format!("D{i}"), |t, _| format!("List ({t})"));
        src.push_str(&format!(
            "x{i} :: {ty};\nx{i} = let {{ y = nil; }} in if eq y y then y else y;\n"
        ));
    }
    let xs: Vec<String> = (0..250).map(|i| format!("x{i}")).collect();
    let xs = xs.join(" ");
    src.push_str(&format!(
        "w :: Bool;\nw = eq (W {xs}) (W {xs});\nmain = 1;\n"
    ));
    src
}

#[test]
fn an_admitted_request_is_answered_as_on_an_idle_server() {
    // One worker, held 200 ms by a delay at every request's parse site,
    // and a queue of 8. Lines 7 and 8 are admitted with 5–6 and 6–7
    // requests queued ahead of them, whether or not the worker has
    // taken the first yet, and long before it finishes it. However full
    // the queue, an admitted request compiles as it would on an idle
    // server and its response carries what it asked for and nothing
    // about the load.
    let plan = FaultPlan::parse("seed=1;parse=delay:200").unwrap_or_else(|e| panic!("{e}"));
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 8,
        faults: Some(plan),
        ..ServeConfig::default()
    };
    let mut lines: Vec<String> = (1..=6).map(|i| req(i, "main = 1;")).collect();
    lines.push(
        "{\"id\": 7, \"program\": \"main = member 3 (enumFromTo 1 5);\", \"explain\": true}"
            .to_string(),
    );
    lines.push(req(8, &memo_table_program()));
    let (out, summary) = serve_lines(&lines, &cfg);
    assert_eq!((summary.ok(), summary.shed()), (8, 0), "{out:?}");
    let vals = parse_all(&out);
    let by_id = |id: u64| {
        vals.iter()
            .find(|v| v.get("id").and_then(|n| n.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("missing id {id}: {out:?}"))
    };
    let value = |id: u64| by_id(id).get("value").and_then(|s| s.as_str());
    assert_eq!(value(8), Some("1"), "{:.300}", out.join("\n"));
    assert_eq!(value(7), Some("True"));
    let explain = by_id(7).get("explain").and_then(|s| s.as_str());
    assert!(
        explain.is_some_and(|t| t.contains("instance #")),
        "{explain:?}"
    );
    for v in &vals {
        let keys: Vec<&str> = v
            .as_object()
            .unwrap_or_else(|| panic!("not an object: {v:?}"))
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|&k| k != "explain")
            .collect();
        assert_eq!(
            keys,
            ["id", "status", "outcome", "value", "detail", "latency_us"],
            "{v:?}"
        );
    }
}

/// The differential corpus: the checked-in examples plus the inline
/// programs the differential suite uses (same shapes: memo-friendly
/// towers, sharing-friendly repetition, polymorphic contexts, and
/// error programs).
fn differential_programs() -> Vec<(String, String)> {
    let mut progs: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir("examples").expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "mh") {
            progs.push((
                path.display().to_string(),
                std::fs::read_to_string(&path).expect("example source"),
            ));
        }
    }
    assert!(progs.len() >= 3, "expected the three example programs");
    progs.push(("prelude-only".into(), String::new()));
    for (name, src) in [
        (
            "deep-tower",
            "main = eq (cons (cons (cons 1 nil) nil) nil) nil;",
        ),
        (
            "repeated-dicts",
            "p xs = and (eq xs (cons 1 nil)) (eq xs nil);\n\
             main = and (p (cons 2 nil)) (eq (cons 3 nil) nil);",
        ),
        (
            "polymorphic-context",
            "same x y = eq x y;\nmain = same (cons 1 nil) (cons 1 nil);",
        ),
        ("no-instance-error", "main = eq (\\x -> x) (\\y -> y);"),
        ("unbound-error", "main = missingFunction 3;"),
        ("runtime-error", "main = head nil;"),
        (
            "match-failure",
            "data T = A | B;\nf x = case x of { A -> 1 };\nmain = f B;",
        ),
    ] {
        progs.push((name.into(), src.into()));
    }
    progs
}

#[test]
fn serve_matches_oneshot_byte_for_byte() {
    // Same pipeline, two front ends: for every differential program,
    // the server's response must carry exactly the bytes the one-shot
    // driver produces — values, rendered diagnostics, and runtime
    // error messages alike.
    let progs = differential_programs();
    let lines: Vec<String> = progs
        .iter()
        .enumerate()
        .map(|(i, (_, src))| req(i as u64 + 1, src))
        .collect();
    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let (out, summary) = serve_lines(&lines, &cfg);
    assert_eq!(out.len(), progs.len());
    assert_eq!(summary.ok(), progs.len() as u64);
    let vals = parse_all(&out);

    for (i, (name, src)) in progs.iter().enumerate() {
        let id = i as u64 + 1;
        let v = vals
            .iter()
            .find(|v| v.get("id").and_then(|n| n.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("no response for {name}"));
        let one_shot = run_source(src, &Options::default());
        let outcome = v.get("outcome").and_then(|s| s.as_str());
        match &one_shot.outcome {
            Outcome::Value(expected) => {
                assert_eq!(outcome, Some("value"), "{name}: {v:?}");
                assert_eq!(
                    v.get("value").and_then(|s| s.as_str()),
                    Some(expected.as_str()),
                    "{name}: value must be byte-identical"
                );
            }
            Outcome::CompileErrors => {
                assert_eq!(outcome, Some("compile-errors"), "{name}: {v:?}");
                assert_eq!(
                    v.get("detail").and_then(|s| s.as_str()),
                    Some(one_shot.check.render_diagnostics().as_str()),
                    "{name}: diagnostics must be byte-identical"
                );
            }
            Outcome::NoMain => {
                assert_eq!(outcome, Some("no-main"), "{name}: {v:?}");
            }
            Outcome::Eval(e) => {
                assert_eq!(outcome, Some("eval-error"), "{name}: {v:?}");
                assert_eq!(
                    v.get("detail").and_then(|s| s.as_str()),
                    Some(e.to_string().as_str()),
                    "{name}: eval error must be byte-identical"
                );
                assert_eq!(
                    v.get("code").and_then(|s| s.as_str()),
                    Some(e.code()),
                    "{name}"
                );
            }
        }
    }
}

fn check_req(id: u64, program: &str, check_laws: bool, prelude: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("id", id);
    w.field_str("cmd", "check");
    w.field_str("program", program);
    w.field_bool("check_laws", check_laws);
    w.field_bool("prelude", prelude);
    w.end_object();
    w.finish()
}

#[test]
fn check_command_with_warnings_past_the_cap_is_ok() {
    // 201 unused-parameter warnings (lint is on for `check`): more
    // than the diagnostic cap holds, but not one of them is an error.
    let mut src = String::from("class Many a where {\n");
    for i in 0..201 {
        src.push_str(&format!("  m{i} :: a -> Int;\n"));
    }
    src.push_str("};\ninstance Many Int where {\n");
    for i in 0..201 {
        src.push_str(&format!("  m{i} = \\x -> {i};\n"));
    }
    src.push_str("};\nmain = m0 1;");
    let (out, summary) = serve_lines(&[check_req(1, &src, false, true)], &ServeConfig::default());
    assert_eq!(summary.ok(), 1, "{out:?}");
    let v = &parse_all(&out)[0];
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .unwrap_or_else(|| panic!("diagnostics array: {v:?}"));
    assert!(diags
        .iter()
        .all(|d| d.get("severity").and_then(|s| s.as_str()) == Some("warning")));
}

#[test]
fn check_command_surfaces_overlap_with_counterexample() {
    // Two user instances whose heads unify: the coherence checker
    // reports L0008 (deny by default) and the message carries the
    // rendered counterexample type — the most general type both heads
    // cover.
    let src = "class Sz a where { sz :: a -> Int; };\n\
               instance Sz (List a) where { sz = \\x -> 0; };\n\
               instance Sz (List Int) where { sz = \\x -> 1; };\n\
               main = sz (cons 1 nil);";
    let (out, summary) = serve_lines(&[check_req(1, src, false, true)], &ServeConfig::default());
    assert_eq!(summary.ok(), 1, "{out:?}");
    let vals = parse_all(&out);
    let v = &vals[0];
    assert_eq!(v.get("cmd").and_then(|s| s.as_str()), Some("check"));
    // L0008 is deny by default, so the verdict is not-ok...
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    // ...and the response never evaluates, so there is no outcome.
    assert!(v.get("outcome").is_none());
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .unwrap_or_else(|| panic!("diagnostics array: {v:?}"));
    let overlap = diags
        .iter()
        .find(|d| d.get("code").and_then(|c| c.as_str()) == Some("L0008"))
        .unwrap_or_else(|| panic!("no L0008 in {diags:?}"));
    assert_eq!(
        overlap.get("severity").and_then(|s| s.as_str()),
        Some("error")
    );
    let msg = overlap
        .get("message")
        .and_then(|m| m.as_str())
        .unwrap_or("");
    assert!(
        msg.contains("counterexample type `List Int`"),
        "counterexample missing: {msg}"
    );
    // The diagnostic anchors on the second instance head, inside the
    // user program (past the prelude boundary is offset-adjusted to 0).
    assert!(overlap.get("start").and_then(|n| n.as_u64()).is_some());
}

#[test]
fn check_command_reports_law_violations_when_asked() {
    // `primLeInt` is <=, which is reflexive but not symmetric: with
    // check_laws on, the harness evaluates the generated symmetry
    // program and reports L0011 citing the failing sample.
    let src = "class Eq a where { eq :: a -> a -> Bool; };\n\
               instance Eq Int where { eq = primLeInt; };";
    let lines = vec![
        check_req(1, src, true, false),
        check_req(2, src, false, false),
    ];
    let (out, summary) = serve_lines(&lines, &ServeConfig::default());
    assert_eq!(summary.ok(), 2, "{out:?}");
    let vals = parse_all(&out);
    let get = |id: u64| {
        vals.iter()
            .find(|v| v.get("id").and_then(|n| n.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("missing id {id}"))
    };
    let with_laws = get(1);
    let diags = with_laws
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .unwrap_or_else(|| panic!("diagnostics array: {with_laws:?}"));
    let violation = diags
        .iter()
        .find(|d| d.get("code").and_then(|c| c.as_str()) == Some("L0011"))
        .unwrap_or_else(|| panic!("no L0011 in {diags:?}"));
    let msg = violation
        .get("message")
        .and_then(|m| m.as_str())
        .unwrap_or("");
    assert!(msg.contains("symmetry"), "law name missing: {msg}");
    // Law violations are warn by default: the verdict stays ok.
    assert_eq!(with_laws.get("ok").and_then(|b| b.as_bool()), Some(true));
    // Without check_laws the harness never runs, so the same program
    // checks clean.
    let without = get(2);
    assert_eq!(without.get("ok").and_then(|b| b.as_bool()), Some(true));
    let diags = without
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .unwrap_or_else(|| panic!("diagnostics array: {without:?}"));
    assert!(diags
        .iter()
        .all(|d| d.get("code").and_then(|c| c.as_str()) != Some("L0011")));
}

#[test]
fn serve_honors_per_request_option_overrides() {
    // The same program with memoization on and off answers the same
    // value through the pool — the per-request override plumbs all the
    // way down to the resolver, as the stats echo shows.
    let src = "p = and (eq (cons 1 nil) nil) (eq (cons 2 nil) nil);\\nmain = p;";
    let lines = vec![
        format!("{{\"id\": 1, \"program\": \"{src}\", \"stats\": true}}"),
        format!("{{\"id\": 2, \"program\": \"{src}\", \"memoize\": false, \"stats\": true}}"),
    ];
    let (out, _) = serve_lines(&lines, &ServeConfig::default());
    let vals = parse_all(&out);
    let get = |id: u64| {
        vals.iter()
            .find(|v| v.get("id").and_then(|n| n.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("missing id {id}"))
    };
    let memo_on = get(1);
    let memo_off = get(2);
    assert_eq!(
        memo_on.get("value").and_then(|s| s.as_str()),
        memo_off.get("value").and_then(|s| s.as_str())
    );
    let hits = |v: &json::Value| {
        v.get("stats")
            .and_then(|s| s.get("table_hits"))
            .and_then(|n| n.as_u64())
            .unwrap_or_else(|| panic!("stats missing: {v:?}"))
    };
    assert!(hits(memo_on) > 0);
    assert_eq!(hits(memo_off), 0);
}

#[test]
fn a_deep_request_cannot_abort_the_server() {
    // Evaluation depth lives on the heap, so a request may ask for far
    // more depth than a worker's native stack would hold. Trees the
    // compiler's passes recurse over are charged against the parser's
    // nesting budget (400 levels): each shape below, at the budget and
    // at ten times it, is answered, and so is the `main = 1;` after
    // it. A shape marked `REFUSED` is answered past the budget with
    // `E0207` instead of overflowing a worker's stack; one marked
    // `ANSWERED` compiles and prints its `main = 1;` at both sizes.
    const REFUSED: bool = true;
    const ANSWERED: bool = false;
    fn names(prefix: &str, n: usize) -> String {
        let xs: Vec<String> = (0..n).map(|i| format!("{prefix}{i}")).collect();
        xs.join(" ")
    }
    type Program = fn(usize) -> String;
    let shapes: [(&str, bool, Program); 14] = [
        ("spine", REFUSED, |n| {
            format!("g x = 1; main = g {};", vec!["1"; n].join(" "))
        }),
        ("fields", REFUSED, |n| {
            format!(
                "data P = P {} deriving (Eq); main = 1;",
                vec!["Int"; n].join(" ")
            )
        }),
        ("parentheses", REFUSED, |n| {
            format!("main = {}1{};", "(".repeat(n), ")".repeat(n))
        }),
        ("arrows", REFUSED, |n| {
            format!("f :: {}Int; f = f; main = 1;", "Int -> ".repeat(n))
        }),
        ("lambdas", REFUSED, |n| {
            format!("main = {}1;", "\\x -> ".repeat(n))
        }),
        ("lambda parameters", REFUSED, |n| {
            format!("main = \\{} -> 1;", names("x", n))
        }),
        ("binding parameters", REFUSED, |n| {
            format!("f {} = 1; main = 1;", names("x", n))
        }),
        ("else if", REFUSED, |n| {
            format!("main = {}1;", "if True then 1 else ".repeat(n))
        }),
        ("nested let", REFUSED, |n| {
            format!("main = {}1{};", "let x = ".repeat(n), " in x".repeat(n))
        }),
        ("nested case", REFUSED, |n| {
            format!(
                "main = {}1{};",
                "case 1 of { x -> ".repeat(n),
                " }".repeat(n)
            )
        }),
        ("matched fields", ANSWERED, |n| {
            format!(
                "data P = P {}; f p = case p of {{ P {} -> x0 }}; main = 1;",
                vec!["Int"; n].join(" "),
                names("x", n)
            )
        }),
        ("type parameters", ANSWERED, |n| {
            format!("data T {} = T a0; main = 1;", names("a", n))
        }),
        ("type arguments", ANSWERED, |n| {
            format!(
                "data T {} = T a0; f :: T {} -> Int; f t = 1; main = 1;",
                names("a", n),
                vec!["Int"; n].join(" ")
            )
        }),
        ("method arrows", REFUSED, |n| {
            format!(
                "class C a where {{ m :: a -> {}Int; }}; main = 1;",
                "Int -> ".repeat(n - 1)
            )
        }),
    ];
    let mut lines = vec![
        "{\"id\": 1, \"program\": \"main = sum (enumFromTo 1 10000);\", \"max_depth\": 200000}"
            .to_string(),
        req(2, "main = 1;"),
    ];
    let mut deep = Vec::new();
    for (shape, refused, program) in shapes {
        for n in [400, 4_000] {
            let id = lines.len() as u64 + 1;
            lines.push(req(id, &program(n)));
            lines.push(req(id + 1, "main = 1;"));
            deep.push((shape, refused, n, id));
        }
    }
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (out, summary) = serve_lines(&lines, &cfg);
    let vals = parse_all(&out);
    assert_eq!(vals.len(), lines.len(), "{out:?}");
    let by_id = |id: u64| {
        vals.iter()
            .find(|v| v.get("id").and_then(|n| n.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("missing id {id}: {out:?}"))
    };
    let value = |id: u64| by_id(id).get("value").and_then(|s| s.as_str());
    assert_eq!(value(1), Some("50005000"), "{:?}", by_id(1));
    assert_eq!(value(2), Some("1"), "{:?}", by_id(2));
    for (shape, refused, n, id) in deep {
        assert_eq!(value(id + 1), Some("1"), "after {shape} at {n}");
        let v = by_id(id);
        if !refused {
            assert_eq!(value(id), Some("1"), "{shape} at {n}: {v:?}");
        } else if n > 400 {
            let detail = v.get("detail").and_then(|s| s.as_str()).unwrap_or("");
            assert!(detail.contains("E0207"), "{shape} at {n}: {v:?}");
        }
    }
    assert_eq!(summary.responses, lines.len() as u64, "{summary:?}");
}
